//! Circuit depth: the number of layers when gates acting on disjoint qudits
//! are executed in parallel.
//!
//! Depth is the secondary cost metric used throughout the NISQ literature the
//! paper cites; the experiment harness reports it alongside gate counts.

use crate::circuit::Circuit;

/// Computes the depth of a circuit under the usual greedy (as-soon-as-possible)
/// scheduling: a gate starts in the earliest layer after every qudit it
/// touches has finished its previous gate.
///
/// The empty circuit has depth 0.
///
/// # Example
///
/// ```
/// # use qudit_core::{Circuit, Dimension, Gate, QuditId, SingleQuditOp};
/// # use qudit_core::depth::circuit_depth;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d = Dimension::new(3)?;
/// let mut circuit = Circuit::new(d, 2);
/// circuit.push(Gate::single(SingleQuditOp::Swap(0, 1), QuditId::new(0)))?;
/// circuit.push(Gate::single(SingleQuditOp::Swap(0, 1), QuditId::new(1)))?;
/// // The two gates touch different qudits, so they fit in one layer.
/// assert_eq!(circuit_depth(&circuit), 1);
/// # Ok(())
/// # }
/// ```
pub fn circuit_depth(circuit: &Circuit) -> usize {
    let mut finish = vec![0usize; circuit.width()];
    let mut depth = 0usize;
    for gate in circuit.gates() {
        let start = gate.support().map(|q| finish[q.index()]).max().unwrap_or(0);
        let layer = start + 1;
        for q in gate.support() {
            finish[q.index()] = layer;
        }
        depth = depth.max(layer);
    }
    depth
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::Control;
    use crate::dimension::Dimension;
    use crate::gate::Gate;
    use crate::ops::SingleQuditOp;
    use crate::qudit::QuditId;

    fn dim() -> Dimension {
        Dimension::new(3).unwrap()
    }

    #[test]
    fn empty_circuit_has_depth_zero() {
        assert_eq!(circuit_depth(&Circuit::new(dim(), 3)), 0);
    }

    #[test]
    fn disjoint_gates_share_a_layer() {
        let mut c = Circuit::new(dim(), 4);
        c.push(Gate::single(SingleQuditOp::Add(1), QuditId::new(0)))
            .unwrap();
        c.push(Gate::single(SingleQuditOp::Add(1), QuditId::new(1)))
            .unwrap();
        c.push(Gate::controlled(
            SingleQuditOp::Add(1),
            QuditId::new(3),
            vec![Control::zero(QuditId::new(2))],
        ))
        .unwrap();
        assert_eq!(circuit_depth(&c), 1);
    }

    #[test]
    fn overlapping_gates_stack_up() {
        let mut c = Circuit::new(dim(), 3);
        for _ in 0..4 {
            c.push(Gate::controlled(
                SingleQuditOp::Swap(0, 1),
                QuditId::new(1),
                vec![Control::zero(QuditId::new(0))],
            ))
            .unwrap();
        }
        assert_eq!(circuit_depth(&c), 4);
    }

    #[test]
    fn depth_never_exceeds_gate_count() {
        let mut c = Circuit::new(dim(), 3);
        c.push(Gate::single(SingleQuditOp::Add(1), QuditId::new(0)))
            .unwrap();
        c.push(Gate::controlled(
            SingleQuditOp::Add(2),
            QuditId::new(2),
            vec![Control::odd(QuditId::new(0))],
        ))
        .unwrap();
        c.push(Gate::single(SingleQuditOp::Add(1), QuditId::new(1)))
            .unwrap();
        let depth = circuit_depth(&c);
        assert!(depth <= c.len());
        assert!(depth >= 1);
    }
}
