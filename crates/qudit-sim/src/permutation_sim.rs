//! Classical (permutation) simulation of qudit circuits.
//!
//! Every circuit emitted by the synthesis algorithms of the paper consists of
//! classical gates (level permutations), so their action is fully described
//! by a permutation of the computational basis.  This simulator propagates
//! single basis states and can extract the full permutation table of a
//! circuit for equivalence checking.

use qudit_core::{Circuit, Dimension, QuditError, Result};

use crate::basis::{BasisBatch, BLOCK_STATES};

/// A simulator that tracks a single computational basis state.
///
/// # Example
///
/// ```
/// # use qudit_core::{Circuit, Control, Dimension, Gate, QuditId, SingleQuditOp};
/// # use qudit_sim::PermutationSimulator;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d = Dimension::new(3)?;
/// let mut circuit = Circuit::new(d, 2);
/// circuit.push(Gate::controlled(
///     SingleQuditOp::Add(1),
///     QuditId::new(1),
///     vec![Control::zero(QuditId::new(0))],
/// ))?;
///
/// let mut sim = PermutationSimulator::new(d, 2);
/// sim.run(&circuit)?;
/// assert_eq!(sim.state(), &[0, 1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PermutationSimulator {
    dimension: Dimension,
    state: Vec<u32>,
}

impl PermutationSimulator {
    /// Creates a simulator in the all-zeros state.
    pub fn new(dimension: Dimension, width: usize) -> Self {
        PermutationSimulator {
            dimension,
            state: vec![0; width],
        }
    }

    /// Creates a simulator initialised to the given basis state.
    ///
    /// # Errors
    ///
    /// Returns an error when a digit is out of range for the dimension.
    pub fn from_state(dimension: Dimension, state: &[u32]) -> Result<Self> {
        for &digit in state {
            dimension.check_level(digit)?;
        }
        Ok(PermutationSimulator {
            dimension,
            state: state.to_vec(),
        })
    }

    /// The current basis state.
    pub fn state(&self) -> &[u32] {
        &self.state
    }

    /// The dimension of each qudit.
    pub fn dimension(&self) -> Dimension {
        self.dimension
    }

    /// Number of qudits tracked.
    pub fn width(&self) -> usize {
        self.state.len()
    }

    /// Runs a classical circuit on the current state.
    ///
    /// # Errors
    ///
    /// Returns an error when the circuit width or dimension does not match
    /// the simulator, or when the circuit contains a non-classical gate.
    pub fn run(&mut self, circuit: &Circuit) -> Result<()> {
        if circuit.dimension() != self.dimension {
            return Err(QuditError::IncompatibleCircuits {
                reason: format!(
                    "circuit dimension {} does not match simulator dimension {}",
                    circuit.dimension(),
                    self.dimension
                ),
            });
        }
        if circuit.width() > self.state.len() {
            return Err(QuditError::IncompatibleCircuits {
                reason: format!(
                    "circuit width {} exceeds simulator width {}",
                    circuit.width(),
                    self.state.len()
                ),
            });
        }
        for gate in circuit.gates() {
            gate.apply_to_basis(&mut self.state, self.dimension)?;
        }
        Ok(())
    }
}

/// Computes the full permutation table of a classical circuit.
///
/// Entry `i` of the result is the index of the basis state that input state
/// `i` is mapped to.  The basis streams through the [`BasisBatch`] kernel a
/// block at a time.
///
/// # Errors
///
/// Returns an error when the circuit contains a non-classical gate.
pub fn circuit_permutation(circuit: &Circuit) -> Result<Vec<usize>> {
    let dimension = circuit.dimension();
    let width = circuit.width();
    let size = dimension.register_size(width);
    let mut table = Vec::with_capacity(size);
    for start in (0..size).step_by(BLOCK_STATES) {
        let mut batch =
            BasisBatch::from_range(dimension, width, start..(start + BLOCK_STATES).min(size));
        batch.apply(circuit)?;
        table.extend(batch.indices());
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_core::{Control, Gate, QuditId, SingleQuditOp};

    fn dim(d: u32) -> Dimension {
        Dimension::new(d).unwrap()
    }

    fn controlled_add(d: Dimension) -> Circuit {
        let mut c = Circuit::new(d, 2);
        c.push(Gate::controlled(
            SingleQuditOp::Add(1),
            QuditId::new(1),
            vec![Control::zero(QuditId::new(0))],
        ))
        .unwrap();
        c
    }

    #[test]
    fn propagates_basis_states() {
        let d = dim(3);
        let circuit = controlled_add(d);
        let mut sim = PermutationSimulator::from_state(d, &[0, 2]).unwrap();
        sim.run(&circuit).unwrap();
        assert_eq!(sim.state(), &[0, 0]);
        let mut idle = PermutationSimulator::from_state(d, &[1, 2]).unwrap();
        idle.run(&circuit).unwrap();
        assert_eq!(idle.state(), &[1, 2]);
    }

    #[test]
    fn rejects_mismatched_circuits() {
        let circuit = controlled_add(dim(3));
        let mut sim = PermutationSimulator::new(dim(4), 2);
        assert!(sim.run(&circuit).is_err());
        let mut narrow = PermutationSimulator::new(dim(3), 1);
        assert!(narrow.run(&circuit).is_err());
    }

    #[test]
    fn permutation_table_is_a_permutation() {
        let circuit = controlled_add(dim(3));
        let table = circuit_permutation(&circuit).unwrap();
        let mut sorted = table.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn identical_circuits_compare_equal() {
        let a = controlled_add(dim(3));
        let b = controlled_add(dim(3));
        assert_eq!(
            circuit_permutation(&a).unwrap(),
            circuit_permutation(&b).unwrap()
        );
        let empty = Circuit::new(dim(3), 2);
        assert_ne!(
            circuit_permutation(&a).unwrap(),
            circuit_permutation(&empty).unwrap()
        );
    }

    #[test]
    fn inverse_circuit_gives_inverse_permutation() {
        let d = dim(5);
        let mut c = Circuit::new(d, 2);
        c.push(Gate::single(SingleQuditOp::Add(3), QuditId::new(0)))
            .unwrap();
        c.push(Gate::controlled(
            SingleQuditOp::Swap(1, 4),
            QuditId::new(1),
            vec![Control::odd(QuditId::new(0))],
        ))
        .unwrap();
        let forward = circuit_permutation(&c).unwrap();
        let backward = circuit_permutation(&c.inverse()).unwrap();
        for (i, &f) in forward.iter().enumerate() {
            assert_eq!(backward[f], i);
        }
    }

    #[test]
    fn invalid_initial_state_is_rejected() {
        assert!(PermutationSimulator::from_state(dim(3), &[0, 3]).is_err());
    }
}
