//! Peephole optimisation of qudit circuits.
//!
//! The synthesis constructions conjugate levels aggressively, which produces
//! many adjacent gate/inverse pairs after lowering (for example the
//! `X_{0ℓ} … X_{0ℓ}` sandwiches around consecutive controlled gates on the
//! same control level).  [`cancel_inverse_pairs`] removes every pair of gates
//! that are exact inverses of each other and adjacent on all of their qudits.
//!
//! # One stack sweep
//!
//! The reduction is a single pass over the gates with one stack of retained
//! gates per qudit.  Deleting an adjacent inverse pair is a confluent
//! rewriting step (it is free reduction in a partially commutative group:
//! gates on disjoint qudits commute, gates sharing a qudit do not), so the
//! sweep removes every cancellable pair however far apart its gates started,
//! and the result is fully reduced — a second application is the identity.
//! The work per gate is bounded by its arity.  [`inverse_pairs`] runs the
//! sweep on a borrowed circuit and returns the pairs it removes — the
//! rewrite the `cancel-inverse-pairs` pass hands a checker — and
//! [`cancel_inverse_pairs`] takes the circuit by value and removes those
//! pairs in place, moving the gates it keeps instead of cloning them; the
//! pass is one call to it.

use crate::circuit::Circuit;
use crate::error::{QuditError, Result};

/// Removes adjacent gate/inverse pairs from a circuit.
///
/// Two gates form a cancellable pair when the second is the exact inverse of
/// the first (same controls, same target, inverse operation) and no gate in
/// between touches any qudit of the pair.  Cancellation is applied
/// transitively: removing a pair can make an enclosing pair adjacent, which
/// is then removed as well.
///
/// The result implements exactly the same unitary as the input and contains
/// no further cancellable pair (see the module docs).  The retained gates
/// move to the output instead of being cloned.
///
/// # Example
///
/// ```
/// # use qudit_core::{Circuit, Dimension, Gate, QuditId, SingleQuditOp};
/// # use qudit_core::optimize::cancel_inverse_pairs;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d = Dimension::new(5)?;
/// // X+1 followed by X+2 is not an inverse pair: nothing is removed.
/// let mut circuit = Circuit::new(d, 1);
/// circuit.push(Gate::single(SingleQuditOp::Add(1), QuditId::new(0)))?;
/// circuit.push(Gate::single(SingleQuditOp::Add(2), QuditId::new(0)))?;
/// assert_eq!(cancel_inverse_pairs(circuit).len(), 2);
///
/// // X+1 followed by X−1 (= X+4) cancels, leaving only the trailing X+2.
/// let mut circuit = Circuit::new(d, 1);
/// circuit.push(Gate::single(SingleQuditOp::Add(1), QuditId::new(0)))?;
/// circuit.push(Gate::single(SingleQuditOp::Add(4), QuditId::new(0)))?;
/// circuit.push(Gate::single(SingleQuditOp::Add(2), QuditId::new(0)))?;
/// assert_eq!(cancel_inverse_pairs(circuit).len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn cancel_inverse_pairs(circuit: Circuit) -> Circuit {
    let pairs = inverse_pairs(&circuit);
    remove_pairs(circuit, &pairs).expect("the sweep's pairs name distinct gates of its input")
}

/// The pairs [`cancel_inverse_pairs`] removes from `circuit`, as
/// `(first, second)` gate indices in increasing order of `second`: the
/// one stack sweep of the module docs, reading the gates in place.  This
/// is the `cancel-inverse-pairs` pass's [`Rewrite`](crate::pipeline::Rewrite).
pub fn inverse_pairs(circuit: &Circuit) -> Vec<(usize, usize)> {
    let (dimension, gates) = (circuit.dimension(), circuit.gates());
    let mut pairs = Vec::new();
    // For each qudit, the indices of the retained gates that touch it, in
    // order.
    let mut last_touch: Vec<Vec<usize>> = vec![Vec::new(); circuit.width()];

    for (i, gate) in gates.iter().enumerate() {
        // The candidate for cancellation is the most recent retained gate on
        // this gate's qudits: it must be the most recent on all of them.
        let candidate = {
            let mut latest = gate
                .support()
                .map(|q| last_touch[q.index()].last().copied());
            let first = latest.next().flatten();
            first.filter(|&index| latest.all(|last| last == Some(index)))
        };
        let cancels = candidate.filter(|&index| {
            let previous = &gates[index];
            // `previous` touches every qudit of `gate`; neither gate repeats a
            // qudit, so equal arity means equal supports.
            previous.arity() == gate.arity() && gate.is_inverse_of(previous, dimension)
        });
        if let Some(index) = cancels {
            // Remove the previous gate and this one.
            for q in gate.support() {
                let stack = &mut last_touch[q.index()];
                debug_assert_eq!(stack.last(), Some(&index));
                stack.pop();
            }
            pairs.push((index, i));
        } else {
            for q in gate.support() {
                last_touch[q.index()].push(i);
            }
        }
    }
    pairs
}

/// `circuit` without the gates of `pairs`, the kept gates moved in place
/// (see [`Rewrite::Cancel`](crate::pipeline::Rewrite::Cancel)).
pub(crate) fn remove_pairs(mut circuit: Circuit, pairs: &[(usize, usize)]) -> Result<Circuit> {
    let mut removed = vec![false; circuit.len()];
    for &(first, second) in pairs {
        if first >= second || second >= removed.len() || removed[first] || removed[second] {
            return Err(QuditError::IncompatibleCircuits {
                reason: format!(
                    "pair ({first}, {second}) does not name two unpaired gates, in order, of a {}-gate circuit",
                    removed.len()
                ),
            });
        }
        removed[first] = true;
        removed[second] = true;
    }
    let mut index = 0;
    circuit.retain(|_| {
        index += 1;
        !removed[index - 1]
    });
    Ok(circuit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::Control;
    use crate::dimension::Dimension;
    use crate::gate::Gate;
    use crate::ops::SingleQuditOp;
    use crate::qudit::QuditId;

    fn dim(d: u32) -> Dimension {
        Dimension::new(d).unwrap()
    }

    fn assert_same_action(a: &Circuit, b: &Circuit) {
        let dimension = a.dimension();
        let d = dimension.as_usize();
        let width = a.width();
        let size = dimension.register_size(width);
        for mut index in 0..size {
            let mut digits = vec![0u32; width];
            for slot in digits.iter_mut().rev() {
                *slot = (index % d) as u32;
                index /= d;
            }
            assert_eq!(
                a.apply_to_basis(&digits).unwrap(),
                b.apply_to_basis(&digits).unwrap()
            );
        }
    }

    #[test]
    fn adjacent_involutions_cancel() {
        let d = dim(3);
        let mut c = Circuit::new(d, 2);
        let gate = Gate::controlled(
            SingleQuditOp::Swap(0, 1),
            QuditId::new(1),
            vec![Control::zero(QuditId::new(0))],
        );
        c.push(gate.clone()).unwrap();
        c.push(gate).unwrap();
        let optimized = cancel_inverse_pairs(c);
        assert!(optimized.is_empty());
    }

    #[test]
    fn nested_pairs_cancel_transitively() {
        let d = dim(5);
        let mut c = Circuit::new(d, 1);
        // X+1, X+2, X−2, X−1 — cancels completely from the inside out.
        c.push(Gate::single(SingleQuditOp::Add(1), QuditId::new(0)))
            .unwrap();
        c.push(Gate::single(SingleQuditOp::Add(2), QuditId::new(0)))
            .unwrap();
        c.push(Gate::single(SingleQuditOp::Add(3), QuditId::new(0)))
            .unwrap();
        c.push(Gate::single(SingleQuditOp::Add(4), QuditId::new(0)))
            .unwrap();
        let optimized = cancel_inverse_pairs(c);
        assert!(optimized.is_empty());
    }

    #[test]
    fn intervening_gates_block_cancellation() {
        let d = dim(3);
        let mut c = Circuit::new(d, 2);
        let swap = Gate::single(SingleQuditOp::Swap(0, 1), QuditId::new(0));
        c.push(swap.clone()).unwrap();
        // A gate on the same qudit in between prevents the outer pair from
        // cancelling.
        c.push(Gate::controlled(
            SingleQuditOp::Add(1),
            QuditId::new(1),
            vec![Control::zero(QuditId::new(0))],
        ))
        .unwrap();
        c.push(swap).unwrap();
        let optimized = cancel_inverse_pairs(c.clone());
        assert_eq!(optimized.len(), 3);
        assert_same_action(&c, &optimized);
    }

    #[test]
    fn gates_on_disjoint_qudits_do_not_block() {
        let d = dim(3);
        let mut c = Circuit::new(d, 3);
        let swap = Gate::single(SingleQuditOp::Swap(0, 2), QuditId::new(0));
        c.push(swap.clone()).unwrap();
        c.push(Gate::single(SingleQuditOp::Add(1), QuditId::new(2)))
            .unwrap();
        c.push(swap).unwrap();
        let optimized = cancel_inverse_pairs(c.clone());
        assert_eq!(optimized.len(), 1);
        assert_same_action(&c, &optimized);
    }

    #[test]
    fn controls_must_match_for_cancellation() {
        let d = dim(3);
        let mut c = Circuit::new(d, 2);
        c.push(Gate::controlled(
            SingleQuditOp::Swap(0, 1),
            QuditId::new(1),
            vec![Control::zero(QuditId::new(0))],
        ))
        .unwrap();
        c.push(Gate::controlled(
            SingleQuditOp::Swap(0, 1),
            QuditId::new(1),
            vec![Control::level(QuditId::new(0), 1)],
        ))
        .unwrap();
        let optimized = cancel_inverse_pairs(c);
        assert_eq!(optimized.len(), 2);
    }

    #[test]
    fn optimisation_preserves_semantics_on_a_mixed_circuit() {
        let d = dim(4);
        let mut c = Circuit::new(d, 3);
        let gates = vec![
            Gate::single(SingleQuditOp::Swap(0, 3), QuditId::new(0)),
            Gate::controlled(
                SingleQuditOp::Add(1),
                QuditId::new(1),
                vec![Control::odd(QuditId::new(0))],
            ),
            Gate::controlled(
                SingleQuditOp::Add(3),
                QuditId::new(1),
                vec![Control::odd(QuditId::new(0))],
            ),
            Gate::single(SingleQuditOp::Swap(0, 3), QuditId::new(0)),
            Gate::single(SingleQuditOp::ParityFlipEven, QuditId::new(2)),
        ];
        for gate in gates {
            c.push(gate).unwrap();
        }
        let optimized = cancel_inverse_pairs(c.clone());
        assert!(optimized.len() < c.len());
        assert_same_action(&c, &optimized);
    }

    /// A deterministic pseudo-random circuit that mixes cancelling and
    /// non-cancelling runs, with inverse pairs far apart.
    fn mixed_circuit(gates: usize, seed: u64) -> Circuit {
        let d = dim(3);
        let mut c = Circuit::new(d, 3);
        // xorshift needs a nonzero state.
        let mut state = seed | 1;
        let mut pending: Vec<Gate> = Vec::new();
        while c.len() < gates {
            // xorshift* step.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let roll = (state.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 59) as usize;
            let target = QuditId::new(roll % 3);
            let gate = match roll % 4 {
                0 => Gate::single(SingleQuditOp::Add(1), target),
                1 => Gate::single(SingleQuditOp::Swap(0, 2), target),
                2 => Gate::controlled(
                    SingleQuditOp::Add(2),
                    target,
                    vec![Control::zero(QuditId::new((target.index() + 1) % 3))],
                ),
                _ => {
                    // Close a previously opened gate with its inverse so the
                    // circuit actually contains distant cancellable pairs.
                    match pending.pop() {
                        Some(open) => open.inverse(d),
                        None => Gate::single(SingleQuditOp::Add(1), target),
                    }
                }
            };
            if roll % 4 != 3 && pending.len() < 8 {
                pending.push(gate.clone());
            }
            c.push(gate).unwrap();
        }
        c
    }

    #[test]
    fn one_sweep_is_a_fixed_point() {
        for seed in [0x2545_F491_4F6C_DD1D, 7, 0xDEAD_BEEF] {
            let c = mixed_circuit(3172, seed);
            let once = cancel_inverse_pairs(c.clone());
            assert!(once.len() < c.len(), "the workload must cancel something");
            let twice = cancel_inverse_pairs(once.clone());
            assert_eq!(once, twice, "reduction must reach a fixed point");
            assert_same_action(&c, &once);
        }
    }

    #[test]
    fn boundary_straddling_pairs_cancel_across_windows() {
        // A palindrome of 2048 non-self-inverse gates: the pairs nest, so
        // the outermost one encloses 2046 gates — more than any fixed-size
        // window of 1024 — and cancels only once everything inside it has.
        let d = dim(5);
        let mut c = Circuit::new(d, 2);
        let forward: Vec<Gate> = (0..1024)
            .map(|i| Gate::single(SingleQuditOp::Add(1 + (i as u32) % 3), QuditId::new(i % 2)))
            .collect();
        for gate in &forward {
            c.push(gate.clone()).unwrap();
        }
        for gate in forward.iter().rev() {
            c.push(gate.inverse(d)).unwrap();
        }
        assert_eq!(c.len(), 2048);
        assert!(cancel_inverse_pairs(c).is_empty());
    }
}
