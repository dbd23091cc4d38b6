//! Peephole optimisation of qudit circuits.
//!
//! The synthesis constructions conjugate levels aggressively, which produces
//! many adjacent gate/inverse pairs after lowering (for example the
//! `X_{0ℓ} … X_{0ℓ}` sandwiches around consecutive controlled gates on the
//! same control level).  [`cancel_inverse_pairs`] removes every pair of gates
//! that are exact inverses of each other and adjacent on all of their qudits.
//!
//! # Windowed reduction
//!
//! Large circuits are reduced in fixed-size *windows* of
//! [`CANCEL_WINDOW_SIZE`] gates: every window is reduced independently with
//! the per-qudit stack pass, the surviving gates are concatenated in order,
//! and one final stack pass over the survivors removes the pairs that
//! straddled a window boundary.  Deleting an adjacent inverse pair is a
//! confluent rewriting step (it is free reduction in a partially commutative
//! group: gates on disjoint qudits commute, gates sharing a qudit do not),
//! so the windowed reduction removes exactly as many gates as a single
//! sequential sweep and the result is fully reduced — a second application
//! is the identity.
//!
//! Windows only depend on the gate list, never on the execution mode, so
//! [`cancel_inverse_pairs`] and [`cancel_inverse_pairs_on`] (the same
//! algorithm with the window reductions fanned out over a
//! [`WorkStealingPool`]) return byte-identical circuits; pipelines may pick
//! either freely without perturbing batch-vs-sequential comparisons.

use crate::circuit::Circuit;
use crate::dimension::Dimension;
use crate::gate::Gate;
use crate::pool::WorkStealingPool;

/// Number of gates per independently reduced window.
///
/// Circuits at most this long are reduced in a single sequential sweep (the
/// windowed and single-sweep algorithms coincide there); longer circuits are
/// split into `ceil(len / CANCEL_WINDOW_SIZE)` windows whose reductions are
/// independent — the unit of parallelism of [`cancel_inverse_pairs_on`].
pub const CANCEL_WINDOW_SIZE: usize = 1024;

/// One sequential stack-pass over a gate sequence, returning the surviving
/// gates in order.
///
/// Two gates form a cancellable pair when the second is the exact inverse of
/// the first (same controls, same target, inverse operation) and no surviving
/// gate in between touches any qudit of the pair.  Cancellation is applied
/// transitively: removing a pair can make an enclosing pair adjacent, which
/// is then removed as well.  One pass reaches a fixed point (see the module
/// docs), so the result contains no cancellable pair.
fn reduce_gates<I>(dimension: Dimension, width: usize, gates: I) -> Vec<Gate>
where
    I: IntoIterator<Item = Gate>,
{
    // `kept[i]` is Some(gate) while gate i is still in the output.
    let mut kept: Vec<Option<Gate>> = Vec::new();
    // For each qudit, the indices (into `kept`) of the retained gates that
    // touch it, in order.
    let mut last_touch: Vec<Vec<usize>> = vec![Vec::new(); width];

    for gate in gates {
        // The candidate for cancellation is the most recent retained gate on
        // any of this gate's qudits — and it must be the most recent on all
        // of them.
        let candidate = gate
            .support()
            .filter_map(|q| last_touch[q.index()].last().copied())
            .max();
        let cancels = candidate.is_some_and(|index| {
            let previous = kept[index].as_ref().expect("candidate is retained");
            // `previous` touches every qudit of `gate`; neither gate repeats a
            // qudit, so equal arity means equal supports.
            gate.support()
                .all(|q| last_touch[q.index()].last() == Some(&index))
                && previous.arity() == gate.arity()
                && gate.is_inverse_of(previous, dimension)
        });
        if let (true, Some(index)) = (cancels, candidate) {
            // Remove the previous gate and drop the current one.
            kept[index] = None;
            for q in gate.support() {
                let stack = &mut last_touch[q.index()];
                debug_assert_eq!(stack.last(), Some(&index));
                stack.pop();
            }
        } else {
            let index = kept.len();
            for q in gate.support() {
                last_touch[q.index()].push(index);
            }
            kept.push(Some(gate));
        }
    }

    kept.into_iter().flatten().collect()
}

/// Reduces the windows (sequentially or on a pool) and stitches the
/// survivors with a final sequential pass.
fn cancel_windowed(circuit: &Circuit, pool: Option<&WorkStealingPool>) -> Circuit {
    let dimension = circuit.dimension();
    let width = circuit.width();
    let survivors = if circuit.len() <= CANCEL_WINDOW_SIZE {
        reduce_gates(dimension, width, circuit.gates().iter().cloned())
    } else {
        let windows: Vec<&[Gate]> = circuit.gates().chunks(CANCEL_WINDOW_SIZE).collect();
        let reduce_window =
            |window: &[Gate]| reduce_gates(dimension, width, window.iter().cloned());
        let reduced: Vec<Vec<Gate>> = match pool {
            Some(pool) => pool.map(windows, reduce_window),
            None => windows.into_iter().map(reduce_window).collect(),
        };
        // The boundary-straddling pairs only become adjacent now; one more
        // pass over the (already much shorter) survivors reduces fully.
        reduce_gates(dimension, width, reduced.into_iter().flatten())
    };

    let mut out = Circuit::new(dimension, width);
    for gate in survivors {
        out.push(gate)
            .expect("gates were valid in the input circuit");
    }
    out
}

/// Removes adjacent gate/inverse pairs from a circuit.
///
/// Two gates form a cancellable pair when the second is the exact inverse of
/// the first (same controls, same target, inverse operation) and no gate in
/// between touches any qudit of the pair.  Cancellation is applied
/// transitively: removing a pair can make an enclosing pair adjacent, which
/// is then removed as well.
///
/// The result implements exactly the same unitary as the input and contains
/// no further cancellable pair.  Circuits longer than [`CANCEL_WINDOW_SIZE`]
/// are reduced window-by-window (see the module docs); use
/// [`cancel_inverse_pairs_on`] to reduce the windows in parallel — both
/// functions return the identical circuit.
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
/// assert_eq!(cancel_inverse_pairs(&circuit).len(), 2);
///
/// // X+1 followed by X−1 (= X+4) cancels, leaving only the trailing X+2.
/// let mut circuit = Circuit::new(d, 1);
/// circuit.push(Gate::single(SingleQuditOp::Add(1), QuditId::new(0)))?;
/// circuit.push(Gate::single(SingleQuditOp::Add(4), QuditId::new(0)))?;
/// circuit.push(Gate::single(SingleQuditOp::Add(2), QuditId::new(0)))?;
/// assert_eq!(cancel_inverse_pairs(&circuit).len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn cancel_inverse_pairs(circuit: &Circuit) -> Circuit {
    cancel_windowed(circuit, None)
}

/// [`cancel_inverse_pairs`] with the window reductions fanned out over a
/// [`WorkStealingPool`].
///
/// The windows are fixed-size chunks of the gate list (they depend only on
/// the circuit, not on the worker count), so the result is byte-identical to
/// the sequential [`cancel_inverse_pairs`] for every pool size — callers may
/// switch between the two freely.
///
/// # Example
///
/// ```
/// # use qudit_core::pool::WorkStealingPool;
/// # use qudit_core::{Circuit, Dimension, Gate, QuditId, SingleQuditOp};
/// # use qudit_core::optimize::{cancel_inverse_pairs, cancel_inverse_pairs_on};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d = Dimension::new(5)?;
/// let mut circuit = Circuit::new(d, 2);
/// for i in 0..2000u32 {
///     circuit.push(Gate::single(SingleQuditOp::Add(1 + i % 3), QuditId::new(0)))?;
/// }
/// let pool = WorkStealingPool::with_threads(4);
/// assert_eq!(
///     cancel_inverse_pairs_on(&circuit, &pool),
///     cancel_inverse_pairs(&circuit),
/// );
/// # Ok(())
/// # }
/// ```
pub fn cancel_inverse_pairs_on(circuit: &Circuit, pool: &WorkStealingPool) -> Circuit {
    cancel_windowed(circuit, Some(pool))
}

/// Convenience statistic: the number of gates removed by
/// [`cancel_inverse_pairs`].
pub fn cancelled_gate_count(circuit: &Circuit) -> usize {
    circuit.len() - cancel_inverse_pairs(circuit).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::Control;
    use crate::dimension::Dimension;
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
        let optimized = cancel_inverse_pairs(&c);
        assert!(optimized.is_empty());
        assert_eq!(cancelled_gate_count(&c), 2);
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
        let optimized = cancel_inverse_pairs(&c);
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
        let optimized = cancel_inverse_pairs(&c);
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
        let optimized = cancel_inverse_pairs(&c);
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
        let optimized = cancel_inverse_pairs(&c);
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
        let optimized = cancel_inverse_pairs(&c);
        assert!(optimized.len() < c.len());
        assert_same_action(&c, &optimized);
    }

    /// A deterministic pseudo-random circuit that mixes cancelling and
    /// non-cancelling runs, long enough to span several windows.
    fn multi_window_circuit(gates: usize) -> Circuit {
        multi_window_circuit_seeded(gates, 0x2545_F491_4F6C_DD1D)
    }

    /// [`multi_window_circuit`] with a caller-chosen xorshift seed.
    fn multi_window_circuit_seeded(gates: usize, seed: u64) -> Circuit {
        let d = dim(3);
        let mut c = Circuit::new(d, 3);
        // xorshift needs a nonzero state; every other seed is used as-is so
        // the default stream (and the proptest's seed diversity) is kept.
        let mut state = if seed == 0 {
            0x2545_F491_4F6C_DD1D
        } else {
            seed
        };
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
    fn windowed_reduction_is_a_fixed_point() {
        let c = multi_window_circuit(3 * CANCEL_WINDOW_SIZE + 100);
        let once = cancel_inverse_pairs(&c);
        assert!(once.len() < c.len(), "the workload must cancel something");
        let twice = cancel_inverse_pairs(&once);
        assert_eq!(once, twice, "reduction must reach a fixed point");
        assert_same_action(&c, &once);
    }

    #[test]
    fn parallel_windows_match_sequential_windows_exactly() {
        let c = multi_window_circuit(4 * CANCEL_WINDOW_SIZE);
        let sequential = cancel_inverse_pairs(&c);
        for threads in [1, 2, 4, 7] {
            let pool = WorkStealingPool::with_threads(threads);
            assert_eq!(
                cancel_inverse_pairs_on(&c, &pool),
                sequential,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn a_single_pair_straddling_the_window_boundary_cancels() {
        // Directed coverage of the stitch pass: the *only* cancellable pair
        // in the circuit sits exactly astride the first window boundary
        // (gates CANCEL_WINDOW_SIZE−1 and CANCEL_WINDOW_SIZE).  Neither
        // window can cancel it internally — only the final stitch pass over
        // the survivors can.
        let d = dim(5);
        let mut c = Circuit::new(d, 2);
        // Window 0 filler: non-cancelling (X+1 is not its own inverse in
        // d = 5) and on a different qudit than the pair.
        for _ in 0..CANCEL_WINDOW_SIZE - 1 {
            c.push(Gate::single(SingleQuditOp::Add(1), QuditId::new(0)))
                .unwrap();
        }
        // The pair: last gate of window 0, first gate of window 1.
        c.push(Gate::single(SingleQuditOp::Add(2), QuditId::new(1)))
            .unwrap();
        c.push(Gate::single(SingleQuditOp::Add(3), QuditId::new(1)))
            .unwrap();
        // Window 1 filler.
        for _ in 0..CANCEL_WINDOW_SIZE / 2 {
            c.push(Gate::single(SingleQuditOp::Add(1), QuditId::new(0)))
                .unwrap();
        }
        assert!(c.len() > CANCEL_WINDOW_SIZE, "the pair must straddle");

        let reduced = cancel_inverse_pairs(&c);
        assert_eq!(
            reduced.len(),
            c.len() - 2,
            "exactly the straddling pair must cancel"
        );
        assert!(reduced
            .gates()
            .iter()
            .all(|g| g.target() == QuditId::new(0)));
        // The parallel windows agree, and the result matches the
        // single-sweep reference.
        let pool = WorkStealingPool::with_threads(4);
        assert_eq!(cancel_inverse_pairs_on(&c, &pool), reduced);
        let mut single_sweep = Circuit::new(d, 2);
        for gate in reduce_gates(d, 2, c.gates().iter().cloned()) {
            single_sweep.push(gate).unwrap();
        }
        assert_eq!(reduced, single_sweep);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Windowed == single-sweep for random circuits sized exactly at
        /// window multiples ±1 — the sizes where an off-by-one in the
        /// chunking would silently change which pairs become adjacent.
        #[test]
        fn windowed_reduction_matches_single_sweep_at_window_multiples(
            seed in any::<u64>(),
            multiple in 1usize..=3,
            delta_roll in 0usize..=2,
        ) {
            let delta = delta_roll as isize - 1; // −1, 0, +1 around the multiple
            let gates = (multiple * CANCEL_WINDOW_SIZE).saturating_add_signed(delta);
            let c = multi_window_circuit_seeded(gates, seed);
            prop_assert_eq!(c.len(), gates);
            let windowed = cancel_inverse_pairs(&c);
            let mut single_sweep = Circuit::new(c.dimension(), c.width());
            for gate in reduce_gates(c.dimension(), c.width(), c.gates().iter().cloned()) {
                single_sweep.push(gate).unwrap();
            }
            prop_assert_eq!(
                &windowed, &single_sweep,
                "windowed and single-sweep reductions diverge at \
                 {} windows {:+} (seed {:#x}): {} vs {} gates",
                multiple, delta, seed, windowed.len(), single_sweep.len()
            );
        }
    }

    #[test]
    fn boundary_straddling_pairs_cancel_across_windows() {
        // A palindrome of non-self-inverse gates longer than a window: every
        // pair straddles the midpoint, and full cancellation requires the
        // stitch pass to work across window boundaries.
        let d = dim(5);
        let mut c = Circuit::new(d, 2);
        let half = CANCEL_WINDOW_SIZE;
        let forward: Vec<Gate> = (0..half)
            .map(|i| Gate::single(SingleQuditOp::Add(1 + (i as u32) % 3), QuditId::new(i % 2)))
            .collect();
        for gate in &forward {
            c.push(gate.clone()).unwrap();
        }
        for gate in forward.iter().rev() {
            c.push(gate.inverse(d)).unwrap();
        }
        assert_eq!(c.len(), 2 * half);
        assert!(cancel_inverse_pairs(&c).is_empty());
        let pool = WorkStealingPool::with_threads(4);
        assert!(cancel_inverse_pairs_on(&c, &pool).is_empty());
    }
}
