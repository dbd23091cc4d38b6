//! The ancilla-free but exponential-size baseline (standing in for Moraga
//! ref. 25 in the paper's comparison).
//!
//! The construction recursively applies the paper's own Fig. 5 identity,
//! replacing the single control `x1` with the conjunction of the first
//! `k − 1` controls:
//!
//! ```text
//! |0^k⟩-Xij = (|0^{k−1}⟩-Xij → t) (|0^{k−1}⟩-X+1 → x_k) (|e⟩(x_k)-Xij → t)
//!             (|0^{k−1}⟩-X−1 → x_k) (|e⟩(x_k)-Xij → t)
//! ```
//!
//! Every level of the recursion multiplies the gate count by `Θ(d)`, giving
//! the exponential `Θ((2d − 1)^k)` scaling that the paper's linear
//! construction replaces.  Only odd dimensions are supported (for even `d`
//! an ancilla-free construction does not exist at all, by the parity
//! argument after Theorem III.2).

use qudit_core::{Circuit, Control, Dimension, Gate, QuditError, QuditId, Result, SingleQuditOp};

/// Maximum number of controls for which the exponential baseline will build
/// an explicit circuit (the gate count grows as `(2d − 1)^k`).
pub const MAX_EXPLICIT_CONTROLS: usize = 9;

/// Builds the exponential ancilla-free baseline circuit for `|0^k⟩-Xij`.
///
/// The register layout is `controls (0 … k−1), target (k)`; no ancilla is
/// used.
///
/// # Errors
///
/// Returns an error when `d` is even (no ancilla-free construction exists),
/// `d < 3`, or `k` exceeds [`MAX_EXPLICIT_CONTROLS`].
pub fn exponential_mct(dimension: Dimension, controls: usize, i: u32, j: u32) -> Result<Circuit> {
    if dimension.get() < 3 {
        return Err(QuditError::DimensionTooSmall {
            dimension: dimension.get(),
            minimum: 3,
        });
    }
    if dimension.is_even() {
        return Err(QuditError::CannotLower {
            reason: "an ancilla-free multi-controlled gate does not exist for even dimensions"
                .to_string(),
        });
    }
    if controls > MAX_EXPLICIT_CONTROLS {
        return Err(QuditError::CannotLower {
            reason: format!(
                "the exponential baseline only builds explicit circuits for k ≤ {MAX_EXPLICIT_CONTROLS}; \
                 use exponential_gate_count for larger k"
            ),
        });
    }
    let control_ids: Vec<QuditId> = (0..controls).map(QuditId::new).collect();
    let target = QuditId::new(controls);
    let swap = SingleQuditOp::swap(dimension, i, j)?;
    let gates = controlled_swap_recursive(dimension, &control_ids, target, &swap);
    Circuit::from_gates(dimension, controls + 1, gates)
}

/// Recursively expands `|0^k⟩-swap` into singly-controlled gates using the
/// Fig. 5 identity.
fn controlled_swap_recursive(
    dimension: Dimension,
    controls: &[QuditId],
    target: QuditId,
    swap: &SingleQuditOp,
) -> Vec<Gate> {
    match controls.len() {
        0 => vec![Gate::single(swap.clone(), target)],
        1 => vec![Gate::controlled(
            swap.clone(),
            target,
            [Control::zero(controls[0])],
        )],
        k => {
            let last = controls[k - 1];
            let rest = &controls[..k - 1];
            let mut gates = controlled_swap_recursive(dimension, rest, target, swap);
            gates.extend(controlled_shift_recursive(dimension, rest, last, false));
            gates.push(Gate::controlled(
                swap.clone(),
                target,
                [Control::even_nonzero(last)],
            ));
            gates.extend(controlled_shift_recursive(dimension, rest, last, true));
            gates.push(Gate::controlled(
                swap.clone(),
                target,
                [Control::even_nonzero(last)],
            ));
            gates
        }
    }
}

/// Expands `|0^k⟩-X±1` into multi-controlled swaps (transposition product)
/// and recurses.
fn controlled_shift_recursive(
    dimension: Dimension,
    controls: &[QuditId],
    target: QuditId,
    negate: bool,
) -> Vec<Gate> {
    let op = if negate {
        SingleQuditOp::Add(dimension.get() - 1)
    } else {
        SingleQuditOp::Add(1)
    };
    match controls.len() {
        0 => vec![Gate::single(op, target)],
        1 => vec![Gate::controlled(op, target, [Control::zero(controls[0])])],
        _ => {
            let transpositions = op
                .transpositions(dimension)
                .expect("Add is always classical");
            let mut gates = Vec::new();
            for (a, b) in transpositions {
                let swap = SingleQuditOp::Swap(a, b);
                gates.extend(controlled_swap_recursive(
                    dimension, controls, target, &swap,
                ));
            }
            gates
        }
    }
}

/// The number of singly-controlled gates the exponential baseline uses for
/// `k` controls, computed from the recurrence without building the circuit.
pub fn exponential_gate_count(dimension: Dimension, controls: usize) -> u128 {
    let d = dimension.get() as u128;
    // S(k): cost of |0^k⟩-swap; A(k): cost of |0^k⟩-X±1.
    // S(0) = 1, S(1) = 1, A(0) = 1, A(1) = 1.
    // S(k) = S(k−1) + 2·A(k−1) + 2;  A(k) = (d−1)·S(k) for k ≥ 2.
    let mut swap_cost: u128 = 1;
    let mut shift_cost: u128 = 1;
    for k in 2..=controls.max(1) {
        if k < 2 {
            continue;
        }
        let new_swap = swap_cost + 2 * shift_cost + 2;
        let new_shift = (d - 1) * new_swap;
        swap_cost = new_swap;
        shift_cost = new_shift;
    }
    if controls <= 1 {
        1
    } else {
        swap_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dim(d: u32) -> Dimension {
        Dimension::new(d).unwrap()
    }

    fn all_states(dimension: Dimension, width: usize) -> Vec<Vec<u32>> {
        let d = dimension.as_usize();
        (0..dimension.register_size(width))
            .map(|mut index| {
                let mut digits = vec![0u32; width];
                for slot in digits.iter_mut().rev() {
                    *slot = (index % d) as u32;
                    index /= d;
                }
                digits
            })
            .collect()
    }

    #[test]
    fn exponential_baseline_is_functionally_correct() {
        for k in 1..=4usize {
            let dimension = dim(3);
            let circuit = exponential_mct(dimension, k, 0, 1).unwrap();
            for state in all_states(dimension, k + 1) {
                let mut expected = state.clone();
                if state[..k].iter().all(|&x| x == 0) {
                    expected[k] = match expected[k] {
                        0 => 1,
                        1 => 0,
                        other => other,
                    };
                }
                assert_eq!(
                    circuit.apply_to_basis(&state).unwrap(),
                    expected,
                    "k={k}, {state:?}"
                );
            }
        }
    }

    #[test]
    fn exponential_baseline_is_correct_for_d5() {
        let dimension = dim(5);
        let circuit = exponential_mct(dimension, 2, 0, 1).unwrap();
        for state in all_states(dimension, 3) {
            let mut expected = state.clone();
            if state[0] == 0 && state[1] == 0 {
                expected[2] = match expected[2] {
                    0 => 1,
                    1 => 0,
                    other => other,
                };
            }
            assert_eq!(circuit.apply_to_basis(&state).unwrap(), expected);
        }
    }

    #[test]
    fn gate_count_grows_exponentially() {
        let dimension = dim(3);
        let counts: Vec<u128> = (1..=10)
            .map(|k| exponential_gate_count(dimension, k))
            .collect();
        // Ratio between consecutive counts approaches 2d − 1 = 5.
        for window in counts.windows(2).skip(2) {
            let ratio = window[1] as f64 / window[0] as f64;
            assert!(
                ratio > 3.0,
                "expected exponential growth, got ratio {ratio}"
            );
        }
        // The explicit circuit matches the recurrence.
        for k in 1..=4usize {
            let circuit = exponential_mct(dimension, k, 0, 1).unwrap();
            assert_eq!(
                circuit.len() as u128,
                exponential_gate_count(dimension, k),
                "k={k}"
            );
        }
    }

    #[test]
    fn even_dimensions_and_large_k_are_rejected() {
        assert!(exponential_mct(dim(4), 3, 0, 1).is_err());
        assert!(exponential_mct(dim(3), MAX_EXPLICIT_CONTROLS + 1, 0, 1).is_err());
        assert!(exponential_mct(dim(2), 3, 0, 1).is_err());
    }

    #[test]
    fn no_ancilla_is_used() {
        let dimension = dim(3);
        let circuit = exponential_mct(dimension, 3, 0, 1).unwrap();
        assert_eq!(circuit.width(), 4);
    }
}
