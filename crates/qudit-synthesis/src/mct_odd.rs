//! Theorem III.6 / Fig. 10: the ancilla-free k-Toffoli for odd dimensions.

use qudit_core::{Control, Dimension, Gate, QuditError, QuditId, Result, SingleQuditOp};

use crate::ladders::inverse_gates;
use crate::pk::pk_gates_one_ancilla;

/// Emits the Fig. 10 circuit: `|0^k⟩-Xij` on `target` with controls
/// `controls`, for **odd** `d ≥ 3`, using no ancilla at all.
///
/// The returned gates have at most two controls (plus the value-controlled
/// shifts of the internal `P_k` constructions); lower them with
/// [`crate::lower::lower_to_elementary`] and then
/// `qudit_core::lowering::lower_circuit` to obtain the `O(k·d³)` G-gate
/// circuit of the theorem.
///
/// # Errors
///
/// Returns an error when `d` is even or smaller than 3, or when the target
/// levels are invalid.
pub fn mct_odd_gates(
    dimension: Dimension,
    controls: &[QuditId],
    target: QuditId,
    i: u32,
    j: u32,
) -> Result<Vec<Gate>> {
    if dimension.get() < 3 {
        return Err(QuditError::DimensionTooSmall {
            dimension: dimension.get(),
            minimum: 3,
        });
    }
    if dimension.is_even() {
        return Err(QuditError::CannotLower {
            reason: "Fig. 10 requires an odd dimension; use the even-dimension construction"
                .to_string(),
        });
    }
    let swap = SingleQuditOp::swap(dimension, i, j)?;
    let k = controls.len();
    match k {
        0 => return Ok(vec![Gate::single(swap, target)]),
        1 => {
            return Ok(vec![Gate::controlled(
                swap,
                target,
                [Control::zero(controls[0])],
            )])
        }
        2 => {
            return Ok(vec![Gate::controlled(
                swap,
                target,
                [Control::zero(controls[0]), Control::zero(controls[1])],
            )])
        }
        _ => {}
    }

    let last = controls[k - 1]; // x_k in the paper
    let rest = &controls[..k - 1]; // x_1 … x_{k−1}

    // P_k acts on (x_1 … x_{k−1} → x_k) and borrows the Toffoli target.
    let pk = pk_gates_one_ancilla(dimension, rest, last, target)?;
    let pk_inverse = inverse_gates(&pk, dimension);

    let toffoli_bottom = Gate::controlled(swap, target, [Control::zero(last)]);
    // |0⟩(x_k)-(X_eo^o)^{⊗(k−1)}: flip the parity of every non-zero control.
    let parity_flips: Vec<Gate> = rest
        .iter()
        .map(|&q| Gate::controlled(SingleQuditOp::ParityFlipOdd, q, [Control::zero(last)]))
        .collect();

    let mut gates = Vec::new();
    gates.push(toffoli_bottom.clone()); // s1
    gates.extend(pk.clone()); // s2: P_k
    gates.push(toffoli_bottom.clone()); // s3
    gates.extend(pk_inverse.clone()); // s4: P_k†
    gates.extend(parity_flips.clone()); // s5
    gates.extend(pk); // s6: P_k
    gates.push(toffoli_bottom); // s7
    gates.extend(pk_inverse); // s8: P_k†
    gates.extend(parity_flips); // s9
    Ok(gates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_core::Circuit;

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

    fn check_toffoli(dimension: Dimension, k: usize) {
        let controls: Vec<QuditId> = (0..k).map(QuditId::new).collect();
        let target = QuditId::new(k);
        let gates = mct_odd_gates(dimension, &controls, target, 0, 1).unwrap();
        let circuit = Circuit::from_gates(dimension, k + 1, gates).unwrap();
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
                "d={}, k={k}, input {state:?}",
                dimension
            );
        }
    }

    #[test]
    fn toffoli_is_correct_for_small_k_d3() {
        for k in 1..=5 {
            check_toffoli(dim(3), k);
        }
    }

    #[test]
    fn toffoli_is_correct_for_k6_d3() {
        check_toffoli(dim(3), 6);
    }

    #[test]
    fn toffoli_is_correct_for_small_k_d5() {
        for k in 1..=3 {
            check_toffoli(dim(5), k);
        }
    }

    #[test]
    fn general_target_levels_are_supported() {
        let dimension = dim(3);
        let controls: Vec<QuditId> = (0..3).map(QuditId::new).collect();
        let gates = mct_odd_gates(dimension, &controls, QuditId::new(3), 1, 2).unwrap();
        let circuit = Circuit::from_gates(dimension, 4, gates).unwrap();
        for state in all_states(dimension, 4) {
            let mut expected = state.clone();
            if state[..3].iter().all(|&x| x == 0) {
                expected[3] = match expected[3] {
                    1 => 2,
                    2 => 1,
                    other => other,
                };
            }
            assert_eq!(circuit.apply_to_basis(&state).unwrap(), expected);
        }
    }

    #[test]
    fn even_dimensions_are_rejected() {
        let controls = vec![QuditId::new(0), QuditId::new(1)];
        assert!(mct_odd_gates(dim(4), &controls, QuditId::new(2), 0, 1).is_err());
    }

    #[test]
    fn macro_gate_count_is_linear_in_k() {
        let dimension = dim(3);
        let mut counts = Vec::new();
        for k in 3..20usize {
            let controls: Vec<QuditId> = (0..k).map(QuditId::new).collect();
            let gates = mct_odd_gates(dimension, &controls, QuditId::new(k), 0, 1).unwrap();
            counts.push(gates.len());
            assert!(
                gates.len() <= 160 * k,
                "k = {k} used {} macro gates",
                gates.len()
            );
        }
        // Growth between consecutive k stays bounded (linear, not quadratic).
        for w in counts.windows(2) {
            assert!(w[1] as f64 <= w[0] as f64 + 170.0);
        }
    }
}
