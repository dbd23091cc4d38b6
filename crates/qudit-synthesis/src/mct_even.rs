//! Theorem III.2 / Fig. 4: the k-Toffoli with one borrowed ancilla for even
//! dimensions.

use qudit_core::{Control, Dimension, Gate, QuditError, QuditId, Result, SingleQuditOp};

use crate::ladders::parity_ladder_even;

/// Emits the Fig. 4 circuit: `|0^k⟩-Xij` on `target` with controls
/// `controls`, for **even** `d ≥ 4`, using exactly one borrowed ancilla.
///
/// The construction splits the controls into two halves: the first half
/// conditionally flips the parity of the borrowed ancilla (a `|0^{⌈k/2⌉}⟩-X_eo^e`
/// built with the Fig. 3 ladder, borrowing the idle second half), and the
/// second half applies the target operation conditioned on that parity.
/// Repeating both parts twice yields the k-Toffoli and restores the ancilla.
///
/// # Errors
///
/// Returns an error when `d` is odd or smaller than 4, or when the borrowed
/// ancilla collides with a control or the target.
pub fn mct_even_gates(
    dimension: Dimension,
    controls: &[QuditId],
    target: QuditId,
    i: u32,
    j: u32,
    borrowed: QuditId,
) -> Result<Vec<Gate>> {
    if dimension.is_odd() {
        return Err(QuditError::CannotLower {
            reason: "Fig. 4 requires an even dimension; use the odd-dimension construction"
                .to_string(),
        });
    }
    if dimension.get() < 4 {
        return Err(QuditError::DimensionTooSmall {
            dimension: dimension.get(),
            minimum: 4,
        });
    }
    if controls.contains(&borrowed) || borrowed == target {
        return Err(QuditError::CannotLower {
            reason: "the borrowed ancilla must be distinct from the controls and target"
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
            // The two-controlled macro gate; the lowering pass expands it with
            // the Fig. 2 gadget, borrowing any idle qudit (at least `borrowed`
            // exists in the register).
            return Ok(vec![Gate::controlled(
                swap,
                target,
                [Control::zero(controls[0]), Control::zero(controls[1])],
            )]);
        }
        _ => {}
    }

    let first_half = k.div_ceil(2); // ⌈k/2⌉
    let prefix = &controls[..first_half];
    let suffix = &controls[first_half..];

    // C1: |0^{⌈k/2⌉}⟩-X_eo^e on the borrowed ancilla, borrowing the suffix and
    // the target as ladder ancillas.
    let prefix_controls: Vec<Control> = prefix.iter().map(|&q| Control::zero(q)).collect();
    let mut pool_c1: Vec<QuditId> = suffix.to_vec();
    pool_c1.push(target);
    let c1 = parity_ladder_even(
        dimension,
        &prefix_controls,
        borrowed,
        &SingleQuditOp::ParityFlipEven,
        &pool_c1,
    )?;

    // C2: |o⟩(ancilla)|0^{⌊k/2⌋}⟩-Xij on the target, borrowing the prefix.
    let mut c2_controls = vec![Control::odd(borrowed)];
    c2_controls.extend(suffix.iter().map(|&q| Control::zero(q)));
    let c2 = parity_ladder_even(dimension, &c2_controls, target, &swap, prefix)?;

    let mut gates = Vec::new();
    gates.extend(c1.clone());
    gates.extend(c2.clone());
    gates.extend(c1);
    gates.extend(c2);
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
        let borrowed = QuditId::new(k + 1);
        let gates = mct_even_gates(dimension, &controls, target, 0, 1, borrowed).unwrap();
        let circuit = Circuit::from_gates(dimension, k + 2, gates).unwrap();
        for state in all_states(dimension, k + 2) {
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
    fn toffoli_is_correct_for_small_k_d4() {
        for k in 1..=4 {
            check_toffoli(dim(4), k);
        }
    }

    #[test]
    fn toffoli_is_correct_for_k3_d6() {
        check_toffoli(dim(6), 3);
    }

    #[test]
    fn general_target_levels_are_supported() {
        let dimension = dim(4);
        let controls: Vec<QuditId> = (0..3).map(QuditId::new).collect();
        let gates =
            mct_even_gates(dimension, &controls, QuditId::new(3), 2, 3, QuditId::new(4)).unwrap();
        let circuit = Circuit::from_gates(dimension, 5, gates).unwrap();
        for state in all_states(dimension, 5) {
            let mut expected = state.clone();
            if state[..3].iter().all(|&x| x == 0) {
                expected[3] = match expected[3] {
                    2 => 3,
                    3 => 2,
                    other => other,
                };
            }
            assert_eq!(circuit.apply_to_basis(&state).unwrap(), expected);
        }
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let controls = vec![QuditId::new(0), QuditId::new(1), QuditId::new(2)];
        // Odd dimension.
        assert!(mct_even_gates(dim(5), &controls, QuditId::new(3), 0, 1, QuditId::new(4)).is_err());
        // Ancilla collides with the target.
        assert!(mct_even_gates(dim(4), &controls, QuditId::new(3), 0, 1, QuditId::new(3)).is_err());
        // d = 2 (qubits) is out of scope.
        assert!(mct_even_gates(dim(2), &controls, QuditId::new(3), 0, 1, QuditId::new(4)).is_err());
    }

    #[test]
    fn macro_gate_count_is_linear_in_k() {
        let dimension = dim(4);
        for k in 3..24usize {
            let controls: Vec<QuditId> = (0..k).map(QuditId::new).collect();
            let gates = mct_even_gates(
                dimension,
                &controls,
                QuditId::new(k),
                0,
                1,
                QuditId::new(k + 1),
            )
            .unwrap();
            assert!(
                gates.len() <= 20 * k,
                "k = {k} used {} macro gates",
                gates.len()
            );
        }
    }
}
