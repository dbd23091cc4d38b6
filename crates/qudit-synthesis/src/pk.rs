//! The `P_k` gate of Section III-B (Lemma III.5, Figs. 8 and 9).
//!
//! `P_k` is the classical reversible operation on `k` qudits
//!
//! ```text
//! P_k |x_1, …, x_{k−1}, x_k⟩ = |x_1, …, x_{k−1}, h(x_1, …, x_k)⟩
//! ```
//!
//! where `h(x) = x_k` when the last non-zero entry of `x_1 … x_{k−1}` is odd,
//! and `h(x) = x_k − 1 (mod d)` otherwise (including when `x_1 … x_{k−1}` is
//! all zero).  It is the workhorse of the ancilla-free odd-dimension
//! k-Toffoli (Fig. 10).

use qudit_core::{Control, Dimension, Gate, QuditError, QuditId, Result, SingleQuditOp};

use crate::ladders::{add_one_ladder_odd, inverse_gates, star_add_ladder_odd, take_ancillas};

/// The classical specification of `P_k`: the new value of the target digit.
///
/// `inputs` are the values of `x_1 … x_{k−1}` and `target_value` is `x_k`.
///
/// # Example
///
/// ```
/// # use qudit_core::Dimension;
/// # use qudit_synthesis::pk::pk_target_image;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d = Dimension::new(3)?;
/// // Last non-zero input is odd ⇒ the target is unchanged.
/// assert_eq!(pk_target_image(&[2, 1, 0], 2, d), 2);
/// // No non-zero input ⇒ the target is decremented.
/// assert_eq!(pk_target_image(&[0, 0, 0], 0, d), 2);
/// # Ok(())
/// # }
/// ```
pub fn pk_target_image(inputs: &[u32], target_value: u32, dimension: Dimension) -> u32 {
    let d = dimension.get();
    let last_nonzero = inputs.iter().rev().find(|&&x| x != 0);
    match last_nonzero {
        Some(&value) if value % 2 == 1 => target_value,
        _ => (target_value + d - 1) % d,
    }
}

/// The two-gate implementation of `P_2` (control `input`, target `target`):
/// `X−1` is applied to the target unless the input is odd.
fn p2_gates(dimension: Dimension, input: QuditId, target: QuditId) -> Vec<Gate> {
    let minus_one = SingleQuditOp::Add(dimension.get() - 1);
    vec![
        Gate::controlled(minus_one.clone(), target, [Control::zero(input)]),
        Gate::controlled(minus_one, target, [Control::even_nonzero(input)]),
    ]
}

/// Builds the garbage-ancilla version of `P_k` (Fig. 8 without the final
/// uncompute): the ancillas end in an arbitrary state.
fn pk_garbage(
    dimension: Dimension,
    inputs: &[QuditId],
    target: QuditId,
    ancillas: &[QuditId],
) -> Vec<Gate> {
    let k = inputs.len() + 1;
    if k == 2 {
        return p2_gates(dimension, inputs[0], target);
    }
    debug_assert_eq!(ancillas.len(), k - 2);
    let carrier = ancillas[k - 3]; // target of the recursive P_{k−1}
    let last = inputs[k - 2]; // x_{k−1}
    let minus_one = SingleQuditOp::Add(dimension.get() - 1);
    let mut gates = vec![
        Gate::add_from(carrier, true, target, [Control::zero(last)]),
        Gate::controlled(minus_one, target, [Control::even_nonzero(last)]),
    ];
    gates.extend(pk_garbage(
        dimension,
        &inputs[..k - 2],
        carrier,
        &ancillas[..k - 3],
    ));
    gates.push(Gate::add_from(
        carrier,
        false,
        target,
        [Control::zero(last)],
    ));
    gates
}

/// Lemma III.5 / Fig. 8: `P_k` using `k − 2` **borrowed** ancillas
/// (the garbage version followed by an uncompute of everything except the
/// three bottom gates).
///
/// # Errors
///
/// Returns an error when `d` is even, or the borrowed pool does not provide
/// `k − 2` qudits disjoint from the inputs and target.
pub fn pk_gates_borrowed(
    dimension: Dimension,
    inputs: &[QuditId],
    target: QuditId,
    borrowed: &[QuditId],
) -> Result<Vec<Gate>> {
    check_odd(dimension)?;
    let k = inputs.len() + 1;
    if k < 2 {
        return Err(QuditError::CannotLower {
            reason: "P_k requires at least one input qudit".to_string(),
        });
    }
    if k == 2 {
        return Ok(p2_gates(dimension, inputs[0], target));
    }
    let mut busy: Vec<QuditId> = inputs.to_vec();
    busy.push(target);
    let ancillas = take_ancillas(borrowed, k - 2, &busy)?;
    let carrier = ancillas[k - 3];
    let last = inputs[k - 2];
    let minus_one = SingleQuditOp::Add(dimension.get() - 1);
    let g1 = Gate::add_from(carrier, true, target, [Control::zero(last)]);
    let g2 = Gate::controlled(minus_one, target, [Control::even_nonzero(last)]);
    let inner = pk_garbage(dimension, &inputs[..k - 2], carrier, &ancillas[..k - 3]);
    let g3 = Gate::add_from(carrier, false, target, [Control::zero(last)]);
    let mut gates = vec![g1, g2];
    gates.extend(inner.clone());
    gates.push(g3);
    gates.extend(inverse_gates(&inner, dimension));
    Ok(gates)
}

/// Lemma III.5 / Fig. 9: `P_k` using **one** borrowed ancilla.
///
/// The construction splits the inputs into a prefix and a suffix; the prefix
/// sub-`P` writes onto the borrowed ancilla, the value-controlled shifts of
/// Fig. 7 transport its effect to the real target, and the suffix sub-`P`
/// handles the remaining cases.  All sub-constructions borrow idle qudits of
/// the opposite half, so no further ancillas are required.
///
/// # Errors
///
/// Returns an error when `d` is even or the ancilla collides with an input or
/// the target.
pub fn pk_gates_one_ancilla(
    dimension: Dimension,
    inputs: &[QuditId],
    target: QuditId,
    ancilla: QuditId,
) -> Result<Vec<Gate>> {
    check_odd(dimension)?;
    let k = inputs.len() + 1;
    if k < 2 {
        return Err(QuditError::CannotLower {
            reason: "P_k requires at least one input qudit".to_string(),
        });
    }
    if inputs.contains(&ancilla) || ancilla == target {
        return Err(QuditError::CannotLower {
            reason: "the borrowed ancilla of P_k must be distinct from its inputs and target"
                .to_string(),
        });
    }
    if k == 2 {
        return Ok(p2_gates(dimension, inputs[0], target));
    }
    let half = k / 2; // ⌊k/2⌋
    let prefix = &inputs[..half];
    let suffix = &inputs[half..];
    let suffix_controls: Vec<Control> = suffix.iter().map(|&q| Control::zero(q)).collect();

    let mut gates = Vec::new();
    // A2: |⋆⟩(ancilla)|0^{suffix}⟩-X−⋆ on the target (borrow the prefix).
    gates.extend(star_add_ladder_odd(
        dimension,
        ancilla,
        &suffix_controls,
        target,
        true,
        prefix,
    )?);
    // A1: P_{⌊k/2⌋+1} on (prefix → ancilla), borrowing the suffix and target.
    let mut pool_prefix: Vec<QuditId> = suffix.to_vec();
    pool_prefix.push(target);
    let prefix_pk = pk_gates_borrowed(dimension, prefix, ancilla, &pool_prefix)?;
    gates.extend(prefix_pk.clone());
    // A4: |⋆⟩(ancilla)|0^{suffix}⟩-X+⋆ on the target.
    gates.extend(star_add_ladder_odd(
        dimension,
        ancilla,
        &suffix_controls,
        target,
        false,
        prefix,
    )?);
    // A3: P†_{⌊k/2⌋+1} restores the borrowed ancilla.
    gates.extend(inverse_gates(&prefix_pk, dimension));
    // A5: |0^{suffix}⟩-X+1 on the target (borrow the prefix and ancilla).
    let mut pool_suffix: Vec<QuditId> = prefix.to_vec();
    pool_suffix.push(ancilla);
    gates.extend(add_one_ladder_odd(
        dimension,
        &suffix_controls,
        target,
        &pool_suffix,
    )?);
    // A6: P_{⌈k/2⌉} on (suffix → target).
    gates.extend(pk_gates_borrowed(dimension, suffix, target, &pool_suffix)?);
    Ok(gates)
}

fn check_odd(dimension: Dimension) -> Result<()> {
    if dimension.get() < 3 {
        return Err(QuditError::DimensionTooSmall {
            dimension: dimension.get(),
            minimum: 3,
        });
    }
    if dimension.is_even() {
        return Err(QuditError::CannotLower {
            reason: "P_k is only used by the odd-dimension constructions".to_string(),
        });
    }
    Ok(())
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

    fn circuit_from(dimension: Dimension, width: usize, gates: Vec<Gate>) -> Circuit {
        Circuit::from_gates(dimension, width, gates).unwrap()
    }

    /// Checks that a circuit implements `P_k` on (inputs, target) and leaves
    /// every other qudit (borrowed ancillas) untouched.
    fn check_pk(circuit: &Circuit, inputs: &[usize], target: usize) {
        let dimension = circuit.dimension();
        for state in all_states(dimension, circuit.width()) {
            let mut expected = state.clone();
            let input_values: Vec<u32> = inputs.iter().map(|&i| state[i]).collect();
            expected[target] = pk_target_image(&input_values, state[target], dimension);
            assert_eq!(
                circuit.apply_to_basis(&state).unwrap(),
                expected,
                "P_k mismatch on input {state:?}"
            );
        }
    }

    #[test]
    fn pk_spec_matches_paper_examples() {
        let d = dim(3);
        // k = 2: h(x1, x2) = x2 when x1 is odd, else x2 − 1.
        assert_eq!(pk_target_image(&[1], 2, d), 2);
        assert_eq!(pk_target_image(&[2], 2, d), 1);
        assert_eq!(pk_target_image(&[0], 0, d), 2);
        // x_{1..k−1} = 1 0^{k−2} ⇒ i* = 1 (odd) ⇒ target unchanged.
        assert_eq!(pk_target_image(&[1, 0, 0], 1, d), 1);
        // Trailing non-zero even value ⇒ decrement.
        assert_eq!(pk_target_image(&[1, 2], 1, d), 0);
    }

    #[test]
    fn p2_circuit_matches_spec() {
        for d in [3u32, 5] {
            let dimension = dim(d);
            let gates =
                pk_gates_borrowed(dimension, &[QuditId::new(0)], QuditId::new(1), &[]).unwrap();
            let circuit = circuit_from(dimension, 2, gates);
            check_pk(&circuit, &[0], 1);
        }
    }

    #[test]
    fn pk_with_borrowed_ancillas_matches_spec() {
        // k = 3 and k = 4 for d = 3: inputs first, then target, then ancillas.
        for k in [3usize, 4] {
            let dimension = dim(3);
            let inputs: Vec<QuditId> = (0..k - 1).map(QuditId::new).collect();
            let target = QuditId::new(k - 1);
            let borrowed: Vec<QuditId> = (k..2 * k - 2).map(QuditId::new).collect();
            let width = 2 * k - 2;
            let gates = pk_gates_borrowed(dimension, &inputs, target, &borrowed).unwrap();
            let circuit = circuit_from(dimension, width, gates);
            let input_indices: Vec<usize> = (0..k - 1).collect();
            check_pk(&circuit, &input_indices, k - 1);
        }
    }

    #[test]
    fn pk_with_one_ancilla_matches_spec() {
        // k = 3, 4, 5 for d = 3: qudits are inputs, target, ancilla.
        for k in [3usize, 4, 5] {
            let dimension = dim(3);
            let inputs: Vec<QuditId> = (0..k - 1).map(QuditId::new).collect();
            let target = QuditId::new(k - 1);
            let ancilla = QuditId::new(k);
            let gates = pk_gates_one_ancilla(dimension, &inputs, target, ancilla).unwrap();
            let circuit = circuit_from(dimension, k + 1, gates);
            let input_indices: Vec<usize> = (0..k - 1).collect();
            check_pk(&circuit, &input_indices, k - 1);
        }
    }

    #[test]
    fn pk_with_one_ancilla_matches_spec_for_d5() {
        let dimension = dim(5);
        let k = 3;
        let inputs: Vec<QuditId> = (0..k - 1).map(QuditId::new).collect();
        let gates =
            pk_gates_one_ancilla(dimension, &inputs, QuditId::new(k - 1), QuditId::new(k)).unwrap();
        let circuit = circuit_from(dimension, k + 1, gates);
        check_pk(&circuit, &[0, 1], 2);
    }

    #[test]
    fn pk_inverse_composes_to_identity() {
        let dimension = dim(3);
        let inputs: Vec<QuditId> = (0..3).map(QuditId::new).collect();
        let gates =
            pk_gates_one_ancilla(dimension, &inputs, QuditId::new(3), QuditId::new(4)).unwrap();
        let round_trip = [gates.clone(), inverse_gates(&gates, dimension)].concat();
        let circuit = circuit_from(dimension, 5, round_trip);
        for state in all_states(dimension, 5) {
            assert_eq!(circuit.apply_to_basis(&state).unwrap(), state);
        }
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let dimension = dim(4);
        assert!(pk_gates_borrowed(dimension, &[QuditId::new(0)], QuditId::new(1), &[]).is_err());
        let dimension = dim(3);
        // Ancilla collides with the target.
        assert!(pk_gates_one_ancilla(
            dimension,
            &[QuditId::new(0), QuditId::new(1)],
            QuditId::new(2),
            QuditId::new(2)
        )
        .is_err());
        // Not enough borrowed ancillas for the Fig. 8 variant.
        assert!(pk_gates_borrowed(
            dimension,
            &[QuditId::new(0), QuditId::new(1), QuditId::new(2)],
            QuditId::new(3),
            &[]
        )
        .is_err());
    }

    #[test]
    fn gate_count_grows_linearly_with_k() {
        let dimension = dim(3);
        let mut previous = 0usize;
        for k in 3..12usize {
            let inputs: Vec<QuditId> = (0..k - 1).map(QuditId::new).collect();
            let gates =
                pk_gates_one_ancilla(dimension, &inputs, QuditId::new(k - 1), QuditId::new(k))
                    .unwrap();
            assert!(gates.len() >= previous / 2, "gate count should not explode");
            // Linear bound with a generous constant (macro gates).
            assert!(
                gates.len() <= 40 * k,
                "P_{k} used {} macro gates",
                gates.len()
            );
            previous = gates.len();
        }
    }
}
