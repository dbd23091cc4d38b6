//! The Λ-shaped ladder constructions of Section III.
//!
//! * [`parity_ladder_even`] — Fig. 3 (generalised): for even `d`, implements a
//!   multi-controlled involution using borrowed ancillas whose *parity*
//!   carries the conjunction of the controls.
//! * [`add_one_ladder_odd`] — Fig. 7 / Lemma III.4: for odd `d`, implements
//!   `|controls⟩-X+1` using borrowed ancillas whose *increment* carries the
//!   conjunction of the controls.
//! * [`star_add_ladder_odd`] — the Fig. 7 variant with the top gate replaced
//!   by `|⋆⟩|0⟩-X±⋆`, implementing `|⋆⟩(s)|controls⟩-X±⋆` (used in Fig. 9).
//!
//! All ladders restore their borrowed ancillas by appending the inverse of
//! the inner part of the Λ, exactly as described in the paper's proofs.

use qudit_core::{Control, Dimension, Gate, QuditError, QuditId, Result, SingleQuditOp};

/// Checks that a borrowed-ancilla pool provides `needed` qudits, none of
/// which collide with the `busy` qudits, and returns the chosen ancillas.
pub(crate) fn take_ancillas(
    borrowed: &[QuditId],
    needed: usize,
    busy: &[QuditId],
) -> Result<Vec<QuditId>> {
    let mut available: Vec<QuditId> = borrowed
        .iter()
        .copied()
        .filter(|q| !busy.contains(q))
        .collect();
    if available.len() < needed {
        return Err(QuditError::InsufficientAncillas {
            required: needed,
            available: available.len(),
        });
    }
    available.truncate(needed);
    Ok(available)
}

/// Inverts a gate sequence (reverse order, each gate inverted).
pub(crate) fn inverse_gates(gates: &[Gate], dimension: Dimension) -> Vec<Gate> {
    gates.iter().rev().map(|g| g.inverse(dimension)).collect()
}

/// Fig. 3 (generalised): implements `|controls⟩-bottom_op` on `target` for
/// **even** `d`, using `controls.len() − 2` borrowed ancillas taken from
/// `borrowed`.
///
/// `bottom_op` must be an involution (the paper uses `X01` and `X_eo^e`);
/// the returned gates have at most two controls.
///
/// # Errors
///
/// Returns an error when `d` is odd, `bottom_op` is not an involution or the
/// borrowed pool is too small.
pub fn parity_ladder_even(
    dimension: Dimension,
    controls: &[Control],
    target: QuditId,
    bottom_op: &SingleQuditOp,
    borrowed: &[QuditId],
) -> Result<Vec<Gate>> {
    if dimension.is_odd() {
        return Err(QuditError::CannotLower {
            reason: "the parity ladder (Fig. 3) requires an even dimension".to_string(),
        });
    }
    if !bottom_op.is_involution(dimension) {
        return Err(QuditError::CannotLower {
            reason: "the parity ladder requires an involutive target operation".to_string(),
        });
    }
    let m = controls.len();
    match m {
        0 => return Ok(vec![Gate::single(bottom_op.clone(), target)]),
        1 => {
            return Ok(vec![Gate::controlled(
                bottom_op.clone(),
                target,
                vec![controls[0]],
            )])
        }
        2 => {
            return Ok(vec![Gate::controlled(
                bottom_op.clone(),
                target,
                controls.to_vec(),
            )])
        }
        _ => {}
    }
    let mut busy: Vec<QuditId> = controls.iter().map(|c| c.qudit).collect();
    busy.push(target);
    let ancillas = take_ancillas(borrowed, m - 2, &busy)?;

    // Top gate: |c0⟩|c1⟩-X_eo^e on the first ancilla.
    let top = Gate::controlled(
        SingleQuditOp::ParityFlipEven,
        ancillas[0],
        vec![controls[0], controls[1]],
    );
    // Rungs: |o⟩(anc[j])|c_{j+2}⟩-X_eo^e on anc[j+1].
    let rungs: Vec<Gate> = (0..m.saturating_sub(3))
        .map(|j| {
            Gate::controlled(
                SingleQuditOp::ParityFlipEven,
                ancillas[j + 1],
                [Control::odd(ancillas[j]), controls[j + 2]],
            )
        })
        .collect();
    // Bottom gate: |o⟩(last ancilla)|c_{m−1}⟩-bottom_op on the target.
    let bottom = Gate::controlled(
        bottom_op.clone(),
        target,
        [Control::odd(ancillas[m - 3]), controls[m - 1]],
    );

    // Inner Λ: descend the rungs, apply the top, ascend the rungs.
    let mut inner: Vec<Gate> = rungs.iter().rev().cloned().collect();
    inner.push(top);
    inner.extend(rungs.iter().cloned());

    let mut gates = vec![bottom.clone()];
    gates.extend(inner.clone());
    gates.push(bottom);
    // Restore the borrowed ancillas (paper: reverse all gates but the two at
    // the bottom).
    gates.extend(inverse_gates(&inner, dimension));
    Ok(gates)
}

/// Builds the inner Λ of the Fig. 7 ladder together with its two bottom
/// gates, given the top gate and the per-rung controls.
fn increment_ladder(
    dimension: Dimension,
    top: Gate,
    rung_controls: &[Control],
    ancillas: &[QuditId],
    target: QuditId,
) -> Vec<Gate> {
    let r = rung_controls.len();
    debug_assert_eq!(ancillas.len(), r);
    let rung_target = |j: usize| if j + 1 < r { ancillas[j + 1] } else { target };
    let minus =
        |j: usize| Gate::add_from(ancillas[j], true, rung_target(j), vec![rung_controls[j]]);
    let plus =
        |j: usize| Gate::add_from(ancillas[j], false, rung_target(j), vec![rung_controls[j]]);

    // Inner Λ: all rungs except the outermost pair, with the top gate in the
    // middle.
    let mut inner: Vec<Gate> = (0..r.saturating_sub(1)).rev().map(minus).collect();
    inner.push(top);
    inner.extend((0..r.saturating_sub(1)).map(plus));

    let mut gates = vec![minus(r - 1)];
    gates.extend(inner.clone());
    gates.push(plus(r - 1));
    gates.extend(inverse_gates(&inner, dimension));
    gates
}

/// Fig. 7 / Lemma III.4: implements `|controls⟩-X+1` on `target` for **odd**
/// `d`, using `controls.len() − 2` borrowed ancillas.
///
/// # Errors
///
/// Returns an error when `d` is even or the borrowed pool is too small.
pub fn add_one_ladder_odd(
    dimension: Dimension,
    controls: &[Control],
    target: QuditId,
    borrowed: &[QuditId],
) -> Result<Vec<Gate>> {
    if dimension.is_even() {
        return Err(QuditError::CannotLower {
            reason: "the increment ladder (Fig. 7) requires an odd dimension".to_string(),
        });
    }
    let m = controls.len();
    match m {
        0 => return Ok(vec![Gate::single(SingleQuditOp::Add(1), target)]),
        1 => {
            return Ok(vec![Gate::controlled(
                SingleQuditOp::Add(1),
                target,
                vec![controls[0]],
            )])
        }
        2 => {
            return Ok(vec![Gate::controlled(
                SingleQuditOp::Add(1),
                target,
                controls.to_vec(),
            )])
        }
        _ => {}
    }
    let mut busy: Vec<QuditId> = controls.iter().map(|c| c.qudit).collect();
    busy.push(target);
    let ancillas = take_ancillas(borrowed, m - 2, &busy)?;
    let top = Gate::controlled(
        SingleQuditOp::Add(1),
        ancillas[0],
        vec![controls[0], controls[1]],
    );
    Ok(increment_ladder(
        dimension,
        top,
        &controls[2..],
        &ancillas,
        target,
    ))
}

/// The Fig. 7 ladder with its top gate replaced by `|⋆⟩|0⟩-X±⋆`: implements
/// `|⋆⟩(star)|controls⟩-X±⋆` on `target` for **odd** `d`, i.e. the target is
/// shifted by `±value(star)` exactly when every control fires.
///
/// Uses `controls.len() − 1` borrowed ancillas.
///
/// # Errors
///
/// Returns an error when `d` is even or the borrowed pool is too small.
pub fn star_add_ladder_odd(
    dimension: Dimension,
    star: QuditId,
    controls: &[Control],
    target: QuditId,
    negate: bool,
    borrowed: &[QuditId],
) -> Result<Vec<Gate>> {
    if dimension.is_even() {
        return Err(QuditError::CannotLower {
            reason: "the increment ladder (Fig. 7) requires an odd dimension".to_string(),
        });
    }
    let m = controls.len();
    match m {
        0 => return Ok(vec![Gate::add_from(star, negate, target, vec![])]),
        1 => {
            return Ok(vec![Gate::add_from(
                star,
                negate,
                target,
                vec![controls[0]],
            )])
        }
        _ => {}
    }
    let mut busy: Vec<QuditId> = controls.iter().map(|c| c.qudit).collect();
    busy.push(target);
    busy.push(star);
    let ancillas = take_ancillas(borrowed, m - 1, &busy)?;
    let top = Gate::add_from(star, negate, ancillas[0], vec![controls[0]]);
    Ok(increment_ladder(
        dimension,
        top,
        &controls[1..],
        &ancillas,
        target,
    ))
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
        let size = dimension.register_size(width);
        (0..size)
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

    #[test]
    fn parity_ladder_implements_multi_controlled_involution() {
        // d = 4, m = 4 controls on qudits 0..4, target 4, ancillas from 5..7.
        let dimension = dim(4);
        let width = 7;
        let controls: Vec<Control> = (0..4).map(|i| Control::zero(QuditId::new(i))).collect();
        let borrowed: Vec<QuditId> = (5..7).map(QuditId::new).collect();
        let gates = parity_ladder_even(
            dimension,
            &controls,
            QuditId::new(4),
            &SingleQuditOp::Swap(0, 1),
            &borrowed,
        )
        .unwrap();
        let circuit = circuit_from(dimension, width, gates);
        for input in all_states(dimension, width) {
            let mut expected = input.clone();
            if input[..4].iter().all(|&x| x == 0) {
                expected[4] = match expected[4] {
                    0 => 1,
                    1 => 0,
                    other => other,
                };
            }
            assert_eq!(
                circuit.apply_to_basis(&input).unwrap(),
                expected,
                "input {input:?}"
            );
        }
    }

    #[test]
    fn parity_ladder_respects_predicate_controls() {
        let dimension = dim(4);
        let width = 5;
        // |o⟩(q0)|0⟩(q1)|0⟩(q2)-X_eo^e on q3, ancilla q4.
        let controls = vec![
            Control::odd(QuditId::new(0)),
            Control::zero(QuditId::new(1)),
            Control::zero(QuditId::new(2)),
        ];
        let gates = parity_ladder_even(
            dimension,
            &controls,
            QuditId::new(3),
            &SingleQuditOp::ParityFlipEven,
            &[QuditId::new(4)],
        )
        .unwrap();
        let circuit = circuit_from(dimension, width, gates);
        for input in all_states(dimension, width) {
            let mut expected = input.clone();
            if input[0] % 2 == 1 && input[1] == 0 && input[2] == 0 {
                let v = expected[3];
                expected[3] = if v % 2 == 0 { v + 1 } else { v - 1 };
            }
            assert_eq!(
                circuit.apply_to_basis(&input).unwrap(),
                expected,
                "input {input:?}"
            );
        }
    }

    #[test]
    fn add_one_ladder_implements_multi_controlled_increment() {
        // Lemma III.4 for d = 3, k = 4: controls q0..q3, target q4, ancillas q5, q6.
        let dimension = dim(3);
        let width = 7;
        let controls: Vec<Control> = (0..4).map(|i| Control::zero(QuditId::new(i))).collect();
        let borrowed: Vec<QuditId> = (5..7).map(QuditId::new).collect();
        let gates = add_one_ladder_odd(dimension, &controls, QuditId::new(4), &borrowed).unwrap();
        let circuit = circuit_from(dimension, width, gates);
        for input in all_states(dimension, width) {
            let mut expected = input.clone();
            if input[..4].iter().all(|&x| x == 0) {
                expected[4] = (expected[4] + 1) % 3;
            }
            assert_eq!(
                circuit.apply_to_basis(&input).unwrap(),
                expected,
                "input {input:?}"
            );
        }
    }

    #[test]
    fn star_add_ladder_adds_the_star_value() {
        // |⋆⟩(q0)|0⟩(q1)|0⟩(q2)-X±⋆ on q3, ancilla pool {q4}.
        let dimension = dim(5);
        let width = 5;
        let controls = vec![
            Control::zero(QuditId::new(1)),
            Control::zero(QuditId::new(2)),
        ];
        for negate in [false, true] {
            let gates = star_add_ladder_odd(
                dimension,
                QuditId::new(0),
                &controls,
                QuditId::new(3),
                negate,
                &[QuditId::new(4)],
            )
            .unwrap();
            let circuit = circuit_from(dimension, width, gates);
            for input in all_states(dimension, width) {
                let mut expected = input.clone();
                if input[1] == 0 && input[2] == 0 {
                    let shift = if negate { (5 - input[0]) % 5 } else { input[0] };
                    expected[3] = (expected[3] + shift) % 5;
                }
                assert_eq!(
                    circuit.apply_to_basis(&input).unwrap(),
                    expected,
                    "input {input:?}"
                );
            }
        }
    }

    #[test]
    fn ladders_report_missing_ancillas() {
        let dimension = dim(3);
        let controls: Vec<Control> = (0..4).map(|i| Control::zero(QuditId::new(i))).collect();
        let result = add_one_ladder_odd(dimension, &controls, QuditId::new(4), &[]);
        assert!(result.is_err());
        let dimension = dim(4);
        let result = parity_ladder_even(
            dimension,
            &controls,
            QuditId::new(4),
            &SingleQuditOp::Swap(0, 1),
            &[QuditId::new(0)], // collides with a control, so unusable
        );
        assert!(result.is_err());
    }

    #[test]
    fn parity_checks_on_dimension() {
        let controls = vec![
            Control::zero(QuditId::new(0)),
            Control::zero(QuditId::new(1)),
        ];
        assert!(parity_ladder_even(
            dim(5),
            &controls,
            QuditId::new(2),
            &SingleQuditOp::Swap(0, 1),
            &[]
        )
        .is_err());
        assert!(add_one_ladder_odd(dim(4), &controls, QuditId::new(2), &[]).is_err());
        assert!(star_add_ladder_odd(
            dim(4),
            QuditId::new(3),
            &controls,
            QuditId::new(2),
            false,
            &[]
        )
        .is_err());
    }

    #[test]
    fn small_control_counts_take_the_direct_path() {
        let dimension = dim(3);
        let gates = add_one_ladder_odd(
            dimension,
            &[Control::zero(QuditId::new(0))],
            QuditId::new(1),
            &[],
        )
        .unwrap();
        assert_eq!(gates.len(), 1);
        let dimension = dim(4);
        let gates = parity_ladder_even(
            dimension,
            &[
                Control::zero(QuditId::new(0)),
                Control::zero(QuditId::new(1)),
            ],
            QuditId::new(2),
            &SingleQuditOp::Swap(0, 1),
            &[],
        )
        .unwrap();
        assert_eq!(gates.len(), 1);
        assert_eq!(gates[0].controls().len(), 2);
    }
}
