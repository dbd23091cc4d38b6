//! The 2-controlled Toffoli gadgets of the paper.
//!
//! * [`two_controlled_swap_odd`] — Lemma III.3 / Fig. 5: for odd `d`, the
//!   `|00⟩-Xij` gate from five singly-controlled gates, ancilla-free.
//! * [`two_controlled_swap_even`] — Lemma III.1 / Fig. 2: for even `d ≥ 4`,
//!   the `|00⟩-Xij` gate from twenty singly-controlled gates and one borrowed
//!   ancilla.
//!
//! Both gadgets produce gates with **at most one control**, so the result can
//! be lowered to G-gates by `qudit_core::lowering`.

use qudit_core::{Control, Dimension, Gate, QuditError, QuditId, Result, SingleQuditOp};

/// The number of gates [`two_controlled_swap_odd`] appends.
pub(crate) const ODD_GADGET_GATES: usize = 5;
/// The number of gates [`two_controlled_swap_even`] appends.
pub(crate) const EVEN_GADGET_GATES: usize = 20;

/// Appends the Fig. 5 gadget to `out`: `|0⟩(c1)|0⟩(c2)-Xij` on `target` for
/// **odd** `d`, using five singly-controlled gates and no ancilla.
///
/// The correctness argument (Lemma III.3) relies on `d` being odd: for even
/// `d` the level `d − 1` would wrap to `0` under `X+1` and break the parity
/// bookkeeping.
///
/// # Errors
///
/// Returns an error when `d` is even or smaller than 3.
pub fn two_controlled_swap_odd(
    dimension: Dimension,
    c1: QuditId,
    c2: QuditId,
    target: QuditId,
    i: u32,
    j: u32,
    out: &mut Vec<Gate>,
) -> Result<()> {
    if dimension.get() < 3 {
        return Err(QuditError::DimensionTooSmall {
            dimension: dimension.get(),
            minimum: 3,
        });
    }
    if dimension.is_even() {
        return Err(QuditError::CannotLower {
            reason: format!(
                "Fig. 5 gadget requires odd dimension, got d = {}",
                dimension
            ),
        });
    }
    let d = dimension.get();
    let swap = SingleQuditOp::swap(dimension, i, j)?;
    out.extend([
        Gate::controlled(swap.clone(), target, [Control::zero(c1)]),
        Gate::controlled(SingleQuditOp::Add(1), c2, [Control::zero(c1)]),
        Gate::controlled(swap.clone(), target, [Control::even_nonzero(c2)]),
        Gate::controlled(SingleQuditOp::Add(d - 1), c2, [Control::zero(c1)]),
        Gate::controlled(swap, target, [Control::even_nonzero(c2)]),
    ]);
    Ok(())
}

/// Appends the Fig. 2 gadget to `out`: `|0⟩(c1)|0⟩(c2)-Xij` on `target` for
/// **even** `d ≥ 4`, using twenty singly-controlled gates and the qudit
/// `borrowed` as a borrowed ancilla (returned to its initial state).
///
/// The gate order is reconstructed from the activation conditions listed in
/// the proof of Lemma III.1; see DESIGN.md for the substitution note.
///
/// # Errors
///
/// Returns an error when `d` is odd or smaller than 4, or when the borrowed
/// qudit coincides with one of the other three qudits.
#[allow(clippy::too_many_arguments)]
pub fn two_controlled_swap_even(
    dimension: Dimension,
    c1: QuditId,
    c2: QuditId,
    target: QuditId,
    i: u32,
    j: u32,
    borrowed: QuditId,
    out: &mut Vec<Gate>,
) -> Result<()> {
    if dimension.is_odd() {
        return Err(QuditError::CannotLower {
            reason: format!(
                "Fig. 2 gadget requires even dimension, got d = {}",
                dimension
            ),
        });
    }
    if dimension.get() < 4 {
        return Err(QuditError::DimensionTooSmall {
            dimension: dimension.get(),
            minimum: 4,
        });
    }
    if borrowed == c1 || borrowed == c2 || borrowed == target {
        return Err(QuditError::CannotLower {
            reason: "borrowed ancilla must be distinct from the gadget's controls and target"
                .to_string(),
        });
    }
    let swap = SingleQuditOp::swap(dimension, i, j)?;
    let block = |gates: &mut Vec<Gate>| {
        // 1–3: conditionally move |0⟩ of c1 out of the way based on c2 and the
        // parity of the borrowed ancilla.
        gates.push(Gate::controlled(
            SingleQuditOp::Swap(0, 1),
            c1,
            [Control::level(c2, 1)],
        ));
        gates.push(Gate::controlled(
            SingleQuditOp::Swap(0, 1),
            c2,
            [Control::odd(borrowed)],
        ));
        gates.push(Gate::controlled(
            SingleQuditOp::Swap(0, 1),
            c1,
            [Control::level(c2, 1)],
        ));
        // 4: the conditional application to the target.
        gates.push(Gate::controlled(swap.clone(), target, [Control::zero(c1)]));
        // 5–7: undo steps 1–3.
        gates.push(Gate::controlled(
            SingleQuditOp::Swap(0, 1),
            c1,
            [Control::level(c2, 1)],
        ));
        gates.push(Gate::controlled(
            SingleQuditOp::Swap(0, 1),
            c2,
            [Control::odd(borrowed)],
        ));
        gates.push(Gate::controlled(
            SingleQuditOp::Swap(0, 1),
            c1,
            [Control::level(c2, 1)],
        ));
        // 8–10: flip the parity of the borrowed ancilla exactly when
        // (c2 = 0 ∧ c1 = 0) or (c2 ≠ 0 ∧ c1 = 2).
        gates.push(Gate::controlled(
            SingleQuditOp::Swap(0, 2),
            c1,
            [Control::zero(c2)],
        ));
        gates.push(Gate::controlled(
            SingleQuditOp::ParityFlipEven,
            borrowed,
            [Control::level(c1, 2)],
        ));
        gates.push(Gate::controlled(
            SingleQuditOp::Swap(0, 2),
            c1,
            [Control::zero(c2)],
        ));
    };
    block(out);
    block(out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_core::Circuit;

    fn dim(d: u32) -> Dimension {
        Dimension::new(d).unwrap()
    }

    /// Exhaustively checks that `gates` implements |00⟩-Xij with every other
    /// qudit (in a register of `width`) acting as a borrowed ancilla.
    fn check_gadget(dimension: Dimension, width: usize, gates: Vec<Gate>, i: u32, j: u32) {
        let circuit = Circuit::from_gates(dimension, width, gates).unwrap();
        let d = dimension.as_usize();
        let size = dimension.register_size(width);
        for index in 0..size {
            let mut digits = vec![0u32; width];
            let mut rest = index;
            for slot in digits.iter_mut().rev() {
                *slot = (rest % d) as u32;
                rest /= d;
            }
            let mut expected = digits.clone();
            if digits[0] == 0 && digits[1] == 0 {
                let t = expected[2];
                expected[2] = if t == i {
                    j
                } else if t == j {
                    i
                } else {
                    t
                };
            }
            let actual = circuit.apply_to_basis(&digits).unwrap();
            assert_eq!(actual, expected, "input {digits:?}");
        }
    }

    /// The Fig. 5 gadget on controls 0, 1 and target 2.
    fn odd_gadget(d: u32, i: u32, j: u32) -> Result<Vec<Gate>> {
        let (c1, c2, target) = (QuditId::new(0), QuditId::new(1), QuditId::new(2));
        let mut gates = Vec::new();
        two_controlled_swap_odd(dim(d), c1, c2, target, i, j, &mut gates)?;
        Ok(gates)
    }

    /// The Fig. 2 gadget on controls 0, 1 and target 2, borrowing `borrowed`.
    fn even_gadget(d: u32, i: u32, j: u32, borrowed: usize) -> Result<Vec<Gate>> {
        let (c1, c2, target) = (QuditId::new(0), QuditId::new(1), QuditId::new(2));
        let borrowed = QuditId::new(borrowed);
        let mut gates = Vec::new();
        two_controlled_swap_even(dim(d), c1, c2, target, i, j, borrowed, &mut gates)?;
        Ok(gates)
    }

    #[test]
    fn odd_gadget_implements_two_controlled_swap() {
        for d in [3u32, 5, 7] {
            let gates = odd_gadget(d, 0, 1).unwrap();
            assert_eq!(gates.len(), ODD_GADGET_GATES);
            check_gadget(dim(d), 3, gates, 0, 1);
        }
    }

    #[test]
    fn odd_gadget_supports_arbitrary_target_levels() {
        for i in 0..5u32 {
            for j in (0..5u32).filter(|&j| j != i) {
                let gates = odd_gadget(5, i, j).unwrap();
                assert_eq!(gates.len(), ODD_GADGET_GATES);
                check_gadget(dim(5), 3, gates, i, j);
            }
        }
    }

    #[test]
    fn even_gadget_implements_two_controlled_swap_with_borrowed_ancilla() {
        for d in [4u32, 6] {
            let gates = even_gadget(d, 0, 1, 3).unwrap();
            assert_eq!(gates.len(), EVEN_GADGET_GATES);
            check_gadget(dim(d), 4, gates, 0, 1);
        }
    }

    #[test]
    fn even_gadget_supports_arbitrary_target_levels() {
        for i in 0..4u32 {
            for j in (0..4u32).filter(|&j| j != i) {
                let gates = even_gadget(4, i, j, 3).unwrap();
                assert_eq!(gates.len(), EVEN_GADGET_GATES);
                check_gadget(dim(4), 4, gates, i, j);
            }
        }
    }

    #[test]
    fn gadget_gate_count_is_linear_in_d() {
        // O(d) claim of Lemmas III.1 and III.3: the number of singly
        // controlled gates is constant, and each lowers to O(d) G-gates.
        for d in [3u32, 5, 7, 9, 11] {
            assert_eq!(odd_gadget(d, 0, 1).unwrap().len(), 5);
        }
    }

    #[test]
    fn parity_mismatches_are_rejected() {
        assert!(odd_gadget(4, 0, 1).is_err());
        assert!(even_gadget(5, 0, 1, 3).is_err());
        assert!(even_gadget(4, 0, 1, 2).is_err());
    }
}
