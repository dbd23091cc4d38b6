//! Lowering of macro gates (two controls, value-controlled shifts) to
//! elementary gates.
//!
//! The synthesis algorithms emit *macro circuits*: circuits whose gates have
//! at most two controls, possibly with the value-controlled shift `|⋆⟩-X±⋆`
//! carrying one additional control.  This module lowers those macro gates to
//! **elementary gates** — gates with at most one control and classical
//! single-qudit operations (every gate touches at most two qudits).  The
//! next stage, `qudit_core::lowering::lower_circuit`, takes elementary gates
//! to the **G-gate** set `{Xij} ∪ {|0⟩-X01}`.
//!
//! * Two-controlled gates use the Fig. 5 gadget (odd `d`) or the Fig. 2
//!   gadget with a borrowed wire (even `d`), one per transposition of the
//!   operation.
//! * The one-controlled value shift `|c⟩|⋆⟩-X±⋆` at odd `d` is a four-gate
//!   commutator: with `m₂: x ↦ 2x mod d` (a level permutation, because 2 is
//!   invertible mod odd `d`), the time-ordered gates
//!   `|⋆⟩-X∓⋆`, `|c⟩-m₂(source)`, `|⋆⟩-X±⋆`, `|c⟩-m₂⁻¹(source)` add
//!   `±(2s − s) = ±s` to the target when `c` fires and `±(s − s) = 0`
//!   otherwise, whatever the control's predicate.  Every gate has at most
//!   one control.  At even `d`, `m₂` is not a permutation, so the shift
//!   expands into one two-controlled shift per source level.

use qudit_core::lowering::Transpositions;
use qudit_core::{
    Circuit, Control, ControlPredicate, Dimension, Gate, GateOp, Permutation, QuditError, QuditId,
    Result, SingleQuditOp,
};

use crate::gadgets::{
    two_controlled_swap_even, two_controlled_swap_odd, EVEN_GADGET_GATES, ODD_GADGET_GATES,
};

/// Lowers a macro circuit to elementary gates (at most one control per gate).
///
/// Two-controlled gates are expanded with the Fig. 5 gadget when `d` is odd
/// and the Fig. 2 gadget when `d` is even; in the even case a borrowed qudit
/// is chosen among the circuit's other wires, so the circuit must have width
/// at least 4.  A one-controlled value shift is the four-gate commutator of
/// the module docs when `d` is odd.
///
/// # Errors
///
/// Returns an error when a gate has three or more controls (such gates must
/// be synthesised, not lowered), when an even-dimension circuit is too narrow
/// to provide a borrowed qudit, or when a non-classical gate carries two
/// controls.
pub fn lower_to_elementary(circuit: &Circuit) -> Result<Circuit> {
    let mut walk = ElementaryWalk::new(circuit.dimension(), circuit.width());
    let total = circuit.gates().iter().map(|gate| walk.count(gate)).sum();
    let mut gates = Vec::with_capacity(total);
    for gate in circuit.gates() {
        walk.expand(gate, &mut gates)?;
    }
    debug_assert_eq!(gates.len(), total, "the walk counts exactly");
    // Every emitted gate acts on distinct wires of its source gate (or on
    // the borrowed wire, chosen distinct from them) with levels below `d`,
    // so it is valid for the input's register.
    Ok(Circuit::from_gates_unchecked(
        circuit.dimension(),
        circuit.width(),
        gates,
    ))
}

/// One macro-to-elementary lowering walk over a register, with the level
/// buffers of the operations it decomposes.
pub(crate) struct ElementaryWalk {
    dimension: Dimension,
    width: usize,
    levels: Transpositions,
    /// The transpositions of `m₂: x ↦ 2x mod d` in time order, built the
    /// first time a value shift needs them (odd `d` only).
    doubling: Option<Vec<(u32, u32)>>,
}

/// The transpositions of `m₂: x ↦ 2x mod d` in time order, at odd `d`.
fn doubling_transpositions(dimension: Dimension) -> Vec<(u32, u32)> {
    let d = u64::from(dimension.get());
    let map = (0..d)
        .map(|x| u32::try_from(2 * x % d).expect("2x mod d is below d"))
        .collect();
    Permutation::from_map(map)
        .expect("x ↦ 2x mod d is a permutation at odd d")
        .transpositions()
}

impl ElementaryWalk {
    pub(crate) fn new(dimension: Dimension, width: usize) -> Self {
        ElementaryWalk {
            dimension,
            width,
            levels: Transpositions::default(),
            doubling: None,
        }
    }

    /// The number of elementary gates `expand` writes for `gate` (any
    /// number when it fails), counted from the transpositions alone, arm by
    /// arm.
    pub(crate) fn count(&mut self, gate: &Gate) -> usize {
        match (gate.controls(), gate.op()) {
            ([] | [_], GateOp::Single(_)) | ([], GateOp::AddFrom { .. }) => 1,
            ([_], GateOp::AddFrom { .. }) if self.dimension.is_odd() => {
                let dimension = self.dimension;
                let doubling = self
                    .doubling
                    .get_or_insert_with(|| doubling_transpositions(dimension));
                2 + 2 * doubling.len()
            }
            (&[control], GateOp::AddFrom { source, negate }) => {
                let d = self.dimension.get();
                (1..d)
                    .map(|y| {
                        let shift = if *negate { d - y } else { y };
                        let star = Control::level(*source, y);
                        self.two_controlled_count(&SingleQuditOp::Add(shift), control, star)
                    })
                    .sum()
            }
            (&[c1, c2], GateOp::Single(op)) => self.two_controlled_count(op, c1, c2),
            _ => 0,
        }
    }

    /// The number of gates [`ElementaryWalk::two_controlled`] emits: per
    /// pair of matching control levels, one gadget per transposition of
    /// `op` and two swaps per nonzero level.
    fn two_controlled_count(&mut self, op: &SingleQuditOp, c1: Control, c2: Control) -> usize {
        let dimension = self.dimension;
        let gadget = if dimension.is_odd() {
            ODD_GADGET_GATES
        } else {
            EVEN_GADGET_GATES
        };
        let Ok(pairs) = self.levels.of(op, dimension) else {
            return 0;
        };
        // (matching levels, nonzero matching levels) of each control.
        let matching = |control: Control| match control.predicate {
            ControlPredicate::Level(level) => (1, usize::from(level != 0)),
            predicate => {
                let n = dimension.levels().filter(|&l| predicate.matches(l)).count();
                (n, n - usize::from(predicate.matches(0)))
            }
        };
        let ((n1, nonzero1), (n2, nonzero2)) = (matching(c1), matching(c2));
        n1 * n2 * pairs.len() * gadget + 2 * (nonzero1 * n2 + n1 * nonzero2)
    }

    /// Emits the elementary gates of `gate` into `out`.
    pub(crate) fn expand(&mut self, gate: &Gate, out: &mut Vec<Gate>) -> Result<()> {
        match (gate.controls(), gate.op()) {
            // Already elementary.
            ([] | [_], GateOp::Single(_)) | ([], GateOp::AddFrom { .. }) => out.push(gate.clone()),
            // |⋆⟩-X±⋆ with one further control at odd d: the commutator of
            // the module docs, m₂ and m₂⁻¹ as controlled transpositions.
            (&[control], &GateOp::AddFrom { source, negate }) if self.dimension.is_odd() => {
                let target = gate.target();
                let dimension = self.dimension;
                let doubling = self
                    .doubling
                    .get_or_insert_with(|| doubling_transpositions(dimension));
                let controlled_swap = |&(i, j): &(u32, u32)| {
                    Gate::controlled(SingleQuditOp::Swap(i, j), source, [control])
                };
                out.push(Gate::add_from(source, !negate, target, []));
                out.extend(doubling.iter().map(controlled_swap));
                out.push(Gate::add_from(source, negate, target, []));
                out.extend(doubling.iter().rev().map(controlled_swap));
            }
            // At even d, expand the star into one two-controlled shift per
            // source level.
            (&[control], GateOp::AddFrom { source, negate }) => {
                let d = self.dimension.get();
                for y in 1..d {
                    let shift = if *negate { d - y } else { y };
                    let star = Control::level(*source, y);
                    self.two_controlled(&SingleQuditOp::Add(shift), gate.target(), control, star, out)?;
                }
            }
            (&[c1, c2], GateOp::Single(op)) => self.two_controlled(op, gate.target(), c1, c2, out)?,
            (controls, GateOp::AddFrom { .. }) => {
                return Err(QuditError::CannotLower {
                    reason: format!(
                        "value-controlled shift with {} controls cannot be lowered directly",
                        controls.len()
                    ),
                })
            }
            (controls, _) => {
                return Err(QuditError::CannotLower {
                    reason: format!(
                        "gate has {} controls; synthesise it with the multi-controlled constructions instead",
                        controls.len()
                    ),
                })
            }
        }
        Ok(())
    }

    /// Emits `c1 c2-op(target)`.  A non-level control is a product of level
    /// controls over its matching levels (`c1`'s levels outermost); with two
    /// level controls, both are conjugated to `|0⟩` around one gadget per
    /// transposition of `op`.
    fn two_controlled(
        &mut self,
        op: &SingleQuditOp,
        target: QuditId,
        c1: Control,
        c2: Control,
        out: &mut Vec<Gate>,
    ) -> Result<()> {
        let levels = self.dimension.levels();
        let (l1, l2) = match (c1.predicate, c2.predicate) {
            (ControlPredicate::Level(l1), ControlPredicate::Level(l2)) => (l1, l2),
            (ControlPredicate::Level(_), predicate) => {
                for level in levels.filter(|&level| predicate.matches(level)) {
                    let c2 = Control::level(c2.qudit, level);
                    self.two_controlled(op, target, c1, c2, out)?;
                }
                return Ok(());
            }
            (predicate, _) => {
                for level in levels.filter(|&level| predicate.matches(level)) {
                    let c1 = Control::level(c1.qudit, level);
                    self.two_controlled(op, target, c1, c2, out)?;
                }
                return Ok(());
            }
        };
        if !op.is_classical() {
            return Err(QuditError::CannotLower {
                reason:
                    "two-controlled general unitaries require the clean-ancilla construction (Fig. 1b)"
                        .to_string(),
            });
        }
        let (dimension, width) = (self.dimension, self.width);
        let (q1, q2) = (c1.qudit, c2.qudit);
        // Conjugate both controls to level 0.
        if l1 != 0 {
            out.push(Gate::single(SingleQuditOp::Swap(0, l1), q1));
        }
        if l2 != 0 {
            out.push(Gate::single(SingleQuditOp::Swap(0, l2), q2));
        }
        // The target operation as a product of transpositions, each realised
        // by a two-controlled-swap gadget.
        for &(i, j) in self.levels.of(op, dimension)? {
            if dimension.is_odd() {
                two_controlled_swap_odd(dimension, q1, q2, target, i, j, out)?;
            } else {
                let borrowed = pick_borrowed(width, &[q1, q2, target]).ok_or(
                    QuditError::BorrowedAncillaRequired {
                        dimension: dimension.get(),
                    },
                )?;
                two_controlled_swap_even(dimension, q1, q2, target, i, j, borrowed, out)?;
            }
        }
        // Undo the control conjugation.
        if l2 != 0 {
            out.push(Gate::single(SingleQuditOp::Swap(0, l2), q2));
        }
        if l1 != 0 {
            out.push(Gate::single(SingleQuditOp::Swap(0, l1), q1));
        }
        Ok(())
    }
}

/// Picks the lowest-index qudit of the register that is not in `exclude`,
/// for use as a borrowed ancilla.
fn pick_borrowed(width: usize, exclude: &[QuditId]) -> Option<QuditId> {
    (0..width).map(QuditId::new).find(|q| !exclude.contains(q))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_core::Control;

    fn dim(d: u32) -> Dimension {
        Dimension::new(d).unwrap()
    }

    fn index_to_digits(mut index: usize, dimension: Dimension, width: usize) -> Vec<u32> {
        let d = dimension.as_usize();
        let mut digits = vec![0u32; width];
        for slot in digits.iter_mut().rev() {
            *slot = (index % d) as u32;
            index /= d;
        }
        digits
    }

    fn assert_equivalent(original: &Circuit, lowered: &Circuit) {
        assert_eq!(original.width(), lowered.width());
        let dimension = original.dimension();
        for index in 0..dimension.register_size(original.width()) {
            let digits = index_to_digits(index, dimension, original.width());
            assert_eq!(
                original.apply_to_basis(&digits).unwrap(),
                lowered.apply_to_basis(&digits).unwrap(),
                "mismatch on {digits:?}"
            );
        }
    }

    fn macro_circuit(dimension: Dimension, width: usize, gate: Gate) -> Circuit {
        let mut c = Circuit::new(dimension, width);
        c.push(gate).unwrap();
        c
    }

    #[test]
    fn two_controlled_swap_lowers_for_both_parities() {
        for d in [3u32, 4, 5, 6] {
            let dimension = dim(d);
            let width = 4;
            let gate = Gate::controlled(
                SingleQuditOp::Swap(0, 1),
                QuditId::new(2),
                vec![
                    Control::zero(QuditId::new(0)),
                    Control::zero(QuditId::new(1)),
                ],
            );
            let circuit = macro_circuit(dimension, width, gate);
            let elementary = lower_to_elementary(&circuit).unwrap();
            assert!(elementary.max_controls() <= 1);
            assert_equivalent(&circuit, &elementary);
            let g = qudit_core::lowering::lower_circuit(&elementary).unwrap();
            assert!(g.gates().iter().all(Gate::is_g_gate));
            assert_equivalent(&circuit, &g);
        }
    }

    #[test]
    fn two_controlled_gates_with_levels_and_predicates_lower_correctly() {
        for d in [3u32, 4] {
            let dimension = dim(d);
            let width = 4;
            let gates = vec![
                Gate::controlled(
                    SingleQuditOp::Add(1),
                    QuditId::new(2),
                    vec![
                        Control::level(QuditId::new(0), 1),
                        Control::zero(QuditId::new(1)),
                    ],
                ),
                Gate::controlled(
                    SingleQuditOp::Swap(0, d - 1),
                    QuditId::new(2),
                    vec![
                        Control::odd(QuditId::new(0)),
                        Control::zero(QuditId::new(1)),
                    ],
                ),
                Gate::controlled(
                    if d % 2 == 0 {
                        SingleQuditOp::ParityFlipEven
                    } else {
                        SingleQuditOp::ParityFlipOdd
                    },
                    QuditId::new(2),
                    vec![
                        Control::odd(QuditId::new(0)),
                        Control::level(QuditId::new(1), 2),
                    ],
                ),
            ];
            for gate in gates {
                let circuit = macro_circuit(dimension, width, gate);
                let elementary = lower_to_elementary(&circuit).unwrap();
                assert!(elementary.max_controls() <= 1);
                assert_equivalent(&circuit, &elementary);
            }
        }
    }

    #[test]
    fn star_add_with_one_control_lowers_correctly() {
        for d in [3u32, 4, 5] {
            let dimension = dim(d);
            let width = 4;
            for negate in [false, true] {
                let gate = Gate::add_from(
                    QuditId::new(0),
                    negate,
                    QuditId::new(2),
                    vec![Control::zero(QuditId::new(1))],
                );
                let circuit = macro_circuit(dimension, width, gate);
                let elementary = lower_to_elementary(&circuit).unwrap();
                assert!(elementary.max_controls() <= 1);
                assert_equivalent(&circuit, &elementary);
            }
        }
    }

    #[test]
    fn the_value_shift_commutator_is_exact_at_odd_d() {
        let wire_orders = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for d in [3u32, 5, 7, 9] {
            let dimension = dim(d);
            let doubling = doubling_transpositions(dimension).len();
            let predicates = (0..d).map(ControlPredicate::Level).chain([
                ControlPredicate::Odd,
                ControlPredicate::EvenNonzero,
                ControlPredicate::NonZero,
            ]);
            for predicate in predicates {
                for negate in [false, true] {
                    for [control, source, target] in wire_orders {
                        let gate = Gate::add_from(
                            QuditId::new(source),
                            negate,
                            QuditId::new(target),
                            [Control::new(QuditId::new(control), predicate)],
                        );
                        let circuit = macro_circuit(dimension, 3, gate);
                        let elementary = lower_to_elementary(&circuit).unwrap();
                        assert!(elementary.max_controls() <= 1);
                        assert_eq!(elementary.len(), 2 + 2 * doubling);
                        assert_equivalent(&circuit, &elementary);
                        let g = qudit_core::lowering::lower_circuit(&elementary).unwrap();
                        assert_equivalent(&circuit, &g);
                    }
                }
            }
        }
    }

    #[test]
    fn controlled_sums_from_text_compile_verified_at_odd_d() {
        let compiler = crate::CompileOptions::new()
            .verify(crate::Verify::Exhaustive)
            .compiler();
        for gate in ["sum", "sumdg"] {
            let source =
                format!("OPENQASM 3.0;\nqudit[5] q[3];\nctrl @ {gate} q[0], q[1], q[2];\n");
            let result = compiler.compile_source(&source).unwrap();
            assert!(
                result.verification.is_verified(),
                "{gate}: {}",
                result.verification
            );
            assert!(result.circuit.gates().iter().all(Gate::is_g_gate), "{gate}");
        }
    }

    #[test]
    fn even_dimension_without_spare_qudit_is_rejected() {
        let dimension = dim(4);
        let gate = Gate::controlled(
            SingleQuditOp::Swap(0, 1),
            QuditId::new(2),
            vec![
                Control::zero(QuditId::new(0)),
                Control::zero(QuditId::new(1)),
            ],
        );
        // Width 3: no spare qudit for the Fig. 2 gadget.
        let circuit = macro_circuit(dimension, 3, gate);
        assert!(matches!(
            lower_to_elementary(&circuit),
            Err(QuditError::BorrowedAncillaRequired { .. })
        ));
    }

    #[test]
    fn three_controls_are_rejected() {
        let dimension = dim(3);
        let gate = Gate::controlled(
            SingleQuditOp::Swap(0, 1),
            QuditId::new(3),
            vec![
                Control::zero(QuditId::new(0)),
                Control::zero(QuditId::new(1)),
                Control::zero(QuditId::new(2)),
            ],
        );
        let circuit = macro_circuit(dimension, 4, gate);
        assert!(matches!(
            lower_to_elementary(&circuit),
            Err(QuditError::CannotLower { .. })
        ));
    }

    #[test]
    fn a_huge_odd_dimension_costs_nothing_without_a_value_shift() {
        // The doubling map has d levels and is built only for a value
        // shift, so a one-swap source must not pay for it at a huge odd d.
        let compiler = crate::CompileOptions::new().compiler();
        let started = std::time::Instant::now();
        let result = compiler
            .compile_source("qudit[10000001] q[2]; swap(0, 1) q[0];")
            .unwrap();
        let elapsed = started.elapsed();
        assert_eq!(result.circuit.len(), 1);
        assert!(
            elapsed < std::time::Duration::from_millis(250),
            "compiling one swap at d = 10,000,001 took {elapsed:?}"
        );
    }
}
