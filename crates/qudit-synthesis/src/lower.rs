//! Lowering of macro gates (two controls, value-controlled shifts) to
//! elementary gates and to the G-gate set.
//!
//! The synthesis algorithms emit *macro circuits*: circuits whose gates have
//! at most two controls, possibly with the value-controlled shift `|⋆⟩-X±⋆`
//! carrying one additional control.  This module lowers those macro gates to
//!
//! 1. **elementary gates** — gates with at most one control and classical
//!    single-qudit operations (every gate touches at most two qudits), using
//!    the Fig. 2 / Fig. 5 gadgets for the two-controlled cases; and then to
//! 2. **G-gates** — `{Xij} ∪ {|0⟩-X01}` via `qudit_core::lowering`.

use qudit_core::cache::{CacheCounters, CanonicalSite, LoweringCache, LoweringStage, WidthClass};
use qudit_core::lowering as core_lowering;
use qudit_core::{
    Circuit, Control, ControlPredicate, Dimension, Gate, GateOp, QuditError, QuditId, SingleQuditOp,
};

use crate::error::{Result, SynthesisError};
use crate::gadgets::{two_controlled_swap_even, two_controlled_swap_odd};

/// Lowers a macro circuit to elementary gates (at most one control per gate).
///
/// Two-controlled gates are expanded with the Fig. 5 gadget when `d` is odd
/// and the Fig. 2 gadget when `d` is even; in the even case a borrowed qudit
/// is chosen among the circuit's other wires, so the circuit must have width
/// at least 4.
///
/// # Errors
///
/// Returns an error when a gate has three or more controls (such gates must
/// be synthesised, not lowered), when an even-dimension circuit is too narrow
/// to provide a borrowed qudit, or when a non-classical gate carries two
/// controls.
pub fn lower_to_elementary(circuit: &Circuit) -> Result<Circuit> {
    let dimension = circuit.dimension();
    let mut out = Circuit::new(dimension, circuit.width());
    for gate in circuit.gates() {
        for lowered in lower_macro_gate(gate, dimension, circuit.width())? {
            out.push(lowered).map_err(SynthesisError::from)?;
        }
    }
    Ok(out)
}

/// Lowers a macro circuit all the way to the elementary G-gate set
/// `{Xij} ∪ {|0⟩-X01}`.
///
/// # Errors
///
/// See [`lower_to_elementary`]; additionally fails if the circuit contains a
/// non-classical (general unitary) gate, which has no G-gate expansion.
pub fn lower_to_g_gates(circuit: &Circuit) -> Result<Circuit> {
    let elementary = lower_to_elementary(circuit)?;
    core_lowering::lower_circuit(&elementary).map_err(SynthesisError::from)
}

/// Counts the G-gates a macro circuit lowers to.
///
/// # Errors
///
/// See [`lower_to_g_gates`].
pub fn g_gate_count(circuit: &Circuit) -> Result<usize> {
    Ok(lower_to_g_gates(circuit)?.len())
}

/// [`lower_to_elementary`] through a [`LoweringCache`], tallying hits and
/// misses into `counters`.
///
/// The expensive sites — two-controlled gadget expansions and
/// value-controlled shifts with an extra control — are canonicalised (wires
/// renamed to role order, the even-`d` borrowed qudit included as an extra
/// canonical wire) and shared by `(gate kind, dimension, width-class)`.  The
/// output is gate-for-gate identical to [`lower_to_elementary`].
///
/// # Errors
///
/// See [`lower_to_elementary`]; failed lowerings are never cached.
pub fn lower_to_elementary_cached(
    circuit: &Circuit,
    cache: &LoweringCache,
    counters: &mut CacheCounters,
) -> Result<Circuit> {
    let dimension = circuit.dimension();
    let mut out = Circuit::new(dimension, circuit.width());
    for gate in circuit.gates() {
        for lowered in lower_macro_gate_cached(gate, dimension, circuit.width(), cache, counters)? {
            out.push(lowered).map_err(SynthesisError::from)?;
        }
    }
    Ok(out)
}

/// [`lower_macro_gate`] through the cache.
///
/// Only the gadget-expanding cases are cached; everything else (gates that
/// are already elementary, or error cases) takes the direct path.  For even
/// `d` the borrowed qudit is resolved *before* canonicalisation so the
/// cached expansion can be renamed onto it; when no spare wire exists the
/// direct path reports the usual error.
fn lower_macro_gate_cached(
    gate: &Gate,
    dimension: Dimension,
    width: usize,
    cache: &LoweringCache,
    counters: &mut CacheCounters,
) -> Result<Vec<Gate>> {
    let cacheable = matches!(
        (gate.controls().len(), gate.op()),
        (2, GateOp::Single(_)) | (1, GateOp::AddFrom { .. })
    );
    if !cacheable {
        return lower_macro_gate(gate, dimension, width);
    }
    let mut extra = Vec::new();
    if dimension.is_even() {
        match pick_borrowed(width, &gate.qudits()) {
            Some(borrowed) => extra.push(borrowed),
            None => return lower_macro_gate(gate, dimension, width),
        }
    }
    let Some(site) = CanonicalSite::of(
        LoweringStage::Elementary,
        gate,
        dimension,
        WidthClass::of(width),
        &extra,
    ) else {
        return lower_macro_gate(gate, dimension, width);
    };
    let canonical = cache
        .get_or_insert_with(site.key(), counters, || {
            lower_macro_gate(site.gate(), dimension, site.width()).map_err(|e| match e {
                SynthesisError::Core(core) => core,
                other => QuditError::UnsupportedLowering {
                    reason: other.to_string(),
                },
            })
        })
        .map_err(SynthesisError::from)?;
    Ok(site.restore(&canonical))
}

fn lower_macro_gate(gate: &Gate, dimension: Dimension, width: usize) -> Result<Vec<Gate>> {
    match (gate.controls().len(), gate.op()) {
        // Already elementary.
        (0, GateOp::Single(_)) | (1, GateOp::Single(_)) | (0, GateOp::AddFrom { .. }) => {
            Ok(vec![gate.clone()])
        }
        // |⋆⟩-X±⋆ with one further control: expand the star into one
        // two-controlled shift per source level.
        (1, GateOp::AddFrom { source, negate }) => {
            let d = dimension.get();
            let mut out = Vec::new();
            for y in 1..d {
                let shift = if *negate { (d - y) % d } else { y };
                if shift == 0 {
                    continue;
                }
                let expanded = Gate::controlled(
                    SingleQuditOp::Add(shift),
                    gate.target(),
                    vec![gate.controls()[0], Control::level(*source, y)],
                );
                out.extend(lower_macro_gate(&expanded, dimension, width)?);
            }
            Ok(out)
        }
        (2, GateOp::Single(op)) => lower_two_controlled(gate, op, dimension, width),
        (n, GateOp::AddFrom { .. }) => Err(SynthesisError::Lowering {
            reason: format!("value-controlled shift with {n} controls cannot be lowered directly"),
        }),
        (n, _) => Err(SynthesisError::Lowering {
            reason: format!(
                "gate has {n} controls; synthesise it with the multi-controlled constructions instead"
            ),
        }),
    }
}

fn lower_two_controlled(
    gate: &Gate,
    op: &SingleQuditOp,
    dimension: Dimension,
    width: usize,
) -> Result<Vec<Gate>> {
    // Expand non-level predicates first: a predicate control is a product of
    // level controls over its matching levels.
    for (index, control) in gate.controls().iter().enumerate() {
        if let ControlPredicate::Level(_) = control.predicate {
            continue;
        }
        let mut out = Vec::new();
        for level in control.predicate.matching_levels(dimension) {
            let mut controls = gate.controls().to_vec();
            controls[index] = Control::level(control.qudit, level);
            let expanded = Gate::controlled(op.clone(), gate.target(), controls);
            out.extend(lower_two_controlled(&expanded, op, dimension, width)?);
        }
        return Ok(out);
    }

    if !op.is_classical() {
        return Err(SynthesisError::Lowering {
            reason:
                "two-controlled general unitaries require the clean-ancilla construction (Fig. 1b)"
                    .to_string(),
        });
    }

    let c1 = gate.controls()[0];
    let c2 = gate.controls()[1];
    let (l1, l2) = match (c1.predicate, c2.predicate) {
        (ControlPredicate::Level(a), ControlPredicate::Level(b)) => (a, b),
        _ => unreachable!("non-level predicates were expanded above"),
    };
    let target = gate.target();

    let mut gates = Vec::new();
    // Conjugate both controls to level 0.
    if l1 != 0 {
        gates.push(Gate::single(SingleQuditOp::Swap(0, l1), c1.qudit));
    }
    if l2 != 0 {
        gates.push(Gate::single(SingleQuditOp::Swap(0, l2), c2.qudit));
    }
    // The target operation as a product of transpositions, each realised by a
    // two-controlled-swap gadget.
    let transpositions = op.transpositions(dimension).map_err(SynthesisError::from)?;
    for (i, j) in transpositions {
        if dimension.is_odd() {
            gates.extend(two_controlled_swap_odd(
                dimension, c1.qudit, c2.qudit, target, i, j,
            )?);
        } else {
            let borrowed = pick_borrowed(width, &[c1.qudit, c2.qudit, target]).ok_or(
                SynthesisError::BorrowedAncillaRequired {
                    dimension: dimension.get(),
                },
            )?;
            gates.extend(two_controlled_swap_even(
                dimension, c1.qudit, c2.qudit, target, i, j, borrowed,
            )?);
        }
    }
    // Undo the control conjugation.
    if l2 != 0 {
        gates.push(Gate::single(SingleQuditOp::Swap(0, l2), c2.qudit));
    }
    if l1 != 0 {
        gates.push(Gate::single(SingleQuditOp::Swap(0, l1), c1.qudit));
    }
    Ok(gates)
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
            let g = lower_to_g_gates(&circuit).unwrap();
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
            Err(SynthesisError::BorrowedAncillaRequired { .. })
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
            Err(SynthesisError::Lowering { .. })
        ));
    }

    #[test]
    fn g_gate_count_matches_lowered_length() {
        let dimension = dim(5);
        let gate = Gate::controlled(
            SingleQuditOp::Swap(0, 1),
            QuditId::new(2),
            vec![
                Control::zero(QuditId::new(0)),
                Control::zero(QuditId::new(1)),
            ],
        );
        let circuit = macro_circuit(dimension, 3, gate);
        let count = g_gate_count(&circuit).unwrap();
        assert_eq!(count, lower_to_g_gates(&circuit).unwrap().len());
        assert!(count > 0);
    }
}
