//! Lowering of gates with at most one control to the elementary G-gate set
//! `{ Xij } ∪ { |0⟩-X01 }`.
//!
//! Gates with two or more controls require the constructions of the paper and
//! are lowered by the `qudit-synthesis` crate; this module provides the
//! final step shared by every construction: conjugating levels so that all
//! controlled gates become `|0⟩-X01`.

use crate::cache::{CacheCounters, CanonicalSite, LoweringCache, LoweringStage, WidthClass};
use crate::circuit::Circuit;
use crate::control::{Control, ControlPredicate};
use crate::dimension::Dimension;
use crate::error::{QuditError, Result};
use crate::gate::{Gate, GateOp};
use crate::ops::{Permutation, SingleQuditOp};
use crate::qudit::QuditId;

/// Lowers a single gate with at most one control into G-gates.
///
/// # Errors
///
/// Returns [`QuditError::UnsupportedLowering`] for gates with two or more
/// controls (or a value-controlled shift with an extra control), and
/// [`QuditError::NotClassical`] for non-permutation unitaries.
pub fn lower_gate(gate: &Gate, dimension: Dimension) -> Result<Vec<Gate>> {
    if !gate.is_classical() {
        return Err(QuditError::NotClassical);
    }
    if gate.is_g_gate() {
        return Ok(vec![gate.clone()]);
    }
    match gate.controls().len() {
        0 => lower_uncontrolled(gate, dimension),
        1 => lower_single_controlled(gate, dimension),
        n => Err(QuditError::UnsupportedLowering {
            reason: format!(
                "gate has {n} controls; use qudit-synthesis to lower multi-controlled gates"
            ),
        }),
    }
}

/// Lowers every gate of a circuit into G-gates.
///
/// # Errors
///
/// Propagates the per-gate errors of [`lower_gate`].
pub fn lower_circuit(circuit: &Circuit) -> Result<Circuit> {
    let mut out = Circuit::new(circuit.dimension(), circuit.width());
    for gate in circuit.gates() {
        for lowered in lower_gate(gate, circuit.dimension())? {
            out.push(lowered)?;
        }
    }
    Ok(out)
}

/// Returns the number of G-gates a circuit lowers to.
///
/// # Errors
///
/// Propagates the errors of [`lower_circuit`].
pub fn g_gate_count(circuit: &Circuit) -> Result<usize> {
    Ok(lower_circuit(circuit)?.len())
}

/// [`lower_circuit`] through a [`LoweringCache`], tallying hits and misses
/// into `counters`.
///
/// Each gate is canonicalised (qudits renamed to role order), looked up by
/// `(gate kind, dimension, width-class)`, and the cached expansion is
/// renamed back onto the gate's actual wires.  G-gates pass through without
/// touching the cache, and uncacheable gates (general unitaries) take the
/// direct path, so the output is gate-for-gate identical to
/// [`lower_circuit`].
///
/// # Errors
///
/// Propagates the per-gate errors of [`lower_gate`]; failed lowerings are
/// never cached.
pub fn lower_circuit_cached(
    circuit: &Circuit,
    cache: &LoweringCache,
    counters: &mut CacheCounters,
) -> Result<Circuit> {
    let dimension = circuit.dimension();
    let width_class = WidthClass::of(circuit.width());
    let mut out = Circuit::new(dimension, circuit.width());
    for gate in circuit.gates() {
        let site = if gate.is_g_gate() {
            None
        } else {
            CanonicalSite::of(LoweringStage::GGates, gate, dimension, width_class, &[])
        };
        let lowered = match site {
            Some(site) => {
                site.restore(&cache.get_or_insert_with(site.key(), counters, || {
                    lower_gate(site.gate(), dimension)
                })?)
            }
            None => lower_gate(gate, dimension)?,
        };
        for lowered in lowered {
            out.push(lowered)?;
        }
    }
    Ok(out)
}

fn lower_uncontrolled(gate: &Gate, dimension: Dimension) -> Result<Vec<Gate>> {
    match gate.op() {
        GateOp::Single(op) => {
            let transpositions = op.transpositions(dimension)?;
            Ok(transpositions
                .into_iter()
                .map(|(i, j)| Gate::single(SingleQuditOp::Swap(i, j), gate.target()))
                .collect())
        }
        GateOp::AddFrom { source, negate } => {
            // target += ±value(source) = ∏_{y≠0} |y⟩(source)-X±y.
            let d = dimension.get();
            let mut out = Vec::new();
            for y in 1..d {
                let shift = if *negate { (d - y) % d } else { y };
                if shift == 0 {
                    continue;
                }
                let controlled = Gate::controlled(
                    SingleQuditOp::Add(shift),
                    gate.target(),
                    vec![Control::level(*source, y)],
                );
                out.extend(lower_single_controlled(&controlled, dimension)?);
            }
            Ok(out)
        }
    }
}

fn lower_single_controlled(gate: &Gate, dimension: Dimension) -> Result<Vec<Gate>> {
    let control = gate.controls()[0];
    match control.predicate {
        ControlPredicate::Level(level) => {
            lower_level_controlled(gate, control.qudit, level, dimension)
        }
        predicate => {
            // Expand the predicate into one level-controlled gate per
            // matching level; different control levels commute.
            let mut out = Vec::new();
            for level in predicate.matching_levels(dimension) {
                let expanded = Gate::new(
                    gate.op().clone(),
                    gate.target(),
                    vec![Control::level(control.qudit, level)],
                );
                out.extend(lower_gate(&expanded, dimension)?);
            }
            Ok(out)
        }
    }
}

fn lower_level_controlled(
    gate: &Gate,
    control: QuditId,
    level: u32,
    dimension: Dimension,
) -> Result<Vec<Gate>> {
    match gate.op() {
        GateOp::AddFrom { .. } => Err(QuditError::UnsupportedLowering {
            reason: "value-controlled shift with an additional control is a three-qudit gate; \
                     use qudit-synthesis to lower it"
                .to_string(),
        }),
        GateOp::Single(op) => {
            let transpositions = op.transpositions(dimension)?;
            let mut out = Vec::new();
            for (i, j) in transpositions {
                out.extend(lower_controlled_swap(
                    control,
                    level,
                    gate.target(),
                    i,
                    j,
                    dimension,
                ));
            }
            Ok(out)
        }
    }
}

/// Lowers `|level⟩(control)-Xij(target)` into G-gates by conjugating the
/// control level to `0` and the target levels to `(0, 1)`.
fn lower_controlled_swap(
    control: QuditId,
    level: u32,
    target: QuditId,
    i: u32,
    j: u32,
    dimension: Dimension,
) -> Vec<Gate> {
    let mut out = Vec::new();
    let conjugate_control = level != 0;
    if conjugate_control {
        out.push(Gate::single(SingleQuditOp::Swap(0, level), control));
    }
    let needs_sigma = !((i == 0 && j == 1) || (i == 1 && j == 0));
    let sigma = if needs_sigma {
        Some(Permutation::sending_01_to(dimension, i, j))
    } else {
        None
    };
    if let Some(sigma) = &sigma {
        for (a, b) in sigma.inverse().transpositions() {
            out.push(Gate::single(SingleQuditOp::Swap(a, b), target));
        }
    }
    out.push(Gate::controlled(
        SingleQuditOp::Swap(0, 1),
        target,
        vec![Control::zero(control)],
    ));
    if let Some(sigma) = &sigma {
        for (a, b) in sigma.transpositions() {
            out.push(Gate::single(SingleQuditOp::Swap(a, b), target));
        }
    }
    if conjugate_control {
        out.push(Gate::single(SingleQuditOp::Swap(0, level), control));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dim(d: u32) -> Dimension {
        Dimension::new(d).unwrap()
    }

    /// Checks that the lowering of `gate` acts identically to `gate` on every
    /// basis state of a width-`width` register.
    fn assert_lowering_equivalent(gate: &Gate, dimension: Dimension, width: usize) {
        let lowered = lower_gate(gate, dimension).expect("gate should lower");
        for g in &lowered {
            assert!(g.is_g_gate(), "lowered gate {g} is not a G-gate");
        }
        let mut original = Circuit::new(dimension, width);
        original.push(gate.clone()).unwrap();
        let mut replacement = Circuit::new(dimension, width);
        replacement.extend_gates(lowered).unwrap();
        let size = dimension.register_size(width);
        for index in 0..size {
            let digits = index_to_digits(index, dimension, width);
            assert_eq!(
                original.apply_to_basis(&digits).unwrap(),
                replacement.apply_to_basis(&digits).unwrap(),
                "mismatch for input {digits:?} lowering {gate}"
            );
        }
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

    #[test]
    fn uncontrolled_ops_lower_to_transpositions() {
        for d in [3u32, 4, 5, 6] {
            let dimension = dim(d);
            let ops = vec![
                SingleQuditOp::Swap(0, d - 1),
                SingleQuditOp::Add(1),
                SingleQuditOp::Add(d - 1),
                if d % 2 == 0 {
                    SingleQuditOp::ParityFlipEven
                } else {
                    SingleQuditOp::ParityFlipOdd
                },
            ];
            for op in ops {
                let gate = Gate::single(op, QuditId::new(0));
                assert_lowering_equivalent(&gate, dimension, 1);
            }
        }
    }

    #[test]
    fn level_controlled_swaps_lower_correctly() {
        for d in [3u32, 4, 5] {
            let dimension = dim(d);
            for level in 0..d {
                for i in 0..d {
                    for j in 0..d {
                        if i == j {
                            continue;
                        }
                        let gate = Gate::controlled(
                            SingleQuditOp::Swap(i, j),
                            QuditId::new(1),
                            vec![Control::level(QuditId::new(0), level)],
                        );
                        assert_lowering_equivalent(&gate, dimension, 2);
                    }
                }
            }
        }
    }

    #[test]
    fn predicate_controlled_gates_lower_correctly() {
        for d in [3u32, 4, 6] {
            let dimension = dim(d);
            for predicate in [
                ControlPredicate::Odd,
                ControlPredicate::EvenNonzero,
                ControlPredicate::NonZero,
            ] {
                let gate = Gate::controlled(
                    SingleQuditOp::Add(1),
                    QuditId::new(1),
                    vec![Control::new(QuditId::new(0), predicate)],
                );
                assert_lowering_equivalent(&gate, dimension, 2);
            }
        }
    }

    #[test]
    fn controlled_parity_flip_lowers_correctly() {
        let dimension = dim(6);
        let gate = Gate::controlled(
            SingleQuditOp::ParityFlipEven,
            QuditId::new(1),
            vec![Control::level(QuditId::new(0), 2)],
        );
        assert_lowering_equivalent(&gate, dimension, 2);
    }

    #[test]
    fn uncontrolled_add_from_lowers_correctly() {
        for d in [3u32, 4, 5] {
            let dimension = dim(d);
            for negate in [false, true] {
                let gate = Gate::add_from(QuditId::new(0), negate, QuditId::new(1), vec![]);
                assert_lowering_equivalent(&gate, dimension, 2);
            }
        }
    }

    #[test]
    fn multi_controlled_gates_are_rejected() {
        let dimension = dim(3);
        let gate = Gate::controlled(
            SingleQuditOp::Swap(0, 1),
            QuditId::new(2),
            vec![
                Control::zero(QuditId::new(0)),
                Control::zero(QuditId::new(1)),
            ],
        );
        assert!(matches!(
            lower_gate(&gate, dimension),
            Err(QuditError::UnsupportedLowering { .. })
        ));
        let star = Gate::add_from(
            QuditId::new(0),
            false,
            QuditId::new(2),
            vec![Control::zero(QuditId::new(1))],
        );
        assert!(matches!(
            lower_gate(&star, dimension),
            Err(QuditError::UnsupportedLowering { .. })
        ));
    }

    #[test]
    fn lower_circuit_counts_g_gates() {
        let dimension = dim(3);
        let mut circuit = Circuit::new(dimension, 2);
        circuit
            .push(Gate::controlled(
                SingleQuditOp::Add(1),
                QuditId::new(1),
                vec![Control::level(QuditId::new(0), 2)],
            ))
            .unwrap();
        let lowered = lower_circuit(&circuit).unwrap();
        assert!(lowered.gates().iter().all(Gate::is_g_gate));
        assert_eq!(g_gate_count(&circuit).unwrap(), lowered.len());
        assert!(!lowered.is_empty());
    }

    #[test]
    fn g_gates_pass_through_unchanged() {
        let dimension = dim(4);
        let gate = Gate::controlled(
            SingleQuditOp::Swap(0, 1),
            QuditId::new(1),
            vec![Control::zero(QuditId::new(0))],
        );
        assert_eq!(lower_gate(&gate, dimension).unwrap(), vec![gate]);
    }
}
