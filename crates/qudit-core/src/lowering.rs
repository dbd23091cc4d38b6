//! Lowering of gates with at most one control to the elementary G-gate set
//! `{ Xij } ∪ { |0⟩-X01 }`.
//!
//! Gates with two or more controls require the constructions of the paper and
//! are lowered by the `qudit-synthesis` crate; this module provides the
//! final step shared by every construction: conjugating levels so that all
//! controlled gates become `|0⟩-X01`.
//!
//! [`lower_circuit`] is the one entry point (the `lower-to-g-gates` pass is
//! one call to it): one walk over the gates that emits straight into its
//! output vector.  The walk also counts a gate's expansion exactly from
//! the transpositions alone ([`GateWalk::count`]), which a checker driving
//! it uses to size its output once.  The level permutations it decomposes
//! live in [`Transpositions`] buffers the walk reuses, and each level
//! pair's conjugation is decomposed once per walk, so a warm walk
//! allocates only its output.

use std::collections::BTreeMap;

use crate::circuit::Circuit;
use crate::control::Control;
use crate::dimension::Dimension;
use crate::error::{QuditError, Result};
use crate::gate::{Gate, GateOp};
use crate::ops::{push_transpositions, SingleQuditOp};
use crate::pipeline::GateWalk;
use crate::qudit::QuditId;

/// Lowers every gate of a circuit, each with at most one control, into
/// G-gates.
///
/// # Errors
///
/// Returns [`QuditError::UnsupportedLowering`] for gates with two or more
/// controls (or a value-controlled shift with an extra control), and
/// [`QuditError::NotClassical`] for non-permutation unitaries.
pub fn lower_circuit(circuit: &Circuit) -> Result<Circuit> {
    let dimension = circuit.dimension();
    let mut walk = GGateWalk::new(dimension);
    // Grown, not sized from `walk.count`: served unverified O2 compiles
    // with an exactly sized output here had glibc trim and re-fault the
    // worker heaps on every job.
    let mut out = Vec::with_capacity(circuit.len());
    for gate in circuit.gates() {
        walk.emit(gate, &mut out)?;
    }
    // Every emitted gate acts on its source gate's wires with levels below
    // `d`, so it is valid for the input's register.
    Ok(Circuit::from_gates_unchecked(
        dimension,
        circuit.width(),
        out,
    ))
}

/// A run of transpositions `(i, j)`, in time order.
type Pairs = [(u32, u32)];

/// Level buffers for decomposing single-qudit permutations into
/// transpositions, reused across one lowering walk.
#[derive(Debug, Default)]
pub struct Transpositions {
    map: Vec<u32>,
    inverse: Vec<u32>,
    visited: Vec<bool>,
    pairs: Vec<(u32, u32)>,
}

impl Transpositions {
    /// The transpositions of `op`, in the time order of
    /// [`SingleQuditOp::transpositions`], valid until the next call.
    ///
    /// # Errors
    ///
    /// Returns [`QuditError::NotClassical`] for non-permutation unitaries.
    pub fn of(&mut self, op: &SingleQuditOp, dimension: Dimension) -> Result<&[(u32, u32)]> {
        self.pairs.clear();
        if let SingleQuditOp::Swap(i, j) = op {
            self.pairs.push((*i, *j));
            return Ok(&self.pairs);
        }
        self.map.clear();
        if let SingleQuditOp::Unitary(_) = op {
            self.map
                .extend_from_slice(op.to_permutation(dimension)?.as_map());
        } else {
            for level in dimension.levels() {
                self.map.push(op.apply_level(level, dimension)?);
            }
        }
        push_transpositions(&self.map, &mut self.visited, &mut self.pairs);
        Ok(&self.pairs)
    }

    /// The conjugation `σ` sending levels `(0, 1)` to `(i, j)` and the
    /// remaining levels, in ascending order, to `2, 3, …`: the
    /// transpositions of `σ⁻¹`, then those of `σ`.
    fn conjugation(&mut self, dimension: Dimension, i: u32, j: u32) -> (&Pairs, &Pairs) {
        let d = dimension.as_usize();
        self.map.clear();
        self.map.resize(d, 0);
        self.inverse.clear();
        self.inverse.resize(d, 0);
        let rest = dimension.levels().filter(|&level| level != i && level != j);
        for (slot, level) in [i, j].into_iter().chain(rest).enumerate() {
            self.map[slot] = level;
            self.inverse[level as usize] = slot as u32;
        }
        self.pairs.clear();
        push_transpositions(&self.inverse, &mut self.visited, &mut self.pairs);
        let split = self.pairs.len();
        push_transpositions(&self.map, &mut self.visited, &mut self.pairs);
        self.pairs.split_at(split)
    }
}

/// The conjugations a walk needs, each decomposed once per walk (see
/// [`Transpositions::conjugation`]) and kept only for the pairs it meets.
#[derive(Debug, Default)]
struct Conjugations {
    scratch: Transpositions,
    /// Per level pair `(i, j)` met: its transpositions' span in `pairs` as
    /// `(start, split, end)`.
    spans: BTreeMap<(u32, u32), (usize, usize, usize)>,
    pairs: Vec<(u32, u32)>,
}

impl Conjugations {
    /// The transpositions of `σ⁻¹` and `σ` for the pair `(i, j)`.
    fn of(&mut self, dimension: Dimension, i: u32, j: u32) -> (&Pairs, &Pairs) {
        let (start, split, end) = *self.spans.entry((i, j)).or_insert_with(|| {
            let (unconjugate, conjugate) = self.scratch.conjugation(dimension, i, j);
            let start = self.pairs.len();
            self.pairs.extend_from_slice(unconjugate);
            let split = self.pairs.len();
            self.pairs.extend_from_slice(conjugate);
            (start, split, self.pairs.len())
        });
        (&self.pairs[start..split], &self.pairs[split..end])
    }
}

/// One G-gate lowering walk: the buffers of the gate's own operation and
/// the conjugations its transpositions need.
pub(crate) struct GGateWalk {
    dimension: Dimension,
    op: Transpositions,
    sigma: Conjugations,
}

impl GGateWalk {
    pub(crate) fn new(dimension: Dimension) -> Self {
        GGateWalk {
            dimension,
            op: Transpositions::default(),
            sigma: Conjugations::default(),
        }
    }
}

impl GateWalk for GGateWalk {
    /// Emits the G-gates of `gate` into `out`.
    fn emit(&mut self, gate: &Gate, out: &mut Vec<Gate>) -> Result<()> {
        if !gate.is_classical() {
            return Err(QuditError::NotClassical);
        }
        if gate.is_g_gate() {
            out.push(gate.clone());
            return Ok(());
        }
        let dimension = self.dimension;
        let target = gate.target();
        match (gate.controls(), gate.op()) {
            ([], GateOp::Single(op)) => {
                for &(i, j) in self.op.of(op, dimension)? {
                    out.push(Gate::single(SingleQuditOp::Swap(i, j), target));
                }
            }
            ([], GateOp::AddFrom { source, negate }) => {
                // target += ±value(source) = ∏_{y≠0} |y⟩(source)-X±y.
                let d = dimension.get();
                for y in 1..d {
                    let shift = if *negate { d - y } else { y };
                    let pairs = self.op.of(&SingleQuditOp::Add(shift), dimension)?;
                    level_controlled(&mut self.sigma, dimension, pairs, target, *source, y, out);
                }
            }
            ([control], op) => {
                // Expand the predicate into one level-controlled gate per
                // matching level; different control levels commute.
                let mut levels = dimension
                    .levels()
                    .filter(|&level| control.predicate.matches(level))
                    .peekable();
                if levels.peek().is_none() {
                    return Ok(());
                }
                let GateOp::Single(op) = op else {
                    return Err(QuditError::UnsupportedLowering {
                        reason: "value-controlled shift with an additional control is a \
                                 three-qudit gate; use qudit-synthesis to lower it"
                            .to_string(),
                    });
                };
                let pairs = self.op.of(op, dimension)?;
                for level in levels {
                    level_controlled(
                        &mut self.sigma,
                        dimension,
                        pairs,
                        target,
                        control.qudit,
                        level,
                        out,
                    );
                }
            }
            (controls, _) => {
                return Err(QuditError::UnsupportedLowering {
                    reason: format!(
                        "gate has {} controls; use qudit-synthesis to lower multi-controlled gates",
                        controls.len()
                    ),
                })
            }
        }
        Ok(())
    }

    /// Counts from the transpositions alone, mirroring `emit` arm by arm.
    fn count(&mut self, gate: &Gate) -> usize {
        if !gate.is_classical() {
            return 0;
        }
        if gate.is_g_gate() {
            return 1;
        }
        let dimension = self.dimension;
        match (gate.controls(), gate.op()) {
            ([], GateOp::Single(op)) => self.op.of(op, dimension).map_or(0, <[_]>::len),
            ([], GateOp::AddFrom { negate, .. }) => {
                let d = dimension.get();
                (1..d)
                    .map(|y| {
                        let shift = if *negate { d - y } else { y };
                        let pairs = self.op.of(&SingleQuditOp::Add(shift), dimension);
                        pairs.map_or(0, |pairs| level_controlled_count(pairs, 1, 1))
                    })
                    .sum()
            }
            ([control], GateOp::Single(op)) => {
                let (levels, nonzero) = dimension
                    .levels()
                    .filter(|&level| control.predicate.matches(level))
                    .fold((0, 0), |(n, nonzero), level| {
                        (n + 1, nonzero + usize::from(level != 0))
                    });
                let pairs = self.op.of(op, dimension);
                pairs.map_or(0, |pairs| level_controlled_count(pairs, levels, nonzero))
            }
            _ => 0,
        }
    }
}

/// Emits `|level⟩(control)-X(target)` for the transpositions `pairs` of `X`:
/// per transposition `Xij`, the control level is conjugated to `0` and the
/// target levels to `(0, 1)` around one `|0⟩-X01`.
fn level_controlled(
    sigma: &mut Conjugations,
    dimension: Dimension,
    pairs: &Pairs,
    target: QuditId,
    control: QuditId,
    level: u32,
    out: &mut Vec<Gate>,
) {
    for &(i, j) in pairs {
        if level != 0 {
            out.push(Gate::single(SingleQuditOp::Swap(0, level), control));
        }
        let (unconjugate, conjugate) = if matches!((i, j), (0, 1) | (1, 0)) {
            (&[][..], &[][..])
        } else {
            sigma.of(dimension, i, j)
        };
        for &(a, b) in unconjugate {
            out.push(Gate::single(SingleQuditOp::Swap(a, b), target));
        }
        out.push(Gate::controlled(
            SingleQuditOp::Swap(0, 1),
            target,
            [Control::zero(control)],
        ));
        for &(a, b) in conjugate {
            out.push(Gate::single(SingleQuditOp::Swap(a, b), target));
        }
        if level != 0 {
            out.push(Gate::single(SingleQuditOp::Swap(0, level), control));
        }
    }
}

/// The number of gates [`level_controlled`] emits for `pairs` over
/// `levels` control levels, `nonzero` of them other than `0`.
fn level_controlled_count(pairs: &Pairs, levels: usize, nonzero: usize) -> usize {
    let conjugated: usize = pairs.iter().map(|&(i, j)| 1 + conjugation_len(i, j)).sum();
    levels * conjugated + 2 * nonzero * pairs.len()
}

/// The number of transpositions [`Transpositions::conjugation`] gives the
/// pair `(i, j)`, and none for `(0, 1)` and `(1, 0)`, which the walk does
/// not conjugate.  `σ⁻¹` fixes every level above `high = max(i, j)`, steps
/// the levels below `low = min(i, j)` by two and those between by one, and
/// sends `i, j` to `0, 1`; so `0..=high` is two cycles when `low` is even
/// and `i < j` or odd and `i > j`, one cycle otherwise.  `σ` has the same
/// cycles, and a cycle of `n` levels is `n − 1` transpositions.
fn conjugation_len(i: u32, j: u32) -> usize {
    if matches!((i, j), (0, 1) | (1, 0)) {
        return 0;
    }
    let (low, high) = (i.min(j), i.max(j) as usize);
    let cycles = if (low % 2 == 0) == (i < j) { 2 } else { 1 };
    2 * (high + 1 - cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::ControlPredicate;
    use crate::ops::Permutation;

    fn dim(d: u32) -> Dimension {
        Dimension::new(d).unwrap()
    }

    /// The G-gates of one gate, from a fresh walk, whose count must be
    /// exact.
    fn walk_one(gate: &Gate, dimension: Dimension) -> Result<Vec<Gate>> {
        let mut walk = GGateWalk::new(dimension);
        let count = walk.count(gate);
        let mut out = Vec::new();
        walk.emit(gate, &mut out)?;
        assert_eq!(count, out.len(), "{gate}");
        Ok(out)
    }

    #[test]
    fn conjugation_lengths_match_the_decomposition() {
        let mut buffers = Transpositions::default();
        for d in 2u32..=17 {
            let dimension = dim(d);
            for (i, j) in (0..d).flat_map(|i| (0..d).map(move |j| (i, j))) {
                if i == j {
                    continue;
                }
                let (unconjugate, conjugate) = buffers.conjugation(dimension, i, j);
                let len = if matches!((i, j), (0, 1) | (1, 0)) {
                    0
                } else {
                    unconjugate.len() + conjugate.len()
                };
                assert_eq!(conjugation_len(i, j), len, "d={d} ({i}, {j})");
                for level in [0, j] {
                    let gate = Gate::controlled(
                        SingleQuditOp::Swap(i, j),
                        QuditId::new(1),
                        [Control::level(QuditId::new(0), level)],
                    );
                    walk_one(&gate, dimension).unwrap();
                }
            }
        }
    }

    /// Checks that the lowering of `gate` acts identically to `gate` on every
    /// basis state of a width-`width` register.
    fn assert_lowering_equivalent(gate: &Gate, dimension: Dimension, width: usize) {
        let lowered = walk_one(gate, dimension).expect("gate should lower");
        for g in &lowered {
            assert!(g.is_g_gate(), "lowered gate {g} is not a G-gate");
        }
        let mut original = Circuit::new(dimension, width);
        original.push(gate.clone()).unwrap();
        let replacement = Circuit::from_gates(dimension, width, lowered).unwrap();
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
            walk_one(&gate, dimension),
            Err(QuditError::UnsupportedLowering { .. })
        ));
        let star = Gate::add_from(
            QuditId::new(0),
            false,
            QuditId::new(2),
            vec![Control::zero(QuditId::new(1))],
        );
        assert!(matches!(
            walk_one(&star, dimension),
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
        assert_eq!(lowered.g_gate_count(), lowered.len());
        assert!(!lowered.is_empty());
    }

    #[test]
    fn reused_buffers_match_the_allocating_decompositions() {
        let mut buffers = Transpositions::default();
        for d in [2u32, 3, 4, 5, 7] {
            let dimension = dim(d);
            let mut ops = vec![
                SingleQuditOp::Swap(d - 1, 0),
                SingleQuditOp::Add(1),
                SingleQuditOp::Add(d - 1),
                SingleQuditOp::Perm(Permutation::cycle_add(dimension, 1).inverse()),
                SingleQuditOp::Unitary(SingleQuditOp::Add(1).to_matrix(dimension)),
            ];
            ops.push(if d % 2 == 0 {
                SingleQuditOp::ParityFlipEven
            } else {
                SingleQuditOp::ParityFlipOdd
            });
            for op in ops {
                assert_eq!(
                    buffers.of(&op, dimension).unwrap(),
                    op.transpositions(dimension).unwrap(),
                    "{op:?} at d={d}"
                );
            }
            for i in 0..d {
                for j in (0..d).filter(|&j| j != i) {
                    let sigma = Permutation::sending_01_to(dimension, i, j);
                    let (unconjugate, conjugate) = buffers.conjugation(dimension, i, j);
                    assert_eq!(unconjugate, sigma.inverse().transpositions());
                    assert_eq!(conjugate, sigma.transpositions());
                }
            }
        }
    }

    #[test]
    fn g_gates_pass_through_unchanged() {
        let dimension = dim(4);
        let gate = Gate::controlled(
            SingleQuditOp::Swap(0, 1),
            QuditId::new(1),
            vec![Control::zero(QuditId::new(0))],
        );
        assert_eq!(walk_one(&gate, dimension).unwrap(), vec![gate]);
    }
}
