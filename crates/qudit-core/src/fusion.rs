//! Gate fusion: grouping runs of same-support single-qudit gates so that
//! downstream consumers touch each amplitude (or each macro gate) once per
//! *run* instead of once per gate.
//!
//! Two consumers share the planner in this module:
//!
//! * the dense simulation engine (`qudit-sim`) compiles a circuit into a
//!   fused program whose kernels traverse the `d^width` amplitude vector
//!   once per group, applying the member actions back to back on the
//!   gathered block — see [`plan_fusion`];
//! * the `gate-fusion` pipeline pass ([`crate::pipeline::GateFusion`], one
//!   call to [`fuse_circuit`]) rewrites classical runs into a single
//!   composed permutation gate when that provably does not increase the
//!   lowered G-gate cost; [`fuse_circuit`] takes the circuit by value and
//!   moves the gates it keeps; `dropped_pairs` lists the pairs it drops
//!   for checkers when that is all it does.
//!
//! # The grouping rule
//!
//! A gate joins an open group when it is a [`GateOp::Single`] operation with
//! the *same target and the same control list* as the group.  A group stays
//! open across an interleaved non-member gate only when that gate is
//! **classical with qudit support disjoint from the group's support**
//! (target plus control qudits).  Any other gate — non-classical, or
//! touching the group's support — closes the group.
//!
//! The disjoint-classical rule is deliberately stronger than operator
//! commutation: a classical gate on disjoint wires is a pure relocation of
//! amplitudes that maps the group's target-stride blocks onto target-stride
//! blocks, preserving the level order inside each block.  Delaying such a
//! relocation past the group therefore produces **bit-identical** amplitudes
//! (every output amplitude is the same floating-point expression over the
//! same inputs), which is what lets the dense engine fuse across it while
//! keeping its "fused ≡ gate-by-gate" contract exact rather than
//! approximate.  A commuting-but-overlapping gate, or a commuting unitary on
//! disjoint wires, would preserve the operator but reassociate the
//! floating-point arithmetic, so it closes the group instead.

use crate::circuit::Circuit;
use crate::error::Result;
use crate::gate::{Gate, GateOp};
use crate::ops::{Permutation, SingleQuditOp};

/// The fusion plan of a gate list: every gate appears in exactly one group,
/// and groups are ordered by their first member.
///
/// Emitting each group's members back to back at the position of its first
/// member is semantics-preserving by the grouping rule (see the module
/// docs), and bit-identical for dense simulation.
///
/// A group is a span of one member buffer that holds every gate index once,
/// group after group, each group's members ascending.  A group of length 1
/// is a gate that did not fuse with anything (including every gate kind
/// that can never be a member, such as `AddFrom`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusionPlan {
    /// Every gate index, grouped.
    members: Vec<usize>,
    /// The end of each group's span in `members`.
    ends: Vec<usize>,
}

impl FusionPlan {
    /// The number of groups.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Returns `true` when the plan has no groups (an empty gate list).
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The members of group `index`: indices into the planned gate list,
    /// ascending.
    ///
    /// # Panics
    ///
    /// Panics when `index >= self.len()`.
    pub fn group(&self, index: usize) -> &[usize] {
        let start = index
            .checked_sub(1)
            .map_or(0, |previous| self.ends[previous]);
        &self.members[start..self.ends[index]]
    }

    /// The groups in emission order (ordered by first member).
    pub fn groups(&self) -> impl ExactSizeIterator<Item = &[usize]> + '_ {
        (0..self.len()).map(|index| self.group(index))
    }

    /// Number of gates that were absorbed into a larger group — the
    /// traversal (or macro-gate) savings of the plan.
    pub fn fused_gates(&self) -> usize {
        self.members.len() - self.ends.len()
    }
}

/// An open (still growing) group during planning.  Every member has the
/// target and controls of the first, so the first gate stands for the
/// group's key and support.
struct OpenGroup<'a> {
    first: &'a Gate,
    /// The index of the first member, which names the group.
    leader: usize,
}

/// Plans fusion groups over a gate list (see the module docs for the rule).
///
/// `fuse_non_classical` controls whether non-classical `Single` operations
/// (general unitaries) may be group members: the dense simulator fuses them
/// at the traversal level, while the circuit-level rewrite only composes
/// classical permutations and passes `false`.
///
/// The walk records each gate's group leader (its first member); a stable
/// counting sort by leader then lays the groups out in one member buffer,
/// so planning allocates a fixed number of buffers however many groups it
/// forms.
pub fn plan_fusion(gates: &[Gate], fuse_non_classical: bool) -> FusionPlan {
    let mut open: Vec<OpenGroup> = Vec::new();
    // `leader[index]` is the first member of the gate's group.
    let mut leader: Vec<usize> = Vec::with_capacity(gates.len());
    let mut groups = 0;

    for (index, gate) in gates.iter().enumerate() {
        let fusable =
            matches!(gate.op(), GateOp::Single(_)) && (fuse_non_classical || gate.is_classical());

        // Join an open group with the identical (target, controls) key.
        let joined = if fusable {
            open.iter()
                .find(|g| {
                    g.first.target() == gate.target() && g.first.controls() == gate.controls()
                })
                .map(|g| g.leader)
        } else {
            None
        };
        leader.push(joined.unwrap_or(index));
        groups += usize::from(joined.is_none());

        // Every open group this gate is *not* a member of sees it as an
        // interleaved gate: keep the group open only across classical gates
        // on disjoint wires.
        open.retain(|g| {
            Some(g.leader) == joined
                || gate.is_classical()
                    && gate
                        .support()
                        .all(|q| g.first.support().all(|member| member != q))
        });

        if joined.is_none() && fusable {
            open.push(OpenGroup {
                first: gate,
                leader: index,
            });
        }
    }

    // A group's leader is its first member, so a stable counting sort of
    // the gates by leader lays the groups out in first-member order, each
    // one's members ascending.  `next[l]` counts leader `l`'s members, then
    // becomes the next free slot of its span.
    let mut next = vec![0usize; gates.len()];
    for &l in &leader {
        next[l] += 1;
    }
    let mut ends = Vec::with_capacity(groups);
    let mut start = 0;
    for slot in &mut next {
        let count = std::mem::replace(slot, start);
        start += count;
        if count > 0 {
            ends.push(start);
        }
    }
    let mut members = vec![0usize; gates.len()];
    for (index, &l) in leader.iter().enumerate() {
        members[next[l]] = index;
        next[l] += 1;
    }
    FusionPlan { members, ends }
}

/// The most specific [`SingleQuditOp`] implementing a permutation: a single
/// transposition becomes [`SingleQuditOp::Swap`], a cyclic shift becomes
/// [`SingleQuditOp::Add`], everything else stays a general
/// [`SingleQuditOp::Perm`].
fn canonical_op(permutation: Permutation) -> SingleQuditOp {
    let transpositions = permutation.transpositions();
    if transpositions.len() == 1 {
        let (i, j) = transpositions[0];
        return SingleQuditOp::Swap(i, j);
    }
    let d = permutation.len() as u32;
    let shift = permutation.apply(0);
    if (0..d).all(|level| permutation.apply(level) == (level + shift) % d) {
        return SingleQuditOp::Add(shift);
    }
    SingleQuditOp::Perm(permutation)
}

/// What [`fuse_circuit`] does with a group: keep its gates as written (a
/// lone gate, or a run that would not shrink), drop the run (it composes to
/// the identity), or replace it with one gate of the composed operation.
enum Fate {
    Keep,
    Drop,
    Replace(SingleQuditOp),
}

/// Classifies a group by its members, in order, by [`fuse_circuit`]'s
/// rules.  Members share their control list, so transposition counts
/// compare fused against unfused runs exactly; a run is only counted when
/// it is not the identity.
fn fate<'a>(
    members: impl ExactSizeIterator<Item = &'a Gate> + Clone,
    dimension: crate::Dimension,
) -> Result<Fate> {
    if members.len() == 1 {
        return Ok(Fate::Keep);
    }
    let ops = members.map(|member| match member.op() {
        GateOp::Single(op) => op,
        GateOp::AddFrom { .. } => unreachable!("multi-gate groups only contain Single members"),
    });
    // Members apply first-to-last: the run's permutation is
    // `p_last ∘ … ∘ p_first`.
    let mut composed = Permutation::identity(dimension);
    for op in ops.clone() {
        composed = op.to_permutation(dimension)?.compose(&composed);
    }
    if composed.is_identity() {
        return Ok(Fate::Drop);
    }
    let member_cost: usize = ops
        .map(|op| Ok(op.transpositions(dimension)?.len()))
        .sum::<Result<_>>()?;
    Ok(if composed.transpositions().len() < member_cost {
        Fate::Replace(canonical_op(composed))
    } else {
        Fate::Keep
    })
}

/// Rewrites classical fusion runs of a circuit into single composed gates.
///
/// A run is rewritten only when that provably does not increase the lowered
/// G-gate cost:
///
/// * a run composing to the **identity** is dropped entirely (a controlled
///   identity is the identity);
/// * otherwise the composed permutation replaces the run only when its
///   transposition count is *strictly smaller* than the member total, and
///   is emitted as the most specific operation (`Swap`, `Add`, or `Perm`);
/// * runs that would not shrink are left exactly as written, so the pass
///   never regresses the paper's gate counts.
///
/// Non-classical gates, `AddFrom` gates, and gates with no same-support
/// neighbours pass through unchanged (in plan emission order, which only
/// reorders across disjoint classical gates — semantics-preserving by the
/// rule in the module docs).  The gates the rewrite keeps move to the
/// output instead of being cloned, and every output gate is validated for
/// the register.
///
/// # Errors
///
/// Returns an error when a gate of the circuit is invalid for its register.
pub fn fuse_circuit(circuit: Circuit) -> Result<Circuit> {
    let (dimension, width) = (circuit.dimension(), circuit.width());
    let plan = plan_fusion(circuit.gates(), false);
    // Every gate sits in exactly one group, so each slot is emptied once.
    let mut slots: Vec<Option<Gate>> = circuit.into_gates().into_iter().map(Some).collect();
    let mut out = Vec::with_capacity(slots.len());
    for group in plan.groups() {
        let member = |index: &usize| slots[*index].as_ref().expect("each gate is in one group");
        match fate(group.iter().map(member), dimension)? {
            Fate::Drop => {}
            Fate::Replace(op) => {
                let template = member(&group[0]);
                out.push(Gate::new(
                    GateOp::Single(op),
                    template.target(),
                    template.controls().iter().copied(),
                ));
            }
            Fate::Keep => out.extend(
                group
                    .iter()
                    .map(|&index| slots[index].take().expect("each gate is in one group")),
            ),
        }
    }
    Circuit::from_gates(dimension, width, out)
}

/// The two-gate identity runs [`fuse_circuit`] drops from `circuit`, by
/// increasing second index, when that is all it does (its output is then
/// the input without them); `None` when it keeps or replaces a run, or
/// refuses the circuit.
pub(crate) fn dropped_pairs(circuit: &Circuit) -> Option<Vec<(usize, usize)>> {
    let gates = circuit.gates();
    let mut pairs = Vec::new();
    for group in plan_fusion(gates, false).groups() {
        let members = group.iter().map(|&index| &gates[index]);
        match (group, fate(members, circuit.dimension()).ok()?) {
            ([_], _) => {}
            (&[first, second], Fate::Drop) => pairs.push((first, second)),
            _ => return None,
        }
    }
    pairs.sort_unstable_by_key(|&(_, second)| second);
    Some(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::Control;
    use crate::dimension::Dimension;
    use crate::math::{Complex, SquareMatrix};
    use crate::qudit::QuditId;

    fn dim(d: u32) -> Dimension {
        Dimension::new(d).unwrap()
    }

    fn fourier(d: u32) -> SquareMatrix {
        let omega = Complex::from_phase(2.0 * std::f64::consts::PI / f64::from(d));
        let s = 1.0 / f64::from(d).sqrt();
        let mut entries = Vec::new();
        for r in 0..d {
            for c in 0..d {
                let mut w = Complex::ONE;
                for _ in 0..(r * c) {
                    w *= omega;
                }
                entries.push(w.scale(s));
            }
        }
        SquareMatrix::from_rows(d as usize, entries).unwrap()
    }

    #[test]
    fn adjacent_same_support_gates_fuse() {
        let d = dim(3);
        let mut circuit = Circuit::new(d, 2);
        let controls = vec![Control::zero(QuditId::new(0))];
        circuit
            .push(Gate::controlled(
                SingleQuditOp::Add(1),
                QuditId::new(1),
                controls.clone(),
            ))
            .unwrap();
        circuit
            .push(Gate::controlled(
                SingleQuditOp::Add(1),
                QuditId::new(1),
                controls,
            ))
            .unwrap();
        let plan = plan_fusion(circuit.gates(), true);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.group(0), [0, 1]);
        assert_eq!(plan.fused_gates(), 1);
    }

    #[test]
    fn differing_controls_do_not_fuse() {
        let d = dim(3);
        let mut circuit = Circuit::new(d, 2);
        circuit
            .push(Gate::controlled(
                SingleQuditOp::Add(1),
                QuditId::new(1),
                vec![Control::zero(QuditId::new(0))],
            ))
            .unwrap();
        circuit
            .push(Gate::controlled(
                SingleQuditOp::Add(1),
                QuditId::new(1),
                vec![Control::level(QuditId::new(0), 1)],
            ))
            .unwrap();
        let plan = plan_fusion(circuit.gates(), true);
        assert_eq!(plan.len(), 2);
    }

    #[test]
    fn disjoint_classical_gates_keep_groups_open() {
        let d = dim(3);
        let mut circuit = Circuit::new(d, 3);
        circuit
            .push(Gate::single(SingleQuditOp::Add(1), QuditId::new(0)))
            .unwrap();
        // Classical, disjoint: the q0 group survives.
        circuit
            .push(Gate::single(SingleQuditOp::Add(1), QuditId::new(1)))
            .unwrap();
        circuit
            .push(Gate::single(SingleQuditOp::Add(1), QuditId::new(0)))
            .unwrap();
        let plan = plan_fusion(circuit.gates(), true);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.group(0), [0, 2]);
        assert_eq!(plan.group(1), [1]);
    }

    #[test]
    fn overlapping_or_non_classical_gates_split_groups() {
        let d = dim(3);
        // Overlap through a control wire.
        let mut overlap = Circuit::new(d, 2);
        overlap
            .push(Gate::single(SingleQuditOp::Add(1), QuditId::new(0)))
            .unwrap();
        overlap
            .push(Gate::controlled(
                SingleQuditOp::Add(1),
                QuditId::new(1),
                vec![Control::zero(QuditId::new(0))],
            ))
            .unwrap();
        overlap
            .push(Gate::single(SingleQuditOp::Add(1), QuditId::new(0)))
            .unwrap();
        let plan = plan_fusion(overlap.gates(), true);
        assert_eq!(plan.len(), 3, "overlapping support must split");

        // A disjoint but non-classical gate also splits.
        let mut unitary = Circuit::new(d, 2);
        unitary
            .push(Gate::single(SingleQuditOp::Add(1), QuditId::new(0)))
            .unwrap();
        unitary
            .push(Gate::single(
                SingleQuditOp::Unitary(fourier(3)),
                QuditId::new(1),
            ))
            .unwrap();
        unitary
            .push(Gate::single(SingleQuditOp::Add(1), QuditId::new(0)))
            .unwrap();
        let plan = plan_fusion(unitary.gates(), true);
        assert_eq!(plan.len(), 3, "non-classical gates must split");
    }

    #[test]
    fn fuse_circuit_drops_identity_runs() {
        let d = dim(3);
        let mut circuit = Circuit::new(d, 2);
        let controls = vec![Control::zero(QuditId::new(0))];
        circuit
            .push(Gate::controlled(
                SingleQuditOp::Swap(0, 2),
                QuditId::new(1),
                controls.clone(),
            ))
            .unwrap();
        circuit
            .push(Gate::controlled(
                SingleQuditOp::Swap(0, 2),
                QuditId::new(1),
                controls,
            ))
            .unwrap();
        let fused = fuse_circuit(circuit.clone()).unwrap();
        assert!(fused.is_empty());
    }

    #[test]
    fn fuse_circuit_composes_shifts_into_one_add() {
        let d = dim(5);
        let mut circuit = Circuit::new(d, 1);
        circuit
            .push(Gate::single(SingleQuditOp::Add(2), QuditId::new(0)))
            .unwrap();
        circuit
            .push(Gate::single(SingleQuditOp::Add(2), QuditId::new(0)))
            .unwrap();
        let fused = fuse_circuit(circuit.clone()).unwrap();
        assert_eq!(fused.len(), 1);
        assert_eq!(
            fused.gates()[0].op(),
            &GateOp::Single(SingleQuditOp::Add(4))
        );
        // Semantics are preserved on every basis state.
        for level in 0..5 {
            assert_eq!(
                circuit.apply_to_basis(&[level]).unwrap(),
                fused.apply_to_basis(&[level]).unwrap()
            );
        }
    }

    #[test]
    fn fuse_circuit_keeps_runs_that_would_not_shrink() {
        let d = dim(4);
        let mut circuit = Circuit::new(d, 1);
        // X01 then X23: composed permutation still needs two transpositions,
        // so the original gates stay as written.
        circuit
            .push(Gate::single(SingleQuditOp::Swap(0, 1), QuditId::new(0)))
            .unwrap();
        circuit
            .push(Gate::single(SingleQuditOp::Swap(2, 3), QuditId::new(0)))
            .unwrap();
        let fused = fuse_circuit(circuit.clone()).unwrap();
        assert_eq!(fused, circuit);
    }

    #[test]
    fn fuse_circuit_preserves_basis_semantics_on_mixed_circuits() {
        let d = dim(3);
        let mut circuit = Circuit::new(d, 3);
        circuit
            .push(Gate::single(SingleQuditOp::Add(1), QuditId::new(0)))
            .unwrap();
        circuit
            .push(Gate::add_from(
                QuditId::new(0),
                false,
                QuditId::new(1),
                vec![],
            ))
            .unwrap();
        circuit
            .push(Gate::single(SingleQuditOp::Add(2), QuditId::new(2)))
            .unwrap();
        circuit
            .push(Gate::single(SingleQuditOp::Add(1), QuditId::new(2)))
            .unwrap();
        let fused = fuse_circuit(circuit.clone()).unwrap();
        // The two shifts on q2 compose to the identity and vanish.
        assert_eq!(fused.len(), 2);
        for a in 0..3 {
            for b in 0..3 {
                for c in 0..3 {
                    assert_eq!(
                        circuit.apply_to_basis(&[a, b, c]).unwrap(),
                        fused.apply_to_basis(&[a, b, c]).unwrap()
                    );
                }
            }
        }
    }
}
