//! Commutation analysis: the structural commutation oracle and the
//! commutation-aware ASAP depth scheduler.
//!
//! Gate count is the paper's primary cost metric, but *depth* — the number
//! of layers when gates on disjoint qudits run in parallel — is the
//! wall-clock proxy on real hardware.  The greedy layering of
//! [`crate::depth::circuit_depth`] respects the emission order of the
//! gates; the synthesis constructions, however, interleave conjugation
//! sandwiches on different wires in whatever order the recursion emits
//! them, so the emitted order is rarely the depth-minimal one.  Reordering
//! *commuting* gates changes nothing about the circuit's semantics while
//! potentially packing its layers much tighter.
//!
//! This module provides the two pieces of that optimisation:
//!
//! * [`gates_commute`] — a cheap, **sound** structural commutation oracle:
//!   when it returns `true` the two gates provably commute as operators;
//!   when it returns `false` they may or may not (completeness is partial,
//!   see the rule table below);
//! * [`schedule_depth`] — an as-soon-as-possible list scheduler over the
//!   circuit's dependency DAG under the oracle (gate `j` must stay after an
//!   earlier gate `i` the oracle cannot prove it commutes with): each gate
//!   is placed in the earliest layer that respects its dependencies *and*
//!   has all of its wires free (first-fit, so a late gate may slide into an
//!   idle-wire hole that the emission order left behind).  The scheduled
//!   circuit is a permutation of the input in which only oracle-commuting
//!   gates changed relative order, its
//!   [`circuit_depth`](crate::depth::circuit_depth) never exceeds the
//!   input's, and scheduling is idempotent.  The scheduler never builds the
//!   DAG: it fuses the DAG scan into layer assignment in one sequential
//!   pass.  Only the *maximum* predecessor layer matters, and the oracle is
//!   an AND over shared wires, so each gate tests each of its wires on its
//!   own.  A wire's history merges consecutive gates that use it the same
//!   way into one run, and the backward scan stops as soon as the wire's
//!   running maximum of assigned layers can no longer raise the bound.  The
//!   scheduler suite (`tests/scheduler.rs`) pins it equal to an unfused
//!   reference over an explicit DAG.  It takes the circuit by value and
//!   moves its gates into layer order; the `schedule-depth` pass is one
//!   call to it.
//!
//! The per-gate bookkeeping is kept small.  Each gate's oracle facts
//! (level map, additive, diagonal; a transposition skips the `d`-level
//! diagonal check) are computed once and kept by the wire runs the gate
//! starts, so no per-gate table is built; its roles are read once into a
//! reused buffer; and the layer order is a stable counting sort by layer
//! whose result is swapped into place within the circuit's own gate
//! buffer, so no second gate buffer is allocated.
//!
//! # Oracle rules
//!
//! A gate *writes* its target and *reads* its controls and (for the
//! value-controlled shift `X±⋆`) its source.  For every qudit shared by
//! the two gates, one of the following must hold — otherwise the oracle
//! conservatively answers `false`:
//!
//! | shared qudit is…           | commutes when…                                        |
//! |----------------------------|-------------------------------------------------------|
//! | read by both gates         | always (both act block-diagonally in its basis)       |
//! | written by both (same target) | the two target operations commute (additive ops always; diagonal ops always; classical ops by permutation check; unitaries by `d × d` commutator) |
//! | written by one, a control of the other | the writer's operation is diagonal in the computational basis, **or** a fixed classical permutation under which the control predicate is invariant |
//! | written by one, the `X±⋆` source of the other | the writer's operation is diagonal (a diagonal write never changes the source value feeding the shift) |
//!
//! Gates sharing no qudit always commute.
//!
//! # Example
//!
//! ```
//! use qudit_core::commute::{gates_commute, schedule_depth};
//! use qudit_core::depth::circuit_depth;
//! use qudit_core::{Circuit, Control, Dimension, Gate, QuditId, SingleQuditOp};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let d = Dimension::new(3)?;
//! // Two gates sharing only a control: they commute…
//! let a = Gate::controlled(
//!     SingleQuditOp::Swap(0, 1),
//!     QuditId::new(1),
//!     vec![Control::zero(QuditId::new(0))],
//! );
//! let b = Gate::controlled(
//!     SingleQuditOp::Swap(0, 1),
//!     QuditId::new(2),
//!     vec![Control::zero(QuditId::new(0))],
//! );
//! assert!(gates_commute(d, &a, &b));
//! // …but writing a qudit the other reads does not commute structurally.
//! let c = Gate::single(SingleQuditOp::Add(1), QuditId::new(0));
//! assert!(!gates_commute(d, &a, &c));
//!
//! // Scheduling never increases the measured depth.
//! let mut circuit = Circuit::new(d, 3);
//! circuit.push(a)?;
//! circuit.push(b)?;
//! let scheduled = schedule_depth(circuit.clone());
//! assert!(circuit_depth(&scheduled) <= circuit_depth(&circuit));
//! # Ok(())
//! # }
//! ```

use crate::circuit::Circuit;
use crate::control::ControlPredicate;
use crate::dimension::Dimension;
use crate::gate::{Gate, GateOp};
use crate::math::{Complex, SquareMatrix, MATRIX_TOLERANCE};
use crate::ops::SingleQuditOp;
use crate::qudit::QuditId;

/// How a gate uses one of its qudits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// The qudit is the gate's target: the only qudit the gate writes.
    Target,
    /// The qudit is the source of a value-controlled shift `X±⋆`: read, and
    /// its *value* selects the shift applied to the target.
    Source,
    /// The qudit is a control: read through a basis-diagonal predicate.
    Control(ControlPredicate),
}

/// The role a gate assigns to `q`, or `None` when the gate does not touch it.
fn role_of(gate: &Gate, q: QuditId) -> Option<Role> {
    roles(gate).find(|&(p, _)| p == q).map(|(_, role)| role)
}

/// Every qudit of the gate with its role, in [`Gate::support`] order.
fn roles(gate: &Gate) -> impl Iterator<Item = (QuditId, Role)> + '_ {
    let source = match gate.op() {
        GateOp::AddFrom { source, .. } => Some((*source, Role::Source)),
        GateOp::Single(_) => None,
    };
    gate.controls()
        .iter()
        .map(|c| (c.qudit, Role::Control(c.predicate)))
        .chain(source)
        .chain(std::iter::once((gate.target(), Role::Target)))
}

/// The fixed level map a gate applies to its target, read without
/// allocating: a classical operation acts level by level through
/// [`SingleQuditOp::apply_level`] (a `Perm` reads its own table), and a
/// permutation-valued unitary through the one entry equal to 1 in the
/// level's column.
#[derive(Clone, Copy)]
enum LevelMap<'a> {
    /// `Swap`, `Add`, the parity flips or `Perm`.
    Op(&'a SingleQuditOp),
    /// A unitary [`SingleQuditOp::to_permutation`] accepts: a permutation
    /// matrix.
    Matrix(&'a SquareMatrix),
}

impl LevelMap<'_> {
    fn apply(&self, level: u32, dimension: Dimension) -> u32 {
        match self {
            LevelMap::Op(op) => op
                .apply_level(level, dimension)
                .expect("only classical operations are stored"),
            LevelMap::Matrix(matrix) => (0..matrix.size())
                .find(|&row| {
                    matrix[(row, level as usize)].approx_eq(Complex::ONE, MATRIX_TOLERANCE)
                })
                .expect("a permutation matrix has a 1 in every column")
                as u32,
        }
    }
}

/// Returns `true` when the predicate fires on exactly the same levels before
/// and after the map — the condition under which a controlled gate commutes
/// with a classical gate writing its control qudit.
fn predicate_invariant_under(
    predicate: ControlPredicate,
    map: &LevelMap<'_>,
    dimension: Dimension,
) -> bool {
    if let LevelMap::Op(&SingleQuditOp::Swap(i, j)) = map {
        // Only `i` and `j` move.
        return predicate.matches(i) == predicate.matches(j);
    }
    dimension
        .levels()
        .all(|l| predicate.matches(map.apply(l, dimension)) == predicate.matches(l))
}

/// Precomputed per-gate facts the oracle consults for every pair.  The
/// scheduler computes these once per gate instead of once per pair, which is
/// what keeps the oracle cheap on multi-thousand-gate circuits, and each
/// wire's run keeps the facts of its first gate.
#[derive(Clone, Copy)]
struct GateInfo<'a> {
    gate: &'a Gate,
    /// The fixed level map the gate applies to its target, when it has one
    /// (`None` for `X±⋆`, whose shift depends on the source value, and for
    /// non-permutation unitaries).
    map: Option<LevelMap<'a>>,
    /// Whether the target operation is a translation `|t⟩ ↦ |t + y mod d⟩`
    /// for some (possibly value-dependent) `y` — the abelian subgroup in
    /// which any two target operations commute.
    additive: bool,
    /// Whether the target operation is diagonal in the computational basis
    /// (the whole gate is then a diagonal operator — controls are basis
    /// projectors — so it commutes with anything that only reads its
    /// target).  A permutation is diagonal exactly when it is the identity,
    /// so only non-permutation unitaries need their matrix, and a
    /// transposition (`i ≠ j`, as validation ensures) never is.
    diagonal: bool,
}

impl<'a> GateInfo<'a> {
    fn of(gate: &'a Gate, dimension: Dimension) -> Self {
        let map = match gate.op() {
            GateOp::Single(op @ SingleQuditOp::Unitary(matrix)) => op
                .to_permutation(dimension)
                .ok()
                .map(|_| LevelMap::Matrix(matrix)),
            GateOp::Single(op) => Some(LevelMap::Op(op)),
            GateOp::AddFrom { .. } => None,
        };
        let diagonal = match (gate.op(), &map) {
            (GateOp::Single(SingleQuditOp::Swap(..)), _) => false,
            (GateOp::Single(SingleQuditOp::Unitary(matrix)), _) => {
                let size = matrix.size();
                (0..size)
                    .all(|r| (0..size).all(|c| r == c || matrix[(r, c)].norm() <= MATRIX_TOLERANCE))
            }
            (_, Some(map)) => dimension.levels().all(|l| map.apply(l, dimension) == l),
            (_, None) => false,
        };
        GateInfo {
            gate,
            map,
            additive: matches!(
                gate.op(),
                GateOp::AddFrom { .. } | GateOp::Single(SingleQuditOp::Add(_))
            ),
            diagonal,
        }
    }
}

/// Returns `true` when the two target operations provably commute as
/// `d × d` operators (sound; partial like the gate-level oracle).
fn ops_commute(dimension: Dimension, a: &GateInfo<'_>, b: &GateInfo<'_>) -> bool {
    if a.additive && b.additive {
        // Translations mod d form an abelian group; this covers `X±⋆`
        // against `X±⋆` and `X+y` in either order.
        return true;
    }
    if a.diagonal && b.diagonal {
        // Diagonal matrices always commute — the diagonal-vs-diagonal rule.
        return true;
    }
    match (&a.map, &b.map, a.gate.op(), b.gate.op()) {
        // Two transpositions (`i ≠ j`, as validation ensures) commute exactly
        // when they are equal or disjoint.
        (
            _,
            _,
            GateOp::Single(SingleQuditOp::Swap(i, j)),
            GateOp::Single(SingleQuditOp::Swap(k, l)),
        ) => (i, j) == (k, l) || (i, j) == (l, k) || (i != k && i != l && j != k && j != l),
        // Composition equality checked pointwise — no allocation.
        (Some(pa), Some(pb), _, _) => dimension.levels().all(|l| {
            pa.apply(pb.apply(l, dimension), dimension)
                == pb.apply(pa.apply(l, dimension), dimension)
        }),
        // At least one side is a genuine (non-permutation) unitary: fall
        // back to the d × d matrix commutator — still cheap, d is small.
        (_, _, GateOp::Single(a), GateOp::Single(b)) => {
            let ma = a.to_matrix(dimension);
            let mb = b.to_matrix(dimension);
            (&ma * &mb).approx_eq(&(&mb * &ma), MATRIX_TOLERANCE)
        }
        // An `X±⋆` against a non-additive operation: no structural rule.
        _ => false,
    }
}

/// Whether `a` (using the shared qudit as `role_a`) and `b` (as `role_b`)
/// are compatible on that qudit.  The oracle is the AND of this test over
/// the qudits the two gates share.
fn compatible_on(
    dimension: Dimension,
    a: &GateInfo<'_>,
    role_a: Role,
    b: &GateInfo<'_>,
    role_b: Role,
) -> bool {
    match (role_a, role_b) {
        // Read-read: both gates are block-diagonal in q's basis.
        (Role::Source | Role::Control(_), Role::Source | Role::Control(_)) => true,
        // Write-write: same target; the target operations must commute (the
        // controls only ever substitute the identity, which commutes with
        // everything).
        (Role::Target, Role::Target) => ops_commute(dimension, a, b),
        // A writer against a reader, in either order.
        (Role::Target, reader) => write_is_unread(dimension, a, reader),
        (reader, Role::Target) => write_is_unread(dimension, b, reader),
    }
}

/// Whether `writer`'s write to a qudit is invisible to a gate reading it
/// with role `reader`.
fn write_is_unread(dimension: Dimension, writer: &GateInfo<'_>, reader: Role) -> bool {
    match reader {
        // Through a control: a diagonal writer is invisible to any
        // basis-diagonal reader; otherwise the writer must apply a fixed
        // classical permutation that the reader's predicate cannot observe.
        Role::Control(predicate) => {
            writer.diagonal
                || writer
                    .map
                    .as_ref()
                    .is_some_and(|map| predicate_invariant_under(predicate, map, dimension))
        }
        // Through an `X±⋆` source: the source *value* feeds the shift, so
        // only a diagonal write (which never changes the value) is
        // compatible.  (Two writers are the write-write case, decided by
        // the caller.)
        Role::Source | Role::Target => writer.diagonal,
    }
}

/// The oracle on precomputed [`GateInfo`] — the allocation-free hot path
/// behind [`gates_commute`].
fn commute_with_info(dimension: Dimension, a: &GateInfo<'_>, b: &GateInfo<'_>) -> bool {
    roles(a.gate).all(|(q, role_a)| {
        role_of(b.gate, q).is_none_or(|role_b| compatible_on(dimension, a, role_a, b, role_b))
    })
}

/// The structural commutation oracle: returns `true` only when `a` and `b`
/// provably commute as operators on the full register.
///
/// The oracle is **sound** (a `true` answer is a proof, checked against the
/// brute-force matrix commutator by the `commutation` property suite) but
/// only partially complete: a `false` answer means "no structural rule
/// applies", not "they do not commute".  See the module docs for the rule
/// table.
///
/// # Example
///
/// ```
/// use qudit_core::commute::gates_commute;
/// use qudit_core::{Control, Dimension, Gate, QuditId, SingleQuditOp};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d = Dimension::new(4)?;
/// // Same target, both additive: X+1 and X+2 always commute.
/// let a = Gate::single(SingleQuditOp::Add(1), QuditId::new(0));
/// let b = Gate::single(SingleQuditOp::Add(2), QuditId::new(0));
/// assert!(gates_commute(d, &a, &b));
/// // X+2 preserves parity in d = 4, so it commutes with an |o⟩-control.
/// let odd_controlled = Gate::controlled(
///     SingleQuditOp::Swap(0, 1),
///     QuditId::new(1),
///     vec![Control::odd(QuditId::new(0))],
/// );
/// assert!(gates_commute(d, &b, &odd_controlled));
/// let plus_one = Gate::single(SingleQuditOp::Add(1), QuditId::new(0));
/// assert!(!gates_commute(d, &plus_one, &odd_controlled));
/// # Ok(())
/// # }
/// ```
pub fn gates_commute(dimension: Dimension, a: &Gate, b: &Gate) -> bool {
    commute_with_info(
        dimension,
        &GateInfo::of(a, dimension),
        &GateInfo::of(b, dimension),
    )
}

/// Per-wire layer occupancy used by the first-fit placement.
struct Occupancy {
    wires: Vec<Vec<bool>>,
}

impl Occupancy {
    fn new(width: usize) -> Self {
        Occupancy {
            wires: vec![Vec::new(); width],
        }
    }

    /// The smallest layer `≥ earliest` in which every wire of `support` is
    /// free; marks it occupied.
    fn place(&mut self, support: impl Iterator<Item = QuditId> + Clone, earliest: usize) -> usize {
        let mut slot = earliest;
        'fit: loop {
            for q in support.clone() {
                if self.wires[q.index()].get(slot).copied().unwrap_or(false) {
                    slot += 1;
                    continue 'fit;
                }
            }
            break;
        }
        for q in support {
            let wire = &mut self.wires[q.index()];
            if wire.len() <= slot {
                wire.resize(slot + 1, false);
            }
            wire[slot] = true;
        }
        slot
    }
}

/// Turns a 1-based layer assignment into each gate's position in layer
/// order, in place: a stable counting sort by layer, so ties keep the input
/// order.
fn layer_positions(slots: &mut [usize]) {
    let depth = slots.iter().copied().max().unwrap_or(0);
    // `next[l]` counts layer `l`'s gates, then becomes its next free slot.
    let mut next = vec![0usize; depth + 1];
    for &layer in slots.iter() {
        next[layer] += 1;
    }
    let mut start = 0;
    for slot in &mut next {
        start += std::mem::replace(slot, start);
    }
    for slot in slots {
        let layer = *slot;
        *slot = next[layer];
        next[layer] += 1;
    }
}

/// Moves a circuit's gates into the order of the given 1-based layer
/// assignment (stable: ties keep the input order), within the circuit's
/// own gate buffer: each swap puts one gate in its final place.
fn into_layer_order(circuit: Circuit, mut layer: Vec<usize>) -> Circuit {
    let (dimension, width) = (circuit.dimension(), circuit.width());
    layer_positions(&mut layer);
    let destination = &mut layer;
    let mut gates = circuit.into_gates();
    for i in 0..gates.len() {
        while destination[i] != i {
            let j = destination[i];
            gates.swap(i, j);
            destination.swap(i, j);
        }
    }
    Circuit::from_gates_unchecked(dimension, width, gates)
}

/// A run of consecutive gates in one wire's history that use the wire the
/// same way: the same [`Role`] and, for a target, the same operation.
struct Run<'a> {
    /// The facts of the run's first gate, which stands for all of them.
    first: GateInfo<'a>,
    role: Role,
    /// The largest layer of the run's gates.
    layer: usize,
    /// The largest layer of this run and every earlier run on the wire.
    running_max: usize,
}

/// The scheduler's layer assignment: each gate, in circuit order, takes the
/// earliest layer after every earlier gate the oracle cannot prove it
/// commutes with, in which all of its wires are free (first-fit).  This is
/// list scheduling over the circuit's dependency DAG, computed without
/// materialising the DAG.
///
/// Only the *maximum* layer over a gate's non-commuting predecessors
/// matters, and the oracle is an AND over shared wires, so that maximum is
/// the largest, over the gate's wires, of the layers of earlier gates that
/// are incompatible with it *on that wire*.  Gates using a wire the same way
/// are interchangeable for that test, so each wire's history merges
/// consecutive ones into one [`Run`] holding their maximum layer.  A gate
/// scans each of its wires backward: a run whose layer cannot raise the
/// bound is skipped before the oracle is consulted, and the scan stops once
/// the running maximum up to the current run is at most the bound.  The exit
/// is exact even where first-fit left a wire's layers out of order, because
/// nothing earlier on the wire has a larger layer.
///
/// Each gate's roles are read once into a reused buffer, which the bound
/// scan, the placement and the history update share.
fn schedule_layers(circuit: &Circuit) -> Vec<usize> {
    let dimension = circuit.dimension();
    let mut wires: Vec<Vec<Run<'_>>> = (0..circuit.width()).map(|_| Vec::new()).collect();
    let mut layer = Vec::with_capacity(circuit.len());
    let mut occupied = Occupancy::new(circuit.width());
    let mut gate_roles: Vec<(QuditId, Role)> = Vec::new();
    for gate in circuit.iter() {
        let info = GateInfo::of(gate, dimension);
        gate_roles.clear();
        gate_roles.extend(roles(gate));
        let mut bound = 0usize;
        for &(q, role) in &gate_roles {
            for run in wires[q.index()].iter().rev() {
                if run.running_max <= bound {
                    break;
                }
                if run.layer > bound && !compatible_on(dimension, &run.first, run.role, &info, role)
                {
                    bound = run.layer;
                }
            }
        }
        let placed = occupied.place(gate_roles.iter().map(|&(q, _)| q), bound + 1);
        layer.push(placed);
        for &(q, role) in &gate_roles {
            let wire = &mut wires[q.index()];
            match wire.last_mut() {
                Some(run)
                    if run.role == role
                        && (role != Role::Target || run.first.gate.op() == gate.op()) =>
                {
                    run.layer = run.layer.max(placed);
                    run.running_max = run.running_max.max(placed);
                }
                last => {
                    let running_max = last.map_or(placed, |run| run.running_max.max(placed));
                    wire.push(Run {
                        first: info,
                        role,
                        layer: placed,
                        running_max,
                    });
                }
            }
        }
    }
    layer
}

/// Reorders commuting gates to minimise depth (one sequential scan).
///
/// The returned circuit implements exactly the same operator as the input —
/// only gate pairs the oracle proves commuting change relative order — and
/// its [`circuit_depth`](crate::depth::circuit_depth) never exceeds the
/// input's.  The gates move into layer order instead of being cloned.
///
/// # Example
///
/// ```
/// use qudit_core::commute::schedule_depth;
/// use qudit_core::depth::circuit_depth;
/// use qudit_core::{Circuit, Control, Dimension, Gate, QuditId, SingleQuditOp};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d = Dimension::new(3)?;
/// let mut circuit = Circuit::new(d, 3);
/// // q0 busy in layer 1; the |0⟩@q0-gate must wait for it…
/// circuit.push(Gate::single(SingleQuditOp::Add(1), QuditId::new(0)))?;
/// circuit.push(Gate::controlled(
///     SingleQuditOp::Swap(0, 1),
///     QuditId::new(1),
///     vec![Control::zero(QuditId::new(0))],
/// ))?;
/// // …but this X01 on q1 commutes with both and fits into q1's idle
/// // layer-1 hole, which the emission order wasted.
/// circuit.push(Gate::single(SingleQuditOp::Swap(0, 1), QuditId::new(1)))?;
/// assert_eq!(circuit_depth(&circuit), 3);
/// let scheduled = schedule_depth(circuit);
/// assert_eq!(circuit_depth(&scheduled), 2);
/// # Ok(())
/// # }
/// ```
pub fn schedule_depth(circuit: Circuit) -> Circuit {
    let layer = schedule_layers(&circuit);
    into_layer_order(circuit, layer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::Control;
    use crate::depth::circuit_depth;

    fn dim(d: u32) -> Dimension {
        Dimension::new(d).unwrap()
    }

    fn q(i: usize) -> QuditId {
        QuditId::new(i)
    }

    /// Brute-force ground truth on the full register: apply both orders to
    /// every basis state of a classical pair.
    fn classically_commute(d: Dimension, width: usize, a: &Gate, b: &Gate) -> bool {
        let size = d.register_size(width);
        let dd = d.as_usize();
        (0..size).all(|mut index| {
            let mut digits = vec![0u32; width];
            for slot in digits.iter_mut().rev() {
                *slot = (index % dd) as u32;
                index /= dd;
            }
            let mut ab = digits.clone();
            a.apply_to_basis(&mut ab, d).unwrap();
            b.apply_to_basis(&mut ab, d).unwrap();
            let mut ba = digits;
            b.apply_to_basis(&mut ba, d).unwrap();
            a.apply_to_basis(&mut ba, d).unwrap();
            ab == ba
        })
    }

    #[test]
    fn transposition_shortcuts_agree_with_brute_force() {
        // The oracle decides swap-vs-swap and swap-vs-control in O(1), and is
        // complete on these pairs: it must match the brute-force answer.
        for d in 2..=5u32 {
            let dimension = dim(d);
            let swaps = || {
                let levels = move || dimension.levels();
                levels().flat_map(move |i| {
                    levels()
                        .filter(move |&j| j != i)
                        .map(move |j| Gate::single(SingleQuditOp::Swap(i, j), q(0)))
                })
            };
            let predicates = dimension.levels().map(ControlPredicate::Level).chain([
                ControlPredicate::Odd,
                ControlPredicate::EvenNonzero,
                ControlPredicate::NonZero,
            ]);
            let readers: Vec<Gate> = predicates
                .map(|predicate| {
                    let control = Control {
                        qudit: q(0),
                        predicate,
                    };
                    Gate::controlled(SingleQuditOp::Add(1), q(1), vec![control])
                })
                .collect();
            for a in swaps() {
                for b in swaps().chain(readers.iter().cloned()) {
                    let truth = classically_commute(dimension, 2, &a, &b);
                    assert_eq!(gates_commute(dimension, &a, &b), truth, "{a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn disjoint_gates_commute() {
        let d = dim(3);
        let a = Gate::single(SingleQuditOp::Add(1), q(0));
        let b = Gate::controlled(SingleQuditOp::Swap(0, 1), q(2), vec![Control::zero(q(1))]);
        assert!(gates_commute(d, &a, &b));
    }

    #[test]
    fn shared_controls_commute() {
        let d = dim(3);
        let a = Gate::controlled(SingleQuditOp::Swap(0, 1), q(1), vec![Control::zero(q(0))]);
        let b = Gate::controlled(SingleQuditOp::Add(1), q(2), vec![Control::level(q(0), 2)]);
        assert!(gates_commute(d, &a, &b));
        assert!(classically_commute(d, 3, &a, &b));
    }

    #[test]
    fn shared_source_and_control_commute() {
        let d = dim(5);
        let a = Gate::add_from(q(0), false, q(1), vec![]);
        let b = Gate::controlled(SingleQuditOp::Add(2), q(2), vec![Control::odd(q(0))]);
        assert!(gates_commute(d, &a, &b));
        assert!(classically_commute(d, 3, &a, &b));
        // Two shifts reading the same source also commute.
        let c = Gate::add_from(q(0), true, q(2), vec![]);
        assert!(gates_commute(d, &a, &c));
        assert!(classically_commute(d, 3, &a, &c));
    }

    #[test]
    fn same_target_additive_ops_commute() {
        let d = dim(5);
        let a = Gate::single(SingleQuditOp::Add(2), q(0));
        let b = Gate::add_from(q(1), true, q(0), vec![Control::zero(q(2))]);
        assert!(gates_commute(d, &a, &b));
        assert!(classically_commute(d, 3, &a, &b));
    }

    #[test]
    fn same_target_classical_ops_checked_by_permutation() {
        let d = dim(4);
        // Disjoint transpositions commute…
        let a = Gate::single(SingleQuditOp::Swap(0, 1), q(0));
        let b = Gate::single(SingleQuditOp::Swap(2, 3), q(0));
        assert!(gates_commute(d, &a, &b));
        assert!(classically_commute(d, 1, &a, &b));
        // …overlapping ones do not.
        let c = Gate::single(SingleQuditOp::Swap(1, 2), q(0));
        assert!(!gates_commute(d, &a, &c));
        assert!(!classically_commute(d, 1, &a, &c));
    }

    #[test]
    fn write_into_control_requires_predicate_invariance() {
        let d = dim(4);
        let odd_controlled =
            Gate::controlled(SingleQuditOp::Swap(0, 1), q(1), vec![Control::odd(q(0))]);
        // X+2 preserves parity for d = 4.
        let add_two = Gate::single(SingleQuditOp::Add(2), q(0));
        assert!(gates_commute(d, &add_two, &odd_controlled));
        assert!(gates_commute(d, &odd_controlled, &add_two));
        assert!(classically_commute(d, 2, &add_two, &odd_controlled));
        // X+1 does not.
        let add_one = Gate::single(SingleQuditOp::Add(1), q(0));
        assert!(!gates_commute(d, &add_one, &odd_controlled));
        assert!(!classically_commute(d, 2, &add_one, &odd_controlled));
        // Swapping two levels on the same predicate side is invariant: X13
        // maps odd levels to odd levels.
        let swap_odd = Gate::single(SingleQuditOp::Swap(1, 3), q(0));
        assert!(gates_commute(d, &swap_odd, &odd_controlled));
        assert!(classically_commute(d, 2, &swap_odd, &odd_controlled));
    }

    #[test]
    fn write_into_add_from_source_never_claimed() {
        let d = dim(3);
        let shift = Gate::add_from(q(0), false, q(1), vec![]);
        let bump = Gate::single(SingleQuditOp::Add(1), q(0));
        assert!(!gates_commute(d, &shift, &bump));
        assert!(!classically_commute(d, 2, &shift, &bump));
    }

    #[test]
    fn unitary_target_ops_use_matrix_commutator() {
        use crate::math::SquareMatrix;
        let d = dim(3);
        let x01 = SingleQuditOp::Swap(0, 1).to_matrix(d);
        let as_unitary = Gate::single(SingleQuditOp::Unitary(x01), q(0));
        let same = Gate::single(SingleQuditOp::Swap(0, 1), q(0));
        assert!(gates_commute(d, &as_unitary, &same));
        let clash = Gate::single(SingleQuditOp::Swap(1, 2), q(0));
        assert!(!gates_commute(d, &as_unitary, &clash));
        let identity = Gate::single(SingleQuditOp::Unitary(SquareMatrix::identity(3)), q(0));
        assert!(gates_commute(d, &identity, &clash));
    }

    #[test]
    fn diagonal_writes_commute_with_readers_and_each_other() {
        let d = dim(3);
        // The Clifford phase gate is diagonal but not a permutation, so the
        // permutation-based rules cannot see it.
        let phase = Gate::single(SingleQuditOp::clifford_phase(d), q(0));
        // Diagonal write vs a control reading the same qudit.
        let controlled =
            Gate::controlled(SingleQuditOp::Swap(0, 1), q(1), vec![Control::odd(q(0))]);
        assert!(gates_commute(d, &phase, &controlled));
        assert!(gates_commute(d, &controlled, &phase));
        // Diagonal write vs an `X±⋆` reading the same qudit as its source.
        let shift = Gate::add_from(q(0), false, q(1), vec![]);
        assert!(gates_commute(d, &phase, &shift));
        assert!(gates_commute(d, &shift, &phase));
        // Diagonal vs diagonal on the same target, even under controls.
        let controlled_phase = Gate::controlled(
            SingleQuditOp::clifford_phase(d),
            q(0),
            vec![Control::zero(q(2))],
        );
        assert!(gates_commute(d, &phase, &controlled_phase));
        // A non-diagonal write into the source is still refused.
        let bump = Gate::single(SingleQuditOp::Add(1), q(0));
        assert!(!gates_commute(d, &bump, &shift));
    }

    fn sample_circuit() -> Circuit {
        let d = dim(3);
        let mut c = Circuit::new(d, 3);
        c.push(Gate::single(SingleQuditOp::Add(1), q(0))).unwrap();
        c.push(Gate::controlled(
            SingleQuditOp::Swap(0, 1),
            q(1),
            vec![Control::zero(q(0))],
        ))
        .unwrap();
        c.push(Gate::single(SingleQuditOp::Swap(0, 1), q(1)))
            .unwrap();
        c
    }

    #[test]
    fn scheduling_fills_idle_wire_holes() {
        let c = sample_circuit();
        assert_eq!(circuit_depth(&c), 3);
        let scheduled = schedule_depth(c.clone());
        // The trailing X01 slides into q1's idle layer-1 slot.
        assert_eq!(circuit_depth(&scheduled), 2);
        // Semantics preserved on every basis state.
        for a in 0..3 {
            for b in 0..3 {
                for t in 0..3 {
                    assert_eq!(
                        c.apply_to_basis(&[a, b, t]).unwrap(),
                        scheduled.apply_to_basis(&[a, b, t]).unwrap()
                    );
                }
            }
        }
    }

    #[test]
    fn scheduling_never_increases_depth_and_is_idempotent() {
        let c = random_mixed_circuit(0x1234_5678_9ABC_DEF0, 3, 5, 200);
        let once = schedule_depth(c.clone());
        assert!(circuit_depth(&once) <= circuit_depth(&c));
        assert_eq!(once.len(), c.len());
        let twice = schedule_depth(once.clone());
        assert_eq!(once, twice, "scheduling must be idempotent");
    }

    #[test]
    fn early_exit_sees_past_a_hole_filler() {
        // q1 carries g1 in layer 3 and then g2, which first-fit drops into
        // q1's idle layer 1: the wire's layers run out of order.  g3 gets a
        // bound of 1 from its control wire q2, then meets g2 (layer 1) first
        // on q1.  Stopping there would leave g3 free to take layer 2, ahead
        // of g1, which it does not commute with; the running maximum (3)
        // keeps the scan going until g1 raises the bound.
        let d = dim(3);
        let mut c = Circuit::new(d, 3);
        let g1 = Gate::controlled(SingleQuditOp::Swap(0, 1), q(1), vec![Control::zero(q(0))]);
        let g3 = Gate::controlled(SingleQuditOp::Add(1), q(1), vec![Control::zero(q(2))]);
        for gate in [
            Gate::single(SingleQuditOp::Add(1), q(2)),
            Gate::single(SingleQuditOp::Add(1), q(0)),
            Gate::single(SingleQuditOp::Add(1), q(0)),
            g1.clone(),
            Gate::single(SingleQuditOp::Swap(0, 1), q(1)),
            g3.clone(),
        ] {
            c.push(gate).unwrap();
        }
        assert!(!gates_commute(d, &g1, &g3));
        assert_eq!(schedule_layers(&c), vec![1, 1, 2, 3, 1, 4]);
        let scheduled = schedule_depth(c);
        assert_eq!(scheduled.gates()[4], g1);
        assert_eq!(scheduled.gates()[5], g3);
    }

    /// A seeded random circuit over any `d ≥ 2` and `width ≥ 2`: plain,
    /// controlled and `X±⋆` gates, with diagonal and dense non-permutation
    /// unitaries and permutation-valued unitaries among the operations.
    fn random_mixed_circuit(seed: u64, d: u32, width: usize, gates: usize) -> Circuit {
        let dimension = dim(d);
        let mut c = Circuit::new(dimension, width);
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 16) as usize
        };
        for _ in 0..gates {
            let target = next() % width;
            let other = (target + 1 + next() % (width - 1)) % width;
            let level = (next() % d as usize) as u32;
            let op = match next() % 7 {
                0 => SingleQuditOp::Add(1 + level % (d - 1)),
                1 => SingleQuditOp::Swap(level, (level + 1) % d),
                2 => SingleQuditOp::clifford_phase(dimension),
                3 => SingleQuditOp::fourier(dimension),
                4 => SingleQuditOp::Unitary(SingleQuditOp::Swap(0, 1).to_matrix(dimension)),
                5 => SingleQuditOp::Unitary(crate::math::SquareMatrix::identity(d as usize)),
                _ => SingleQuditOp::Add(d - 1),
            };
            let control = match next() % 3 {
                0 => Control::level(q(other), level),
                1 => Control::odd(q(other)),
                _ => Control::zero(q(other)),
            };
            let gate = match next() % 4 {
                0 => Gate::single(op, q(target)),
                1 => Gate::controlled(op, q(target), vec![control]),
                2 => Gate::add_from(q(other), next() % 2 == 0, q(target), vec![]),
                _ if width > 2 => {
                    let third = (0..width).find(|&w| w != target && w != other).unwrap();
                    Gate::add_from(q(third), next() % 2 == 0, q(target), vec![control])
                }
                _ => Gate::single(op, q(target)),
            };
            c.push(gate).unwrap();
        }
        c
    }

    #[test]
    fn schedule_witness_layers_match_measured_depth() {
        let c = sample_circuit();
        let layers = schedule_layers(&c);
        assert_eq!(layers, vec![1, 2, 1]);
        let depth = layers.iter().copied().max().unwrap_or(0);
        assert_eq!(depth, circuit_depth(&schedule_depth(c)));
    }

    #[test]
    fn counting_sort_matches_the_stable_sort_by_layer() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for (len, depth) in [(0, 1), (1, 1), (7, 1), (64, 3), (500, 40), (2_000, 2_000)] {
            let layers: Vec<usize> = (0..len)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    1 + (state >> 11) as usize % depth
                })
                .collect();
            let mut order: Vec<usize> = (0..len).collect();
            order.sort_by_key(|&j| layers[j]);
            let mut positions = layers.clone();
            layer_positions(&mut positions);
            let mut placed = vec![usize::MAX; len];
            for (j, &position) in positions.iter().enumerate() {
                placed[position] = j;
            }
            assert_eq!(placed, order, "{len} gates over {depth} layers");
        }
    }

    #[test]
    fn empty_circuit_schedules_to_itself() {
        let c = Circuit::new(dim(3), 2);
        assert_eq!(schedule_depth(c.clone()), c);
        assert!(schedule_layers(&c).is_empty());
    }
}
