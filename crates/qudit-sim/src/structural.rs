//! Structural equivalence proofs for classical pipeline stages.
//!
//! The paper's constructions are local rewrites, so a stage's output can be
//! proved equivalent to its input without simulating either circuit whole.
//! Four stages hand the checker their rewrite, and the checker applies it
//! to the input it owns, proving each step — no stage's input is copied:
//!
//! * **lowering** ([`lowered`]) — a pass that exposes its per-gate walk
//!   ([`Pass::gate_walk`](qudit_core::pipeline::Pass::gate_walk)) is driven
//!   gate by gate into an output sized once from the walk's count; each
//!   distinct (gate, expansion) shape, with wires relabelled in first-use
//!   order, is proved once by sweeping the basis of its own wires (a
//!   borrowed ancilla among them, which must come back restored);
//! * **cancellation and fusion** ([`applied`] on a [`Rewrite::Cancel`]:
//!   the pairs `cancel-inverse-pairs` removes or `gate-fusion` drops) — the
//!   removed pairs must nest as adjacent brackets on every wire they touch,
//!   each pair proved inverse by sweeping its wires; the kept gates then
//!   move in place;
//! * **routing** ([`applied`] on a [`Rewrite::Route`]) — the output is
//!   written with a running site→wire map: every ladder is the
//!   [`wire_swap`] ladder, proved a SWAP once on two wires and relabelled
//!   onto its sites, and swaps the map; every input gate is remapped
//!   through the map, which must end as the identity.
//!
//! Every claim is settled by brute force on at most [`MAX_LOCAL_WIRES`]
//! wires, memoised per canonical shape for the length of one check; no rule
//! of the rewriting passes (such as `Gate::is_inverse_of`, the fusion plan,
//! the commutation oracle or the router's choice of ladders) is trusted.  A
//! failed proof, like a pass that hands over nothing, proves nothing: the
//! caller falls back to the global check.

use std::collections::HashMap;

use qudit_core::pipeline::{GateWalk, Rewrite};
use qudit_core::route::{wire_swap, Ladder, Routing};
use qudit_core::{Circuit, ControlPredicate, Dimension, Gate, GateOp, QuditId, SingleQuditOp};

use crate::basis::{exhaustive_witness, BasisBatch};

/// Most wires a local proof sweeps (a two-controlled gadget with its
/// borrowed ancilla).
const MAX_LOCAL_WIRES: usize = 4;
/// Most basis states a local proof sweeps.
const MAX_LOCAL_STATES: usize = 1 << 16;
/// Marks a register wire without a label in the current shape.
const UNLABELLED: u32 = u32::MAX;

/// Drives `walk` over `circuit` and returns its output when every gate's
/// expansion is proved equivalent to the gate; `None` when a proof fails,
/// the walk errors, or the circuit is not classical.  The output is sized
/// once, from the walk's own count.
pub(crate) fn lowered(mut walk: Box<dyn GateWalk>, circuit: &Circuit) -> Option<Circuit> {
    if !circuit.is_classical() {
        return None;
    }
    let mut proofs = LocalProofs::new(circuit.dimension(), circuit.width());
    let total = circuit.gates().iter().map(|gate| walk.count(gate)).sum();
    let mut out = Vec::with_capacity(total);
    for gate in circuit.gates() {
        let start = out.len();
        walk.emit(gate, &mut out).ok()?;
        let expansion = &out[start..];
        if expansion != std::slice::from_ref(gate) && !proofs.expands_to(gate, expansion) {
            return None;
        }
    }
    // Every emitted gate is the input gate itself or was matched wire for
    // wire, injectively into the register, against a proved expansion whose
    // gates were validated when it was swept.
    Some(Circuit::from_gates_unchecked(
        circuit.dimension(),
        circuit.width(),
        out,
    ))
}

/// Applies `rewrite` to `circuit`, proving each step as described in the
/// module docs; the input comes back as the error when a proof fails.  The
/// proofs also show the circuit classical.
pub(crate) fn applied(rewrite: &Rewrite, circuit: Circuit) -> Result<Circuit, Circuit> {
    match rewrite {
        Rewrite::Cancel(pairs) => cancelled(pairs, circuit),
        Rewrite::Route(routing) => routed(routing, circuit),
    }
}

/// Removes `pairs` from `circuit` in place once they are proved to nest as
/// adjacent brackets on every wire they touch, each an inverse pair, with
/// every kept gate classical.
fn cancelled(pairs: &[(usize, usize)], mut circuit: Circuit) -> Result<Circuit, Circuit> {
    let mut removed = vec![false; circuit.len()];
    for &(first, second) in pairs {
        if first >= second || second >= removed.len() || removed[first] || removed[second] {
            return Err(circuit);
        }
        removed[first] = true;
        removed[second] = true;
    }
    let gates = circuit.gates();
    let mut proofs = LocalProofs::new(circuit.dimension(), circuit.width());
    // Per wire, the open removed gates on it, innermost last; a kept gate
    // is a wall no bracket may span.
    let mut open: Vec<Vec<usize>> = vec![Vec::new(); circuit.width()];
    let mut closing = pairs.iter().peekable();
    let mut wires = Vec::new();
    for (index, gate) in gates.iter().enumerate() {
        wires.clear();
        wires.extend(gate.support().map(QuditId::index));
        let proved = if !removed[index] {
            gate.is_classical() && wires.iter().all(|&q| open[q].is_empty())
        } else if let Some(&(opener, _)) = closing.next_if(|&&(_, second)| second == index) {
            let closes = gates[opener].arity() == wires.len()
                && wires.iter().all(|&q| open[q].last() == Some(&opener))
                && proofs.inverse_pair(&gates[opener], gate);
            for &q in &wires {
                open[q].pop();
            }
            closes
        } else {
            for &q in &wires {
                open[q].push(index);
            }
            true
        };
        if !proved {
            return Err(circuit);
        }
    }
    if closing.next().is_some() || !open.iter().all(Vec::is_empty) {
        return Err(circuit);
    }
    let mut index = 0;
    circuit.retain(|_| {
        index += 1;
        !removed[index - 1]
    });
    Ok(circuit)
}

/// Writes `routing` of `circuit` with a running site→wire map: every
/// ladder is the [`wire_swap`] ladder proved a SWAP on two wires,
/// relabelled onto its sites, and swaps the map; every input gate is
/// remapped through it, and the map must end as the identity.
fn routed(routing: &Routing, circuit: Circuit) -> Result<Circuit, Circuit> {
    let (dimension, width, len) = (circuit.dimension(), circuit.width(), circuit.len());
    if routing.sites != width || !circuit.is_classical() {
        return Err(circuit);
    }
    if routing.ladders.is_empty() {
        return Ok(circuit);
    }
    let ladder = wire_swap(dimension, 0, 1);
    if !swaps_two_wires(dimension, &ladder) {
        return Err(circuit);
    }
    // `site_of[wire]` holds the site the input wire currently lives on,
    // `wire_at[site]` its inverse.
    let mut site_of: Vec<usize> = (0..width).collect();
    let mut wire_at: Vec<usize> = (0..width).collect();
    let mut out = Vec::with_capacity(len + ladder.len() * routing.ladders.len());
    let mut ladders = routing.ladders.iter().peekable();
    for index in 0..=len {
        while let Some(&Ladder { sites: (a, b), .. }) = ladders.next_if(|l| l.before == index) {
            if a == b || a.max(b) >= width {
                return Err(circuit);
            }
            let ends = [a, b];
            out.extend(
                ladder
                    .iter()
                    .map(|gate| gate.map_qudits(|q| QuditId::new(ends[q.index()]))),
            );
            wire_at.swap(a, b);
            site_of[wire_at[a]] = a;
            site_of[wire_at[b]] = b;
        }
        if let Some(gate) = circuit.gates().get(index) {
            out.push(gate.map_qudits(|q| QuditId::new(site_of[q.index()])));
        }
    }
    if ladders.next().is_some() || site_of.iter().enumerate().any(|(wire, &site)| wire != site) {
        return Err(circuit);
    }
    // Input gates and the validated ladder, relabelled by bijections of
    // the register.
    Ok(Circuit::from_gates_unchecked(dimension, width, out))
}

/// Whether `gate` equals `reference` up to its wires, with each pair of
/// corresponding wires (gate's, reference's) accepted by `wire`, in support
/// order: controls, the `AddFrom` source, the target.
fn same_gate(
    gate: &Gate,
    reference: &Gate,
    mut wire: impl FnMut(QuditId, QuditId) -> bool,
) -> bool {
    gate.controls().len() == reference.controls().len()
        && gate
            .controls()
            .iter()
            .zip(reference.controls())
            .all(|(c, r)| c.predicate == r.predicate && wire(c.qudit, r.qudit))
        && match (gate.op(), reference.op()) {
            (GateOp::Single(a), GateOp::Single(b)) => a == b,
            (
                GateOp::AddFrom { source, negate },
                GateOp::AddFrom {
                    source: reference_source,
                    negate: reference_negate,
                },
            ) => negate == reference_negate && wire(*source, *reference_source),
            _ => false,
        }
        && wire(gate.target(), reference.target())
}

/// Whether `ladder` (on wires 0 and 1) maps every `(x, y)` to `(y, x)`.
fn swaps_two_wires(dimension: Dimension, ladder: &[Gate]) -> bool {
    let Ok(circuit) = Circuit::from_gates(dimension, 2, ladder.to_vec()) else {
        return false;
    };
    let size = dimension.register_size(2);
    if size > MAX_LOCAL_STATES {
        return false;
    }
    let mut batch = BasisBatch::from_range(dimension, 2, 0..size);
    if batch.apply(&circuit).is_err() {
        return false;
    }
    let d = dimension.as_usize();
    batch
        .indices()
        .into_iter()
        .enumerate()
        .all(|(index, image)| image == (index % d) * d + index / d)
}

type ShapeMap<V> = HashMap<Vec<u32>, V>;

/// Brute-force verdicts on local shapes, memoised per canonical key for the
/// length of one check.  A shape's wires are labelled `0, 1, …` in
/// first-use order, so every placement of a shape shares one proof.
struct LocalProofs {
    dimension: Dimension,
    /// Verdicts on inverse pairs, by the pair's key.
    pairs: ShapeMap<bool>,
    /// The expansions proved for each gate, by the gate's key, as gates on
    /// the labels.
    expansions: ShapeMap<Vec<Vec<Gate>>>,
    /// The key being built.
    key: Vec<u32>,
    /// Per register wire, its label in the current shape.
    labels: Vec<u32>,
    /// The labelled wires, in first-use order.
    wires: Vec<QuditId>,
}

impl LocalProofs {
    fn new(dimension: Dimension, width: usize) -> Self {
        LocalProofs {
            dimension,
            pairs: HashMap::default(),
            expansions: HashMap::default(),
            key: Vec::new(),
            labels: vec![UNLABELLED; width],
            wires: Vec::new(),
        }
    }

    /// Whether `expansion` implements `gate`.  Proved once per gate shape
    /// and expansion: a later placement of a proved pair only has to match
    /// it wire for wire.
    fn expands_to(&mut self, gate: &Gate, expansion: &[Gate]) -> bool {
        if !self.start(&[gate]) {
            return false;
        }
        let bound = self.wires.len();
        let LocalProofs {
            expansions,
            key,
            labels,
            wires,
            ..
        } = self;
        for known in expansions.get(key.as_slice()).into_iter().flatten() {
            if known.len() == expansion.len()
                && expansion
                    .iter()
                    .zip(known)
                    .all(|(gate, local)| same_gate(gate, local, |q, l| bind(labels, wires, q, l)))
            {
                return true;
            }
            for q in wires.drain(bound..) {
                labels[q.index()] = UNLABELLED;
            }
        }
        if !expansion.iter().all(|gate| self.label_all(gate)) || !self.sweep(&[gate], expansion) {
            return false;
        }
        let local = expansion.iter().map(|gate| self.local(gate)).collect();
        self.expansions
            .entry(self.key.clone())
            .or_default()
            .push(local);
        true
    }

    /// Whether `second` undoes `first` (two gates on the same wires).
    fn inverse_pair(&mut self, first: &Gate, second: &Gate) -> bool {
        if !self.start(&[first, second]) {
            return false;
        }
        if let Some(&verdict) = self.pairs.get(self.key.as_slice()) {
            return verdict;
        }
        let verdict = self.sweep(&[first, second], &[]);
        self.pairs.insert(self.key.clone(), verdict);
        verdict
    }

    /// Clears the labels and keys `gates`; `false` when a gate has no
    /// classical encoding or the shape outgrows a local proof.
    fn start(&mut self, gates: &[&Gate]) -> bool {
        for q in self.wires.drain(..) {
            self.labels[q.index()] = UNLABELLED;
        }
        self.key.clear();
        gates.iter().all(|gate| self.encode(gate))
    }

    /// Appends `gate` to the key (controls, operation, target, wires by
    /// label).
    fn encode(&mut self, gate: &Gate) -> bool {
        self.key.push(gate.controls().len() as u32);
        for control in gate.controls() {
            let predicate = match control.predicate {
                ControlPredicate::Odd => 0,
                ControlPredicate::EvenNonzero => 1,
                ControlPredicate::NonZero => 2,
                ControlPredicate::Level(level) => level + 3,
            };
            let label = self.label(control.qudit);
            self.key.extend([label, predicate]);
        }
        match gate.op() {
            GateOp::Single(SingleQuditOp::Swap(i, j)) => self.key.extend([0, *i, *j]),
            GateOp::Single(SingleQuditOp::Add(y)) => self.key.extend([1, *y]),
            GateOp::Single(SingleQuditOp::ParityFlipEven) => self.key.push(2),
            GateOp::Single(SingleQuditOp::ParityFlipOdd) => self.key.push(3),
            GateOp::Single(op) => match op.to_permutation(self.dimension) {
                Ok(permutation) => {
                    self.key.push(4);
                    self.key.extend_from_slice(permutation.as_map());
                }
                Err(_) => return false,
            },
            GateOp::AddFrom { source, negate } => {
                let label = self.label(*source);
                self.key.extend([5, u32::from(*negate), label]);
            }
        }
        let label = self.label(gate.target());
        self.key.push(label);
        self.wires.len() <= MAX_LOCAL_WIRES
    }

    /// Labels every wire of `gate` (a gate outside the input, whose
    /// operation the key does not need); `false` as [`LocalProofs::encode`].
    fn label_all(&mut self, gate: &Gate) -> bool {
        for q in gate.support() {
            if q.index() >= self.labels.len() {
                return false;
            }
            self.label(q);
        }
        self.wires.len() <= MAX_LOCAL_WIRES && gate.is_classical()
    }

    fn label(&mut self, qudit: QuditId) -> u32 {
        let slot = &mut self.labels[qudit.index()];
        if *slot == UNLABELLED {
            *slot = self.wires.len() as u32;
            self.wires.push(qudit);
        }
        *slot
    }

    /// `gate` on the labels of its wires.
    fn local(&self, gate: &Gate) -> Gate {
        gate.map_qudits(|q| QuditId::new(self.labels[q.index()] as usize))
    }

    /// Sweeps every basis state of the labelled wires through both sides,
    /// relabelled onto a register of just those wires.
    fn sweep(&self, lhs: &[&Gate], rhs: &[Gate]) -> bool {
        let width = self.wires.len();
        let states = self.dimension.as_usize().checked_pow(width as u32);
        if states.is_none_or(|states| states > MAX_LOCAL_STATES) {
            return false;
        }
        let circuit = |gates: &mut dyn Iterator<Item = &Gate>| {
            Circuit::from_gates(
                self.dimension,
                width,
                gates.map(|g| self.local(g)).collect(),
            )
        };
        match (circuit(&mut lhs.iter().copied()), circuit(&mut rhs.iter())) {
            (Ok(lhs), Ok(rhs)) => matches!(exhaustive_witness(&lhs, &rhs), Ok(None)),
            _ => false,
        }
    }
}

/// Matches register wire `q` with `label`: an unlabelled wire takes the
/// next label, which must be `label` (first-use order); a labelled one
/// must carry it.
fn bind(labels: &mut [u32], wires: &mut Vec<QuditId>, q: QuditId, label: QuditId) -> bool {
    let Some(slot) = labels.get_mut(q.index()) else {
        return false;
    };
    if *slot == UNLABELLED && label.index() == wires.len() {
        *slot = label.index() as u32;
        wires.push(q);
        return true;
    }
    *slot as usize == label.index()
}
