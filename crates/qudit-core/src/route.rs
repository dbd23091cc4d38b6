//! Connectivity routing: rewrite circuits so every multi-qudit gate acts on
//! adjacent sites of a [`CouplingGraph`], with cost models driving the
//! router's choices.
//!
//! The synthesis pipeline lowers everything to gates touching at most two
//! qudits (`Xij`, `|0⟩-X01`, `X±⋆`), but those gates land on *logical* wire
//! pairs with no regard for device connectivity.  This module closes the
//! gap:
//!
//! * [`CostModel`] — how expensive a gate is.  [`UniformCost`] counts gates;
//!   [`NoiseAwareCost`] weighs per-gate-kind error rates with a two-qudit
//!   penalty, the weighted objective real devices optimise;
//! * [`wire_swap`] — an exact wire-SWAP for *any* dimension built from the
//!   classical gate set: three value-controlled shifts plus one level
//!   negation ([`SWAP_LADDER_GATES`] = 4 gates);
//! * [`route_circuit`] — greedy distance-minimising initial placement, a
//!   lookahead SWAP-ladder router, and the inverse-permutation SWAP
//!   epilogue, written into one output that is *strictly* equivalent to
//!   the original embedded in the physical register;
//! * [`validate_adjacency`] — the adjacency-invariant checker the test
//!   suites enforce on every routed circuit;
//! * [`RoutePass`] — the `"route"` pipeline stage, one call to
//!   [`route_circuit`] (so the stage is semantics-preserving and verifies
//!   under `VerifyEquivalence` on every backend).
//!
//! # The SWAP ladder
//!
//! No native two-qudit SWAP exists in the gate set, but on wires `(a, b)`
//! the classical sequence
//!
//! ```text
//! b += a;  a -= b;  b += a;  a ← −a (mod d)
//! ```
//!
//! maps `(x, y) ↦ (y, x)` exactly for every dimension `d` — each step is a
//! classical permutation gate, so ladders stay classical (and Clifford),
//! keeping every verification backend applicable to routed circuits.
//!
//! # Example
//!
//! ```
//! use qudit_core::route::{route_circuit, validate_adjacency, UniformCost};
//! use qudit_core::topology::CouplingGraph;
//! use qudit_core::{Circuit, Control, Dimension, Gate, QuditId, SingleQuditOp};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let d = Dimension::new(3)?;
//! let mut circuit = Circuit::new(d, 4);
//! // |0⟩@q0-X01 on q3: the endpoints are 3 apart on a linear chain.
//! circuit.push(Gate::controlled(
//!     SingleQuditOp::Swap(0, 1),
//!     QuditId::new(3),
//!     vec![Control::zero(QuditId::new(0))],
//! ))?;
//! let graph = CouplingGraph::linear(4)?;
//! let routed = route_circuit(circuit.clone(), &graph, &UniformCost)?;
//! validate_adjacency(&routed, &graph)?;
//! // Strict equivalence: the epilogue returns every wire to its own site.
//! for state in 0..81u32 {
//!     let digits: Vec<u32> = (0..4).rev().map(|i| (state / 3u32.pow(i)) % 3).collect();
//!     assert_eq!(circuit.apply_to_basis(&digits)?, routed.apply_to_basis(&digits)?);
//! }
//! # Ok(())
//! # }
//! ```

use std::collections::{BTreeMap, HashMap, VecDeque};

use crate::circuit::Circuit;
use crate::dimension::Dimension;
use crate::error::{QuditError, Result};
use crate::gate::{Gate, GateOp};
use crate::ops::{Permutation, SingleQuditOp};
use crate::pipeline::{Pass, Rewrite};
use crate::qudit::QuditId;
use crate::topology::CouplingGraph;

/// Number of elementary gates in one wire-SWAP ladder (see [`wire_swap`]).
pub const SWAP_LADDER_GATES: usize = 4;

/// How many upcoming two-qudit gates the router scores candidate swaps
/// against (exponentially decayed).
const LOOKAHEAD: usize = 8;

/// Decay applied per position in the lookahead window.
const LOOKAHEAD_DECAY: f64 = 0.5;

/// A gate-cost objective the router minimises and reports.
///
/// Implementations must be cheap: [`CostModel::gate_cost`] runs inside the
/// router's candidate scoring loop.
pub trait CostModel: Send + Sync {
    /// A short, stable name used in reports.
    fn name(&self) -> &str;

    /// The cost of one gate.
    fn gate_cost(&self, gate: &Gate) -> f64;

    /// The summed cost of a circuit.
    fn circuit_cost(&self, circuit: &Circuit) -> f64 {
        circuit.gates().iter().map(|g| self.gate_cost(g)).sum()
    }
}

/// The trivial cost model: every gate costs 1, so the objective is the gate
/// count of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UniformCost;

impl CostModel for UniformCost {
    fn name(&self) -> &str {
        "uniform"
    }

    fn gate_cost(&self, _gate: &Gate) -> f64 {
        1.0
    }
}

/// A noise-aware cost model: per-gate-kind error weights, multiplied by a
/// penalty whenever the gate touches two or more qudits (two-qudit
/// interactions dominate error budgets on every current platform).
///
/// The defaults are deliberately round relative weights, not calibration
/// data; construct with struct-update syntax to match a device:
///
/// ```
/// use qudit_core::route::NoiseAwareCost;
/// let device = NoiseAwareCost { two_qudit_penalty: 25.0, ..NoiseAwareCost::default() };
/// assert!(device.two_qudit_penalty > NoiseAwareCost::default().two_qudit_penalty);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseAwareCost {
    /// Weight of a level transposition `Xij`.
    pub swap_weight: f64,
    /// Weight of a cyclic shift `X+y`.
    pub add_weight: f64,
    /// Weight of the parity flips `X_eo^e` / `X_eo^o`.
    pub parity_weight: f64,
    /// Weight of a general level permutation.
    pub perm_weight: f64,
    /// Weight of a general single-qudit unitary.
    pub unitary_weight: f64,
    /// Weight of the value-controlled shift `X±⋆`.
    pub add_from_weight: f64,
    /// Multiplier applied when a gate touches two or more qudits.
    pub two_qudit_penalty: f64,
}

impl Default for NoiseAwareCost {
    fn default() -> Self {
        NoiseAwareCost {
            swap_weight: 1.0,
            add_weight: 1.0,
            parity_weight: 1.2,
            perm_weight: 1.5,
            unitary_weight: 2.0,
            add_from_weight: 1.5,
            two_qudit_penalty: 10.0,
        }
    }
}

impl CostModel for NoiseAwareCost {
    fn name(&self) -> &str {
        "noise-aware"
    }

    fn gate_cost(&self, gate: &Gate) -> f64 {
        let base = match gate.op() {
            GateOp::Single(SingleQuditOp::Swap(_, _)) => self.swap_weight,
            GateOp::Single(SingleQuditOp::Add(_)) => self.add_weight,
            GateOp::Single(SingleQuditOp::ParityFlipEven | SingleQuditOp::ParityFlipOdd) => {
                self.parity_weight
            }
            GateOp::Single(SingleQuditOp::Perm(_)) => self.perm_weight,
            GateOp::Single(SingleQuditOp::Unitary(_)) => self.unitary_weight,
            GateOp::AddFrom { .. } => self.add_from_weight,
        };
        if gate.arity() >= 2 {
            base * self.two_qudit_penalty
        } else {
            base
        }
    }
}

/// The four-gate wire-SWAP ladder exchanging the values of wires `a` and
/// `b` (exact for every dimension; see the module docs).
///
/// # Panics
///
/// Panics when `a == b`.
pub fn wire_swap(dimension: Dimension, a: usize, b: usize) -> Vec<Gate> {
    assert_ne!(a, b, "wire-SWAP endpoints must differ");
    let (qa, qb) = (QuditId::new(a), QuditId::new(b));
    let d = dimension.get();
    let negate = Permutation::from_map((0..d).map(|l| (d - l) % d).collect())
        .expect("level negation is a bijection");
    vec![
        Gate::add_from(qa, false, qb, vec![]),
        Gate::add_from(qb, true, qa, vec![]),
        Gate::add_from(qa, false, qb, vec![]),
        Gate::single(SingleQuditOp::Perm(negate), qa),
    ]
}

/// Checks the adjacency invariant: every gate touching two qudits acts on a
/// coupled pair, and no gate touches three or more.
///
/// # Errors
///
/// * [`QuditError::TopologyTooSmall`] when the circuit is wider than the
///   graph;
/// * [`QuditError::UnsupportedLowering`] for a gate of arity ≥ 3 (route
///   after lowering);
/// * [`QuditError::UncoupledGate`] naming the first violating gate.
pub fn validate_adjacency(circuit: &Circuit, graph: &CouplingGraph) -> Result<()> {
    if circuit.width() > graph.sites() {
        return Err(QuditError::TopologyTooSmall {
            sites: graph.sites(),
            minimum: circuit.width(),
        });
    }
    for (index, gate) in circuit.gates().iter().enumerate() {
        let arity = gate.arity();
        if arity > 2 {
            return Err(too_wide(index, arity));
        }
        if let Some((a, b)) = wire_pair(gate) {
            if !graph.are_coupled(a, b) {
                return Err(QuditError::UncoupledGate {
                    gate: index,
                    a: a.min(b),
                    b: a.max(b),
                });
            }
        }
    }
    Ok(())
}

/// The two wires of a two-qudit gate, in [`Gate::support`] order; `None`
/// for any other arity.
fn wire_pair(gate: &Gate) -> Option<(usize, usize)> {
    if gate.arity() != 2 {
        return None;
    }
    let mut support = gate.support().map(QuditId::index);
    support.next().zip(support.next())
}

/// The error for gate `index`, which touches `arity` ≥ 3 qudits.
fn too_wide(index: usize, arity: usize) -> QuditError {
    QuditError::UnsupportedLowering {
        reason: format!(
            "gate {index} touches {arity} qudits; lower to two-qudit gates before routing"
        ),
    }
}

/// Tracks where each logical wire currently lives (and which wire occupies
/// each site).
struct Placement {
    /// `site_of[wire]` — the physical site currently holding the wire.
    site_of: Vec<usize>,
    /// `wire_at[site]` — the wire currently held by the site.
    wire_at: Vec<usize>,
}

impl Placement {
    fn identity(sites: usize) -> Self {
        Placement {
            site_of: (0..sites).collect(),
            wire_at: (0..sites).collect(),
        }
    }

    /// Records that the values at two sites were exchanged.
    fn swap_sites(&mut self, a: usize, b: usize) {
        self.wire_at.swap(a, b);
        self.site_of[self.wire_at[a]] = a;
        self.site_of[self.wire_at[b]] = b;
    }
}

/// A breadth-first site order from site 0; every prefix of the order is a
/// connected subgraph, which is what makes the token routing below safe.
fn bfs_order(graph: &CouplingGraph) -> Vec<usize> {
    let mut order = Vec::with_capacity(graph.sites());
    let mut seen = vec![false; graph.sites()];
    let mut queue = VecDeque::new();
    queue.push_back(0);
    seen[0] = true;
    while let Some(site) = queue.pop_front() {
        order.push(site);
        for &next in graph.neighbors(site) {
            if !seen[next] {
                seen[next] = true;
                queue.push_back(next);
            }
        }
    }
    order
}

/// A shortest path from `from` to `to` staying inside the `allowed` sites
/// (deterministic: sorted neighbour lists, first-found parents).
fn bfs_path_within(graph: &CouplingGraph, allowed: &[bool], from: usize, to: usize) -> Vec<usize> {
    let mut parent = vec![usize::MAX; graph.sites()];
    let mut queue = VecDeque::new();
    parent[from] = from;
    queue.push_back(from);
    while let Some(site) = queue.pop_front() {
        if site == to {
            break;
        }
        for &next in graph.neighbors(site) {
            if allowed[next] && parent[next] == usize::MAX {
                parent[next] = site;
                queue.push_back(next);
            }
        }
    }
    assert_ne!(
        parent[to],
        usize::MAX,
        "token routing region stays connected"
    );
    let mut path = vec![to];
    let mut current = to;
    while current != from {
        current = parent[current];
        path.push(current);
    }
    path.reverse();
    path
}

/// Records wire-SWAP ladders, all before input gate `before`, until the
/// placement matches `target` (a full wire→site bijection).  Sites are
/// finalised deepest-BFS-first, and each token walks only through
/// not-yet-finalised sites — every prefix of the BFS order is connected, so
/// a path always exists.
fn drive_to_placement(
    ladders: &mut Vec<Ladder>,
    before: usize,
    graph: &CouplingGraph,
    placement: &mut Placement,
    target: &[usize],
) {
    let sites = graph.sites();
    let mut target_wire_at = vec![0; sites];
    for (wire, &site) in target.iter().enumerate() {
        target_wire_at[site] = wire;
    }
    let order = bfs_order(graph);
    let mut allowed = vec![true; sites];
    for &site in order.iter().skip(1).rev() {
        let wire = target_wire_at[site];
        let current = placement.site_of[wire];
        if current != site {
            let path = bfs_path_within(graph, &allowed, current, site);
            for step in path.windows(2) {
                ladders.push(Ladder {
                    before,
                    sites: (step[0], step[1]),
                });
                placement.swap_sites(step[0], step[1]);
            }
        }
        allowed[site] = false;
    }
}

/// Greedy distance-minimising placement: wires are ordered by how much they
/// interact, the busiest seeds the graph's [`center`](CouplingGraph::center),
/// and each following wire takes the free site minimising its
/// interaction-weighted distance to its already-placed partners.
/// Non-interacting wires keep their own site when free, so circuits without
/// two-qudit gates place identically.  Returns a full wire→site bijection.
fn greedy_placement(circuit: &Circuit, graph: &CouplingGraph) -> Vec<usize> {
    let sites = graph.sites();
    let mut pair_weight: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    let mut wire_weight = vec![0.0f64; sites];
    for gate in circuit.gates() {
        if let Some((a, b)) = wire_pair(gate) {
            *pair_weight.entry((a.min(b), a.max(b))).or_insert(0.0) += 1.0;
            wire_weight[a] += 1.0;
            wire_weight[b] += 1.0;
        }
    }
    let mut interacting: Vec<usize> = (0..sites).filter(|&l| wire_weight[l] > 0.0).collect();
    interacting.sort_by(|&a, &b| {
        wire_weight[b]
            .partial_cmp(&wire_weight[a])
            .expect("weights are finite")
            .then(a.cmp(&b))
    });

    let mut site_of = vec![usize::MAX; sites];
    let mut used = vec![false; sites];
    let free_site_near = |anchor: usize, used: &[bool]| -> usize {
        (0..sites)
            .filter(|&s| !used[s])
            .min_by_key(|&s| (graph.distance(anchor, s), s))
            .expect("a free site always remains")
    };
    for &wire in &interacting {
        let placed_partners: Vec<(usize, f64)> = pair_weight
            .iter()
            .filter_map(|(&(a, b), &w)| {
                let partner = if a == wire {
                    b
                } else if b == wire {
                    a
                } else {
                    return None;
                };
                (site_of[partner] != usize::MAX).then_some((site_of[partner], w))
            })
            .collect();
        let site = if placed_partners.is_empty() {
            free_site_near(graph.center(), &used)
        } else {
            (0..sites)
                .filter(|&s| !used[s])
                .min_by(|&x, &y| {
                    let score = |s: usize| -> f64 {
                        placed_partners
                            .iter()
                            .map(|&(p, w)| w * graph.distance(s, p) as f64)
                            .sum()
                    };
                    score(x)
                        .partial_cmp(&score(y))
                        .expect("scores are finite")
                        .then(x.cmp(&y))
                })
                .expect("a free site always remains")
        };
        site_of[wire] = site;
        used[site] = true;
    }
    // Everything else (idle real wires and filler wires padding the circuit
    // out to the graph) stays put when possible.
    for wire in 0..sites {
        if site_of[wire] != usize::MAX {
            continue;
        }
        let site = if used[wire] {
            free_site_near(wire, &used)
        } else {
            wire
        };
        site_of[wire] = site;
        used[site] = true;
    }
    site_of
}

/// Routes `circuit` onto `graph`: greedy distance-minimising placement,
/// SWAP ladders chosen against a window of eight upcoming two-qudit gates,
/// then the inverse-permutation epilogue that returns every wire to its own
/// site.  The result spans the graph's full site register, every
/// multi-qudit gate acts on a coupled pair, and it is strictly equivalent to
/// the input embedded in that register (`circuit.widened(graph.sites())`).
///
/// A circuit that already satisfies the adjacency invariant on the full
/// site register is returned unchanged, which makes routing idempotent.
/// Routing is [`Routing::plan`] on the input's gates in place, then
/// [`Routing::apply`], which writes the routed gates into an output sized
/// once.
///
/// # Errors
///
/// * [`QuditError::TopologyTooSmall`] when the circuit is wider than the
///   graph;
/// * [`QuditError::UnsupportedLowering`] for gates of arity ≥ 3.
pub fn route_circuit(
    circuit: Circuit,
    graph: &CouplingGraph,
    cost: &dyn CostModel,
) -> Result<Circuit> {
    Routing::plan(&circuit, graph, cost)?.apply(circuit)
}

/// One wire-SWAP ladder of a [`Routing`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ladder {
    /// The input gate the ladder precedes (the input's length for the
    /// epilogue).
    pub before: usize,
    /// The two sites whose values the ladder exchanges.
    pub sites: (usize, usize),
}

/// A routing of a circuit onto `sites` wires, as the ladders it inserts:
/// every wire starts on its own site, and the output holds the input's
/// gates in order, each remapped onto the sites its wires occupy at that
/// point, with the [`wire_swap`] ladder of each [`Ladder`] inserted before
/// its input gate, in list order.  This is the `"route"` stage's
/// [`Rewrite`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Routing {
    /// Width of the output register.
    pub sites: usize,
    /// The ladders, in output order.
    pub ladders: Vec<Ladder>,
}

impl Routing {
    /// The routing [`route_circuit`] applies to `circuit`, read from its
    /// gates in place.
    ///
    /// # Errors
    ///
    /// As [`route_circuit`].
    pub fn plan(circuit: &Circuit, graph: &CouplingGraph, cost: &dyn CostModel) -> Result<Self> {
        let sites = graph.sites();
        if circuit.width() > sites {
            return Err(QuditError::TopologyTooSmall {
                sites,
                minimum: circuit.width(),
            });
        }
        let gates = circuit.gates();
        if let Some((index, gate)) = gates.iter().enumerate().find(|(_, g)| g.arity() > 2) {
            return Err(too_wide(index, gate.arity()));
        }
        let mut ladders = Vec::new();
        // Already-routed circuits are fixpoints: no placement, no swaps.
        if circuit.width() == sites && validate_adjacency(circuit, graph).is_ok() {
            return Ok(Routing { sites, ladders });
        }

        // A narrower circuit needs no widening: its gates are valid on the
        // site register, and the wires it does not declare are idle.
        let mut placement = Placement::identity(sites);
        let target = greedy_placement(circuit, graph);
        drive_to_placement(&mut ladders, 0, graph, &mut placement, &target);

        let mut prices = HashMap::new();
        for (index, gate) in gates.iter().enumerate() {
            let Some((l1, l2)) = wire_pair(gate) else {
                continue;
            };
            if graph.are_coupled(placement.site_of[l1], placement.site_of[l2]) {
                continue;
            }
            // The wire pairs of the upcoming two-qudit gates, for lookahead.
            let (mut upcoming, mut len) = ([(0, 0); LOOKAHEAD], 0);
            let next = gates[index + 1..].iter().filter_map(wire_pair);
            for (slot, pair) in upcoming.iter_mut().zip(next) {
                *slot = pair;
                len += 1;
            }
            while !graph.are_coupled(placement.site_of[l1], placement.site_of[l2]) {
                let edge = pick_swap(
                    graph,
                    cost,
                    &mut prices,
                    &placement,
                    (l1, l2),
                    &upcoming[..len],
                );
                ladders.push(Ladder {
                    before: index,
                    sites: edge,
                });
                placement.swap_sites(edge.0, edge.1);
            }
        }

        // The epilogue: undo the final permutation.
        let identity: Vec<usize> = (0..sites).collect();
        drive_to_placement(&mut ladders, gates.len(), graph, &mut placement, &identity);
        Ok(Routing { sites, ladders })
    }

    /// Writes the routed circuit into an output sized once (see the type
    /// docs); with no ladder the input's gates move through untouched.
    ///
    /// # Errors
    ///
    /// Returns [`QuditError::IncompatibleCircuits`] when the routing does not
    /// fit `circuit`: fewer sites than its width, or a ladder out of order,
    /// past its last gate or on sites that are equal or outside the
    /// register.
    pub fn apply(&self, circuit: Circuit) -> Result<Circuit> {
        let (dimension, sites, len) = (circuit.dimension(), self.sites, circuit.len());
        let mut previous = 0;
        for ladder in &self.ladders {
            let (a, b) = ladder.sites;
            if ladder.before < previous || ladder.before > len || a == b || a.max(b) >= sites {
                return Err(QuditError::IncompatibleCircuits {
                    reason: format!(
                        "ladder {ladder:?} does not fit a {len}-gate circuit over {sites} sites"
                    ),
                });
            }
            previous = ladder.before;
        }
        if sites < circuit.width() {
            return Err(QuditError::TopologyTooSmall {
                sites,
                minimum: circuit.width(),
            });
        }
        if self.ladders.is_empty() {
            return Ok(if circuit.width() == sites {
                circuit
            } else {
                Circuit::from_gates_unchecked(dimension, sites, circuit.into_gates())
            });
        }
        let template = wire_swap(dimension, 0, 1);
        let mut placement = Placement::identity(sites);
        let mut out = Vec::with_capacity(len + SWAP_LADDER_GATES * self.ladders.len());
        let mut ladders = self.ladders.iter().peekable();
        for index in 0..=len {
            while let Some(ladder) = ladders.next_if(|ladder| ladder.before == index) {
                let ends = [ladder.sites.0, ladder.sites.1];
                let on_ends = |q: QuditId| QuditId::new(ends[q.index()]);
                out.extend(template.iter().map(|gate| gate.map_qudits(on_ends)));
                placement.swap_sites(ends[0], ends[1]);
            }
            if let Some(gate) = circuit.gates().get(index) {
                out.push(gate.map_qudits(|q| QuditId::new(placement.site_of[q.index()])));
            }
        }
        // Each gate is a valid gate of the input, or of the ladder on two
        // distinct sites, relabelled injectively into the site register.
        Ok(Circuit::from_gates_unchecked(dimension, sites, out))
    }
}

/// Picks the swap edge for the current non-adjacent gate: among the edges
/// touching either endpoint that strictly shorten the current gate's
/// distance (so the router always terminates), the one with the best
/// decayed lookahead score over the upcoming two-qudit gates; ties break on
/// the candidate ladder's weighted cost, then on the edge itself.
fn pick_swap(
    graph: &CouplingGraph,
    cost: &dyn CostModel,
    prices: &mut HashMap<(usize, usize), f64>,
    placement: &Placement,
    current: (usize, usize),
    upcoming: &[(usize, usize)],
) -> (usize, usize) {
    let (a, b) = (placement.site_of[current.0], placement.site_of[current.1]);
    let distance_now = graph.distance(a, b);
    let mut best: Option<((usize, usize), f64, f64)> = None;
    for &u in &[a, b] {
        for &v in graph.neighbors(u) {
            let moved = |site: usize| -> usize {
                if site == u {
                    v
                } else if site == v {
                    u
                } else {
                    site
                }
            };
            let after = graph.distance(moved(a), moved(b));
            if after >= distance_now {
                continue;
            }
            let mut score = after as f64;
            let mut decay = 1.0;
            for pair in upcoming {
                decay *= LOOKAHEAD_DECAY;
                let (s1, s2) = (placement.site_of[pair.0], placement.site_of[pair.1]);
                score += decay * graph.distance(moved(s1), moved(s2)) as f64;
            }
            // The candidate ladder's weighted cost, priced once per edge;
            // with per-gate-kind weights it is edge-independent, but it
            // keeps the tie order under the configured objective.
            let ladder_cost = *prices.entry((u, v)).or_insert_with(|| {
                let probe = Dimension::new(2).expect("2 is a valid dimension");
                wire_swap(probe, u, v)
                    .iter()
                    .map(|g| cost.gate_cost(g))
                    .sum()
            });
            let candidate = ((u.min(v), u.max(v)), score, ladder_cost);
            let better = match &best {
                None => true,
                Some((edge, s, c)) => (score, ladder_cost, candidate.0) < (*s, *c, *edge),
            };
            if better {
                best = Some(candidate);
            }
        }
    }
    best.expect("a neighbour along a shortest path always shortens the distance")
        .0
}

/// The `"route"` pipeline stage: one call to [`route_circuit`], whose
/// inverse-permutation epilogue makes the stage preserve the circuit's
/// semantics exactly — routed pipelines verify under `VerifyEquivalence`
/// on every backend.
///
/// The stage expects its input to already span the physical register
/// (`width == sites`) when running under verification; the compiler facade
/// widens circuits before the pipeline for exactly this reason.  Without
/// verification, narrower inputs are widened in place.
pub struct RoutePass {
    graph: CouplingGraph,
    cost: std::sync::Arc<dyn CostModel>,
}

impl RoutePass {
    /// Creates the stage for a graph and cost model.
    pub fn new(graph: CouplingGraph, cost: std::sync::Arc<dyn CostModel>) -> Self {
        RoutePass { graph, cost }
    }
}

impl Pass for RoutePass {
    fn name(&self) -> &str {
        "route"
    }

    fn run(&self, circuit: Circuit) -> Result<Circuit> {
        route_circuit(circuit, &self.graph, self.cost.as_ref())
    }

    fn rewrite(&self, circuit: &Circuit) -> Option<Rewrite> {
        Routing::plan(circuit, &self.graph, self.cost.as_ref())
            .ok()
            .map(Rewrite::Route)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::Control;

    fn dim(d: u32) -> Dimension {
        Dimension::new(d).unwrap()
    }

    fn q(i: usize) -> QuditId {
        QuditId::new(i)
    }

    fn all_states(dimension: Dimension, width: usize) -> Vec<Vec<u32>> {
        let d = dimension.as_usize();
        let total = d.pow(width as u32);
        (0..total)
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

    #[test]
    fn wire_swap_exchanges_values_for_every_dimension() {
        for d in [2u32, 3, 4, 5] {
            let dimension = dim(d);
            let mut circuit = Circuit::new(dimension, 2);
            for gate in wire_swap(dimension, 0, 1) {
                circuit.push(gate).unwrap();
            }
            for state in all_states(dimension, 2) {
                let out = circuit.apply_to_basis(&state).unwrap();
                assert_eq!(out, vec![state[1], state[0]], "d = {d}, state {state:?}");
            }
        }
    }

    fn far_apart_circuit(dimension: Dimension, width: usize) -> Circuit {
        let mut circuit = Circuit::new(dimension, width);
        circuit
            .push(Gate::controlled(
                SingleQuditOp::Swap(0, 1),
                q(width - 1),
                vec![Control::zero(q(0))],
            ))
            .unwrap();
        circuit
            .push(Gate::add_from(q(width - 1), false, q(0), vec![]))
            .unwrap();
        circuit
            .push(Gate::single(SingleQuditOp::Add(1), q(width / 2)))
            .unwrap();
        circuit
    }

    #[test]
    fn routing_makes_every_gate_adjacent_and_stays_equivalent() {
        let dimension = dim(3);
        let circuit = far_apart_circuit(dimension, 5);
        for graph in [
            CouplingGraph::linear(5).unwrap(),
            CouplingGraph::ring(5).unwrap(),
            CouplingGraph::grid(2, 3).unwrap(),
        ] {
            let full = route_circuit(circuit.clone(), &graph, &UniformCost).unwrap();
            validate_adjacency(&full, &graph).unwrap();
            let embedded = circuit.widened(graph.sites()).unwrap();
            for state in all_states(dimension, graph.sites()) {
                assert_eq!(
                    embedded.apply_to_basis(&state).unwrap(),
                    full.apply_to_basis(&state).unwrap(),
                    "graph {graph}"
                );
            }
        }
    }

    #[test]
    fn routing_is_idempotent_on_routed_circuits() {
        let circuit = far_apart_circuit(dim(3), 5);
        let graph = CouplingGraph::linear(5).unwrap();
        let once = route_circuit(circuit, &graph, &UniformCost).unwrap();
        let again = route_circuit(once.clone(), &graph, &UniformCost).unwrap();
        assert_eq!(again, once);
    }

    #[test]
    fn validator_rejects_uncoupled_gates_and_high_arity() {
        let graph = CouplingGraph::linear(4).unwrap();
        let mut violating = Circuit::new(dim(3), 4);
        violating
            .push(Gate::add_from(q(0), false, q(3), vec![]))
            .unwrap();
        assert!(matches!(
            validate_adjacency(&violating, &graph),
            Err(QuditError::UncoupledGate {
                gate: 0,
                a: 0,
                b: 3
            })
        ));
        let mut wide_gate = Circuit::new(dim(3), 4);
        wide_gate
            .push(Gate::controlled(
                SingleQuditOp::Swap(0, 1),
                q(2),
                vec![Control::zero(q(0)), Control::zero(q(1))],
            ))
            .unwrap();
        assert!(matches!(
            validate_adjacency(&wide_gate, &graph),
            Err(QuditError::UnsupportedLowering { .. })
        ));
        assert!(matches!(
            route_circuit(wide_gate, &graph, &UniformCost),
            Err(QuditError::UnsupportedLowering { .. })
        ));
    }

    #[test]
    fn undersized_graph_is_a_typed_error() {
        let circuit = far_apart_circuit(dim(3), 5);
        let graph = CouplingGraph::linear(3).unwrap();
        assert!(matches!(
            route_circuit(circuit, &graph, &UniformCost),
            Err(QuditError::TopologyTooSmall {
                sites: 3,
                minimum: 5
            })
        ));
    }

    #[test]
    fn wider_graph_embeds_the_circuit() {
        let dimension = dim(3);
        let circuit = far_apart_circuit(dimension, 3);
        let graph = CouplingGraph::grid(2, 3).unwrap();
        let full = route_circuit(circuit.clone(), &graph, &UniformCost).unwrap();
        assert_eq!(full.width(), 6);
        let embedded = circuit.widened(6).unwrap();
        for state in all_states(dimension, 6) {
            assert_eq!(
                embedded.apply_to_basis(&state).unwrap(),
                full.apply_to_basis(&state).unwrap()
            );
        }
    }

    #[test]
    fn cost_models_report_weighted_costs() {
        let mut circuit = Circuit::new(dim(3), 2);
        circuit
            .push(Gate::single(SingleQuditOp::Add(1), q(0)))
            .unwrap();
        circuit
            .push(Gate::add_from(q(0), false, q(1), vec![]))
            .unwrap();
        assert_eq!(UniformCost.circuit_cost(&circuit), 2.0);
        let noisy = NoiseAwareCost::default();
        // X+1 costs 1.0; the two-qudit X±⋆ costs 1.5 × 10.
        assert!((noisy.circuit_cost(&circuit) - 16.0).abs() < 1e-12);
        assert_eq!(noisy.name(), "noise-aware");
        assert_eq!(UniformCost.name(), "uniform");
    }

    #[test]
    fn rewrites_that_do_not_fit_their_circuit_are_typed_errors() {
        let circuit = far_apart_circuit(dim(3), 4);
        let len = circuit.len();
        let ladder = |before, sites| Ladder { before, sites };
        for ladders in [
            vec![ladder(0, (1, 1))],
            vec![ladder(0, (0, 4))],
            vec![ladder(len + 1, (0, 1))],
            vec![ladder(2, (0, 1)), ladder(1, (1, 2))],
        ] {
            let routing = Rewrite::Route(Routing { sites: 4, ladders });
            assert!(matches!(
                routing.apply(circuit.clone()),
                Err(QuditError::IncompatibleCircuits { .. })
            ));
        }
        let narrow = Rewrite::Route(Routing {
            sites: 3,
            ladders: Vec::new(),
        });
        assert!(matches!(
            narrow.apply(circuit.clone()),
            Err(QuditError::TopologyTooSmall { .. })
        ));
        for pairs in [vec![(1, 1)], vec![(0, len)], vec![(0, 1), (1, 2)]] {
            assert!(matches!(
                Rewrite::Cancel(pairs).apply(circuit.clone()),
                Err(QuditError::IncompatibleCircuits { .. })
            ));
        }
        // A planned routing applies to exactly what `route_circuit` returns.
        let graph = CouplingGraph::linear(4).unwrap();
        let routing = Routing::plan(&circuit, &graph, &UniformCost).unwrap();
        assert!(!routing.ladders.is_empty());
        assert_eq!(
            Rewrite::Route(routing).apply(circuit.clone()).unwrap(),
            route_circuit(circuit, &graph, &UniformCost).unwrap()
        );
    }

    #[test]
    fn route_pass_is_a_semantics_preserving_stage() {
        let dimension = dim(3);
        let circuit = far_apart_circuit(dimension, 4);
        let graph = CouplingGraph::linear(4).unwrap();
        let pass = RoutePass::new(graph.clone(), std::sync::Arc::new(UniformCost));
        assert_eq!(pass.name(), "route");
        let out = pass.run(circuit.clone()).unwrap();
        validate_adjacency(&out, &graph).unwrap();
        for state in all_states(dimension, 4) {
            assert_eq!(
                circuit.apply_to_basis(&state).unwrap(),
                out.apply_to_basis(&state).unwrap()
            );
        }
    }
}
