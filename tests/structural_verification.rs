//! Structural verification: `VerifyEquivalence` proves lowering once per
//! gate shape, un-routes through SWAP ladders and proves handed-over
//! inverse pairs before it falls back to the global check.
//!
//! * coverage — every `sweep_verified` shape (6-chain, O1) and every
//!   `serve_mct` shape (O1 and O2, all-to-all) proves its fusion, lowering,
//!   cancellation and routing stages structurally, with no fallback;
//! * witness parity — every single-gate mutation (delete, relevel,
//!   retarget) of the lowered, cancelled and routed k-Toffoli (d ∈ {3, 4},
//!   k = 3) gets exactly the verdict and message of the global exhaustive
//!   sweep, and so does every mutated rewrite the fusion, cancellation and
//!   routing stages hand the verifier (a removed pair that is not inverse
//!   or not adjacent on every wire, a ladder on the wrong pair, a dropped
//!   epilogue ladder), while the unmutated rewrites prove structurally and
//!   give the bare stages' outputs;
//! * routed circuits — un-routing agrees with a brute-force basis sweep on
//!   every routed `sweep_verified` shape, and a dropped ladder gate is
//!   rejected with the global sweep's witness.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use qudit_core::pipeline::{
    pass_fn, CancelInversePairs, GateFusion, GateWalk, LowerToGGates, Pass, Rewrite, ScheduleDepth,
};
use qudit_core::route::{Ladder, RoutePass, Routing};
use qudit_core::topology::CouplingGraph;
use qudit_core::{
    Circuit, Control, ControlPredicate, Dimension, Gate, GateOp, Permutation, QuditError, QuditId,
    Result, SingleQuditOp,
};
use qudit_sim::basis::index_to_digits;
use qudit_sim::{circuit_permutation, Proof, VerifyEquivalence};
use qudit_synthesis::pipeline::LowerToElementary;
use qudit_synthesis::{CompileOptions, KToffoli, OptLevel, Verify};

/// The stages proved structurally whenever they run.
const STRUCTURAL_STAGES: [&str; 5] = [
    "gate-fusion",
    "lower-to-elementary",
    "lower-to-g-gates",
    "cancel-inverse-pairs",
    "route",
];

/// `sweep_verified`'s family, routed on a chain of six sites.
const SWEEP_FAMILY: [(u32, usize); 7] = [(3, 3), (3, 4), (3, 5), (4, 3), (4, 4), (5, 3), (5, 4)];
const SWEEP_SITES: usize = 6;

/// `serve_mct`'s family.
const MCT_FAMILY: [(u32, usize); 11] = [
    (3, 4),
    (3, 5),
    (3, 6),
    (3, 7),
    (3, 8),
    (4, 4),
    (4, 5),
    (4, 6),
    (4, 7),
    (4, 8),
    (5, 4),
];

fn toffoli(d: u32, k: usize) -> Circuit {
    let dimension = Dimension::new(d).unwrap();
    KToffoli::new(dimension, k)
        .unwrap()
        .synthesize()
        .unwrap()
        .circuit()
        .clone()
}

/// The stages `options` selects, each alone and verification-wrapped.
fn verified_stages(options: &CompileOptions) -> Vec<VerifyEquivalence> {
    options
        .spec()
        .stages
        .iter()
        .map(|stage| {
            let pass: Box<dyn Pass> = match stage.as_str() {
                "gate-fusion" => Box::new(GateFusion),
                "lower-to-elementary" => Box::new(LowerToElementary),
                "lower-to-g-gates" => Box::new(LowerToGGates),
                "cancel-inverse-pairs" => Box::new(CancelInversePairs),
                "schedule-depth" => Box::new(ScheduleDepth),
                "route" => Box::new(RoutePass::new(
                    options.coupling_graph().unwrap().clone(),
                    options.cost_model().clone(),
                )),
                other => panic!("unknown stage {other}"),
            };
            VerifyEquivalence::wrap(pass)
        })
        .collect()
}

/// Runs `circuit` through the verified stages of `options`, returning the
/// proof of each stage by name, and checks the result against the facade.
fn proofs(options: &CompileOptions, circuit: &Circuit) -> Vec<(String, Proof)> {
    let mut current = match options.coupling_graph() {
        Some(graph) => circuit.widened(graph.sites()).unwrap(),
        None => circuit.clone(),
    };
    let mut proofs = Vec::new();
    for stage in verified_stages(options) {
        let (output, proof) = stage.run_with_proof(current).unwrap();
        let name = stage
            .name()
            .trim_start_matches("verify(")
            .trim_end_matches(')');
        proofs.push((name.to_string(), proof));
        current = output;
    }
    let facade = options.clone().compiler().compile(circuit).unwrap();
    assert_eq!(
        facade.circuit, current,
        "stage walk drifted from the facade"
    );
    proofs
}

fn assert_structural(options: &CompileOptions, label: &str, circuit: &Circuit) {
    let proofs = proofs(options, circuit);
    for stage in STRUCTURAL_STAGES {
        if let Some((_, proof)) = proofs.iter().find(|(name, _)| name == stage) {
            assert_eq!(*proof, Proof::Structural, "{label}: {stage}");
        }
    }
    let proved = proofs
        .iter()
        .filter(|(name, _)| STRUCTURAL_STAGES.contains(&name.as_str()))
        .count();
    let expected = if options.coupling_graph().is_some() {
        5
    } else {
        4
    };
    assert_eq!(proved, expected, "{label}: stages {proofs:?}");
}

#[test]
fn sweep_verified_shapes_prove_every_rewriting_stage_structurally() {
    let options = CompileOptions::new()
        .opt_level(OptLevel::O1)
        .verify(Verify::Exhaustive)
        .topology(CouplingGraph::linear(SWEEP_SITES).unwrap());
    for (d, k) in SWEEP_FAMILY {
        assert_structural(&options, &format!("sweep d={d} k={k}"), &toffoli(d, k));
    }
}

#[test]
fn serve_mct_shapes_prove_every_rewriting_stage_structurally() {
    for level in [OptLevel::O1, OptLevel::O2] {
        let options = CompileOptions::new()
            .opt_level(level)
            .verify(Verify::Exhaustive);
        for (d, k) in MCT_FAMILY {
            assert_structural(
                &options,
                &format!("mct {level:?} d={d} k={k}"),
                &toffoli(d, k),
            );
        }
    }
}

/// The verdict of a verified stage as the text a caller sees: `Ok` or the
/// `PassFailed` message.
fn verdict<T>(result: Result<T>) -> std::result::Result<(), String> {
    match result {
        Ok(_) => Ok(()),
        Err(QuditError::PassFailed { pass, reason }) => Err(format!("{pass}: {reason}")),
        Err(other) => panic!("expected PassFailed, got {other:?}"),
    }
}

/// The global exhaustive sweep's verdict on `before` → `after`, computed
/// independently: the first basis state, in index order, whose images
/// differ.
fn swept_verdict(pass: &str, before: &Circuit, after: &Circuit) -> std::result::Result<(), String> {
    let expected = circuit_permutation(before).unwrap();
    let actual = circuit_permutation(after).unwrap();
    match (0..expected.len()).find(|&i| expected[i] != actual[i]) {
        None => Ok(()),
        Some(index) => Err(format!(
            "{pass}: output circuit is not equivalent to its input (basis state {:?})",
            index_to_digits(index, before.dimension(), before.width())
        )),
    }
}

#[derive(Debug, Clone, Copy)]
enum Mutation {
    Delete,
    Relevel,
    Retarget,
}

const MUTATIONS: [Mutation; 3] = [Mutation::Delete, Mutation::Relevel, Mutation::Retarget];

/// `gate` with one level changed: a control's level, a transposition's
/// second level, a shift's sign, or a permutation composed with `X+1`.
fn relevel(gate: &Gate, dimension: Dimension) -> Gate {
    let d = dimension.get();
    if let Some(first) = gate.controls().first() {
        let mut controls = gate.controls().to_vec();
        controls[0] = match first.predicate {
            ControlPredicate::Level(l) => Control::level(first.qudit, (l + 1) % d),
            _ => Control::zero(first.qudit),
        };
        return Gate::new(gate.op().clone(), gate.target(), controls);
    }
    let op = match gate.op() {
        GateOp::Single(SingleQuditOp::Swap(i, j)) => {
            let other = (0..d).find(|&l| l != *i && l != *j).unwrap();
            GateOp::Single(SingleQuditOp::Swap(*i, other))
        }
        GateOp::Single(SingleQuditOp::Add(y)) => GateOp::Single(SingleQuditOp::Add((y + 1) % d)),
        GateOp::Single(op) => {
            let map = op.to_permutation(dimension).unwrap();
            let shifted = map.as_map().iter().map(|&l| (l + 1) % d).collect();
            GateOp::Single(SingleQuditOp::Perm(Permutation::from_map(shifted).unwrap()))
        }
        GateOp::AddFrom { source, negate } => GateOp::AddFrom {
            source: *source,
            negate: !negate,
        },
    };
    Gate::new(op, gate.target(), gate.controls().to_vec())
}

/// `gate` with its target moved to the next wire it does not touch.
fn retarget(gate: &Gate, width: usize) -> Gate {
    let support: Vec<QuditId> = gate.qudits();
    let target = (1..width)
        .map(|step| QuditId::new((gate.target().index() + step) % width))
        .find(|q| !support.contains(q))
        .unwrap();
    Gate::new(gate.op().clone(), target, gate.controls().to_vec())
}

/// `gates` with the gate at `index` mutated.
fn mutate(
    gates: &mut Vec<Gate>,
    index: usize,
    mutation: Mutation,
    dimension: Dimension,
    width: usize,
) {
    match mutation {
        Mutation::Delete => {
            gates.remove(index);
        }
        Mutation::Relevel => gates[index] = relevel(&gates[index], dimension),
        Mutation::Retarget => gates[index] = retarget(&gates[index], width),
    }
}

/// `lower-to-g-gates` with one emitted gate mutated — in its walk, so the
/// structural lowering proof sees the mutation.
struct MutatedLowering {
    index: usize,
    mutation: Mutation,
}

struct MutatedWalk {
    inner: Box<dyn GateWalk>,
    emitted: usize,
    index: usize,
    mutation: Mutation,
    dimension: Dimension,
    width: usize,
}

impl GateWalk for MutatedWalk {
    fn emit(&mut self, gate: &Gate, out: &mut Vec<Gate>) -> Result<()> {
        let start = out.len();
        self.inner.emit(gate, out)?;
        let emitted = out.len() - start;
        if (self.emitted..self.emitted + emitted).contains(&self.index) {
            let mut expansion = out.split_off(start);
            let at = self.index - self.emitted;
            mutate(
                &mut expansion,
                at,
                self.mutation,
                self.dimension,
                self.width,
            );
            out.extend(expansion);
        }
        self.emitted += emitted;
        Ok(())
    }

    /// The unmutated count: a deletion leaves it one above the emission,
    /// which a bound allows.
    fn count(&mut self, gate: &Gate) -> usize {
        self.inner.count(gate)
    }
}

impl Pass for MutatedLowering {
    fn name(&self) -> &str {
        "lower-to-g-gates"
    }

    fn run(&self, circuit: Circuit) -> Result<Circuit> {
        let mut walk = self.gate_walk(&circuit).unwrap();
        let mut out = Vec::new();
        for gate in circuit.gates() {
            walk.emit(gate, &mut out)?;
        }
        Circuit::from_gates(circuit.dimension(), circuit.width(), out)
    }

    fn gate_walk(&self, circuit: &Circuit) -> Option<Box<dyn GateWalk>> {
        Some(Box::new(MutatedWalk {
            inner: LowerToGGates.gate_walk(circuit)?,
            emitted: 0,
            index: self.index,
            mutation: self.mutation,
            dimension: circuit.dimension(),
            width: circuit.width(),
        }))
    }
}

#[test]
fn mutations_get_the_global_sweeps_verdict_and_witness() {
    for d in [3u32, 4] {
        let elementary = LowerToElementary.run(toffoli(d, 3)).unwrap();
        let (dimension, width) = (elementary.dimension(), elementary.width());
        let lowered = LowerToGGates.run(elementary.clone()).unwrap();
        let cancelled = CancelInversePairs.run(lowered.clone()).unwrap();
        let route = RoutePass::new(
            CouplingGraph::linear(width).unwrap(),
            std::sync::Arc::new(qudit_core::route::UniformCost),
        );
        let routed = route.run(cancelled.clone()).unwrap();
        assert!(
            routed.len() > cancelled.len(),
            "d={d}: routing inserts ladders"
        );

        let mut rejected = 0;
        for mutation in MUTATIONS {
            for index in 0..lowered.len() {
                let pass = MutatedLowering { index, mutation };
                let mutated = pass.run(elementary.clone()).unwrap();
                let verified = VerifyEquivalence::wrap(Box::new(pass));
                let got = verdict(verified.run_with_proof(elementary.clone()));
                let want = swept_verdict("lower-to-g-gates", &elementary, &mutated);
                assert_eq!(got, want, "d={d} lowered {mutation:?} at {index}");
                rejected += usize::from(got.is_err());
            }
            for (name, before, after) in [
                ("cancel-inverse-pairs", &lowered, &cancelled),
                ("route", &cancelled, &routed),
            ] {
                for index in 0..after.len() {
                    let mut gates = after.gates().to_vec();
                    mutate(&mut gates, index, mutation, dimension, width);
                    let mutated = Circuit::from_gates(dimension, width, gates).unwrap();
                    let output = mutated.clone();
                    let pass = pass_fn(name, move |_| Ok(output.clone()));
                    let verified = VerifyEquivalence::wrap(Box::new(pass));
                    let got = verdict(verified.run_with_proof(before.clone()));
                    let want = swept_verdict(name, before, &mutated);
                    assert_eq!(got, want, "d={d} {name} {mutation:?} at {index}");
                    rejected += usize::from(got.is_err());
                }
            }
        }
        // Almost every mutation breaks the circuit; the few that do not
        // (a dropped gate another one undoes, …) must pass on both sides.
        let total = 3 * (lowered.len() + cancelled.len() + routed.len());
        assert!(
            rejected * 10 > total * 9,
            "d={d}: {rejected} of {total} rejected"
        );
    }
}

/// A stage that hands the verifier a fixed rewrite, and whose `run` applies
/// it, under the name of the stage it mutates, counting its runs.
struct Rewritten {
    name: String,
    rewrite: Rewrite,
    runs: Arc<AtomicUsize>,
}

impl Pass for Rewritten {
    fn name(&self) -> &str {
        &self.name
    }

    fn run(&self, circuit: Circuit) -> Result<Circuit> {
        self.runs.fetch_add(1, Ordering::Relaxed);
        self.rewrite.apply(circuit)
    }

    fn rewrite(&self, _circuit: &Circuit) -> Option<Rewrite> {
        Some(self.rewrite.clone())
    }
}

/// The cancellation rewrites of `before` that break one of `pairs`: each
/// pair re-partnered with the first kept gate after its opener (not an
/// inverse, or not on the same wires), each pair's partner swapped with the
/// next pair's (not nested), each kept gate added in a pair with the next
/// gate on its wires when that one is kept on the same wires but is not its
/// inverse (adjacent, not inverse), and each inverse pair of kept gates
/// with a kept gate between them on a shared wire added (inverse, not
/// adjacent).
fn mutated_pairs(before: &Circuit, pairs: &[(usize, usize)]) -> Vec<Vec<(usize, usize)>> {
    let mut removed = vec![false; before.len()];
    for &(first, second) in pairs {
        removed[first] = true;
        removed[second] = true;
    }
    let sorted = |mut pairs: Vec<(usize, usize)>| {
        pairs.sort_by_key(|&(_, second)| second);
        pairs
    };
    let mut mutants = Vec::new();
    for (p, &(first, _)) in pairs.iter().enumerate() {
        if let Some(kept) = (first + 1..before.len()).find(|&i| !removed[i]) {
            let mut mutant = pairs.to_vec();
            mutant[p] = (first, kept);
            mutants.push(sorted(mutant));
        }
        if let Some(&(next_first, next_second)) = pairs.get(p + 1) {
            let (first, second) = pairs[p];
            if next_first < second {
                let mut mutant = pairs.to_vec();
                mutant[p] = (first, next_second);
                mutant[p + 1] = (next_first, second);
                mutants.push(sorted(mutant));
            }
        }
    }
    let gates = before.gates();
    let dimension = before.dimension();
    let shares_a_wire = |a: &Gate, b: &Gate| a.support().any(|q| b.support().any(|r| r == q));
    for i in (0..gates.len()).filter(|&i| !removed[i]) {
        let next = (i + 1..gates.len()).find(|&j| shares_a_wire(&gates[i], &gates[j]));
        if let Some(j) = next.filter(|&j| {
            !removed[j]
                && gates[j].arity() == gates[i].arity()
                && gates[j]
                    .support()
                    .all(|q| gates[i].support().any(|r| r == q))
                && gates[j] != gates[i].inverse(dimension)
        }) {
            let mut mutant = pairs.to_vec();
            mutant.push((i, j));
            mutants.push(sorted(mutant));
        }
        let partner = (i + 1..gates.len())
            .filter(|&j| !removed[j])
            .find(|&j| gates[j] == gates[i].inverse(dimension));
        let Some(j) = partner else { continue };
        let walled = (i + 1..j)
            .any(|between| !removed[between] && shares_a_wire(&gates[i], &gates[between]));
        if walled {
            let mut mutant = pairs.to_vec();
            mutant.push((i, j));
            mutants.push(sorted(mutant));
        }
    }
    mutants
}

/// The routings that break `routing`: each ladder moved onto the wrong
/// pair (its first site with the next site it does not touch), and each
/// epilogue ladder dropped.
fn mutated_routings(routing: &Routing, len: usize) -> Vec<Routing> {
    let sites = routing.sites;
    let mut mutants = Vec::new();
    for (l, ladder) in routing.ladders.iter().enumerate() {
        let (a, b) = ladder.sites;
        let c = (1..sites)
            .map(|step| (a + step) % sites)
            .find(|&c| c != b)
            .unwrap();
        let mut mutant = routing.clone();
        mutant.ladders[l] = Ladder {
            before: ladder.before,
            sites: (a, c),
        };
        mutants.push(mutant);
        if ladder.before == len {
            let mut mutant = routing.clone();
            mutant.ladders.remove(l);
            mutants.push(mutant);
        }
    }
    mutants
}

#[test]
fn mutated_rewrites_get_the_global_sweeps_verdict_and_witness() {
    // Fusion drops pairs from the macro circuit at odd d, none at d = 4.
    assert_eq!(
        GateFusion.rewrite(&toffoli(4, 4)),
        Some(Rewrite::Cancel(Vec::new()))
    );
    let mut stages: Vec<(String, Box<dyn Pass>, Circuit)> = Vec::new();
    for d in [3u32, 5] {
        stages.push((format!("d={d} k=4"), Box::new(GateFusion), toffoli(d, 4)));
    }
    for d in [3u32, 4] {
        let elementary = LowerToElementary.run(toffoli(d, 3)).unwrap();
        let width = elementary.width();
        let lowered = LowerToGGates.run(elementary).unwrap();
        let route = RoutePass::new(
            CouplingGraph::linear(width).unwrap(),
            std::sync::Arc::new(qudit_core::route::UniformCost),
        );
        let cancelled = CancelInversePairs.run(lowered.clone()).unwrap();
        stages.push((format!("d={d}"), Box::new(CancelInversePairs), lowered));
        stages.push((format!("d={d}"), Box::new(route), cancelled));
    }
    for (label, stage, before) in stages {
        let name = stage.name();
        let rewrite = stage
            .rewrite(&before)
            .expect("the stage hands over its rewrite");
        assert_ne!(rewrite, Rewrite::Cancel(Vec::new()), "{label} {name}");
        // The verifier applies a handed-over rewrite itself, proved or not,
        // so it never runs (and re-plans) the stage.
        let runs = Arc::new(AtomicUsize::new(0));
        let faithful = Rewritten {
            name: name.to_string(),
            rewrite: rewrite.clone(),
            runs: Arc::clone(&runs),
        };
        let (output, proof) = VerifyEquivalence::wrap(Box::new(faithful))
            .run_with_proof(before.clone())
            .unwrap();
        assert_eq!(proof, Proof::Structural, "{label} {name}");
        assert_eq!(output, stage.run(before.clone()).unwrap(), "{label} {name}");

        let mutants: Vec<Rewrite> = match &rewrite {
            Rewrite::Cancel(pairs) => mutated_pairs(&before, pairs)
                .into_iter()
                .map(Rewrite::Cancel)
                .collect(),
            Rewrite::Route(routing) => mutated_routings(routing, before.len())
                .into_iter()
                .map(Rewrite::Route)
                .collect(),
        };
        assert!(
            mutants.len() >= 10,
            "{label} {name}: {} mutants",
            mutants.len()
        );
        let mut rejected = 0;
        for (m, rewrite) in mutants.into_iter().enumerate() {
            let mutated = rewrite.apply(before.clone()).unwrap();
            let runs = Arc::clone(&runs);
            let pass = Rewritten {
                name: name.to_string(),
                rewrite,
                runs,
            };
            let got =
                verdict(VerifyEquivalence::wrap(Box::new(pass)).run_with_proof(before.clone()));
            let want = swept_verdict(name, &before, &mutated);
            assert_eq!(got, want, "{label} {name} mutant {m}");
            rejected += usize::from(got.is_err());
        }
        assert!(rejected > 0, "{label} {name}: no mutant was rejected");
        assert_eq!(
            runs.load(Ordering::Relaxed),
            0,
            "{label} {name}: the stage ran"
        );
    }
}

#[test]
fn unrouting_agrees_with_a_basis_sweep_on_every_routed_sweep_shape() {
    let options = CompileOptions::new()
        .opt_level(OptLevel::O1)
        .topology(CouplingGraph::linear(SWEEP_SITES).unwrap());
    let stages = verified_stages(&options);
    for (d, k) in SWEEP_FAMILY {
        let mut current = toffoli(d, k).widened(SWEEP_SITES).unwrap();
        for stage in &stages[..stages.len() - 1] {
            current = stage.run_with_proof(current).unwrap().0;
        }
        let route = stages.last().unwrap();
        assert_eq!(route.name(), "verify(route)");
        let (routed, proof) = route.run_with_proof(current.clone()).unwrap();
        assert_eq!(proof, Proof::Structural, "d={d} k={k}");
        assert_eq!(
            circuit_permutation(&current).unwrap(),
            circuit_permutation(&routed).unwrap(),
            "d={d} k={k}: the un-routed proof must match a basis sweep"
        );

        // Drop the first gate of the first ladder: un-routing fails, and
        // the exhaustive global sweep names its witness.
        let ladder = routed
            .gates()
            .iter()
            .position(|g| matches!(g.op(), GateOp::AddFrom { .. }))
            .expect("the chain needs ladders");
        let mut gates = routed.gates().to_vec();
        gates.remove(ladder);
        let broken = Circuit::from_gates(routed.dimension(), routed.width(), gates).unwrap();
        let output = broken.clone();
        let exhaustive =
            VerifyEquivalence::wrap(Box::new(pass_fn("route", move |_| Ok(output.clone()))))
                .with_limits(1 << 16, 256);
        assert_eq!(
            verdict(exhaustive.run_with_proof(current.clone())),
            swept_verdict("route", &current, &broken),
            "d={d} k={k}"
        );
    }
}
