//! The traced walk: every job of the set goes through each layer's public
//! function in turn, timed from here — `qasm::parse_source`, one
//! single-stage `PassManager` per registry stage (each fed the previous
//! stage's output, and again wrapped in `VerifyEquivalence` when the
//! workload verifies), `qasm::print_circuit`, and the whole facade call for
//! the residual nothing else accounts for.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use qudit_core::pipeline::{CircuitProfile, PassManager, PipelineSpec};
use qudit_core::qasm::{parse_source, print_circuit};
use qudit_core::route::RoutePass;
use qudit_core::Circuit;
use qudit_sim::VerifyEquivalence;
use qudit_synthesis::{CompileOptions, Compiler, Verify};

use crate::jobs::Job;

/// One registry stage, assembled alone, bare and verification-wrapped.
struct Stage {
    name: String,
    bare: PassManager,
    wrapped: Option<PassManager>,
}

/// Sums over every walked job.
#[derive(Default)]
pub struct StageTotals {
    pub time: Duration,
    pub wrapped_time: Duration,
    pub gates_in: usize,
    pub gates_out: usize,
    pub depth_in: usize,
    pub depth_out: usize,
}

#[derive(Default)]
pub struct Walk {
    pub jobs: usize,
    pub parse: Duration,
    pub parse_bytes: usize,
    pub print: Duration,
    pub print_bytes: usize,
    pub stages: BTreeMap<String, StageTotals>,
    /// `CircuitProfile` time at the stage boundaries the facade profiles.
    pub profile: Duration,
    /// Per-job facade times (compile, plus `to_qasm` on text workloads).
    pub facade: Vec<Duration>,
    /// Jobs whose walked output differed from the facade's.
    pub mismatches: usize,
}

/// Walks whole cycles of the job set until `deadline`, after one untimed
/// cycle that warms caches.  `text` says whether jobs enter as source text
/// (the service workloads) or as circuits (the batch sweep).
pub fn walk(options: &CompileOptions, jobs: &[Job], text: bool, deadline: Instant) -> Walk {
    let compiler = options.clone().compiler();
    let stages = assemble(options, &compiler);
    let mut warm = Walk::default();
    walk_cycle(&stages, &compiler, options, jobs, text, &mut warm);
    let mut walk = Walk::default();
    while walk.jobs == 0 || Instant::now() < deadline {
        walk_cycle(&stages, &compiler, options, jobs, text, &mut walk);
    }
    walk
}

/// One single-stage manager per stage the facade runs, on the facade's pool.
fn assemble(options: &CompileOptions, compiler: &Compiler) -> Vec<Stage> {
    let mut registry = qudit_synthesis::compiler::registry();
    if let Some(graph) = options.coupling_graph() {
        let graph = graph.clone();
        let cost = options.cost_model().clone();
        registry.register("route", move || {
            Box::new(RoutePass::new(graph.clone(), cost.clone()))
        });
    }
    let pool = compiler.manager().pool();
    let spec = options.spec();
    spec.stages
        .iter()
        .map(|name| {
            let single = PipelineSpec::new()
                .with_stage(name.clone())
                .with_cache(spec.cache.clone());
            let build = || {
                let manager = registry.assemble(&single).expect("registry stage");
                match &pool {
                    Some(pool) => manager.with_pool(pool.clone()),
                    None => manager,
                }
            };
            let wrapped = (options.verify_mode() != Verify::Off).then(|| {
                let backend = options.sim_backend();
                build().map_passes(|inner| {
                    Box::new(VerifyEquivalence::wrap(inner).with_backend(backend))
                })
            });
            Stage {
                name: name.clone(),
                bare: build(),
                wrapped,
            }
        })
        .collect()
}

fn walk_cycle(
    stages: &[Stage],
    compiler: &Compiler,
    options: &CompileOptions,
    jobs: &[Job],
    text: bool,
    walk: &mut Walk,
) {
    for job in jobs {
        let mut current = if text {
            let start = Instant::now();
            let parsed = parse_source(&job.source);
            walk.parse += start.elapsed();
            walk.parse_bytes += job.source.len();
            parsed.expect("job sources parse")
        } else {
            embed(&job.input, options)
        };
        // Each single-stage run profiles its input and output, which the
        // facade does once per stage boundary; those profiles are timed here
        // and taken out of the stage times.
        let (mut before, mut profile_before) = timed_profile(&current);
        walk.profile += profile_before;
        for stage in stages {
            let input = current.clone();
            let verify_input = stage.wrapped.is_some().then(|| current.clone());
            let start = Instant::now();
            let report = stage.bare.run(input).expect("stage runs");
            let outer = start.elapsed();
            current = report.circuit;
            let (after, profile_after) = timed_profile(&current);
            walk.profile += profile_after;
            let profiles = profile_before + profile_after;
            let totals = walk.stages.entry(stage.name.clone()).or_default();
            totals.time += outer.saturating_sub(profiles);
            if let (Some(wrapped), Some(input)) = (&stage.wrapped, verify_input) {
                let start = Instant::now();
                wrapped.run(input).expect("verified stage runs");
                totals.wrapped_time += start.elapsed().saturating_sub(profiles);
            }
            totals.gates_in += before.gates;
            totals.gates_out += after.gates;
            totals.depth_in += before.depth;
            totals.depth_out += after.depth;
            (before, profile_before) = (after, profile_after);
        }
        if text {
            let start = Instant::now();
            let printed = print_circuit(&current);
            walk.print += start.elapsed();
            walk.print_bytes += printed.len();
        }
        let start = Instant::now();
        let result = if text {
            compiler
                .compile_source(&job.source)
                .inspect(|r| drop(std::hint::black_box(r.to_qasm())))
        } else {
            compiler.compile(&job.input)
        };
        walk.facade.push(start.elapsed());
        if !result.is_ok_and(|r| r.circuit == current) {
            walk.mismatches += 1;
        }
        walk.jobs += 1;
    }
}

fn timed_profile(circuit: &Circuit) -> (CircuitProfile, Duration) {
    let start = Instant::now();
    let profile = CircuitProfile::of(circuit);
    (profile, start.elapsed())
}

/// The facade's embedding of a job into the coupling graph's site register.
fn embed(circuit: &Circuit, options: &CompileOptions) -> Circuit {
    match options.coupling_graph() {
        Some(graph) if graph.sites() > circuit.width() => {
            circuit.widened(graph.sites()).expect("job fits the graph")
        }
        _ => circuit.clone(),
    }
}
