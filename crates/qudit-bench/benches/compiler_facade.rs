//! Criterion bench: overhead of the `Compiler` facade over a raw
//! `PassManager::run` of the identical pipeline, and the verified facade on
//! the two largest jobs of the routed, verified sweep (`verified_chain6_*`:
//! O1, `Verify::Exhaustive`, a six-site chain).
//!
//! The facade adds one circuit clone (`compile` borrows its input where the
//! raw manager consumes it — the raw loop clones too, for parity), the
//! front-door walk and the `CompileResult` assembly (whose one depth walk
//! over the final circuit the raw manager, which records only gate counts,
//! does not make) on top of the pass manager; everything else is shared.
//! The `overhead` check pins
//! the facade at ≤ 1% over raw — plus a fixed 200 µs timer-noise epsilon
//! (~1.5% of the ~13 ms workload), the price of keeping a wall-clock
//! ratio assertion stable on shared CI runners — on the minimum-of-rounds
//! timing, so the convenience layer can never silently grow a cost.

use std::hint::black_box;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qudit_core::pipeline::PassManager;
use qudit_core::topology::CouplingGraph;
use qudit_core::{Circuit, Dimension};
use qudit_synthesis::{CompileOptions, Compiler, KToffoli, OptLevel, Verify};

/// The workload: the macro circuit of a mid-size k-Toffoli (d = 3, k = 8).
fn workload() -> Circuit {
    let synthesis = KToffoli::new(Dimension::new(3).unwrap(), 8)
        .unwrap()
        .synthesize()
        .unwrap();
    synthesis.circuit().clone()
}

/// The raw pass manager of the default flow and the facade over it.
fn raw_and_facade() -> (PassManager, Compiler) {
    let options = CompileOptions::new();
    (options.build_manager(), options.compiler())
}

/// Minimum wall times of `rounds` interleaved runs of `a` and `b` (the
/// minimum is robust to scheduler noise, and interleaving cancels slow
/// drift — thermal, allocator state — that a loop-then-loop comparison
/// would attribute to one side).
fn min_times(rounds: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (Duration, Duration) {
    let mut best_a = Duration::MAX;
    let mut best_b = Duration::MAX;
    for _ in 0..rounds {
        let start = Instant::now();
        a();
        best_a = best_a.min(start.elapsed());
        let start = Instant::now();
        b();
        best_b = best_b.min(start.elapsed());
    }
    (best_a, best_b)
}

fn bench_raw_vs_facade(c: &mut Criterion) {
    let circuit = workload();
    let (manager, compiler) = raw_and_facade();

    let mut group = c.benchmark_group("compiler_facade");
    group.bench_with_input(
        BenchmarkId::from_parameter("raw_passmanager"),
        &circuit,
        |b, circuit| b.iter(|| manager.run(circuit.clone()).unwrap().circuit.len()),
    );
    group.bench_with_input(
        BenchmarkId::from_parameter("facade"),
        &circuit,
        |b, circuit| b.iter(|| compiler.compile(circuit).unwrap().circuit.len()),
    );
    group.finish();
}

/// The verified, routed compile of the sweep's two largest jobs: every
/// stage self-checked, on a chain of six sites.
fn bench_verified_chain(c: &mut Criterion) {
    let compiler = CompileOptions::new()
        .opt_level(OptLevel::O1)
        .verify(Verify::Exhaustive)
        .topology(CouplingGraph::linear(6).unwrap())
        .compiler();
    let mut group = c.benchmark_group("compiler_facade");
    for d in [4u32, 5] {
        let dimension = Dimension::new(d).unwrap();
        let circuit = KToffoli::new(dimension, 4)
            .unwrap()
            .synthesize()
            .unwrap()
            .circuit()
            .clone();
        assert!(compiler
            .compile(&circuit)
            .unwrap()
            .verification
            .is_verified());
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("verified_chain6_d{d}_k4")),
            &circuit,
            |b, circuit| b.iter(|| compiler.compile(circuit).unwrap().circuit.len()),
        );
    }
    group.finish();
}

fn bench_overhead_pin(_c: &mut Criterion) {
    let circuit = workload();
    let (manager, compiler) = raw_and_facade();

    // Interleaved minimum-of-rounds comparison, retried a few times so a
    // one-off scheduling hiccup cannot fail the pin; a *persistent* facade
    // overhead above 1% (plus a small absolute epsilon for timer noise)
    // does.
    const ROUNDS: usize = 9;
    const RETRIES: usize = 4;
    const EPSILON: Duration = Duration::from_micros(200);
    let mut overhead = f64::INFINITY;
    let mut within_pin = false;
    for _ in 0..RETRIES {
        let (raw, via_facade) = min_times(
            ROUNDS,
            || {
                black_box(manager.run(circuit.clone()).unwrap().circuit.len());
            },
            || {
                black_box(compiler.compile(&circuit).unwrap().circuit.len());
            },
        );
        overhead = via_facade.as_secs_f64() / raw.as_secs_f64() - 1.0;
        println!(
            "bench: compiler_facade/overhead: raw {:.3} ms, facade {:.3} ms ({:+.2}%)",
            raw.as_secs_f64() * 1e3,
            via_facade.as_secs_f64() * 1e3,
            overhead * 100.0
        );
        if via_facade <= raw.mul_f64(1.01) + EPSILON {
            within_pin = true;
            break;
        }
    }
    assert!(
        within_pin,
        "facade overhead persistently above 1%: {:.2}%",
        overhead * 100.0
    );
}

criterion_group!(
    benches,
    bench_raw_vs_facade,
    bench_verified_chain,
    bench_overhead_pin
);
criterion_main!(benches);
