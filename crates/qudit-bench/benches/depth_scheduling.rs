//! Criterion bench: commutation-aware depth scheduling on the lowered
//! E10-style k-Toffoli sweep.
//!
//! Two timings per workload: the fused `schedule_depth` scan and the
//! `ScheduleDepth` pass around it.  The scan is one sequential walk
//! over a run-merged wire history with a running-maximum early exit per
//! wire; it never builds the DAG.  The workload is the optimised G-gate
//! circuits of the standard flow — exactly what the scheduled pipeline
//! hands the scheduler.  `schedule_d5_k4` adds the d = 5 job of the O2
//! family, and `schedule_distinct_perms` a 20k-gate circuit of
//! all-distinct permutations, where the history never merges.  The
//! scheduler takes its circuit by value, so each iteration clones the
//! workload first.  The group's `cancel_*` entries are timed in their own
//! process by the `cancellation` bench.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qudit_core::commute::schedule_depth;
use qudit_core::depth::circuit_depth;
use qudit_core::pipeline::{Pass, ScheduleDepth};
use qudit_core::{Circuit, Dimension, Gate, Permutation, QuditId, SingleQuditOp};
use qudit_synthesis::{CompileOptions, KToffoli};

/// The scheduler's inputs: the optimised (cancelled, unscheduled) G-gate
/// circuits of an E10-style sweep.
fn lowered_jobs() -> Vec<(String, Circuit)> {
    let mut out = Vec::new();
    for d in [3u32, 4] {
        for k in [4usize, 8] {
            out.push((format!("d{d}_k{k}"), ktoffoli(CompileOptions::new(), d, k)));
        }
    }
    out
}

/// The macro-level k-Toffoli circuit.
fn ktoffoli_macro(d: u32, k: usize) -> Circuit {
    KToffoli::new(Dimension::new(d).unwrap(), k)
        .unwrap()
        .synthesize()
        .unwrap()
        .circuit()
        .clone()
}

/// A k-Toffoli compiled with the given options.
fn ktoffoli(options: CompileOptions, d: u32, k: usize) -> Circuit {
    options
        .compiler()
        .compile(&ktoffoli_macro(d, k))
        .unwrap()
        .circuit
}

/// `gates` single-qudit gates on three d=13 wires; gate i applies the
/// permutation of index 1_000_003·i mod 13! (factorial number system), so
/// no two share a wire signature.
fn distinct_perms(gates: u64) -> Circuit {
    let dimension = Dimension::new(13).unwrap();
    let mut circuit = Circuit::new(dimension, 3);
    for i in 0..gates {
        let mut draw = i * 1_000_003 % 6_227_020_800;
        let mut map: Vec<u32> = dimension.levels().collect();
        for l in (1..13u64).rev() {
            map.swap(l as usize, (draw % (l + 1)) as usize);
            draw /= l + 1;
        }
        let op = SingleQuditOp::Perm(Permutation::from_map(map).unwrap());
        let target = QuditId::new((i.wrapping_mul(0x9E37_79B9) >> 16) as usize % 3);
        circuit.push(Gate::single(op, target)).unwrap();
    }
    circuit
}

fn bench_schedule(c: &mut Criterion) {
    let mut jobs = lowered_jobs();
    jobs.push(("d5_k4".into(), ktoffoli(CompileOptions::new(), 5, 4)));
    jobs.push(("distinct_perms".into(), distinct_perms(20_000)));
    let mut group = c.benchmark_group("depth_scheduling");
    for (label, circuit) in &jobs {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("schedule_{label}")),
            circuit,
            |b, circuit| b.iter(|| circuit_depth(&schedule_depth(circuit.clone()))),
        );
    }
    group.finish();
}

fn bench_pass(c: &mut Criterion) {
    let jobs = lowered_jobs();
    let mut group = c.benchmark_group("depth_scheduling");
    for (label, circuit) in &jobs {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("pass_{label}")),
            circuit,
            |b, circuit| b.iter(|| ScheduleDepth.run(circuit.clone()).unwrap().len()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_schedule, bench_pass);
criterion_main!(benches);
