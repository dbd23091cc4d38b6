//! Criterion bench: commutation-aware depth scheduling on the lowered
//! E10-style k-Toffoli sweep.
//!
//! Four timings per workload: building the explicit dependency DAG
//! sequentially and gate-parallel on the work-stealing pool (the
//! `schedule_over` reference's input), the fused `schedule_depth` scan, and
//! the `ScheduleDepth` pass around it.  The scan is one sequential walk
//! with a running-maximum early exit per wire; it never builds the DAG.
//! The workload is the optimised G-gate circuits of the standard flow —
//! exactly what the scheduled pipeline hands the scheduler.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qudit_core::commute::{schedule_depth, DependencyDag};
use qudit_core::depth::circuit_depth;
use qudit_core::pipeline::{Pass, ScheduleDepth};
use qudit_core::pool::WorkStealingPool;
use qudit_core::{Circuit, Dimension};
use qudit_synthesis::{CompileOptions, KToffoli};

/// The scheduler's inputs: the optimised (cancelled, unscheduled) G-gate
/// circuits of an E10-style sweep.
fn lowered_jobs() -> Vec<(String, Circuit)> {
    let compiler = CompileOptions::new().compiler();
    let mut out = Vec::new();
    for &d in &[3u32, 4] {
        for &k in &[4usize, 8] {
            let dimension = Dimension::new(d).unwrap();
            let synthesis = KToffoli::new(dimension, k).unwrap().synthesize().unwrap();
            let circuit = compiler.compile(synthesis.circuit()).unwrap().circuit;
            out.push((format!("d{d}_k{k}"), circuit));
        }
    }
    out
}

fn bench_dag_sequential(c: &mut Criterion) {
    let jobs = lowered_jobs();
    let mut group = c.benchmark_group("depth_scheduling");
    for (label, circuit) in &jobs {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("dag_sequential_{label}")),
            circuit,
            |b, circuit| b.iter(|| DependencyDag::build(circuit).edge_count()),
        );
    }
    group.finish();
}

fn bench_dag_parallel(c: &mut Criterion) {
    let jobs = lowered_jobs();
    let pool = WorkStealingPool::new();
    let mut group = c.benchmark_group("depth_scheduling");
    for (label, circuit) in &jobs {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("dag_parallel_t{}_{label}", pool.threads())),
            circuit,
            |b, circuit| b.iter(|| DependencyDag::build_on(circuit, &pool).edge_count()),
        );
    }
    group.finish();
}

fn bench_schedule(c: &mut Criterion) {
    let jobs = lowered_jobs();
    let mut group = c.benchmark_group("depth_scheduling");
    for (label, circuit) in &jobs {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("schedule_{label}")),
            circuit,
            |b, circuit| b.iter(|| circuit_depth(&schedule_depth(circuit))),
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

criterion_group!(
    benches,
    bench_dag_sequential,
    bench_dag_parallel,
    bench_schedule,
    bench_pass
);
criterion_main!(benches);
