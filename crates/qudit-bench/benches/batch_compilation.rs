//! Criterion bench: batch compilation of the k-Toffoli sweep — sequential
//! vs. parallel (`Compiler::compile_batch`).
//!
//! The workload is the E11-style sweep: the macro circuits of several
//! `(d, k)` k-Toffoli syntheses, compiled through the full standard flow
//! (lower-to-elementary → lower-to-g-gates → cancel-inverse-pairs) as
//! configured by `CompileOptions`.  The parallel legs pin a 4-worker pool
//! (`Threads::Fixed(4)`), so each entry names the same configuration on
//! every host.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qudit_core::{Circuit, Dimension};
use qudit_synthesis::{CompileOptions, KToffoli, Threads};

/// The benchmark's compilation jobs: one macro circuit per `(d, k)`.
fn jobs() -> Vec<Circuit> {
    let mut out = Vec::new();
    for &d in &[3u32, 4] {
        for &k in &[4usize, 8, 16] {
            let dimension = Dimension::new(d).unwrap();
            out.push(
                KToffoli::new(dimension, k)
                    .unwrap()
                    .synthesize()
                    .unwrap()
                    .circuit()
                    .clone(),
            );
        }
    }
    out
}

/// Worker count of the parallel legs, fixed so the entries do not depend on
/// the host's core count.
const BATCH_THREADS: Threads = Threads::Fixed(4);

fn bench_sequential(c: &mut Criterion) {
    let jobs = jobs();
    // One compiler covers the whole heterogeneous sweep.
    let compiler = CompileOptions::new().compiler();
    let mut group = c.benchmark_group("batch_compilation");
    group.bench_with_input(
        BenchmarkId::from_parameter("sequential"),
        &jobs,
        |b, jobs| {
            b.iter(|| {
                jobs.iter()
                    .map(|job| compiler.compile(job).unwrap().circuit.len())
                    .sum::<usize>()
            })
        },
    );
    group.finish();
}

fn bench_parallel(c: &mut Criterion) {
    let jobs = jobs();
    let compiler = CompileOptions::new().threads(BATCH_THREADS).compiler();
    let mut group = c.benchmark_group("batch_compilation");
    group.bench_with_input(BenchmarkId::from_parameter("parallel"), &jobs, |b, jobs| {
        b.iter(|| {
            compiler
                .compile_batch(jobs)
                .unwrap()
                .circuits()
                .map(Circuit::len)
                .sum::<usize>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sequential, bench_parallel);
criterion_main!(benches);
