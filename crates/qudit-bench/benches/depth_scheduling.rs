//! Criterion bench: commutation-aware depth scheduling on the lowered
//! E10-style k-Toffoli sweep, and the inverse-pair cancellation before it.
//!
//! Two timings per workload: the fused `schedule_depth` scan and the
//! `ScheduleDepth` pass around it.  The scan is one sequential walk
//! over a run-merged wire history with a running-maximum early exit per
//! wire; it never builds the DAG.  The workload is the optimised G-gate
//! circuits of the standard flow — exactly what the scheduled pipeline
//! hands the scheduler.  `schedule_d5_k4` adds the d = 5 job of the O2
//! family, and `schedule_distinct_perms` a 20k-gate circuit of
//! all-distinct permutations, where the history never merges.  The
//! `cancel_*` entries time `cancel_inverse_pairs` on the fused, lowered
//! k-Toffoli it receives in the standard flow.  Both functions take their
//! circuit by value, so each iteration clones the workload first.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qudit_core::commute::schedule_depth;
use qudit_core::depth::circuit_depth;
use qudit_core::optimize::cancel_inverse_pairs;
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

/// The k-Toffoli as `cancel-inverse-pairs` receives it in the standard
/// flow: fused, then lowered to elementary gates and to G-gates.
fn uncancelled_ktoffoli(d: u32, k: usize) -> Circuit {
    let fused = qudit_core::fusion::fuse_circuit(ktoffoli_macro(d, k)).unwrap();
    let elementary = qudit_synthesis::lower::lower_to_elementary(&fused).unwrap();
    qudit_core::lowering::lower_circuit(&elementary).unwrap()
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

fn bench_cancel(c: &mut Criterion) {
    let mut group = c.benchmark_group("depth_scheduling");
    // The gate counts the standard flow hands the cancellation stage.
    for (d, k, gates) in [(3, 8, 8_457), (5, 4, 7_303)] {
        let uncancelled = uncancelled_ktoffoli(d, k);
        assert_eq!(uncancelled.len(), gates, "d={d}, k={k}");
        assert_eq!(
            cancel_inverse_pairs(uncancelled.clone()),
            ktoffoli(CompileOptions::new(), d, k),
            "the stage chain plus cancellation is the O1 compile (d={d}, k={k})"
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("cancel_d{d}_k{k}")),
            &uncancelled,
            |b, circuit| b.iter(|| cancel_inverse_pairs(circuit.clone()).len()),
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

criterion_group!(benches, bench_schedule, bench_pass, bench_cancel);
criterion_main!(benches);
