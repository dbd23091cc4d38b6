//! Criterion bench: inverse-pair cancellation on the fused, lowered
//! k-Toffoli that `cancel-inverse-pairs` receives in the standard flow.
//!
//! The entries keep the `depth_scheduling/` group name of the bench they
//! came from, but run in their own bench binary: timed after the
//! scheduling legs in one process, their figures moved with the heap state
//! those legs left behind, not only with the code timed.
//! `cancel_inverse_pairs` takes its circuit by value, so each iteration
//! clones the workload first.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qudit_core::optimize::cancel_inverse_pairs;
use qudit_core::{Circuit, Dimension};
use qudit_synthesis::{CompileOptions, KToffoli};

/// The k-Toffoli as `cancel-inverse-pairs` receives it in the standard
/// flow (fused, then lowered to elementary gates and to G-gates), and the
/// O1 compile it must cancel to.
fn workload(d: u32, k: usize) -> (Circuit, Circuit) {
    let macro_circuit = KToffoli::new(Dimension::new(d).unwrap(), k)
        .unwrap()
        .synthesize()
        .unwrap()
        .circuit()
        .clone();
    let compiled = CompileOptions::new()
        .compiler()
        .compile(&macro_circuit)
        .unwrap()
        .circuit;
    let fused = qudit_core::fusion::fuse_circuit(macro_circuit).unwrap();
    let elementary = qudit_synthesis::lower::lower_to_elementary(&fused).unwrap();
    let uncancelled = qudit_core::lowering::lower_circuit(&elementary).unwrap();
    (uncancelled, compiled)
}

fn bench_cancel(c: &mut Criterion) {
    let mut group = c.benchmark_group("depth_scheduling");
    // The gate counts the standard flow hands the cancellation stage.
    for (d, k, gates) in [(3, 8, 8_457), (5, 4, 7_303)] {
        let (uncancelled, compiled) = workload(d, k);
        assert_eq!(uncancelled.len(), gates, "d={d}, k={k}");
        assert_eq!(
            cancel_inverse_pairs(uncancelled.clone()),
            compiled,
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

criterion_group!(benches, bench_cancel);
criterion_main!(benches);
