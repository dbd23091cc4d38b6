//! Criterion bench: simulation throughput of synthesised circuits
//! (single basis-state propagation and state-vector simulation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qudit_core::Dimension;
use qudit_sim::StateVector;
use qudit_synthesis::KToffoli;

fn bench_permutation_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("permutation_simulation");
    group.sample_size(20);
    let dimension = Dimension::new(3).unwrap();
    for &k in &[4usize, 8] {
        let synthesis = KToffoli::new(dimension, k).unwrap().synthesize().unwrap();
        let circuit = synthesis.g_gate_circuit().unwrap();
        group.bench_with_input(BenchmarkId::new("g_circuit_single_input", k), &k, |b, _| {
            let zeros = vec![0; circuit.width()];
            b.iter(|| circuit.apply_to_basis(&zeros).unwrap()[k])
        });
    }
    group.finish();
}

fn bench_statevector_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("statevector_simulation");
    let dimension = Dimension::new(3).unwrap();
    for &k in &[3usize, 5] {
        let synthesis = KToffoli::new(dimension, k).unwrap().synthesize().unwrap();
        let circuit = synthesis.circuit().clone();
        group.bench_with_input(BenchmarkId::new("macro_circuit", k), &k, |b, _| {
            b.iter(|| {
                let mut state = StateVector::new(dimension, circuit.width());
                state.apply_circuit(&circuit).unwrap();
                state.norm_sqr()
            })
        });
    }
    group.finish();
}

fn bench_circuit_unitary(c: &mut Criterion) {
    // Dense workload: the full-unitary extraction used by the equivalence
    // checkers applies the circuit to every basis state.
    let mut group = c.benchmark_group("circuit_unitary");
    group.sample_size(10);
    let dimension = Dimension::new(3).unwrap();
    for &k in &[2usize, 3] {
        let synthesis = KToffoli::new(dimension, k).unwrap().synthesize().unwrap();
        let circuit = synthesis.g_gate_circuit().unwrap();
        group.bench_with_input(BenchmarkId::new("g_circuit", k), &k, |b, _| {
            b.iter(|| qudit_sim::circuit_unitary(&circuit).unwrap().size())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_permutation_simulation,
    bench_statevector_simulation,
    bench_circuit_unitary
);
criterion_main!(benches);
