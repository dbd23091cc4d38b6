//! Criterion bench: the basis-input amplitude path (`simulate_basis`)
//! against the fused dense engine over the whole circuit, on E10/E11-style
//! workloads.
//!
//! The workloads are the compiled k-Toffoli circuits of the experiment
//! sweeps:
//!
//! * **pure classical** (E10-style) — the fully lowered and peephole-
//!   optimised G-gate circuits.  A basis input stays a basis state, so
//!   `simulate_basis` walks every gate on the digit vector while the dense
//!   leg walks all `d^width` amplitudes per fused traversal; the gap widens
//!   exponentially with the register width.
//! * **classical prefix + non-classical suffix** (the `VerifyEquivalence`
//!   situation) — the same circuit with one trailing single-qudit unitary.
//!   `simulate_basis` walks the prefix on the digits and runs only the
//!   final mix dense.
//!
//! * **classical verification** — `VerifyEquivalence` checking the G-gate
//!   lowering of a k = 4 k-Toffoli against its input on a width-6 register,
//!   exhaustively at d = 4 (4 096 states) and on sampled basis states at
//!   d = 5 (15 625 states): the batched basis-state kernel of
//!   `qudit_sim::basis`.
//!
//! Both legs return `==`-equal states; the bench asserts that before timing
//! so a silently wrong fast path cannot post a good number.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qudit_core::math::{Complex, SquareMatrix};
use qudit_core::pipeline::{pass_fn, Pass};
use qudit_core::{Circuit, Dimension, Gate, QuditId, SingleQuditOp};
use qudit_sim::{simulate_basis, FusedProgram, StateVector, VerifyEquivalence};
use qudit_synthesis::{CompileOptions, KToffoli};

/// The compiled (pure classical) G-gate circuit of a `(d=3, k)` k-Toffoli,
/// E10-style: lowered through the standard flow including cancellation.
fn classical_job(k: usize) -> Circuit {
    let dimension = Dimension::new(3).unwrap();
    let synthesis = KToffoli::new(dimension, k).unwrap().synthesize().unwrap();
    CompileOptions::new()
        .compiler()
        .compile(synthesis.circuit())
        .unwrap()
        .circuit
}

/// A qutrit Fourier matrix — the non-classical suffix of the mixed workload.
fn fourier3() -> SquareMatrix {
    let omega = Complex::from_phase(2.0 * std::f64::consts::PI / 3.0);
    let s = 1.0 / 3.0f64.sqrt();
    let mut entries = Vec::new();
    for r in 0..3u32 {
        for c in 0..3u32 {
            let mut w = Complex::ONE;
            for _ in 0..(r * c) {
                w *= omega;
            }
            entries.push(w.scale(s));
        }
    }
    SquareMatrix::from_rows(3, entries).unwrap()
}

/// The fused dense engine over the whole circuit from a basis input.
fn dense(circuit: &Circuit, input: &[u32]) -> StateVector {
    let program = FusedProgram::compile(circuit, input.len()).unwrap();
    let mut state = StateVector::from_basis(circuit.dimension(), input).unwrap();
    state.apply_fused(&program).unwrap();
    state
}

/// Times the `dense` and `simulate` legs on one circuit after checking
/// they agree.
fn bench_legs(group: &mut criterion::BenchmarkGroup<'_>, circuit: &Circuit, label: &str) {
    let zeros = vec![0u32; circuit.width()];
    assert_eq!(
        dense(circuit, &zeros),
        simulate_basis(circuit, &zeros).unwrap(),
        "legs must agree ({label})"
    );
    group.bench_with_input(BenchmarkId::new("dense", label), circuit, |b, circuit| {
        b.iter(|| dense(circuit, &zeros).norm_sqr())
    });
    group.bench_with_input(
        BenchmarkId::new("simulate", label),
        circuit,
        |b, circuit| b.iter(|| simulate_basis(circuit, &zeros).unwrap().norm_sqr()),
    );
}

fn bench_pure_classical(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation_backends/classical");
    group.sample_size(10);
    for &k in &[4usize, 6, 8, 10] {
        let circuit = classical_job(k);
        bench_legs(&mut group, &circuit, &format!("k{k}_w{}", circuit.width()));
    }
    group.finish();
}

fn bench_classical_prefix_with_unitary_suffix(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation_backends/prefix");
    group.sample_size(10);
    for &k in &[4usize, 6, 8] {
        let mut circuit = classical_job(k);
        let width = circuit.width();
        circuit
            .push(Gate::single(
                SingleQuditOp::Unitary(fourier3()),
                QuditId::new(width - 1),
            ))
            .unwrap();
        bench_legs(&mut group, &circuit, &format!("k{k}_w{width}"));
    }
    group.finish();
}

fn bench_dense_engine_reference(c: &mut Criterion) {
    // The scalar reference walk, as a sanity reference for the fused
    // engine.
    let mut group = c.benchmark_group("simulation_backends/dense_reference");
    group.sample_size(10);
    for &k in &[4usize, 6] {
        let circuit = classical_job(k);
        let dimension = circuit.dimension();
        let width = circuit.width();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("k{k}_w{width}")),
            &circuit,
            |b, circuit| {
                b.iter(|| {
                    let mut state = StateVector::new(dimension, width);
                    state.apply_circuit(circuit).unwrap();
                    state.norm_sqr()
                })
            },
        );
    }
    group.finish();
}

fn bench_verify_classical(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation_backends/verify_classical");
    group.sample_size(10);
    for (label, d) in [("exhaustive_d4_w6", 4u32), ("sampled_d5_w6", 5)] {
        let dimension = Dimension::new(d).unwrap();
        let synthesis = KToffoli::new(dimension, 4).unwrap().synthesize().unwrap();
        let input = synthesis.circuit().widened(6).unwrap();
        let lowered = CompileOptions::new()
            .compiler()
            .compile(&input)
            .unwrap()
            .circuit;
        // The wrapped pass replays the precomputed lowering, so the timing
        // is the equivalence check plus one circuit clone.
        let replay = lowered.clone();
        let verified =
            VerifyEquivalence::wrap(Box::new(pass_fn("lowered", move |_| Ok(replay.clone()))));
        assert_eq!(verified.run(input.clone()).unwrap(), lowered);
        group.bench_with_input(BenchmarkId::from_parameter(label), &input, |b, input| {
            b.iter(|| verified.run(input.clone()).unwrap().len())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_pure_classical,
    bench_classical_prefix_with_unitary_suffix,
    bench_dense_engine_reference,
    bench_verify_classical
);
criterion_main!(benches);
