//! Criterion bench: the fused dense engine vs. the scalar reference walk.
//!
//! Workload: dense-path circuits at widths 8–12 (d = 3) mixing fusable
//! same-target classical runs with single-qudit unitaries — the shape the
//! panel kernels target.  Two legs per width:
//!
//! * **scalar** — `StateVector::apply_circuit`, the gate-by-gate reference
//!   walk (one full pass over the register per gate);
//! * **fused** — `FusedProgram`: one pass per fused gate group over
//!   stride-blocked split-complex panels.
//!
//! The engines are exact (`==`-equal) by contract; the bench asserts
//! agreement before timing so a wrong fast path cannot post a good number.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qudit_core::math::{Complex, SquareMatrix};
use qudit_core::{Circuit, Control, Dimension, Gate, QuditId, SingleQuditOp};
use qudit_sim::{FusedProgram, StateVector};

/// A qutrit Fourier matrix — the non-classical ingredient of the workload.
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

/// A dense-path workload over `width` qutrits: per wire a fusable run of
/// classical gates, plus unitaries and controlled shifts that keep the
/// amplitudes genuinely complex.
fn dense_job(width: usize) -> Circuit {
    let dimension = Dimension::new(3).unwrap();
    let mut circuit = Circuit::new(dimension, width);
    for wire in 0..width {
        let target = QuditId::new(wire);
        // A run of three same-target classical gates: fuses 3 → 1 traversal.
        circuit
            .push(Gate::single(SingleQuditOp::Add(1), target))
            .unwrap();
        circuit
            .push(Gate::single(SingleQuditOp::Swap(0, 2), target))
            .unwrap();
        circuit
            .push(Gate::single(SingleQuditOp::Add(2), target))
            .unwrap();
        // A unitary closes the run and spreads amplitude.
        if wire % 2 == 0 {
            circuit
                .push(Gate::single(SingleQuditOp::Unitary(fourier3()), target))
                .unwrap();
        }
        // A controlled shift exercises the control-predicate panels.
        if wire + 1 < width {
            circuit
                .push(Gate::controlled(
                    SingleQuditOp::Add(1),
                    QuditId::new(wire + 1),
                    vec![Control::level(target, 1)],
                ))
                .unwrap();
        }
    }
    circuit
}

fn bench_dense_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("dense_kernels/apply");
    group.sample_size(10);
    for &width in &[8usize, 10, 12] {
        let dimension = Dimension::new(3).unwrap();
        let circuit = dense_job(width);
        let program = FusedProgram::compile(&circuit, width).unwrap();
        assert!(
            program.fused_gates() > 0,
            "workload must exercise fusion (w = {width})"
        );

        // Cross-check once: scalar and fused agree exactly.
        let mut reference = StateVector::new(dimension, width);
        reference.apply_circuit(&circuit).unwrap();
        let mut fused = StateVector::new(dimension, width);
        fused.apply_fused(&program).unwrap();
        assert_eq!(reference.amplitudes(), fused.amplitudes());

        let label = format!("w{width}_g{}", circuit.len());
        group.bench_with_input(
            BenchmarkId::new("scalar", &label),
            &circuit,
            |b, circuit| {
                b.iter(|| {
                    let mut state = StateVector::new(dimension, width);
                    state.apply_circuit(circuit).unwrap();
                    state.norm_sqr()
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("fused", &label), &program, |b, program| {
            b.iter(|| {
                let mut state = StateVector::new(dimension, width);
                state.apply_fused(program).unwrap();
                state.norm_sqr()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dense_kernels);
criterion_main!(benches);
