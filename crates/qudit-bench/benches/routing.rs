//! Criterion bench: the connectivity router on the stock topologies.
//!
//! Routes a deterministic long-range classical workload (strided
//! value-controlled shifts, so most gates start uncoupled) onto a linear
//! chain, a 2-row grid and a heavy-hex lattice at widths 6–12, timing the
//! full pipeline of greedy placement, lookahead SWAP-ladder insertion and
//! the inverse-permutation epilogue.  Each iteration clones the workload,
//! because `route_circuit` takes its circuit by value.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qudit_core::route::{route_circuit, NoiseAwareCost, UniformCost};
use qudit_core::topology::CouplingGraph;
use qudit_core::{Circuit, Dimension, Gate, QuditId};

/// A width-`w` classical circuit whose two-qudit gates stride across the
/// register — the adversarial case for nearest-neighbour topologies.
fn strided_workload(width: usize) -> Circuit {
    let dimension = Dimension::new(3).unwrap();
    let mut circuit = Circuit::new(dimension, width);
    for stride in 1..=3usize {
        for wire in 0..width {
            let partner = (wire + stride) % width;
            if partner == wire {
                continue;
            }
            circuit
                .push(Gate::add_from(
                    QuditId::new(wire),
                    stride % 2 == 0,
                    QuditId::new(partner),
                    vec![],
                ))
                .unwrap();
        }
    }
    circuit
}

/// The three stock topologies of the sweep, each with `sites >= width`.
fn topologies(width: usize) -> Vec<(&'static str, CouplingGraph)> {
    vec![
        ("linear", CouplingGraph::linear(width).unwrap()),
        ("grid", CouplingGraph::grid(2, width.div_ceil(2)).unwrap()),
        (
            "heavy_hex",
            CouplingGraph::heavy_hex(2, width.div_ceil(2).max(3)).unwrap(),
        ),
    ]
}

fn bench_route(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing");
    for width in [6usize, 8, 10, 12] {
        let circuit = strided_workload(width);
        for (label, graph) in topologies(width) {
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("{label}_w{width}")),
                &circuit,
                |b, circuit| {
                    b.iter(|| {
                        route_circuit(circuit.clone(), &graph, &UniformCost)
                            .unwrap()
                            .len()
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_route_noise_aware(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing");
    let cost = NoiseAwareCost::default();
    for width in [6usize, 12] {
        let circuit = strided_workload(width);
        let graph = CouplingGraph::linear(width).unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("noise_aware_linear_w{width}")),
            &circuit,
            |b, circuit| b.iter(|| route_circuit(circuit.clone(), &graph, &cost).unwrap().len()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_route, bench_route_noise_aware);
criterion_main!(benches);
