//! Criterion bench: the text-IR front end (print, parse, compile-from-source).
//!
//! Three legs over a parsed corpus of printed random dialect circuits, and
//! one at reply scale:
//!
//! * `print` — `Circuit` → canonical text;
//! * `parse` — text → `Circuit` (lexer + parser + semantic lowering);
//! * `compile_source` — text → the full `O1` facade flow on a classical
//!   workload, i.e. the end-to-end "job file in, verified circuit out" path;
//! * `print_mct_o2` — the 11 `O2` k-Toffoli outputs the compile service
//!   returns on the `serve_mct` family (about 52k G-gates, 1.1 MB of text),
//!   printed once per iteration; the bench also reports the rate in MB/s.
//!
//! Before any timing, the bench *asserts* the exact round trip on every
//! corpus member, so a broken printer/parser pair fails the smoke run
//! outright rather than producing fast nonsense numbers.

use std::hint::black_box;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qudit_core::qasm::{parse_source, print_circuit};
use qudit_core::{Circuit, Dimension};
use qudit_sim::random::{random_classical_dialect_circuit, random_dialect_circuit};
use qudit_synthesis::{CompileOptions, Compiler, KToffoli, OptLevel};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The timed corpus: printed random circuits over the full repertoire
/// (matrix-heavy: unitary literals dominate the byte count) plus a
/// classical-only corpus that can ride the whole compile pipeline.
///
/// Some random classical circuits legitimately fail to compile (the
/// paper's multi-control synthesis needs d ≥ 4 at d = 2, and even
/// dimensions need a free borrowed-ancilla wire), so the classical corpus
/// walks a deterministic seed sequence and keeps the first compilable
/// draw per dimension.
fn corpus() -> (Vec<String>, Vec<String>) {
    let mut rng = StdRng::seed_from_u64(0xDAC23);
    let mut full = Vec::new();
    for d in [2u32, 3, 5] {
        let dimension = Dimension::new(d).unwrap();
        full.push(print_circuit(&random_dialect_circuit(
            dimension, 4, 24, &mut rng,
        )));
    }
    let compiler: Compiler = CompileOptions::new().opt_level(OptLevel::O1).compiler();
    let mut classical = Vec::new();
    for d in [3u32, 4, 5] {
        let dimension = Dimension::new(d).unwrap();
        let source = (0u64..)
            .find_map(|offset| {
                let mut rng = StdRng::seed_from_u64(0xDAC23 + offset);
                let circuit = random_classical_dialect_circuit(dimension, 5, 16, &mut rng);
                let printed = print_circuit(&circuit);
                compiler.compile_source(&printed).ok().map(|_| printed)
            })
            .expect("some classical draw compiles");
        classical.push(source);
    }
    (full, classical)
}

/// The `O2` compile of the `serve_mct` family: d ∈ {3, 4} × k ∈ {4, …, 8}
/// and d = 5, k = 4.
fn mct_o2_outputs() -> Vec<Circuit> {
    let compiler: Compiler = CompileOptions::new().opt_level(OptLevel::O2).compiler();
    let family = [3u32, 4]
        .into_iter()
        .flat_map(|d| (4..=8).map(move |k| (d, k)))
        .chain([(5, 4)]);
    family
        .map(|(d, k)| {
            let dimension = Dimension::new(d).unwrap();
            let synthesis = KToffoli::new(dimension, k).unwrap().synthesize().unwrap();
            compiler.compile(synthesis.circuit()).unwrap().circuit
        })
        .collect()
}

fn assert_round_trips(sources: &[String]) {
    for source in sources {
        let circuit: Circuit = parse_source(source).expect("corpus member must parse");
        assert_eq!(
            print_circuit(&circuit),
            *source,
            "corpus member does not round trip"
        );
    }
}

fn bench_frontend(c: &mut Criterion) {
    let (full, classical) = corpus();
    assert_round_trips(&full);
    assert_round_trips(&classical);
    let circuits: Vec<Circuit> = full.iter().map(|s| parse_source(s).unwrap()).collect();
    let total_bytes: usize = full.iter().map(String::len).sum();

    let mut group = c.benchmark_group("qasm_frontend");
    group.bench_with_input(
        BenchmarkId::from_parameter("print"),
        &circuits,
        |b, circuits| {
            b.iter(|| {
                circuits
                    .iter()
                    .map(|c| black_box(print_circuit(c)).len())
                    .sum::<usize>()
            })
        },
    );
    group.bench_with_input(BenchmarkId::from_parameter("parse"), &full, |b, full| {
        b.iter(|| {
            full.iter()
                .map(|s| black_box(parse_source(s).unwrap()).len())
                .sum::<usize>()
        })
    });
    println!("bench: qasm_frontend/parse: corpus of {total_bytes} source bytes");

    let compiler: Compiler = CompileOptions::new().opt_level(OptLevel::O1).compiler();
    group.bench_with_input(
        BenchmarkId::from_parameter("compile_source"),
        &classical,
        |b, classical| {
            b.iter(|| {
                classical
                    .iter()
                    .map(|s| compiler.compile_source(s).unwrap().circuit.len())
                    .sum::<usize>()
            })
        },
    );

    let outputs = mct_o2_outputs();
    let bytes: usize = outputs.iter().map(|c| print_circuit(c).len()).sum();
    let (mut elapsed, mut runs) = (Duration::ZERO, 0u32);
    group.bench_with_input(
        BenchmarkId::from_parameter("print_mct_o2"),
        &outputs,
        |b, outputs| {
            b.iter(|| {
                let started = Instant::now();
                let printed = outputs
                    .iter()
                    .map(|c| black_box(print_circuit(c)).len())
                    .sum::<usize>();
                elapsed += started.elapsed();
                runs += 1;
                printed
            })
        },
    );
    let mb_per_s = (bytes as f64 * f64::from(runs)) / elapsed.as_secs_f64() / 1e6;
    println!("bench: qasm_frontend/print_mct_o2: {bytes} bytes per iteration, {mb_per_s:.0} MB/s");
    group.finish();
}

criterion_group!(benches, bench_frontend);
criterion_main!(benches);
