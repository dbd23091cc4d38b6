//! End-to-end suite for the `Compiler` / `CompileOptions` facade:
//!
//! * knob coverage: every combination of opt level, verification mode and
//!   thread count assembles, and the assembled pass list is exactly the one
//!   the opt level selects;
//! * property-based round-trip: random mixed multi-controlled circuits
//!   compile and verify under `Verify::Exhaustive` (the CI thread matrix
//!   additionally runs the whole suite under `QUDIT_THREADS=1` and `=4`).

mod common;

use common::build_mct_circuit;
use proptest::prelude::*;
use qudit_core::pool::WorkStealingPool;
use qudit_core::{Dimension, Gate};
use qudit_synthesis::{CompileOptions, KToffoli, OptLevel, Threads, Verify};

fn dim(d: u32) -> Dimension {
    Dimension::new(d).unwrap()
}

/// Every combination of opt level, verification mode and thread count
/// assembles, and the assembled pass list is exactly the one the opt level
/// selects.
#[test]
fn every_knob_combination_assembles() {
    let levels = [OptLevel::O0, OptLevel::O1, OptLevel::O2];
    let verifies = [Verify::Off, Verify::Exhaustive];
    let threads = [Threads::Auto, Threads::Fixed(1), Threads::Fixed(4)];
    let mut combinations = 0usize;
    for level in levels {
        for verify in verifies {
            for thread in threads {
                let options = CompileOptions::new()
                    .opt_level(level)
                    .verify(verify)
                    .threads(thread);
                let manager = options.build_manager();

                let expected: &[&str] = match level {
                    OptLevel::O0 => &["lower-to-elementary", "lower-to-g-gates"],
                    OptLevel::O1 => &[
                        "gate-fusion",
                        "lower-to-elementary",
                        "lower-to-g-gates",
                        "cancel-inverse-pairs",
                    ],
                    OptLevel::O2 => &[
                        "gate-fusion",
                        "lower-to-elementary",
                        "lower-to-g-gates",
                        "cancel-inverse-pairs",
                        "schedule-depth",
                    ],
                };
                let expected: Vec<String> = expected
                    .iter()
                    .map(|stage| match verify {
                        Verify::Off => stage.to_string(),
                        Verify::Exhaustive => format!("verify({stage})"),
                    })
                    .collect();
                assert_eq!(manager.pass_names(), expected, "{options:?}");
                combinations += 1;
            }
        }
    }
    assert_eq!(combinations, 3 * 2 * 3);
}

/// The pinned pool reaches the batch: the job is the unit of parallelism,
/// so `Fixed(4)` and the `pool` alias fan `compile_batch` out while every
/// exhaustively verified job runs sequentially inside its worker, with
/// verdicts and outputs equal to a single `compile`.  Of `threads` and
/// `pool`, the last setter wins.
#[test]
fn pinned_pools_reach_the_verification_sweep() {
    // d=4, k=4 → width 6, 4^6 = 4096 basis states, within the exhaustive
    // bound.
    let synthesis = KToffoli::new(dim(4), 4).unwrap().synthesize().unwrap();
    let jobs = vec![synthesis.circuit().clone(); 4];
    let reference = CompileOptions::new()
        .verify(Verify::Exhaustive)
        .compiler()
        .compile(synthesis.circuit())
        .unwrap();
    assert!(reference.verification.is_verified());
    let options = [
        CompileOptions::new().threads(Threads::Fixed(1)),
        CompileOptions::new().threads(Threads::Fixed(4)),
        CompileOptions::new().pool(WorkStealingPool::with_threads(4)),
        CompileOptions::new()
            .threads(Threads::Fixed(2))
            .pool(WorkStealingPool::with_threads(4)),
        CompileOptions::new()
            .pool(WorkStealingPool::with_threads(4))
            .threads(Threads::Fixed(2)),
    ];
    for (options, threads) in options.into_iter().zip([1, 4, 4, 4, 2]) {
        let compiler = options.verify(Verify::Exhaustive).compiler();
        assert_eq!(
            compiler.manager().pool().map(|p| p.threads()),
            Some(threads)
        );
        let batch = compiler.compile_batch(&jobs).unwrap();
        assert!(batch.is_verified(), "{threads} threads");
        for result in &batch.results {
            assert_eq!(result.circuit, reference.circuit, "{threads} threads");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random mixed circuits compile under `Verify::Exhaustive` with a
    /// verified verdict.
    #[test]
    fn options_round_trip_on_random_mixed_circuits(
        d in 3u32..=4,
        specs in prop::collection::vec((1usize..=2, 0usize..4, 0u8..3, 0u32..8, 0u32..8), 1..3),
        level in prop::sample::select(vec![OptLevel::O1, OptLevel::O2]),
    ) {
        let dimension = Dimension::new(d).unwrap();
        let circuit = build_mct_circuit(dimension, &specs);
        let compiler = CompileOptions::new()
            .verify(Verify::Exhaustive)
            .opt_level(level)
            .compiler();
        let result = compiler.compile(&circuit).unwrap();
        prop_assert!(result.verification.is_verified());
        prop_assert!(result.circuit.gates().iter().all(Gate::is_g_gate));
        prop_assert_eq!(
            result.depth,
            qudit_core::depth::circuit_depth(&result.circuit)
        );
    }

    /// Re-compiling compiled output is monotone at every opt level (fusion
    /// runs *before* lowering, so a re-compile may legitimately fuse runs
    /// inside freshly re-lowered gadget interiors — but never grow the
    /// circuit), and the lowering-only flow (`O0`) is a strict fixpoint on
    /// every level's output.
    #[test]
    fn compilation_is_idempotent_per_opt_level(
        d in 3u32..=4,
        specs in prop::collection::vec((1usize..=2, 0usize..4, 0u8..3, 0u32..8, 0u32..8), 1..2),
        level in prop::sample::select(vec![OptLevel::O0, OptLevel::O1, OptLevel::O2]),
    ) {
        let dimension = Dimension::new(d).unwrap();
        let circuit = build_mct_circuit(dimension, &specs);

        let compiler = CompileOptions::new().opt_level(level).compiler();
        let once = compiler.compile(&circuit).unwrap().circuit;
        let twice = compiler.compile(&once).unwrap().circuit;
        prop_assert!(twice.len() <= once.len(), "re-compile grew the circuit");

        let lowering = CompileOptions::new().opt_level(OptLevel::O0).compiler();
        let relowered = lowering.compile(&once).unwrap().circuit;
        prop_assert_eq!(relowered, once);
    }
}

/// The `serve_mct` family (d ∈ {3, 4} × k ∈ {4, …, 8}, and d = 5, k = 4)
/// and the `sweep_verified` family.
const SERVED_AND_SWEPT: [(u32, usize); 18] = [
    (3, 4),
    (3, 5),
    (3, 6),
    (3, 7),
    (3, 8),
    (4, 4),
    (4, 5),
    (4, 6),
    (4, 7),
    (4, 8),
    (5, 4),
    (3, 3),
    (3, 4),
    (3, 5),
    (4, 3),
    (4, 4),
    (5, 3),
    (5, 4),
];

/// `CompileResult::depth` is the one depth walk of a compile: it equals a
/// fresh walk of the compiled circuit at every opt level, unrouted and
/// routed on a chain of six sites (or of the job's width, when wider).
#[test]
fn the_reported_depth_is_the_compiled_circuits_depth() {
    use qudit_core::depth::circuit_depth;
    use qudit_core::topology::CouplingGraph;

    for (d, k) in SERVED_AND_SWEPT {
        let synthesis = KToffoli::new(dim(d), k).unwrap().synthesize().unwrap();
        let chain = CouplingGraph::linear(synthesis.layout().width.max(6)).unwrap();
        for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
            let unrouted = CompileOptions::new().opt_level(level);
            for options in [unrouted.clone(), unrouted.topology(chain.clone())] {
                let result = options.compiler().compile(synthesis.circuit()).unwrap();
                assert_eq!(
                    result.depth,
                    circuit_depth(&result.circuit),
                    "d={d} k={k} {level:?}, routed: {}",
                    result.swap_count.is_some()
                );
            }
        }
    }
}
