//! End-to-end suite for the commutation-aware depth scheduler:
//!
//! * property-based: scheduled circuits are equivalent to their inputs on
//!   every simulation backend (`Dense`, `Sparse`, `Auto`), scheduling is
//!   idempotent, never increases depth, and the fused scan matches the
//!   explicit-DAG reference `schedule_over` (the CI thread matrix
//!   additionally runs this whole suite under `QUDIT_THREADS=1` and `=4`);
//! * regression: on the E10 k-Toffoli family, `ScheduleDepth` never
//!   increases `circuit_depth`, and golden depth values pin a few fixed
//!   `(d, k)` points so future passes cannot silently regress depth;
//! * verification: the fully `VerifyEquivalence`-wrapped scheduled pipeline
//!   accepts every circuit of the E10 sweep — each stage, including the
//!   scheduler, is re-simulated and checked.

use proptest::prelude::*;
use qudit_core::commute::{schedule_depth, schedule_over, DependencyDag};
use qudit_core::depth::circuit_depth;
use qudit_core::{Circuit, Dimension, Gate, QuditId, SingleQuditOp};
use qudit_sim::circuit_permutation;
use qudit_sim::equivalence::{verify_mct_sampled, MctSpec};
use qudit_sim::sparse::{circuit_unitary_with, SimBackend};
use qudit_synthesis::{emit_multi_controlled, CompileOptions, Compiler, KToffoli, Verify};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The standard-flow compiler pinned to one register shape.
fn standard_compiler(dimension: Dimension, width: usize) -> Compiler {
    CompileOptions::new().shape(dimension, width).compiler()
}

/// Builds a circuit of multi-controlled gates over `width` qudits (one
/// spare wire is reserved as the borrowed pool for even `d`) — the same
/// workload family as the pipeline proptests.
fn build_mct_circuit(dimension: Dimension, specs: &[(usize, usize, u8, u32, u32)]) -> Circuit {
    let d = dimension.get();
    let max_controls = specs.iter().map(|s| s.0).max().expect("non-empty specs");
    let width = max_controls + 2;
    let mut circuit = Circuit::new(dimension, width);
    for &(k, target_offset, op_kind, shift, level_seed) in specs {
        let op = match op_kind % 3 {
            0 => SingleQuditOp::Swap(0, 1 + shift % (d - 1)),
            1 => SingleQuditOp::Add(1 + shift % (d - 1)),
            _ => SingleQuditOp::Swap(shift % d, (shift + 1) % d),
        };
        let target = QuditId::new(k + (target_offset % (width - k)));
        let controls: Vec<(QuditId, u32)> = (0..k)
            .map(|i| (QuditId::new(i), (level_seed.wrapping_add(i as u32 * 7)) % d))
            .collect();
        let pool: Vec<QuditId> = (0..width)
            .map(QuditId::new)
            .filter(|q| *q != target && !controls.iter().any(|(c, _)| c == q))
            .collect();
        emit_multi_controlled(&mut circuit, &controls, target, &op, &pool)
            .expect("multi-controlled emission succeeds for valid specs");
    }
    circuit
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Scheduling preserves the circuit's operator on every backend, never
    /// increases the measured depth, is idempotent, and is identical to the
    /// explicit-DAG reference schedule.
    #[test]
    fn scheduling_preserves_semantics_on_every_backend(
        d in 3u32..=4,
        specs in prop::collection::vec((1usize..=2, 0usize..4, 0u8..3, 0u32..8, 0u32..8), 1..3),
    ) {
        let dimension = Dimension::new(d).unwrap();
        let circuit = build_mct_circuit(dimension, &specs);
        // Schedule the fully lowered circuit — the form the pipeline
        // schedules, and the one with reordering freedom.
        let lowered = standard_compiler(dimension, circuit.width())
            .compile(&circuit)
            .unwrap()
            .circuit;
        let scheduled = schedule_depth(&lowered);

        // Same gate multiset, never deeper, and the same permutation.
        prop_assert_eq!(scheduled.len(), lowered.len());
        prop_assert!(circuit_depth(&scheduled) <= circuit_depth(&lowered));
        prop_assert_eq!(
            circuit_permutation(&lowered).unwrap(),
            circuit_permutation(&scheduled).unwrap()
        );
        // Unitary equivalence on every simulation backend.
        for backend in [SimBackend::Dense, SimBackend::Sparse, SimBackend::Auto] {
            let before = circuit_unitary_with(&lowered, backend).unwrap();
            let after = circuit_unitary_with(&scheduled, backend).unwrap();
            prop_assert!(
                before.approx_eq(&after, 1e-12),
                "backend {} disagrees after scheduling", backend
            );
        }
        // Idempotence: a second run changes nothing.
        prop_assert_eq!(schedule_depth(&scheduled), scheduled.clone());
        // The fused scan reproduces the explicit-DAG reference exactly.
        prop_assert_eq!(
            &schedule_over(&lowered, &DependencyDag::build(&lowered)).circuit,
            &scheduled
        );
    }

    /// The scheduled standard pipeline (the opt-in preset) produces a
    /// circuit equivalent to the unscheduled one, at no more depth.
    #[test]
    fn scheduled_preset_matches_standard_semantics(
        d in 3u32..=4,
        specs in prop::collection::vec((1usize..=2, 0usize..4, 0u8..3, 0u32..8, 0u32..8), 1..2),
    ) {
        let dimension = Dimension::new(d).unwrap();
        let circuit = build_mct_circuit(dimension, &specs);
        let plain = standard_compiler(dimension, circuit.width())
            .compile(&circuit)
            .unwrap()
            .circuit;
        let report = CompileOptions::new()
            .schedule(true)
            .shape(dimension, circuit.width())
            .compiler()
            .compile(&circuit)
            .unwrap();
        prop_assert_eq!(
            circuit_permutation(&plain).unwrap(),
            circuit_permutation(&report.circuit).unwrap()
        );
        let schedule_stats = report.stats.last().unwrap();
        prop_assert_eq!(schedule_stats.pass.as_str(), "schedule-depth");
        prop_assert!(schedule_stats.after.depth <= schedule_stats.before.depth);
        prop_assert_eq!(circuit_depth(&report.circuit), schedule_stats.after.depth);
    }
}

/// Golden depths of the E10 k-Toffoli family: `(d, k, depth before
/// scheduling, depth after scheduling)` of the standard flow's output.
///
/// The "after" values pin the scheduler's achieved depth so a future pass
/// (or an oracle/scheduler change) cannot silently regress it; loosening
/// them is fine when the new value is *smaller*.
const GOLDEN_DEPTHS: &[(u32, usize, usize, usize)] = &[
    (3, 3, 556, 554),
    (3, 4, 1592, 1582),
    (3, 6, 5604, 5402),
    (4, 3, 466, 434),
    (4, 4, 1625, 1513),
    (4, 6, 4600, 4288),
];

#[test]
fn e10_family_depths_match_the_golden_values() {
    for &(d, k, depth_before, depth_after) in GOLDEN_DEPTHS {
        let dimension = Dimension::new(d).unwrap();
        let synthesis = KToffoli::new(dimension, k).unwrap().synthesize().unwrap();
        let width = synthesis.layout().width;
        let plain = standard_compiler(dimension, width)
            .compile(synthesis.circuit())
            .unwrap()
            .circuit;
        assert_eq!(
            circuit_depth(&plain),
            depth_before,
            "unscheduled depth moved for d={d}, k={k}"
        );
        let scheduled = schedule_depth(&plain);
        assert_eq!(
            circuit_depth(&scheduled),
            depth_after,
            "scheduled depth moved for d={d}, k={k}"
        );
        assert!(depth_after <= depth_before);
    }
}

#[test]
fn schedule_never_increases_depth_on_the_e10_family() {
    // The full quick-scale E10 sweep, one assertion per point, plus
    // idempotence of the pass on real workloads.
    for (d, k) in qudit_bench::experiments::e10_sweep(qudit_bench::experiments::Scale::Quick) {
        let dimension = Dimension::new(d).unwrap();
        let synthesis = KToffoli::new(dimension, k).unwrap().synthesize().unwrap();
        let width = synthesis.layout().width;
        let plain = standard_compiler(dimension, width)
            .compile(synthesis.circuit())
            .unwrap()
            .circuit;
        let scheduled = schedule_depth(&plain);
        assert!(
            circuit_depth(&scheduled) <= circuit_depth(&plain),
            "scheduling deepened d={d}, k={k}"
        );
        assert_eq!(
            schedule_depth(&scheduled),
            scheduled,
            "scheduling is not idempotent on d={d}, k={k}"
        );
    }
}

#[test]
fn verified_scheduled_pipeline_accepts_the_e10_sweep() {
    // Every stage (including schedule-depth) re-simulates its input and
    // output under VerifyEquivalence; the scheduled output additionally
    // still implements the k-Toffoli specification.
    for (d, k) in qudit_bench::experiments::e10_sweep(qudit_bench::experiments::Scale::Quick) {
        let dimension = Dimension::new(d).unwrap();
        let synthesis = KToffoli::new(dimension, k).unwrap().synthesize().unwrap();
        let width = synthesis.layout().width;
        let report = CompileOptions::new()
            .schedule(true)
            .verify(Verify::Exhaustive)
            .shape(dimension, width)
            .compiler()
            .compile(synthesis.circuit())
            .unwrap_or_else(|e| panic!("verification failed for d={d}, k={k}: {e}"));
        assert!(report.verification.is_verified());
        assert!(report.circuit.gates().iter().all(Gate::is_g_gate));
        assert_eq!(report.stats.last().unwrap().pass, "verify(schedule-depth)");

        let spec = MctSpec::toffoli(
            synthesis.layout().controls.clone(),
            synthesis.layout().target,
        );
        let mut rng = StdRng::seed_from_u64(11);
        assert!(
            verify_mct_sampled(&report.circuit, &spec, 50, &mut rng)
                .unwrap()
                .is_pass(),
            "scheduled circuit no longer implements the Toffoli for d={d}, k={k}"
        );
    }
}
