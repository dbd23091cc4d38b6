//! End-to-end suite for the commutation-aware depth scheduler:
//!
//! * property-based: scheduled circuits are equivalent to their inputs (as
//!   permutations and as unitaries), scheduling is idempotent, never
//!   increases depth, and the fused scan matches the explicit-DAG reference
//!   `schedule_over` of `tests/common/dag.rs` (the CI thread matrix
//!   additionally runs this whole suite under `QUDIT_THREADS=1` and `=4`);
//! * regression: on the E10 k-Toffoli family, `ScheduleDepth` never
//!   increases `circuit_depth`, and golden depth values pin a few fixed
//!   `(d, k)` points so future passes cannot silently regress depth;
//! * reference: the DAG holds exactly the non-commuting earlier gates, and
//!   the fused scan equals `schedule_over` on the O2 k-Toffoli family, on
//!   seeded random circuits over the full gate dialect, on seeded circuits
//!   of all-distinct operations (where no two gates share a wire signature,
//!   so the history never merges) and on a merged run of readers behind a
//!   first-fit hole;
//! * verification: the fully `VerifyEquivalence`-wrapped scheduled pipeline
//!   accepts every circuit of the E10 sweep — each stage, including the
//!   scheduler, is re-simulated and checked.

mod common;
#[path = "common/dag.rs"]
mod dag;

use common::build_mct_circuit;
use dag::{schedule_over, DependencyDag};
use proptest::prelude::*;
use qudit_core::commute::{gates_commute, schedule_depth};
use qudit_core::depth::circuit_depth;
use qudit_core::{Circuit, Control, Dimension, Gate, Permutation, QuditId, SingleQuditOp};
use qudit_sim::equivalence::{verify_mct_sampled, MctSpec};
use qudit_sim::random::random_dialect_circuit;
use qudit_sim::{circuit_permutation, circuit_unitary};
use qudit_synthesis::{CompileOptions, CompileResult, KToffoli, OptLevel, Verify};
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Scheduling preserves the circuit's operator (permutation and unitary), never
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
        let lowered = CompileOptions::new().compiler()
            .compile(&circuit)
            .unwrap()
            .circuit;
        let scheduled = schedule_depth(lowered.clone());

        // Same gate multiset, never deeper, and the same permutation.
        prop_assert_eq!(scheduled.len(), lowered.len());
        prop_assert!(circuit_depth(&scheduled) <= circuit_depth(&lowered));
        prop_assert_eq!(
            circuit_permutation(&lowered).unwrap(),
            circuit_permutation(&scheduled).unwrap()
        );
        // Unitary equivalence.
        let before = circuit_unitary(&lowered).unwrap();
        let after = circuit_unitary(&scheduled).unwrap();
        prop_assert!(before.approx_eq(&after, 1e-12), "unitary changed by scheduling");
        // Idempotence: a second run changes nothing.
        prop_assert_eq!(schedule_depth(scheduled.clone()), scheduled.clone());
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
        let plain = CompileOptions::new().compiler()
            .compile(&circuit)
            .unwrap()
            .circuit;
        let report = CompileOptions::new()
            .opt_level(OptLevel::O2)
            .compiler()
            .compile(&circuit)
            .unwrap();
        prop_assert_eq!(
            circuit_permutation(&plain).unwrap(),
            circuit_permutation(&report.circuit).unwrap()
        );
        let schedule_stats = report.stats.last().unwrap();
        prop_assert_eq!(schedule_stats.pass.as_str(), "schedule-depth");
        prop_assert!(report.depth <= circuit_depth(&plain));
        prop_assert_eq!(circuit_depth(&report.circuit), report.depth);
    }
}

/// Golden depths of the E10 k-Toffoli family: `(d, k, depth before
/// scheduling, depth after scheduling)` of the standard flow's output.
///
/// The "after" values pin the scheduler's achieved depth so a future pass
/// (or an oracle/scheduler change) cannot silently regress it; loosening
/// them is fine when the new value is *smaller*.
const GOLDEN_DEPTHS: &[(u32, usize, usize, usize)] = &[
    (3, 3, 278, 278),
    (3, 4, 712, 704),
    (3, 6, 2389, 2382),
    (4, 3, 466, 434),
    (4, 4, 1625, 1513),
    (4, 6, 4600, 4288),
];

#[test]
fn e10_family_depths_match_the_golden_values() {
    for &(d, k, depth_before, depth_after) in GOLDEN_DEPTHS {
        let dimension = Dimension::new(d).unwrap();
        let synthesis = KToffoli::new(dimension, k).unwrap().synthesize().unwrap();
        let plain = CompileOptions::new()
            .compiler()
            .compile(synthesis.circuit())
            .unwrap()
            .circuit;
        assert_eq!(
            circuit_depth(&plain),
            depth_before,
            "unscheduled depth moved for d={d}, k={k}"
        );
        let scheduled = schedule_depth(plain);
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
        let plain = CompileOptions::new()
            .compiler()
            .compile(synthesis.circuit())
            .unwrap()
            .circuit;
        let scheduled = schedule_depth(plain.clone());
        assert!(
            circuit_depth(&scheduled) <= circuit_depth(&plain),
            "scheduling deepened d={d}, k={k}"
        );
        assert_eq!(
            schedule_depth(scheduled.clone()),
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
        let report = CompileOptions::new()
            .opt_level(OptLevel::O2)
            .verify(Verify::Exhaustive)
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

/// Asserts the fused scan reproduces the explicit-DAG reference schedule.
fn assert_matches_reference(circuit: &Circuit, what: &str) {
    let reference = schedule_over(circuit, &DependencyDag::build(circuit));
    let scheduled = schedule_depth(circuit.clone());
    assert_eq!(scheduled, reference.circuit, "{what}");
    let depth = reference.layers.last().copied().unwrap_or(0);
    assert_eq!(circuit_depth(&scheduled), depth, "{what}");
}

#[test]
fn dag_records_real_dependencies_only() {
    let d = Dimension::new(3).unwrap();
    let q = QuditId::new;
    let mut circuit = Circuit::new(d, 3);
    for gate in [
        Gate::single(SingleQuditOp::Add(1), q(0)),
        Gate::controlled(SingleQuditOp::Swap(0, 1), q(1), vec![Control::zero(q(0))]),
        Gate::single(SingleQuditOp::Swap(0, 1), q(1)),
    ] {
        circuit.push(gate).unwrap();
    }
    let dag = DependencyDag::build(&circuit);
    // Gate 1 reads q0, written by gate 0.
    assert_eq!(dag.predecessors(1), &[0]);
    // Gate 2 (X01 on q1) commutes with gate 1 (|0⟩-X01 onto q1): same
    // target, same operation; and never touches q0.
    assert_eq!(dag.predecessors(2), &[] as &[usize]);
    let reference = schedule_over(&circuit, &dag);
    assert_eq!(reference.layers, vec![1, 1, 2]);
}

#[test]
fn reference_dag_holds_every_non_commuting_pair() {
    // The per-wire scans must find exactly the all-pairs dependency set.
    let mut rng = StdRng::seed_from_u64(0x9E37_79B9);
    let circuit = random_dialect_circuit(Dimension::new(3).unwrap(), 4, 600, &mut rng);
    let dag = DependencyDag::build(&circuit);
    let gates = circuit.gates();
    for j in 0..gates.len() {
        let all_pairs: Vec<usize> = (0..j)
            .filter(|&i| !gates_commute(circuit.dimension(), &gates[i], &gates[j]))
            .collect();
        let mut found = dag.predecessors(j).to_vec();
        found.sort_unstable();
        assert_eq!(found, all_pairs, "gate {j}");
    }
}

#[test]
fn fused_scan_matches_the_reference_on_random_circuits() {
    for seed in 0..56u64 {
        for d in 2..=5u32 {
            let width = 2 + (seed as usize + d as usize) % 5;
            let gates = 20 + (seed as usize * 7) % 60;
            let mut rng = StdRng::seed_from_u64(0x5EED_0000 + seed * 31 + u64::from(d));
            let circuit =
                random_dialect_circuit(Dimension::new(d).unwrap(), width, gates, &mut rng);
            assert_matches_reference(&circuit, &format!("seed {seed}, d = {d}, width = {width}"));
        }
    }
}

/// One long circuit, where wire histories grow deep.
#[test]
fn fused_scan_matches_the_reference_on_a_long_random_circuit() {
    let mut rng = StdRng::seed_from_u64(0xFEED_FACE_CAFE_BEEF);
    let circuit = random_dialect_circuit(Dimension::new(3).unwrap(), 4, 1061, &mut rng);
    assert_matches_reference(&circuit, "long circuit");
}

/// The eleven k-Toffolis the O2 service benchmark compiles, with their gate
/// counts into and out of `cancel-inverse-pairs`: `(d, k, in, out)`.
const O2_FAMILY: [(u32, usize, usize, usize); 11] = [
    (3, 4, 1329, 889),
    (3, 5, 2907, 1943),
    (3, 6, 4389, 2913),
    (3, 7, 6975, 4639),
    (3, 8, 8457, 5609),
    (4, 4, 2408, 2184),
    (4, 5, 4144, 3760),
    (4, 6, 6928, 6288),
    (4, 7, 9712, 8816),
    (4, 8, 12496, 11344),
    (5, 4, 7303, 3999),
];

/// An O2 k-Toffoli compiled up to (not including) `schedule-depth`.
fn o2_unscheduled(d: u32, k: usize) -> CompileResult {
    let synthesis = KToffoli::new(Dimension::new(d).unwrap(), k)
        .unwrap()
        .synthesize()
        .unwrap();
    // O2 is O1 plus a final `schedule-depth` stage.
    let options = CompileOptions::new().opt_level(OptLevel::O1);
    options.compiler().compile(synthesis.circuit()).unwrap()
}

#[test]
fn o2_cancellation_removes_the_recorded_gate_counts() {
    for (d, k, gates_in, gates_out) in O2_FAMILY {
        let cancel = o2_unscheduled(d, k)
            .stats_for("cancel-inverse-pairs")
            .cloned();
        let counts = cancel.map(|stats| (stats.gates_before, stats.gates_after));
        assert_eq!(counts, Some((gates_in, gates_out)), "d={d}, k={k}");
    }
}

#[test]
fn fused_scan_matches_the_reference_on_the_o2_ktoffoli_family() {
    // The circuits as the scheduler receives them.
    for (d, k, _, _) in O2_FAMILY {
        assert_matches_reference(&o2_unscheduled(d, k).circuit, &format!("d={d}, k={k}"));
    }
}

#[test]
fn fused_scan_matches_the_reference_on_all_distinct_operations() {
    // Every gate applies its own permutation or phase (draw i decodes, in
    // the factorial number system, to the permutation of index 1_000_003·i
    // mod d!, a bijection for i < d!), so no two gates share a wire
    // signature and the history never merges.
    for seed in 1..=6u64 {
        let d = 6 + (seed % 3) as usize;
        let width = 2 + (seed % 3) as usize;
        let mut circuit = Circuit::new(Dimension::new(d as u32).unwrap(), width);
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for i in 0..400usize {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let op = if i % 4 == 3 {
                let mut phase = qudit_core::math::SquareMatrix::identity(d);
                phase[(1, 1)] = qudit_core::math::Complex::from_phase(1.0 + i as f64 * 1e-3);
                SingleQuditOp::Unitary(phase)
            } else {
                let mut draw = i * 1_000_003 % (1..=d).product::<usize>();
                let mut map: Vec<u32> = (0..d as u32).collect();
                for l in (1..d).rev() {
                    map.swap(l, draw % (l + 1));
                    draw /= l + 1;
                }
                SingleQuditOp::Perm(Permutation::from_map(map).unwrap())
            };
            let target = QuditId::new((state >> 32) as usize % width);
            circuit.push(Gate::single(op, target)).unwrap();
        }
        assert_matches_reference(&circuit, &format!("seed {seed}, d = {d}"));
    }
}

#[test]
fn a_merged_run_of_readers_keeps_its_largest_layer() {
    // r1 and r2 read q0 through the same |0⟩ control, so q0's history holds
    // them as one run.  r1 waits behind three writes of q1 (layer 4), while
    // r2 drops into the hole q0 has at layer 1.  The write w of q0 changes
    // the control value, so it must follow r1: the run has to remember its
    // largest layer (4), not the layer of its last gate (1).
    let d = Dimension::new(3).unwrap();
    let q = QuditId::new;
    let r1 = Gate::controlled(SingleQuditOp::Swap(0, 1), q(1), vec![Control::zero(q(0))]);
    let r2 = Gate::controlled(SingleQuditOp::Add(1), q(2), vec![Control::zero(q(0))]);
    let w = Gate::single(SingleQuditOp::Add(1), q(0));
    let mut circuit = Circuit::new(d, 3);
    for gate in [
        Gate::single(SingleQuditOp::Add(1), q(1)),
        Gate::single(SingleQuditOp::Add(1), q(1)),
        Gate::single(SingleQuditOp::Add(1), q(1)),
        r1.clone(),
        r2.clone(),
        w.clone(),
    ] {
        circuit.push(gate).unwrap();
    }
    let reference = schedule_over(&circuit, &DependencyDag::build(&circuit));
    assert_eq!(reference.layers, vec![1, 1, 2, 3, 4, 5]);
    assert_eq!(reference.circuit.gates()[1], r2);
    assert_eq!(reference.circuit.gates()[4], r1);
    assert_eq!(reference.circuit.gates()[5], w);
    assert_eq!(schedule_depth(circuit), reference.circuit);
}
