//! Integration tests of the parallel batch-compilation subsystem, routed
//! through the `Compiler` facade:
//!
//! * sequential (`compile`) and parallel (`compile_batch`) compilation of
//!   the same jobs report identical gate/G-gate counts and identical
//!   circuits;
//! * the inert cache knob changes nothing about the compiled circuits;
//! * the self-checking (`Verify::Exhaustive`) pipeline still passes when
//!   run batched with the cache knob set — every parallel path stays
//!   verifiable by re-simulation.

use qudit_core::cache::LoweringCache;
use qudit_core::pipeline::CacheMode;
use qudit_core::Circuit;
use qudit_synthesis::{CompileOptions, KToffoli, Threads, Verify};

/// The macro circuits of a small heterogeneous sweep (both parities, several
/// widths).
fn sweep_jobs() -> Vec<Circuit> {
    let mut jobs = Vec::new();
    for (d, k) in [(3u32, 2usize), (3, 4), (3, 6), (4, 2), (4, 4), (5, 3)] {
        let synthesis = KToffoli::new(qudit_core::Dimension::new(d).unwrap(), k)
            .unwrap()
            .synthesize()
            .unwrap();
        jobs.push(synthesis.circuit().clone());
    }
    jobs
}

#[test]
fn sequential_and_parallel_compilation_agree() {
    let jobs = sweep_jobs();
    let compiler = CompileOptions::new().threads(Threads::Fixed(4)).compiler();

    let sequential: Vec<_> = jobs
        .iter()
        .map(|job| compiler.compile(job).unwrap())
        .collect();
    let batch = compiler.compile_batch(&jobs).unwrap();

    for (parallel, reference) in batch.results.iter().zip(&sequential) {
        assert_eq!(parallel.circuit, reference.circuit);
        assert_eq!(parallel.depth, reference.depth);
        for (a, b) in parallel.stats.iter().zip(&reference.stats) {
            assert_eq!(a.pass, b.pass);
            assert_eq!(a.gates_before, b.gates_before, "gate counts must match");
            assert_eq!(a.gates_after, b.gates_after, "gate counts must match");
        }
    }

    // The merged statistics agree with summing the sequential results.
    let merged = batch.merged_stats();
    for (position, entry) in merged.iter().enumerate() {
        let expected_gates: usize = sequential
            .iter()
            .map(|r| r.stats[position].gates_after)
            .sum();
        assert_eq!(entry.gates_after, expected_gates);
    }
}

#[test]
fn cache_modes_leave_batch_output_unchanged() {
    let jobs = sweep_jobs();
    let plain = CompileOptions::new().compiler();
    let reference: Vec<_> = jobs
        .iter()
        .map(|job| plain.compile(job).unwrap().circuit)
        .collect();

    for mode in [
        CacheMode::PerRun,
        CacheMode::Shared(LoweringCache::shared()),
    ] {
        let batch = CompileOptions::new()
            .cache(mode)
            .threads(Threads::Fixed(4))
            .compiler()
            .compile_batch(&jobs)
            .unwrap();
        let compiled: Vec<_> = batch.circuits().cloned().collect();
        assert_eq!(compiled, reference);
        assert_eq!(batch.cache_counters(), Default::default());
    }
}

#[test]
fn verified_pipeline_passes_batched_and_cached() {
    let jobs = sweep_jobs();
    let compiler = CompileOptions::new()
        .verify(Verify::Exhaustive)
        .cache(CacheMode::PerRun)
        .threads(Threads::Fixed(2))
        .compiler();
    let batch = compiler.compile_batch(&jobs).unwrap();
    assert!(batch.is_verified());
    for result in &batch.results {
        assert!(result
            .circuit
            .gates()
            .iter()
            .all(qudit_core::Gate::is_g_gate));
        assert!(result.verification.is_verified());
        assert!(result.stats.iter().all(|s| s.pass.starts_with("verify(")));
    }
}
