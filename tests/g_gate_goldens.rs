//! Golden counts of the paper's k-Toffoli construction, pinned byte for
//! byte in `tests/golden/g_gate_counts.txt`: for every `d ∈ {3, 4, 5}` and
//! `k ∈ {2, …, 8}`, the `resources()` macro / elementary / G-gate counts and
//! the facade's output gate count and depth at `O0` and `O2`.  Every row is
//! compiled uncached and with a per-run lowering cache, and the two must
//! agree gate for gate.
//!
//! Regenerate after an intentional count change with
//! `QUDIT_BLESS=1 cargo test --test g_gate_goldens`.

use std::fs;
use std::path::Path;

use qudit_core::pipeline::CacheMode;
use qudit_core::Dimension;
use qudit_synthesis::{CompileOptions, CompileResult, KToffoli, OptLevel};

const DIMENSIONS: [u32; 3] = [3, 4, 5];
const CONTROLS: std::ops::RangeInclusive<usize> = 2..=8;

/// Compiles `circuit` at `level` uncached and with a per-run cache,
/// asserting the two agree, and returns the uncached result.
fn compile_both_ways(circuit: &qudit_core::Circuit, level: OptLevel, row: &str) -> CompileResult {
    let compile = |cache: CacheMode| {
        CompileOptions::new()
            .opt_level(level)
            .cache(cache)
            .compiler()
            .compile(circuit)
            .unwrap_or_else(|e| panic!("{row} {level:?}: compile failed: {e}"))
    };
    let plain = compile(CacheMode::Off);
    let cached = compile(CacheMode::PerRun);
    assert_eq!(
        plain.circuit, cached.circuit,
        "{row} {level:?}: cached compile diverged from the uncached one"
    );
    assert_eq!(plain.depth, cached.depth, "{row} {level:?}: depth diverged");
    assert!(
        plain.cache.is_none(),
        "{row} {level:?}: uncached run tallied"
    );
    let counters = cached.cache.expect("per-run caching tallies");
    assert!(
        counters.total() > 0,
        "{row} {level:?}: cache never consulted"
    );
    plain
}

fn golden_table() -> String {
    let mut table =
        String::from("# d k macro elementary g_gates o0_gates o0_depth o2_gates o2_depth\n");
    for d in DIMENSIONS {
        for k in CONTROLS {
            let row = format!("d={d} k={k}");
            let synthesis = KToffoli::new(Dimension::new(d).unwrap(), k)
                .unwrap()
                .synthesize()
                .unwrap_or_else(|e| panic!("{row}: synthesis failed: {e}"));
            let resources = synthesis.resources();
            let o0 = compile_both_ways(synthesis.circuit(), OptLevel::O0, &row);
            let o2 = compile_both_ways(synthesis.circuit(), OptLevel::O2, &row);
            table.push_str(&format!(
                "{d} {k} {} {} {} {} {} {} {}\n",
                resources.macro_gates,
                resources.elementary_gates,
                resources.g_gates,
                o0.circuit.len(),
                o0.depth,
                o2.circuit.len(),
                o2.depth,
            ));
        }
    }
    table
}

#[test]
fn k_toffoli_counts_match_goldens() {
    let table = golden_table();
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("g_gate_counts.txt");
    if std::env::var_os("QUDIT_BLESS").is_some() {
        fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
        fs::write(&golden_path, &table).unwrap();
        return;
    }
    let golden = fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with QUDIT_BLESS=1 to create it",
            golden_path.display()
        )
    });
    assert_eq!(
        table, golden,
        "k-Toffoli counts drifted from the golden (QUDIT_BLESS=1 regenerates)"
    );
}
