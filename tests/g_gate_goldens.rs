//! Golden counts of the paper's k-Toffoli construction, pinned byte for
//! byte in `tests/golden/g_gate_counts.txt`: for every `d ∈ {3, 4, 5}` and
//! `k ∈ {2, …, 8}`, the `resources()` macro / elementary / G-gate counts and
//! the facade's output gate count, depth and FNV-1a-64 hash of the printed
//! circuit at `O0`, `O1` (the default flow) and `O2`.  The hashes pin the output byte for byte, so a
//! refactor that reorders or rewrites gates fails here even when the counts
//! survive.
//!
//! A second section pins the paper's asymptotics past `k = 8`: for every
//! `d ∈ {3, …, 7}` the `resources()` G-gate count at `k ∈ {16, 24, 32}`,
//! where both steps of eight controls must be equal (at odd `d` the step
//! per control alternates with the parity of `k`, so the count is linear
//! over pairs of controls).
//!
//! Regenerate after an intentional count change with
//! `QUDIT_BLESS=1 cargo test --test g_gate_goldens`.

use std::fs;
use std::path::Path;

use qudit_core::qasm::print_circuit;
use qudit_core::Dimension;
use qudit_synthesis::{CompileOptions, CompileResult, KToffoli, OptLevel};

const DIMENSIONS: [u32; 3] = [3, 4, 5];
const CONTROLS: std::ops::RangeInclusive<usize> = 2..=8;
const SLOPE_DIMENSIONS: [u32; 5] = [3, 4, 5, 6, 7];
const SLOPE_CONTROLS: [usize; 3] = [16, 24, 32];

/// Compiles `circuit` at `level` through the facade.
fn compile(circuit: &qudit_core::Circuit, level: OptLevel, row: &str) -> CompileResult {
    CompileOptions::new()
        .opt_level(level)
        .compiler()
        .compile(circuit)
        .unwrap_or_else(|e| panic!("{row} {level:?}: compile failed: {e}"))
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn golden_table() -> String {
    let mut table = String::from(
        "# d k macro elementary g_gates o0_gates o0_depth o1_gates o1_depth o2_gates o2_depth \
         o0_hash o1_hash o2_hash\n",
    );
    for d in DIMENSIONS {
        for k in CONTROLS {
            let row = format!("d={d} k={k}");
            let synthesis = KToffoli::new(Dimension::new(d).unwrap(), k)
                .unwrap()
                .synthesize()
                .unwrap_or_else(|e| panic!("{row}: synthesis failed: {e}"));
            let resources = synthesis.resources();
            let o0 = compile(synthesis.circuit(), OptLevel::O0, &row);
            let o1 = compile(synthesis.circuit(), OptLevel::O1, &row);
            let o2 = compile(synthesis.circuit(), OptLevel::O2, &row);
            table.push_str(&format!(
                "{d} {k} {} {} {} {} {} {} {} {} {} {:016x} {:016x} {:016x}\n",
                resources.macro_gates,
                resources.elementary_gates,
                resources.g_gates,
                o0.circuit.len(),
                o0.depth,
                o1.circuit.len(),
                o1.depth,
                o2.circuit.len(),
                o2.depth,
                fnv1a64(print_circuit(&o0.circuit).as_bytes()),
                fnv1a64(print_circuit(&o1.circuit).as_bytes()),
                fnv1a64(print_circuit(&o2.circuit).as_bytes()),
            ));
        }
    }
    table
}

/// The slope section: the G-gates at each of `SLOPE_CONTROLS` and the one
/// step between them, after asserting that both steps are equal.
fn slope_table() -> String {
    let mut table = String::from("# slope: d g_gates@k=16 g_gates@k=24 g_gates@k=32 step\n");
    for d in SLOPE_DIMENSIONS {
        let [g16, g24, g32] = SLOPE_CONTROLS.map(|k| {
            KToffoli::new(Dimension::new(d).unwrap(), k)
                .unwrap()
                .synthesize()
                .unwrap_or_else(|e| panic!("d={d} k={k}: synthesis failed: {e}"))
                .resources()
                .g_gates
        });
        assert_eq!(
            g24 - g16,
            g32 - g24,
            "d={d}: the G-gate count is not linear in k ({g16}, {g24}, {g32})"
        );
        table.push_str(&format!("{d} {g16} {g24} {g32} {}\n", g32 - g24));
    }
    table
}

#[test]
fn k_toffoli_counts_match_goldens() {
    let table = golden_table() + &slope_table();
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
