//! The expressibility matrix: what the text dialect can say, and what the
//! compiler does with it.
//!
//! Every cell is one single-gate source compiled with `compile_source` at
//! `O1` under `Verify::Exhaustive`.  The 728 cells cover
//! `d ∈ {2, …, 5}` × seven gate kinds × no control, or one to three controls
//! that share one of four predicates × no idle wire or one.  Each cell's
//! outcome is pinned byte for byte in `tests/golden/expressibility.txt`:
//! `ok <gates> <depth>` when it compiles, or the error's `Display` text when
//! it does not.  No cell may panic.
//!
//! Regenerate after an intentional change with
//! `QUDIT_BLESS=1 cargo test --test expressibility`.

use std::fmt::Write as _;
use std::fs;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;

use qudit_synthesis::{CompileOptions, OptLevel, Verify};

const DIMENSIONS: [u32; 4] = [2, 3, 4, 5];
const PREDICATES: [&str; 4] = ["ctrl", "ctrl(2)", "ctrl(odd)", "ctrl(even)"];
const MAX_CONTROLS: usize = 3;

/// The seven gate kinds as `(name, statement head, operands)` at
/// dimension `d`, controls not included.
fn kinds(d: u32) -> [(&'static str, String, usize); 7] {
    let reversal: Vec<String> = (0..d).rev().map(|level| level.to_string()).collect();
    let parity = if d.is_multiple_of(2) { "e" } else { "o" };
    [
        ("swap", "swap(0, 1)".to_string(), 1),
        ("shift", "shift(1)".to_string(), 1),
        ("parityflip", format!("parityflip_{parity}"), 1),
        ("perm", format!("perm({})", reversal.join(", ")), 1),
        ("phase", "phase".to_string(), 1),
        ("fourier", "fourier".to_string(), 1),
        ("sum", "sum".to_string(), 2),
    ]
}

/// The source of one cell: the controls on the leading wires, then the
/// gate's own operands, then the idle wire when there is one.
fn cell_source(
    d: u32,
    head: &str,
    operands: usize,
    predicate: &str,
    controls: usize,
    idle: usize,
) -> String {
    let width = controls + operands + idle;
    let modifiers: String = (0..controls).map(|_| format!("{predicate} @ ")).collect();
    let wires: Vec<String> = (0..controls + operands)
        .map(|w| format!("q[{w}]"))
        .collect();
    format!(
        "OPENQASM 3.0;\nqudit[{d}] q[{width}];\n{modifiers}{head} {};\n",
        wires.join(", ")
    )
}

fn matrix() -> String {
    let compiler = CompileOptions::new()
        .opt_level(OptLevel::O1)
        .verify(Verify::Exhaustive)
        .compiler();
    let mut table = String::from("# d kind controls idle: outcome\n");
    let mut cells = 0;
    for d in DIMENSIONS {
        for (name, head, operands) in kinds(d) {
            for controls in 0..=MAX_CONTROLS {
                let predicates: &[&str] = if controls == 0 { &["-"] } else { &PREDICATES };
                for &predicate in predicates {
                    for idle in 0..=1 {
                        let source = cell_source(d, &head, operands, predicate, controls, idle);
                        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                            compiler.compile_source(&source)
                        }))
                        .unwrap_or_else(|_| panic!("compile_source panicked on:\n{source}"));
                        let outcome = match outcome {
                            Ok(result) => format!("ok {} {}", result.circuit.len(), result.depth),
                            Err(error) => error.to_string(),
                        };
                        let key = format!("{predicate}x{controls}");
                        writeln!(table, "{d} {name} {key} {idle}: {outcome}").unwrap();
                        cells += 1;
                    }
                }
            }
        }
    }
    assert_eq!(cells, 728);
    table
}

#[test]
fn every_cell_matches_the_golden() {
    let table = matrix();
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("expressibility.txt");
    if std::env::var_os("QUDIT_BLESS").is_some() {
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
        "the expressibility matrix drifted from the golden (QUDIT_BLESS=1 regenerates)"
    );
}
