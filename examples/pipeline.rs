//! The compilation facade: configuring, extending and self-verifying the
//! paper's lowering flow with `Compiler` / `CompileOptions`.
//!
//! Demonstrates:
//!
//! 1. the default options (macro → elementary → G-gates → cancellation)
//!    with the unified `CompileResult` report;
//! 2. a custom user-defined `Pass` appended to the assembled pipeline via
//!    `CompileOptions::build_manager`;
//! 3. the `Verify::Exhaustive` knob, which re-simulates every stage and
//!    fails the compilation if a pass changes the circuit's semantics.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example pipeline
//! ```

use qudit_core::pipeline::Pass;
use qudit_core::{Circuit, Dimension, Gate, SingleQuditOp};
use qudit_synthesis::{CompileOptions, KToffoli, Verify};

/// A custom diagnostic pass: reports how many gates are swap-based, then
/// returns the circuit unchanged.
struct CountSwaps;

impl Pass for CountSwaps {
    fn name(&self) -> &str {
        "count-swaps"
    }

    fn run(&self, circuit: Circuit) -> qudit_core::Result<Circuit> {
        let swaps = circuit
            .gates()
            .iter()
            .filter(|g| {
                matches!(
                    g.op(),
                    qudit_core::GateOp::Single(SingleQuditOp::Swap(_, _))
                )
            })
            .count();
        println!(
            "  [count-swaps] {swaps} swap-based gates of {}",
            circuit.len()
        );
        Ok(circuit)
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dimension = Dimension::new(3)?;

    // Synthesise a 5-controlled Toffoli (ancilla-free for odd d).
    let synthesis = KToffoli::new(dimension, 5)?.synthesize()?;

    // 1. The default options with the unified report.
    println!("Default CompileOptions on the 5-controlled Toffoli (d = 3):");
    let compiler = CompileOptions::new().compiler();
    let result = compiler.compile(synthesis.circuit())?;
    for stats in &result.stats {
        println!("  {stats}");
    }
    println!(
        "  total: {:.1} µs, final depth {}\n",
        result.total_elapsed().as_secs_f64() * 1e6,
        result.depth
    );

    // 2. Extending the assembled pipeline with a custom pass.
    println!("Extended pipeline with a custom pass:");
    let extended = CompileOptions::new().build_manager().with_pass(CountSwaps);
    let extended_report = extended.run(synthesis.circuit().clone())?;
    assert_eq!(extended_report.circuit, result.circuit);
    println!();

    // 3. Self-verifying compilation: every stage checks semantics
    //    preservation, and the report carries the verdict.
    println!("Self-verifying compilation (Verify::Exhaustive):");
    let verified = CompileOptions::new().verify(Verify::Exhaustive).compiler();
    let verified_result = verified.compile(synthesis.circuit())?;
    for stats in &verified_result.stats {
        println!("  {stats}");
    }
    assert_eq!(verified_result.circuit, result.circuit);
    assert!(verified_result.verification.is_verified());
    assert!(verified_result.circuit.gates().iter().all(Gate::is_g_gate));
    println!(
        "\nAll stages verified ({}); final circuit has {} G-gates.",
        verified_result.verification,
        result.circuit.len()
    );
    Ok(())
}
