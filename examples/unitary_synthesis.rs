//! Exact synthesis of a random two-qutrit unitary with one clean ancilla
//! (Theorem IV.1).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example unitary_synthesis
//! ```

use qudit_core::Dimension;
use qudit_sim::circuit_unitary;
use qudit_sim::random::random_unitary;
use qudit_unitary::{two_level_decompose, UnitarySynthesizer};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dimension = Dimension::new(3)?;
    let variables = 2usize;
    let mut rng = StdRng::seed_from_u64(7);

    // A Haar-like random unitary on two qutrits (9 × 9).
    let unitary = random_unitary(dimension.register_size(variables), &mut rng);
    let factors = two_level_decompose(&unitary)?;
    println!(
        "Two-level decomposition of a random 9x9 unitary: {} factors",
        factors.len()
    );

    let synthesis = UnitarySynthesizer::new(dimension)?.synthesize(&unitary, variables)?;
    println!("Synthesis over {} qudits:", synthesis.layout().width);
    println!("  two-level factors: {}", synthesis.two_level_factors());
    println!("  macro gates:       {}", synthesis.resources().macro_gates);
    println!(
        "  two-qudit gates:   {}",
        synthesis.resources().two_qudit_gates
    );
    println!(
        "  clean ancillas:    {}",
        synthesis.resources().clean_ancillas()
    );
    println!("  d^(2n) reference:  {}", 3u32.pow(2 * variables as u32));

    // Verify numerically: the circuit acts as U ⊗ I on the idle ancilla wire.
    let built = circuit_unitary(synthesis.circuit())?;
    let mut max_error = 0.0f64;
    for r in 0..9 {
        for c in 0..9 {
            for anc in 0..3 {
                let entry = built[(r * 3 + anc, c * 3 + anc)];
                let error = (entry - unitary[(r, c)]).norm();
                max_error = max_error.max(error);
            }
        }
    }
    println!("  max |U_built − U| entry error: {max_error:.2e}");
    assert!(max_error < 1e-7);
    println!("  verification: passed");
    Ok(())
}
