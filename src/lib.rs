//! Umbrella crate for the *Optimal Synthesis of Multi-Controlled Qudit Gates*
//! (DAC 2023) reproduction.
//!
//! This crate simply re-exports the workspace crates so that the examples and
//! integration tests can refer to a single dependency.  Library users should
//! normally depend on the individual crates:
//!
//! * [`qudit_core`] — circuits, gates, control predicates.
//! * [`qudit_sim`] — permutation and state-vector simulators.
//! * [`qudit_synthesis`] — the paper's multi-controlled gate syntheses and
//!   the `Compiler` / `CompileOptions` compilation facade.
//! * [`qudit_baselines`] — prior-work baselines and cost models.
//! * [`qudit_unitary`] — general unitary synthesis (Theorem IV.1).
//! * [`qudit_reversible`] — classical reversible function compiler (Theorem IV.2).
//!
//! # Example
//!
//! ```
//! use quditsynth::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Synthesize an ancilla-free 4-controlled Toffoli on 5-level qudits.
//! let synthesis = KToffoli::new(Dimension::new(5)?, 4)?.synthesize()?;
//! assert_eq!(synthesis.resources().borrowed_ancillas(), 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use qudit_baselines;
pub use qudit_core;
pub use qudit_reversible;
pub use qudit_sim;
pub use qudit_synthesis;
pub use qudit_unitary;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use qudit_core::{
        Circuit, Control, ControlPredicate, Dimension, Gate, GateOp, QuditId, SingleQuditOp,
    };
    pub use qudit_reversible::ReversibleFunction;
    pub use qudit_sim::StateVector;
    pub use qudit_synthesis::{
        CompileOptions, Compiler, ControlledUnitary, KToffoli, MultiControlledGate, OptLevel,
        Threads, Verify,
    };
    pub use qudit_unitary::UnitarySynthesizer;
}
