//! Linear-size synthesis of multi-controlled qudit gates with at most one
//! ancilla — reproduction of *Optimal Synthesis of Multi-Controlled Qudit
//! Gates* (Zi, Li, Sun; DAC 2023).
//!
//! The crate implements every construction of Section III of the paper plus
//! the multi-controlled-unitary synthesis of Fig. 1(b):
//!
//! | Paper artefact | Module |
//! |---|---|
//! | Lemma III.1 / Fig. 2 (even-d 2-Toffoli gadget) | [`gadgets::two_controlled_swap_even`] |
//! | Lemma III.3 / Fig. 5 (odd-d 2-Toffoli gadget) | [`gadgets::two_controlled_swap_odd`] |
//! | Fig. 3 (parity ladder, even d) | [`ladders::parity_ladder_even`] |
//! | Lemma III.4 / Fig. 7 (increment ladder, odd d) | [`ladders::add_one_ladder_odd`] |
//! | Lemma III.5 / Figs. 8–9 (`P_k`) | [`pk`] |
//! | Theorem III.2 / Fig. 4 (even-d k-Toffoli, one borrowed ancilla) | [`mct_even`] |
//! | Theorem III.6 / Fig. 10 (odd-d k-Toffoli, ancilla-free) | [`mct_odd`] |
//! | Fig. 1(b) (`\|0^k⟩-U`, one clean ancilla) | [`ControlledUnitary`] |
//!
//! The public entry points are [`KToffoli`], [`MultiControlledGate`],
//! [`ControlledUnitary`] and the in-place emitters
//! [`emit_multi_controlled`] / [`emit_controlled_unitary`]; compilation of
//! the synthesised circuits goes through the [`Compiler`] facade configured
//! by [`CompileOptions`] (see [`compiler`]).
//!
//! Every fallible function returns [`qudit_core::Result`]: a builder that
//! cannot build its parameters fails with a [`qudit_core::QuditError`]
//! variant such as `DimensionTooSmall`, `BorrowedAncillaRequired`,
//! `NotClassicalTarget` or `CannotLower`, the same type the circuit
//! substrate and the compilation passes report.
//!
//! # Example
//!
//! ```
//! use qudit_core::Dimension;
//! use qudit_synthesis::KToffoli;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Ancilla-free 6-controlled Toffoli on 3-level qudits (Theorem III.6).
//! let synthesis = KToffoli::new(Dimension::new(3)?, 6)?.synthesize()?;
//! assert_eq!(synthesis.resources().total_ancillas(), 0);
//!
//! // The G-gate count grows linearly with the number of controls.
//! let g_gates = synthesis.resources().g_gates;
//! assert!(g_gates > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compiler;
mod controlled_unitary;
pub mod gadgets;
pub mod ladders;
pub mod lower;
mod mct;
pub mod mct_even;
pub mod mct_odd;
pub mod pipeline;
pub mod pk;
mod resources;
pub mod service;

pub use compiler::{
    BatchResult, CompileOptions, CompileResult, Compiler, OptLevel, Threads, Verify, VerifyOutcome,
};
pub use controlled_unitary::{
    emit_controlled_unitary, ControlledUnitary, ControlledUnitaryLayout, ControlledUnitarySynthesis,
};
pub use mct::{emit_multi_controlled, KToffoli, MctLayout, MctSynthesis, MultiControlledGate};
pub use pipeline::LowerToElementary;
pub use resources::Resources;
pub use service::{
    CompileService, JobReply, JobRequest, JobStatus, ServiceClient, ServiceConfig, ServiceStats,
};
