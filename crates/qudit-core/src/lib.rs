//! Core circuit substrate for the reproduction of *Optimal Synthesis of
//! Multi-Controlled Qudit Gates* (DAC 2023).
//!
//! This crate provides the data model every other crate in the workspace
//! builds on:
//!
//! * [`Dimension`], [`QuditId`] — qudit dimensions and wire identifiers;
//! * [`SingleQuditOp`], [`Permutation`] — the single-qudit level operations of
//!   the paper (`Xij`, `X+y`, the parity swaps `X_eo^e` / `X_eo^o`) plus
//!   general unitaries;
//! * [`Control`], [`ControlPredicate`] — `|ℓ⟩`, `|o⟩` and `|e⟩` controls;
//! * [`Gate`], [`GateOp`], [`Circuit`] — gates (including the value-controlled
//!   shift `|⋆⟩-X±⋆` of Fig. 6) and circuits with validation, inversion and
//!   classical basis-state evaluation;
//! * [`lowering`] — lowering of singly-controlled classical gates to the
//!   elementary G-gate set `{Xij} ∪ {|0⟩-X01}`, one walk emitting into its
//!   output with reused level buffers ([`lowering::Transpositions`]);
//! * [`commute`] — the structural commutation oracle and the
//!   commutation-aware depth scheduler behind the
//!   [`pipeline::ScheduleDepth`] pass;
//! * [`pipeline`] — the [`pipeline::Pass`] trait and
//!   [`pipeline::PassManager`] composing lowering/optimisation stages with
//!   per-pass statistics (gate count and depth before and after each
//!   stage), plus parallel batch compilation
//!   ([`pipeline::PassManager::run_batch`], one report per job) whose
//!   statistics [`pipeline::merge_pass_stats`] folds;
//! * [`pool`] — a hand-rolled scoped-thread work-stealing pool backing
//!   batch compilation, the one level that fans out (the environment is
//!   offline, so no `rayon`);
//! * [`cache`] — inert stand-ins for the retired lowering cache (nothing is
//!   cached; the names remain for existing callers);
//! * [`qasm`] — the OpenQASM-3-flavoured text IR: lexer, parser, semantic
//!   lowering and an exact-inverse pretty-printer with spanned
//!   [`qasm::ParseError`] diagnostics;
//! * [`topology`] — device coupling graphs ([`topology::CouplingGraph`]:
//!   linear, ring, grid, heavy-hex and custom) with an all-pairs BFS
//!   distance matrix;
//! * [`route`] — connectivity routing: greedy placement, the lookahead
//!   SWAP-ladder router, cost models ([`route::UniformCost`],
//!   [`route::NoiseAwareCost`]) and the `"route"` pipeline stage;
//! * [`math`] — minimal complex numbers and dense matrices;
//! * [`AncillaKind`], [`AncillaUsage`] — ancilla bookkeeping.
//!
//! # Example
//!
//! ```
//! use qudit_core::{Circuit, Control, Dimension, Gate, QuditId, SingleQuditOp};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let d = Dimension::new(3)?;
//! let mut circuit = Circuit::new(d, 2);
//! // |0⟩-X+1: increment the target when the control is |0⟩.
//! circuit.push(Gate::controlled(
//!     SingleQuditOp::Add(1),
//!     QuditId::new(1),
//!     vec![Control::zero(QuditId::new(0))],
//! ))?;
//! assert_eq!(circuit.apply_to_basis(&[0, 2])?, vec![0, 0]);
//!
//! // Lower to the elementary G-gate set.
//! let lowered = qudit_core::lowering::lower_circuit(&circuit)?;
//! assert!(lowered.gates().iter().all(|g| g.is_g_gate()));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ancilla;
pub mod cache;
mod circuit;
pub mod commute;
mod control;
pub mod depth;
pub mod diagram;
mod dimension;
mod error;
pub mod fusion;
mod gate;
pub mod lowering;
pub mod math;
mod ops;
pub mod optimize;
pub mod pipeline;
pub mod pool;
pub mod qasm;
mod qudit;
pub mod route;
pub mod topology;

pub use ancilla::{AncillaKind, AncillaUsage};
pub use circuit::Circuit;
pub use control::{Control, ControlPredicate};
pub use dimension::Dimension;
pub use error::{QuditError, Result};
pub use gate::{Gate, GateOp};
pub use ops::{Permutation, SingleQuditOp};
pub use qudit::{qudit_range, QuditId};
