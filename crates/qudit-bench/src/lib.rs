//! Benchmark and experiment harness for the *Optimal Synthesis of
//! Multi-Controlled Qudit Gates* reproduction.
//!
//! * [`experiments`] — one function per experiment of the evaluation
//!   (E1–E11 plus the figure-verification table); each returns a
//!   markdown-renderable [`tables::Table`].  The pipeline sweeps (E10/E11)
//!   compile their jobs concurrently through
//!   `Compiler::compile_batch`.
//! * [`tables`] — small table-formatting helpers.
//!
//! The `experiments` binary prints the full report
//! (`cargo run --release -p qudit-bench --bin experiments`), and the
//! Criterion benches in `benches/` measure synthesis, simulation and batch
//! compilation time (`benches/batch_compilation.rs` compares sequential and
//! parallel compilation of the same sweep).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod tables;

pub use experiments::Scale;
pub use tables::Table;
