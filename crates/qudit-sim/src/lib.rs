//! Simulation substrate for the *Optimal Synthesis of Multi-Controlled Qudit
//! Gates* reproduction.
//!
//! The crate provides:
//!
//! * [`basis`] — mixed-radix indexing of computational basis states and the
//!   [`BasisBatch`] kernel, which pushes blocks of basis states through a
//!   classical circuit with vectorised compare/select loops; every
//!   classical check in the crate (the [`equivalence`] specification
//!   checkers, [`VerifyEquivalence`] and [`circuit_permutation`]) runs on
//!   it;
//! * [`StateVector`] and [`statevector`] — state-vector simulation supporting
//!   arbitrary controlled unitaries (the scalar reference walk);
//! * [`FusedProgram`] and [`dense`] — the cache-blocked dense engine: gate
//!   fusion and split-complex panel kernels, exact (`==`-equal) against
//!   the reference walk; [`simulate_basis`] and
//!   [`circuit_unitary`] run on it from basis inputs, walking a circuit's
//!   leading classical gates on the digit vector first;
//! * [`equivalence`] — specification checkers for multi-controlled gates with
//!   borrowed- or clean-ancilla semantics (exhaustive, sampled, on the
//!   clean-ancilla subspace or by dense unitary);
//! * [`pipeline`] — the [`VerifyEquivalence`] pass wrapper that makes a
//!   classical compilation pipeline self-check semantics preservation after
//!   each stage: a structural proof of the rewrite where the stage hands one
//!   over, else a [`BasisBatch`] sweep; a non-classical stage fails closed;
//! * [`random`] — random unitaries, permutations, reversible functions and
//!   dialect circuits for workloads.
//!
//! # Example
//!
//! ```
//! use qudit_core::{Circuit, Control, Dimension, Gate, QuditId, SingleQuditOp};
//! use qudit_sim::equivalence::{verify_mct_exhaustive, MctSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let d = Dimension::new(3)?;
//! let mut circuit = Circuit::new(d, 2);
//! circuit.push(Gate::controlled(
//!     SingleQuditOp::Swap(0, 1),
//!     QuditId::new(1),
//!     vec![Control::zero(QuditId::new(0))],
//! ))?;
//! let spec = MctSpec::toffoli(vec![QuditId::new(0)], QuditId::new(1));
//! assert!(verify_mct_exhaustive(&circuit, &spec)?.is_pass());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod basis;
pub mod dense;
pub mod equivalence;
pub mod pipeline;
pub mod random;
pub mod statevector;
mod structural;

pub use basis::{circuit_permutation, BasisBatch};
pub use dense::{circuit_unitary, simulate_basis, FusedProgram};
pub use equivalence::{MctSpec, Verification};
pub use pipeline::{Proof, SimBackend, VerifyEquivalence};
pub use statevector::StateVector;
