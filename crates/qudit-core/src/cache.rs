//! Inert stand-ins for the retired lowering cache.
//!
//! Lowering recomputes every expansion: a one-controlled gate lowers to
//! G-gates by a fixed conjugation of a few swaps, and the emitting walks of
//! [`crate::lowering`] and `qudit-synthesis`'s `lower` module outrun a keyed
//! lookup of the same expansion.  [`LoweringCache`], [`CacheCounters`] and
//! [`CacheMode`](crate::pipeline::CacheMode) remain only so existing callers
//! keep compiling; they hold nothing, count nothing and change no output.
//!
//! # Example
//!
//! ```
//! use qudit_core::cache::LoweringCache;
//! use qudit_core::lowering::lower_circuit;
//! use qudit_core::pipeline::{CacheMode, PassRegistry, PipelineSpec};
//! use qudit_core::{Circuit, Control, Dimension, Gate, QuditId, SingleQuditOp};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut circuit = Circuit::new(Dimension::new(3)?, 2);
//! circuit.push(Gate::controlled(
//!     SingleQuditOp::Add(1),
//!     QuditId::new(1),
//!     vec![Control::level(QuditId::new(0), 2)],
//! ))?;
//! let spec = PipelineSpec::new()
//!     .with_stage("lower-to-g-gates")
//!     .with_cache(CacheMode::Shared(LoweringCache::shared()));
//! let report = PassRegistry::core().assemble(&spec)?.run(circuit.clone())?;
//! assert_eq!(report.circuit, lower_circuit(&circuit)?);
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;

/// An inert stand-in for the retired lowering cache: it holds nothing.
#[derive(Debug, Default)]
pub struct LoweringCache;

impl LoweringCache {
    /// An inert cache behind an [`Arc`], accepted by
    /// [`CacheMode::Shared`](crate::pipeline::CacheMode::Shared).
    pub fn shared() -> Arc<Self> {
        Arc::new(LoweringCache)
    }
}

/// Lowering-cache tallies, always zero: nothing is cached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups answered from a cache (always 0).
    pub hits: u64,
    /// Lookups that computed an expansion (always 0).
    pub misses: u64,
    /// Entries evicted (always 0).
    pub evictions: u64,
}
