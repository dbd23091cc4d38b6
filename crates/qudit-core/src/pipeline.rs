//! The compilation pipeline: composable circuit-to-circuit passes with
//! per-pass statistics.
//!
//! The paper's flow — MCT synthesis → macro-gate lowering → G-gate lowering
//! → inverse-pair cancellation — is a staged compilation pipeline.  This
//! module provides the seam every stage plugs into:
//!
//! * [`Pass`] — a named, semantics-preserving circuit transformation;
//! * [`PassManager`] — composes passes and records a [`PassStats`] entry
//!   (gate count before and after, wall time) for each;
//! * [`CancelInversePairs`] and [`LowerToGGates`] — the core passes, wrapping
//!   [`crate::optimize::cancel_inverse_pairs`] and
//!   [`crate::lowering::lower_circuit`].
//!
//! The macro-gate lowering pass (`LowerToElementary`) and the
//! `Compiler` / `CompileOptions` facade configuring the full flow live in
//! `qudit-synthesis`, which owns the Fig. 2 / Fig. 5 gadgets; the
//! semantics-checking `VerifyEquivalence` wrapper lives in `qudit-sim`,
//! which owns the simulators.
//!
//! Passes are `Send + Sync`, and two scaling seams build on that:
//!
//! * **Batching** — [`PassManager::run_batch`] compiles many circuits
//!   concurrently on a [`WorkStealingPool`], whose workers claim jobs from
//!   one shared cursor, one [`PipelineReport`] per job;
//!   [`merge_pass_stats`] folds their per-pass statistics
//!   order-independently.
//! * **Pooling** — a pool is only its thread count:
//!   [`PassManager::with_pool`] pins it, and unpooled managers take the
//!   process-wide default (`QUDIT_THREADS`, else the available
//!   parallelism).  The job is the only unit of parallelism: every pass
//!   runs sequentially inside its job.
//!
//! Pipelines can also be *assembled from data* instead of hard-coded
//! builder chains: a [`PipelineSpec`] names the stages and shape, and a
//! [`PassRegistry`] maps stage names to pass factories
//! ([`PassRegistry::assemble`]).  This is the seam configuration surfaces
//! (such as `qudit-synthesis`'s `CompileOptions`) build on, so a new
//! orthogonal option means one more registered stage rather than a new
//! constructor family.
//!
//! # Example
//!
//! ```
//! use qudit_core::pipeline::{CancelInversePairs, LowerToGGates, PassManager};
//! use qudit_core::{Circuit, Control, Dimension, Gate, QuditId, SingleQuditOp};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let d = Dimension::new(3)?;
//! let mut circuit = Circuit::new(d, 2);
//! circuit.push(Gate::controlled(
//!     SingleQuditOp::Add(1),
//!     QuditId::new(1),
//!     vec![Control::level(QuditId::new(0), 2)],
//! ))?;
//!
//! let manager = PassManager::new()
//!     .with_pass(LowerToGGates)
//!     .with_pass(CancelInversePairs);
//! let report = manager.run(circuit)?;
//! assert!(report.circuit.gates().iter().all(|g| g.is_g_gate()));
//! assert_eq!(report.stats.len(), 2);
//! # Ok(())
//! # }
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cache::LoweringCache;
use crate::circuit::Circuit;
use crate::commute;
use crate::depth::circuit_depth;
use crate::error::{QuditError, Result};
use crate::gate::Gate;
use crate::lowering;
use crate::optimize;
use crate::pool::WorkStealingPool;

/// A named circuit-to-circuit transformation.
///
/// A pass must preserve the semantics of the circuit it transforms (up to
/// the contract it documents — for example, lowering passes preserve the
/// action on every basis state).  Passes take the circuit by value so that
/// identity-like passes can return their input without cloning, and are
/// `Send + Sync` so that one pipeline instance can compile many circuits
/// concurrently ([`PassManager::run_batch`]).
///
/// # Example
///
/// ```
/// use qudit_core::pipeline::{Pass, PassManager};
/// use qudit_core::{Circuit, Result};
///
/// /// Reverses a circuit into its inverse (semantics: the inverse map).
/// struct Invert;
///
/// impl Pass for Invert {
///     fn name(&self) -> &str {
///         "invert"
///     }
///     fn run(&self, circuit: Circuit) -> Result<Circuit> {
///         Ok(circuit.inverse())
///     }
/// }
///
/// # fn main() -> Result<()> {
/// let d = qudit_core::Dimension::new(3)?;
/// let report = PassManager::new()
///     .with_pass(Invert)
///     .run(Circuit::new(d, 2))?;
/// assert_eq!(report.stats[0].pass, "invert");
/// # Ok(())
/// # }
/// ```
pub trait Pass: Send + Sync {
    /// A short, stable, kebab-case name used in statistics and diagnostics.
    fn name(&self) -> &str;

    /// Transforms the circuit.
    ///
    /// # Errors
    ///
    /// Returns an error when the pass cannot handle the circuit (for
    /// example, lowering a gate with too many controls).
    fn run(&self, circuit: Circuit) -> Result<Circuit>;

    /// The per-gate walk [`Pass::run`] consists of, for a pass that rewrites
    /// `circuit` one gate at a time: `run` must return exactly the
    /// concatenation of the walk's [`GateWalk::emit`] outputs over the
    /// input's gates, in order, on the input's register.  Checkers use it
    /// to prove each rewrite locally (see `qudit-sim`'s
    /// `VerifyEquivalence`).  The default, `None`, says the pass has no
    /// such structure.
    fn gate_walk(&self, _circuit: &Circuit) -> Option<Box<dyn GateWalk>> {
        None
    }

    /// The rewrite [`Pass::run`] applies to `circuit`, for a pass that only
    /// deletes gates in inverse pairs or re-places them on a coupling
    /// graph: `run` must return exactly `rewrite.apply(circuit)`.  Checkers
    /// use it to prove each step and apply it to the input they already
    /// own (see `qudit-sim`'s `VerifyEquivalence`).  The default, `None`,
    /// says the pass has no such structure; a pass also returns `None` for
    /// a circuit its `run` refuses.
    fn rewrite(&self, _circuit: &Circuit) -> Option<Rewrite> {
        None
    }
}

impl Pass for Box<dyn Pass> {
    fn name(&self) -> &str {
        self.as_ref().name()
    }

    fn run(&self, circuit: Circuit) -> Result<Circuit> {
        self.as_ref().run(circuit)
    }

    fn gate_walk(&self, circuit: &Circuit) -> Option<Box<dyn GateWalk>> {
        self.as_ref().gate_walk(circuit)
    }

    fn rewrite(&self, circuit: &Circuit) -> Option<Rewrite> {
        self.as_ref().rewrite(circuit)
    }
}

/// One gate-by-gate rewrite of a circuit: the walk a lowering pass's `run`
/// is made of (see [`Pass::gate_walk`]).
pub trait GateWalk {
    /// Emits the gates that replace `gate` into `out`.
    ///
    /// # Errors
    ///
    /// Returns the error the pass's `run` fails with on this gate.
    fn emit(&mut self, gate: &Gate, out: &mut Vec<Gate>) -> Result<()>;

    /// At least as many gates as [`GateWalk::emit`] writes for `gate`
    /// (any number when it fails), so a driver can size its output once;
    /// the library's walks count exactly.
    fn count(&mut self, gate: &Gate) -> usize;
}

/// A rewrite that keeps its input's gates, only deleting some of them in
/// inverse pairs or re-placing them on a coupling graph's sites: what
/// [`Pass::rewrite`] hands a checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rewrite {
    /// Delete the gates of each pair `(first, second)` of input indices,
    /// `first < second`, listed in increasing order of `second` (see
    /// [`optimize::inverse_pairs`]).
    Cancel(Vec<(usize, usize)>),
    /// Re-place the gates through wire-SWAP ladders (see
    /// [`crate::route::Routing`]).
    Route(crate::route::Routing),
}

impl Rewrite {
    /// Applies the rewrite to `circuit`.
    ///
    /// # Errors
    ///
    /// Returns [`QuditError::IncompatibleCircuits`] when the rewrite does not
    /// fit the circuit: a pair that does not name two distinct gates (or
    /// shares one with another pair), or a ladder out of order, past the
    /// last gate or on sites outside the register.
    pub fn apply(&self, circuit: Circuit) -> Result<Circuit> {
        match self {
            Rewrite::Cancel(pairs) => optimize::remove_pairs(circuit, pairs),
            Rewrite::Route(routing) => routing.apply(circuit),
        }
    }
}

/// The lowering-cache knob, now inert: lowering keeps no cache, so every
/// mode compiles exactly as [`CacheMode::Off`] does.  It remains only so
/// existing callers of [`PipelineSpec::with_cache`] keep compiling.
///
/// # Example
///
/// ```
/// use qudit_core::cache::LoweringCache;
/// use qudit_core::pipeline::{CacheMode, PassRegistry, PipelineSpec};
/// use qudit_core::{Circuit, Control, Dimension, Gate, QuditId, SingleQuditOp};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d = Dimension::new(3)?;
/// let mut circuit = Circuit::new(d, 3);
/// for target in [1, 2] {
///     circuit.push(Gate::controlled(
///         SingleQuditOp::Add(1),
///         QuditId::new(target),
///         vec![Control::level(QuditId::new(0), 2)],
///     ))?;
/// }
/// let run = |cache: CacheMode| {
///     let spec = PipelineSpec::new()
///         .with_stage("lower-to-g-gates")
///         .with_cache(cache);
///     PassRegistry::core().assemble(&spec)?.run(circuit.clone())
/// };
/// let plain = run(CacheMode::Off)?;
/// assert_eq!(run(CacheMode::PerRun)?.circuit, plain.circuit);
/// assert_eq!(
///     run(CacheMode::Shared(LoweringCache::shared()))?.circuit,
///     plain.circuit
/// );
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub enum CacheMode {
    /// No cache.
    #[default]
    Off,
    /// Accepted for existing callers; compiles as [`CacheMode::Off`].
    PerRun,
    /// Accepted for existing callers; compiles as [`CacheMode::Off`].
    Shared(Arc<LoweringCache>),
}

/// The paper's two cost metrics of a circuit: one length read plus one
/// depth walk.  [`PassManager::run`] records only gate counts, which are a
/// length read; a caller that wants the depth at a stage boundary profiles
/// the circuit there itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitProfile {
    /// Total gate count.
    pub gates: usize,
    /// Circuit depth under greedy scheduling.
    pub depth: usize,
}

impl CircuitProfile {
    /// Profiles a circuit.
    pub fn of(circuit: &Circuit) -> Self {
        CircuitProfile {
            gates: circuit.len(),
            depth: circuit_depth(circuit),
        }
    }
}

/// Statistics of one pass execution: its gate counts, which cost a length
/// read each, and its wall time.  No depth is recorded per stage: a depth
/// is a walk over the circuit, so the facade measures only the final
/// circuit's, and a caller that wants the trajectory walks the stages one at
/// a time and profiles each boundary ([`CircuitProfile::of`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassStats {
    /// Name of the pass.
    pub pass: String,
    /// Gate count of the input circuit.
    pub gates_before: usize,
    /// Gate count of the output circuit.
    pub gates_after: usize,
    /// Wall-clock time the pass took.
    pub elapsed: Duration,
}

impl PassStats {
    /// Signed change in gate count (negative when the pass removed gates).
    pub fn gate_delta(&self) -> i64 {
        self.gates_after as i64 - self.gates_before as i64
    }
}

impl fmt::Display for PassStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: gates {} -> {}, {:.1} µs",
            self.pass,
            self.gates_before,
            self.gates_after,
            self.elapsed.as_secs_f64() * 1e6,
        )
    }
}

/// The result of running a [`PassManager`]: the final circuit plus one
/// [`PassStats`] entry per pass, in execution order.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// The circuit after every pass has run.
    pub circuit: Circuit,
    /// Per-pass statistics, in execution order.
    pub stats: Vec<PassStats>,
}

impl PipelineReport {
    /// Total wall-clock time across all passes.
    pub fn total_elapsed(&self) -> Duration {
        self.stats.iter().map(|s| s.elapsed).sum()
    }

    /// The statistics entry of the named pass, if it ran.
    pub fn stats_for(&self, pass: &str) -> Option<&PassStats> {
        self.stats.iter().find(|s| s.pass == pass)
    }
}

impl fmt::Display for PipelineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for stats in &self.stats {
            writeln!(f, "{stats}")?;
        }
        write!(
            f,
            "final: {} gates, depth {}",
            self.circuit.len(),
            circuit_depth(&self.circuit)
        )
    }
}

/// Per-pass statistics summed over the jobs of a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergedPassStats {
    /// Name of the pass.
    pub pass: String,
    /// Number of jobs the pass ran on.
    pub jobs: usize,
    /// Total input gates across jobs.
    pub gates_before: usize,
    /// Total output gates across jobs.
    pub gates_after: usize,
    /// Total wall-clock time across jobs.
    pub elapsed: Duration,
}

impl fmt::Display for MergedPassStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} jobs, gates {} -> {}, {:.1} ms",
            self.pass,
            self.jobs,
            self.gates_before,
            self.gates_after,
            self.elapsed.as_secs_f64() * 1e3,
        )
    }
}

/// Merges the per-run statistics of many pipeline executions (one
/// `[PassStats]` slice per run, all from the same pipeline) into one
/// [`MergedPassStats`] entry per stage.
///
/// Merging only sums per-run values, so the result is independent of the
/// iteration order — sequential and parallel executions of the same batch
/// merge to identical statistics.  The facade's `BatchResult` in
/// `qudit-synthesis` merges through it.
pub fn merge_pass_stats<'a>(
    runs: impl IntoIterator<Item = &'a [PassStats]>,
) -> Vec<MergedPassStats> {
    let mut merged: Vec<MergedPassStats> = Vec::new();
    for stats_run in runs {
        for (position, stats) in stats_run.iter().enumerate() {
            if merged.len() == position {
                merged.push(MergedPassStats {
                    pass: stats.pass.clone(),
                    jobs: 0,
                    gates_before: 0,
                    gates_after: 0,
                    elapsed: Duration::ZERO,
                });
            }
            let entry = &mut merged[position];
            debug_assert_eq!(
                entry.pass, stats.pass,
                "merged runs must come from the same pipeline"
            );
            entry.jobs += 1;
            entry.gates_before += stats.gates_before;
            entry.gates_after += stats.gates_after;
            entry.elapsed += stats.elapsed;
        }
    }
    merged
}

/// Composes [`Pass`]es into a pipeline and records per-pass statistics.
///
/// # Example
///
/// ```
/// use qudit_core::pipeline::{CancelInversePairs, LowerToGGates, PassManager};
/// use qudit_core::{Circuit, Control, Dimension, Gate, QuditId, SingleQuditOp};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d = Dimension::new(3)?;
/// let mut circuit = Circuit::new(d, 2);
/// circuit.push(Gate::controlled(
///     SingleQuditOp::Add(2),
///     QuditId::new(1),
///     vec![Control::zero(QuditId::new(0))],
/// ))?;
/// let manager = PassManager::new()
///     .with_pass(LowerToGGates)
///     .with_pass(CancelInversePairs);
/// let report = manager.run(circuit)?;
/// assert_eq!(report.stats.len(), 2);
/// assert!(report.circuit.gates().iter().all(|g| g.is_g_gate()));
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
    pool: Option<WorkStealingPool>,
}

impl PassManager {
    /// Creates an empty pipeline.
    pub fn new() -> Self {
        PassManager::default()
    }

    /// Appends a pass (builder style).
    #[must_use]
    pub fn with_pass(mut self, pass: impl Pass + 'static) -> Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Appends a boxed pass.
    pub fn push_pass(&mut self, pass: Box<dyn Pass>) {
        self.passes.push(pass);
    }

    /// Pins the worker pool [`PassManager::run_batch`] distributes jobs on,
    /// instead of sizing a fresh pool from the environment.
    #[must_use]
    pub fn with_pool(mut self, pool: WorkStealingPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// The configured worker pool, if one was pinned.
    pub fn pool(&self) -> Option<WorkStealingPool> {
        self.pool.clone()
    }

    /// Rebuilds the pipeline with every pass transformed by `wrap` — the
    /// hook decorating wrappers (such as `qudit-sim`'s `VerifyEquivalence`)
    /// use to instrument an existing pipeline.
    #[must_use]
    pub fn map_passes(self, wrap: impl FnMut(Box<dyn Pass>) -> Box<dyn Pass>) -> Self {
        PassManager {
            passes: self.passes.into_iter().map(wrap).collect(),
            pool: self.pool,
        }
    }

    /// The names of the passes, in execution order.
    pub fn pass_names(&self) -> Vec<&str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Number of passes.
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// Returns `true` when the pipeline has no passes.
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// Runs every pass in order, recording each one's gate counts and wall
    /// time (see [`PassStats`]).
    ///
    /// # Errors
    ///
    /// Returns the first pass error.
    pub fn run(&self, circuit: Circuit) -> Result<PipelineReport> {
        let mut current = circuit;
        let mut stats = Vec::with_capacity(self.passes.len());
        for pass in &self.passes {
            let gates_before = current.len();
            let start = Instant::now();
            current = pass.run(current)?;
            let elapsed = start.elapsed();
            stats.push(PassStats {
                pass: pass.name().to_string(),
                gates_before,
                gates_after: current.len(),
                elapsed,
            });
        }
        Ok(PipelineReport {
            circuit: current,
            stats,
        })
    }

    /// Compiles many circuits concurrently — on the pool pinned with
    /// [`PassManager::with_pool`], or a default-sized [`WorkStealingPool`]
    /// otherwise — returning one [`PipelineReport`] per circuit, in input
    /// order.
    ///
    /// The jobs move into the pool, so no circuit is copied.  Every job runs
    /// the same pipeline, sequentially on its worker.
    ///
    /// # Errors
    ///
    /// Returns the first job error in input order (later jobs still run).
    ///
    /// # Example
    ///
    /// ```
    /// use qudit_core::pipeline::{merge_pass_stats, LowerToGGates, PassManager};
    /// use qudit_core::{Circuit, Control, Dimension, Gate, QuditId, SingleQuditOp};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let d = Dimension::new(3)?;
    /// let circuits: Vec<Circuit> = (1..=4)
    ///     .map(|level| {
    ///         let mut c = Circuit::new(d, 2);
    ///         c.push(Gate::controlled(
    ///             SingleQuditOp::Add(level % 2 + 1),
    ///             QuditId::new(1),
    ///             vec![Control::level(QuditId::new(0), 2)],
    ///         ))?;
    ///         Ok::<_, qudit_core::QuditError>(c)
    ///     })
    ///     .collect::<Result<_, _>>()?;
    ///
    /// let manager = PassManager::new().with_pass(LowerToGGates);
    /// let reports = manager.run_batch(circuits)?;
    /// assert_eq!(reports.len(), 4);
    /// let merged = merge_pass_stats(reports.iter().map(|r| r.stats.as_slice()));
    /// assert_eq!(merged[0].pass, "lower-to-g-gates");
    /// assert_eq!(merged[0].jobs, 4);
    /// # Ok(())
    /// # }
    /// ```
    pub fn run_batch(&self, circuits: Vec<Circuit>) -> Result<Vec<PipelineReport>> {
        let pool = self.pool.clone().unwrap_or_default();
        pool.map(circuits, |circuit| self.run(circuit))
            .into_iter()
            .collect()
    }

    /// Runs the pipeline and returns only the final circuit.
    ///
    /// # Errors
    ///
    /// See [`PassManager::run`].
    pub fn run_circuit(&self, circuit: Circuit) -> Result<Circuit> {
        Ok(self.run(circuit)?.circuit)
    }
}

impl fmt::Debug for PassManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PassManager")
            .field("passes", &self.pass_names())
            .field("pool", &self.pool)
            .finish()
    }
}

/// A data-driven pipeline description: the ordered stage names of a
/// [`PassManager`].
///
/// Specs carry *data only* — resolving a stage name to a concrete [`Pass`]
/// is the job of a [`PassRegistry`].  Configuration surfaces (such as
/// `qudit-synthesis`'s `CompileOptions`) translate their typed knobs into a
/// spec, so two option sets can be compared structurally (same stages ⇒
/// same pipeline) and a new pass only needs a registry entry.
///
/// # Example
///
/// ```
/// use qudit_core::pipeline::{PassRegistry, PipelineSpec};
///
/// let spec = PipelineSpec::new()
///     .with_stage("lower-to-g-gates")
///     .with_stage("cancel-inverse-pairs");
/// let manager = PassRegistry::core().assemble(&spec).unwrap();
/// assert_eq!(
///     manager.pass_names(),
///     vec!["lower-to-g-gates", "cancel-inverse-pairs"]
/// );
/// ```
#[derive(Debug, Clone, Default)]
pub struct PipelineSpec {
    /// Stage names, in execution order (resolved by a [`PassRegistry`]).
    pub stages: Vec<String>,
    /// The inert cache knob (see [`CacheMode`]); assembly ignores it.
    pub cache: CacheMode,
}

impl PipelineSpec {
    /// An empty spec.
    pub fn new() -> Self {
        PipelineSpec::default()
    }

    /// Appends a stage (builder style).
    #[must_use]
    pub fn with_stage(mut self, name: impl Into<String>) -> Self {
        self.stages.push(name.into());
        self
    }

    /// Sets the inert cache knob (see [`CacheMode`]); it changes nothing.
    #[must_use]
    pub fn with_cache(mut self, cache: CacheMode) -> Self {
        self.cache = cache;
        self
    }
}

/// A factory producing a fresh boxed [`Pass`] per assembled pipeline.
pub type PassFactory = Box<dyn Fn() -> Box<dyn Pass> + Send + Sync>;

/// Maps stage names to pass factories, and assembles [`PassManager`]s from
/// [`PipelineSpec`]s.
///
/// [`PassRegistry::core`] registers the passes this crate owns; downstream
/// crates extend the registry with theirs (`qudit-synthesis` adds
/// `lower-to-elementary`).  Unknown stage names fail assembly with
/// [`QuditError::UnknownPass`] instead of silently dropping the stage.
pub struct PassRegistry {
    factories: BTreeMap<String, PassFactory>,
}

impl PassRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        PassRegistry {
            factories: BTreeMap::new(),
        }
    }

    /// The registry of the core passes: `gate-fusion` ([`GateFusion`]),
    /// `lower-to-g-gates` ([`LowerToGGates`]), `cancel-inverse-pairs`
    /// ([`CancelInversePairs`]) and `schedule-depth` ([`ScheduleDepth`]).
    pub fn core() -> Self {
        let mut registry = PassRegistry::new();
        registry.register("gate-fusion", || Box::new(GateFusion));
        registry.register("lower-to-g-gates", || Box::new(LowerToGGates));
        registry.register("cancel-inverse-pairs", || Box::new(CancelInversePairs));
        registry.register("schedule-depth", || Box::new(ScheduleDepth));
        registry
    }

    /// Registers (or replaces) the factory for a stage name.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn() -> Box<dyn Pass> + Send + Sync + 'static,
    ) {
        self.factories.insert(name.into(), Box::new(factory));
    }

    /// Returns `true` when a factory is registered for the stage name.
    pub fn contains(&self, name: &str) -> bool {
        self.factories.contains_key(name)
    }

    /// The registered stage names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.factories.keys().map(String::as_str).collect()
    }

    /// Assembles a [`PassManager`] from a spec: one factory-built pass per
    /// stage.
    ///
    /// # Errors
    ///
    /// Returns [`QuditError::UnknownPass`] naming the first stage with no
    /// registered factory.
    pub fn assemble(&self, spec: &PipelineSpec) -> Result<PassManager> {
        let mut manager = PassManager::new();
        for stage in &spec.stages {
            let factory = self
                .factories
                .get(stage)
                .ok_or_else(|| QuditError::UnknownPass {
                    stage: stage.clone(),
                })?;
            manager.push_pass(factory());
        }
        Ok(manager)
    }
}

impl Default for PassRegistry {
    fn default() -> Self {
        PassRegistry::new()
    }
}

impl fmt::Debug for PassRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PassRegistry")
            .field("stages", &self.names())
            .finish()
    }
}

/// Pass composing runs of same-support classical single-qudit gates into
/// one permutation gate (wraps [`crate::fusion::fuse_circuit`]).
///
/// Runs are rewritten only when the composed permutation strictly lowers
/// the transposition count (or is the identity, where the run is dropped),
/// so the pass never increases the lowered G-gate cost.  It runs best on
/// macro-level circuits, before `lower-to-g-gates` breaks the runs apart.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GateFusion;

impl Pass for GateFusion {
    fn name(&self) -> &str {
        "gate-fusion"
    }

    fn run(&self, circuit: Circuit) -> Result<Circuit> {
        crate::fusion::fuse_circuit(circuit)
    }
}

/// Pass removing adjacent gate/inverse pairs
/// (wraps [`crate::optimize::cancel_inverse_pairs`]).
///
/// The pass is one sequential stack sweep over the gates it is handed: the
/// work per gate is bounded by its arity, and the retained gates move to the
/// output instead of being cloned.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CancelInversePairs;

impl Pass for CancelInversePairs {
    fn name(&self) -> &str {
        "cancel-inverse-pairs"
    }

    fn run(&self, circuit: Circuit) -> Result<Circuit> {
        Ok(optimize::cancel_inverse_pairs(circuit))
    }

    fn rewrite(&self, circuit: &Circuit) -> Option<Rewrite> {
        Some(Rewrite::Cancel(optimize::inverse_pairs(circuit)))
    }
}

/// Pass lowering gates with at most one control to the elementary G-gate set
/// `{Xij} ∪ {|0⟩-X01}` (wraps [`crate::lowering::lower_circuit`]).
///
/// Gates with two or more controls make this pass fail; lower them first
/// with `qudit-synthesis`'s `LowerToElementary` pass.
///
/// The pass is one sequential walk over the gates that emits straight into
/// its output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LowerToGGates;

impl Pass for LowerToGGates {
    fn name(&self) -> &str {
        "lower-to-g-gates"
    }

    fn run(&self, circuit: Circuit) -> Result<Circuit> {
        lowering::lower_circuit(&circuit)
    }

    fn gate_walk(&self, circuit: &Circuit) -> Option<Box<dyn GateWalk>> {
        Some(Box::new(lowering::GGateWalk::new(circuit.dimension())))
    }
}

/// Pass reordering commuting gates to minimise circuit depth (wraps
/// [`crate::commute::schedule_depth`]).
///
/// Only gate pairs the commutation oracle ([`commute::gates_commute`])
/// proves commuting change relative order, so the output implements exactly
/// the input's operator; the output's depth never exceeds the input's, and
/// the pass is idempotent — a second run returns its input unchanged.
///
/// The pass runs one sequential scan: each gate walks the run-merged
/// history of each of its wires backward and stops once the wire's running
/// maximum of assigned layers cannot raise its dependency bound, so no
/// explicit DAG is built.  The gates it is handed move
/// into layer order instead of being cloned.
///
/// # Example
///
/// ```
/// use qudit_core::depth::circuit_depth;
/// use qudit_core::pipeline::{PassManager, ScheduleDepth};
/// use qudit_core::{Circuit, Control, Dimension, Gate, QuditId, SingleQuditOp};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d = Dimension::new(3)?;
/// let mut circuit = Circuit::new(d, 3);
/// circuit.push(Gate::single(SingleQuditOp::Add(1), QuditId::new(0)))?;
/// circuit.push(Gate::controlled(
///     SingleQuditOp::Swap(0, 1),
///     QuditId::new(1),
///     vec![Control::zero(QuditId::new(0))],
/// ))?;
/// circuit.push(Gate::single(SingleQuditOp::Swap(0, 1), QuditId::new(1)))?;
///
/// let depth = circuit_depth(&circuit);
/// let report = PassManager::new().with_pass(ScheduleDepth).run(circuit)?;
/// let stats = &report.stats[0];
/// assert_eq!(stats.pass, "schedule-depth");
/// assert_eq!(stats.gates_after, stats.gates_before);
/// assert!(circuit_depth(&report.circuit) < depth);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScheduleDepth;

impl Pass for ScheduleDepth {
    fn name(&self) -> &str {
        "schedule-depth"
    }

    fn run(&self, circuit: Circuit) -> Result<Circuit> {
        Ok(commute::schedule_depth(circuit))
    }
}

/// An ad-hoc pass built from a closure; see [`pass_fn`].
pub struct FnPass<F> {
    name: String,
    run: F,
}

impl<F: Fn(Circuit) -> Result<Circuit> + Send + Sync> Pass for FnPass<F> {
    fn name(&self) -> &str {
        &self.name
    }

    fn run(&self, circuit: Circuit) -> Result<Circuit> {
        (self.run)(circuit)
    }
}

/// Wraps a closure as a [`Pass`], for one-off transformations and tests.
pub fn pass_fn<F: Fn(Circuit) -> Result<Circuit> + Send + Sync>(
    name: impl Into<String>,
    run: F,
) -> FnPass<F> {
    FnPass {
        name: name.into(),
        run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::Control;
    use crate::dimension::Dimension;
    use crate::gate::Gate;
    use crate::ops::SingleQuditOp;
    use crate::qudit::QuditId;

    fn dim(d: u32) -> Dimension {
        Dimension::new(d).unwrap()
    }

    fn sample_circuit() -> Circuit {
        let mut circuit = Circuit::new(dim(3), 2);
        circuit
            .push(Gate::controlled(
                SingleQuditOp::Add(1),
                QuditId::new(1),
                vec![Control::level(QuditId::new(0), 2)],
            ))
            .unwrap();
        circuit
    }

    #[test]
    fn empty_manager_is_identity() {
        let circuit = sample_circuit();
        let report = PassManager::new().run(circuit.clone()).unwrap();
        assert_eq!(report.circuit, circuit);
        assert!(report.stats.is_empty());
        assert!(PassManager::new().is_empty());
    }

    #[test]
    fn passes_run_in_order_and_record_stats() {
        let manager = PassManager::new()
            .with_pass(LowerToGGates)
            .with_pass(CancelInversePairs);
        assert_eq!(
            manager.pass_names(),
            vec!["lower-to-g-gates", "cancel-inverse-pairs"]
        );
        let report = manager.run(sample_circuit()).unwrap();
        assert!(report.circuit.gates().iter().all(Gate::is_g_gate));
        assert_eq!(report.stats.len(), 2);
        assert_eq!(report.stats[0].pass, "lower-to-g-gates");
        assert_eq!(report.stats[0].gates_before, 1);
        assert_eq!(report.stats[0].gates_after, report.stats[1].gates_before);
        assert_eq!(report.stats[1].gates_after, report.circuit.len());
        assert!(report.stats_for("lower-to-g-gates").is_some());
        assert!(report.stats_for("nonexistent").is_none());
        assert!(report.total_elapsed() >= Duration::ZERO);
    }

    #[test]
    fn g_gate_lowering_preserves_basis_action() {
        let circuit = sample_circuit();
        let lowered = PassManager::new()
            .with_pass(LowerToGGates)
            .run_circuit(circuit.clone())
            .unwrap();
        for a in 0..3 {
            for b in 0..3 {
                assert_eq!(
                    circuit.apply_to_basis(&[a, b]).unwrap(),
                    lowered.apply_to_basis(&[a, b]).unwrap()
                );
            }
        }
    }

    #[test]
    fn fn_pass_and_map_passes_compose() {
        let reverse = pass_fn("reverse", |c: Circuit| Ok(c.inverse()));
        let manager = PassManager::new().with_pass(reverse);
        let report = manager.run(sample_circuit()).unwrap();
        assert_eq!(report.stats[0].pass, "reverse");

        // Decorate every pass with a renaming wrapper.
        struct Renamed {
            name: String,
            inner: Box<dyn Pass>,
        }
        impl Pass for Renamed {
            fn name(&self) -> &str {
                &self.name
            }
            fn run(&self, circuit: Circuit) -> Result<Circuit> {
                self.inner.run(circuit)
            }
        }
        let manager = PassManager::new()
            .with_pass(LowerToGGates)
            .map_passes(|inner| {
                Box::new(Renamed {
                    name: format!("wrapped({})", inner.name()),
                    inner,
                })
            });
        assert_eq!(manager.pass_names(), vec!["wrapped(lower-to-g-gates)"]);
        assert!(manager.run(sample_circuit()).is_ok());
    }

    #[test]
    fn pass_errors_propagate() {
        let failing = pass_fn("fail", |_| {
            Err(QuditError::PassFailed {
                pass: "fail".into(),
                reason: "boom".into(),
            })
        });
        let manager = PassManager::new().with_pass(failing);
        assert!(matches!(
            manager.run(sample_circuit()),
            Err(QuditError::PassFailed { .. })
        ));
    }

    #[test]
    fn profile_counts_are_consistent() {
        let circuit = sample_circuit();
        let profile = CircuitProfile::of(&circuit);
        assert_eq!(profile, CircuitProfile { gates: 1, depth: 1 });
    }

    #[test]
    fn cached_runs_produce_the_uncached_circuit() {
        // The cache knob is inert: every mode assembles the same pipeline.
        let run = |cache: CacheMode| {
            let spec = PipelineSpec::new()
                .with_stage("lower-to-g-gates")
                .with_cache(cache);
            PassRegistry::core()
                .assemble(&spec)
                .unwrap()
                .run(sample_circuit())
                .unwrap()
        };
        let plain = run(CacheMode::Off);
        assert_eq!(run(CacheMode::PerRun).circuit, plain.circuit);
        let shared = CacheMode::Shared(crate::cache::LoweringCache::shared());
        assert_eq!(run(shared).circuit, plain.circuit);
    }

    #[test]
    fn run_batch_matches_sequential_runs() {
        let circuits: Vec<Circuit> = (0..6).map(|_| sample_circuit()).collect();
        let manager = PassManager::new()
            .with_pass(LowerToGGates)
            .with_pass(CancelInversePairs);
        let sequential: Vec<PipelineReport> = circuits
            .iter()
            .map(|c| manager.run(c.clone()).unwrap())
            .collect();
        let batch = manager
            .with_pool(WorkStealingPool::with_threads(4))
            .run_batch(circuits)
            .unwrap();
        assert_eq!(batch.len(), sequential.len());
        for (batch_report, reference) in batch.iter().zip(&sequential) {
            assert_eq!(batch_report.circuit, reference.circuit);
            for (a, b) in batch_report.stats.iter().zip(&reference.stats) {
                assert_eq!(a.pass, b.pass);
                assert_eq!(a.gates_before, b.gates_before);
                assert_eq!(a.gates_after, b.gates_after);
            }
        }
    }

    #[test]
    fn merged_stats_are_order_independent() {
        let circuits: Vec<Circuit> = (0..5).map(|_| sample_circuit()).collect();
        let manager = PassManager::new()
            .with_pass(LowerToGGates)
            .with_pass(CancelInversePairs);
        let mut batch = manager.run_batch(circuits).unwrap();
        let merge = |reports: &[PipelineReport]| {
            merge_pass_stats(reports.iter().map(|r| r.stats.as_slice()))
        };
        let merged = merge(&batch);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].jobs, 5);

        // Any permutation of the job reports merges to the same statistics.
        batch.rotate_left(2);
        assert_eq!(merge(&batch), merged);
        batch.reverse();
        assert_eq!(merge(&batch), merged);
    }

    #[test]
    fn run_batch_returns_the_first_error_in_input_order() {
        let narrow_only = pass_fn("narrow-only", |c: Circuit| {
            if c.width() <= 2 {
                return Ok(c);
            }
            Err(QuditError::PassFailed {
                pass: "narrow-only".into(),
                reason: format!("width {}", c.width()),
            })
        });
        let manager = PassManager::new().with_pass(narrow_only);
        let jobs = vec![
            sample_circuit(),
            Circuit::new(dim(3), 4),
            Circuit::new(dim(3), 5),
        ];
        match manager.run_batch(jobs) {
            Err(QuditError::PassFailed { reason, .. }) => assert_eq!(reason, "width 4"),
            other => panic!("expected the width-4 job's error, got {other:?}"),
        }
    }

    #[test]
    fn registry_assembles_managers_from_specs() {
        let spec = PipelineSpec::new()
            .with_stage("lower-to-g-gates")
            .with_stage("cancel-inverse-pairs")
            .with_stage("schedule-depth");
        let manager = PassRegistry::core().assemble(&spec).unwrap();
        assert_eq!(
            manager.pass_names(),
            vec!["lower-to-g-gates", "cancel-inverse-pairs", "schedule-depth"]
        );
        let report = manager.run(sample_circuit()).unwrap();
        assert!(report.circuit.gates().iter().all(Gate::is_g_gate));
    }

    #[test]
    fn unknown_stages_fail_assembly() {
        let spec = PipelineSpec::new().with_stage("route-qudits");
        match PassRegistry::core().assemble(&spec) {
            Err(QuditError::UnknownPass { stage }) => assert_eq!(stage, "route-qudits"),
            other => panic!("expected UnknownPass, got {other:?}"),
        }
        assert!(!PassRegistry::core().contains("route-qudits"));
        assert!(PassRegistry::core().contains("schedule-depth"));
    }

    #[test]
    fn registered_stages_extend_the_core_set() {
        let mut registry = PassRegistry::core();
        registry.register("reverse", || {
            Box::new(pass_fn("reverse", |c: Circuit| Ok(c.inverse())))
        });
        let spec = PipelineSpec::new()
            .with_stage("reverse")
            .with_stage("lower-to-g-gates");
        let manager = registry.assemble(&spec).unwrap();
        assert_eq!(manager.pass_names(), vec!["reverse", "lower-to-g-gates"]);
        assert!(manager.run(sample_circuit()).is_ok());
    }

    #[test]
    fn pinned_pools_reach_passes_and_batches() {
        // Outputs do not depend on the pool (pinned by the determinism
        // suites); here we check the pool plumbing itself.
        let manager = PassManager::new()
            .with_pass(LowerToGGates)
            .with_pass(CancelInversePairs)
            .with_pool(WorkStealingPool::with_threads(2));
        assert_eq!(manager.pool().map(|p| p.threads()), Some(2));
        let report = manager.run(sample_circuit()).unwrap();
        assert!(report.circuit.gates().iter().all(Gate::is_g_gate));
        // `map_passes` keeps the pool.
        let wrapped = manager.map_passes(|p| p);
        assert_eq!(wrapped.pool().map(|p| p.threads()), Some(2));
        // `run_batch` uses the pinned pool (smoke: results still correct).
        let circuits: Vec<Circuit> = (0..4).map(|_| sample_circuit()).collect();
        let batch = wrapped.run_batch(circuits).unwrap();
        assert_eq!(batch.len(), 4);
    }

    #[test]
    fn merge_pass_stats_matches_batch_merging() {
        let circuits: Vec<Circuit> = (0..4).map(|_| sample_circuit()).collect();
        let manager = PassManager::new()
            .with_pass(LowerToGGates)
            .with_pass(CancelInversePairs);
        let reports: Vec<PipelineReport> = circuits
            .iter()
            .map(|c| manager.run(c.clone()).unwrap())
            .collect();
        let direct = merge_pass_stats(reports.iter().map(|r| r.stats.as_slice()));
        let batch = manager.run_batch(circuits).unwrap();
        let via_batch = merge_pass_stats(batch.iter().map(|r| r.stats.as_slice()));
        // Wall times differ between runs; the counts must not.
        let counts = |merged: &[MergedPassStats]| {
            merged
                .iter()
                .map(|m| MergedPassStats {
                    elapsed: Duration::ZERO,
                    ..m.clone()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(counts(&direct), counts(&via_batch));
        assert_eq!(direct.len(), 2);
        assert_eq!(direct[0].jobs, 4);
    }

    #[test]
    fn stats_display_and_deltas() {
        let manager = PassManager::new()
            .with_pass(LowerToGGates)
            .with_pass(CancelInversePairs);
        let report = manager.run(sample_circuit()).unwrap();
        let lowering = &report.stats[0];
        assert!(lowering.gate_delta() > 0);
        assert!(lowering.to_string().contains("lower-to-g-gates"));
        assert!(report.to_string().contains("final:"));
    }
}
