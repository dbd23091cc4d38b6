//! The typed compilation facade: [`CompileOptions`] + [`Compiler`].
//!
//! One composable configuration surface for the paper's flow:
//!
//! * [`CompileOptions`] — a builder whose one pass selector is the
//!   [`OptLevel`], plus orthogonal typed knobs for [`Verify`],
//!   [`Threads`] and routing;
//! * [`Compiler`] — the facade owning the worker pool and the assembled
//!   [`PassManager`], with [`Compiler::compile`] and
//!   [`Compiler::compile_batch`] returning the unified [`CompileResult`] /
//!   [`BatchResult`] report types (circuit, per-pass statistics, depth,
//!   verification verdict).
//!
//! Internally the options translate to a data-driven
//! [`PipelineSpec`] resolved against a
//! [`PassRegistry`] ([`registry`]), so a knob that adds a pass (as routing
//! does) is one more registered stage.
//!
//! # Quick start
//!
//! ```
//! use qudit_core::Dimension;
//! use qudit_synthesis::{CompileOptions, KToffoli, Verify};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dimension = Dimension::new(3)?;
//! let synthesis = KToffoli::new(dimension, 4)?.synthesize()?;
//!
//! // Standard flow (lower → G-gates → cancel), every stage self-checked.
//! let compiler = CompileOptions::new()
//!     .verify(Verify::Exhaustive)
//!     .compiler();
//! let result = compiler.compile(synthesis.circuit())?;
//! assert!(result.circuit.gates().iter().all(|g| g.is_g_gate()));
//! assert!(result.verification.is_verified());
//! assert_eq!(result.depth, qudit_core::depth::circuit_depth(&result.circuit));
//! # Ok(())
//! # }
//! ```

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use qudit_core::cache::CacheCounters;
use qudit_core::depth::circuit_depth;
use qudit_core::pipeline::{
    merge_pass_stats, CacheMode, MergedPassStats, PassManager, PassRegistry, PassStats,
    PipelineReport, PipelineSpec,
};
use qudit_core::pool::WorkStealingPool;
use qudit_core::route::{CostModel, RoutePass, UniformCost, SWAP_LADDER_GATES};
use qudit_core::topology::CouplingGraph;
use qudit_core::{Circuit, QuditError};
use qudit_sim::pipeline::VerifyEquivalence;
use qudit_sim::SimBackend;

use crate::pipeline::LowerToElementary;

/// How (and whether) every pipeline stage is checked for semantics
/// preservation.
///
/// Verification wraps each assembled pass in
/// [`VerifyEquivalence`], so a stage that changes the circuit's operator
/// fails the compilation with [`QuditError::PassFailed`].  The facade
/// refuses non-classical gates before the first stage, so every stage it
/// checks is classical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Verify {
    /// No verification (the default — the configuration gate counts are
    /// measured in).
    #[default]
    Off,
    /// Check as strongly as the register size allows.  Lowering,
    /// inverse-pair cancellation and routing are proved structurally (each
    /// local rewrite swept over the basis of its own wires), which is exact
    /// at any width.  Other stages, and any stage whose structural proof
    /// fails, are checked globally: exhaustively over the basis for small
    /// registers, on a deterministic sample of basis states above the
    /// built-in size bound.
    Exhaustive,
}

/// Worker-pool sizing of a [`Compiler`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Threads {
    /// Size the pool from the environment (`QUDIT_THREADS`, else the
    /// available parallelism) — the default.
    #[default]
    Auto,
    /// A fixed worker count (values below 1 are treated as 1; `Fixed(1)`
    /// compiles batches on the calling thread).
    Fixed(usize),
}

/// The optimisation level: the one selector of the pass list a
/// [`Compiler`] runs (see [`CompileOptions::opt_level`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptLevel {
    /// Lowering only (macro → elementary → G-gates) — the configuration the
    /// paper's G-gate counts are reported in.
    O0,
    /// `O0` plus macro-level gate fusion before lowering and inverse-pair
    /// cancellation after it (the standard flow, and the default).
    O1,
    /// `O1` plus commutation-aware depth scheduling.
    O2,
}

/// Typed, orthogonal configuration of a [`Compiler`].
///
/// Every knob composes with every other; the default
/// (`CompileOptions::new()`) is the paper's standard flow ([`OptLevel::O1`]:
/// fusion, lowering and inverse-pair cancellation), unverified, on an
/// environment-sized pool.
///
/// Jobs can enter the pipeline as Rust [`Circuit`]s
/// ([`Compiler::compile`]) or as text IR ([`Compiler::compile_source`]);
/// the accepted dialect — dimension declarations, the gate table and
/// control syntax — is documented in the [`qudit_core::qasm`] module-level
/// reference.
///
/// # Example
///
/// ```
/// use qudit_synthesis::{CompileOptions, OptLevel, Threads, Verify};
///
/// let options = CompileOptions::new()
///     .opt_level(OptLevel::O2)             // fusion, cancel, schedule
///     .verify(Verify::Exhaustive)          // self-check every stage
///     .threads(Threads::Fixed(2));
/// assert_eq!(
///     options.compiler().pass_names(),
///     vec![
///         "verify(gate-fusion)",
///         "verify(lower-to-elementary)",
///         "verify(lower-to-g-gates)",
///         "verify(cancel-inverse-pairs)",
///         "verify(schedule-depth)",
///     ]
/// );
/// ```
#[derive(Clone)]
pub struct CompileOptions {
    verify: Verify,
    opt_level: OptLevel,
    threads: Threads,
    topology: Option<CouplingGraph>,
    cost: Arc<dyn CostModel>,
}

impl fmt::Debug for CompileOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompileOptions")
            .field("verify", &self.verify)
            .field("opt_level", &self.opt_level)
            .field("threads", &self.threads)
            .field("topology", &self.topology)
            .field("cost", &self.cost.name())
            .finish()
    }
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            verify: Verify::Off,
            opt_level: OptLevel::O1,
            threads: Threads::Auto,
            topology: None,
            cost: Arc::new(UniformCost),
        }
    }
}

impl CompileOptions {
    /// The default options: the standard flow (`O1`), unverified,
    /// environment-sized pool.
    pub fn new() -> Self {
        CompileOptions::default()
    }

    /// Selects the verification mode (default [`Verify::Off`]).
    #[must_use]
    pub fn verify(mut self, verify: Verify) -> Self {
        self.verify = verify;
        self
    }

    /// Selects the pass list (default [`OptLevel::O1`]).
    ///
    /// * `O0` lowers only: macro → elementary → G-gates.
    /// * `O1` adds `gate-fusion` ahead of lowering, which composes runs of
    ///   same-support classical gates into one permutation gate and only
    ///   rewrites a run when that provably does not increase the lowered
    ///   G-gate cost, and `cancel-inverse-pairs` after it.
    /// * `O2` adds `schedule-depth` last, which permutes commuting gates to
    ///   cut depth and never rewrites them.
    #[must_use]
    pub fn opt_level(mut self, level: OptLevel) -> Self {
        self.opt_level = level;
        self
    }

    /// The inert cache knob: lowering keeps no cache, so every
    /// [`CacheMode`] compiles as the default does and the value is dropped.
    #[must_use]
    pub fn cache(self, _cache: CacheMode) -> Self {
        self
    }

    /// Sizes the compiler's worker pool (default [`Threads::Auto`]).
    #[must_use]
    pub fn threads(mut self, threads: Threads) -> Self {
        self.threads = threads;
        self
    }

    /// An alias of `.threads(Threads::Fixed(pool.threads()))`: a pool is
    /// nothing but its thread count.  Like every setter, the last of
    /// `pool` and [`CompileOptions::threads`] wins.  Kept only because the
    /// `e2ebench` harness calls it.
    #[must_use]
    pub fn pool(self, pool: WorkStealingPool) -> Self {
        self.threads(Threads::Fixed(pool.threads()))
    }

    /// Routes compiled circuits onto a device coupling graph (default: off —
    /// all-to-all connectivity, no `"route"` stage).
    ///
    /// With a topology set, the input circuit is first embedded in the
    /// graph's full site register, then — after lowering and cancellation,
    /// before scheduling — the `"route"` stage rewrites it so every
    /// two-qudit gate acts on a coupled pair, appending the
    /// inverse-permutation SWAP epilogue so the stage is
    /// semantics-preserving (and verifies under every [`Verify`] mode).
    /// [`CompileResult`] then reports `swap_count` and `weighted_cost`.
    #[must_use]
    pub fn topology(mut self, graph: CouplingGraph) -> Self {
        self.topology = Some(graph);
        self
    }

    /// Selects the cost model driving the router's tie-breaking and the
    /// reported `weighted_cost` (default [`UniformCost`]; only observable
    /// with a [`CompileOptions::topology`] set).
    #[must_use]
    pub fn cost(mut self, cost: impl CostModel + 'static) -> Self {
        self.cost = Arc::new(cost);
        self
    }

    /// The configured verification mode.
    pub fn verify_mode(&self) -> Verify {
        self.verify
    }

    /// The simulation backend: always [`SimBackend::Auto`], since
    /// verification picks its strategy from the circuits.
    pub fn sim_backend(&self) -> SimBackend {
        SimBackend::Auto
    }

    /// The coupling graph routing targets, if routing is enabled.
    pub fn coupling_graph(&self) -> Option<&CouplingGraph> {
        self.topology.as_ref()
    }

    /// The configured cost model.
    pub fn cost_model(&self) -> &Arc<dyn CostModel> {
        &self.cost
    }

    /// The data-driven pipeline description these options select — the
    /// stage list handed to [`registry`] for assembly.
    pub fn spec(&self) -> PipelineSpec {
        let optimise = self.opt_level != OptLevel::O0;
        let mut spec = PipelineSpec::new();
        if optimise {
            // Fusion runs first, at the macro level, where same-support
            // runs are still visible (lowering breaks them apart).
            spec = spec.with_stage("gate-fusion");
        }
        spec = spec
            .with_stage("lower-to-elementary")
            .with_stage("lower-to-g-gates");
        if optimise {
            spec = spec.with_stage("cancel-inverse-pairs");
        }
        if self.topology.is_some() {
            // Routing runs on the lowered, cancelled circuit (arity ≤ 2)
            // and before scheduling, so routed-then-scheduled depth is what
            // the pipeline measures.
            spec = spec.with_stage("route");
        }
        if self.opt_level == OptLevel::O2 {
            spec = spec.with_stage("schedule-depth");
        }
        spec
    }

    /// Assembles the [`PassManager`] these options describe — the escape
    /// hatch for callers that extend the pipeline with custom passes
    /// ([`PassManager::with_pass`]) before running it themselves.
    pub fn build_manager(&self) -> PassManager {
        let mut registry = registry();
        if let Some(graph) = &self.topology {
            // The registry's factories are configuration-free; the route
            // stage closes over this option set's graph and cost model.
            let graph = graph.clone();
            let cost = self.cost.clone();
            registry.register("route", move || {
                Box::new(RoutePass::new(graph.clone(), cost.clone()))
            });
        }
        let manager = registry
            .assemble(&self.spec())
            .expect("every stage the options select is registered");
        let manager = match self.threads {
            Threads::Auto => manager,
            Threads::Fixed(threads) => manager.with_pool(WorkStealingPool::with_threads(threads)),
        };
        match self.verify {
            Verify::Off => manager,
            Verify::Exhaustive => VerifyEquivalence::wrap_manager(manager),
        }
    }

    /// Builds the [`Compiler`] these options describe.
    pub fn compiler(self) -> Compiler {
        Compiler::new(self)
    }
}

/// The pass registry the facade assembles pipelines from: the core passes
/// ([`PassRegistry::core`]) plus this crate's `lower-to-elementary` stage.
pub fn registry() -> PassRegistry {
    let mut registry = PassRegistry::core();
    registry.register("lower-to-elementary", || Box::new(LowerToElementary));
    registry
}

/// Verification verdict of a compilation (see [`Verify`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// Verification was off; the output was not re-simulated.
    Skipped,
    /// Every stage was wrapped in [`VerifyEquivalence`] and accepted — the
    /// output provably implements the input's operator under the checked
    /// inputs.  (A failed check never produces a result: it fails the
    /// compilation instead.)
    Verified,
}

impl VerifyOutcome {
    /// Returns `true` when the compilation was verified.
    pub fn is_verified(&self) -> bool {
        matches!(self, VerifyOutcome::Verified)
    }
}

impl fmt::Display for VerifyOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyOutcome::Skipped => write!(f, "skipped"),
            VerifyOutcome::Verified => write!(f, "verified"),
        }
    }
}

/// The unified report of one compilation: the circuit plus everything the
/// run measured.
///
/// This is the single return shape of both [`Compiler::compile`] and (per
/// job) [`Compiler::compile_batch`].
#[derive(Debug, Clone)]
pub struct CompileResult {
    /// The compiled circuit.
    pub circuit: Circuit,
    /// Per-pass statistics, in execution order (verification wrappers
    /// report as `verify(<pass>)`).
    pub stats: Vec<PassStats>,
    /// Depth of the compiled circuit: the one depth walk of a compile.
    pub depth: usize,
    /// Gates removed by the macro-level `gate-fusion` stage (zero when the
    /// stage was disabled or found nothing profitable to fuse).
    pub fused_gates: usize,
    /// Wire-SWAP ladders the `"route"` stage inserted — `Some` whenever a
    /// [`CompileOptions::topology`] was set, `None` otherwise.
    pub swap_count: Option<usize>,
    /// The configured [`CostModel`]'s cost of the final circuit — `Some`
    /// whenever a topology was set.
    pub weighted_cost: Option<f64>,
    /// Whether the compilation was verified (see [`Verify`]).
    pub verification: VerifyOutcome,
}

impl CompileResult {
    fn from_report(report: PipelineReport, options: &CompileOptions) -> Self {
        let verify = options.verify;
        let depth = circuit_depth(&report.circuit);
        let fused_gates = report
            .stats
            .iter()
            .filter(|stats| matches!(stats.pass.as_str(), "gate-fusion" | "verify(gate-fusion)"))
            .map(|stats| stats.gates_before.saturating_sub(stats.gates_after))
            .sum();
        let route_stats = report
            .stats
            .iter()
            .find(|stats| matches!(stats.pass.as_str(), "route" | "verify(route)"));
        // The route stage only ever *adds* gates, all of them in
        // four-gate SWAP ladders, so the gate delta recovers the count.
        let swap_count = route_stats
            .map(|stats| stats.gates_after.saturating_sub(stats.gates_before) / SWAP_LADDER_GATES);
        let weighted_cost = options
            .topology
            .is_some()
            .then(|| options.cost.circuit_cost(&report.circuit));
        CompileResult {
            depth,
            circuit: report.circuit,
            stats: report.stats,
            fused_gates,
            swap_count,
            weighted_cost,
            verification: match verify {
                Verify::Off => VerifyOutcome::Skipped,
                Verify::Exhaustive => VerifyOutcome::Verified,
            },
        }
    }

    /// Exports the compiled circuit as canonical text IR (see
    /// [`qudit_core::qasm::print_circuit`]); parsing the result back yields
    /// a structurally identical circuit.
    ///
    /// # Example
    ///
    /// ```
    /// use qudit_core::{Circuit, Dimension, Gate, QuditId, SingleQuditOp};
    /// use qudit_synthesis::CompileOptions;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut circuit = Circuit::new(Dimension::new(3)?, 1);
    /// circuit.push(Gate::single(SingleQuditOp::Swap(0, 2), QuditId::new(0)))?;
    /// let result = CompileOptions::new().compiler().compile(&circuit)?;
    /// let text = result.to_qasm();
    /// assert_eq!(qudit_core::qasm::parse_source(&text)?, result.circuit);
    /// # Ok(())
    /// # }
    /// ```
    pub fn to_qasm(&self) -> String {
        qudit_core::qasm::print_circuit(&self.circuit)
    }

    /// Total wall-clock time across all passes.
    pub fn total_elapsed(&self) -> Duration {
        self.stats.iter().map(|s| s.elapsed).sum()
    }

    /// The statistics entry of the named pass, if it ran (verification
    /// wrappers match both `name` and `verify(name)`).
    pub fn stats_for(&self, pass: &str) -> Option<&PassStats> {
        let wrapped = format!("verify({pass})");
        self.stats
            .iter()
            .find(|s| s.pass == pass || s.pass == wrapped)
    }
}

impl fmt::Display for CompileResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for stats in &self.stats {
            writeln!(f, "{stats}")?;
        }
        write!(
            f,
            "final: {} gates, depth {}, verification {}",
            self.circuit.len(),
            self.depth,
            self.verification
        )
    }
}

/// The unified report of a batch compilation: one [`CompileResult`] per
/// input circuit, in input order, plus order-independent merged statistics.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Per-job results, in input order.
    pub results: Vec<CompileResult>,
}

impl BatchResult {
    /// Number of compiled circuits.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Returns `true` when the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// The compiled circuits, in input order.
    pub fn circuits(&self) -> impl Iterator<Item = &Circuit> {
        self.results.iter().map(|r| &r.circuit)
    }

    /// Per-pass statistics summed over every job (order-independent — see
    /// [`merge_pass_stats`]).
    pub fn merged_stats(&self) -> Vec<MergedPassStats> {
        merge_pass_stats(self.results.iter().map(|r| r.stats.as_slice()))
    }

    /// Total wall-clock pass time summed over every job (CPU time, not
    /// elapsed time: concurrent jobs overlap).
    pub fn total_elapsed(&self) -> Duration {
        self.results.iter().map(CompileResult::total_elapsed).sum()
    }

    /// Inert: always zero, since lowering keeps no cache.
    pub fn cache_counters(&self) -> CacheCounters {
        CacheCounters::default()
    }

    /// Returns `true` when every job of the batch was verified.
    pub fn is_verified(&self) -> bool {
        !self.results.is_empty() && self.results.iter().all(|r| r.verification.is_verified())
    }
}

impl fmt::Display for BatchResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "batch of {} circuits", self.len())?;
        for merged in self.merged_stats() {
            writeln!(f, "{merged}")?;
        }
        Ok(())
    }
}

/// The compilation facade: owns the worker pool and the [`PassManager`]
/// assembled from its [`CompileOptions`].
///
/// One `Compiler` is immutable and reusable — build it once, compile many
/// circuits (or batches) through it.
///
/// # Example
///
/// ```
/// use qudit_core::Dimension;
/// use qudit_synthesis::{CompileOptions, Compiler, KToffoli};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A heterogeneous sweep through one compiler.
/// let mut jobs = Vec::new();
/// for (d, k) in [(3u32, 4usize), (4, 3), (5, 2)] {
///     let synthesis = KToffoli::new(Dimension::new(d)?, k)?.synthesize()?;
///     jobs.push(synthesis.circuit().clone());
/// }
/// let compiler = Compiler::new(CompileOptions::new());
/// let batch = compiler.compile_batch(&jobs)?;
/// assert_eq!(batch.len(), 3);
/// assert!(batch.circuits().all(|c| c.gates().iter().all(|g| g.is_g_gate())));
/// # Ok(())
/// # }
/// ```
pub struct Compiler {
    options: CompileOptions,
    manager: PassManager,
}

impl Compiler {
    /// Builds the compiler an option set describes.
    pub fn new(options: CompileOptions) -> Self {
        let manager = options.build_manager();
        Compiler { options, manager }
    }

    /// The options this compiler was built from.
    pub fn options(&self) -> &CompileOptions {
        &self.options
    }

    /// The assembled pass names, in execution order.
    pub fn pass_names(&self) -> Vec<&str> {
        self.manager.pass_names()
    }

    /// The assembled pass manager (for inspection; to *extend* the pipeline
    /// use [`CompileOptions::build_manager`] and run the manager directly).
    pub fn manager(&self) -> &PassManager {
        &self.manager
    }

    /// Compiles one circuit.
    ///
    /// # Errors
    ///
    /// Returns [`QuditError::UnsupportedLowering`] for a non-classical gate
    /// whose controls can fire, since the G-gates are all classical.  Gates
    /// whose controls can never fire are dropped as the identity before the
    /// first stage.  Otherwise returns the first pass error, including
    /// verification failures ([`Verify`]).
    pub fn compile(&self, circuit: &Circuit) -> qudit_core::Result<CompileResult> {
        self.compile_job(Cow::Borrowed(circuit))
    }

    /// Admits and embeds one job (see [`Compiler::embed`]) and runs the
    /// pipeline on it.
    fn compile_job(&self, circuit: Cow<'_, Circuit>) -> qudit_core::Result<CompileResult> {
        let report = self.manager.run(self.embed(circuit)?)?;
        Ok(CompileResult::from_report(report, &self.options))
    }

    /// Admits a job (see [`admit`]), then embeds it in the coupling graph's
    /// full site register when routing is enabled, so every stage (and its
    /// verification wrapper, which requires width stability) runs over the
    /// physical register.  Narrower graphs are left to the route stage's
    /// typed [`TopologyTooSmall`](QuditError::TopologyTooSmall) error.
    ///
    /// A job is copied at most once: an owned job that has no gate to drop
    /// and needs no widening moves through.
    fn embed(&self, circuit: Cow<'_, Circuit>) -> qudit_core::Result<Circuit> {
        let circuit = admit(circuit)?;
        match &self.options.topology {
            Some(graph) if graph.sites() > circuit.width() => circuit.widened(graph.sites()),
            _ => Ok(circuit.into_owned()),
        }
    }

    /// Compiles a text-IR source (see [`qudit_core::qasm`]) through the
    /// same pass stack as [`Compiler::compile`].
    ///
    /// The source is parsed and lowered by [`qudit_core::qasm::parse_source`]
    /// and the resulting circuit compiled with this compiler's options;
    /// `compile_source(print_circuit(&c))` is equivalent to `compile(&c)`
    /// gate-for-gate.
    ///
    /// # Errors
    ///
    /// Returns [`qudit_core::QuditError::ParseFailed`] (with the 1-based
    /// line/column of the first diagnostic) for invalid sources, and
    /// otherwise whatever [`Compiler::compile`] returns.
    ///
    /// # Example
    ///
    /// ```
    /// use qudit_synthesis::CompileOptions;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let compiler = CompileOptions::new().compiler();
    /// let result = compiler.compile_source(
    ///     "OPENQASM 3.0;\n\
    ///      qudit[3] q[3];\n\
    ///      ctrl @ ctrl @ swap(0, 1) q[0], q[1], q[2];",
    /// )?;
    /// assert!(result.circuit.gates().iter().all(|g| g.is_g_gate()));
    ///
    /// // Diagnostics carry the source location.
    /// let error = compiler.compile_source("qudit[3] q[1];\nboop q[0];").unwrap_err();
    /// assert!(error.to_string().contains("line 2, column 1"));
    /// # Ok(())
    /// # }
    /// ```
    pub fn compile_source(&self, source: &str) -> qudit_core::Result<CompileResult> {
        let circuit =
            qudit_core::qasm::parse_source(source).map_err(qudit_core::QuditError::from)?;
        self.compile_job(Cow::Owned(circuit))
    }

    /// Compiles many circuits concurrently on the compiler's pool
    /// ([`Threads`]), returning one [`CompileResult`] per circuit in input
    /// order.
    ///
    /// # Errors
    ///
    /// Returns the first job error in input order (later jobs still run).
    pub fn compile_batch(&self, circuits: &[Circuit]) -> qudit_core::Result<BatchResult> {
        let embedded: Vec<Circuit> = circuits
            .iter()
            .map(|circuit| self.embed(Cow::Borrowed(circuit)))
            .collect::<qudit_core::Result<_>>()?;
        let reports = self.manager.run_batch(embedded)?;
        Ok(BatchResult {
            results: reports
                .into_iter()
                .map(|report| CompileResult::from_report(report, &self.options))
                .collect(),
        })
    }
}

/// The facade's front door: one walk over a job's gates before the first
/// stage.  A gate whose controls can never fire (such as `ctrl(even)` at
/// `d = 2`) is the identity and is dropped.  Every other gate must be
/// classical, because every G-gate of `{Xij} ∪ {|0⟩-X01}` is, so no stage
/// could lower it.  A job with no gate to drop is returned as it came.
///
/// # Errors
///
/// [`QuditError::UnsupportedLowering`] naming the index of the first gate
/// that can fire and is not classical.
fn admit(circuit: Cow<'_, Circuit>) -> qudit_core::Result<Cow<'_, Circuit>> {
    let dimension = circuit.dimension();
    let mut idle = false;
    for (index, gate) in circuit.gates().iter().enumerate() {
        if !gate.can_fire(dimension) {
            idle = true;
        } else if !gate.is_classical() {
            return Err(QuditError::UnsupportedLowering {
                reason: format!(
                    "gate {index} is not a classical permutation (the G-gates are); \
                     synthesise it with qudit_unitary::UnitarySynthesizer (Theorem IV.1) \
                     or the Fig. 1(b) ControlledUnitary"
                ),
            });
        }
    }
    if !idle {
        return Ok(circuit);
    }
    let gates = circuit
        .gates()
        .iter()
        .filter(|gate| gate.can_fire(dimension))
        .cloned()
        .collect();
    // The kept gates were valid for this register already.
    Ok(Cow::Owned(Circuit::from_gates_unchecked(
        dimension,
        circuit.width(),
        gates,
    )))
}

impl fmt::Debug for Compiler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Compiler")
            .field("options", &self.options)
            .field("passes", &self.pass_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KToffoli;
    use qudit_core::{Dimension, Gate};

    fn dim(d: u32) -> Dimension {
        Dimension::new(d).unwrap()
    }

    #[test]
    fn default_options_select_the_standard_flow() {
        let spec = CompileOptions::new().spec();
        assert_eq!(
            spec.stages,
            vec![
                "gate-fusion",
                "lower-to-elementary",
                "lower-to-g-gates",
                "cancel-inverse-pairs"
            ]
        );
        assert!(matches!(spec.cache, CacheMode::Off));
    }

    #[test]
    fn opt_levels_map_onto_pass_selection() {
        let stages = |level| CompileOptions::new().opt_level(level).spec().stages;
        assert_eq!(
            stages(OptLevel::O0),
            vec!["lower-to-elementary", "lower-to-g-gates"]
        );
        assert_eq!(
            stages(OptLevel::O1),
            vec![
                "gate-fusion",
                "lower-to-elementary",
                "lower-to-g-gates",
                "cancel-inverse-pairs"
            ]
        );
        assert_eq!(
            stages(OptLevel::O2),
            vec![
                "gate-fusion",
                "lower-to-elementary",
                "lower-to-g-gates",
                "cancel-inverse-pairs",
                "schedule-depth"
            ]
        );
    }

    #[test]
    fn compile_produces_the_unified_report() {
        let synthesis = KToffoli::new(dim(3), 3).unwrap().synthesize().unwrap();
        let compiler = CompileOptions::new().compiler();
        let result = compiler.compile(synthesis.circuit()).unwrap();
        assert!(result.circuit.gates().iter().all(Gate::is_g_gate));
        assert_eq!(result.stats.len(), 4);
        assert_eq!(result.depth, circuit_depth(&result.circuit));
        assert_eq!(result.verification, VerifyOutcome::Skipped);
        assert!(result.stats_for("gate-fusion").is_some());
        assert!(result.stats_for("cancel-inverse-pairs").is_some());
        assert!(result.to_string().contains("verification skipped"));
    }

    #[test]
    fn verification_knobs_wrap_every_stage() {
        let synthesis = KToffoli::new(dim(3), 2).unwrap().synthesize().unwrap();
        let compiler = CompileOptions::new().verify(Verify::Exhaustive).compiler();
        assert!(compiler
            .pass_names()
            .iter()
            .all(|name| name.starts_with("verify(")));
        let result = compiler.compile(synthesis.circuit()).unwrap();
        assert_eq!(result.verification, VerifyOutcome::Verified);
        assert!(result.verification.is_verified());
    }

    #[test]
    fn verification_accepts_every_backend() {
        // The one backend value is inert: verification picks its strategy
        // from each stage's circuits and verifies the k-Toffoli.
        let synthesis = KToffoli::new(dim(3), 2).unwrap().synthesize().unwrap();
        let compiler = CompileOptions::new().verify(Verify::Exhaustive).compiler();
        assert_eq!(compiler.options().sim_backend(), SimBackend::Auto);
        let result = compiler.compile(synthesis.circuit()).unwrap();
        assert!(result.verification.is_verified());
    }

    #[test]
    fn batch_results_merge_like_batch_reports() {
        let jobs: Vec<Circuit> = [(3u32, 2usize), (4, 2), (5, 2)]
            .iter()
            .map(|&(d, k)| {
                KToffoli::new(dim(d), k)
                    .unwrap()
                    .synthesize()
                    .unwrap()
                    .circuit()
                    .clone()
            })
            .collect();
        let compiler = CompileOptions::new().threads(Threads::Fixed(2)).compiler();
        let batch = compiler.compile_batch(&jobs).unwrap();
        assert_eq!(batch.len(), 3);
        assert!(!batch.is_empty());
        assert!(!batch.is_verified());
        let merged = batch.merged_stats();
        assert_eq!(merged.len(), 4);
        assert_eq!(merged[0].jobs, 3);
        assert!(batch.to_string().contains("batch of 3 circuits"));
        // Batch jobs equal per-job compiles, gate for gate.
        for (job, result) in jobs.iter().zip(&batch.results) {
            assert_eq!(compiler.compile(job).unwrap().circuit, result.circuit);
        }
    }

    #[test]
    fn custom_passes_extend_the_assembled_manager() {
        use qudit_core::pipeline::pass_fn;
        let synthesis = KToffoli::new(dim(3), 2).unwrap().synthesize().unwrap();
        let manager = CompileOptions::new()
            .build_manager()
            .with_pass(pass_fn("identity", Ok));
        let report = manager.run(synthesis.circuit().clone()).unwrap();
        assert_eq!(report.stats.last().unwrap().pass, "identity");
    }

    #[test]
    fn registry_covers_every_selectable_stage() {
        let registry = registry();
        for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
            for stage in CompileOptions::new().opt_level(level).spec().stages {
                assert!(registry.contains(&stage), "unregistered stage {stage}");
            }
        }
    }

    #[test]
    fn topology_knob_inserts_the_route_stage() {
        let graph = CouplingGraph::linear(5).unwrap();
        let spec = CompileOptions::new()
            .opt_level(OptLevel::O2)
            .topology(graph.clone())
            .spec();
        assert_eq!(
            spec.stages,
            vec![
                "gate-fusion",
                "lower-to-elementary",
                "lower-to-g-gates",
                "cancel-inverse-pairs",
                "route",
                "schedule-depth"
            ]
        );
        let compiler = CompileOptions::new().topology(graph).compiler();
        assert!(compiler.pass_names().contains(&"route"));
        // Off by default: no stage, no columns.
        assert!(!CompileOptions::new()
            .spec()
            .stages
            .contains(&"route".to_string()));
    }

    #[test]
    fn routed_compilations_satisfy_adjacency_and_report_columns() {
        use qudit_core::route::{validate_adjacency, NoiseAwareCost};
        let synthesis = KToffoli::new(dim(3), 3).unwrap().synthesize().unwrap();
        let graph = CouplingGraph::linear(synthesis.layout().width).unwrap();
        let baseline = CompileOptions::new().compiler();
        let unrouted = baseline.compile(synthesis.circuit()).unwrap();
        assert!(validate_adjacency(&unrouted.circuit, &graph).is_err());
        assert_eq!(unrouted.swap_count, None);
        assert_eq!(unrouted.weighted_cost, None);

        let compiler = CompileOptions::new()
            .opt_level(OptLevel::O2)
            .topology(graph.clone())
            .cost(NoiseAwareCost::default())
            .compiler();
        let routed = compiler.compile(synthesis.circuit()).unwrap();
        validate_adjacency(&routed.circuit, &graph).unwrap();
        assert!(routed.swap_count.unwrap() > 0);
        assert!(routed.weighted_cost.unwrap() > 0.0);
        // Scheduling after routing must not break adjacency (it only
        // permutes commuting gates) and the final depth is the scheduled
        // one: the O1 leg of the same flow stops right after routing.
        let unscheduled = CompileOptions::new()
            .topology(graph.clone())
            .cost(NoiseAwareCost::default())
            .compiler()
            .compile(synthesis.circuit())
            .unwrap();
        assert_eq!(unscheduled.swap_count, routed.swap_count);
        assert!(routed.depth <= unscheduled.depth);
    }

    #[test]
    fn routed_compilations_verify_on_every_backend() {
        let synthesis = KToffoli::new(dim(3), 2).unwrap().synthesize().unwrap();
        let compiler = CompileOptions::new()
            .topology(CouplingGraph::ring(3).unwrap())
            .verify(Verify::Exhaustive)
            .compiler();
        let result = compiler.compile(synthesis.circuit()).unwrap();
        assert!(result.verification.is_verified());
        assert!(result.stats_for("route").is_some());
    }

    #[test]
    fn routed_batches_match_sequential_compiles() {
        let jobs: Vec<Circuit> = [2usize, 3]
            .iter()
            .map(|&k| {
                KToffoli::new(dim(3), k)
                    .unwrap()
                    .synthesize()
                    .unwrap()
                    .circuit()
                    .clone()
            })
            .collect();
        // A graph wide enough for the widest job; narrower jobs are
        // embedded into the full site register.
        let sites = jobs.iter().map(Circuit::width).max().unwrap();
        let graph = CouplingGraph::grid(2, sites.div_ceil(2)).unwrap();
        let compiler = CompileOptions::new()
            .topology(graph)
            .threads(Threads::Fixed(2))
            .compiler();
        let batch = compiler.compile_batch(&jobs).unwrap();
        for (job, result) in jobs.iter().zip(&batch.results) {
            let solo = compiler.compile(job).unwrap();
            assert_eq!(solo.circuit, result.circuit);
            assert_eq!(solo.swap_count, result.swap_count);
        }
    }

    #[test]
    fn undersized_topology_is_a_typed_error() {
        let synthesis = KToffoli::new(dim(3), 3).unwrap().synthesize().unwrap();
        let graph = CouplingGraph::linear(2).unwrap();
        let compiler = CompileOptions::new().topology(graph).compiler();
        assert!(matches!(
            compiler.compile(synthesis.circuit()),
            Err(qudit_core::QuditError::TopologyTooSmall { .. })
        ));
    }

    #[test]
    fn every_entry_point_refuses_non_classical_gates_by_index() {
        use qudit_core::{Control, QuditId, SingleQuditOp};
        let (q0, q1) = (QuditId::new(0), QuditId::new(1));
        let mut circuit = Circuit::new(dim(3), 2);
        circuit
            .push(Gate::single(SingleQuditOp::Swap(0, 1), q0))
            .unwrap();
        circuit
            .push(Gate::controlled(
                SingleQuditOp::fourier(dim(3)),
                q1,
                [Control::odd(q0)],
            ))
            .unwrap();
        fn refused<T: fmt::Debug>(outcome: qudit_core::Result<T>) {
            match outcome {
                Err(QuditError::UnsupportedLowering { reason }) => {
                    assert!(reason.starts_with("gate 1 is not a classical"), "{reason}");
                }
                other => panic!("expected the refusal, got {other:?}"),
            }
        }
        let source = qudit_core::qasm::print_circuit(&circuit);
        let routed = CompileOptions::new().topology(CouplingGraph::linear(3).unwrap());
        for options in [CompileOptions::new().verify(Verify::Exhaustive), routed] {
            let compiler = options.compiler();
            refused(compiler.compile(&circuit));
            refused(compiler.compile_source(&source));
            refused(compiler.compile_batch(std::slice::from_ref(&circuit)));
        }
    }
}
