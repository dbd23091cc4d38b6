//! Simulation-backed pipeline passes: the [`VerifyEquivalence`] wrapper.
//!
//! [`VerifyEquivalence`] decorates any [`Pass`] with a semantics-preservation
//! check in the spirit of refinement checking.  Classical stages are first
//! proved **structurally**, from the shape of the rewrite, exactly and at
//! any register width:
//!
//! * a lowering pass that exposes its per-gate walk ([`Pass::gate_walk`]) is
//!   driven gate by gate into an output sized once from the walk's count,
//!   and each distinct (gate, expansion) shape — wires relabelled in
//!   first-use order, a borrowed ancilla included — is proved once per run
//!   by sweeping the basis of its own (at most four) wires;
//! * a pass that hands over its rewrite ([`Pass::rewrite`]:
//!   `cancel-inverse-pairs` its removed pairs, `gate-fusion` the identity
//!   runs it drops when that is all it does, `route` its
//!   `route::wire_swap` ladders) has it applied here, to the input the
//!   wrapper owns: removed pairs must nest as adjacent brackets on every
//!   wire they touch, each proved inverse on its own wires, and the kept
//!   gates move in place; ladders (the ladder proved a SWAP once, on two
//!   wires) swap a running wire map through which every input gate is
//!   remapped, and the map must end as the identity.
//!
//! No rule of the passes being checked (`Gate::is_inverse_of`, the fusion
//! plan, the commutation oracle, the router's choice of ladders) is
//! trusted, and a successful structural proof implies exact equivalence.
//! Every other stage (`schedule-depth`, a custom closure, fusion that
//! composes a run, a rewrite whose proof fails) is built on a copy of its
//! input and compared globally via the [`BasisBatch`](crate::BasisBatch)
//! kernel, which pushes blocks of basis states through both circuits as
//! digit rows with vectorised compare/select loops — every basis state in
//! blocks when the register is small, a deterministic draw of random basis
//! states otherwise — in `O(width × block)` memory either way.
//!
//! Only classical stages are verified: the paper's G-gate set is all
//! classical, and the compile facade refuses non-classical gates before its
//! first stage.  The strategy follows from the pass and the two circuits
//! alone; there is no engine option.  A non-classical input or output, or a
//! detected mismatch (with the offending basis state), fails with
//! [`QuditError::PassFailed`] naming the wrapped pass;
//! [`VerifyEquivalence::run_with_proof`] also reports which [`Proof`]
//! settled the stage.

use qudit_core::pipeline::{Pass, PassManager};
use qudit_core::{Circuit, QuditError, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::basis::{biased_samples, exhaustive_witness, first_witness};
use crate::structural;

/// Default register-size bound for exhaustive classical checking.
const DEFAULT_MAX_EXHAUSTIVE_STATES: usize = 4096;
/// Default number of sampled basis states above the exhaustive bound.
const DEFAULT_SAMPLES: usize = 256;
/// Fixed seed so verification failures are reproducible.
const SAMPLE_SEED: u64 = 0x5EED_CAFE;

/// The simulation engine setting of [`VerifyEquivalence::with_backend`].
///
/// Verification picks its strategy from the circuits it is given, so the
/// single value, `Auto`, changes nothing; the type remains for callers
/// that still pass it.
///
/// # Example
///
/// ```
/// use qudit_core::pipeline::{LowerToGGates, Pass};
/// use qudit_sim::{SimBackend, VerifyEquivalence};
///
/// let pass = VerifyEquivalence::wrap(Box::new(LowerToGGates)).with_backend(SimBackend::Auto);
/// assert_eq!(pass.name(), "verify(lower-to-g-gates)");
/// assert_eq!(SimBackend::default(), SimBackend::Auto);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SimBackend {
    /// The strategy follows from the circuits (the only value).
    #[default]
    Auto,
}

/// How [`VerifyEquivalence`] showed a stage's output equivalent to its
/// input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proof {
    /// Proved from the rewrite's structure — per-gate lowering, routing
    /// through SWAP ladders or inverse-pair removal — with every local
    /// claim settled on the basis of its own wires.  Exact at any width.
    Structural,
    /// Every basis state of the register swept.
    Exhaustive,
    /// This many sampled basis states.
    Sampled(usize),
}

/// A [`Pass`] decorator that checks the wrapped pass preserved the circuit's
/// semantics.
///
/// # Example
///
/// ```
/// use qudit_core::pipeline::{LowerToGGates, PassManager};
/// use qudit_core::{Circuit, Control, Dimension, Gate, QuditId, SingleQuditOp};
/// use qudit_sim::pipeline::VerifyEquivalence;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d = Dimension::new(3)?;
/// let mut circuit = Circuit::new(d, 2);
/// circuit.push(Gate::controlled(
///     SingleQuditOp::Add(1),
///     QuditId::new(1),
///     vec![Control::level(QuditId::new(0), 1)],
/// ))?;
///
/// // Every pass in the pipeline self-checks after running.
/// let manager = VerifyEquivalence::wrap_manager(
///     PassManager::new().with_pass(LowerToGGates),
/// );
/// let report = manager.run(circuit)?;
/// assert_eq!(report.stats[0].pass, "verify(lower-to-g-gates)");
/// # Ok(())
/// # }
/// ```
pub struct VerifyEquivalence {
    name: String,
    inner: Box<dyn Pass>,
    max_exhaustive_states: usize,
    samples: usize,
}

impl VerifyEquivalence {
    /// Wraps a pass with the default verification limits.
    pub fn wrap(inner: Box<dyn Pass>) -> Self {
        VerifyEquivalence {
            name: format!("verify({})", inner.name()),
            inner,
            max_exhaustive_states: DEFAULT_MAX_EXHAUSTIVE_STATES,
            samples: DEFAULT_SAMPLES,
        }
    }

    /// Sets the register-size bound below which classical circuits are
    /// checked exhaustively, and the number of sampled basis states used
    /// above it.
    #[must_use]
    pub fn with_limits(mut self, max_exhaustive_states: usize, samples: usize) -> Self {
        self.max_exhaustive_states = max_exhaustive_states;
        self.samples = samples;
        self
    }

    /// Accepts a [`SimBackend`]; its one value changes nothing, because the
    /// strategy follows from the circuits.
    #[must_use]
    pub fn with_backend(self, _backend: SimBackend) -> Self {
        self
    }

    /// Wraps every pass of a [`PassManager`] in a [`VerifyEquivalence`]
    /// decorator, turning the pipeline into a self-checking one.
    #[must_use]
    pub fn wrap_manager(manager: PassManager) -> PassManager {
        manager.map_passes(|inner| Box::new(VerifyEquivalence::wrap(inner)))
    }

    fn fail(&self, reason: String) -> QuditError {
        QuditError::PassFailed {
            pass: self.inner.name().to_string(),
            reason,
        }
    }

    /// Draws the classical sample inputs — uniform basis states, every
    /// other one with the controls of a random gate (from either circuit)
    /// forced onto firing levels, since uniform states almost never satisfy
    /// a deep multi-controlled gate (probability `d^-k`) — and returns the
    /// first, in draw order, on which the circuits disagree.  Samples run
    /// through the batch kernel a block at a time.
    fn sampled_witness(&self, before: &Circuit, after: &Circuit) -> Result<Option<Vec<u32>>> {
        let mut rng = StdRng::seed_from_u64(SAMPLE_SEED);
        let gates: Vec<&qudit_core::Gate> = before.gates().iter().chain(after.gates()).collect();
        let inputs = biased_samples(
            before.dimension(),
            before.width(),
            self.samples,
            &mut rng,
            |rng| match gates.len() {
                0 => &[],
                n => gates[rng.gen_range(0..n)].controls(),
            },
        );
        first_witness(before, after, inputs)
    }

    /// Runs the wrapped pass and checks its output, returning the output
    /// and how it was shown equivalent to the input.
    ///
    /// A pass that exposes its per-gate walk ([`Pass::gate_walk`]) is
    /// driven through it here, so each gate's rewrite is proved locally; a
    /// pass that hands over its rewrite ([`Pass::rewrite`]) has it
    /// proved and applied here, to `circuit` itself.  Otherwise, or when a
    /// local proof fails, the output is built on a copy of `circuit` — the
    /// handed-over rewrite applied as planned, or the pass run as usual —
    /// and the global check of the module docs settles the stage: its
    /// verdict and witness are the ones reported.
    ///
    /// # Errors
    ///
    /// Returns the pass's own error, or [`QuditError::PassFailed`] naming
    /// the wrapped pass when the output is not equivalent to the input.
    ///
    /// # Example
    ///
    /// ```
    /// use qudit_core::pipeline::LowerToGGates;
    /// use qudit_core::{Circuit, Control, Dimension, Gate, QuditId, SingleQuditOp};
    /// use qudit_sim::pipeline::{Proof, VerifyEquivalence};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut circuit = Circuit::new(Dimension::new(3)?, 2);
    /// circuit.push(Gate::controlled(
    ///     SingleQuditOp::Add(1),
    ///     QuditId::new(1),
    ///     vec![Control::level(QuditId::new(0), 2)],
    /// ))?;
    /// let verified = VerifyEquivalence::wrap(Box::new(LowerToGGates));
    /// let (lowered, proof) = verified.run_with_proof(circuit)?;
    /// assert!(lowered.gates().iter().all(Gate::is_g_gate));
    /// assert_eq!(proof, Proof::Structural);
    /// # Ok(())
    /// # }
    /// ```
    pub fn run_with_proof(&self, mut circuit: Circuit) -> Result<(Circuit, Proof)> {
        if let Some(walk) = self.inner.gate_walk(&circuit) {
            if let Some(output) = structural::lowered(walk, &circuit) {
                return Ok((output, Proof::Structural));
            }
        }
        // Only a pass without a proved rewrite pays for a copy of its input;
        // an unproved rewrite is applied as planned (what `run` returns), so
        // the pass does not plan it again.
        let output = match self.inner.rewrite(&circuit) {
            Some(rewrite) => match structural::applied(&rewrite, circuit) {
                Ok(output) => return Ok((output, Proof::Structural)),
                Err(input) => {
                    circuit = input;
                    rewrite.apply(circuit.clone())?
                }
            },
            None => self.inner.run(circuit.clone())?,
        };
        let proof = self.check_globally(&circuit, &output)?;
        Ok((output, proof))
    }

    fn check_globally(&self, before: &Circuit, after: &Circuit) -> Result<Proof> {
        if before.dimension() != after.dimension() || before.width() != after.width() {
            return Err(self.fail(format!(
                "pass changed the register: d={}, width={} -> d={}, width={}",
                before.dimension(),
                before.width(),
                after.dimension(),
                after.width()
            )));
        }
        if !before.is_classical() || !after.is_classical() {
            let side = if before.is_classical() {
                "output"
            } else {
                "input"
            };
            return Err(self.fail(format!(
                "cannot verify a non-classical {side} circuit: only classical stages are checked"
            )));
        }
        // `None` when `d^width` overflows: far past every exhaustive bound.
        let size = before.dimension().checked_register_size(before.width());
        let (witness, proof) = if size.is_some_and(|size| size <= self.max_exhaustive_states) {
            (exhaustive_witness(before, after)?, Proof::Exhaustive)
        } else {
            (
                self.sampled_witness(before, after)?,
                Proof::Sampled(self.samples),
            )
        };
        if let Some(input) = witness {
            return Err(self.fail(format!(
                "output circuit is not equivalent to its input (basis state {input:?})"
            )));
        }
        Ok(proof)
    }
}

impl Pass for VerifyEquivalence {
    fn name(&self) -> &str {
        &self.name
    }

    fn run(&self, circuit: Circuit) -> Result<Circuit> {
        Ok(self.run_with_proof(circuit)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_core::pipeline::{pass_fn, CancelInversePairs, LowerToGGates};
    use qudit_core::{Control, Dimension, Gate, QuditId, SingleQuditOp};

    fn dim(d: u32) -> Dimension {
        Dimension::new(d).unwrap()
    }

    fn sample_circuit() -> Circuit {
        let mut circuit = Circuit::new(dim(3), 2);
        circuit
            .push(Gate::controlled(
                SingleQuditOp::Add(2),
                QuditId::new(1),
                vec![Control::level(QuditId::new(0), 1)],
            ))
            .unwrap();
        circuit
    }

    #[test]
    fn faithful_passes_verify() {
        let manager = VerifyEquivalence::wrap_manager(
            PassManager::new()
                .with_pass(LowerToGGates)
                .with_pass(CancelInversePairs),
        );
        assert_eq!(
            manager.pass_names(),
            vec!["verify(lower-to-g-gates)", "verify(cancel-inverse-pairs)"]
        );
        let report = manager.run(sample_circuit()).unwrap();
        assert!(report.circuit.gates().iter().all(Gate::is_g_gate));
    }

    #[test]
    fn unfaithful_passes_are_caught() {
        // A "pass" that drops every gate: semantics clearly not preserved.
        let drop_all = pass_fn("drop-all", |c: Circuit| {
            Ok(Circuit::new(c.dimension(), c.width()))
        });
        let manager = PassManager::new().with_pass(VerifyEquivalence::wrap(Box::new(drop_all)));
        let result = manager.run(sample_circuit());
        match result {
            Err(QuditError::PassFailed { pass, reason }) => {
                assert_eq!(pass, "drop-all");
                assert!(reason.contains("not equivalent"), "{reason}");
            }
            other => panic!("expected PassFailed, got {other:?}"),
        }
    }

    #[test]
    fn register_changes_are_caught() {
        let shrink = pass_fn("shrink", |c: Circuit| {
            Ok(Circuit::new(c.dimension(), c.width() - 1))
        });
        let manager = PassManager::new().with_pass(VerifyEquivalence::wrap(Box::new(shrink)));
        assert!(matches!(
            manager.run(sample_circuit()),
            Err(QuditError::PassFailed { .. })
        ));
    }

    #[test]
    fn sampled_verification_covers_large_registers() {
        // Force the sampled path with a tiny exhaustive bound.
        let verified = VerifyEquivalence::wrap(Box::new(LowerToGGates)).with_limits(1, 64);
        let manager = PassManager::new().with_pass(verified);
        assert!(manager.run(sample_circuit()).is_ok());
    }

    #[test]
    fn sampled_verification_fires_deep_multi_controlled_gates() {
        // d=3, 9-control Toffoli on width 10: 3^10 = 59049 basis states, far
        // above the exhaustive bound, and a uniform sample satisfies all nine
        // |0⟩-controls with probability 3^-9.  The control-biased samples
        // must still catch a pass that deletes the gate.
        let d = dim(3);
        let mut circuit = Circuit::new(d, 10);
        circuit
            .push(Gate::controlled(
                SingleQuditOp::Swap(0, 1),
                QuditId::new(9),
                (0..9).map(|i| Control::zero(QuditId::new(i))),
            ))
            .unwrap();
        let drop_all = pass_fn("drop-all", |c: Circuit| {
            Ok(Circuit::new(c.dimension(), c.width()))
        });
        let manager = PassManager::new().with_pass(VerifyEquivalence::wrap(Box::new(drop_all)));
        match manager.run(circuit) {
            Err(QuditError::PassFailed { pass, .. }) => assert_eq!(pass, "drop-all"),
            other => panic!("expected PassFailed, got {other:?}"),
        }
    }

    #[test]
    fn non_classical_stages_fail_closed() {
        let non_classical = |c: &Circuit| -> Result<Circuit> {
            let mut out = c.clone();
            out.push(Gate::single(
                SingleQuditOp::clifford_phase(c.dimension()),
                QuditId::new(0),
            ))?;
            Ok(out)
        };
        // An identity pass over a non-classical circuit, and a pass that
        // turns a classical input into a non-classical output.
        let cases = [
            (
                non_classical(&sample_circuit()).unwrap(),
                "identity",
                "input",
            ),
            (sample_circuit(), "add-unitary", "output"),
        ];
        for (circuit, name, side) in cases {
            let pass = pass_fn(name, move |c: Circuit| match name {
                "identity" => Ok(c),
                _ => non_classical(&c),
            });
            let manager = PassManager::new().with_pass(VerifyEquivalence::wrap(Box::new(pass)));
            match manager.run(circuit) {
                Err(QuditError::PassFailed { pass, reason }) => {
                    assert_eq!(pass, name);
                    assert!(
                        reason.contains(&format!("non-classical {side}")),
                        "{reason}"
                    );
                }
                other => panic!("expected PassFailed, got {other:?}"),
            }
        }
    }

    #[test]
    fn verdicts_are_backend_independent() {
        // `with_backend` takes the one inert value: the faithful and the
        // unfaithful pass pass/fail exactly as without it.
        let ok = PassManager::new().with_pass(
            VerifyEquivalence::wrap(Box::new(LowerToGGates)).with_backend(SimBackend::Auto),
        );
        assert!(ok.run(sample_circuit()).is_ok());

        let drop_all = pass_fn("drop-all", |c: Circuit| {
            Ok(Circuit::new(c.dimension(), c.width()))
        });
        let bad = PassManager::new()
            .with_pass(VerifyEquivalence::wrap(Box::new(drop_all)).with_backend(SimBackend::Auto));
        assert!(matches!(
            bad.run(sample_circuit()),
            Err(QuditError::PassFailed { .. })
        ));
    }
}
