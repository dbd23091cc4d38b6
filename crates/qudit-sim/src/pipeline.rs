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
//!   `cancel-inverse-pairs` its removed pairs, `route` its
//!   `route::wire_swap` ladders) has it applied here, to the input the
//!   wrapper owns: removed pairs must nest as adjacent brackets on every
//!   wire they touch, each proved inverse on its own wires, and the kept
//!   gates move in place; ladders (the ladder proved a SWAP once, on two
//!   wires) swap a running wire map through which every input gate is
//!   remapped, and the map must end as the identity;
//! * any other pass runs on a copy of its input, and an output that is the
//!   input with inverse pairs removed is matched pair by pair as above.  A
//!   handed-over rewrite whose proof fails is likewise applied to a copy,
//!   as planned, so no stage plans twice.
//!
//! So the lowering, cancellation and routing stages are checked without a
//! copy of their input.  No rule of the passes being checked
//! (`Gate::is_inverse_of`, the commutation oracle, the router's choice of
//! ladders) is trusted.  A successful structural proof implies
//! exact equivalence, so the global check below would also accept.  When a
//! proof fails or does not apply (a non-classical circuit, a pass with no
//! such structure, such as `gate-fusion` or a custom closure), the input and
//! output circuits are compared globally, with unchanged verdicts and
//! `PassFailed` messages —
//!
//! * **classical circuits** via the [`BasisBatch`](crate::BasisBatch)
//!   kernel, which pushes blocks of basis states through both circuits as
//!   digit rows with vectorised compare/select loops — every basis state in
//!   blocks when the register is small, a deterministic draw of random
//!   basis states otherwise — in `O(width × block)` memory either way;
//! * **non-classical circuits** via the state-vector simulator — full
//!   unitary comparison up to global phase on small registers, fidelity on
//!   random dense input states (which are sensitive to relative-phase
//!   changes) up to `2^20` basis states, and a typed refusal beyond.  The
//!   compile facade refuses non-classical gates before its first stage,
//!   so only custom pipelines reach this branch.
//!
//! The strategy follows from the pass and the two circuits alone; there is
//! no engine option.  A detected mismatch surfaces as
//! [`QuditError::PassFailed`], naming the wrapped pass and the offending
//! basis state.  [`VerifyEquivalence::run_with_proof`] also reports which
//! [`Proof`] settled the stage.

use qudit_core::math::{Complex, MATRIX_TOLERANCE};
use qudit_core::pipeline::{Pass, PassManager};
use qudit_core::{Circuit, QuditError, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::basis::{biased_samples, exhaustive_witness, first_witness};
use crate::dense::{circuit_unitary, FusedProgram};
use crate::statevector::StateVector;
use crate::structural;

/// Default register-size bound for exhaustive classical checking.
const DEFAULT_MAX_EXHAUSTIVE_STATES: usize = 4096;
/// Default number of sampled basis states above the exhaustive bound.
const DEFAULT_SAMPLES: usize = 256;
/// Register-size bound for full-unitary checking of non-classical circuits.
const MAX_UNITARY_STATES: usize = 256;
/// Register-size bound for the sampled state-vector fallback (each sample
/// costs one full state-vector simulation of both circuits).
const MAX_SAMPLED_STATEVECTOR_STATES: usize = 1 << 20;
/// Cap on state-vector samples (they are much more expensive than the
/// classical basis-state samples, and dense random inputs are maximally
/// sensitive, so a handful suffices).
const MAX_STATEVECTOR_SAMPLES: usize = 8;
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
    /// Full unitaries compared up to global phase.
    Unitary,
    /// This many random dense states compared by fidelity.
    DenseSampled(usize),
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
    /// and a classical output is first matched against its input with
    /// inverse pairs removed; only when that fails too does the global check
    /// of the module docs run, and its verdict and witness are the ones
    /// reported.
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
    pub fn run_with_proof(&self, circuit: Circuit) -> Result<(Circuit, Proof)> {
        if let Some(walk) = self.inner.gate_walk(&circuit) {
            if let Some(output) = structural::lowered(walk, &circuit) {
                return Ok((output, Proof::Structural));
            }
        }
        let (circuit, rewrite) = match self.inner.rewrite(&circuit) {
            Some(rewrite) => match structural::applied(&rewrite, circuit) {
                Ok(output) => return Ok((output, Proof::Structural)),
                Err(circuit) => (circuit, Some(rewrite)),
            },
            None => (circuit, None),
        };
        // Only a pass without a proved rewrite pays for a copy of its input;
        // an unproved rewrite is applied as planned (what `run` returns), so
        // the pass does not plan it again.
        let output = match rewrite {
            Some(rewrite) => rewrite.apply(circuit.clone())?,
            None => self.inner.run(circuit.clone())?,
        };
        if structural::removes_pairs(&circuit, &output) {
            return Ok((output, Proof::Structural));
        }
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
        let dimension = before.dimension();
        // `None` when `d^width` overflows: far past every exhaustive bound.
        let size = dimension.checked_register_size(before.width());
        if before.is_classical() && after.is_classical() {
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
        } else if size.is_some_and(|size| size <= MAX_UNITARY_STATES) {
            let before_unitary = circuit_unitary(before)?;
            let after_unitary = circuit_unitary(after)?;
            if !before_unitary.approx_eq_up_to_phase(&after_unitary, MATRIX_TOLERANCE.max(1e-7)) {
                return Err(self.fail(
                    "output unitary differs from the input unitary (up to phase)".to_string(),
                ));
            }
            Ok(Proof::Unitary)
        } else if let Some(size) = size.filter(|&size| size <= MAX_SAMPLED_STATEVECTOR_STATES) {
            // Apply both circuits to random *dense* states and require unit
            // fidelity.  A dense input mixes every column of the unitary, so
            // a relative (per-basis-state) phase change — invisible to
            // basis-state inputs — destroys the fidelity with probability 1;
            // only a consistent global phase survives, matching the
            // small-register comparison above.  Each circuit is compiled
            // once.
            let width = before.width();
            let before_program = FusedProgram::compile(before, width)?;
            let after_program = FusedProgram::compile(after, width)?;
            let mut rng = StdRng::seed_from_u64(SAMPLE_SEED);
            let samples = self.samples.clamp(1, MAX_STATEVECTOR_SAMPLES);
            for sample in 0..samples {
                let amplitudes: Vec<Complex> = (0..size)
                    .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                    .collect();
                let norm = amplitudes.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
                let amplitudes: Vec<Complex> =
                    amplitudes.iter().map(|a| a.scale(1.0 / norm)).collect();
                let mut state_before =
                    StateVector::from_amplitudes(dimension, width, amplitudes.clone())?;
                state_before.apply_fused(&before_program)?;
                let mut state_after = StateVector::from_amplitudes(dimension, width, amplitudes)?;
                state_after.apply_fused(&after_program)?;
                if (state_before.fidelity(&state_after) - 1.0).abs() > 1e-9 {
                    return Err(self.fail(format!(
                        "output circuit is not equivalent to its input \
                         (random dense state sample {sample}, seed {SAMPLE_SEED:#x})"
                    )));
                }
            }
            Ok(Proof::DenseSampled(samples))
        } else {
            let states = size.map_or_else(
                || format!("{dimension}^{}", before.width()),
                |size| size.to_string(),
            );
            Err(self.fail(format!(
                "cannot verify a non-classical circuit over {states} basis states; \
                 register is too large for state-vector comparison"
            )))
        }
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
    fn non_classical_circuits_use_the_statevector_path() {
        use qudit_core::math::{Complex, SquareMatrix};
        let s = 1.0 / 2.0f64.sqrt();
        let mut m = SquareMatrix::identity(3);
        m[(0, 0)] = Complex::from_real(s);
        m[(0, 1)] = Complex::from_real(s);
        m[(1, 0)] = Complex::from_real(s);
        m[(1, 1)] = Complex::from_real(-s);
        let mut circuit = Circuit::new(dim(3), 1);
        circuit
            .push(Gate::single(SingleQuditOp::Unitary(m), QuditId::new(0)))
            .unwrap();

        // The identity pass trivially preserves the unitary.
        let identity = pass_fn("identity", Ok);
        let manager = PassManager::new().with_pass(VerifyEquivalence::wrap(Box::new(identity)));
        assert!(manager.run(circuit.clone()).is_ok());

        // Dropping the gate does not.
        let drop_all = pass_fn("drop-all", |c: Circuit| {
            Ok(Circuit::new(c.dimension(), c.width()))
        });
        let manager = PassManager::new().with_pass(VerifyEquivalence::wrap(Box::new(drop_all)));
        assert!(matches!(
            manager.run(circuit),
            Err(QuditError::PassFailed { .. })
        ));
    }

    #[test]
    fn large_non_classical_circuits_use_the_sampled_statevector_path() {
        use qudit_core::math::{Complex, SquareMatrix};
        let s = 1.0 / 2.0f64.sqrt();
        let mut m = SquareMatrix::identity(3);
        m[(0, 0)] = Complex::from_real(s);
        m[(0, 1)] = Complex::from_real(s);
        m[(1, 0)] = Complex::from_real(s);
        m[(1, 1)] = Complex::from_real(-s);
        // Width 6 over qutrits: 3^6 = 729 > MAX_UNITARY_STATES, so the
        // sampled column-fidelity fallback must kick in rather than erroring.
        let mut circuit = Circuit::new(dim(3), 6);
        circuit
            .push(Gate::single(SingleQuditOp::Unitary(m), QuditId::new(2)))
            .unwrap();
        circuit
            .push(Gate::controlled(
                SingleQuditOp::Add(1),
                QuditId::new(5),
                vec![Control::zero(QuditId::new(0))],
            ))
            .unwrap();

        let identity = pass_fn("identity", Ok);
        let manager = PassManager::new().with_pass(VerifyEquivalence::wrap(Box::new(identity)));
        assert!(manager.run(circuit.clone()).is_ok());

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

    #[test]
    fn sampled_statevector_path_catches_relative_phase_changes() {
        use qudit_core::math::{Complex, SquareMatrix};
        // Width 6 over qutrits (729 states) forces the sampled fallback; the
        // extra unitary gate keeps the circuit non-classical on both sides.
        let hadamard_like = {
            let s = 1.0 / 2.0f64.sqrt();
            let mut m = SquareMatrix::identity(3);
            m[(0, 0)] = Complex::from_real(s);
            m[(0, 1)] = Complex::from_real(s);
            m[(1, 0)] = Complex::from_real(s);
            m[(1, 1)] = Complex::from_real(-s);
            m
        };
        let mut circuit = Circuit::new(dim(3), 6);
        circuit
            .push(Gate::single(
                SingleQuditOp::Unitary(hadamard_like),
                QuditId::new(0),
            ))
            .unwrap();
        circuit
            .push(Gate::single(SingleQuditOp::Swap(0, 1), QuditId::new(5)))
            .unwrap();

        // A pass that replaces the trailing X01 with a phase-twisted swap:
        // |0> -> |1>, |1> -> e^{i phi}|0>.  Basis-state inputs cannot see the
        // relative phase; random dense inputs must.
        let twist = pass_fn("phase-twist", |c: Circuit| {
            let mut twisted = SquareMatrix::identity(3);
            twisted[(0, 0)] = Complex::ZERO;
            twisted[(1, 1)] = Complex::ZERO;
            twisted[(1, 0)] = Complex::ONE;
            twisted[(0, 1)] = Complex::from_phase(1.0);
            let mut out = Circuit::new(c.dimension(), c.width());
            for gate in c.gates().iter().take(c.len() - 1) {
                out.push(gate.clone())?;
            }
            out.push(Gate::single(
                SingleQuditOp::Unitary(twisted),
                QuditId::new(5),
            ))?;
            Ok(out)
        });
        let manager = PassManager::new().with_pass(VerifyEquivalence::wrap(Box::new(twist)));
        match manager.run(circuit) {
            Err(QuditError::PassFailed { pass, reason }) => {
                assert_eq!(pass, "phase-twist");
                assert!(reason.contains("random dense state"), "{reason}");
            }
            other => panic!("expected PassFailed, got {other:?}"),
        }
    }
}
