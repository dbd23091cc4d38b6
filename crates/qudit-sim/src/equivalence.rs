//! Equivalence and specification checkers used to verify syntheses.
//!
//! The paper's constructions are verified functionally: a synthesised
//! circuit must implement its multi-controlled gate specification for every
//! computational basis state (borrowed-ancilla semantics) or for every basis
//! state with the clean ancilla in `|0⟩` (clean-ancilla semantics).
//!
//! The three classical checkers — [`verify_mct_exhaustive`] (every basis
//! state), [`verify_mct_sampled`] (random draws) and
//! [`verify_mct_with_clean_ancilla`] (the ancilla-`|0⟩` states) — compare
//! the circuit against the specification's one-gate reference
//! ([`MctSpec::circuit`]) on the [`BasisBatch`](crate::BasisBatch) witness
//! search that [`VerifyEquivalence`](crate::VerifyEquivalence) runs too.
//! Only a failing witness is replayed through [`Circuit::apply_to_basis`],
//! to report its expected and actual outputs.  [`verify_mct_unitary`]
//! compares unitaries instead.

use qudit_core::math::SquareMatrix;
use qudit_core::{Circuit, Control, Dimension, Gate, QuditError, QuditId, Result, SingleQuditOp};
use rand::Rng;

use crate::basis::{
    all_basis_states, biased_samples, exhaustive_witness, first_witness, index_to_digits,
};
use crate::dense::circuit_unitary;

/// Specification of a multi-controlled gate `|0^k⟩-op`.
///
/// The circuit under test may be wider than `controls ∪ {target}`; every
/// additional qudit is treated as a borrowed ancilla and must be returned to
/// its initial state.
#[derive(Debug, Clone, PartialEq)]
pub struct MctSpec {
    /// The control qudits (all `|0⟩`-controls).
    pub controls: Vec<QuditId>,
    /// The target qudit.
    pub target: QuditId,
    /// The operation applied to the target when every control is `|0⟩`.
    pub op: SingleQuditOp,
}

impl MctSpec {
    /// Creates a specification for the k-Toffoli gate (`op = X01`).
    pub fn toffoli(controls: Vec<QuditId>, target: QuditId) -> Self {
        MctSpec {
            controls,
            target,
            op: SingleQuditOp::Swap(0, 1),
        }
    }

    /// Computes the expected output basis state for a given input: the
    /// image of `input` under [`MctSpec::circuit`].
    ///
    /// # Errors
    ///
    /// Returns [`QuditError::QuditOutOfRange`] when the specification names
    /// a qudit outside `input`, and an error when `op` is not classical or
    /// a digit of `input` is `≥ d`.
    pub fn expected_output(&self, input: &[u32], dimension: Dimension) -> Result<Vec<u32>> {
        self.circuit(dimension, input.len())?.apply_to_basis(input)
    }

    /// The specification as a circuit of `width` qudits: one gate applying
    /// `op` to the target when every control is `|0⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`QuditError::QuditOutOfRange`] when the specification names
    /// a qudit outside the register, and the other [`Gate::validate`]
    /// errors for an invalid gate.
    ///
    /// # Example
    ///
    /// ```
    /// # use qudit_core::{Dimension, QuditId};
    /// # use qudit_sim::MctSpec;
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let d = Dimension::new(3)?;
    /// let spec = MctSpec::toffoli(vec![QuditId::new(0)], QuditId::new(1));
    /// let reference = spec.circuit(d, 3)?;
    /// assert_eq!(reference.apply_to_basis(&[0, 1, 2])?, vec![0, 0, 2]);
    /// assert!(spec.circuit(d, 1).is_err());
    /// # Ok(())
    /// # }
    /// ```
    pub fn circuit(&self, dimension: Dimension, width: usize) -> Result<Circuit> {
        let mut circuit = Circuit::new(dimension, width);
        circuit.push(Gate::controlled(
            self.op.clone(),
            self.target,
            self.controls.iter().map(|&q| Control::zero(q)),
        ))?;
        Ok(circuit)
    }
}

/// The outcome of a functional verification.
#[derive(Debug, Clone, PartialEq)]
pub enum Verification {
    /// Every checked input behaved as specified.
    Pass {
        /// Number of basis states checked.
        inputs_checked: usize,
    },
    /// Some input produced the wrong output.
    Fail {
        /// The offending input basis state.
        input: Vec<u32>,
        /// The expected output.
        expected: Vec<u32>,
        /// The output the circuit produced.
        actual: Vec<u32>,
    },
}

impl Verification {
    /// Returns `true` for a passing verification.
    pub fn is_pass(&self) -> bool {
        matches!(self, Verification::Pass { .. })
    }
}

/// The verdict for a witness search over `checked` inputs.
fn verdict(
    reference: &Circuit,
    circuit: &Circuit,
    checked: usize,
    witness: Option<Vec<u32>>,
) -> Result<Verification> {
    Ok(match witness {
        None => Verification::Pass {
            inputs_checked: checked,
        },
        Some(input) => Verification::Fail {
            expected: reference.apply_to_basis(&input)?,
            actual: circuit.apply_to_basis(&input)?,
            input,
        },
    })
}

/// Exhaustively verifies that a classical circuit implements an [`MctSpec`]
/// with borrowed-ancilla semantics (every non-target qudit restored).  A
/// failure reports the first mismatching basis state in index order.
///
/// # Errors
///
/// Returns an error when the circuit is non-classical or the specification
/// refers to qudits outside the circuit.
pub fn verify_mct_exhaustive(circuit: &Circuit, spec: &MctSpec) -> Result<Verification> {
    let (dimension, width) = (circuit.dimension(), circuit.width());
    let reference = spec.circuit(dimension, width)?;
    let witness = exhaustive_witness(&reference, circuit)?;
    verdict(&reference, circuit, dimension.register_size(width), witness)
}

/// Verifies an [`MctSpec`] on `samples` random basis states: uniform draws,
/// with every other sample's controls forced to `|0⟩` so the "fire" branch
/// is exercised even for large k.  A failure reports the first mismatching
/// sample in draw order.
///
/// Use this for registers too large for exhaustive checking; memory stays
/// `O(width × block)` for any register size.
///
/// # Errors
///
/// Returns an error when the circuit is non-classical or the specification
/// refers to qudits outside the circuit.
pub fn verify_mct_sampled<R: Rng>(
    circuit: &Circuit,
    spec: &MctSpec,
    samples: usize,
    rng: &mut R,
) -> Result<Verification> {
    let (dimension, width) = (circuit.dimension(), circuit.width());
    let reference = spec.circuit(dimension, width)?;
    let controls = reference.gates()[0].controls();
    let inputs = biased_samples(dimension, width, samples, rng, |_| controls);
    let witness = first_witness(&reference, circuit, inputs)?;
    verdict(&reference, circuit, samples, witness)
}

/// Exhaustively verifies a circuit that uses one clean ancilla: only inputs
/// with the ancilla in `|0⟩` are checked, and the ancilla must be returned to
/// `|0⟩`.  A failure reports the first mismatching input in index order.
///
/// # Errors
///
/// Returns an error when the circuit is non-classical or the specification
/// or the ancilla refers to qudits outside the circuit.
pub fn verify_mct_with_clean_ancilla(
    circuit: &Circuit,
    spec: &MctSpec,
    clean: QuditId,
) -> Result<Verification> {
    let (dimension, width) = (circuit.dimension(), circuit.width());
    let reference = spec.circuit(dimension, width)?;
    if clean.index() >= width {
        return Err(QuditError::QuditOutOfRange {
            qudit: clean.index(),
            width,
        });
    }
    let inputs = all_basis_states(dimension, width).filter(|input| input[clean.index()] == 0);
    let witness = first_witness(&reference, circuit, inputs)?;
    verdict(
        &reference,
        circuit,
        dimension.register_size(width - 1),
        witness,
    )
}

/// Builds the ideal unitary of a multi-controlled single-qudit gate
/// specification on a register of the given width.
///
/// # Errors
///
/// Returns an error when the specification refers to qudits outside the
/// register.
pub fn mct_unitary(spec: &MctSpec, dimension: Dimension, width: usize) -> Result<SquareMatrix> {
    let op_matrix = spec.op.to_matrix(dimension);
    let size = dimension.register_size(width);
    let d = dimension.as_usize();
    let mut matrix = SquareMatrix::zeros(size);
    let target = spec.target.index();
    let stride = d.pow((width - 1 - target) as u32);
    for column in 0..size {
        let digits = index_to_digits(column, dimension, width);
        let fires = spec.controls.iter().all(|c| digits[c.index()] == 0);
        if !fires {
            matrix[(column, column)] = qudit_core::math::Complex::ONE;
            continue;
        }
        let t_digit = digits[target] as usize;
        let base = column - t_digit * stride;
        for row_digit in 0..d {
            let row = base + row_digit * stride;
            matrix[(row, column)] = op_matrix[(row_digit, t_digit)];
        }
    }
    Ok(matrix)
}

/// Verifies that a (possibly non-classical) circuit implements the unitary of
/// an [`MctSpec`], up to numerical tolerance, with every extra qudit acting
/// as a borrowed ancilla in the computational basis.
///
/// This builds the full `d^width` unitary; only use it for small registers.
///
/// # Errors
///
/// Returns an error when the circuit cannot be simulated.
pub fn verify_mct_unitary(circuit: &Circuit, spec: &MctSpec) -> Result<bool> {
    let expected = mct_unitary(spec, circuit.dimension(), circuit.width())?;
    let actual = circuit_unitary(circuit)?;
    Ok(actual.approx_eq(&expected, 1e-7))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_core::math::MATRIX_TOLERANCE;
    use qudit_core::{Control, Gate};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dim(d: u32) -> Dimension {
        Dimension::new(d).unwrap()
    }

    fn macro_toffoli(d: Dimension, k: usize) -> Circuit {
        let mut c = Circuit::new(d, k + 1);
        c.push(Gate::controlled(
            SingleQuditOp::Swap(0, 1),
            QuditId::new(k),
            (0..k).map(|i| Control::zero(QuditId::new(i))),
        ))
        .unwrap();
        c
    }

    #[test]
    fn macro_toffoli_satisfies_its_own_spec() {
        let d = dim(3);
        let circuit = macro_toffoli(d, 2);
        let spec = MctSpec::toffoli(vec![QuditId::new(0), QuditId::new(1)], QuditId::new(2));
        assert!(verify_mct_exhaustive(&circuit, &spec).unwrap().is_pass());
        assert!(verify_mct_unitary(&circuit, &spec).unwrap());
    }

    #[test]
    fn wrong_circuit_is_rejected() {
        let d = dim(3);
        let circuit = macro_toffoli(d, 2);
        // Spec with swapped roles should fail.
        let spec = MctSpec::toffoli(vec![QuditId::new(0), QuditId::new(2)], QuditId::new(1));
        let verdict = verify_mct_exhaustive(&circuit, &spec).unwrap();
        assert!(!verdict.is_pass());
        if let Verification::Fail {
            input,
            expected,
            actual,
        } = verdict
        {
            assert_ne!(expected, actual);
            assert_eq!(input.len(), 3);
        }
    }

    #[test]
    fn sampled_verification_agrees_with_exhaustive() {
        let d = dim(3);
        let circuit = macro_toffoli(d, 3);
        let spec = MctSpec::toffoli(
            vec![QuditId::new(0), QuditId::new(1), QuditId::new(2)],
            QuditId::new(3),
        );
        let mut rng = StdRng::seed_from_u64(7);
        assert!(verify_mct_sampled(&circuit, &spec, 64, &mut rng)
            .unwrap()
            .is_pass());
    }

    #[test]
    fn clean_ancilla_semantics_ignores_nonzero_ancilla_inputs() {
        let d = dim(3);
        // A circuit that garbles the ancilla whenever it starts in |1⟩ is
        // still accepted by the clean-ancilla check, because only ancilla
        // inputs equal to |0⟩ are part of the contract.
        let mut circuit = macro_toffoli(d, 2).widened(4).unwrap();
        circuit
            .push(Gate::controlled(
                SingleQuditOp::Add(1),
                QuditId::new(3),
                vec![Control::level(QuditId::new(0), 1)],
            ))
            .unwrap();
        let spec = MctSpec::toffoli(vec![QuditId::new(0), QuditId::new(1)], QuditId::new(2));
        // Borrowed semantics fail (the extra qudit is modified for some inputs)…
        assert!(!verify_mct_exhaustive(&circuit, &spec).unwrap().is_pass());
        // …but clean-ancilla semantics still hold? No: the ancilla is changed
        // even when it starts in |0⟩ (whenever x0 = 1), so this also fails.
        assert!(
            !verify_mct_with_clean_ancilla(&circuit, &spec, QuditId::new(3))
                .unwrap()
                .is_pass()
        );
        // The untouched widened circuit satisfies both contracts.
        let clean_circuit = macro_toffoli(d, 2).widened(4).unwrap();
        assert!(verify_mct_exhaustive(&clean_circuit, &spec)
            .unwrap()
            .is_pass());
        assert!(
            verify_mct_with_clean_ancilla(&clean_circuit, &spec, QuditId::new(3))
                .unwrap()
                .is_pass()
        );
    }

    #[test]
    fn ideal_unitary_is_unitary() {
        let d = dim(3);
        let spec = MctSpec {
            controls: vec![QuditId::new(0)],
            target: QuditId::new(1),
            op: SingleQuditOp::Add(1),
        };
        let u = mct_unitary(&spec, d, 2).unwrap();
        assert!(u.is_unitary(MATRIX_TOLERANCE));
    }

    #[test]
    fn sampled_verification_never_densifies_wide_registers() {
        // Width 30 over qutrits: 3^30 ≈ 2·10^14 basis states — any code
        // path that densifies the state would attempt a petabyte-scale
        // allocation.  The sampled check must stay O(width × samples).
        let d = dim(3);
        let k = 29;
        let circuit = macro_toffoli(d, k);
        let spec = MctSpec::toffoli((0..k).map(QuditId::new).collect(), QuditId::new(k));
        let mut rng = StdRng::seed_from_u64(11);
        assert!(verify_mct_sampled(&circuit, &spec, 16, &mut rng)
            .unwrap()
            .is_pass());
    }
}
