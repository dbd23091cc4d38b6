//! State-vector simulation of qudit circuits, including non-classical
//! (unitary) gates.
//!
//! Gates are applied *in place*: every gate (classical or single-qudit
//! unitary) only rewrites the target digit, so the amplitude vector splits
//! into independent blocks of `d` amplitudes at target-digit stride, and a
//! single `d`-element scratch buffer — reused across a whole
//! [`StateVector::apply_circuit`] — suffices.  Control predicates are
//! evaluated directly from the mixed-radix index with stride arithmetic;
//! no full digit decoding and no `d^width` temporary is ever needed.

use qudit_core::math::{Complex, SquareMatrix};
use qudit_core::{Circuit, Dimension, Gate, GateOp, QuditError, Result, SingleQuditOp};

use crate::basis::digits_to_index;

/// The digit of qudit with the given stride in a mixed-radix index.
#[inline]
fn digit_at(index: usize, stride: usize, d: usize) -> u32 {
    ((index / stride) % d) as u32
}

/// A full state vector over `width` qudits of dimension `d`.
///
/// # Example
///
/// ```
/// # use qudit_core::{Circuit, Control, Dimension, Gate, QuditId, SingleQuditOp};
/// # use qudit_sim::StateVector;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d = Dimension::new(3)?;
/// let mut circuit = Circuit::new(d, 2);
/// circuit.push(Gate::controlled(
///     SingleQuditOp::Swap(0, 1),
///     QuditId::new(1),
///     vec![Control::zero(QuditId::new(0))],
/// ))?;
///
/// let mut state = StateVector::from_basis(d, &[0, 0])?;
/// state.apply_circuit(&circuit)?;
/// assert!(state.probability(&[0, 1]) > 0.999);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    dimension: Dimension,
    width: usize,
    amplitudes: Vec<Complex>,
}

impl StateVector {
    /// Creates the all-zeros basis state `|0…0⟩`.
    pub fn new(dimension: Dimension, width: usize) -> Self {
        let size = dimension.register_size(width);
        let mut amplitudes = vec![Complex::ZERO; size];
        amplitudes[0] = Complex::ONE;
        StateVector {
            dimension,
            width,
            amplitudes,
        }
    }

    /// Creates the basis state with the given digits.
    ///
    /// # Errors
    ///
    /// Returns an error when a digit is out of range.
    pub fn from_basis(dimension: Dimension, digits: &[u32]) -> Result<Self> {
        for &digit in digits {
            dimension.check_level(digit)?;
        }
        let size = dimension.register_size(digits.len());
        let mut amplitudes = vec![Complex::ZERO; size];
        amplitudes[digits_to_index(digits, dimension)] = Complex::ONE;
        Ok(StateVector {
            dimension,
            width: digits.len(),
            amplitudes,
        })
    }

    /// The qudit dimension.
    pub fn dimension(&self) -> Dimension {
        self.dimension
    }

    /// The number of qudits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The raw amplitudes in basis-index order.
    pub fn amplitudes(&self) -> &[Complex] {
        &self.amplitudes
    }

    /// Mutable access to the raw amplitudes for the fused dense engine.
    pub(crate) fn amplitudes_mut(&mut self) -> &mut [Complex] {
        &mut self.amplitudes
    }

    /// The amplitude of a basis state.
    pub fn amplitude(&self, digits: &[u32]) -> Complex {
        self.amplitudes[digits_to_index(digits, self.dimension)]
    }

    /// The probability of measuring a basis state.
    pub fn probability(&self, digits: &[u32]) -> f64 {
        self.amplitude(digits).norm_sqr()
    }

    /// The squared norm of the state (should be 1 for a physical state).
    pub fn norm_sqr(&self) -> f64 {
        self.amplitudes.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Applies a single gate.
    ///
    /// # Errors
    ///
    /// Returns an error when the gate refers to qudits outside the register.
    pub fn apply_gate(&mut self, gate: &Gate) -> Result<()> {
        let mut scratch = vec![Complex::ZERO; self.dimension.as_usize()];
        self.apply_gate_with_scratch(gate, &mut scratch)
    }

    /// The stride of a qudit's digit in the mixed-radix amplitude index.
    #[inline]
    fn stride_of(&self, qudit: usize) -> usize {
        self.dimension
            .as_usize()
            .pow((self.width - 1 - qudit) as u32)
    }

    /// Applies a gate in place, using (and clobbering) a caller-provided
    /// `d`-element scratch buffer.
    fn apply_gate_with_scratch(&mut self, gate: &Gate, scratch: &mut [Complex]) -> Result<()> {
        gate.validate(self.dimension, self.width)?;
        let d = self.dimension.as_usize();
        debug_assert_eq!(scratch.len(), d);
        let t_stride = self.stride_of(gate.target().index());
        // Controls as (stride, predicate) pairs: the control digit of a
        // block is read straight off the block's base index.
        let controls: Vec<(usize, qudit_core::ControlPredicate)> = gate
            .controls()
            .iter()
            .map(|c| (self.stride_of(c.qudit.index()), c.predicate))
            .collect();

        // The per-block action on the target digit.
        enum Action<'m> {
            /// Classical permutation of the target levels.
            Permute(Vec<usize>),
            /// Shift the target by (±) the digit of the source qudit.
            ShiftBySource { source_stride: usize, negate: bool },
            /// General single-qudit unitary.
            Mix(&'m SquareMatrix),
        }

        let owned_matrix: SquareMatrix;
        let action = match gate.op() {
            GateOp::AddFrom { source, negate } => Action::ShiftBySource {
                source_stride: self.stride_of(source.index()),
                negate: *negate,
            },
            GateOp::Single(op) if op.is_classical() => {
                let mut permutation = vec![0usize; d];
                for (level, slot) in permutation.iter_mut().enumerate() {
                    *slot = op.apply_level(level as u32, self.dimension)? as usize;
                }
                Action::Permute(permutation)
            }
            GateOp::Single(SingleQuditOp::Unitary(matrix)) => Action::Mix(matrix),
            GateOp::Single(op) => {
                owned_matrix = op.to_matrix(self.dimension);
                Action::Mix(&owned_matrix)
            }
        };

        // Iterate the target-digit blocks directly: `base` ranges over every
        // index whose target digit is 0.
        let block = t_stride * d;
        let size = self.amplitudes.len();
        for outer in (0..size).step_by(block) {
            for inner in 0..t_stride {
                let base = outer + inner;
                // Gather the block and skip it when it carries no amplitude —
                // the dominant case for (near-)basis states, which classical
                // circuits keep sparse.
                let mut occupied = false;
                for (level, slot) in scratch.iter_mut().enumerate() {
                    *slot = self.amplitudes[base + level * t_stride];
                    occupied |= *slot != Complex::ZERO;
                }
                if !occupied {
                    continue;
                }
                let fires = controls
                    .iter()
                    .all(|&(stride, predicate)| predicate.matches(digit_at(base, stride, d)));
                if !fires {
                    continue;
                }
                match &action {
                    Action::Permute(permutation) => {
                        for (level, &image) in permutation.iter().enumerate() {
                            self.amplitudes[base + image * t_stride] = scratch[level];
                        }
                    }
                    Action::ShiftBySource {
                        source_stride,
                        negate,
                    } => {
                        let value = digit_at(base, *source_stride, d) as usize;
                        let shift = if *negate { (d - value) % d } else { value };
                        if shift == 0 {
                            continue;
                        }
                        for (level, &amp) in scratch.iter().enumerate() {
                            self.amplitudes[base + (level + shift) % d * t_stride] = amp;
                        }
                    }
                    Action::Mix(matrix) => {
                        for row in 0..d {
                            let mut acc = Complex::ZERO;
                            for (column, &amp) in scratch.iter().enumerate() {
                                acc += matrix[(row, column)] * amp;
                            }
                            self.amplitudes[base + row * t_stride] = acc;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Applies every gate of a circuit in order.
    ///
    /// A single `d`-element scratch buffer is allocated once and reused for
    /// every gate; the amplitude vector itself is updated in place.
    ///
    /// # Errors
    ///
    /// Returns an error when the circuit does not match the register or a
    /// gate is invalid.
    pub fn apply_circuit(&mut self, circuit: &Circuit) -> Result<()> {
        if circuit.dimension() != self.dimension {
            return Err(QuditError::IncompatibleCircuits {
                reason: "circuit and state dimensions differ".to_string(),
            });
        }
        if circuit.width() > self.width {
            return Err(QuditError::IncompatibleCircuits {
                reason: "circuit is wider than the state register".to_string(),
            });
        }
        let mut scratch = vec![Complex::ZERO; self.dimension.as_usize()];
        for gate in circuit.gates() {
            self.apply_gate_with_scratch(gate, &mut scratch)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::circuit_unitary;
    use qudit_core::math::MATRIX_TOLERANCE;
    use qudit_core::{Control, QuditId};

    fn dim(d: u32) -> Dimension {
        Dimension::new(d).unwrap()
    }

    #[test]
    fn classical_gates_move_basis_states() {
        let d = dim(3);
        let mut state = StateVector::from_basis(d, &[0, 2]).unwrap();
        let gate = Gate::controlled(
            SingleQuditOp::Add(1),
            QuditId::new(1),
            vec![Control::zero(QuditId::new(0))],
        );
        state.apply_gate(&gate).unwrap();
        assert!((state.probability(&[0, 0]) - 1.0).abs() < 1e-12);
        assert!((state.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unitary_gates_create_superpositions() {
        let d = dim(3);
        // A qutrit "Hadamard-like" unitary: the Fourier matrix.
        let omega = Complex::from_phase(2.0 * std::f64::consts::PI / 3.0);
        let s = 1.0 / 3.0f64.sqrt();
        let mut entries = Vec::new();
        for r in 0..3u32 {
            for c in 0..3u32 {
                let mut w = Complex::ONE;
                for _ in 0..(r * c) {
                    w *= omega;
                }
                entries.push(w.scale(s));
            }
        }
        let fourier = SquareMatrix::from_rows(3, entries).unwrap();
        assert!(fourier.is_unitary(MATRIX_TOLERANCE));
        let gate = Gate::single(SingleQuditOp::Unitary(fourier), QuditId::new(0));
        let mut state = StateVector::new(d, 1);
        state.apply_gate(&gate).unwrap();
        for level in 0..3 {
            assert!((state.probability(&[level]) - 1.0 / 3.0).abs() < 1e-9);
        }
        assert!((state.norm_sqr() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn controlled_unitary_only_fires_on_matching_control() {
        let d = dim(3);
        let x01 = SingleQuditOp::Swap(0, 1).to_matrix(d);
        let gate = Gate::controlled(
            SingleQuditOp::Unitary(x01),
            QuditId::new(1),
            vec![Control::level(QuditId::new(0), 1)],
        );
        let mut fired = StateVector::from_basis(d, &[1, 0]).unwrap();
        fired.apply_gate(&gate).unwrap();
        assert!((fired.probability(&[1, 1]) - 1.0).abs() < 1e-12);
        let mut idle = StateVector::from_basis(d, &[2, 0]).unwrap();
        idle.apply_gate(&gate).unwrap();
        assert!((idle.probability(&[2, 0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn circuit_unitary_matches_permutation_for_classical_circuits() {
        let d = dim(3);
        let mut circuit = Circuit::new(d, 2);
        circuit
            .push(Gate::controlled(
                SingleQuditOp::Swap(0, 2),
                QuditId::new(1),
                vec![Control::level(QuditId::new(0), 1)],
            ))
            .unwrap();
        let unitary = circuit_unitary(&circuit).unwrap();
        assert!(unitary.is_unitary(MATRIX_TOLERANCE));
        let table = crate::basis::circuit_permutation(&circuit).unwrap();
        let expected = SquareMatrix::from_permutation(&table).unwrap();
        assert!(unitary.approx_eq(&expected, MATRIX_TOLERANCE));
    }
}
