//! Theorem IV.1: exact synthesis of arbitrary `n`-qudit unitaries with one
//! clean ancilla.
//!
//! The unitary is first decomposed into two-level unitaries (Givens
//! rotations).  Each two-level unitary between basis states `|a⟩` and `|b⟩`
//! is conjugated by singly-controlled relabelling gates (the same trick as
//! Fig. 11) so that it becomes an `(n−1)`-controlled single-qudit unitary,
//! which is then synthesised with the Fig. 1(b) construction using the single
//! clean ancilla.  The paper's contribution is exactly this last step: the
//! prior-work synthesis (ref. 5) needed `⌈(n−2)/(d−2)⌉` clean ancillas, the
//! multi-controlled gates of Section III reduce that to one.

use qudit_core::math::SquareMatrix;
use qudit_core::{
    AncillaKind, AncillaUsage, Circuit, Control, Dimension, Gate, QuditError, QuditId, Result,
    SingleQuditOp,
};
use qudit_sim::basis::index_to_digits;
use qudit_synthesis::lower::lower_to_elementary;
use qudit_synthesis::{emit_controlled_unitary, Resources};

use crate::two_level::{two_level_decompose, TwoLevelUnitary};

/// Register layout of a unitary synthesis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitaryLayout {
    /// The qudits carrying the unitary's register.
    pub variables: Vec<QuditId>,
    /// The clean ancilla (present for `n ≥ 3`; `None` otherwise).
    pub clean_ancilla: Option<QuditId>,
    /// Total register width.
    pub width: usize,
}

/// The result of synthesising an `n`-qudit unitary.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitarySynthesis {
    circuit: Circuit,
    layout: UnitaryLayout,
    resources: Resources,
    two_level_factors: usize,
}

impl UnitarySynthesis {
    /// The synthesised circuit (macro-gate level; contains singly-controlled
    /// general unitaries plus the classical Toffoli scaffolding).
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The register layout.
    pub fn layout(&self) -> &UnitaryLayout {
        &self.layout
    }

    /// Gate and ancilla counts.  `g_gates` is 0 because general controlled
    /// unitaries have no G-gate expansion; the two-qudit gate count is the
    /// paper's metric for unitary synthesis.
    pub fn resources(&self) -> &Resources {
        &self.resources
    }

    /// Number of two-level factors in the Givens decomposition.
    pub fn two_level_factors(&self) -> usize {
        self.two_level_factors
    }
}

/// Synthesiser for arbitrary `n`-qudit unitaries (Theorem IV.1).
///
/// # Example
///
/// ```
/// # use qudit_core::Dimension;
/// # use qudit_core::math::SquareMatrix;
/// # use qudit_unitary::UnitarySynthesizer;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d = Dimension::new(3)?;
/// let identity = SquareMatrix::identity(9);
/// let synthesis = UnitarySynthesizer::new(d)?.synthesize(&identity, 2)?;
/// assert_eq!(synthesis.two_level_factors(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitarySynthesizer {
    dimension: Dimension,
}

impl UnitarySynthesizer {
    /// Creates a synthesiser for `d`-level qudits.
    ///
    /// # Errors
    ///
    /// Returns an error when `d < 3`.
    pub fn new(dimension: Dimension) -> Result<Self> {
        if dimension.get() < 3 {
            return Err(QuditError::DimensionTooSmall {
                dimension: dimension.get(),
                minimum: 3,
            });
        }
        Ok(UnitarySynthesizer { dimension })
    }

    /// The qudit dimension.
    pub fn dimension(&self) -> Dimension {
        self.dimension
    }

    /// Synthesises a `d^n × d^n` unitary over `n` qudits.
    ///
    /// The register layout is `variables (0 … n−1)` plus, for `n ≥ 3`, the
    /// clean ancilla on qudit `n`.
    ///
    /// # Errors
    ///
    /// Returns an error when the matrix size is not `d^n` or the matrix is
    /// not unitary.
    pub fn synthesize(&self, unitary: &SquareMatrix, variables: usize) -> Result<UnitarySynthesis> {
        let dimension = self.dimension;
        let expected = dimension.register_size(variables);
        if unitary.size() != expected {
            return Err(QuditError::MatrixShapeMismatch {
                found: unitary.size(),
                expected,
            });
        }
        let factors = two_level_decompose(unitary)?;

        let needs_ancilla = variables >= 3;
        let width = variables + usize::from(needs_ancilla || variables >= 2);
        let variable_ids: Vec<QuditId> = (0..variables).map(QuditId::new).collect();
        let clean = if width > variables {
            Some(QuditId::new(variables))
        } else {
            None
        };

        let mut circuit = Circuit::new(dimension, width.max(1));
        for factor in &factors {
            self.emit_two_level(&mut circuit, &variable_ids, factor, clean)?;
        }

        let ancillas = if needs_ancilla {
            AncillaUsage::of_kind(AncillaKind::Clean, 1)
        } else {
            AncillaUsage::none()
        };
        // General unitary gates have no G-gate expansion; report macro and
        // elementary (two-qudit) counts from the elementary lowering.
        let elementary = lower_to_elementary(&circuit)?;
        let resources = Resources {
            width: circuit.width(),
            macro_gates: circuit.len(),
            elementary_gates: elementary.len(),
            two_qudit_gates: elementary.iter().filter(|g| g.arity() == 2).count(),
            g_gates: 0,
            ancillas,
        };
        Ok(UnitarySynthesis {
            circuit,
            layout: UnitaryLayout {
                variables: variable_ids,
                clean_ancilla: clean,
                width: width.max(1),
            },
            resources,
            two_level_factors: factors.len(),
        })
    }

    /// Emits one two-level unitary as a conjugated multi-controlled
    /// single-qudit gate.
    fn emit_two_level(
        &self,
        circuit: &mut Circuit,
        variables: &[QuditId],
        factor: &TwoLevelUnitary,
        clean: Option<QuditId>,
    ) -> Result<()> {
        let dimension = self.dimension;
        let n = variables.len();
        let a = index_to_digits(factor.i, dimension, n);
        let b = index_to_digits(factor.j, dimension, n);

        if n == 1 {
            // A two-level unitary on a single qudit is just a single-qudit gate.
            let op = embed_block(dimension, a[0], b[0], factor);
            circuit.push(Gate::single(op, variables[0]))?;
            return Ok(());
        }

        // Distinguished position where a and b differ.
        let p = (0..n)
            .rev()
            .find(|&i| a[i] != b[i])
            .expect("two-level factors connect distinct basis states");

        // Step 1 (Fig. 11): relabel |b⟩ so it agrees with |a⟩ everywhere
        // except at p, controlled on qudit p being |b_p⟩.
        let relabel: Vec<Gate> = (0..n)
            .filter(|&i| i != p && a[i] != b[i])
            .map(|i| {
                Gate::controlled(
                    SingleQuditOp::Swap(a[i], b[i]),
                    variables[i],
                    [Control::level(variables[p], b[p])],
                )
            })
            .collect();
        for gate in &relabel {
            circuit.push(gate.clone())?;
        }

        // Step 2: the (n−1)-controlled single-qudit unitary, controls at
        // levels a_i.  Conjugate every control level to 0, then use the
        // Fig. 1(b) clean-ancilla construction.
        let controls: Vec<QuditId> = (0..n).filter(|&i| i != p).map(|i| variables[i]).collect();
        let mut conjugation = Vec::new();
        for (index, &qudit) in controls.iter().enumerate() {
            let level = a[(0..n)
                .filter(|&i| i != p)
                .nth(index)
                .expect("index in range")];
            if level != 0 {
                conjugation.push(Gate::single(SingleQuditOp::Swap(0, level), qudit));
            }
        }
        for gate in &conjugation {
            circuit.push(gate.clone())?;
        }
        let op = embed_block(dimension, a[p], b[p], factor);
        let clean = clean.ok_or_else(|| QuditError::CannotLower {
            reason: "multi-qudit unitary synthesis requires the clean ancilla qudit".to_string(),
        })?;
        emit_controlled_unitary(circuit, &controls, variables[p], &op, clean)?;
        for gate in conjugation.iter().rev() {
            circuit.push(gate.clone())?;
        }

        // Step 3: undo the relabelling.
        for gate in &relabel {
            circuit.push(gate.clone())?;
        }
        Ok(())
    }
}

/// Embeds the 2×2 block of a two-level unitary into a `d × d` single-qudit
/// operation acting on levels `(la, lb)`.
fn embed_block(dimension: Dimension, la: u32, lb: u32, factor: &TwoLevelUnitary) -> SingleQuditOp {
    let d = dimension.as_usize();
    let mut matrix = SquareMatrix::identity(d);
    let (la, lb) = (la as usize, lb as usize);
    matrix[(la, la)] = factor.block[0][0];
    matrix[(la, lb)] = factor.block[0][1];
    matrix[(lb, la)] = factor.block[1][0];
    matrix[(lb, lb)] = factor.block[1][1];
    SingleQuditOp::Unitary(matrix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_core::math::Complex;
    use qudit_sim::circuit_unitary;
    use qudit_sim::random::random_unitary;
    use qudit_sim::StateVector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dim(d: u32) -> Dimension {
        Dimension::new(d).unwrap()
    }

    #[test]
    fn single_qudit_unitaries_are_reproduced_exactly() {
        let dimension = dim(3);
        let mut rng = StdRng::seed_from_u64(3);
        let u = random_unitary(3, &mut rng);
        let synthesis = UnitarySynthesizer::new(dimension)
            .unwrap()
            .synthesize(&u, 1)
            .unwrap();
        let built = circuit_unitary(synthesis.circuit()).unwrap();
        assert!(built.approx_eq(&u, 1e-7), "distance {}", built.distance(&u));
        assert_eq!(synthesis.resources().clean_ancillas(), 0);
    }

    #[test]
    fn two_qudit_unitaries_are_reproduced_exactly() {
        let dimension = dim(3);
        let mut rng = StdRng::seed_from_u64(11);
        let u = random_unitary(9, &mut rng);
        let synthesis = UnitarySynthesizer::new(dimension)
            .unwrap()
            .synthesize(&u, 2)
            .unwrap();
        // Width 3 (one idle ancilla qudit): the circuit unitary must equal
        // U ⊗ I on the ancilla.
        let built = circuit_unitary(synthesis.circuit()).unwrap();
        let mut expected = SquareMatrix::zeros(27);
        for r in 0..9 {
            for c in 0..9 {
                for anc in 0..3 {
                    expected[(r * 3 + anc, c * 3 + anc)] = u[(r, c)];
                }
            }
        }
        assert!(
            built.approx_eq(&expected, 1e-7),
            "distance {}",
            built.distance(&expected)
        );
    }

    #[test]
    fn three_qudit_unitary_columns_match_on_the_clean_subspace() {
        let dimension = dim(3);
        let mut rng = StdRng::seed_from_u64(19);
        let u = random_unitary(27, &mut rng);
        let synthesis = UnitarySynthesizer::new(dimension)
            .unwrap()
            .synthesize(&u, 3)
            .unwrap();
        assert_eq!(synthesis.resources().clean_ancillas(), 1);
        // Spot-check a handful of columns: |x, ancilla=0⟩ must map to
        // (U|x⟩) ⊗ |0⟩.
        for column in [0usize, 5, 13, 26] {
            let mut digits = index_to_digits(column, dimension, 3);
            digits.push(0); // clean ancilla
            let mut state = StateVector::from_basis(dimension, &digits).unwrap();
            state.apply_circuit(synthesis.circuit()).unwrap();
            for row in 0..27 {
                let mut row_digits = index_to_digits(row, dimension, 3);
                row_digits.push(0);
                let amp = state.amplitude(&row_digits);
                assert!(
                    amp.approx_eq(u[(row, column)], 1e-6),
                    "column {column}, row {row}: {amp} vs {}",
                    u[(row, column)]
                );
            }
            assert!((state.norm_sqr() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn gate_counts_follow_the_d_2n_scaling() {
        let dimension = dim(3);
        let mut rng = StdRng::seed_from_u64(29);
        let u1 = random_unitary(3, &mut rng);
        let u2 = random_unitary(9, &mut rng);
        let s1 = UnitarySynthesizer::new(dimension)
            .unwrap()
            .synthesize(&u1, 1)
            .unwrap();
        let s2 = UnitarySynthesizer::new(dimension)
            .unwrap()
            .synthesize(&u2, 2)
            .unwrap();
        // d^{2n} grows by d² = 9 from n = 1 to n = 2; allow slack for the
        // O(n) factor of the two-level route.
        assert!(s2.resources().two_qudit_gates >= s1.resources().two_qudit_gates);
        assert!(s2.two_level_factors() <= 9 * 10 / 2 + 9);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let dimension = dim(3);
        let synthesizer = UnitarySynthesizer::new(dimension).unwrap();
        // Wrong size.
        assert!(synthesizer
            .synthesize(&SquareMatrix::identity(8), 2)
            .is_err());
        // Not unitary.
        let mut bad = SquareMatrix::identity(9);
        bad[(0, 0)] = Complex::from_real(3.0);
        assert!(synthesizer.synthesize(&bad, 2).is_err());
        assert!(UnitarySynthesizer::new(dim(2)).is_err());
    }
}
