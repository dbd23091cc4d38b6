//! Fig. 1(b): the multi-controlled gate `|0^k⟩-U` for an arbitrary
//! single-qudit unitary `U`, using one clean ancilla and `O(k)` two-qudit
//! gates.
//!
//! The clean ancilla starts in `|0⟩`; a k-Toffoli flips it to `|1⟩` exactly
//! when every control is `|0⟩`, a singly-controlled `U` fires on the ancilla,
//! and a second k-Toffoli restores the ancilla to `|0⟩`.

use qudit_core::{
    AncillaKind, AncillaUsage, Circuit, Control, Dimension, Gate, QuditError, QuditId, Result,
    SingleQuditOp,
};

use crate::mct::emit_multi_controlled;
use crate::resources::Resources;

/// Register layout of a [`ControlledUnitary`] synthesis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlledUnitaryLayout {
    /// The control qudits.
    pub controls: Vec<QuditId>,
    /// The target qudit.
    pub target: QuditId,
    /// The clean ancilla qudit (must start in `|0⟩`, is returned to `|0⟩`).
    pub clean_ancilla: QuditId,
    /// Total register width.
    pub width: usize,
}

/// The result of a controlled-unitary synthesis.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlledUnitarySynthesis {
    circuit: Circuit,
    layout: ControlledUnitaryLayout,
    resources: Resources,
}

impl ControlledUnitarySynthesis {
    /// The synthesised circuit (macro-gate level).
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The register layout.
    pub fn layout(&self) -> &ControlledUnitaryLayout {
        &self.layout
    }

    /// Gate and ancilla counts.  For a non-classical `U` the elementary and
    /// G-gate counts refer to the classical part of the circuit only (the two
    /// k-Toffolis); the singly-controlled `U` is counted as one two-qudit
    /// gate, matching the cost model of the paper.
    pub fn resources(&self) -> &Resources {
        &self.resources
    }
}

/// Builder for `|0^k⟩-U` with one clean ancilla (Fig. 1b).
///
/// # Example
///
/// ```
/// # use qudit_core::{Dimension, SingleQuditOp};
/// # use qudit_synthesis::ControlledUnitary;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d = Dimension::new(3)?;
/// let synthesis = ControlledUnitary::new(d, 4, SingleQuditOp::Add(1))?.synthesize()?;
/// assert_eq!(synthesis.resources().clean_ancillas(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ControlledUnitary {
    dimension: Dimension,
    controls: usize,
    op: SingleQuditOp,
}

impl ControlledUnitary {
    /// Creates a builder for `|0^k⟩-op` on `d`-level qudits.
    ///
    /// The operation may be any single-qudit unitary (including classical
    /// permutations).
    ///
    /// # Errors
    ///
    /// Returns an error when `d < 3` or the operation is invalid for the
    /// dimension.
    pub fn new(dimension: Dimension, controls: usize, op: SingleQuditOp) -> Result<Self> {
        if dimension.get() < 3 {
            return Err(QuditError::DimensionTooSmall {
                dimension: dimension.get(),
                minimum: 3,
            });
        }
        op.validate(dimension)?;
        Ok(ControlledUnitary {
            dimension,
            controls,
            op,
        })
    }

    /// The qudit dimension.
    pub fn dimension(&self) -> Dimension {
        self.dimension
    }

    /// The number of controls `k`.
    pub fn controls(&self) -> usize {
        self.controls
    }

    /// The target operation.
    pub fn op(&self) -> &SingleQuditOp {
        &self.op
    }

    /// Synthesises the gate.
    ///
    /// The register layout is `controls (0 … k−1), target (k), clean ancilla
    /// (k+1)`.  For even dimensions the internal k-Toffolis borrow the target
    /// qudit, so no additional ancilla is required beyond the clean one.
    ///
    /// # Errors
    ///
    /// Returns an error when the construction fails (which indicates a bug;
    /// all valid parameters succeed).
    pub fn synthesize(&self) -> Result<ControlledUnitarySynthesis> {
        let k = self.controls;
        let dimension = self.dimension;
        let controls: Vec<QuditId> = (0..k).map(QuditId::new).collect();
        let target = QuditId::new(k);
        let clean = QuditId::new(k + 1);
        let width = k + 2;
        let mut circuit = Circuit::new(dimension, width);
        emit_controlled_unitary(&mut circuit, &controls, target, &self.op, clean)?;

        let ancillas = AncillaUsage::of_kind(AncillaKind::Clean, 1);
        let resources = if self.op.is_classical() {
            Resources::for_circuit(&circuit, ancillas)?
        } else {
            // The controlled-U gate itself cannot be lowered to G-gates;
            // count the classical scaffolding separately.
            let mut classical = Circuit::new(dimension, width);
            for gate in circuit.gates() {
                if gate.is_classical() {
                    classical.push(gate.clone())?;
                }
            }
            let mut resources = Resources::for_circuit(&classical, ancillas)?;
            resources.macro_gates = circuit.len();
            resources.two_qudit_gates += 1; // the |1⟩-U gate
            resources.elementary_gates += 1;
            resources
        };
        Ok(ControlledUnitarySynthesis {
            circuit,
            layout: ControlledUnitaryLayout {
                controls,
                target,
                clean_ancilla: clean,
                width,
            },
            resources,
        })
    }
}

/// Appends `|0^k⟩-op` (with `op` an arbitrary single-qudit unitary) to an
/// existing circuit, using `clean_ancilla` as the clean ancilla (Fig. 1b).
///
/// For zero or one control the gate is emitted directly and the ancilla is
/// not touched.
///
/// # Errors
///
/// Returns an error when the ancilla collides with a control or the target,
/// when the underlying Toffoli synthesis fails, or when a gate is invalid
/// for the circuit.  On an error the circuit is left unchanged.
pub fn emit_controlled_unitary(
    circuit: &mut Circuit,
    controls: &[QuditId],
    target: QuditId,
    op: &SingleQuditOp,
    clean_ancilla: QuditId,
) -> Result<()> {
    let k = controls.len();
    if k <= 1 {
        let zero_controls: Vec<Control> = controls.iter().map(|&q| Control::zero(q)).collect();
        circuit.push(Gate::new(
            qudit_core::GateOp::Single(op.clone()),
            target,
            zero_controls,
        ))?;
        return Ok(());
    }
    if controls.contains(&clean_ancilla) || clean_ancilla == target {
        return Err(QuditError::CannotLower {
            reason: "the clean ancilla must be distinct from the controls and target".to_string(),
        });
    }
    let control_levels: Vec<(QuditId, u32)> = controls.iter().map(|&q| (q, 0)).collect();
    // Built apart and appended on success, so a refusal leaves the caller's
    // circuit untouched.
    let mut emitted = Circuit::new(circuit.dimension(), circuit.width());
    // Flip the clean ancilla 0 ↔ 1 when every control is |0⟩.  For even
    // dimensions the Toffoli borrows the (currently idle) target qudit.
    let borrowed_pool = [target];
    emit_multi_controlled(
        &mut emitted,
        &control_levels,
        clean_ancilla,
        &SingleQuditOp::Swap(0, 1),
        &borrowed_pool,
    )?;
    // Apply U to the target when the ancilla is |1⟩.
    emitted.push(Gate::new(
        qudit_core::GateOp::Single(op.clone()),
        target,
        [Control::level(clean_ancilla, 1)],
    ))?;
    // Restore the ancilla.
    emit_multi_controlled(
        &mut emitted,
        &control_levels,
        clean_ancilla,
        &SingleQuditOp::Swap(0, 1),
        &borrowed_pool,
    )?;
    circuit.append(&emitted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_core::math::{Complex, SquareMatrix};

    fn dim(d: u32) -> Dimension {
        Dimension::new(d).unwrap()
    }

    fn all_states(dimension: Dimension, width: usize) -> Vec<Vec<u32>> {
        let d = dimension.as_usize();
        (0..dimension.register_size(width))
            .map(|mut index| {
                let mut digits = vec![0u32; width];
                for slot in digits.iter_mut().rev() {
                    *slot = (index % d) as u32;
                    index /= d;
                }
                digits
            })
            .collect()
    }

    #[test]
    fn classical_controlled_unitary_behaves_like_mct_with_clean_ancilla() {
        for d in [3u32, 4] {
            let dimension = dim(d);
            let k = 3;
            let synthesis = ControlledUnitary::new(dimension, k, SingleQuditOp::Add(1))
                .unwrap()
                .synthesize()
                .unwrap();
            let circuit = synthesis.circuit();
            let clean = synthesis.layout().clean_ancilla.index();
            for state in all_states(dimension, synthesis.layout().width) {
                if state[clean] != 0 {
                    continue; // outside the clean-ancilla contract
                }
                let mut expected = state.clone();
                if state[..k].iter().all(|&x| x == 0) {
                    expected[k] = (expected[k] + 1) % d;
                }
                assert_eq!(
                    circuit.apply_to_basis(&state).unwrap(),
                    expected,
                    "d={d}, {state:?}"
                );
            }
        }
    }

    #[test]
    fn ancilla_is_always_restored_to_zero() {
        let dimension = dim(3);
        let k = 2;
        let synthesis = ControlledUnitary::new(dimension, k, SingleQuditOp::Swap(0, 2))
            .unwrap()
            .synthesize()
            .unwrap();
        let circuit = synthesis.circuit();
        let clean = synthesis.layout().clean_ancilla.index();
        for state in all_states(dimension, synthesis.layout().width) {
            if state[clean] != 0 {
                continue;
            }
            let output = circuit.apply_to_basis(&state).unwrap();
            assert_eq!(output[clean], 0, "ancilla not restored for {state:?}");
        }
    }

    #[test]
    fn resources_report_one_clean_ancilla_and_linear_gate_count() {
        let dimension = dim(3);
        let mut previous = 0usize;
        for k in [2usize, 4, 8, 16] {
            let synthesis = ControlledUnitary::new(dimension, k, SingleQuditOp::Add(1))
                .unwrap()
                .synthesize()
                .unwrap();
            let resources = synthesis.resources();
            assert_eq!(resources.clean_ancillas(), 1);
            assert!(resources.g_gates > 0);
            assert!(resources.g_gates >= previous);
            // Linear in k with a constant depending only on d.
            assert!(resources.g_gates <= 6000 * k.max(1));
            previous = resources.g_gates;
        }
    }

    #[test]
    fn truly_quantum_target_operations_are_supported() {
        // A non-classical single-qutrit unitary controlled on two qudits.
        let dimension = dim(3);
        let s = 1.0 / 2.0f64.sqrt();
        let mut m = SquareMatrix::identity(3);
        m[(0, 0)] = Complex::from_real(s);
        m[(0, 1)] = Complex::from_real(s);
        m[(1, 0)] = Complex::from_real(s);
        m[(1, 1)] = Complex::from_real(-s);
        let op = SingleQuditOp::unitary(dimension, m).unwrap();
        let synthesis = ControlledUnitary::new(dimension, 2, op)
            .unwrap()
            .synthesize()
            .unwrap();
        assert_eq!(synthesis.layout().width, 4);
        assert!(!synthesis.circuit().is_classical());
        assert_eq!(synthesis.resources().clean_ancillas(), 1);
    }

    #[test]
    fn degenerate_control_counts_skip_the_ancilla() {
        let dimension = dim(3);
        let synthesis = ControlledUnitary::new(dimension, 1, SingleQuditOp::Add(2))
            .unwrap()
            .synthesize()
            .unwrap();
        assert_eq!(synthesis.circuit().len(), 1);
    }

    #[test]
    fn ancilla_collisions_are_rejected() {
        let dimension = dim(3);
        let mut circuit = Circuit::new(dimension, 3);
        let result = emit_controlled_unitary(
            &mut circuit,
            &[QuditId::new(0), QuditId::new(1)],
            QuditId::new(2),
            &SingleQuditOp::Add(1),
            QuditId::new(2),
        );
        assert!(result.is_err());
    }
}
