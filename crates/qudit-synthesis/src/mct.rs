//! Public entry points for multi-controlled gate synthesis.
//!
//! * [`KToffoli`] — the k-controlled Toffoli gate `|0^k⟩-X01`
//!   (Theorems III.2 and III.6).
//! * [`MultiControlledGate`] — `|0^k⟩-P` for an arbitrary classical level
//!   permutation `P`.
//! * [`emit_multi_controlled`] — in-place emission onto an existing circuit,
//!   with arbitrary control levels; used by the unitary-synthesis and
//!   reversible-function crates.

use qudit_core::pipeline::PassManager;
use qudit_core::{
    AncillaKind, AncillaUsage, Circuit, Dimension, Gate, QuditError, QuditId, Result, SingleQuditOp,
};

use crate::compiler::{CompileOptions, CompileResult, OptLevel};
use crate::mct_even::mct_even_gates;
use crate::mct_odd::mct_odd_gates;
use crate::pipeline::LowerToElementary;
use crate::resources::Resources;

/// Where each logical role of a multi-controlled gate lives in the
/// synthesised circuit's register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MctLayout {
    /// The control qudits, in order.
    pub controls: Vec<QuditId>,
    /// The target qudit.
    pub target: QuditId,
    /// The borrowed ancilla (present exactly when `d` is even and `k ≥ 2`).
    pub borrowed_ancilla: Option<QuditId>,
    /// Total register width.
    pub width: usize,
}

/// The result of a multi-controlled gate synthesis: the macro circuit, the
/// register layout and the resource counts.
#[derive(Debug, Clone, PartialEq)]
pub struct MctSynthesis {
    circuit: Circuit,
    layout: MctLayout,
    resources: Resources,
}

impl MctSynthesis {
    /// The synthesised circuit at the macro-gate level (gates with at most
    /// two controls).
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The register layout of the synthesis.
    pub fn layout(&self) -> &MctLayout {
        &self.layout
    }

    /// Gate and ancilla counts.
    pub fn resources(&self) -> &Resources {
        &self.resources
    }

    /// The circuit lowered to elementary (at most singly-controlled) gates.
    ///
    /// # Errors
    ///
    /// Propagates lowering errors (they cannot occur for circuits produced by
    /// this crate's constructions).
    pub fn elementary_circuit(&self) -> Result<Circuit> {
        PassManager::new()
            .with_pass(LowerToElementary)
            .run_circuit(self.circuit.clone())
    }

    /// The circuit lowered to the G-gate set `{Xij} ∪ {|0⟩-X01}` (the
    /// [`OptLevel::O0`] lowering stages, without cancellation — the level
    /// the paper's gate counts are reported at).
    ///
    /// # Errors
    ///
    /// Propagates lowering errors (they cannot occur for circuits produced by
    /// this crate's constructions).
    pub fn g_gate_circuit(&self) -> Result<Circuit> {
        let compiler = CompileOptions::new().opt_level(OptLevel::O0).compiler();
        compiler.compile(&self.circuit).map(|result| result.circuit)
    }

    /// Runs the standard flow (lowering plus inverse-pair cancellation) on
    /// the synthesised circuit through the [`crate::compiler::Compiler`]
    /// facade, returning the unified [`CompileResult`] (optimised G-gate
    /// circuit, per-pass statistics, depth).
    ///
    /// # Errors
    ///
    /// Propagates pipeline errors (they cannot occur for circuits produced
    /// by this crate's constructions).
    pub fn compile(&self) -> Result<CompileResult> {
        let compiler = CompileOptions::new().compiler();
        compiler.compile(&self.circuit)
    }
}

/// Builder for the k-controlled Toffoli gate `|0^k⟩-X01`.
///
/// # Example
///
/// ```
/// # use qudit_core::Dimension;
/// # use qudit_synthesis::KToffoli;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Odd dimension: ancilla-free (Theorem III.6).
/// let odd = KToffoli::new(Dimension::new(3)?, 5)?.synthesize()?;
/// assert_eq!(odd.resources().borrowed_ancillas(), 0);
///
/// // Even dimension: exactly one borrowed ancilla (Theorem III.2).
/// let even = KToffoli::new(Dimension::new(4)?, 5)?.synthesize()?;
/// assert_eq!(even.resources().borrowed_ancillas(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KToffoli {
    dimension: Dimension,
    controls: usize,
}

impl KToffoli {
    /// Creates a builder for the `k`-controlled Toffoli on `d`-level qudits.
    ///
    /// # Errors
    ///
    /// Returns an error when `d < 3`.
    pub fn new(dimension: Dimension, controls: usize) -> Result<Self> {
        if dimension.get() < 3 {
            return Err(QuditError::DimensionTooSmall {
                dimension: dimension.get(),
                minimum: 3,
            });
        }
        Ok(KToffoli {
            dimension,
            controls,
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

    /// Synthesises the gate.
    ///
    /// # Errors
    ///
    /// Returns an error when the construction fails (which indicates a bug;
    /// all valid parameters succeed).
    pub fn synthesize(&self) -> Result<MctSynthesis> {
        MultiControlledGate::new(self.dimension, self.controls, SingleQuditOp::Swap(0, 1))?
            .synthesize()
    }
}

/// Builder for `|0^k⟩-P` where `P` is an arbitrary classical level
/// permutation of the target qudit.
///
/// Non-involutive operations are decomposed into transpositions, each
/// synthesised as a multi-controlled swap; the borrowed-ancilla count is
/// unchanged (0 for odd `d`, 1 for even `d`).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiControlledGate {
    dimension: Dimension,
    controls: usize,
    op: SingleQuditOp,
}

impl MultiControlledGate {
    /// Creates a builder for `|0^k⟩-op` on `d`-level qudits.
    ///
    /// # Errors
    ///
    /// Returns an error when `d < 3`, the operation is invalid for the
    /// dimension, or the operation is not classical (use
    /// [`crate::ControlledUnitary`] for general unitaries).
    pub fn new(dimension: Dimension, controls: usize, op: SingleQuditOp) -> Result<Self> {
        if dimension.get() < 3 {
            return Err(QuditError::DimensionTooSmall {
                dimension: dimension.get(),
                minimum: 3,
            });
        }
        op.validate(dimension)?;
        if !op.is_classical() {
            return Err(QuditError::NotClassicalTarget);
        }
        Ok(MultiControlledGate {
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
    /// The register layout is `controls, target[, borrowed ancilla]` with the
    /// controls on qudits `0 … k−1`, the target on qudit `k`, and (for even
    /// `d`) the borrowed ancilla on qudit `k+1`.
    ///
    /// # Errors
    ///
    /// Returns an error when the construction fails (which indicates a bug;
    /// all valid parameters succeed).
    pub fn synthesize(&self) -> Result<MctSynthesis> {
        let k = self.controls;
        let dimension = self.dimension;
        let controls: Vec<QuditId> = (0..k).map(QuditId::new).collect();
        let target = QuditId::new(k);
        // Even dimensions need one borrowed ancilla as soon as the gate has
        // two or more controls (the parity argument after Theorem III.2).
        let needs_borrowed = dimension.is_even() && k >= 2;
        let borrowed = if needs_borrowed {
            Some(QuditId::new(k + 1))
        } else {
            None
        };
        let width = k + 1 + usize::from(needs_borrowed);

        let mut circuit = Circuit::new(dimension, width);
        let pool: Vec<QuditId> = borrowed.into_iter().collect();
        let control_levels: Vec<(QuditId, u32)> = controls.iter().map(|&q| (q, 0)).collect();
        emit_multi_controlled(&mut circuit, &control_levels, target, &self.op, &pool)?;

        let ancillas = if needs_borrowed {
            AncillaUsage::of_kind(AncillaKind::Borrowed, 1)
        } else {
            AncillaUsage::none()
        };
        let resources = Resources::for_circuit(&circuit, ancillas)?;
        Ok(MctSynthesis {
            circuit,
            layout: MctLayout {
                controls,
                target,
                borrowed_ancilla: borrowed,
                width,
            },
            resources,
        })
    }
}

/// Appends a multi-controlled classical gate to an existing circuit.
///
/// * `controls` — control qudits with their control levels (a control fires
///   when its qudit is in the given level; the paper's `|0^k⟩` controls use
///   level 0 everywhere).
/// * `target` — the target qudit.
/// * `op` — a classical level permutation applied to the target when every
///   control fires.
/// * `borrowed_pool` — candidate borrowed ancilla qudits.  For odd `d` the
///   pool may be empty (the construction is ancilla-free); for even `d` at
///   least one qudit distinct from the controls and target must be supplied.
///
/// # Errors
///
/// Returns an error when `d < 3`, the operation is not classical, an even
/// dimension has no usable borrowed qudit, or a gate is invalid for the
/// circuit.  On an error the circuit is left unchanged.
pub fn emit_multi_controlled(
    circuit: &mut Circuit,
    controls: &[(QuditId, u32)],
    target: QuditId,
    op: &SingleQuditOp,
    borrowed_pool: &[QuditId],
) -> Result<()> {
    let dimension = circuit.dimension();
    if dimension.get() < 3 {
        return Err(QuditError::DimensionTooSmall {
            dimension: dimension.get(),
            minimum: 3,
        });
    }
    if !op.is_classical() {
        return Err(QuditError::NotClassicalTarget);
    }
    let control_qudits: Vec<QuditId> = controls.iter().map(|(q, _)| *q).collect();
    // The emission builds here and reaches the caller's circuit only once
    // every gate is in, so a refusal leaves that circuit untouched.
    let mut emitted = Circuit::new(dimension, circuit.width());

    // Conjugate every control level to 0.
    let mut conjugation = Vec::new();
    for &(qudit, level) in controls {
        dimension.check_level(level)?;
        if level != 0 {
            conjugation.push(Gate::single(SingleQuditOp::Swap(0, level), qudit));
        }
    }
    for gate in &conjugation {
        emitted.push(gate.clone())?;
    }

    // With zero or one control no ancilla is ever needed: emit the
    // (controlled) operation directly regardless of the dimension's parity.
    if control_qudits.len() < 2 {
        let zero_controls: Vec<qudit_core::Control> = control_qudits
            .iter()
            .map(|&q| qudit_core::Control::zero(q))
            .collect();
        emitted.push(Gate::new(
            qudit_core::GateOp::Single(op.clone()),
            target,
            zero_controls,
        ))?;
    } else {
        // Decompose the operation into transpositions; each becomes a
        // multi-controlled swap.
        let transpositions = op.transpositions(dimension)?;
        for (i, j) in transpositions {
            let gates = if dimension.is_odd() {
                mct_odd_gates(dimension, &control_qudits, target, i, j)?
            } else {
                let borrowed = borrowed_pool
                    .iter()
                    .copied()
                    .find(|q| !control_qudits.contains(q) && *q != target)
                    .ok_or(QuditError::BorrowedAncillaRequired {
                        dimension: dimension.get(),
                    })?;
                mct_even_gates(dimension, &control_qudits, target, i, j, borrowed)?
            };
            for gate in gates {
                emitted.push(gate)?;
            }
        }
    }

    // Undo the control conjugation.
    for gate in conjugation.iter().rev() {
        emitted.push(gate.clone())?;
    }
    circuit.append(&emitted)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn toffoli_layout_and_ancillas_match_the_theorems() {
        let odd = KToffoli::new(dim(3), 4).unwrap().synthesize().unwrap();
        assert_eq!(odd.layout().width, 5);
        assert_eq!(odd.layout().borrowed_ancilla, None);
        assert_eq!(odd.resources().borrowed_ancillas(), 0);

        let even = KToffoli::new(dim(4), 4).unwrap().synthesize().unwrap();
        assert_eq!(even.layout().width, 6);
        assert_eq!(even.layout().borrowed_ancilla, Some(QuditId::new(5)));
        assert_eq!(even.resources().borrowed_ancillas(), 1);
    }

    #[test]
    fn synthesized_toffoli_is_functionally_correct() {
        for d in [3u32, 4] {
            let dimension = dim(d);
            let synthesis = KToffoli::new(dimension, 3).unwrap().synthesize().unwrap();
            let circuit = synthesis.g_gate_circuit().unwrap();
            assert!(circuit.gates().iter().all(Gate::is_g_gate));
            let k = 3;
            for state in all_states(dimension, synthesis.layout().width) {
                let mut expected = state.clone();
                if state[..k].iter().all(|&x| x == 0) {
                    expected[k] = match expected[k] {
                        0 => 1,
                        1 => 0,
                        other => other,
                    };
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
    fn multi_controlled_add_is_correct() {
        let dimension = dim(3);
        let synthesis = MultiControlledGate::new(dimension, 2, SingleQuditOp::Add(1))
            .unwrap()
            .synthesize()
            .unwrap();
        let circuit = synthesis.circuit();
        for state in all_states(dimension, synthesis.layout().width) {
            let mut expected = state.clone();
            if state[0] == 0 && state[1] == 0 {
                expected[2] = (expected[2] + 1) % 3;
            }
            assert_eq!(circuit.apply_to_basis(&state).unwrap(), expected);
        }
    }

    #[test]
    fn emit_with_nonzero_control_levels() {
        let dimension = dim(3);
        let mut circuit = Circuit::new(dimension, 3);
        emit_multi_controlled(
            &mut circuit,
            &[(QuditId::new(0), 1), (QuditId::new(1), 2)],
            QuditId::new(2),
            &SingleQuditOp::Swap(0, 1),
            &[],
        )
        .unwrap();
        for state in all_states(dimension, 3) {
            let mut expected = state.clone();
            if state[0] == 1 && state[1] == 2 {
                expected[2] = match expected[2] {
                    0 => 1,
                    1 => 0,
                    other => other,
                };
            }
            assert_eq!(circuit.apply_to_basis(&state).unwrap(), expected);
        }
    }

    #[test]
    fn even_dimension_without_pool_is_rejected() {
        let dimension = dim(4);
        let mut circuit = Circuit::new(dimension, 3);
        let result = emit_multi_controlled(
            &mut circuit,
            &[(QuditId::new(0), 0), (QuditId::new(1), 0)],
            QuditId::new(2),
            &SingleQuditOp::Swap(0, 1),
            &[],
        );
        assert!(matches!(
            result,
            Err(QuditError::BorrowedAncillaRequired { .. })
        ));
    }

    #[test]
    fn refused_emissions_leave_the_circuit_untouched() {
        let q = QuditId::new;
        // d = 4: the control-level conjugation comes before the missing
        // borrowed wire is noticed.
        let mut circuit = Circuit::new(dim(4), 3);
        circuit
            .push(Gate::single(SingleQuditOp::Add(1), q(0)))
            .unwrap();
        let result = emit_multi_controlled(
            &mut circuit,
            &[(q(0), 2), (q(1), 3)],
            q(2),
            &SingleQuditOp::Swap(0, 1),
            &[],
        );
        assert!(matches!(
            result,
            Err(QuditError::BorrowedAncillaRequired { .. })
        ));
        assert_eq!(circuit.len(), 1);
        // d = 3: the ancilla flip is emitted before the out-of-range target
        // operation is refused.
        let mut circuit = Circuit::new(dim(3), 4);
        circuit
            .push(Gate::single(SingleQuditOp::Add(1), q(0)))
            .unwrap();
        let result = crate::controlled_unitary::emit_controlled_unitary(
            &mut circuit,
            &[q(0), q(1)],
            q(2),
            &SingleQuditOp::Swap(0, 5),
            q(3),
        );
        assert!(matches!(
            result,
            Err(QuditError::LevelOutOfRange { level: 5, .. })
        ));
        assert_eq!(circuit.len(), 1);
    }

    #[test]
    fn non_classical_targets_are_rejected() {
        let dimension = dim(3);
        let matrix = qudit_sim_free_unitary();
        let result = MultiControlledGate::new(dimension, 2, SingleQuditOp::Unitary(matrix));
        assert!(matches!(result, Err(QuditError::NotClassicalTarget)));
    }

    /// A small non-permutation unitary used by the rejection test.
    fn qudit_sim_free_unitary() -> qudit_core::math::SquareMatrix {
        use qudit_core::math::{Complex, SquareMatrix};
        let s = 1.0 / 2.0f64.sqrt();
        let mut m = SquareMatrix::identity(3);
        m[(0, 0)] = Complex::from_real(s);
        m[(0, 1)] = Complex::from_real(s);
        m[(1, 0)] = Complex::from_real(s);
        m[(1, 1)] = Complex::from_real(-s);
        m
    }

    #[test]
    fn dimension_two_is_rejected() {
        assert!(KToffoli::new(dim(2), 3).is_err());
        assert!(MultiControlledGate::new(dim(2), 3, SingleQuditOp::Swap(0, 1)).is_err());
    }

    #[test]
    fn zero_and_one_control_degenerate_cases() {
        for d in [3u32, 4] {
            for k in [0usize, 1] {
                let synthesis = KToffoli::new(dim(d), k).unwrap().synthesize().unwrap();
                let circuit = synthesis.circuit();
                for state in all_states(dim(d), synthesis.layout().width) {
                    let mut expected = state.clone();
                    if state[..k].iter().all(|&x| x == 0) {
                        expected[k] = match expected[k] {
                            0 => 1,
                            1 => 0,
                            other => other,
                        };
                    }
                    assert_eq!(circuit.apply_to_basis(&state).unwrap(), expected);
                }
            }
        }
    }
}
