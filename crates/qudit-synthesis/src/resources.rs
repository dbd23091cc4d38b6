//! Resource accounting for synthesised circuits.

use std::fmt;

use qudit_core::{AncillaUsage, Circuit, Result};

use crate::lower::lower_to_elementary;

/// Gate and ancilla counts of a synthesis, at the three circuit levels used
/// by the evaluation:
///
/// * **macro gates** — the gates emitted by the constructions (at most two
///   controls each);
/// * **elementary gates** — after expanding two-controlled gates with the
///   Fig. 2 / Fig. 5 gadgets (every gate touches at most two qudits);
/// * **G-gates** — after conjugating every controlled gate to `|0⟩-X01`
///   (the paper's elementary gate set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resources {
    /// Number of qudits in the circuit, including ancillas.
    pub width: usize,
    /// Number of macro gates (each with at most two controls).
    pub macro_gates: usize,
    /// Number of elementary gates (at most one control each).
    pub elementary_gates: usize,
    /// Number of elementary gates that touch exactly two qudits.
    pub two_qudit_gates: usize,
    /// Number of G-gates after full lowering.
    pub g_gates: usize,
    /// Ancillas used by the synthesis, by kind.
    pub ancillas: AncillaUsage,
}

impl Resources {
    /// Computes the resources of a macro circuit.
    ///
    /// # Errors
    ///
    /// Returns an error when the circuit cannot be lowered (for example when
    /// it contains a general unitary gate, which has no G-gate expansion); in
    /// that case use [`Resources::for_macro_only`].
    pub fn for_circuit(circuit: &Circuit, ancillas: AncillaUsage) -> Result<Self> {
        // The two lowering stages of an `O0` compilation, run directly so
        // the elementary circuit can be counted too.
        let elementary = lower_to_elementary(circuit)?;
        let g_gates = qudit_core::lowering::lower_circuit(&elementary)?.len();
        Ok(Resources {
            width: circuit.width(),
            macro_gates: circuit.len(),
            elementary_gates: elementary.len(),
            two_qudit_gates: elementary.iter().filter(|g| g.arity() == 2).count(),
            g_gates,
            ancillas,
        })
    }

    /// Computes macro-level resources only, for circuits containing general
    /// unitary gates (which cannot be lowered to G-gates).
    pub fn for_macro_only(circuit: &Circuit, ancillas: AncillaUsage) -> Self {
        Resources {
            width: circuit.width(),
            macro_gates: circuit.len(),
            elementary_gates: 0,
            two_qudit_gates: 0,
            g_gates: 0,
            ancillas,
        }
    }

    /// Total number of ancilla qudits.
    pub fn total_ancillas(&self) -> usize {
        self.ancillas.total()
    }

    /// Number of borrowed ancillas (the headline metric of the paper).
    pub fn borrowed_ancillas(&self) -> usize {
        self.ancillas.borrowed
    }

    /// Number of clean ancillas.
    pub fn clean_ancillas(&self) -> usize {
        self.ancillas.clean
    }
}

impl fmt::Display for Resources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "width={}, macro={}, elementary={}, two-qudit={}, G-gates={}, ancillas: {}",
            self.width,
            self.macro_gates,
            self.elementary_gates,
            self.two_qudit_gates,
            self.g_gates,
            self.ancillas
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_core::{AncillaKind, Control, Dimension, Gate, QuditId, SingleQuditOp};

    #[test]
    fn resources_count_all_levels() {
        let d = Dimension::new(3).unwrap();
        let mut circuit = Circuit::new(d, 3);
        circuit
            .push(Gate::controlled(
                SingleQuditOp::Swap(0, 1),
                QuditId::new(2),
                vec![
                    Control::zero(QuditId::new(0)),
                    Control::zero(QuditId::new(1)),
                ],
            ))
            .unwrap();
        let resources =
            Resources::for_circuit(&circuit, AncillaUsage::of_kind(AncillaKind::Borrowed, 0))
                .unwrap();
        assert_eq!(resources.macro_gates, 1);
        assert_eq!(resources.elementary_gates, 5); // the Fig. 5 gadget
        assert!(resources.g_gates >= resources.elementary_gates);
        assert_eq!(resources.width, 3);
        assert_eq!(resources.borrowed_ancillas(), 0);
        assert!(resources.to_string().contains("G-gates"));
    }

    #[test]
    fn macro_only_resources_skip_lowering() {
        let d = Dimension::new(3).unwrap();
        let circuit = Circuit::new(d, 2);
        let resources =
            Resources::for_macro_only(&circuit, AncillaUsage::of_kind(AncillaKind::Clean, 1));
        assert_eq!(resources.g_gates, 0);
        assert_eq!(resources.clean_ancillas(), 1);
        assert_eq!(resources.total_ancillas(), 1);
    }
}
