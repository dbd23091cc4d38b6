//! The macro-gate lowering pass.
//!
//! The paper compiles a multi-controlled gate in stages: synthesis emits a
//! *macro circuit* (gates with at most two controls), which is lowered to
//! *elementary gates* (at most one control) with the Fig. 2 / Fig. 5
//! gadgets, then to the *G-gate set* `{Xij} ∪ {|0⟩-X01}`, and finally
//! cleaned up by inverse-pair cancellation.  This module packages those
//! stages as [`qudit_core::pipeline::Pass`]es:
//!
//! ```text
//!   macro circuit ──lower-to-elementary──▶ elementary ──lower-to-g-gates──▶
//!   G-gates ──cancel-inverse-pairs──▶ optimised G-gates
//! ```
//!
//! [`LowerToElementary`] wraps [`crate::lower::lower_to_elementary`] and is
//! registered as the `lower-to-elementary` stage of
//! [`crate::compiler::registry`].  Pipelines are assembled by the
//! [`CompileOptions`](crate::CompileOptions) builder: the default options
//! run the whole flow, and [`OptLevel::O0`](crate::OptLevel) stops before
//! the cancellation (the configuration the paper's G-gate counts are
//! reported in).

use qudit_core::pipeline::{GateWalk, Pass};
use qudit_core::{Circuit, Gate, QuditError};

use crate::lower::{self, ElementaryWalk};

/// The error `lower-to-elementary` reports for `error`: the macro-gate
/// walk's own refusals (and the gadget refusals it hits) name the pass, while
/// errors of the circuit substrate (level decomposition, circuit assembly)
/// pass through as they are.
fn pass_error(error: QuditError) -> QuditError {
    match error {
        QuditError::DimensionTooSmall { .. }
        | QuditError::BorrowedAncillaRequired { .. }
        | QuditError::NotClassicalTarget
        | QuditError::CannotLower { .. } => QuditError::PassFailed {
            pass: LowerToElementary.name().to_string(),
            reason: error.to_string(),
        },
        other => other,
    }
}

/// Pass lowering macro gates (two controls, value-controlled shifts) to
/// elementary gates with at most one control
/// (wraps [`crate::lower::lower_to_elementary`]).
///
/// Like `LowerToGGates`, the pass is one sequential walk over the gates that
/// emits straight into its output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LowerToElementary;

impl Pass for LowerToElementary {
    fn name(&self) -> &str {
        "lower-to-elementary"
    }

    fn run(&self, circuit: Circuit) -> qudit_core::Result<Circuit> {
        lower::lower_to_elementary(&circuit).map_err(pass_error)
    }

    fn gate_walk(&self, circuit: &Circuit) -> Option<Box<dyn GateWalk>> {
        Some(Box::new(ElementaryWalk::new(
            circuit.dimension(),
            circuit.width(),
        )))
    }
}

impl GateWalk for ElementaryWalk {
    fn emit(&mut self, gate: &Gate, out: &mut Vec<Gate>) -> qudit_core::Result<()> {
        self.expand(gate, out).map_err(pass_error)
    }

    fn count(&mut self, gate: &Gate) -> usize {
        ElementaryWalk::count(self, gate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompileOptions, KToffoli, OptLevel};
    use qudit_core::{Control, Dimension, Gate, QuditId, SingleQuditOp};

    fn dim(d: u32) -> Dimension {
        Dimension::new(d).unwrap()
    }

    #[test]
    fn standard_pipeline_reproduces_the_manual_chain() {
        for d in [3u32, 4] {
            let synthesis = KToffoli::new(dim(d), 3).unwrap().synthesize().unwrap();
            let macro_circuit = synthesis.circuit().clone();

            // The default flow opens with macro-level gate fusion, so the
            // manual chain starts from the fused circuit.
            let fused = qudit_core::fusion::fuse_circuit(macro_circuit.clone()).unwrap();
            let elementary = lower::lower_to_elementary(&fused).unwrap();
            let manual = qudit_core::optimize::cancel_inverse_pairs(
                qudit_core::lowering::lower_circuit(&elementary).unwrap(),
            );
            let report = CompileOptions::new()
                .build_manager()
                .run(macro_circuit)
                .unwrap();
            assert_eq!(report.circuit, manual, "d={d}");
            assert_eq!(report.stats.len(), 4);
        }
    }

    #[test]
    fn lowering_pipeline_matches_reported_g_gate_counts() {
        let synthesis = KToffoli::new(dim(3), 4).unwrap().synthesize().unwrap();
        let report = CompileOptions::new()
            .opt_level(OptLevel::O0)
            .build_manager()
            .run(synthesis.circuit().clone())
            .unwrap();
        assert_eq!(report.circuit.len(), synthesis.resources().g_gates);
        assert!(report.circuit.gates().iter().all(Gate::is_g_gate));
    }

    #[test]
    fn synthesis_errors_surface_as_pass_errors() {
        // A three-controlled gate cannot be lowered directly.
        let mut circuit = Circuit::new(dim(3), 4);
        circuit
            .push(Gate::controlled(
                SingleQuditOp::Swap(0, 1),
                QuditId::new(3),
                vec![
                    Control::zero(QuditId::new(0)),
                    Control::zero(QuditId::new(1)),
                    Control::zero(QuditId::new(2)),
                ],
            ))
            .unwrap();
        let result = CompileOptions::new().build_manager().run(circuit);
        assert!(matches!(result, Err(QuditError::PassFailed { .. })));
    }
}
