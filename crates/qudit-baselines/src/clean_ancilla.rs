//! The standard linear-size multi-controlled gate synthesis with
//! `⌈(k−2)/(d−2)⌉`-style **clean** ancillas, the prior-work baseline the
//! paper compares its ancilla counts against ([5, 23] in the paper).
//!
//! The construction chains counters: each clean ancilla accumulates (mod `d`)
//! the number of non-zero qudits in its group of at most `d − 1` inputs, so
//! the ancilla is `|0⟩` exactly when the whole group is zero.  The last
//! ancilla therefore witnesses the conjunction of all controls; a single
//! controlled gate fires on it, and the counter chain is uncomputed.

use qudit_core::{
    AncillaKind, AncillaUsage, Circuit, Control, Dimension, Gate, QuditError, QuditId, Result,
    SingleQuditOp,
};
use qudit_synthesis::Resources;

/// Register layout of a [`CleanAncillaMct`] synthesis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CleanAncillaLayout {
    /// The control qudits.
    pub controls: Vec<QuditId>,
    /// The target qudit.
    pub target: QuditId,
    /// The clean ancillas (all must start in `|0⟩` and are returned to `|0⟩`).
    pub clean_ancillas: Vec<QuditId>,
    /// Total register width.
    pub width: usize,
}

/// The result of a clean-ancilla baseline synthesis.
#[derive(Debug, Clone, PartialEq)]
pub struct CleanAncillaSynthesis {
    circuit: Circuit,
    layout: CleanAncillaLayout,
    resources: Resources,
}

impl CleanAncillaSynthesis {
    /// The synthesised circuit (gates with at most one control).
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The register layout.
    pub fn layout(&self) -> &CleanAncillaLayout {
        &self.layout
    }

    /// Gate and ancilla counts.
    pub fn resources(&self) -> &Resources {
        &self.resources
    }
}

/// Builder for the clean-ancilla baseline synthesis of `|0^k⟩-op`.
///
/// # Example
///
/// ```
/// # use qudit_core::{Dimension, SingleQuditOp};
/// # use qudit_baselines::CleanAncillaMct;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d = Dimension::new(3)?;
/// let synthesis = CleanAncillaMct::new(d, 8, SingleQuditOp::Swap(0, 1))?.synthesize()?;
/// // The baseline needs Θ(k / (d−2)) clean ancillas, the paper needs at most one.
/// assert!(synthesis.resources().clean_ancillas() >= 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CleanAncillaMct {
    dimension: Dimension,
    controls: usize,
    op: SingleQuditOp,
}

/// Number of clean ancillas the baseline uses for `k` controls on `d`-level
/// qudits.
///
/// The first counter absorbs up to `d − 1` controls and every further counter
/// absorbs `d − 2` new controls (its predecessor occupies one slot), which
/// matches the `⌈(k−2)/(d−2)⌉` count quoted in the paper up to rounding.
pub fn clean_ancilla_count(dimension: Dimension, controls: usize) -> usize {
    let d = dimension.as_usize();
    if controls <= 1 {
        return 0;
    }
    if controls < d {
        return 1;
    }
    let remaining = controls - (d - 1);
    1 + remaining.div_ceil(d - 2)
}

impl CleanAncillaMct {
    /// Creates a builder for the baseline synthesis of `|0^k⟩-op`.
    ///
    /// # Errors
    ///
    /// Returns an error when `d < 3` or the operation is not classical.
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
        Ok(CleanAncillaMct {
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

    /// Synthesises the baseline circuit.
    ///
    /// The register layout is `controls (0 … k−1), target (k), clean ancillas
    /// (k+1 …)`.
    ///
    /// # Errors
    ///
    /// Returns an error when circuit construction fails (indicates a bug).
    pub fn synthesize(&self) -> Result<CleanAncillaSynthesis> {
        let dimension = self.dimension;
        let k = self.controls;
        let controls: Vec<QuditId> = (0..k).map(QuditId::new).collect();
        let target = QuditId::new(k);
        let ancilla_count = clean_ancilla_count(dimension, k);
        let clean_ancillas: Vec<QuditId> = (0..ancilla_count)
            .map(|i| QuditId::new(k + 1 + i))
            .collect();
        let width = k + 1 + ancilla_count;

        let gates = if k == 0 {
            vec![Gate::single(self.op.clone(), target)]
        } else if k == 1 {
            vec![Gate::controlled(
                self.op.clone(),
                target,
                [Control::zero(controls[0])],
            )]
        } else {
            // Compute phase: each ancilla counts the non-zero qudits of its
            // group (previous ancilla + new controls).
            let compute = self.counter_chain(&controls, &clean_ancillas);
            // The last counter is |0⟩ exactly when all controls are |0⟩.
            let witness = *clean_ancillas
                .last()
                .expect("k >= 2 implies at least one ancilla");
            let flip = Gate::controlled(self.op.clone(), target, [Control::zero(witness)]);
            // Uncompute phase: the counter chain in reverse, each gate inverted.
            let uncompute = compute.iter().rev().map(|g| g.inverse(dimension));
            compute
                .iter()
                .cloned()
                .chain(std::iter::once(flip))
                .chain(uncompute)
                .collect()
        };
        let circuit = Circuit::from_gates(dimension, width, gates)?;

        let ancillas = AncillaUsage::of_kind(AncillaKind::Clean, ancilla_count);
        let resources = Resources::for_circuit(&circuit, ancillas)?;
        Ok(CleanAncillaSynthesis {
            circuit,
            layout: CleanAncillaLayout {
                controls,
                target,
                clean_ancillas,
                width,
            },
            resources,
        })
    }

    /// Builds the counter chain: gates that make each ancilla count the
    /// non-zero qudits in its group.
    fn counter_chain(&self, controls: &[QuditId], ancillas: &[QuditId]) -> Vec<Gate> {
        let d = self.dimension.as_usize();
        let mut gates = Vec::new();
        let mut group_inputs: Vec<QuditId> = Vec::new();
        let mut next_control = 0usize;
        for (index, &ancilla) in ancillas.iter().enumerate() {
            group_inputs.clear();
            if index > 0 {
                group_inputs.push(ancillas[index - 1]);
            }
            let capacity = if index == 0 { d - 1 } else { d - 2 };
            for _ in 0..capacity {
                if next_control < controls.len() {
                    group_inputs.push(controls[next_control]);
                    next_control += 1;
                }
            }
            for &input in &group_inputs {
                gates.push(Gate::controlled(
                    SingleQuditOp::Add(1),
                    ancilla,
                    [Control::nonzero(input)],
                ));
            }
        }
        debug_assert_eq!(
            next_control,
            controls.len(),
            "every control must be counted"
        );
        gates
    }
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
    fn ancilla_count_formula() {
        let d3 = dim(3);
        assert_eq!(clean_ancilla_count(d3, 0), 0);
        assert_eq!(clean_ancilla_count(d3, 1), 0);
        assert_eq!(clean_ancilla_count(d3, 2), 1);
        assert_eq!(clean_ancilla_count(d3, 3), 2);
        assert_eq!(clean_ancilla_count(d3, 8), 7);
        let d5 = dim(5);
        assert_eq!(clean_ancilla_count(d5, 4), 1);
        assert_eq!(clean_ancilla_count(d5, 10), 3);
    }

    #[test]
    fn baseline_is_functionally_correct_with_clean_ancillas() {
        for d in [3u32, 4, 5] {
            let dimension = dim(d);
            let k = 3;
            let synthesis = CleanAncillaMct::new(dimension, k, SingleQuditOp::Swap(0, 1))
                .unwrap()
                .synthesize()
                .unwrap();
            let circuit = synthesis.circuit();
            let layout = synthesis.layout();
            for state in all_states(dimension, layout.width) {
                // The clean-ancilla contract: ancillas start in |0⟩.
                if layout.clean_ancillas.iter().any(|a| state[a.index()] != 0) {
                    continue;
                }
                let mut expected = state.clone();
                if state[..k].iter().all(|&x| x == 0) {
                    expected[k] = match expected[k] {
                        0 => 1,
                        1 => 0,
                        other => other,
                    };
                }
                let actual = circuit.apply_to_basis(&state).unwrap();
                assert_eq!(actual, expected, "d={d}, input {state:?}");
                for a in &layout.clean_ancillas {
                    assert_eq!(actual[a.index()], 0, "ancilla {a} not restored");
                }
            }
        }
    }

    #[test]
    fn two_qudit_gate_count_is_linear() {
        let dimension = dim(3);
        let mut previous = 0;
        for k in [2usize, 4, 8, 16, 32] {
            let synthesis = CleanAncillaMct::new(dimension, k, SingleQuditOp::Swap(0, 1))
                .unwrap()
                .synthesize()
                .unwrap();
            let count = synthesis.circuit().len();
            assert_eq!(count, 2 * (k + clean_ancilla_count(dimension, k) - 1) + 1);
            assert!(count > previous);
            previous = count;
        }
    }

    #[test]
    fn degenerate_cases() {
        let dimension = dim(3);
        for k in [0usize, 1] {
            let synthesis = CleanAncillaMct::new(dimension, k, SingleQuditOp::Add(1))
                .unwrap()
                .synthesize()
                .unwrap();
            assert_eq!(synthesis.resources().clean_ancillas(), 0);
            assert_eq!(synthesis.circuit().len(), 1);
        }
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(CleanAncillaMct::new(dim(2), 3, SingleQuditOp::Swap(0, 1)).is_err());
    }
}
