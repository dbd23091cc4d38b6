//! Theorem IV.2 / Fig. 11: compiling classical reversible functions to qudit
//! circuits.
//!
//! The function is decomposed into 2-cycles; each 2-cycle `(a, b)` is
//! implemented by the three-step circuit of Fig. 11:
//!
//! 1. singly-controlled `Xij` gates (controlled on the distinguished qudit
//!    being in `|b_p⟩`) map `|b⟩` to a state that differs from `|a⟩` only at
//!    the distinguished position;
//! 2. a multi-controlled `X_{a_p b_p}` (controls at levels `a_i`) swaps the
//!    two remaining states, synthesised with the paper's k-Toffoli
//!    construction — ancilla-free for odd `d`, one borrowed ancilla for even
//!    `d`;
//! 3. step 1 is repeated to undo the relabelling.

use qudit_core::{
    AncillaKind, AncillaUsage, Circuit, Control, Dimension, Gate, QuditError, QuditId, Result,
    SingleQuditOp,
};
use qudit_synthesis::{emit_multi_controlled, Resources};

use crate::function::ReversibleFunction;

/// Register layout of a reversible-function synthesis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReversibleLayout {
    /// The function's variables, one qudit each.
    pub variables: Vec<QuditId>,
    /// The borrowed ancilla (present exactly when `d` is even and `n ≥ 3`).
    pub borrowed_ancilla: Option<QuditId>,
    /// Total register width.
    pub width: usize,
}

/// The result of compiling a reversible function.
#[derive(Debug, Clone, PartialEq)]
pub struct ReversibleSynthesis {
    circuit: Circuit,
    layout: ReversibleLayout,
    resources: Resources,
    two_cycles: usize,
}

impl ReversibleSynthesis {
    /// The synthesised circuit (macro-gate level).
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The register layout.
    pub fn layout(&self) -> &ReversibleLayout {
        &self.layout
    }

    /// Gate and ancilla counts.
    pub fn resources(&self) -> &Resources {
        &self.resources
    }

    /// Number of 2-cycles the function decomposed into.
    pub fn two_cycles(&self) -> usize {
        self.two_cycles
    }
}

/// Compiler from [`ReversibleFunction`]s to qudit circuits (Theorem IV.2).
///
/// # Example
///
/// ```
/// # use qudit_core::Dimension;
/// # use qudit_reversible::{ReversibleFunction, ReversibleSynthesizer};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d = Dimension::new(3)?;
/// let f = ReversibleFunction::two_cycle(d, 2, &[0, 1], &[2, 2])?;
/// let synthesis = ReversibleSynthesizer::new(d)?.synthesize(&f)?;
/// // Odd d: ancilla-free (Theorem IV.2).
/// assert_eq!(synthesis.resources().total_ancillas(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReversibleSynthesizer {
    dimension: Dimension,
}

impl ReversibleSynthesizer {
    /// Creates a compiler for `d`-level qudits.
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
        Ok(ReversibleSynthesizer { dimension })
    }

    /// The qudit dimension.
    pub fn dimension(&self) -> Dimension {
        self.dimension
    }

    /// Compiles a reversible function into a circuit.
    ///
    /// The register layout is one qudit per variable, plus (for even `d` and
    /// `n ≥ 3`) one borrowed ancilla as the last qudit.
    ///
    /// # Errors
    ///
    /// Returns an error when the function's dimension does not match the
    /// compiler's, or when circuit construction fails.
    pub fn synthesize(&self, function: &ReversibleFunction) -> Result<ReversibleSynthesis> {
        if function.dimension() != self.dimension {
            return Err(QuditError::CannotLower {
                reason: format!(
                    "function dimension {} does not match synthesiser dimension {}",
                    function.dimension(),
                    self.dimension
                ),
            });
        }
        let dimension = self.dimension;
        let n = function.variables();
        // For even d a borrowed ancilla is needed as soon as the
        // multi-controlled step has two or more controls, i.e. n ≥ 3.
        let needs_borrowed = dimension.is_even() && n >= 3;
        let width = n + usize::from(needs_borrowed);
        let variables: Vec<QuditId> = (0..n).map(QuditId::new).collect();
        let borrowed = if needs_borrowed {
            Some(QuditId::new(n))
        } else {
            None
        };
        let borrowed_pool: Vec<QuditId> = borrowed.into_iter().collect();

        let mut circuit = Circuit::new(dimension, width);
        let cycles = function.two_cycles();
        for (a, b) in &cycles {
            self.emit_two_cycle(&mut circuit, &variables, a, b, &borrowed_pool)?;
        }

        let ancillas = if needs_borrowed {
            AncillaUsage::of_kind(AncillaKind::Borrowed, 1)
        } else {
            AncillaUsage::none()
        };
        let resources = Resources::for_circuit(&circuit, ancillas)?;
        Ok(ReversibleSynthesis {
            circuit,
            layout: ReversibleLayout {
                variables,
                borrowed_ancilla: borrowed,
                width,
            },
            resources,
            two_cycles: cycles.len(),
        })
    }

    /// Emits the Fig. 11 circuit for the 2-cycle `(a, b)`.
    fn emit_two_cycle(
        &self,
        circuit: &mut Circuit,
        variables: &[QuditId],
        a: &[u32],
        b: &[u32],
        borrowed_pool: &[QuditId],
    ) -> Result<()> {
        let n = variables.len();
        // The distinguished position p where a and b differ (the paper takes
        // p = n w.l.o.g.; we take the last differing position).
        let p = (0..n)
            .rev()
            .find(|&i| a[i] != b[i])
            .expect("two-cycles exchange distinct states");

        // Step 1: |b_p⟩-controlled relabelling of every other position.
        let step1: Vec<Gate> = (0..n)
            .filter(|&i| i != p && a[i] != b[i])
            .map(|i| {
                Gate::controlled(
                    SingleQuditOp::Swap(a[i], b[i]),
                    variables[i],
                    [Control::level(variables[p], b[p])],
                )
            })
            .collect();
        for gate in &step1 {
            circuit.push(gate.clone())?;
        }

        // Step 2: multi-controlled X_{a_p b_p} on position p, controlled on
        // every other position being in |a_i⟩.
        let controls: Vec<(QuditId, u32)> = (0..n)
            .filter(|&i| i != p)
            .map(|i| (variables[i], a[i]))
            .collect();
        emit_multi_controlled(
            circuit,
            &controls,
            variables[p],
            &SingleQuditOp::Swap(a[p], b[p]),
            borrowed_pool,
        )?;

        // Step 3: undo the relabelling.
        for gate in &step1 {
            circuit.push(gate.clone())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    /// Checks that the compiled circuit implements the function on the
    /// variable qudits and restores the borrowed ancilla (if any).
    fn check_synthesis(function: &ReversibleFunction, synthesis: &ReversibleSynthesis) {
        let circuit = synthesis.circuit();
        let n = function.variables();
        for state in all_states(function.dimension(), synthesis.layout().width) {
            let expected_vars = function.apply(&state[..n]).unwrap();
            let actual = circuit.apply_to_basis(&state).unwrap();
            assert_eq!(&actual[..n], expected_vars.as_slice(), "input {state:?}");
            for extra in n..synthesis.layout().width {
                assert_eq!(
                    actual[extra], state[extra],
                    "borrowed ancilla changed for {state:?}"
                );
            }
        }
    }

    #[test]
    fn single_two_cycle_matches_fig_11() {
        let d = dim(3);
        let f = ReversibleFunction::two_cycle(d, 3, &[0, 1, 2], &[2, 1, 0]).unwrap();
        let synthesis = ReversibleSynthesizer::new(d)
            .unwrap()
            .synthesize(&f)
            .unwrap();
        check_synthesis(&f, &synthesis);
        assert_eq!(synthesis.two_cycles(), 1);
        assert_eq!(synthesis.resources().total_ancillas(), 0);
    }

    #[test]
    fn random_functions_compile_correctly_for_odd_d() {
        let d = dim(3);
        let mut rng = StdRng::seed_from_u64(23);
        for n in [1usize, 2, 3] {
            let f = ReversibleFunction::random(d, n, &mut rng);
            let synthesis = ReversibleSynthesizer::new(d)
                .unwrap()
                .synthesize(&f)
                .unwrap();
            check_synthesis(&f, &synthesis);
            assert_eq!(
                synthesis.resources().total_ancillas(),
                0,
                "odd d must be ancilla-free"
            );
        }
    }

    #[test]
    fn random_functions_compile_correctly_for_even_d() {
        let d = dim(4);
        let mut rng = StdRng::seed_from_u64(29);
        for n in [2usize, 3] {
            let f = ReversibleFunction::random(d, n, &mut rng);
            let synthesis = ReversibleSynthesizer::new(d)
                .unwrap()
                .synthesize(&f)
                .unwrap();
            check_synthesis(&f, &synthesis);
            let expected_ancillas = usize::from(n >= 3);
            assert_eq!(synthesis.resources().borrowed_ancillas(), expected_ancillas);
        }
    }

    #[test]
    fn identity_compiles_to_the_empty_circuit() {
        let d = dim(5);
        let f = ReversibleFunction::identity(d, 3);
        let synthesis = ReversibleSynthesizer::new(d)
            .unwrap()
            .synthesize(&f)
            .unwrap();
        assert!(synthesis.circuit().is_empty());
        assert_eq!(synthesis.two_cycles(), 0);
    }

    #[test]
    fn two_cycles_differing_in_one_position_are_handled() {
        // a and b differ only in the middle position: the distinguished
        // position is that one and step 1 is empty.
        let d = dim(3);
        let f = ReversibleFunction::two_cycle(d, 3, &[1, 0, 2], &[1, 2, 2]).unwrap();
        let synthesis = ReversibleSynthesizer::new(d)
            .unwrap()
            .synthesize(&f)
            .unwrap();
        check_synthesis(&f, &synthesis);
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let f = ReversibleFunction::identity(dim(3), 2);
        let synthesizer = ReversibleSynthesizer::new(dim(5)).unwrap();
        assert!(synthesizer.synthesize(&f).is_err());
        assert!(ReversibleSynthesizer::new(dim(2)).is_err());
    }

    #[test]
    fn gate_count_scales_like_n_d_to_the_n() {
        // Theorem IV.2: O(n·dⁿ) G-gates.  Check that the per-two-cycle cost
        // is O(n) by comparing against the number of two-cycles.
        let d = dim(3);
        let mut rng = StdRng::seed_from_u64(31);
        for n in [2usize, 3] {
            let f = ReversibleFunction::random(d, n, &mut rng);
            let synthesis = ReversibleSynthesizer::new(d)
                .unwrap()
                .synthesize(&f)
                .unwrap();
            let g = synthesis.resources().g_gates;
            let cycles = synthesis.two_cycles().max(1);
            assert!(
                g <= cycles * n * 3000,
                "n={n}: {g} G-gates for {cycles} two-cycles"
            );
        }
    }
}
