//! Differential suite for the amplitude path against the reference, the
//! scalar `StateVector::apply_circuit` walk: random circuits — fully
//! classical, mixed (classical prefix plus unitaries), and fully
//! non-classical — must give *identical* (`==`) final states through
//! `simulate_basis` and identical columns through `circuit_unitary`, and the
//! `VerifyEquivalence` pass must return the verdict the reference unitaries
//! imply.  Directed cases pin the input validation of `simulate_basis`.

use proptest::prelude::*;
use qudit_core::math::{SquareMatrix, MATRIX_TOLERANCE};
use qudit_core::pipeline::{pass_fn, PassManager};
use qudit_core::{Circuit, Control, Dimension, Gate, QuditError, QuditId, SingleQuditOp};
use qudit_sim::pipeline::VerifyEquivalence;
use qudit_sim::random::random_single_qudit_unitary;
use qudit_sim::{basis, circuit_unitary, simulate_basis, StateVector};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The circuit families the properties quantify over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    /// Permutation gates only (the synthesis output shape).
    Classical,
    /// A classical prefix with unitaries sprinkled into the suffix.
    Mixed,
    /// A non-classical gate in (almost) every slot.
    Quantum,
}

/// Builds a deterministic random circuit of the given family from a list of
/// gate seeds.
fn build_circuit(dimension: Dimension, width: usize, family: Family, seeds: &[u64]) -> Circuit {
    let d = dimension.get();
    let mut circuit = Circuit::new(dimension, width);
    for (slot, &seed) in seeds.iter().enumerate() {
        let target = QuditId::new((seed % width as u64) as usize);
        let other = QuditId::new(((seed / 7 + 1) as usize % width.max(2)).min(width - 1));
        let control_qudit = if other == target {
            QuditId::new((target.index() + 1) % width)
        } else {
            other
        };
        let non_classical = match family {
            Family::Classical => false,
            // Keep the first third classical so the circuit has a real
            // classical prefix for the digit walk.
            Family::Mixed => seed % 3 == 0 && slot >= seeds.len() / 3,
            Family::Quantum => seed % 4 != 3,
        };
        let gate = if non_classical && width >= 1 {
            let mut rng = StdRng::seed_from_u64(seed);
            let unitary = SingleQuditOp::Unitary(random_single_qudit_unitary(dimension, &mut rng));
            if seed % 2 == 0 && width >= 2 {
                Gate::controlled(
                    unitary,
                    target,
                    vec![Control::level(
                        control_qudit,
                        (seed / 3 % u64::from(d)) as u32,
                    )],
                )
            } else {
                Gate::single(unitary, target)
            }
        } else {
            match seed % 4 {
                0 => Gate::single(SingleQuditOp::Add(1 + (seed / 5) as u32 % (d - 1)), target),
                1 => Gate::single(
                    SingleQuditOp::Swap(0, 1 + (seed / 5) as u32 % (d - 1)),
                    target,
                ),
                2 if width >= 2 => Gate::controlled(
                    SingleQuditOp::Add(1 + (seed / 11) as u32 % (d - 1)),
                    target,
                    vec![Control::level(
                        control_qudit,
                        (seed / 3 % u64::from(d)) as u32,
                    )],
                ),
                _ if width >= 2 => Gate::add_from(control_qudit, seed % 2 == 0, target, vec![]),
                _ => Gate::single(SingleQuditOp::Add(1), target),
            }
        };
        circuit.push(gate).expect("generated gates are valid");
    }
    circuit
}

fn any_family() -> impl Strategy<Value = Family> {
    (0u8..3).prop_map(|tag| match tag {
        0 => Family::Classical,
        1 => Family::Mixed,
        _ => Family::Quantum,
    })
}

/// The reference walk from a basis input.
fn reference_state(circuit: &Circuit, input: &[u32]) -> StateVector {
    let mut state = StateVector::from_basis(circuit.dimension(), input).unwrap();
    state.apply_circuit(circuit).unwrap();
    state
}

/// The reference unitary, one reference walk per column.
fn reference_unitary(circuit: &Circuit) -> SquareMatrix {
    let (dimension, width) = (circuit.dimension(), circuit.width());
    let size = dimension.register_size(width);
    let mut matrix = SquareMatrix::zeros(size);
    for column in 0..size {
        let input = basis::index_to_digits(column, dimension, width);
        for (row, amp) in reference_state(circuit, &input)
            .amplitudes()
            .iter()
            .enumerate()
        {
            matrix[(row, column)] = *amp;
        }
    }
    matrix
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `simulate_basis` and `circuit_unitary` are `==` to the reference walk
    /// on every basis input, for every circuit family.
    #[test]
    fn backends_agree_on_final_states(
        d in 3u32..=5,
        width in 2usize..=3,
        family in any_family(),
        seeds in prop::collection::vec(0u64..100_000, 1..24),
        input_picks in prop::collection::vec(0usize..10_000, 4),
    ) {
        let dimension = Dimension::new(d).unwrap();
        let circuit = build_circuit(dimension, width, family, &seeds);
        if family == Family::Classical {
            prop_assert!(circuit.is_classical());
        }
        let size = dimension.register_size(width);
        let unitary = circuit_unitary(&circuit).unwrap();
        for pick in input_picks {
            let column = pick % size;
            let input = basis::index_to_digits(column, dimension, width);
            let reference = reference_state(&circuit, &input);
            let state = simulate_basis(&circuit, &input).unwrap();
            prop_assert_eq!(&state, &reference, "simulate_basis differs on {:?}", &input);
            for (row, amp) in reference.amplitudes().iter().enumerate() {
                prop_assert_eq!(unitary[(row, column)], *amp, "unitary column {}", column);
            }
            // Sanity: the state stays normalised.
            prop_assert!((state.norm_sqr() - 1.0).abs() < 1e-6);
        }
    }

    /// `VerifyEquivalence`, whichever strategy the circuits select
    /// (basis batch or dense), returns the verdict the reference
    /// unitaries imply: a faithful (identity) pass passes, and dropping the
    /// last gate passes exactly when the reference unitaries agree up to
    /// phase.
    #[test]
    fn verify_equivalence_verdicts_match_across_backends(
        d in 3u32..=4,
        width in 2usize..=3,
        family in any_family(),
        seeds in prop::collection::vec(0u64..100_000, 1..12),
    ) {
        let dimension = Dimension::new(d).unwrap();
        let circuit = build_circuit(dimension, width, family, &seeds);

        let identity = pass_fn("identity", Ok);
        let manager = PassManager::new().with_pass(VerifyEquivalence::wrap(Box::new(identity)));
        prop_assert!(manager.run(circuit.clone()).is_ok());

        let drop_last = |c: &Circuit| {
            let mut out = Circuit::new(c.dimension(), c.width());
            for gate in c.gates().iter().take(c.len().saturating_sub(1)) {
                out.push(gate.clone())?;
            }
            Ok(out)
        };
        let expected = reference_unitary(&circuit).approx_eq_up_to_phase(
            &reference_unitary(&drop_last(&circuit).unwrap()),
            MATRIX_TOLERANCE.max(1e-7),
        );
        let manager = PassManager::new().with_pass(VerifyEquivalence::wrap(Box::new(pass_fn(
            "drop-last",
            move |c: Circuit| drop_last(&c),
        ))));
        prop_assert_eq!(manager.run(circuit.clone()).is_ok(), expected);
    }
}

/// A small mixed circuit: a controlled classical gate, a unitary, a shift.
fn mixed_circuit(dimension: Dimension, width: usize) -> Circuit {
    let mut rng = StdRng::seed_from_u64(5);
    let mut circuit = Circuit::new(dimension, width);
    circuit
        .push(Gate::controlled(
            SingleQuditOp::Add(1),
            QuditId::new(1),
            vec![Control::level(QuditId::new(0), 1)],
        ))
        .unwrap();
    circuit
        .push(Gate::single(
            SingleQuditOp::Unitary(random_single_qudit_unitary(dimension, &mut rng)),
            QuditId::new(0),
        ))
        .unwrap();
    circuit
        .push(Gate::single(SingleQuditOp::Add(2), QuditId::new(1)))
        .unwrap();
    circuit
}

#[test]
fn out_of_range_digits_are_rejected_like_from_basis() {
    let dimension = Dimension::new(3).unwrap();
    let circuit = mixed_circuit(dimension, 2);
    for input in [[3u32, 0], [0, 7]] {
        let expected = StateVector::from_basis(dimension, &input).unwrap_err();
        assert!(matches!(expected, QuditError::LevelOutOfRange { .. }));
        assert_eq!(simulate_basis(&circuit, &input).unwrap_err(), expected);
    }
    // A digit on an idle extra qudit is validated too.
    assert!(matches!(
        simulate_basis(&circuit, &[1, 0, 3]),
        Err(QuditError::LevelOutOfRange { .. })
    ));
}

#[test]
fn wider_inputs_and_empty_registers_are_accepted() {
    let dimension = Dimension::new(3).unwrap();
    let circuit = mixed_circuit(dimension, 2);
    // The extra qudit is idle: the result is the reference walk on the
    // wider register.
    for input in [[1u32, 0, 2], [0, 2, 1]] {
        assert_eq!(
            simulate_basis(&circuit, &input).unwrap(),
            reference_state(&circuit, &input)
        );
    }
    // Width 0: one amplitude, equal to one.
    let empty = Circuit::new(dimension, 0);
    let state = simulate_basis(&empty, &[]).unwrap();
    assert_eq!(state, StateVector::from_basis(dimension, &[]).unwrap());
    assert_eq!(state.amplitudes().len(), 1);
    assert_eq!(circuit_unitary(&empty).unwrap().size(), 1);
}

#[test]
fn register_mismatches_are_rejected() {
    let d3 = Dimension::new(3).unwrap();
    let circuit = mixed_circuit(Dimension::new(4).unwrap(), 2);
    // An input narrower than the circuit.
    assert!(matches!(
        simulate_basis(&circuit, &[0]),
        Err(QuditError::IncompatibleCircuits { .. })
    ));
    // The reference refuses a circuit over another dimension.
    let mut state = StateVector::from_basis(d3, &[0, 0]).unwrap();
    assert!(matches!(
        state.apply_circuit(&circuit),
        Err(QuditError::IncompatibleCircuits { .. })
    ));
}
