//! Differential test harness for the stabilizer tableau.
//!
//! Random all-Clifford circuits over prime dimensions must agree with the
//! reference state-vector walk (`StateVector::apply_circuit`) on final
//! states (up to the stabilizer representation's arbitrary global phase)
//! and on basis-state probabilities, and `VerifyEquivalence` — which checks
//! non-classical Clifford pairs on the tableau — must return the verdict
//! the reference unitaries imply.
//! Non-Clifford gates must be rejected with the typed
//! `QuditError::NonClifford`, and the E10 circuit family (not Clifford)
//! must verify on the other strategies with unchanged verdicts.

use proptest::prelude::*;
use qudit_core::math::{Complex, SquareMatrix, MATRIX_TOLERANCE};
use qudit_core::pipeline::{pass_fn, PassManager};
use qudit_core::{Circuit, Control, Dimension, Gate, QuditError, QuditId, SingleQuditOp};
use qudit_sim::basis::index_to_digits;
use qudit_sim::random::{random_clifford_circuit, random_single_qudit_unitary};
use qudit_sim::{
    classify_gate, clifford_circuits_equal, is_clifford_circuit, StabilizerState, StateVector,
    VerifyEquivalence,
};
use qudit_synthesis::KToffoli;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dim(d: u32) -> Dimension {
    Dimension::new(d).unwrap()
}

/// Width cap per dimension keeping `d^width` small enough for the dense
/// reference (`2^10 = 1024`, `3^7 = 2187`, `5^5 = 3125`).
fn width_cap(d: u32) -> usize {
    match d {
        2 => 10,
        3 => 7,
        _ => 5,
    }
}

/// The qudit Fourier matrix — the canonical non-classical Clifford gate.
fn fourier(d: u32) -> SquareMatrix {
    let omega = 2.0 * std::f64::consts::PI / f64::from(d);
    let s = 1.0 / f64::from(d).sqrt();
    let mut entries = Vec::new();
    for r in 0..d {
        for c in 0..d {
            entries.push(Complex::from_phase(omega * f64::from(r * c)).scale(s));
        }
    }
    SquareMatrix::from_rows(d as usize, entries).unwrap()
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
        let input = index_to_digits(column, dimension, width);
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

/// The circuit without its last gate.
fn drop_last(circuit: &Circuit) -> qudit_core::Result<Circuit> {
    let mut out = Circuit::new(circuit.dimension(), circuit.width());
    for gate in circuit.gates().iter().take(circuit.len().saturating_sub(1)) {
        out.push(gate.clone())?;
    }
    Ok(out)
}

/// Runs `VerifyEquivalence` around a gate-dropping pass and reports whether
/// the verdict was "equivalent".
fn drop_last_verdict(circuit: &Circuit) -> bool {
    let manager = PassManager::new().with_pass(VerifyEquivalence::wrap(Box::new(pass_fn(
        "drop-last",
        |c: Circuit| drop_last(&c),
    ))));
    match manager.run(circuit.clone()) {
        Ok(_) => true,
        Err(QuditError::PassFailed { .. }) => false,
        Err(other) => panic!("unexpected error: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Final states of random Clifford circuits agree between the
    /// stabilizer tableau and the reference walk on every overlapping
    /// width, up to global phase.
    #[test]
    fn stabilizer_matches_the_reference_on_final_states(
        d in prop::sample::select(vec![2u32, 3, 5]),
        width_seed in 0usize..1000,
        seed in any::<u64>(),
    ) {
        let width = 1 + width_seed % width_cap(d);
        let dimension = dim(d);
        let mut rng = StdRng::seed_from_u64(seed);
        let circuit = random_clifford_circuit(dimension, width, 24, &mut rng);
        let size = dimension.register_size(width);
        let input = index_to_digits(seed as usize % size, dimension, width);
        let reference = reference_state(&circuit, &input);

        // The stabilizer state carries an arbitrary global phase, so the
        // state comparison is by fidelity; probabilities are phase-free and
        // must match the reference everywhere.
        let mut state = StabilizerState::from_basis(dimension, &input).unwrap();
        state.apply_circuit(&circuit).unwrap();
        for i in 0..size {
            let digits = index_to_digits(i, dimension, width);
            let (p, expected) = (state.probability(&digits), reference.probability(&digits));
            prop_assert!(
                (p - expected).abs() < 1e-9,
                "state {i}: stabilizer {p} vs reference {expected}"
            );
        }
        let sv = state.to_statevector().unwrap();
        prop_assert!(sv.fidelity(&reference) > 1.0 - 1e-9);
    }

    /// `VerifyEquivalence` returns the verdict the reference unitaries
    /// imply for random Clifford circuits.
    #[test]
    fn verify_equivalence_verdicts_agree_across_backends(
        d in prop::sample::select(vec![2u32, 3, 5]),
        width_seed in 0usize..1000,
        seed in any::<u64>(),
    ) {
        let width = 1 + width_seed % width_cap(d);
        let mut rng = StdRng::seed_from_u64(seed);
        let circuit = random_clifford_circuit(dim(d), width, 12, &mut rng);

        // The identity pass passes.
        let identity = pass_fn("identity", Ok);
        let manager = PassManager::new().with_pass(VerifyEquivalence::wrap(Box::new(identity)));
        prop_assert!(manager.run(circuit.clone()).is_ok());

        // Dropping the last gate may or may not preserve the operator (the
        // gate could be an identity permutation) — but the verdict must be
        // the reference's.
        let expected = reference_unitary(&circuit).approx_eq_up_to_phase(
            &reference_unitary(&drop_last(&circuit).unwrap()),
            MATRIX_TOLERANCE.max(1e-7),
        );
        prop_assert_eq!(drop_last_verdict(&circuit), expected);
    }
}

#[test]
fn non_clifford_repertoire_is_rejected_with_typed_errors() {
    let assert_non_clifford = |gate: Gate, dimension: Dimension, label: &str| {
        match classify_gate(&gate, dimension) {
            Err(QuditError::NonClifford { .. }) => {}
            other => panic!("{label}: expected NonClifford, got {other:?}"),
        }
        // The tableau state surfaces the same typed error instead of
        // panicking.
        let mut circuit = Circuit::new(dimension, 3);
        circuit
            .push(Gate::single(
                SingleQuditOp::Unitary(fourier(dimension.get())),
                QuditId::new(0),
            ))
            .unwrap();
        circuit.push(gate).unwrap();
        let mut state = StabilizerState::from_basis(dimension, &[0; 3]).unwrap();
        match state.apply_circuit(&circuit) {
            Err(QuditError::NonClifford { .. }) => {}
            other => panic!("{label}: engine should reject, got {other:?}"),
        }
        assert!(!is_clifford_circuit(&circuit), "{label}");
    };

    // Level-controlled gates are block-diagonal with unequal blocks.
    assert_non_clifford(
        Gate::controlled(
            SingleQuditOp::Add(1),
            QuditId::new(1),
            vec![Control::level(QuditId::new(0), 1)],
        ),
        dim(3),
        "controlled add",
    );
    // Three-qudit support exceeds the classifier's arity.
    assert_non_clifford(
        Gate::add_from(
            QuditId::new(0),
            false,
            QuditId::new(1),
            vec![Control::level(QuditId::new(2), 1)],
        ),
        dim(3),
        "controlled SUM",
    );
    // A level transposition is not affine for d = 5.
    assert_non_clifford(
        Gate::single(SingleQuditOp::Swap(0, 1), QuditId::new(0)),
        dim(5),
        "transposition at d=5",
    );
    // A Haar-random unitary is (overwhelmingly, and for this seed:
    // verifiably) not a Clifford.
    let mut rng = StdRng::seed_from_u64(3);
    assert_non_clifford(
        Gate::single(
            SingleQuditOp::Unitary(random_single_qudit_unitary(dim(3), &mut rng)),
            QuditId::new(0),
        ),
        dim(3),
        "haar unitary",
    );
    // Composite dimensions have no stabilizer formalism at all.
    match classify_gate(
        &Gate::single(SingleQuditOp::Add(1), QuditId::new(0)),
        dim(4),
    ) {
        Err(QuditError::NonClifford { .. }) => {}
        other => panic!("composite dimension: expected NonClifford, got {other:?}"),
    }
}

#[test]
fn auto_falls_back_on_the_e10_family_with_unchanged_verdicts() {
    // The E10 sweep circuits (synthesised k-Toffolis) contain level-controlled
    // gates, so they are not Clifford: verification must check them on the
    // basis-state strategy and return the expected verdicts.
    for (d, k) in [(3u32, 2usize), (4, 2), (5, 2), (3, 3)] {
        let synthesis = KToffoli::new(dim(d), k).unwrap().synthesize().unwrap();
        let circuit = synthesis.circuit();
        assert!(!is_clifford_circuit(circuit), "d={d} k={k}");
        // Faithful pass: accepted.
        let identity = pass_fn("identity", Ok);
        let manager = PassManager::new().with_pass(VerifyEquivalence::wrap(Box::new(identity)));
        assert!(manager.run(circuit.clone()).is_ok(), "d={d} k={k}");
        // Gate-dropping pass: rejected (a k-Toffoli is never a no-op), with
        // a basis-state witness rather than a tableau verdict.
        let drop_all = pass_fn("drop-all", |c: Circuit| {
            Ok(Circuit::new(c.dimension(), c.width()))
        });
        let manager = PassManager::new().with_pass(VerifyEquivalence::wrap(Box::new(drop_all)));
        match manager.run(circuit.clone()) {
            Err(QuditError::PassFailed { reason, .. }) => {
                assert!(reason.contains("basis state"), "d={d} k={k}: {reason}");
            }
            other => panic!("d={d} k={k}: expected PassFailed, got {other:?}"),
        }
    }
}

/// `VerifyEquivalence` on the identity and on a drop-everything pass: the
/// identity must pass and the drop must fail on the tableau.
fn assert_tableau_verdicts(circuit: &Circuit) {
    let identity = pass_fn("identity", Ok);
    let manager = PassManager::new().with_pass(VerifyEquivalence::wrap(Box::new(identity)));
    assert!(manager.run(circuit.clone()).is_ok());

    let drop_all = pass_fn("drop-all", |c: Circuit| {
        Ok(Circuit::new(c.dimension(), c.width()))
    });
    let manager = PassManager::new().with_pass(VerifyEquivalence::wrap(Box::new(drop_all)));
    match manager.run(circuit.clone()) {
        Err(QuditError::PassFailed { reason, .. }) => {
            assert!(reason.contains("stabilizer"), "{reason}");
        }
        other => panic!("expected PassFailed, got {other:?}"),
    }
}

#[test]
fn stabilizer_verifies_random_clifford_circuits_at_width_24() {
    // 3^24 ≈ 2.8·10¹¹ basis states: beyond every state-vector strategy.
    let dimension = dim(3);
    let width = 24;
    let mut rng = StdRng::seed_from_u64(17);
    let mut circuit = random_clifford_circuit(dimension, width, 96, &mut rng);
    // Pin a Fourier gate so the circuit is certainly non-classical and the
    // tableau branch (not the classical permutation sweep) is exercised.
    circuit
        .push(Gate::single(
            SingleQuditOp::Unitary(fourier(3)),
            QuditId::new(0),
        ))
        .unwrap();
    assert!(is_clifford_circuit(&circuit));

    // Exact self-equivalence.
    assert!(clifford_circuits_equal(&circuit, &circuit.clone()).unwrap());
    // Tampering is detected.
    let mut tampered = circuit.clone();
    tampered
        .push(Gate::single(SingleQuditOp::Add(1), QuditId::new(5)))
        .unwrap();
    assert!(!clifford_circuits_equal(&circuit, &tampered).unwrap());

    // The same verdicts through the `VerifyEquivalence` pass.
    assert_tableau_verdicts(&circuit);

    // Probability queries stay cheap at width 24.
    let mut state = StabilizerState::from_basis(dimension, &vec![0u32; width]).unwrap();
    state.apply_circuit(&circuit).unwrap();
    let dominant = state.dominant_basis_state();
    assert!(state.probability(&dominant) > 0.0);
}

#[test]
fn classical_prefix_with_clifford_suffix_promotes_at_width_24() {
    // A circuit opening with classical gates and closing with a
    // non-classical Clifford gate is all-Clifford and non-classical, so
    // verification takes the tableau rather than any state-vector path —
    // at a width no dense strategy reaches.
    let dimension = dim(3);
    let width = 24;
    let mut circuit = Circuit::new(dimension, width);
    for q in 0..width - 1 {
        circuit
            .push(Gate::add_from(
                QuditId::new(q),
                false,
                QuditId::new(q + 1),
                vec![],
            ))
            .unwrap();
    }
    circuit
        .push(Gate::single(
            SingleQuditOp::Unitary(fourier(3)),
            QuditId::new(width - 1),
        ))
        .unwrap();
    assert!(is_clifford_circuit(&circuit) && !circuit.is_classical());
    assert_tableau_verdicts(&circuit);

    // Wide state queries run on the tableau state directly.
    let mut state = StabilizerState::from_basis(dimension, &vec![1u32; width]).unwrap();
    state.apply_circuit(&circuit).unwrap();
    let dominant = state.dominant_basis_state();
    assert!(state.probability(&dominant) > 0.0);
}
