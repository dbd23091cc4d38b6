//! Differential tests: the structure-of-arrays `BasisBatch` kernel must map
//! every basis state exactly as the per-state `Circuit::apply_to_basis`
//! walk does, on seeded random classical circuits covering every classical
//! operation (`Swap`, `Add`, both parity flips, `Perm`, permutation-matrix
//! `Unitary`, `AddFrom` ±) under all four control predicates — on the byte
//! lane (d ≤ 255) and the wide lane (d > 255).

use qudit_core::math::SquareMatrix;
use qudit_core::{Circuit, Control, ControlPredicate, Dimension, Gate, QuditId, SingleQuditOp};
use qudit_sim::basis::{index_to_digits, BasisBatch};
use qudit_sim::circuit_permutation;
use qudit_sim::random::{random_classical_dialect_circuit, random_permutation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random classical circuit: the dialect generator's repertoire plus
/// permutation-matrix unitaries and explicitly both parity flips where the
/// dimension admits them.
fn random_classical_circuit(dimension: Dimension, width: usize, rng: &mut StdRng) -> Circuit {
    let mut circuit = random_classical_dialect_circuit(dimension, width, 40, rng);
    let d = dimension.as_usize();
    for n in 0..6 {
        let target = rng.gen_range(0..width);
        let mut controls = Vec::new();
        for q in (0..width).filter(|&q| q != target) {
            if rng.gen_range(0u32..3) != 0 {
                continue;
            }
            let predicate = match rng.gen_range(0u32..4) {
                0 => ControlPredicate::Level(rng.gen_range(0..dimension.get())),
                1 => ControlPredicate::Odd,
                2 => ControlPredicate::EvenNonzero,
                _ => ControlPredicate::NonZero,
            };
            controls.push(Control::new(QuditId::new(q), predicate));
        }
        let op = match n % 3 {
            // Validating a d × d unitary costs O(d³): keep them to small d.
            0 if d <= 16 => SingleQuditOp::Unitary(
                SquareMatrix::from_permutation(&random_permutation(d, rng)).unwrap(),
            ),
            0 | 1 if dimension.is_even() => SingleQuditOp::ParityFlipEven,
            0 | 1 => SingleQuditOp::ParityFlipOdd,
            _ => SingleQuditOp::Add(rng.gen_range(0..dimension.get())),
        };
        circuit
            .push(Gate::controlled(op, QuditId::new(target), controls))
            .unwrap();
    }
    circuit
}

fn assert_matches_reference(circuit: &Circuit, inputs: &[Vec<u32>], mut batch: BasisBatch) {
    batch.apply(circuit).unwrap();
    assert_eq!(batch.len(), inputs.len());
    for (i, input) in inputs.iter().enumerate() {
        assert_eq!(
            batch.state(i),
            circuit.apply_to_basis(input).unwrap(),
            "state {input:?} of {circuit:?}"
        );
    }
}

#[test]
fn full_basis_matches_apply_to_basis() {
    let mut rng = StdRng::seed_from_u64(0xBA7C4);
    for (d, width) in [(2u32, 5usize), (3, 4), (4, 3), (5, 3), (7, 3)] {
        let dimension = Dimension::new(d).unwrap();
        let size = dimension.register_size(width);
        let inputs: Vec<Vec<u32>> = (0..size)
            .map(|i| index_to_digits(i, dimension, width))
            .collect();
        for _ in 0..8 {
            let circuit = random_classical_circuit(dimension, width, &mut rng);
            assert_matches_reference(
                &circuit,
                &inputs,
                BasisBatch::from_range(dimension, width, 0..size),
            );
            // An offset range starts the odometer mid-register.
            let tail = size / 3..size;
            assert_matches_reference(
                &circuit,
                &inputs[tail.clone()],
                BasisBatch::from_range(dimension, width, tail),
            );
        }
    }
}

#[test]
fn sampled_states_match_apply_to_basis_on_both_lanes() {
    let mut rng = StdRng::seed_from_u64(0x5A3D);
    // 300 and 256 overflow a byte lane; 255 is the widest byte-lane case.
    for (d, width) in [
        (2u32, 6usize),
        (3, 6),
        (5, 5),
        (7, 4),
        (255, 3),
        (256, 3),
        (300, 3),
    ] {
        let dimension = Dimension::new(d).unwrap();
        for _ in 0..4 {
            let circuit = random_classical_circuit(dimension, width, &mut rng);
            let inputs: Vec<Vec<u32>> = (0..300)
                .map(|_| (0..width).map(|_| rng.gen_range(0..d)).collect())
                .collect();
            let batch = BasisBatch::from_states(dimension, width, &inputs).unwrap();
            assert_matches_reference(&circuit, &inputs, batch);
        }
    }
}

#[test]
fn batches_longer_than_a_block_match_the_permutation_table() {
    // 3^9 = 19 683 states: several kernel blocks in one batch.
    let mut rng = StdRng::seed_from_u64(77);
    let dimension = Dimension::new(3).unwrap();
    let circuit = random_classical_circuit(dimension, 9, &mut rng);
    let size = dimension.register_size(9);
    let mut batch = BasisBatch::from_range(dimension, 9, 0..size);
    batch.apply(&circuit).unwrap();
    let reference: Vec<usize> = (0..size)
        .map(|i| {
            let out = circuit
                .apply_to_basis(&index_to_digits(i, dimension, 9))
                .unwrap();
            qudit_sim::basis::digits_to_index(&out, dimension)
        })
        .collect();
    assert_eq!(batch.indices(), reference);
    assert_eq!(circuit_permutation(&circuit).unwrap(), reference);
}

#[test]
fn first_mismatch_is_the_earliest_differing_state() {
    let dimension = Dimension::new(3).unwrap();
    let mut circuit = Circuit::new(dimension, 3);
    circuit
        .push(Gate::controlled(
            SingleQuditOp::Add(1),
            QuditId::new(0),
            vec![Control::level(QuditId::new(2), 2)],
        ))
        .unwrap();
    let identity = BasisBatch::from_range(dimension, 3, 0..27);
    let mut shifted = identity.clone();
    shifted.apply(&circuit).unwrap();
    assert_eq!(identity.first_mismatch(&identity), None);
    // |0 0 2⟩ (index 2) is the first state whose last qudit is 2.
    assert_eq!(identity.first_mismatch(&shifted), Some(2));
}

#[test]
fn invalid_inputs_are_rejected_like_apply_to_basis() {
    let dimension = Dimension::new(3).unwrap();
    assert!(BasisBatch::from_states(dimension, 2, &[vec![0, 3]]).is_err());
    assert!(BasisBatch::from_states(dimension, 2, &[vec![0, 1, 2]]).is_err());
    let mut non_classical = Circuit::new(dimension, 1);
    non_classical
        .push(Gate::single(
            SingleQuditOp::fourier(dimension),
            QuditId::new(0),
        ))
        .unwrap();
    let mut batch = BasisBatch::from_range(dimension, 1, 0..3);
    assert!(batch.apply(&non_classical).is_err());
    let wider = Circuit::new(dimension, 2);
    assert!(batch.apply(&wider).is_err());
}
