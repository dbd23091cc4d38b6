//! Exactness suite for the fused dense engine:
//!
//! * property-based: applying a [`FusedProgram`] produces the same
//!   amplitudes as the scalar gate-by-gate reference walk (`==`-equal, and bit-identical up to IEEE
//!   zero signs), and `simulate_basis` agrees with the reference on the same
//!   circuits;
//! * directed: a fusion run straddling a non-commuting gate splits instead
//!   of reordering across it, and a superposed-input `AddFrom` chain keeps
//!   three live amplitudes and matches the reference exactly.

use proptest::prelude::*;
use qudit_core::math::Complex;
use qudit_core::{Circuit, Control, Dimension, Gate, QuditId, SingleQuditOp};
use qudit_sim::random::random_single_qudit_unitary;
use qudit_sim::{simulate_basis, FusedProgram, StateVector};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds a deterministic random mixed circuit (classical gates, controlled
/// shifts, `AddFrom` relocations and random unitaries) from gate seeds.
fn build_circuit(dimension: Dimension, width: usize, seeds: &[u64]) -> Circuit {
    let d = dimension.get();
    let mut circuit = Circuit::new(dimension, width);
    for &seed in seeds {
        let target = QuditId::new((seed % width as u64) as usize);
        let mut other = QuditId::new(((seed / 7) as usize + 1) % width);
        if other == target {
            other = QuditId::new((target.index() + 1) % width);
        }
        let gate = match seed % 5 {
            0 => Gate::single(SingleQuditOp::Add(1 + (seed / 5) as u32 % (d - 1)), target),
            1 => Gate::single(
                SingleQuditOp::Swap(0, 1 + (seed / 5) as u32 % (d - 1)),
                target,
            ),
            2 => Gate::controlled(
                SingleQuditOp::Add(1 + (seed / 11) as u32 % (d - 1)),
                target,
                vec![Control::level(other, (seed / 3 % u64::from(d)) as u32)],
            ),
            3 => Gate::add_from(other, seed % 2 == 0, target, vec![]),
            _ => {
                let mut rng = StdRng::seed_from_u64(seed);
                let unitary =
                    SingleQuditOp::Unitary(random_single_qudit_unitary(dimension, &mut rng));
                if seed % 2 == 0 {
                    Gate::controlled(
                        unitary,
                        target,
                        vec![Control::level(other, (seed / 3 % u64::from(d)) as u32)],
                    )
                } else {
                    Gate::single(unitary, target)
                }
            }
        };
        circuit.push(gate).expect("generated gates are valid");
    }
    circuit
}

/// Asserts two amplitude slices are `==`-equal and bit-identical after
/// normalising IEEE zero signs (`-0.0 == 0.0`, and the two engines are
/// allowed to differ only in which zero they store).
fn assert_exact(reference: &[Complex], fused: &[Complex]) {
    assert_eq!(reference.len(), fused.len());
    for (index, (a, b)) in reference.iter().zip(fused).enumerate() {
        assert_eq!(a, b, "amplitude {index} diverged");
        assert_eq!(
            (a.re + 0.0).to_bits(),
            (b.re + 0.0).to_bits(),
            "re bits diverged at {index}"
        );
        assert_eq!(
            (a.im + 0.0).to_bits(),
            (b.im + 0.0).to_bits(),
            "im bits diverged at {index}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fused engine equals the scalar gate-by-gate reference on random
    /// mixed circuits.
    #[test]
    fn fused_apply_matches_gate_by_gate(
        d in 3u32..=4,
        width in 2usize..=6,
        seeds in prop::collection::vec(0u64..100_000, 1..24),
        input_pick in 0usize..10_000,
    ) {
        let dimension = Dimension::new(d).unwrap();
        let circuit = build_circuit(dimension, width, &seeds);
        let size = dimension.register_size(width);
        let input = qudit_sim::basis::index_to_digits(input_pick % size, dimension, width);

        let mut reference = StateVector::from_basis(dimension, &input).unwrap();
        reference.apply_circuit(&circuit).unwrap();

        let program = FusedProgram::compile(&circuit, width).unwrap();
        prop_assert_eq!(program.source_gates(), circuit.len());
        prop_assert!(program.traversals() <= circuit.len());

        let mut fused = StateVector::from_basis(dimension, &input).unwrap();
        fused.apply_fused(&program).unwrap();
        assert_exact(reference.amplitudes(), fused.amplitudes());
    }

    /// `simulate_basis` (leading classical gates on the digits, the rest
    /// fused) and the whole circuit fused from the basis input agree with
    /// the reference walk.
    #[test]
    fn backends_match_reference_across_pools(
        d in 3u32..=4,
        width in 2usize..=5,
        seeds in prop::collection::vec(0u64..100_000, 1..16),
        input_pick in 0usize..10_000,
    ) {
        let dimension = Dimension::new(d).unwrap();
        let circuit = build_circuit(dimension, width, &seeds);
        let size = dimension.register_size(width);
        let input = qudit_sim::basis::index_to_digits(input_pick % size, dimension, width);

        let mut reference = StateVector::from_basis(dimension, &input).unwrap();
        reference.apply_circuit(&circuit).unwrap();

        let simulated = simulate_basis(&circuit, &input).unwrap();
        prop_assert_eq!(reference.amplitudes(), simulated.amplitudes());

        let program = FusedProgram::compile(&circuit, width).unwrap();
        let mut fused = StateVector::from_basis(dimension, &input).unwrap();
        fused.apply_fused(&program).unwrap();
        prop_assert_eq!(reference.amplitudes(), fused.amplitudes());
    }
}

/// Fused application at width 10 (3^10 = 59049 states) is deterministic
/// down to the bit and matches the reference walk.
#[test]
fn parallel_dispatch_is_byte_identical() {
    let dimension = Dimension::new(3).unwrap();
    let width = 10;
    let seeds: Vec<u64> = (0..12).map(|i| i * 9973 + 17).collect();
    let circuit = build_circuit(dimension, width, &seeds);
    let program = FusedProgram::compile(&circuit, width).unwrap();

    let input = vec![0u32; width];
    let mut first = StateVector::from_basis(dimension, &input).unwrap();
    first.apply_fused(&program).unwrap();
    let mut second = StateVector::from_basis(dimension, &input).unwrap();
    second.apply_fused(&program).unwrap();
    for (a, b) in first.amplitudes().iter().zip(second.amplitudes()) {
        assert_eq!(a.re.to_bits(), b.re.to_bits());
        assert_eq!(a.im.to_bits(), b.im.to_bits());
    }

    let mut reference = StateVector::from_basis(dimension, &input).unwrap();
    reference.apply_circuit(&circuit).unwrap();
    assert_exact(reference.amplitudes(), first.amplitudes());
}

/// A run of same-target classical gates straddling a non-commuting gate must
/// split into two traversals — fusing across the unitary would reorder
/// non-commuting operations.
#[test]
fn fusion_run_splits_at_a_non_commuting_gate() {
    let dimension = Dimension::new(3).unwrap();
    let width = 4;
    let q0 = QuditId::new(0);
    let q1 = QuditId::new(1);
    let mut rng = StdRng::seed_from_u64(7);
    let unitary = SingleQuditOp::Unitary(random_single_qudit_unitary(dimension, &mut rng));

    // Add(1) q0 · U q1 · Add(1) q0: the unitary on q1 is non-classical, so
    // even though its wire is disjoint it must close the open q0 run.
    let mut straddled = Circuit::new(dimension, width);
    straddled
        .push(Gate::single(SingleQuditOp::Add(1), q0))
        .unwrap();
    straddled.push(Gate::single(unitary.clone(), q1)).unwrap();
    straddled
        .push(Gate::single(SingleQuditOp::Add(1), q0))
        .unwrap();
    let program = FusedProgram::compile(&straddled, width).unwrap();
    assert_eq!(program.traversals(), 3, "run must split at the unitary");
    assert_eq!(program.fused_gates(), 0);

    // The same run interleaved with a *classical* gate on a disjoint wire
    // stays open and fuses into one traversal.
    let mut fusable = Circuit::new(dimension, width);
    fusable
        .push(Gate::single(SingleQuditOp::Add(1), q0))
        .unwrap();
    fusable
        .push(Gate::single(SingleQuditOp::Add(1), q1))
        .unwrap();
    fusable
        .push(Gate::single(SingleQuditOp::Add(1), q0))
        .unwrap();
    let program = FusedProgram::compile(&fusable, width).unwrap();
    assert_eq!(program.traversals(), 2, "disjoint classical gate fuses");
    assert_eq!(program.fused_gates(), 1);

    // Both still match the reference walk exactly.
    for circuit in [&straddled, &fusable] {
        let program = FusedProgram::compile(circuit, width).unwrap();
        let input = vec![1u32; width];
        let mut reference = StateVector::from_basis(dimension, &input).unwrap();
        reference.apply_circuit(circuit).unwrap();
        let mut fused = StateVector::from_basis(dimension, &input).unwrap();
        fused.apply_fused(&program).unwrap();
        assert_exact(reference.amplitudes(), fused.amplitudes());
    }
}

/// An `AddFrom` chain on a *superposed* input stays sparse: after one mix,
/// every shift-by-source relocates the three live amplitudes without
/// mixing them, and the fused result equals the reference walk exactly.
#[test]
fn superposed_addfrom_chain_stays_sparse() {
    let dimension = Dimension::new(3).unwrap();
    let width = 8; // 3^8 = 6561 states.
    let mut rng = StdRng::seed_from_u64(11);
    let unitary = SingleQuditOp::Unitary(random_single_qudit_unitary(dimension, &mut rng));

    let mut circuit = Circuit::new(dimension, width);
    // One mix on qudit 0 superposes the input over three levels…
    circuit
        .push(Gate::single(unitary, QuditId::new(0)))
        .unwrap();
    // …then a long classical AddFrom chain walks the superposition around
    // the register.
    for round in 0..4 {
        for wire in 0..width - 1 {
            circuit
                .push(Gate::add_from(
                    QuditId::new(wire),
                    round % 2 == 1,
                    QuditId::new(wire + 1),
                    vec![],
                ))
                .unwrap();
        }
    }

    let input = vec![0u32; width];
    let state = simulate_basis(&circuit, &input).unwrap();
    let live = state
        .amplitudes()
        .iter()
        .filter(|amp| **amp != Complex::ZERO)
        .count();
    assert_eq!(live, 3, "AddFrom relocates amplitudes, it never mixes them");

    let mut reference = StateVector::from_basis(dimension, &input).unwrap();
    reference.apply_circuit(&circuit).unwrap();
    assert_eq!(reference.amplitudes(), state.amplitudes());
}
