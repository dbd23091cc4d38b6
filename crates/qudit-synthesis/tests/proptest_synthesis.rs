//! Property-based tests of the synthesis invariants: for random dimensions,
//! control counts, control levels and target operations, the synthesised
//! circuits implement their specification and respect the ancilla contracts.

use proptest::prelude::*;
use qudit_core::{Circuit, Dimension, QuditId, SingleQuditOp};
use qudit_synthesis::pk::pk_target_image;
use qudit_synthesis::{emit_multi_controlled, KToffoli, MultiControlledGate};

fn any_dimension() -> impl Strategy<Value = Dimension> {
    (3u32..=6).prop_map(|d| Dimension::new(d).unwrap())
}

fn index_to_digits(mut index: usize, dimension: Dimension, width: usize) -> Vec<u32> {
    let d = dimension.as_usize();
    let mut digits = vec![0u32; width];
    for slot in digits.iter_mut().rev() {
        *slot = (index % d) as u32;
        index /= d;
    }
    digits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The synthesised |0^k⟩-op is correct on random basis states for random
    /// classical target operations.
    #[test]
    fn multi_controlled_gate_respects_its_spec(
        dimension in any_dimension(),
        k in 1usize..=5,
        op_kind in 0u8..3,
        shift in 1u32..6,
        inputs in prop::collection::vec(0usize..10_000, 12),
    ) {
        let d = dimension.get();
        let op = match op_kind {
            0 => SingleQuditOp::Swap(0, 1 + (shift % (d - 1))),
            1 => SingleQuditOp::Add(1 + (shift % (d - 1))),
            _ => {
                if dimension.is_even() {
                    SingleQuditOp::ParityFlipEven
                } else {
                    SingleQuditOp::ParityFlipOdd
                }
            }
        };
        let synthesis = MultiControlledGate::new(dimension, k, op.clone()).unwrap().synthesize().unwrap();
        let circuit = synthesis.circuit();
        let width = synthesis.layout().width;
        let size = dimension.register_size(width);
        for seed in inputs {
            let state = index_to_digits(seed % size, dimension, width);
            let mut expected = state.clone();
            if state[..k].iter().all(|&x| x == 0) {
                expected[k] = op.apply_level(expected[k], dimension).unwrap();
            }
            prop_assert_eq!(circuit.apply_to_basis(&state).unwrap(), expected);
        }
    }

    /// Arbitrary control levels are handled by conjugation.
    #[test]
    fn nonzero_control_levels_are_correct(
        dimension in any_dimension(),
        levels in prop::collection::vec(0u32..6, 1..4),
        inputs in prop::collection::vec(0usize..10_000, 10),
    ) {
        let d = dimension.get();
        let levels: Vec<u32> = levels.into_iter().map(|l| l % d).collect();
        let k = levels.len();
        let width = k + 1 + usize::from(dimension.is_even());
        let mut circuit = Circuit::new(dimension, width);
        let controls: Vec<(QuditId, u32)> =
            levels.iter().enumerate().map(|(i, &l)| (QuditId::new(i), l)).collect();
        let pool: Vec<QuditId> = if dimension.is_even() { vec![QuditId::new(k + 1)] } else { vec![] };
        emit_multi_controlled(&mut circuit, &controls, QuditId::new(k), &SingleQuditOp::Add(1), &pool)
            .unwrap();
        let size = dimension.register_size(width);
        for seed in inputs {
            let state = index_to_digits(seed % size, dimension, width);
            let mut expected = state.clone();
            if levels.iter().enumerate().all(|(i, &l)| state[i] == l) {
                expected[k] = (expected[k] + 1) % d;
            }
            prop_assert_eq!(circuit.apply_to_basis(&state).unwrap(), expected);
        }
    }

    /// Lowered circuits consist purely of G-gates and keep the gate count of
    /// the resource report.
    #[test]
    fn lowering_produces_g_gates_only(dimension in any_dimension(), k in 1usize..=5) {
        let synthesis = KToffoli::new(dimension, k).unwrap().synthesize().unwrap();
        let g = synthesis.g_gate_circuit().unwrap();
        prop_assert!(g.gates().iter().all(|gate| gate.is_g_gate()));
        prop_assert_eq!(g.len(), synthesis.resources().g_gates);
    }

    /// The classical specification of P_k: the target is decremented exactly
    /// when the last non-zero input is absent or even.
    #[test]
    fn pk_spec_properties(
        dimension in (3u32..=7).prop_filter("odd", |d| d % 2 == 1).prop_map(|d| Dimension::new(d).unwrap()),
        inputs in prop::collection::vec(0u32..7, 1..6),
        target in 0u32..7,
    ) {
        let d = dimension.get();
        let inputs: Vec<u32> = inputs.into_iter().map(|x| x % d).collect();
        let target = target % d;
        let image = pk_target_image(&inputs, target, dimension);
        match inputs.iter().rev().find(|&&x| x != 0) {
            Some(&value) if value % 2 == 1 => prop_assert_eq!(image, target),
            _ => prop_assert_eq!(image, (target + d - 1) % d),
        }
        // P_k only ever changes the target by 0 or −1 (mod d).
        let diff = (target + d - image) % d;
        prop_assert!(diff == 0 || diff == 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The macro-gate walk reuses its level buffers across gates: lowering
    /// a synthesised macro circuit in one walk must equal lowering each gate
    /// alone with fresh buffers, across random dimensions and control counts
    /// (which vary the register width), and the `lower-to-elementary` pass
    /// must report the same circuit.
    #[test]
    fn macro_lowering_walk_matches_per_gate_lowering(
        dimension in any_dimension(),
        k in 2usize..=6,
    ) {
        use qudit_core::pipeline::PassManager;
        use qudit_core::Circuit;
        use qudit_synthesis::lower::lower_to_elementary;
        use qudit_synthesis::LowerToElementary;

        let circuit = KToffoli::new(dimension, k)
            .unwrap()
            .synthesize()
            .unwrap()
            .circuit()
            .clone();
        let walk = lower_to_elementary(&circuit).unwrap();

        let mut per_gate = Circuit::new(dimension, circuit.width());
        for gate in circuit.gates() {
            let mut single = Circuit::new(dimension, circuit.width());
            single.push(gate.clone()).unwrap();
            per_gate.append(&lower_to_elementary(&single).unwrap()).unwrap();
        }
        prop_assert_eq!(&walk, &per_gate);

        let report = PassManager::new()
            .with_pass(LowerToElementary)
            .run(circuit)
            .unwrap();
        prop_assert_eq!(&report.circuit, &walk);
    }
}
