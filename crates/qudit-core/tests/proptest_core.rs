//! Property-based tests for the core data structures: permutations, gates,
//! circuits, lowering, the peephole optimiser and the depth metric.

use proptest::prelude::*;
use qudit_core::depth::circuit_depth;
use qudit_core::lowering::lower_circuit;
use qudit_core::pipeline::{CancelInversePairs, GateFusion, LowerToGGates, Pass, PassManager};
use qudit_core::{
    Circuit, Control, ControlPredicate, Dimension, Gate, Permutation, QuditId, SingleQuditOp,
};

/// A strategy for dimensions 3..=8.
fn any_dimension() -> impl Strategy<Value = Dimension> {
    (3u32..=8).prop_map(|d| Dimension::new(d).unwrap())
}

/// A strategy producing a valid singly-controlled classical gate description
/// for a register of `width` qudits of dimension `d`.
#[derive(Debug, Clone)]
struct GateSpec {
    target: usize,
    control: usize,
    kind: u8,
    level_a: u32,
    level_b: u32,
    shift: u32,
}

fn gate_spec(width: usize, d: u32) -> impl Strategy<Value = GateSpec> {
    (0..width, 0..width, 0u8..4, 0..d, 0..d, 1..d).prop_map(
        |(target, control, kind, level_a, level_b, shift)| GateSpec {
            target,
            control,
            kind,
            level_a,
            level_b,
            shift,
        },
    )
}

fn build_gate(spec: &GateSpec, dimension: Dimension) -> Option<Gate> {
    if spec.target == spec.control {
        return None;
    }
    let op = match spec.kind {
        0 => {
            if spec.level_a == spec.level_b {
                return None;
            }
            SingleQuditOp::Swap(spec.level_a, spec.level_b)
        }
        1 => SingleQuditOp::Add(spec.shift),
        2 => {
            if dimension.is_even() {
                SingleQuditOp::ParityFlipEven
            } else {
                SingleQuditOp::ParityFlipOdd
            }
        }
        _ => SingleQuditOp::Add(dimension.get() - spec.shift),
    };
    let predicate = match spec.kind {
        0 => ControlPredicate::Level(spec.level_a),
        1 => ControlPredicate::Odd,
        2 => ControlPredicate::EvenNonzero,
        _ => ControlPredicate::NonZero,
    };
    Some(Gate::controlled(
        op,
        QuditId::new(spec.target),
        vec![Control::new(QuditId::new(spec.control), predicate)],
    ))
}

fn build_circuit(specs: &[GateSpec], dimension: Dimension, width: usize) -> Circuit {
    let mut circuit = Circuit::new(dimension, width);
    for spec in specs {
        if let Some(gate) = build_gate(spec, dimension) {
            circuit.push(gate).unwrap();
        }
    }
    circuit
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Permutation composition is associative and respects inverses.
    #[test]
    fn permutation_algebra(
        a in Just((0u32..7).collect::<Vec<u32>>()).prop_shuffle(),
        b in Just((0u32..7).collect::<Vec<u32>>()).prop_shuffle(),
        c in Just((0u32..7).collect::<Vec<u32>>()).prop_shuffle(),
    ) {
        let pa = Permutation::from_map(a).unwrap();
        let pb = Permutation::from_map(b).unwrap();
        let pc = Permutation::from_map(c).unwrap();
        prop_assert_eq!(pa.compose(&pb).compose(&pc), pa.compose(&pb.compose(&pc)));
        prop_assert!(pa.compose(&pa.inverse()).is_identity());
        prop_assert_eq!(pa.compose(&pb).inverse(), pb.inverse().compose(&pa.inverse()));
    }

    /// Permutation parity is multiplicative under composition.
    #[test]
    fn permutation_parity_is_multiplicative(
        a in Just((0u32..6).collect::<Vec<u32>>()).prop_shuffle(),
        b in Just((0u32..6).collect::<Vec<u32>>()).prop_shuffle(),
    ) {
        let pa = Permutation::from_map(a).unwrap();
        let pb = Permutation::from_map(b).unwrap();
        let product = pa.compose(&pb);
        prop_assert_eq!(product.is_even(), pa.is_even() == pb.is_even());
    }

    /// Classical single-qudit operations invert correctly on every level.
    #[test]
    fn single_qudit_ops_invert(dimension in any_dimension(), level_seed in 0u32..100, shift in 1u32..8) {
        let d = dimension.get();
        let level = level_seed % d;
        let ops = vec![
            SingleQuditOp::Add(shift % d),
            SingleQuditOp::Swap(0, d - 1),
            if dimension.is_even() { SingleQuditOp::ParityFlipEven } else { SingleQuditOp::ParityFlipOdd },
        ];
        for op in ops {
            let forward = op.apply_level(level, dimension).unwrap();
            let back = op.inverse(dimension).apply_level(forward, dimension).unwrap();
            prop_assert_eq!(back, level, "op {} level {}", op, level);
        }
    }

    /// Lowering, inversion and optimisation all preserve the circuit's action
    /// on the computational basis, and fusion's handed-over rewrite is its
    /// output.
    #[test]
    fn circuit_transformations_preserve_semantics(
        dimension in any_dimension(),
        specs in prop::collection::vec(gate_spec(3, 8), 0..10),
    ) {
        // Clamp levels to the chosen dimension.
        let specs: Vec<GateSpec> = specs
            .into_iter()
            .map(|mut s| {
                s.level_a %= dimension.get();
                s.level_b %= dimension.get();
                s.shift = 1 + (s.shift % (dimension.get() - 1));
                s
            })
            .collect();
        let circuit = build_circuit(&specs, dimension, 3);
        // Route the lower-then-cancel chain through the pass pipeline.
        let manager = PassManager::new()
            .with_pass(LowerToGGates)
            .with_pass(CancelInversePairs);
        let report = manager.run(circuit.clone()).unwrap();
        let lowered = lower_circuit(&circuit).unwrap();
        prop_assert_eq!(&report.stats[0].gates_after, &lowered.len());
        let optimized = report.circuit;
        let mut round_trip = circuit.clone();
        round_trip.append(&circuit.inverse()).unwrap();
        for state in all_states(dimension, 3) {
            let expected = circuit.apply_to_basis(&state).unwrap();
            prop_assert_eq!(lowered.apply_to_basis(&state).unwrap(), expected.clone());
            prop_assert_eq!(optimized.apply_to_basis(&state).unwrap(), expected);
            prop_assert_eq!(round_trip.apply_to_basis(&state).unwrap(), state);
        }
        prop_assert!(optimized.len() <= lowered.len());
        prop_assert!(circuit_depth(&optimized) <= circuit_depth(&lowered).max(1));
        // A handed-over rewrite is exactly what the pass's `run` does.
        if let Some(rewrite) = GateFusion.rewrite(&circuit) {
            prop_assert_eq!(
                rewrite.apply(circuit.clone()).unwrap(),
                GateFusion.run(circuit).unwrap()
            );
        }
    }

    /// Depth is bounded by the gate count and monotone under concatenation.
    #[test]
    fn depth_bounds(
        dimension in any_dimension(),
        specs in prop::collection::vec(gate_spec(4, 8), 1..12),
    ) {
        let specs: Vec<GateSpec> = specs
            .into_iter()
            .map(|mut s| {
                s.level_a %= dimension.get();
                s.level_b %= dimension.get();
                s.shift = 1 + (s.shift % (dimension.get() - 1));
                s
            })
            .collect();
        let circuit = build_circuit(&specs, dimension, 4);
        let depth = circuit_depth(&circuit);
        prop_assert!(depth <= circuit.len());
        let mut doubled = circuit.clone();
        doubled.append(&circuit).unwrap();
        prop_assert!(circuit_depth(&doubled) >= depth);
        prop_assert!(circuit_depth(&doubled) <= 2 * depth.max(1));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The G-gate walk reuses its level buffers across gates: lowering a
    /// circuit in one walk must equal lowering each gate alone with fresh
    /// buffers, across random dimensions and widths, and a parallel batch of
    /// `lower-to-g-gates` runs must report the same circuit for every job.
    #[test]
    fn lowering_walk_matches_per_gate_and_parallel_lowering(
        dimension in any_dimension(),
        width in 2usize..=6,
        specs in prop::collection::vec(gate_spec(6, 8), 1..16),
        threads in 1usize..=4,
    ) {
        use qudit_core::pool::WorkStealingPool;

        // Clamp the specs to the chosen dimension and width.
        let specs: Vec<GateSpec> = specs
            .into_iter()
            .map(|mut s| {
                s.target %= width;
                s.control %= width;
                s.level_a %= dimension.get();
                s.level_b %= dimension.get();
                s.shift = 1 + (s.shift % (dimension.get() - 1));
                s
            })
            .collect();
        let circuit = build_circuit(&specs, dimension, width);
        let reference = lower_circuit(&circuit).unwrap();

        let mut per_gate = Vec::new();
        for gate in circuit.gates() {
            let mut walk = LowerToGGates.gate_walk(&circuit).unwrap();
            walk.emit(gate, &mut per_gate).unwrap();
        }
        prop_assert_eq!(reference.gates(), per_gate.as_slice());

        let batch = PassManager::new()
            .with_pass(LowerToGGates)
            .with_pool(WorkStealingPool::with_threads(threads))
            .run_batch(vec![circuit.clone(), circuit])
            .unwrap();
        for report in &batch {
            prop_assert_eq!(&report.circuit, &reference);
        }
    }
}
