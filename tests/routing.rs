//! Integration suite for the connectivity-routing subsystem
//! (`qudit_core::topology` + `qudit_core::route`):
//!
//! * routed circuit + inverse-permutation epilogue ≡ original, checked by
//!   `VerifyEquivalence` (on the stage and through the facade);
//! * every routed circuit passes the adjacency validator, and the
//!   validator rejects hand-built violating circuits with typed errors;
//! * routing is idempotent on already-routed circuits (the fast path
//!   returns them untouched);
//! * directed witnesses on the wire-SWAP ladder: every single-rung mutation
//!   of `wire_swap` that changes its function is rejected by
//!   `VerifyEquivalence`, and the two inputs |1 0⟩ then |0 1⟩ always
//!   expose it.

use std::sync::Arc;

use proptest::prelude::*;
use qudit_core::pipeline::{pass_fn, PassManager};
use qudit_core::route::{
    route_circuit, validate_adjacency, wire_swap, NoiseAwareCost, RoutePass, UniformCost,
};
use qudit_core::topology::CouplingGraph;
use qudit_core::{Circuit, Control, Dimension, Gate, GateOp, QuditError, QuditId, SingleQuditOp};
use qudit_sim::VerifyEquivalence;
use qudit_synthesis::{CompileOptions, Verify};

fn dim(d: u32) -> Dimension {
    Dimension::new(d).unwrap()
}

/// One of the three stock topologies, always with `sites >= width`.
fn graph_for(width: usize, pick: u8) -> CouplingGraph {
    match pick % 3 {
        0 => CouplingGraph::linear(width).unwrap(),
        1 => CouplingGraph::ring(width.max(3)).unwrap(),
        _ => CouplingGraph::grid(2, width.div_ceil(2)).unwrap(),
    }
}

/// Builds a classical circuit of one- and two-qudit gates from generated
/// specs — arity ≤ 2 by construction, so the circuit is routable without
/// any lowering.
fn build_circuit(dimension: Dimension, width: usize, specs: &[(u8, u8, u8, u8)]) -> Circuit {
    let d = dimension.get();
    let mut circuit = Circuit::new(dimension, width);
    for &(kind, a, b, level) in specs {
        let a = a as usize % width;
        let b = b as usize % width;
        let target = QuditId::new(a);
        let other = QuditId::new(if a == b { (a + 1) % width } else { b });
        let gate = match kind % 6 {
            0 => Gate::single(SingleQuditOp::Add(1 + level as u32 % (d - 1)), target),
            1 => Gate::single(
                SingleQuditOp::Swap(level as u32 % d, (level as u32 + 1) % d),
                target,
            ),
            2 if width >= 2 => Gate::controlled(
                SingleQuditOp::Add(1 + level as u32 % (d - 1)),
                target,
                vec![Control::level(other, level as u32 % d)],
            ),
            3 if width >= 2 => Gate::add_from(other, level % 2 == 0, target, vec![]),
            4 if width >= 2 => Gate::controlled(
                SingleQuditOp::Swap(0, 1 + level as u32 % (d - 1)),
                target,
                vec![Control::nonzero(other)],
            ),
            _ => Gate::single(
                SingleQuditOp::Perm(
                    qudit_core::Permutation::from_map((0..d).map(|l| (l + 1) % d).collect())
                        .unwrap(),
                ),
                target,
            ),
        };
        circuit.push(gate).unwrap();
    }
    circuit
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The routed circuit plus its inverse-permutation epilogue is
    /// equivalent to the original: `VerifyEquivalence` accepts the
    /// `"route"` stage, and the stage's
    /// output honours the coupling graph.
    #[test]
    fn routed_circuits_verify_on_every_backend_and_pool_width(
        d in prop::sample::select(vec![2u32, 3]),
        width in 3usize..=4,
        pick in 0u8..3,
        specs in prop::collection::vec((0u8..6, 0u8..8, 0u8..8, 0u8..8), 1..10),
    ) {
        let dimension = dim(d);
        let graph = graph_for(width, pick);
        // `VerifyEquivalence` requires width-stable passes, so embed the
        // circuit in the physical register first (exactly what the
        // compiler facade does before its pipeline).
        let circuit = build_circuit(dimension, width, &specs)
            .widened(graph.sites())
            .unwrap();
        let stage = RoutePass::new(graph.clone(), Arc::new(UniformCost));
        let manager = PassManager::new().with_pass(VerifyEquivalence::wrap(Box::new(stage)));
        let routed = manager
            .run(circuit)
            .unwrap_or_else(|e| panic!("routing rejected: {e}"));
        prop_assert!(validate_adjacency(&routed.circuit, &graph).is_ok());
    }

    /// Routing an already-routed circuit is a no-op: the router's fast
    /// path returns the circuit untouched.
    #[test]
    fn routing_is_idempotent_on_routed_circuits(
        d in prop::sample::select(vec![2u32, 3]),
        width in 3usize..=4,
        pick in 0u8..3,
        specs in prop::collection::vec((0u8..6, 0u8..8, 0u8..8, 0u8..8), 1..10),
    ) {
        let dimension = dim(d);
        let graph = graph_for(width, pick);
        let circuit = build_circuit(dimension, width, &specs);
        let routed = route_circuit(circuit, &graph, &NoiseAwareCost::default()).unwrap();
        let again = route_circuit(routed.clone(), &graph, &NoiseAwareCost::default()).unwrap();
        prop_assert_eq!(&again, &routed);
    }
}

/// The adjacency validator rejects hand-built violations with typed
/// errors naming the offence, and the router refuses un-lowered gates.
#[test]
fn validator_rejects_hand_built_violations() {
    let dimension = dim(3);
    let graph = CouplingGraph::linear(3).unwrap();

    // A two-qudit gate across the chain's non-edge (0, 2).
    let mut uncoupled = Circuit::new(dimension, 3);
    uncoupled
        .push(Gate::add_from(
            QuditId::new(0),
            false,
            QuditId::new(2),
            vec![],
        ))
        .unwrap();
    match validate_adjacency(&uncoupled, &graph) {
        Err(QuditError::UncoupledGate { a: 0, b: 2, .. }) => {}
        other => panic!("expected UncoupledGate {{0, 2}}, got {other:?}"),
    }
    // The router repairs exactly that violation.
    let routed = route_circuit(uncoupled.clone(), &graph, &UniformCost).unwrap();
    assert!(
        routed.len() > uncoupled.len(),
        "the non-edge forces at least one SWAP"
    );
    assert!(validate_adjacency(&routed, &graph).is_ok());

    // A three-qudit gate must be lowered before routing.
    let mut wide = Circuit::new(dimension, 3);
    wide.push(Gate::controlled(
        SingleQuditOp::Add(1),
        QuditId::new(2),
        vec![
            Control::nonzero(QuditId::new(0)),
            Control::nonzero(QuditId::new(1)),
        ],
    ))
    .unwrap();
    assert!(matches!(
        validate_adjacency(&wide, &graph),
        Err(QuditError::UnsupportedLowering { .. })
    ));
    assert!(matches!(
        route_circuit(wide, &graph, &UniformCost),
        Err(QuditError::UnsupportedLowering { .. })
    ));

    // A circuit wider than the graph is a typed size error.
    let narrow_graph = CouplingGraph::linear(2).unwrap();
    assert!(matches!(
        validate_adjacency(&uncoupled, &narrow_graph),
        Err(QuditError::TopologyTooSmall { sites: 2, .. })
    ));
}

/// Facade-level refinement of the equivalence property: a routed, fully
/// verified compile succeeds, and the compiled circuit honours the graph.
#[test]
fn routed_compiles_verify_across_backends_and_thread_counts() {
    let dimension = dim(3);
    let graph = CouplingGraph::linear(4).unwrap();
    let mut circuit = Circuit::new(dimension, 4);
    circuit
        .push(Gate::controlled(
            SingleQuditOp::Add(1),
            QuditId::new(3),
            vec![Control::level(QuditId::new(0), 2)],
        ))
        .unwrap();
    circuit
        .push(Gate::add_from(
            QuditId::new(1),
            false,
            QuditId::new(3),
            vec![],
        ))
        .unwrap();
    circuit
        .push(Gate::single(SingleQuditOp::Swap(0, 2), QuditId::new(2)))
        .unwrap();
    let result = CompileOptions::new()
        .topology(graph.clone())
        .cost(NoiseAwareCost::default())
        .verify(Verify::Exhaustive)
        .compiler()
        .compile(&circuit)
        .unwrap();
    assert!(result.verification.is_verified());
    assert!(validate_adjacency(&result.circuit, &graph).is_ok());
    assert!(result.swap_count.is_some());
    assert!(result.weighted_cost.unwrap_or(0.0) > 0.0);
}

/// Every single-rung mutation of the wire-SWAP ladder on `(0, 1)`: drop a
/// rung, flip an `AddFrom` negate flag, or exchange an `AddFrom` rung's
/// source and target.  Each comes with a label for failure messages.
fn ladder_mutations(ladder: &[Gate]) -> Vec<(String, Vec<Gate>)> {
    let mut mutations = Vec::new();
    for (rung, gate) in ladder.iter().enumerate() {
        let mut dropped = ladder.to_vec();
        dropped.remove(rung);
        mutations.push((format!("drop rung {rung}"), dropped));
        if let GateOp::AddFrom { source, negate } = *gate.op() {
            let target = gate.target();
            for (label, mutant) in [
                (
                    "flip negate",
                    Gate::add_from(source, !negate, target, vec![]),
                ),
                (
                    "exchange wires",
                    Gate::add_from(target, negate, source, vec![]),
                ),
            ] {
                let mut mutated = ladder.to_vec();
                mutated[rung] = mutant;
                mutations.push((format!("{label} on rung {rung}"), mutated));
            }
        }
    }
    mutations
}

/// Directed witness tests on the wire-SWAP ladder, after the
/// distinguishing-unitaries kata: two chosen basis inputs, |1 0⟩ and then
/// |0 1⟩, separate the correct ladder from every single-rung mutation that
/// changes its function, and `VerifyEquivalence` rejects each of those.
/// At d = 2 level negation is the identity, so dropping the negation rung
/// or flipping a negate flag leaves the function unchanged; those mutants
/// have no witness and must verify.
#[test]
fn wire_swap_mutations_have_two_input_witnesses() {
    for d in [2u32, 3, 4, 5] {
        let dimension = dim(d);
        let ladder = wire_swap(dimension, 0, 1);
        let circuit = |gates: &[Gate]| {
            let mut circuit = Circuit::new(dimension, 2);
            for gate in gates {
                circuit.push(gate.clone()).unwrap();
            }
            circuit
        };
        let correct = circuit(&ladder);
        assert_eq!(correct.apply_to_basis(&[1, 0]).unwrap(), vec![0, 1]);
        assert_eq!(correct.apply_to_basis(&[0, 1]).unwrap(), vec![1, 0]);

        let mutations = ladder_mutations(&ladder);
        assert_eq!(mutations.len(), 10, "4 drops, 3 flips, 3 exchanges");
        for (label, gates) in mutations {
            let mutant = circuit(&gates);
            let witness = [[1u32, 0], [0, 1]].into_iter().find(|input| {
                mutant.apply_to_basis(input).unwrap() != correct.apply_to_basis(input).unwrap()
            });
            let negation_no_op = d == 2 && (label == "drop rung 3" || label.starts_with("flip"));
            assert_eq!(witness.is_none(), negation_no_op, "d={d}, {label}");

            let replay = mutant.clone();
            let manager = PassManager::new().with_pass(VerifyEquivalence::wrap(Box::new(pass_fn(
                "mutate",
                move |_| Ok(replay.clone()),
            ))));
            match manager.run(correct.clone()) {
                Ok(_) => assert!(negation_no_op, "d={d}, {label}: mutant verified"),
                Err(QuditError::PassFailed { pass, reason }) => {
                    assert!(!negation_no_op, "d={d}, {label}: no-op rejected");
                    assert_eq!(pass, "mutate");
                    assert!(reason.contains("not equivalent"), "{reason}");
                }
                Err(other) => panic!("d={d}, {label}: unexpected error {other:?}"),
            }
        }
    }
}
