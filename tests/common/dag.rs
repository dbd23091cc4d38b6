//! The explicit-DAG reference the scheduler suite pins
//! `qudit_core::commute::schedule_depth` against: list scheduling over a
//! materialised dependency DAG, built pair by pair with the public oracle
//! and none of the fused scan's run merging or early exits.

use qudit_core::commute::gates_commute;
use qudit_core::{Circuit, Gate};

/// The dependency DAG of a circuit under the commutation oracle.
///
/// Nodes are gate indices (in circuit order); an edge `i → j` (always with
/// `i < j`) records that gates `i` and `j` share a qudit and the oracle
/// could not prove them commuting, so any semantics-preserving reordering
/// must keep `i` before `j`.
pub struct DependencyDag {
    /// `preds[j]` lists every `i < j` with an edge `i → j`, wire by wire.
    /// The O2 k-Toffolis reach ~41M edges, so each list is an exactly
    /// sized slice of `u32` indices.
    preds: Vec<Box<[u32]>>,
}

impl DependencyDag {
    /// Builds the DAG.
    pub fn build(circuit: &Circuit) -> Self {
        let gates = circuit.gates();
        let dimension = circuit.dimension();
        // The oracle is a pure function of the two gates, and compiled
        // circuits repeat a few hundred distinct gates thousands of times, so
        // each ordered pair of distinct gates is asked once.
        let mut distinct: Vec<&Gate> = Vec::new();
        let ids: Vec<usize> = gates
            .iter()
            .map(|gate| {
                distinct
                    .iter()
                    .position(|&seen| seen == gate)
                    .unwrap_or_else(|| {
                        distinct.push(gate);
                        distinct.len() - 1
                    })
            })
            .collect();
        let mut verdicts: Vec<Option<bool>> = vec![None; distinct.len() * distinct.len()];
        let mut commute = |i: usize, j: usize| {
            *verdicts[ids[i] * distinct.len() + ids[j]]
                .get_or_insert_with(|| gates_commute(dimension, &gates[i], &gates[j]))
        };
        // Only wire-sharing pairs can fail to commute, so each gate scans
        // just the earlier gates on its wires.  Every one is tested:
        // pairwise commutation is not transitive, so stopping a wire scan at
        // the first blocker would drop dependencies hidden behind it.
        let mut wire_gates: Vec<Vec<usize>> = vec![Vec::new(); circuit.width()];
        // `tested[i] == j + 1` once gate i was tested against gate j.
        let mut tested = vec![0usize; gates.len()];
        let mut preds = Vec::with_capacity(gates.len());
        let mut blockers = Vec::new();
        for (j, gate) in gates.iter().enumerate() {
            blockers.clear();
            for q in gate.support() {
                for &i in &wire_gates[q.index()] {
                    if tested[i] != j + 1 {
                        tested[i] = j + 1;
                        if !commute(i, j) {
                            blockers.push(u32::try_from(i).expect("gate indices fit in u32"));
                        }
                    }
                }
            }
            for q in gate.support() {
                wire_gates[q.index()].push(j);
            }
            preds.push(Box::<[u32]>::from(blockers.as_slice()));
        }
        DependencyDag { preds }
    }

    /// The dependency predecessors of gate `j`, each once, in no set order.
    pub fn predecessors(&self, j: usize) -> Vec<usize> {
        self.preds[j].iter().map(|&i| i as usize).collect()
    }
}

/// A scheduled circuit plus the layer assignment that witnesses its depth.
pub struct Schedule {
    /// The reordered circuit (gates sorted by layer, ties in input order).
    pub circuit: Circuit,
    /// `layers[i]` is the 1-based layer of the i-th gate **of the scheduled
    /// circuit**.
    pub layers: Vec<usize>,
}

/// Schedules a circuit over its [`DependencyDag`]: each gate, in circuit
/// order, takes the earliest layer after all of its predecessors in which
/// every one of its wires is still free (first-fit).
pub fn schedule_over(circuit: &Circuit, dag: &DependencyDag) -> Schedule {
    let gates = circuit.gates();
    let mut layer = vec![0usize; gates.len()];
    // `busy[q][l]` is set when wire q is occupied in layer l.
    let mut busy: Vec<Vec<bool>> = vec![Vec::new(); circuit.width()];
    for (j, gate) in gates.iter().enumerate() {
        let mut slot = 1 + dag.preds[j]
            .iter()
            .map(|&i| layer[i as usize])
            .max()
            .unwrap_or(0);
        while gate
            .support()
            .any(|q| busy[q.index()].get(slot).copied().unwrap_or(false))
        {
            slot += 1;
        }
        for q in gate.support() {
            let wire = &mut busy[q.index()];
            if wire.len() <= slot {
                wire.resize(slot + 1, false);
            }
            wire[slot] = true;
        }
        layer[j] = slot;
    }
    let mut order: Vec<usize> = (0..gates.len()).collect();
    order.sort_by_key(|&j| layer[j]);
    let scheduled = order.iter().map(|&j| gates[j].clone()).collect();
    Schedule {
        circuit: Circuit::from_gates(circuit.dimension(), circuit.width(), scheduled)
            .expect("a reordering of valid gates is valid"),
        layers: order.iter().map(|&j| layer[j]).collect(),
    }
}
