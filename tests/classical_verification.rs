//! Directed negative tests for the classical `VerifyEquivalence` paths.
//!
//! A pass that drops one middle gate of a lowered (non-palindromic)
//! k-Toffoli must be rejected with an exact `PassFailed` message.  The
//! basis-state witness is the first mismatching state in basis order on the
//! exhaustive path (whether the sweep runs sequentially or fans out over a
//! pool) and the first in draw order on the sampled path.  The messages
//! below are pinned byte-for-byte.

use qudit_core::pipeline::{pass_fn, Pass, PassManager};
use qudit_core::pool::WorkStealingPool;
use qudit_core::{Circuit, Control, Dimension, Gate, QuditError, QuditId, SingleQuditOp};
use qudit_sim::VerifyEquivalence;
use qudit_synthesis::{CompileOptions, KToffoli};

/// The G-gate lowering of the `(d, k = 4)` k-Toffoli on a width-6 register
/// (4 096 basis states at d = 4, exhaustive; 15 625 at d = 5, sampled).
fn lowered_toffoli(d: u32) -> Circuit {
    let dimension = Dimension::new(d).unwrap();
    let synthesis = KToffoli::new(dimension, 4).unwrap().synthesize().unwrap();
    let lowered = CompileOptions::new()
        .shape(dimension, 6)
        .compiler()
        .compile(&synthesis.circuit().widened(6).unwrap())
        .unwrap()
        .circuit;
    let mut reversed = lowered.gates().to_vec();
    reversed.reverse();
    assert_ne!(
        lowered.gates(),
        reversed.as_slice(),
        "workload must not be a palindrome"
    );
    lowered
}

/// A pass that drops the first controlled gate at or after the middle of
/// its input.
fn drop_middle_gate() -> impl Pass {
    pass_fn("drop-middle", |c: Circuit| {
        let middle = (c.len() / 2..c.len())
            .find(|&i| !c.gates()[i].controls().is_empty())
            .expect("a controlled gate after the middle");
        let mut broken = Circuit::new(c.dimension(), c.width());
        for (i, gate) in c.gates().iter().enumerate() {
            if i != middle {
                broken.push(gate.clone())?;
            }
        }
        Ok(broken)
    })
}

/// Runs a verified pass (optionally on a pinned pool) and returns its
/// `PassFailed` error as `"<pass>: <reason>"`.
fn failure(
    circuit: Circuit,
    verified: VerifyEquivalence,
    pool: Option<WorkStealingPool>,
) -> String {
    let mut manager = PassManager::new().with_pass(verified);
    if let Some(pool) = pool {
        manager = manager.with_pool(pool);
    }
    match manager.run(circuit) {
        Err(QuditError::PassFailed { pass, reason }) => format!("{pass}: {reason}"),
        other => panic!("expected PassFailed, got {other:?}"),
    }
}

fn pools() -> [Option<WorkStealingPool>; 3] {
    [
        None,
        Some(WorkStealingPool::with_threads(1)),
        Some(WorkStealingPool::with_threads(4)),
    ]
}

#[test]
fn exhaustive_path_pins_the_first_witness_in_basis_order() {
    let circuit = lowered_toffoli(4);
    for pool in pools() {
        let verified = VerifyEquivalence::wrap(Box::new(drop_middle_gate()));
        assert_eq!(
            failure(circuit.clone(), verified, pool),
            "drop-middle: output circuit is not equivalent to its input (basis state [0, 1, 0, 0, 0, 0])"
        );
    }
}

#[test]
fn sampled_path_pins_the_first_witness_in_draw_order() {
    let circuit = lowered_toffoli(5);
    for pool in pools() {
        let verified = VerifyEquivalence::wrap(Box::new(drop_middle_gate()));
        assert_eq!(
            failure(circuit.clone(), verified, pool),
            "drop-middle: output circuit is not equivalent to its input (basis state [2, 1, 0, 0, 0, 1])"
        );
    }
}

#[test]
fn exhaustive_witness_is_the_earliest_across_blocks() {
    // Two appended gates fire on far-apart basis states of a 15 625-state
    // register; the earlier one in basis order must win however the sweep
    // is split.
    let circuit = lowered_toffoli(5);
    let fires_on = |levels: &[u32]| {
        let controls = levels
            .iter()
            .enumerate()
            .map(|(q, &l)| Control::level(QuditId::new(q), l))
            .collect();
        Gate::controlled(SingleQuditOp::Swap(0, 1), QuditId::new(5), controls)
    };
    let extra = [fires_on(&[4, 4, 4, 4, 4]), fires_on(&[2, 3])];
    for pool in pools() {
        let extra = extra.clone();
        let append = pass_fn("append-late", move |mut c: Circuit| {
            for gate in &extra {
                c.push(gate.clone())?;
            }
            Ok(c)
        });
        let verified = VerifyEquivalence::wrap(Box::new(append)).with_limits(1 << 14, 256);
        assert_eq!(
            failure(circuit.clone(), verified, pool),
            "append-late: output circuit is not equivalent to its input (basis state [2, 3, 0, 0, 0, 0])"
        );
    }
}

#[test]
fn wide_lane_sampled_path_pins_its_witness() {
    // d = 300 does not fit a byte lane; 90 000 states take the sampled path.
    let dimension = Dimension::new(300).unwrap();
    let mut circuit = Circuit::new(dimension, 2);
    for l in 0..8u32 {
        let a = QuditId::new((l % 2) as usize);
        let b = QuditId::new(1 - (l % 2) as usize);
        let control = [
            Control::odd(a),
            Control::nonzero(a),
            Control::even_nonzero(a),
        ];
        let op = match l % 2 {
            0 => SingleQuditOp::Add(37 * l + 1),
            _ => SingleQuditOp::Swap(l, 299 - l),
        };
        circuit
            .push(Gate::controlled(op, b, vec![control[(l % 3) as usize]]))
            .unwrap();
        circuit
            .push(Gate::add_from(a, l % 3 == 0, b, vec![]))
            .unwrap();
    }
    for pool in pools() {
        let verified = VerifyEquivalence::wrap(Box::new(drop_middle_gate()));
        assert_eq!(
            failure(circuit.clone(), verified, pool),
            "drop-middle: output circuit is not equivalent to its input (basis state [33, 186])"
        );
    }
}
