//! Pinned verdicts of the three k-Toffoli specification checkers
//! (`verify_mct_exhaustive`, `verify_mct_sampled`,
//! `verify_mct_with_clean_ancilla`).
//!
//! Each checker runs on the G-gate lowering of a k-Toffoli, widened by one
//! idle wire, both intact and with one gate dropped.  The expected values
//! below are the exact `Verification`s, witnesses included, and, for the
//! sampled checker, the caller's next RNG draw after the check (so the draw
//! sequence is pinned too).  They were recorded from the per-state checkers
//! before the checkers moved onto the `BasisBatch` witness search; any
//! change to them is a behaviour change.

use qudit_core::{Circuit, Control, Dimension, Gate, QuditError, QuditId, SingleQuditOp};
use qudit_sim::equivalence::{
    verify_mct_exhaustive, verify_mct_sampled, verify_mct_with_clean_ancilla, MctSpec,
};
use qudit_synthesis::KToffoli;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `(d, k)`; the register is `k + 2` qudits wide.  Spans odd and even `d`
/// and registers from 243 to 7 776 basis states (one and two kernel
/// blocks).
const CASES: [(u32, usize); 5] = [(3, 3), (4, 4), (5, 3), (3, 5), (6, 3)];

/// The lowered k-Toffoli on `k + 2` wires and its specification.
fn lowered_toffoli(d: u32, k: usize) -> (Circuit, MctSpec) {
    let dimension = Dimension::new(d).unwrap();
    let synthesis = KToffoli::new(dimension, k).unwrap().synthesize().unwrap();
    let circuit = synthesis.g_gate_circuit().unwrap().widened(k + 2).unwrap();
    let layout = synthesis.layout();
    (
        circuit,
        MctSpec::toffoli(layout.controls.clone(), layout.target),
    )
}

/// `circuit` without its gate at `index`.
fn without_gate(circuit: &Circuit, index: usize) -> Circuit {
    let mut broken = Circuit::new(circuit.dimension(), circuit.width());
    for gate in circuit.gates()[..index]
        .iter()
        .chain(&circuit.gates()[index + 1..])
    {
        broken.push(gate.clone()).unwrap();
    }
    broken
}

/// `circuit` followed by an `X+1` on the last wire that fires only when
/// qudits 0 and 1 are both at level `d − 1`, so the first witness in basis
/// order lies late in the sweep (in the second kernel block at `d = 6`).
fn with_late_flip(circuit: &Circuit) -> Circuit {
    let top = circuit.dimension().get() - 1;
    let mut flipped = circuit.clone();
    flipped
        .push(Gate::controlled(
            SingleQuditOp::Add(1),
            QuditId::new(circuit.width() - 1),
            vec![
                Control::level(QuditId::new(0), top),
                Control::level(QuditId::new(1), top),
            ],
        ))
        .unwrap();
    flipped
}

/// Every checked value as `(label, Debug rendering)`, in a fixed order.
fn observed() -> Vec<(String, String)> {
    let mut values = Vec::new();
    for (d, k) in CASES {
        let (intact, spec) = lowered_toffoli(d, k);
        let len = intact.len();
        let variants = [
            ("intact".to_string(), intact.clone()),
            (format!("drop {}", len / 4), without_gate(&intact, len / 4)),
            (format!("drop {}", len / 2), without_gate(&intact, len / 2)),
            ("late flip".to_string(), with_late_flip(&intact)),
        ];
        let clean = QuditId::new(k + 1);
        for (variant, circuit) in &variants {
            let label = |check: &str| format!("d={d} k={k} {variant}: {check}");
            let verdict = verify_mct_exhaustive(circuit, &spec).unwrap();
            values.push((label("exhaustive"), format!("{verdict:?}")));
            for (seed, samples) in [(1u64, 200usize), (2, 5000)] {
                let mut rng = StdRng::seed_from_u64(seed);
                let verdict = verify_mct_sampled(circuit, &spec, samples, &mut rng).unwrap();
                let next: u32 = rng.gen_range(0..u32::MAX);
                values.push((
                    label(&format!("sampled seed={seed} n={samples}")),
                    format!("{verdict:?} then {next}"),
                ));
            }
            let verdict = verify_mct_with_clean_ancilla(circuit, &spec, clean).unwrap();
            values.push((label("clean ancilla"), format!("{verdict:?}")));
        }
    }
    values
}

/// The values the per-state checkers produced, in [`observed`] order.
const PINNED: &[(&str, &str)] = &[
    ("d=3 k=3 intact: exhaustive", "Pass { inputs_checked: 243 }"),
    ("d=3 k=3 intact: sampled seed=1 n=200", "Pass { inputs_checked: 200 } then 4236234623"),
    ("d=3 k=3 intact: sampled seed=2 n=5000", "Pass { inputs_checked: 5000 } then 4007038012"),
    ("d=3 k=3 intact: clean ancilla", "Pass { inputs_checked: 81 }"),
    ("d=3 k=3 drop 129: exhaustive", "Fail { input: [0, 0, 0, 0, 0], expected: [0, 0, 0, 1, 0], actual: [0, 2, 0, 0, 0] }"),
    ("d=3 k=3 drop 129: sampled seed=1 n=200", "Fail { input: [0, 0, 0, 2, 0], expected: [0, 0, 0, 2, 0], actual: [0, 2, 0, 2, 0] } then 4236234623"),
    ("d=3 k=3 drop 129: sampled seed=2 n=5000", "Fail { input: [0, 0, 0, 0, 1], expected: [0, 0, 0, 1, 1], actual: [0, 2, 0, 0, 1] } then 4007038012"),
    ("d=3 k=3 drop 129: clean ancilla", "Fail { input: [0, 0, 0, 0, 0], expected: [0, 0, 0, 1, 0], actual: [0, 2, 0, 0, 0] }"),
    ("d=3 k=3 drop 259: exhaustive", "Fail { input: [0, 0, 0, 0, 0], expected: [0, 0, 0, 1, 0], actual: [0, 1, 0, 1, 0] }"),
    ("d=3 k=3 drop 259: sampled seed=1 n=200", "Fail { input: [0, 0, 0, 2, 0], expected: [0, 0, 0, 2, 0], actual: [0, 1, 0, 2, 0] } then 4236234623"),
    ("d=3 k=3 drop 259: sampled seed=2 n=5000", "Fail { input: [0, 0, 0, 0, 1], expected: [0, 0, 0, 1, 1], actual: [0, 1, 0, 1, 1] } then 4007038012"),
    ("d=3 k=3 drop 259: clean ancilla", "Fail { input: [0, 0, 0, 0, 0], expected: [0, 0, 0, 1, 0], actual: [0, 1, 0, 1, 0] }"),
    ("d=3 k=3 late flip: exhaustive", "Fail { input: [2, 2, 0, 0, 0], expected: [2, 2, 0, 0, 0], actual: [2, 2, 0, 0, 1] }"),
    ("d=3 k=3 late flip: sampled seed=1 n=200", "Fail { input: [2, 2, 2, 0, 2], expected: [2, 2, 2, 0, 2], actual: [2, 2, 2, 0, 0] } then 4236234623"),
    ("d=3 k=3 late flip: sampled seed=2 n=5000", "Fail { input: [2, 2, 2, 0, 2], expected: [2, 2, 2, 0, 2], actual: [2, 2, 2, 0, 0] } then 4007038012"),
    ("d=3 k=3 late flip: clean ancilla", "Fail { input: [2, 2, 0, 0, 0], expected: [2, 2, 0, 0, 0], actual: [2, 2, 0, 0, 1] }"),
    ("d=4 k=4 intact: exhaustive", "Pass { inputs_checked: 4096 }"),
    ("d=4 k=4 intact: sampled seed=1 n=200", "Pass { inputs_checked: 200 } then 457261132"),
    ("d=4 k=4 intact: sampled seed=2 n=5000", "Pass { inputs_checked: 5000 } then 2728217381"),
    ("d=4 k=4 intact: clean ancilla", "Pass { inputs_checked: 1024 }"),
    ("d=4 k=4 drop 602: exhaustive", "Fail { input: [0, 0, 0, 0, 0, 0], expected: [0, 0, 0, 0, 1, 0], actual: [1, 1, 1, 0, 1, 3] }"),
    ("d=4 k=4 drop 602: sampled seed=1 n=200", "Fail { input: [0, 0, 0, 0, 1, 0], expected: [0, 0, 0, 0, 0, 0], actual: [1, 1, 1, 0, 0, 3] } then 457261132"),
    ("d=4 k=4 drop 602: sampled seed=2 n=5000", "Fail { input: [0, 0, 0, 0, 1, 3], expected: [0, 0, 0, 0, 0, 3], actual: [0, 1, 1, 0, 1, 2] } then 2728217381"),
    ("d=4 k=4 drop 602: clean ancilla", "Fail { input: [0, 0, 0, 0, 0, 0], expected: [0, 0, 0, 0, 1, 0], actual: [1, 1, 1, 0, 1, 3] }"),
    ("d=4 k=4 drop 1204: exhaustive", "Fail { input: [0, 0, 0, 0, 0, 0], expected: [0, 0, 0, 0, 1, 0], actual: [0, 1, 0, 0, 0, 1] }"),
    ("d=4 k=4 drop 1204: sampled seed=1 n=200", "Fail { input: [0, 0, 0, 0, 1, 0], expected: [0, 0, 0, 0, 0, 0], actual: [0, 1, 0, 0, 1, 1] } then 457261132"),
    ("d=4 k=4 drop 1204: sampled seed=2 n=5000", "Fail { input: [0, 0, 0, 0, 1, 3], expected: [0, 0, 0, 0, 0, 3], actual: [0, 1, 0, 0, 1, 2] } then 2728217381"),
    ("d=4 k=4 drop 1204: clean ancilla", "Fail { input: [0, 0, 0, 0, 0, 0], expected: [0, 0, 0, 0, 1, 0], actual: [0, 1, 0, 0, 0, 1] }"),
    ("d=4 k=4 late flip: exhaustive", "Fail { input: [3, 3, 0, 0, 0, 0], expected: [3, 3, 0, 0, 0, 0], actual: [3, 3, 0, 0, 0, 1] }"),
    ("d=4 k=4 late flip: sampled seed=1 n=200", "Fail { input: [3, 3, 1, 1, 1, 0], expected: [3, 3, 1, 1, 1, 0], actual: [3, 3, 1, 1, 1, 1] } then 457261132"),
    ("d=4 k=4 late flip: sampled seed=2 n=5000", "Fail { input: [3, 3, 0, 2, 1, 0], expected: [3, 3, 0, 2, 1, 0], actual: [3, 3, 0, 2, 1, 1] } then 2728217381"),
    ("d=4 k=4 late flip: clean ancilla", "Fail { input: [3, 3, 0, 0, 0, 0], expected: [3, 3, 0, 0, 0, 0], actual: [3, 3, 0, 0, 0, 1] }"),
    ("d=5 k=3 intact: exhaustive", "Pass { inputs_checked: 3125 }"),
    ("d=5 k=3 intact: sampled seed=1 n=200", "Pass { inputs_checked: 200 } then 4236234623"),
    ("d=5 k=3 intact: sampled seed=2 n=5000", "Pass { inputs_checked: 5000 } then 4007038012"),
    ("d=5 k=3 intact: clean ancilla", "Pass { inputs_checked: 625 }"),
    ("d=5 k=3 drop 690: exhaustive", "Fail { input: [0, 0, 3, 0, 0], expected: [0, 0, 3, 0, 0], actual: [0, 0, 4, 0, 0] }"),
    ("d=5 k=3 drop 690: sampled seed=1 n=200", "Fail { input: [0, 0, 3, 1, 3], expected: [0, 0, 3, 1, 3], actual: [0, 0, 4, 1, 3] } then 4236234623"),
    ("d=5 k=3 drop 690: sampled seed=2 n=5000", "Fail { input: [0, 1, 3, 4, 1], expected: [0, 1, 3, 4, 1], actual: [0, 1, 2, 4, 1] } then 4007038012"),
    ("d=5 k=3 drop 690: clean ancilla", "Fail { input: [0, 0, 3, 0, 0], expected: [0, 0, 3, 0, 0], actual: [0, 0, 4, 0, 0] }"),
    ("d=5 k=3 drop 1381: exhaustive", "Fail { input: [0, 0, 0, 0, 0], expected: [0, 0, 0, 1, 0], actual: [0, 1, 0, 1, 0] }"),
    ("d=5 k=3 drop 1381: sampled seed=1 n=200", "Fail { input: [0, 0, 0, 0, 1], expected: [0, 0, 0, 1, 1], actual: [0, 1, 0, 1, 1] } then 4236234623"),
    ("d=5 k=3 drop 1381: sampled seed=2 n=5000", "Fail { input: [0, 0, 0, 1, 4], expected: [0, 0, 0, 0, 4], actual: [0, 1, 0, 0, 4] } then 4007038012"),
    ("d=5 k=3 drop 1381: clean ancilla", "Fail { input: [0, 0, 0, 0, 0], expected: [0, 0, 0, 1, 0], actual: [0, 1, 0, 1, 0] }"),
    ("d=5 k=3 late flip: exhaustive", "Fail { input: [4, 4, 0, 0, 0], expected: [4, 4, 0, 0, 0], actual: [4, 4, 0, 0, 1] }"),
    ("d=5 k=3 late flip: sampled seed=1 n=200", "Fail { input: [4, 4, 4, 1, 2], expected: [4, 4, 4, 1, 2], actual: [4, 4, 4, 1, 3] } then 4236234623"),
    ("d=5 k=3 late flip: sampled seed=2 n=5000", "Fail { input: [4, 4, 4, 4, 1], expected: [4, 4, 4, 4, 1], actual: [4, 4, 4, 4, 2] } then 4007038012"),
    ("d=5 k=3 late flip: clean ancilla", "Fail { input: [4, 4, 0, 0, 0], expected: [4, 4, 0, 0, 0], actual: [4, 4, 0, 0, 1] }"),
    ("d=3 k=5 intact: exhaustive", "Pass { inputs_checked: 2187 }"),
    ("d=3 k=5 intact: sampled seed=1 n=200", "Pass { inputs_checked: 200 } then 3728443929"),
    ("d=3 k=5 intact: sampled seed=2 n=5000", "Pass { inputs_checked: 5000 } then 3024131623"),
    ("d=3 k=5 intact: clean ancilla", "Pass { inputs_checked: 729 }"),
    ("d=3 k=5 drop 730: exhaustive", "Fail { input: [0, 0, 0, 0, 0, 0, 0], expected: [0, 0, 0, 0, 0, 1, 0], actual: [0, 0, 2, 0, 0, 0, 0] }"),
    ("d=3 k=5 drop 730: sampled seed=1 n=200", "Fail { input: [0, 0, 0, 0, 0, 2, 0], expected: [0, 0, 0, 0, 0, 2, 0], actual: [0, 0, 2, 0, 0, 2, 0] } then 3728443929"),
    ("d=3 k=5 drop 730: sampled seed=2 n=5000", "Fail { input: [0, 0, 0, 0, 0, 0, 2], expected: [0, 0, 0, 0, 0, 1, 2], actual: [0, 0, 2, 0, 0, 0, 2] } then 3024131623"),
    ("d=3 k=5 drop 730: clean ancilla", "Fail { input: [0, 0, 0, 0, 0, 0, 0], expected: [0, 0, 0, 0, 0, 1, 0], actual: [0, 0, 2, 0, 0, 0, 0] }"),
    ("d=3 k=5 drop 1461: exhaustive", "Fail { input: [0, 0, 0, 0, 0, 0, 0], expected: [0, 0, 0, 0, 0, 1, 0], actual: [0, 0, 0, 1, 0, 1, 0] }"),
    ("d=3 k=5 drop 1461: sampled seed=1 n=200", "Fail { input: [0, 0, 0, 0, 0, 2, 0], expected: [0, 0, 0, 0, 0, 2, 0], actual: [0, 0, 0, 1, 0, 2, 0] } then 3728443929"),
    ("d=3 k=5 drop 1461: sampled seed=2 n=5000", "Fail { input: [0, 0, 0, 0, 0, 0, 2], expected: [0, 0, 0, 0, 0, 1, 2], actual: [0, 0, 0, 1, 0, 1, 2] } then 3024131623"),
    ("d=3 k=5 drop 1461: clean ancilla", "Fail { input: [0, 0, 0, 0, 0, 0, 0], expected: [0, 0, 0, 0, 0, 1, 0], actual: [0, 0, 0, 1, 0, 1, 0] }"),
    ("d=3 k=5 late flip: exhaustive", "Fail { input: [2, 2, 0, 0, 0, 0, 0], expected: [2, 2, 0, 0, 0, 0, 0], actual: [2, 2, 0, 0, 0, 0, 1] }"),
    ("d=3 k=5 late flip: sampled seed=1 n=200", "Fail { input: [2, 2, 0, 1, 0, 2, 1], expected: [2, 2, 0, 1, 0, 2, 1], actual: [2, 2, 0, 1, 0, 2, 2] } then 3728443929"),
    ("d=3 k=5 late flip: sampled seed=2 n=5000", "Fail { input: [2, 2, 1, 0, 0, 2, 1], expected: [2, 2, 1, 0, 0, 2, 1], actual: [2, 2, 1, 0, 0, 2, 2] } then 3024131623"),
    ("d=3 k=5 late flip: clean ancilla", "Fail { input: [2, 2, 0, 0, 0, 0, 0], expected: [2, 2, 0, 0, 0, 0, 0], actual: [2, 2, 0, 0, 0, 0, 1] }"),
    ("d=6 k=3 intact: exhaustive", "Pass { inputs_checked: 7776 }"),
    ("d=6 k=3 intact: sampled seed=1 n=200", "Pass { inputs_checked: 200 } then 4236234623"),
    ("d=6 k=3 intact: sampled seed=2 n=5000", "Pass { inputs_checked: 5000 } then 4007038012"),
    ("d=6 k=3 intact: clean ancilla", "Pass { inputs_checked: 1296 }"),
    ("d=6 k=3 drop 363: exhaustive", "Fail { input: [0, 0, 4, 0, 0], expected: [0, 0, 4, 0, 0], actual: [0, 0, 5, 0, 0] }"),
    ("d=6 k=3 drop 363: sampled seed=1 n=200", "Fail { input: [0, 0, 4, 1, 3], expected: [0, 0, 4, 1, 3], actual: [0, 0, 5, 1, 3] } then 4236234623"),
    ("d=6 k=3 drop 363: sampled seed=2 n=5000", "Fail { input: [0, 0, 5, 5, 5], expected: [0, 0, 5, 5, 5], actual: [0, 0, 4, 5, 5] } then 4007038012"),
    ("d=6 k=3 drop 363: clean ancilla", "Fail { input: [0, 0, 4, 0, 0], expected: [0, 0, 4, 0, 0], actual: [0, 0, 5, 0, 0] }"),
    ("d=6 k=3 drop 726: exhaustive", "Fail { input: [0, 0, 0, 0, 0], expected: [0, 0, 0, 1, 0], actual: [0, 1, 0, 0, 1] }"),
    ("d=6 k=3 drop 726: sampled seed=1 n=200", "Fail { input: [0, 0, 0, 5, 3], expected: [0, 0, 0, 5, 3], actual: [0, 1, 0, 5, 2] } then 4236234623"),
    ("d=6 k=3 drop 726: sampled seed=2 n=5000", "Fail { input: [0, 0, 0, 0, 1], expected: [0, 0, 0, 1, 1], actual: [0, 1, 0, 0, 0] } then 4007038012"),
    ("d=6 k=3 drop 726: clean ancilla", "Fail { input: [0, 0, 0, 0, 0], expected: [0, 0, 0, 1, 0], actual: [0, 1, 0, 0, 1] }"),
    ("d=6 k=3 late flip: exhaustive", "Fail { input: [5, 5, 0, 0, 0], expected: [5, 5, 0, 0, 0], actual: [5, 5, 0, 0, 1] }"),
    ("d=6 k=3 late flip: sampled seed=1 n=200", "Fail { input: [5, 5, 1, 5, 3], expected: [5, 5, 1, 5, 3], actual: [5, 5, 1, 5, 4] } then 4236234623"),
    ("d=6 k=3 late flip: sampled seed=2 n=5000", "Fail { input: [5, 5, 5, 0, 5], expected: [5, 5, 5, 0, 5], actual: [5, 5, 5, 0, 0] } then 4007038012"),
    ("d=6 k=3 late flip: clean ancilla", "Fail { input: [5, 5, 0, 0, 0], expected: [5, 5, 0, 0, 0], actual: [5, 5, 0, 0, 1] }"),
];

#[test]
fn checkers_reproduce_the_pinned_verdicts() {
    let observed = observed();
    assert_eq!(observed.len(), PINNED.len());
    for ((label, value), (pinned_label, pinned_value)) in observed.iter().zip(PINNED) {
        assert_eq!(label, pinned_label);
        assert_eq!(value, pinned_value, "{label}");
    }
}

fn assert_out_of_range<T: std::fmt::Debug>(result: qudit_core::Result<T>) {
    assert!(
        matches!(
            result,
            Err(QuditError::QuditOutOfRange { qudit: 5, width: 3 })
        ),
        "{result:?}"
    );
}

/// A specification naming a qudit outside the register is a typed error on
/// every checker, never a panic.
#[test]
fn specs_outside_the_register_are_typed_errors() {
    let (circuit, _) = lowered_toffoli(3, 1);
    let outside = MctSpec::toffoli(vec![QuditId::new(0), QuditId::new(5)], QuditId::new(1));
    assert_out_of_range(verify_mct_exhaustive(&circuit, &outside));
    let mut rng = StdRng::seed_from_u64(1);
    assert_out_of_range(verify_mct_sampled(&circuit, &outside, 16, &mut rng));
    assert_out_of_range(verify_mct_with_clean_ancilla(
        &circuit,
        &outside,
        QuditId::new(2),
    ));
    assert_out_of_range(outside.expected_output(&[0, 0, 0], circuit.dimension()));
}
