//! The exact `Display` text of every builder refusal that no golden pins.
//!
//! The expressibility golden and the `corpus/invalid` diagnostics pin what
//! the compile facade reports; this table pins what the synthesis builders,
//! gadgets, ladders and the downstream synthesisers say when they are handed
//! parameters they cannot build, byte for byte.

use std::fmt::Display;

use qudit_baselines::CleanAncillaMct;
use qudit_core::{Circuit, Control, Dimension, QuditId, SingleQuditOp};
use qudit_reversible::ReversibleSynthesizer;
use qudit_synthesis::ladders::parity_ladder_even;
use qudit_synthesis::mct_odd::mct_odd_gates;
use qudit_synthesis::pk::pk_gates_borrowed;
use qudit_synthesis::{emit_multi_controlled, ControlledUnitary, KToffoli, MultiControlledGate};
use qudit_unitary::UnitarySynthesizer;

fn dim(d: u32) -> Dimension {
    Dimension::new(d).unwrap()
}

fn qudits(range: std::ops::Range<usize>) -> Vec<QuditId> {
    range.map(QuditId::new).collect()
}

/// The text of the error `result` must hold.
fn refusal<T, E: Display>(result: Result<T, E>) -> String {
    match result {
        Ok(_) => panic!("expected a refusal"),
        Err(error) => error.to_string(),
    }
}

#[test]
fn builder_refusals_keep_their_texts() {
    let too_small = "qudit dimension 2 is too small; the synthesis requires d ≥ 3";
    let not_classical =
        "target operation must be a classical level permutation for this construction";
    let x01 = || SingleQuditOp::Swap(0, 1);
    let zero_controls =
        |n: usize| -> Vec<Control> { qudits(0..n).into_iter().map(Control::zero).collect() };

    let cases: Vec<(&str, String, &str)> = vec![
        ("KToffoli::new at d = 2", refusal(KToffoli::new(dim(2), 3)), too_small),
        (
            "MultiControlledGate::new at d = 2",
            refusal(MultiControlledGate::new(dim(2), 3, x01())),
            too_small,
        ),
        (
            "MultiControlledGate::new with fourier",
            refusal(MultiControlledGate::new(dim(3), 2, SingleQuditOp::fourier(dim(3)))),
            not_classical,
        ),
        (
            "emit_multi_controlled at even d without a borrowed wire",
            refusal(emit_multi_controlled(
                &mut Circuit::new(dim(4), 3),
                &[(QuditId::new(0), 0), (QuditId::new(1), 0)],
                QuditId::new(2),
                &x01(),
                &[],
            )),
            "even dimension d = 4 requires one borrowed ancilla qudit for the multi-controlled Toffoli",
        ),
        (
            "ControlledUnitary::new at d = 2",
            refusal(ControlledUnitary::new(dim(2), 2, x01())),
            too_small,
        ),
        (
            "CleanAncillaMct::new at d = 2",
            refusal(CleanAncillaMct::new(dim(2), 3, x01())),
            too_small,
        ),
        (
            "CleanAncillaMct::new with fourier",
            refusal(CleanAncillaMct::new(dim(3), 3, SingleQuditOp::fourier(dim(3)))),
            not_classical,
        ),
        (
            "ReversibleSynthesizer::new at d = 2",
            refusal(ReversibleSynthesizer::new(dim(2))),
            too_small,
        ),
        (
            "UnitarySynthesizer::new at d = 2",
            refusal(UnitarySynthesizer::new(dim(2))),
            too_small,
        ),
        (
            "parity_ladder_even at odd d",
            refusal(parity_ladder_even(
                dim(3),
                &zero_controls(3),
                QuditId::new(3),
                &x01(),
                &[],
            )),
            "cannot lower gate: the parity ladder (Fig. 3) requires an even dimension",
        ),
        (
            "mct_odd_gates at even d",
            refusal(mct_odd_gates(dim(4), &qudits(0..3), QuditId::new(3), 0, 1)),
            "cannot lower gate: Fig. 10 requires an odd dimension; use the even-dimension construction",
        ),
        (
            "parity_ladder_even with too few ancillas",
            refusal(parity_ladder_even(
                dim(4),
                &zero_controls(4),
                QuditId::new(4),
                &x01(),
                &qudits(5..6),
            )),
            "construction needs 2 ancilla qudits but only 1 are available",
        ),
        (
            "pk_gates_borrowed with too few ancillas",
            refusal(pk_gates_borrowed(dim(3), &qudits(0..4), QuditId::new(4), &[])),
            "construction needs 3 ancilla qudits but only 0 are available",
        ),
    ];
    for (case, actual, expected) in cases {
        assert_eq!(actual, expected, "{case}");
    }
}
