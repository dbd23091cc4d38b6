//! Round-trip property suites for the text IR (`qudit_core::qasm`):
//!
//! * `parse ∘ print = id` *structurally* on random circuits drawn from the
//!   full dialect repertoire (swaps, shifts, parity flips, permutations,
//!   Fourier/phase Cliffords, Haar-like unitaries, `SUM`, up to two
//!   controls of every predicate kind) over dimensions {2, 3, 5};
//! * `compile_source(print(c)) ≡ compile(c)` — gate-for-gate after the
//!   standard `O1` flow, with identical `VerifyEquivalence` verdicts (the
//!   CI matrix additionally runs the whole suite under `QUDIT_THREADS=1`
//!   and `=4`);
//! * the facade's front door on the full repertoire: a non-classical gate
//!   that can fire is refused by index, one that never fires is dropped;
//! * the printer is byte-identical to the gate-by-gate printer it replaced
//!   (kept below as `reference`) on 10,000 seeded random circuits and on
//!   the O2 `serve_mct` replies.

use proptest::prelude::*;
use qudit_core::qasm::{parse_source, print_circuit};
use qudit_core::{Circuit, Dimension, Gate, QuditError};
use qudit_sim::random::{random_classical_dialect_circuit, random_dialect_circuit};
use qudit_synthesis::{CompileOptions, OptLevel, Verify};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dim(d: u32) -> Dimension {
    Dimension::new(d).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The printer is an exact structural inverse of the parser over the
    /// full repertoire, unitary matrix entries included bit-for-bit.
    #[test]
    fn parse_print_identity_on_full_repertoire(
        seed in any::<u64>(),
        d in prop::sample::select(vec![2u32, 3, 5]),
        width in 1usize..5,
        gates in 0usize..24,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let circuit = random_dialect_circuit(dim(d), width, gates, &mut rng);
        let printed = print_circuit(&circuit);
        let reparsed = parse_source(&printed)
            .unwrap_or_else(|e| panic!("printed circuit failed to reparse: {e}\n{printed}"));
        prop_assert_eq!(reparsed, circuit, "printed:\n{}", printed);
    }

    /// Printing is deterministic and idempotent: printing the reparsed
    /// circuit reproduces the text byte-for-byte.
    #[test]
    fn printing_is_canonical(
        seed in any::<u64>(),
        d in prop::sample::select(vec![2u32, 3, 5]),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let circuit = random_dialect_circuit(dim(d), 3, 12, &mut rng);
        let printed = print_circuit(&circuit);
        let reprinted = print_circuit(&parse_source(&printed).unwrap());
        prop_assert_eq!(printed, reprinted);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A text job and its native-circuit twin behave identically through
    /// the whole `O1` pass stack — same compiled gates, depth and verified
    /// verdict when compilation succeeds, the *same typed error* when it
    /// does not (some random circuits legitimately need ancilla wires the
    /// register lacks).
    #[test]
    fn compile_source_matches_native_compile(
        seed in any::<u64>(),
        d in prop::sample::select(vec![2u32, 3, 5]),
        gates in 1usize..10,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let circuit = random_classical_dialect_circuit(dim(d), 4, gates, &mut rng);
        let printed = print_circuit(&circuit);
        let compiler = CompileOptions::new()
            .opt_level(OptLevel::O1)
            .verify(Verify::Exhaustive)
            .compiler();
        let native = compiler.compile(&circuit);
        let text = compiler.compile_source(&printed);
        match (native, text) {
            (Ok(native), Ok(text)) => {
                prop_assert_eq!(&text.circuit, &native.circuit);
                prop_assert_eq!(text.depth, native.depth);
                prop_assert_eq!(text.verification, native.verification);
                prop_assert!(text.verification.is_verified());
                // The exporter closes the loop: compiled output reparses
                // to the compiled circuit.
                prop_assert_eq!(
                    parse_source(&text.to_qasm()).unwrap(),
                    text.circuit
                );
            }
            (Err(native), Err(text)) => prop_assert_eq!(text, native, "errors diverged"),
            (native, text) => prop_assert!(
                false,
                "one path failed, the other did not (native: {:?}, text: {:?})",
                native.is_ok(), text.is_ok()
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The facade's front door on the full repertoire.  A non-classical
    /// gate whose controls can fire is refused before the first stage,
    /// naming the first such gate.  Without those gates, a non-classical
    /// gate whose controls can never fire (`ctrl(even)` at d = 2) is
    /// dropped, so the source compiles exactly as it does without it.
    #[test]
    fn the_front_door_refuses_or_drops_non_classical_gates(
        seed in any::<u64>(),
        d in prop::sample::select(vec![2u32, 2, 3, 5]),
        width in 1usize..5,
        gates in 1usize..8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let circuit = random_dialect_circuit(dim(d), width, gates, &mut rng);
        let dimension = circuit.dimension();
        let compiler = CompileOptions::new()
            .opt_level(OptLevel::O1)
            .verify(Verify::Exhaustive)
            .compiler();
        let compile = |keep: &dyn Fn(&Gate) -> bool| {
            let mut kept = Circuit::new(dimension, width);
            for gate in circuit.gates().iter().filter(|gate| keep(gate)) {
                kept.push(gate.clone()).unwrap();
            }
            compiler.compile_source(&print_circuit(&kept))
        };
        let firing = circuit
            .gates()
            .iter()
            .position(|gate| gate.can_fire(dimension) && !gate.is_classical());
        if let Some(index) = firing {
            match compile(&|_| true) {
                Err(QuditError::UnsupportedLowering { reason }) => prop_assert!(
                    reason.starts_with(&format!("gate {index} is not a classical permutation")),
                    "{}", reason
                ),
                other => prop_assert!(false, "gate {} not refused: {:?}", index, other),
            }
        }
        let silenced = compile(&|gate| gate.is_classical() || !gate.can_fire(dimension));
        match (silenced, compile(&Gate::is_classical)) {
            (Ok(with), Ok(without)) => prop_assert_eq!(with.to_qasm(), without.to_qasm()),
            (Err(with), Err(without)) => prop_assert_eq!(with, without),
            (with, without) => prop_assert!(
                false,
                "dropping never-firing gates changed the outcome: {:?} vs {:?}",
                with.map(|r| r.to_qasm()), without.map(|r| r.to_qasm())
            ),
        }
    }
}

/// `parse(print(parse(s)))` keeps a user-chosen register name: the printer
/// no longer canonicalises every register to `q`.
#[test]
fn register_names_survive_print_parse_round_trips() {
    let source = "OPENQASM 3.0;\n\
                  qudit[3] anc[2];\n\
                  ctrl @ shift(1) anc[0], anc[1];\n";
    let parsed = parse_source(source).unwrap();
    assert_eq!(parsed.register_name(), Some("anc"));
    let printed = print_circuit(&parsed);
    assert!(printed.contains("qudit[3] anc[2];"), "printed:\n{printed}");
    assert!(printed.contains("anc[0], anc[1]"), "printed:\n{printed}");
    let reparsed = parse_source(&printed).unwrap();
    assert_eq!(reparsed.register_name(), Some("anc"));
    assert_eq!(reparsed, parsed);
    // Programmatic circuits still print as the canonical register `q`.
    let mut anonymous = Circuit::new(dim(3), 1);
    anonymous
        .push(qudit_core::Gate::single(
            qudit_core::SingleQuditOp::Add(1),
            qudit_core::QuditId::new(0),
        ))
        .unwrap();
    assert!(print_circuit(&anonymous).contains("qudit[3] q[1];"));
}

/// A deterministic smoke of the whole loop at fixed seeds, so a plain
/// `cargo test qasm` exercises the property even if the proptest shim's
/// case count is trimmed via environment.
#[test]
fn fixed_seed_round_trip_smoke() {
    for (seed, d) in [(1u64, 2u32), (2, 3), (3, 5)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let circuit = random_dialect_circuit(dim(d), 4, 20, &mut rng);
        let printed = print_circuit(&circuit);
        assert_eq!(parse_source(&printed).unwrap(), circuit, "d={d}");
    }
}

/// A deterministic compile-equivalence case that must take the `Ok` path
/// (single controls only, a spare wire available), so the property above
/// cannot silently degenerate into comparing errors.
#[test]
fn fixed_source_compiles_identically_to_its_circuit() {
    let source = "OPENQASM 3.0;\n\
                  qudit[3] q[3];\n\
                  ctrl(1) @ swap(0, 2) q[0], q[1];\n\
                  shift(2) q[2];\n\
                  ctrl(odd) @ sum q[2], q[0], q[1];\n\
                  perm(2, 0, 1) q[0];\n";
    let circuit = parse_source(source).unwrap();
    let compiler = CompileOptions::new()
        .opt_level(OptLevel::O1)
        .verify(Verify::Exhaustive)
        .compiler();
    let native = compiler.compile(&circuit).unwrap();
    let text = compiler.compile_source(source).unwrap();
    assert_eq!(text.circuit, native.circuit);
    assert!(text.verification.is_verified());
}

/// The gate-by-gate printer the one-buffer printer replaced, kept as the
/// byte-for-byte reference: every operand is rendered on the spot (register
/// name, brackets, decimal), and every level through the general decimal
/// loop.
mod reference {
    use std::fmt::Write as _;

    use qudit_core::{Circuit, ControlPredicate, Gate, GateOp, SingleQuditOp};

    pub fn print_circuit(circuit: &Circuit) -> String {
        let register = circuit.register_name().unwrap_or("q");
        let mut out = String::new();
        out.push_str("OPENQASM 3.0;\nqudit[");
        push_decimal(&mut out, circuit.dimension().get().into());
        out.push_str("] ");
        out.push_str(register);
        out.push('[');
        push_decimal(&mut out, circuit.width() as u64);
        out.push_str("];\n");
        for gate in circuit.gates() {
            print_gate(&mut out, gate, register);
        }
        out
    }

    fn print_gate(out: &mut String, gate: &Gate, register: &str) {
        for control in gate.controls() {
            match control.predicate {
                ControlPredicate::Level(0) => out.push_str("ctrl @ "),
                ControlPredicate::Level(l) => {
                    out.push_str("ctrl(");
                    push_decimal(out, l.into());
                    out.push_str(") @ ");
                }
                ControlPredicate::Odd => out.push_str("ctrl(odd) @ "),
                ControlPredicate::EvenNonzero => out.push_str("ctrl(even) @ "),
                ControlPredicate::NonZero => out.push_str("ctrl(nonzero) @ "),
            }
        }
        match gate.op() {
            GateOp::Single(op) => print_single_op(out, op),
            GateOp::AddFrom { negate, .. } => {
                out.push_str(if *negate { "sumdg" } else { "sum" });
            }
        }
        let mut separator = " ";
        for qudit in gate.support() {
            out.push_str(separator);
            out.push_str(register);
            out.push('[');
            push_decimal(out, qudit.index() as u64);
            out.push(']');
            separator = ", ";
        }
        out.push_str(";\n");
    }

    fn print_single_op(out: &mut String, op: &SingleQuditOp) {
        match op {
            SingleQuditOp::Swap(i, j) => {
                out.push_str("swap(");
                push_decimal(out, (*i).into());
                out.push_str(", ");
                push_decimal(out, (*j).into());
                out.push(')');
            }
            SingleQuditOp::Add(y) => {
                out.push_str("shift(");
                push_decimal(out, (*y).into());
                out.push(')');
            }
            SingleQuditOp::ParityFlipEven => out.push_str("parityflip_e"),
            SingleQuditOp::ParityFlipOdd => out.push_str("parityflip_o"),
            SingleQuditOp::Perm(perm) => {
                out.push_str("perm(");
                for (i, to) in perm.as_map().iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    push_decimal(out, (*to).into());
                }
                out.push(')');
            }
            SingleQuditOp::Unitary(matrix) => {
                out.push_str("unitary(");
                for (i, z) in matrix.as_slice().iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "{}, {}", z.re, z.im);
                }
                out.push(')');
            }
        }
    }

    fn push_decimal(out: &mut String, mut value: u64) {
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (value % 10) as u8;
            value /= 10;
            if value == 0 {
                break;
            }
        }
        out.push_str(std::str::from_utf8(&digits[start..]).unwrap());
    }
}

/// The printer matches the reference byte for byte on 10,000 seeded random
/// circuits over the whole repertoire (every operation and control
/// predicate), one- to three-digit wire indices and levels, and named
/// registers, and on an empty register.
#[test]
fn printer_matches_the_reference_on_random_circuits() {
    use rand::Rng;

    let mut rng = StdRng::seed_from_u64(0x5EED_9A5E);
    let names = [None, Some("anc"), Some("r"), Some("work_register_7")];
    for case in 0..10_000 {
        let d = [2u32, 3, 4, 5, 7, 12][rng.gen_range(0..6)];
        let width = if case % 50 == 0 {
            rng.gen_range(95..=130)
        } else {
            rng.gen_range(1..=14)
        };
        let gates = rng.gen_range(0..=8);
        let mut circuit = random_dialect_circuit(dim(d), width, gates, &mut rng);
        if let Some(name) = names[case % names.len()] {
            circuit.set_register_name(name);
        }
        assert_eq!(
            print_circuit(&circuit),
            reference::print_circuit(&circuit),
            "case {case}"
        );
    }
    let mut empty = Circuit::new(dim(3), 0);
    assert_eq!(print_circuit(&empty), reference::print_circuit(&empty));
    empty.set_register_name("none");
    assert_eq!(print_circuit(&empty), reference::print_circuit(&empty));
}

/// The printer matches the reference byte for byte on the 11 O2 `serve_mct`
/// replies (d ∈ {3, 4} × k ∈ {4, …, 8}, and d = 5, k = 4).
#[test]
fn printer_matches_the_reference_on_served_k_toffolis() {
    let compiler = CompileOptions::new().opt_level(OptLevel::O2).compiler();
    let shapes = (4..=8).flat_map(|k| [(3, k), (4, k)]).chain([(5, 4)]);
    for (d, k) in shapes {
        let synthesis = qudit_synthesis::KToffoli::new(dim(d), k)
            .unwrap()
            .synthesize()
            .unwrap();
        let result = compiler
            .compile_source(&print_circuit(synthesis.circuit()))
            .unwrap();
        assert_eq!(
            result.to_qasm(),
            reference::print_circuit(&result.circuit),
            "d={d} k={k}"
        );
    }
}
