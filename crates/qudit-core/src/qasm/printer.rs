//! Pretty-printer: a [`Circuit`] back to canonical dialect text.
//!
//! The printer is an exact structural inverse of the parser:
//! `parse_source(print_circuit(c)) == c` for every valid circuit.  Float
//! literals use Rust's `{}` formatting, which is guaranteed to be the
//! shortest representation that round-trips through `f64` parsing, so even
//! arbitrary unitary matrices survive bit-for-bit.  The Fourier and phase
//! sugar statements are *input-only*: their lowered unitaries print as
//! `unitary(…)`, which reparses to the same [`SingleQuditOp::Unitary`].
//!
//! Printing is one walk that appends byte slices to one reserved buffer.
//! Every wire's operand text (`, q[i]`) is rendered once per circuit into
//! a second buffer, so a gate's operands are one copy each instead of a
//! register name, brackets and a decimal conversion; a small level is a
//! table lookup.  A circuit prints with at most two allocations: the
//! operand buffer, sized by the register width, and the output, whose
//! reserve is an upper estimate for the common gates.

use std::fmt::Write as _;

use crate::circuit::Circuit;
use crate::control::ControlPredicate;
use crate::gate::{Gate, GateOp};
use crate::ops::SingleQuditOp;

/// Prints a circuit in the canonical dialect form (see [the module-level
/// grammar](super)).
///
/// A circuit carrying a [`Circuit::register_name`] (set by the parser)
/// prints with that name, so `parse → print → parse` preserves user-chosen
/// register names; programmatically built circuits print as the canonical
/// register `q`.
///
/// # Example
///
/// ```
/// use qudit_core::qasm::{parse_source, print_circuit};
///
/// let circuit = parse_source("qudit[3] work[2]; ctrl(odd) @ shift(2) work[0], work[1];")?;
/// let printed = print_circuit(&circuit);
/// assert_eq!(
///     printed,
///     "OPENQASM 3.0;\nqudit[3] work[2];\nctrl(odd) @ shift(2) work[0], work[1];\n"
/// );
/// assert_eq!(parse_source(&printed)?, circuit);
/// # Ok::<(), qudit_core::qasm::ParseError>(())
/// ```
pub fn print_circuit(circuit: &Circuit) -> String {
    let register = circuit.register_name().unwrap_or("q");
    let operands = Operands::render(register, circuit.width());
    let mut out = String::with_capacity(printed_len_hint(circuit, &operands));
    out.push_str("OPENQASM 3.0;\nqudit[");
    push_decimal(&mut out, circuit.dimension().get().into());
    out.push_str("] ");
    out.push_str(register);
    out.push('[');
    push_decimal(&mut out, circuit.width() as u64);
    out.push_str("];\n");
    for gate in circuit.gates() {
        print_gate(&mut out, gate, &operands);
    }
    out
}

/// Every wire's operand text, rendered once per circuit into one buffer:
/// wire `i`'s slot starts at `i · stride` and holds `, <register>[i]`,
/// padded with spaces to the stride.
struct Operands<'a> {
    text: String,
    stride: usize,
    register: &'a str,
}

impl<'a> Operands<'a> {
    fn render(register: &'a str, width: usize) -> Self {
        let stride = register.len() + 4 + decimal_len(width.saturating_sub(1) as u64);
        let mut text = String::with_capacity(stride * width);
        for wire in 0..width {
            let end = text.len() + stride;
            text.push_str(", ");
            text.push_str(register);
            text.push('[');
            push_decimal(&mut text, wire as u64);
            text.push(']');
            while text.len() < end {
                text.push(' ');
            }
        }
        Operands {
            text,
            stride,
            register,
        }
    }

    /// Wire `wire`'s operand, led by `, `, or by ` ` for a gate's first
    /// operand.
    fn get(&self, wire: usize, first: bool) -> &str {
        let start = wire * self.stride;
        let end = start + self.register.len() + 4 + decimal_len(wire as u64);
        &self.text[start + usize::from(first)..end]
    }
}

/// An upper estimate of the printed length for the common gates (a
/// controlled G-gate is at most 21 bytes besides its two operands), so
/// printing a compiled circuit fills one buffer.
fn printed_len_hint(circuit: &Circuit, operands: &Operands<'_>) -> usize {
    let header = 32 + operands.register.len();
    circuit.gates().iter().fold(header, |total, gate| {
        total + 14 + 7 * gate.controls().len() + operands.stride * gate.arity()
    })
}

fn print_gate(out: &mut String, gate: &Gate, operands: &Operands<'_>) {
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
    // Gate::support() walks controls, then the AddFrom source, then the
    // target — exactly the operand order the parser expects back.
    let mut first = true;
    for qudit in gate.support() {
        out.push_str(operands.get(qudit.index(), first));
        first = false;
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
                print_real(out, z.re);
                out.push_str(", ");
                print_real(out, z.im);
            }
            out.push(')');
        }
    }
}

/// The decimal text of every value below ten.
const DIGITS: [&str; 10] = ["0", "1", "2", "3", "4", "5", "6", "7", "8", "9"];

/// Appends `value` in decimal, as `{}` would, without going through
/// `core::fmt`.
fn push_decimal(out: &mut String, mut value: u64) {
    if value < 10 {
        out.push_str(DIGITS[value as usize]);
        return;
    }
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
    out.push_str(std::str::from_utf8(&digits[start..]).expect("decimal digits are ASCII"));
}

/// The number of decimal digits of `value`.
fn decimal_len(value: u64) -> usize {
    value.checked_ilog10().map_or(1, |log| log as usize + 1)
}

/// Prints an `f64` so that the lexer/parser reproduce it bit-for-bit.
///
/// Rust's `{}` is shortest-round-trip, but its `1e21`-style output for
/// large magnitudes and bare `-0` both fit our grammar already; the only
/// case needing care is that the grammar keeps `-` a separate token, which
/// the parser rejoins — so plain formatting suffices.
fn print_real(out: &mut String, value: f64) {
    let _ = write!(out, "{value}");
}

#[cfg(test)]
mod tests {
    use super::super::parse_source;
    use super::*;
    use crate::control::Control;
    use crate::dimension::Dimension;
    use crate::math::{Complex, SquareMatrix};
    use crate::qudit::QuditId;

    fn round_trip(source: &str) {
        let circuit = parse_source(source).unwrap();
        let printed = print_circuit(&circuit);
        let reparsed = parse_source(&printed)
            .unwrap_or_else(|e| panic!("printed form failed to reparse: {e}\n{printed}"));
        assert_eq!(reparsed, circuit, "printed:\n{printed}");
    }

    #[test]
    fn canonical_statements_round_trip() {
        round_trip(
            "qudit[4] q[3];\n\
             swap(1, 3) q[0];\n\
             shift(2) q[1];\n\
             parityflip_e q[2];\n\
             perm(3, 2, 1, 0) q[0];\n\
             ctrl @ ctrl(2) @ swap(0, 1) q[0], q[1], q[2];\n\
             ctrl(odd) @ sum q[0], q[1], q[2];\n\
             ctrl(even) @ sumdg q[0], q[1], q[2];\n\
             ctrl(nonzero) @ shift(3) q[1], q[0];",
        );
        round_trip("qudit[5] q[1]; fourier q[0]; phase q[0]; parityflip_o q[0];");
        round_trip("qudit[2] q[2];");
    }

    #[test]
    fn unitaries_round_trip_bit_for_bit() {
        let d = Dimension::new(3).unwrap();
        let mut circuit = Circuit::new(d, 2);
        // An awkward unitary: the Fourier matrix has irrational entries in
        // every position.
        circuit
            .push(Gate::controlled(
                SingleQuditOp::fourier(d),
                QuditId::new(0),
                vec![Control::odd(QuditId::new(1))],
            ))
            .unwrap();
        let printed = print_circuit(&circuit);
        assert_eq!(parse_source(&printed).unwrap(), circuit);
    }

    #[test]
    fn negative_zero_and_tiny_magnitudes_survive() {
        let d = Dimension::new(2).unwrap();
        let mut circuit = Circuit::new(d, 1);
        let matrix = SquareMatrix::from_rows(
            2,
            vec![
                Complex::new(1.0, -0.0),
                Complex::new(0.0, 0.0),
                Complex::new(-0.0, 0.0),
                Complex::new(-1.0, 1e-300),
            ],
        )
        .unwrap();
        circuit
            .push(Gate::single(
                SingleQuditOp::Unitary(matrix),
                QuditId::new(0),
            ))
            .unwrap();
        let printed = print_circuit(&circuit);
        let reparsed = parse_source(&printed).unwrap();
        assert_eq!(reparsed, circuit, "printed:\n{printed}");
        match reparsed.gates()[0].op() {
            GateOp::Single(SingleQuditOp::Unitary(m)) => {
                assert!(m[(0, 0)].im.is_sign_negative(), "-0.0 must survive");
            }
            other => panic!("expected a unitary, got {other:?}"),
        }
    }

    #[test]
    fn decimals_match_display() {
        for value in [0, 1, 9, 10, 99, 100, 12_345, u64::from(u32::MAX), u64::MAX] {
            let mut out = String::new();
            push_decimal(&mut out, value);
            assert_eq!(out, value.to_string());
            assert_eq!(decimal_len(value), out.len());
        }
    }

    #[test]
    fn printed_output_is_canonical() {
        let circuit = parse_source(
            "OPENQASM 3; // header and comments vanish\n qudit[3] q[2];\n sum q[0], q[1];",
        )
        .unwrap();
        assert_eq!(
            print_circuit(&circuit),
            "OPENQASM 3.0;\nqudit[3] q[2];\nsum q[0], q[1];\n"
        );
    }
}
