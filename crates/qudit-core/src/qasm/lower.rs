//! Semantic lowering: the syntax tree to a validated [`Circuit`].
//!
//! The parser accepts anything grammatically well-formed; this pass is
//! where meaning is enforced — the gate table, parameter and operand
//! arities, integer-ness of levels, and finally [`Circuit::push`]'s own
//! validation (level ranges, duplicate qudits, unitarity).  Core errors
//! are wrapped as [`ParseErrorKind::Semantic`] and anchored at the span of
//! the offending statement.

use crate::circuit::Circuit;
use crate::control::Control;
use crate::dimension::Dimension;
use crate::gate::Gate;
use crate::math::{Complex, SquareMatrix};
use crate::ops::{Permutation, SingleQuditOp};
use crate::qudit::QuditId;

use super::ast::{CtrlPred, GateStmt, Param, Program};
use super::{ParseError, ParseErrorKind};

/// Lowers a parsed program to a validated [`Circuit`].
///
/// # Errors
///
/// Returns the first [`ParseError`] in statement order: unknown gates or
/// registers, wrong parameter/operand counts, non-integer levels, or a
/// [`ParseErrorKind::Semantic`] wrapper around the core validation error.
///
/// # Example
///
/// ```
/// use qudit_core::qasm::{lower, parser};
///
/// let program = parser::parse_program("qudit[3] q[2]; sum q[0], q[1];")?;
/// let circuit = lower::lower_program(&program)?;
/// assert_eq!(circuit.width(), 2);
/// # Ok::<(), qudit_core::qasm::ParseError>(())
/// ```
pub fn lower_program(program: &Program) -> Result<Circuit, ParseError> {
    let register = &program.register;
    let dimension = Dimension::new(register.dimension)
        .map_err(|e| ParseError::new(ParseErrorKind::Semantic(e), register.span))?;
    let mut circuit = Circuit::new(dimension, register.size);
    circuit.set_register_name(&register.name);
    for statement in &program.statements {
        let gate = lower_statement(statement, &register.name, dimension)?;
        circuit
            .push(gate)
            .map_err(|e| ParseError::new(ParseErrorKind::Semantic(e), statement.span))?;
    }
    Ok(circuit)
}

/// How many operands a gate consumes beyond its controls.
fn operand_arity(name: &str) -> usize {
    match name {
        "sum" | "sumdg" => 2,
        _ => 1,
    }
}

fn lower_statement(
    statement: &GateStmt,
    register: &str,
    dimension: Dimension,
) -> Result<Gate, ParseError> {
    for operand in &statement.operands {
        if operand.register != register {
            return Err(ParseError::new(
                ParseErrorKind::UnknownRegister(operand.register.clone()),
                operand.span,
            ));
        }
    }

    let name = statement.name.as_str();
    let d = dimension.get();
    let op: Option<SingleQuditOp> = match name {
        "swap" => {
            expect_params(statement, 2, "2 level parameters")?;
            Some(SingleQuditOp::Swap(
                int_param(&statement.params[0])?,
                int_param(&statement.params[1])?,
            ))
        }
        "shift" => {
            expect_params(statement, 1, "1 level parameter")?;
            Some(SingleQuditOp::Add(int_param(&statement.params[0])?))
        }
        "parityflip_e" => {
            expect_params(statement, 0, "no parameters")?;
            Some(SingleQuditOp::ParityFlipEven)
        }
        "parityflip_o" => {
            expect_params(statement, 0, "no parameters")?;
            Some(SingleQuditOp::ParityFlipOdd)
        }
        "perm" => {
            let expected = d as usize;
            expect_params(
                statement,
                expected,
                &format!("{expected} level parameters (one per level)"),
            )?;
            let mut map = Vec::with_capacity(expected);
            for param in &statement.params {
                map.push(int_param(param)?);
            }
            let perm = Permutation::from_map(map)
                .map_err(|e| ParseError::new(ParseErrorKind::Semantic(e), statement.span))?;
            Some(SingleQuditOp::Perm(perm))
        }
        "unitary" => {
            // 2·d² with checked arithmetic: a fuzzed `qudit[4294967295]`
            // register must fail the count check, not overflow it.  The
            // parameter list is source-bounded, so it can never match an
            // unrepresentable count.
            let expected = dimension
                .as_usize()
                .checked_mul(dimension.as_usize())
                .and_then(|n| n.checked_mul(2))
                .unwrap_or(usize::MAX);
            expect_params(
                statement,
                expected,
                &format!("{expected} real parameters (row-major re/im pairs)"),
            )?;
            let entries = expected / 2;
            let mut data = Vec::with_capacity(entries);
            for pair in statement.params.chunks_exact(2) {
                data.push(Complex::new(pair[0].value, pair[1].value));
            }
            let matrix = SquareMatrix::from_rows(dimension.as_usize(), data)
                .map_err(|e| ParseError::new(ParseErrorKind::Semantic(e), statement.span))?;
            let op = SingleQuditOp::unitary(dimension, matrix)
                .map_err(|e| ParseError::new(ParseErrorKind::Semantic(e), statement.span))?;
            Some(op)
        }
        "fourier" => {
            expect_params(statement, 0, "no parameters")?;
            check_dense_dimension(statement, dimension)?;
            Some(SingleQuditOp::fourier(dimension))
        }
        "phase" => {
            expect_params(statement, 0, "no parameters")?;
            check_dense_dimension(statement, dimension)?;
            Some(SingleQuditOp::clifford_phase(dimension))
        }
        "sum" | "sumdg" => {
            expect_params(statement, 0, "no parameters")?;
            None
        }
        _ => {
            return Err(ParseError::new(
                ParseErrorKind::UnknownGate(statement.name.clone()),
                statement.name_span,
            ))
        }
    };

    let n_controls = statement.controls.len();
    let expected_operands = n_controls + operand_arity(name);
    if statement.operands.len() != expected_operands {
        return Err(ParseError::new(
            ParseErrorKind::WrongOperandCount {
                gate: statement.name.clone(),
                expected: expected_operands,
                found: statement.operands.len(),
            },
            statement.name_span,
        ));
    }

    let controls: Vec<Control> = statement
        .controls
        .iter()
        .zip(&statement.operands)
        .map(|(modifier, operand)| {
            let qudit = QuditId::new(operand.index);
            match modifier.pred {
                CtrlPred::Level(level) => Control::level(qudit, level),
                CtrlPred::Odd => Control::odd(qudit),
                CtrlPred::Even => Control::even_nonzero(qudit),
                CtrlPred::NonZero => Control::nonzero(qudit),
            }
        })
        .collect();

    Ok(match op {
        Some(op) => {
            let target = QuditId::new(statement.operands[n_controls].index);
            Gate::controlled(op, target, controls)
        }
        None => {
            let source = QuditId::new(statement.operands[n_controls].index);
            let target = QuditId::new(statement.operands[n_controls + 1].index);
            Gate::add_from(source, name == "sumdg", target, controls)
        }
    })
}

/// The largest dimension the `fourier`/`phase` sugar materialises a dense
/// `d × d` matrix for.
///
/// Every other statement's cost is bounded by the source length (a `perm`
/// or `unitary` needs one literal per entry), but these two conjure a
/// matrix out of a single keyword — without a cap, a fuzzed
/// `qudit[4000000000]` register would make lowering allocate gigabytes.
pub const MAX_DENSE_SUGAR_DIMENSION: u32 = 64;

/// The widest `qudit` register a source may declare.
///
/// A declaration costs a few bytes of source whatever its width, but every
/// compile stage after it keeps per-wire state, so a one-gate source costs
/// time in proportion to its declared width.  The cap bounds that work, and
/// keeps a width near `usize::MAX` from overflowing a per-wire allocation.
pub const MAX_REGISTER_WIDTH: usize = 1 << 20;

fn check_dense_dimension(statement: &GateStmt, dimension: Dimension) -> Result<(), ParseError> {
    let d = dimension.get();
    if d <= MAX_DENSE_SUGAR_DIMENSION {
        Ok(())
    } else {
        Err(ParseError::new(
            ParseErrorKind::UnsupportedDimension {
                gate: statement.name.clone(),
                max: MAX_DENSE_SUGAR_DIMENSION,
                found: d,
            },
            statement.name_span,
        ))
    }
}

fn expect_params(statement: &GateStmt, count: usize, expected: &str) -> Result<(), ParseError> {
    if statement.params.len() == count {
        Ok(())
    } else {
        Err(ParseError::new(
            ParseErrorKind::WrongParamCount {
                gate: statement.name.clone(),
                expected: expected.to_string(),
                found: statement.params.len(),
            },
            statement.name_span,
        ))
    }
}

/// A parameter that must be a non-negative integer (levels, shift amounts,
/// permutation images).  NaN, infinities, fractions and out-of-range values
/// are all [`ParseErrorKind::ExpectedInteger`].
fn int_param(param: &Param) -> Result<u32, ParseError> {
    let value = param.value;
    if value.is_finite() && value >= 0.0 && value <= f64::from(u32::MAX) && value.fract() == 0.0 {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        Ok(value as u32)
    } else {
        Err(ParseError::new(
            ParseErrorKind::ExpectedInteger(param.raw.clone()),
            param.span,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::super::{parse_source, Span};
    use super::*;
    use crate::control::ControlPredicate;
    use crate::gate::GateOp;

    #[test]
    fn every_gate_family_lowers() {
        let circuit = parse_source(
            "qudit[4] q[3];\n\
             swap(1, 3) q[0];\n\
             shift(2) q[1];\n\
             parityflip_e q[2];\n\
             perm(1, 0, 3, 2) q[0];\n\
             fourier q[1];\n\
             phase q[2];\n\
             sum q[0], q[1];\n\
             sumdg q[2], q[0];",
        )
        .unwrap();
        assert_eq!(circuit.len(), 8);
        assert_eq!(
            circuit.gates()[0].op(),
            &GateOp::Single(SingleQuditOp::Swap(1, 3))
        );
        assert!(matches!(
            circuit.gates()[6].op(),
            GateOp::AddFrom { negate: false, .. }
        ));
        assert!(matches!(
            circuit.gates()[7].op(),
            GateOp::AddFrom { negate: true, .. }
        ));
    }

    #[test]
    fn controls_consume_leading_operands_in_order() {
        let circuit = parse_source(
            "qudit[5] q[4];\n\
             ctrl(3) @ ctrl(odd) @ ctrl(even) @ shift(1) q[2], q[0], q[3], q[1];",
        )
        .unwrap();
        let gate = &circuit.gates()[0];
        assert_eq!(gate.target(), QuditId::new(1));
        let controls = gate.controls();
        assert_eq!(controls[0].qudit, QuditId::new(2));
        assert_eq!(controls[0].predicate, ControlPredicate::Level(3));
        assert_eq!(controls[1].qudit, QuditId::new(0));
        assert_eq!(controls[1].predicate, ControlPredicate::Odd);
        assert_eq!(controls[2].qudit, QuditId::new(3));
        assert_eq!(controls[2].predicate, ControlPredicate::EvenNonzero);
    }

    #[test]
    fn bare_ctrl_is_a_zero_control() {
        let circuit = parse_source("qudit[3] q[2]; ctrl @ swap(0, 1) q[0], q[1];").unwrap();
        assert_eq!(
            circuit.gates()[0].controls()[0].predicate,
            ControlPredicate::Level(0)
        );
        assert!(circuit.gates()[0].is_g_gate());
    }

    #[test]
    fn controlled_sum_orders_control_source_target() {
        let circuit = parse_source("qudit[3] q[3]; ctrl(nonzero) @ sum q[0], q[1], q[2];").unwrap();
        let gate = &circuit.gates()[0];
        assert_eq!(
            gate.qudits(),
            vec![QuditId::new(0), QuditId::new(1), QuditId::new(2)]
        );
    }

    #[test]
    fn unitary_params_build_a_row_major_matrix() {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let source = format!("qudit[2] q[1]; unitary({s}, 0, {s}, 0, {s}, 0, -{s}, 0) q[0];");
        let circuit = parse_source(&source).unwrap();
        match circuit.gates()[0].op() {
            GateOp::Single(SingleQuditOp::Unitary(m)) => {
                assert_eq!(m[(0, 0)], Complex::new(s, 0.0));
                assert_eq!(m[(1, 1)], Complex::new(-s, 0.0));
            }
            other => panic!("expected a unitary, got {other:?}"),
        }
    }

    #[test]
    fn arity_and_parameter_mistakes_are_typed() {
        let error = parse_source("qudit[3] q[2]; swap(0) q[0];").unwrap_err();
        assert!(matches!(error.kind, ParseErrorKind::WrongParamCount { .. }));
        let error = parse_source("qudit[3] q[2]; swap(0, 1) q[0], q[1];").unwrap_err();
        assert!(matches!(
            error.kind,
            ParseErrorKind::WrongOperandCount {
                expected: 1,
                found: 2,
                ..
            }
        ));
        let error = parse_source("qudit[3] q[2]; ctrl @ sum q[0], q[1];").unwrap_err();
        assert!(matches!(
            error.kind,
            ParseErrorKind::WrongOperandCount {
                expected: 3,
                found: 2,
                ..
            }
        ));
        let error = parse_source("qudit[3] q[2]; shift(1.5) q[0];").unwrap_err();
        assert_eq!(error.kind, ParseErrorKind::ExpectedInteger("1.5".into()));
        let error = parse_source("qudit[3] q[2]; shift(-1) q[0];").unwrap_err();
        assert_eq!(error.kind, ParseErrorKind::ExpectedInteger("-1".into()));
        let error = parse_source("qudit[3] q[2]; swap(0, 1) r[0];").unwrap_err();
        assert_eq!(error.kind, ParseErrorKind::UnknownRegister("r".into()));
    }

    #[test]
    fn semantic_failures_carry_the_statement_span() {
        let error = parse_source("qudit[3] q[2];\nswap(0, 7) q[0];").unwrap_err();
        assert!(matches!(error.kind, ParseErrorKind::Semantic(_)));
        assert_eq!(error.span, Span::new(2, 1));
        // Duplicate qudits, parity mismatch, non-permutations, bad unitaries.
        assert!(parse_source("qudit[3] q[2]; sum q[0], q[0];").is_err());
        assert!(parse_source("qudit[3] q[1]; parityflip_e q[0];").is_err());
        assert!(parse_source("qudit[3] q[1]; perm(0, 0, 1) q[0];").is_err());
        assert!(parse_source("qudit[2] q[1]; unitary(1, 0, 1, 0, 0, 0, 1, 0) q[0];").is_err());
        // A dimension below 2 is a semantic error, not a parse error.
        let error = parse_source("qudit[1] q[2];").unwrap_err();
        assert!(matches!(error.kind, ParseErrorKind::Semantic(_)));
    }

    #[test]
    fn fourier_and_phase_are_clifford_sugar() {
        for d in [2u32, 3, 5] {
            let source = format!("qudit[{d}] q[1]; fourier q[0]; phase q[0];");
            let circuit = parse_source(&source).unwrap();
            let dim = Dimension::new(d).unwrap();
            assert_eq!(
                circuit.gates()[0].op(),
                &GateOp::Single(SingleQuditOp::fourier(dim))
            );
            assert_eq!(
                circuit.gates()[1].op(),
                &GateOp::Single(SingleQuditOp::clifford_phase(dim))
            );
        }
    }
}
