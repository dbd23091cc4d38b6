//! One-walk parser for the qudit text IR: source text straight to a
//! validated [`Circuit`].
//!
//! A recursive-descent cursor pulls one token at a time from the
//! [`Lexer`].  It parses a statement, checks it against the gate table and
//! pushes its gate into the circuit before it reads the next statement; the
//! statement's names and literals stay borrowed from the source until then.
//!
//! The checks keep the stages' precedence without staging the source: a
//! lexical error anywhere wins over a grammar error, and a grammar error
//! anywhere wins over a semantic one.  The first semantic error is kept, not
//! returned, and gates stop being built while the grammar is checked to the
//! end; at a grammar error, the rest of the source is lexed for an earlier
//! stage's error.

use crate::circuit::Circuit;
use crate::control::{Control, ControlPredicate};
use crate::dimension::Dimension;
use crate::gate::Gate;
use crate::math::{Complex, SquareMatrix};
use crate::ops::{Permutation, SingleQuditOp};
use crate::qudit::QuditId;

use super::lexer::{Lexer, Token, TokenKind};
use super::{ParseError, ParseErrorKind, Span, MAX_DENSE_SUGAR_DIMENSION, MAX_REGISTER_WIDTH};

/// Parses a complete source into a validated [`Circuit`] (see
/// [`super::parse_source`]).
pub(super) fn parse(source: &str) -> Result<Circuit, ParseError> {
    let mut parser = Parser {
        lexer: Lexer::new(source),
        token: Token {
            kind: TokenKind::Eof,
            span: Span::start(),
        },
        register: None,
        circuit: None,
        semantic: None,
        predicates: Vec::new(),
        params: Vec::new(),
        wires: Vec::new(),
    };
    parser
        .program()
        .map_err(|error| parser.lexer.finish().err().unwrap_or(error))
}

/// A numeric gate parameter, with its literal kept for a diagnostic.
#[derive(Clone, Copy)]
struct Param<'a> {
    /// The value, sign applied.
    value: f64,
    /// Whether a `-` preceded the literal.
    negative: bool,
    /// The unsigned literal as written.
    literal: &'a str,
    /// Span of the parameter (of its sign, when present).
    span: Span,
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The current token, not yet consumed.
    token: Token<'a>,
    /// The declared register's name.
    register: Option<&'a str>,
    /// The circuit built so far; `None` before the register declaration and
    /// after the first semantic error.
    circuit: Option<Circuit>,
    /// The first semantic error.
    semantic: Option<ParseError>,
    /// The current statement's control predicates, parameters and wire
    /// indices; the buffers are reused from statement to statement.
    predicates: Vec<ControlPredicate>,
    params: Vec<Param<'a>>,
    wires: Vec<usize>,
}

const PREDICATE: &str = "a control predicate (a level, 'odd', 'even' or 'nonzero')";

impl<'a> Parser<'a> {
    fn advance(&mut self) -> Result<(), ParseError> {
        self.token = self.lexer.next_token()?;
        Ok(())
    }

    fn unexpected(&self, expected: &str) -> ParseError {
        let expected = expected.to_string();
        let kind = match self.token.kind {
            TokenKind::Eof => ParseErrorKind::UnexpectedEnd { expected },
            found => ParseErrorKind::UnexpectedToken {
                expected,
                found: found.to_string(),
            },
        };
        ParseError::new(kind, self.token.span)
    }

    fn expect(&mut self, kind: TokenKind<'_>, expected: &str) -> Result<(), ParseError> {
        if self.token.kind == kind {
            self.advance()
        } else {
            Err(self.unexpected(expected))
        }
    }

    fn ident(&mut self, expected: &str) -> Result<(&'a str, Span), ParseError> {
        match self.token.kind {
            TokenKind::Ident(name) => {
                let span = self.token.span;
                self.advance()?;
                Ok((name, span))
            }
            _ => Err(self.unexpected(expected)),
        }
    }

    /// An unsigned integer literal (dimensions, widths, wire indices and
    /// control levels) that fits in a `T`.
    fn index<T: TryFrom<u64>>(&mut self, expected: &str) -> Result<(T, Span), ParseError> {
        let TokenKind::Number(raw) = self.token.kind else {
            return Err(self.unexpected(expected));
        };
        let span = self.token.span;
        let not_integer = |raw: String| ParseError::new(ParseErrorKind::ExpectedInteger(raw), span);
        let value = raw
            .parse::<u64>()
            .map_err(|_| not_integer(raw.to_string()))?;
        let value = T::try_from(value).map_err(|_| not_integer(value.to_string()))?;
        self.advance()?;
        Ok((value, span))
    }

    fn program(&mut self) -> Result<Circuit, ParseError> {
        self.advance()?;
        self.version()?;
        while self.token.kind != TokenKind::Eof {
            if self.token.kind == TokenKind::Ident("qudit") {
                self.register_decl()?;
            } else {
                self.statement()?;
            }
        }
        if let Some(error) = self.semantic.take() {
            return Err(error);
        }
        self.circuit
            .take()
            .ok_or_else(|| ParseError::new(ParseErrorKind::MissingRegister, self.token.span))
    }

    /// The optional `OPENQASM <version>;` header.
    fn version(&mut self) -> Result<(), ParseError> {
        if self.token.kind != TokenKind::Ident("OPENQASM") {
            return Ok(());
        }
        self.advance()?;
        let TokenKind::Number(raw) = self.token.kind else {
            return Err(self.unexpected("a version number after OPENQASM"));
        };
        if raw != "3" && raw != "3.0" {
            return Err(ParseError::new(
                ParseErrorKind::UnsupportedVersion(raw.to_string()),
                self.token.span,
            ));
        }
        self.advance()?;
        self.expect(TokenKind::Semicolon, "';' after the OPENQASM version")
    }

    /// `qudit [ d ] name [ n ] ;` — the cursor sits on `qudit`.
    fn register_decl(&mut self) -> Result<(), ParseError> {
        let span = self.token.span;
        self.advance()?;
        self.expect(TokenKind::LBracket, "'[' after 'qudit'")?;
        let (dimension, _) = self.index::<u32>("a qudit dimension")?;
        self.expect(TokenKind::RBracket, "']' after the dimension")?;
        let (name, _) = self.ident("a register name")?;
        self.expect(TokenKind::LBracket, "'[' after the register name")?;
        let (width, width_span) = self.index::<usize>("a register width")?;
        if width > MAX_REGISTER_WIDTH {
            return Err(ParseError::new(
                ParseErrorKind::RegisterTooWide {
                    max: MAX_REGISTER_WIDTH,
                    found: width,
                },
                width_span,
            ));
        }
        self.expect(TokenKind::RBracket, "']' after the register width")?;
        self.expect(TokenKind::Semicolon, "';' after the register declaration")?;
        if self.register.is_some() {
            return Err(ParseError::new(ParseErrorKind::DuplicateRegister, span));
        }
        self.register = Some(name);
        match Dimension::new(dimension) {
            Ok(dimension) => {
                let mut circuit = Circuit::new(dimension, width);
                circuit.set_register_name(name);
                self.circuit = Some(circuit);
            }
            Err(error) => {
                self.semantic = Some(ParseError::new(ParseErrorKind::Semantic(error), span))
            }
        }
        Ok(())
    }

    /// `ctrl (pred)? @ … name params? operands ;` — parsed, checked and,
    /// while no semantic error has been met, pushed into the circuit.
    fn statement(&mut self) -> Result<(), ParseError> {
        let span = self.token.span;
        self.predicates.clear();
        self.params.clear();
        self.wires.clear();
        while self.token.kind == TokenKind::Ident("ctrl") {
            let predicate = self.control()?;
            self.predicates.push(predicate);
        }
        let (name, name_span) = self.ident("a gate name")?;
        if self.token.kind == TokenKind::LParen {
            self.params()?;
        }
        let mut unknown_register = None;
        loop {
            let (register, register_span) = self.ident("an operand ('<register>[<index>]')")?;
            self.expect(TokenKind::LBracket, "'[' after the operand register")?;
            let (wire, _) = self.index::<usize>("a wire index")?;
            self.expect(TokenKind::RBracket, "']' after the wire index")?;
            if unknown_register.is_none() && self.register.is_some_and(|r| r != register) {
                unknown_register = Some(ParseError::new(
                    ParseErrorKind::UnknownRegister(register.to_string()),
                    register_span,
                ));
            }
            self.wires.push(wire);
            if self.token.kind != TokenKind::Comma {
                break;
            }
            self.advance()?;
        }
        self.expect(TokenKind::Semicolon, "';' after the gate statement")?;
        if self.register.is_none() {
            return Err(ParseError::new(ParseErrorKind::MissingRegister, span));
        }
        let Some(mut circuit) = self.circuit.take() else {
            return Ok(());
        };
        let pushed = match unknown_register {
            Some(error) => Err(error),
            None => self.gate(circuit.dimension(), name, name_span, span),
        }
        .and_then(|gate| {
            circuit
                .push(gate)
                .map_err(|error| ParseError::new(ParseErrorKind::Semantic(error), span))
        });
        match pushed {
            Ok(()) => self.circuit = Some(circuit),
            Err(error) => self.semantic = Some(error),
        }
        Ok(())
    }

    /// `ctrl ( "(" pred ")" )? @` — a bare `ctrl` is a `|0⟩`-control.
    fn control(&mut self) -> Result<ControlPredicate, ParseError> {
        self.advance()?;
        let mut predicate = ControlPredicate::Level(0);
        if self.token.kind == TokenKind::LParen {
            self.advance()?;
            predicate = match self.token.kind {
                TokenKind::Number(_) => ControlPredicate::Level(self.index("a control level")?.0),
                TokenKind::Ident(word) => {
                    let predicate = match word {
                        "odd" => ControlPredicate::Odd,
                        "even" => ControlPredicate::EvenNonzero,
                        "nonzero" => ControlPredicate::NonZero,
                        _ => return Err(self.unexpected(PREDICATE)),
                    };
                    self.advance()?;
                    predicate
                }
                _ => return Err(self.unexpected(PREDICATE)),
            };
            self.expect(TokenKind::RParen, "')' after the control predicate")?;
        }
        self.expect(TokenKind::At, "'@' after the control modifier")?;
        Ok(predicate)
    }

    /// `( param, … )` — the cursor sits on `(`.
    fn params(&mut self) -> Result<(), ParseError> {
        loop {
            self.advance()?;
            let span = self.token.span;
            let negative = self.token.kind == TokenKind::Minus;
            if negative {
                self.advance()?;
            }
            let TokenKind::Number(literal) = self.token.kind else {
                return Err(self.unexpected("a numeric parameter"));
            };
            let magnitude = literal.parse::<f64>().map_err(|_| {
                ParseError::new(
                    ParseErrorKind::InvalidNumber(literal.to_string()),
                    self.token.span,
                )
            })?;
            self.advance()?;
            self.params.push(Param {
                value: if negative { -magnitude } else { magnitude },
                negative,
                literal,
                span,
            });
            if self.token.kind != TokenKind::Comma {
                return self.expect(TokenKind::RParen, "')' after the gate parameters");
            }
        }
    }

    /// The gate the current statement describes, checked against the gate
    /// table: the name, then the parameter count, then the parameters
    /// themselves, then the operand count.
    fn gate(
        &self,
        dimension: Dimension,
        name: &str,
        name_span: Span,
        span: Span,
    ) -> Result<Gate, ParseError> {
        let params = &self.params;
        let semantic = |error| ParseError::new(ParseErrorKind::Semantic(error), span);
        let (param_count, arity) = match name {
            "swap" => (2, 1),
            "shift" => (1, 1),
            "parityflip_e" | "parityflip_o" | "fourier" | "phase" => (0, 1),
            "sum" | "sumdg" => (0, 2),
            "perm" => (dimension.as_usize(), 1),
            // 2·d² with checked arithmetic: a fuzzed `qudit[4294967295]`
            // register must fail the count check, not overflow it.  The
            // parameter list is source-bounded, so it can never match an
            // unrepresentable count.
            "unitary" => (
                dimension
                    .as_usize()
                    .checked_mul(dimension.as_usize())
                    .and_then(|n| n.checked_mul(2))
                    .unwrap_or(usize::MAX),
                1,
            ),
            _ => {
                return Err(ParseError::new(
                    ParseErrorKind::UnknownGate(name.to_string()),
                    name_span,
                ))
            }
        };
        if params.len() != param_count {
            let expected = match name {
                "swap" => "2 level parameters".to_string(),
                "shift" => "1 level parameter".to_string(),
                "perm" => format!("{param_count} level parameters (one per level)"),
                "unitary" => format!("{param_count} real parameters (row-major re/im pairs)"),
                _ => "no parameters".to_string(),
            };
            return Err(ParseError::new(
                ParseErrorKind::WrongParamCount {
                    gate: name.to_string(),
                    expected,
                    found: params.len(),
                },
                name_span,
            ));
        }
        let op = match name {
            "swap" => Some(SingleQuditOp::Swap(
                int_param(&params[0])?,
                int_param(&params[1])?,
            )),
            "shift" => Some(SingleQuditOp::Add(int_param(&params[0])?)),
            "parityflip_e" => Some(SingleQuditOp::ParityFlipEven),
            "parityflip_o" => Some(SingleQuditOp::ParityFlipOdd),
            "perm" => {
                let map = params.iter().map(int_param).collect::<Result<_, _>>()?;
                Some(SingleQuditOp::Perm(
                    Permutation::from_map(map).map_err(semantic)?,
                ))
            }
            "unitary" => {
                let data = params
                    .chunks_exact(2)
                    .map(|pair| Complex::new(pair[0].value, pair[1].value))
                    .collect();
                let matrix =
                    SquareMatrix::from_rows(dimension.as_usize(), data).map_err(semantic)?;
                Some(SingleQuditOp::unitary(dimension, matrix).map_err(semantic)?)
            }
            "fourier" | "phase" => {
                if dimension.get() > MAX_DENSE_SUGAR_DIMENSION {
                    return Err(ParseError::new(
                        ParseErrorKind::UnsupportedDimension {
                            gate: name.to_string(),
                            max: MAX_DENSE_SUGAR_DIMENSION,
                            found: dimension.get(),
                        },
                        name_span,
                    ));
                }
                Some(if name == "fourier" {
                    SingleQuditOp::fourier(dimension)
                } else {
                    SingleQuditOp::clifford_phase(dimension)
                })
            }
            _ => None,
        };

        let n_controls = self.predicates.len();
        let expected = n_controls + arity;
        if self.wires.len() != expected {
            return Err(ParseError::new(
                ParseErrorKind::WrongOperandCount {
                    gate: name.to_string(),
                    expected,
                    found: self.wires.len(),
                },
                name_span,
            ));
        }
        let controls = self
            .predicates
            .iter()
            .zip(&self.wires)
            .map(|(&predicate, &wire)| Control::new(QuditId::new(wire), predicate));
        let wire = |i: usize| QuditId::new(self.wires[n_controls + i]);
        Ok(match op {
            Some(op) => Gate::controlled(op, wire(0), controls),
            None => Gate::add_from(wire(0), name == "sumdg", wire(1), controls),
        })
    }
}

/// A parameter that must be a non-negative integer (levels, shift amounts,
/// permutation images).  NaN, infinities, fractions and out-of-range values
/// are all [`ParseErrorKind::ExpectedInteger`].
fn int_param(param: &Param<'_>) -> Result<u32, ParseError> {
    let value = param.value;
    if value.is_finite() && value >= 0.0 && value <= f64::from(u32::MAX) && value.fract() == 0.0 {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        Ok(value as u32)
    } else {
        let sign = if param.negative { "-" } else { "" };
        Err(ParseError::new(
            ParseErrorKind::ExpectedInteger(format!("{sign}{}", param.literal)),
            param.span,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::super::parse_source;
    use super::*;
    use crate::gate::GateOp;

    #[test]
    fn full_statement_shapes_parse() {
        let circuit = parse_source(
            "OPENQASM 3.0;\n\
             qudit[2] q[3];\n\
             ctrl(odd) @ ctrl @ swap(0, 1) q[0], q[1], q[2];\n\
             unitary(0.5, -0.5, 0.5, 0.5, 0.5, 0.5, 0.5, -0.5) q[1];\n\
             sumdg q[0], q[2];",
        )
        .unwrap();
        assert_eq!(circuit.register_name(), Some("q"));
        assert_eq!(circuit.len(), 3);
        let controls = circuit.gates()[0].controls();
        assert_eq!(controls.len(), 2);
        assert_eq!(controls[0].predicate, ControlPredicate::Odd);
        assert_eq!(controls[1].predicate, ControlPredicate::Level(0));
        assert_eq!(circuit.gates()[0].target(), QuditId::new(2));
        match circuit.gates()[1].op() {
            GateOp::Single(SingleQuditOp::Unitary(m)) => {
                assert_eq!(m[(0, 0)], Complex::new(0.5, -0.5));
            }
            other => panic!("expected a unitary, got {other:?}"),
        }
    }

    #[test]
    fn version_header_is_optional_but_checked() {
        assert!(parse_source("qudit[3] q[1];").is_ok());
        assert!(parse_source("OPENQASM 3; qudit[3] q[1];").is_ok());
        let error = parse_source("OPENQASM 2.0; qudit[3] q[1];").unwrap_err();
        assert_eq!(error.kind, ParseErrorKind::UnsupportedVersion("2.0".into()));
    }

    #[test]
    fn register_rules_are_enforced() {
        let missing = parse_source("swap(0, 1) q[0];").unwrap_err();
        assert_eq!(missing.kind, ParseErrorKind::MissingRegister);
        let empty = parse_source("").unwrap_err();
        assert_eq!(empty.kind, ParseErrorKind::MissingRegister);
        let duplicate = parse_source("qudit[3] q[1]; qudit[3] r[1];").unwrap_err();
        assert_eq!(duplicate.kind, ParseErrorKind::DuplicateRegister);
        assert_eq!(duplicate.span, Span::new(1, 16));
    }

    #[test]
    fn register_width_is_capped() {
        let widest = format!("qudit[3] q[{MAX_REGISTER_WIDTH}];");
        assert_eq!(parse_source(&widest).unwrap().width(), MAX_REGISTER_WIDTH);
        let error = parse_source("qudit[3] q[2305843009213693952];").unwrap_err();
        assert_eq!(
            error.kind,
            ParseErrorKind::RegisterTooWide {
                max: MAX_REGISTER_WIDTH,
                found: 2_305_843_009_213_693_952,
            }
        );
        assert_eq!(error.span, Span::new(1, 12));
    }

    #[test]
    fn truncated_sources_report_what_was_expected() {
        let error = parse_source("qudit[3] q[2]; swap(0, 1) q[0]").unwrap_err();
        assert!(matches!(error.kind, ParseErrorKind::UnexpectedEnd { .. }));
        let error = parse_source("qudit[3] q[2]; swap(0,").unwrap_err();
        assert!(matches!(error.kind, ParseErrorKind::UnexpectedEnd { .. }));
        let error = parse_source("qudit[3]").unwrap_err();
        assert!(matches!(error.kind, ParseErrorKind::UnexpectedEnd { .. }));
    }

    #[test]
    fn fractional_indices_are_rejected() {
        let error = parse_source("qudit[3.5] q[1];").unwrap_err();
        assert_eq!(error.kind, ParseErrorKind::ExpectedInteger("3.5".into()));
        let error = parse_source("qudit[3] q[1]; swap(0, 1) q[0.5];").unwrap_err();
        assert_eq!(error.kind, ParseErrorKind::ExpectedInteger("0.5".into()));
    }

    #[test]
    fn huge_indices_are_rejected_without_overflow() {
        let error = parse_source("qudit[99999999999999999999] q[1];").unwrap_err();
        assert!(matches!(error.kind, ParseErrorKind::ExpectedInteger(_)));
        // u64-range but out of u32 range for a dimension.
        let error = parse_source("qudit[4294967296] q[1];").unwrap_err();
        assert!(matches!(error.kind, ParseErrorKind::ExpectedInteger(_)));
    }

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

    #[test]
    fn the_first_semantic_error_wins_and_later_statements_still_parse() {
        // Within a statement, an unknown register wins over an unknown gate.
        let error = parse_source("qudit[3] q[2]; warble r[0];").unwrap_err();
        assert_eq!(error.kind, ParseErrorKind::UnknownRegister("r".into()));
        // The first semantic error in source order wins over a later one.
        let error = parse_source("qudit[3] q[2];\nswap(0, 7) q[0];\nwarble q[0];").unwrap_err();
        assert!(matches!(error.kind, ParseErrorKind::Semantic(_)), "{error}");
        assert_eq!(error.span.line, 2);
        // A later duplicate register is a grammar error and wins.
        let error = parse_source("qudit[1] q[2]; qudit[3] r[1];").unwrap_err();
        assert_eq!(error.kind, ParseErrorKind::DuplicateRegister);
    }
}
