//! Recursive-descent parser for the qudit text IR: tokens to [`Program`].
//!
//! The parser is a plain cursor over the token stream produced by
//! [`super::lexer::tokenize`].  It enforces the grammar of the
//! [module-level sketch](super) and one size cap: a register may be at most
//! [`MAX_REGISTER_WIDTH`] qudits wide.  Whether a statement
//! *means* anything (known gate, valid levels, operand arity) is decided by
//! [`super::lower`].  Every rejection is a spanned [`ParseError`] — the
//! parser is total and never panics, whatever the input.

use super::ast::{CtrlMod, CtrlPred, GateStmt, Operand, Param, Program, RegisterDecl};
use super::lexer::{tokenize, Token, TokenKind};
use super::lower::MAX_REGISTER_WIDTH;
use super::{ParseError, ParseErrorKind, Span};

/// Parses a complete source into its syntax tree.
///
/// # Errors
///
/// Returns one [`ParseError`]: a lexical error, a grammar violation, a
/// missing/duplicate register declaration, or an unsupported `OPENQASM`
/// version.  The whole source is tokenized before any of it is parsed, so
/// the first lexical error wins over any grammar error, wherever the two
/// sit; among grammar errors, the first in source order is reported.
///
/// # Example
///
/// ```
/// use qudit_core::qasm::parser::parse_program;
///
/// let program = parse_program("qudit[5] r[3]; shift(2) r[0];")?;
/// assert_eq!(program.register.dimension, 5);
/// assert_eq!(program.statements.len(), 1);
/// # Ok::<(), qudit_core::qasm::ParseError>(())
/// ```
pub fn parse_program(source: &str) -> Result<Program, ParseError> {
    let tokens = tokenize(source)?;
    Parser { tokens, at: 0 }.program()
}

struct Parser {
    tokens: Vec<Token>,
    at: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        // The token stream always ends with Eof, and the cursor never moves
        // past it.
        &self.tokens[self.at.min(self.tokens.len() - 1)]
    }

    fn bump(&mut self) -> Token {
        let token = self.peek().clone();
        if self.at < self.tokens.len() - 1 {
            self.at += 1;
        }
        token
    }

    fn error_at(&self, expected: &str) -> ParseError {
        let token = self.peek();
        let kind = match &token.kind {
            TokenKind::Eof => ParseErrorKind::UnexpectedEnd {
                expected: expected.to_string(),
            },
            other => ParseErrorKind::UnexpectedToken {
                expected: expected.to_string(),
                found: other.to_string(),
            },
        };
        ParseError::new(kind, token.span)
    }

    fn expect(&mut self, kind: &TokenKind, expected: &str) -> Result<Token, ParseError> {
        if &self.peek().kind == kind {
            Ok(self.bump())
        } else {
            Err(self.error_at(expected))
        }
    }

    fn expect_ident(&mut self, expected: &str) -> Result<(String, Span), ParseError> {
        match &self.peek().kind {
            TokenKind::Ident(_) => {
                let token = self.bump();
                match token.kind {
                    TokenKind::Ident(name) => Ok((name, token.span)),
                    _ => unreachable!("peeked an identifier"),
                }
            }
            _ => Err(self.error_at(expected)),
        }
    }

    /// An unsigned integer literal (register sizes and wire indices).
    fn expect_index(&mut self, expected: &str) -> Result<(u64, Span), ParseError> {
        match &self.peek().kind {
            TokenKind::Number(raw) => {
                let span = self.peek().span;
                let parsed = raw.parse::<u64>().map_err(|_| {
                    ParseError::new(ParseErrorKind::ExpectedInteger(raw.clone()), span)
                })?;
                self.bump();
                Ok((parsed, span))
            }
            _ => Err(self.error_at(expected)),
        }
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        self.version()?;
        let mut register: Option<RegisterDecl> = None;
        let mut statements = Vec::new();
        loop {
            match &self.peek().kind {
                TokenKind::Eof => break,
                TokenKind::Ident(name) if name == "qudit" => {
                    let decl = self.register_decl()?;
                    if register.is_some() {
                        return Err(ParseError::new(
                            ParseErrorKind::DuplicateRegister,
                            decl.span,
                        ));
                    }
                    register = Some(decl);
                }
                _ => {
                    let statement = self.gate_stmt()?;
                    if register.is_none() {
                        return Err(ParseError::new(
                            ParseErrorKind::MissingRegister,
                            statement.span,
                        ));
                    }
                    statements.push(statement);
                }
            }
        }
        let register = register
            .ok_or_else(|| ParseError::new(ParseErrorKind::MissingRegister, self.peek().span))?;
        Ok(Program {
            register,
            statements,
        })
    }

    /// The optional `OPENQASM <version>;` header.
    fn version(&mut self) -> Result<(), ParseError> {
        if !matches!(&self.peek().kind, TokenKind::Ident(name) if name == "OPENQASM") {
            return Ok(());
        }
        self.bump();
        let token = self.peek().clone();
        let raw = match &token.kind {
            TokenKind::Number(raw) => raw.clone(),
            _ => return Err(self.error_at("a version number after OPENQASM")),
        };
        if raw != "3" && raw != "3.0" {
            return Err(ParseError::new(
                ParseErrorKind::UnsupportedVersion(raw),
                token.span,
            ));
        }
        self.bump();
        self.expect(&TokenKind::Semicolon, "';' after the OPENQASM version")?;
        Ok(())
    }

    /// `qudit [ d ] name [ n ] ;` — the cursor sits on `qudit`.
    fn register_decl(&mut self) -> Result<RegisterDecl, ParseError> {
        let (_, span) = self.expect_ident("'qudit'")?;
        self.expect(&TokenKind::LBracket, "'[' after 'qudit'")?;
        let (dimension, dim_span) = self.expect_index("a qudit dimension")?;
        let dimension = u32::try_from(dimension).map_err(|_| {
            ParseError::new(
                ParseErrorKind::ExpectedInteger(dimension.to_string()),
                dim_span,
            )
        })?;
        self.expect(&TokenKind::RBracket, "']' after the dimension")?;
        let (name, _) = self.expect_ident("a register name")?;
        self.expect(&TokenKind::LBracket, "'[' after the register name")?;
        let (size, size_span) = self.expect_index("a register width")?;
        let size = usize::try_from(size).map_err(|_| {
            ParseError::new(ParseErrorKind::ExpectedInteger(size.to_string()), size_span)
        })?;
        if size > MAX_REGISTER_WIDTH {
            return Err(ParseError::new(
                ParseErrorKind::RegisterTooWide {
                    max: MAX_REGISTER_WIDTH,
                    found: size,
                },
                size_span,
            ));
        }
        self.expect(&TokenKind::RBracket, "']' after the register width")?;
        self.expect(&TokenKind::Semicolon, "';' after the register declaration")?;
        Ok(RegisterDecl {
            name,
            dimension,
            size,
            span,
        })
    }

    /// `ctrl (pred)? @ … name params? operands ;`
    fn gate_stmt(&mut self) -> Result<GateStmt, ParseError> {
        let span = self.peek().span;
        let mut controls = Vec::new();
        loop {
            match &self.peek().kind {
                TokenKind::Ident(name) if name == "ctrl" => {
                    controls.push(self.ctrl_mod()?);
                }
                _ => break,
            }
        }
        let (name, name_span) = self.expect_ident("a gate name")?;
        let params = if self.peek().kind == TokenKind::LParen {
            self.params()?
        } else {
            Vec::new()
        };
        let mut operands = vec![self.operand()?];
        while self.peek().kind == TokenKind::Comma {
            self.bump();
            operands.push(self.operand()?);
        }
        self.expect(&TokenKind::Semicolon, "';' after the gate statement")?;
        Ok(GateStmt {
            controls,
            name,
            params,
            operands,
            span,
            name_span,
        })
    }

    fn ctrl_mod(&mut self) -> Result<CtrlMod, ParseError> {
        let (_, span) = self.expect_ident("'ctrl'")?;
        let pred = if self.peek().kind == TokenKind::LParen {
            self.bump();
            let pred = match self.peek().kind.clone() {
                TokenKind::Number(_) => {
                    let (level, level_span) = self.expect_index("a control level")?;
                    let level = u32::try_from(level).map_err(|_| {
                        ParseError::new(
                            ParseErrorKind::ExpectedInteger(level.to_string()),
                            level_span,
                        )
                    })?;
                    CtrlPred::Level(level)
                }
                TokenKind::Ident(name) => {
                    let pred = match name.as_str() {
                        "odd" => CtrlPred::Odd,
                        "even" => CtrlPred::Even,
                        "nonzero" => CtrlPred::NonZero,
                        _ => {
                            return Err(self.error_at(
                                "a control predicate (a level, 'odd', 'even' or 'nonzero')",
                            ))
                        }
                    };
                    self.bump();
                    pred
                }
                _ => {
                    return Err(
                        self.error_at("a control predicate (a level, 'odd', 'even' or 'nonzero')")
                    )
                }
            };
            self.expect(&TokenKind::RParen, "')' after the control predicate")?;
            pred
        } else {
            CtrlPred::Level(0)
        };
        self.expect(&TokenKind::At, "'@' after the control modifier")?;
        Ok(CtrlMod { pred, span })
    }

    fn params(&mut self) -> Result<Vec<Param>, ParseError> {
        self.expect(&TokenKind::LParen, "'('")?;
        let mut params = vec![self.param()?];
        while self.peek().kind == TokenKind::Comma {
            self.bump();
            params.push(self.param()?);
        }
        self.expect(&TokenKind::RParen, "')' after the gate parameters")?;
        Ok(params)
    }

    fn param(&mut self) -> Result<Param, ParseError> {
        let span = self.peek().span;
        let negate = if self.peek().kind == TokenKind::Minus {
            self.bump();
            true
        } else {
            false
        };
        match self.peek().kind.clone() {
            TokenKind::Number(raw) => {
                let number_span = self.peek().span;
                let magnitude = raw.parse::<f64>().map_err(|_| {
                    ParseError::new(ParseErrorKind::InvalidNumber(raw.clone()), number_span)
                })?;
                self.bump();
                let (value, raw) = if negate {
                    (-magnitude, format!("-{raw}"))
                } else {
                    (magnitude, raw)
                };
                Ok(Param { value, raw, span })
            }
            _ => Err(self.error_at("a numeric parameter")),
        }
    }

    fn operand(&mut self) -> Result<Operand, ParseError> {
        let (register, span) = self.expect_ident("an operand ('<register>[<index>]')")?;
        self.expect(&TokenKind::LBracket, "'[' after the operand register")?;
        let (index, index_span) = self.expect_index("a wire index")?;
        let index = usize::try_from(index).map_err(|_| {
            ParseError::new(
                ParseErrorKind::ExpectedInteger(index.to_string()),
                index_span,
            )
        })?;
        self.expect(&TokenKind::RBracket, "']' after the wire index")?;
        Ok(Operand {
            register,
            index,
            span,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_statement_shapes_parse() {
        let program = parse_program(
            "OPENQASM 3.0;\n\
             qudit[4] q[3];\n\
             ctrl(odd) @ ctrl @ swap(0, 2) q[0], q[1], q[2];\n\
             unitary(0.5, -0.5, 0.5, 0.5, 0.5, 0.5, 0.5, -0.5) q[1];\n\
             sumdg q[0], q[2];",
        )
        .unwrap();
        assert_eq!(program.register.name, "q");
        assert_eq!(program.statements.len(), 3);
        let mct = &program.statements[0];
        assert_eq!(mct.controls.len(), 2);
        assert_eq!(mct.controls[0].pred, CtrlPred::Odd);
        assert_eq!(mct.controls[1].pred, CtrlPred::Level(0));
        assert_eq!(mct.operands.len(), 3);
        let unitary = &program.statements[1];
        assert_eq!(unitary.params.len(), 8);
        assert_eq!(unitary.params[1].value, -0.5);
        assert_eq!(unitary.params[1].raw, "-0.5");
    }

    #[test]
    fn version_header_is_optional_but_checked() {
        assert!(parse_program("qudit[3] q[1];").is_ok());
        assert!(parse_program("OPENQASM 3; qudit[3] q[1];").is_ok());
        let error = parse_program("OPENQASM 2.0; qudit[3] q[1];").unwrap_err();
        assert_eq!(error.kind, ParseErrorKind::UnsupportedVersion("2.0".into()));
    }

    #[test]
    fn register_rules_are_enforced() {
        let missing = parse_program("swap(0, 1) q[0];").unwrap_err();
        assert_eq!(missing.kind, ParseErrorKind::MissingRegister);
        let empty = parse_program("").unwrap_err();
        assert_eq!(empty.kind, ParseErrorKind::MissingRegister);
        let duplicate = parse_program("qudit[3] q[1]; qudit[3] r[1];").unwrap_err();
        assert_eq!(duplicate.kind, ParseErrorKind::DuplicateRegister);
        assert_eq!(duplicate.span, Span::new(1, 16));
    }

    #[test]
    fn register_width_is_capped() {
        let widest = format!("qudit[3] q[{MAX_REGISTER_WIDTH}];");
        assert_eq!(
            parse_program(&widest).unwrap().register.size,
            MAX_REGISTER_WIDTH
        );
        let error = parse_program("qudit[3] q[2305843009213693952];").unwrap_err();
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
        let error = parse_program("qudit[3] q[2]; swap(0, 1) q[0]").unwrap_err();
        assert!(matches!(error.kind, ParseErrorKind::UnexpectedEnd { .. }));
        let error = parse_program("qudit[3] q[2]; swap(0,").unwrap_err();
        assert!(matches!(error.kind, ParseErrorKind::UnexpectedEnd { .. }));
        let error = parse_program("qudit[3]").unwrap_err();
        assert!(matches!(error.kind, ParseErrorKind::UnexpectedEnd { .. }));
    }

    #[test]
    fn fractional_indices_are_rejected() {
        let error = parse_program("qudit[3.5] q[1];").unwrap_err();
        assert_eq!(error.kind, ParseErrorKind::ExpectedInteger("3.5".into()));
        let error = parse_program("qudit[3] q[1]; swap(0, 1) q[0.5];").unwrap_err();
        assert_eq!(error.kind, ParseErrorKind::ExpectedInteger("0.5".into()));
    }

    #[test]
    fn huge_indices_are_rejected_without_overflow() {
        let error = parse_program("qudit[99999999999999999999] q[1];").unwrap_err();
        assert!(matches!(error.kind, ParseErrorKind::ExpectedInteger(_)));
        // u64-range but out of u32 range for a dimension.
        let error = parse_program("qudit[4294967296] q[1];").unwrap_err();
        assert!(matches!(error.kind, ParseErrorKind::ExpectedInteger(_)));
    }
}
