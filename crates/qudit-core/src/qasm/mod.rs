//! OpenQASM-3-flavoured text IR for qudit circuits.
//!
//! Every workload used to be born inside the repo as a Rust-constructed
//! [`Circuit`]; this module is the interchange boundary that lets circuits
//! arrive (and leave) as text — external benchmark corpora, compile jobs
//! over a wire, and fuzzing all speak this dialect.  It has one function
//! per direction:
//!
//! * [`parse_source`] — source text straight to a validated [`Circuit`] in
//!   one pass: each statement is lexed, parsed, checked against the gate
//!   table and pushed before the next one is read;
//! * [`printer`] — the exact inverse: a [`Circuit`] back to canonical text,
//!   with `parse(print(c)) == c` *structurally* (float literals use Rust's
//!   shortest round-trip formatting, so even unitary matrices survive
//!   bit-for-bit).
//!
//! Every failure mode is a typed [`ParseError`] carrying a 1-based
//! line/column [`Span`]; the parser returns `Err` on any input — it never
//! panics, which the CI fuzz-smoke job enforces with ~50k mutated sources
//! per run.
//!
//! # Grammar sketch
//!
//! ```text
//! program   := version? register statement* EOF
//! version   := "OPENQASM" NUMBER ";"              // 3 or 3.0
//! register  := "qudit" "[" INT "]" IDENT "[" INT "]" ";"
//! statement := ctrl* gate params? operands ";"
//! ctrl      := "ctrl" ( "(" pred ")" )? "@"       // bare ctrl = ctrl(0)
//! pred      := INT | "odd" | "even" | "nonzero"
//! params    := "(" param ("," param)* ")"
//! param     := "-"? NUMBER
//! operands  := operand ("," operand)*
//! operand   := IDENT "[" INT "]"
//! ```
//!
//! Line comments (`// …`) are ignored.  A program declares exactly one
//! qudit register; `qudit[3] q[8];` declares eight qutrits.
//!
//! # Dialect reference
//!
//! | Statement | Params | Operands | Meaning |
//! |---|---|---|---|
//! | `swap(i, j) q[t];` | 2 levels | target | transposition `Xij` ([`SingleQuditOp::Swap`]) |
//! | `shift(y) q[t];` | 1 level | target | cyclic shift `X+y` ([`SingleQuditOp::Add`]) |
//! | `parityflip_e q[t];` | — | target | `X_eo^e` (even `d`) |
//! | `parityflip_o q[t];` | — | target | `X_eo^o` (odd `d`) |
//! | `perm(p0, …, p(d−1)) q[t];` | `d` levels | target | level permutation `i ↦ pi` |
//! | `unitary(re, im, …) q[t];` | `2d²` reals | target | row-major `d × d` unitary |
//! | `fourier q[t];` | — | target | the Clifford Fourier gate `F` ([`SingleQuditOp::fourier`]) |
//! | `phase q[t];` | — | target | the Clifford phase gate `S` ([`SingleQuditOp::clifford_phase`]) |
//! | `sum q[s], q[t];` | — | source, target | `X+⋆`: `\|y, t⟩ ↦ \|y, t+y⟩` ([`Gate::add_from`]) |
//! | `sumdg q[s], q[t];` | — | source, target | `X−⋆`, the inverse of `sum` |
//!
//! Any statement takes `ctrl(<pred>) @` modifiers; each modifier consumes
//! one extra *leading* operand as its control qudit, in order:
//!
//! ```text
//! ctrl(0) @ ctrl(odd) @ swap(0, 1) q[0], q[1], q[2];
//! ```
//!
//! is the doubly-controlled `X01` firing when `q[0]` is `|0⟩` and `q[1]`
//! is odd.  Predicates map onto [`ControlPredicate`]: an integer level,
//! `odd`, `even` (non-zero even) and `nonzero`; a bare `ctrl @` is the
//! paper's default `|0⟩`-control.
//!
//! # Example
//!
//! ```
//! use qudit_core::qasm;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let source = "
//!     OPENQASM 3.0;
//!     qudit[3] q[2];
//!     fourier q[0];
//!     ctrl(1) @ shift(2) q[0], q[1];
//!     sum q[0], q[1];
//! ";
//! let circuit = qasm::parse_source(source)?;
//! assert_eq!(circuit.len(), 3);
//!
//! // The printer is an exact structural inverse.
//! let printed = qasm::print_circuit(&circuit);
//! assert_eq!(qasm::parse_source(&printed)?, circuit);
//!
//! // Errors carry line/column spans.
//! let error = qasm::parse_source("qudit[3] q[1];\nswap(0, 9) q[0];").unwrap_err();
//! assert_eq!((error.span.line, error.span.column), (2, 1));
//! # Ok(())
//! # }
//! ```

use std::error::Error as StdError;
use std::fmt;

use crate::circuit::Circuit;
#[allow(unused_imports)] // intra-doc links above
use crate::control::ControlPredicate;
use crate::error::QuditError;
#[allow(unused_imports)] // intra-doc links above
use crate::gate::Gate;
#[allow(unused_imports)] // intra-doc links above
use crate::ops::SingleQuditOp;

mod lexer;
mod parser;
pub mod printer;

pub use printer::print_circuit;

/// The largest dimension the `fourier`/`phase` sugar materialises a dense
/// `d × d` matrix for.
///
/// Every other statement's cost is bounded by the source length (a `perm`
/// or `unitary` needs one literal per entry), but these two conjure a
/// matrix out of a single keyword — without a cap, a fuzzed
/// `qudit[4000000000]` register would make parsing allocate gigabytes.
pub const MAX_DENSE_SUGAR_DIMENSION: u32 = 64;

/// The widest `qudit` register a source may declare.
///
/// A declaration costs a few bytes of source whatever its width, but every
/// compile stage after it keeps per-wire state, so a one-gate source costs
/// time in proportion to its declared width.  The cap bounds that work, and
/// keeps a width near `usize::MAX` from overflowing a per-wire allocation.
pub const MAX_REGISTER_WIDTH: usize = 1 << 20;

/// A 1-based line/column position in a source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column (in characters, not bytes).
    pub column: u32,
}

impl Span {
    /// Creates a span at the given 1-based line and column.
    pub fn new(line: u32, column: u32) -> Self {
        Span { line, column }
    }

    /// The span of the very first character of a source.
    pub fn start() -> Self {
        Span { line: 1, column: 1 }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, column {}", self.line, self.column)
    }
}

/// What went wrong while parsing a source (see [`ParseError`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseErrorKind {
    /// A character outside the dialect's alphabet.
    UnexpectedChar(char),
    /// A numeric literal that does not scan as a number.
    InvalidNumber(String),
    /// A token other than the one the grammar requires.
    UnexpectedToken {
        /// What the grammar required at this point.
        expected: String,
        /// The token actually found.
        found: String,
    },
    /// The source ended while the grammar required more input.
    UnexpectedEnd {
        /// What the grammar required at this point.
        expected: String,
    },
    /// An `OPENQASM` version other than the supported `3` / `3.0`.
    UnsupportedVersion(String),
    /// A second `qudit` register declaration (the dialect allows one).
    DuplicateRegister,
    /// A gate statement before the `qudit` register declaration.
    MissingRegister,
    /// An operand naming a register that was never declared.
    UnknownRegister(String),
    /// A gate name outside the dialect table.
    UnknownGate(String),
    /// A parameter that must be a non-negative integer but is not.
    ExpectedInteger(String),
    /// A gate called with the wrong number of parameters.
    WrongParamCount {
        /// The gate name.
        gate: String,
        /// Description of the expected parameter count.
        expected: String,
        /// Number of parameters found.
        found: usize,
    },
    /// A dense-matrix sugar statement (`fourier`, `phase`) used with a
    /// dimension too large to materialise a `d × d` matrix for.
    UnsupportedDimension {
        /// The gate name.
        gate: String,
        /// The largest supported dimension.
        max: u32,
        /// The declared register dimension.
        found: u32,
    },
    /// A `qudit` register declared wider than [`MAX_REGISTER_WIDTH`].
    RegisterTooWide {
        /// The widest supported register.
        max: usize,
        /// The declared width.
        found: usize,
    },
    /// A gate called with the wrong number of operands (controls included).
    WrongOperandCount {
        /// The gate name.
        gate: String,
        /// Number of operands expected (control operands included).
        expected: usize,
        /// Number of operands found.
        found: usize,
    },
    /// The statement parsed but the gate it describes is invalid for the
    /// declared register (level out of range, duplicate qudit, non-unitary
    /// matrix, …).
    Semantic(QuditError),
}

impl fmt::Display for ParseErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseErrorKind::UnexpectedChar(c) => write!(f, "unexpected character '{c}'"),
            ParseErrorKind::InvalidNumber(raw) => write!(f, "invalid numeric literal '{raw}'"),
            ParseErrorKind::UnexpectedToken { expected, found } => {
                write!(f, "expected {expected}, found {found}")
            }
            ParseErrorKind::UnexpectedEnd { expected } => {
                write!(f, "expected {expected}, found end of input")
            }
            ParseErrorKind::UnsupportedVersion(raw) => {
                write!(
                    f,
                    "unsupported OPENQASM version '{raw}' (expected 3 or 3.0)"
                )
            }
            ParseErrorKind::DuplicateRegister => {
                write!(f, "a qudit register was already declared")
            }
            ParseErrorKind::MissingRegister => {
                write!(f, "statement precedes the qudit register declaration")
            }
            ParseErrorKind::UnknownRegister(name) => {
                write!(f, "unknown register '{name}'")
            }
            ParseErrorKind::UnknownGate(name) => write!(f, "unknown gate '{name}'"),
            ParseErrorKind::ExpectedInteger(raw) => {
                write!(f, "expected a non-negative integer, found '{raw}'")
            }
            ParseErrorKind::WrongParamCount {
                gate,
                expected,
                found,
            } => {
                write!(f, "gate '{gate}' takes {expected}, found {found}")
            }
            ParseErrorKind::UnsupportedDimension { gate, max, found } => {
                write!(
                    f,
                    "gate '{gate}' supports dimensions up to {max}, found {found}"
                )
            }
            ParseErrorKind::RegisterTooWide { max, found } => {
                write!(f, "registers may be up to {max} qudits wide, found {found}")
            }
            ParseErrorKind::WrongOperandCount {
                gate,
                expected,
                found,
            } => {
                write!(
                    f,
                    "gate '{gate}' needs {expected} operand(s) (controls included), found {found}"
                )
            }
            ParseErrorKind::Semantic(error) => write!(f, "{error}"),
        }
    }
}

/// A typed parse diagnostic with a source [`Span`].
///
/// # Example
///
/// ```
/// use qudit_core::qasm::{parse_source, ParseErrorKind};
///
/// let error = parse_source("qudit[3] q[2];\nwiggle q[0];").unwrap_err();
/// assert!(matches!(error.kind, ParseErrorKind::UnknownGate(_)));
/// assert_eq!(error.to_string(), "line 2, column 1: unknown gate 'wiggle'");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub kind: ParseErrorKind,
    /// Where it went wrong (1-based line and column).
    pub span: Span,
}

impl ParseError {
    /// Creates a diagnostic from its kind and location.
    pub fn new(kind: ParseErrorKind, span: Span) -> Self {
        ParseError { kind, span }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.span, self.kind)
    }
}

impl StdError for ParseError {}

impl From<ParseError> for QuditError {
    fn from(error: ParseError) -> Self {
        QuditError::ParseFailed {
            line: error.span.line,
            column: error.span.column,
            message: error.kind.to_string(),
        }
    }
}

/// Parses a dialect source all the way to a validated [`Circuit`].
///
/// One walk reads the source: each statement is parsed, checked against the
/// gate table and pushed into the circuit before the next one is read.  It
/// returns `Err` on any invalid input and never panics.
///
/// # Errors
///
/// Returns one [`ParseError`], chosen as if the source were lexed, then
/// parsed, then checked, each stage over the whole source and stopping at
/// its first error: the error reported is the first of the earliest failing
/// stage, not the first in source order.  Any lexical error wins over any
/// grammar error, and any grammar error wins over any semantic error (an
/// unknown gate, a bad level, a wrong operand count).
pub fn parse_source(source: &str) -> Result<Circuit, ParseError> {
    parser::parse(source)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_format_one_based() {
        assert_eq!(Span::start().to_string(), "line 1, column 1");
        assert_eq!(Span::new(4, 17).to_string(), "line 4, column 17");
    }

    #[test]
    fn errors_follow_stage_precedence_not_source_order() {
        // A later stray character (lexical) wins over an earlier unknown gate
        // (semantic).
        let error = parse_source("qudit[3] q[1]; warble q[0]; $").unwrap_err();
        assert_eq!(error.kind, ParseErrorKind::UnexpectedChar('$'));
        assert_eq!(error.span, Span::new(1, 29));
        // A later unclosed parameter list (grammar) wins over an earlier
        // unknown gate.
        let error = parse_source("qudit[3] q[1];\nwarble q[0];\nshift(1 q[0];").unwrap_err();
        assert!(
            matches!(error.kind, ParseErrorKind::UnexpectedToken { .. }),
            "{error}"
        );
        assert_eq!(error.span.line, 3);
    }

    #[test]
    fn parse_error_converts_into_qudit_error() {
        let error = parse_source("qudit[3] q[1]").unwrap_err();
        let core: QuditError = error.clone().into();
        match core {
            QuditError::ParseFailed {
                line,
                column,
                message,
            } => {
                assert_eq!((line, column), (error.span.line, error.span.column));
                assert_eq!(message, error.kind.to_string());
            }
            other => panic!("expected ParseFailed, got {other:?}"),
        }
    }

    #[test]
    fn error_displays_are_lowercase_and_informative() {
        let sources = [
            "qudit[3] q[1]; $",
            "qudit[3] q[1]; swap(0, 1) q[9];",
            "OPENQASM 2.0; qudit[3] q[1];",
            "swap(0, 1) q[0];",
            "qudit[3] q[1]; qudit[3] r[1];",
            "qudit[3] q[1]; warble q[0];",
        ];
        for source in sources {
            let message = parse_source(source).unwrap_err().to_string();
            assert!(message.starts_with("line "), "{message}");
            assert!(!message.ends_with('.'), "{message}");
        }
    }
}
