//! Error types shared by the core circuit substrate.

use std::error::Error as StdError;
use std::fmt;

/// Errors produced while building or transforming qudit circuits.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum QuditError {
    /// The requested qudit dimension is not supported (must be at least 2).
    InvalidDimension {
        /// The rejected dimension value.
        dimension: u32,
    },
    /// A level index was used that is not smaller than the qudit dimension.
    LevelOutOfRange {
        /// The rejected level.
        level: u32,
        /// The dimension the level was checked against.
        dimension: u32,
    },
    /// A qudit index does not exist in the circuit it was used with.
    QuditOutOfRange {
        /// The rejected qudit index.
        qudit: usize,
        /// The number of qudits in the circuit.
        width: usize,
    },
    /// A gate refers to the same qudit more than once (for example a control
    /// that is also the target).
    DuplicateQudit {
        /// The duplicated qudit index.
        qudit: usize,
    },
    /// An operation requiring an even dimension was used with an odd one, or
    /// vice versa.
    ParityMismatch {
        /// The dimension that did not have the required parity.
        dimension: u32,
        /// `true` if an even dimension was required.
        requires_even: bool,
    },
    /// A transposition `Xij` was constructed with `i == j`.
    DegenerateTransposition {
        /// The repeated level.
        level: u32,
    },
    /// A permutation table is not a bijection on `[d]`.
    NotAPermutation,
    /// A matrix is not unitary within the numerical tolerance.
    NotUnitary,
    /// A matrix has the wrong shape for the dimension it is used with.
    MatrixShapeMismatch {
        /// Number of rows/columns found.
        found: usize,
        /// Number of rows/columns expected.
        expected: usize,
    },
    /// A lowering pass encountered a gate it cannot handle (for example a
    /// gate with two or more controls, which requires the synthesis crate),
    /// or the compile facade was handed a non-classical gate, which no
    /// G-gate sequence expresses.
    UnsupportedLowering {
        /// Human readable description of the unsupported gate.
        reason: String,
    },
    /// A non-classical (unitary) operation was used where a classical
    /// permutation operation is required.
    NotClassical,
    /// A multi-controlled construction of the synthesis crate needs a larger
    /// dimension: `d ≥ 3` for the k-Toffoli, `d ≥ 4` for the even-`d`
    /// gadget.
    DimensionTooSmall {
        /// The rejected dimension.
        dimension: u32,
        /// The smallest supported dimension.
        minimum: u32,
    },
    /// For even dimensions the k-Toffoli requires one borrowed ancilla
    /// (the parity argument after Theorem III.2), but none was available.
    BorrowedAncillaRequired {
        /// The (even) dimension for which the ancilla is required.
        dimension: u32,
    },
    /// A construction that only accepts classical (permutation) target
    /// operations was given a general unitary.
    NotClassicalTarget,
    /// A synthesis construction, or the macro-gate lowering to elementary
    /// gates, refused its input.
    CannotLower {
        /// Human readable description of the refusal.
        reason: String,
    },
    /// A construction required more borrowed/clean ancilla qudits than were
    /// provided.
    InsufficientAncillas {
        /// Number of ancillas required.
        required: usize,
        /// Number of ancillas available.
        available: usize,
    },
    /// Two circuits with incompatible dimension or width were combined.
    IncompatibleCircuits {
        /// Description of the mismatch.
        reason: String,
    },
    /// A compilation pass failed (see [`crate::pipeline`]): it could not
    /// transform its input, or a verification wrapper detected that it did
    /// not preserve the circuit's semantics.
    PassFailed {
        /// Name of the failing pass.
        pass: String,
        /// Description of the failure.
        reason: String,
    },
    /// A pipeline description named a stage that no pass factory is
    /// registered for (see [`crate::pipeline::PassRegistry`]).
    UnknownPass {
        /// The unresolvable stage name.
        stage: String,
    },
    /// A text-IR source failed to parse (see [`crate::qasm`]).
    ParseFailed {
        /// 1-based source line of the failure.
        line: u32,
        /// 1-based source column of the failure.
        column: u32,
        /// The rendered [`crate::qasm::ParseErrorKind`] message.
        message: String,
    },
    /// A coupling graph has fewer sites than the operation needs: an
    /// undersized builder argument, or a circuit wider than the graph it is
    /// routed onto (see [`crate::topology`]).
    TopologyTooSmall {
        /// Number of sites the graph has (or was asked to have).
        sites: usize,
        /// Minimum number of sites required.
        minimum: usize,
    },
    /// A coupling graph does not connect all of its sites, so no routing can
    /// bring every pair of qudits adjacent (see [`crate::topology`]).
    TopologyDisconnected {
        /// Number of sites reachable from site 0.
        reached: usize,
        /// Total number of sites.
        sites: usize,
    },
    /// A custom coupling edge is invalid: a self-loop, or an endpoint outside
    /// the site range (see [`crate::topology::CouplingGraph::custom`]).
    TopologyInvalidEdge {
        /// First endpoint of the rejected edge.
        a: usize,
        /// Second endpoint of the rejected edge.
        b: usize,
        /// Number of sites in the graph.
        sites: usize,
    },
    /// A circuit violates a coupling graph's adjacency invariant: a
    /// multi-qudit gate acts on two sites the graph does not couple (see
    /// [`crate::route::validate_adjacency`]).
    UncoupledGate {
        /// Index of the offending gate in the circuit.
        gate: usize,
        /// First site the gate touches.
        a: usize,
        /// Second (uncoupled) site the gate touches.
        b: usize,
    },
}

impl fmt::Display for QuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuditError::InvalidDimension { dimension } => {
                write!(
                    f,
                    "invalid qudit dimension {dimension}; dimensions must be at least 2"
                )
            }
            QuditError::LevelOutOfRange { level, dimension } => {
                write!(f, "level {level} is out of range for dimension {dimension}")
            }
            QuditError::QuditOutOfRange { qudit, width } => {
                write!(
                    f,
                    "qudit index {qudit} is out of range for a circuit of width {width}"
                )
            }
            QuditError::DuplicateQudit { qudit } => {
                write!(f, "qudit {qudit} appears more than once in a single gate")
            }
            QuditError::ParityMismatch {
                dimension,
                requires_even,
            } => {
                if *requires_even {
                    write!(
                        f,
                        "operation requires an even dimension but d = {dimension}"
                    )
                } else {
                    write!(f, "operation requires an odd dimension but d = {dimension}")
                }
            }
            QuditError::DegenerateTransposition { level } => {
                write!(f, "transposition with identical levels {level} and {level}")
            }
            QuditError::NotAPermutation => write!(f, "table is not a permutation of the levels"),
            QuditError::NotUnitary => write!(f, "matrix is not unitary within tolerance"),
            QuditError::MatrixShapeMismatch { found, expected } => {
                write!(
                    f,
                    "matrix has size {found} but size {expected} was expected"
                )
            }
            QuditError::UnsupportedLowering { reason } => {
                write!(f, "cannot lower gate to G-gates: {reason}")
            }
            QuditError::NotClassical => {
                write!(
                    f,
                    "operation is not a classical permutation of the computational basis"
                )
            }
            QuditError::DimensionTooSmall { dimension, minimum } => {
                write!(f, "qudit dimension {dimension} is too small; the synthesis requires d ≥ {minimum}")
            }
            QuditError::BorrowedAncillaRequired { dimension } => {
                write!(
                    f,
                    "even dimension d = {dimension} requires one borrowed ancilla qudit for the multi-controlled Toffoli"
                )
            }
            QuditError::NotClassicalTarget => {
                write!(
                    f,
                    "target operation must be a classical level permutation for this construction"
                )
            }
            QuditError::CannotLower { reason } => write!(f, "cannot lower gate: {reason}"),
            QuditError::InsufficientAncillas {
                required,
                available,
            } => {
                write!(f, "construction needs {required} ancilla qudits but only {available} are available")
            }
            QuditError::IncompatibleCircuits { reason } => {
                write!(f, "circuits cannot be combined: {reason}")
            }
            QuditError::PassFailed { pass, reason } => {
                write!(f, "pass '{pass}' failed: {reason}")
            }
            QuditError::UnknownPass { stage } => {
                write!(f, "no pass is registered for pipeline stage '{stage}'")
            }
            QuditError::ParseFailed {
                line,
                column,
                message,
            } => {
                write!(
                    f,
                    "qasm parse failed at line {line}, column {column}: {message}"
                )
            }
            QuditError::TopologyTooSmall { sites, minimum } => {
                write!(
                    f,
                    "coupling graph has {sites} sites but at least {minimum} are required"
                )
            }
            QuditError::TopologyDisconnected { reached, sites } => {
                write!(
                    f,
                    "coupling graph is disconnected: only {reached} of {sites} sites are reachable from site 0"
                )
            }
            QuditError::TopologyInvalidEdge { a, b, sites } => {
                write!(
                    f,
                    "coupling edge ({a}, {b}) is invalid for a graph with {sites} sites"
                )
            }
            QuditError::UncoupledGate { gate, a, b } => {
                write!(
                    f,
                    "gate {gate} acts on qudits {a} and {b}, which the coupling graph does not couple"
                )
            }
        }
    }
}

impl StdError for QuditError {}

/// Convenience result alias used throughout the core crate.
pub type Result<T> = std::result::Result<T, QuditError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let errors = vec![
            QuditError::InvalidDimension { dimension: 1 },
            QuditError::LevelOutOfRange {
                level: 5,
                dimension: 3,
            },
            QuditError::QuditOutOfRange { qudit: 7, width: 3 },
            QuditError::DuplicateQudit { qudit: 2 },
            QuditError::ParityMismatch {
                dimension: 3,
                requires_even: true,
            },
            QuditError::ParityMismatch {
                dimension: 4,
                requires_even: false,
            },
            QuditError::DegenerateTransposition { level: 1 },
            QuditError::NotAPermutation,
            QuditError::NotUnitary,
            QuditError::MatrixShapeMismatch {
                found: 2,
                expected: 3,
            },
            QuditError::UnsupportedLowering {
                reason: "two controls".into(),
            },
            QuditError::NotClassical,
            QuditError::DimensionTooSmall {
                dimension: 2,
                minimum: 3,
            },
            QuditError::BorrowedAncillaRequired { dimension: 4 },
            QuditError::NotClassicalTarget,
            QuditError::CannotLower {
                reason: "three controls".into(),
            },
            QuditError::InsufficientAncillas {
                required: 3,
                available: 1,
            },
            QuditError::IncompatibleCircuits {
                reason: "widths differ".into(),
            },
            QuditError::PassFailed {
                pass: "lower-to-g-gates".into(),
                reason: "not classical".into(),
            },
            QuditError::UnknownPass {
                stage: "route-qudits".into(),
            },
            QuditError::ParseFailed {
                line: 2,
                column: 1,
                message: "unknown gate 'wiggle'".into(),
            },
            QuditError::TopologyTooSmall {
                sites: 2,
                minimum: 3,
            },
            QuditError::TopologyDisconnected {
                reached: 3,
                sites: 5,
            },
            QuditError::TopologyInvalidEdge {
                a: 0,
                b: 7,
                sites: 4,
            },
            QuditError::UncoupledGate {
                gate: 9,
                a: 0,
                b: 3,
            },
        ];
        for error in errors {
            let message = error.to_string();
            assert!(!message.is_empty());
            assert!(message.chars().next().unwrap().is_lowercase());
            assert!(!message.ends_with('.'));
        }
    }

    #[test]
    fn displays_are_informative() {
        let cases = [
            (
                QuditError::DimensionTooSmall {
                    dimension: 2,
                    minimum: 3,
                },
                "qudit dimension 2 is too small; the synthesis requires d ≥ 3",
            ),
            (
                QuditError::BorrowedAncillaRequired { dimension: 4 },
                "even dimension d = 4 requires one borrowed ancilla qudit for the multi-controlled Toffoli",
            ),
            (
                QuditError::NotClassicalTarget,
                "target operation must be a classical level permutation for this construction",
            ),
            (
                QuditError::CannotLower {
                    reason: "three controls".into(),
                },
                "cannot lower gate: three controls",
            ),
        ];
        for (error, expected) in cases {
            assert_eq!(error.to_string(), expected);
        }
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QuditError>();
    }
}
