//! Qudit circuits: ordered lists of gates over a register of fixed width.

use std::fmt;

use crate::dimension::Dimension;
use crate::error::{QuditError, Result};
use crate::gate::Gate;
use crate::qudit::QuditId;

/// A quantum circuit over `width` qudits of dimension `d`.
///
/// Gates are stored in time order: the first gate in the list is applied
/// first.
///
/// # Example
///
/// ```
/// # use qudit_core::{Circuit, Control, Dimension, Gate, QuditId, SingleQuditOp};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d = Dimension::new(3)?;
/// let mut circuit = Circuit::new(d, 2);
/// circuit.push(Gate::controlled(
///     SingleQuditOp::Swap(0, 1),
///     QuditId::new(1),
///     vec![Control::zero(QuditId::new(0))],
/// ))?;
/// assert_eq!(circuit.len(), 1);
/// assert_eq!(circuit.apply_to_basis(&[0, 0])?, vec![0, 1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Circuit {
    dimension: Dimension,
    width: usize,
    gates: Vec<Gate>,
    /// The register name the circuit was parsed with, when it came from the
    /// text IR (see [`crate::qasm`]).  Presentation metadata only: excluded
    /// from equality so a parsed circuit still compares equal to the same
    /// circuit built programmatically.
    register_name: Option<String>,
}

/// Equality ignores [`Circuit::register_name`]: it is presentation
/// metadata, not part of the circuit's semantics.
impl PartialEq for Circuit {
    fn eq(&self, other: &Self) -> bool {
        self.dimension == other.dimension && self.width == other.width && self.gates == other.gates
    }
}

impl Circuit {
    /// Creates an empty circuit with the given qudit dimension and width.
    pub fn new(dimension: Dimension, width: usize) -> Self {
        Circuit {
            dimension,
            width,
            gates: Vec::new(),
            register_name: None,
        }
    }

    /// The register name the circuit carries for text-IR printing, when it
    /// has one (set by the QASM parser, `None` for programmatically built
    /// circuits, which print as the canonical register `q`).
    pub fn register_name(&self) -> Option<&str> {
        self.register_name.as_deref()
    }

    /// Sets the register name used when printing the circuit as text IR.
    pub fn set_register_name(&mut self, name: impl Into<String>) {
        self.register_name = Some(name.into());
    }

    /// The qudit dimension `d`.
    pub fn dimension(&self) -> Dimension {
        self.dimension
    }

    /// The number of qudits (wires).
    pub fn width(&self) -> usize {
        self.width
    }

    /// A circuit over `gates`, each validated in place (see
    /// [`Gate::validate`]).
    ///
    /// # Errors
    ///
    /// Returns the first validation error, in gate order.
    pub fn from_gates(dimension: Dimension, width: usize, gates: Vec<Gate>) -> Result<Self> {
        for gate in &gates {
            gate.validate(dimension, width)?;
        }
        Ok(Circuit::from_gates_unchecked(dimension, width, gates))
    }

    /// A circuit over gates the caller has already shown valid for this
    /// dimension and width — a reordering or subsequence of another
    /// circuit's gates, or gates built or matched against validated ones by
    /// construction.  Nothing is checked here: an invalid gate surfaces as
    /// an error (or a panic) wherever the circuit is read.  Use
    /// [`Circuit::from_gates`] for gates from anywhere else.  Public only so
    /// the workspace's other crates can build their lowering outputs with
    /// it; hidden from the docs.
    #[doc(hidden)]
    pub fn from_gates_unchecked(dimension: Dimension, width: usize, gates: Vec<Gate>) -> Self {
        Circuit {
            gates,
            ..Circuit::new(dimension, width)
        }
    }

    /// The gates in time order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Consumes the circuit, returning its gates in time order.
    pub(crate) fn into_gates(self) -> Vec<Gate> {
        self.gates
    }

    /// Number of gates.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Returns `true` when the circuit contains no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Iterates over the gates in time order.
    pub fn iter(&self) -> std::slice::Iter<'_, Gate> {
        self.gates.iter()
    }

    /// Appends a gate after validating it.
    ///
    /// # Errors
    ///
    /// Returns an error when the gate is invalid for this circuit (see
    /// [`Gate::validate`]).
    pub fn push(&mut self, gate: Gate) -> Result<()> {
        gate.validate(self.dimension, self.width)?;
        self.gates.push(gate);
        Ok(())
    }

    /// Keeps only the gates for which `keep` returns `true`, in order and in
    /// place (a subsequence of valid gates stays valid).
    pub fn retain(&mut self, keep: impl FnMut(&Gate) -> bool) {
        self.gates.retain(keep);
    }

    /// Appends all gates of `other`.
    ///
    /// # Errors
    ///
    /// Returns an error when the circuits have different dimensions or
    /// `other` is wider than `self`.
    pub fn append(&mut self, other: &Circuit) -> Result<()> {
        if other.dimension != self.dimension {
            return Err(QuditError::IncompatibleCircuits {
                reason: format!(
                    "dimensions differ ({} vs {})",
                    self.dimension, other.dimension
                ),
            });
        }
        if other.width > self.width {
            return Err(QuditError::IncompatibleCircuits {
                reason: format!("width {} exceeds target width {}", other.width, self.width),
            });
        }
        for gate in &other.gates {
            // Gates were already validated for `other`; widths are compatible.
            self.gates.push(gate.clone());
        }
        Ok(())
    }

    /// Returns the inverse circuit (each gate inverted, in reverse order).
    pub fn inverse(&self) -> Circuit {
        let gates = self
            .gates
            .iter()
            .rev()
            .map(|g| g.inverse(self.dimension))
            .collect();
        Circuit {
            dimension: self.dimension,
            width: self.width,
            gates,
            register_name: self.register_name.clone(),
        }
    }

    /// Returns a copy of the circuit embedded in a wider register.
    ///
    /// # Errors
    ///
    /// Returns an error when `width` is smaller than the current width.
    pub fn widened(&self, width: usize) -> Result<Circuit> {
        if width < self.width {
            return Err(QuditError::IncompatibleCircuits {
                reason: format!("cannot shrink width from {} to {}", self.width, width),
            });
        }
        Ok(Circuit {
            dimension: self.dimension,
            width,
            gates: self.gates.clone(),
            register_name: self.register_name.clone(),
        })
    }

    /// Applies a classical circuit to a computational basis state.
    ///
    /// # Errors
    ///
    /// Returns [`QuditError::NotClassical`] when the circuit contains a
    /// non-permutation gate, and [`QuditError::QuditOutOfRange`] when the
    /// input has the wrong length.
    pub fn apply_to_basis(&self, digits: &[u32]) -> Result<Vec<u32>> {
        if digits.len() != self.width {
            return Err(QuditError::QuditOutOfRange {
                qudit: digits.len(),
                width: self.width,
            });
        }
        if let Some(&level) = digits.iter().find(|&&v| v >= self.dimension.get()) {
            return Err(QuditError::LevelOutOfRange {
                level,
                dimension: self.dimension.get(),
            });
        }
        let mut state = digits.to_vec();
        for gate in &self.gates {
            gate.apply_to_basis(&mut state, self.dimension)?;
        }
        Ok(state)
    }

    /// Returns `true` when every gate permutes the computational basis.
    pub fn is_classical(&self) -> bool {
        self.gates.iter().all(Gate::is_classical)
    }

    /// Number of gates that are elementary G-gates.
    pub fn g_gate_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_g_gate()).count()
    }

    /// The largest number of controls on any gate (0 for an empty circuit).
    pub fn max_controls(&self) -> usize {
        self.gates
            .iter()
            .map(|g| g.controls().len())
            .max()
            .unwrap_or(0)
    }

    /// Returns the qudits that are touched by at least one gate.
    pub fn used_qudits(&self) -> Vec<QuditId> {
        let mut used = vec![false; self.width];
        for gate in &self.gates {
            for q in gate.support() {
                used[q.index()] = true;
            }
        }
        used.iter()
            .enumerate()
            .filter_map(|(i, &u)| if u { Some(QuditId::new(i)) } else { None })
            .collect()
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit: d={}, width={}, gates={}",
            self.dimension,
            self.width,
            self.gates.len()
        )?;
        for (i, gate) in self.gates.iter().enumerate() {
            writeln!(f, "  {i:4}: {gate}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Circuit {
    type Item = &'a Gate;
    type IntoIter = std::slice::Iter<'a, Gate>;

    fn into_iter(self) -> Self::IntoIter {
        self.gates.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::Control;
    use crate::ops::SingleQuditOp;

    fn dim(d: u32) -> Dimension {
        Dimension::new(d).unwrap()
    }

    fn toffoli_like(d: Dimension) -> Circuit {
        let mut c = Circuit::new(d, 3);
        c.push(Gate::controlled(
            SingleQuditOp::Swap(0, 1),
            QuditId::new(2),
            vec![
                Control::zero(QuditId::new(0)),
                Control::zero(QuditId::new(1)),
            ],
        ))
        .unwrap();
        c
    }

    #[test]
    fn push_validates_gates() {
        let mut c = Circuit::new(dim(3), 2);
        let bad = Gate::single(SingleQuditOp::Swap(0, 1), QuditId::new(5));
        assert!(c.push(bad).is_err());
        assert!(c.is_empty());
    }

    #[test]
    fn append_checks_compatibility() {
        let mut a = Circuit::new(dim(3), 3);
        let b = Circuit::new(dim(4), 3);
        assert!(a.append(&b).is_err());
        let narrow = Circuit::new(dim(3), 2);
        assert!(a.append(&narrow).is_ok());
        let wide = Circuit::new(dim(3), 4);
        assert!(a.append(&wide).is_err());
    }

    #[test]
    fn inverse_undoes_classical_circuit() {
        let d = dim(5);
        let mut c = Circuit::new(d, 2);
        c.push(Gate::single(SingleQuditOp::Add(2), QuditId::new(0)))
            .unwrap();
        c.push(Gate::controlled(
            SingleQuditOp::Add(3),
            QuditId::new(1),
            vec![Control::odd(QuditId::new(0))],
        ))
        .unwrap();
        let inv = c.inverse();
        for a in 0..5 {
            for b in 0..5 {
                let forward = c.apply_to_basis(&[a, b]).unwrap();
                let back = inv.apply_to_basis(&forward).unwrap();
                assert_eq!(back, vec![a, b]);
            }
        }
    }

    #[test]
    fn apply_to_basis_validates_input() {
        let c = toffoli_like(dim(3));
        assert!(c.apply_to_basis(&[0, 0]).is_err());
        assert!(c.apply_to_basis(&[0, 0, 7]).is_err());
        assert_eq!(c.apply_to_basis(&[0, 0, 0]).unwrap(), vec![0, 0, 1]);
        assert_eq!(c.apply_to_basis(&[1, 0, 0]).unwrap(), vec![1, 0, 0]);
    }

    #[test]
    fn counting_helpers() {
        let d = dim(4);
        let mut c = Circuit::new(d, 4);
        c.push(Gate::single(SingleQuditOp::Swap(0, 1), QuditId::new(0)))
            .unwrap();
        c.push(Gate::controlled(
            SingleQuditOp::Swap(0, 1),
            QuditId::new(1),
            vec![Control::zero(QuditId::new(0))],
        ))
        .unwrap();
        c.push(Gate::controlled(
            SingleQuditOp::Swap(0, 2),
            QuditId::new(2),
            vec![
                Control::zero(QuditId::new(0)),
                Control::zero(QuditId::new(1)),
            ],
        ))
        .unwrap();
        assert_eq!(c.g_gate_count(), 2);
        assert_eq!(c.max_controls(), 2);
        assert_eq!(c.used_qudits().len(), 3);
    }

    #[test]
    fn register_name_is_metadata_not_semantics() {
        let mut named = toffoli_like(dim(3));
        named.set_register_name("work");
        let anonymous = toffoli_like(dim(3));
        // Equality ignores the name…
        assert_eq!(named, anonymous);
        // …but derived circuits keep it.
        assert_eq!(named.inverse().register_name(), Some("work"));
        assert_eq!(named.widened(5).unwrap().register_name(), Some("work"));
        assert_eq!(anonymous.register_name(), None);
    }

    #[test]
    fn widening_preserves_gates() {
        let c = toffoli_like(dim(3));
        let wide = c.widened(5).unwrap();
        assert_eq!(wide.width(), 5);
        assert_eq!(wide.len(), c.len());
        assert!(c.widened(2).is_err());
    }
}
