//! Gates: a target operation plus a (possibly empty) list of controls.

use std::fmt;

use crate::control::{Control, ControlPredicate};
use crate::dimension::Dimension;
use crate::error::{QuditError, Result};
use crate::ops::SingleQuditOp;
use crate::qudit::QuditId;

/// The operation a gate applies to its target qudit when all controls fire.
#[derive(Debug, Clone, PartialEq)]
pub enum GateOp {
    /// A fixed single-qudit operation.
    Single(SingleQuditOp),
    /// The value-controlled shift `X±⋆` of the paper (Fig. 6): the target is
    /// shifted by the *value* of the `source` qudit, i.e.
    /// `|y⟩_source |t⟩ ↦ |y⟩_source |t ± y mod d⟩` (subject to the gate's
    /// ordinary controls).
    AddFrom {
        /// The qudit whose value is added to (or subtracted from) the target.
        source: QuditId,
        /// When `true` the value is subtracted (`X−⋆`), otherwise added (`X+⋆`).
        negate: bool,
    },
}

impl GateOp {
    /// Returns `true` when the operation permutes the computational basis.
    pub fn is_classical(&self) -> bool {
        match self {
            GateOp::Single(op) => op.is_classical(),
            GateOp::AddFrom { .. } => true,
        }
    }
}

impl fmt::Display for GateOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateOp::Single(op) => write!(f, "{op}"),
            GateOp::AddFrom { source, negate } => {
                if *negate {
                    write!(f, "X-⋆({source})")
                } else {
                    write!(f, "X+⋆({source})")
                }
            }
        }
    }
}

/// A gate: an operation applied to a target qudit when every control fires.
///
/// The controls live inline when there is exactly one (every controlled
/// G-gate of the paper has one), so building, cloning and dropping such a
/// gate never touches the heap; two or more spill to a `Vec`, and none is an
/// empty `Vec`, which does not allocate either.  The layout keeps a `Gate`
/// at 64 bytes.  [`Gate::controls`] reads every case as one slice, and the
/// constructors take any `IntoIterator<Item = Control>` — a `vec![…]`, an
/// array or an iterator — so an inline control is built without an
/// intermediate vector.
///
/// # Example
///
/// ```
/// # use qudit_core::{Control, Gate, QuditId, SingleQuditOp};
/// // The elementary |0⟩-X01 gate with control q0 and target q1.
/// let gate = Gate::controlled(
///     SingleQuditOp::Swap(0, 1),
///     QuditId::new(1),
///     vec![Control::zero(QuditId::new(0))],
/// );
/// assert_eq!(gate.controls().len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    op: GateOp,
    target: QuditId,
    controls: Controls,
}

/// The controls of a [`Gate`]: one inline, or any other count in a `Vec`.
///
/// Built through [`Controls::collect`], which stores exactly one control as
/// `One`; equality compares the slices, whatever holds them.
#[derive(Clone)]
enum Controls {
    One(Control),
    Many(Vec<Control>),
}

impl Controls {
    fn none() -> Self {
        Controls::Many(Vec::new())
    }

    fn collect(controls: impl IntoIterator<Item = Control>) -> Self {
        let mut controls = controls.into_iter();
        let Some(first) = controls.next() else {
            return Controls::none();
        };
        let Some(second) = controls.next() else {
            return Controls::One(first);
        };
        let mut many = Vec::with_capacity(2 + controls.size_hint().0);
        many.extend([first, second]);
        many.extend(controls);
        Controls::Many(many)
    }

    #[inline]
    fn as_slice(&self) -> &[Control] {
        match self {
            Controls::One(control) => std::slice::from_ref(control),
            Controls::Many(controls) => controls,
        }
    }
}

impl PartialEq for Controls {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// Prints as the slice, so a gate's `Debug` output does not show the
/// storage.
impl fmt::Debug for Controls {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl Gate {
    /// Creates an uncontrolled single-qudit gate.
    pub fn single(op: SingleQuditOp, target: QuditId) -> Self {
        Gate {
            op: GateOp::Single(op),
            target,
            controls: Controls::none(),
        }
    }

    /// Creates a controlled single-qudit gate.
    pub fn controlled(
        op: SingleQuditOp,
        target: QuditId,
        controls: impl IntoIterator<Item = Control>,
    ) -> Self {
        Gate::new(GateOp::Single(op), target, controls)
    }

    /// Creates a gate from an arbitrary [`GateOp`].
    pub fn new(op: GateOp, target: QuditId, controls: impl IntoIterator<Item = Control>) -> Self {
        Gate {
            op,
            target,
            controls: Controls::collect(controls),
        }
    }

    /// Creates the value-controlled shift `|⋆⟩-X±⋆` (optionally with further
    /// controls).
    pub fn add_from(
        source: QuditId,
        negate: bool,
        target: QuditId,
        controls: impl IntoIterator<Item = Control>,
    ) -> Self {
        Gate::new(GateOp::AddFrom { source, negate }, target, controls)
    }

    /// The operation applied to the target.
    pub fn op(&self) -> &GateOp {
        &self.op
    }

    /// The target qudit.
    pub fn target(&self) -> QuditId {
        self.target
    }

    /// The controls of the gate.
    #[inline]
    pub fn controls(&self) -> &[Control] {
        self.controls.as_slice()
    }

    /// All qudits the gate touches (controls, the `AddFrom` source, and the
    /// target), in that order.  Collects [`Gate::support`]; hot loops should
    /// walk that iterator instead, which never allocates.
    pub fn qudits(&self) -> Vec<QuditId> {
        self.support().collect()
    }

    /// Iterates over the qudits the gate touches without allocating, in the
    /// order of [`Gate::qudits`]: controls, the `AddFrom` source, the target.
    #[inline]
    pub fn support(&self) -> impl Iterator<Item = QuditId> + Clone + '_ {
        let source = match self.op {
            GateOp::AddFrom { source, .. } => Some(source),
            GateOp::Single(_) => None,
        };
        Support {
            controls: self.controls().iter(),
            source,
            target: Some(self.target),
        }
    }

    /// Number of qudits the gate touches.
    #[inline]
    pub fn arity(&self) -> usize {
        let source = usize::from(matches!(self.op, GateOp::AddFrom { .. }));
        self.controls().len() + source + 1
    }

    /// Returns `true` when the gate permutes the computational basis.
    pub fn is_classical(&self) -> bool {
        self.op.is_classical()
    }

    /// Returns `true` when the gate is one of the elementary G-gates of the
    /// paper: an uncontrolled `Xij`, or `|0⟩-X01`.
    pub fn is_g_gate(&self) -> bool {
        match (&self.op, self.controls()) {
            (GateOp::Single(SingleQuditOp::Swap(_, _)), []) => true,
            (GateOp::Single(SingleQuditOp::Swap(i, j)), [control]) => {
                let ordered = (*i == 0 && *j == 1) || (*i == 1 && *j == 0);
                ordered && control.predicate == ControlPredicate::Level(0)
            }
            _ => false,
        }
    }

    /// Validates the gate against a circuit of the given dimension and width.
    ///
    /// # Errors
    ///
    /// Returns an error when qudit indices are out of range or duplicated,
    /// control levels do not exist, or the operation itself is invalid for
    /// the dimension.
    pub fn validate(&self, dimension: Dimension, width: usize) -> Result<()> {
        // One walk over the support checks the range and flags a possible
        // repeat (a bit per qudit below 64; any qudit above always flags);
        // only a flagged gate pays the pairwise scan that names the repeat.
        let mut seen = 0u64;
        let mut maybe_repeated = false;
        let mut visit = |q: QuditId| {
            let index = q.index();
            if index >= width {
                return Err(QuditError::QuditOutOfRange {
                    qudit: index,
                    width,
                });
            }
            if index < 64 {
                let bit = 1u64 << index;
                maybe_repeated |= seen & bit != 0;
                seen |= bit;
            } else {
                maybe_repeated = true;
            }
            Ok(())
        };
        for control in self.controls() {
            visit(control.qudit)?;
        }
        if let GateOp::AddFrom { source, .. } = self.op {
            visit(source)?;
        }
        visit(self.target)?;
        if maybe_repeated {
            for (i, a) in self.support().enumerate() {
                if self.support().skip(i + 1).any(|b| a == b) {
                    return Err(QuditError::DuplicateQudit { qudit: a.index() });
                }
            }
        }
        for c in self.controls() {
            c.predicate.validate(dimension)?;
        }
        match &self.op {
            GateOp::Single(op) => op.validate(dimension),
            GateOp::AddFrom { .. } => Ok(()),
        }
    }

    /// Returns the inverse gate.
    pub fn inverse(&self, dimension: Dimension) -> Gate {
        let op = match &self.op {
            GateOp::Single(op) => GateOp::Single(op.inverse(dimension)),
            GateOp::AddFrom { source, negate } => GateOp::AddFrom {
                source: *source,
                negate: !negate,
            },
        };
        Gate {
            op,
            target: self.target,
            controls: self.controls.clone(),
        }
    }

    /// Returns `true` when `self == other.inverse(dimension)`, without
    /// building the inverse.
    pub(crate) fn is_inverse_of(&self, other: &Gate, dimension: Dimension) -> bool {
        self.target == other.target
            && match (&self.op, &other.op) {
                (GateOp::Single(a), GateOp::Single(b)) => a.is_inverse_of(b, dimension),
                (
                    GateOp::AddFrom { source, negate },
                    GateOp::AddFrom {
                        source: other_source,
                        negate: other_negate,
                    },
                ) => source == other_source && negate != other_negate,
                _ => false,
            }
            && self.controls == other.controls
    }

    /// Returns the gate with every qudit id (controls, `AddFrom` source and
    /// target) replaced through `map`.
    ///
    /// Used by the lowering cache to rename a canonical expansion onto the
    /// actual wires of a lowering site; `map` must be injective over the
    /// gate's qudits or the result will fail validation when pushed.
    ///
    /// # Example
    ///
    /// ```
    /// # use qudit_core::{Control, Gate, QuditId, SingleQuditOp};
    /// let gate = Gate::controlled(
    ///     SingleQuditOp::Swap(0, 1),
    ///     QuditId::new(1),
    ///     vec![Control::zero(QuditId::new(0))],
    /// );
    /// let shifted = gate.map_qudits(|q| QuditId::new(q.index() + 3));
    /// assert_eq!(shifted.target(), QuditId::new(4));
    /// assert_eq!(shifted.controls()[0].qudit, QuditId::new(3));
    /// ```
    pub fn map_qudits(&self, map: impl Fn(QuditId) -> QuditId) -> Gate {
        let op = match &self.op {
            GateOp::Single(op) => GateOp::Single(op.clone()),
            GateOp::AddFrom { source, negate } => GateOp::AddFrom {
                source: map(*source),
                negate: *negate,
            },
        };
        let controls = self
            .controls()
            .iter()
            .map(|c| Control::new(map(c.qudit), c.predicate));
        Gate::new(op, map(self.target), controls)
    }

    /// Returns `true` when some basis state of a dimension-`d` register
    /// makes every control fire.  The controls sit on distinct wires, so
    /// that holds when each of them can fire on its own; a gate that can
    /// never fire is the identity.
    pub fn can_fire(&self, dimension: Dimension) -> bool {
        self.controls()
            .iter()
            .all(|control| control.predicate.can_fire(dimension))
    }

    /// Returns `true` when all controls fire for the given basis state.
    ///
    /// `digits[q]` is the level of qudit `q`.
    #[inline]
    pub fn fires(&self, digits: &[u32]) -> bool {
        self.controls()
            .iter()
            .all(|c| c.predicate.matches(digits[c.qudit.index()]))
    }

    /// Applies a classical gate to a computational basis state in place.
    ///
    /// # Errors
    ///
    /// Returns [`QuditError::NotClassical`] for non-permutation unitaries.
    ///
    /// # Panics
    ///
    /// Panics if `digits` is shorter than the largest qudit index used by the
    /// gate.
    #[inline]
    pub fn apply_to_basis(&self, digits: &mut [u32], dimension: Dimension) -> Result<()> {
        if !self.fires(digits) {
            return Ok(());
        }
        let t = self.target.index();
        match &self.op {
            GateOp::Single(op) => {
                digits[t] = op.apply_level(digits[t], dimension)?;
                Ok(())
            }
            GateOp::AddFrom { source, negate } => {
                let d = dimension.get();
                let y = digits[source.index()] % d;
                let shift = if *negate { (d - y) % d } else { y };
                digits[t] = (digits[t] + shift) % d;
                Ok(())
            }
        }
    }
}

/// The iterator of [`Gate::support`]: one small `next` that the hot
/// per-gate loops inline whole.
#[derive(Clone)]
struct Support<'a> {
    controls: std::slice::Iter<'a, Control>,
    source: Option<QuditId>,
    target: Option<QuditId>,
}

impl Iterator for Support<'_> {
    type Item = QuditId;

    #[inline]
    fn next(&mut self) -> Option<QuditId> {
        match self.controls.next() {
            Some(control) => Some(control.qudit),
            None => self.source.take().or_else(|| self.target.take()),
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.controls.len()
            + usize::from(self.source.is_some())
            + usize::from(self.target.is_some());
        (len, Some(len))
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.controls().is_empty() {
            write!(f, "{} -> {}", self.op, self.target)
        } else {
            let controls: Vec<String> = self.controls().iter().map(|c| c.to_string()).collect();
            write!(
                f,
                "[{}] {} -> {}",
                controls.join(", "),
                self.op,
                self.target
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dim(d: u32) -> Dimension {
        Dimension::new(d).unwrap()
    }

    #[test]
    fn g_gate_recognition() {
        let x01 = Gate::single(SingleQuditOp::Swap(0, 1), QuditId::new(0));
        assert!(x01.is_g_gate());
        let x12 = Gate::single(SingleQuditOp::Swap(1, 2), QuditId::new(0));
        assert!(x12.is_g_gate());
        let c_x01 = Gate::controlled(
            SingleQuditOp::Swap(0, 1),
            QuditId::new(1),
            vec![Control::zero(QuditId::new(0))],
        );
        assert!(c_x01.is_g_gate());
        let c1_x01 = Gate::controlled(
            SingleQuditOp::Swap(0, 1),
            QuditId::new(1),
            vec![Control::level(QuditId::new(0), 1)],
        );
        assert!(!c1_x01.is_g_gate());
        let c_x02 = Gate::controlled(
            SingleQuditOp::Swap(0, 2),
            QuditId::new(1),
            vec![Control::zero(QuditId::new(0))],
        );
        assert!(!c_x02.is_g_gate());
        let cc = Gate::controlled(
            SingleQuditOp::Swap(0, 1),
            QuditId::new(2),
            vec![
                Control::zero(QuditId::new(0)),
                Control::zero(QuditId::new(1)),
            ],
        );
        assert!(!cc.is_g_gate());
    }

    #[test]
    fn validation_catches_bad_gates() {
        let d = dim(3);
        let out_of_range = Gate::single(SingleQuditOp::Swap(0, 1), QuditId::new(5));
        assert!(out_of_range.validate(d, 3).is_err());
        let duplicate = Gate::controlled(
            SingleQuditOp::Swap(0, 1),
            QuditId::new(0),
            vec![Control::zero(QuditId::new(0))],
        );
        assert!(matches!(
            duplicate.validate(d, 3),
            Err(QuditError::DuplicateQudit { .. })
        ));
        let bad_level = Gate::controlled(
            SingleQuditOp::Swap(0, 1),
            QuditId::new(1),
            vec![Control::level(QuditId::new(0), 7)],
        );
        assert!(bad_level.validate(d, 3).is_err());
        let good = Gate::controlled(
            SingleQuditOp::Swap(0, 1),
            QuditId::new(1),
            vec![Control::zero(QuditId::new(0))],
        );
        assert!(good.validate(d, 3).is_ok());
    }

    #[test]
    fn classical_application_respects_controls() {
        let d = dim(3);
        let gate = Gate::controlled(
            SingleQuditOp::Swap(0, 1),
            QuditId::new(1),
            vec![Control::zero(QuditId::new(0))],
        );
        let mut fired = vec![0, 0];
        gate.apply_to_basis(&mut fired, d).unwrap();
        assert_eq!(fired, vec![0, 1]);
        let mut silent = vec![2, 0];
        gate.apply_to_basis(&mut silent, d).unwrap();
        assert_eq!(silent, vec![2, 0]);
    }

    #[test]
    fn add_from_semantics() {
        let d = dim(5);
        let gate = Gate::add_from(QuditId::new(0), false, QuditId::new(1), vec![]);
        let mut state = vec![3, 4];
        gate.apply_to_basis(&mut state, d).unwrap();
        assert_eq!(state, vec![3, 2]); // 4 + 3 mod 5
        let inverse = gate.inverse(d);
        inverse.apply_to_basis(&mut state, d).unwrap();
        assert_eq!(state, vec![3, 4]);
    }

    #[test]
    fn inverse_of_controlled_add() {
        let d = dim(4);
        let gate = Gate::controlled(
            SingleQuditOp::Add(1),
            QuditId::new(1),
            vec![Control::odd(QuditId::new(0))],
        );
        let inv = gate.inverse(d);
        let mut state = vec![1, 2];
        gate.apply_to_basis(&mut state, d).unwrap();
        inv.apply_to_basis(&mut state, d).unwrap();
        assert_eq!(state, vec![1, 2]);
    }

    #[test]
    fn qudits_lists_controls_sources_and_target() {
        let gate = Gate::add_from(
            QuditId::new(2),
            true,
            QuditId::new(3),
            vec![Control::zero(QuditId::new(1))],
        );
        assert_eq!(
            gate.qudits(),
            vec![QuditId::new(1), QuditId::new(2), QuditId::new(3)]
        );
        assert_eq!(gate.arity(), 3);
    }

    #[test]
    fn support_matches_qudits_and_arity() {
        let plain = Gate::single(SingleQuditOp::Add(1), QuditId::new(4));
        let controlled = Gate::controlled(
            SingleQuditOp::Swap(0, 1),
            QuditId::new(0),
            vec![
                Control::zero(QuditId::new(3)),
                Control::odd(QuditId::new(1)),
            ],
        );
        let shift = Gate::add_from(
            QuditId::new(2),
            false,
            QuditId::new(0),
            vec![Control::zero(QuditId::new(5))],
        );
        let bare_shift = Gate::add_from(QuditId::new(1), true, QuditId::new(0), vec![]);
        for gate in [plain, controlled, shift, bare_shift] {
            let support: Vec<QuditId> = gate.support().collect();
            assert_eq!(support, gate.qudits(), "{gate}");
            assert_eq!(gate.arity(), support.len(), "{gate}");
        }
    }

    #[test]
    fn is_inverse_of_agrees_with_inverse() {
        let d = dim(4);
        let gates = [
            Gate::single(SingleQuditOp::Add(1), QuditId::new(0)),
            Gate::single(SingleQuditOp::Add(3), QuditId::new(0)),
            Gate::single(SingleQuditOp::Swap(0, 1), QuditId::new(0)),
            Gate::single(SingleQuditOp::ParityFlipEven, QuditId::new(0)),
            Gate::single(
                SingleQuditOp::Perm(crate::ops::Permutation::from_map(vec![1, 2, 3, 0]).unwrap()),
                QuditId::new(0),
            ),
            Gate::single(
                SingleQuditOp::Perm(crate::ops::Permutation::from_map(vec![3, 0, 1, 2]).unwrap()),
                QuditId::new(0),
            ),
            Gate::single(SingleQuditOp::fourier(d), QuditId::new(0)),
            Gate::single(SingleQuditOp::fourier(d).inverse(d), QuditId::new(0)),
            Gate::controlled(
                SingleQuditOp::Add(1),
                QuditId::new(0),
                vec![Control::zero(QuditId::new(1))],
            ),
            Gate::add_from(QuditId::new(1), false, QuditId::new(0), vec![]),
            Gate::add_from(QuditId::new(1), true, QuditId::new(0), vec![]),
            Gate::add_from(QuditId::new(2), true, QuditId::new(0), vec![]),
        ];
        for a in &gates {
            for b in &gates {
                assert_eq!(a.is_inverse_of(b, d), *a == b.inverse(d), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn control_storage_is_invisible() {
        // A gate stays one cache line with its controls stored inline.
        assert_eq!(std::mem::size_of::<Gate>(), 64);
        let op = || SingleQuditOp::Swap(0, 1);
        let zero = Control::zero(QuditId::new(0));
        let odd = Control::odd(QuditId::new(2));
        let target = QuditId::new(1);
        for controls in [vec![], vec![zero], vec![zero, odd]] {
            let from_vec = Gate::controlled(op(), target, controls.clone());
            let from_iter = Gate::controlled(op(), target, controls.iter().copied());
            assert_eq!(from_vec, from_iter);
            assert_eq!(from_vec.controls(), &controls[..]);
            assert_eq!(from_vec.map_qudits(|q| q), from_vec);
        }
        let one = Gate::controlled(op(), target, [zero]);
        assert_ne!(one, Gate::controlled(op(), target, [zero, odd]));
        assert_ne!(one, Gate::single(op(), target));
        // `Debug` prints the controls as a list, whatever holds them.
        assert_eq!(
            format!("{one:?}"),
            "Gate { op: Single(Swap(0, 1)), target: QuditId(1), controls: \
             [Control { qudit: QuditId(0), predicate: Level(0) }] }"
        );
        assert!(format!("{:?}", Gate::single(op(), target)).ends_with("controls: [] }"));
    }

    #[test]
    fn display_is_readable() {
        let gate = Gate::controlled(
            SingleQuditOp::Swap(0, 1),
            QuditId::new(1),
            vec![Control::zero(QuditId::new(0))],
        );
        assert_eq!(gate.to_string(), "[|0⟩@q0] X01 -> q1");
    }
}
