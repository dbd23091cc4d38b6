//! Control predicates for controlled qudit gates.

use std::fmt;

use crate::dimension::Dimension;
use crate::error::Result;
use crate::qudit::QuditId;

/// A predicate on the state of a control qudit.
///
/// The paper uses four kinds of controls:
///
/// * `|ℓ⟩`-controls which fire when the control qudit is in level `ℓ`
///   ([`ControlPredicate::Level`]);
/// * `|o⟩`-controls firing on any odd level ([`ControlPredicate::Odd`]);
/// * `|e⟩`-controls firing on any non-zero even level
///   ([`ControlPredicate::EvenNonzero`]);
/// * controls firing on any non-zero level ([`ControlPredicate::NonZero`]),
///   used by the clean-ancilla baseline.
///
/// # Example
///
/// ```
/// # use qudit_core::{ControlPredicate, Dimension};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d = Dimension::new(5)?;
/// assert!(ControlPredicate::Odd.matches(3));
/// assert_eq!(ControlPredicate::EvenNonzero.matching_levels(d), vec![2, 4]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControlPredicate {
    /// Fires when the control qudit is in the given level.
    Level(u32),
    /// Fires when the control qudit is in an odd level.
    Odd,
    /// Fires when the control qudit is in a non-zero even level.
    EvenNonzero,
    /// Fires when the control qudit is in any non-zero level.
    NonZero,
}

impl ControlPredicate {
    /// Returns `true` if the predicate fires for a control qudit in `level`.
    #[inline]
    pub fn matches(self, level: u32) -> bool {
        match self {
            ControlPredicate::Level(l) => level == l,
            ControlPredicate::Odd => level % 2 == 1,
            ControlPredicate::EvenNonzero => level != 0 && level.is_multiple_of(2),
            ControlPredicate::NonZero => level != 0,
        }
    }

    /// Returns `true` if the predicate fires on some level of dimension `d`,
    /// decided without listing the levels.  Every validated predicate does
    /// except [`ControlPredicate::EvenNonzero`] at `d = 2`.
    pub fn can_fire(self, dimension: Dimension) -> bool {
        match self {
            ControlPredicate::Level(l) => l < dimension.get(),
            ControlPredicate::Odd | ControlPredicate::NonZero => true,
            ControlPredicate::EvenNonzero => dimension.get() > 2,
        }
    }

    /// Lists the levels on which the predicate fires for dimension `d`.
    pub fn matching_levels(self, dimension: Dimension) -> Vec<u32> {
        dimension.levels().filter(|l| self.matches(*l)).collect()
    }

    /// Validates that the predicate makes sense for dimension `d`.
    ///
    /// # Errors
    ///
    /// Returns an error when a [`ControlPredicate::Level`] refers to a level
    /// that does not exist in dimension `d`.
    pub fn validate(self, dimension: Dimension) -> Result<()> {
        match self {
            ControlPredicate::Level(l) => dimension.check_level(l),
            _ => Ok(()),
        }
    }
}

impl fmt::Display for ControlPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControlPredicate::Level(l) => write!(f, "|{l}⟩"),
            ControlPredicate::Odd => write!(f, "|o⟩"),
            ControlPredicate::EvenNonzero => write!(f, "|e⟩"),
            ControlPredicate::NonZero => write!(f, "|≠0⟩"),
        }
    }
}

/// A control attached to a gate: a qudit together with the predicate that
/// must hold for the gate to fire.
///
/// # Example
///
/// ```
/// # use qudit_core::{Control, ControlPredicate, QuditId};
/// let c = Control::zero(QuditId::new(0));
/// assert_eq!(c.predicate, ControlPredicate::Level(0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Control {
    /// The control qudit.
    pub qudit: QuditId,
    /// The predicate the control qudit must satisfy.
    pub predicate: ControlPredicate,
}

impl Control {
    /// Creates a control with an arbitrary predicate.
    pub fn new(qudit: QuditId, predicate: ControlPredicate) -> Self {
        Control { qudit, predicate }
    }

    /// Creates a `|0⟩`-control, the default control kind of the paper.
    pub fn zero(qudit: QuditId) -> Self {
        Control {
            qudit,
            predicate: ControlPredicate::Level(0),
        }
    }

    /// Creates a `|ℓ⟩`-control.
    pub fn level(qudit: QuditId, level: u32) -> Self {
        Control {
            qudit,
            predicate: ControlPredicate::Level(level),
        }
    }

    /// Creates an `|o⟩`-control (fires on odd levels).
    pub fn odd(qudit: QuditId) -> Self {
        Control {
            qudit,
            predicate: ControlPredicate::Odd,
        }
    }

    /// Creates an `|e⟩`-control (fires on non-zero even levels).
    pub fn even_nonzero(qudit: QuditId) -> Self {
        Control {
            qudit,
            predicate: ControlPredicate::EvenNonzero,
        }
    }

    /// Creates a control that fires on any non-zero level.
    pub fn nonzero(qudit: QuditId) -> Self {
        Control {
            qudit,
            predicate: ControlPredicate::NonZero,
        }
    }
}

impl fmt::Display for Control {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.predicate, self.qudit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_predicate_matches_only_its_level() {
        let p = ControlPredicate::Level(2);
        assert!(p.matches(2));
        assert!(!p.matches(0));
        assert!(!p.matches(3));
    }

    #[test]
    fn odd_and_even_predicates() {
        assert!(ControlPredicate::Odd.matches(1));
        assert!(ControlPredicate::Odd.matches(5));
        assert!(!ControlPredicate::Odd.matches(4));
        assert!(!ControlPredicate::EvenNonzero.matches(0));
        assert!(ControlPredicate::EvenNonzero.matches(2));
        assert!(!ControlPredicate::EvenNonzero.matches(3));
        assert!(ControlPredicate::NonZero.matches(1));
        assert!(!ControlPredicate::NonZero.matches(0));
    }

    #[test]
    fn matching_levels_partition_for_every_dimension() {
        for d in 2..10 {
            let dim = Dimension::new(d).unwrap();
            let odd = ControlPredicate::Odd.matching_levels(dim);
            let even = ControlPredicate::EvenNonzero.matching_levels(dim);
            let zero = ControlPredicate::Level(0).matching_levels(dim);
            let mut all: Vec<u32> = odd.into_iter().chain(even).chain(zero).collect();
            all.sort_unstable();
            assert_eq!(all, dim.levels().collect::<Vec<_>>());
        }
    }

    #[test]
    fn can_fire_agrees_with_the_matching_levels() {
        for d in 2..10 {
            let dim = Dimension::new(d).unwrap();
            let predicates = [
                ControlPredicate::Odd,
                ControlPredicate::EvenNonzero,
                ControlPredicate::NonZero,
            ];
            for predicate in predicates
                .into_iter()
                .chain(dim.levels().map(ControlPredicate::Level))
            {
                let fires = !predicate.matching_levels(dim).is_empty();
                assert_eq!(predicate.can_fire(dim), fires, "{predicate} at d={d}");
            }
        }
    }

    #[test]
    fn validation_rejects_out_of_range_levels() {
        let dim = Dimension::new(3).unwrap();
        assert!(ControlPredicate::Level(2).validate(dim).is_ok());
        assert!(ControlPredicate::Level(3).validate(dim).is_err());
        assert!(ControlPredicate::Odd.validate(dim).is_ok());
    }

    #[test]
    fn control_constructors() {
        let q = QuditId::new(4);
        assert_eq!(Control::zero(q).predicate, ControlPredicate::Level(0));
        assert_eq!(Control::level(q, 2).predicate, ControlPredicate::Level(2));
        assert_eq!(Control::odd(q).predicate, ControlPredicate::Odd);
        assert_eq!(
            Control::even_nonzero(q).predicate,
            ControlPredicate::EvenNonzero
        );
        assert_eq!(Control::nonzero(q).predicate, ControlPredicate::NonZero);
        assert_eq!(Control::zero(q).qudit, q);
    }

    #[test]
    fn display_is_compact() {
        let c = Control::odd(QuditId::new(1));
        assert_eq!(c.to_string(), "|o⟩@q1");
    }
}
