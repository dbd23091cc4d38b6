//! Qudit dimension handling.

use std::fmt;

use crate::error::{QuditError, Result};

/// The dimension `d` of a qudit (the number of computational basis levels).
///
/// The paper considers `d ≥ 3`; the substrate additionally accepts `d = 2`
/// (qubits) so that degenerate cases can be tested, but the synthesis
/// algorithms themselves require `d ≥ 3`.
///
/// # Example
///
/// ```
/// # use qudit_core::Dimension;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d = Dimension::new(5)?;
/// assert!(d.is_odd());
/// assert_eq!(d.levels().count(), 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Dimension(u32);

impl Dimension {
    /// Creates a new dimension.
    ///
    /// # Errors
    ///
    /// Returns [`QuditError::InvalidDimension`] if `d < 2`.
    pub fn new(d: u32) -> Result<Self> {
        if d < 2 {
            return Err(QuditError::InvalidDimension { dimension: d });
        }
        Ok(Dimension(d))
    }

    /// Returns the numeric dimension value.
    #[inline]
    pub fn get(self) -> u32 {
        self.0
    }

    /// Returns the dimension as a `usize`, convenient for indexing.
    #[inline]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }

    /// Returns `true` if the dimension is odd.
    #[inline]
    pub fn is_odd(self) -> bool {
        self.0 % 2 == 1
    }

    /// Returns `true` if the dimension is even.
    #[inline]
    pub fn is_even(self) -> bool {
        self.0.is_multiple_of(2)
    }

    /// Iterates over all levels `0, 1, …, d − 1`.
    pub fn levels(self) -> impl Iterator<Item = u32> {
        0..self.0
    }

    /// Iterates over the odd levels `1, 3, …`.
    pub fn odd_levels(self) -> impl Iterator<Item = u32> {
        (0..self.0).filter(|l| l % 2 == 1)
    }

    /// Iterates over the non-zero even levels `2, 4, …`.
    pub fn even_nonzero_levels(self) -> impl Iterator<Item = u32> {
        (0..self.0).filter(|l| *l != 0 && l % 2 == 0)
    }

    /// Checks that `level < d`.
    ///
    /// # Errors
    ///
    /// Returns [`QuditError::LevelOutOfRange`] when the level is too large.
    pub fn check_level(self, level: u32) -> Result<()> {
        if level < self.0 {
            Ok(())
        } else {
            Err(QuditError::LevelOutOfRange {
                level,
                dimension: self.0,
            })
        }
    }

    /// Number of computational basis states of a register of `width` qudits,
    /// i.e. `d^width`.
    ///
    /// # Panics
    ///
    /// Panics if the result does not fit in a `usize`; see
    /// [`Dimension::checked_register_size`].
    pub fn register_size(self, width: usize) -> usize {
        self.checked_register_size(width)
            .expect("register size overflows usize")
    }

    /// `d^width`, or `None` when it does not fit in a `usize`.
    pub fn checked_register_size(self, width: usize) -> Option<usize> {
        (0..width).try_fold(1usize, |size, _| size.checked_mul(self.0 as usize))
    }
}

impl fmt::Display for Dimension {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl TryFrom<u32> for Dimension {
    type Error = QuditError;

    fn try_from(value: u32) -> Result<Self> {
        Dimension::new(value)
    }
}

impl From<Dimension> for u32 {
    fn from(value: Dimension) -> Self {
        value.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_trivial_dimensions() {
        assert!(Dimension::new(0).is_err());
        assert!(Dimension::new(1).is_err());
        assert!(Dimension::new(2).is_ok());
        assert!(Dimension::new(3).is_ok());
    }

    #[test]
    fn parity_helpers() {
        assert!(Dimension::new(3).unwrap().is_odd());
        assert!(Dimension::new(4).unwrap().is_even());
        assert!(!Dimension::new(4).unwrap().is_odd());
    }

    #[test]
    fn level_iterators() {
        let d = Dimension::new(6).unwrap();
        assert_eq!(d.levels().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(d.odd_levels().collect::<Vec<_>>(), vec![1, 3, 5]);
        assert_eq!(d.even_nonzero_levels().collect::<Vec<_>>(), vec![2, 4]);
    }

    #[test]
    fn level_checks() {
        let d = Dimension::new(3).unwrap();
        assert!(d.check_level(0).is_ok());
        assert!(d.check_level(2).is_ok());
        assert_eq!(
            d.check_level(3),
            Err(QuditError::LevelOutOfRange {
                level: 3,
                dimension: 3
            })
        );
    }

    #[test]
    fn register_size() {
        let d = Dimension::new(3).unwrap();
        assert_eq!(d.register_size(0), 1);
        assert_eq!(d.register_size(4), 81);
        let d = Dimension::new(4).unwrap();
        assert_eq!(d.checked_register_size(31), Some(1 << 62));
        assert_eq!(d.checked_register_size(32), None);
        assert_eq!(d.checked_register_size(usize::MAX), None);
    }

    #[test]
    fn conversions() {
        let d = Dimension::try_from(7).unwrap();
        assert_eq!(u32::from(d), 7);
        assert_eq!(d.to_string(), "7");
    }
}
