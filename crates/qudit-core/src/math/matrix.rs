//! Small dense complex matrices.
//!
//! These matrices are used for single-qudit unitaries (`d × d`, `d ≤ 16`) and
//! for whole-register unitaries of tiny systems in tests (at most a few
//! hundred rows), so a straightforward row-major `Vec<Complex>` is all that is
//! needed.

use std::fmt;
use std::ops::{Index, IndexMut, Mul};

use crate::error::{QuditError, Result};
use crate::math::complex::Complex;

/// Numerical tolerance used by unitarity and equality checks.
pub const MATRIX_TOLERANCE: f64 = 1e-9;

/// A square complex matrix stored in row-major order.
///
/// # Example
///
/// ```
/// # use qudit_core::math::{Complex, SquareMatrix};
/// let id = SquareMatrix::identity(3);
/// assert!(id.is_unitary(1e-9));
/// assert_eq!(id[(1, 1)], Complex::ONE);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SquareMatrix {
    size: usize,
    data: Vec<Complex>,
}

impl SquareMatrix {
    /// Creates a zero matrix of the given size.
    pub fn zeros(size: usize) -> Self {
        SquareMatrix {
            size,
            data: vec![Complex::ZERO; size * size],
        }
    }

    /// Creates the identity matrix of the given size.
    pub fn identity(size: usize) -> Self {
        let mut m = SquareMatrix::zeros(size);
        for i in 0..size {
            m[(i, i)] = Complex::ONE;
        }
        m
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`QuditError::MatrixShapeMismatch`] when `data.len() != size²`.
    pub fn from_rows(size: usize, data: Vec<Complex>) -> Result<Self> {
        if data.len() != size * size {
            return Err(QuditError::MatrixShapeMismatch {
                found: data.len(),
                expected: size * size,
            });
        }
        Ok(SquareMatrix { size, data })
    }

    /// Creates the permutation matrix sending basis state `j` to `map[j]`.
    ///
    /// # Errors
    ///
    /// Returns [`QuditError::NotAPermutation`] when `map` is not a bijection.
    pub fn from_permutation(map: &[usize]) -> Result<Self> {
        let size = map.len();
        let mut seen = vec![false; size];
        for &to in map {
            if to >= size || seen[to] {
                return Err(QuditError::NotAPermutation);
            }
            seen[to] = true;
        }
        let mut m = SquareMatrix::zeros(size);
        for (from, &to) in map.iter().enumerate() {
            m[(to, from)] = Complex::ONE;
        }
        Ok(m)
    }

    /// Returns the number of rows (and columns).
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Returns a view of the row-major data.
    pub fn as_slice(&self) -> &[Complex] {
        &self.data
    }

    /// Returns the conjugate transpose (adjoint) of the matrix.
    pub fn adjoint(&self) -> SquareMatrix {
        let mut out = SquareMatrix::zeros(self.size);
        for r in 0..self.size {
            for c in 0..self.size {
                out[(c, r)] = self[(r, c)].conj();
            }
        }
        out
    }

    /// Multiplies the matrix by a column vector.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.size()`.
    pub fn apply(&self, v: &[Complex]) -> Vec<Complex> {
        assert_eq!(v.len(), self.size, "vector length must match matrix size");
        let mut out = vec![Complex::ZERO; self.size];
        for r in 0..self.size {
            let mut acc = Complex::ZERO;
            for c in 0..self.size {
                acc += self[(r, c)] * v[c];
            }
            out[r] = acc;
        }
        out
    }

    /// Checks whether the matrix is unitary within tolerance `tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        let product = self * &self.adjoint();
        product.approx_eq(&SquareMatrix::identity(self.size), tol)
    }

    /// Checks approximate elementwise equality.
    pub fn approx_eq(&self, other: &SquareMatrix, tol: f64) -> bool {
        self.size == other.size
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| a.approx_eq(*b, tol))
    }

    /// Returns the Frobenius norm of the difference with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the sizes differ.
    pub fn distance(&self, other: &SquareMatrix) -> f64 {
        assert_eq!(self.size, other.size, "matrix sizes must match");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (*a - *b).norm_sqr())
            .sum::<f64>()
            .sqrt()
    }
}

impl Index<(usize, usize)> for SquareMatrix {
    type Output = Complex;
    #[inline]
    fn index(&self, (row, col): (usize, usize)) -> &Complex {
        &self.data[row * self.size + col]
    }
}

impl IndexMut<(usize, usize)> for SquareMatrix {
    #[inline]
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut Complex {
        &mut self.data[row * self.size + col]
    }
}

impl Mul for &SquareMatrix {
    type Output = SquareMatrix;

    fn mul(self, rhs: &SquareMatrix) -> SquareMatrix {
        assert_eq!(
            self.size, rhs.size,
            "matrix sizes must match for multiplication"
        );
        let n = self.size;
        let mut out = SquareMatrix::zeros(n);
        for r in 0..n {
            for k in 0..n {
                let a = self[(r, k)];
                if a == Complex::ZERO {
                    continue;
                }
                for c in 0..n {
                    out[(r, c)] += a * rhs[(k, c)];
                }
            }
        }
        out
    }
}

impl fmt::Display for SquareMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.size {
            for c in 0..self.size {
                if c > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{}", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_unitary() {
        assert!(SquareMatrix::identity(4).is_unitary(MATRIX_TOLERANCE));
    }

    #[test]
    fn permutation_matrices_are_unitary() {
        let p = SquareMatrix::from_permutation(&[2, 0, 1]).unwrap();
        assert!(p.is_unitary(MATRIX_TOLERANCE));
        // |0⟩ ↦ |2⟩
        let v = p.apply(&[Complex::ONE, Complex::ZERO, Complex::ZERO]);
        assert!(v[2].approx_eq(Complex::ONE, MATRIX_TOLERANCE));
    }

    #[test]
    fn invalid_permutations_are_rejected() {
        assert!(SquareMatrix::from_permutation(&[0, 0, 1]).is_err());
        assert!(SquareMatrix::from_permutation(&[0, 3, 1]).is_err());
    }

    #[test]
    fn adjoint_of_product_reverses_order() {
        let a = SquareMatrix::from_permutation(&[1, 2, 0]).unwrap();
        let b = SquareMatrix::from_permutation(&[2, 1, 0]).unwrap();
        let ab = &a * &b;
        let expected = &b.adjoint() * &a.adjoint();
        assert!(ab.adjoint().approx_eq(&expected, MATRIX_TOLERANCE));
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let err = SquareMatrix::from_rows(2, vec![Complex::ONE; 3]).unwrap_err();
        assert_eq!(
            err,
            QuditError::MatrixShapeMismatch {
                found: 3,
                expected: 4
            }
        );
    }

    #[test]
    fn distance_is_zero_for_equal_matrices() {
        let a = SquareMatrix::identity(3);
        assert!(a.distance(&a) < MATRIX_TOLERANCE);
    }
}
