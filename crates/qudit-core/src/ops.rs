//! Single-qudit operations: the level permutations used by the paper
//! (`Xij`, `X+y`, the parity swaps `X_eo^e` and `X_eo^o`) and general
//! single-qudit unitaries.

use std::fmt;

use crate::dimension::Dimension;
use crate::error::{QuditError, Result};
use crate::math::{Complex, SquareMatrix, MATRIX_TOLERANCE};

/// A permutation of the levels `0, …, d − 1` of a single qudit.
///
/// # Example
///
/// ```
/// # use qudit_core::{Dimension, Permutation};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d = Dimension::new(3)?;
/// let cycle = Permutation::cycle_add(d, 1); // |i⟩ ↦ |i+1 mod 3⟩
/// assert_eq!(cycle.apply(2), 0);
/// assert_eq!(cycle.inverse().apply(0), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Permutation {
    map: Vec<u32>,
}

impl Permutation {
    /// Creates a permutation from the table `map`, where level `i` is sent to
    /// `map[i]`.
    ///
    /// # Errors
    ///
    /// Returns [`QuditError::NotAPermutation`] if `map` is not a bijection on
    /// `{0, …, map.len() − 1}`.
    pub fn from_map(map: Vec<u32>) -> Result<Self> {
        let n = map.len();
        let mut seen = vec![false; n];
        for &to in &map {
            let to = to as usize;
            if to >= n || seen[to] {
                return Err(QuditError::NotAPermutation);
            }
            seen[to] = true;
        }
        Ok(Permutation { map })
    }

    /// The identity permutation on `d` levels.
    pub fn identity(dimension: Dimension) -> Self {
        Permutation {
            map: dimension.levels().collect(),
        }
    }

    /// The transposition `Xij` exchanging levels `i` and `j`.
    ///
    /// # Panics
    ///
    /// Panics if `i == j` or either level is out of range; use
    /// [`SingleQuditOp::swap`] for a checked constructor.
    pub fn transposition(dimension: Dimension, i: u32, j: u32) -> Self {
        assert!(i != j, "transposition levels must differ");
        assert!(
            i < dimension.get() && j < dimension.get(),
            "levels out of range"
        );
        let mut map: Vec<u32> = dimension.levels().collect();
        map.swap(i as usize, j as usize);
        Permutation { map }
    }

    /// The cyclic shift `X+y` sending `|i⟩` to `|(i + y) mod d⟩`.
    pub fn cycle_add(dimension: Dimension, y: u32) -> Self {
        let d = dimension.get();
        let map = dimension.levels().map(|i| (i + y) % d).collect();
        Permutation { map }
    }

    /// Number of levels the permutation acts on.
    #[inline]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if the permutation acts on zero levels.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Applies the permutation to a level.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    #[inline]
    pub fn apply(&self, level: u32) -> u32 {
        self.map[level as usize]
    }

    /// Returns the underlying level map.
    pub fn as_map(&self) -> &[u32] {
        &self.map
    }

    /// Returns the inverse permutation.
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0u32; self.map.len()];
        for (from, &to) in self.map.iter().enumerate() {
            inv[to as usize] = from as u32;
        }
        Permutation { map: inv }
    }

    /// Returns the composition `self ∘ other` (apply `other` first).
    ///
    /// # Panics
    ///
    /// Panics if the permutations act on different numbers of levels.
    pub fn compose(&self, other: &Permutation) -> Permutation {
        assert_eq!(
            self.map.len(),
            other.map.len(),
            "permutation sizes must match"
        );
        let map = other
            .map
            .iter()
            .map(|&mid| self.map[mid as usize])
            .collect();
        Permutation { map }
    }

    /// Returns `true` if this is the identity permutation.
    pub fn is_identity(&self) -> bool {
        self.map.iter().enumerate().all(|(i, &to)| i as u32 == to)
    }

    /// Decomposes the permutation into a time-ordered sequence of
    /// transpositions `(i, j)`.
    ///
    /// Applying the transpositions in the returned order (first element
    /// first) reproduces the permutation; at most `d − 1` transpositions are
    /// returned, matching the bound used in the paper.
    pub fn transpositions(&self) -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        push_transpositions(&self.map, &mut Vec::new(), &mut pairs);
        pairs
    }

    /// Returns the parity of the permutation: `true` when it is even.
    pub fn is_even(&self) -> bool {
        self.transpositions().len().is_multiple_of(2)
    }

    /// Returns `true` if the permutation is its own inverse.
    pub fn is_involution(&self) -> bool {
        self.compose(self).is_identity()
    }

    /// Builds an arbitrary permutation with `σ(0) = a` and `σ(1) = b`,
    /// used for conjugating `X01` into `Xab`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either level is out of range.
    pub fn sending_01_to(dimension: Dimension, a: u32, b: u32) -> Permutation {
        assert!(a != b, "target levels must differ");
        let d = dimension.get();
        assert!(a < d && b < d, "levels out of range");
        let mut map = vec![u32::MAX; d as usize];
        map[0] = a;
        map[1] = b;
        let mut remaining: Vec<u32> = dimension.levels().filter(|l| *l != a && *l != b).collect();
        remaining.reverse();
        for slot in map.iter_mut().skip(2) {
            *slot = remaining.pop().expect("enough levels remain");
        }
        Permutation { map }
    }
}

/// Appends the transpositions of the level map `map` to `pairs` as the walk
/// finds them: the cycle `(c0 c1 … c_{L−1})`, entered at its smallest level
/// `c0`, is the time-ordered product `(c0 c1), (c0 c2), …, (c0 c_{L−1})`.
/// `visited` is scratch space, reused across calls.
pub(crate) fn push_transpositions(
    map: &[u32],
    visited: &mut Vec<bool>,
    pairs: &mut Vec<(u32, u32)>,
) {
    visited.clear();
    visited.resize(map.len(), false);
    for start in 0..map.len() {
        if visited[start] {
            continue;
        }
        visited[start] = true;
        let mut current = map[start] as usize;
        while current != start {
            visited[current] = true;
            pairs.push((start as u32, current as u32));
            current = map[current] as usize;
        }
    }
}

impl fmt::Display for Permutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, to) in self.map.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{to}")?;
        }
        write!(f, "]")
    }
}

/// A single-qudit operation.
///
/// Classical variants permute the computational basis; [`SingleQuditOp::Unitary`]
/// holds an arbitrary `d × d` unitary and is used by the general
/// multi-controlled-U and unitary-synthesis code paths.
#[derive(Debug, Clone, PartialEq)]
pub enum SingleQuditOp {
    /// The transposition `Xij` of two levels.
    Swap(u32, u32),
    /// The cyclic shift `X+y`.
    Add(u32),
    /// `X_eo^e = X01·X23·…·X(d−2)(d−1)` — swaps each even level with the next
    /// odd level. Defined for even `d`.
    ParityFlipEven,
    /// `X_eo^o = X12·X34·…·X(d−2)(d−1)` — fixes `0` and swaps each odd level
    /// with the next even level. Defined for odd `d`.
    ParityFlipOdd,
    /// An arbitrary level permutation.
    Perm(Permutation),
    /// An arbitrary single-qudit unitary.
    Unitary(SquareMatrix),
}

impl SingleQuditOp {
    /// Checked constructor for [`SingleQuditOp::Swap`].
    ///
    /// # Errors
    ///
    /// Returns an error when `i == j` or either level is `≥ d`.
    pub fn swap(dimension: Dimension, i: u32, j: u32) -> Result<Self> {
        if i == j {
            return Err(QuditError::DegenerateTransposition { level: i });
        }
        dimension.check_level(i)?;
        dimension.check_level(j)?;
        Ok(SingleQuditOp::Swap(i, j))
    }

    /// Checked constructor for [`SingleQuditOp::Add`] (`X+y`, `y` taken mod d).
    pub fn add(dimension: Dimension, y: u32) -> Self {
        SingleQuditOp::Add(y % dimension.get())
    }

    /// The `X−y = X+(d−y)` operation.
    pub fn subtract(dimension: Dimension, y: u32) -> Self {
        let d = dimension.get();
        SingleQuditOp::Add((d - (y % d)) % d)
    }

    /// Checked constructor for a unitary operation.
    ///
    /// # Errors
    ///
    /// Returns an error when the matrix shape does not match the dimension or
    /// the matrix is not unitary.
    pub fn unitary(dimension: Dimension, matrix: SquareMatrix) -> Result<Self> {
        if matrix.size() != dimension.as_usize() {
            return Err(QuditError::MatrixShapeMismatch {
                found: matrix.size(),
                expected: dimension.as_usize(),
            });
        }
        if !matrix.is_unitary(MATRIX_TOLERANCE) {
            return Err(QuditError::NotUnitary);
        }
        Ok(SingleQuditOp::Unitary(matrix))
    }

    /// The qudit Fourier gate `F[r][c] = ω^{rc}/√d` — the Clifford
    /// generator that exchanges the `X` and `Z` Pauli axes (the
    /// `fourier` statement of the [text IR](crate::qasm)).
    pub fn fourier(dimension: Dimension) -> SingleQuditOp {
        let d = dimension.get();
        let omega = 2.0 * std::f64::consts::PI / f64::from(d);
        let scale = 1.0 / f64::from(d).sqrt();
        let mut entries = Vec::with_capacity(dimension.as_usize() * dimension.as_usize());
        for r in 0..d {
            for c in 0..d {
                entries.push(Complex::from_phase(omega * f64::from(r) * f64::from(c)).scale(scale));
            }
        }
        let matrix = SquareMatrix::from_rows(dimension.as_usize(), entries)
            .expect("fourier matrix is square");
        SingleQuditOp::Unitary(matrix)
    }

    /// The qudit phase gate: `diag(1, i)` for qubits, `diag(ω^{j(j+1)/2})`
    /// for odd dimensions — the diagonal Clifford generator (the `phase`
    /// statement of the [text IR](crate::qasm)).
    pub fn clifford_phase(dimension: Dimension) -> SingleQuditOp {
        let d = dimension.get();
        let n = dimension.as_usize();
        let mut entries = vec![Complex::ZERO; n * n];
        for j in 0..d {
            let theta = if d == 2 {
                std::f64::consts::FRAC_PI_2 * f64::from(j)
            } else {
                let half_square = u64::from(j) * u64::from(j + 1) / 2;
                2.0 * std::f64::consts::PI * (half_square as f64) / f64::from(d)
            };
            entries[j as usize * n + j as usize] = Complex::from_phase(theta);
        }
        let matrix = SquareMatrix::from_rows(n, entries).expect("phase matrix is square");
        SingleQuditOp::Unitary(matrix)
    }

    /// Returns `true` when the operation is a classical permutation of the
    /// computational basis.
    pub fn is_classical(&self) -> bool {
        match self {
            SingleQuditOp::Unitary(m) => {
                // A unitary might still be a permutation matrix.
                self.try_permutation_from_matrix(m).is_some()
            }
            _ => true,
        }
    }

    fn try_permutation_from_matrix(&self, m: &SquareMatrix) -> Option<Permutation> {
        let n = m.size();
        let mut map = vec![0u32; n];
        for col in 0..n {
            let mut hit = None;
            for row in 0..n {
                let z = m[(row, col)];
                if z.approx_eq(Complex::ONE, MATRIX_TOLERANCE) {
                    if hit.is_some() {
                        return None;
                    }
                    hit = Some(row as u32);
                } else if !z.approx_eq(Complex::ZERO, MATRIX_TOLERANCE) {
                    return None;
                }
            }
            map[col] = hit?;
        }
        Permutation::from_map(map).ok()
    }

    /// Validates the operation against a dimension.
    ///
    /// # Errors
    ///
    /// Returns an error when levels are out of range, the parity-flip
    /// operations are used with the wrong dimension parity, or an embedded
    /// permutation/matrix has the wrong size.
    pub fn validate(&self, dimension: Dimension) -> Result<()> {
        match self {
            SingleQuditOp::Swap(i, j) => {
                if i == j {
                    return Err(QuditError::DegenerateTransposition { level: *i });
                }
                dimension.check_level(*i)?;
                dimension.check_level(*j)
            }
            SingleQuditOp::Add(y) => dimension.check_level(*y),
            SingleQuditOp::ParityFlipEven => {
                if dimension.is_even() {
                    Ok(())
                } else {
                    Err(QuditError::ParityMismatch {
                        dimension: dimension.get(),
                        requires_even: true,
                    })
                }
            }
            SingleQuditOp::ParityFlipOdd => {
                if dimension.is_odd() {
                    Ok(())
                } else {
                    Err(QuditError::ParityMismatch {
                        dimension: dimension.get(),
                        requires_even: false,
                    })
                }
            }
            SingleQuditOp::Perm(p) => {
                if p.len() == dimension.as_usize() {
                    Ok(())
                } else {
                    Err(QuditError::MatrixShapeMismatch {
                        found: p.len(),
                        expected: dimension.as_usize(),
                    })
                }
            }
            SingleQuditOp::Unitary(m) => {
                if m.size() != dimension.as_usize() {
                    return Err(QuditError::MatrixShapeMismatch {
                        found: m.size(),
                        expected: dimension.as_usize(),
                    });
                }
                if m.is_unitary(MATRIX_TOLERANCE) {
                    Ok(())
                } else {
                    Err(QuditError::NotUnitary)
                }
            }
        }
    }

    /// Returns the permutation implemented by a classical operation.
    ///
    /// # Errors
    ///
    /// Returns [`QuditError::NotClassical`] for non-permutation unitaries.
    pub fn to_permutation(&self, dimension: Dimension) -> Result<Permutation> {
        let d = dimension.get();
        match self {
            SingleQuditOp::Swap(i, j) => Ok(Permutation::transposition(dimension, *i, *j)),
            SingleQuditOp::Add(y) => Ok(Permutation::cycle_add(dimension, *y)),
            SingleQuditOp::ParityFlipEven => {
                let mut map: Vec<u32> = dimension.levels().collect();
                let mut l = 0;
                while l + 1 < d {
                    map.swap(l as usize, (l + 1) as usize);
                    l += 2;
                }
                Ok(Permutation { map })
            }
            SingleQuditOp::ParityFlipOdd => {
                let mut map: Vec<u32> = dimension.levels().collect();
                let mut l = 1;
                while l + 1 < d {
                    map.swap(l as usize, (l + 1) as usize);
                    l += 2;
                }
                Ok(Permutation { map })
            }
            SingleQuditOp::Perm(p) => Ok(p.clone()),
            SingleQuditOp::Unitary(m) => self
                .try_permutation_from_matrix(m)
                .ok_or(QuditError::NotClassical),
        }
    }

    /// Applies a classical operation to a level.
    ///
    /// # Errors
    ///
    /// Returns [`QuditError::NotClassical`] for non-permutation unitaries.
    #[inline]
    pub fn apply_level(&self, level: u32, dimension: Dimension) -> Result<u32> {
        match self {
            SingleQuditOp::Swap(i, j) => Ok(if level == *i {
                *j
            } else if level == *j {
                *i
            } else {
                level
            }),
            SingleQuditOp::Add(y) => Ok((level + *y) % dimension.get()),
            // The parity flips swap (0 1)(2 3)… and (1 2)(3 4)…; a level
            // whose partner would be `d` stays put.
            SingleQuditOp::ParityFlipEven => Ok(if level % 2 == 1 {
                level - 1
            } else if level + 1 < dimension.get() {
                level + 1
            } else {
                level
            }),
            SingleQuditOp::ParityFlipOdd => Ok(if level.is_multiple_of(2) {
                level.saturating_sub(1)
            } else if level + 1 < dimension.get() {
                level + 1
            } else {
                level
            }),
            SingleQuditOp::Perm(p) => Ok(p.apply(level)),
            SingleQuditOp::Unitary(_) => Ok(self.to_permutation(dimension)?.apply(level)),
        }
    }

    /// Returns the inverse operation.
    pub fn inverse(&self, dimension: Dimension) -> SingleQuditOp {
        match self {
            SingleQuditOp::Swap(i, j) => SingleQuditOp::Swap(*i, *j),
            SingleQuditOp::Add(y) => {
                let d = dimension.get();
                SingleQuditOp::Add((d - (*y % d)) % d)
            }
            SingleQuditOp::ParityFlipEven => SingleQuditOp::ParityFlipEven,
            SingleQuditOp::ParityFlipOdd => SingleQuditOp::ParityFlipOdd,
            SingleQuditOp::Perm(p) => SingleQuditOp::Perm(p.inverse()),
            SingleQuditOp::Unitary(m) => SingleQuditOp::Unitary(m.adjoint()),
        }
    }

    /// Returns `true` when `self == other.inverse(dimension)`, without
    /// building the inverse.
    pub(crate) fn is_inverse_of(&self, other: &SingleQuditOp, dimension: Dimension) -> bool {
        match (self, other) {
            (SingleQuditOp::Perm(p), SingleQuditOp::Perm(q)) => {
                p.map.len() == q.map.len()
                    && q.map
                        .iter()
                        .enumerate()
                        .all(|(from, &to)| p.map.get(to as usize) == Some(&(from as u32)))
            }
            (SingleQuditOp::Unitary(a), SingleQuditOp::Unitary(m)) => {
                let n = m.size();
                a.size() == n && (0..n).all(|r| (0..n).all(|c| a[(c, r)] == m[(r, c)].conj()))
            }
            (SingleQuditOp::Perm(_) | SingleQuditOp::Unitary(_), _)
            | (_, SingleQuditOp::Perm(_) | SingleQuditOp::Unitary(_)) => false,
            // The remaining inverses are fieldless or `Copy`: no allocation.
            _ => *self == other.inverse(dimension),
        }
    }

    /// Returns the `d × d` matrix of the operation.
    pub fn to_matrix(&self, dimension: Dimension) -> SquareMatrix {
        match self {
            SingleQuditOp::Unitary(m) => m.clone(),
            _ => {
                let p = self
                    .to_permutation(dimension)
                    .expect("classical operations always have a permutation");
                let map: Vec<usize> = p.as_map().iter().map(|&l| l as usize).collect();
                SquareMatrix::from_permutation(&map).expect("valid permutation")
            }
        }
    }

    /// Decomposes a classical operation into a time-ordered list of
    /// transpositions (the `Xij` gates of the paper).
    ///
    /// # Errors
    ///
    /// Returns [`QuditError::NotClassical`] for non-permutation unitaries.
    pub fn transpositions(&self, dimension: Dimension) -> Result<Vec<(u32, u32)>> {
        match self {
            SingleQuditOp::Swap(i, j) => Ok(vec![(*i, *j)]),
            _ => Ok(self.to_permutation(dimension)?.transpositions()),
        }
    }

    /// Returns `true` when applying the operation twice yields the identity.
    pub fn is_involution(&self, dimension: Dimension) -> bool {
        match self {
            SingleQuditOp::Swap(_, _)
            | SingleQuditOp::ParityFlipEven
            | SingleQuditOp::ParityFlipOdd => true,
            SingleQuditOp::Add(y) => {
                let d = dimension.get();
                (2 * (*y % d)).is_multiple_of(d)
            }
            SingleQuditOp::Perm(p) => p.is_involution(),
            SingleQuditOp::Unitary(m) => {
                (m * m).approx_eq(&SquareMatrix::identity(m.size()), MATRIX_TOLERANCE)
            }
        }
    }
}

impl fmt::Display for SingleQuditOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SingleQuditOp::Swap(i, j) => write!(f, "X{i}{j}"),
            SingleQuditOp::Add(y) => write!(f, "X+{y}"),
            SingleQuditOp::ParityFlipEven => write!(f, "Xeo^e"),
            SingleQuditOp::ParityFlipOdd => write!(f, "Xeo^o"),
            SingleQuditOp::Perm(p) => write!(f, "P{p}"),
            SingleQuditOp::Unitary(_) => write!(f, "U"),
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
    fn permutation_round_trip() {
        let p = Permutation::from_map(vec![2, 0, 1]).unwrap();
        assert_eq!(p.apply(0), 2);
        assert!(p.compose(&p.inverse()).is_identity());
        assert!(p.inverse().compose(&p).is_identity());
    }

    #[test]
    fn invalid_permutation_rejected() {
        assert!(Permutation::from_map(vec![0, 0]).is_err());
        assert!(Permutation::from_map(vec![0, 5]).is_err());
    }

    #[test]
    fn transposition_decomposition_reconstructs_permutation() {
        let d = dim(7);
        for y in 0..7 {
            let p = Permutation::cycle_add(d, y);
            let mut rebuilt = Permutation::identity(d);
            for (i, j) in p.transpositions() {
                rebuilt = Permutation::transposition(d, i, j).compose(&rebuilt);
            }
            assert_eq!(
                rebuilt, p,
                "X+{y} should be rebuilt from its transpositions"
            );
            assert!(p.transpositions().len() <= 6);
        }
    }

    #[test]
    fn sending_01_produces_requested_images() {
        let d = dim(6);
        for a in 0..6u32 {
            for b in 0..6u32 {
                if a == b {
                    continue;
                }
                let p = Permutation::sending_01_to(d, a, b);
                assert_eq!(p.apply(0), a);
                assert_eq!(p.apply(1), b);
                assert!(Permutation::from_map(p.as_map().to_vec()).is_ok());
            }
        }
    }

    #[test]
    fn parity_flip_even_swaps_pairs() {
        let d = dim(6);
        let p = SingleQuditOp::ParityFlipEven.to_permutation(d).unwrap();
        assert_eq!(p.as_map(), &[1, 0, 3, 2, 5, 4]);
        assert!(SingleQuditOp::ParityFlipEven.validate(dim(5)).is_err());
    }

    #[test]
    fn parity_flip_odd_fixes_zero() {
        let d = dim(5);
        let p = SingleQuditOp::ParityFlipOdd.to_permutation(d).unwrap();
        assert_eq!(p.as_map(), &[0, 2, 1, 4, 3]);
        assert!(SingleQuditOp::ParityFlipOdd.validate(dim(6)).is_err());
    }

    #[test]
    fn apply_level_matches_the_permutation_table() {
        for d in 2..10 {
            let dimension = dim(d);
            let ops = [
                SingleQuditOp::Swap(0, d - 1),
                SingleQuditOp::Add(d - 1),
                SingleQuditOp::ParityFlipEven,
                SingleQuditOp::ParityFlipOdd,
                SingleQuditOp::Perm(Permutation::cycle_add(dimension, 1)),
                SingleQuditOp::Unitary(SingleQuditOp::ParityFlipOdd.to_matrix(dimension)),
            ];
            for op in ops {
                let table = op.to_permutation(dimension).unwrap();
                for level in dimension.levels() {
                    assert_eq!(
                        op.apply_level(level, dimension).unwrap(),
                        table.apply(level),
                        "{op:?} at d={d}, level {level}"
                    );
                }
            }
        }
    }

    #[test]
    fn add_and_subtract_are_inverse() {
        let d = dim(5);
        let add = SingleQuditOp::add(d, 2);
        let sub = SingleQuditOp::subtract(d, 2);
        for l in 0..5 {
            let forward = add.apply_level(l, d).unwrap();
            assert_eq!(sub.apply_level(forward, d).unwrap(), l);
        }
        assert_eq!(add.inverse(d), sub);
    }

    #[test]
    fn swap_constructor_validates() {
        let d = dim(3);
        assert!(SingleQuditOp::swap(d, 0, 0).is_err());
        assert!(SingleQuditOp::swap(d, 0, 3).is_err());
        assert!(SingleQuditOp::swap(d, 0, 2).is_ok());
    }

    #[test]
    fn unitary_constructor_checks_unitarity() {
        let d = dim(2);
        let bad = SquareMatrix::from_rows(
            2,
            vec![Complex::ONE, Complex::ONE, Complex::ZERO, Complex::ONE],
        )
        .unwrap();
        assert!(SingleQuditOp::unitary(d, bad).is_err());
        let good = SquareMatrix::identity(2);
        assert!(SingleQuditOp::unitary(d, good).is_ok());
    }

    #[test]
    fn permutation_matrix_recognised_as_classical() {
        let d = dim(3);
        let m = SingleQuditOp::Swap(0, 2).to_matrix(d);
        let op = SingleQuditOp::Unitary(m);
        assert!(op.is_classical());
        assert_eq!(
            op.to_permutation(d).unwrap(),
            Permutation::transposition(d, 0, 2)
        );
    }

    #[test]
    fn involution_detection() {
        let d = dim(4);
        assert!(SingleQuditOp::Swap(1, 3).is_involution(d));
        assert!(SingleQuditOp::Add(2).is_involution(d));
        assert!(!SingleQuditOp::Add(1).is_involution(d));
        assert!(SingleQuditOp::ParityFlipEven.is_involution(d));
    }

    #[test]
    fn matrices_of_classical_ops_are_unitary() {
        let d = dim(5);
        for op in [
            SingleQuditOp::Swap(0, 4),
            SingleQuditOp::Add(3),
            SingleQuditOp::ParityFlipOdd,
        ] {
            assert!(
                op.to_matrix(d).is_unitary(MATRIX_TOLERANCE),
                "{op} should be unitary"
            );
        }
    }
}
