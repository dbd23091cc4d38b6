//! Mixed-radix indexing of computational basis states, the [`BasisBatch`]
//! kernel that pushes many basis states through a classical circuit at
//! once, and the classical checks built on it: the witness search behind
//! every classical verdict and [`circuit_permutation`].
//!
//! A register of `width` qudits of dimension `d` has `d^width` basis states.
//! Basis states are written as digit vectors `[x_0, x_1, …]` with qudit 0 the
//! most significant digit, matching the top-to-bottom ordering of the
//! circuit figures in the paper.

use std::ops::{Add, BitAnd, Range, Sub};

use qudit_core::{
    Circuit, Control, ControlPredicate, Dimension, Gate, GateOp, QuditError, Result, SingleQuditOp,
};
use rand::Rng;

/// Converts a digit vector to its basis-state index.
///
/// # Panics
///
/// Panics if any digit is `≥ d`.
///
/// # Example
///
/// ```
/// # use qudit_core::Dimension;
/// # use qudit_sim::basis::digits_to_index;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d = Dimension::new(3)?;
/// assert_eq!(digits_to_index(&[1, 2], d), 5);
/// # Ok(())
/// # }
/// ```
pub fn digits_to_index(digits: &[u32], dimension: Dimension) -> usize {
    let d = dimension.as_usize();
    let mut index = 0usize;
    for &digit in digits {
        assert!(
            (digit as usize) < d,
            "digit {digit} out of range for dimension {d}"
        );
        index = index * d + digit as usize;
    }
    index
}

/// Converts a basis-state index to its digit vector.
///
/// # Panics
///
/// Panics if `index ≥ d^width`.
pub fn index_to_digits(index: usize, dimension: Dimension, width: usize) -> Vec<u32> {
    let d = dimension.as_usize();
    assert!(index < dimension.register_size(width), "index out of range");
    let mut digits = vec![0u32; width];
    let mut rest = index;
    for slot in digits.iter_mut().rev() {
        *slot = (rest % d) as u32;
        rest /= d;
    }
    digits
}

/// Iterates over every basis state of a register, in index order.
///
/// # Example
///
/// ```
/// # use qudit_core::Dimension;
/// # use qudit_sim::basis::all_basis_states;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d = Dimension::new(3)?;
/// assert_eq!(all_basis_states(d, 2).count(), 9);
/// # Ok(())
/// # }
/// ```
pub fn all_basis_states(dimension: Dimension, width: usize) -> impl Iterator<Item = Vec<u32>> {
    let size = dimension.register_size(width);
    (0..size).map(move |i| index_to_digits(i, dimension, width))
}

/// Number of states [`BasisBatch::apply`] pushes through each gate before
/// moving on to the next gate: one block's digit rows stay cache-resident
/// for the whole circuit.  Callers that stream a large register through
/// the kernel use the same size for their batches.
pub(crate) const BLOCK_STATES: usize = 4096;

/// One digit of a [`BasisBatch`] row: `u8` while every level fits in a
/// byte, `u32` above that.  The kernel is written once over this trait.
trait Lane:
    Copy + Ord + Add<Output = Self> + Sub<Output = Self> + BitAnd<Output = Self> + Send + Sync
{
    const ZERO: Self;
    const ONE: Self;
    /// Converts a level known to fit the lane.
    fn of(level: u32) -> Self;
    fn level(self) -> u32;
}

impl Lane for u8 {
    const ZERO: Self = 0;
    const ONE: Self = 1;
    fn of(level: u32) -> Self {
        level as u8
    }
    fn level(self) -> u32 {
        u32::from(self)
    }
}

impl Lane for u32 {
    const ZERO: Self = 0;
    const ONE: Self = 1;
    fn of(level: u32) -> Self {
        level
    }
    fn level(self) -> u32 {
        self
    }
}

/// The digit rows of a batch, `width` rows of `len` lanes each, row `q`
/// holding qudit `q`'s digit of every state.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Rows {
    Narrow(Vec<u8>),
    Wide(Vec<u32>),
}

/// A batch of computational basis states stored structure-of-arrays: one
/// contiguous digit row per qudit.
///
/// [`BasisBatch::apply`] pushes every state through a classical circuit at
/// once.  It decodes each gate once per block of states — the controls
/// become a byte mask, the operation a branchless compare/select over the
/// target row — so the inner loops vectorise.  The result equals
/// [`Circuit::apply_to_basis`] state by state.  Digits are stored as bytes
/// for `d ≤ 255` and as `u32` above that.
///
/// # Example
///
/// ```
/// # use qudit_core::{Circuit, Control, Dimension, Gate, QuditId, SingleQuditOp};
/// # use qudit_sim::basis::BasisBatch;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d = Dimension::new(3)?;
/// let mut circuit = Circuit::new(d, 2);
/// circuit.push(Gate::controlled(
///     SingleQuditOp::Add(1),
///     QuditId::new(1),
///     vec![Control::zero(QuditId::new(0))],
/// ))?;
///
/// let mut batch = BasisBatch::from_range(d, 2, 0..9);
/// batch.apply(&circuit)?;
/// assert_eq!(batch.state(2), vec![0, 0]); // |0 2⟩ ↦ |0 0⟩
/// assert_eq!(batch.state(5), vec![1, 2]); // control off: unchanged
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasisBatch {
    dimension: Dimension,
    width: usize,
    len: usize,
    rows: Rows,
}

impl BasisBatch {
    fn narrow(dimension: Dimension) -> bool {
        dimension.get() <= u32::from(u8::MAX)
    }

    /// The basis states with indices in `range`, in index order.
    ///
    /// # Panics
    ///
    /// Panics if `range` reaches past `d^width`.
    pub fn from_range(dimension: Dimension, width: usize, range: Range<usize>) -> Self {
        assert!(
            range.end <= dimension.register_size(width),
            "index out of range"
        );
        let len = range.len();
        let digits = if len == 0 {
            vec![0; width]
        } else {
            index_to_digits(range.start, dimension, width)
        };
        let rows = if Self::narrow(dimension) {
            Rows::Narrow(odometer_rows(digits, len, dimension))
        } else {
            Rows::Wide(odometer_rows(digits, len, dimension))
        };
        BasisBatch {
            dimension,
            width,
            len,
            rows,
        }
    }

    /// The given basis states, in order.
    ///
    /// # Errors
    ///
    /// Returns [`QuditError::QuditOutOfRange`] when a state does not have
    /// `width` digits and [`QuditError::LevelOutOfRange`] when a digit is
    /// `≥ d`, as [`Circuit::apply_to_basis`] does.
    pub fn from_states<S: AsRef<[u32]>>(
        dimension: Dimension,
        width: usize,
        states: &[S],
    ) -> Result<Self> {
        for state in states {
            let state = state.as_ref();
            if state.len() != width {
                return Err(QuditError::QuditOutOfRange {
                    qudit: state.len(),
                    width,
                });
            }
            if let Some(&level) = state.iter().find(|&&v| v >= dimension.get()) {
                return Err(QuditError::LevelOutOfRange {
                    level,
                    dimension: dimension.get(),
                });
            }
        }
        let rows = if Self::narrow(dimension) {
            Rows::Narrow(transpose_rows(states, width))
        } else {
            Rows::Wide(transpose_rows(states, width))
        };
        Ok(BasisBatch {
            dimension,
            width,
            len: states.len(),
            rows,
        })
    }

    /// Number of states in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the batch holds no states.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The digit vector of state `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ len()`.
    pub fn state(&self, i: usize) -> Vec<u32> {
        assert!(i < self.len, "state {i} out of range");
        let len = self.len;
        match &self.rows {
            Rows::Narrow(rows) => (0..self.width).map(|q| rows[q * len + i].level()).collect(),
            Rows::Wide(rows) => (0..self.width).map(|q| rows[q * len + i].level()).collect(),
        }
    }

    /// The basis-state index of every state, in batch order.
    pub fn indices(&self) -> Vec<usize> {
        match &self.rows {
            Rows::Narrow(rows) => row_indices(rows, self.len, self.dimension),
            Rows::Wide(rows) => row_indices(rows, self.len, self.dimension),
        }
    }

    /// Applies a classical circuit to every state of the batch in place.
    ///
    /// # Errors
    ///
    /// Returns [`QuditError::IncompatibleCircuits`] when the circuit's
    /// dimension differs from the batch's or the circuit is wider, and
    /// [`QuditError::NotClassical`] when it holds a non-permutation gate.
    pub fn apply(&mut self, circuit: &Circuit) -> Result<()> {
        if circuit.dimension() != self.dimension || circuit.width() > self.width {
            return Err(QuditError::IncompatibleCircuits {
                reason: format!(
                    "circuit d={}, width={} does not fit a batch of d={}, width={}",
                    circuit.dimension(),
                    circuit.width(),
                    self.dimension,
                    self.width
                ),
            });
        }
        match &mut self.rows {
            Rows::Narrow(rows) => apply_rows(rows, self.len, self.dimension, circuit),
            Rows::Wide(rows) => apply_rows(rows, self.len, self.dimension, circuit),
        }
    }

    /// The position of the first state that differs between two batches of
    /// the same shape, or `None` when they are equal.
    ///
    /// # Panics
    ///
    /// Panics if the batches differ in dimension, width or length.
    pub fn first_mismatch(&self, other: &BasisBatch) -> Option<usize> {
        assert!(
            self.dimension == other.dimension && self.width == other.width && self.len == other.len,
            "batches must have the same shape"
        );
        match (&self.rows, &other.rows) {
            (Rows::Narrow(a), Rows::Narrow(b)) => first_row_mismatch(a, b, self.len),
            (Rows::Wide(a), Rows::Wide(b)) => first_row_mismatch(a, b, self.len),
            _ => unreachable!("equal dimensions select the same lane"),
        }
    }
}

/// Computes the full permutation table of a classical circuit.
///
/// Entry `i` of the result is the index of the basis state that input state
/// `i` is mapped to.  The basis streams through the [`BasisBatch`] kernel a
/// block at a time.
///
/// # Errors
///
/// Returns an error when the circuit contains a non-classical gate.
pub fn circuit_permutation(circuit: &Circuit) -> Result<Vec<usize>> {
    let dimension = circuit.dimension();
    let width = circuit.width();
    let size = dimension.register_size(width);
    let mut table = Vec::with_capacity(size);
    for start in (0..size).step_by(BLOCK_STATES) {
        let mut batch =
            BasisBatch::from_range(dimension, width, start..(start + BLOCK_STATES).min(size));
        batch.apply(circuit)?;
        table.extend(batch.indices());
    }
    Ok(table)
}

/// Sweeps every basis state through both circuits in blocks of
/// [`BLOCK_STATES`] and returns the first, in basis order, on which they
/// disagree.  Memory stays `O(width × block)` for any register size.
pub(crate) fn exhaustive_witness(before: &Circuit, after: &Circuit) -> Result<Option<Vec<u32>>> {
    let dimension = before.dimension();
    let width = before.width();
    let size = dimension.register_size(width);
    let block = size.clamp(1, BLOCK_STATES);
    (0..size)
        .step_by(block)
        .map(|start| -> Result<Option<Vec<u32>>> {
            let batch = BasisBatch::from_range(dimension, width, start..(start + block).min(size));
            Ok(first_disagreement(before, after, batch)?
                .map(|i| index_to_digits(start + i, dimension, width)))
        })
        .find_map(Result::transpose)
        .transpose()
}

/// Pushes `inputs` through both circuits, [`BLOCK_STATES`] at a time, and
/// returns the first, in order, on which they disagree.  The inputs are
/// drained either way, so a lazy sampler advances its RNG exactly as far as
/// on a passing run.
pub(crate) fn first_witness(
    before: &Circuit,
    after: &Circuit,
    mut inputs: impl Iterator<Item = Vec<u32>>,
) -> Result<Option<Vec<u32>>> {
    loop {
        let mut block: Vec<Vec<u32>> = inputs.by_ref().take(BLOCK_STATES).collect();
        if block.is_empty() {
            return Ok(None);
        }
        let batch = BasisBatch::from_states(before.dimension(), before.width(), &block)?;
        if let Some(i) = first_disagreement(before, after, batch)? {
            inputs.for_each(drop);
            return Ok(Some(block.swap_remove(i)));
        }
    }
}

/// `samples` basis states over `width` qudits, drawn lazily from `rng` for
/// the sampled checks.  Each is a uniform draw; since uniform states almost
/// never satisfy a deep multi-controlled gate (probability `d^-k`), every
/// even-numbered one then has each of the controls `controls(rng)` picks
/// forced onto a uniformly chosen matching level.
pub(crate) fn biased_samples<'a, R: Rng>(
    dimension: Dimension,
    width: usize,
    samples: usize,
    rng: &'a mut R,
    mut controls: impl FnMut(&mut R) -> &'a [Control] + 'a,
) -> impl Iterator<Item = Vec<u32>> + 'a {
    (0..samples).map(move |sample| {
        let mut input: Vec<u32> = (0..width)
            .map(|_| rng.gen_range(0..dimension.get()))
            .collect();
        if sample % 2 == 0 {
            for control in controls(rng) {
                let levels = control.predicate.matching_levels(dimension);
                if !levels.is_empty() {
                    input[control.qudit.index()] = levels[rng.gen_range(0..levels.len())];
                }
            }
        }
        input
    })
}

/// Pushes a batch of inputs through both circuits and returns the position
/// of the first input they map differently.
fn first_disagreement(
    before: &Circuit,
    after: &Circuit,
    mut batch: BasisBatch,
) -> Result<Option<usize>> {
    let mut other = batch.clone();
    batch.apply(before)?;
    other.apply(after)?;
    Ok(batch.first_mismatch(&other))
}

/// Rows of the `len` consecutive basis states starting at `digits`.
fn odometer_rows<L: Lane>(mut digits: Vec<u32>, len: usize, dimension: Dimension) -> Vec<L> {
    let mut rows = vec![L::ZERO; digits.len() * len];
    for i in 0..len {
        for (q, &digit) in digits.iter().enumerate() {
            rows[q * len + i] = L::of(digit);
        }
        // Increment, least significant (last) qudit first.
        for digit in digits.iter_mut().rev() {
            *digit += 1;
            if *digit < dimension.get() {
                break;
            }
            *digit = 0;
        }
    }
    rows
}

fn transpose_rows<L: Lane, S: AsRef<[u32]>>(states: &[S], width: usize) -> Vec<L> {
    let len = states.len();
    let mut rows = vec![L::ZERO; width * len];
    for (i, state) in states.iter().enumerate() {
        for (q, &digit) in state.as_ref().iter().enumerate() {
            rows[q * len + i] = L::of(digit);
        }
    }
    rows
}

fn row_indices<L: Lane>(rows: &[L], len: usize, dimension: Dimension) -> Vec<usize> {
    let d = dimension.as_usize();
    let mut indices = vec![0usize; len];
    for row in rows.chunks_exact(len.max(1)) {
        for (index, &digit) in indices.iter_mut().zip(row) {
            *index = *index * d + digit.level() as usize;
        }
    }
    indices
}

fn first_row_mismatch<L: Lane>(a: &[L], b: &[L], len: usize) -> Option<usize> {
    if a == b {
        return None;
    }
    a.chunks_exact(len)
        .zip(b.chunks_exact(len))
        .filter_map(|(x, y)| x.iter().zip(y).position(|(p, q)| p != q))
        .min()
}

fn apply_rows<L: Lane>(
    rows: &mut [L],
    len: usize,
    dimension: Dimension,
    circuit: &Circuit,
) -> Result<()> {
    let mut mask = vec![0u8; len.min(BLOCK_STATES)];
    for start in (0..len).step_by(BLOCK_STATES) {
        let block = start..(start + BLOCK_STATES).min(len);
        let mask = &mut mask[..block.len()];
        for gate in circuit.gates() {
            apply_gate(rows, len, block.clone(), dimension, gate, mask)?;
        }
    }
    Ok(())
}

/// Applies one gate to the states `block` of every row (`stride` lanes per
/// row).
fn apply_gate<L: Lane>(
    rows: &mut [L],
    stride: usize,
    block: Range<usize>,
    dimension: Dimension,
    gate: &Gate,
    mask: &mut [u8],
) -> Result<()> {
    let span = |q: usize| q * stride + block.start..q * stride + block.end;
    for (n, control) in gate.controls().iter().enumerate() {
        let digits = &rows[span(control.qudit.index())];
        let first = n == 0;
        match control.predicate {
            ControlPredicate::Level(l) => {
                let l = L::of(l);
                and_mask(mask, digits, first, |x| x == l);
            }
            ControlPredicate::Odd => and_mask(mask, digits, first, |x| (x & L::ONE) == L::ONE),
            ControlPredicate::EvenNonzero => and_mask(mask, digits, first, |x| {
                (x != L::ZERO) & ((x & L::ONE) == L::ZERO)
            }),
            ControlPredicate::NonZero => and_mask(mask, digits, first, |x| x != L::ZERO),
        }
    }
    let mask = (!gate.controls().is_empty()).then_some(&*mask);
    let target = span(gate.target().index());
    match gate.op() {
        GateOp::Single(SingleQuditOp::Swap(i, j)) => {
            let (i, j) = (L::of(*i), L::of(*j));
            select_row(&mut rows[target], mask, |x| {
                if x == i {
                    j
                } else if x == j {
                    i
                } else {
                    x
                }
            });
        }
        GateOp::Single(SingleQuditOp::Add(y)) => {
            // x + y wraps exactly when x ≥ d − y.
            let y = *y % dimension.get();
            let wrap = L::of(dimension.get() - y);
            let y = L::of(y);
            select_row(&mut rows[target], mask, |x| {
                if x >= wrap {
                    x - wrap
                } else {
                    x + y
                }
            });
        }
        GateOp::Single(op) => {
            let map = dimension
                .levels()
                .map(|level| op.apply_level(level, dimension).map(L::of))
                .collect::<Result<Vec<L>>>()?;
            select_row(&mut rows[target], mask, |x| map[x.level() as usize]);
        }
        GateOp::AddFrom { source, negate } => {
            let (target, source) = target_and_source(rows, target, span(source.index()));
            let d = L::of(dimension.get());
            if *negate {
                select_rows(target, source, mask, |x, s| {
                    if x >= s {
                        x - s
                    } else {
                        x + (d - s)
                    }
                });
            } else {
                select_rows(target, source, mask, |x, s| {
                    if x >= d - s {
                        x - (d - s)
                    } else {
                        x + s
                    }
                });
            }
        }
    }
    Ok(())
}

/// Sets (`first`) or narrows the firing mask by one control's predicate.
#[inline(always)]
fn and_mask<L: Lane>(mask: &mut [u8], digits: &[L], first: bool, fires: impl Fn(L) -> bool) {
    if first {
        for (m, &x) in mask.iter_mut().zip(digits) {
            *m = u8::from(fires(x));
        }
    } else {
        for (m, &x) in mask.iter_mut().zip(digits) {
            *m &= u8::from(fires(x));
        }
    }
}

/// Replaces each digit `x` of `row` by `f(x)` where the mask fires.
#[inline(always)]
fn select_row<L: Lane>(row: &mut [L], mask: Option<&[u8]>, f: impl Fn(L) -> L) {
    match mask {
        None => row.iter_mut().for_each(|x| *x = f(*x)),
        Some(mask) => {
            for (x, &m) in row.iter_mut().zip(mask) {
                let y = f(*x);
                *x = if m != 0 { y } else { *x };
            }
        }
    }
}

/// [`select_row`] for an operation that also reads a source row.
#[inline(always)]
fn select_rows<L: Lane>(row: &mut [L], source: &[L], mask: Option<&[u8]>, f: impl Fn(L, L) -> L) {
    match mask {
        None => {
            for (x, &s) in row.iter_mut().zip(source) {
                *x = f(*x, s);
            }
        }
        Some(mask) => {
            for ((x, &s), &m) in row.iter_mut().zip(source).zip(mask) {
                let y = f(*x, s);
                *x = if m != 0 { y } else { *x };
            }
        }
    }
}

/// Borrows the (disjoint) target span mutably and the source span shared.
fn target_and_source<L>(
    rows: &mut [L],
    target: Range<usize>,
    source: Range<usize>,
) -> (&mut [L], &[L]) {
    if target.start < source.start {
        let (low, high) = rows.split_at_mut(source.start);
        (&mut low[target], &high[..source.len()])
    } else {
        let (low, high) = rows.split_at_mut(target.start);
        (&mut high[..target.len()], &low[source])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_core::QuditId;

    fn dim(d: u32) -> Dimension {
        Dimension::new(d).unwrap()
    }

    #[test]
    fn round_trip_all_indices() {
        for d in [2u32, 3, 5] {
            let dimension = dim(d);
            for width in 0..4 {
                for index in 0..dimension.register_size(width) {
                    let digits = index_to_digits(index, dimension, width);
                    assert_eq!(digits_to_index(&digits, dimension), index);
                }
            }
        }
    }

    #[test]
    fn qudit_zero_is_most_significant() {
        let dimension = dim(3);
        assert_eq!(digits_to_index(&[2, 0], dimension), 6);
        assert_eq!(index_to_digits(6, dimension, 2), vec![2, 0]);
    }

    #[test]
    fn iteration_covers_every_state_once() {
        let dimension = dim(4);
        let states: Vec<Vec<u32>> = all_basis_states(dimension, 2).collect();
        assert_eq!(states.len(), 16);
        assert_eq!(states[0], vec![0, 0]);
        assert_eq!(states[15], vec![3, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn digit_out_of_range_panics() {
        let _ = digits_to_index(&[3], dim(3));
    }

    fn controlled_add(d: Dimension) -> Circuit {
        let mut c = Circuit::new(d, 2);
        c.push(Gate::controlled(
            SingleQuditOp::Add(1),
            QuditId::new(1),
            vec![Control::zero(QuditId::new(0))],
        ))
        .unwrap();
        c
    }

    #[test]
    fn permutation_table_is_a_permutation() {
        let circuit = controlled_add(dim(3));
        let table = circuit_permutation(&circuit).unwrap();
        let mut sorted = table.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn identical_circuits_compare_equal() {
        let a = controlled_add(dim(3));
        let b = controlled_add(dim(3));
        assert_eq!(
            circuit_permutation(&a).unwrap(),
            circuit_permutation(&b).unwrap()
        );
        let empty = Circuit::new(dim(3), 2);
        assert_ne!(
            circuit_permutation(&a).unwrap(),
            circuit_permutation(&empty).unwrap()
        );
    }

    #[test]
    fn inverse_circuit_gives_inverse_permutation() {
        let d = dim(5);
        let mut c = Circuit::new(d, 2);
        c.push(Gate::single(SingleQuditOp::Add(3), QuditId::new(0)))
            .unwrap();
        c.push(Gate::controlled(
            SingleQuditOp::Swap(1, 4),
            QuditId::new(1),
            vec![Control::odd(QuditId::new(0))],
        ))
        .unwrap();
        let forward = circuit_permutation(&c).unwrap();
        let backward = circuit_permutation(&c.inverse()).unwrap();
        for (i, &f) in forward.iter().enumerate() {
            assert_eq!(backward[f], i);
        }
    }
}
