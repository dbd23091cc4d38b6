//! Generalised-Pauli stabilizer (Clifford tableau) simulation for prime
//! qudit dimensions — the scalable verification backend.
//!
//! For prime `d` the single-qudit Pauli group is generated by the shift
//! `X : |j⟩ ↦ |j+1 mod d⟩` and the clock `Z : |j⟩ ↦ ω^j |j⟩` with
//! `ω = e^{2πi/d}`, satisfying `ZX = ωXZ`.  Every n-qudit Pauli is
//! `ω_{2d}^s · ∏_q X_q^{a_q} Z_q^{b_q}` with `ω_{2d} = e^{iπ/d}`; tracking
//! the phase exponent `s` in `Z_{2d}` covers the qubit `Y`-phases and the
//! odd-prime case uniformly.  A *Clifford* circuit maps Paulis to Paulis
//! under conjugation, so it is represented exactly by the images of the
//! `2n` generators — a [`CliffordTableau`] of `2n` integer rows, updated in
//! `O(n)` per gate per row (`O(n²)` per gate in total), instead of a dense
//! vector of `d^n` amplitudes.
//!
//! The module provides three layers:
//!
//! * **Classification** — [`classify_gate`] conjugates the generator Paulis
//!   through a gate's (≤ 2-qudit) unitary and pattern-matches the results;
//!   non-Clifford gates are rejected with a typed
//!   [`QuditError::NonClifford`] instead of a panic.  Classification is
//!   *sound but deliberately incomplete*: gates touching three or more
//!   qudits are always rejected (the paper's multi-controlled gates are
//!   synthesised down to 1- and 2-qudit gates before simulation anyway).
//! * **[`CliffordTableau`]** — the unitary tableau.  Two Clifford circuits
//!   implement the same unitary *up to global phase* **iff** their tableaus
//!   are exactly equal (agreement on all `2n` generator images forces
//!   `C₁†C₂` to commute with the full Pauli group, hence be scalar), so
//!   [`clifford_circuits_equal`] is a complete equivalence check at widths
//!   far beyond the dense engine's reach.  Construction conjugates the
//!   rows one at a time, in exact integer arithmetic.
//! * **[`StabilizerState`]** — the state tableau (`n` generator rows) for
//!   wide Clifford state queries: basis-state initialisation, gate
//!   application by conjugation, basis-state probabilities in `O(n³)` via
//!   symplectic Gaussian elimination mod `d`, and (small widths only)
//!   densification up to an arbitrary global phase.
//!
//! The tableau comparison backs the `VerifyEquivalence` pass in
//! [`crate::pipeline`] and
//! [`circuits_equal_up_to_phase`](crate::equivalence::circuits_equal_up_to_phase).

use qudit_core::math::{Complex, SquareMatrix};
use qudit_core::{Circuit, Dimension, Gate, QuditError, QuditId, Result};
use std::collections::HashMap;

use crate::basis::{digits_to_index, index_to_digits};
use crate::statevector::StateVector;

/// Tolerance for snapping conjugated matrix entries onto exact roots of
/// unity during classification.  Conjugation multiplies three unitaries of
/// size ≤ d², so the accumulated error is far below this.
const SNAP_TOLERANCE: f64 = 1e-8;

/// A generalised Pauli operator `ω_{2d}^phase · ∏_q X_q^{xs[q]} Z_q^{zs[q]}`
/// over a register of qudits, in per-qudit normal order (`X` before `Z`).
///
/// The phase exponent lives in `Z_{2d}`; the `X`/`Z` exponents live in
/// `Z_d`.  All arithmetic is exact integer arithmetic, so every tableau
/// operation is deterministic regardless of evaluation order or thread
/// count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PauliRow {
    /// Phase exponent `s` of `ω_{2d}^s`, reduced mod `2d`.
    phase: u32,
    /// `X` exponent per qudit, reduced mod `d`.
    xs: Vec<u32>,
    /// `Z` exponent per qudit, reduced mod `d`.
    zs: Vec<u32>,
}

impl PauliRow {
    /// The identity Pauli on `width` qudits.
    fn identity(width: usize) -> Self {
        PauliRow {
            phase: 0,
            xs: vec![0; width],
            zs: vec![0; width],
        }
    }

    /// The generator `X_q` on `width` qudits.
    fn x_generator(width: usize, q: usize) -> Self {
        let mut row = Self::identity(width);
        row.xs[q] = 1;
        row
    }

    /// The generator `Z_q` on `width` qudits.
    fn z_generator(width: usize, q: usize) -> Self {
        let mut row = Self::identity(width);
        row.zs[q] = 1;
        row
    }

    /// The phase exponent of `ω_{2d}`.
    pub fn phase(&self) -> u32 {
        self.phase
    }

    /// The per-qudit `X` exponents.
    pub fn xs(&self) -> &[u32] {
        &self.xs
    }

    /// The per-qudit `Z` exponents.
    pub fn zs(&self) -> &[u32] {
        &self.zs
    }

    /// In-place product `self := self · other` in normal order.
    ///
    /// Per qudit `(X^{a₁}Z^{b₁})(X^{a₂}Z^{b₂}) = ω^{b₁a₂} X^{a₁+a₂}Z^{b₁+b₂}`
    /// (from `ZX = ωXZ`), so each qudit contributes `2·b₁·a₂` to the phase
    /// exponent; factors on distinct qudits commute.
    fn mul_assign(&mut self, other: &PauliRow, dimension: Dimension) {
        let d = u64::from(dimension.get());
        let two_d = 2 * d;
        let mut phase = u64::from(self.phase) + u64::from(other.phase);
        for q in 0..self.xs.len() {
            phase += 2 * u64::from(self.zs[q]) * u64::from(other.xs[q]);
            self.xs[q] = ((u64::from(self.xs[q]) + u64::from(other.xs[q])) % d) as u32;
            self.zs[q] = ((u64::from(self.zs[q]) + u64::from(other.zs[q])) % d) as u32;
        }
        self.phase = (phase % two_d) as u32;
    }

    /// The `k`-th power, via the per-qudit closed form
    /// `(X^aZ^b)^k = ω^{ab·k(k−1)/2} X^{ka} Z^{kb}`.
    fn pow(&self, k: u32, dimension: Dimension) -> PauliRow {
        if k == 0 {
            return PauliRow::identity(self.xs.len());
        }
        let d = u64::from(dimension.get());
        let two_d = 2 * d;
        let k64 = u64::from(k);
        let mut phase = (k64 * u64::from(self.phase)) % two_d;
        let mut xs = Vec::with_capacity(self.xs.len());
        let mut zs = Vec::with_capacity(self.zs.len());
        for q in 0..self.xs.len() {
            phase = (phase
                + u64::from(self.xs[q]) * u64::from(self.zs[q]) % two_d * (k64 * (k64 - 1)))
                % two_d;
            xs.push(((k64 * u64::from(self.xs[q])) % d) as u32);
            zs.push(((k64 * u64::from(self.zs[q])) % d) as u32);
        }
        PauliRow {
            phase: phase as u32,
            xs,
            zs,
        }
    }

    /// The eigen-action on a basis state: `P|v⟩ = ω_{2d}^{e} |v + xs⟩` with
    /// `e = phase + 2·Σ_q zs[q]·v[q]`.  Returns `(e mod 2d, shifted digits)`.
    fn apply_to_basis(&self, digits: &[u32], dimension: Dimension) -> (u32, Vec<u32>) {
        let d = u64::from(dimension.get());
        let two_d = 2 * d;
        let mut e = u64::from(self.phase);
        let mut out = Vec::with_capacity(digits.len());
        for (q, &v) in digits.iter().enumerate() {
            e += 2 * u64::from(self.zs[q]) * u64::from(v);
            out.push(((u64::from(v) + u64::from(self.xs[q])) % d) as u32);
        }
        ((e % two_d) as u32, out)
    }
}

/// A generalised Pauli restricted to a gate's support qudits: the image of
/// one generator under conjugation by a Clifford gate.
#[derive(Debug, Clone, PartialEq, Eq)]
struct LocalPauli {
    /// Phase exponent of `ω_{2d}`, mod `2d`.
    phase: u32,
    /// `(X exponent, Z exponent)` per support qudit, mod `d`.
    xz: Vec<(u32, u32)>,
}

impl LocalPauli {
    fn identity(support: usize) -> Self {
        LocalPauli {
            phase: 0,
            xz: vec![(0, 0); support],
        }
    }

    /// In-place product `self := self · other` (same rule as
    /// [`PauliRow::mul_assign`]).
    fn mul_assign(&mut self, other: &LocalPauli, dimension: Dimension) {
        let d = u64::from(dimension.get());
        let two_d = 2 * d;
        let mut phase = u64::from(self.phase) + u64::from(other.phase);
        for (mine, theirs) in self.xz.iter_mut().zip(other.xz.iter()) {
            phase += 2 * u64::from(mine.1) * u64::from(theirs.0);
            mine.0 = ((u64::from(mine.0) + u64::from(theirs.0)) % d) as u32;
            mine.1 = ((u64::from(mine.1) + u64::from(theirs.1)) % d) as u32;
        }
        self.phase = (phase % two_d) as u32;
    }

    /// The `k`-th power (same closed form as [`PauliRow::pow`]).
    fn pow(&self, k: u32, dimension: Dimension) -> LocalPauli {
        if k == 0 {
            return LocalPauli::identity(self.xz.len());
        }
        let d = u64::from(dimension.get());
        let two_d = 2 * d;
        let k64 = u64::from(k);
        let mut phase = (k64 * u64::from(self.phase)) % two_d;
        let xz = self
            .xz
            .iter()
            .map(|&(a, b)| {
                phase = (phase + u64::from(a) * u64::from(b) % two_d * (k64 * (k64 - 1))) % two_d;
                (
                    ((k64 * u64::from(a)) % d) as u32,
                    ((k64 * u64::from(b)) % d) as u32,
                )
            })
            .collect();
        LocalPauli {
            phase: phase as u32,
            xz,
        }
    }
}

/// The tableau update a Clifford gate performs: the conjugation images of
/// the `X` and `Z` generators of every qudit in the gate's support.
///
/// Produced by [`classify_gate`]; applied to [`PauliRow`]s in `O(support)`
/// each, which makes a full tableau update `O(n)` per row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliffordAction {
    dimension: Dimension,
    /// The gate's qudits (controls, `AddFrom` source, target — in
    /// [`Gate::qudits`] order).
    support: Vec<QuditId>,
    /// `x_images[i]` = image of `X` on `support[i]` under conjugation.
    x_images: Vec<LocalPauli>,
    /// `z_images[i]` = image of `Z` on `support[i]` under conjugation.
    z_images: Vec<LocalPauli>,
}

impl CliffordAction {
    /// The qudits the action touches.
    pub fn support(&self) -> &[QuditId] {
        &self.support
    }

    /// Conjugates one tableau row in place: the row's support factors are
    /// replaced by ordered products of the precomputed generator images;
    /// everything off the support commutes through untouched.
    fn conjugate_row(&self, row: &mut PauliRow) {
        let two_d = 2 * self.dimension.get();
        let m = self.support.len();
        let mut acc = LocalPauli::identity(m);
        let mut touched = false;
        for (i, q) in self.support.iter().enumerate() {
            let a = row.xs[q.index()];
            let b = row.zs[q.index()];
            if a != 0 {
                acc.mul_assign(&self.x_images[i].pow(a, self.dimension), self.dimension);
                touched = true;
            }
            if b != 0 {
                acc.mul_assign(&self.z_images[i].pow(b, self.dimension), self.dimension);
                touched = true;
            }
        }
        if !touched {
            return;
        }
        row.phase = (row.phase + acc.phase) % two_d;
        for (i, q) in self.support.iter().enumerate() {
            row.xs[q.index()] = acc.xz[i].0;
            row.zs[q.index()] = acc.xz[i].1;
        }
    }
}

/// The matrix of `ω_{2d}^{phase} ∏_j X_j^{a_j} Z_j^{b_j}` on the `d^m`
/// space of `m` support qudits: column `|c⟩` maps to
/// `ω_{2d}^{phase + 2·Σ_j b_j c_j} |c + a⟩`.
fn local_pauli_matrix(pauli: &LocalPauli, dimension: Dimension) -> SquareMatrix {
    let d = dimension.get();
    let m = pauli.xz.len();
    let size = dimension.register_size(m);
    let mut matrix = SquareMatrix::zeros(size);
    for column in 0..size {
        let digits = index_to_digits(column, dimension, m);
        let mut e = u64::from(pauli.phase);
        let mut shifted = Vec::with_capacity(m);
        for (j, &v) in digits.iter().enumerate() {
            e += 2 * u64::from(pauli.xz[j].1) * u64::from(v);
            shifted.push((v + pauli.xz[j].0) % d);
        }
        let row = digits_to_index(&shifted, dimension);
        let theta = std::f64::consts::PI * (e % (2 * u64::from(d))) as f64 / f64::from(d);
        matrix[(row, column)] = Complex::from_phase(theta);
    }
    matrix
}

/// Snaps a unit-modulus complex number onto the nearest `2d`-th root of
/// unity, returning its exponent — or `None` when it is not within
/// [`SNAP_TOLERANCE`] of one.
fn snap_phase(value: Complex, dimension: Dimension) -> Option<u32> {
    if (value.norm() - 1.0).abs() > SNAP_TOLERANCE {
        return None;
    }
    let d = f64::from(dimension.get());
    let theta = value.im.atan2(value.re);
    let two_d = 2 * dimension.get();
    let s = (theta * d / std::f64::consts::PI).round();
    let s = (((s as i64) % i64::from(two_d) + i64::from(two_d)) % i64::from(two_d)) as u32;
    let snapped = Complex::from_phase(std::f64::consts::PI * f64::from(s) / d);
    value.approx_eq(snapped, SNAP_TOLERANCE).then_some(s)
}

/// Pattern-matches a conjugated generator matrix against a phased
/// generalised Pauli, returning `None` when it is not one.
fn match_pauli(matrix: &SquareMatrix, dimension: Dimension, support: usize) -> Option<LocalPauli> {
    let d = dimension.get();
    let size = matrix.size();
    // Column 0 fixes the X exponents (the shift) and the overall phase.
    let mut hit = None;
    for row in 0..size {
        if matrix[(row, 0)].norm() > 0.5 {
            if hit.is_some() {
                return None;
            }
            hit = Some(row);
        }
    }
    let shift_index = hit?;
    let shift = index_to_digits(shift_index, dimension, support);
    let phase = snap_phase(matrix[(shift_index, 0)], dimension)?;
    // The unit columns |e_j⟩ fix the Z exponents.
    let lambda = matrix[(shift_index, 0)];
    let mut xz = Vec::with_capacity(support);
    for (j, &a) in shift.iter().enumerate() {
        let column = dimension.register_size(support - 1 - j);
        let mut digits = shift.clone();
        digits[j] = (digits[j] + 1) % d;
        let row = digits_to_index(&digits, dimension);
        let ratio = matrix[(row, column)] * lambda.conj();
        let b2 = snap_phase(ratio, dimension)?;
        // The Z eigenvalue is ω^{b} = ω_{2d}^{2b}: odd exponents cannot occur
        // for a genuine Pauli.
        if b2 % 2 != 0 {
            return None;
        }
        xz.push((a, (b2 / 2) % d));
    }
    let candidate = LocalPauli { phase, xz };
    // Verify the whole matrix against the candidate — the snap above only
    // looked at d·support entries, this check makes classification sound.
    let expected = local_pauli_matrix(&candidate, dimension);
    matrix
        .approx_eq(&expected, SNAP_TOLERANCE)
        .then_some(candidate)
}

/// Classifies a gate as a qudit Clifford operation, returning the tableau
/// update ([`CliffordAction`]) it performs.
///
/// The gate's full operator on its support (controls included) is built as
/// a `d^arity` unitary and each support generator (`X_q`, `Z_q`) is
/// conjugated through it; the images must all be phased generalised Paulis
/// with the phase an exact `2d`-th root of unity.  Classification is sound
/// but incomplete: gates with three or more support qudits are rejected
/// without inspection.
///
/// # Errors
///
/// Returns [`QuditError::NonClifford`] when
///
/// * the dimension is not prime (the stabilizer formalism needs `Z_d` to be
///   a field),
/// * the gate touches three or more qudits, or
/// * a conjugated generator is not a generalised Pauli.
///
/// # Example
///
/// ```
/// use qudit_core::{Dimension, Gate, QuditId, SingleQuditOp};
/// use qudit_sim::stabilizer::classify_gate;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d = Dimension::new(3)?;
/// // The cyclic shift X+1 is a Pauli, hence Clifford.
/// let shift = Gate::single(SingleQuditOp::Add(1), QuditId::new(0));
/// assert!(classify_gate(&shift, d).is_ok());
/// // The SUM gate (X+⋆) is the canonical two-qudit Clifford.
/// let sum = Gate::add_from(QuditId::new(0), false, QuditId::new(1), vec![]);
/// assert!(classify_gate(&sum, d).is_ok());
/// # Ok(())
/// # }
/// ```
pub fn classify_gate(gate: &Gate, dimension: Dimension) -> Result<CliffordAction> {
    if !dimension.is_prime() {
        return Err(QuditError::NonClifford {
            reason: format!(
                "stabilizer tableaus require a prime qudit dimension, got d = {dimension}"
            ),
        });
    }
    let support = gate.qudits();
    let m = support.len();
    if m > 2 {
        return Err(QuditError::NonClifford {
            reason: format!(
                "gate '{gate}' acts on {m} qudits; only 1- and 2-qudit gates are classified"
            ),
        });
    }
    // Build the gate's operator on its support by remapping it onto a
    // mini-register of `m` qudits (size d^m ≤ d²).
    let local = gate.map_qudits(|q| {
        QuditId::new(
            support
                .iter()
                .position(|&s| s == q)
                .expect("gate qudits are its own support"),
        )
    });
    let mut mini = Circuit::new(dimension, m);
    mini.push(local)?;
    // `circuit_unitary` never classifies gates, so this cannot recurse.
    let unitary = crate::dense::circuit_unitary(&mini)?;
    let adjoint = unitary.adjoint();

    let mut x_images = Vec::with_capacity(m);
    let mut z_images = Vec::with_capacity(m);
    for i in 0..m {
        for (generator, images) in [(0u8, &mut x_images), (1u8, &mut z_images)] {
            let mut xz = vec![(0u32, 0u32); m];
            if generator == 0 {
                xz[i].0 = 1;
            } else {
                xz[i].1 = 1;
            }
            let pauli = LocalPauli { phase: 0, xz };
            let conjugated = &(&unitary * &local_pauli_matrix(&pauli, dimension)) * &adjoint;
            let name = if generator == 0 { "X" } else { "Z" };
            let image =
                match_pauli(&conjugated, dimension, m).ok_or_else(|| QuditError::NonClifford {
                    reason: format!(
                        "gate '{gate}' maps {name} on qudit {} outside the pauli group",
                        support[i]
                    ),
                })?;
            images.push(image);
        }
    }
    Ok(CliffordAction {
        dimension,
        support,
        x_images,
        z_images,
    })
}

/// Returns `true` when [`classify_gate`] accepts the gate.
pub fn is_clifford_gate(gate: &Gate, dimension: Dimension) -> bool {
    classify_gate(gate, dimension).is_ok()
}

/// Returns `true` when every gate of the circuit classifies as Clifford
/// (vacuously true for an empty circuit over a prime dimension).
pub fn is_clifford_circuit(circuit: &Circuit) -> bool {
    circuit.dimension().is_prime()
        && circuit
            .gates()
            .iter()
            .all(|gate| is_clifford_gate(gate, circuit.dimension()))
}

/// Classifies every gate of a circuit, in order.
///
/// # Errors
///
/// Returns [`QuditError::NonClifford`] for the first gate that fails
/// classification.
pub fn classify_circuit(circuit: &Circuit) -> Result<Vec<CliffordAction>> {
    circuit
        .gates()
        .iter()
        .map(|gate| classify_gate(gate, circuit.dimension()))
        .collect()
}

/// Conjugates a set of rows through a gate sequence, row by row (each row
/// stays cache-resident through the whole sequence).
fn sweep_rows(rows: &mut [PauliRow], actions: &[CliffordAction]) {
    for row in rows {
        for action in actions {
            action.conjugate_row(row);
        }
    }
}

/// The unitary tableau of a Clifford circuit: the conjugation images of the
/// `2n` Pauli generators (`Z_0 … Z_{n−1}`, then `X_0 … X_{n−1}`).
///
/// Tableau equality (`==`, exact integer comparison including phases) is a
/// *complete* equivalence check up to global phase: agreement on every
/// generator image forces `C₁†C₂` to commute with the whole Pauli group,
/// which makes it a scalar.
///
/// # Example
///
/// ```
/// use qudit_core::{Circuit, Dimension, Gate, QuditId, SingleQuditOp};
/// use qudit_sim::stabilizer::CliffordTableau;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d = Dimension::new(3)?;
/// let mut a = Circuit::new(d, 2);
/// a.push(Gate::single(SingleQuditOp::Add(1), QuditId::new(0)))?;
/// a.push(Gate::single(SingleQuditOp::Add(1), QuditId::new(0)))?;
/// let mut b = Circuit::new(d, 2);
/// b.push(Gate::single(SingleQuditOp::Add(2), QuditId::new(0)))?;
/// // X+1 · X+1 = X+2, exactly.
/// assert_eq!(CliffordTableau::from_circuit(&a)?, CliffordTableau::from_circuit(&b)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliffordTableau {
    dimension: Dimension,
    width: usize,
    rows: Vec<PauliRow>,
}

impl CliffordTableau {
    /// The identity tableau on `width` qudits.
    pub fn identity(dimension: Dimension, width: usize) -> Self {
        let mut rows = Vec::with_capacity(2 * width);
        for q in 0..width {
            rows.push(PauliRow::z_generator(width, q));
        }
        for q in 0..width {
            rows.push(PauliRow::x_generator(width, q));
        }
        CliffordTableau {
            dimension,
            width,
            rows,
        }
    }

    /// The qudit dimension.
    pub fn dimension(&self) -> Dimension {
        self.dimension
    }

    /// The register width `n` (the tableau has `2n` rows).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Applies one classified gate to every row.
    pub fn apply_action(&mut self, action: &CliffordAction) {
        for row in &mut self.rows {
            action.conjugate_row(row);
        }
    }

    /// Builds the tableau of a circuit.
    ///
    /// # Errors
    ///
    /// Returns [`QuditError::NonClifford`] when a gate fails classification.
    pub fn from_circuit(circuit: &Circuit) -> Result<Self> {
        let actions = classify_circuit(circuit)?;
        let mut tableau = Self::identity(circuit.dimension(), circuit.width());
        sweep_rows(&mut tableau.rows, &actions);
        Ok(tableau)
    }
}

/// Checks two Clifford circuits for equality up to global phase by
/// comparing their tableaus — complete, and independent of the register
/// size being far beyond dense-simulation reach.
///
/// The narrower circuit is widened to the wider register first (extra
/// qudits act as identity on both sides).
///
/// # Errors
///
/// Returns [`QuditError::NonClifford`] when a gate of either circuit fails
/// classification, and [`QuditError::IncompatibleCircuits`] when the
/// dimensions differ.
pub fn clifford_circuits_equal(a: &Circuit, b: &Circuit) -> Result<bool> {
    if a.dimension() != b.dimension() {
        return Err(QuditError::IncompatibleCircuits {
            reason: "circuit dimensions differ".to_string(),
        });
    }
    let width = a.width().max(b.width());
    let ta = CliffordTableau::from_circuit(&a.widened(width)?)?;
    let tb = CliffordTableau::from_circuit(&b.widened(width)?)?;
    Ok(ta == tb)
}

/// Multiplicative inverse mod a prime.
fn mod_inverse(value: u32, d: u32) -> u32 {
    debug_assert!(!value.is_multiple_of(d), "zero has no inverse");
    (1..d)
        .find(|&candidate| (u64::from(value) * u64::from(candidate)) % u64::from(d) == 1)
        .expect("prime modulus guarantees an inverse")
}

/// Row-reduces the `X` part of a generator list mod the (prime) dimension
/// using group multiplications, so phases stay consistent.  Returns the
/// `X`-rank; on return `gens[rank..]` are exactly the `X`-free generators.
fn eliminate_x(gens: &mut [PauliRow], dimension: Dimension) -> usize {
    let d = dimension.get();
    let width = gens.first().map_or(0, |g| g.xs.len());
    let mut rank = 0;
    for col in 0..width {
        let Some(pivot) = (rank..gens.len()).find(|&r| gens[r].xs[col] != 0) else {
            continue;
        };
        gens.swap(rank, pivot);
        let inv = mod_inverse(gens[rank].xs[col], d);
        for r in rank + 1..gens.len() {
            let c = gens[r].xs[col];
            if c != 0 {
                // gens[r] · gens[rank]^k with k ≡ −c · pivot⁻¹ clears the
                // column; generators commute, so this is a plain group
                // row operation.
                let k = (d - ((u64::from(c) * u64::from(inv)) % u64::from(d)) as u32) % d;
                let factor = gens[rank].pow(k, dimension);
                gens[r].mul_assign(&factor, dimension);
            }
        }
        rank += 1;
    }
    rank
}

/// A stabilizer state over `width` qudits of prime dimension `d`: the `n`
/// generator rows of its stabilizer group.
///
/// Created from a computational basis state and evolved by Clifford
/// conjugation; answers basis-state probability queries in `O(n³)` without
/// ever materialising amplitudes, so it scales to widths the dense engine
/// cannot touch.  The represented vector is only defined up to a global
/// phase — [`StabilizerState::to_statevector`] documents the consequence.
///
/// # Example
///
/// ```
/// use qudit_core::{Circuit, Dimension, Gate, QuditId, SingleQuditOp};
/// use qudit_sim::stabilizer::StabilizerState;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d = Dimension::new(3)?;
/// let mut circuit = Circuit::new(d, 2);
/// circuit.push(Gate::single(SingleQuditOp::Add(1), QuditId::new(0)))?;
/// circuit.push(Gate::add_from(QuditId::new(0), false, QuditId::new(1), vec![]))?;
/// let mut state = StabilizerState::from_basis(d, &[0, 0])?;
/// state.apply_circuit(&circuit)?;
/// assert!((state.probability(&[1, 1]) - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StabilizerState {
    dimension: Dimension,
    width: usize,
    rows: Vec<PauliRow>,
}

impl StabilizerState {
    /// The stabilizer representation of the basis state `|digits⟩`: qudit
    /// `q` contributes the generator `ω^{−digits[q]} Z_q`.
    ///
    /// # Errors
    ///
    /// Returns an error when a digit is out of range or the dimension is
    /// not prime.
    pub fn from_basis(dimension: Dimension, digits: &[u32]) -> Result<Self> {
        if !dimension.is_prime() {
            return Err(QuditError::NonClifford {
                reason: format!(
                    "stabilizer tableaus require a prime qudit dimension, got d = {dimension}"
                ),
            });
        }
        let two_d = 2 * dimension.get();
        let width = digits.len();
        let mut rows = Vec::with_capacity(width);
        for (q, &v) in digits.iter().enumerate() {
            dimension.check_level(v)?;
            let mut row = PauliRow::z_generator(width, q);
            row.phase = (two_d - 2 * v) % two_d;
            rows.push(row);
        }
        Ok(StabilizerState {
            dimension,
            width,
            rows,
        })
    }

    /// The qudit dimension.
    pub fn dimension(&self) -> Dimension {
        self.dimension
    }

    /// The number of qudits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Applies one classified gate by conjugating every generator.
    pub fn apply_action(&mut self, action: &CliffordAction) {
        for row in &mut self.rows {
            action.conjugate_row(row);
        }
    }

    /// Classifies and applies every gate of a circuit.
    ///
    /// # Errors
    ///
    /// Returns [`QuditError::NonClifford`] when a gate fails
    /// classification, and an incompatibility error when the circuit does
    /// not match the register.
    pub fn apply_circuit(&mut self, circuit: &Circuit) -> Result<()> {
        if circuit.dimension() != self.dimension {
            return Err(QuditError::IncompatibleCircuits {
                reason: "circuit and state dimensions differ".to_string(),
            });
        }
        if circuit.width() > self.width {
            return Err(QuditError::IncompatibleCircuits {
                reason: "circuit is wider than the state register".to_string(),
            });
        }
        let actions = classify_circuit(circuit)?;
        sweep_rows(&mut self.rows, &actions);
        Ok(())
    }

    /// The probability of measuring the basis state `|digits⟩`, in `O(n³)`.
    ///
    /// The state's projector is `∏_i (1/d · Σ_k g_i^k)`; after row-reducing
    /// the `X` part (rank `r`), only the `X`-free products contribute to
    /// `⟨w|·|w⟩`, each as a root-of-unity character.  The probability is
    /// `d^{−r}` when every `X`-free generator fixes `|w⟩` with eigenvalue
    /// `1`, and `0` otherwise.
    ///
    /// # Panics
    ///
    /// Panics when `digits` is shorter than the register.
    pub fn probability(&self, digits: &[u32]) -> f64 {
        assert!(
            digits.len() >= self.width,
            "digit string shorter than the register"
        );
        let two_d = 2 * u64::from(self.dimension.get());
        let mut gens = self.rows.clone();
        let rank = eliminate_x(&mut gens, self.dimension);
        for g in &gens[rank..] {
            let mut e = u64::from(g.phase);
            for (q, &v) in digits.iter().enumerate().take(self.width) {
                e += 2 * u64::from(g.zs[q]) * u64::from(v);
            }
            if e % two_d != 0 {
                return 0.0;
            }
        }
        (1.0 / f64::from(self.dimension.get())).powi(rank as i32)
    }

    /// A basis state of maximal probability (every supported basis state of
    /// a stabilizer state carries the same probability `d^{−r}`), found by
    /// solving the `X`-free character constraints mod `d` in `O(n³)`.
    pub fn dominant_basis_state(&self) -> Vec<u32> {
        self.support_point()
            .expect("a stabilizer state always has a supported basis state")
    }

    /// Solves for some basis state with nonzero amplitude: the `X`-free
    /// generators `ω_{2d}^{s} Z^{b}` demand `b·w ≡ −s/2 (mod d)`, a linear
    /// system over the field `Z_d`.
    fn support_point(&self) -> Option<Vec<u32>> {
        let d = self.dimension.get();
        let mut gens = self.rows.clone();
        let rank = eliminate_x(&mut gens, self.dimension);
        // Augmented system [B | t] over Z_d, one row per X-free generator.
        let mut system: Vec<(Vec<u32>, u32)> = gens[rank..]
            .iter()
            .map(|g| {
                // Generators have order d, so X-free rows carry even phases.
                debug_assert!(g.phase % 2 == 0, "x-free stabilizer phases are even");
                let target = (2 * d - (g.phase / 2) % d) % d;
                (g.zs.clone(), target % d)
            })
            .collect();
        let mut pivots: Vec<(usize, usize)> = Vec::new();
        let mut row = 0;
        for col in 0..self.width {
            let Some(pivot) = (row..system.len()).find(|&r| system[r].0[col] != 0) else {
                continue;
            };
            system.swap(row, pivot);
            let inv = u64::from(mod_inverse(system[row].0[col], d));
            // Normalise the pivot row, then clear the column everywhere else.
            for value in &mut system[row].0 {
                *value = ((u64::from(*value) * inv) % u64::from(d)) as u32;
            }
            system[row].1 = ((u64::from(system[row].1) * inv) % u64::from(d)) as u32;
            let pivot_row = system[row].clone();
            for (r, (coeffs, target)) in system.iter_mut().enumerate() {
                if r == row || coeffs[col] == 0 {
                    continue;
                }
                let factor = u64::from(d - coeffs[col]);
                for (value, &base) in coeffs.iter_mut().zip(pivot_row.0.iter()) {
                    *value = ((u64::from(*value) + factor * u64::from(base)) % u64::from(d)) as u32;
                }
                *target =
                    ((u64::from(*target) + factor * u64::from(pivot_row.1)) % u64::from(d)) as u32;
            }
            pivots.push((row, col));
            row += 1;
        }
        // The solution digits are read only after the whole Gauss–Jordan
        // sweep: later pivots keep folding their targets into earlier pivot
        // rows whenever those rows carry a nonzero coefficient in a later
        // column, so a pivot row's target is final only once every column
        // has been cleared.  Free variables stay 0.
        let mut w = vec![0u32; self.width];
        for &(r, col) in &pivots {
            w[col] = system[r].1;
        }
        // Any remaining rows must be trivially satisfied (0 = 0).
        system[row..].iter().all(|(_, t)| *t == 0).then_some(w)
    }

    /// Densifies into a [`StateVector`] by applying the stabilizer
    /// projector `∏_i (1/d Σ_k g_i^k)` to a supported basis state and
    /// normalising.
    ///
    /// **The global phase of the result is arbitrary**: a stabilizer
    /// tableau only determines the state up to phase, so callers must
    /// compare the result up to a global phase.  Cost is `O(d^width)` —
    /// small registers only.
    ///
    /// # Errors
    ///
    /// Returns an error when the register is too large to densify.
    pub fn to_statevector(&self) -> Result<StateVector> {
        let d = self.dimension.get();
        let start = self
            .support_point()
            .expect("a stabilizer state always has a supported basis state");
        let mut amplitudes: HashMap<usize, Complex> = HashMap::new();
        amplitudes.insert(digits_to_index(&start, self.dimension), Complex::ONE);
        for generator in &self.rows {
            let powers: Vec<PauliRow> = (0..d).map(|k| generator.pow(k, self.dimension)).collect();
            let mut next: HashMap<usize, Complex> = HashMap::with_capacity(amplitudes.len());
            for (&index, &amp) in &amplitudes {
                let digits = index_to_digits(index, self.dimension, self.width);
                for power in &powers {
                    let (e, shifted) = power.apply_to_basis(&digits, self.dimension);
                    let theta = std::f64::consts::PI * f64::from(e) / f64::from(d);
                    let entry = next
                        .entry(digits_to_index(&shifted, self.dimension))
                        .or_insert(Complex::ZERO);
                    *entry += amp * Complex::from_phase(theta);
                }
            }
            amplitudes = next;
        }
        // Cancellation leaves ~1e-13 dust on basis states outside the
        // support; drop it before normalising.
        let peak = amplitudes.values().map(|a| a.norm()).fold(0.0f64, f64::max);
        amplitudes.retain(|_, amp| amp.norm() > peak * 1e-9);
        let norm = amplitudes
            .values()
            .map(|a| a.norm_sqr())
            .sum::<f64>()
            .sqrt();
        let size = self.dimension.register_size(self.width);
        let mut dense = vec![Complex::ZERO; size];
        for (index, amp) in amplitudes {
            dense[index] = amp.scale(1.0 / norm);
        }
        StateVector::from_amplitudes(self.dimension, self.width, dense)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_core::{Control, SingleQuditOp};

    fn dim(d: u32) -> Dimension {
        Dimension::new(d).unwrap()
    }

    /// The qudit Fourier gate `F|j⟩ = d^{−1/2} Σ_k ω^{jk}|k⟩` — Clifford
    /// (it maps X ↦ Z and Z ↦ X⁻¹).
    fn fourier(d: u32) -> SquareMatrix {
        let omega = 2.0 * std::f64::consts::PI / f64::from(d);
        let s = 1.0 / f64::from(d).sqrt();
        let mut entries = Vec::new();
        for r in 0..d {
            for c in 0..d {
                entries.push(Complex::from_phase(omega * f64::from(r * c)).scale(s));
            }
        }
        SquareMatrix::from_rows(d as usize, entries).unwrap()
    }

    /// The qudit phase gate: `diag(1, i)` for qubits, `diag(ω^{j(j+1)/2})`
    /// for odd primes — the third standard Clifford generator.
    fn phase_gate(d: u32) -> SquareMatrix {
        let mut entries = vec![Complex::ZERO; (d * d) as usize];
        for j in 0..d {
            let theta = if d == 2 {
                std::f64::consts::FRAC_PI_2 * f64::from(j)
            } else {
                2.0 * std::f64::consts::PI * f64::from(j * (j + 1) / 2) / f64::from(d)
            };
            entries[(j * d + j) as usize] = Complex::from_phase(theta);
        }
        SquareMatrix::from_rows(d as usize, entries).unwrap()
    }

    #[test]
    fn pauli_product_and_power_rules() {
        let d = dim(3);
        // Z · X = ω X Z: phase exponent 2 in ω_6 units.
        let mut z = PauliRow::z_generator(1, 0);
        z.mul_assign(&PauliRow::x_generator(1, 0), d);
        assert_eq!(z.phase, 2);
        assert_eq!(z.xs, vec![1]);
        assert_eq!(z.zs, vec![1]);
        // (XZ)^3 = ω^3 I = I for d = 3: phase 3·2 + 1·1·3·2 = 12 ≡ 0 mod 6.
        let xz = z.clone();
        let cubed = xz.pow(3, d);
        assert_eq!(cubed, PauliRow::identity(1));
        // Matrix cross-check: mul/pow agree with dense matrices.
        let to_local = |row: &PauliRow| LocalPauli {
            phase: row.phase,
            xz: vec![(row.xs[0], row.zs[0])],
        };
        let squared = xz.pow(2, d);
        let m1 = local_pauli_matrix(&to_local(&xz), d);
        let m2 = local_pauli_matrix(&to_local(&squared), d);
        assert!((&m1 * &m1).approx_eq(&m2, 1e-12));
    }

    #[test]
    fn paulis_and_sum_classify_as_clifford() {
        for d in [2u32, 3, 5] {
            let dimension = dim(d);
            let shift = Gate::single(SingleQuditOp::Add(1), QuditId::new(0));
            assert!(is_clifford_gate(&shift, dimension), "X+1 at d={d}");
            let f = Gate::single(SingleQuditOp::Unitary(fourier(d)), QuditId::new(1));
            assert!(is_clifford_gate(&f, dimension), "F at d={d}");
            let s = Gate::single(SingleQuditOp::Unitary(phase_gate(d)), QuditId::new(0));
            assert!(is_clifford_gate(&s, dimension), "S at d={d}");
            let sum = Gate::add_from(QuditId::new(0), false, QuditId::new(1), vec![]);
            assert!(is_clifford_gate(&sum, dimension), "SUM at d={d}");
            let diff = Gate::add_from(QuditId::new(1), true, QuditId::new(0), vec![]);
            assert!(is_clifford_gate(&diff, dimension), "X-⋆ at d={d}");
        }
    }

    #[test]
    fn fourier_action_maps_x_to_z() {
        let d = dim(3);
        let f = Gate::single(SingleQuditOp::Unitary(fourier(3)), QuditId::new(0));
        let action = classify_gate(&f, d).unwrap();
        // F X F† = Z (up to the sign convention of F).
        let x_image = &action.x_images[0];
        assert_eq!(x_image.xz, vec![(0, 1)]);
        // F Z F† = X^{-1}.
        let z_image = &action.z_images[0];
        assert_eq!(z_image.xz[0].0, 2);
    }

    #[test]
    fn non_clifford_gates_are_rejected_with_typed_errors() {
        let d3 = dim(3);
        // A |1⟩-controlled shift is block-diagonal with unequal blocks.
        let controlled = Gate::controlled(
            SingleQuditOp::Add(1),
            QuditId::new(1),
            vec![Control::level(QuditId::new(0), 1)],
        );
        assert!(matches!(
            classify_gate(&controlled, d3),
            Err(QuditError::NonClifford { .. })
        ));
        // A 3-qudit gate is rejected without inspection.
        let toffoli = Gate::controlled(
            SingleQuditOp::Swap(0, 1),
            QuditId::new(2),
            vec![
                Control::zero(QuditId::new(0)),
                Control::zero(QuditId::new(1)),
            ],
        );
        assert!(matches!(
            classify_gate(&toffoli, d3),
            Err(QuditError::NonClifford { .. })
        ));
        // Non-prime dimensions are rejected outright.
        let shift = Gate::single(SingleQuditOp::Add(1), QuditId::new(0));
        assert!(matches!(
            classify_gate(&shift, dim(4)),
            Err(QuditError::NonClifford { .. })
        ));
        // A transposition is affine for d ≤ 3 but not for d = 5.
        let swap = Gate::single(SingleQuditOp::Swap(0, 1), QuditId::new(0));
        assert!(is_clifford_gate(&swap, dim(2)));
        assert!(is_clifford_gate(&swap, d3));
        assert!(!is_clifford_gate(&swap, dim(5)));
    }

    #[test]
    fn tableau_detects_equality_and_inequality() {
        let d = dim(5);
        let mut a = Circuit::new(d, 3);
        a.push(Gate::single(
            SingleQuditOp::Unitary(fourier(5)),
            QuditId::new(0),
        ))
        .unwrap();
        a.push(Gate::add_from(
            QuditId::new(0),
            false,
            QuditId::new(1),
            vec![],
        ))
        .unwrap();
        a.push(Gate::single(SingleQuditOp::Add(2), QuditId::new(2)))
            .unwrap();
        assert!(clifford_circuits_equal(&a, &a).unwrap());

        let mut b = a.clone();
        b.push(Gate::single(SingleQuditOp::Add(1), QuditId::new(2)))
            .unwrap();
        assert!(!clifford_circuits_equal(&a, &b).unwrap());

        // Inverse composition collapses to the identity tableau.
        let mut round_trip = a.clone();
        round_trip.append(&a.inverse()).unwrap();
        let tableau = CliffordTableau::from_circuit(&round_trip).unwrap();
        assert_eq!(tableau, CliffordTableau::identity(d, 3));
    }

    #[test]
    fn tableau_ignores_global_phase_only() {
        // ω·I (as a unitary gate) has the same tableau as the identity; a
        // relative phase (the S gate) does not.
        let d = dim(3);
        let omega = Complex::from_phase(2.0 * std::f64::consts::PI / 3.0);
        let mut global = SquareMatrix::zeros(3);
        for j in 0..3 {
            global[(j, j)] = omega;
        }
        let mut phased = Circuit::new(d, 1);
        phased
            .push(Gate::single(
                SingleQuditOp::Unitary(global),
                QuditId::new(0),
            ))
            .unwrap();
        let empty = Circuit::new(d, 1);
        assert!(clifford_circuits_equal(&phased, &empty).unwrap());

        let mut s = Circuit::new(d, 1);
        s.push(Gate::single(
            SingleQuditOp::Unitary(phase_gate(3)),
            QuditId::new(0),
        ))
        .unwrap();
        assert!(!clifford_circuits_equal(&s, &empty).unwrap());
    }

    #[test]
    fn row_major_tableau_sweep_matches_gate_by_gate() {
        let d = dim(3);
        let mut circuit = Circuit::new(d, 6);
        for q in 0..6usize {
            circuit
                .push(Gate::single(
                    SingleQuditOp::Unitary(fourier(3)),
                    QuditId::new(q),
                ))
                .unwrap();
            circuit
                .push(Gate::add_from(
                    QuditId::new(q),
                    false,
                    QuditId::new((q + 1) % 6),
                    vec![],
                ))
                .unwrap();
        }
        // The row-major construction sweep must equal gate-major
        // application of the same actions (exact integer arithmetic).
        let swept = CliffordTableau::from_circuit(&circuit).unwrap();
        let mut gate_by_gate = CliffordTableau::identity(d, 6);
        for action in classify_circuit(&circuit).unwrap() {
            gate_by_gate.apply_action(&action);
        }
        assert_eq!(swept, gate_by_gate);
    }

    #[test]
    fn stabilizer_state_tracks_basis_probabilities() {
        let d = dim(3);
        let mut circuit = Circuit::new(d, 3);
        circuit
            .push(Gate::single(SingleQuditOp::Add(2), QuditId::new(0)))
            .unwrap();
        circuit
            .push(Gate::add_from(
                QuditId::new(0),
                false,
                QuditId::new(2),
                vec![],
            ))
            .unwrap();
        let mut state = StabilizerState::from_basis(d, &[0, 1, 0]).unwrap();
        state.apply_circuit(&circuit).unwrap();
        assert!((state.probability(&[2, 1, 2]) - 1.0).abs() < 1e-12);
        assert_eq!(state.dominant_basis_state(), vec![2, 1, 2]);
        assert_eq!(state.probability(&[0, 1, 2]), 0.0);
    }

    #[test]
    fn fourier_spreads_probability_uniformly() {
        let d = dim(5);
        let mut circuit = Circuit::new(d, 1);
        circuit
            .push(Gate::single(
                SingleQuditOp::Unitary(fourier(5)),
                QuditId::new(0),
            ))
            .unwrap();
        let mut state = StabilizerState::from_basis(d, &[0]).unwrap();
        state.apply_circuit(&circuit).unwrap();
        for level in 0..5 {
            assert!((state.probability(&[level]) - 0.2).abs() < 1e-12);
        }
        // Densified, the state matches the dense engine up to global phase.
        let dense = crate::simulate_basis(&circuit, &[0]).unwrap();
        let tableau_vec = state.to_statevector().unwrap();
        assert!((tableau_vec.fidelity(&dense) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn entangled_state_probabilities_match_dense() {
        let d = dim(3);
        let mut circuit = Circuit::new(d, 2);
        circuit
            .push(Gate::single(
                SingleQuditOp::Unitary(fourier(3)),
                QuditId::new(0),
            ))
            .unwrap();
        circuit
            .push(Gate::add_from(
                QuditId::new(0),
                false,
                QuditId::new(1),
                vec![],
            ))
            .unwrap();
        let mut state = StabilizerState::from_basis(d, &[0, 0]).unwrap();
        state.apply_circuit(&circuit).unwrap();
        let dense = crate::simulate_basis(&circuit, &[0, 0]).unwrap();
        for input in crate::basis::all_basis_states(d, 2) {
            assert!(
                (state.probability(&input) - dense.probability(&input)).abs() < 1e-9,
                "input {input:?}"
            );
        }
        assert!((state.to_statevector().unwrap().fidelity(&dense) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn support_point_survives_coupled_z_constraints() {
        // Regression: the Gauss–Jordan solve in `support_point` used to
        // read each pivot's target the moment the pivot was processed, but
        // later pivots keep folding their targets into earlier pivot rows
        // (whenever those rows have a nonzero coefficient in a later
        // column), so the recorded digits went stale.  This 6-gate qubit
        // circuit ends in the basis state |11⟩ with a Z-part whose rows
        // couple exactly that way: the stale read reported |01⟩, a basis
        // state of probability zero.
        let d = dim(2);
        let mut circuit = Circuit::new(d, 2);
        circuit
            .push(Gate::single(
                SingleQuditOp::Unitary(fourier(2)),
                QuditId::new(0),
            ))
            .unwrap();
        circuit
            .push(Gate::add_from(
                QuditId::new(0),
                true,
                QuditId::new(1),
                vec![],
            ))
            .unwrap();
        circuit
            .push(Gate::add_from(
                QuditId::new(1),
                true,
                QuditId::new(0),
                vec![],
            ))
            .unwrap();
        circuit
            .push(Gate::single(
                SingleQuditOp::Unitary(fourier(2)),
                QuditId::new(1),
            ))
            .unwrap();
        circuit
            .push(Gate::single(SingleQuditOp::Add(1), QuditId::new(1)))
            .unwrap();
        circuit
            .push(Gate::add_from(
                QuditId::new(1),
                false,
                QuditId::new(0),
                vec![],
            ))
            .unwrap();
        let mut state = StabilizerState::from_basis(d, &[0, 0]).unwrap();
        state.apply_circuit(&circuit).unwrap();
        assert_eq!(state.dominant_basis_state(), vec![1, 1]);
        assert!((state.probability(&[1, 1]) - 1.0).abs() < 1e-12);
        let dense = crate::simulate_basis(&circuit, &[0, 0]).unwrap();
        assert!((state.to_statevector().unwrap().fidelity(&dense) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn wide_registers_stay_cheap() {
        // Width 24 qutrits: 3^24 ≈ 2.8·10¹¹ amplitudes — far beyond dense
        // reach, trivial for the tableau.
        let d = dim(3);
        let width = 24;
        let mut circuit = Circuit::new(d, width);
        for q in 0..width {
            circuit
                .push(Gate::single(
                    SingleQuditOp::Unitary(fourier(3)),
                    QuditId::new(q),
                ))
                .unwrap();
            if q + 1 < width {
                circuit
                    .push(Gate::add_from(
                        QuditId::new(q),
                        false,
                        QuditId::new(q + 1),
                        vec![],
                    ))
                    .unwrap();
            }
        }
        assert!(clifford_circuits_equal(&circuit, &circuit).unwrap());
        let mut tampered = circuit.clone();
        tampered
            .push(Gate::single(SingleQuditOp::Add(1), QuditId::new(7)))
            .unwrap();
        assert!(!clifford_circuits_equal(&circuit, &tampered).unwrap());

        let mut state = StabilizerState::from_basis(d, &vec![0; width]).unwrap();
        state.apply_circuit(&circuit).unwrap();
        let witness = state.dominant_basis_state();
        assert!(state.probability(&witness) > 0.0);
    }

    #[test]
    fn register_mismatches_are_rejected() {
        let d = dim(3);
        let mut wide = Circuit::new(d, 4);
        wide.push(Gate::single(SingleQuditOp::Add(1), QuditId::new(3)))
            .unwrap();
        let mut state = StabilizerState::from_basis(d, &[0, 0]).unwrap();
        assert!(state.apply_circuit(&wide).is_err());
        let other = Circuit::new(dim(5), 2);
        assert!(clifford_circuits_equal(&wide, &other).is_err());
    }
}
