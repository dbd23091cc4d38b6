//! Random workload generators: Haar-like unitaries, random permutations,
//! random reversible functions and random dialect circuits.

use qudit_core::math::{Complex, SquareMatrix};
use qudit_core::{Circuit, Control, Dimension, Gate, Permutation, QuditId, SingleQuditOp};
use rand::Rng;

/// Draws a sample from the standard normal distribution using the
/// Box–Muller transform.
fn standard_normal<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Generates a Haar-like random unitary of the given size.
///
/// A complex Gaussian matrix is orthonormalised with the Gram–Schmidt
/// procedure; this is sufficient for generating benchmark workloads.
///
/// # Panics
///
/// Panics if `size == 0`.
///
/// # Example
///
/// ```
/// # use rand::SeedableRng;
/// # use qudit_sim::random::random_unitary;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let u = random_unitary(3, &mut rng);
/// assert!(u.is_unitary(1e-8));
/// ```
pub fn random_unitary<R: Rng>(size: usize, rng: &mut R) -> SquareMatrix {
    assert!(size > 0, "unitary size must be positive");
    // Random complex Gaussian columns.
    let mut columns: Vec<Vec<Complex>> = (0..size)
        .map(|_| {
            (0..size)
                .map(|_| Complex::new(standard_normal(rng), standard_normal(rng)))
                .collect()
        })
        .collect();
    // Modified Gram–Schmidt.
    for i in 0..size {
        for j in 0..i {
            let proj: Complex = columns[j]
                .iter()
                .zip(columns[i].iter())
                .map(|(a, b)| a.conj() * *b)
                .sum();
            let col_j = columns[j].clone();
            for (value, base) in columns[i].iter_mut().zip(col_j.iter()) {
                *value -= proj * *base;
            }
        }
        let norm: f64 = columns[i].iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        assert!(norm > 1e-12, "degenerate random matrix");
        for value in &mut columns[i] {
            *value = value.scale(1.0 / norm);
        }
    }
    let mut matrix = SquareMatrix::zeros(size);
    for (c, column) in columns.iter().enumerate() {
        for (r, value) in column.iter().enumerate() {
            matrix[(r, c)] = *value;
        }
    }
    matrix
}

/// Generates a uniformly random permutation of `0..size` (Fisher–Yates).
pub fn random_permutation<R: Rng>(size: usize, rng: &mut R) -> Vec<usize> {
    let mut table: Vec<usize> = (0..size).collect();
    for i in (1..size).rev() {
        let j = rng.gen_range(0..=i);
        table.swap(i, j);
    }
    table
}

/// Generates a uniformly random `n`-variable `d`-ary reversible function,
/// given as a permutation table over the `d^n` basis states.
pub fn random_reversible_table<R: Rng>(
    dimension: Dimension,
    width: usize,
    rng: &mut R,
) -> Vec<usize> {
    random_permutation(dimension.register_size(width), rng)
}

/// Generates a random single-qudit unitary of dimension `d`.
pub fn random_single_qudit_unitary<R: Rng>(dimension: Dimension, rng: &mut R) -> SquareMatrix {
    random_unitary(dimension.as_usize(), rng)
}

/// Draws `count` distinct qudit ids from `0..width` (partial Fisher–Yates).
fn distinct_qudits<R: Rng>(width: usize, count: usize, rng: &mut R) -> Vec<QuditId> {
    assert!(
        count <= width,
        "cannot draw {count} distinct qudits from {width}"
    );
    let mut pool: Vec<usize> = (0..width).collect();
    for i in 0..count {
        let j = rng.gen_range(i..width);
        pool.swap(i, j);
    }
    pool[..count].iter().map(|&i| QuditId::new(i)).collect()
}

/// Draws a random control predicate valid for the dimension.
fn random_predicate<R: Rng>(dimension: Dimension, rng: &mut R) -> qudit_core::ControlPredicate {
    use qudit_core::ControlPredicate;
    match rng.gen_range(0u32..4) {
        0 => ControlPredicate::Level(rng.gen_range(0..dimension.get())),
        1 => ControlPredicate::Odd,
        2 => ControlPredicate::EvenNonzero,
        _ => ControlPredicate::NonZero,
    }
}

/// Draws a random classical single-qudit operation.
fn random_classical_op<R: Rng>(dimension: Dimension, rng: &mut R) -> SingleQuditOp {
    let d = dimension.get();
    match rng.gen_range(0u32..4) {
        0 => {
            let i = rng.gen_range(0..d);
            let j = (i + 1 + rng.gen_range(0..d - 1)) % d;
            SingleQuditOp::Swap(i, j)
        }
        1 => SingleQuditOp::Add(rng.gen_range(0..d)),
        2 => {
            if dimension.is_even() {
                SingleQuditOp::ParityFlipEven
            } else {
                SingleQuditOp::ParityFlipOdd
            }
        }
        _ => {
            let map = random_permutation(dimension.as_usize(), rng)
                .into_iter()
                .map(|v| v as u32)
                .collect();
            SingleQuditOp::Perm(Permutation::from_map(map).expect("random permutation is valid"))
        }
    }
}

fn random_dialect_gate<R: Rng>(
    dimension: Dimension,
    width: usize,
    classical_only: bool,
    rng: &mut R,
) -> Gate {
    // AddFrom needs two distinct wires; every other op needs one.
    let add_from = width >= 2 && rng.gen_range(0u32..4) == 0;
    let base_arity = if add_from { 2 } else { 1 };
    let max_controls = (width - base_arity).min(2);
    let n_controls = rng.gen_range(0..=max_controls);
    let qudits = distinct_qudits(width, base_arity + n_controls, rng);
    let controls: Vec<Control> = qudits[..n_controls]
        .iter()
        .map(|&q| Control::new(q, random_predicate(dimension, rng)))
        .collect();
    if add_from {
        return Gate::add_from(
            qudits[n_controls],
            rng.gen_range(0u32..2) == 1,
            qudits[n_controls + 1],
            controls,
        );
    }
    let target = qudits[n_controls];
    let op = if classical_only {
        random_classical_op(dimension, rng)
    } else {
        match rng.gen_range(0u32..6) {
            0 => SingleQuditOp::fourier(dimension),
            1 => SingleQuditOp::clifford_phase(dimension),
            2 => SingleQuditOp::Unitary(random_single_qudit_unitary(dimension, rng)),
            _ => random_classical_op(dimension, rng),
        }
    };
    Gate::controlled(op, target, controls)
}

/// Generates a random circuit exercising the *full* text-IR gate
/// repertoire: level swaps, shifts, parity flips, permutations, Fourier /
/// phase Cliffords, Haar-like unitaries and `SUM` gates, each with up to
/// two controls drawn from all four predicate kinds.
///
/// This is the workload for the `parse ∘ print = id` property suites of
/// [`qudit_core::qasm`].
///
/// # Panics
///
/// Panics when `width == 0`.
///
/// # Example
///
/// ```
/// # use rand::SeedableRng;
/// # use qudit_core::Dimension;
/// # use qudit_sim::random::random_dialect_circuit;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let circuit = random_dialect_circuit(Dimension::new(3).unwrap(), 4, 20, &mut rng);
/// let printed = qudit_core::qasm::print_circuit(&circuit);
/// assert_eq!(qudit_core::qasm::parse_source(&printed).unwrap(), circuit);
/// ```
pub fn random_dialect_circuit<R: Rng>(
    dimension: Dimension,
    width: usize,
    gates: usize,
    rng: &mut R,
) -> Circuit {
    assert!(width > 0, "register width must be positive");
    let mut circuit = Circuit::new(dimension, width);
    for _ in 0..gates {
        let gate = random_dialect_gate(dimension, width, false, rng);
        circuit
            .push(gate)
            .expect("generated gate fits the register");
    }
    circuit
}

/// Like [`random_dialect_circuit`], but restricted to classical
/// (basis-permuting) gates, so the result flows through the full
/// lowering/compilation pass stack — the workload for the
/// `compile_source(print(c)) ≡ compile(c)` property suites.
///
/// # Panics
///
/// Panics when `width == 0`.
pub fn random_classical_dialect_circuit<R: Rng>(
    dimension: Dimension,
    width: usize,
    gates: usize,
    rng: &mut R,
) -> Circuit {
    assert!(width > 0, "register width must be positive");
    let mut circuit = Circuit::new(dimension, width);
    for _ in 0..gates {
        let gate = random_dialect_gate(dimension, width, true, rng);
        circuit
            .push(gate)
            .expect("generated gate fits the register");
    }
    circuit
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_unitaries_are_unitary() {
        let mut rng = StdRng::seed_from_u64(42);
        for size in [1usize, 2, 3, 5, 8] {
            let u = random_unitary(size, &mut rng);
            assert!(u.is_unitary(1e-8), "size {size} matrix is not unitary");
        }
    }

    #[test]
    fn random_permutations_are_bijections() {
        let mut rng = StdRng::seed_from_u64(7);
        for size in [1usize, 2, 10, 27] {
            let p = random_permutation(size, &mut rng);
            let mut sorted = p.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..size).collect::<Vec<_>>());
        }
    }

    #[test]
    fn reversible_tables_have_the_right_size() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = Dimension::new(3).unwrap();
        let table = random_reversible_table(d, 3, &mut rng);
        assert_eq!(table.len(), 27);
    }

    #[test]
    fn seeded_generation_is_deterministic() {
        let d = Dimension::new(4).unwrap();
        let mut rng_a = StdRng::seed_from_u64(11);
        let mut rng_b = StdRng::seed_from_u64(11);
        assert_eq!(
            random_reversible_table(d, 2, &mut rng_a),
            random_reversible_table(d, 2, &mut rng_b)
        );
        let ua = random_single_qudit_unitary(d, &mut rng_a);
        let ub = random_single_qudit_unitary(d, &mut rng_b);
        assert!(ua.approx_eq(&ub, 1e-12));
    }
}
