//! Independent output checks.  A compiled output is judged by `qudit_sim`
//! against the job's own reference (the hand-built input circuit or the
//! k-Toffoli specification), never by re-running the compiler.

use qudit_core::{Circuit, Gate};
use qudit_sim::circuit_permutation;
use qudit_sim::equivalence::verify_mct_sampled;
use rand::rngs::StdRng;

use crate::jobs::Job;

/// Basis states sampled per k-Toffoli output (half of them with every
/// control at `|0⟩`, so the firing branch is always exercised).
const MCT_SAMPLES: usize = 256;

/// Checks one compiled output.  `sites` is the coupling chain the output
/// was routed onto, if any: then the output spans the whole chain and every
/// two-qudit gate must act on neighbouring sites.
pub fn check_output(
    job: &Job,
    output: &Circuit,
    sites: Option<usize>,
    rng: &mut StdRng,
) -> Result<(), String> {
    let width = sites.unwrap_or(job.input.width());
    if output.dimension() != job.input.dimension() || output.width() != width {
        return Err(format!(
            "register changed: d={} width={} (expected d={} width={width})",
            output.dimension(),
            output.width(),
            job.input.dimension()
        ));
    }
    // Routed outputs keep their SWAP ladders (`sum` and negation gates) but
    // must respect the chain; unrouted outputs must be all G-gates.
    if sites.is_some() {
        if let Some(gate) = output.gates().iter().find(|g| !on_chain(g)) {
            return Err(format!("gate acts on uncoupled sites: {gate:?}"));
        }
    } else if let Some(gate) = output.gates().iter().find(|g| !g.is_g_gate()) {
        return Err(format!("output holds a non-G-gate: {gate:?}"));
    }
    match &job.spec {
        Some(spec) => {
            let verdict = verify_mct_sampled(output, spec, MCT_SAMPLES, rng)
                .map_err(|e| format!("simulation failed: {e}"))?;
            if !verdict.is_pass() {
                return Err(format!("k-Toffoli specification violated: {verdict:?}"));
            }
        }
        None => {
            let expected = circuit_permutation(&job.input).map_err(|e| e.to_string())?;
            let actual = circuit_permutation(output).map_err(|e| e.to_string())?;
            if let Some(state) = (0..expected.len()).find(|&i| expected[i] != actual[i]) {
                return Err(format!("basis state {state} maps differently"));
            }
        }
    }
    Ok(())
}

/// Whether a gate acts on at most two neighbouring sites of a linear chain.
fn on_chain(gate: &Gate) -> bool {
    match gate.qudits().as_slice() {
        [_] => true,
        [a, b] => a.index().abs_diff(b.index()) == 1,
        _ => false,
    }
}

/// Deliberately breaks an output by dropping its middle gate — the
/// benchmark's own self-test that a wrong output is counted as failed.
pub fn corrupt(circuit: &Circuit) -> Circuit {
    let mut broken = Circuit::new(circuit.dimension(), circuit.width());
    let middle = circuit.len() / 2;
    for (i, gate) in circuit.gates().iter().enumerate() {
        if i != middle {
            broken.push(gate.clone()).expect("gates of a valid circuit");
        }
    }
    broken
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::Workload;
    use qudit_synthesis::CompileOptions;
    use rand::SeedableRng;

    #[test]
    fn compiled_outputs_pass_and_corrupted_ones_fail() {
        let mut rng = StdRng::seed_from_u64(7);
        for workload in [Workload::ServeGadgets, Workload::ServeMct] {
            let jobs = workload.jobs(&mut rng);
            let compiler = CompileOptions::new().compiler();
            for job in jobs.iter().take(3) {
                let output = compiler.compile_source(&job.source).unwrap().circuit;
                assert_eq!(check_output(job, &output, None, &mut rng), Ok(()));
                assert!(check_output(job, &corrupt(&output), None, &mut rng).is_err());
            }
        }
    }
}
