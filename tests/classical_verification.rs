//! Directed negative tests for the classical `VerifyEquivalence` paths.
//!
//! A pass that drops one middle gate of a lowered (non-palindromic)
//! k-Toffoli must be rejected with an exact `PassFailed` message.  The
//! basis-state witness is the first mismatching state in basis order on the
//! exhaustive path and the first in draw order on the sampled path.  The
//! messages below are pinned byte-for-byte, for a single run and for the
//! same job inside a 4-worker batch (the one level that fans out), where
//! the first failing job in input order decides the batch's error.
//!
//! A register whose basis overflows `usize` takes the sampled path: a
//! verified O2 compile of the d = 4, k = 30 k-Toffoli (width 32, 4^32 =
//! 2^64 states) verifies instead of panicking on the register size.

use qudit_core::pipeline::{pass_fn, Pass, PassManager, ScheduleDepth};
use qudit_core::pool::WorkStealingPool;
use qudit_core::{Circuit, Control, Dimension, Gate, QuditError, QuditId, SingleQuditOp};
use qudit_sim::{Proof, VerifyEquivalence};
use qudit_synthesis::{CompileOptions, KToffoli, OptLevel, Verify};

/// The G-gate lowering of the `(d, k = 4)` k-Toffoli on a width-6 register
/// (4 096 basis states at d = 4, exhaustive; 15 625 at d = 5, sampled).
fn lowered_toffoli(d: u32) -> Circuit {
    let dimension = Dimension::new(d).unwrap();
    let synthesis = KToffoli::new(dimension, 4).unwrap().synthesize().unwrap();
    let lowered = CompileOptions::new()
        .compiler()
        .compile(&synthesis.circuit().widened(6).unwrap())
        .unwrap()
        .circuit;
    let mut reversed = lowered.gates().to_vec();
    reversed.reverse();
    assert_ne!(
        lowered.gates(),
        reversed.as_slice(),
        "workload must not be a palindrome"
    );
    lowered
}

/// A pass that drops the first controlled gate at or after the middle of
/// its input.
fn drop_middle_gate() -> impl Pass {
    pass_fn("drop-middle", |c: Circuit| {
        let middle = (c.len() / 2..c.len())
            .find(|&i| !c.gates()[i].controls().is_empty())
            .expect("a controlled gate after the middle");
        let mut broken = Circuit::new(c.dimension(), c.width());
        for (i, gate) in c.gates().iter().enumerate() {
            if i != middle {
                broken.push(gate.clone())?;
            }
        }
        Ok(broken)
    })
}

/// `inner` on the jobs in `victims`, the identity on every other job, under
/// `inner`'s name — so a batch can mix failing and passing jobs.
fn only_on(victims: Vec<Circuit>, inner: impl Pass + 'static) -> Box<dyn Pass> {
    let name = inner.name().to_string();
    Box::new(pass_fn(name, move |c: Circuit| {
        if victims.contains(&c) {
            inner.run(c)
        } else {
            Ok(c)
        }
    }))
}

/// A 4-worker manager running `verified`.
fn batch_manager(verified: VerifyEquivalence) -> PassManager {
    PassManager::new()
        .with_pass(verified)
        .with_pool(WorkStealingPool::with_threads(4))
}

/// A `PassFailed` error as `"<pass>: <reason>"`.
fn pass_failed<T: std::fmt::Debug>(result: qudit_core::Result<T>) -> String {
    match result {
        Err(QuditError::PassFailed { pass, reason }) => format!("{pass}: {reason}"),
        other => panic!("expected PassFailed, got {other:?}"),
    }
}

/// Jobs the pass under test leaves alone: the empty register and the first
/// half of `circuit`, both on `circuit`'s register.
fn passing_jobs(circuit: &Circuit) -> [Circuit; 2] {
    let mut half = Circuit::new(circuit.dimension(), circuit.width());
    for gate in &circuit.gates()[..circuit.len() / 2] {
        half.push(gate.clone()).unwrap();
    }
    [Circuit::new(circuit.dimension(), circuit.width()), half]
}

/// Runs `wrap(inner)` on `circuit` alone and as the middle job of a
/// 4-worker batch between passing jobs, asserts both report the same
/// `PassFailed` error and returns it as `"<pass>: <reason>"`.
fn failure(
    circuit: Circuit,
    inner: impl Pass + 'static,
    wrap: impl Fn(Box<dyn Pass>) -> VerifyEquivalence,
) -> String {
    let manager = batch_manager(wrap(only_on(vec![circuit.clone()], inner)));
    let single = pass_failed(manager.run(circuit.clone()));
    let [empty, half] = passing_jobs(&circuit);
    let batch = pass_failed(manager.run_batch(vec![empty, circuit, half]));
    assert_eq!(batch, single, "the batch must report the job's own error");
    single
}

#[test]
fn exhaustive_path_pins_the_first_witness_in_basis_order() {
    let circuit = lowered_toffoli(4);
    assert_eq!(
        failure(circuit, drop_middle_gate(), VerifyEquivalence::wrap),
        "drop-middle: output circuit is not equivalent to its input (basis state [0, 1, 0, 0, 0, 0])"
    );
}

#[test]
fn sampled_path_pins_the_first_witness_in_draw_order() {
    let circuit = lowered_toffoli(5);
    assert_eq!(
        failure(circuit, drop_middle_gate(), VerifyEquivalence::wrap),
        "drop-middle: output circuit is not equivalent to its input (basis state [3, 2, 0, 1, 0, 0])"
    );
}

#[test]
fn a_batch_reports_its_first_failing_job_in_input_order() {
    // The d = 5 job (sampled) runs longer than the d = 4 one (exhaustive),
    // so on 4 workers the later job tends to fail first; the batch still
    // reports whichever failing job comes first in the input.
    let (d4, d5) = (lowered_toffoli(4), lowered_toffoli(5));
    let manager = batch_manager(VerifyEquivalence::wrap(only_on(
        vec![d4.clone(), d5.clone()],
        drop_middle_gate(),
    )));
    let [empty4, half4] = passing_jobs(&d4);
    let [empty5, _] = passing_jobs(&d5);
    let d4_message = "drop-middle: output circuit is not equivalent to its input (basis state [0, 1, 0, 0, 0, 0])";
    let d5_message = "drop-middle: output circuit is not equivalent to its input (basis state [3, 2, 0, 1, 0, 0])";
    let jobs = vec![
        empty4.clone(),
        d5.clone(),
        half4.clone(),
        d4.clone(),
        empty5.clone(),
    ];
    assert_eq!(pass_failed(manager.run_batch(jobs)), d5_message);
    let jobs = vec![empty5, d4, half4, d5, empty4];
    assert_eq!(pass_failed(manager.run_batch(jobs)), d4_message);
}

#[test]
fn exhaustive_witness_is_the_earliest_across_blocks() {
    // Two appended gates fire on far-apart basis states of a 15 625-state
    // register; the earlier one in basis order must win across sweep
    // blocks.
    let circuit = lowered_toffoli(5);
    let fires_on = |levels: &[u32]| {
        let controls = levels
            .iter()
            .enumerate()
            .map(|(q, &l)| Control::level(QuditId::new(q), l));
        Gate::controlled(SingleQuditOp::Swap(0, 1), QuditId::new(5), controls)
    };
    let extra = [fires_on(&[4, 4, 4, 4, 4]), fires_on(&[2, 3])];
    let append = pass_fn("append-late", move |mut c: Circuit| {
        for gate in &extra {
            c.push(gate.clone())?;
        }
        Ok(c)
    });
    assert_eq!(
        failure(circuit, append, |inner| {
            VerifyEquivalence::wrap(inner).with_limits(1 << 14, 256)
        }),
        "append-late: output circuit is not equivalent to its input (basis state [2, 3, 0, 0, 0, 0])"
    );
}

#[test]
fn wide_lane_sampled_path_pins_its_witness() {
    // d = 300 does not fit a byte lane; 90 000 states take the sampled path.
    let dimension = Dimension::new(300).unwrap();
    let mut circuit = Circuit::new(dimension, 2);
    for l in 0..8u32 {
        let a = QuditId::new((l % 2) as usize);
        let b = QuditId::new(1 - (l % 2) as usize);
        let control = [
            Control::odd(a),
            Control::nonzero(a),
            Control::even_nonzero(a),
        ];
        let op = match l % 2 {
            0 => SingleQuditOp::Add(37 * l + 1),
            _ => SingleQuditOp::Swap(l, 299 - l),
        };
        circuit
            .push(Gate::controlled(op, b, vec![control[(l % 3) as usize]]))
            .unwrap();
        circuit
            .push(Gate::add_from(a, l % 3 == 0, b, vec![]))
            .unwrap();
    }
    assert_eq!(
        failure(circuit, drop_middle_gate(), VerifyEquivalence::wrap),
        "drop-middle: output circuit is not equivalent to its input (basis state [33, 186])"
    );
}

#[test]
fn registers_past_usize_take_the_sampled_path() {
    let dimension = Dimension::new(4).unwrap();
    let synthesis = KToffoli::new(dimension, 30).unwrap().synthesize().unwrap();
    let width = synthesis.circuit().width();
    assert_eq!(4usize.checked_pow(width as u32), None, "width {width}");
    let result = CompileOptions::new()
        .opt_level(OptLevel::O2)
        .verify(Verify::Exhaustive)
        .compiler()
        .compile(synthesis.circuit())
        .unwrap();
    assert!(result.verification.is_verified());

    // `schedule-depth`, the stage with no structural proof, is the one that
    // reaches the global check; its default limits sample 256 states.
    let lowered = CompileOptions::new()
        .compiler()
        .compile(synthesis.circuit())
        .unwrap()
        .circuit;
    let scheduled = VerifyEquivalence::wrap(Box::new(ScheduleDepth));
    let (_, proof) = scheduled.run_with_proof(lowered).unwrap();
    assert_eq!(proof, Proof::Sampled(256));
}
