//! Helpers shared by the integration suites.

use qudit_core::{Circuit, Dimension, QuditId, SingleQuditOp};
use qudit_synthesis::emit_multi_controlled;

/// Builds a circuit of `specs.len()` multi-controlled gates over `width`
/// qudits, with one spare qudit reserved as the borrowed pool for even `d` —
/// the random workload family of the pipeline, facade and scheduler
/// proptests.
///
/// Each spec `(k, target_offset, op_kind, shift, level_seed)` places a gate
/// with `k` controls (on qudits `0..k`) at pseudo-random levels.
pub fn build_mct_circuit(dimension: Dimension, specs: &[(usize, usize, u8, u32, u32)]) -> Circuit {
    let d = dimension.get();
    let max_controls = specs.iter().map(|s| s.0).max().expect("non-empty specs");
    // controls + target + one spare for the even-d borrowed ancilla.
    let width = max_controls + 2;
    let mut circuit = Circuit::new(dimension, width);
    for &(k, target_offset, op_kind, shift, level_seed) in specs {
        let op = match op_kind % 3 {
            0 => SingleQuditOp::Swap(0, 1 + shift % (d - 1)),
            1 => SingleQuditOp::Add(1 + shift % (d - 1)),
            _ => SingleQuditOp::Swap(shift % d, (shift + 1) % d),
        };
        let target = QuditId::new(k + (target_offset % (width - k)));
        let controls: Vec<(QuditId, u32)> = (0..k)
            .map(|i| (QuditId::new(i), (level_seed.wrapping_add(i as u32 * 7)) % d))
            .collect();
        let pool: Vec<QuditId> = (0..width)
            .map(QuditId::new)
            .filter(|q| *q != target && !controls.iter().any(|(c, _)| c == q))
            .collect();
        // The pool always holds a spare qudit (width = max k + 2), so
        // emission cannot fail; a failure here is a real regression.
        emit_multi_controlled(&mut circuit, &controls, target, &op, &pool)
            .expect("multi-controlled emission succeeds for valid specs");
    }
    circuit
}
