//! Cache-blocked dense simulation engine: fused gate groups applied over
//! contiguous amplitude panels.
//!
//! # Why a second dense path
//!
//! [`StateVector::apply_circuit`] is the scalar reference walk: one full
//! `d^width` traversal per gate, one amplitude at a time.  This module
//! compiles a circuit into a [`FusedProgram`] that
//!
//! 1. **fuses** runs of same-target, same-control single-qudit gates
//!    ([`qudit_core::fusion::plan_fusion`]) so each run costs *one*
//!    traversal instead of one per gate, and
//! 2. executes each fused operation with **stride-blocked panel kernels**:
//!    when the target stride is at least [`PANEL_MIN`], the `d` rows of a
//!    target block are processed in contiguous column panels of
//!    [`PANEL_WIDTH`] amplitudes through split-complex (SoA) scratch
//!    planes, turning the strided scalar walk into unit-stride loops the
//!    compiler can vectorise.
//!
//! The engine runs sequentially: a verification sweep is one step of one
//! compile job, and jobs are what fan out (see `qudit_core::pool`).
//!
//! # Exactness contract
//!
//! The fused engine is *exact*, not approximate:
//!
//! * Fused execution applies the member actions **in sequence** to each
//!   gathered block — the per-amplitude arithmetic is the identical
//!   floating-point expression tree as the gate-by-gate walk (matrix
//!   pre-products would reassociate the arithmetic, so they are not used).
//!   Output amplitudes are `==`-equal to [`StateVector::apply_circuit`];
//!   stored bit patterns can differ only in the sign of IEEE zeros, because
//!   the reference walk skips all-zero blocks column by column while the
//!   panel kernels skip them panel by panel.
//!
//! # Basis inputs
//!
//! [`simulate_basis`] and [`circuit_unitary`] start from basis states.  The
//! leading classical gates of a circuit only move that single amplitude, so
//! they run on the digit vector ([`Gate::apply_to_basis`]) and the dense
//! vector is built where the first non-classical gate starts; the rest of
//! the circuit runs through one [`FusedProgram`], compiled once per circuit
//! (not once per unitary column).  The result is `==`-equal to the
//! reference walk over the whole circuit.

use qudit_core::math::{Complex, SquareMatrix};
use qudit_core::{
    Circuit, ControlPredicate, Dimension, Gate, GateOp, QuditError, Result, SingleQuditOp,
};

use crate::basis::index_to_digits;
use crate::statevector::StateVector;

/// Minimum target stride for the panel (SoA) kernels; below this the rows
/// of a block are too short for vectorised column panels to pay and the
/// per-column scalar walk runs instead.
pub const PANEL_MIN: usize = 16;

/// Column-panel width of the SoA scratch planes, in amplitudes per row.
/// `d × PANEL_WIDTH` f64 pairs fit comfortably in L1 for every practical
/// `d`.
pub const PANEL_WIDTH: usize = 128;

/// A `d×d` matrix in split-complex (SoA) row-major layout.
#[derive(Debug, Clone, PartialEq)]
struct MixMatrix {
    re: Vec<f64>,
    im: Vec<f64>,
}

impl MixMatrix {
    fn from_square(matrix: &qudit_core::math::SquareMatrix, d: usize) -> Self {
        let mut re = Vec::with_capacity(d * d);
        let mut im = Vec::with_capacity(d * d);
        for row in 0..d {
            for col in 0..d {
                let entry = matrix[(row, col)];
                re.push(entry.re);
                im.push(entry.im);
            }
        }
        MixMatrix { re, im }
    }
}

/// The per-block action of one member gate of a fused operation.
#[derive(Debug, Clone, PartialEq)]
enum FusedAction {
    /// Classical permutation of the target levels (`level → image`).
    Permute(Vec<usize>),
    /// Shift the target by (±) the digit of the source qudit.
    ShiftBySource { source_stride: usize, negate: bool },
    /// General single-qudit unitary.
    Mix(MixMatrix),
}

/// One fused operation: a run of same-target, same-control gates applied in
/// one traversal of the amplitude vector.
#[derive(Debug, Clone, PartialEq)]
struct FusedOp {
    /// Stride of the target digit.
    t_stride: usize,
    /// `t_stride * d`: the span of one target block.
    block: usize,
    /// Controls whose digit is constant across a block
    /// (`stride >= block`), checked once per block.
    outer_controls: Vec<(usize, ControlPredicate)>,
    /// Controls whose digit varies inside a block (`stride < t_stride`),
    /// checked per column (scalar path) or per aligned run (panel path).
    inner_controls: Vec<(usize, ControlPredicate)>,
    /// Member actions, applied in circuit order.
    actions: Vec<FusedAction>,
}

impl FusedOp {
    /// Smallest stride whose digit varies *inside* a block: inner-control
    /// strides, plus the source strides of shift-by-source actions.
    /// Digits of all of them are constant on aligned runs of this length
    /// (strides are powers of `d`, so every stride is a multiple of the
    /// smallest; strides `>= block` are constant per block and excluded).
    fn min_run_stride(&self) -> usize {
        let controls = self.inner_controls.iter().map(|&(stride, _)| stride);
        let sources = self.actions.iter().filter_map(|action| match action {
            FusedAction::ShiftBySource { source_stride, .. } if *source_stride < self.block => {
                Some(*source_stride)
            }
            _ => None,
        });
        controls.chain(sources).min().unwrap_or(usize::MAX)
    }

    /// Whether the panel kernels apply: rows long enough for column
    /// panels, and constant-digit runs (if any) at least panel-sized too.
    fn uses_panels(&self) -> bool {
        self.t_stride >= PANEL_MIN && self.min_run_stride() >= PANEL_MIN
    }
}

/// A circuit compiled for fused dense execution on a fixed register shape.
///
/// # Example
///
/// ```
/// # use qudit_core::{Circuit, Dimension, Gate, QuditId, SingleQuditOp};
/// # use qudit_sim::{FusedProgram, StateVector};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d = Dimension::new(3)?;
/// let mut circuit = Circuit::new(d, 2);
/// circuit.push(Gate::single(SingleQuditOp::Add(1), QuditId::new(1)))?;
/// circuit.push(Gate::single(SingleQuditOp::Add(1), QuditId::new(1)))?;
///
/// let program = FusedProgram::compile(&circuit, 2)?;
/// assert_eq!(program.fused_gates(), 1); // two shifts, one traversal
///
/// let mut state = StateVector::new(d, 2);
/// state.apply_fused(&program)?;
/// assert!(state.probability(&[0, 2]) > 0.999);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FusedProgram {
    dimension: Dimension,
    width: usize,
    source_gates: usize,
    ops: Vec<FusedOp>,
}

impl FusedProgram {
    /// Compiles a circuit for a register of `width` qudits (which may be
    /// wider than the circuit).
    ///
    /// # Errors
    ///
    /// Returns an error when the circuit is wider than the register or a
    /// gate is invalid.
    pub fn compile(circuit: &Circuit, width: usize) -> Result<Self> {
        if circuit.width() > width {
            return Err(QuditError::IncompatibleCircuits {
                reason: "circuit is wider than the state register".to_string(),
            });
        }
        Self::compile_gates(circuit.dimension(), width, circuit.gates())
    }

    /// Compiles a gate slice for a register of `width` qudits.
    ///
    /// # Errors
    ///
    /// Returns an error when a gate is invalid for the register.
    pub fn compile_gates(dimension: Dimension, width: usize, gates: &[Gate]) -> Result<Self> {
        let d = dimension.as_usize();
        let stride_of = |qudit: usize| d.pow((width - 1 - qudit) as u32);
        let plan = qudit_core::fusion::plan_fusion(gates, true);
        let mut ops = Vec::with_capacity(plan.len());
        for group in plan.groups() {
            let template = &gates[group[0]];
            template.validate(dimension, width)?;
            let t_stride = stride_of(template.target().index());
            let block = t_stride * d;
            let mut outer_controls = Vec::new();
            let mut inner_controls = Vec::new();
            for control in template.controls() {
                let stride = stride_of(control.qudit.index());
                if stride >= block {
                    outer_controls.push((stride, control.predicate));
                } else {
                    inner_controls.push((stride, control.predicate));
                }
            }
            let mut actions = Vec::with_capacity(group.len());
            for &index in group {
                let gate = &gates[index];
                gate.validate(dimension, width)?;
                actions.push(match gate.op() {
                    GateOp::AddFrom { source, negate } => FusedAction::ShiftBySource {
                        source_stride: stride_of(source.index()),
                        negate: *negate,
                    },
                    GateOp::Single(op) if op.is_classical() => {
                        let mut permutation = vec![0usize; d];
                        for (level, slot) in permutation.iter_mut().enumerate() {
                            *slot = op.apply_level(level as u32, dimension)? as usize;
                        }
                        FusedAction::Permute(permutation)
                    }
                    GateOp::Single(SingleQuditOp::Unitary(matrix)) => {
                        FusedAction::Mix(MixMatrix::from_square(matrix, d))
                    }
                    GateOp::Single(op) => {
                        FusedAction::Mix(MixMatrix::from_square(&op.to_matrix(dimension), d))
                    }
                });
            }
            ops.push(FusedOp {
                t_stride,
                block,
                outer_controls,
                inner_controls,
                actions,
            });
        }
        Ok(FusedProgram {
            dimension,
            width,
            source_gates: gates.len(),
            ops,
        })
    }

    /// The qudit dimension the program was compiled for.
    pub fn dimension(&self) -> Dimension {
        self.dimension
    }

    /// The register width the program was compiled for.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of gates in the source circuit.
    pub fn source_gates(&self) -> usize {
        self.source_gates
    }

    /// Number of fused operations (amplitude traversals).
    pub fn traversals(&self) -> usize {
        self.ops.len()
    }

    /// Number of gates absorbed into a larger fused operation — the
    /// traversals saved relative to the gate-by-gate walk.
    pub fn fused_gates(&self) -> usize {
        self.source_gates - self.ops.len()
    }
}

/// A circuit compiled for basis-state inputs: its leading classical gates,
/// walked on the digit vector, and a fused program for the rest.
struct BasisProgram<'c> {
    prefix: &'c [Gate],
    suffix: FusedProgram,
}

impl<'c> BasisProgram<'c> {
    /// Compiles `circuit` for a register of `width` qudits (at least the
    /// circuit's width).
    fn compile(circuit: &'c Circuit, width: usize) -> Result<Self> {
        let gates = circuit.gates();
        let split = gates.iter().take_while(|gate| gate.is_classical()).count();
        Ok(BasisProgram {
            prefix: &gates[..split],
            suffix: FusedProgram::compile_gates(circuit.dimension(), width, &gates[split..])?,
        })
    }

    /// Runs the program on the basis state `digits` (validated digits of
    /// exactly the compiled width).
    fn run(&self, digits: &[u32]) -> Result<StateVector> {
        let dimension = self.suffix.dimension;
        let mut digits = digits.to_vec();
        for gate in self.prefix {
            gate.apply_to_basis(&mut digits, dimension)?;
        }
        let mut state = StateVector::from_basis(dimension, &digits)?;
        state.apply_fused(&self.suffix)?;
        Ok(state)
    }
}

/// Simulates a circuit on a basis-state input, returning the final state.
///
/// The input may be wider than the circuit (the extra qudits are idle).
/// The result is `==`-equal to [`StateVector::apply_circuit`] on the same
/// input (see the module docs for how the leading classical gates are
/// skipped).
///
/// # Errors
///
/// Returns [`QuditError::IncompatibleCircuits`] when the input is narrower
/// than the circuit and [`QuditError::LevelOutOfRange`] when a digit is not
/// a level of the dimension.
///
/// # Example
///
/// ```
/// use qudit_core::{Circuit, Control, Dimension, Gate, QuditId, SingleQuditOp};
/// use qudit_sim::{simulate_basis, StateVector};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d = Dimension::new(3)?;
/// let mut circuit = Circuit::new(d, 2);
/// circuit.push(Gate::controlled(
///     SingleQuditOp::Swap(0, 1),
///     QuditId::new(1),
///     vec![Control::zero(QuditId::new(0))],
/// ))?;
/// let state = simulate_basis(&circuit, &[0, 0])?;
/// assert!(state.probability(&[0, 1]) > 0.999);
///
/// // The same amplitudes as the scalar reference walk.
/// let mut reference = StateVector::from_basis(d, &[0, 0])?;
/// reference.apply_circuit(&circuit)?;
/// assert_eq!(state, reference);
/// # Ok(())
/// # }
/// ```
pub fn simulate_basis(circuit: &Circuit, digits: &[u32]) -> Result<StateVector> {
    if digits.len() < circuit.width() {
        return Err(QuditError::IncompatibleCircuits {
            reason: "input state is narrower than the circuit".to_string(),
        });
    }
    for &digit in digits {
        circuit.dimension().check_level(digit)?;
    }
    BasisProgram::compile(circuit, digits.len())?.run(digits)
}

/// Computes the full unitary matrix implemented by a circuit, one
/// [`simulate_basis`] column per basis input.
///
/// The matrix has size `d^width`; only use this for small registers.
///
/// # Errors
///
/// Returns an error when a gate of the circuit is invalid.
pub fn circuit_unitary(circuit: &Circuit) -> Result<SquareMatrix> {
    let dimension = circuit.dimension();
    let width = circuit.width();
    let size = dimension.register_size(width);
    let program = BasisProgram::compile(circuit, width)?;
    let mut matrix = SquareMatrix::zeros(size);
    for column in 0..size {
        let state = program.run(&index_to_digits(column, dimension, width))?;
        for (row, amp) in state.amplitudes().iter().enumerate() {
            matrix[(row, column)] = *amp;
        }
    }
    Ok(matrix)
}

/// The digit of the qudit with the given stride in a mixed-radix index.
#[inline]
fn digit_at(index: usize, stride: usize, d: usize) -> u32 {
    ((index / stride) % d) as u32
}

/// Applies one fused operation to the whole amplitude vector.
fn apply_op(op: &FusedOp, amplitudes: &mut [Complex], d: usize) {
    debug_assert_eq!(amplitudes.len() % op.block, 0);
    if op.uses_panels() {
        apply_op_panels(op, amplitudes, d);
    } else {
        apply_op_scalar(op, amplitudes, d);
    }
}

/// The per-column scalar path: the reference walk of
/// `StateVector::apply_gate`, extended to apply the fused member actions in
/// sequence on the gathered block.
fn apply_op_scalar(op: &FusedOp, amplitudes: &mut [Complex], d: usize) {
    let t_stride = op.t_stride;
    let mut cur = vec![Complex::ZERO; d];
    let mut next = vec![Complex::ZERO; d];
    for outer in (0..amplitudes.len()).step_by(op.block) {
        if !op
            .outer_controls
            .iter()
            .all(|&(stride, predicate)| predicate.matches(digit_at(outer, stride, d)))
        {
            continue;
        }
        for inner in 0..t_stride {
            let base = outer + inner;
            // Gather the block and skip it when it carries no amplitude —
            // exactly the reference walk's occupancy skip, leaving the
            // stored bits untouched.
            let mut occupied = false;
            for (level, slot) in cur.iter_mut().enumerate() {
                *slot = amplitudes[base + level * t_stride];
                occupied |= *slot != Complex::ZERO;
            }
            if !occupied {
                continue;
            }
            if !op
                .inner_controls
                .iter()
                .all(|&(stride, predicate)| predicate.matches(digit_at(base, stride, d)))
            {
                continue;
            }
            for action in &op.actions {
                match action {
                    FusedAction::Permute(permutation) => {
                        for (level, &image) in permutation.iter().enumerate() {
                            next[image] = cur[level];
                        }
                        std::mem::swap(&mut cur, &mut next);
                    }
                    FusedAction::ShiftBySource {
                        source_stride,
                        negate,
                    } => {
                        let value = digit_at(base, *source_stride, d) as usize;
                        let shift = if *negate { (d - value) % d } else { value };
                        if shift == 0 {
                            continue;
                        }
                        for (level, &amp) in cur.iter().enumerate() {
                            next[(level + shift) % d] = amp;
                        }
                        std::mem::swap(&mut cur, &mut next);
                    }
                    FusedAction::Mix(matrix) => {
                        for (row, slot) in next.iter_mut().enumerate() {
                            // The identical expression tree as the
                            // reference's `acc += m * amp` in column order.
                            let mut acc_re = 0.0;
                            let mut acc_im = 0.0;
                            for (column, &amp) in cur.iter().enumerate() {
                                let mr = matrix.re[row * d + column];
                                let mi = matrix.im[row * d + column];
                                acc_re += mr * amp.re - mi * amp.im;
                                acc_im += mr * amp.im + mi * amp.re;
                            }
                            *slot = Complex {
                                re: acc_re,
                                im: acc_im,
                            };
                        }
                        std::mem::swap(&mut cur, &mut next);
                    }
                }
            }
            for (level, &amp) in cur.iter().enumerate() {
                amplitudes[base + level * t_stride] = amp;
            }
        }
    }
}

/// The panel (SoA) path: the `d` rows of a target block are processed in
/// contiguous column panels through split-complex scratch planes, turning
/// every inner loop into a unit-stride `f64` loop.
fn apply_op_panels(op: &FusedOp, amplitudes: &mut [Complex], d: usize) {
    let t_stride = op.t_stride;
    let run_len = op.min_run_stride().min(t_stride);
    // Split-complex scratch planes: `d` rows of up to PANEL_WIDTH columns,
    // double-buffered so member actions chain in sequence.
    let mut cur_re = vec![0.0f64; d * PANEL_WIDTH];
    let mut cur_im = vec![0.0f64; d * PANEL_WIDTH];
    let mut next_re = vec![0.0f64; d * PANEL_WIDTH];
    let mut next_im = vec![0.0f64; d * PANEL_WIDTH];
    for outer in (0..amplitudes.len()).step_by(op.block) {
        if !op
            .outer_controls
            .iter()
            .all(|&(stride, predicate)| predicate.matches(digit_at(outer, stride, d)))
        {
            continue;
        }
        // Inner-control digits are constant on aligned runs of `run_len`
        // columns; check each run once on its first column.
        for run_start in (0..t_stride).step_by(run_len) {
            if !op.inner_controls.iter().all(|&(stride, predicate)| {
                predicate.matches(digit_at(outer + run_start, stride, d))
            }) {
                continue;
            }
            // Shift-by-source digits are also constant on the run (source
            // strides < block participate in `min_run_stride`).  Chop the
            // fired run into column panels.
            let run_end = run_start + run_len;
            for panel_start in (run_start..run_end).step_by(PANEL_WIDTH) {
                let w = PANEL_WIDTH.min(run_end - panel_start);
                let base = outer + panel_start;
                // Gather into the SoA planes; skip wholly-empty panels so
                // untouched regions keep their stored bits.
                let mut occupied = false;
                for level in 0..d {
                    let row = &amplitudes[base + level * t_stride..][..w];
                    let plane_re = &mut cur_re[level * PANEL_WIDTH..][..w];
                    let plane_im = &mut cur_im[level * PANEL_WIDTH..][..w];
                    for j in 0..w {
                        let amp = row[j];
                        plane_re[j] = amp.re;
                        plane_im[j] = amp.im;
                        occupied |= amp != Complex::ZERO;
                    }
                }
                if !occupied {
                    continue;
                }
                for action in &op.actions {
                    match action {
                        FusedAction::Permute(permutation) => {
                            for (level, &image) in permutation.iter().enumerate() {
                                next_re[image * PANEL_WIDTH..][..w]
                                    .copy_from_slice(&cur_re[level * PANEL_WIDTH..][..w]);
                                next_im[image * PANEL_WIDTH..][..w]
                                    .copy_from_slice(&cur_im[level * PANEL_WIDTH..][..w]);
                            }
                            std::mem::swap(&mut cur_re, &mut next_re);
                            std::mem::swap(&mut cur_im, &mut next_im);
                        }
                        FusedAction::ShiftBySource {
                            source_stride,
                            negate,
                        } => {
                            let value = digit_at(outer + panel_start, *source_stride, d) as usize;
                            let shift = if *negate { (d - value) % d } else { value };
                            if shift == 0 {
                                continue;
                            }
                            for level in 0..d {
                                let image = (level + shift) % d;
                                next_re[image * PANEL_WIDTH..][..w]
                                    .copy_from_slice(&cur_re[level * PANEL_WIDTH..][..w]);
                                next_im[image * PANEL_WIDTH..][..w]
                                    .copy_from_slice(&cur_im[level * PANEL_WIDTH..][..w]);
                            }
                            std::mem::swap(&mut cur_re, &mut next_re);
                            std::mem::swap(&mut cur_im, &mut next_im);
                        }
                        FusedAction::Mix(matrix) => {
                            for row in 0..d {
                                let acc_re = &mut next_re[row * PANEL_WIDTH..][..w];
                                let acc_im = &mut next_im[row * PANEL_WIDTH..][..w];
                                acc_re.fill(0.0);
                                acc_im.fill(0.0);
                                for column in 0..d {
                                    let mr = matrix.re[row * d + column];
                                    let mi = matrix.im[row * d + column];
                                    let in_re = &cur_re[column * PANEL_WIDTH..][..w];
                                    let in_im = &cur_im[column * PANEL_WIDTH..][..w];
                                    // Per element, the identical expression
                                    // tree as the reference's column-order
                                    // `acc += m * amp`, vectorised over the
                                    // panel.
                                    for j in 0..w {
                                        acc_re[j] += mr * in_re[j] - mi * in_im[j];
                                        acc_im[j] += mr * in_im[j] + mi * in_re[j];
                                    }
                                }
                            }
                            std::mem::swap(&mut cur_re, &mut next_re);
                            std::mem::swap(&mut cur_im, &mut next_im);
                        }
                    }
                }
                for level in 0..d {
                    let row = &mut amplitudes[base + level * t_stride..][..w];
                    let plane_re = &cur_re[level * PANEL_WIDTH..][..w];
                    let plane_im = &cur_im[level * PANEL_WIDTH..][..w];
                    for j in 0..w {
                        row[j] = Complex {
                            re: plane_re[j],
                            im: plane_im[j],
                        };
                    }
                }
            }
        }
    }
}

impl StateVector {
    /// Applies a compiled [`FusedProgram`] in place.
    ///
    /// Produces amplitudes `==`-equal to applying the source circuit with
    /// [`StateVector::apply_circuit`] (see the module docs for the exact
    /// bit-level contract).
    ///
    /// # Errors
    ///
    /// Returns an error when the program was compiled for a different
    /// register shape.
    pub fn apply_fused(&mut self, program: &FusedProgram) -> Result<()> {
        if program.dimension != self.dimension() {
            return Err(QuditError::IncompatibleCircuits {
                reason: "program and state dimensions differ".to_string(),
            });
        }
        if program.width != self.width() {
            return Err(QuditError::IncompatibleCircuits {
                reason: "program compiled for a different register width".to_string(),
            });
        }
        let d = program.dimension.as_usize();
        let amplitudes = self.amplitudes_mut();
        for op in &program.ops {
            apply_op(op, amplitudes, d);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_core::math::SquareMatrix;
    use qudit_core::{Control, QuditId};

    fn dim(d: u32) -> Dimension {
        Dimension::new(d).unwrap()
    }

    fn fourier(d: u32) -> SquareMatrix {
        let omega = Complex::from_phase(2.0 * std::f64::consts::PI / f64::from(d));
        let s = 1.0 / f64::from(d).sqrt();
        let mut entries = Vec::new();
        for r in 0..d {
            for c in 0..d {
                let mut w = Complex::ONE;
                for _ in 0..(r * c) {
                    w *= omega;
                }
                entries.push(w.scale(s));
            }
        }
        SquareMatrix::from_rows(d as usize, entries).unwrap()
    }

    /// A mixed workload: controlled classicals, unitaries (with same-target
    /// runs that fuse), and an AddFrom.
    fn mixed_circuit(d: Dimension, width: usize) -> Circuit {
        let mut circuit = Circuit::new(d, width);
        let f = fourier(d.get());
        for q in 0..width {
            circuit
                .push(Gate::single(
                    SingleQuditOp::Unitary(f.clone()),
                    QuditId::new(q),
                ))
                .unwrap();
        }
        for q in 0..width - 1 {
            circuit
                .push(Gate::controlled(
                    SingleQuditOp::Add(1),
                    QuditId::new(q + 1),
                    vec![Control::level(QuditId::new(q), 1)],
                ))
                .unwrap();
        }
        circuit
            .push(Gate::add_from(
                QuditId::new(0),
                false,
                QuditId::new(width - 1),
                vec![],
            ))
            .unwrap();
        // A same-target unitary run that fuses into one traversal.
        circuit
            .push(Gate::single(
                SingleQuditOp::Unitary(f.clone()),
                QuditId::new(1),
            ))
            .unwrap();
        circuit
            .push(Gate::single(SingleQuditOp::Unitary(f), QuditId::new(1)))
            .unwrap();
        circuit
            .push(Gate::single(SingleQuditOp::Add(2), QuditId::new(1)))
            .unwrap();
        circuit
    }

    fn reference(circuit: &Circuit, width: usize) -> StateVector {
        let mut state = StateVector::new(circuit.dimension(), width);
        state.apply_circuit(circuit).unwrap();
        state
    }

    /// `==`-equality with zero-sign normalisation: the documented contract
    /// of fused vs gate-by-gate execution.
    fn assert_amplitudes_match(fused: &StateVector, reference: &StateVector) {
        assert_eq!(fused.amplitudes().len(), reference.amplitudes().len());
        for (index, (a, b)) in fused
            .amplitudes()
            .iter()
            .zip(reference.amplitudes())
            .enumerate()
        {
            assert_eq!(a, b, "amplitude {index} differs");
            assert_eq!(
                (a.re + 0.0).to_bits(),
                (b.re + 0.0).to_bits(),
                "amplitude {index} re bits differ beyond zero sign"
            );
            assert_eq!(
                (a.im + 0.0).to_bits(),
                (b.im + 0.0).to_bits(),
                "amplitude {index} im bits differ beyond zero sign"
            );
        }
    }

    #[test]
    fn fused_matches_reference_on_scalar_sized_registers() {
        let d = dim(3);
        for width in 2..=4 {
            let circuit = mixed_circuit(d, width);
            let program = FusedProgram::compile(&circuit, width).unwrap();
            assert!(program.fused_gates() > 0);
            let mut fused = StateVector::new(d, width);
            fused.apply_fused(&program).unwrap();
            assert_amplitudes_match(&fused, &reference(&circuit, width));
        }
    }

    #[test]
    fn fused_matches_reference_on_panel_sized_registers() {
        let d = dim(3);
        // Width 8 → strides up to 3^7: both panel and scalar ops occur.
        let width = 8;
        let circuit = mixed_circuit(d, width);
        let program = FusedProgram::compile(&circuit, width).unwrap();
        let mut fused = StateVector::new(d, width);
        fused.apply_fused(&program).unwrap();
        assert_amplitudes_match(&fused, &reference(&circuit, width));
    }

    #[test]
    fn repeated_runs_are_byte_identical_and_match_the_reference() {
        // At width 10 (3^10 = 59049 amplitudes) repeated runs are
        // byte-identical and match the reference walk.
        let d = dim(3);
        let width = 10;
        let circuit = mixed_circuit(d, width);
        let program = FusedProgram::compile(&circuit, width).unwrap();
        let mut first = StateVector::new(d, width);
        first.apply_fused(&program).unwrap();
        let mut second = StateVector::new(d, width);
        second.apply_fused(&program).unwrap();
        for (a, b) in first.amplitudes().iter().zip(second.amplitudes()) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        assert_eq!(first.amplitudes(), reference(&circuit, width).amplitudes());
    }

    #[test]
    fn inner_and_outer_controls_fire_identically() {
        let d = dim(3);
        let width = 6;
        let f = fourier(3);
        let mut circuit = Circuit::new(d, width);
        // Superpose everything first so every control pattern is exercised.
        for q in 0..width {
            circuit
                .push(Gate::single(
                    SingleQuditOp::Unitary(f.clone()),
                    QuditId::new(q),
                ))
                .unwrap();
        }
        // Outer control (q0 ahead of target q5) and inner control (q5
        // behind target q1), various predicates.
        circuit
            .push(Gate::controlled(
                SingleQuditOp::Unitary(f.clone()),
                QuditId::new(5),
                vec![Control::level(QuditId::new(0), 2)],
            ))
            .unwrap();
        circuit
            .push(Gate::controlled(
                SingleQuditOp::Unitary(f),
                QuditId::new(1),
                vec![
                    Control::odd(QuditId::new(5)),
                    Control::nonzero(QuditId::new(0)),
                ],
            ))
            .unwrap();
        let program = FusedProgram::compile(&circuit, width).unwrap();
        let mut fused = StateVector::new(d, width);
        fused.apply_fused(&program).unwrap();
        assert_amplitudes_match(&fused, &reference(&circuit, width));
    }

    #[test]
    fn simulate_basis_matches_reference_on_all_basis_inputs() {
        // A classical prefix (walked on the digits), then a unitary and a
        // classical tail (the fused suffix).
        let d = dim(3);
        let mut circuit = Circuit::new(d, 3);
        circuit
            .push(Gate::controlled(
                SingleQuditOp::Add(1),
                QuditId::new(1),
                vec![Control::odd(QuditId::new(0))],
            ))
            .unwrap();
        circuit
            .push(Gate::single(
                SingleQuditOp::Unitary(fourier(3)),
                QuditId::new(2),
            ))
            .unwrap();
        circuit
            .push(Gate::single(SingleQuditOp::Add(2), QuditId::new(0)))
            .unwrap();
        let unitary = circuit_unitary(&circuit).unwrap();
        for (column, input) in crate::basis::all_basis_states(d, 3).enumerate() {
            let mut reference = StateVector::from_basis(d, &input).unwrap();
            reference.apply_circuit(&circuit).unwrap();
            assert_eq!(
                simulate_basis(&circuit, &input).unwrap(),
                reference,
                "input {input:?}"
            );
            for (row, amp) in reference.amplitudes().iter().enumerate() {
                assert_eq!(unitary[(row, column)], *amp, "column {column}");
            }
        }
    }

    #[test]
    fn program_rejects_mismatched_registers() {
        let d = dim(3);
        let circuit = mixed_circuit(d, 3);
        let program = FusedProgram::compile(&circuit, 3).unwrap();
        let mut wrong_width = StateVector::new(d, 4);
        assert!(wrong_width.apply_fused(&program).is_err());
        let mut wrong_dim = StateVector::new(dim(4), 3);
        assert!(wrong_dim.apply_fused(&program).is_err());
    }
}
