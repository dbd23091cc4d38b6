//! Exact heap-allocation counts of the reply path on the 11 O2 `serve_mct`
//! shapes (the k-Toffolis for d ∈ {3, 4} × k ∈ {4, …, 8} and d = 5, k = 4,
//! compiled from their printed macro circuits as the compile service does),
//! of the verified, routed compile on the 7 `sweep_verified` shapes, and of
//! one hostile source.
//!
//! A counting global allocator makes these counts deterministic, so the
//! bounds gate a regression exactly on a noisy host:
//!
//! * parsing a job's source makes at most 0.5 allocations per parsed gate
//!   (tokens borrow from the source, and each gate goes straight into the
//!   circuit);
//! * the compile of a parsed job makes at most 0.1 allocations per output
//!   gate (a controlled G-gate keeps its one control inline);
//! * printing a compiled circuit makes at most 2 allocations (the
//!   per-circuit operand text and one reserved output buffer, which never
//!   regrows on these circuits);
//! * a `Gate` stays 64 bytes;
//! * the verified O1 compile routed on a chain of six sites (every stage
//!   checked by `VerifyEquivalence`) makes at most 0.3 allocator calls and
//!   requests at most 400 bytes per output gate: each stage's output is
//!   sized once, and the verifier copies no stage's input;
//! * the verified compile of `fourier q[0];` on 4,096 qutrits is refused
//!   before the first stage and requests at most 1 MB: no stage, and no
//!   verifier, sizes anything by the register.
//!
//! Every allocator call counts: `alloc`, `alloc_zeroed` and `realloc`; the
//! bytes requested are the sizes those calls ask for.  The
//! counter is global, so this binary holds a single test: a second one
//! running beside it would add its own allocations.  Run with
//! `--nocapture` to see the per-shape table and the parse of one
//! `serve_gadgets` source.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use qudit_core::qasm::{parse_source, print_circuit};
use qudit_core::topology::CouplingGraph;
use qudit_core::{Dimension, Gate, QuditError};
use qudit_synthesis::{CompileOptions, KToffoli, OptLevel, Verify};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain atomic that
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` pass straight on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The `serve_mct` family: d ∈ {3, 4, 5}, k ∈ {4, …, 8}, d = 5 capped at
/// k = 4.
const MCT_FAMILY: [(u32, usize); 11] = [
    (3, 4),
    (3, 5),
    (3, 6),
    (3, 7),
    (3, 8),
    (4, 4),
    (4, 5),
    (4, 6),
    (4, 7),
    (4, 8),
    (5, 4),
];

/// The `sweep_verified` family, routed on a chain of [`SWEEP_SITES`].
const SWEEP_FAMILY: [(u32, usize); 7] = [(3, 3), (3, 4), (3, 5), (4, 3), (4, 4), (5, 3), (5, 4)];
const SWEEP_SITES: usize = 6;

/// Runs `f` and returns its result with the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (value, calls, _) = weighed(f);
    (value, calls)
}

/// Runs `f` and returns its result with the allocator calls it made and the
/// bytes they requested.
fn weighed<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (calls, bytes) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let value = f();
    (
        value,
        ALLOCATIONS.load(Ordering::Relaxed) - calls,
        BYTES.load(Ordering::Relaxed) - bytes,
    )
}

#[test]
fn reply_path_allocations_stay_bounded() {
    assert_eq!(std::mem::size_of::<Gate>(), 64);
    let compiler = CompileOptions::new().opt_level(OptLevel::O2).compiler();
    let (mut total_gates, mut total_compile, mut total_print) = (0u64, 0u64, 0u64);
    let (mut total_parsed, mut total_parse) = (0u64, 0u64);
    println!("d k parsed_gates parse_allocs gates compile_allocs per_gate print_allocs");
    for (d, k) in MCT_FAMILY {
        let dimension = Dimension::new(d).unwrap();
        let synthesis = KToffoli::new(dimension, k).unwrap().synthesize().unwrap();
        let source = print_circuit(synthesis.circuit());
        // The compile of a parsed job is the compile of the source less
        // its parse; the parse is deterministic, so the difference is exact.
        let (parsed, parse) = counted(|| parse_source(&source).unwrap());
        let parsed_gates = parsed.len() as u64;
        drop(parsed);
        let (result, compile_and_parse) = counted(|| compiler.compile_source(&source).unwrap());
        let compile = compile_and_parse - parse;
        let (printed, print) = counted(|| print_circuit(&result.circuit));
        let gates = result.circuit.len() as u64;
        println!(
            "{d} {k} {parsed_gates} {parse} {gates} {compile} {:.3} {print}",
            compile as f64 / gates as f64
        );
        assert!(print <= 2, "d={d} k={k}: printing made {print} allocations");
        assert!(!printed.is_empty());
        total_gates += gates;
        total_compile += compile;
        total_print += print;
        total_parsed += parsed_gates;
        total_parse += parse;
    }
    let per_gate = total_compile as f64 / total_gates as f64;
    let per_parsed = total_parse as f64 / total_parsed as f64;
    println!(
        "total {total_parsed} {total_parse} {total_gates} {total_compile} {per_gate:.3} {total_print}"
    );
    let gadget =
        "OPENQASM 3.0;\nqudit[5] q[4];\nctrl(1) @ ctrl(0) @ swap(0, 2) q[3], q[0], q[1];\n";
    let (_, gadget_parse) = counted(|| parse_source(gadget).unwrap());
    println!("serve_gadgets source: {gadget_parse} parse allocations");
    assert!(
        per_parsed <= 0.5,
        "parses made {total_parse} allocations for {total_parsed} parsed gates ({per_parsed:.3} per gate)"
    );
    assert!(
        per_gate <= 0.1,
        "compiles made {total_compile} allocations for {total_gates} output gates ({per_gate:.3} per gate)"
    );

    // The verified, routed compile of `sweep_verified`, job by job.
    let compiler = CompileOptions::new()
        .opt_level(OptLevel::O1)
        .verify(Verify::Exhaustive)
        .topology(CouplingGraph::linear(SWEEP_SITES).unwrap())
        .compiler();
    let (mut total_gates, mut total_calls, mut total_bytes) = (0u64, 0u64, 0u64);
    println!("d k gates verified_calls verified_bytes calls_per_gate bytes_per_gate");
    for (d, k) in SWEEP_FAMILY {
        let dimension = Dimension::new(d).unwrap();
        let synthesis = KToffoli::new(dimension, k).unwrap().synthesize().unwrap();
        let (result, calls, bytes) = weighed(|| compiler.compile(synthesis.circuit()).unwrap());
        assert!(result.verification.is_verified(), "d={d} k={k}");
        let gates = result.circuit.len() as u64;
        println!(
            "{d} {k} {gates} {calls} {bytes} {:.3} {:.0}",
            calls as f64 / gates as f64,
            bytes as f64 / gates as f64
        );
        total_gates += gates;
        total_calls += calls;
        total_bytes += bytes;
    }
    let calls_per_gate = total_calls as f64 / total_gates as f64;
    let bytes_per_gate = total_bytes as f64 / total_gates as f64;
    println!(
        "total {total_gates} {total_calls} {total_bytes} {calls_per_gate:.3} {bytes_per_gate:.0}"
    );
    assert!(
        calls_per_gate <= 0.3,
        "verified compiles made {total_calls} allocator calls for {total_gates} output gates ({calls_per_gate:.3} per gate)"
    );
    assert!(
        bytes_per_gate <= 400.0,
        "verified compiles requested {total_bytes} bytes for {total_gates} output gates ({bytes_per_gate:.0} per gate)"
    );

    // One hostile line: a non-classical gate on a wide register.
    let compiler = CompileOptions::new().verify(Verify::Exhaustive).compiler();
    let hostile = "OPENQASM 3.0;\nqudit[3] q[4096];\nfourier q[0];\n";
    let (refused, calls, bytes) = weighed(|| compiler.compile_source(hostile));
    println!("hostile fourier source: {calls} allocator calls, {bytes} bytes");
    assert!(
        bytes <= 1 << 20,
        "the hostile source requested {bytes} bytes before its refusal"
    );
    assert!(
        matches!(refused, Err(QuditError::UnsupportedLowering { .. })),
        "{refused:?}"
    );
}
