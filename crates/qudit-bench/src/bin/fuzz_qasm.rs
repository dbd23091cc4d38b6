//! Deterministic fuzz smoke for the text-IR front end.
//!
//! No external fuzzing engine (the build is offline): this is a seeded
//! byte-mangler and grammar mutator over a pool of seed programs — printed
//! random dialect circuits plus the checked-in `corpus/valid` files — that
//! hammers `parse_source` with mutated sources and fails loudly on the two
//! things a parser must never do:
//!
//! 1. panic (every lexical/syntactic/semantic defect must surface as a
//!    typed [`ParseError`](qudit_core::qasm::ParseError));
//! 2. accept a program whose `print → parse` round trip diverges.
//!
//! Usage:
//!
//! ```text
//! fuzz_qasm [--iterations N] [--seed S]
//! ```
//!
//! Defaults: 50 000 iterations, seed `0xDAC23`.  The run is a pure
//! function of `(iterations, seed)`, so CI failures replay locally with the
//! printed reproducer arguments.
//!
//! The last line also prints a 64-bit FNV-1a digest of every outcome, in
//! order: the printed circuit of an accepted source, or the `Display` text
//! of a rejected source's error.  Two front ends that agree on the digest
//! accept the same sources into the same circuits and reject the rest with
//! the same diagnostics.

use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;

use qudit_core::qasm::{parse_source, print_circuit};
use qudit_core::Dimension;
use qudit_sim::random::random_dialect_circuit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DEFAULT_ITERATIONS: u64 = 50_000;
const DEFAULT_SEED: u64 = 0xDAC23;

/// Number-ish tokens spliced over numeric literals to probe overflow and
/// precision edges in the lexer/lowering.
const EXTREME_NUMBERS: &[&str] = &[
    "0",
    "-0",
    "1e309",
    "-1e309",
    "1e-400",
    "4294967295",
    "4294967296",
    "18446744073709551616",
    "0.5",
    "1.7976931348623157e308",
    "NaN",
    "99999999999999999999999999999999",
];

fn seed_pool(rng: &mut StdRng) -> Vec<String> {
    let mut pool = Vec::new();
    // Printed random circuits over the full repertoire and several widths.
    for (d, width, gates) in [(2u32, 3usize, 8usize), (3, 2, 6), (4, 4, 10), (5, 3, 12)] {
        let dimension = Dimension::new(d).unwrap();
        let circuit = random_dialect_circuit(dimension, width, gates, rng);
        pool.push(print_circuit(&circuit));
    }
    // The checked-in conformance corpus, when run from inside the repo.
    let corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus/valid");
    if let Ok(entries) = std::fs::read_dir(&corpus) {
        let mut paths: Vec<_> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "qasm"))
            .collect();
        paths.sort();
        for path in paths {
            if let Ok(text) = std::fs::read_to_string(&path) {
                pool.push(text);
            }
        }
    }
    pool
}

/// Applies one random mutation to `bytes`.
fn mutate(bytes: &mut Vec<u8>, pool: &[String], rng: &mut StdRng) {
    match rng.gen_range(0..8u32) {
        // Flip one byte to an arbitrary value.
        0 if !bytes.is_empty() => {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] = rng.gen_range(0..=255u32) as u8;
        }
        // Insert a random byte.
        1 => {
            let at = rng.gen_range(0..=bytes.len());
            bytes.insert(at, rng.gen_range(0..=255u32) as u8);
        }
        // Delete one byte.
        2 if !bytes.is_empty() => {
            let at = rng.gen_range(0..bytes.len());
            bytes.remove(at);
        }
        // Truncate.
        3 if !bytes.is_empty() => {
            let at = rng.gen_range(0..bytes.len());
            bytes.truncate(at);
        }
        // Duplicate a random slice in place.
        4 if !bytes.is_empty() => {
            let start = rng.gen_range(0..bytes.len());
            let end = rng.gen_range(start..bytes.len().min(start + 64));
            let slice: Vec<u8> = bytes[start..=end.min(bytes.len() - 1)].to_vec();
            let at = rng.gen_range(0..=bytes.len());
            bytes.splice(at..at, slice);
        }
        // Splice in a slice from another seed program.
        5 => {
            let donor = pool[rng.gen_range(0..pool.len())].as_bytes();
            if !donor.is_empty() {
                let start = rng.gen_range(0..donor.len());
                let end = rng.gen_range(start..donor.len().min(start + 64));
                let at = rng.gen_range(0..=bytes.len());
                bytes.splice(
                    at..at,
                    donor[start..=end.min(donor.len() - 1)].iter().copied(),
                );
            }
        }
        // Overwrite a numeric literal with an extreme one.
        6 => {
            if let Some((start, len)) = find_number(bytes, rng) {
                let replacement = EXTREME_NUMBERS[rng.gen_range(0..EXTREME_NUMBERS.len())];
                bytes.splice(start..start + len, replacement.bytes());
            }
        }
        // Shuffle whole lines (order-sensitive grammar: register first).
        _ => {
            let text = String::from_utf8_lossy(bytes).into_owned();
            let mut lines: Vec<&str> = text.lines().collect();
            if lines.len() > 1 {
                for i in (1..lines.len()).rev() {
                    lines.swap(i, rng.gen_range(0..=i));
                }
                *bytes = lines.join("\n").into_bytes();
            }
        }
    }
}

/// Finds a random ASCII-digit run, returning `(start, len)`.
fn find_number(bytes: &[u8], rng: &mut StdRng) -> Option<(usize, usize)> {
    let starts: Vec<usize> = bytes
        .iter()
        .enumerate()
        .filter(|&(i, b)| b.is_ascii_digit() && (i == 0 || !bytes[i - 1].is_ascii_digit()))
        .map(|(i, _)| i)
        .collect();
    if starts.is_empty() {
        return None;
    }
    let start = starts[rng.gen_range(0..starts.len())];
    let len = bytes[start..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .count();
    Some((start, len))
}

/// The outcome of one accepted or rejected source.
enum Outcome {
    /// The source parsed; the printed circuit.
    Accepted(String),
    /// The source was rejected; the error's `Display` text.
    Rejected(String),
}

/// One fuzz probe: parse; on success, print and reparse and require
/// structural equality.  Returns an error description on any violation.
fn probe(source: &str) -> Result<Outcome, String> {
    match parse_source(source) {
        Err(error) => Ok(Outcome::Rejected(error.to_string())),
        Ok(circuit) => {
            let printed = print_circuit(&circuit);
            match parse_source(&printed) {
                Ok(reparsed) if reparsed == circuit => Ok(Outcome::Accepted(printed)),
                Ok(_) => Err("print → parse round trip diverged".to_string()),
                Err(e) => Err(format!("printed form failed to reparse: {e}")),
            }
        }
    }
}

/// Folds `bytes` and then a `0xFF` separator (never a UTF-8 byte) into a
/// 64-bit FNV-1a digest.
fn fold(digest: u64, bytes: &[u8]) -> u64 {
    bytes.iter().chain(&[0xFF]).fold(digest, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str, default: u64| -> u64 {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(|v| v.parse().unwrap_or_else(|_| panic!("bad {name}: {v}")))
            .unwrap_or(default)
    };
    let iterations = flag("--iterations", DEFAULT_ITERATIONS);
    let seed = flag("--seed", DEFAULT_SEED);

    let mut rng = StdRng::seed_from_u64(seed);
    let pool = seed_pool(&mut rng);
    assert!(!pool.is_empty(), "seed pool is empty");

    // Parser panics are bugs here, not crashes: silence the default hook so
    // 50k probes do not spam stderr, and report reproducers ourselves.
    panic::set_hook(Box::new(|_| {}));

    let mut accepted = 0u64;
    let mut rejected = 0u64;
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..iterations {
        let mut bytes = pool[rng.gen_range(0..pool.len())].clone().into_bytes();
        for _ in 0..rng.gen_range(1..=4u32) {
            mutate(&mut bytes, &pool, &mut rng);
        }
        let source = String::from_utf8_lossy(&bytes).into_owned();
        let verdict = panic::catch_unwind(AssertUnwindSafe(|| probe(&source)));
        match verdict {
            Ok(Ok(Outcome::Accepted(printed))) => {
                accepted += 1;
                digest = fold(digest, printed.as_bytes());
            }
            Ok(Ok(Outcome::Rejected(message))) => {
                rejected += 1;
                digest = fold(digest, message.as_bytes());
            }
            Ok(Err(violation)) => {
                let _ = panic::take_hook();
                eprintln!("fuzz_qasm: property violation at iteration {i}: {violation}");
                eprintln!(
                    "reproduce with: fuzz_qasm --iterations {} --seed {seed}",
                    i + 1
                );
                eprintln!("--- offending source ---\n{source}\n---");
                return ExitCode::FAILURE;
            }
            Err(_) => {
                let _ = panic::take_hook();
                eprintln!("fuzz_qasm: parser PANICKED at iteration {i}");
                eprintln!(
                    "reproduce with: fuzz_qasm --iterations {} --seed {seed}",
                    i + 1
                );
                eprintln!("--- offending source ---\n{source}\n---");
                return ExitCode::FAILURE;
            }
        }
    }
    let _ = panic::take_hook();
    println!(
        "fuzz_qasm: {iterations} mutated sources, 0 panics, {accepted} parsed, {rejected} rejected (seed {seed}), outcome digest {digest:016x}"
    );
    ExitCode::SUCCESS
}
