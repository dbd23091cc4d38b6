//! End-to-end and per-layer benchmark of the qudit compiler.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload serve_gadgets --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics, `--trace 1` the per-layer
//! split (a separate run, so tracing never perturbs the end-to-end figures).
//! The last line of standard output is the JSON result; the lines before it
//! restate the run (seed, sample counts, tail percentile) for a human.
//! See `README.md` next to this file for the workloads and metrics.

mod check;
mod drive;
mod jobs;
mod layers;
mod report;

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use qudit_core::cache::LoweringCache;
use qudit_core::pipeline::CacheMode;
use qudit_core::pool::WorkStealingPool;
use qudit_core::qasm::parse_source;
use qudit_core::route::SWAP_LADDER_GATES;
use qudit_synthesis::service::ServiceStats;
use qudit_synthesis::{Compiler, Threads};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use drive::{Outcome, Output, Served, Window};
use jobs::{Job, Workload, CONNECTIONS, SERVICE_WORKERS, SWEEP_SITES};
use report::{metric, ms, Metric};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut values: HashMap<String, String> = HashMap::new();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        values.insert(key.to_string(), value);
    }
    let get = |key: &str| {
        values
            .get(key)
            .ok_or_else(|| format!("--{key} is required"))
    };
    let workload = get("workload")?;
    let args = Args {
        workload: Workload::parse(workload).ok_or_else(|| {
            let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!(
                "unknown workload {workload:?} (known: {})",
                known.join(", ")
            )
        })?,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: get("trace")? == "1",
        // Self-test only: break one distinct output before checking it.
        corrupt: values.get("corrupt").is_some_and(|v| v == "1"),
    };
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("e2ebench: {error}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# workload={} seed={} seconds={} trace={} threads={threads}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut rng = StdRng::seed_from_u64(args.seed);
    let jobs = args.workload.jobs(&mut rng);
    let result = if args.workload.is_served() {
        run_served(&args, &jobs, &mut rng)
    } else {
        run_sweep(&args, &jobs, threads, &mut rng)
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("e2ebench: {error}");
            ExitCode::FAILURE
        }
    }
}

/// The timed part of a run: the end-to-end window, or with tracing half a
/// window plus the layer walk.
fn window_deadline(args: &Args, start: Instant) -> Instant {
    let share = if args.trace { 0.5 } else { 1.0 };
    start + Duration::from_secs_f64(args.seconds * share)
}

fn run_served(args: &Args, jobs: &[Job], rng: &mut StdRng) -> Result<String, String> {
    let options = args.workload.options(SERVICE_WORKERS);
    let seeds: Vec<u64> = (0..CONNECTIONS).map(|_| rng.next_u64()).collect();
    let mut setups = Vec::new();
    let mut served = None;
    for _ in 0..SETUPS {
        if let Some(previous) = served.take() {
            Served::shutdown(previous);
        }
        let start = Instant::now();
        let mut booted = Served::boot(options.clone(), &seeds).map_err(|e| e.to_string())?;
        booted.run(jobs, None);
        setups.push(start.elapsed().as_secs_f64());
        served = Some(booted);
    }
    let mut served = served.expect("at least one set-up");
    let before = served.stats();
    report::reset_peak_rss();
    let start = Instant::now();
    let window = served.run(jobs, Some(window_deadline(args, start)));
    let peak_rss = report::peak_rss_mb();
    let after = served.stats();
    let checked = check_window(&window, jobs, None, args.corrupt, rng);
    let metrics = if args.trace {
        let cache = LoweringCache::shared();
        let walk_options = options
            .cache(CacheMode::Shared(cache))
            .pool(WorkStealingPool::persistent(SERVICE_WORKERS));
        let walk = layers::walk(
            &walk_options,
            jobs,
            true,
            start + Duration::from_secs_f64(args.seconds),
        );
        layer_metrics(&window, &walk, Some((&before, &after)), None, checked.bytes)
    } else {
        end_to_end(&window, &checked, &setups, peak_rss)
    };
    served.shutdown();
    Ok(finish(args, &window, &checked, &metrics))
}

fn run_sweep(
    args: &Args,
    jobs: &[Job],
    threads: usize,
    rng: &mut StdRng,
) -> Result<String, String> {
    let options = args.workload.options(threads);
    let mut setups = Vec::new();
    let mut compiler: Option<Compiler> = None;
    for _ in 0..SETUPS {
        drop(compiler.take());
        let start = Instant::now();
        let built = options.clone().compiler();
        drive::run_batches(&built, jobs, rng, None, &mut 0);
        setups.push(start.elapsed().as_secs_f64());
        compiler = Some(built);
    }
    let compiler = compiler.expect("at least one set-up");
    report::reset_peak_rss();
    let start = Instant::now();
    let mut compile_ns = 0u128;
    let window = drive::run_batches(
        &compiler,
        jobs,
        rng,
        Some(window_deadline(args, start)),
        &mut compile_ns,
    );
    let peak_rss = report::peak_rss_mb();
    let checked = check_window(&window, jobs, Some(SWEEP_SITES), args.corrupt, rng);
    let metrics = if args.trace {
        // One job at a time on a single thread, as each job runs inside a
        // batch worker (nested pools stay sequential there).
        let walk_options = options.threads(Threads::Fixed(1));
        let walk = layers::walk(
            &walk_options,
            jobs,
            false,
            start + Duration::from_secs_f64(args.seconds),
        );
        let efficiency = report::ratio(
            compile_ns as f64 * 1e-9,
            window.latencies.iter().sum::<Duration>().as_secs_f64() * threads as f64,
        );
        layer_metrics(&window, &walk, None, Some(efficiency), 0)
    } else {
        end_to_end(&window, &checked, &setups, peak_rss)
    };
    Ok(finish(args, &window, &checked, &metrics))
}

/// The outcome of checking a window's outputs.
struct Checked {
    failed: usize,
    /// G-gate count of each distinct output, by its key.
    g_gates: HashMap<u64, usize>,
    /// Total bytes of the distinct reply texts (text workloads).
    bytes: usize,
    first_error: Option<String>,
}

/// Parses and checks every distinct output of a window, then counts every
/// sample whose job errored, whose output failed its check, or whose gate
/// count or depth differs from the first output of the same job.
fn check_window(
    window: &Window,
    jobs: &[Job],
    sites: Option<usize>,
    corrupt: bool,
    rng: &mut StdRng,
) -> Checked {
    let mut keys: Vec<&u64> = window.outputs.keys().collect();
    keys.sort_by_key(|key| (window.outputs[key].0, **key));
    let mut bad: HashMap<u64, String> = HashMap::new();
    let mut g_gates = HashMap::new();
    let mut bytes = 0;
    for (i, key) in keys.into_iter().enumerate() {
        let (job, output) = &window.outputs[key];
        let circuit = match output {
            Output::Text(text) => {
                bytes += text.len();
                match parse_source(text) {
                    Ok(circuit) => circuit,
                    Err(error) => {
                        bad.insert(*key, format!("reply does not parse: {error}"));
                        continue;
                    }
                }
            }
            Output::Circuit(circuit) => circuit.clone(),
        };
        let circuit = if corrupt && i == 0 {
            check::corrupt(&circuit)
        } else {
            circuit
        };
        g_gates.insert(*key, circuit.g_gate_count());
        if let Err(error) = check::check_output(&jobs[*job], &circuit, sites, rng) {
            bad.insert(*key, format!("{}: {error}", jobs[*job].label));
        }
    }
    let mut first: HashMap<usize, (usize, usize)> = HashMap::new();
    let mut failed = 0;
    let mut first_error = None;
    for sample in &window.samples {
        let error = match &sample.outcome {
            Outcome::Failed(error) => Some(error.clone()),
            Outcome::Ok { gates, depth, text } => {
                let reference = *first.entry(sample.job).or_insert((*gates, *depth));
                if let Some(error) = bad.get(text) {
                    Some(error.clone())
                } else if reference != (*gates, *depth) {
                    Some(format!(
                        "{}: gates/depth {gates}/{depth} differ from {reference:?}",
                        jobs[sample.job].label
                    ))
                } else {
                    None
                }
            }
        };
        if let Some(error) = error {
            failed += 1;
            first_error.get_or_insert(error);
        }
    }
    Checked {
        failed,
        g_gates,
        bytes,
        first_error,
    }
}

fn end_to_end(window: &Window, checked: &Checked, setups: &[f64], peak_rss: f64) -> Vec<Metric> {
    // The window's tail and throughput follow the host's speed from minute
    // to minute more than its median does, so they are restated here for a
    // reader and bounded nowhere (they are per-layer metrics of `--trace 1`).
    for m in window_metrics(window) {
        println!(
            "# {} = {} {} (not a result metric)",
            m.name, m.value, m.unit
        );
    }
    let (mut gates, mut depth, mut ok) = (0usize, 0usize, 0usize);
    for sample in &window.samples {
        if let Outcome::Ok { text, depth: d, .. } = &sample.outcome {
            gates += checked.g_gates.get(text).copied().unwrap_or(0);
            depth += d;
            ok += 1;
        }
    }
    vec![
        metric(
            "latency_p50_ms",
            report::percentile(&sorted_latencies(window), 50.0),
            "ms",
        ),
        metric(
            "g_gates_mean",
            report::ratio(gates as f64, ok as f64),
            "count",
        ),
        metric(
            "depth_mean",
            report::ratio(depth as f64, ok as f64),
            "count",
        ),
        metric("setup_s", report::median(setups), "s"),
        metric("peak_rss_mb", peak_rss, "MB"),
    ]
}

/// The window's request latencies in ms, ascending: socket roundtrips, or
/// whole `compile_batch` calls.
fn sorted_latencies(window: &Window) -> Vec<f64> {
    let mut latencies: Vec<f64> = window.latencies.iter().map(|&l| ms(l)).collect();
    latencies.sort_by(f64::total_cmp);
    latencies
}

/// The window's tail latency and its completed jobs per wall second.
fn window_metrics(window: &Window) -> Vec<Metric> {
    let latencies = sorted_latencies(window);
    let tail = report::tail_percentile(latencies.len());
    println!(
        "# window.latency_tail_ms is p{tail} of {} latency samples",
        latencies.len()
    );
    let ok = window
        .samples
        .iter()
        .filter(|s| matches!(s.outcome, Outcome::Ok { .. }))
        .count();
    vec![
        metric(
            "window.latency_tail_ms",
            report::percentile(&latencies, tail),
            "ms",
        ),
        metric(
            "window.throughput_jobs_s",
            report::ratio(ok as f64, window.wall.as_secs_f64()),
            "1/s",
        ),
    ]
}

/// The per-layer metrics.  Stage times and counts are means per job over
/// the walk; every metric is reported on every workload, as 0 where its
/// layer is not on the workload's path.
fn layer_metrics(
    window: &Window,
    walk: &layers::Walk,
    service: Option<(&ServiceStats, &ServiceStats)>,
    pool_efficiency: Option<f64>,
    reply_bytes: usize,
) -> Vec<Metric> {
    let jobs = walk.jobs.max(1) as f64;
    let per_job = |d: Duration| ms(d) / jobs;
    let stage = |name: &str| walk.stages.get(name);
    let stage_ms = |name: &str| stage(name).map_or(0.0, |s| per_job(s.time));
    let mut facade: Vec<f64> = walk.facade.iter().map(|&d| ms(d)).collect();
    facade.sort_by(f64::total_cmp);
    let facade_mean = facade.iter().sum::<f64>() / jobs;
    let verifying = walk.stages.values().any(|s| !s.wrapped_time.is_zero());
    let stage_sum: f64 = walk
        .stages
        .values()
        .map(|s| per_job(if verifying { s.wrapped_time } else { s.time }))
        .sum();
    let verify_ms: f64 = walk
        .stages
        .values()
        .map(|s| per_job(s.wrapped_time.saturating_sub(s.time)))
        .sum();
    let mut metrics = window_metrics(window);

    let latencies = sorted_latencies(window);
    let (overhead, rejected, protocol, compile_errors) = match service {
        Some((before, after)) => (
            report::percentile(&latencies, 50.0) - report::percentile(&facade, 50.0),
            after.rejected - before.rejected,
            after.protocol_errors - before.protocol_errors,
            after.compile_errors - before.compile_errors,
        ),
        None => (0.0, 0, 0, 0),
    };
    metrics.push(metric("service.overhead_ms", overhead, "ms"));
    metrics.push(metric("service.rejected", rejected as f64, "count"));
    metrics.push(metric("service.protocol_errors", protocol as f64, "count"));
    metrics.push(metric(
        "service.compile_errors",
        compile_errors as f64,
        "count",
    ));

    let distinct = window.outputs.len().max(1) as f64;
    metrics.push(metric("qasm.parse_ms", per_job(walk.parse), "ms"));
    metrics.push(metric(
        "qasm.parse_mb_s",
        report::ratio(walk.parse_bytes as f64 * 1e-6, walk.parse.as_secs_f64()),
        "MB/s",
    ));
    metrics.push(metric("qasm.print_ms", per_job(walk.print), "ms"));
    metrics.push(metric(
        "qasm.print_mb_s",
        report::ratio(walk.print_bytes as f64 * 1e-6, walk.print.as_secs_f64()),
        "MB/s",
    ));
    metrics.push(metric(
        "qasm.reply_bytes",
        reply_bytes as f64 / distinct,
        "bytes",
    ));

    let fusion = stage("gate-fusion");
    metrics.push(metric("gate-fusion.ms", stage_ms("gate-fusion"), "ms"));
    metrics.push(metric(
        "gate-fusion.fused_gates",
        fusion.map_or(0.0, |s| (s.gates_in - s.gates_out) as f64 / jobs),
        "count",
    ));
    for name in ["lower-to-elementary", "lower-to-g-gates"] {
        metrics.push(metric(format!("{name}.ms"), stage_ms(name), "ms"));
        metrics.push(metric(
            format!("{name}.gates_out"),
            stage(name).map_or(0.0, |s| s.gates_out as f64 / jobs),
            "count",
        ));
    }

    let (hits, misses, evictions) = match service {
        Some((before, after)) => (
            after.cache.hits - before.cache.hits,
            after.cache.misses - before.cache.misses,
            after.cache.evictions - before.cache.evictions,
        ),
        None => (window.cache_hits, window.cache_misses, 0),
    };
    metrics.push(metric(
        "cache.hit_frac",
        report::ratio(hits as f64, (hits + misses) as f64),
        "frac",
    ));
    metrics.push(metric("cache.misses", misses as f64, "count"));
    metrics.push(metric("cache.evictions", evictions as f64, "count"));

    let ns_per_gate =
        |s: &layers::StageTotals| report::ratio(s.time.as_nanos() as f64, s.gates_in as f64);
    let cancel = stage("cancel-inverse-pairs");
    metrics.push(metric(
        "cancel-inverse-pairs.ms",
        stage_ms("cancel-inverse-pairs"),
        "ms",
    ));
    metrics.push(metric(
        "cancel-inverse-pairs.ns_per_gate",
        cancel.map_or(0.0, ns_per_gate),
        "ns/gate",
    ));
    metrics.push(metric(
        "cancel-inverse-pairs.removed_frac",
        cancel.map_or(0.0, |s| {
            report::ratio((s.gates_in - s.gates_out) as f64, s.gates_in as f64)
        }),
        "frac",
    ));
    let schedule = stage("schedule-depth");
    metrics.push(metric(
        "schedule-depth.ms",
        stage_ms("schedule-depth"),
        "ms",
    ));
    metrics.push(metric(
        "schedule-depth.ns_per_gate",
        schedule.map_or(0.0, ns_per_gate),
        "ns/gate",
    ));
    metrics.push(metric(
        "schedule-depth.depth_saved_frac",
        schedule.map_or(0.0, |s| {
            report::ratio((s.depth_in - s.depth_out) as f64, s.depth_in as f64)
        }),
        "frac",
    ));
    let route = stage("route");
    metrics.push(metric("route.ms", stage_ms("route"), "ms"));
    metrics.push(metric(
        "route.swaps",
        route.map_or(0.0, |s| {
            (s.gates_out - s.gates_in) as f64 / SWAP_LADDER_GATES as f64 / jobs
        }),
        "count",
    ));
    metrics.push(metric(
        "route.gate_overhead_frac",
        route.map_or(0.0, |s| {
            report::ratio((s.gates_out - s.gates_in) as f64, s.gates_in as f64)
        }),
        "frac",
    ));

    metrics.push(metric("verify.ms", verify_ms, "ms"));
    let efficiency = pool_efficiency.unwrap_or_else(|| {
        // The service's workers: in-process compile time of the jobs the
        // window completed over the window's worker time.
        report::ratio(
            window.samples.len() as f64 * facade_mean * 1e-3,
            window.wall.as_secs_f64() * SERVICE_WORKERS as f64,
        )
    });
    metrics.push(metric("pool.efficiency", efficiency, "frac"));
    metrics.push(metric("pipeline.profile_ms", per_job(walk.profile), "ms"));
    metrics.push(metric("facade.compile_ms", facade_mean, "ms"));
    metrics.push(metric(
        "facade.unattributed_ms",
        facade_mean - per_job(walk.parse) - stage_sum,
        "ms",
    ));
    if walk.mismatches > 0 {
        println!(
            "# warning: {} walked jobs differ from the facade's output",
            walk.mismatches
        );
    }
    metrics
}

fn finish(args: &Args, window: &Window, checked: &Checked, metrics: &[Metric]) -> String {
    let attempted = window.samples.len();
    println!(
        "# seed={} attempted={attempted} failed={} failed_frac={}",
        args.seed,
        checked.failed,
        report::ratio(checked.failed as f64, attempted as f64)
    );
    if let Some(error) = &checked.first_error {
        println!("# first failure: {error}");
    }
    for m in metrics {
        println!("# {} = {} {}", m.name, m.value, m.unit);
    }
    report::result_line(checked.failed == 0, attempted, checked.failed, metrics)
}
