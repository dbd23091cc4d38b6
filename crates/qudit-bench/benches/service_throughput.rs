//! Criterion bench: the compile service under concurrent load.
//!
//! Boots a real `CompileService` on loopback, drives it with concurrent
//! tenant connections submitting the paper's 2-Toffoli gadget workload,
//! and reports end-to-end roundtrip latency percentiles:
//!
//! * `service_throughput/roundtrip_p50` — median submit→reply latency;
//! * `service_throughput/roundtrip_p99` — tail latency under load;
//! * `service_throughput/mean_job` — wall clock per job at full
//!   concurrency (total run time / jobs), the throughput figure.
//!
//! Every reply is asserted `ok` before anything is timed, so a service
//! regression fails the smoke run rather than producing fast nonsense
//! numbers.  The percentiles are computed by the bench itself (the shim's
//! `Bencher::iter` cannot time concurrent clients) and recorded via
//! `criterion::record`, flowing into the same JSON summary and regression
//! gate as every timed mean.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use qudit_synthesis::service::{CompileService, JobRequest, ServiceClient, ServiceConfig};

const CLIENTS: usize = 4;
const JOBS_PER_CLIENT: usize = 25;

/// The job mix: doubly-controlled swap gadgets over a few dimensions and
/// widths.  Odd dimensions only: the even-dimension construction
/// borrows an ancilla, which a width-3 register cannot spare.
fn source(job: usize) -> String {
    let dimension = [3u32, 5, 7][job % 3];
    let width = 3 + (job % 2);
    let levels = (job as u32 % 2, 1 + (job as u32 % (dimension - 1)));
    format!(
        "OPENQASM 3.0;\nqudit[{dimension}] q[{width}];\n\
         ctrl @ ctrl @ swap({}, {}) q[0], q[1], q[2];\n",
        levels.0.min(levels.1 - 1),
        levels.1,
    )
}

fn percentile(sorted_nanos: &[f64], p: f64) -> f64 {
    let rank = ((sorted_nanos.len() as f64 - 1.0) * p).round() as usize;
    sorted_nanos[rank]
}

fn bench_service(_c: &mut Criterion) {
    let service = CompileService::start(
        ServiceConfig::new()
            .workers(2)
            .max_queue_depth(JOBS_PER_CLIENT)
            .max_pending(CLIENTS * JOBS_PER_CLIENT),
    )
    .expect("service boots");
    let addr = service.local_addr();

    let started = Instant::now();
    let mut latencies: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = ServiceClient::connect(addr).expect("connect");
                    let mut latencies = Vec::with_capacity(JOBS_PER_CLIENT);
                    for j in 0..JOBS_PER_CLIENT {
                        let request = JobRequest {
                            tenant: format!("tenant-{c}"),
                            id: format!("{c}-{j}"),
                            source: source(c + j * CLIENTS),
                        };
                        let sent = Instant::now();
                        let reply = client.roundtrip(&request).expect("roundtrip");
                        assert!(reply.is_ok(), "job {c}-{j}: {}", reply.message);
                        latencies.push(sent.elapsed().as_nanos() as f64);
                    }
                    latencies
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("client thread"))
            .collect()
    });
    let elapsed = started.elapsed();

    let stats = service.shutdown();
    let jobs = (CLIENTS * JOBS_PER_CLIENT) as u64;
    assert_eq!(stats.completed, jobs, "every job must compile");
    assert_eq!(
        stats.rejected + stats.protocol_errors + stats.compile_errors,
        0
    );

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    criterion::record(
        "service_throughput/roundtrip_p50",
        percentile(&latencies, 0.50),
    );
    criterion::record(
        "service_throughput/roundtrip_p99",
        percentile(&latencies, 0.99),
    );
    criterion::record(
        "service_throughput/mean_job",
        elapsed.as_nanos() as f64 / jobs as f64,
    );
}

criterion_group!(benches, bench_service);
criterion_main!(benches);
