//! Closed-loop load: each client submits its next job only after the reply
//! to the previous one arrived.  Clients run whole cycles of the job set, so
//! the job mix of a window never depends on when the deadline fell.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use qudit_core::Circuit;
use qudit_synthesis::service::{
    CompileService, JobRequest, ServiceClient, ServiceConfig, ServiceStats,
};
use qudit_synthesis::{CompileOptions, Compiler};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::jobs::{shuffle, Job, SERVICE_WORKERS};

/// What came back for one submitted job.
pub enum Outcome {
    /// A compiled output; `text` keys the distinct output it produced.
    Ok {
        gates: usize,
        depth: usize,
        text: u64,
    },
    /// An error, reject or protocol failure.
    Failed(String),
}

pub struct Sample {
    pub job: usize,
    pub outcome: Outcome,
}

/// The samples of one timed window plus every distinct output seen in it,
/// keyed by a hash of its text (`job`, output).
pub struct Window {
    pub samples: Vec<Sample>,
    pub outputs: HashMap<u64, (usize, Output)>,
    /// One latency sample per request: a socket roundtrip, or one
    /// `compile_batch` call.
    pub latencies: Vec<Duration>,
    pub wall: Duration,
    /// Lowering-cache lookups of in-process batches (the service reports
    /// its own cache through `ServiceStats`).
    pub cache_hits: u64,
    pub cache_misses: u64,
}

/// A distinct output: reply text from the socket, or an in-process circuit.
pub enum Output {
    Text(String),
    Circuit(Circuit),
}

fn hash_of(value: &impl Hash) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// Hashes a circuit's gate list through its `Debug` form without
/// materialising the string.
fn hash_circuit(circuit: &Circuit) -> u64 {
    struct HashWriter(DefaultHasher);
    impl std::fmt::Write for HashWriter {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    let mut writer = HashWriter(DefaultHasher::new());
    std::fmt::Write::write_fmt(&mut writer, format_args!("{:?}", circuit.gates()))
        .expect("hashing never fails");
    writer.0.finish()
}

fn new_window() -> Window {
    Window {
        samples: Vec::new(),
        outputs: HashMap::new(),
        latencies: Vec::new(),
        wall: Duration::ZERO,
        cache_hits: 0,
        cache_misses: 0,
    }
}

/// One tenant: its own connection and its own seeded job orders.
pub struct Tenant {
    name: String,
    client: ServiceClient,
    rng: StdRng,
    sent: usize,
}

/// A booted service plus its connected tenants.
pub struct Served {
    service: CompileService,
    tenants: Vec<Tenant>,
}

impl Served {
    pub fn boot(options: CompileOptions, seeds: &[u64]) -> std::io::Result<Served> {
        let service = CompileService::start(
            ServiceConfig::new()
                .workers(SERVICE_WORKERS)
                .options(options),
        )?;
        let tenants = seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| {
                Ok(Tenant {
                    name: format!("tenant-{i}"),
                    client: ServiceClient::connect(service.local_addr())?,
                    rng: StdRng::seed_from_u64(seed),
                    sent: 0,
                })
            })
            .collect::<std::io::Result<_>>()?;
        Ok(Served { service, tenants })
    }

    pub fn stats(&self) -> ServiceStats {
        self.service.stats()
    }

    /// Runs whole cycles on every connection until `deadline`, each cycle
    /// in a fresh seeded order; without a deadline, one cycle in job-set
    /// order (the warm-up, identical on every set-up).
    pub fn run(&mut self, jobs: &[Job], deadline: Option<Instant>) -> Window {
        let start = Instant::now();
        let per_tenant: Vec<Window> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .tenants
                .iter_mut()
                .map(|tenant| scope.spawn(move || tenant.run(jobs, deadline)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut window = new_window();
        window.wall = start.elapsed();
        for part in per_tenant {
            window.samples.extend(part.samples);
            window.latencies.extend(part.latencies);
            for (key, value) in part.outputs {
                window.outputs.entry(key).or_insert(value);
            }
        }
        window
    }

    /// Closes every connection, then stops the service.
    pub fn shutdown(self) -> ServiceStats {
        drop(self.tenants);
        self.service.shutdown()
    }
}

impl Tenant {
    fn run(&mut self, jobs: &[Job], deadline: Option<Instant>) -> Window {
        let mut window = new_window();
        loop {
            let order = cycle_order(jobs.len(), deadline.map(|_| &mut self.rng));
            for job in order {
                let request = JobRequest {
                    tenant: self.name.clone(),
                    id: format!("{}-{}", self.name, self.sent),
                    source: jobs[job].source.clone(),
                };
                self.sent += 1;
                let sent = Instant::now();
                let reply = self.client.roundtrip(&request);
                let latency = sent.elapsed();
                window.latencies.push(latency);
                let outcome = match reply {
                    Ok(reply) if reply.is_ok() => {
                        let text = hash_of(&reply.qasm);
                        window
                            .outputs
                            .entry(text)
                            .or_insert_with(|| (job, Output::Text(reply.qasm)));
                        Outcome::Ok {
                            gates: reply.gates,
                            depth: reply.depth,
                            text,
                        }
                    }
                    Ok(reply) => Outcome::Failed(format!("{:?}: {}", reply.status, reply.message)),
                    Err(error) => Outcome::Failed(format!("transport: {error}")),
                };
                window.samples.push(Sample { job, outcome });
            }
            if deadline.is_none_or(|d| Instant::now() >= d) {
                return window;
            }
        }
    }
}

/// The jobs of one cycle: shuffled by `rng`, or in job-set order.
fn cycle_order(jobs: usize, rng: Option<&mut StdRng>) -> Vec<usize> {
    let mut order: Vec<usize> = (0..jobs).collect();
    if let Some(rng) = rng {
        shuffle(&mut order, rng);
    }
    order
}

/// Runs `compile_batch` over the whole job set until `deadline`, each batch
/// in a fresh order drawn from `rng`; without a deadline, one batch in
/// job-set order (the warm-up).  Every job of a batch counts as one sample;
/// the batch's wall time is one latency sample.
pub fn run_batches(
    compiler: &Compiler,
    jobs: &[Job],
    rng: &mut StdRng,
    deadline: Option<Instant>,
    compile_ns: &mut u128,
) -> Window {
    let mut window = new_window();
    let start = Instant::now();
    loop {
        let order = cycle_order(jobs.len(), deadline.map(|_| &mut *rng));
        let circuits: Vec<Circuit> = order.iter().map(|&j| jobs[j].input.clone()).collect();
        let sent = Instant::now();
        let batch = compiler.compile_batch(&circuits);
        let latency = sent.elapsed();
        window.latencies.push(latency);
        match batch {
            Ok(batch) => {
                let counters = batch.cache_counters();
                window.cache_hits += counters.hits;
                window.cache_misses += counters.misses;
                for (job, result) in order.into_iter().zip(batch.results) {
                    *compile_ns += result.total_elapsed().as_nanos();
                    let outcome = if result.verification.is_verified() {
                        let text = hash_circuit(&result.circuit);
                        let gates = result.circuit.g_gate_count();
                        let depth = result.depth;
                        window
                            .outputs
                            .entry(text)
                            .or_insert_with(|| (job, Output::Circuit(result.circuit)));
                        Outcome::Ok { gates, depth, text }
                    } else {
                        Outcome::Failed("result was not verified".to_string())
                    };
                    window.samples.push(Sample { job, outcome });
                }
            }
            Err(error) => {
                for job in order {
                    window.samples.push(Sample {
                        job,
                        outcome: Outcome::Failed(error.to_string()),
                    });
                }
            }
        }
        if deadline.is_none_or(|d| Instant::now() >= d) {
            window.wall = start.elapsed();
            return window;
        }
    }
}
