//! The compile service: a blocking TCP/newline-JSON front door over the
//! [`Compiler`] facade.
//!
//! The ROADMAP's north star is compilation-as-a-service: a long-running
//! server absorbing heavy concurrent traffic.  This module is the first cut
//! of that server, built from what is already in-tree — no async runtime
//! exists offline, so the front door is a hand-rolled blocking design:
//!
//! * **Transport** — one listener thread accepts TCP connections; each
//!   connection gets a reader thread.  Requests and replies are one JSON
//!   object per line (see [Protocol](#protocol)).
//! * **Scheduling** — jobs enter per-tenant FIFO queues.  At most one job
//!   per tenant is in flight at a time, so a tenant's replies always come
//!   back in submission order.  Workers serve tenants round-robin: a tenant
//!   with queued work waits in a FIFO ring, and after each job it rejoins
//!   the back of the ring, so no tenant can monopolise the workers.
//! * **Admission control** — a tenant whose queue is at
//!   [`ServiceConfig::max_queue_depth`] gets a typed `rejected` reply
//!   instead of unbounded buffering.
//! * **Backpressure** — when the total of queued plus in-flight jobs
//!   reaches [`ServiceConfig::max_pending`], readers stop draining their
//!   sockets until a worker finishes, so saturation propagates to clients
//!   through TCP flow control instead of through memory growth.
//! * **Bounded lines** — a request line longer than 4 MiB gets one typed
//!   `error` reply and the connection is closed, so a client that never
//!   sends a newline cannot grow server memory.
//! * **Bounded writes** — a reply write that cannot finish within a few
//!   seconds shuts its connection down, so a client that stops reading
//!   holds a worker only that long; the jobs that connection still has
//!   queued are dropped uncompiled and counted as rejected.
//! * **Shared compiler** — every job compiles sequentially on its worker
//!   through one [`Compiler`].
//!
//! # Protocol
//!
//! Requests are flat JSON objects, one per line:
//!
//! ```text
//! {"tenant":"alice","id":"job-1","source":"OPENQASM 3.0;\nqudit[3] q[2];\nctrl @ swap(0, 1) q[0], q[1];"}
//! ```
//!
//! Replies are flat JSON objects, one per line, echoing `tenant` and `id`:
//!
//! * `"status":"ok"` with `gates`, `depth`, `verified` and the compiled
//!   `qasm` text;
//! * `"status":"rejected"` with `error` when admission control turned the
//!   job away (the job was **not** compiled);
//! * `"status":"error"` with `error` when the job was malformed or the
//!   compilation failed (a panic inside the compile included: the worker
//!   replies and goes on serving).
//!
//! Every submitted line gets exactly one reply while its connection stays
//! open; after the reply to an oversized line the service closes the
//! connection.
//!
//! # Example
//!
//! ```
//! use qudit_synthesis::service::{CompileService, JobRequest, ServiceClient, ServiceConfig};
//!
//! # fn main() -> std::io::Result<()> {
//! let service = CompileService::start(ServiceConfig::new().workers(1))?;
//! let mut client = ServiceClient::connect(service.local_addr())?;
//! let reply = client.roundtrip(&JobRequest {
//!     tenant: "doc".into(),
//!     id: "1".into(),
//!     source: "OPENQASM 3.0;\nqudit[3] q[2];\nctrl @ swap(0, 1) q[0], q[1];".into(),
//! })?;
//! assert!(reply.is_ok(), "{}", reply.message);
//! assert!(reply.gates > 0);
//! drop(client);
//! let stats = service.shutdown();
//! assert_eq!(stats.completed, 1);
//! # Ok(())
//! # }
//! ```

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use qudit_core::cache::CacheCounters;

use crate::compiler::{CompileOptions, Compiler};

/// How long a blocked socket read waits between checks of the shutdown flag,
/// and how long the acceptor backs off after a failed accept.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// The longest request line (without its newline) a connection may send:
/// hundreds of times the largest request the benchmarks send, and a hard
/// bound on what one connection buffers.
const MAX_LINE_BYTES: usize = 4 << 20;

/// How long one reply write may block on a client that is not reading
/// before its connection is shut down.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Configuration of a [`CompileService`].
///
/// The defaults bind an ephemeral loopback port, run two compile workers
/// and apply the standard [`CompileOptions`] flow to every job.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    bind: String,
    workers: usize,
    max_queue_depth: usize,
    max_pending: usize,
    options: CompileOptions,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            bind: "127.0.0.1:0".to_string(),
            workers: 2,
            max_queue_depth: 16,
            max_pending: 64,
            options: CompileOptions::new(),
        }
    }
}

impl ServiceConfig {
    /// The default configuration (see the type-level docs).
    pub fn new() -> Self {
        ServiceConfig::default()
    }

    /// The address to bind (default `127.0.0.1:0`, an ephemeral loopback
    /// port — read the resolved port from [`CompileService::local_addr`]).
    #[must_use]
    pub fn bind(mut self, addr: impl Into<String>) -> Self {
        self.bind = addr.into();
        self
    }

    /// Number of compile workers — concurrent jobs in flight (default 2;
    /// values below 1 are treated as 1).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Per-tenant queue bound: a job arriving while its tenant already has
    /// this many queued is rejected with a typed reply (default 16; values
    /// below 1 are treated as 1).
    #[must_use]
    pub fn max_queue_depth(mut self, depth: usize) -> Self {
        self.max_queue_depth = depth.max(1);
        self
    }

    /// Global backpressure bound: while queued plus in-flight jobs total
    /// this many, connection readers stop draining their sockets (default
    /// 64; values below 1 are treated as 1).
    #[must_use]
    pub fn max_pending(mut self, pending: usize) -> Self {
        self.max_pending = pending.max(1);
        self
    }

    /// The compile options applied to every job (default
    /// [`CompileOptions::new`]).
    #[must_use]
    pub fn options(mut self, options: CompileOptions) -> Self {
        self.options = options;
        self
    }
}

/// One compile job as submitted over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRequest {
    /// The tenant whose FIFO queue the job joins.
    pub tenant: String,
    /// Caller-chosen job identifier, echoed in the reply.
    pub id: String,
    /// The qasm program to compile (see [`qudit_core::qasm`]).
    pub source: String,
}

/// Reply status of a job (see the module-level protocol docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// The job compiled; the reply carries the result summary.
    Ok,
    /// Admission control turned the job away without compiling it.
    Rejected,
    /// The job was malformed or the compilation failed.
    Error,
}

/// One reply line, parsed (see [`ServiceClient::recv`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobReply {
    /// The tenant echoed from the request (empty for unparsable requests).
    pub tenant: String,
    /// The job id echoed from the request (empty for unparsable requests).
    pub id: String,
    /// Outcome of the job.
    pub status: JobStatus,
    /// Gate count of the compiled circuit (`Ok` replies only).
    pub gates: usize,
    /// Depth of the compiled circuit (`Ok` replies only).
    pub depth: usize,
    /// Whether the compilation was verified (`Ok` replies only).
    pub verified: bool,
    /// The compiled circuit as canonical qasm (`Ok` replies only).
    pub qasm: String,
    /// The rejection or error description (non-`Ok` replies only).
    pub message: String,
}

impl JobReply {
    /// Returns `true` when the job compiled successfully.
    pub fn is_ok(&self) -> bool {
        self.status == JobStatus::Ok
    }
}

/// Lifetime counters of a [`CompileService`], read with
/// [`CompileService::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs admitted into a tenant queue.
    pub accepted: u64,
    /// Jobs compiled and replied to with `status: ok`.
    pub completed: u64,
    /// Jobs turned away by admission control, or dropped uncompiled
    /// because their connection was shut down first.
    pub rejected: u64,
    /// Lines that did not parse as job requests.
    pub protocol_errors: u64,
    /// Admitted jobs whose compilation failed.
    pub compile_errors: u64,
    /// Inert lowering-cache tallies, always zero: nothing is cached.
    pub cache: CacheCounters,
}

/// A queued job plus the connection its reply goes back to.
struct Job {
    request: JobRequest,
    reply_to: Arc<Mutex<TcpStream>>,
}

/// One tenant's FIFO queue; `busy` pins the one-in-flight-per-tenant
/// invariant that keeps a tenant's replies in submission order.
#[derive(Default)]
struct TenantQueue {
    jobs: VecDeque<Job>,
    busy: bool,
}

/// Scheduler state shared by readers (producers) and workers (consumers).
struct SchedulerState {
    /// Tenants with a queued or in-flight job; a worker removes a tenant
    /// when it finishes the tenant's last job.
    tenants: HashMap<String, TenantQueue>,
    /// The tenants with a queued job and none in flight, in the order they
    /// became runnable: workers serve the front, and a tenant rejoins the
    /// back after each job.
    runnable: VecDeque<String>,
    /// Queued plus in-flight jobs — the quantity backpressure bounds.
    pending: usize,
    shutdown: bool,
}

/// Everything the service threads share.
struct Shared {
    state: Mutex<SchedulerState>,
    /// Signals workers that a job may have become runnable.
    job_ready: Condvar,
    /// Signals readers that `pending` dropped below the backpressure bound.
    space: Condvar,
    compiler: Compiler,
    max_queue_depth: usize,
    max_pending: usize,
    shutdown: AtomicBool,
    accepted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    protocol_errors: AtomicU64,
    compile_errors: AtomicU64,
}

/// A running compile service; dropping (or calling
/// [`CompileService::shutdown`]) stops accepting, drains queued jobs and
/// joins every thread.
pub struct CompileService {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl CompileService {
    /// Boots the service: binds the listener and spawns the acceptor and
    /// worker threads.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(config: ServiceConfig) -> io::Result<Self> {
        let compiler = config.options.clone().compiler();
        let listener = TcpListener::bind(&config.bind)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            state: Mutex::new(SchedulerState {
                tenants: HashMap::new(),
                runnable: VecDeque::new(),
                pending: 0,
                shutdown: false,
            }),
            job_ready: Condvar::new(),
            space: Condvar::new(),
            compiler,
            max_queue_depth: config.max_queue_depth,
            max_pending: config.max_pending,
            shutdown: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            compile_errors: AtomicU64::new(0),
        });
        let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = shared.clone();
            let readers = readers.clone();
            std::thread::spawn(move || accept_loop(&listener, &shared, &readers))
        };
        let workers = (0..config.workers)
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(CompileService {
            shared,
            addr,
            acceptor: Some(acceptor),
            workers,
            readers,
        })
    }

    /// The address the service is listening on (with the resolved port when
    /// the configuration asked for an ephemeral one).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service's lifetime counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            accepted: self.shared.accepted.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            protocol_errors: self.shared.protocol_errors.load(Ordering::Relaxed),
            compile_errors: self.shared.compile_errors.load(Ordering::Relaxed),
            cache: CacheCounters::default(),
        }
    }

    /// Stops the service: no new connections are accepted, queued jobs are
    /// drained and replied to, and every thread is joined.  Returns the
    /// final [`ServiceStats`].
    pub fn shutdown(mut self) -> ServiceStats {
        self.stop();
        self.stats()
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let mut state = lock_unpoisoned(&self.shared.state);
            state.shutdown = true;
        }
        self.shared.job_ready.notify_all();
        self.shared.space.notify_all();
        if let Some(acceptor) = self.acceptor.take() {
            // The acceptor blocks in `accept`; one connection wakes it to
            // see the flag.  An unspecified bind address is reached through
            // loopback.
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = TcpStream::connect(wake);
            let _ = acceptor.join();
        }
        let readers = std::mem::take(&mut *lock_unpoisoned(&self.readers));
        for reader in readers {
            let _ = reader.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for CompileService {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Locks a mutex, recovering the guard if a peer panicked while holding it.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The listener thread: blocks in `accept` until shutdown (whose wake-up
/// connection it drops), spawning one reader thread per connection.  Each
/// accept first joins the readers whose connection has ended, so closed
/// connections keep no thread; shutdown joins the live ones.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, readers: &Mutex<Vec<JoinHandle<()>>>) {
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                let shared = shared.clone();
                let handle = std::thread::spawn(move || reader_loop(stream, &shared));
                let mut readers = lock_unpoisoned(readers);
                for finished in readers.extract_if(.., |reader| reader.is_finished()) {
                    let _ = finished.join();
                }
                readers.push(handle);
            }
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

/// One connection's reader: parses request lines, applies admission control
/// and backpressure, and enqueues accepted jobs.  A line longer than
/// [`MAX_LINE_BYTES`] gets one error reply and ends the connection.
fn reader_loop(stream: TcpStream, shared: &Arc<Shared>) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    if write_half.set_write_timeout(Some(WRITE_TIMEOUT)).is_err() {
        return;
    }
    let reply_to = Arc::new(Mutex::new(write_half));
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let mut reader = BufReader::new(stream);
    // Raw bytes, decoded only once a line is complete: a read timeout can
    // fall inside a multi-byte character, and the bytes read so far must
    // survive it.
    let mut line = Vec::new();
    loop {
        // Read at most one byte past the cap, so an oversized line is
        // detected without buffering it.
        let budget = (MAX_LINE_BYTES + 1 - line.len()) as u64;
        match (&mut reader).take(budget).read_until(b'\n', &mut line) {
            Ok(0) => break,
            Ok(_) => {
                if line.len() > MAX_LINE_BYTES && line.last() != Some(&b'\n') {
                    shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    let reason = format!("request line exceeds {MAX_LINE_BYTES} bytes");
                    send_reply(&reply_to, &message_reply("", "", "error", &reason));
                    break;
                }
                match std::str::from_utf8(&line) {
                    Ok(text) if text.trim().is_empty() => {}
                    Ok(text) => handle_line(text.trim(), shared, &reply_to),
                    Err(_) => {
                        shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        let reply = message_reply("", "", "error", "request line is not UTF-8");
                        send_reply(&reply_to, &reply);
                    }
                }
                line.clear();
            }
            Err(error)
                if matches!(
                    error.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // Partial reads stay accumulated in `line`; just check for
                // shutdown and keep waiting.
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}

/// Parses one request line and either replies immediately (malformed /
/// rejected) or enqueues the job.
fn handle_line(line: &str, shared: &Arc<Shared>, reply_to: &Arc<Mutex<TcpStream>>) {
    let request = match parse_request(line) {
        Ok(request) => request,
        Err(error) => {
            shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
            let reply = message_reply(&error.tenant, &error.id, "error", &error.reason);
            send_reply(reply_to, &reply);
            return;
        }
    };
    let mut state = lock_unpoisoned(&shared.state);
    // Backpressure: stop draining this socket while the service is full.
    while state.pending >= shared.max_pending && !state.shutdown {
        state = shared
            .space
            .wait(state)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }
    if state.shutdown {
        drop(state);
        shared.rejected.fetch_add(1, Ordering::Relaxed);
        let reason = "service is shutting down";
        let reply = message_reply(&request.tenant, &request.id, "rejected", reason);
        send_reply(reply_to, &reply);
        return;
    }
    let queue = state.tenants.entry(request.tenant.clone()).or_default();
    if queue.jobs.len() >= shared.max_queue_depth {
        drop(state);
        shared.rejected.fetch_add(1, Ordering::Relaxed);
        let reply = message_reply(
            &request.tenant,
            &request.id,
            "rejected",
            "tenant queue is full",
        );
        send_reply(reply_to, &reply);
        return;
    }
    // An idle tenant becomes runnable with its first queued job; a busy one
    // rejoins the ring when its in-flight job finishes.
    let joins_ring = !queue.busy && queue.jobs.is_empty();
    let tenant = joins_ring.then(|| request.tenant.clone());
    queue.jobs.push_back(Job {
        request,
        reply_to: reply_to.clone(),
    });
    state.runnable.extend(tenant);
    state.pending += 1;
    shared.accepted.fetch_add(1, Ordering::Relaxed);
    drop(state);
    shared.job_ready.notify_all();
}

/// One compile worker: claims the next job of the tenant at the front of
/// the runnable ring, compiles it and writes the reply.  Exits when
/// shutdown is set and nothing is runnable — queued jobs are drained first.
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let mut state = lock_unpoisoned(&shared.state);
        let job = loop {
            if let Some(tenant) = state.runnable.pop_front() {
                let queue = state.tenants.get_mut(&tenant).expect("tenant exists");
                queue.busy = true;
                break queue.jobs.pop_front().expect("queue is non-empty");
            }
            if state.shutdown {
                return;
            }
            state = shared
                .job_ready
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        };
        drop(state);
        // A panic in a pass or the printer becomes this job's error reply,
        // so the tenant's bookkeeping below still runs and the worker lives.
        let reply = panic::catch_unwind(AssertUnwindSafe(|| compile_job(shared, &job.request)))
            .unwrap_or_else(|payload| {
                shared.compile_errors.fetch_add(1, Ordering::Relaxed);
                let cause = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("no message");
                let message = format!("compilation panicked: {cause}");
                message_reply(&job.request.tenant, &job.request.id, "error", &message)
            });
        let delivered = send_reply(&job.reply_to, &reply);
        let mut state = lock_unpoisoned(&shared.state);
        if !delivered {
            drop_jobs_of(&mut state, shared, &job.reply_to);
        }
        if let Some(queue) = state.tenants.get_mut(&job.request.tenant) {
            queue.busy = false;
            // A drained tenant leaves the map, so it does not grow with
            // tenant churn; one with queued work rejoins the ring's back.
            if queue.jobs.is_empty() {
                state.tenants.remove(&job.request.tenant);
            } else {
                state.runnable.push_back(job.request.tenant);
            }
        }
        state.pending -= 1;
        drop(state);
        // Completing a job can unblock both a reader (space) and a peer
        // worker (the tenant's next job became runnable).
        shared.space.notify_all();
        shared.job_ready.notify_all();
    }
}

/// Drops every queued job whose reply goes to `connection`, now shut down,
/// counting each as rejected; tenants left idle and empty leave the map and
/// the runnable ring.
fn drop_jobs_of(state: &mut SchedulerState, shared: &Shared, connection: &Arc<Mutex<TcpStream>>) {
    let mut dropped = 0;
    state.tenants.retain(|_, queue| {
        let queued = queue.jobs.len();
        queue
            .jobs
            .retain(|job| !Arc::ptr_eq(&job.reply_to, connection));
        dropped += queued - queue.jobs.len();
        queue.busy || !queue.jobs.is_empty()
    });
    let tenants = &state.tenants;
    state.runnable.retain(|tenant| tenants.contains_key(tenant));
    state.pending -= dropped;
    shared.rejected.fetch_add(dropped as u64, Ordering::Relaxed);
}

/// Compiles one job and renders its reply line: the printed circuit is
/// escaped straight into the one buffer the line is built in.
fn compile_job(shared: &Shared, request: &JobRequest) -> String {
    match shared.compiler.compile_source(&request.source) {
        Ok(result) => {
            let qasm = result.to_qasm();
            // Escaping adds a byte per line break, about one in twenty.
            let capacity = 160 + request.tenant.len() + request.id.len() + qasm.len() * 9 / 8;
            let mut reply = String::with_capacity(capacity);
            open_reply(&mut reply, &request.tenant, &request.id, "ok");
            let _ = write!(
                reply,
                ",\"gates\":{},\"depth\":{},\"verified\":{},\"qasm\":\"",
                result.circuit.len(),
                result.depth,
                result.verification.is_verified(),
            );
            json_escape_into(&mut reply, &qasm);
            reply.push_str("\"}");
            shared.completed.fetch_add(1, Ordering::Relaxed);
            reply
        }
        Err(error) => {
            shared.compile_errors.fetch_add(1, Ordering::Relaxed);
            message_reply(&request.tenant, &request.id, "error", &error.to_string())
        }
    }
}

/// Appends the fields every reply line opens with,
/// `{"tenant":…,"id":…,"status":"<status>"`.
fn open_reply(reply: &mut String, tenant: &str, id: &str, status: &str) {
    reply.push_str("{\"tenant\":\"");
    json_escape_into(reply, tenant);
    reply.push_str("\",\"id\":\"");
    json_escape_into(reply, id);
    reply.push_str("\",\"status\":\"");
    reply.push_str(status);
    reply.push('"');
}

/// Renders a `status: error` or `status: rejected` reply line.
fn message_reply(tenant: &str, id: &str, status: &str, message: &str) -> String {
    let mut reply = String::with_capacity(64 + tenant.len() + id.len() + message.len());
    open_reply(&mut reply, tenant, id, status);
    reply.push_str(",\"error\":\"");
    json_escape_into(&mut reply, message);
    reply.push_str("\"}");
    reply
}

/// Writes one reply line to a connection, returning whether it was
/// delivered.  A failed write — the client left, or stopped reading for
/// [`WRITE_TIMEOUT`] — shuts the connection down, so its reader sees the end
/// of the stream and later replies fail at once.
fn send_reply(reply_to: &Mutex<TcpStream>, reply: &str) -> bool {
    let mut stream = lock_unpoisoned(reply_to);
    let written = stream
        .write_all(reply.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .and_then(|()| stream.flush());
    if written.is_err() {
        let _ = stream.shutdown(Shutdown::Both);
    }
    written.is_ok()
}

/// A minimal blocking client for the newline-JSON protocol — what the
/// integration tests, the smoke example and the throughput bench drive the
/// service with.
pub struct ServiceClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl ServiceClient {
    /// Connects to a running service.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let writer = stream.try_clone()?;
        Ok(ServiceClient {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Submits one job without waiting for its reply.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn send(&mut self, request: &JobRequest) -> io::Result<()> {
        let JobRequest { tenant, id, source } = request;
        let capacity = 48 + tenant.len() + id.len() + source.len() * 9 / 8;
        let mut line = String::with_capacity(capacity);
        line.push_str("{\"tenant\":\"");
        json_escape_into(&mut line, tenant);
        line.push_str("\",\"id\":\"");
        json_escape_into(&mut line, id);
        line.push_str("\",\"source\":\"");
        json_escape_into(&mut line, source);
        line.push_str("\"}\n");
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()
    }

    /// Sends a raw request line verbatim (for driving the protocol's error
    /// paths).
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn send_raw(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Reads the next reply line.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::UnexpectedEof`] when the server closed the
    /// connection and [`io::ErrorKind::InvalidData`] for unparsable reply
    /// lines.
    pub fn recv(&mut self) -> io::Result<JobReply> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        parse_reply(line.trim())
            .map_err(|reason| io::Error::new(io::ErrorKind::InvalidData, reason))
    }

    /// Submits one job and waits for its reply.
    ///
    /// # Errors
    ///
    /// Propagates [`ServiceClient::send`] and [`ServiceClient::recv`]
    /// failures.
    pub fn roundtrip(&mut self, request: &JobRequest) -> io::Result<JobReply> {
        self.send(request)?;
        self.recv()
    }
}

/// Appends `text` escaped for a JSON string literal.  Every byte that needs
/// an escape is ASCII, so the text is copied in runs between them.
fn json_escape_into(out: &mut String, text: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut run = 0;
    for (at, byte) in text.bytes().enumerate() {
        if byte >= 0x20 && byte != b'"' && byte != b'\\' {
            continue;
        }
        out.push_str(&text[run..at]);
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(byte >> 4)]));
                out.push(char::from(HEX[usize::from(byte & 0xf)]));
            }
        }
        run = at + 1;
    }
    out.push_str(&text[run..]);
}

/// Parses one flat JSON object (string, number, boolean and null values
/// only — the whole protocol is flat) into key/value pairs.  String values
/// are unescaped; other values are kept as their raw token text.
fn parse_flat_json(line: &str) -> Result<HashMap<String, String>, String> {
    let mut rest = line;
    let mut fields = HashMap::new();
    skip_ws(&mut rest);
    if !eat(&mut rest, '{') {
        return Err("request is not a JSON object".to_string());
    }
    skip_ws(&mut rest);
    if eat(&mut rest, '}') {
        return finish(rest, fields);
    }
    loop {
        skip_ws(&mut rest);
        let key = parse_string(&mut rest)?;
        skip_ws(&mut rest);
        if !eat(&mut rest, ':') {
            return Err(format!("missing ':' after key '{key}'"));
        }
        skip_ws(&mut rest);
        let value = match rest.as_bytes().first() {
            Some(b'"') => parse_string(&mut rest)?,
            Some(c) if c.is_ascii_alphanumeric() || *c == b'-' => {
                let end = rest
                    .bytes()
                    .position(|c| !(c.is_ascii_alphanumeric() || matches!(c, b'-' | b'+' | b'.')))
                    .unwrap_or(rest.len());
                let (token, tail) = rest.split_at(end);
                rest = tail;
                token.to_string()
            }
            _ => return Err(format!("unsupported value for key '{key}'")),
        };
        fields.insert(key, value);
        skip_ws(&mut rest);
        if eat(&mut rest, '}') {
            return finish(rest, fields);
        }
        if !eat(&mut rest, ',') {
            return Err("expected ',' or '}' after a value".to_string());
        }
    }
}

/// Requires only whitespace to remain after the closing brace.
fn finish(
    mut rest: &str,
    fields: HashMap<String, String>,
) -> Result<HashMap<String, String>, String> {
    skip_ws(&mut rest);
    if !rest.is_empty() {
        return Err("trailing content after the JSON object".to_string());
    }
    Ok(fields)
}

fn skip_ws(rest: &mut &str) {
    *rest = rest.trim_start_matches([' ', '\t', '\r', '\n']);
}

/// Consumes `c` when the text starts with it.
fn eat(rest: &mut &str, c: char) -> bool {
    match rest.strip_prefix(c) {
        Some(tail) => {
            *rest = tail;
            true
        }
        None => false,
    }
}

/// Parses a JSON string literal (the text must start with the opening
/// quote), copying each run up to the next quote or backslash at once.
fn parse_string(rest: &mut &str) -> Result<String, String> {
    let Some(mut body) = rest.strip_prefix('"') else {
        return Err("expected a string".to_string());
    };
    let mut out = String::new();
    loop {
        let Some(stop) = body.bytes().position(|b| b == b'"' || b == b'\\') else {
            return Err("unterminated string".to_string());
        };
        out.push_str(&body[..stop]);
        if body.as_bytes()[stop] == b'"' {
            *rest = &body[stop + 1..];
            return Ok(out);
        }
        let mut chars = body[stop + 1..].chars();
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('/') => out.push('/'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('b') => out.push('\u{8}'),
            Some('f') => out.push('\u{c}'),
            Some('u') => {
                let mut code = 0u32;
                for _ in 0..4 {
                    let digit = chars
                        .next()
                        .and_then(|c| c.to_digit(16))
                        .ok_or_else(|| "invalid \\u escape".to_string())?;
                    code = code * 16 + digit;
                }
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
            }
            _ => return Err("unknown escape sequence".to_string()),
        }
        body = chars.as_str();
    }
}

/// Why a request line was refused, echoing whatever identity fields did
/// parse so the error reply can still be correlated by the client.
#[derive(Debug)]
struct RequestError {
    tenant: String,
    id: String,
    reason: String,
}

/// Parses one request line into a [`JobRequest`], moving each field out of
/// the parsed object.
fn parse_request(line: &str) -> Result<JobRequest, RequestError> {
    let mut fields = parse_flat_json(line).map_err(|reason| RequestError {
        tenant: String::new(),
        id: String::new(),
        reason,
    })?;
    let names = ["tenant", "id", "source"];
    if let Some(missing) = names.into_iter().find(|name| !fields.contains_key(*name)) {
        let text = |name: &str| fields.get(name).cloned().unwrap_or_default();
        return Err(RequestError {
            tenant: text("tenant"),
            id: text("id"),
            reason: format!("missing field '{missing}'"),
        });
    }
    let mut take = |name: &str| fields.remove(name).unwrap_or_default();
    Ok(JobRequest {
        tenant: take("tenant"),
        id: take("id"),
        source: take("source"),
    })
}

/// Parses one reply line into a [`JobReply`], moving each field out of the
/// parsed object.
fn parse_reply(line: &str) -> Result<JobReply, String> {
    let mut fields = parse_flat_json(line)?;
    let mut take = |name: &str| fields.remove(name).unwrap_or_default();
    let status = match take("status").as_str() {
        "ok" => JobStatus::Ok,
        "rejected" => JobStatus::Rejected,
        "error" => JobStatus::Error,
        other => return Err(format!("unknown reply status '{other}'")),
    };
    let number = |raw: String| raw.parse::<usize>().unwrap_or(0);
    Ok(JobReply {
        tenant: take("tenant"),
        id: take("id"),
        status,
        gates: number(take("gates")),
        depth: number(take("depth")),
        verified: take("verified") == "true",
        qasm: take("qasm"),
        message: take("error"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// The char-at-a-time JSON layer the run-based one replaced, kept as
    /// the reference the differential test holds it to.
    mod reference {
        use std::collections::HashMap;

        use super::super::{JobReply, JobStatus};

        pub fn json_escape(text: &str) -> String {
            let mut out = String::with_capacity(text.len());
            for c in text.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        let _ = std::fmt::Write::write_fmt(
                            &mut out,
                            format_args!("\\u{:04x}", c as u32),
                        );
                    }
                    c => out.push(c),
                }
            }
            out
        }

        type Chars<'a> = std::iter::Peekable<std::str::Chars<'a>>;

        pub fn parse_flat_json(line: &str) -> Result<HashMap<String, String>, String> {
            let mut chars = line.chars().peekable();
            let mut fields = HashMap::new();
            skip_ws(&mut chars);
            if chars.next() != Some('{') {
                return Err("request is not a JSON object".to_string());
            }
            skip_ws(&mut chars);
            if chars.peek() == Some(&'}') {
                chars.next();
                return finish(chars, fields);
            }
            loop {
                skip_ws(&mut chars);
                let key = parse_string(&mut chars)?;
                skip_ws(&mut chars);
                if chars.next() != Some(':') {
                    return Err(format!("missing ':' after key '{key}'"));
                }
                skip_ws(&mut chars);
                let value = match chars.peek() {
                    Some('"') => parse_string(&mut chars)?,
                    Some(c) if c.is_ascii_digit() || *c == '-' || c.is_ascii_alphabetic() => {
                        let mut token = String::new();
                        while let Some(c) = chars.peek() {
                            if c.is_ascii_alphanumeric() || *c == '-' || *c == '+' || *c == '.' {
                                token.push(*c);
                                chars.next();
                            } else {
                                break;
                            }
                        }
                        token
                    }
                    _ => return Err(format!("unsupported value for key '{key}'")),
                };
                fields.insert(key, value);
                skip_ws(&mut chars);
                match chars.next() {
                    Some(',') => continue,
                    Some('}') => return finish(chars, fields),
                    _ => return Err("expected ',' or '}' after a value".to_string()),
                }
            }
        }

        fn finish(
            mut chars: Chars<'_>,
            fields: HashMap<String, String>,
        ) -> Result<HashMap<String, String>, String> {
            skip_ws(&mut chars);
            if chars.next().is_some() {
                return Err("trailing content after the JSON object".to_string());
            }
            Ok(fields)
        }

        fn skip_ws(chars: &mut Chars<'_>) {
            while matches!(chars.peek(), Some(' ' | '\t' | '\r' | '\n')) {
                chars.next();
            }
        }

        fn parse_string(chars: &mut Chars<'_>) -> Result<String, String> {
            if chars.next() != Some('"') {
                return Err("expected a string".to_string());
            }
            let mut out = String::new();
            loop {
                match chars.next() {
                    None => return Err("unterminated string".to_string()),
                    Some('"') => return Ok(out),
                    Some('\\') => match chars.next() {
                        Some('"') => out.push('"'),
                        Some('\\') => out.push('\\'),
                        Some('/') => out.push('/'),
                        Some('n') => out.push('\n'),
                        Some('r') => out.push('\r'),
                        Some('t') => out.push('\t'),
                        Some('b') => out.push('\u{8}'),
                        Some('f') => out.push('\u{c}'),
                        Some('u') => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let digit = chars
                                    .next()
                                    .and_then(|c| c.to_digit(16))
                                    .ok_or_else(|| "invalid \\u escape".to_string())?;
                                code = code * 16 + digit;
                            }
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err("unknown escape sequence".to_string()),
                    },
                    Some(c) => out.push(c),
                }
            }
        }

        /// `(tenant, id, source)` or `(tenant, id, reason)`.
        pub fn parse_request(line: &str) -> Result<[String; 3], [String; 3]> {
            let fields =
                parse_flat_json(line).map_err(|reason| [String::new(), String::new(), reason])?;
            let text = |name: &str| fields.get(name).cloned().unwrap_or_default();
            let require = |name: &str| {
                fields.get(name).cloned().ok_or_else(|| {
                    [
                        text("tenant"),
                        text("id"),
                        format!("missing field '{name}'"),
                    ]
                })
            };
            Ok([require("tenant")?, require("id")?, require("source")?])
        }

        pub fn parse_reply(line: &str) -> Result<JobReply, String> {
            let fields = parse_flat_json(line)?;
            let text = |name: &str| fields.get(name).cloned().unwrap_or_default();
            let number = |name: &str| {
                fields
                    .get(name)
                    .and_then(|raw| raw.parse::<usize>().ok())
                    .unwrap_or(0)
            };
            let status = match text("status").as_str() {
                "ok" => JobStatus::Ok,
                "rejected" => JobStatus::Rejected,
                "error" => JobStatus::Error,
                other => return Err(format!("unknown reply status '{other}'")),
            };
            Ok(JobReply {
                tenant: text("tenant"),
                id: text("id"),
                status,
                gates: number("gates"),
                depth: number("depth"),
                verified: fields.get("verified").map(|v| v == "true").unwrap_or(false),
                qasm: text("qasm"),
                message: text("error"),
            })
        }
    }

    /// A seeded splitmix64 stream for the differential test.
    struct Draws(u64);

    impl Draws {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
            &items[self.below(items.len())]
        }
    }

    /// Characters that exercise every branch of escaping and parsing.
    const PALETTE: [char; 24] = [
        'a', 'Z', '7', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}', '\u{c}',
        '\u{1f}', '\u{7f}', '{', '}', ':', ',', 'é', '€', '😀', '\u{2028}',
    ];

    /// Raw escapes and literals placed straight into a line, past the
    /// escaper: valid, surrogate, short and bad `\u` forms among them.
    const FRAGMENTS: [&str; 14] = [
        "\\u00e9", "\\u00E9", "\\uD83D", "\\u12", "\\u12G4", "\\/", "\\b", "\\f", "\\x", "\\",
        "\"", "\\u0022", "\\\\", "\\uFFFF",
    ];

    fn random_text(draws: &mut Draws) -> String {
        (0..draws.below(24))
            .map(|_| *draws.pick(&PALETTE))
            .collect()
    }

    fn random_value(draws: &mut Draws) -> String {
        match draws.below(8) {
            0 => draws
                .pick(&["12", "-3", "1.5e+3", "true", "false", "null", "0x1F"])
                .to_string(),
            1 => format!("\"{}\"", draws.pick(&FRAGMENTS)),
            _ => format!("\"{}\"", reference::json_escape(&random_text(draws))),
        }
    }

    fn random_line(draws: &mut Draws) -> String {
        let ws = |draws: &mut Draws| *draws.pick(&["", "", " ", "\t", "\r\n", "  "]);
        let mut keys = vec!["tenant", "id", "source"];
        if draws.below(2) == 0 {
            keys.extend(["status", "gates", "depth", "verified", "qasm", "error"]);
        }
        let mut line = format!("{}{{", ws(draws));
        for (i, key) in keys.iter().enumerate() {
            if draws.below(20) == 0 {
                continue;
            }
            if i > 0 {
                line.push(',');
            }
            let key = if draws.below(30) == 0 { "tenant" } else { key };
            let value = match key {
                "status" => format!("\"{}\"", draws.pick(&["ok", "rejected", "error", "odd"])),
                _ => random_value(draws),
            };
            let (a, b, c) = (ws(draws), ws(draws), ws(draws));
            let _ = write!(line, "{a}\"{key}\"{b}:{c}{value}");
        }
        let _ = write!(line, "{}}}{}", ws(draws), ws(draws));
        // Mutations: flipped and inserted characters, truncation, dropped
        // quotes.
        let mut chars: Vec<char> = line.chars().collect();
        for _ in 0..draws.below(4) {
            match draws.below(4) {
                0 if !chars.is_empty() => {
                    let at = draws.below(chars.len());
                    chars[at] = *draws.pick(&PALETTE);
                }
                1 => {
                    let at = draws.below(chars.len() + 1);
                    chars.insert(at, *draws.pick(&PALETTE));
                }
                2 => chars.truncate(draws.below(chars.len() + 1)),
                _ => {
                    let quotes: Vec<usize> =
                        (0..chars.len()).filter(|&i| chars[i] == '"').collect();
                    if !quotes.is_empty() {
                        chars.remove(*draws.pick(&quotes));
                    }
                }
            }
        }
        chars.into_iter().collect()
    }

    #[test]
    fn json_layer_matches_the_char_at_a_time_reference() {
        let mut draws = Draws(0x5eed_2024);
        let (mut parsed, mut requests) = (0, 0);
        for _ in 0..20_000 {
            let text = random_text(&mut draws);
            let mut escaped = String::new();
            json_escape_into(&mut escaped, &text);
            assert_eq!(escaped, reference::json_escape(&text), "{text:?}");

            let line = random_line(&mut draws);
            let fields = parse_flat_json(&line);
            assert_eq!(fields, reference::parse_flat_json(&line), "{line:?}");
            parsed += usize::from(fields.is_ok());
            let request = parse_request(&line)
                .map(|r| [r.tenant, r.id, r.source])
                .map_err(|e| [e.tenant, e.id, e.reason]);
            assert_eq!(request, reference::parse_request(&line), "{line:?}");
            requests += usize::from(request.is_ok());
            assert_eq!(
                parse_reply(&line),
                reference::parse_reply(&line),
                "{line:?}"
            );
        }
        // Both outcomes are exercised in bulk.
        assert!(
            parsed > 5_000 && parsed < 15_000,
            "{parsed} of 20000 lines parsed"
        );
        assert!(requests > 2_000, "{requests} of 20000 lines were requests");
    }

    #[test]
    fn json_round_trips_escapes() {
        let nasty = "line1\nline2\t\"quoted\" \\slash\u{1}";
        let mut line = "{\"k\":\"".to_string();
        json_escape_into(&mut line, nasty);
        line.push_str("\"}");
        let fields = parse_flat_json(&line).unwrap();
        assert_eq!(fields["k"], nasty);
    }

    #[test]
    fn flat_json_accepts_numbers_and_booleans() {
        let fields =
            parse_flat_json("{\"gates\": 12, \"verified\": true, \"name\": \"x\"}").unwrap();
        assert_eq!(fields["gates"], "12");
        assert_eq!(fields["verified"], "true");
        assert_eq!(fields["name"], "x");
        assert!(parse_flat_json("{}").unwrap().is_empty());
    }

    #[test]
    fn malformed_json_is_rejected_with_a_reason() {
        for bad in [
            "",
            "[]",
            "{\"a\"}",
            "{\"a\":}",
            "{\"a\":\"b\"",
            "{\"a\":\"b\"} trailing",
            "{\"a\":\"\\q\"}",
        ] {
            assert!(parse_flat_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn request_parsing_requires_every_field() {
        let full = "{\"tenant\":\"t\",\"id\":\"1\",\"source\":\"OPENQASM 3.0;\"}";
        let request = parse_request(full).unwrap();
        assert_eq!(request.tenant, "t");
        assert_eq!(request.id, "1");
        assert_eq!(request.source, "OPENQASM 3.0;");
        let error = parse_request("{\"tenant\":\"t\",\"id\":\"1\"}").unwrap_err();
        assert!(error.reason.contains("source"));
        assert_eq!((error.tenant.as_str(), error.id.as_str()), ("t", "1"));
        let garbage = parse_request("not json").unwrap_err();
        assert!(garbage.tenant.is_empty() && garbage.id.is_empty());
    }

    #[test]
    fn drained_tenants_leave_the_scheduler_state() {
        let service = CompileService::start(ServiceConfig::new()).unwrap();
        let shared = service.shared.clone();
        let mut client = ServiceClient::connect(service.local_addr()).unwrap();
        // Every job goes out before the first reply is read: one roundtrip
        // at a time would wait out the delayed-ACK stall on each reply.
        for tenant in 0..100 {
            let job = JobRequest {
                tenant: format!("t{tenant}"),
                id: "0".to_string(),
                source: "OPENQASM 3.0;\nqudit[3] q[2];\nswap(0, 1) q[0];\n".to_string(),
            };
            client.send(&job).unwrap();
        }
        for _ in 0..100 {
            assert!(client.recv().unwrap().is_ok());
        }
        // Shutdown joins the workers, so every completion is booked.
        service.shutdown();
        assert_eq!(lock_unpoisoned(&shared.state).tenants.len(), 0);
    }

    #[test]
    fn a_hostile_register_width_is_an_error_reply_and_spares_the_worker() {
        let service = CompileService::start(ServiceConfig::new().workers(1)).unwrap();
        let connect = || {
            let client = ServiceClient::connect(service.local_addr()).unwrap();
            // A dead worker would leave these reads waiting forever.
            let timeout = Some(Duration::from_secs(10));
            client.reader.get_ref().set_read_timeout(timeout).unwrap();
            client
        };
        let hostile = connect().roundtrip(&JobRequest {
            tenant: "hostile".to_string(),
            id: "0".to_string(),
            source: "qudit[3] q[2305843009213693952];\nshift(1) q[0];".to_string(),
        });
        let hostile = hostile.unwrap();
        assert_eq!(hostile.status, JobStatus::Error);
        assert!(
            hostile.message.contains("registers may be up to"),
            "{}",
            hostile.message
        );
        // The one worker survived: another tenant on another connection is
        // served.
        let other = connect().roundtrip(&JobRequest {
            tenant: "other".to_string(),
            id: "0".to_string(),
            source: "OPENQASM 3.0;\nqudit[3] q[2];\nswap(0, 1) q[0];\n".to_string(),
        });
        assert!(other.unwrap().is_ok());
        let stats = service.shutdown();
        assert_eq!((stats.completed, stats.compile_errors), (1, 1));
    }

    /// A cost model that panics when it prices the transposition `X12`.
    struct PanicsOnX12;

    impl qudit_core::route::CostModel for PanicsOnX12 {
        fn name(&self) -> &str {
            "panics-on-x12"
        }

        fn gate_cost(&self, gate: &qudit_core::Gate) -> f64 {
            let x12 = qudit_core::GateOp::Single(qudit_core::SingleQuditOp::Swap(1, 2));
            assert!(*gate.op() != x12, "cost model refuses X12");
            1.0
        }
    }

    #[test]
    fn a_panicking_compile_is_an_error_reply_and_spares_the_worker() {
        let options = CompileOptions::new()
            .topology(qudit_core::topology::CouplingGraph::linear(3).unwrap())
            .cost(PanicsOnX12);
        let config = ServiceConfig::new().workers(1).options(options);
        let service = CompileService::start(config).unwrap();
        let connect = || {
            let client = ServiceClient::connect(service.local_addr()).unwrap();
            // A dead worker would leave these reads waiting forever.
            let timeout = Some(Duration::from_secs(10));
            client.reader.get_ref().set_read_timeout(timeout).unwrap();
            client
        };
        let mut panicking = connect();
        let job = |tenant: &str, levels: &str| JobRequest {
            tenant: tenant.to_string(),
            id: "0".to_string(),
            source: format!("OPENQASM 3.0;\nqudit[3] q[2];\nswap({levels}) q[0];\n"),
        };
        let reply = panicking.roundtrip(&job("panicking", "1, 2")).unwrap();
        assert_eq!(reply.status, JobStatus::Error);
        assert!(
            reply.message.contains("cost model refuses X12"),
            "{}",
            reply.message
        );
        // The worker released the tenant: it is served again, and so is
        // another tenant on another connection.
        let again = panicking.roundtrip(&job("panicking", "0, 1")).unwrap();
        assert!(again.is_ok(), "{}", again.message);
        let other = connect().roundtrip(&job("other", "0, 1")).unwrap();
        assert!(other.is_ok(), "{}", other.message);
        let stats = service.shutdown();
        assert_eq!((stats.completed, stats.compile_errors), (2, 1));
    }

    #[test]
    fn closed_connections_leave_no_reader_threads() {
        let service = CompileService::start(ServiceConfig::new()).unwrap();
        let request = JobRequest {
            tenant: "t".to_string(),
            id: "0".to_string(),
            source: "OPENQASM 3.0;\nqudit[3] q[2];\nswap(0, 1) q[0];\n".to_string(),
        };
        for _ in 0..50 {
            let mut client = ServiceClient::connect(service.local_addr()).unwrap();
            assert!(client.roundtrip(&request).unwrap().is_ok());
        }
        // The reply proves the acceptor took this connection, after it had
        // joined every reader that had already exited.
        let mut last = ServiceClient::connect(service.local_addr()).unwrap();
        assert!(last.roundtrip(&request).unwrap().is_ok());
        let live = lock_unpoisoned(&service.readers).len();
        assert!(live <= 4, "{live} reader handles kept after 51 connections");
    }

    #[test]
    fn connections_are_accepted_without_polling() {
        let service = CompileService::start(ServiceConfig::new()).unwrap();
        let request = JobRequest {
            tenant: "t".to_string(),
            id: "0".to_string(),
            source: "OPENQASM 3.0;\nqudit[3] q[2];\nswap(0, 1) q[0];\n".to_string(),
        };
        let started = Instant::now();
        for _ in 0..20 {
            let mut client = ServiceClient::connect(service.local_addr()).unwrap();
            assert!(client.roundtrip(&request).unwrap().is_ok());
        }
        // A polling acceptor waits out most of a 25 ms poll per connection.
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_millis(250),
            "20 connections took {elapsed:?}"
        );
    }

    #[test]
    fn reply_parsing_reads_every_status() {
        let ok = parse_reply(
            "{\"tenant\":\"t\",\"id\":\"1\",\"status\":\"ok\",\"gates\":3,\"depth\":2,\
             \"verified\":true,\"qasm\":\"OPENQASM 3.0;\\n\"}",
        )
        .unwrap();
        assert!(ok.is_ok());
        assert_eq!((ok.gates, ok.depth), (3, 2));
        assert!(ok.verified);
        assert_eq!(ok.qasm, "OPENQASM 3.0;\n");
        let rejected =
            parse_reply(&message_reply("t", "2", "rejected", "tenant queue is full")).unwrap();
        assert_eq!(rejected.status, JobStatus::Rejected);
        assert_eq!(rejected.message, "tenant queue is full");
        let error = parse_reply(&message_reply("t", "3", "error", "boom")).unwrap();
        assert_eq!(error.status, JobStatus::Error);
        assert!(parse_reply("{\"status\":\"odd\"}").is_err());
    }
}
