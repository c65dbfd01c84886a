//! Sweep-as-a-service: the `vtrain serve` daemon.
//!
//! A long-running process that binds a TCP port, speaks the versioned
//! wire API of [`crate::api`] in newline-delimited JSON frames, and
//! multiplexes concurrent scenario requests onto a worker pool sharing
//! one [`ProfileCache`] — so a fleet of sweeps pays the profiling cost
//! of each distinct operator signature once, not once per request.
//!
//! Pure `std`: [`std::net::TcpListener`], one reader thread per
//! connection, a [`Condvar`]-signalled bounded admission queue, and a
//! fixed worker pool. No HTTP, no async runtime.
//!
//! # Lifecycle and backpressure
//!
//! - Each connection sends any number of request frames; responses
//!   carry the request's `id`, so a client may pipeline requests and
//!   match responses out of order.
//! - Admission is bounded: when `queue_depth` requests are already
//!   waiting, new work is rejected immediately with a `Busy` error
//!   rather than queued without limit — the client owns the retry,
//!   guided by the rejection's `retry_after_ms` hint (queue depth ×
//!   observed service time ÷ workers).
//! - A request's `budget.deadline_ms` counts from *admission*: time
//!   spent waiting in the queue is charged against it, and an already
//!   expired request is answered with `DeadlineExceeded` without being
//!   executed.
//! - A `Shutdown` frame drains: admission closes (`Busy`), queued and
//!   executing requests finish, then the shutdown response is written
//!   and the accept loop exits.
//!
//! # Fault tolerance
//!
//! - Request frames are length-bounded
//!   ([`max_frame_bytes`](ServerConfig::max_frame_bytes)): an oversized
//!   line is discarded and answered `BadRequest` with a size message,
//!   and the connection survives — an adversarial multi-GB line can no
//!   longer balloon the daemon.
//! - Every request executes under [`std::panic::catch_unwind`]: a
//!   panicking request is answered `Internal` with the panic message,
//!   the shared state (cache, queue, counters) stays poison-free (all
//!   locks recover a poisoned guard), and a worker thread that
//!   nevertheless dies is respawned by its supervisor.
//! - Under `--degrade bound-only`, sweep requests arriving with the
//!   queue past its high-water mark are answered from the busy floor
//!   ([`crate::api::execute_degraded`], one slot pricing per candidate
//!   through the shared profile cache) instead of being shed — flagged
//!   `degraded: true` in the report.
//! - With `--snapshot <path>`, the profile cache is persisted
//!   crash-safely (tmp-file + atomic rename, versioned checksummed
//!   header) every [`snapshot_every`](ServerConfig::snapshot_every)
//!   completed requests and at drain; startup warm-restores from the
//!   snapshot, treating a truncated/corrupt/version-mismatched file as
//!   a logged cold start, never a crash.
//! - A seeded [`FaultPlan`] (`--fault-plan <json>`)
//!   injects connection drops, frame delays, frame corruption, and
//!   scripted worker panics for reproducible chaos testing.
//!
//! # Observability
//!
//! Aggregate counters are always available in-process via the `Stats`
//! request kind ([`crate::api::ServerStats`]). When the `vtrain-obs`
//! global registry is enabled, the daemon additionally publishes
//! `serve.requests`, `serve.completed`, `serve.busy_rejections`,
//! `serve.deadline_exceeded`, `serve.panics`, `serve.retries_observed`,
//! `serve.degraded_responses`, `serve.snapshot_saves`,
//! `serve.snapshot_loads`, `serve.snapshot_load_failures`,
//! `serve.queue_depth`, and the `serve.latency_p95_us` (µs) and
//! `serve.latency_p95_ms` gauges.

pub mod faults;

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use vtrain_obs::Histogram;
use vtrain_profile::ProfileCache;

use crate::api::{
    ErrorBody, ErrorCode, Report, Request, RequestKind, Response, ServerStats, ShutdownReport,
};
use crate::error::Error;
use faults::{FaultPlan, FaultState, ResponseFault};

/// How a saturated daemon degrades instead of shedding load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DegradeMode {
    /// Answer sweep requests from the admissible busy floor
    /// ([`crate::api::execute_degraded`]) once the queue passes the
    /// high-water mark, flagged `degraded: true` in the report.
    BoundOnly,
}

/// Configuration of a [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Address to bind, e.g. `"127.0.0.1:7071"` (port 0 picks an
    /// ephemeral port; read it back with [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads executing requests (default 2).
    pub workers: usize,
    /// Maximum requests waiting for a worker before admission rejects
    /// with `Busy` (default 32; executing requests do not count).
    pub queue_depth: usize,
    /// Sweep worker threads per request (default: all cores). Kept low
    /// when `workers` is high — the products multiply.
    pub threads: Option<usize>,
    /// Profile-cache capacity in entries (default unbounded).
    pub cache_capacity: Option<usize>,
    /// Largest accepted request frame, bytes (default 4 MiB). An
    /// oversized line is discarded and answered `BadRequest`; the
    /// connection survives.
    pub max_frame_bytes: usize,
    /// Degradation mode under overload (default `None`: shed with
    /// `Busy` once the queue is full).
    pub degrade: Option<DegradeMode>,
    /// Queue length at which degradation kicks in (default
    /// `queue_depth / 2`, at least 1; an explicit 0 degrades every
    /// sweep). Only consulted when [`degrade`](ServerConfig::degrade)
    /// is set.
    pub degrade_high_water: Option<usize>,
    /// Profile-cache snapshot path (default `None`: no persistence).
    /// Warm-restored at startup when the file exists.
    pub snapshot: Option<PathBuf>,
    /// Persist the snapshot every this many completed requests
    /// (default 32; a snapshot is also written at drain).
    pub snapshot_every: u64,
    /// Deterministic fault-injection plan (default `None`; test-only).
    pub fault_plan: Option<FaultPlan>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7071".to_owned(),
            workers: 2,
            queue_depth: 32,
            threads: None,
            cache_capacity: None,
            max_frame_bytes: 4 << 20,
            degrade: None,
            degrade_high_water: None,
            snapshot: None,
            snapshot_every: 32,
            fault_plan: None,
        }
    }
}

impl ServerConfig {
    /// The queue length at which degraded mode engages.
    fn high_water(&self) -> usize {
        self.degrade_high_water.unwrap_or((self.queue_depth / 2).max(1))
    }
}

/// One admitted request waiting for (or holding) a worker.
struct Job {
    request: Request,
    /// The admission-relative deadline, pre-resolved so queue wait
    /// counts against it.
    deadline: Option<Instant>,
    admitted: Instant,
    /// Answer from the busy floor: the queue was past the degrade
    /// high-water mark at admission.
    degraded: bool,
    out: Arc<Mutex<TcpStream>>,
}

/// Admission queue + drain flag behind one mutex, signalled by one
/// condvar for both "work available" (workers) and "work finished"
/// (the drain wait).
#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    draining: bool,
    executing: u64,
}

/// State shared by the accept loop, reader threads, and workers.
struct Shared {
    cache: Arc<ProfileCache>,
    config: ServerConfig,
    queue: Mutex<Queue>,
    cond: Condvar,
    requests: AtomicU64,
    completed: AtomicU64,
    busy_rejections: AtomicU64,
    deadline_exceeded: AtomicU64,
    panics: AtomicU64,
    retries_observed: AtomicU64,
    degraded_responses: AtomicU64,
    snapshot_saves: AtomicU64,
    snapshot_loads: AtomicU64,
    snapshot_load_failures: AtomicU64,
    /// Execution service time, summed/counted over completed jobs —
    /// the `retry_after_ms` hint's numerator.
    service_ms_total: AtomicU64,
    service_count: AtomicU64,
    /// Serializes snapshot writers (a slow save skips instead of
    /// queueing a second writer behind it).
    snapshot_lock: Mutex<()>,
    faults: Option<FaultState>,
    /// Request latency, admission to response write, in µs: warm
    /// requests finish well inside a millisecond.
    latency_us: Histogram,
}

impl Shared {
    /// The admission queue, recovering a poisoned guard: queue state is
    /// a set of counters and a deque, consistent at every await point,
    /// so a worker that panicked while holding the lock left it valid.
    fn lock_queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn stats(&self) -> ServerStats {
        let (queue_depth, executing) = {
            let q = self.lock_queue();
            (q.jobs.len() as u64, q.executing)
        };
        let cache = self.cache.stats();
        ServerStats {
            requests: self.requests.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            queue_depth,
            executing,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_entries: self.cache.len() as u64,
            cache_evictions: self.cache.evictions(),
            latency_p50_ms: self.latency_us.p50() / 1000,
            latency_p95_ms: self.latency_us.p95() / 1000,
            latency_p99_ms: self.latency_us.p99() / 1000,
            latency_p50_us: self.latency_us.p50(),
            latency_p95_us: self.latency_us.p95(),
            latency_p99_us: self.latency_us.p99(),
            panics: self.panics.load(Ordering::Relaxed),
            retries_observed: self.retries_observed.load(Ordering::Relaxed),
            degraded_responses: self.degraded_responses.load(Ordering::Relaxed),
            snapshot_saves: self.snapshot_saves.load(Ordering::Relaxed),
            snapshot_loads: self.snapshot_loads.load(Ordering::Relaxed),
            snapshot_load_failures: self.snapshot_load_failures.load(Ordering::Relaxed),
        }
    }

    /// Publishes the always-on counters into the `vtrain-obs` global
    /// registry (no-op while tracing is disabled).
    fn publish_metrics(&self) {
        if !vtrain_obs::enabled() {
            return;
        }
        let m = vtrain_obs::global();
        let stats = self.stats();
        let set = |name: &str, v: u64| {
            let c = m.counter(name);
            c.add(v.saturating_sub(c.get()));
        };
        set("serve.requests", stats.requests);
        set("serve.completed", stats.completed);
        set("serve.busy_rejections", stats.busy_rejections);
        set("serve.deadline_exceeded", stats.deadline_exceeded);
        set("serve.panics", stats.panics);
        set("serve.retries_observed", stats.retries_observed);
        set("serve.degraded_responses", stats.degraded_responses);
        set("serve.snapshot_saves", stats.snapshot_saves);
        set("serve.snapshot_loads", stats.snapshot_loads);
        set("serve.snapshot_load_failures", stats.snapshot_load_failures);
        m.gauge("serve.queue_depth").set(stats.queue_depth);
        m.gauge("serve.latency_p95_ms").set(stats.latency_p95_ms);
        m.gauge("serve.latency_p95_us").set(stats.latency_p95_us);
        self.cache.publish_metrics();
    }

    /// The `Busy` rejection's backoff hint: how long until a worker
    /// plausibly frees up, from the queue depth ahead of the caller and
    /// the mean observed service time.
    fn retry_after_ms(&self, queued: usize) -> u64 {
        // Before any completion there is nothing observed; assume a
        // conservative 100 ms sweep.
        let mean_ms = self
            .service_ms_total
            .load(Ordering::Relaxed)
            .checked_div(self.service_count.load(Ordering::Relaxed))
            .map_or(100, |mean| mean.max(1));
        let workers = self.config.workers.max(1) as u64;
        ((queued as u64 + 1) * mean_ms / workers).max(1)
    }

    /// Persists the profile cache if a snapshot path is configured.
    /// Concurrent callers skip instead of queueing (the next trigger
    /// catches up); failures are logged, never fatal.
    fn maybe_save_snapshot(&self) {
        let Some(path) = &self.config.snapshot else { return };
        let Ok(_guard) = self.snapshot_lock.try_lock() else { return };
        match self.cache.save_snapshot(path) {
            Ok(entries) => {
                self.snapshot_saves.fetch_add(1, Ordering::Relaxed);
                let _ = entries;
            }
            Err(e) => eprintln!("vtrain serve: snapshot save failed: {e}"),
        }
    }
}

/// Writes one response frame, ignoring a peer that already hung up (its
/// request still ran; nothing is waiting on the bytes).
///
/// `faultable` responses additionally pass through the fault plan's
/// injection point (drop/delay/corrupt); `Stats` and `Shutdown` frames
/// are exempt — they are the health and lifecycle channel chaos tests
/// themselves rely on.
fn respond(shared: &Shared, out: &Arc<Mutex<TcpStream>>, response: &Response, faultable: bool) {
    let mut frame = response.to_frame().into_bytes();
    if faultable {
        if let Some(faults) = &shared.faults {
            let (fault, delay_ms) = faults.next_response_fault();
            if delay_ms > 0 {
                thread::sleep(Duration::from_millis(delay_ms));
            }
            match fault {
                ResponseFault::None => {}
                ResponseFault::Drop => {
                    let stream = out.lock().unwrap_or_else(|e| e.into_inner());
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                    return;
                }
                ResponseFault::Corrupt => {
                    // Flip the high bit of a mid-payload byte: the frame
                    // is pure ASCII, so the result is invalid UTF-8 the
                    // client cannot mistake for a (different) valid
                    // response.
                    let mid = frame.len() / 2;
                    frame[mid] ^= 0x80;
                }
            }
        }
    }
    let mut stream = out.lock().unwrap_or_else(|e| e.into_inner());
    let _ = stream.write_all(&frame);
    let _ = stream.flush();
}

/// A bound serve daemon: accept loop not yet running.
///
/// ```no_run
/// use vtrain::serve::{Server, ServerConfig};
///
/// let server = Server::bind(ServerConfig::default())?;
/// eprintln!("listening on {}", server.local_addr());
/// server.run()?; // blocks until a Shutdown frame drains the daemon
/// # Ok::<(), vtrain::Error>(())
/// ```
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the configured address, prepares the shared state, and —
    /// when a snapshot path is configured and the file exists —
    /// warm-restores the profile cache from it. A snapshot that fails
    /// to restore (truncated, corrupt, version-mismatched) is a logged
    /// cold start, never a bind failure.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Server`] if the address cannot be bound.
    pub fn bind(config: ServerConfig) -> Result<Server, Error> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| Error::server(format!("cannot bind {}: {e}", config.addr)))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| Error::server(format!("cannot read bound address: {e}")))?;
        let cache = Arc::new(match config.cache_capacity {
            Some(capacity) => ProfileCache::with_capacity(capacity),
            None => ProfileCache::new(),
        });
        let (snapshot_loads, snapshot_load_failures) = match &config.snapshot {
            Some(path) if path.exists() => match cache.load_snapshot(path) {
                Ok(entries) => {
                    eprintln!(
                        "vtrain serve: warm start: {entries} cached profiles from {}",
                        path.display()
                    );
                    (1, 0)
                }
                Err(e) => {
                    eprintln!("vtrain serve: cold start ({e})");
                    (0, 1)
                }
            },
            _ => (0, 0),
        };
        let faults = config.fault_plan.clone().filter(FaultPlan::is_active).map(FaultState::new);
        let shared = Arc::new(Shared {
            cache,
            config,
            queue: Mutex::new(Queue::default()),
            cond: Condvar::new(),
            requests: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            busy_rejections: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            retries_observed: AtomicU64::new(0),
            degraded_responses: AtomicU64::new(0),
            snapshot_saves: AtomicU64::new(0),
            snapshot_loads: AtomicU64::new(snapshot_loads),
            snapshot_load_failures: AtomicU64::new(snapshot_load_failures),
            service_ms_total: AtomicU64::new(0),
            service_count: AtomicU64::new(0),
            snapshot_lock: Mutex::new(()),
            faults,
            latency_us: Histogram::new(),
        });
        Ok(Server { listener, local_addr, shared })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Runs the accept loop until a `Shutdown` frame drains the daemon.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Server`] if accepting fails irrecoverably.
    pub fn run(self) -> Result<(), Error> {
        let supervisors: Vec<_> = (0..self.shared.config.workers.max(1))
            .map(|slot| {
                let shared = Arc::clone(&self.shared);
                thread::spawn(move || supervise_worker(&shared, slot))
            })
            .collect();
        for stream in self.listener.incoming() {
            if self.shared.lock_queue().draining {
                // Woken (possibly by the drain's own loopback connect)
                // after a shutdown: stop accepting.
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(e) => return Err(Error::server(format!("accept failed: {e}"))),
            };
            let shared = Arc::clone(&self.shared);
            let addr = self.local_addr;
            thread::spawn(move || connection_loop(&shared, stream, addr));
        }
        // Drain already completed (the Shutdown handler waits for the
        // queue); workers exit on the draining flag.
        self.shared.cond.notify_all();
        for w in supervisors {
            let _ = w.join();
        }
        self.shared.publish_metrics();
        Ok(())
    }
}

/// Keeps one worker slot staffed: a worker thread that returns cleanly
/// (drain) ends the slot; one that dies — a panic escaping the per-job
/// isolation — is replaced, so a poisoned worker never silently shrinks
/// the pool.
fn supervise_worker(shared: &Arc<Shared>, slot: usize) {
    loop {
        let spawned = {
            let shared = Arc::clone(shared);
            thread::Builder::new()
                .name(format!("vtrain-worker-{slot}"))
                .spawn(move || worker_loop(&shared))
        };
        let Ok(worker) = spawned else { return };
        if worker.join().is_ok() {
            return;
        }
        if shared.lock_queue().draining {
            return;
        }
        eprintln!("vtrain serve: worker {slot} died outside request isolation; respawning");
    }
}

/// One frame read off a connection, bounded by `max_frame_bytes`.
enum Frame {
    /// The peer hung up (or the socket failed).
    Eof,
    /// One newline-terminated line within the bound.
    Line(String),
    /// A line that exceeded the bound; its bytes were discarded up to
    /// (and including) the terminating newline.
    TooLong,
}

/// Reads one bounded frame. Unlike `BufRead::lines`, an oversized line
/// never accumulates beyond `max + one buffer chunk` bytes in memory:
/// past the bound the line is streamed to the trash until its newline.
fn read_frame(reader: &mut BufReader<TcpStream>, max: usize) -> Frame {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = match reader.fill_buf() {
            Ok(c) => c,
            Err(_) => return Frame::Eof,
        };
        if chunk.is_empty() {
            // EOF: a trailing unterminated line still parses (matching
            // the previous `lines()` behavior).
            return if buf.is_empty() {
                Frame::Eof
            } else {
                Frame::Line(String::from_utf8_lossy(&buf).into_owned())
            };
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                let over = buf.len() + pos > max;
                if !over {
                    buf.extend_from_slice(&chunk[..pos]);
                }
                reader.consume(pos + 1);
                return if over {
                    Frame::TooLong
                } else {
                    Frame::Line(String::from_utf8_lossy(&buf).into_owned())
                };
            }
            None => {
                let len = chunk.len();
                if buf.len() <= max {
                    buf.extend_from_slice(chunk);
                    buf.truncate(max + 1);
                }
                reader.consume(len);
                if buf.len() > max {
                    // Over the bound mid-line: stop buffering, stream
                    // the rest of the line into the void.
                    loop {
                        let chunk = match reader.fill_buf() {
                            Ok(c) => c,
                            Err(_) => return Frame::Eof,
                        };
                        if chunk.is_empty() {
                            return Frame::TooLong;
                        }
                        if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
                            reader.consume(pos + 1);
                            return Frame::TooLong;
                        }
                        let len = chunk.len();
                        reader.consume(len);
                    }
                }
            }
        }
    }
}

/// Reads frames off one connection until EOF.
fn connection_loop(shared: &Arc<Shared>, stream: TcpStream, local_addr: SocketAddr) {
    let out = match stream.try_clone() {
        Ok(writer) => Arc::new(Mutex::new(writer)),
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_frame(&mut reader, shared.config.max_frame_bytes) {
            Frame::Eof => return,
            Frame::TooLong => {
                shared.requests.fetch_add(1, Ordering::Relaxed);
                let body = ErrorBody::new(
                    ErrorCode::BadRequest,
                    format!(
                        "frame exceeds the {}-byte limit; the line was discarded",
                        shared.config.max_frame_bytes
                    ),
                );
                respond(shared, &out, &Response::err("", body), false);
                continue;
            }
            Frame::Line(line) => line,
        };
        if line.trim().is_empty() {
            continue;
        }
        shared.requests.fetch_add(1, Ordering::Relaxed);
        let request: Request = match serde_json::from_str(&line) {
            Ok(r) => r,
            Err(e) => {
                // The frame never parsed, so there is no id to echo;
                // the empty id marks a frame-level failure.
                let body = ErrorBody::from_error(&Error::from(e));
                respond(shared, &out, &Response::err("", body), false);
                continue;
            }
        };
        if request.attempt > 1 {
            shared.retries_observed.fetch_add(1, Ordering::Relaxed);
        }
        match request.kind {
            RequestKind::Stats => {
                respond(
                    shared,
                    &out,
                    &Response::ok(request.id, Report::Stats(shared.stats())),
                    false,
                );
            }
            RequestKind::Shutdown => {
                drain(shared);
                let report = ShutdownReport { completed: shared.completed.load(Ordering::Relaxed) };
                respond(shared, &out, &Response::ok(request.id, Report::Shutdown(report)), false);
                shared.publish_metrics();
                // The accept loop blocks in `accept`; a loopback
                // connect wakes it to observe the draining flag.
                let _ = TcpStream::connect(local_addr);
                return;
            }
            RequestKind::Predict | RequestKind::Sweep | RequestKind::Validate => {
                admit(shared, request, &out);
            }
        }
    }
}

/// Admits one scenario request into the bounded queue, or rejects it
/// with `Busy` (carrying the backoff hint). Under a degrade mode, a
/// sweep arriving with the queue past its high-water mark is admitted
/// flagged for the bound-only path instead of waiting to be shed.
fn admit(shared: &Arc<Shared>, request: Request, out: &Arc<Mutex<TcpStream>>) {
    let admitted = Instant::now();
    let deadline =
        request.budget.and_then(|b| b.deadline_ms).map(|ms| admitted + Duration::from_millis(ms));
    let id = request.id.clone();
    let kind = request.kind;
    let rejection = {
        let mut q = shared.lock_queue();
        if q.draining {
            Some(("server is draining", q.jobs.len()))
        } else if q.jobs.len() >= shared.config.queue_depth {
            Some(("admission queue is full", q.jobs.len()))
        } else {
            let degraded = shared.config.degrade == Some(DegradeMode::BoundOnly)
                && kind == RequestKind::Sweep
                && q.jobs.len() >= shared.config.high_water();
            q.jobs.push_back(Job { request, deadline, admitted, degraded, out: Arc::clone(out) });
            None
        }
    };
    match rejection {
        None => shared.cond.notify_one(),
        Some((reason, queued)) => {
            shared.busy_rejections.fetch_add(1, Ordering::Relaxed);
            let body = ErrorBody::new(
                ErrorCode::Busy,
                format!("{reason} (queue depth {})", shared.config.queue_depth),
            )
            .with_retry_after(shared.retry_after_ms(queued));
            respond(shared, out, &Response::err(id, body), true);
        }
    }
}

/// Marks the daemon draining and blocks until queued and executing
/// requests have finished, then persists a final snapshot.
fn drain(shared: &Arc<Shared>) {
    let mut q = shared.lock_queue();
    q.draining = true;
    shared.cond.notify_all();
    while !(q.jobs.is_empty() && q.executing == 0) {
        q = shared.cond.wait(q).unwrap_or_else(|e| e.into_inner());
    }
    drop(q);
    shared.maybe_save_snapshot();
}

/// Decrements the executing count (and wakes the drain wait) when a
/// worker finishes a job — however it finishes: the drop runs even if
/// answering or bookkeeping panics, so `executing` can never leak and
/// wedge a drain.
struct ExecutingGuard<'a> {
    shared: &'a Shared,
}

impl Drop for ExecutingGuard<'_> {
    fn drop(&mut self) {
        let mut q = self.shared.lock_queue();
        q.executing -= 1;
        self.shared.cond.notify_all();
    }
}

/// One worker: pop, execute (panic-isolated), respond, repeat — until
/// draining and empty.
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut q = shared.lock_queue();
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    q.executing += 1;
                    break job;
                }
                if q.draining {
                    return;
                }
                q = shared.cond.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        let _guard = ExecutingGuard { shared };
        let executed = Instant::now();
        // Panic isolation: a panicking request answers `Internal` with
        // the panic message instead of killing the worker. The closure
        // only touches poison-recovering shared state (the cache's
        // locks all recover), so `AssertUnwindSafe` is sound: nothing
        // observable is left mid-mutation.
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute_job(shared, &job)));
        let response = match result {
            Ok(response) => response,
            Err(payload) => {
                shared.panics.fetch_add(1, Ordering::Relaxed);
                Response::err(
                    job.request.id.clone(),
                    ErrorBody::new(
                        ErrorCode::Internal,
                        format!("request execution panicked: {}", panic_message(&payload)),
                    ),
                )
            }
        };
        let mut completed_now = 0;
        if matches!(
            &response.outcome,
            crate::api::Outcome::Err(body) if body.code == ErrorCode::DeadlineExceeded
        ) {
            shared.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
        } else if matches!(&response.outcome, crate::api::Outcome::Ok(_)) {
            completed_now = shared.completed.fetch_add(1, Ordering::Relaxed) + 1;
            if job.degraded {
                shared.degraded_responses.fetch_add(1, Ordering::Relaxed);
            }
            let service_ms = executed.elapsed().as_millis().min(u128::from(u64::MAX)) as u64;
            shared.service_ms_total.fetch_add(service_ms, Ordering::Relaxed);
            shared.service_count.fetch_add(1, Ordering::Relaxed);
        }
        respond(shared, &job.out, &response, true);
        let elapsed_us = job.admitted.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        shared.latency_us.record(elapsed_us);
        shared.publish_metrics();
        if completed_now > 0
            && shared.config.snapshot.is_some()
            && completed_now % shared.config.snapshot_every.max(1) == 0
        {
            shared.maybe_save_snapshot();
        }
        // `_guard` drops here: executing -= 1, drain wait woken.
    }
}

/// Renders a caught panic payload (the `panic!` message for the common
/// `&str`/`String` payloads).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Executes one admitted job with its deadline re-based to admission:
/// the remaining budget, not the original, reaches the executor.
fn execute_job(shared: &Arc<Shared>, job: &Job) -> Response {
    if let Some(faults) = &shared.faults {
        faults.on_execution();
    }
    let mut request = job.request.clone();
    if let Some(deadline) = job.deadline {
        let Some(remaining) =
            deadline.checked_duration_since(Instant::now()).filter(|d| !d.is_zero())
        else {
            return Response::err(
                request.id,
                ErrorBody::new(
                    ErrorCode::DeadlineExceeded,
                    format!(
                        "deadline exceeded: request spent its {} ms budget waiting in the queue",
                        job.request.budget.and_then(|b| b.deadline_ms).unwrap_or(0)
                    ),
                ),
            );
        };
        let mut budget = request.budget.unwrap_or_default();
        budget.deadline_ms = Some(remaining.as_millis().max(1).min(u128::from(u64::MAX)) as u64);
        request.budget = Some(budget);
    }
    if job.degraded {
        crate::api::execute_degraded(&request, &shared.cache, shared.config.threads)
    } else {
        crate::api::execute(&request, &shared.cache, shared.config.threads)
    }
}
