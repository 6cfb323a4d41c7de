//! The session server: worker pool, fairness queue, in-flight
//! deduplication, and the cross-request artifact cache.
//!
//! # Architecture
//!
//! One [`serve`] call owns the whole process lifecycle:
//!
//! * a **listener** (unix socket, or the process's stdio when
//!   [`ServeOptions::socket`] is `None`) accepting line-delimited JSON
//!   clients after a [`SCHEMA_VERSION`] handshake;
//! * one **reader thread per client** parsing requests and either
//!   answering immediately (`ping`, `stats`, cache hits, typed errors,
//!   backpressure rejections) or enqueueing a job;
//! * a small **worker pool** draining the job queues with per-client
//!   round-robin fairness, evaluating through
//!   [`Session`](mnsim_core::simulator::Session) so every finished
//!   artifact lands in the shared [`ArtifactCache`];
//! * a process-wide **live-telemetry tap** routing the campaign progress
//!   NDJSON of whichever job a worker is running to every client waiting
//!   on that job's fingerprint, as `event` lines.
//!
//! # Deduplication and fairness
//!
//! Jobs are keyed by the same FNV config fingerprint the cache and the
//! checkpoint layer use. A request whose fingerprint is already being
//! evaluated **joins** the in-flight job instead of spawning a second
//! evaluation: the owner's response reports `"cache":"miss"`, every
//! joiner gets the bit-identical result with `"cache":"shared"` (results
//! are deterministic at any thread count, so sharing is observationally
//! equivalent to re-running). Each client has its own FIFO queue and the
//! workers rotate across clients, so one client's burst cannot starve
//! another; a client exceeding [`ServeOptions::max_pending_per_client`]
//! queued jobs gets a typed `backpressure` error instead of unbounded
//! buffering.
//!
//! # Shutdown
//!
//! `SIGTERM`, `SIGINT`, a client `shutdown` message, or stdin EOF (in
//! stdio mode) all trigger the same path: reject *new* submissions with
//! `shutting_down`, drain every already-accepted job (queued and
//! executing) so its waiters still get their responses, join the
//! workers, write the metrics snapshot (when configured), and exit
//! cleanly. Piping a request batch followed by a `shutdown` line through
//! stdio therefore behaves as a one-shot batch evaluator.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use mnsim_core::cache::{Artifact, ArtifactCache};
use mnsim_core::config::Config;
use mnsim_core::dse::{Constraints, DesignSpace, DseResult};
use mnsim_core::error::CoreError;
use mnsim_core::fault_sim::FaultConfig;
use mnsim_core::report::report_json;
use mnsim_core::simulate::Report;
use mnsim_core::validate::ValidationRow;
use mnsim_core::Simulator;
use mnsim_obs as obs;
use mnsim_obs::live::{LiveConfig, LiveTap};
use mnsim_obs::{write_json_number, write_json_string, JsonValue};

use crate::protocol::{
    error_line, event_line, hello_ok_line, interconnects_from_nm, parse_line, parse_request,
    request_of, response_line, ConfigSpec, ErrorCode, Op, Request, WireError, SCHEMA_VERSION,
};

static SERVE_REQUESTS: obs::Counter = obs::Counter::new("serve.requests");
static SERVE_RESPONSES: obs::Counter = obs::Counter::new("serve.responses");
static SERVE_DEDUP_JOINED: obs::Counter = obs::Counter::new("serve.dedup.joined");
static SERVE_JOBS_COMPLETED: obs::Counter = obs::Counter::new("serve.jobs.completed");
static SERVE_BACKPRESSURE: obs::Counter = obs::Counter::new("serve.backpressure.rejected");
static SERVE_CLIENTS: obs::Counter = obs::Counter::new("serve.clients.accepted");
static SERVE_QUEUE_DEPTH: obs::Gauge = obs::Gauge::new("serve.queue.depth");

/// Configuration of one [`serve`] lifecycle.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Unix-socket path to listen on; `None` serves one client over the
    /// process's stdin/stdout (the `repro serve` default for piping).
    pub socket: Option<String>,
    /// Worker threads draining the job queue (`0` = 2).
    pub workers: usize,
    /// Artifact-cache byte budget
    /// ([`ArtifactCache::DEFAULT_BUDGET`] when 0).
    pub cache_bytes: usize,
    /// Queued-job bound per client before `backpressure` errors.
    pub max_pending_per_client: usize,
    /// Worker threads *inside* each fault campaign, sweep or validation
    /// (`0` = auto); a simulate job runs on its worker thread alone. The
    /// result is bit-identical for every choice.
    pub threads_per_job: usize,
    /// Write the final metrics snapshot (counters/gauges/histograms
    /// JSON) here on shutdown.
    pub metrics_path: Option<String>,
    /// Mirror the live-telemetry NDJSON stream to this file (events are
    /// always routed to waiting clients regardless).
    pub live_path: Option<String>,
}

impl Default for ServeOptions {
    /// Stdio transport, 2 workers, default cache budget, 16 pending
    /// jobs per client, auto threads per job, no artifact files.
    fn default() -> Self {
        ServeOptions {
            socket: None,
            workers: 2,
            cache_bytes: 0,
            max_pending_per_client: 16,
            threads_per_job: 0,
            metrics_path: None,
            live_path: None,
        }
    }
}

/// The evaluation payload of one queued job.
enum JobOp {
    Run {
        config: Config,
        faults: Option<FaultConfig>,
    },
    Validate {
        config: Config,
        matrices: usize,
        inputs_per_matrix: usize,
        seed: u64,
    },
    Dse {
        config: Config,
        space: DesignSpace,
        constraints: Constraints,
    },
}

/// One unit of queued work, owned by the client that submitted it.
struct Job {
    client: u64,
    key: u64,
    op: JobOp,
}

/// A response destination for one request: the submitting client's
/// writer and the request id to echo.
struct Waiter {
    writer: Arc<ClientWriter>,
    id: u64,
}

/// Serialized write half of one client connection. Lines are written
/// whole and flushed under the lock, so responses and events from
/// different threads never interleave mid-line; write errors are
/// swallowed (a vanished client just stops receiving).
struct ClientWriter {
    inner: Mutex<Box<dyn Write + Send>>,
}

impl ClientWriter {
    fn new(writer: Box<dyn Write + Send>) -> Self {
        ClientWriter {
            inner: Mutex::new(writer),
        }
    }

    fn send(&self, line: &str) {
        let mut guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = writeln!(guard, "{line}");
        let _ = guard.flush();
    }
}

/// Queue/dedup state behind the shared mutex.
#[derive(Default)]
struct State {
    /// Per-client FIFO job queues.
    queues: BTreeMap<u64, VecDeque<Job>>,
    /// Round-robin order over client ids.
    rr: Vec<u64>,
    /// Next round-robin index to try.
    next: usize,
    /// Fingerprint → everyone waiting on that evaluation (owner first).
    inflight: HashMap<u64, Vec<Waiter>>,
    /// Per-client queued + executing job count (owners only; joiners
    /// ride the owner's job).
    pending: HashMap<u64, usize>,
}

impl State {
    fn queued(&self) -> usize {
        self.queues.values().map(VecDeque::len).sum()
    }

    /// Pops the next job in round-robin client order.
    fn pop_next(&mut self) -> Option<Job> {
        let n = self.rr.len();
        for i in 0..n {
            let idx = (self.next + i) % n;
            let cid = self.rr[idx];
            if let Some(job) = self.queues.get_mut(&cid).and_then(VecDeque::pop_front) {
                self.next = (idx + 1) % n;
                return Some(job);
            }
        }
        None
    }
}

/// Everything the reader, worker, and tap threads share.
struct Shared {
    state: Mutex<State>,
    ready: Condvar,
    cache: Arc<ArtifactCache>,
    shutdown: AtomicBool,
    threads_per_job: usize,
}

impl Shared {
    fn new(options: &ServeOptions) -> Self {
        let budget = if options.cache_bytes == 0 {
            ArtifactCache::DEFAULT_BUDGET
        } else {
            options.cache_bytes
        };
        Shared {
            state: Mutex::new(State::default()),
            ready: Condvar::new(),
            cache: Arc::new(ArtifactCache::with_budget(budget)),
            shutdown: AtomicBool::new(false),
            threads_per_job: options.threads_per_job,
        }
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn respond(&self, writer: &ClientWriter, line: &str) {
        writer.send(line);
        SERVE_RESPONSES.inc();
    }

    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.ready.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Signal handling (no external crates: raw libc `signal` symbol)
// ---------------------------------------------------------------------------

static SIGNALLED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    // Async-signal-safe: one atomic store; the accept/stdio loop polls.
    SIGNALLED.store(true, Ordering::SeqCst);
}

fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
        signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
    }
}

// ---------------------------------------------------------------------------
// Result serialization
// ---------------------------------------------------------------------------

fn simulate_result_json(report: &Report) -> String {
    format!("{{\"report\":{}}}", report_json(report))
}

fn validate_result_json(rows: &[ValidationRow]) -> String {
    let mut out = String::from("{\"rows\":[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"metric\":");
        write_json_string(&mut out, &row.metric);
        out.push_str(",\"mnsim\":");
        write_json_number(&mut out, row.mnsim);
        out.push_str(",\"circuit\":");
        write_json_number(&mut out, row.circuit);
        out.push_str(",\"unit\":");
        write_json_string(&mut out, row.unit);
        out.push_str(",\"relative_error\":");
        write_json_number(&mut out, row.relative_error());
        out.push('}');
    }
    out.push_str("]}");
    out
}

fn dse_result_json(result: &DseResult) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\"evaluated\":");
    let _ = write!(out, "{}", result.evaluated);
    out.push_str(",\"feasible\":[");
    for (i, point) in result.feasible.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&report_json(&point.report));
    }
    out.push_str("]}");
    out
}

/// The `stats` reply: the artifact cache's statistics and the `serve.*`
/// counters, which the server's metrics session (open for the server's
/// whole life, reset when it opened) holds.
fn stats_result_json(shared: &Shared) -> String {
    use std::fmt::Write as _;
    let cache = shared.cache.stats();
    let mut out = String::from("{\"cache\":{");
    let _ = write!(
        out,
        "\"hits\":{},\"misses\":{},\"insertions\":{},\"evictions\":{},\
         \"bytes\":{},\"entries\":{},\"budget\":{}}}",
        cache.hits,
        cache.misses,
        cache.insertions,
        cache.evictions,
        cache.bytes,
        cache.entries,
        cache.budget,
    );
    let _ = write!(
        out,
        ",\"server\":{{\"requests\":{},\"responses\":{},\"dedup_joined\":{},\
         \"jobs_completed\":{},\"backpressure_rejected\":{}}}}}",
        SERVE_REQUESTS.get(),
        SERVE_RESPONSES.get(),
        SERVE_DEDUP_JOINED.get(),
        SERVE_JOBS_COMPLETED.get(),
        SERVE_BACKPRESSURE.get(),
    );
    out
}

fn artifact_result_json(artifact: &Artifact) -> String {
    match artifact {
        Artifact::Report(report) => simulate_result_json(report),
        Artifact::Validation(rows) => validate_result_json(rows),
        Artifact::DseFront(result) => dse_result_json(result),
    }
}

// ---------------------------------------------------------------------------
// Request handling (reader threads)
// ---------------------------------------------------------------------------

/// Builds the config of a compute op, mapping failures onto the wire.
fn build_config(spec: &ConfigSpec) -> Result<Config, WireError> {
    spec.build().map_err(|e| WireError::from_core(&e))
}

/// Turns a submitted op into its job payload + fingerprint, or answers
/// inline (`Err` carries the typed failure).
fn prepare_job(shared: &Shared, op: Op) -> Result<(u64, JobOp), WireError> {
    match op {
        Op::Simulate { config, faults } => {
            let config = build_config(&config)?;
            let faults = faults.map(|spec| spec.to_fault_config());
            let mut sim = Simulator::new(config.clone());
            if let Some(fault_config) = faults.clone() {
                sim = sim.faults(fault_config);
            }
            let key = sim
                .into_session_with(Arc::clone(&shared.cache))
                .run_fingerprint();
            Ok((key, JobOp::Run { config, faults }))
        }
        Op::Validate {
            config,
            matrices,
            inputs_per_matrix,
            seed,
        } => {
            let config = build_config(&config)?;
            let key = Simulator::new(config.clone())
                .into_session_with(Arc::clone(&shared.cache))
                .validate_fingerprint(matrices, inputs_per_matrix, seed);
            Ok((
                key,
                JobOp::Validate {
                    config,
                    matrices,
                    inputs_per_matrix,
                    seed,
                },
            ))
        }
        Op::Dse {
            config,
            crossbar_sizes,
            parallelism,
            interconnects_nm,
            max_crossbar_error,
        } => {
            let config = build_config(&config)?;
            let space = DesignSpace {
                crossbar_sizes,
                parallelism_degrees: parallelism,
                interconnects: interconnects_from_nm(&interconnects_nm)?,
            };
            let constraints = Constraints {
                max_crossbar_error,
                max_area_mm2: None,
                max_power_w: None,
            };
            let key = Simulator::new(config.clone())
                .into_session_with(Arc::clone(&shared.cache))
                .explore_fingerprint(&space, &constraints);
            Ok((
                key,
                JobOp::Dse {
                    config,
                    space,
                    constraints,
                },
            ))
        }
        Op::Ping | Op::Stats => unreachable!("answered inline"),
    }
}

/// Handles one submitted request on a reader thread: answer inline when
/// possible (ping/stats/hit/error/backpressure), otherwise enqueue or
/// join an in-flight job.
fn handle_submit(
    shared: &Shared,
    writer: &Arc<ClientWriter>,
    client: u64,
    max_pending: usize,
    id: u64,
    op: Op,
) {
    match op {
        Op::Ping => {
            shared.respond(writer, &response_line(id, "none", None, "{\"pong\":true}"));
            return;
        }
        Op::Stats => {
            let stats = stats_result_json(shared);
            shared.respond(writer, &response_line(id, "none", None, &stats));
            return;
        }
        _ => {}
    }
    if shared.shutdown.load(Ordering::SeqCst) {
        let err = WireError::new(ErrorCode::ShuttingDown, "server is shutting down");
        shared.respond(writer, &error_line(Some(id), &err));
        return;
    }
    let (key, job_op) = match prepare_job(shared, op) {
        Ok(prepared) => prepared,
        Err(err) => {
            shared.respond(writer, &error_line(Some(id), &err));
            return;
        }
    };
    // Serve directly from the cache when the artifact already exists. A
    // miss is left uncounted: the job's `Session` lookup counts it.
    if let Some(artifact) = shared.cache.probe(key) {
        let result = artifact_result_json(&artifact);
        shared.respond(writer, &response_line(id, "hit", Some(key), &result));
        return;
    }
    let mut state = shared.lock_state();
    if let Some(waiters) = state.inflight.get_mut(&key) {
        // Identical request already evaluating (or queued): join it.
        waiters.push(Waiter {
            writer: Arc::clone(writer),
            id,
        });
        SERVE_DEDUP_JOINED.inc();
        return;
    }
    // A worker inserts the artifact while its job is still in flight and
    // removes the in-flight entry afterwards, so a job that finished
    // between the probe above and this lock left its artifact behind:
    // probe again before enqueuing a second evaluation. No path takes the
    // state lock while holding the cache lock, so this order is safe.
    if let Some(result) = shared.cache.probe(key).map(|a| artifact_result_json(&a)) {
        drop(state);
        shared.respond(writer, &response_line(id, "hit", Some(key), &result));
        return;
    }
    let pending = state.pending.entry(client).or_insert(0);
    if *pending >= max_pending {
        drop(state);
        SERVE_BACKPRESSURE.inc();
        let err = WireError::new(
            ErrorCode::Backpressure,
            format!("client has {max_pending} jobs pending; retry after one completes"),
        );
        shared.respond(writer, &error_line(Some(id), &err));
        return;
    }
    *pending += 1;
    state.inflight.insert(
        key,
        vec![Waiter {
            writer: Arc::clone(writer),
            id,
        }],
    );
    if !state.rr.contains(&client) {
        state.rr.push(client);
    }
    state
        .queues
        .entry(client)
        .or_default()
        .push_back(Job { client, key, op: job_op });
    SERVE_QUEUE_DEPTH.set(state.queued() as f64);
    drop(state);
    shared.ready.notify_one();
}

/// The longest protocol line the server buffers, newline excluded. A
/// request line or a whole MLP-shorthand submission is a few hundred
/// bytes; a longer line is answered `malformed` without being held.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Reads the next line (without its `\n` or `\r\n`) through `reader`'s
/// buffer, holding at most [`MAX_LINE_BYTES`] of it. A line over the cap
/// is skipped up to its newline, and it and a line that is not UTF-8
/// come back as the `malformed` error to reply with. `None` at EOF or on
/// a read error.
fn next_line(reader: &mut impl BufRead) -> Option<Result<String, WireError>> {
    let mut line = Vec::new();
    let mut capped = reader.by_ref().take(MAX_LINE_BYTES as u64 + 1);
    if capped.read_until(b'\n', &mut line).ok()? == 0 {
        return None;
    }
    if line.last() == Some(&b'\n') {
        line.pop();
    } else if line.len() > MAX_LINE_BYTES {
        reader.skip_until(b'\n').ok()?;
        return Some(Err(WireError::new(
            ErrorCode::Malformed,
            format!("line longer than {MAX_LINE_BYTES} bytes"),
        )));
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    Some(
        String::from_utf8(line)
            .map_err(|_| WireError::new(ErrorCode::Malformed, "line is not UTF-8")),
    )
}

/// Serves one client connection: handshake, then a request loop until
/// EOF or a `shutdown` message, which stops the whole server (the
/// protocol has no per-client detach). A rejected handshake closes the
/// connection; a rejected request line gets its typed error and the loop
/// reads on.
fn serve_client(
    shared: &Arc<Shared>,
    reader: impl Read,
    writer: Arc<ClientWriter>,
    client: u64,
    max_pending: usize,
) {
    let mut reader = BufReader::new(reader);
    // Handshake: the first line must be a matching `hello`.
    match next_line(&mut reader).map(|line| line.and_then(|line| parse_request(&line))) {
        Some(Ok(Request::Hello { schema_version })) if schema_version == SCHEMA_VERSION => {
            writer.send(&hello_ok_line());
        }
        Some(Ok(Request::Hello { schema_version })) => {
            let err = WireError::new(
                ErrorCode::SchemaMismatch,
                format!(
                    "server speaks schema_version {SCHEMA_VERSION}, client sent \
                     {schema_version}"
                ),
            );
            writer.send(&error_line(None, &err));
            return;
        }
        Some(Ok(_)) => {
            let err = WireError::new(
                ErrorCode::SchemaMismatch,
                "connection must open with a `hello` handshake",
            );
            writer.send(&error_line(None, &err));
            return;
        }
        Some(Err(err)) => {
            writer.send(&error_line(None, &err));
            return;
        }
        None => return,
    }
    while let Some(line) = next_line(&mut reader) {
        if line.as_ref().is_ok_and(|line| line.trim().is_empty()) {
            continue;
        }
        SERVE_REQUESTS.inc();
        let value = match line.and_then(|line| parse_line(&line)) {
            Ok(value) => value,
            Err(err) => {
                shared.respond(&writer, &error_line(None, &err));
                continue;
            }
        };
        match request_of(&value) {
            Ok(Request::Submit { id, op }) => {
                handle_submit(shared, &writer, client, max_pending, id, op);
            }
            Ok(Request::Hello { .. }) => writer.send(&hello_ok_line()),
            Ok(Request::Shutdown) => {
                shared.request_shutdown();
                break;
            }
            Err(err) => {
                // Best effort: echo the id when the line carried one.
                let id = value.get("id").and_then(JsonValue::as_u64);
                shared.respond(&writer, &error_line(id, &err));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

thread_local! {
    /// Fingerprint of the job this worker thread is currently
    /// evaluating; the process-wide live tap uses it to route event
    /// lines to that job's waiters.
    static CURRENT_JOB: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
}

/// Executes one job's evaluation (on the worker thread).
fn execute(shared: &Shared, op: &JobOp) -> Result<String, CoreError> {
    let threads = shared.threads_per_job;
    match op {
        JobOp::Run { config, faults } => {
            let mut sim = Simulator::new(config.clone()).threads(threads);
            if let Some(fault_config) = faults.clone() {
                sim = sim.faults(fault_config);
            }
            let report = sim.into_session_with(Arc::clone(&shared.cache)).run()?;
            Ok(simulate_result_json(&report))
        }
        JobOp::Validate {
            config,
            matrices,
            inputs_per_matrix,
            seed,
        } => {
            let rows = Simulator::new(config.clone())
                .threads(threads)
                .into_session_with(Arc::clone(&shared.cache))
                .validate(*matrices, *inputs_per_matrix, *seed)?;
            Ok(validate_result_json(&rows))
        }
        JobOp::Dse {
            config,
            space,
            constraints,
        } => {
            let result = Simulator::new(config.clone())
                .threads(threads)
                .into_session_with(Arc::clone(&shared.cache))
                .explore(space, constraints)?;
            Ok(dse_result_json(&result))
        }
    }
}

/// The worker loop: round-robin pop, evaluate, respond to every waiter.
fn worker_loop(shared: Arc<Shared>) {
    loop {
        let job = {
            let mut state = shared.lock_state();
            loop {
                if let Some(job) = state.pop_next() {
                    SERVE_QUEUE_DEPTH.set(state.queued() as f64);
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                let (next, _) = shared
                    .ready
                    .wait_timeout(state, Duration::from_millis(100))
                    .unwrap_or_else(PoisonError::into_inner);
                state = next;
            }
        };
        let Some(job) = job else { return };
        CURRENT_JOB.with(|c| c.set(Some(job.key)));
        let outcome = execute(&shared, &job.op);
        CURRENT_JOB.with(|c| c.set(None));
        let waiters = {
            let mut state = shared.lock_state();
            if let Some(count) = state.pending.get_mut(&job.client) {
                *count = count.saturating_sub(1);
            }
            state.inflight.remove(&job.key).unwrap_or_default()
        };
        // Count the job before responding: a client that has its response
        // in hand must observe `jobs_completed` covering its own job in a
        // follow-up `stats` request.
        SERVE_JOBS_COMPLETED.inc();
        match outcome {
            Ok(result) => {
                for (i, waiter) in waiters.iter().enumerate() {
                    let cache = if i == 0 { "miss" } else { "shared" };
                    shared.respond(
                        &waiter.writer,
                        &response_line(waiter.id, cache, Some(job.key), &result),
                    );
                }
            }
            Err(err) => {
                let wire = WireError::from_core(&err);
                for waiter in &waiters {
                    shared.respond(&waiter.writer, &error_line(Some(waiter.id), &wire));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The server lifecycle
// ---------------------------------------------------------------------------

/// Runs the session server until shutdown (signal, `shutdown` message,
/// or stdio EOF). Blocks the calling thread for the server's lifetime.
///
/// The server holds the process-wide metrics and live-telemetry sessions
/// for its whole life; reports carry no per-run observations, and
/// campaign progress events stream to waiting clients via the live tap.
///
/// # Errors
///
/// Returns a message when the socket cannot be bound or an artifact
/// sink cannot be created. Evaluation failures are per-request wire
/// errors, never a server exit.
pub fn serve(options: ServeOptions) -> Result<(), String> {
    let shared = Arc::new(Shared::new(&options));

    // Metrics first, then live — the sampler reads the metric registry.
    let metrics_session = obs::session();
    let tap_shared = Arc::clone(&shared);
    let tap = LiveTap::new(move |line| {
        let Some(key) = CURRENT_JOB.with(|c| c.get()) else {
            return;
        };
        let waiters: Vec<(Arc<ClientWriter>, u64)> = {
            let state = tap_shared.lock_state();
            state
                .inflight
                .get(&key)
                .map(|ws| ws.iter().map(|w| (Arc::clone(&w.writer), w.id)).collect())
                .unwrap_or_default()
        };
        for (writer, id) in waiters {
            writer.send(&event_line(id, line));
        }
    });
    let mut live_config = LiveConfig::default().with_tap(tap);
    live_config.path = options.live_path.clone();
    let live_session = obs::live::session(live_config)?;

    let workers: Vec<_> = (0..options.workers.max(1))
        .map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(shared))
        })
        .collect();

    install_signal_handlers();
    let max_pending = options.max_pending_per_client.max(1);

    match &options.socket {
        Some(path) => {
            // A stale socket file from a previous run would fail the bind.
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)
                .map_err(|e| format!("cannot bind unix socket `{path}`: {e}"))?;
            listener
                .set_nonblocking(true)
                .map_err(|e| format!("cannot poll unix socket `{path}`: {e}"))?;
            eprintln!("mnsim-serve: listening on {path} (schema_version {SCHEMA_VERSION})");
            let mut client_seq = 0u64;
            loop {
                if SIGNALLED.load(Ordering::SeqCst) || shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        client_seq += 1;
                        SERVE_CLIENTS.inc();
                        let client = client_seq;
                        let shared = Arc::clone(&shared);
                        let write_half = stream
                            .try_clone()
                            .map(|s| Arc::new(ClientWriter::new(Box::new(s))));
                        let Ok(writer) = write_half else { continue };
                        std::thread::spawn(move || {
                            serve_client(&shared, stream, writer, client, max_pending);
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(25));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(25)),
                }
            }
            shared.request_shutdown();
            // Workers drain every accepted job before exiting (only *new*
            // submissions are rejected once the flag is set), so a batch
            // piped ahead of a shutdown line is answered in full.
            for worker in workers {
                let _ = worker.join();
            }
            let _ = std::fs::remove_file(path);
        }
        None => {
            // Stdio mode: one client, read on this thread. EOF = goodbye.
            SERVE_CLIENTS.inc();
            let writer = Arc::new(ClientWriter::new(Box::new(std::io::stdout())));
            serve_client(&shared, std::io::stdin(), writer, 1, max_pending);
            shared.request_shutdown();
            for worker in workers {
                let _ = worker.join();
            }
        }
    }

    live_session.finish();
    if let Some(path) = &options.metrics_path {
        let snapshot = metrics_session.snapshot().to_json();
        std::fs::write(path, snapshot)
            .map_err(|e| format!("cannot write metrics snapshot `{path}`: {e}"))?;
    }
    drop(metrics_session);
    eprintln!("mnsim-serve: shut down cleanly");
    Ok(())
}

// Unix-socket helpers used by the tests and the `repro client` mode.

/// Connects a raw client stream to a serving socket (test/CLI helper).
///
/// # Errors
///
/// Propagates the connect failure as a message.
pub fn connect_stream(path: &str) -> Result<UnixStream, String> {
    UnixStream::connect(path).map_err(|e| format!("cannot connect to `{path}`: {e}"))
}
