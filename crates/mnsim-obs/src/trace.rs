//! Hierarchical structured tracing: a lock-light, thread-aware event
//! buffer of typed events (span begin/end, instants, module-perf
//! attributions) with explicit parent/child span IDs.
//!
//! Where the metric registry answers *how often* and *how long in
//! aggregate*, the trace answers *where in the hierarchy*: a simulation
//! run yields a tree that mirrors the paper's structure — run → layer →
//! bank → unit → module — and parallel work (fault-sim trials, DSE chunks)
//! lands in per-thread lanes that stay attributed to the spawning span
//! through explicit parent IDs.
//!
//! Program code records into the trace through the crate's handles: a
//! [`crate::Span`] writes its Begin/End pair here (and its histogram in
//! the registry), a [`crate::Mark`] its instant (and its counter).
//! [`module_perf`] records modelled module time and energy, and
//! [`span`] is a trace-only span without a handle, for tools that bracket
//! their own calls.
//!
//! # Design
//!
//! * **Off by default, one relaxed atomic when off.** Every entry point
//!   first reads the crate's sink word; a disabled span never reads the
//!   clock, never allocates, and never touches a lock.
//! * **Lock-light when on.** Each thread buffers events in a
//!   thread-local `Vec` and only takes the global sink mutex once per
//!   `FLUSH_THRESHOLD` events (and at thread exit), so tracing a
//!   fault-sim worker pool never serializes the workers on a shared lock.
//! * **Bounded.** The sink is capped (`DEFAULT_CAPACITY` events);
//!   overflow drops the newest events and counts them, so a runaway sweep
//!   degrades to an incomplete trace instead of unbounded memory.
//! * **Self-contained events.** `End` events repeat the span's name,
//!   level and parent, so exporters never need cross-event joins to
//!   recover the tree.
//!
//! # Collection contract
//!
//! [`session`] opens an exclusive trace window (its own lock, independent
//! of the metrics [`crate::session`]); [`Session::finish`] disables
//! tracing, flushes the calling thread's buffer and drains the sink.
//! Worker threads flush their buffers when they exit, so **join every
//! traced worker before calling `finish`** (all in-repo parallelism uses
//! `std::thread::scope`, which guarantees this). Events still buffered in
//! a live thread at `finish` time are lost to that session.
//!
//! # Example
//!
//! ```
//! use mnsim_obs::{trace, Level, Span};
//!
//! static LAYER: Span = Span::new("layer", Level::Layer);
//!
//! let session = trace::session();
//! {
//!     let _run = trace::span("run", Level::Run);
//!     let _layer = LAYER.enter_at(0);
//!     trace::module_perf("crossbar", 1e-9, 2e-12);
//! }
//! let t = session.finish();
//! assert_eq!(t.events.len(), 5); // 2 begins + 2 ends + 1 module sample
//! trace::validate_chrome_trace(&t.to_chrome_json()).unwrap();
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use crate::json::{parse_json, write_json_number, write_json_string, JsonValue};
use crate::{SpanGuard, Window, TRACE};

/// Events a thread buffers locally before taking the sink lock.
const FLUSH_THRESHOLD: usize = 256;

/// Default sink capacity (events) before overflow drops the newest.
pub(crate) const DEFAULT_CAPACITY: usize = 1 << 22;

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_LANE: AtomicU64 = AtomicU64::new(0);
static GENERATION: AtomicU64 = AtomicU64::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);

/// `true` if trace recording is globally enabled.
#[inline]
pub fn enabled() -> bool {
    crate::sinks() & TRACE != 0
}

/// The hierarchy level a span or sample belongs to, mirroring the paper's
/// Table-I structure plus the execution lanes this repo adds on top.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// A whole simulation / exploration run.
    Run,
    /// One neuromorphic layer (== one computation bank descriptor).
    Layer,
    /// Level-2: a computation bank.
    Bank,
    /// Level-3: a computation unit.
    Unit,
    /// A leaf module (crossbar / DAC / ADC / adder tree / pooling / neuron).
    Module,
    /// A pipeline stage of the top-level flow (accuracy, propagate, …).
    Stage,
    /// One Monte-Carlo fault trial.
    Trial,
    /// One parallel work chunk (DSE / fault-sim worker).
    Chunk,
    /// Anything else.
    Other,
}

impl Level {
    /// Stable lowercase name (used as the Chrome-trace `cat` field).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Run => "run",
            Level::Layer => "layer",
            Level::Bank => "bank",
            Level::Unit => "unit",
            Level::Module => "module",
            Level::Stage => "stage",
            Level::Trial => "trial",
            Level::Chunk => "chunk",
            Level::Other => "other",
        }
    }
}

/// What one [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Span opened.
    Begin,
    /// Span closed.
    End,
    /// A point-in-time marker (a [`crate::Mark`]).
    Instant,
    /// A module performance attribution: `value` carries the module's
    /// latency contribution in seconds, `value2` its dynamic energy in
    /// joules (both straight from the `ModulePerf` the report uses).
    ModulePerf,
}

/// One trace event. `End` events repeat `name`/`level`/`parent` so the
/// record is self-contained.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event type.
    pub kind: EventKind,
    /// Static label; rendered as `name[index]` when `index >= 0`.
    pub name: &'static str,
    /// Optional index (layer number, trial number, …); `-1` for none.
    pub index: i64,
    /// Hierarchy level.
    pub level: Level,
    /// Span ID (`Begin`/`End`), or the enclosing span for samples.
    pub id: u64,
    /// Parent span ID (0 = root).
    pub parent: u64,
    /// Thread lane (0 = first thread to record in the session).
    pub lane: u64,
    /// Nanoseconds since the process trace epoch.
    pub t_ns: u64,
    /// Sample payload (instant value, module latency seconds).
    pub value: f64,
    /// Second payload (module energy joules); 0.0 otherwise.
    pub value2: f64,
}

impl Event {
    /// `name[index]` or plain `name`.
    pub fn label(&self) -> String {
        if self.index >= 0 {
            format!("{}[{}]", self.name, self.index)
        } else {
            self.name.to_string()
        }
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch: the one clock every span
/// edge reads.
pub(crate) fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

fn sink() -> &'static Mutex<Vec<Event>> {
    static SINK: OnceLock<Mutex<Vec<Event>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(Vec::new()))
}

fn lock_sink() -> MutexGuard<'static, Vec<Event>> {
    sink().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Per-thread buffer + span stack. Flushed into the sink at threshold and
/// on thread exit (drop).
struct LocalBuf {
    generation: u64,
    lane: u64,
    stack: Vec<u64>,
    buf: Vec<Event>,
}

impl LocalBuf {
    fn new() -> Self {
        LocalBuf {
            generation: u64::MAX,
            lane: 0,
            stack: Vec::new(),
            buf: Vec::new(),
        }
    }

    /// Re-syncs with the current session (lanes and span stacks reset per
    /// session so exports are deterministic for deterministic workloads).
    fn sync(&mut self) {
        let generation = GENERATION.load(Ordering::Relaxed);
        if self.generation != generation {
            self.generation = generation;
            self.lane = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
            self.stack.clear();
            self.buf.clear();
        }
    }

    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let mut sink = lock_sink();
        let capacity = CAPACITY.load(Ordering::Relaxed);
        let room = capacity.saturating_sub(sink.len());
        if self.buf.len() > room {
            DROPPED.fetch_add((self.buf.len() - room) as u64, Ordering::Relaxed);
            self.buf.truncate(room);
        }
        sink.append(&mut self.buf);
    }
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        if self.generation == GENERATION.load(Ordering::Relaxed) {
            self.flush();
        }
    }
}

thread_local! {
    static LOCAL: RefCell<LocalBuf> = RefCell::new(LocalBuf::new());
}

fn with_local<R>(f: impl FnOnce(&mut LocalBuf) -> R) -> R {
    LOCAL.with(|cell| {
        let mut local = cell.borrow_mut();
        local.sync();
        f(&mut local)
    })
}

fn push_event(local: &mut LocalBuf, event: Event) {
    local.buf.push(event);
    if local.buf.len() >= FLUSH_THRESHOLD {
        local.flush();
    }
}

// ---------------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------------

/// The trace half of an open span: what its `End` event repeats.
#[derive(Debug)]
pub(crate) struct Token {
    pub(crate) id: u64,
    parent: u64,
    name: &'static str,
    index: i64,
    level: Level,
}

/// Records a span's `Begin` at `t_ns` under `parent` (default: the
/// thread's innermost open span) and pushes it on the thread's stack.
pub(crate) fn begin(
    name: &'static str,
    level: Level,
    index: i64,
    parent: Option<u64>,
    t_ns: u64,
) -> Token {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    with_local(|local| {
        let parent = parent.unwrap_or_else(|| local.stack.last().copied().unwrap_or(0));
        local.stack.push(id);
        push_event(
            local,
            Event {
                kind: EventKind::Begin,
                name,
                index,
                level,
                id,
                parent,
                lane: local.lane,
                t_ns,
                value: 0.0,
                value2: 0.0,
            },
        );
        Token {
            id,
            parent,
            name,
            index,
            level,
        }
    })
}

/// Records the `End` of `token`'s span at `t_ns` and pops it.
pub(crate) fn end(token: Token, t_ns: u64) {
    with_local(|local| {
        // The stack may have been cleared by a new session opening while
        // the span was open; only pop our own frame.
        if local.stack.last() == Some(&token.id) {
            local.stack.pop();
        }
        push_event(
            local,
            Event {
                kind: EventKind::End,
                name: token.name,
                index: token.index,
                level: token.level,
                id: token.id,
                parent: token.parent,
                lane: local.lane,
                t_ns,
                value: 0.0,
                value2: 0.0,
            },
        );
        // Closing a lane's outermost span flushes the lane. Worker threads
        // (scoped pools in dse / fault_sim) may be observed as finished
        // before their TLS destructors run, so the drop-time flush alone
        // could land after `Session::finish` has already drained the sink.
        if local.stack.is_empty() {
            local.flush();
        }
    });
}

/// Opens a trace-only span (no histogram) under the current thread's
/// innermost open span. Program code times its scopes with a
/// [`crate::Span`] instead, which feeds the trace and the metrics alike;
/// this form is for tools that bracket their own calls.
#[inline]
pub fn span(name: &'static str, level: Level) -> SpanGuard {
    if !enabled() {
        return SpanGuard { open: None };
    }
    SpanGuard::begin(None, true, name, level, -1, None)
}

/// The innermost open span on this thread (0 if none / disabled).
pub fn current_span() -> u64 {
    if !enabled() {
        return 0;
    }
    with_local(|local| local.stack.last().copied().unwrap_or(0))
}

// ---------------------------------------------------------------------------
// Lane allocation
// ---------------------------------------------------------------------------

/// Reserves `count` consecutive lanes and returns the first one.
///
/// By default every thread is lazily assigned the next free lane the
/// first time it records an event, so lane numbers depend on which worker
/// happens to touch the trace first. A worker pool that wants *stable*
/// lane numbering (worker `w` always renders on the same lane) reserves a
/// block up front on the spawning thread and hands `base + w` to each
/// worker via [`pin_lane`].
///
/// Returns 0 without reserving anything while tracing is disabled.
pub fn reserve_lanes(count: u64) -> u64 {
    if !enabled() || count == 0 {
        return 0;
    }
    NEXT_LANE.fetch_add(count, Ordering::Relaxed)
}

/// Pins the calling thread to `lane` for the rest of the current session.
///
/// Use with a block from [`reserve_lanes`]: the spawning thread reserves
/// one lane per worker, and each worker pins its own before recording
/// anything. Pinning after the thread has already recorded events moves
/// only the *subsequent* events; a new [`session`] clears the pin (lanes
/// are session-scoped). No-op while tracing is disabled.
pub fn pin_lane(lane: u64) {
    if !enabled() {
        return;
    }
    with_local(|local| local.lane = lane);
}

fn push_sample(kind: EventKind, name: &'static str, level: Level, value: f64, value2: f64) {
    let t_ns = now_ns();
    with_local(|local| {
        let parent = local.stack.last().copied().unwrap_or(0);
        push_event(
            local,
            Event {
                kind,
                name,
                index: -1,
                level,
                id: parent,
                parent,
                lane: local.lane,
                t_ns,
                value,
                value2,
            },
        );
    });
}

/// Records a point-in-time marker attributed to the enclosing span (the
/// trace half of a [`crate::Mark`]; the caller checked the gate).
pub(crate) fn instant(name: &'static str, level: Level, value: f64) {
    push_sample(EventKind::Instant, name, level, value, 0.0);
}

/// Records a module performance attribution: the module's latency
/// contribution (seconds) and dynamic energy (joules), straight from the
/// `ModulePerf` record the report aggregates.
#[inline]
pub fn module_perf(name: &'static str, latency_seconds: f64, energy_joules: f64) {
    if enabled() {
        push_sample(
            EventKind::ModulePerf,
            name,
            Level::Module,
            latency_seconds,
            energy_joules,
        );
    }
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

/// An exclusive tracing window. Independent of the metrics
/// [`crate::session`] — the two can be nested freely.
#[derive(Debug)]
pub struct Session {
    window: Window,
}

/// Opens an exclusive trace session: takes the trace lock, clears the
/// sink, resets span IDs / lanes / drop counts, and enables recording.
pub fn session() -> Session {
    session_with_capacity(DEFAULT_CAPACITY)
}

/// [`session`] with a custom event capacity.
pub(crate) fn session_with_capacity(capacity: usize) -> Session {
    let Ok(window) = Window::open(TRACE, || {
        lock_sink().clear();
        DROPPED.store(0, Ordering::Relaxed);
        CAPACITY.store(capacity.max(1), Ordering::Relaxed);
        NEXT_SPAN_ID.store(1, Ordering::Relaxed);
        NEXT_LANE.store(0, Ordering::Relaxed);
        // Invalidate every thread's cached lane / stack / buffered events.
        GENERATION.fetch_add(1, Ordering::Relaxed);
        Ok::<(), Infallible>(())
    });
    Session { window }
}

impl Session {
    /// Disables tracing and returns everything recorded. Join traced
    /// worker threads first (see the module docs).
    pub fn finish(self) -> Trace {
        self.window.close();
        with_local(LocalBuf::flush);
        let mut events = std::mem::take(&mut *lock_sink());
        // Stable sort on the timestamp alone: a same-timestamp tie must
        // keep the per-lane emission order (sorting by id as well could
        // move an `End` before a later-opened span's `Begin` and break the
        // per-lane stack discipline).
        events.sort_by_key(|e| e.t_ns);
        Trace {
            events,
            dropped: DROPPED.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// The collected trace and its exporters
// ---------------------------------------------------------------------------

/// A finished trace: events in timestamp order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// All collected events, in timestamp order (per-lane emission order
    /// preserved for same-timestamp ties).
    pub events: Vec<Event>,
    /// Events dropped to the capacity cap.
    pub dropped: u64,
}

/// A span reconstructed from its begin/end pair.
#[derive(Debug, Clone, PartialEq)]
struct Node {
    name: &'static str,
    level: Level,
    parent: u64,
    start_ns: u64,
    end_ns: u64,
    children_ns: u64,
}

impl Node {
    fn total_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    fn self_ns(&self) -> u64 {
        self.total_ns().saturating_sub(self.children_ns)
    }
}

impl Trace {
    /// First event timestamp (the export origin), 0 for an empty trace.
    fn t0(&self) -> u64 {
        self.events.iter().map(|e| e.t_ns).min().unwrap_or(0)
    }

    /// Reconstructs the span tree: id → node, with per-node child time
    /// accumulated for self-time computation. Unmatched begins (span still
    /// open at finish) are closed at the last observed timestamp.
    fn nodes(&self) -> BTreeMap<u64, Node> {
        let mut nodes: BTreeMap<u64, Node> = BTreeMap::new();
        let last_ns = self.events.iter().map(|e| e.t_ns).max().unwrap_or(0);
        for event in &self.events {
            match event.kind {
                EventKind::Begin => {
                    nodes.insert(
                        event.id,
                        Node {
                            name: event.name,
                            level: event.level,
                            parent: event.parent,
                            start_ns: event.t_ns,
                            end_ns: last_ns,
                            children_ns: 0,
                        },
                    );
                }
                EventKind::End => {
                    if let Some(node) = nodes.get_mut(&event.id) {
                        node.end_ns = event.t_ns;
                    }
                }
                _ => {}
            }
        }
        let spans: Vec<(u64, u64, u64)> = nodes
            .iter()
            .map(|(&id, n)| (id, n.parent, n.total_ns()))
            .collect();
        for (_, parent, total) in spans {
            if let Some(parent_node) = nodes.get_mut(&parent) {
                parent_node.children_ns += total;
            }
        }
        nodes
    }

    /// Serializes to Chrome trace-event JSON (the object form with a
    /// `traceEvents` array), loadable in `chrome://tracing` and Perfetto.
    ///
    /// Timestamps are microseconds with nanosecond precision, normalized
    /// so the first event sits at `ts == 0`. Span begin/end map to
    /// `B`/`E` phases, instants to `i`, module samples to `C`. Each lane becomes a `tid` with a thread-name metadata record.
    pub fn to_chrome_json(&self) -> String {
        let t0 = self.t0();
        let ts = |t_ns: u64| (t_ns - t0) as f64 / 1000.0;
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut lanes: Vec<u64> = self.events.iter().map(|e| e.lane).collect();
        lanes.sort_unstable();
        lanes.dedup();
        for lane in &lanes {
            push_record(&mut out, &mut first, |out| {
                let _ = write!(
                    out,
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{lane},\
                     \"args\":{{\"name\":\"lane-{lane}\"}}}}"
                );
            });
        }
        for event in &self.events {
            push_record(&mut out, &mut first, |out| {
                out.push_str("{\"name\":");
                write_json_string(out, &event.label());
                let (cat, ph) = match event.kind {
                    EventKind::Begin => (event.level.as_str(), "\"B\""),
                    EventKind::End => (event.level.as_str(), "\"E\""),
                    EventKind::Instant => (event.level.as_str(), "\"i\",\"s\":\"t\""),
                    EventKind::ModulePerf => ("module", "\"C\""),
                };
                let _ = write!(
                    out,
                    ",\"cat\":\"{cat}\",\"ph\":{ph},\"ts\":{ts:.3},\"pid\":1,\"tid\":{tid},\
                     \"args\":{{",
                    ts = ts(event.t_ns),
                    tid = event.lane,
                );
                match event.kind {
                    EventKind::Begin | EventKind::End => {
                        let _ = write!(out, "\"id\":{},\"parent\":{}", event.id, event.parent);
                    }
                    EventKind::Instant => {
                        out.push_str("\"value\":");
                        write_json_number(out, event.value);
                    }
                    EventKind::ModulePerf => {
                        out.push_str("\"time_s\":");
                        write_json_number(out, event.value);
                        out.push_str(",\"energy_j\":");
                        write_json_number(out, event.value2);
                    }
                }
                out.push_str("}}");
            });
        }
        let _ = writeln!(
            out,
            "],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"dropped\":{}}}}}",
            self.dropped
        );
        out
    }

    /// Aggregates the trace into a [`TraceSummary`].
    pub fn summary(&self) -> TraceSummary {
        let nodes = self.nodes();
        let mut levels: BTreeMap<String, LevelStats> = BTreeMap::new();
        let mut spans: BTreeMap<String, SpanStats> = BTreeMap::new();
        let mut root_ns = 0u64;
        for node in nodes.values() {
            if node.parent == 0 || !nodes.contains_key(&node.parent) {
                root_ns += node.total_ns();
            }
            let level = levels.entry(node.level.as_str().to_string()).or_default();
            level.spans += 1;
            level.total_ns += node.total_ns();
            level.self_ns += node.self_ns();
            let span = spans
                .entry(node.name.to_string())
                .or_insert_with(|| SpanStats {
                    level: node.level.as_str().to_string(),
                    ..SpanStats::default()
                });
            span.count += 1;
            span.total_ns += node.total_ns();
            span.self_ns += node.self_ns();
            span.max_ns = span.max_ns.max(node.total_ns());
        }
        let mut modules: BTreeMap<String, ModuleStats> = BTreeMap::new();
        for event in &self.events {
            if event.kind == EventKind::ModulePerf {
                let module = modules.entry(event.name.to_string()).or_default();
                module.samples += 1;
                module.time_s += event.value;
                module.energy_j += event.value2;
            }
        }
        TraceSummary {
            root_ns,
            levels,
            spans,
            modules,
            events: self.events.len(),
            dropped: self.dropped,
        }
    }

    /// Per-level **wall-clock** self time: the union of every span's
    /// self-time intervals (its own duration minus its children's
    /// intervals), merged across lanes, in nanoseconds per
    /// [`Level::as_str`] key.
    ///
    /// Contrast with [`TraceSummary::levels`]' `self_ns`, which *sums*
    /// self time over spans — on a parallel run N workers busy for 1 ms
    /// each sum to N ms of CPU time but only ~1 ms of wall time here.
    /// For any level, `wall ≤ summed self_ns`, with equality on a serial
    /// (non-overlapping) trace.
    pub fn level_self_wall_ns(&self) -> BTreeMap<String, u64> {
        let nodes = self.nodes();
        let mut child_intervals: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for node in nodes.values() {
            child_intervals
                .entry(node.parent)
                .or_default()
                .push((node.start_ns, node.end_ns));
        }
        let mut per_level: BTreeMap<String, Vec<(u64, u64)>> = BTreeMap::new();
        for (id, node) in &nodes {
            let children = child_intervals.get(id).map_or(&[][..], Vec::as_slice);
            let mut own = subtract_intervals((node.start_ns, node.end_ns), children);
            per_level
                .entry(node.level.as_str().to_string())
                .or_default()
                .append(&mut own);
        }
        per_level
            .into_iter()
            .map(|(level, intervals)| (level, union_ns(intervals)))
            .collect()
    }
}

/// `span` minus the union of `children`, as a list of disjoint intervals.
fn subtract_intervals(span: (u64, u64), children: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(span.0), e.min(span.1)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut out = Vec::new();
    let mut cursor = span.0;
    for (s, e) in clipped {
        if s > cursor {
            out.push((cursor, s));
        }
        cursor = cursor.max(e);
    }
    if cursor < span.1 {
        out.push((cursor, span.1));
    }
    out
}

/// Total length of the union of `intervals`, in nanoseconds.
fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut open: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match open {
            Some((os, oe)) if s <= oe => open = Some((os, oe.max(e))),
            Some((os, oe)) => {
                total += oe - os;
                open = Some((s, e));
            }
            None => open = Some((s, e)),
        }
    }
    if let Some((os, oe)) = open {
        total += oe - os;
    }
    total
}

fn push_record(out: &mut String, first: &mut bool, write: impl FnOnce(&mut String)) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push('\n');
    write(out);
}

// ---------------------------------------------------------------------------
// TraceSummary
// ---------------------------------------------------------------------------

/// Per-level aggregate times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LevelStats {
    /// Spans recorded at the level.
    pub spans: u64,
    /// Sum of wall-clock durations (children included).
    pub total_ns: u64,
    /// Sum of self times (children excluded).
    pub self_ns: u64,
}

/// Per-span-name aggregate times.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanStats {
    /// The level the span was recorded at.
    pub level: String,
    /// Number of spans with this name.
    pub count: u64,
    /// Sum of wall-clock durations (children included).
    pub total_ns: u64,
    /// Sum of self times (children excluded).
    pub self_ns: u64,
    /// Longest single span.
    pub max_ns: u64,
}

/// Per-module modeled-performance attribution (from [`module_perf`]
/// samples — modeled nanoseconds/picojoules, not wall-clock).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ModuleStats {
    /// Samples recorded.
    pub samples: u64,
    /// Summed modeled latency contribution, seconds.
    pub time_s: f64,
    /// Summed modeled dynamic energy, joules.
    pub energy_j: f64,
}

/// Aggregated view of a [`Trace`]: per-level and per-span self/total
/// wall-clock time plus per-module modeled latency/energy attribution.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceSummary {
    /// Summed duration of root spans (the run's wall-clock).
    pub root_ns: u64,
    /// Per-level stats keyed by [`Level::as_str`].
    pub levels: BTreeMap<String, LevelStats>,
    /// Per-span-name stats.
    pub spans: BTreeMap<String, SpanStats>,
    /// Per-module modeled latency/energy attribution.
    pub modules: BTreeMap<String, ModuleStats>,
    /// Events in the trace.
    pub events: usize,
    /// Events dropped to the capacity cap.
    pub dropped: u64,
}

impl TraceSummary {
    /// Renders the summary as a human-readable table (the `repro --emit trace=`
    /// walkthrough in the README reads this).
    pub(crate) fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace summary — {} events, {} dropped, root {:.3} ms",
            self.events,
            self.dropped,
            self.root_ns as f64 / 1e6
        );
        let _ = writeln!(
            out,
            "  {:<10} {:>8} {:>14} {:>14}",
            "level", "spans", "total ms", "self ms"
        );
        for (level, stats) in &self.levels {
            let _ = writeln!(
                out,
                "  {:<10} {:>8} {:>14.3} {:>14.3}",
                level,
                stats.spans,
                stats.total_ns as f64 / 1e6,
                stats.self_ns as f64 / 1e6
            );
        }
        if !self.modules.is_empty() {
            let _ = writeln!(
                out,
                "  {:<14} {:>8} {:>14} {:>14}",
                "module", "samples", "model ns", "model pJ"
            );
            for (module, stats) in &self.modules {
                let _ = writeln!(
                    out,
                    "  {:<14} {:>8} {:>14.3} {:>14.3}",
                    module,
                    stats.samples,
                    stats.time_s * 1e9,
                    stats.energy_j * 1e12
                );
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Chrome-trace validator
// ---------------------------------------------------------------------------

/// Validates a Chrome trace-event JSON document: well-formed JSON, a
/// `traceEvents` array whose records carry the mandatory fields with the
/// right types, monotone non-negative normalized timestamps, and balanced
/// `B`/`E` stack discipline per `tid`.
///
/// # Errors
///
/// Returns a message naming the first violation.
pub fn validate_chrome_trace(input: &str) -> Result<(), String> {
    let root = parse_json(input)?;
    let events = root
        .get("traceEvents")
        .ok_or("missing traceEvents key")?
        .as_array()
        .ok_or("traceEvents is not an array")?;
    let mut stacks: BTreeMap<i64, Vec<String>> = BTreeMap::new();
    for (i, record) in events.iter().enumerate() {
        let ph = record
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let name = record
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?
            .to_string();
        if ph == "M" {
            continue; // metadata records carry no timestamp
        }
        let ts = record
            .get("ts")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        if ts < 0.0 || ts.is_nan() {
            return Err(format!("event {i}: negative ts {ts}"));
        }
        let tid = record
            .get("tid")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("event {i}: missing tid"))? as i64;
        record
            .get("pid")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("event {i}: missing pid"))?;
        match ph {
            "B" => stacks.entry(tid).or_default().push(name),
            "E" => {
                let top = stacks.entry(tid).or_default().pop().ok_or_else(|| {
                    format!("event {i}: E \"{name}\" without open B on tid {tid}")
                })?;
                if top != name {
                    return Err(format!(
                        "event {i}: E \"{name}\" closes open span \"{top}\" on tid {tid}"
                    ));
                }
            }
            "i" | "C" | "X" => {}
            other => return Err(format!("event {i}: unknown phase {other:?}")),
        }
    }
    for (tid, stack) in &stacks {
        if !stack.is_empty() {
            return Err(format!(
                "tid {tid}: {} span(s) left open: {:?}",
                stack.len(),
                stack
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mark, Span};

    static LAYER: Span = Span::new("layer", Level::Layer);
    static TRIAL: Span = Span::new("trial", Level::Trial);
    static CHUNK: Span = Span::new("chunk", Level::Chunk);
    static POINTS: Mark = Mark::new("points", Level::Other);
    static CHECKPOINT: Mark = Mark::new("checkpoint", Level::Stage);

    /// A trace session with the metrics lock held too: the handles these
    /// tests enter feed the registry as well, and must not reach a metrics
    /// test's session running concurrently.
    fn traced() -> (crate::Session, Session) {
        (crate::session(), session())
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _lock = crate::SESSION_LOCKS[1]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        lock_sink().clear();
        {
            let guard = span("noop", Level::Run);
            assert_eq!(guard.id(), 0);
            module_perf("noop.module", 1.0, 1.0);
        }
        with_local(LocalBuf::flush);
        assert!(lock_sink().is_empty());
        assert_eq!(current_span(), 0);
    }

    #[test]
    fn spans_nest_and_balance() {
        let (_metrics, session) = traced();
        {
            let run = span("run", Level::Run);
            assert_eq!(current_span(), run.id());
            {
                let layer = LAYER.enter_at(0);
                assert_eq!(current_span(), layer.id());
                POINTS.record(3.0);
            }
            assert_eq!(current_span(), run.id());
        }
        let trace = session.finish();
        assert_eq!(trace.dropped, 0);
        let begins: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Begin)
            .collect();
        let ends: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::End)
            .collect();
        assert_eq!(begins.len(), 2);
        assert_eq!(ends.len(), 2);
        // The layer's parent is the run.
        let run_id = begins[0].id;
        assert_eq!(begins[1].parent, run_id);
        // The mark's instant is attributed to the layer.
        let instant = trace
            .events
            .iter()
            .find(|e| e.kind == EventKind::Instant)
            .unwrap();
        assert_eq!((instant.name, instant.value), ("points", 3.0));
        assert_eq!(instant.parent, begins[1].id);
    }

    #[test]
    fn cross_thread_spans_attach_to_explicit_parent() {
        let (_metrics, session) = traced();
        let parent_id;
        {
            let run = span("run", Level::Run);
            parent_id = run.id();
            std::thread::scope(|scope| {
                for t in 0..3i64 {
                    scope.spawn(move || {
                        let _trial = TRIAL.enter_under(t, parent_id);
                    });
                }
            });
        }
        let trace = session.finish();
        let trials: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Begin && e.name == "trial")
            .collect();
        assert_eq!(trials.len(), 3);
        for trial in &trials {
            assert_eq!(trial.parent, parent_id);
            assert_ne!(trial.lane, 0); // workers get their own lanes
        }
    }

    #[test]
    fn reserved_lanes_pin_workers_deterministically() {
        let (metrics, session) = traced();
        let base = reserve_lanes(3);
        std::thread::scope(|scope| {
            for w in 0..3i64 {
                scope.spawn(move || {
                    pin_lane(base + w as u64);
                    let _chunk = CHUNK.enter_at(w);
                });
            }
        });
        let trace = session.finish();
        drop(metrics);
        for w in 0..3i64 {
            let begin = trace
                .events
                .iter()
                .find(|e| e.kind == EventKind::Begin && e.name == "chunk" && e.index == w)
                .expect("chunk span recorded");
            // Worker w always renders on lane base + w, regardless of which
            // thread touched the trace first.
            assert_eq!(begin.lane, base + w as u64, "worker {w}");
        }

        // Outside a session both calls degrade to no-ops.
        let _lock = crate::SESSION_LOCKS[1]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        assert_eq!(reserve_lanes(4), 0);
        pin_lane(17);
    }

    #[test]
    fn capacity_cap_counts_drops() {
        let session = session_with_capacity(8);
        for _ in 0..100 {
            let _s = span("tick", Level::Other);
        }
        let trace = session.finish();
        assert!(trace.events.len() <= 8);
        assert_eq!(trace.events.len() as u64 + trace.dropped, 200);
    }

    #[test]
    fn chrome_export_validates() {
        let (_metrics, session) = traced();
        {
            let _run = span("run", Level::Run);
            {
                let _layer = LAYER.enter_at(0);
                module_perf("crossbar", 2e-9, 3e-12);
            }
            CHECKPOINT.record(1.0);
        }
        let trace = session.finish();
        let chrome = trace.to_chrome_json();
        validate_chrome_trace(&chrome).unwrap();
        assert!(chrome.contains("\"layer[0]\""));
        assert!(chrome.contains("\"time_s\":2e-9"));
        assert!(chrome.contains("\"name\":\"checkpoint\",\"cat\":\"stage\",\"ph\":\"i\""));
    }

    #[test]
    fn summary_aggregates_levels_and_modules() {
        let (_metrics, session) = traced();
        {
            let _run = span("run", Level::Run);
            for i in 0..2 {
                let _layer = LAYER.enter_at(i);
                module_perf("adc", 1e-9, 4e-12);
                module_perf("adc", 1e-9, 4e-12);
            }
        }
        let trace = session.finish();
        let summary = trace.summary();
        assert_eq!(summary.levels["run"].spans, 1);
        assert_eq!(summary.levels["layer"].spans, 2);
        assert_eq!(summary.spans["layer"].count, 2);
        let adc = &summary.modules["adc"];
        assert_eq!(adc.samples, 4);
        assert!((adc.time_s - 4e-9).abs() < 1e-18);
        assert!((adc.energy_j - 16e-12).abs() < 1e-18);
        // Self times telescope to the root duration.
        let self_sum: u64 = summary.levels.values().map(|l| l.self_ns).sum();
        assert_eq!(self_sum, summary.root_ns);
        assert!(!summary.to_table().is_empty());
    }

    #[test]
    fn serial_wall_equals_summed_self_time() {
        let (_metrics, session) = traced();
        {
            let _run = span("run", Level::Run);
            for i in 0..2 {
                let _layer = LAYER.enter_at(i);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let trace = session.finish();
        let wall = trace.level_self_wall_ns();
        let summary = trace.summary();
        // Sequential spans never overlap: the interval union degenerates to
        // the plain sum for every level.
        for (level, stats) in &summary.levels {
            assert_eq!(wall[level], stats.self_ns, "level {level}");
        }
    }

    #[test]
    fn parallel_lanes_merge_to_less_wall_than_cpu() {
        let (_metrics, session) = traced();
        let parent_id;
        {
            let run = span("run", Level::Run);
            parent_id = run.id();
            std::thread::scope(|scope| {
                for w in 0..3i64 {
                    scope.spawn(move || {
                        let _chunk = CHUNK.enter_under(w, parent_id);
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    });
                }
            });
        }
        let trace = session.finish();
        let wall = trace.level_self_wall_ns();
        let summary = trace.summary();
        let cpu = summary.levels["chunk"].self_ns;
        // Three concurrent 20 ms spans: ~60 ms of summed (CPU) time but
        // only ~20 ms of merged wall time.
        assert!(wall["chunk"] <= cpu);
        assert!(
            wall["chunk"] < cpu - cpu / 3,
            "expected overlap: wall {} !< cpu {}",
            wall["chunk"],
            cpu
        );
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        for (doc, why) in [
            ("{}", "no traceEvents"),
            ("{\"traceEvents\": 3}", "not an array"),
            (
                "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"E\",\"ts\":0,\"pid\":1,\"tid\":0}]}",
                "E without B",
            ),
            (
                "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"B\",\"ts\":0,\"pid\":1,\"tid\":0}]}",
                "unclosed span",
            ),
            (
                "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"B\",\"ts\":0,\"pid\":1,\"tid\":0},\
                 {\"name\":\"b\",\"ph\":\"E\",\"ts\":1,\"pid\":1,\"tid\":0}]}",
                "mismatched close",
            ),
            (
                "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"B\",\"pid\":1,\"tid\":0}]}",
                "missing ts",
            ),
        ] {
            assert!(validate_chrome_trace(doc).is_err(), "accepted: {why}");
        }
    }
}
