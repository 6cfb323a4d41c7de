//! # mnsim-obs — one instrumentation model for the MNSIM reproduction
//!
//! Three sinks — the metric registry (counters, gauges, histograms), the
//! hierarchical [`trace`] and the [`live`] NDJSON stream — behind one
//! recording layer:
//!
//! * **One gate.** One atomic sink word carries a bit per sink. Every
//!   recording call first reads it once (relaxed); a disabled call is
//!   that load and a branch, and a disabled span never reads the clock.
//! * **One handle per kind of fact.** A [`Counter`] counts, a [`Span`]
//!   times a scope and a [`Mark`] says "this happened". Each records its
//!   fact once and fans it out to whichever sinks are open: a span feeds
//!   the histogram of its name and a Begin/End pair of the same name, a
//!   mark adds one to the counter of its name and emits the trace instant
//!   of that name. So a run's metrics histogram of a span is the
//!   aggregate of its trace spans, by construction.
//! * **One session mechanism.** [`session`], [`trace::session`] and
//!   [`live::session`] each take their sink's lock, reset the sink and
//!   set its bit; dropping (or finishing) the session clears the bit.
//!   Sessions of different sinks nest freely.
//! * **One emitter.** [`EmitSpec`] parses the front ends'
//!   `--emit <kind>=<path>` flags, opens the sessions they need and
//!   writes the artifacts.
//! * **Cheap when on.** Each call site declares a `static` handle whose
//!   backing cell is resolved once through the registry mutex and cached
//!   in a [`OnceLock`]; later updates are lock-free atomics.
//! * **Zero dependencies.** The workspace is offline; JSON and CSV export
//!   are hand-rolled, and [`validate_json`] lets tests and CI reject
//!   malformed dumps without `serde`.
//!
//! # Examples
//!
//! ```
//! use mnsim_obs as obs;
//!
//! static SOLVES: obs::Counter = obs::Counter::new("demo.solves");
//! static SOLVE: obs::Span = obs::Span::new("demo.solve", obs::Level::Stage);
//!
//! let metrics = obs::session(); // locks, resets, enables the registry
//! let trace = obs::trace::session(); // the same span also lands here
//! {
//!     let _timer = SOLVE.enter();
//!     SOLVES.inc();
//! }
//! let snapshot = metrics.snapshot();
//! assert_eq!(snapshot.counters["demo.solves"], 1);
//! assert_eq!(snapshot.histograms["demo.solve"].count, 1);
//! assert_eq!(trace.finish().summary().spans["demo.solve"].count, 1);
//! obs::validate_json(&snapshot.to_json()).unwrap();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

mod emit;
mod hash;
mod json;
pub mod live;
mod snapshot;
pub mod trace;

pub use emit::{EmitSpec, Emitter};
pub use hash::{fnv64, Fnv64};
pub use json::{parse_json, validate_json, write_json_number, write_json_string, JsonValue};
pub use snapshot::{BucketCount, HistogramSnapshot, MetricsSnapshot};
pub use trace::{validate_chrome_trace, Level, Trace, TraceSummary};

/// Number of exponential histogram buckets (powers of two from `2⁻⁶⁴` to
/// `2³⁴`, plus one overflow bucket). The floor sits below the smallest
/// quantities recorded (KCL residuals of ~1e-14 A), so their quantiles
/// resolve to one power of two.
pub(crate) const BUCKET_COUNT: usize = 99;
/// Exponent offset of bucket 0 (`2^-BUCKET_OFFSET` is the smallest edge).
pub(crate) const BUCKET_OFFSET: i32 = 64;

// ---------------------------------------------------------------------------
// The sink word and the one session mechanism
// ---------------------------------------------------------------------------

/// Sink-word bit of the metric registry.
pub(crate) const METRICS: u32 = 1;
/// Sink-word bit of the trace.
pub(crate) const TRACE: u32 = 1 << 1;
/// Sink-word bit of the live stream.
pub(crate) const LIVE: u32 = 1 << 2;

/// One bit per open sink.
static SINKS: AtomicU32 = AtomicU32::new(0);

/// The sinks currently recording (one relaxed load).
#[inline]
pub(crate) fn sinks() -> u32 {
    SINKS.load(Ordering::Relaxed)
}

/// `true` if metric recording is globally enabled.
#[inline]
pub fn enabled() -> bool {
    sinks() & METRICS != 0
}

/// Globally enables or disables metric recording. Outside tests and tools
/// that already hold the [`session`] lock, open a [`session`] instead.
pub fn set_enabled(on: bool) {
    if on {
        SINKS.fetch_or(METRICS, Ordering::Relaxed);
    } else {
        SINKS.fetch_and(!METRICS, Ordering::Relaxed);
    }
}

/// One session lock per sink bit.
static SESSION_LOCKS: [Mutex<()>; 3] = [const { Mutex::new(()) }; 3];

/// One sink's exclusive window: the sink's session lock, held while its
/// bit is set in the sink word. Every session type is built on it.
///
/// The sink word is a **relaxed** atomic: flipping a bit creates no
/// happens-before edge with other threads. A fact is recorded iff the
/// recording thread observes the bit, so:
///
/// * Open a session **before** spawning instrumented workers. Thread
///   spawning synchronizes-with the new thread, so workers spawned after
///   the session opens observe it (the worker pool of every campaign
///   spawns inside the session and is covered by this).
/// * Work already in flight on threads spawned **before** the session
///   opened may race the flip and have its facts silently dropped. Join
///   or synchronize with such threads first if their facts matter.
/// * Symmetrically, join everything a session measures before reading it.
#[derive(Debug)]
pub(crate) struct Window {
    bit: u32,
    _lock: MutexGuard<'static, ()>,
}

impl Window {
    /// Takes `bit`'s session lock, runs `reset` under it and, when the
    /// reset succeeds, sets the bit.
    pub(crate) fn open<E>(bit: u32, reset: impl FnOnce() -> Result<(), E>) -> Result<Self, E> {
        let lock = SESSION_LOCKS[bit.trailing_zeros() as usize]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // Overlap detector: a sink must be off outside its sessions. A set
        // bit here means something enabled it without holding the lock, so
        // its facts would silently bleed into (or be reset by) this session.
        debug_assert!(
            sinks() & bit == 0,
            "a session opened while its sink was already recording"
        );
        reset()?;
        SINKS.fetch_or(bit, Ordering::Relaxed);
        Ok(Window { bit, _lock: lock })
    }

    /// Clears the bit; the lock is held until the window drops.
    pub(crate) fn close(&self) {
        SINKS.fetch_and(!self.bit, Ordering::Relaxed);
    }
}

impl Drop for Window {
    fn drop(&mut self) {
        self.close();
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// The cells behind every registered metric, keyed by name.
///
/// Cells are leaked (`Box::leak`) so call-site statics can cache `'static`
/// references and update them without re-entering this mutex.
#[derive(Default)]
struct Registry {
    counters: HashMap<&'static str, &'static AtomicU64>,
    gauges: HashMap<&'static str, &'static AtomicU64>,
    histograms: HashMap<&'static str, &'static HistogramCell>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

fn lock_registry() -> MutexGuard<'static, Registry> {
    registry().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Resets every registered metric to zero (counts, sums, extrema and
/// buckets). Registration itself is permanent — cells are static.
pub fn reset() {
    let reg = lock_registry();
    for cell in reg.counters.values() {
        cell.store(0, Ordering::Relaxed);
    }
    for cell in reg.gauges.values() {
        cell.store(0f64.to_bits(), Ordering::Relaxed);
    }
    for cell in reg.histograms.values() {
        cell.reset();
    }
}

/// Takes a point-in-time [`MetricsSnapshot`] of every registered metric.
///
/// Metrics that have never been touched while enabled (zero count/value)
/// are skipped so snapshots only show what actually ran.
pub fn snapshot() -> MetricsSnapshot {
    let reg = lock_registry();
    let mut snap = MetricsSnapshot::default();
    for (&name, cell) in &reg.counters {
        let value = cell.load(Ordering::Relaxed);
        if value > 0 {
            snap.counters.insert(name.to_string(), value);
        }
    }
    for (&name, cell) in &reg.gauges {
        let value = f64::from_bits(cell.load(Ordering::Relaxed));
        if value != 0.0 {
            snap.gauges.insert(name.to_string(), value);
        }
    }
    for (&name, cell) in &reg.histograms {
        if let Some(hist) = cell.snapshot() {
            snap.histograms.insert(name.to_string(), hist);
        }
    }
    snap
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

/// An exclusive metrics window: the registry's session lock is held, the
/// registry is reset, and recording is enabled until the guard drops.
///
/// Tests and tools that assert on global metric values must go through
/// [`session`] so concurrently running instrumented code (other tests in
/// the same binary) cannot interleave with the measurement. Open it before
/// spawning the workers it should see, and join them before
/// [`Session::snapshot`]: the sink word is a relaxed atomic.
#[derive(Debug)]
pub struct Session {
    _window: Window,
}

/// Opens an exclusive, enabled, freshly reset metrics [`Session`].
pub fn session() -> Session {
    let Ok(window) = Window::open(METRICS, || {
        reset();
        Ok::<(), Infallible>(())
    });
    Session { _window: window }
}

impl Session {
    /// Snapshot of everything recorded since the session opened.
    pub fn snapshot(&self) -> MetricsSnapshot {
        // The session must still be live: a mid-session
        // `set_enabled(false)` means an unknown suffix of the measured
        // window was silently dropped.
        debug_assert!(
            enabled(),
            "Session::snapshot() after recording was disabled mid-session"
        );
        snapshot()
    }
}

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// A monotonic counter. Declare as a `static` at the call site:
///
/// ```
/// static SOLVES: mnsim_obs::Counter = mnsim_obs::Counter::new("my.solves");
/// SOLVES.inc();
/// ```
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    cell: OnceLock<&'static AtomicU64>,
}

impl Counter {
    /// Creates a counter handle (registration happens on first use).
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            cell: OnceLock::new(),
        }
    }

    fn cell(&self) -> &'static AtomicU64 {
        self.cell.get_or_init(|| {
            *lock_registry()
                .counters
                .entry(self.name)
                .or_insert_with(|| Box::leak(Box::new(AtomicU64::new(0))))
        })
    }

    /// Adds `n` (no-op while disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.cell().fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one (no-op while disabled).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 if never recorded).
    pub fn get(&self) -> u64 {
        self.cell().load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

/// A last-write-wins floating-point value (e.g. a rate computed at the end
/// of a sweep).
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    cell: OnceLock<&'static AtomicU64>,
}

impl Gauge {
    /// Creates a gauge handle (registration happens on first use).
    pub const fn new(name: &'static str) -> Self {
        Gauge {
            name,
            cell: OnceLock::new(),
        }
    }

    fn cell(&self) -> &'static AtomicU64 {
        self.cell.get_or_init(|| {
            *lock_registry()
                .gauges
                .entry(self.name)
                .or_insert_with(|| Box::leak(Box::new(AtomicU64::new(0f64.to_bits()))))
        })
    }

    /// Stores `value` (no-op while disabled).
    #[inline]
    pub fn set(&self, value: f64) {
        if enabled() {
            self.cell().store(value.to_bits(), Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------------
// Histogram cell (shared by Histogram and Span)
// ---------------------------------------------------------------------------

/// Lock-free histogram storage: exponential power-of-two buckets plus
/// count/sum/min/max, all atomics.
pub(crate) struct HistogramCell {
    unit: &'static str,
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
    buckets: [AtomicU64; BUCKET_COUNT],
}

impl HistogramCell {
    fn new(unit: &'static str) -> Self {
        HistogramCell {
            unit,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            buckets: [const { AtomicU64::new(0) }; BUCKET_COUNT],
        }
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
        self.min_bits
            .store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        self.max_bits
            .store(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed);
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
    }

    fn record(&self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_update(&self.sum_bits, |sum| sum + value);
        atomic_f64_update(&self.min_bits, |min| min.min(value));
        atomic_f64_update(&self.max_bits, |max| max.max(value));
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// `None` if nothing has been recorded.
    fn snapshot(&self) -> Option<HistogramSnapshot> {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return None;
        }
        let mut buckets = Vec::new();
        for (i, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push(BucketCount {
                    le: bucket_upper_edge(i),
                    count: n,
                });
            }
        }
        Some(HistogramSnapshot {
            unit: self.unit.to_string(),
            count,
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            min: f64::from_bits(self.min_bits.load(Ordering::Relaxed)),
            max: f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
            buckets,
        })
    }
}

/// CAS loop applying `f` to an f64 stored as bits.
fn atomic_f64_update(bits: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut current = bits.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(current)).to_bits();
        match bits.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => current = actual,
        }
    }
}

/// Bucket `i` covers `[2^(i-OFFSET), 2^(i-OFFSET+1))`; values below the
/// range land in bucket 0, values at or above `2^34` in the last bucket.
fn bucket_index(value: f64) -> usize {
    if value <= 0.0 {
        return 0;
    }
    let exponent = value.log2().floor() as i64 + BUCKET_OFFSET as i64;
    exponent.clamp(0, BUCKET_COUNT as i64 - 1) as usize
}

/// Inclusive upper edge of bucket `i`; `+inf` for the overflow bucket.
fn bucket_upper_edge(i: usize) -> f64 {
    if i + 1 >= BUCKET_COUNT {
        f64::INFINITY
    } else {
        f64::from(i as i32 - BUCKET_OFFSET + 1).exp2()
    }
}

impl std::fmt::Debug for HistogramCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramCell")
            .field("unit", &self.unit)
            .field("count", &self.count.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// A fixed-bucket distribution of plain values (iteration counts,
/// residuals, deviations…).
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    unit: &'static str,
    cell: OnceLock<&'static HistogramCell>,
}

impl Histogram {
    /// Creates a histogram handle (registration happens on first use).
    pub const fn new(name: &'static str) -> Self {
        Histogram {
            name,
            unit: "",
            cell: OnceLock::new(),
        }
    }

    fn cell(&self) -> &'static HistogramCell {
        self.cell.get_or_init(|| {
            lock_registry()
                .histograms
                .entry(self.name)
                .or_insert_with(|| Box::leak(Box::new(HistogramCell::new(self.unit))))
        })
    }

    /// Records one observation (no-op while disabled; non-finite values are
    /// dropped).
    #[inline]
    pub fn record(&self, value: f64) {
        if enabled() {
            self.cell().record(value);
        }
    }
}

// ---------------------------------------------------------------------------
// Span
// ---------------------------------------------------------------------------

/// A timed scope at one level of the hierarchy: the one span handle.
///
/// [`Span::enter`] returns a guard that reads the clock once when it opens
/// and once when it drops. With metrics on it records the elapsed seconds
/// into the histogram `name`; with the trace on it records a Begin/End
/// pair named `name` under the thread's innermost open span. Which sinks
/// it feeds is decided when it opens.
///
/// ```
/// use mnsim_obs as obs;
///
/// static TRIAL: obs::Span = obs::Span::new("demo.trial", obs::Level::Trial);
///
/// let trace = obs::trace::session();
/// let parent = obs::trace::current_span();
/// std::thread::scope(|scope| {
///     for trial in 0..2 {
///         // Cross-thread work stays attributed through an explicit parent.
///         scope.spawn(move || drop(TRIAL.enter_under(trial, parent)));
///     }
/// });
/// assert_eq!(trace.finish().summary().spans["demo.trial"].count, 2);
/// ```
#[derive(Debug)]
pub struct Span {
    histogram: Histogram,
    level: Level,
}

impl Span {
    /// Creates a span handle (registration happens on first use).
    pub const fn new(name: &'static str, level: Level) -> Self {
        Span {
            histogram: Histogram {
                name,
                unit: "seconds",
                cell: OnceLock::new(),
            },
            level,
        }
    }

    /// Opens the span under the thread's innermost open span. While every
    /// sink it feeds is off the guard is inert and the clock is never read.
    #[inline]
    pub fn enter(&self) -> SpanGuard {
        self.open(-1, None)
    }

    /// [`Span::enter`] with an index, rendered `name[index]` in the trace
    /// (layer number, trial number, …). The histogram stays `name`.
    #[inline]
    pub fn enter_at(&self, index: i64) -> SpanGuard {
        self.open(index, None)
    }

    /// [`Span::enter_at`] under an **explicit** trace parent — the
    /// cross-thread form: capture [`trace::current_span`] (or a guard's
    /// [`SpanGuard::id`]) before spawning and hand it to the worker.
    #[inline]
    pub fn enter_under(&self, index: i64, parent: u64) -> SpanGuard {
        self.open(index, Some(parent))
    }

    #[inline]
    fn open(&self, index: i64, parent: Option<u64>) -> SpanGuard {
        let sinks = sinks();
        if sinks & (METRICS | TRACE) == 0 {
            return SpanGuard { open: None };
        }
        let cell = (sinks & METRICS != 0).then(|| self.histogram.cell());
        let name = self.histogram.name;
        SpanGuard::begin(cell, sinks & TRACE != 0, name, self.level, index, parent)
    }

    /// Records an externally measured duration, in seconds, into the
    /// span's histogram (metrics only; no-op while disabled).
    #[inline]
    pub fn record_seconds(&self, seconds: f64) {
        self.histogram.record(seconds);
    }
}

/// RAII guard of an open span: records the span's end when dropped.
#[derive(Debug)]
#[must_use = "dropping the guard immediately produces a zero-length span"]
pub struct SpanGuard {
    open: Option<OpenSpan>,
}

/// What an open span records when it closes.
#[derive(Debug)]
struct OpenSpan {
    start_ns: u64,
    cell: Option<&'static HistogramCell>,
    trace: Option<trace::Token>,
}

impl SpanGuard {
    /// Reads the clock and opens the span in the sinks it feeds.
    fn begin(
        cell: Option<&'static HistogramCell>,
        traced: bool,
        name: &'static str,
        level: Level,
        index: i64,
        parent: Option<u64>,
    ) -> SpanGuard {
        let start_ns = trace::now_ns();
        let trace = traced.then(|| trace::begin(name, level, index, parent, start_ns));
        SpanGuard {
            open: Some(OpenSpan {
                start_ns,
                cell,
                trace,
            }),
        }
    }

    /// The span's trace ID (0 when the trace was off as it opened). Pass
    /// to [`Span::enter_under`] to attribute work on other threads to it.
    pub fn id(&self) -> u64 {
        self.open
            .as_ref()
            .and_then(|open| open.trace.as_ref())
            .map_or(0, |token| token.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(open) = self.open.take() {
            let end_ns = trace::now_ns();
            if let Some(cell) = open.cell {
                cell.record(end_ns.saturating_sub(open.start_ns) as f64 * 1e-9);
            }
            if let Some(token) = open.trace {
                trace::end(token, end_ns);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Mark
// ---------------------------------------------------------------------------

/// "This happened": adds one to the counter `name` and, with the trace on,
/// emits the trace instant `name` (carrying `value`) under the thread's
/// innermost open span. So a run's counter and instant counts agree.
///
/// ```
/// use mnsim_obs as obs;
///
/// static WRITTEN: obs::Mark = obs::Mark::new("demo.written", obs::Level::Run);
///
/// let metrics = obs::session();
/// WRITTEN.record(3.0);
/// assert_eq!(metrics.snapshot().counter("demo.written"), 1);
/// ```
#[derive(Debug)]
pub struct Mark {
    counter: Counter,
    level: Level,
}

impl Mark {
    /// Creates a mark handle (registration happens on first use).
    pub const fn new(name: &'static str, level: Level) -> Self {
        Mark {
            counter: Counter::new(name),
            level,
        }
    }

    /// Records the fact once in every open sink (no-op while disabled).
    #[inline]
    pub fn record(&self, value: f64) {
        let sinks = sinks();
        if sinks & (METRICS | TRACE) != 0 {
            self.fan_out(sinks, value);
        }
    }

    /// [`Mark::record`], plus the live line `event` builds while live
    /// telemetry is on (the event is never built otherwise).
    #[inline]
    pub fn record_live(&self, value: f64, event: impl FnOnce() -> live::LiveEvent) {
        let sinks = sinks();
        if sinks != 0 {
            self.fan_out(sinks, value);
            if sinks & LIVE != 0 {
                live::emit(event());
            }
        }
    }

    fn fan_out(&self, sinks: u32, value: f64) {
        if sinks & METRICS != 0 {
            self.counter.cell().fetch_add(1, Ordering::Relaxed);
        }
        if sinks & TRACE != 0 {
            trace::instant(self.counter.name, self.level, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static TEST_COUNTER: Counter = Counter::new("test.counter");
    static TEST_COUNTER_ALIAS: Counter = Counter::new("test.counter");
    static TEST_GAUGE: Gauge = Gauge::new("test.gauge");
    static TEST_HIST: Histogram = Histogram::new("test.hist");
    static TEST_SPAN: Span = Span::new("test.span", Level::Other);
    static TEST_MARK: Mark = Mark::new("test.mark", Level::Other);

    /// Metrics and trace together: a test recording spans or marks holds
    /// both locks, so it neither leaks into nor reads a concurrently
    /// running test's session of the other sink.
    fn sessions() -> (Session, trace::Session) {
        (session(), trace::session())
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        let _metrics = SESSION_LOCKS[0]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let _trace = SESSION_LOCKS[1]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        reset();
        TEST_COUNTER.inc();
        TEST_GAUGE.set(3.5);
        TEST_HIST.record(1.0);
        TEST_MARK.record(1.0);
        let span = TEST_SPAN.enter();
        assert!(span.open.is_none(), "a disabled span never reads the clock");
        assert_eq!(span.id(), 0);
        drop(span);
        assert_eq!(TEST_COUNTER.get(), 0);
        assert_eq!(TEST_GAUGE.cell().load(Ordering::Relaxed), 0f64.to_bits());
        assert_eq!(TEST_MARK.counter.get(), 0);
    }

    #[test]
    fn sessions_own_one_bit_each_and_nest() {
        let (metrics, trace) = sessions();
        assert_eq!(sinks() & (METRICS | TRACE), METRICS | TRACE);
        drop(trace.finish());
        assert_eq!(sinks() & (METRICS | TRACE), METRICS);
        drop(metrics);
        assert_eq!(sinks() & METRICS, 0);
    }

    #[test]
    fn same_name_statics_share_a_cell() {
        let session = session();
        TEST_COUNTER.add(2);
        TEST_COUNTER_ALIAS.add(3);
        let snap = session.snapshot();
        assert_eq!(snap.counters["test.counter"], 5);
    }

    #[test]
    fn histogram_statistics_are_exact() {
        let session = session();
        for v in [1.0, 2.0, 4.0, 0.5] {
            TEST_HIST.record(v);
        }
        TEST_HIST.record(f64::NAN); // dropped
        let snap = session.snapshot();
        let hist = &snap.histograms["test.hist"];
        assert_eq!(hist.count, 4);
        assert_eq!(hist.sum, 7.5);
        assert_eq!(hist.min, 0.5);
        assert_eq!(hist.max, 4.0);
        assert_eq!(hist.mean(), 7.5 / 4.0);
        assert_eq!(hist.buckets.iter().map(|b| b.count).sum::<u64>(), 4);
    }

    #[test]
    fn span_guard_times_scope() {
        let (session, _trace) = sessions();
        {
            let _g = TEST_SPAN.enter();
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = session.snapshot();
        let span = &snap.histograms["test.span"];
        assert_eq!(span.count, 1);
        assert_eq!(span.unit, "seconds");
        assert!(span.sum >= 0.002, "span too short: {}", span.sum);
    }

    #[test]
    fn one_span_and_one_mark_feed_both_sinks_under_one_name() {
        let (metrics, trace) = sessions();
        for i in 0..3 {
            let _g = TEST_SPAN.enter_at(i);
            TEST_MARK.record(i as f64);
        }
        let snap = metrics.snapshot();
        let collected = trace.finish();
        let summary = collected.summary();
        assert_eq!(snap.histograms["test.span"].count, 3);
        assert_eq!(summary.spans["test.span"].count, 3);
        assert_eq!(snap.counter("test.mark"), 3);
        let instants = collected
            .events
            .iter()
            .filter(|e| e.kind == trace::EventKind::Instant && e.name == "test.mark")
            .count();
        assert_eq!(instants, 3);
        // The histogram sums exactly the durations the trace recorded.
        let traced_s = summary.spans["test.span"].total_ns as f64 * 1e-9;
        assert!((snap.histograms["test.span"].sum - traced_s).abs() < 1e-12);
    }

    #[test]
    fn reset_zeroes_everything() {
        let session = session();
        TEST_COUNTER.inc();
        TEST_HIST.record(1.0);
        TEST_GAUGE.set(9.0);
        reset();
        let snap = session.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn bucket_indexing_is_monotonic() {
        let mut last = 0;
        for exp in -80..44 {
            let idx = bucket_index((exp as f64).exp2());
            assert!(idx >= last);
            last = idx;
        }
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-5.0), 0);
        assert_eq!(bucket_index(f64::MAX), BUCKET_COUNT - 1);
        // The edges: 2⁻⁶⁴ opens bucket 0, 2³⁴ the overflow bucket.
        assert_eq!(bucket_index((-64f64).exp2()), 0);
        assert_eq!(bucket_index((-63f64).exp2()), 1);
        assert_eq!(bucket_index(33f64.exp2()), BUCKET_COUNT - 2);
        assert_eq!(bucket_index(34f64.exp2()), BUCKET_COUNT - 1);
        // Every value falls strictly below its bucket's upper edge, and at
        // or above its lower edge from bucket 1 on.
        for v in [1e-18, 2.2e-14, 1e-12, 1e-9, 0.003, 1.0, 17.0, 1e9, 1e30] {
            let idx = bucket_index(v);
            assert!(v < bucket_upper_edge(idx) || idx == BUCKET_COUNT - 1);
            assert!(idx == 0 || v >= bucket_upper_edge(idx - 1), "{v:e}");
        }
    }

    /// Residual-scale values (1e-14..1e-12 A, like the KCL residuals of
    /// converged solves) keep distinct quantiles: the median lands within
    /// one power-of-two bucket of the true one, below the maximum.
    #[test]
    fn residual_scale_quantiles_resolve() {
        let session = session();
        let values: Vec<f64> = (0..18).map(|k| 2.2e-14 * 1.3f64.powi(k)).collect();
        for &v in &values {
            TEST_HIST.record(v);
        }
        let snap = session.snapshot();
        let hist = &snap.histograms["test.hist"];
        let max = values[values.len() - 1];
        assert_eq!(hist.max, max);
        assert!(hist.p50() < hist.max, "p50 {:e} = max", hist.p50());
        let true_median = values[values.len() / 2 - 1];
        assert!(
            hist.p50() >= true_median / 2.0 && hist.p50() <= true_median * 2.0,
            "p50 {:e}, true median {true_median:e}",
            hist.p50()
        );
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let session = session();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        TEST_COUNTER.inc();
                        TEST_HIST.record(1.0);
                    }
                });
            }
        });
        let snap = session.snapshot();
        assert_eq!(snap.counters["test.counter"], 4000);
        assert_eq!(snap.histograms["test.hist"].count, 4000);
        assert_eq!(snap.histograms["test.hist"].sum, 4000.0);
    }
}
