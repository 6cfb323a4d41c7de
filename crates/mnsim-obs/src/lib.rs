//! # mnsim-obs — observability layer for the MNSIM reproduction
//!
//! Zero-dependency instrumentation primitives: monotonic [`Counter`]s,
//! last-write [`Gauge`]s, fixed-bucket [`Histogram`]s and scoped timer
//! [`Span`]s, all backed by a global registry that is a **no-op unless
//! enabled**.
//!
//! Design constraints (see `DESIGN.md` §8):
//!
//! * **Cheap when off.** Every operation first reads one relaxed
//!   [`AtomicBool`]; a disabled counter increment is a load and a branch,
//!   and a disabled span never calls [`Instant::now`].
//! * **Cheap when on.** Each call site declares a `static` handle whose
//!   backing cell is resolved once through the registry mutex and cached in
//!   a [`OnceLock`]; subsequent updates are lock-free atomic operations.
//! * **Zero dependencies.** The workspace is offline; JSON and CSV export
//!   are hand-rolled, and [`validate_json`] provides a tiny validator so
//!   tests and CI can reject malformed dumps without `serde`.
//!
//! # Examples
//!
//! ```
//! use mnsim_obs as obs;
//!
//! static SOLVES: obs::Counter = obs::Counter::new("demo.solves");
//! static SOLVE_SPAN: obs::Span = obs::Span::new("demo.solve");
//!
//! let session = obs::session(); // locks, resets, enables
//! {
//!     let _timer = SOLVE_SPAN.enter();
//!     SOLVES.inc();
//! }
//! let snapshot = session.snapshot();
//! assert_eq!(snapshot.counters["demo.solves"], 1);
//! assert_eq!(snapshot.histograms["demo.solve"].count, 1);
//! obs::validate_json(&snapshot.to_json()).unwrap();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

mod hash;
mod json;
pub mod live;
mod snapshot;
pub mod trace;

pub use hash::{fnv64, Fnv64};
pub use json::{parse_json, validate_json, write_json_number, write_json_string, JsonValue};
pub use snapshot::{BucketCount, HistogramSnapshot, MetricsSnapshot};
pub use trace::{validate_chrome_trace, Trace, TraceSummary};

/// Number of exponential histogram buckets (powers of two from `2⁻³⁰` to
/// `2³⁴`, plus one overflow bucket).
pub(crate) const BUCKET_COUNT: usize = 65;
/// Exponent offset of bucket 0 (`2^-BUCKET_OFFSET` is the smallest edge).
pub(crate) const BUCKET_OFFSET: i32 = 30;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// `true` if metric recording is globally enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enables or disables metric recording.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
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

static SESSION_LOCK: Mutex<()> = Mutex::new(());

/// An exclusive measurement window: the global session lock is held, the
/// registry is reset, and recording is enabled until the guard drops.
///
/// Tests and tools that assert on global metric values must go through
/// [`session`] so concurrently running instrumented code (other tests in
/// the same binary) cannot interleave with the measurement.
///
/// # Ordering contract
///
/// The enabled flag is a **relaxed** atomic: flipping it creates no
/// happens-before edge with other threads. A metric update is captured
/// iff the recording thread observes the flag as set, so:
///
/// * Open the session **before** spawning instrumented workers. Thread
///   spawning synchronizes-with the new thread, so workers spawned after
///   [`session`] returns are guaranteed to observe recording as enabled
///   (the fault-campaign / DSE worker pools spawn inside the
///   session and are covered by this).
/// * Work already in flight on threads spawned **before** the session
///   opened may race the flag flip: those threads can keep observing
///   "disabled" for a short window and their updates are silently
///   dropped. Join or synchronize with such threads first if their
///   metrics matter.
/// * Symmetrically, everything the session measures must be joined
///   before [`Session::snapshot`] — a still-running worker's updates may
///   or may not be included.
#[derive(Debug)]
pub struct Session {
    _guard: MutexGuard<'static, ()>,
}

/// Opens an exclusive, enabled, freshly reset metrics [`Session`].
pub fn session() -> Session {
    let guard = SESSION_LOCK
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    // Overlap detector: recording must be off outside sessions. A true
    // value here means someone called `set_enabled(true)` without holding
    // the session lock — their metrics would silently bleed into (or be
    // reset by) this session.
    debug_assert!(
        !enabled(),
        "obs::session() opened while recording is already enabled \
         (set_enabled(true) called outside a session?)"
    );
    reset();
    set_enabled(true);
    Session { _guard: guard }
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

impl Drop for Session {
    fn drop(&mut self) {
        set_enabled(false);
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

    /// Current value (0.0 if never set).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.cell().load(Ordering::Relaxed))
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

fn histogram_cell(name: &'static str, unit: &'static str) -> &'static HistogramCell {
    lock_registry()
        .histograms
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(HistogramCell::new(unit))))
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// A fixed-bucket distribution of plain values (iteration counts,
/// residuals, deviations…).
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    cell: OnceLock<&'static HistogramCell>,
}

impl Histogram {
    /// Creates a histogram handle (registration happens on first use).
    pub const fn new(name: &'static str) -> Self {
        Histogram {
            name,
            cell: OnceLock::new(),
        }
    }

    fn cell(&self) -> &'static HistogramCell {
        self.cell.get_or_init(|| histogram_cell(self.name, ""))
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

/// A scoped wall-clock timer. [`Span::enter`] returns a guard that records
/// the elapsed seconds into the span's histogram when dropped.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    cell: OnceLock<&'static HistogramCell>,
}

impl Span {
    /// Creates a span handle (registration happens on first use).
    pub const fn new(name: &'static str) -> Self {
        Span {
            name,
            cell: OnceLock::new(),
        }
    }

    fn cell(&self) -> &'static HistogramCell {
        self.cell
            .get_or_init(|| histogram_cell(self.name, "seconds"))
    }

    /// Starts timing; the returned guard records on drop. While disabled
    /// the guard is inert and the clock is never read.
    #[inline]
    pub fn enter(&self) -> SpanGuard {
        if enabled() {
            SpanGuard {
                timing: Some((self.cell(), Instant::now())),
            }
        } else {
            SpanGuard { timing: None }
        }
    }

    /// Records an externally measured duration, in seconds.
    #[inline]
    pub fn record_seconds(&self, seconds: f64) {
        if enabled() {
            self.cell().record(seconds);
        }
    }
}

/// RAII guard of an entered [`Span`].
#[derive(Debug)]
pub struct SpanGuard {
    timing: Option<(&'static HistogramCell, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((cell, start)) = self.timing.take() {
            cell.record(start.elapsed().as_secs_f64());
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
    static TEST_SPAN: Span = Span::new("test.span");

    #[test]
    fn disabled_metrics_record_nothing() {
        let _lock = SESSION_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        reset();
        set_enabled(false);
        TEST_COUNTER.inc();
        TEST_GAUGE.set(3.5);
        TEST_HIST.record(1.0);
        let _span = TEST_SPAN.enter();
        assert_eq!(TEST_COUNTER.get(), 0);
        assert_eq!(TEST_GAUGE.get(), 0.0);
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
        let session = session();
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
        for exp in -40..44 {
            let idx = bucket_index((exp as f64).exp2());
            assert!(idx >= last);
            last = idx;
        }
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-5.0), 0);
        assert_eq!(bucket_index(f64::MAX), BUCKET_COUNT - 1);
        // Every value falls strictly below its bucket's upper edge.
        for v in [1e-12, 0.003, 1.0, 17.0, 1e9, 1e30] {
            let idx = bucket_index(v);
            assert!(v < bucket_upper_edge(idx) || idx == BUCKET_COUNT - 1);
        }
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
