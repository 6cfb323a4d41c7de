//! Streaming progress telemetry: typed campaign events as NDJSON plus a
//! periodic counter/gauge sampler.
//!
//! The post-hoc snapshot ([`crate::snapshot`]) and trace ([`crate::trace`])
//! exports answer "what happened" *after* a run ends; long campaigns
//! (fault Monte-Carlo, DSE sweeps, deadline-bounded runs) also need to be
//! watchable *while they run*. This module provides that live view:
//!
//! * **Typed progress events.** Instrumented wave loops emit
//!   [`LiveEvent`]s — campaign started/finished, wave completed (with ETA
//!   and throughput), checkpoint written, deadline approaching, solver
//!   guard tripped — serialized as one JSON object per line (NDJSON) to an
//!   optional file sink, flushed per event so `tail -f` works, plus an
//!   optional human progress line on stderr.
//! * **Periodic sampling.** On each emission, if at least
//!   [`LiveConfig::sample_period`] has elapsed since the last sample, the
//!   metric registry is snapshotted and the counter *deltas* and current
//!   gauge values are pushed into a bounded ring buffer (and written
//!   inline as an `"event":"sample"` line). The series is returned by
//!   [`LiveSession::finish`] as a [`SampleSeries`], exportable as NDJSON
//!   or CSV.
//!
//! # Cost contract
//!
//! Like the metric registry and the trace subsystem, live telemetry is
//! **off by default and cheap when off**: every public emission helper
//! first reads one relaxed atomic and returns. Event construction,
//! serialization, the hub mutex, and the sampler are only ever touched
//! inside an active session. Emission rate is bounded by the wave
//! granularity (a handful of events per second at most), so the enabled
//! cost is negligible next to the simulated work.
//!
//! # Determinism contract
//!
//! Event **contents that count work** — the `done`/`total` of
//! `wave_completed`, the totals of `campaign_started` /
//! `campaign_finished`, the number of `wave_completed` events in a clean
//! run — are bit-stable across thread counts: waves are carved from the
//! item total only (see [`wave_grain`]), never from the worker count.
//! Timestamps (`t_s`), rates (`items_per_s`), ETAs (`eta_s`), `sample`
//! lines, and the timing-gated `deadline_approaching` event vary run to
//! run and are excluded from the contract. `guard_tripped` events are
//! deterministic as a multiset (the same solves trip the same guards) but
//! their interleaving with other events depends on scheduling.
//!
//! # Examples
//!
//! ```
//! use mnsim_obs as obs;
//!
//! let metrics = obs::session(); // the sampler reads the metric registry
//! let live = obs::live::session(obs::live::LiveConfig::default()).unwrap();
//! obs::live::campaign_started("demo", 4, 0);
//! obs::live::wave_completed(2, 4, None);
//! obs::live::wave_completed(4, 4, None);
//! obs::live::campaign_finished(4, 4, "complete");
//! let report = live.finish();
//! assert_eq!(report.events, 4);
//! for line in &report.lines {
//!     obs::parse_json(line).unwrap();
//! }
//! drop(metrics);
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::fmt::{self, Write as _};
use std::sync::Arc;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::json::{write_json_number, write_json_string};

static LIVE_ENABLED: AtomicBool = AtomicBool::new(false);
static LIVE_SESSION_LOCK: Mutex<()> = Mutex::new(());
static HUB: Mutex<Option<Hub>> = Mutex::new(None);

/// Target number of waves a live-instrumented campaign is split into when
/// no checkpoint policy dictates its own cadence (see [`wave_grain`]).
const TARGET_WAVES: usize = 8;

/// `true` if a live telemetry session is active.
#[inline]
pub fn enabled() -> bool {
    LIVE_ENABLED.load(Ordering::Relaxed)
}

/// Wave length for a campaign of `total` items when live telemetry wants
/// mid-run progress events.
///
/// Returns `usize::MAX` while live telemetry is disabled (one wave — the
/// exact legacy open-loop run), and otherwise a grain derived **only**
/// from `total` (about `TARGET_WAVES` waves), never from the thread
/// count — so the number of `wave_completed` events and their
/// `done`/`total` contents are identical at every thread count.
pub fn wave_grain(total: usize) -> usize {
    if enabled() {
        total.div_ceil(TARGET_WAVES).max(1)
    } else {
        usize::MAX
    }
}

/// An in-process subscriber to the live NDJSON stream: the callback
/// receives every emitted line, **on the emitting thread**, before it is
/// written to the sink. This is how a serving front end routes campaign
/// events to the client whose job is running on that thread (the
/// `mnsim-serve` session server registers one tap for its lifetime and
/// dispatches on a worker-thread-local request id).
#[derive(Clone)]
pub struct LiveTap(Arc<dyn Fn(&str) + Send + Sync>);

impl LiveTap {
    /// Wraps `f` as a stream tap.
    pub fn new(f: impl Fn(&str) + Send + Sync + 'static) -> Self {
        LiveTap(Arc::new(f))
    }

    /// Invokes the tap on one NDJSON line.
    fn call(&self, line: &str) {
        (self.0)(line);
    }
}

impl fmt::Debug for LiveTap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("LiveTap(..)")
    }
}

/// Configuration of a live telemetry session.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// NDJSON sink path (`--emit live=<path>`); `None` keeps the stream
    /// in-memory only (still returned by [`LiveSession::finish`]).
    pub path: Option<String>,
    /// Write a human progress line to stderr on campaign/wave events
    /// (`--progress`).
    pub progress: bool,
    /// Minimum interval between registry samples; sampling is
    /// opportunistic (checked on each event emission — no background
    /// thread), so actual spacing is at least this.
    pub sample_period: Duration,
    /// Maximum NDJSON lines (events + samples) kept/written per session;
    /// excess emissions are counted in [`LiveReport::dropped`]. Only
    /// enforced while [`LiveConfig::retain`] is on — an un-retained
    /// stream has no buffer to bound.
    pub capacity: usize,
    /// Ring-buffer capacity of the sample time series (oldest dropped).
    pub sample_capacity: usize,
    /// Keep every emitted line in memory for [`LiveReport::lines`]
    /// (default). Long-running servers turn this off: the tap and the
    /// file sink still receive every line, but nothing accumulates and
    /// the [`LiveConfig::capacity`] bound never starts dropping events.
    pub retain: bool,
    /// In-process subscriber receiving every line on the emitting thread.
    pub tap: Option<LiveTap>,
}

impl Default for LiveConfig {
    /// No file sink, no progress lines, 500 ms sample period, 65 536-line
    /// stream bound, 1 024-point sample ring, retained lines, no tap.
    fn default() -> Self {
        LiveConfig {
            path: None,
            progress: false,
            sample_period: Duration::from_millis(500),
            capacity: 65_536,
            sample_capacity: 1_024,
            retain: true,
            tap: None,
        }
    }
}

impl LiveConfig {
    /// Sets the NDJSON sink path.
    #[must_use]
    pub fn to_path(mut self, path: impl Into<String>) -> Self {
        self.path = Some(path.into());
        self
    }

    /// Enables the human stderr progress line.
    #[must_use]
    pub fn with_progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }

    /// Sets the minimum sampling interval.
    #[must_use]
    pub fn with_sample_period(mut self, period: Duration) -> Self {
        self.sample_period = period;
        self
    }

    /// Registers an in-process tap receiving every line as it is emitted.
    #[must_use]
    pub fn with_tap(mut self, tap: LiveTap) -> Self {
        self.tap = Some(tap);
        self
    }

    /// Controls in-memory retention of the stream (see
    /// [`LiveConfig::retain`]).
    #[must_use]
    pub fn with_retain(mut self, retain: bool) -> Self {
        self.retain = retain;
        self
    }
}

/// A typed progress event of a running campaign.
#[derive(Debug, Clone, PartialEq)]
pub enum LiveEvent {
    /// A campaign began (possibly resuming from a checkpoint).
    CampaignStarted {
        /// Campaign label (`"fault_mc"`, `"dse_sweep"`, …).
        campaign: String,
        /// Items the campaign will evaluate in total.
        total: usize,
        /// Items already complete from a resumed checkpoint.
        resumed: usize,
    },
    /// A wave of items completed cleanly.
    WaveCompleted {
        /// Items complete so far (including resumed ones).
        done: usize,
        /// Items requested in total.
        total: usize,
        /// Estimated seconds to completion at the current rate.
        eta_s: f64,
        /// Throughput since the campaign started, items per second.
        items_per_s: f64,
    },
    /// A checkpoint file was written.
    CheckpointWritten {
        /// The checkpoint path.
        path: String,
        /// Items persisted as complete.
        completed: usize,
    },
    /// The projected completion time exceeds the remaining deadline
    /// budget (timing-gated; excluded from the determinism contract).
    DeadlineApproaching {
        /// Seconds left before the deadline.
        remaining_s: f64,
        /// Estimated seconds to completion at the current rate.
        eta_s: f64,
    },
    /// A solver health guard cut a recovery-ladder rung short.
    GuardTripped {
        /// The rung that was cut short (`"base"`, `"sparse-lu"` or
        /// `"dense-lu"`).
        stage: String,
        /// The guard that fired (`"singular-pivot"`).
        guard: String,
    },
    /// The campaign stopped; always the final event of a campaign, on
    /// every exit path (complete, interrupted, or failed).
    CampaignFinished {
        /// Items complete at exit.
        done: usize,
        /// Items requested in total.
        total: usize,
        /// `"complete"`, `"interrupted"`, or `"failed"`.
        outcome: String,
    },
}

/// One periodic sample of the metric registry.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplePoint {
    /// Seconds since the live session opened.
    pub t_s: f64,
    /// Counter increments since the previous sample (zero deltas
    /// omitted).
    pub counters: BTreeMap<String, u64>,
    /// Current gauge values.
    pub gauges: BTreeMap<String, f64>,
}

/// The ring-buffered time series captured by the periodic sampler.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SampleSeries {
    /// Samples in capture order (oldest first; the ring drops from the
    /// front when full).
    pub points: Vec<SamplePoint>,
}

impl SampleSeries {
    /// `true` if nothing was sampled.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of captured samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Serializes the series as NDJSON (one `"event":"sample"` object per
    /// line, same shape as the inline stream lines).
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for point in &self.points {
            out.push_str(&sample_line(point));
            out.push('\n');
        }
        out
    }

    /// Serializes the series as CSV with the header
    /// `t_s,kind,name,value` — one row per counter delta and gauge value.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t_s,kind,name,value\n");
        for point in &self.points {
            for (name, delta) in &point.counters {
                let _ = writeln!(out, "{:?},counter,{name},{delta}", point.t_s);
            }
            for (name, value) in &point.gauges {
                let _ = writeln!(out, "{:?},gauge,{name},{value:?}", point.t_s);
            }
        }
        out
    }
}

/// What a live session collected, returned by [`LiveSession::finish`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LiveReport {
    /// NDJSON lines emitted (events + inline samples).
    pub events: u64,
    /// Emissions dropped after the stream bound was reached.
    pub dropped: u64,
    /// The sampler's time series.
    pub samples: SampleSeries,
    /// The full NDJSON stream, one line per entry (what the sink
    /// received).
    pub lines: Vec<String>,
}

/// Session-internal state behind the hub mutex.
struct Hub {
    started: Instant,
    sink: Option<BufWriter<File>>,
    sink_failed: bool,
    progress: bool,
    retain: bool,
    tap: Option<LiveTap>,
    capacity: usize,
    emitted: u64,
    dropped: u64,
    lines: Vec<String>,
    sample_period: Duration,
    sample_capacity: usize,
    last_sample: Instant,
    prev_counters: BTreeMap<String, u64>,
    samples: VecDeque<SamplePoint>,
    /// Label of the most recent `campaign_started`, for progress lines.
    label: String,
    /// When the current campaign started and how many items it resumed
    /// with — the rate baseline for ETA computation.
    campaign_started_at: Instant,
    campaign_base: usize,
}

/// An exclusive live telemetry window (mirrors [`crate::session`] /
/// [`crate::trace::session`]): events stream to the configured sink until
/// [`LiveSession::finish`] (or drop) tears the session down.
#[derive(Debug)]
pub struct LiveSession {
    _guard: MutexGuard<'static, ()>,
}

/// Opens an exclusive live telemetry session.
///
/// The file sink (when [`LiveConfig::path`] is set) is created eagerly so
/// an unwritable path fails up front rather than silently losing the
/// stream. The sampler reads the **metric registry**, so callers that
/// want non-empty samples should also open [`crate::session`] (before
/// this one — both front ends follow that order).
///
/// # Errors
///
/// Returns a message naming the sink path when it cannot be created.
pub fn session(config: LiveConfig) -> Result<LiveSession, String> {
    let guard = LIVE_SESSION_LOCK
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let sink = match &config.path {
        Some(path) => Some(BufWriter::new(File::create(path).map_err(|e| {
            format!("cannot create live telemetry sink `{path}`: {e}")
        })?)),
        None => None,
    };
    let now = Instant::now();
    *lock_hub() = Some(Hub {
        started: now,
        sink,
        sink_failed: false,
        progress: config.progress,
        retain: config.retain,
        tap: config.tap,
        capacity: config.capacity,
        emitted: 0,
        dropped: 0,
        lines: Vec::new(),
        sample_period: config.sample_period,
        sample_capacity: config.sample_capacity.max(1),
        last_sample: now,
        prev_counters: BTreeMap::new(),
        samples: VecDeque::new(),
        label: String::from("campaign"),
        campaign_started_at: now,
        campaign_base: 0,
    });
    LIVE_ENABLED.store(true, Ordering::Relaxed);
    Ok(LiveSession { _guard: guard })
}

impl LiveSession {
    /// Ends the session and returns everything it collected. The sink has
    /// already received (and been flushed after) every line.
    pub fn finish(self) -> LiveReport {
        teardown()
        // `self` drops here; `Drop` finds the hub gone and is a no-op.
    }
}

impl Drop for LiveSession {
    fn drop(&mut self) {
        let _ = teardown();
    }
}

fn lock_hub() -> MutexGuard<'static, Option<Hub>> {
    HUB.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Disables emission and drains the hub into a [`LiveReport`].
fn teardown() -> LiveReport {
    LIVE_ENABLED.store(false, Ordering::Relaxed);
    let Some(mut hub) = lock_hub().take() else {
        return LiveReport::default();
    };
    if let Some(sink) = &mut hub.sink {
        let _ = sink.flush();
    }
    LiveReport {
        events: hub.emitted,
        dropped: hub.dropped,
        samples: SampleSeries {
            points: hub.samples.into_iter().collect(),
        },
        lines: hub.lines,
    }
}

// ---------------------------------------------------------------------------
// Emission helpers (the instrumented call sites)
// ---------------------------------------------------------------------------

/// Emits [`LiveEvent::CampaignStarted`] (no-op while disabled).
pub fn campaign_started(campaign: &str, total: usize, resumed: usize) {
    if !enabled() {
        return;
    }
    emit(LiveEvent::CampaignStarted {
        campaign: campaign.to_string(),
        total,
        resumed,
    });
}

/// Emits [`LiveEvent::WaveCompleted`] with ETA and throughput computed
/// from the campaign's start baseline, plus
/// [`LiveEvent::DeadlineApproaching`] when the projection exceeds
/// `deadline_remaining` (no-op while disabled).
pub fn wave_completed(done: usize, total: usize, deadline_remaining: Option<Duration>) {
    if !enabled() {
        return;
    }
    let mut guard = lock_hub();
    let Some(hub) = guard.as_mut() else {
        return;
    };
    let elapsed = hub
        .campaign_started_at
        .elapsed()
        .as_secs_f64()
        .max(1e-9);
    let fresh = done.saturating_sub(hub.campaign_base);
    let items_per_s = fresh as f64 / elapsed;
    let eta_s = if items_per_s > 0.0 {
        total.saturating_sub(done) as f64 / items_per_s
    } else {
        f64::INFINITY
    };
    emit_locked(
        hub,
        &LiveEvent::WaveCompleted {
            done,
            total,
            eta_s,
            items_per_s,
        },
    );
    if let Some(remaining) = deadline_remaining {
        let remaining_s = remaining.as_secs_f64();
        if eta_s.is_finite() && eta_s > remaining_s {
            emit_locked(hub, &LiveEvent::DeadlineApproaching { remaining_s, eta_s });
        }
    }
}

/// Emits [`LiveEvent::CheckpointWritten`] (no-op while disabled).
pub fn checkpoint_written(path: &str, completed: usize) {
    if !enabled() {
        return;
    }
    emit(LiveEvent::CheckpointWritten {
        path: path.to_string(),
        completed,
    });
}

/// Emits [`LiveEvent::GuardTripped`] (no-op while disabled).
pub fn guard_tripped(stage: &str, guard: &str) {
    if !enabled() {
        return;
    }
    emit(LiveEvent::GuardTripped {
        stage: stage.to_string(),
        guard: guard.to_string(),
    });
}

/// Emits the final [`LiveEvent::CampaignFinished`] for a campaign
/// (no-op while disabled). `outcome` is `"complete"`, `"interrupted"`, or
/// `"failed"`.
pub fn campaign_finished(done: usize, total: usize, outcome: &str) {
    if !enabled() {
        return;
    }
    emit(LiveEvent::CampaignFinished {
        done,
        total,
        outcome: outcome.to_string(),
    });
}

/// Emits a pre-built event into the active session (no-op while
/// disabled).
pub fn emit(event: LiveEvent) {
    if !enabled() {
        return;
    }
    let mut guard = lock_hub();
    if let Some(hub) = guard.as_mut() {
        emit_locked(hub, &event);
    }
}

fn emit_locked(hub: &mut Hub, event: &LiveEvent) {
    if let LiveEvent::CampaignStarted {
        campaign, resumed, ..
    } = event
    {
        hub.label = campaign.clone();
        hub.campaign_started_at = Instant::now();
        hub.campaign_base = *resumed;
    }
    let t_s = hub.started.elapsed().as_secs_f64();
    push_line(hub, event_line(t_s, event));
    if hub.progress {
        progress_line(hub, event);
    }
    maybe_sample(hub);
}

/// Appends one NDJSON line to the tap, the in-memory stream, and the
/// sink (flushing, so `tail -f` sees it immediately), honoring the
/// stream bound. With retention off only the tap and sink see the line —
/// nothing accumulates and the bound never drops.
fn push_line(hub: &mut Hub, line: String) {
    if hub.retain && hub.emitted >= hub.capacity as u64 {
        hub.dropped += 1;
        return;
    }
    hub.emitted += 1;
    if let Some(tap) = &hub.tap {
        tap.call(&line);
    }
    if let Some(sink) = &mut hub.sink {
        if !hub.sink_failed {
            let failed = writeln!(sink, "{line}").is_err() || sink.flush().is_err();
            if failed {
                // Keep the campaign running; the in-memory stream (and
                // the report) still carry the events.
                hub.sink_failed = true;
                eprintln!("live telemetry: sink write failed; further lines kept in memory only");
            }
        }
    }
    if hub.retain {
        hub.lines.push(line);
    }
}

/// Human stderr progress line for the campaign/wave events.
fn progress_line(hub: &Hub, event: &LiveEvent) {
    match event {
        LiveEvent::CampaignStarted {
            campaign,
            total,
            resumed,
        } => {
            eprintln!("[{campaign}] started: {total} items ({resumed} resumed)");
        }
        LiveEvent::WaveCompleted {
            done,
            total,
            eta_s,
            items_per_s,
        } => {
            let pct = *done as f64 / (*total).max(1) as f64 * 100.0;
            eprintln!(
                "[{}] {done}/{total} ({pct:.1}%) · {items_per_s:.1} items/s · eta {eta_s:.1}s",
                hub.label
            );
        }
        LiveEvent::DeadlineApproaching { remaining_s, eta_s } => {
            eprintln!(
                "[{}] deadline approaching: {remaining_s:.1}s left, eta {eta_s:.1}s",
                hub.label
            );
        }
        LiveEvent::CampaignFinished {
            done,
            total,
            outcome,
        } => {
            eprintln!("[{}] finished: {done}/{total} ({outcome})", hub.label);
        }
        LiveEvent::CheckpointWritten { .. } | LiveEvent::GuardTripped { .. } => {}
    }
}

/// Samples the metric registry if the period elapsed.
fn maybe_sample(hub: &mut Hub) {
    if hub.last_sample.elapsed() < hub.sample_period {
        return;
    }
    hub.last_sample = Instant::now();
    let snap = crate::snapshot();
    let mut deltas = BTreeMap::new();
    for (name, &value) in &snap.counters {
        let delta = value.saturating_sub(hub.prev_counters.get(name).copied().unwrap_or(0));
        if delta > 0 {
            deltas.insert(name.clone(), delta);
        }
    }
    hub.prev_counters = snap.counters;
    let point = SamplePoint {
        t_s: hub.started.elapsed().as_secs_f64(),
        counters: deltas,
        gauges: snap.gauges,
    };
    if hub.samples.len() >= hub.sample_capacity {
        hub.samples.pop_front();
    }
    push_line(hub, sample_line(&point));
    hub.samples.push_back(point);
}

// ---------------------------------------------------------------------------
// NDJSON serialization
// ---------------------------------------------------------------------------

fn event_line(t_s: f64, event: &LiveEvent) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"t_s\": ");
    write_json_number(&mut out, t_s);
    out.push_str(", \"event\": ");
    match event {
        LiveEvent::CampaignStarted {
            campaign,
            total,
            resumed,
        } => {
            out.push_str("\"campaign_started\", \"campaign\": ");
            write_json_string(&mut out, campaign);
            let _ = write!(out, ", \"total\": {total}, \"resumed\": {resumed}");
        }
        LiveEvent::WaveCompleted {
            done,
            total,
            eta_s,
            items_per_s,
        } => {
            let _ = write!(
                out,
                "\"wave_completed\", \"done\": {done}, \"total\": {total}, \"eta_s\": "
            );
            write_json_number(&mut out, *eta_s);
            out.push_str(", \"items_per_s\": ");
            write_json_number(&mut out, *items_per_s);
        }
        LiveEvent::CheckpointWritten { path, completed } => {
            out.push_str("\"checkpoint_written\", \"path\": ");
            write_json_string(&mut out, path);
            let _ = write!(out, ", \"completed\": {completed}");
        }
        LiveEvent::DeadlineApproaching { remaining_s, eta_s } => {
            out.push_str("\"deadline_approaching\", \"remaining_s\": ");
            write_json_number(&mut out, *remaining_s);
            out.push_str(", \"eta_s\": ");
            write_json_number(&mut out, *eta_s);
        }
        LiveEvent::GuardTripped { stage, guard } => {
            out.push_str("\"guard_tripped\", \"stage\": ");
            write_json_string(&mut out, stage);
            out.push_str(", \"guard\": ");
            write_json_string(&mut out, guard);
        }
        LiveEvent::CampaignFinished {
            done,
            total,
            outcome,
        } => {
            let _ = write!(out, "\"campaign_finished\", \"done\": {done}, \"total\": {total}");
            out.push_str(", \"outcome\": ");
            write_json_string(&mut out, outcome);
        }
    }
    out.push('}');
    out
}

fn sample_line(point: &SamplePoint) -> String {
    let mut out = String::with_capacity(128);
    out.push_str("{\"t_s\": ");
    write_json_number(&mut out, point.t_s);
    out.push_str(", \"event\": \"sample\", \"counters\": {");
    for (i, (name, delta)) in point.counters.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_json_string(&mut out, name);
        let _ = write!(out, ": {delta}");
    }
    out.push_str("}, \"gauges\": {");
    for (i, (name, value)) in point.gauges.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_json_string(&mut out, name);
        out.push_str(": ");
        write_json_number(&mut out, *value);
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_json;

    /// All live tests funnel through the metrics session lock so they
    /// serialize against each other and against anything else touching
    /// the global hub.
    fn locked_session(config: LiveConfig) -> (crate::Session, LiveSession) {
        let metrics = crate::session();
        let live = session(config).expect("in-memory live session opens");
        (metrics, live)
    }

    #[test]
    fn disabled_helpers_are_noops_and_stream_parses_when_enabled() {
        let metrics = crate::session();
        // Disabled: nothing panics, nothing is recorded.
        assert!(!enabled());
        campaign_started("noop", 4, 0);
        wave_completed(2, 4, None);
        checkpoint_written("nowhere.json", 2);
        guard_tripped("base", "singular-pivot");
        campaign_finished(4, 4, "complete");
        assert_eq!(wave_grain(64), usize::MAX);

        let live = session(LiveConfig::default()).expect("session opens");
        assert!(enabled());
        assert_eq!(wave_grain(64), 8);
        assert_eq!(wave_grain(1), 1);
        assert_eq!(wave_grain(9), 2);
        campaign_started("fault_mc", 8, 2);
        wave_completed(5, 8, None);
        checkpoint_written("ckpt.json", 5);
        guard_tripped("base", "singular-pivot");
        campaign_finished(8, 8, "complete");
        let report = live.finish();
        assert!(!enabled());
        assert!(report.events >= 5, "events={}", report.events);
        assert_eq!(report.dropped, 0);
        for line in &report.lines {
            let value = parse_json(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
            assert!(value.get("event").is_some(), "{line}");
            assert!(value.get("t_s").is_some(), "{line}");
        }
        let wave = report
            .lines
            .iter()
            .find(|l| l.contains("wave_completed"))
            .expect("wave event present");
        let value = parse_json(wave).expect("wave line parses");
        assert_eq!(value.get("done").and_then(|v| v.as_f64()), Some(5.0));
        assert_eq!(value.get("total").and_then(|v| v.as_f64()), Some(8.0));
        assert!(value.get("eta_s").is_some());
        assert!(value.get("items_per_s").is_some());
        drop(metrics);
    }

    #[test]
    fn tap_sees_every_line_and_retain_off_keeps_nothing() {
        let seen = Arc::new(std::sync::Mutex::new(Vec::<String>::new()));
        let sink = Arc::clone(&seen);
        // A bound far below the emission count: with retention off it
        // must not drop anything.
        let mut config = LiveConfig::default()
            .with_retain(false)
            .with_tap(LiveTap::new(move |line| {
                sink.lock().unwrap().push(line.to_string());
            }));
        config.capacity = 2;
        let (metrics, live) = locked_session(config);
        campaign_started("tapped", 4, 0);
        wave_completed(2, 4, None);
        wave_completed(4, 4, None);
        campaign_finished(4, 4, "complete");
        let report = live.finish();
        assert_eq!(report.dropped, 0, "retain-off streams never drop");
        assert!(report.lines.is_empty(), "retain-off keeps no lines");
        assert_eq!(report.events, 4);
        let tapped = seen.lock().unwrap();
        assert_eq!(tapped.len(), 4, "{tapped:?}");
        for line in tapped.iter() {
            let value = parse_json(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
            assert!(value.get("event").is_some(), "{line}");
        }
        assert!(tapped[0].contains("campaign_started"));
        assert!(tapped[3].contains("campaign_finished"));
        drop(metrics);
    }

    #[test]
    fn deadline_projection_emits_approaching_event() {
        let (metrics, live) = locked_session(LiveConfig::default());
        campaign_started("slow", 1_000, 0);
        // One item done: the ETA for 999 more at this rate dwarfs a 1 ms
        // budget, so the deadline event must fire.
        std::thread::sleep(Duration::from_millis(2));
        wave_completed(1, 1_000, Some(Duration::from_millis(1)));
        let report = live.finish();
        assert!(
            report.lines.iter().any(|l| l.contains("deadline_approaching")),
            "{:?}",
            report.lines
        );
        drop(metrics);
    }

    #[test]
    fn sampler_captures_counter_deltas_and_exports() {
        static SAMPLED: crate::Counter = crate::Counter::new("live.test.sampled");
        let (metrics, live) = locked_session(
            LiveConfig::default().with_sample_period(Duration::ZERO),
        );
        SAMPLED.add(3);
        campaign_started("sampled", 2, 0);
        SAMPLED.add(4);
        wave_completed(2, 2, None);
        let report = live.finish();
        assert!(!report.samples.is_empty());
        let total: u64 = report
            .samples
            .points
            .iter()
            .filter_map(|p| p.counters.get("live.test.sampled"))
            .sum();
        assert_eq!(total, 7, "{:?}", report.samples);
        for line in report.samples.to_ndjson().lines() {
            parse_json(line).expect("sample NDJSON parses");
        }
        let csv = report.samples.to_csv();
        assert!(csv.starts_with("t_s,kind,name,value\n"));
        assert!(csv.contains(",counter,live.test.sampled,"));
        drop(metrics);
    }

    #[test]
    fn stream_bound_drops_and_counts_excess() {
        let (metrics, live) = locked_session(LiveConfig {
            capacity: 2,
            sample_period: Duration::from_secs(3600),
            ..LiveConfig::default()
        });
        for i in 0..5 {
            checkpoint_written("ckpt.json", i);
        }
        let report = live.finish();
        assert_eq!(report.lines.len(), 2);
        assert_eq!(report.events, 2);
        assert_eq!(report.dropped, 3);
        drop(metrics);
    }

    #[test]
    fn file_sink_receives_flushed_lines() {
        let path = std::env::temp_dir().join(format!(
            "mnsim_live_sink_{}.ndjson",
            std::process::id()
        ));
        let path_str = path.to_string_lossy().to_string();
        let (metrics, live) = locked_session(LiveConfig::default().to_path(&path_str));
        campaign_started("sink", 1, 0);
        campaign_finished(1, 1, "complete");
        let report = live.finish();
        let on_disk = std::fs::read_to_string(&path).expect("sink file exists");
        let disk_lines: Vec<&str> = on_disk.lines().collect();
        assert_eq!(disk_lines.len(), report.lines.len());
        for (disk, mem) in disk_lines.iter().zip(&report.lines) {
            assert_eq!(disk, mem);
        }
        let _ = std::fs::remove_file(&path);
        drop(metrics);
    }
}
