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
//!   and throughput), deadline approaching — and the [`crate::Mark`] of a
//!   checkpoint write carries its own live line
//!   ([`crate::Mark::record_live`]). Each event is serialized as one JSON
//!   object per line (NDJSON) to an optional file sink, flushed per event
//!   so `tail -f` works, handed to an optional in-process [`LiveTap`], and
//!   optionally summarized as a human progress line on stderr.
//! * **Periodic sampling.** On each emission, if at least
//!   [`LiveConfig::sample_period`] has elapsed since the last sample, the
//!   metric registry is snapshotted and the counter *deltas* and current
//!   gauge values are written inline as an `"event":"sample"` line.
//! * **No copy of its own stream.** The session keeps counts, not lines:
//!   whoever wants the lines reads the file sink or registers a tap, so a
//!   stream of any length costs no memory.
//!
//! # Cost contract
//!
//! Like the metric registry and the trace, live telemetry is **off by
//! default and cheap when off**: every public emission helper first reads
//! the crate's sink word and returns. Event construction, serialization,
//! the hub mutex, and the sampler are only ever touched inside an active
//! session. Emission rate is bounded by the wave granularity (a handful of
//! events per second at most), so the enabled cost is negligible next to
//! the simulated work.
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
//! run and are excluded from the contract.
//!
//! # Examples
//!
//! ```
//! use std::sync::{Arc, Mutex};
//! use mnsim_obs as obs;
//!
//! let lines = Arc::new(Mutex::new(Vec::new()));
//! let tap = {
//!     let lines = Arc::clone(&lines);
//!     obs::live::LiveTap::new(move |line| lines.lock().unwrap().push(line.to_string()))
//! };
//! let metrics = obs::session(); // the sampler reads the metric registry
//! let live = obs::live::session(obs::live::LiveConfig::default().with_tap(tap)).unwrap();
//! obs::live::campaign_started("demo", 4, 0);
//! obs::live::wave_completed(2, 4, None);
//! obs::live::wave_completed(4, 4, None);
//! obs::live::campaign_finished(4, 4, "complete");
//! let report = live.finish();
//! assert_eq!(report.events, 4);
//! for line in lines.lock().unwrap().iter() {
//!     obs::parse_json(line).unwrap();
//! }
//! drop(metrics);
//! ```

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::sync::Arc;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::json::{write_json_number, write_json_string};
use crate::{Window, LIVE};

static HUB: Mutex<Option<Hub>> = Mutex::new(None);

/// Target number of waves a live-instrumented campaign is split into when
/// no checkpoint policy dictates its own cadence (see [`wave_grain`]).
const TARGET_WAVES: usize = 8;

/// `true` if a live telemetry session is active.
#[inline]
pub(crate) fn enabled() -> bool {
    crate::sinks() & LIVE != 0
}

/// Wave length for a campaign of `total` items when live telemetry wants
/// mid-run progress events.
///
/// Returns `usize::MAX` while live telemetry is disabled (one wave — the
/// exact legacy open-loop run), and otherwise a grain derived **only**
/// from `total` (about `TARGET_WAVES` waves), never from the thread
/// count — so the number of `wave_completed` events and their
/// `done`/`total` contents are identical at every thread count.
#[inline]
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
    /// NDJSON sink path (`--emit live=<path>`); `None` writes no file
    /// (a [`LiveConfig::tap`] still sees every line).
    pub path: Option<String>,
    /// Write a human progress line to stderr on campaign/wave events
    /// (`--progress`).
    pub progress: bool,
    /// Minimum interval between registry samples; sampling is
    /// opportunistic (checked on each event emission — no background
    /// thread), so actual spacing is at least this.
    pub sample_period: Duration,
    /// In-process subscriber receiving every line on the emitting thread.
    pub tap: Option<LiveTap>,
}

impl Default for LiveConfig {
    /// No file sink, no progress lines, 500 ms sample period, no tap.
    fn default() -> Self {
        LiveConfig {
            path: None,
            progress: false,
            sample_period: Duration::from_millis(500),
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
    pub(crate) fn with_progress(mut self, progress: bool) -> Self {
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

/// What a live session emitted, returned by [`LiveSession::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LiveReport {
    /// NDJSON lines emitted (events + inline samples).
    pub events: u64,
    /// Of those, the inline `sample` lines.
    pub samples: u64,
}

/// Session-internal state behind the hub mutex.
struct Hub {
    started: Instant,
    sink: Option<BufWriter<File>>,
    sink_failed: bool,
    progress: bool,
    tap: Option<LiveTap>,
    emitted: u64,
    sampled: u64,
    sample_period: Duration,
    last_sample: Instant,
    prev_counters: BTreeMap<String, u64>,
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
    window: Window,
}

/// Opens an exclusive live telemetry session.
///
/// The file sink (when [`LiveConfig::path`] is set) is created eagerly so
/// an unwritable path fails up front rather than silently losing the
/// stream. The sampler reads the **metric registry**, so callers that
/// want non-empty samples should also open [`crate::session`] (before
/// this one — [`crate::EmitSpec::open`] follows that order).
///
/// # Errors
///
/// Returns a message naming the sink path when it cannot be created.
pub fn session(config: LiveConfig) -> Result<LiveSession, String> {
    let window = Window::open(LIVE, || {
        let sink = match &config.path {
            Some(path) => {
                Some(BufWriter::new(File::create(path).map_err(|e| {
                    format!("cannot create live telemetry sink `{path}`: {e}")
                })?))
            }
            None => None,
        };
        let now = Instant::now();
        *lock_hub() = Some(Hub {
            started: now,
            sink,
            sink_failed: false,
            progress: config.progress,
            tap: config.tap,
            emitted: 0,
            sampled: 0,
            sample_period: config.sample_period,
            last_sample: now,
            prev_counters: BTreeMap::new(),
            label: String::from("campaign"),
            campaign_started_at: now,
            campaign_base: 0,
        });
        Ok::<(), String>(())
    })?;
    Ok(LiveSession { window })
}

impl LiveSession {
    /// Ends the session and returns its line counts. The sink has already
    /// received (and been flushed after) every line.
    pub fn finish(self) -> LiveReport {
        self.teardown()
        // `self` drops here; `Drop` finds the hub gone and is a no-op.
    }

    /// Disables emission and drains the hub into a [`LiveReport`].
    fn teardown(&self) -> LiveReport {
        self.window.close();
        let Some(mut hub) = lock_hub().take() else {
            return LiveReport::default();
        };
        if let Some(sink) = &mut hub.sink {
            let _ = sink.flush();
        }
        LiveReport {
            events: hub.emitted,
            samples: hub.sampled,
        }
    }
}

impl Drop for LiveSession {
    fn drop(&mut self) {
        let _ = self.teardown();
    }
}

fn lock_hub() -> MutexGuard<'static, Option<Hub>> {
    HUB.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Emission helpers (the instrumented call sites)
// ---------------------------------------------------------------------------

/// Emits [`LiveEvent::CampaignStarted`] (no-op while disabled).
#[inline]
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
#[inline]
pub fn wave_completed(done: usize, total: usize, deadline_remaining: Option<Duration>) {
    if enabled() {
        emit_wave(done, total, deadline_remaining);
    }
}

/// [`wave_completed`] in an open session.
fn emit_wave(done: usize, total: usize, deadline_remaining: Option<Duration>) {
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

/// Emits the final [`LiveEvent::CampaignFinished`] for a campaign
/// (no-op while disabled). `outcome` is `"complete"`, `"interrupted"`, or
/// `"failed"`.
#[inline]
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
pub(crate) fn emit(event: LiveEvent) {
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
    push_line(hub, &event_line(t_s, event));
    if hub.progress {
        progress_line(hub, event);
    }
    maybe_sample(hub);
}

/// Hands one NDJSON line to the tap and the sink (flushing, so `tail -f`
/// sees it immediately).
fn push_line(hub: &mut Hub, line: &str) {
    hub.emitted += 1;
    if let Some(tap) = &hub.tap {
        tap.call(line);
    }
    if let Some(sink) = &mut hub.sink {
        if !hub.sink_failed {
            let failed = writeln!(sink, "{line}").is_err() || sink.flush().is_err();
            if failed {
                // Keep the campaign running; the tap and the report's
                // counts still see every line.
                hub.sink_failed = true;
                eprintln!("live telemetry: sink write failed; further lines are not written");
            }
        }
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
        LiveEvent::CheckpointWritten { .. } => {}
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
            deltas.insert(name.as_str(), delta);
        }
    }
    let line = sample_line(hub.started.elapsed().as_secs_f64(), &deltas, &snap.gauges);
    hub.prev_counters = snap.counters;
    hub.sampled += 1;
    push_line(hub, &line);
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

/// One `sample` line: counter deltas since the previous sample and the
/// current gauge values.
fn sample_line(t_s: f64, counters: &BTreeMap<&str, u64>, gauges: &BTreeMap<String, f64>) -> String {
    let mut out = String::with_capacity(128);
    out.push_str("{\"t_s\": ");
    write_json_number(&mut out, t_s);
    out.push_str(", \"event\": \"sample\", \"counters\": {");
    for (i, (name, delta)) in counters.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_json_string(&mut out, name);
        let _ = write!(out, ": {delta}");
    }
    out.push_str("}, \"gauges\": {");
    for (i, (name, value)) in gauges.iter().enumerate() {
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

    /// Lines collected by a tap, the way in-process readers see them.
    type Lines = Arc<Mutex<Vec<String>>>;

    fn collecting_tap() -> (LiveTap, Lines) {
        let lines: Lines = Arc::default();
        let sink = Arc::clone(&lines);
        let tap = LiveTap::new(move |line| {
            sink.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(line.to_string());
        });
        (tap, lines)
    }

    fn taken(lines: &Lines) -> Vec<String> {
        std::mem::take(&mut *lines.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// All live tests funnel through the metrics session lock so they
    /// serialize against each other and against anything else touching
    /// the global hub; every test reads its lines through a tap.
    fn locked_session(config: LiveConfig) -> (crate::Session, LiveSession, Lines) {
        let metrics = crate::session();
        let (tap, lines) = collecting_tap();
        let live = session(config.with_tap(tap)).expect("in-memory live session opens");
        (metrics, live, lines)
    }

    #[test]
    fn disabled_helpers_are_noops_and_stream_parses_when_enabled() {
        let metrics = crate::session();
        // Disabled: nothing panics, nothing is recorded.
        assert!(!enabled());
        campaign_started("noop", 4, 0);
        wave_completed(2, 4, None);
        emit(LiveEvent::CheckpointWritten {
            path: "nowhere.json".into(),
            completed: 2,
        });
        campaign_finished(4, 4, "complete");
        assert_eq!(wave_grain(64), usize::MAX);

        let (tap, lines) = collecting_tap();
        let live = session(LiveConfig::default().with_tap(tap)).expect("session opens");
        assert!(enabled());
        assert_eq!(wave_grain(64), 8);
        assert_eq!(wave_grain(1), 1);
        assert_eq!(wave_grain(9), 2);
        campaign_started("fault_mc", 8, 2);
        wave_completed(5, 8, None);
        emit(LiveEvent::CheckpointWritten {
            path: "ckpt.json".into(),
            completed: 5,
        });
        campaign_finished(8, 8, "complete");
        let report = live.finish();
        assert!(!enabled());
        let lines = taken(&lines);
        assert!(report.events >= 4, "events={}", report.events);
        assert_eq!(report.events, lines.len() as u64);
        for line in &lines {
            let value = parse_json(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
            assert!(value.get("event").is_some(), "{line}");
            assert!(value.get("t_s").is_some(), "{line}");
        }
        let wave = lines
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
    fn tap_sees_every_line() {
        let (metrics, live, lines) = locked_session(LiveConfig::default());
        campaign_started("tapped", 4, 0);
        wave_completed(2, 4, None);
        wave_completed(4, 4, None);
        campaign_finished(4, 4, "complete");
        let report = live.finish();
        assert_eq!(
            report,
            LiveReport {
                events: 4,
                samples: 0
            }
        );
        let tapped = taken(&lines);
        assert_eq!(tapped.len(), 4, "{tapped:?}");
        for line in &tapped {
            let value = parse_json(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
            assert!(value.get("event").is_some(), "{line}");
        }
        assert!(tapped[0].contains("campaign_started"));
        assert!(tapped[3].contains("campaign_finished"));
        drop(metrics);
    }

    #[test]
    fn deadline_projection_emits_approaching_event() {
        let (metrics, live, lines) = locked_session(LiveConfig::default());
        campaign_started("slow", 1_000, 0);
        // One item done: the ETA for 999 more at this rate dwarfs a 1 ms
        // budget, so the deadline event must fire.
        std::thread::sleep(Duration::from_millis(2));
        wave_completed(1, 1_000, Some(Duration::from_millis(1)));
        live.finish();
        let lines = taken(&lines);
        assert!(
            lines.iter().any(|l| l.contains("deadline_approaching")),
            "{lines:?}"
        );
        drop(metrics);
    }

    #[test]
    fn sampler_captures_counter_deltas() {
        static SAMPLED: crate::Counter = crate::Counter::new("live.test.sampled");
        let (metrics, live, lines) =
            locked_session(LiveConfig::default().with_sample_period(Duration::ZERO));
        SAMPLED.add(3);
        campaign_started("sampled", 2, 0);
        SAMPLED.add(4);
        wave_completed(2, 2, None);
        let report = live.finish();
        let samples: Vec<_> = taken(&lines)
            .iter()
            .map(|line| parse_json(line).expect("line parses"))
            .filter(|value| value.get("event").and_then(|e| e.as_str()) == Some("sample"))
            .collect();
        assert!(!samples.is_empty());
        assert_eq!(report.samples, samples.len() as u64);
        let total: u64 = samples
            .iter()
            .filter_map(|s| s.get("counters")?.get("live.test.sampled")?.as_u64())
            .sum();
        assert_eq!(total, 7);
        drop(metrics);
    }

    #[test]
    fn file_sink_receives_flushed_lines() {
        let path = std::env::temp_dir().join(format!(
            "mnsim_live_sink_{}.ndjson",
            std::process::id()
        ));
        let path_str = path.to_string_lossy().to_string();
        let (metrics, live, lines) = locked_session(LiveConfig::default().to_path(&path_str));
        campaign_started("sink", 1, 0);
        campaign_finished(1, 1, "complete");
        let report = live.finish();
        let on_disk = std::fs::read_to_string(&path).expect("sink file exists");
        let disk_lines: Vec<&str> = on_disk.lines().collect();
        let tapped = taken(&lines);
        assert_eq!(disk_lines.len() as u64, report.events);
        assert_eq!(disk_lines, tapped);
        let _ = std::fs::remove_file(&path);
        drop(metrics);
    }
}
