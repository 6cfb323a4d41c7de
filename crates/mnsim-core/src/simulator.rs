//! The `Simulator` session facade: the one public way to run a workload.
//!
//! Configure once, then [`Simulator::run`] a clean or faulty simulation,
//! [`Simulator::explore`] a design space, or [`Simulator::validate`]
//! against the circuit baseline — all on the same [`ExecOptions`] worker
//! pool, with metrics and trace sessions owned by the facade. A session
//! deadline and [`CheckpointPolicy`] apply to fault campaigns and sweeps
//! alike; the `_controlled` variants add a caller's [`RunControl`]. (The
//! plain [`crate::simulate::simulate`] stays public as the serial
//! one-configuration shortcut.) [`Session`] adds the cross-request layer
//! on top: the same calls, answered from a fingerprint-keyed
//! [`ArtifactCache`] when the configuration was already evaluated.
//!
//! Live telemetry composes from the *outside*: when a front end holds an
//! open [`mnsim_obs::live`] session, the campaign driver behind fault
//! campaigns and sweeps streams typed progress events (`campaign_started`,
//! `wave_completed` with ETA and items/s, `checkpoint_written`,
//! `campaign_finished`, …) into it — no `Simulator` knob needed, and no
//! cost at all when no session is open. See the `repro` CLI's
//! `--emit live=<path>`/`--progress` flags for the canonical wiring.
//!
//! ```
//! use mnsim_core::{Config, Simulator};
//!
//! # fn main() -> Result<(), mnsim_core::CoreError> {
//! let report = Simulator::new(Config::fully_connected_mlp(&[256, 128])?)
//!     .threads(2)
//!     .metrics(true)
//!     .run()?;
//! assert!(report.metrics.is_some());
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;

use mnsim_obs as obs;
use mnsim_obs::trace;

use crate::cache::{Artifact, ArtifactCache};
use crate::checkpoint::{self, CheckpointPolicy};
use crate::config::Config;
use crate::dse::{self, sweep_fingerprint, Constraints, DesignSpace, DseResult};
use crate::error::CoreError;
use crate::exec::{CancelToken, Deadline, ExecOptions, RunControl};
use crate::fault_sim::{campaign_fingerprint, simulate_with_faults, FaultConfig};
use crate::simulate::{simulate, Report};
use crate::validate::{validate_against_circuit, ValidationRow};

/// A configured simulation session: one [`Config`], one [`ExecOptions`],
/// and (optionally) a fault campaign, shared by every capability.
///
/// The builder methods take and return `self`, so a session reads as one
/// chain; the struct is `Clone`, so a tuned session can be reused across
/// runs and sweeps.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: Config,
    options: ExecOptions,
    faults: Option<FaultConfig>,
    deadline: Option<Deadline>,
    checkpoint: Option<CheckpointPolicy>,
}

impl Simulator {
    /// A session over `config` with default execution options (auto
    /// thread count, no metrics, no trace, no faults).
    pub fn new(config: Config) -> Self {
        Simulator {
            config,
            options: ExecOptions::default(),
            faults: None,
            deadline: None,
            checkpoint: None,
        }
    }

    /// A session parsed from the Table I `key = value` file format.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ConfigParse`] (with a did-you-mean suggestion
    /// for misspelled keys) or [`CoreError::Config`] listing every invalid
    /// value.
    pub fn from_text(text: &str) -> Result<Self, CoreError> {
        Ok(Simulator::new(Config::from_text(text)?))
    }

    /// Sets the worker-thread count (`0` = auto, `1` = serial) of the pool
    /// that fans out fault trials, sweep points and validation matrices;
    /// a clean [`Simulator::run`] is serial regardless. Results are
    /// bit-identical for every choice.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.options.threads = threads;
        self
    }

    /// Collect an observability snapshot during [`Simulator::run`] and
    /// attach it as [`Report::metrics`]. The facade owns the exclusive
    /// [`obs::session`], so only one metrics-enabled run may execute at a
    /// time per process.
    #[must_use]
    pub fn metrics(mut self, metrics: bool) -> Self {
        self.options.metrics = metrics;
        self
    }

    /// Record a hierarchical trace during [`Simulator::run`] and attach
    /// its summary as [`Report::trace`]. The facade owns the exclusive
    /// [`trace::session`], so only one trace-enabled run may execute at a
    /// time per process.
    #[must_use]
    pub fn trace(mut self, trace: bool) -> Self {
        self.options.trace = trace;
        self
    }

    /// Replaces the whole [`ExecOptions`] in one call.
    #[must_use]
    pub fn options(mut self, options: ExecOptions) -> Self {
        self.options = options;
        self
    }

    /// Attach a fault-injection campaign to [`Simulator::run`]; the
    /// Monte-Carlo trial loop uses this session's thread count.
    #[must_use]
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Bounds every subsequent fault campaign ([`Simulator::run`],
    /// [`Simulator::run_cancellable`]) and sweep ([`Simulator::explore`])
    /// by `deadline`. Deadlines are absolute instants: the clock runs from
    /// when the deadline value was created, not from when the run starts.
    #[must_use]
    pub fn deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Bounds the run by a deadline `millis` milliseconds **from now**
    /// (the moment this builder is called) — the `--deadline-ms` CLI
    /// convention.
    #[must_use]
    pub fn deadline_ms(mut self, millis: u64) -> Self {
        self.deadline = Some(Deadline::after_millis(millis));
        self
    }

    /// Attaches a checkpoint policy — the one place to set one — to the
    /// session's fault campaign and design-space sweeps: completed trials
    /// (or evaluated combinations) are persisted to the policy's path as
    /// the run goes, and a run resumes from that file when it already
    /// exists. The file must have been written by the same campaign; a
    /// resumed run is bit-identical to an uninterrupted one. Has no effect
    /// on clean (fault-less) runs or on validation.
    #[must_use]
    pub fn checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some(policy);
        self
    }

    /// The session's configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Runs the simulation (with the fault campaign, if one is attached)
    /// and returns the [`Report`], with metrics and/or trace summaries
    /// attached when the corresponding flags are set.
    ///
    /// Numerical report fields are bit-identical for every thread count;
    /// only the optional `metrics` / `trace` attachments (timing and
    /// counter data) vary run to run.
    ///
    /// # Errors
    ///
    /// Returns configuration validation errors, and fault-campaign errors
    /// when a campaign is attached.
    pub fn run(&self) -> Result<Report, CoreError> {
        self.run_controlled(&RunControl::default())
    }

    /// [`Simulator::run`] under an explicit campaign control plane: the
    /// fault-campaign trial loop observes `control`'s cancellation token
    /// and deadline at chunk boundaries (a session deadline from
    /// [`Simulator::deadline`] fills in when `control` carries none), and
    /// the session's [`CheckpointPolicy`] is honored. With an open
    /// [`mnsim_obs::live`] session the campaign additionally streams
    /// progress events per wave; an interrupted run still emits its final
    /// `campaign_finished` event before the error returns.
    ///
    /// # Errors
    ///
    /// Everything [`Simulator::run`] returns, plus
    /// [`CoreError::Cancelled`] / [`CoreError::DeadlineExceeded`] when the
    /// control plane cut the campaign short and [`CoreError::WorkerPanic`]
    /// for a panicking trial.
    pub fn run_controlled(&self, control: &RunControl) -> Result<Report, CoreError> {
        let control = self.with_session_deadline(control);
        // Sessions open before the run so they observe all of it; metrics
        // snapshot while live, trace consumed by `finish`.
        let metrics_session = self.options.metrics.then(obs::session);
        let trace_session = self.options.trace.then(trace::session);
        let mut report = match &self.faults {
            Some(fault_config) => simulate_with_faults(
                &self.config,
                fault_config,
                self.options.threads,
                &control,
                self.checkpoint.as_ref(),
            )?,
            None => simulate(&self.config)?,
        };
        if let Some(session) = metrics_session {
            report = report.with_metrics(session.snapshot());
        }
        if let Some(session) = trace_session {
            report = report.with_trace(session.finish().summary());
        }
        Ok(report)
    }

    /// Starts the run on a background thread and returns a [`RunHandle`]
    /// with a fresh [`CancelToken`] wired into the campaign: call
    /// [`RunHandle::cancel`] to stop it cooperatively (completed trials
    /// are checkpointed when a policy is set), then [`RunHandle::join`]
    /// for the outcome.
    pub fn run_cancellable(&self) -> RunHandle {
        let token = CancelToken::new();
        let control = RunControl::with_cancel(token.clone());
        let session = self.clone();
        let thread = std::thread::spawn(move || session.run_controlled(&control));
        RunHandle { token, thread }
    }

    /// Exhaustively explores `space` around this session's configuration
    /// on the session's worker pool (paper §VII), honoring the session
    /// deadline and checkpoint policy. The swept crossbar size,
    /// parallelism degree and interconnect node override the
    /// configuration's; feasible designs come back in traversal order and
    /// are bit-identical for every thread count. Metrics/trace flags apply
    /// to [`Simulator::run`] only — a sweep produces thousands of reports,
    /// none of which owns the session-wide instrumentation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for an invalid [`DesignSpace`],
    /// [`CoreError::EmptyDesignSpace`] if no combination passes the
    /// constraints, the earliest combination's evaluation error,
    /// [`CoreError::DeadlineExceeded`] when the session deadline cut the
    /// sweep short, and [`CoreError::Checkpoint`] for an unusable or
    /// mismatched checkpoint file.
    pub fn explore(
        &self,
        space: &DesignSpace,
        constraints: &Constraints,
    ) -> Result<DseResult, CoreError> {
        self.explore_controlled(space, constraints, &RunControl::default())
    }

    /// [`Simulator::explore`] under an explicit campaign control plane,
    /// mirroring [`Simulator::run_controlled`]: the sweep observes
    /// `control`'s cancellation token and deadline at chunk boundaries (a
    /// session deadline fills in when `control` carries none) and streams
    /// live progress events per wave.
    ///
    /// # Errors
    ///
    /// Everything [`Simulator::explore`] returns, plus
    /// [`CoreError::Cancelled`] when the token cut the sweep short and
    /// [`CoreError::WorkerPanic`] for a panicking evaluation.
    pub fn explore_controlled(
        &self,
        space: &DesignSpace,
        constraints: &Constraints,
        control: &RunControl,
    ) -> Result<DseResult, CoreError> {
        dse::explore(
            &self.config,
            space,
            constraints,
            self.options.threads,
            &self.with_session_deadline(control),
            self.checkpoint.as_ref(),
        )
    }

    /// `control`, with the session deadline filling in when it has none.
    fn with_session_deadline(&self, control: &RunControl) -> RunControl {
        RunControl {
            deadline: control.deadline.or(self.deadline),
            ..control.clone()
        }
    }

    /// Validates the behavior models against the circuit baseline on the
    /// session's worker pool (paper Table II): computation power, read
    /// power and average relative accuracy of `config`'s first bank
    /// geometry over `matrices` random weight samples ×
    /// `inputs_per_matrix` random input vectors. Rows are bit-identical
    /// for every thread count.
    ///
    /// # Errors
    ///
    /// Propagates circuit construction/solver failures, and
    /// [`CoreError::WorkerPanic`] for a panicking matrix study.
    pub fn validate(
        &self,
        matrices: usize,
        inputs_per_matrix: usize,
        seed: u64,
    ) -> Result<Vec<ValidationRow>, CoreError> {
        validate_against_circuit(
            &self.config,
            matrices,
            inputs_per_matrix,
            seed,
            self.options.threads,
        )
    }

    /// Wraps this simulator in a [`Session`] with its own fresh
    /// [`ArtifactCache`] (default budget).
    #[must_use]
    pub fn into_session(self) -> Session {
        self.into_session_with(Arc::new(ArtifactCache::new()))
    }

    /// Wraps this simulator in a [`Session`] over a shared
    /// [`ArtifactCache`] — the shape `mnsim-serve` uses, where many
    /// sessions (one per request) share one process-wide cache.
    #[must_use]
    pub fn into_session_with(self, cache: Arc<ArtifactCache>) -> Session {
        Session { sim: self, cache }
    }
}

/// A [`Simulator`] with memory: the same `run`/`explore`/`validate`
/// calls, answered from a fingerprint-keyed [`ArtifactCache`] when this
/// configuration was already evaluated (by this session or any other
/// session sharing the cache).
///
/// Results come back as [`Arc`]s because they may be shared with the
/// cache and with concurrent readers. Cached artifacts are **stripped**
/// of per-run `metrics`/`trace` attachments — those describe one
/// execution, not the configuration, and would otherwise make a cache
/// hit observably different from the run that populated it. Everything
/// else is bit-identical: results are deterministic at any thread count,
/// so a hit is indistinguishable from a re-run.
///
/// Fingerprints cover exactly what determines the result (config, fault
/// campaign parameters, design space, constraints, validation sampling)
/// and exclude what does not (thread count, metrics/trace flags,
/// deadlines, checkpoint policies).
#[derive(Debug, Clone)]
pub struct Session {
    sim: Simulator,
    cache: Arc<ArtifactCache>,
}

impl Session {
    /// The underlying simulator.
    pub fn simulator(&self) -> &Simulator {
        &self.sim
    }

    /// The shared artifact cache.
    pub fn cache(&self) -> &Arc<ArtifactCache> {
        &self.cache
    }

    /// The cache key of [`Session::run`]: the campaign fingerprint when a
    /// fault campaign is attached (same identity the checkpoint layer
    /// uses), otherwise the clean-simulation config fingerprint.
    pub fn run_fingerprint(&self) -> u64 {
        match &self.sim.faults {
            Some(fault_config) => campaign_fingerprint(&self.sim.config, fault_config),
            None => {
                let canonical = format!("simulate|config={:?}", self.sim.config);
                checkpoint::fnv64(canonical.as_bytes())
            }
        }
    }

    /// The cache key of [`Session::explore`] for `space`/`constraints`
    /// (the DSE checkpoint fingerprint).
    pub fn explore_fingerprint(&self, space: &DesignSpace, constraints: &Constraints) -> u64 {
        sweep_fingerprint(&self.sim.config, space, constraints)
    }

    /// The cache key of [`Session::validate`] for the given sampling
    /// parameters.
    pub fn validate_fingerprint(
        &self,
        matrices: usize,
        inputs_per_matrix: usize,
        seed: u64,
    ) -> u64 {
        let canonical = format!(
            "validate|config={:?}|matrices={matrices}|inputs_per_matrix={inputs_per_matrix}|\
             seed={seed:#018x}",
            self.sim.config,
        );
        checkpoint::fnv64(canonical.as_bytes())
    }

    /// [`Simulator::run`] through the cache: a hit returns the stored
    /// report without executing anything; a miss runs, stores the
    /// stripped report, and returns it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::run`]. Errors are never cached —
    /// a failed run leaves the cache untouched.
    pub fn run(&self) -> Result<Arc<Report>, CoreError> {
        let key = self.run_fingerprint();
        if let Some(Artifact::Report(report)) = self.cache.get(key) {
            return Ok(report);
        }
        let mut report = self.sim.run()?;
        report.metrics = None;
        report.trace = None;
        let report = Arc::new(report);
        self.cache.insert(key, Artifact::Report(Arc::clone(&report)));
        Ok(report)
    }

    /// [`Simulator::explore`] through the cache.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::explore`]; errors are never
    /// cached.
    pub fn explore(
        &self,
        space: &DesignSpace,
        constraints: &Constraints,
    ) -> Result<Arc<DseResult>, CoreError> {
        let key = self.explore_fingerprint(space, constraints);
        if let Some(Artifact::DseFront(result)) = self.cache.get(key) {
            return Ok(result);
        }
        let result = Arc::new(self.sim.explore(space, constraints)?);
        self.cache.insert(key, Artifact::DseFront(Arc::clone(&result)));
        Ok(result)
    }

    /// [`Simulator::validate`] through the cache.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::validate`]; errors are never
    /// cached.
    pub fn validate(
        &self,
        matrices: usize,
        inputs_per_matrix: usize,
        seed: u64,
    ) -> Result<Arc<Vec<ValidationRow>>, CoreError> {
        let key = self.validate_fingerprint(matrices, inputs_per_matrix, seed);
        if let Some(Artifact::Validation(rows)) = self.cache.get(key) {
            return Ok(rows);
        }
        let rows = Arc::new(self.sim.validate(matrices, inputs_per_matrix, seed)?);
        self.cache.insert(key, Artifact::Validation(Arc::clone(&rows)));
        Ok(rows)
    }
}

/// A cancellable, joinable in-flight run started by
/// [`Simulator::run_cancellable`].
#[derive(Debug)]
pub struct RunHandle {
    token: CancelToken,
    thread: std::thread::JoinHandle<Result<Report, CoreError>>,
}

impl RunHandle {
    /// Requests cooperative cancellation; the campaign stops at the next
    /// chunk boundary (completed trials are checkpointed when a policy is
    /// set) and [`RunHandle::join`] returns [`CoreError::Cancelled`].
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// Whether the run has finished (successfully or not); [`RunHandle::join`]
    /// will not block once this is `true`.
    pub fn is_finished(&self) -> bool {
        self.thread.is_finished()
    }

    /// Waits for the run and returns its outcome. A panic on the run
    /// thread outside the panic-isolated trial loop is propagated.
    pub fn join(self) -> Result<Report, CoreError> {
        match self.thread.join() {
            Ok(outcome) => outcome,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_matches_legacy_simulate() {
        let config = Config::fully_connected_mlp(&[256, 128]).unwrap();
        let legacy = simulate(&config).unwrap();
        for threads in [1usize, 2, 7] {
            let report = Simulator::new(config.clone()).threads(threads).run().unwrap();
            assert_eq!(legacy, report, "threads={threads}");
        }
    }

    #[test]
    fn facade_runs_fault_campaigns() {
        let config = Config::fully_connected_mlp(&[64, 32]).unwrap();
        let fault_config = FaultConfig {
            trials: 3,
            ..FaultConfig::default()
        };
        let direct =
            simulate_with_faults(&config, &fault_config, 2, &RunControl::new(), None).unwrap();
        let facade = Simulator::new(config)
            .faults(fault_config)
            .threads(2)
            .run()
            .unwrap();
        assert_eq!(direct, facade);
        assert!(facade.faults.is_some());
    }

    #[test]
    fn metrics_and_trace_attach() {
        let config = Config::fully_connected_mlp(&[128, 64]).unwrap();
        let report = Simulator::new(config)
            .threads(2)
            .metrics(true)
            .trace(true)
            .run()
            .unwrap();
        let metrics = report.metrics.expect("metrics attached");
        assert!(metrics.counter("core.simulate.runs") >= 1);
        let trace = report.trace.expect("trace attached");
        assert!(trace.events > 0);
        assert!(trace.spans.contains_key("simulate"));
    }

    #[test]
    fn run_cancellable_completes_and_matches_run() {
        let config = Config::fully_connected_mlp(&[64, 32]).unwrap();
        let sim = Simulator::new(config).threads(2).faults(FaultConfig {
            trials: 3,
            ..FaultConfig::default()
        });
        let direct = sim.run().unwrap();
        let handle = sim.run_cancellable();
        let background = handle.join().unwrap();
        assert_eq!(direct, background);
    }

    #[test]
    fn cancelled_run_reports_typed_error() {
        let config = Config::fully_connected_mlp(&[64, 32]).unwrap();
        let sim = Simulator::new(config).threads(1).faults(FaultConfig {
            trials: 64,
            ..FaultConfig::default()
        });
        // Budget token: deterministic mid-campaign cancellation.
        let token = CancelToken::after_items(2);
        let control = RunControl::with_cancel(token);
        match sim.run_controlled(&control) {
            Err(CoreError::Cancelled {
                completed,
                total: 64,
                checkpoint: None,
            }) => assert!(completed < 64, "completed={completed}"),
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn session_deadline_bounds_the_campaign() {
        let config = Config::fully_connected_mlp(&[64, 32]).unwrap();
        let sim = Simulator::new(config)
            .threads(1)
            .deadline(Deadline::at(std::time::Instant::now()))
            .faults(FaultConfig {
                trials: 16,
                ..FaultConfig::default()
            });
        match sim.run() {
            Err(CoreError::DeadlineExceeded { completed: 0, total: 16, .. }) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn session_caches_runs_and_shares_across_sessions() {
        let config = Config::fully_connected_mlp(&[64, 32]).unwrap();
        let cache = Arc::new(ArtifactCache::new());
        let session = Simulator::new(config.clone())
            .threads(2)
            .into_session_with(Arc::clone(&cache));
        let first = session.run().unwrap();
        let second = session.run().unwrap();
        assert!(Arc::ptr_eq(&first, &second), "hit returns the cached Arc");
        assert_eq!(cache.stats().hits, 1);

        // A different session over the same cache and config also hits;
        // thread count is excluded from the fingerprint.
        let other = Simulator::new(config)
            .threads(7)
            .into_session_with(Arc::clone(&cache));
        assert_eq!(other.run_fingerprint(), session.run_fingerprint());
        let third = other.run().unwrap();
        assert!(Arc::ptr_eq(&first, &third));
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(cache.stats().insertions, 1);
    }

    #[test]
    fn session_strips_per_run_attachments_before_caching() {
        let config = Config::fully_connected_mlp(&[64, 32]).unwrap();
        let session = Simulator::new(config.clone())
            .threads(1)
            .metrics(true)
            .into_session();
        let cached = session.run().unwrap();
        assert!(cached.metrics.is_none());
        assert!(cached.trace.is_none());
        // The cached body equals a plain run.
        let plain = Simulator::new(config).threads(1).run().unwrap();
        assert_eq!(*cached, plain);
    }

    #[test]
    fn session_fingerprints_separate_capabilities_and_campaigns() {
        let config = Config::fully_connected_mlp(&[64, 32]).unwrap();
        let clean = Simulator::new(config.clone()).into_session();
        let faulty = Simulator::new(config)
            .faults(FaultConfig {
                trials: 3,
                ..FaultConfig::default()
            })
            .into_session();
        assert_ne!(clean.run_fingerprint(), faulty.run_fingerprint());
        assert_ne!(
            clean.validate_fingerprint(2, 2, 1),
            clean.validate_fingerprint(2, 2, 2)
        );
    }

    #[test]
    fn session_caches_fault_campaigns_and_validation() {
        let config = Config::fully_connected_mlp(&[64, 32]).unwrap();
        let session = Simulator::new(config)
            .threads(2)
            .faults(FaultConfig {
                trials: 3,
                ..FaultConfig::default()
            })
            .into_session();
        let first = session.run().unwrap();
        assert!(first.faults.is_some());
        let second = session.run().unwrap();
        assert!(Arc::ptr_eq(&first, &second));

        let rows = session.validate(2, 2, 7).unwrap();
        let rows_again = session.validate(2, 2, 7).unwrap();
        assert!(Arc::ptr_eq(&rows, &rows_again));
        assert_eq!(session.cache().stats().hits, 2);
    }

    #[test]
    fn builder_accessors_and_from_text() {
        let sim = Simulator::from_text("Crossbar_Size = 64\n")
            .unwrap()
            .options(ExecOptions::serial());
        assert_eq!(sim.config().crossbar_size, 64);
        assert_eq!(sim.options.threads, 1);
        assert!(Simulator::from_text("Crosbar_Size = 64\n").is_err());
    }
}
