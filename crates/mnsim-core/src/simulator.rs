//! The `Simulator` session facade: the one public way to run a workload.
//!
//! Configure once, then [`Simulator::run`] a clean or faulty simulation,
//! [`Simulator::explore`] a design space, or [`Simulator::validate`]
//! against the circuit baseline. Each call reads the builder's five
//! settable values and nothing else: the worker-thread count, the fault
//! campaign, the [`CheckpointPolicy`], the [`Deadline`] and the
//! [`CancelToken`]. (The plain [`crate::simulate::simulate`] stays public
//! as the serial one-configuration shortcut.) [`Session`] adds the
//! cross-request layer on top: the same calls, answered from a
//! fingerprint-keyed [`ArtifactCache`] when the configuration was already
//! evaluated.
//!
//! Instrumentation composes from the *outside*: metrics
//! ([`mnsim_obs::session`]), the trace ([`mnsim_obs::trace::session`]) and
//! live telemetry ([`mnsim_obs::live`]) are sessions the caller opens
//! around a call, and every record site inside it fans out to whichever
//! are open. With a live session open, the campaign driver behind fault
//! campaigns and sweeps streams typed progress events
//! (`campaign_started`, `wave_completed` with ETA and items/s,
//! `checkpoint_written`, `campaign_finished`, …) into it. No session
//! changes a bit of a result, and none costs anything when closed. See
//! the `repro` CLI's `--emit <kind>=<path>`/`--progress` flags for the
//! canonical wiring.
//!
//! ```
//! use mnsim_core::{Config, Simulator};
//! use mnsim_obs as obs;
//!
//! # fn main() -> Result<(), mnsim_core::CoreError> {
//! let metrics = obs::session();
//! let report = Simulator::new(Config::fully_connected_mlp(&[256, 128])?)
//!     .threads(2)
//!     .run()?;
//! assert!(report.total_area.square_millimeters() > 0.0);
//! assert_eq!(metrics.snapshot().counter("core.simulate.runs"), 1);
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;

use crate::cache::{Artifact, ArtifactCache};
use crate::checkpoint::{self, CheckpointPolicy};
use crate::config::Config;
use crate::dse::{self, sweep_fingerprint, Constraints, DesignSpace, DseResult};
use crate::error::CoreError;
use crate::exec::{CancelToken, Deadline, RunControl};
use crate::fault_sim::{campaign_fingerprint, simulate_with_faults, FaultConfig};
use crate::simulate::{simulate, Report};
use crate::validate::{validate_against_circuit, ValidationRow};

/// A configured simulation session: one [`Config`] and the five values
/// every capability reads — worker threads, an optional fault campaign,
/// checkpoint policy, deadline and cancellation token.
///
/// The builder methods take and return `self`, so a session reads as one
/// chain; the struct is `Clone`, so a tuned session can be reused across
/// runs and sweeps, or moved to another thread for a background run.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: Config,
    threads: usize,
    faults: Option<FaultConfig>,
    checkpoint: Option<CheckpointPolicy>,
    /// The deadline and cancellation token, in the shape the campaign
    /// driver observes them.
    control: RunControl,
}

impl Simulator {
    /// A session over `config`: auto thread count, no fault campaign, no
    /// checkpoint, no deadline, no cancellation token.
    pub fn new(config: Config) -> Self {
        Simulator {
            config,
            threads: 0,
            faults: None,
            checkpoint: None,
            control: RunControl::new(),
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
        self.threads = threads;
        self
    }

    /// Attach a fault-injection campaign to [`Simulator::run`]; the
    /// Monte-Carlo trial loop uses this session's thread count.
    #[must_use]
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Bounds every fault campaign ([`Simulator::run`]) and sweep
    /// ([`Simulator::explore`]) by `deadline`; the run stops at the next
    /// chunk boundary once it passes. Deadlines are absolute instants: the
    /// clock runs from when the deadline value was created
    /// ([`Deadline::after_millis`] is the `--deadline-ms` CLI convention),
    /// not from when a run starts, so one deadline can bound a whole
    /// sequence of runs.
    #[must_use]
    pub fn deadline(mut self, deadline: Deadline) -> Self {
        self.control.deadline = Some(deadline);
        self
    }

    /// Has every fault campaign and sweep observe `token`: once it is
    /// cancelled (from any thread, or by the item budget of
    /// [`CancelToken::after_items`]), the run stops at the next chunk
    /// boundary with [`CoreError::Cancelled`], its completed items
    /// checkpointed when a policy is set. Clones of a token share one
    /// flag, so keep a clone to stop a run started on another thread:
    ///
    /// ```
    /// use mnsim_core::{CancelToken, Config, CoreError, FaultConfig, Simulator};
    ///
    /// # fn main() -> Result<(), CoreError> {
    /// let token = CancelToken::new();
    /// let sim = Simulator::new(Config::fully_connected_mlp(&[64, 32])?)
    ///     .faults(FaultConfig::default())
    ///     .cancel(token.clone());
    /// token.cancel();
    /// let background = std::thread::spawn(move || sim.run());
    /// let outcome = background.join().expect("the run thread does not panic");
    /// assert!(matches!(outcome, Err(CoreError::Cancelled { completed: 0, .. })));
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.control.cancel = Some(token);
        self
    }

    /// Attaches a checkpoint policy — the one place to set one — to the
    /// session's fault campaign and design-space sweeps: completed trials
    /// (or evaluated combinations) are persisted to the policy's path as
    /// the run goes, and a run resumes from that file when it already
    /// exists. The file must have been written by the same campaign; a
    /// resumed run is bit-identical to an uninterrupted one. Like the
    /// deadline and the token, it has no effect on clean (fault-less) runs
    /// or on validation.
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
    /// and returns the [`Report`]. A fault campaign observes the session's
    /// deadline and token at chunk boundaries and honors its
    /// [`CheckpointPolicy`]; with a [`mnsim_obs::live`] session open it
    /// streams progress events per wave, and an interrupted run still
    /// emits its final `campaign_finished` event before the error returns.
    ///
    /// The report is bit-identical for every thread count, and with or
    /// without instrumentation sessions open.
    ///
    /// # Errors
    ///
    /// Returns configuration validation errors; with a campaign attached,
    /// also its circuit errors, [`CoreError::Cancelled`] /
    /// [`CoreError::DeadlineExceeded`] when the token or the deadline cut
    /// it short, [`CoreError::WorkerPanic`] for a panicking trial and
    /// [`CoreError::Checkpoint`] for an unusable or mismatched checkpoint
    /// file.
    pub fn run(&self) -> Result<Report, CoreError> {
        match &self.faults {
            Some(fault_config) => simulate_with_faults(
                &self.config,
                fault_config,
                self.threads,
                &self.control,
                self.checkpoint.as_ref(),
            ),
            None => simulate(&self.config),
        }
    }

    /// Exhaustively explores `space` around this session's configuration
    /// on the session's worker pool (paper §VII), honoring the session's
    /// deadline, token and checkpoint policy and streaming live progress
    /// events per wave. The swept crossbar size, parallelism degree and
    /// interconnect node override the configuration's; feasible designs
    /// come back in traversal order and are bit-identical for every thread
    /// count.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for an invalid [`DesignSpace`],
    /// [`CoreError::EmptyDesignSpace`] if no combination passes the
    /// constraints, the earliest combination's evaluation error,
    /// [`CoreError::Cancelled`] / [`CoreError::DeadlineExceeded`] when the
    /// token or the deadline cut the sweep short,
    /// [`CoreError::WorkerPanic`] for a panicking evaluation, and
    /// [`CoreError::Checkpoint`] for an unusable or mismatched checkpoint
    /// file.
    pub fn explore(
        &self,
        space: &DesignSpace,
        constraints: &Constraints,
    ) -> Result<DseResult, CoreError> {
        dse::explore(
            &self.config,
            space,
            constraints,
            self.threads,
            &self.control,
            self.checkpoint.as_ref(),
        )
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
            self.threads,
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
/// cache and with concurrent readers. A result carries no per-run
/// observation (those live in the caller's instrumentation sessions) and
/// is deterministic at any thread count, so a hit is bit-identical to a
/// re-run.
///
/// Fingerprints cover exactly what determines the result (config, fault
/// campaign parameters, design space, constraints, validation sampling)
/// and exclude what does not (thread count, deadline, cancellation token,
/// checkpoint policy).
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
    /// report without executing anything; a miss runs, stores the report,
    /// and returns it.
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
        let report = Arc::new(self.sim.run()?);
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
    fn background_run_completes_and_matches_run() {
        let config = Config::fully_connected_mlp(&[64, 32]).unwrap();
        let sim = Simulator::new(config).threads(2).faults(FaultConfig {
            trials: 3,
            ..FaultConfig::default()
        });
        let direct = sim.run().unwrap();
        let background = std::thread::spawn({
            let sim = sim.clone().cancel(CancelToken::new());
            move || sim.run()
        });
        assert_eq!(direct, background.join().unwrap().unwrap());
    }

    #[test]
    fn cancelled_run_reports_typed_error() {
        let config = Config::fully_connected_mlp(&[64, 32]).unwrap();
        // Budget token: deterministic mid-campaign cancellation.
        let sim = Simulator::new(config)
            .threads(1)
            .faults(FaultConfig {
                trials: 64,
                ..FaultConfig::default()
            })
            .cancel(CancelToken::after_items(2));
        match sim.run() {
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
            .threads(1);
        assert_eq!(sim.config().crossbar_size, 64);
        assert_eq!(sim.threads, 1);
        assert!(Simulator::from_text("Crosbar_Size = 64\n").is_err());
    }
}
