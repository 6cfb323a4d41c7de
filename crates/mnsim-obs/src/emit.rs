//! The front ends' artifact protocol: `--emit <kind>=<path>` flags, the
//! sessions they open, and the artifacts written when the run ends.
//!
//! ```text
//! --emit metrics=m.json --emit trace=t.json --emit live=l.ndjson --progress
//! ```
//!
//! `metrics` writes the final [`crate::MetricsSnapshot`] JSON; `trace`
//! writes Chrome trace-event JSON and prints the [`crate::TraceSummary`]
//! table to stderr; `live` streams [`crate::live`] NDJSON while the run
//! goes, and `--progress` prints a human line per campaign wave. The live
//! sampler reads the metric registry, so `live` or `--progress` opens the
//! metrics session too.
//!
//! ```
//! use mnsim_obs::EmitSpec;
//!
//! let mut spec = EmitSpec::default();
//! let mut args = ["--emit", "metrics=m.json", "--progress"].map(String::from).into_iter();
//! while let Some(arg) = args.next() {
//!     assert!(spec.accept(&arg, &mut args).unwrap(), "both are emitter flags");
//! }
//! assert_eq!(spec.metrics.as_deref(), Some("m.json"));
//! assert!(spec.progress);
//! assert!(EmitSpec::default().accept("--emit", &mut ["nonsense".to_string()].into_iter()).is_err());
//! ```

use crate::live::{self, LiveConfig, LiveSession};
use crate::trace;

/// The artifacts a run was asked to emit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EmitSpec {
    /// `--emit metrics=<path>`.
    pub metrics: Option<String>,
    /// `--emit trace=<path>`.
    pub trace: Option<String>,
    /// `--emit live=<path>`.
    pub live: Option<String>,
    /// `--progress`: a human progress line per campaign wave on stderr.
    pub progress: bool,
}

impl EmitSpec {
    /// Takes `arg` if it is an emitter flag: `--emit` (with its value, the
    /// next item of `args`) or `--progress`. Returns `Ok(false)` for any
    /// other argument.
    ///
    /// # Errors
    ///
    /// A usage message for a missing or malformed `<kind>=<path>` value or
    /// an unknown kind.
    pub fn accept(
        &mut self,
        arg: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        match arg {
            "--progress" => self.progress = true,
            "--emit" => {
                let spec = args.next().ok_or("--emit requires <kind>=<path>")?;
                let Some((kind, path)) = spec.split_once('=') else {
                    return Err(format!("--emit expects <kind>=<path>, got {spec:?}"));
                };
                let slot = match kind {
                    "metrics" => &mut self.metrics,
                    "trace" => &mut self.trace,
                    "live" => &mut self.live,
                    other => {
                        return Err(format!(
                            "--emit: unknown artifact kind {other:?} (metrics, trace, live)"
                        ))
                    }
                };
                *slot = Some(path.to_string());
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Opens the sessions the spec needs, metrics before live (the live
    /// sampler reads the registry).
    ///
    /// # Errors
    ///
    /// A message naming the live sink when it cannot be created.
    pub fn open(self) -> Result<Emitter, String> {
        let live_wanted = self.live.is_some() || self.progress;
        let metrics = (self.metrics.is_some() || live_wanted).then(crate::session);
        let trace = self.trace.is_some().then(trace::session);
        let live = if live_wanted {
            let mut config = LiveConfig::default().with_progress(self.progress);
            config.path = self.live.clone();
            Some(live::session(config)?)
        } else {
            None
        };
        Ok(Emitter {
            spec: self,
            metrics,
            trace,
            live,
        })
    }
}

/// The open sessions of one front-end run; [`Emitter::finish`] writes the
/// artifacts.
#[derive(Debug)]
pub struct Emitter {
    spec: EmitSpec,
    metrics: Option<crate::Session>,
    trace: Option<trace::Session>,
    live: Option<LiveSession>,
}

impl Emitter {
    /// Ends the live stream, so an interrupted or failed run has flushed
    /// its final event before the caller decides its exit status.
    pub fn finish_live(&mut self) {
        if let Some(live) = self.live.take() {
            let report = live.finish();
            if let Some(path) = &self.spec.live {
                eprintln!(
                    "live telemetry written to {path} ({} lines, {} samples)",
                    report.events, report.samples
                );
            }
        }
    }

    /// Ends the live stream (if still open), then writes the trace —
    /// printing its summary table — and the metrics snapshot.
    ///
    /// # Errors
    ///
    /// A message naming the artifact that could not be written.
    pub fn finish(mut self) -> Result<(), String> {
        self.finish_live();
        if let (Some(path), Some(session)) = (&self.spec.trace, self.trace.take()) {
            let collected = session.finish();
            std::fs::write(path, collected.to_chrome_json())
                .map_err(|e| format!("error writing trace to `{path}`: {e}"))?;
            eprint!("{}", collected.summary().to_table());
            eprintln!("trace written to {path}");
        }
        if let Some(path) = &self.spec.metrics {
            let json = crate::snapshot().to_json();
            drop(self.metrics.take());
            std::fs::write(path, json)
                .map_err(|e| format!("error writing metrics to `{path}`: {e}"))?;
            eprintln!("metrics written to {path}");
        }
        Ok(())
    }
}
