//! Timing loops, set-up probes, process memory, and the result line.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::results::Run;
use crate::stats;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// Sample count and quartiles, when the value is a median.
    pub detail: Option<String>,
}

impl Metric {
    /// A plain value.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric {
            name,
            unit,
            value,
            detail: None,
        }
    }

    /// The median of `samples` (scaled by `scale`), with its sample count,
    /// quartiles and supported tail percentile kept for the human-readable
    /// line.
    pub fn median_of(name: &'static str, unit: &'static str, samples: &[f64], scale: f64) -> Self {
        let [q1, med, q3] = stats::quartiles(samples);
        let mut detail = format!("n={} q1={} q3={}", samples.len(), q1 * scale, q3 * scale);
        if let Some((p, value)) = stats::tail(samples) {
            let _ = write!(detail, " p{p}={}", value * scale);
        }
        Metric {
            name,
            unit,
            value: med * scale,
            detail: Some(detail),
        }
    }
}

/// Everything one workload run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (validations, campaigns, sweeps or requests).
    pub attempted: u64,
    /// Operations that errored, answered non-`ok`, or failed an oracle.
    pub failures: Vec<String>,
    /// Measured metrics, in declaration order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Failed operation count.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// `true` when nothing failed and at least one operation ran.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.attempted > 0
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and
    /// `metrics` (each `{"value", "unit"}`).
    pub fn json(&self) -> String {
        Run {
            correct: self.correct(),
            attempted: self.attempted,
            failed: self.failed(),
            metrics: self
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.value, m.unit.to_string()))
                .collect(),
        }
        .to_json()
    }

    /// Prints one line per metric (name, value, unit, sample detail),
    /// the failures, and the JSON result as the last line of stdout.
    pub fn print(&self, workload: &str) {
        for metric in &self.metrics {
            // Fixed point hides sub-microsecond values; switch to
            // scientific notation for them.
            let value = if metric.value == 0.0 || metric.value.abs() >= 1e-3 {
                format!("{:.6}", metric.value)
            } else {
                format!("{:.6e}", metric.value)
            };
            println!(
                "{workload:<18} {:<34} {value:>16} {:<6} {}",
                metric.name,
                metric.unit,
                metric.detail.as_deref().unwrap_or("")
            );
        }
        for failure in self.failures.iter().take(10) {
            eprintln!("{workload}: FAILED: {failure}");
        }
        println!("{}", self.json());
    }
}

/// Back-to-back operation times of one measured window.
#[derive(Debug, Clone, Default)]
pub struct OpLog {
    /// Seconds of each successful operation's timed call.
    pub seconds: Vec<f64>,
    /// Failure message of each failed operation.
    pub failures: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
}

/// Runs `op` back to back, at least once, and stops before an operation
/// that would end past `budget_s` (predicted from the previous one's wall
/// time, oracle checks included) or after `max_ops`. `op` returns the
/// seconds of its timed call or a failure message.
pub fn run_ops(
    budget_s: f64,
    max_ops: usize,
    mut op: impl FnMut() -> Result<f64, String>,
) -> OpLog {
    let start = Instant::now();
    let mut log = OpLog::default();
    let mut last_wall = 0.0;
    while (log.attempted as usize) < max_ops {
        if log.attempted > 0 && start.elapsed().as_secs_f64() + last_wall > budget_s {
            break;
        }
        let op_start = Instant::now();
        match op() {
            Ok(seconds) => log.seconds.push(seconds),
            Err(failure) => log.failures.push(failure),
        }
        log.attempted += 1;
        last_wall = op_start.elapsed().as_secs_f64();
    }
    log
}

/// Times `f` (seconds, result).
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed().as_secs_f64(), value)
}

/// Line a set-up child prints once its first operation could start.
pub const READY: &str = "ready";

/// Seconds from spawning this binary with `args` to the [`READY`] line on
/// its stdout. Waits for the child to exit, and fails unless it printed
/// the line and exited successfully.
///
/// # Errors
///
/// The child could not be started, never got ready, or failed.
pub fn time_to_ready(args: &[String]) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let start = Instant::now();
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start a set-up child: {e}"))?;
    let mut line = String::new();
    let read = match child.stdout.take() {
        Some(stdout) => BufReader::new(stdout).read_line(&mut line),
        None => Ok(0),
    };
    let seconds = start.elapsed().as_secs_f64();
    let status = child.wait().map_err(|e| format!("set-up child: {e}"))?;
    if read.is_err() || line.trim_end() != READY || !status.success() {
        return Err(format!("set-up child failed ({status})"));
    }
    Ok(seconds)
}

/// Peak resident set (`VmHWM`) of this process, in MB (10⁶ bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}
