//! The four workloads and the loops that measure them.
//!
//! `table2_validation`, `fault_campaign` and `dse_sweep` run one
//! operation at a time on the benchmark thread ([`Sequential`]);
//! `serve_mixed` drives an in-process session server from two client
//! connections (see [`serve`]).

use mnsim_obs as obs;
use mnsim_obs::trace;

use crate::layers::LayerValues;
use crate::measure::{self, Metric, Outcome};
use crate::spans::Spans;
use crate::stats;

pub mod dse;
pub mod fault;
pub mod serve;
pub mod table2;

/// The Table II golden seed, and the default workload seed.
pub const DEFAULT_SEED: u64 = 20_160_318;

/// Cold set-ups per end-to-end run, each in a fresh child process;
/// `setup_s` is their median.
const COLD_SETUPS: usize = 15;

/// Share of `--seconds` given to each of the untraced and traced phases
/// of a traced run.
const TRACE_PHASE_SHARE: f64 = 0.4;

/// What one run is asked to do.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Input seed.
    pub seed: u64,
    /// Measurement window, in seconds.
    pub seconds: f64,
    /// Tiny inputs (tests): same code paths, no paper goldens.
    pub quick: bool,
}

/// Worker threads of a `table2_validation`, `fault_campaign` or
/// `dse_sweep` operation: `min(2, nproc)`.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table II model-vs-circuit validation.
    Table2,
    /// Stuck-at fault-injection campaign.
    Fault,
    /// Table IV + Table VI + seeded-MLP design-space sweeps.
    Dse,
    /// Mixed traffic against the session server.
    Serve,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Table2,
        Workload::Fault,
        Workload::Dse,
        Workload::Serve,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table2 => "table2_validation",
            Workload::Fault => "fault_campaign",
            Workload::Dse => "dse_sweep",
            Workload::Serve => "serve_mixed",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// End-to-end run: `setup_s`, `op_ms`, `items_per_s`, `peak_rss_mb`.
    pub fn end_to_end(self, params: &Params) -> Outcome {
        match self {
            Workload::Table2 => sequential_end_to_end::<table2::Table2>(self, params),
            Workload::Fault => sequential_end_to_end::<fault::Fault>(self, params),
            Workload::Dse => sequential_end_to_end::<dse::Dse>(self, params),
            Workload::Serve => serve::end_to_end(params),
        }
    }

    /// Traced run: every per-layer metric.
    pub fn per_layer(self, params: &Params) -> Outcome {
        match self {
            Workload::Table2 => sequential_per_layer::<table2::Table2>(params),
            Workload::Fault => sequential_per_layer::<fault::Fault>(params),
            Workload::Dse => sequential_per_layer::<dse::Dse>(params),
            Workload::Serve => serve::per_layer(params),
        }
    }

    /// Sets the workload up as a run would, calls `ready` once the first
    /// operation could start, then tears the set-up down. This is the body
    /// of each child process [`cold_setup`] times.
    ///
    /// # Errors
    ///
    /// The set-up or its teardown failed.
    pub fn setup_only(self, params: &Params, ready: impl FnOnce()) -> Result<(), String> {
        match self {
            Workload::Table2 => table2::Table2::setup(params).map(|_| ready()),
            Workload::Fault => fault::Fault::setup(params).map(|_| ready()),
            Workload::Dse => dse::Dse::setup(params).map(|_| ready()),
            Workload::Serve => serve::setup_only(params, ready),
        }
    }
}

/// A workload whose operations run one after another.
pub trait Sequential: Sized {
    /// Benchmark span around one operation.
    const OP_SPAN: &'static str;
    /// Program spans that wrap a whole operation (they attribute nothing).
    const ENVELOPES: &'static [&'static str];
    /// Operations per phase of a traced run (fewer if the phase budget
    /// runs out first).
    const TRACED_OPS: usize;

    /// Generates the inputs from the seed.
    ///
    /// # Errors
    ///
    /// Input generation failed.
    fn setup(params: &Params) -> Result<Self, String>;

    /// One operation; returns the seconds of the timed call after its
    /// output passed the oracles.
    ///
    /// # Errors
    ///
    /// The call failed or an oracle rejected its output.
    fn op(&mut self) -> Result<f64, String>;

    /// Work items one operation completes (validations, trials, designs).
    fn items_per_op(&self) -> f64;

    /// Per-layer values measured by timing single-layer calls directly, on
    /// this workload's inputs. Runs after the traced phase, with no
    /// session open, so these calls stay out of the span and counter sums.
    ///
    /// # Errors
    ///
    /// A probe call failed.
    fn probe_layers(&mut self, _values: &mut LayerValues) -> Result<(), String> {
        Ok(())
    }

    /// Workload-specific per-layer values read from the program's spans
    /// over the traced operations.
    fn span_layers(&self, _spans: &Spans, _values: &mut LayerValues) {}
}

/// `setup_s`: the median over [`COLD_SETUPS`] child processes of the time
/// from starting the process to the point its first operation could
/// start (input generation, and for `serve_mixed` the server boot and
/// both handshakes). Every sample is cold, as a user's process is; there
/// is no warm-up operation.
///
/// # Errors
///
/// A child failed to start, set up or exit cleanly.
pub(crate) fn cold_setup(workload: Workload, params: &Params) -> Result<Metric, String> {
    let mut args = vec![
        "setup".to_string(),
        "--workload".to_string(),
        workload.name().to_string(),
        "--seed".to_string(),
        params.seed.to_string(),
    ];
    if params.quick {
        args.push("--quick".to_string());
    }
    let reps = if params.quick { 2 } else { COLD_SETUPS };
    let times = (0..reps)
        .map(|_| measure::time_to_ready(&args))
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(Metric::median_of("setup_s", "s", &times, 1.0))
}

/// A run that stopped at `failure` before measuring anything.
pub(crate) fn failed(failure: String) -> Outcome {
    Outcome {
        attempted: 1,
        failures: vec![failure],
        metrics: Vec::new(),
    }
}

fn sequential_end_to_end<W: Sequential>(workload: Workload, params: &Params) -> Outcome {
    let setup = cold_setup(workload, params);
    let (setup, mut w) = match setup.and_then(|setup| Ok((setup, W::setup(params)?))) {
        Ok(done) => done,
        Err(failure) => return failed(failure),
    };
    // Peak memory once set-up and the first operation are done: a later
    // operation can only raise it by memory the allocator kept, and how
    // many fit in the window depends on the host's speed (one or two
    // validations made `table2_validation`'s peak 154 or 192 MB).
    let mut peak_rss_mb = None;
    let log = measure::run_ops(params.seconds, usize::MAX, || {
        let _span = trace::span(W::OP_SPAN, trace::Level::Run);
        let result = w.op();
        peak_rss_mb.get_or_insert_with(measure::peak_rss_mb);
        result
    });
    let throughput: Vec<f64> = log.seconds.iter().map(|s| w.items_per_op() / s).collect();
    Outcome {
        attempted: log.attempted,
        failures: log.failures,
        metrics: vec![
            setup,
            Metric::median_of("op_ms", "ms", &log.seconds, 1e3),
            Metric::median_of("items_per_s", "1/s", &throughput, 1.0),
            Metric::new(
                "peak_rss_mb",
                "MB",
                peak_rss_mb.unwrap_or_else(measure::peak_rss_mb),
            ),
        ],
    }
}

fn sequential_per_layer<W: Sequential>(params: &Params) -> Outcome {
    let mut w = match W::setup(params) {
        Ok(w) => w,
        Err(failure) => return failed(failure),
    };
    let budget = params.seconds * TRACE_PHASE_SHARE;
    let mut op = || {
        let _span = trace::span(W::OP_SPAN, trace::Level::Run);
        w.op()
    };
    // The process's first operation pays for page faults and cold caches;
    // run it untimed so the untraced and traced medians compare warm runs.
    let warmup = measure::run_ops(0.0, 1, &mut op);
    let untraced = measure::run_ops(budget, W::TRACED_OPS, &mut op);
    let metrics_session = obs::session();
    let trace_session = trace::session();
    // The same operation count as the untraced phase, so the two medians
    // compare like for like.
    let traced = measure::run_ops(f64::INFINITY, untraced.attempted as usize, &mut op);
    let snapshot = metrics_session.snapshot();
    drop(metrics_session);
    let spans = Spans::from_trace(&trace_session.finish());

    let mut values = LayerValues::default();
    let probed = w.probe_layers(&mut values);
    let ops = traced.seconds.len().max(1) as f64;
    values.set_counters(&snapshot, ops);
    set_op_attribution(
        &mut values,
        &spans,
        (W::OP_SPAN, W::ENVELOPES),
        &untraced.seconds,
        &traced.seconds,
    );
    values.set("circuit.solve.dc_s", spans.self_s("circuit.solve_dc") / ops);
    values.set(
        "circuit.batch.solve_s",
        spans.self_s("circuit.batch.solve") / ops,
    );
    if let Some(idle) = spans.pool_idle_frac("exec.chunk") {
        values.set("core.exec.idle_frac", idle);
    }
    w.span_layers(&spans, &mut values);

    let mut failures = warmup.failures;
    failures.extend(untraced.failures);
    failures.extend(traced.failures);
    if let Err(failure) = probed {
        failures.push(failure);
    }
    Outcome {
        attempted: warmup.attempted + untraced.attempted + traced.attempted,
        failures,
        metrics: values.into_metrics(),
    }
}

/// The workload-independent `obs.*` values of a traced run, from the
/// benchmark's operation span (and the program spans that envelope a
/// whole operation) and the untraced and traced operation times.
pub(crate) fn set_op_attribution(
    values: &mut LayerValues,
    spans: &Spans,
    (op_span, envelopes): (&str, &[&str]),
    untraced: &[f64],
    traced: &[f64],
) {
    let (total, outside) = spans.unattributed_s(op_span, envelopes);
    let ops = spans.count(op_span).max(1) as f64;
    let traced_median = stats::median(traced);
    values.set("obs.traced_op_s", traced_median);
    values.set("obs.unattributed_s", outside / ops);
    if total > 0.0 {
        values.set("obs.unattributed_frac", outside / total);
    }
    values.set(
        "obs.trace_overhead_frac",
        traced_median / stats::median(untraced) - 1.0,
    );
}
