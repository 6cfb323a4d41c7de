//! Design-space exploration of a large fully-connected layer
//! (the paper's §VII.C case study): sweep crossbar size, parallelism
//! degree and interconnect node, then print the per-metric optimal designs
//! and the Pareto front.
//!
//! ```text
//! cargo run --release --example design_space_exploration \
//!     [-- --emit <metrics|trace|live>=<path>]... [--progress]
//! ```
//!
//! With `--emit live=<path>` the sweep streams NDJSON progress events
//! ([`mnsim::obs::live`]) — `campaign_started` / `wave_completed` (ETA,
//! items/s) / `campaign_finished` — to `path` while it runs; `--progress`
//! prints a human one-liner per wave to stderr.

use mnsim::core::config::Precision;
use mnsim::core::dse::Objective;
use mnsim::nn::models;
use mnsim::obs;
use mnsim::prelude::*;
use mnsim::tech::cmos::CmosNode;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (metrics_path, trace_path, live_path, progress) = paths_from_args()?;
    // The live sampler reads the metric registry, so a live artifact or
    // `--progress` implies a metrics session even without one requested.
    let live_wanted = live_path.is_some() || progress;
    let session = (metrics_path.is_some() || live_wanted).then(obs::session);
    let trace_session = trace_path.as_ref().map(|_| obs::trace::session());
    let live_session = if live_wanted {
        let mut live_config = obs::live::LiveConfig::default().with_progress(progress);
        if let Some(path) = &live_path {
            live_config = live_config.to_path(path);
        }
        Some(obs::live::session(live_config)?)
    } else {
        None
    };

    // One 2048×1024 layer, 45 nm CMOS, 4-bit signed weights, 8-bit signals.
    let mut base = Config::for_network(models::large_bank_layer());
    base.cmos = CmosNode::N45;
    base.precision = Precision {
        input_bits: 8,
        weight_bits: 4,
        output_bits: 8,
    };
    base.device.bits_per_cell = 7;

    let space = DesignSpace::paper_large_bank();
    let constraints = Constraints::crossbar_error(0.25); // ε ≤ 25 %

    // One session drives the whole sweep; `threads(0)` = all cores.
    let simulator = Simulator::new(base).threads(0);

    let start = std::time::Instant::now();
    let result = simulator.explore(&space, &constraints)?;
    println!(
        "evaluated {} designs in {:.2?} ({} feasible under the 25 % error bound)\n",
        result.evaluated,
        start.elapsed(),
        result.feasible.len()
    );

    for objective in Objective::TABLE_COLUMNS {
        let best = result.best(objective).expect("feasible set is non-empty");
        println!(
            "best {objective:<9} -> crossbar {:>4}, p {:>3}, {}: \
             {:>8.2} mm², {:>8.3} µJ, {:>8.3} µs, ε_out {:>5.2} %",
            best.crossbar_size,
            best.parallelism,
            best.interconnect,
            best.report.total_area.square_millimeters(),
            best.report.energy_per_sample.microjoules(),
            best.report.sample_latency.microseconds(),
            best.report.output_max_error_rate * 100.0,
        );
    }

    let front = result.pareto(&[Objective::Area, Objective::Latency, Objective::Accuracy]);
    println!(
        "\nPareto front (area × latency × accuracy): {} designs",
        front.len()
    );
    for p in front.iter().take(10) {
        println!(
            "  crossbar {:>4}, p {:>3}, {:>10}: {:>8.2} mm², {:>8.3} µs, ε_out {:>5.2} %",
            p.crossbar_size,
            p.parallelism,
            p.interconnect.to_string(),
            p.report.total_area.square_millimeters(),
            p.report.sample_latency.microseconds(),
            p.report.output_max_error_rate * 100.0,
        );
    }

    if let Some(live) = live_session {
        let live_report = live.finish();
        if let Some(path) = &live_path {
            eprintln!(
                "live telemetry written to {path} ({} lines, {} samples)",
                live_report.events,
                live_report.samples.len()
            );
        }
    }
    if let (Some(path), Some(trace_session)) = (trace_path, trace_session) {
        let trace = trace_session.finish();
        std::fs::write(&path, trace.to_chrome_json())?;
        eprint!("{}", trace.summary().to_table());
        eprintln!("trace written to {path}");
    }
    if let Some(path) = metrics_path {
        std::fs::write(&path, obs::snapshot().to_json())?;
        drop(session);
        eprintln!("metrics written to {path}");
    }
    Ok(())
}

/// `(metrics, trace, live, progress)` flag tuple.
type SweepFlags = (Option<String>, Option<String>, Option<String>, bool);

/// Parses the `--emit <kind>=<path>` artifact spec and `--progress`;
/// any other argument is an error.
fn paths_from_args() -> Result<SweepFlags, Box<dyn std::error::Error>> {
    let mut metrics = None;
    let mut trace = None;
    let mut live = None;
    let mut progress = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--emit" => {
                let spec = args.next().ok_or("--emit requires <kind>=<path>")?;
                let (kind, path) = spec.split_once('=').ok_or("--emit expects <kind>=<path>")?;
                match kind {
                    "metrics" => metrics = Some(path.to_string()),
                    "trace" => trace = Some(path.to_string()),
                    "live" => live = Some(path.to_string()),
                    _ => return Err("--emit: unknown kind (metrics, trace, live)".into()),
                }
            }
            "--progress" => progress = true,
            other => return Err(format!("unknown argument {other:?}").into()),
        }
    }
    Ok((metrics, trace, live, progress))
}
