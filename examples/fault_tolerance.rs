//! Fault tolerance: sweep the stuck-at defect rate and watch accuracy,
//! yield, and solver-fallback behavior degrade gracefully.
//!
//! ```text
//! cargo run --release --example fault_tolerance \
//!     [-- --emit <metrics|trace|live>=<path>]... \
//!     [--checkpoint <dir>] [--deadline-ms <ms>] [--progress]
//! ```
//!
//! Each sweep point runs a seeded Monte-Carlo fault campaign on top of the
//! clean behavior-level simulation: defect maps are drawn per trial,
//! spare-row repair and bank retirement are applied, and the surviving
//! arrays are re-solved at circuit level through the recovery ladder.
//!
//! With `--checkpoint <dir>` every sweep point persists completed trials
//! to its own file under `dir` (one file per rate — each campaign has its
//! own fingerprint), so an interrupted sweep resumes bit-identically on
//! the next invocation. With `--deadline-ms <ms>` the whole sweep shares
//! one wall-clock deadline; a point that hits it stops cooperatively and
//! the example exits with a `deadline exceeded` error after checkpointing.
//!
//! With `--emit live=<path>` the sweep streams NDJSON progress events
//! ([`mnsim::obs::live`]) for every per-rate campaign to `path`, and
//! `--progress` prints a human one-liner per wave to stderr — useful when
//! the sweep runs long enough to want `tail -f`-style visibility.

use mnsim::core::report::{report_csv_row, CSV_HEADER};
use mnsim::obs;
use mnsim::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = sweep_args()?;
    // A live session samples the metric registry, so a live artifact or
    // `--progress` implies a metrics session even without one requested.
    let live_wanted = args.live.is_some() || args.progress;
    let session = (args.metrics.is_some() || live_wanted).then(obs::session);
    let trace_session = args.trace.as_ref().map(|_| obs::trace::session());
    let live_session = if live_wanted {
        let mut live_config = obs::live::LiveConfig::default().with_progress(args.progress);
        if let Some(path) = &args.live {
            live_config = live_config.to_path(path);
        }
        Some(obs::live::session(live_config)?)
    } else {
        None
    };

    let config = Config::fully_connected_mlp(&[128, 128])?;
    // One session, re-tuned per sweep point; trials fan out on all cores.
    let mut simulator = Simulator::new(config).threads(0);
    if let Some(millis) = args.deadline_ms {
        // The deadline clock starts here and is shared by every sweep
        // point — it bounds the whole example, not each campaign.
        simulator = simulator.deadline(Deadline::after_millis(millis));
    }
    if let Some(dir) = &args.checkpoint_dir {
        std::fs::create_dir_all(dir)?;
    }

    println!("stuck-at rate sweep — {} trials per point\n", 8);
    println!(
        "{:>10} {:>8} {:>10} {:>12} {:>12} {:>12}",
        "rate", "yield", "fallbacks", "dev mean", "dev p95", "weight dmg"
    );

    let mut csv = String::from(CSV_HEADER);
    csv.push('\n');

    for &rate in &[0.0, 0.005, 0.01, 0.02, 0.05, 0.10, 0.20] {
        let fault_config = FaultConfig {
            rates: FaultRates {
                broken_bitline: rate / 10.0,
                ..FaultRates::stuck_at(rate)
            },
            trials: 8,
            seed: 0xDEFEC7,
            ..FaultConfig::default()
        };
        let mut point = simulator.clone().faults(fault_config);
        if let Some(dir) = &args.checkpoint_dir {
            // One file per sweep point: the campaign fingerprint covers the
            // fault rates, so points must not share a checkpoint.
            let path = format!("{dir}/rate_{}.json", (rate * 1000.0).round() as u64);
            point = point.checkpoint(CheckpointPolicy::new(path));
        }
        let report = point.run()?;
        let faults = report.faults.as_ref().expect("campaign ran");
        println!(
            "{:>10.3} {:>7.1}% {:>9.1}% {:>12.4} {:>12.4} {:>12.4}",
            rate,
            faults.yield_fraction * 100.0,
            faults.fallback_rate() * 100.0,
            faults.mean_deviation_levels,
            faults.p95_deviation_levels,
            faults.mean_weight_damage_levels,
        );
        csv.push_str(&report_csv_row(&report));
        csv.push('\n');
    }

    println!("\nCSV (fault columns are the last four):");
    println!("{csv}");

    if let Some(live) = live_session {
        let live_report = live.finish();
        if let Some(path) = &args.live {
            eprintln!(
                "live telemetry written to {path} ({} lines, {} samples)",
                live_report.events,
                live_report.samples.len()
            );
        }
    }
    if let (Some(path), Some(trace_session)) = (&args.trace, trace_session) {
        let trace = trace_session.finish();
        std::fs::write(path, trace.to_chrome_json())?;
        eprint!("{}", trace.summary().to_table());
        eprintln!("trace written to {path}");
    }
    if let Some(path) = &args.metrics {
        std::fs::write(path, obs::snapshot().to_json())?;
        drop(session);
        eprintln!("metrics written to {path}");
    }
    Ok(())
}

/// Parsed command-line arguments of the sweep.
struct SweepArgs {
    metrics: Option<String>,
    trace: Option<String>,
    checkpoint_dir: Option<String>,
    deadline_ms: Option<u64>,
    live: Option<String>,
    progress: bool,
}

/// Parses the `--emit <kind>=<path>` artifact spec plus `--checkpoint`,
/// `--deadline-ms`, and `--progress`; any other argument is an error.
fn sweep_args() -> Result<SweepArgs, Box<dyn std::error::Error>> {
    let mut parsed = SweepArgs {
        metrics: None,
        trace: None,
        checkpoint_dir: None,
        deadline_ms: None,
        live: None,
        progress: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--emit" => {
                let spec = args.next().ok_or("--emit requires <kind>=<path>")?;
                let (kind, path) = spec.split_once('=').ok_or("--emit expects <kind>=<path>")?;
                match kind {
                    "metrics" => parsed.metrics = Some(path.to_string()),
                    "trace" => parsed.trace = Some(path.to_string()),
                    "live" => parsed.live = Some(path.to_string()),
                    _ => return Err("--emit: unknown kind (metrics, trace, live)".into()),
                }
            }
            "--checkpoint" => {
                parsed.checkpoint_dir =
                    Some(args.next().ok_or("--checkpoint requires a directory")?);
            }
            "--deadline-ms" => {
                let value = args.next().ok_or("--deadline-ms requires milliseconds")?;
                parsed.deadline_ms = Some(value.parse().map_err(|_| "--deadline-ms: bad value")?);
            }
            "--progress" => parsed.progress = true,
            other => return Err(format!("unknown argument {other:?}").into()),
        }
    }
    Ok(parsed)
}
