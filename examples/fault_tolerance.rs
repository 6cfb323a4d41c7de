//! Fault tolerance: sweep the stuck-at defect rate and watch accuracy and
//! yield degrade gracefully while every circuit solve keeps Kirchhoff's
//! current law.
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
//! arrays are re-solved at circuit level on the LDLᵀ engine.
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
use mnsim::obs::EmitSpec;
use mnsim::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = sweep_args()?;
    let emitter = args.emit.open()?;

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
        "rate", "yield", "max KCL A", "dev mean", "dev p95", "weight dmg"
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
            "{:>10.3} {:>7.1}% {:>10.1e} {:>12.4} {:>12.4} {:>12.4}",
            rate,
            faults.yield_fraction * 100.0,
            faults.worst_kcl_residual,
            faults.mean_deviation_levels,
            faults.p95_deviation_levels,
            faults.mean_weight_damage_levels,
        );
        csv.push_str(&report_csv_row(&report));
        csv.push('\n');
    }

    println!("\nCSV (fault columns are the last four):");
    println!("{csv}");

    emitter.finish()?;
    Ok(())
}

/// Parsed command-line arguments of the sweep.
struct SweepArgs {
    emit: EmitSpec,
    checkpoint_dir: Option<String>,
    deadline_ms: Option<u64>,
}

/// Parses the `--emit <kind>=<path>` artifact spec and `--progress`, plus
/// `--checkpoint` and `--deadline-ms`; any other argument is an error.
fn sweep_args() -> Result<SweepArgs, Box<dyn std::error::Error>> {
    let mut parsed = SweepArgs {
        emit: EmitSpec::default(),
        checkpoint_dir: None,
        deadline_ms: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if parsed.emit.accept(&arg, &mut args)? {
            continue;
        }
        match arg.as_str() {
            "--checkpoint" => {
                parsed.checkpoint_dir =
                    Some(args.next().ok_or("--checkpoint requires a directory")?);
            }
            "--deadline-ms" => {
                let value = args.next().ok_or("--deadline-ms requires milliseconds")?;
                parsed.deadline_ms = Some(value.parse().map_err(|_| "--deadline-ms: bad value")?);
            }
            other => return Err(format!("unknown argument {other:?}").into()),
        }
    }
    Ok(parsed)
}
