//! Circuit-fidelity fault campaign on a crossbar size that was CG-only
//! before the sparse direct solver landed.
//!
//! ```text
//! cargo run --release --example sparse_fault_sweep \
//!     [-- --size <edge>] [--trials <n>] [--rate <fraction>] [--threads <n>]
//! ```
//!
//! A 256×256 crossbar reduces to ~131k nodal unknowns — far past the
//! dense cutoff, and until now solved iteratively on every trial. The
//! sparse LDLᵀ engine (`mnsim::circuit::ldl`, `DESIGN.md` §16) analyzes
//! and factors that structure once per worker thread; each trial's fault
//! map is a value-only change, so the cached factorization is refactored
//! in place (`solver.klu.refactor`) instead of re-analyzed. The example
//! runs one campaign and prints the engine counters that prove it.

use mnsim::core::config::Config;
use mnsim::core::fault_sim::FaultConfig;
use mnsim::core::Simulator;
use mnsim::obs;
use mnsim::tech::fault::FaultRates;
use mnsim::tech::memristor::IvModel;

struct Args {
    size: usize,
    trials: usize,
    rate: f64,
    threads: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        size: 256,
        trials: 16,
        rate: 0.01,
        threads: 0, // available parallelism
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next().ok_or_else(|| format!("{what} requires a value"))
        };
        match flag.as_str() {
            "--size" => args.size = value("--size")?.parse().map_err(|e| format!("--size: {e}"))?,
            "--trials" => {
                args.trials = value("--trials")?.parse().map_err(|e| format!("--trials: {e}"))?;
            }
            "--rate" => args.rate = value("--rate")?.parse().map_err(|e| format!("--rate: {e}"))?,
            "--threads" => {
                args.threads = value("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args()?;
    let session = obs::session();

    let mut config = Config::fully_connected_mlp(&[args.size, args.size])?;
    config.crossbar_size = args.size;
    // Ohmic cells keep the trial circuits linear; nonlinear devices route
    // through the Newton loop, which never refreshes a cached factorization.
    config.device.iv = IvModel::Linear;
    let faults = FaultConfig {
        rates: FaultRates::stuck_at(args.rate),
        trials: args.trials,
        // No spare-row repair: every defect survives into the operated
        // circuit, so every trial is a genuine value change.
        spare_rows: 0,
        ..FaultConfig::default()
    };
    println!(
        "{0}x{0} crossbar, {1} trials, stuck-at rate {2}",
        args.size, args.trials, args.rate
    );
    let report = Simulator::new(config)
        .threads(args.threads)
        .faults(faults)
        .run()?;
    let summary = report.faults.expect("campaign ran");
    println!(
        "yield {:.1} %, mean deviation {:.3} levels, worst KCL residual {:.2e} A",
        summary.yield_fraction * 100.0,
        summary.mean_deviation_levels,
        summary.worst_kcl_residual,
    );

    let snap = session.snapshot();
    println!("\nsparse engine counters:");
    for name in [
        "solver.klu.analyses",
        "solver.klu.factors",
        "solver.klu.refactor",
        "solver.klu.solves",
        "circuit.batch.value_refreshes",
        "circuit.batch.cache_hits",
        "circuit.recovery.solves",
    ] {
        println!("  {name:36} {}", snap.counter(name));
    }
    Ok(())
}
