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
use mnsim::obs::EmitSpec;
use mnsim::prelude::*;
use mnsim::tech::cmos::CmosNode;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let emitter = emit_from_args()?.open()?;

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

    emitter.finish()?;
    Ok(())
}

/// Parses the `--emit <kind>=<path>` artifact spec and `--progress`;
/// any other argument is an error.
fn emit_from_args() -> Result<EmitSpec, String> {
    let mut emit = EmitSpec::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if !emit.accept(&arg, &mut args)? {
            return Err(format!("unknown argument {arg:?}"));
        }
    }
    Ok(emit)
}
