//! Scaling check of the DC solver on worst-case crossbars: solve time and
//! the wire-induced output droop per size.
//!
//! ```text
//! cargo run --release -p mnsim-circuit --example perf_check
//! ```

use mnsim_circuit::crossbar::CrossbarSpec;
use mnsim_circuit::solve::solve_dc;
use mnsim_tech::units::{Resistance, Voltage};
use std::time::Instant;

fn main() {
    println!("{:>6} {:>14} {:>12} {:>12}", "size", "solve time", "worst col", "ideal");
    for size in [16usize, 32, 64, 128, 256] {
        let spec = CrossbarSpec::uniform(
            size,
            size,
            Resistance::from_ohms(500.0),
            Resistance::from_ohms(2.9),
            Resistance::from_ohms(500.0),
            Voltage::from_volts(0.5),
        );
        let xbar = spec.build().expect("valid spec");
        let start = Instant::now();
        let solution = solve_dc(xbar.circuit()).expect("solvable");
        let elapsed = start.elapsed();
        let out = xbar.output_voltages(&solution);
        println!(
            "{size:>6} {elapsed:>14.2?} {:>11.5}V {:>11.5}V",
            out[size - 1].volts(),
            spec.ideal_output_voltages()[size - 1].volts()
        );
    }
}
