//! Wire-ladder power saturation: circuit-measured crossbar power vs the
//! naive M·N·V²/R rule and the transmission-line estimate. This is the
//! measurement behind the power-model refinement in
//! `mnsim_core::modules::crossbar` (see DESIGN.md §11).
//!
//! ```text
//! cargo run --release -p mnsim-circuit --example power_scaling
//! ```

use mnsim_circuit::crossbar::CrossbarSpec;
use mnsim_circuit::solve::solve_dc;
use mnsim_tech::units::{Resistance, Voltage};

fn main() {
    let v = 0.5_f64 / 2.0_f64.sqrt(); // RMS of a 0.5 V read at 50 % activity
    let r_cell = 999.0; // harmonic mean of [500 Ω, 500 kΩ]
    for r_seg in [0.86_f64, 2.7] {
        println!("wire segment r = {r_seg} Ω");
        for size in [8usize, 16, 32, 64, 128] {
            let spec = CrossbarSpec::uniform(
                size,
                size,
                Resistance::from_ohms(r_cell),
                Resistance::from_ohms(r_seg),
                Resistance::from_ohms(10.0),
                Voltage::from_volts(v),
            );
            let xbar = spec.build().expect("valid spec");
            let solution =
                solve_dc(xbar.circuit()).expect("solvable");
            let measured = solution.dissipated_power(xbar.circuit()).watts();
            let naive = (size * size) as f64 * v * v / r_cell;
            println!(
                "  size {size:>4}: circuit {measured:>8.4} W   naive {naive:>8.4} W  ({:>5.1}x over)",
                naive / measured
            );
        }
    }
}
