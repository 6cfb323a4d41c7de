//! Validate the behavior-level models against the circuit-level simulator
//! and export a generated netlist (the paper's §VII.A/B flow).
//!
//! ```text
//! cargo run --release --example spice_validation
//! ```

use mnsim::core::accuracy::fit_wire_coefficient;
use mnsim::core::config::Config;
use mnsim::core::netlist_gen::generate_netlist;
use mnsim::core::validate::measure_speedup;
use mnsim::core::Simulator;
use mnsim::nn::data::random_weight_matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut config = Config::fully_connected_mlp(&[64, 64])?;
    config.crossbar_size = 64;

    // --- Fig.-5-style calibration -------------------------------------------
    let fit = fit_wire_coefficient(
        &config.device,
        config.interconnect,
        config.sense_resistance,
        &[8, 16, 32, 64],
    )?;
    println!(
        "calibration: wire coefficient {:.4}, non-linearity coefficient {:.4}, RMSE {:.5}",
        fit.coefficient, fit.nonlinearity_coefficient, fit.rmse
    );
    for p in &fit.points {
        println!(
            "  size {:>3}: circuit {:>7.2} %  model {:>7.2} %",
            p.size,
            p.measured * 100.0,
            p.modeled * 100.0
        );
    }

    // --- Table-II-style validation ------------------------------------------
    println!("\nmodel vs circuit (2 weight samples x 3 inputs):");
    for row in Simulator::new(config.clone())
        .threads(1)
        .validate(2, 3, 42)?
    {
        println!(
            "  {:<40} MNSIM {:>10.4} {unit}  circuit {:>10.4} {unit}  ({:+.2} %)",
            row.metric,
            row.mnsim,
            row.circuit,
            row.relative_error() * 100.0,
            unit = row.unit,
        );
    }

    // --- Table-III-style speed-up ------------------------------------------
    println!("\nspeed-up over the circuit solver:");
    for row in measure_speedup(&config, &[16, 32, 64])? {
        println!(
            "  size {:>3}: circuit {:>9.4} s   MNSIM {:>12.7} s   {:>8.0}x",
            row.size,
            row.circuit_seconds,
            row.mnsim_seconds,
            row.speedup()
        );
    }

    // --- netlist export -------------------------------------------------------
    let mut rng = StdRng::seed_from_u64(1);
    let weights = random_weight_matrix(8, 8, &mut rng);
    let inputs = vec![0.5; 8];
    let netlist = generate_netlist(&config, &weights, &inputs, "example 8x8 block")?;
    let lines = netlist.lines().count();
    println!("\ngenerated SPICE netlist for an 8x8 block: {lines} lines");
    println!("{}", netlist.lines().take(6).collect::<Vec<_>>().join("\n"));
    println!("...");
    Ok(())
}
