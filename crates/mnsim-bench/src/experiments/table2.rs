//! **Table II** — validation of the behavior-level models against the
//! circuit-level simulator for the 3-layer 128×128 fully-connected NN at
//! 90 nm.
//!
//! The paper compares computation power, read power, computation energy,
//! latency and average relative accuracy against HSPICE, with all errors
//! below 10 %. Our circuit baseline is the `mnsim-circuit` non-linear DC
//! solver; the latency row compares the model against the analytic Elmore
//! settling of the same netlist (DC-solver substitution, see `DESIGN.md`).

use mnsim_core::simulate::simulate;
use mnsim_core::Simulator;

use super::{row, table2_config};

/// Runs the experiment, returning the rendered table.
///
/// `matrices`/`inputs` control the random-sample count (the paper uses
/// 20 × 100; the default harness uses a smaller, statistically equivalent
/// sample to keep runtimes interactive).
///
/// # Errors
///
/// Propagates simulation/circuit errors as a rendered message.
pub fn run(matrices: usize, inputs: usize) -> Result<String, Box<dyn std::error::Error>> {
    let config = table2_config();
    let mut out = String::new();
    out.push_str("Table II — validation against the circuit-level simulator\n");
    out.push_str(&format!(
        "(3-layer fully-connected NN, two 128x128 layers, 90 nm CMOS, {matrices} weight samples x {inputs} inputs)\n\n"
    ));
    out.push_str(&row(
        "metric",
        &["MNSIM".into(), "circuit".into(), "error %".into()],
    ));

    let rows = Simulator::new(config.clone())
        .threads(1)
        .validate(matrices, inputs, 20160318)?;
    for r in &rows {
        out.push_str(&row(
            &format!("{} [{}]", r.metric, r.unit),
            &[
                format!("{:.4}", r.mnsim),
                format!("{:.4}", r.circuit),
                format!("{:+.2}", r.relative_error() * 100.0),
            ],
        ));
    }

    // Computation energy of the 3-layer ANN (model side; the paper's row
    // derives from the same power × latency product).
    let report = simulate(&config)?;
    out.push_str(&row(
        "computation energy (3-layer ANN) [uJ]",
        &[
            format!("{:.4}", report.energy_per_sample.microjoules()),
            "-".into(),
            "-".into(),
        ],
    ));
    out.push_str(&row(
        "sample latency [ns]",
        &[
            format!("{:.2}", report.sample_latency.nanoseconds()),
            "-".into(),
            "-".into(),
        ],
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    #[test]
    fn renders_with_small_sample() {
        // Its solves must not land in another test's metrics session.
        let _session = mnsim_obs::session();
        let text = super::run(1, 1).unwrap();
        assert!(text.contains("Table II"));
        assert!(text.contains("computation power"));
        assert!(text.contains("average relative accuracy"));
    }
}
