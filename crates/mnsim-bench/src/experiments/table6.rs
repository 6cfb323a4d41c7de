//! **Table VI** — design-space exploration of the VGG-16 CNN (error
//! constraint relaxed to 50 %, interconnect range enlarged to 90 nm).
//!
//! Latency is reported per pipeline cycle — the largest computation
//! bank's cycle — because the multi-layer accelerator is pipelined
//! (paper §VII.D).

use mnsim_core::config::Config;
use mnsim_core::dse::{Constraints, DesignPoint, DesignSpace, Objective};
use mnsim_core::Simulator;

use super::row;

/// Runs the traversal and renders the four optimum columns.
///
/// # Errors
///
/// Propagates exploration errors.
pub fn run() -> Result<String, Box<dyn std::error::Error>> {
    let base = Config::vgg16_cnn();
    let space = DesignSpace::paper_cnn();
    let constraints = Constraints::crossbar_error(0.50);
    let start = std::time::Instant::now();
    let result = Simulator::new(base).explore(&space, &constraints)?;
    let elapsed = start.elapsed();

    let mut out = String::new();
    out.push_str("Table VI — design space exploration of the VGG-16 CNN\n");
    out.push_str(&format!(
        "(8-bit data, 45 nm CMOS, crossbar error <= 50 %; {} designs in {:.2?}, {} feasible)\n\n",
        result.evaluated,
        elapsed,
        result.feasible.len()
    ));

    let columns: Vec<&DesignPoint> = Objective::TABLE_COLUMNS
        .iter()
        .map(|&obj| {
            if obj == Objective::Accuracy {
                result
                    .best_with_secondary(Objective::Accuracy, Objective::Area)
                    .expect("feasible set non-empty")
            } else {
                result.best(obj).expect("feasible set non-empty")
            }
        })
        .collect();

    out.push_str(&row(
        "optimized for",
        &Objective::TABLE_COLUMNS
            .iter()
            .map(|o| o.to_string())
            .collect::<Vec<_>>(),
    ));
    let fmt = |f: &dyn Fn(&DesignPoint) -> String| -> Vec<String> {
        columns.iter().map(|p| f(p)).collect()
    };
    out.push_str(&row(
        "area (mm^2)",
        &fmt(&|p| format!("{:.1}", p.report.total_area.square_millimeters())),
    ));
    out.push_str(&row(
        "energy per sample (mJ)",
        &fmt(&|p| format!("{:.3}", p.report.energy_per_sample.millijoules())),
    ));
    out.push_str(&row(
        "latency per pipeline cycle (us)",
        &fmt(&|p| format!("{:.4}", p.report.pipeline_cycle.microseconds())),
    ));
    out.push_str(&row(
        "error rate of output (%)",
        &fmt(&|p| format!("{:.2}", p.report.output_max_error_rate * 100.0)),
    ));
    out.push_str(&row(
        "power (W)",
        &fmt(&|p| format!("{:.2}", p.report.power.watts())),
    ));
    out.push_str(&row(
        "crossbar size",
        &fmt(&|p| p.crossbar_size.to_string()),
    ));
    out.push_str(&row(
        "line tech node (nm)",
        &fmt(&|p| p.interconnect.nanometers().to_string()),
    ));
    out.push_str(&row(
        "parallelism degree",
        &fmt(&|p| p.parallelism.to_string()),
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_vgg_sweep_is_feasible_under_50_percent() {
        let base = Config::vgg16_cnn();
        let space = DesignSpace {
            crossbar_sizes: vec![64, 128],
            parallelism_degrees: vec![64],
            interconnects: vec![
                mnsim_tech::interconnect::InterconnectNode::N45,
                mnsim_tech::interconnect::InterconnectNode::N90,
            ],
        };
        let result = Simulator::new(base)
            .threads(1)
            .explore(&space, &Constraints::crossbar_error(0.50))
            .unwrap();
        assert!(!result.feasible.is_empty());
        // Pipeline cycle must be shorter than a whole VGG-16 sample pass.
        let p = &result.feasible[0];
        assert!(
            p.report.pipeline_cycle.seconds() < p.report.sample_latency.seconds() / 10.0
        );
    }
}
