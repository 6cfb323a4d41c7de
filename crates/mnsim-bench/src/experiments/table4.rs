//! **Table IV** — design-space exploration of the large computation bank
//! (a 2048×1024 fully-connected layer): the optimal design for each of the
//! four targets (area / energy / latency / computation accuracy) under a
//! 25 % crossbar-error constraint.

use mnsim_core::dse::{Constraints, DesignPoint, DesignSpace, Objective};
use mnsim_core::Simulator;

use super::{large_bank_config, row};

/// Runs the traversal (the paper's thousands of designs) and renders the
/// four optimum columns.
///
/// # Errors
///
/// Propagates exploration errors (e.g. an infeasibly tight constraint).
pub fn run() -> Result<String, Box<dyn std::error::Error>> {
    let base = large_bank_config();
    let space = DesignSpace::paper_large_bank();
    let constraints = Constraints::crossbar_error(0.25);
    let start = std::time::Instant::now();
    let result = Simulator::new(base).explore(&space, &constraints)?;
    let elapsed = start.elapsed();

    let mut out = String::new();
    out.push_str("Table IV — design space exploration of the large computation bank\n");
    out.push_str(&format!(
        "(2048x1024 layer, 45 nm CMOS, crossbar error <= 25 %; {} designs evaluated in {:.2?}, {} feasible)\n\n",
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
    out.push_str(&render_design_rows(&columns));
    Ok(out)
}

/// Renders the shared Table IV/VI metric rows for a set of design columns.
pub fn render_design_rows(columns: &[&DesignPoint]) -> String {
    let mut out = String::new();
    let fmt = |f: &dyn Fn(&DesignPoint) -> String| -> Vec<String> {
        columns.iter().map(|p| f(p)).collect()
    };
    out.push_str(&row(
        "area (mm^2)",
        &fmt(&|p| format!("{:.2}", p.report.total_area.square_millimeters())),
    ));
    out.push_str(&row(
        "energy per sample (uJ)",
        &fmt(&|p| format!("{:.3}", p.report.energy_per_sample.microjoules())),
    ));
    out.push_str(&row(
        "latency (us)",
        &fmt(&|p| format!("{:.4}", p.report.sample_latency.microseconds())),
    ));
    out.push_str(&row(
        "error rate of output (%)",
        &fmt(&|p| format!("{:.2}", p.report.output_max_error_rate * 100.0)),
    ));
    out.push_str(&row(
        "power (W)",
        &fmt(&|p| format!("{:.3}", p.report.power.watts())),
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_sweep_produces_distinct_optima() {
        // A reduced space keeps the test quick while still showing that
        // different targets pick different designs (the paper's point).
        let base = large_bank_config();
        let space = DesignSpace {
            crossbar_sizes: vec![64, 128, 256],
            parallelism_degrees: vec![1, 32, 128],
            interconnects: vec![
                mnsim_tech::interconnect::InterconnectNode::N28,
                mnsim_tech::interconnect::InterconnectNode::N45,
            ],
        };
        let result = Simulator::new(base)
            .threads(1)
            .explore(&space, &Constraints::crossbar_error(0.5))
            .unwrap();
        let area = result.best(Objective::Area).unwrap();
        let latency = result.best(Objective::Latency).unwrap();
        assert!(
            area.report.total_area.square_meters()
                <= latency.report.total_area.square_meters()
        );
        assert!(
            latency.report.sample_latency.seconds() <= area.report.sample_latency.seconds()
        );
        let text = render_design_rows(&[area, latency]);
        assert!(text.contains("crossbar size"));
    }
}
