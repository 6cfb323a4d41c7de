//! **Fig. 9** — the five-axis "pentagon" comparison of the four per-metric
//! optimal designs: reciprocal area, energy efficiency, reciprocal power,
//! speed, and accuracy, each normalized by the best value among the four
//! designs, for (a) the large computation bank and (b) the VGG-16 CNN.

use mnsim_core::config::Config;
use mnsim_core::dse::{Constraints, DesignPoint, DesignSpace, Objective};
use mnsim_core::Simulator;

use super::{large_bank_config, row};

/// The five normalized pentagon axes of one design.
#[derive(Debug, Clone)]
pub struct Pentagon {
    /// Which objective this design optimized.
    pub optimized_for: Objective,
    /// `[1/area, 1/energy, 1/power, 1/latency, accuracy]`, each normalized
    /// to the best across the compared designs.
    pub axes: [f64; 5],
}

/// Axis labels of the pentagon.
pub const AXES: [&str; 5] = [
    "1/area",
    "energy efficiency",
    "1/power",
    "speed",
    "accuracy",
];

/// Builds the normalized pentagons for the four table optima.
pub fn pentagons(points: &[&DesignPoint]) -> Vec<Pentagon> {
    let raw: Vec<[f64; 5]> = points
        .iter()
        .map(|p| {
            [
                1.0 / p.report.total_area.square_millimeters(),
                1.0 / p.report.energy_per_sample.microjoules(),
                1.0 / p.report.power.watts(),
                1.0 / p.report.sample_latency.microseconds(),
                1.0 - p.report.output_max_error_rate,
            ]
        })
        .collect();
    let mut best = [0.0f64; 5];
    for axes in &raw {
        for (b, v) in best.iter_mut().zip(axes) {
            *b = b.max(*v);
        }
    }
    raw.into_iter()
        .zip(Objective::TABLE_COLUMNS)
        .map(|(axes, objective)| Pentagon {
            optimized_for: objective,
            axes: std::array::from_fn(|i| axes[i] / best[i]),
        })
        .collect()
}

fn render(title: &str, pens: &[Pentagon]) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&row(
        "design \\ axis",
        &AXES.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    ));
    for p in pens {
        out.push_str(&row(
            &format!("optimal {}", p.optimized_for),
            &p.axes.iter().map(|v| format!("{v:.3}")).collect::<Vec<_>>(),
        ));
    }
    out.push('\n');
    out
}

fn four_optima(result: &mnsim_core::dse::DseResult) -> Vec<&DesignPoint> {
    Objective::TABLE_COLUMNS
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
        .collect()
}

/// Runs both sub-figures and renders the normalized axis tables.
///
/// # Errors
///
/// Propagates exploration errors.
pub fn run() -> Result<String, Box<dyn std::error::Error>> {
    let bank = Simulator::new(large_bank_config()).explore(
        &DesignSpace::paper_large_bank(),
        &Constraints::crossbar_error(0.25),
    )?;
    let cnn = Simulator::new(Config::vgg16_cnn()).explore(
        &DesignSpace::paper_cnn(),
        &Constraints::crossbar_error(0.50),
    )?;

    let mut out = String::new();
    out.push_str("Fig. 9 — normalized five-axis comparison of the four optimal designs\n\n");
    out.push_str(&render(
        "(a) large computation bank",
        &pentagons(&four_optima(&bank)),
    ));
    out.push_str(&render("(b) VGG-16 CNN", &pentagons(&four_optima(&cnn))));
    out.push_str(
        "Shape check: each row holds a 1.000 on its own axis; the spread across rows\n\
         is larger for the single bank than for the full CNN (the paper's observation\n\
         that the entire network case shows smaller differences).\n",
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pentagons_are_normalized() {
        let base = large_bank_config();
        let space = DesignSpace {
            crossbar_sizes: vec![64, 256],
            parallelism_degrees: vec![1, 64],
            interconnects: vec![mnsim_tech::interconnect::InterconnectNode::N45],
        };
        let result = Simulator::new(base)
            .threads(1)
            .explore(&space, &Constraints::default())
            .unwrap();
        let pens = pentagons(&four_optima(&result));
        assert_eq!(pens.len(), 4);
        for p in &pens {
            for &v in &p.axes {
                assert!((0.0..=1.0 + 1e-12).contains(&v), "axis value {v}");
            }
        }
        // Every axis has at least one design at 1.0.
        for i in 0..5 {
            assert!(pens.iter().any(|p| (p.axes[i] - 1.0).abs() < 1e-12));
        }
        // The area-optimal design tops the 1/area axis.
        assert!((pens[0].axes[0] - 1.0).abs() < 1e-12);
    }
}
