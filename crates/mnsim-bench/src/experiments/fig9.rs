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

/// Axis labels of the pentagon, each short enough for one table column.
pub const AXES: [&str; 5] = ["1/area", "energy eff.", "1/power", "speed", "accuracy"];

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

/// How far the compared designs sit apart: the max − min range of each
/// axis across the designs, averaged over the five axes. 0 when every
/// design scores alike, 1 when every axis runs from 0 to the best.
pub fn mean_axis_spread(pens: &[Pentagon]) -> f64 {
    let range = |i: usize| {
        let values = pens.iter().map(|p| p.axes[i]);
        values.clone().fold(f64::NEG_INFINITY, f64::max) - values.fold(f64::INFINITY, f64::min)
    };
    (0..AXES.len()).map(range).sum::<f64>() / AXES.len() as f64
}

/// The paper's Fig. 9 observation as a verdict on both sub-figures: the
/// entire network shows smaller differences between the optimal designs
/// than the single bank.
fn spread_verdict(bank: &[Pentagon], cnn: &[Pentagon]) -> String {
    let (bank, cnn) = (mean_axis_spread(bank), mean_axis_spread(cnn));
    let holds = cnn < bank;
    format!(
        "Spread across rows (max − min per axis, mean of five axes): bank {bank:.3}, \
         CNN {cnn:.3}.\n\
         The {} spread is larger, {} the paper, whose entire network shows the smaller\n\
         differences.\n",
        if holds { "bank's" } else { "CNN's" },
        if holds { "as in" } else { "unlike" },
    )
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

    let (bank, cnn) = (
        pentagons(&four_optima(&bank)),
        pentagons(&four_optima(&cnn)),
    );
    let mut out = String::new();
    out.push_str("Fig. 9 — normalized five-axis comparison of the four optimal designs\n\n");
    out.push_str(&render("(a) large computation bank", &bank));
    out.push_str(&render("(b) VGG-16 CNN", &cnn));
    out.push_str("Shape check: each row holds a 1.000 on its own axis.\n");
    out.push_str(&spread_verdict(&bank, &cnn));
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

    fn pentagon(axes: [f64; 5]) -> Pentagon {
        Pentagon {
            optimized_for: Objective::Area,
            axes,
        }
    }

    #[test]
    fn spread_is_the_mean_axis_range_and_the_verdict_names_the_larger() {
        let alike = [pentagon([1.0; 5]), pentagon([1.0; 5])];
        assert_eq!(mean_axis_spread(&alike), 0.0);
        let apart = [
            pentagon([1.0, 0.0, 1.0, 0.5, 1.0]),
            pentagon([0.0, 1.0, 0.5, 1.0, 0.0]),
        ];
        assert!((mean_axis_spread(&apart) - 0.8).abs() < 1e-15);

        let paper_shape = spread_verdict(&apart, &alike);
        assert!(
            paper_shape.contains("bank 0.800, CNN 0.000"),
            "{paper_shape}"
        );
        assert!(paper_shape.contains("The bank's spread is larger, as in the paper"));
        let reversed = spread_verdict(&alike, &apart);
        assert!(reversed.contains("The CNN's spread is larger, unlike the paper"));
    }

    #[test]
    fn axis_labels_fit_the_table_columns() {
        // `row` right-aligns each value in 14 characters; a longer label
        // runs into its neighbour.
        for label in AXES {
            assert!(label.chars().count() < 14, "{label}");
        }
    }
}
