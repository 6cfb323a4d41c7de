//! `dse_sweep`: behaviour-level design-space exploration.
//!
//! One operation is three exhaustive sweeps on `min(2, nproc)` threads:
//! Table IV
//! (`paper_large_bank` around the 2048×1024 bank, ε ≤ 25 %), Table VI
//! (`paper_cnn` around VGG-16, ε ≤ 50 %), and `paper_cnn` around a
//! three-layer MLP whose widths the seed draws from {256, 512, 1024,
//! 2048}. That is about 1 080 designs of architecture (accelerator → bank
//! → unit), accuracy-model, DSE and `core::exec` fan-out work with no
//! circuit solve at all: solver changes must leave it unchanged, and it
//! carries the paper's designs-per-second claim.

use mnsim_core::config::Precision;
use mnsim_core::dse::{Constraints, DesignPoint, DesignSpace, DseResult, Objective};
use mnsim_core::{Config, CoreError, Simulator};
use mnsim_nn::models;
use mnsim_tech::cmos::CmosNode;
use mnsim_tech::interconnect::InterconnectNode;

use super::{threads, Params, Sequential};
use crate::layers::LayerValues;
use crate::measure::timed;
use crate::rng::Rng;
use crate::spans::Spans;

/// MLP widths the seed draws from.
pub const MLP_WIDTHS: [usize; 4] = [256, 512, 1024, 2048];

/// Relative tolerance of the golden comparisons.
const REL_TOL: f64 = 1e-6;

/// A Table IV column: `(objective, crossbar size, parallelism, wire nm,
/// area mm², energy µJ, latency µs, output error %)`.
type GoldenOptimum = (Objective, usize, usize, u32, f64, f64, f64, f64);

/// Copy of the repository's Table IV goldens.
#[rustfmt::skip]
const TABLE4_GOLDEN: [GoldenOptimum; 4] = [
    (Objective::Area, 1024, 1, 36, 0.717717548, 20.178271635, 10.839452085, 24.705882353),
    (Objective::Energy, 1024, 128, 36, 2.671697636, 0.197534271, 0.171452085, 24.705882353),
    (Objective::Latency, 128, 128, 45, 129.778518300, 0.842421354, 0.095172819, 13.725490196),
    (Objective::Accuracy, 8, 1, 18, 306.276331548, 29.790796434, 0.170898819, 1.176470588),
];
/// Table IV sweep shape: designs evaluated and feasible.
const TABLE4_SHAPE: (usize, usize) = (285, 169);

/// The paper's §VII.C large-computation-bank setup.
pub fn large_bank_config() -> Config {
    let mut config = Config::for_network(models::large_bank_layer());
    config.cmos = CmosNode::N45;
    config.precision = Precision {
        input_bits: 8,
        weight_bits: 4,
        output_bits: 8,
    };
    config.device.bits_per_cell = 7;
    config
}

/// One sweep of the operation.
#[derive(Debug, Clone)]
struct Sweep {
    base: Config,
    space: DesignSpace,
    constraints: Constraints,
}

impl Sweep {
    fn explore(&self, threads: usize) -> Result<DseResult, CoreError> {
        Simulator::new(self.base.clone())
            .threads(threads)
            .explore(&self.space, &self.constraints)
    }
}

fn close(actual: f64, golden: f64) -> bool {
    (actual - golden).abs() <= REL_TOL * golden.abs().max(1e-3)
}

fn optimum(result: &DseResult, objective: Objective) -> Option<&DesignPoint> {
    if objective == Objective::Accuracy {
        result.best_with_secondary(Objective::Accuracy, Objective::Area)
    } else {
        result.best(objective)
    }
}

/// Checks the Table IV sweep against its goldens.
fn check_table4(result: &DseResult) -> Result<(), String> {
    if (result.evaluated, result.feasible.len()) != TABLE4_SHAPE {
        return Err(format!(
            "Table IV sweep shape ({}, {}) != golden {TABLE4_SHAPE:?}",
            result.evaluated,
            result.feasible.len()
        ));
    }
    for &(objective, size, parallelism, nm, area, energy, latency, error) in &TABLE4_GOLDEN {
        let best = optimum(result, objective).ok_or("Table IV feasible set is empty")?;
        let report = &best.report;
        let matches = best.crossbar_size == size
            && best.parallelism == parallelism
            && best.interconnect.nanometers() == nm
            && close(report.total_area.square_millimeters(), area)
            && close(report.energy_per_sample.microjoules(), energy)
            && close(report.sample_latency.microseconds(), latency)
            && close(report.output_max_error_rate * 100.0, error);
        if !matches {
            return Err(format!(
                "Table IV optimum for {objective} differs from the golden"
            ));
        }
    }
    Ok(())
}

/// The DSE workload.
#[derive(Debug)]
pub struct Dse {
    sweeps: Vec<Sweep>,
    threads: usize,
    goldens: bool,
    designs: f64,
    reference: Option<Vec<DseResult>>,
    feasible_ratio: f64,
}

/// The seeded MLP sweep: widths drawn from [`MLP_WIDTHS`], redrawn until
/// the sweep has a feasible design.
fn mlp_sweep(rng: &mut Rng, space: &DesignSpace, threads: usize) -> Result<Sweep, String> {
    for _ in 0..64 {
        let widths: Vec<usize> = (0..3).map(|_| rng.pick(&MLP_WIDTHS)).collect();
        let mut base = Config::fully_connected_mlp(&widths).map_err(|e| format!("mlp: {e}"))?;
        base.cmos = CmosNode::N45;
        let sweep = Sweep {
            base,
            space: space.clone(),
            constraints: Constraints::crossbar_error(0.50),
        };
        match sweep.explore(threads) {
            Ok(_) => return Ok(sweep),
            Err(CoreError::EmptyDesignSpace { .. }) => continue,
            Err(e) => return Err(format!("mlp sweep: {e}")),
        }
    }
    Err("no feasible MLP sweep in 64 draws".into())
}

impl Sequential for Dse {
    const OP_SPAN: &'static str = "perf.dse.op";
    const ENVELOPES: &'static [&'static str] = &["dse.explore"];
    const TRACED_OPS: usize = 300;

    fn setup(params: &Params) -> Result<Self, String> {
        let (bank_space, cnn_space) = if params.quick {
            let small = DesignSpace {
                crossbar_sizes: vec![64, 128],
                parallelism_degrees: vec![1, 2],
                interconnects: vec![InterconnectNode::N28, InterconnectNode::N45],
            };
            (small.clone(), small)
        } else {
            (DesignSpace::paper_large_bank(), DesignSpace::paper_cnn())
        };
        let threads = threads();
        let mut rng = Rng::new(params.seed);
        let mlp = mlp_sweep(&mut rng, &cnn_space, threads)?;
        let sweeps = vec![
            Sweep {
                base: large_bank_config(),
                space: bank_space,
                constraints: Constraints::crossbar_error(0.25),
            },
            Sweep {
                base: Config::vgg16_cnn(),
                space: cnn_space,
                constraints: Constraints::crossbar_error(0.50),
            },
            mlp,
        ];
        Ok(Dse {
            sweeps,
            threads,
            goldens: !params.quick,
            designs: 0.0,
            reference: None,
            feasible_ratio: 0.0,
        })
    }

    fn op(&mut self) -> Result<f64, String> {
        let (seconds, results) = timed(|| {
            self.sweeps
                .iter()
                .map(|sweep| sweep.explore(self.threads))
                .collect::<Result<Vec<_>, _>>()
        });
        let results = results.map_err(|e| format!("explore: {e}"))?;
        let evaluated: usize = results.iter().map(|r| r.evaluated).sum();
        let feasible: usize = results.iter().map(|r| r.feasible.len()).sum();
        self.designs = evaluated as f64;
        self.feasible_ratio = feasible as f64 / evaluated.max(1) as f64;
        match &self.reference {
            Some(reference) if *reference != results => {
                Err("sweep results differ from the first operation's".into())
            }
            Some(_) => Ok(seconds),
            None => {
                if self.goldens {
                    check_table4(&results[0])?;
                }
                self.reference = Some(results);
                Ok(seconds)
            }
        }
    }

    fn items_per_op(&self) -> f64 {
        self.designs
    }

    fn span_layers(&self, spans: &Spans, values: &mut LayerValues) {
        values.set("core.dse.feasible_ratio", self.feasible_ratio);
        let points = spans.count("dse.point");
        if points > 0 {
            let per_point = |name: &str| spans.total_s(name) / points as f64;
            values.set("core.dse.point_s", per_point("dse.point"));
            values.set("core.arch.accelerator_s", per_point("accelerator"));
            values.set("core.accuracy.epsilon_s", per_point("accuracy"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mlp_base_depends_on_the_seed() {
        let space = DesignSpace {
            crossbar_sizes: vec![64, 128],
            parallelism_degrees: vec![1],
            interconnects: vec![InterconnectNode::N45],
        };
        let base = |seed| mlp_sweep(&mut Rng::new(seed), &space, 1).unwrap().base;
        assert_eq!(base(1), base(1));
        let differs = (2..10).any(|seed| base(seed) != base(1));
        assert!(differs, "eight other seeds all drew the same MLP");
    }
}
