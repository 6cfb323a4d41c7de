//! `table2_validation`: the paper's Table II model-vs-circuit validation.
//!
//! One operation is `Simulator::new(table2_config).threads(2)
//! .validate(2, 5, seed)`: `repro table2`'s five input vectors per matrix
//! on two random 128×128 weight matrices instead of its three (one matrix
//! per worker thread, so neither thread idles on an odd matrix), plus the
//! fixed uniform-array solves, the Fig.-5 wire fit
//! and the 32×32 transient. Nearly all of it is circuit-level nonlinear
//! solving, with no architecture, DSE or serve work, so a solver change
//! has to show here.

use mnsim_core::accuracy::fit_wire_coefficient;
use mnsim_core::validate::{measure_transient_settle, ValidationRow};
use mnsim_core::{Config, Simulator};
use mnsim_nn::models;
use mnsim_tech::cmos::CmosNode;

use super::{threads, Params, Sequential, DEFAULT_SEED};
use crate::layers::LayerValues;
use crate::measure::timed;

/// Random weight matrices per validation (= the thread count).
pub const MATRICES: usize = 2;
/// Input vectors per matrix.
pub const INPUTS_PER_MATRIX: usize = 5;

/// Relative tolerance of the golden comparisons (that of the repository's
/// paper-table suite).
const REL_TOL: f64 = 1e-6;

/// Copy of the repository's Table II goldens as `(metric, mnsim,
/// circuit)`. Every MNSIM value and the circuit values of rows 1, 3 and 4
/// do not depend on the sampled matrices, so they hold at any seed and
/// sample count; the circuit values of rows 2 and 5 are sample-dependent
/// (`None` here, pinned in `expected/`).
const GOLDEN: [(&str, f64, Option<f64>); 5] = [
    (
        "computation power (avg-case assumption)",
        109.472727310,
        Some(87.450647333),
    ),
    ("computation power (random weights)", 109.472727310, None),
    ("read power (single cell)", 0.250250000, Some(0.247107885)),
    ("crossbar settle latency", 0.006225390, Some(0.005851867)),
    ("average relative accuracy", 9.443112333, None),
];

/// Sample-dependent circuit cells of `validate(2, 5, DEFAULT_SEED)` on
/// the Table II configuration.
const EXPECTED: &str = include_str!("../../expected/table2_seed20160318.txt");

/// The paper's Table II setup: a 3-layer fully-connected network with two
/// 128×128 layers at 90 nm.
pub fn table2_config() -> Config {
    let mut config = Config::for_network(models::mlp(&[128, 128, 128]).expect("static dims"));
    config.cmos = CmosNode::N90;
    config.crossbar_size = 128;
    config
}

fn quick_config() -> Config {
    let mut config = Config::for_network(models::mlp(&[16, 16, 16]).expect("static dims"));
    config.cmos = CmosNode::N90;
    config.crossbar_size = 16;
    config
}

fn close(actual: f64, golden: f64, tolerance: f64) -> bool {
    (actual - golden).abs() <= tolerance * golden.abs().max(1e-3)
}

/// Parses `metric.column = value` lines of an expected-values file.
fn expected_cells(text: &str) -> Vec<(&str, &str, f64)> {
    text.lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .filter_map(|line| {
            let (key, value) = line.split_once('=')?;
            let (metric, column) = key.trim().rsplit_once('.')?;
            Some((metric, column, value.trim().parse().ok()?))
        })
        .collect()
}

/// The Table II workload.
#[derive(Debug)]
pub struct Table2 {
    config: Config,
    seed: u64,
    goldens: bool,
    threads: usize,
    reference: Option<Vec<ValidationRow>>,
}

impl Table2 {
    /// Checks one operation's rows: goldens on the first, bit-identity
    /// with the first on every later one.
    fn check(&mut self, rows: Vec<ValidationRow>) -> Result<(), String> {
        if let Some(reference) = &self.reference {
            let bits = |rows: &[ValidationRow]| -> Vec<(u64, u64)> {
                rows.iter()
                    .map(|r| (r.mnsim.to_bits(), r.circuit.to_bits()))
                    .collect()
            };
            if bits(&rows) != bits(reference) {
                return Err("validation rows differ from the first operation's".into());
            }
            return Ok(());
        }
        if rows.len() != GOLDEN.len() {
            return Err(format!(
                "expected {} rows, got {}",
                GOLDEN.len(),
                rows.len()
            ));
        }
        if self.goldens {
            for (row, &(metric, mnsim, circuit)) in rows.iter().zip(&GOLDEN) {
                if row.metric != metric || !close(row.mnsim, mnsim, REL_TOL) {
                    return Err(format!(
                        "{}: mnsim {} != golden {mnsim}",
                        row.metric, row.mnsim
                    ));
                }
                if let Some(circuit) = circuit {
                    if !close(row.circuit, circuit, REL_TOL) {
                        return Err(format!(
                            "{metric}: circuit {} != golden {circuit}",
                            row.circuit
                        ));
                    }
                }
            }
            if self.seed == DEFAULT_SEED {
                for (metric, column, value) in expected_cells(EXPECTED) {
                    let row = rows
                        .iter()
                        .find(|r| r.metric == metric)
                        .ok_or_else(|| format!("no row {metric}"))?;
                    let actual = if column == "circuit" {
                        row.circuit
                    } else {
                        row.mnsim
                    };
                    if !close(actual, value, 1e-9) {
                        return Err(format!("{metric}.{column}: {actual} != expected {value}"));
                    }
                }
            }
        }
        self.reference = Some(rows);
        Ok(())
    }
}

impl Sequential for Table2 {
    const OP_SPAN: &'static str = "perf.table2.validate";
    const ENVELOPES: &'static [&'static str] = &[];
    const TRACED_OPS: usize = 1;

    fn setup(params: &Params) -> Result<Self, String> {
        let config = if params.quick {
            quick_config()
        } else {
            table2_config()
        };
        config
            .validate()
            .map_err(|e| format!("table2 config: {e}"))?;
        Ok(Table2 {
            config,
            seed: params.seed,
            goldens: !params.quick,
            threads: threads(),
            reference: None,
        })
    }

    fn op(&mut self) -> Result<f64, String> {
        let sim = Simulator::new(self.config.clone()).threads(self.threads);
        let (seconds, rows) = timed(|| sim.validate(MATRICES, INPUTS_PER_MATRIX, self.seed));
        self.check(rows.map_err(|e| format!("validate: {e}"))?)?;
        Ok(seconds)
    }

    fn items_per_op(&self) -> f64 {
        1.0
    }

    fn probe_layers(&mut self, values: &mut LayerValues) -> Result<(), String> {
        // The fit sizes `validate` itself calibrates on.
        let rows = self.config.network.banks[0]
            .matrix_rows()
            .min(self.config.crossbar_size);
        let sizes: Vec<usize> = [rows / 4, rows / 2, rows]
            .into_iter()
            .filter(|&s| s >= 2)
            .collect();
        let config = &self.config;
        let (fit_s, fit) = timed(|| {
            fit_wire_coefficient(
                &config.device,
                config.interconnect,
                config.sense_resistance,
                &sizes,
            )
        });
        fit.map_err(|e| format!("fit_wire_coefficient: {e}"))?;
        values.set("core.accuracy.fit_s", fit_s);
        let (settle_s, settle) =
            timed(|| measure_transient_settle(config, config.crossbar_size.min(32)));
        settle.map_err(|e| format!("measure_transient_settle: {e}"))?;
        values.set("circuit.transient.settle_s", settle_s);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_file_names_sample_dependent_cells() {
        let cells = expected_cells(EXPECTED);
        assert_eq!(cells.len(), 2);
        for (metric, column, _) in cells {
            let golden = GOLDEN.iter().find(|g| g.0 == metric).expect("known row");
            assert_eq!(column, "circuit");
            assert!(
                golden.2.is_none(),
                "{metric} is pinned by the goldens already"
            );
        }
    }
}
