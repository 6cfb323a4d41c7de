//! The top-level simulation flow (paper §IV.A, Fig. 3): generate the
//! hierarchy from the configuration, evaluate modules bottom-up, and attach
//! the computing-accuracy estimation.

use mnsim_obs as obs;
use mnsim_obs::{Level, MetricsSnapshot, TraceSummary};
use mnsim_tech::units::{Area, Energy, Power, Time};

use crate::accuracy::{propagate, AccuracyModel, Case, LayerAccuracy};
use crate::arch::accelerator::{evaluate_accelerator, AcceleratorModelResult};
use crate::config::Config;
use crate::error::CoreError;
use crate::fault_sim::FaultSummary;

static SIMULATE_RUNS: obs::Counter = obs::Counter::new("core.simulate.runs");
static SIMULATE_SPAN: obs::Span = obs::Span::new("simulate", Level::Run);
static STAGE_ACCELERATOR: obs::Span = obs::Span::new("accelerator", Level::Stage);
static STAGE_ACCURACY: obs::Span = obs::Span::new("accuracy", Level::Stage);
static STAGE_PROPAGATE: obs::Span = obs::Span::new("propagate", Level::Stage);

/// The complete simulation result for one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The configuration that produced this report.
    pub config: Config,
    /// Hierarchical performance evaluation.
    pub accelerator: AcceleratorModelResult,
    /// Per-bank accuracy after propagation (Eq. 15).
    pub layer_accuracy: Vec<LayerAccuracy>,
    /// The largest single-crossbar voltage error rate `ε` in the design
    /// (the quantity the paper's DSE constrains to ≤ 25 %).
    pub worst_crossbar_epsilon: f64,
    /// Worst-case output error rate after all layers.
    pub output_max_error_rate: f64,
    /// Average output error rate after all layers.
    pub output_avg_error_rate: f64,
    /// Total layout area.
    pub total_area: Area,
    /// Dynamic energy per input sample.
    pub energy_per_sample: Energy,
    /// End-to-end latency of one sample.
    pub sample_latency: Time,
    /// Latency of one pipeline cycle (largest bank cycle).
    pub pipeline_cycle: Time,
    /// Average power of a single-sample run.
    pub power: Power,
    /// Fault-injection campaign results; `None` for a clean simulation
    /// (populated when [`crate::simulator::Simulator::faults`] attaches a
    /// campaign).
    pub faults: Option<FaultSummary>,
    /// Observability snapshot; `None` unless attached via
    /// [`Report::with_metrics`] (e.g. by an `--emit metrics=` run).
    pub metrics: Option<MetricsSnapshot>,
    /// Hierarchical trace aggregation; `None` unless attached via
    /// [`Report::with_trace`] (e.g. by an `--emit trace=` run).
    pub trace: Option<TraceSummary>,
}

impl Report {
    /// Attaches an observability snapshot (typically
    /// [`mnsim_obs::snapshot`] taken after the run that produced this
    /// report).
    #[must_use]
    pub fn with_metrics(mut self, metrics: MetricsSnapshot) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Attaches the aggregated trace of the run that produced this report
    /// (typically `trace_session.finish().summary()`).
    #[must_use]
    pub fn with_trace(mut self, trace: TraceSummary) -> Self {
        self.trace = Some(trace);
        self
    }
}

/// Runs the full MNSIM simulation for `config` on the calling thread.
///
/// Banks are evaluated one after another: each costs microseconds, below
/// the grain where a worker pool pays for itself. For fault campaigns,
/// design-space sweeps, validation, or a [`Report`] with metrics/trace
/// attached, use the [`crate::simulator::Simulator`] facade.
///
/// # Errors
///
/// Returns configuration validation errors.
pub fn simulate(config: &Config) -> Result<Report, CoreError> {
    let _span = SIMULATE_SPAN.enter();
    SIMULATE_RUNS.inc();

    let accelerator = {
        let _stage = STAGE_ACCELERATOR.enter();
        evaluate_accelerator(config)?
    };

    // ε per bank: the crossbar geometry actually used by its units.
    let epsilons: Vec<f64> = {
        let _stage = STAGE_ACCURACY.enter();
        let accuracy = AccuracyModel::from_config(config);
        accelerator
            .banks
            .iter()
            .map(|bank| {
                accuracy.error_rate(
                    bank.unit.rows_used,
                    bank.unit.physical_cols,
                    config.interconnect,
                    &config.device,
                    Case::Worst,
                )
            })
            .collect()
    };
    let worst_crossbar_epsilon = epsilons.iter().cloned().fold(0.0, f64::max);

    let layer_accuracy = {
        let _stage = STAGE_PROPAGATE.enter();
        propagate(&epsilons, config.output_levels())
    };
    let last = layer_accuracy
        .last()
        .ok_or_else(|| CoreError::InvalidConfig {
            parameter: "network",
            reason: "network produced no banks to simulate".into(),
        })?;
    let output_max_error_rate = last.max_error_rate;
    let output_avg_error_rate = last.avg_error_rate;

    Ok(Report {
        total_area: accelerator.total_area,
        energy_per_sample: accelerator.energy_per_sample,
        sample_latency: accelerator.sample_latency,
        pipeline_cycle: accelerator.pipeline_cycle,
        power: accelerator.average_power,
        config: config.clone(),
        accelerator,
        layer_accuracy,
        worst_crossbar_epsilon,
        output_max_error_rate,
        output_avg_error_rate,
        faults: None,
        metrics: None,
        trace: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_simulation_of_reference_mlp() {
        let config = Config::fully_connected_mlp(&[128, 128, 128]).unwrap();
        let report = simulate(&config).unwrap();
        assert_eq!(report.layer_accuracy.len(), 2);
        assert!(report.total_area.square_millimeters() > 0.0);
        assert!(report.worst_crossbar_epsilon > 0.0);
        assert!(report.output_max_error_rate >= report.output_avg_error_rate);
        assert!(report.output_max_error_rate < 1.0);
    }

    #[test]
    fn accuracy_depends_on_interconnect() {
        let mut config = Config::fully_connected_mlp(&[256, 256]).unwrap();
        config.interconnect = mnsim_tech::interconnect::InterconnectNode::N90;
        let coarse = simulate(&config).unwrap();
        config.interconnect = mnsim_tech::interconnect::InterconnectNode::N18;
        let fine = simulate(&config).unwrap();
        assert!(fine.worst_crossbar_epsilon > coarse.worst_crossbar_epsilon);
        assert!(fine.output_max_error_rate >= coarse.output_max_error_rate);
        // Performance side is unchanged by wire choice except settle time.
        assert_eq!(
            fine.total_area.square_meters(),
            coarse.total_area.square_meters()
        );
    }

    #[test]
    fn report_totals_match_accelerator() {
        let config = Config::fully_connected_mlp(&[512, 128]).unwrap();
        let report = simulate(&config).unwrap();
        assert_eq!(
            report.total_area.square_meters(),
            report.accelerator.total_area.square_meters()
        );
        assert_eq!(
            report.energy_per_sample.joules(),
            report.accelerator.energy_per_sample.joules()
        );
    }

    #[test]
    fn deeper_network_more_output_error() {
        let shallow = simulate(&Config::fully_connected_mlp(&[128, 128]).unwrap()).unwrap();
        let deep =
            simulate(&Config::fully_connected_mlp(&[128, 128, 128, 128, 128]).unwrap()).unwrap();
        assert!(deep.output_max_error_rate >= shallow.output_max_error_rate);
    }
}
