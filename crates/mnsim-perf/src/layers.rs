//! The per-layer metric catalog.
//!
//! A traced run prints every metric below on every workload, in this
//! order; a layer the workload does not exercise reads 0. Counters are
//! per operation (one validation, campaign, three-sweep DSE operation or
//! request), so they repeat exactly between runs of the same code.

use std::collections::BTreeMap;

use mnsim_obs::MetricsSnapshot;

use crate::measure::Metric;

/// `(name, unit)` of every per-layer metric, grouped by layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    // obs: the benchmark's own view of each traced operation.
    ("obs.traced_op_s", "s"),
    ("obs.unattributed_s", "s"),
    ("obs.unattributed_frac", "frac"),
    ("obs.trace_overhead_frac", "frac"),
    // core::validate, core::accuracy::fit, circuit::transient
    ("core.accuracy.fit_s", "s"),
    ("circuit.transient.settle_s", "s"),
    // circuit::solve, circuit::batch, circuit::klu
    ("circuit.solve.dc_s", "s"),
    ("circuit.batch.solve_s", "s"),
    ("circuit.solve.newton_iterations", "count"),
    ("circuit.klu.analyses", "count"),
    ("circuit.klu.factors", "count"),
    ("circuit.klu.refactors", "count"),
    ("circuit.klu.reanalysis_ratio", "ratio"),
    ("circuit.batch.nonlinear_fallbacks", "count"),
    ("circuit.batch.prepared_builds", "count"),
    ("circuit.batch.invalidations", "count"),
    // core::fault_sim, tech::fault, circuit::crossbar, circuit::recovery
    ("core.fault_sim.trial_s", "s"),
    ("tech.fault.map_s", "s"),
    ("circuit.crossbar.build_s", "s"),
    ("circuit.recovery.fallback_ratio", "ratio"),
    // core::dse, core::simulate -> core::arch, core::accuracy
    ("core.dse.point_s", "s"),
    ("core.arch.accelerator_s", "s"),
    ("core.accuracy.epsilon_s", "s"),
    ("core.dse.feasible_ratio", "ratio"),
    // core::exec
    ("core.exec.idle_frac", "frac"),
    // serve, core::cache, core::simulator::Session, core::report
    ("serve.hit_p50_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.p99_ms", "ms"),
    ("serve.dse.hit_p50_ms", "ms"),
    ("serve.dse.miss_p50_ms", "ms"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.cache.stats_miss_ratio", "ratio"),
    ("serve.dedup.joined", "count"),
    ("core.simulator.session_hit_us", "us"),
    ("serve.wire_overhead_us", "us"),
    ("core.report.json_us", "us"),
    ("serve.protocol.parse_us", "us"),
];

/// Per-layer values collected by one traced run.
#[derive(Debug, Clone, Default)]
pub struct LayerValues(BTreeMap<&'static str, f64>);

impl LayerValues {
    /// Sets `name` (which must be in [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a declared per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// Every declared metric, in catalog order; unset ones read 0.
    pub fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric::new(name, unit, self.0.get(name).copied().unwrap_or(0.0)))
            .collect()
    }

    /// Sets the program-counter metrics of the circuit layers from a
    /// metrics snapshot covering `ops` operations.
    pub fn set_counters(&mut self, snapshot: &MetricsSnapshot, ops: f64) {
        let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0) as f64;
        let per_op = |name: &str| counter(name) / ops;
        let analyses = counter("solver.klu.analyses");
        let factorizations = counter("solver.klu.factors") + counter("solver.klu.refactor");
        self.set(
            "circuit.solve.newton_iterations",
            per_op("circuit.solve.newton_iterations"),
        );
        self.set("circuit.klu.analyses", per_op("solver.klu.analyses"));
        self.set("circuit.klu.factors", per_op("solver.klu.factors"));
        self.set("circuit.klu.refactors", per_op("solver.klu.refactor"));
        if factorizations > 0.0 {
            self.set("circuit.klu.reanalysis_ratio", analyses / factorizations);
        }
        self.set(
            "circuit.batch.nonlinear_fallbacks",
            per_op("circuit.batch.nonlinear_fallbacks"),
        );
        self.set(
            "circuit.batch.prepared_builds",
            per_op("circuit.batch.prepared_builds"),
        );
        self.set(
            "circuit.batch.invalidations",
            per_op("circuit.batch.invalidations"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in PER_LAYER {
            assert!(seen.insert(*name), "duplicate {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn unset_metrics_read_zero() {
        let mut values = LayerValues::default();
        values.set("serve.p99_ms", 3.5);
        let metrics = values.into_metrics();
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(
            metrics
                .iter()
                .find(|m| m.name == "serve.p99_ms")
                .unwrap()
                .value,
            3.5
        );
        assert_eq!(metrics[0].value, 0.0);
    }
}
