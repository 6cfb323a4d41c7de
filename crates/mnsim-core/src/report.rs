//! Report formatting: human-readable summaries, CSV export, and the
//! accelerator-level area breakdown.

use std::fmt::Write as _;

use mnsim_obs::write_json_string;
use mnsim_tech::units::Area;

use crate::dse::DseResult;
use crate::simulate::Report;

/// Formats a [`Report`] as a multi-line summary table.
pub fn format_report(report: &Report) -> String {
    let mut out = String::new();
    let config = &report.config;
    let _ = writeln!(out, "MNSIM simulation report — {}", config.network.name);
    let _ = writeln!(
        out,
        "  configuration: {} | crossbar {} | wire {} | parallelism {} | {} | {}-bit out",
        config.cmos,
        config.crossbar_size,
        config.interconnect,
        if config.parallelism == 0 {
            "full".to_string()
        } else {
            config.parallelism.to_string()
        },
        config.network_type,
        config.precision.output_bits,
    );
    let _ = writeln!(out, "  banks: {}", report.accelerator.banks.len());
    let _ = writeln!(
        out,
        "  area:               {:>12.4} mm²",
        report.total_area.square_millimeters()
    );
    let _ = writeln!(
        out,
        "  energy per sample:  {:>12.4} µJ",
        report.energy_per_sample.microjoules()
    );
    let _ = writeln!(
        out,
        "  sample latency:     {:>12.4} µs",
        report.sample_latency.microseconds()
    );
    let _ = writeln!(
        out,
        "  pipeline cycle:     {:>12.4} µs",
        report.pipeline_cycle.microseconds()
    );
    let _ = writeln!(out, "  power:              {:>12.4} W", report.power.watts());
    let _ = writeln!(
        out,
        "  worst crossbar ε:   {:>12.4} %",
        report.worst_crossbar_epsilon * 100.0
    );
    let _ = writeln!(
        out,
        "  output error (max): {:>12.4} %",
        report.output_max_error_rate * 100.0
    );
    let _ = writeln!(
        out,
        "  output error (avg): {:>12.4} %",
        report.output_avg_error_rate * 100.0
    );
    if let Some(faults) = &report.faults {
        let _ = writeln!(
            out,
            "  fault campaign:     {:>12} trials ({} retired)",
            faults.trials, faults.retired_trials
        );
        let _ = writeln!(
            out,
            "  array yield:        {:>12.4} %",
            faults.yield_fraction * 100.0
        );
        let _ = writeln!(
            out,
            "  solver fallbacks:   {:>12.4} % of {} solves",
            faults.fallback_rate() * 100.0,
            faults.solves
        );
        let _ = writeln!(
            out,
            "  fault deviation:    {:>12.4} levels mean / {:.4} levels p95",
            faults.mean_deviation_levels, faults.p95_deviation_levels
        );
        let _ = writeln!(
            out,
            "  weight damage:      {:>12.4} levels mean",
            faults.mean_weight_damage_levels
        );
    }
    out
}

/// Formats the per-bank detail lines of a report.
pub fn format_bank_details(report: &Report) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {:>4} {:>10} {:>8} {:>12} {:>12} {:>10}",
        "bank", "units", "ops", "cycle (µs)", "energy (µJ)", "ε (%)"
    );
    for (i, (bank, acc)) in report
        .accelerator
        .banks
        .iter()
        .zip(&report.layer_accuracy)
        .enumerate()
    {
        let _ = writeln!(
            out,
            "  {:>4} {:>10} {:>8} {:>12.4} {:>12.4} {:>10.3}",
            i,
            bank.unit_count,
            bank.ops_per_sample,
            bank.cycle.latency.microseconds(),
            bank.sample.dynamic_energy.microjoules(),
            acc.crossbar_epsilon * 100.0,
        );
    }
    out
}

/// Accelerator-level area breakdown (supports claims like the paper's
/// "ADC circuits take about half of the area", §V.C).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AreaBreakdown {
    /// Memristor arrays.
    pub crossbars: Area,
    /// Address decoders.
    pub decoders: Area,
    /// DACs + ADCs/SAs.
    pub converters: Area,
    /// Digital periphery inside the units (MUX, subtractors, mergers).
    pub unit_digital: Area,
    /// Bank-level periphery (adder trees, pooling, neurons, buffers).
    pub bank_peripheral: Area,
    /// Accelerator I/O interfaces.
    pub interface: Area,
}

impl AreaBreakdown {
    /// Total area (must equal the report's total).
    pub fn total(&self) -> Area {
        self.crossbars
            + self.decoders
            + self.converters
            + self.unit_digital
            + self.bank_peripheral
            + self.interface
    }
}

/// Computes the accelerator-wide area breakdown of a report.
pub fn area_breakdown(report: &Report) -> AreaBreakdown {
    let mut breakdown = AreaBreakdown {
        interface: report.accelerator.interface_in.area + report.accelerator.interface_out.area,
        ..AreaBreakdown::default()
    };
    for bank in &report.accelerator.banks {
        let n = bank.unit_count as f64;
        breakdown.crossbars += bank.unit.breakdown.crossbar * n;
        breakdown.decoders += bank.unit.breakdown.decoder * n;
        breakdown.converters += bank.unit.breakdown.converters * n;
        breakdown.unit_digital += bank.unit.breakdown.digital * n;
        let units_total = bank.unit.breakdown.total() * n;
        breakdown.bank_peripheral += bank.area() - units_total;
    }
    for link in &report.accelerator.links {
        breakdown.bank_peripheral += link.area;
    }
    breakdown
}

/// The CSV header matching [`report_csv_row`].
///
/// The four fault columns are empty for clean simulations and populated
/// when [`crate::simulator::Simulator::faults`] attaches a campaign.
/// `fault_fallback_rate` stays in the format and reads 0 (see
/// [`crate::fault_sim::FaultSummary::fallback_solves`]).
pub const CSV_HEADER: &str = "network,crossbar_size,parallelism,interconnect_nm,cmos_nm,\
area_mm2,energy_uj,sample_latency_us,pipeline_cycle_us,power_w,\
worst_epsilon,output_max_error,output_avg_error,\
yield,fault_fallback_rate,fault_dev_mean_levels,fault_dev_p95_levels";

/// One report as a CSV row (see [`CSV_HEADER`]).
pub fn report_csv_row(report: &Report) -> String {
    let c = &report.config;
    let fault_columns = match &report.faults {
        Some(faults) => format!(
            "{:.6},{:.6},{:.6},{:.6}",
            faults.yield_fraction,
            faults.fallback_rate(),
            faults.mean_deviation_levels,
            faults.p95_deviation_levels,
        ),
        None => ",,,".into(),
    };
    format!(
        "{},{},{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{}",
        // Network names may contain commas (e.g. "mlp-[128, 128]").
        c.network.name.replace([',', ' '], "_"),
        c.crossbar_size,
        c.parallelism,
        c.interconnect.nanometers(),
        c.cmos.nanometers(),
        report.total_area.square_millimeters(),
        report.energy_per_sample.microjoules(),
        report.sample_latency.microseconds(),
        report.pipeline_cycle.microseconds(),
        report.power.watts(),
        report.worst_crossbar_epsilon,
        report.output_max_error_rate,
        report.output_avg_error_rate,
        fault_columns,
    )
}

/// Serializes a [`Report`]'s numerical summary as a canonical JSON
/// object (hand-rolled — the workspace is dependency-free by design).
///
/// Exact decimal formatting via Rust's shortest-roundtrip `{}` float
/// rendering: two reports produce byte-identical JSON **iff** their
/// summary numbers are bit-identical, which is what the API-facade
/// equivalence suite asserts across thread counts. The optional
/// `metrics` / `trace` attachments carry wall-clock data and are
/// deliberately excluded; `faults` is included because campaign
/// statistics are deterministic. Its `fallback_solves` field stays in the
/// format and reads 0 (see
/// [`crate::fault_sim::FaultSummary::fallback_solves`]).
pub fn report_json(report: &Report) -> String {
    let c = &report.config;
    let mut out = String::from("{\"network\":");
    write_json_string(&mut out, &c.network.name);
    let _ = write!(
        out,
        ",\"crossbar_size\":{},\"parallelism\":{},\
         \"interconnect_nm\":{},\"cmos_nm\":{},\"banks\":{}",
        c.crossbar_size,
        c.parallelism,
        c.interconnect.nanometers(),
        c.cmos.nanometers(),
        report.accelerator.banks.len(),
    );
    let _ = write!(
        out,
        ",\"area_mm2\":{},\"energy_uj\":{},\"sample_latency_us\":{},\
         \"pipeline_cycle_us\":{},\"power_w\":{},\"worst_epsilon\":{},\
         \"output_max_error\":{},\"output_avg_error\":{}",
        report.total_area.square_millimeters(),
        report.energy_per_sample.microjoules(),
        report.sample_latency.microseconds(),
        report.pipeline_cycle.microseconds(),
        report.power.watts(),
        report.worst_crossbar_epsilon,
        report.output_max_error_rate,
        report.output_avg_error_rate,
    );
    let _ = write!(out, ",\"layer_epsilons\":[");
    for (i, layer) in report.layer_accuracy.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", layer.crossbar_epsilon);
    }
    out.push(']');
    match &report.faults {
        Some(faults) => {
            let _ = write!(
                out,
                ",\"faults\":{{\"trials\":{},\"yield\":{},\"retired\":{},\
                 \"solves\":{},\"fallback_solves\":{},\"mean_deviation_levels\":{},\
                 \"p95_deviation_levels\":{},\"mean_weight_damage_levels\":{}}}",
                faults.trials,
                faults.yield_fraction,
                faults.retired_trials,
                faults.solves,
                faults.fallback_solves,
                faults.mean_deviation_levels,
                faults.p95_deviation_levels,
                faults.mean_weight_damage_levels,
            );
        }
        None => out.push_str(",\"faults\":null"),
    }
    out.push('}');
    out
}

/// A whole DSE result as CSV (header + one row per feasible design).
pub fn dse_csv(result: &DseResult) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for point in &result.feasible {
        out.push_str(&report_csv_row(&point.report));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::simulate::simulate;

    #[test]
    fn report_contains_key_metrics() {
        let config = Config::fully_connected_mlp(&[128, 128, 128]).unwrap();
        let report = simulate(&config).unwrap();
        let text = format_report(&report);
        assert!(text.contains("mm²"));
        assert!(text.contains("µJ"));
        assert!(text.contains("worst crossbar"));
        assert!(text.contains("banks: 2"));
    }

    #[test]
    fn bank_details_have_one_line_per_bank() {
        let config = Config::fully_connected_mlp(&[128, 64, 32]).unwrap();
        let report = simulate(&config).unwrap();
        let text = format_bank_details(&report);
        // header + 2 banks
        assert_eq!(text.lines().count(), 3);
    }

    #[test]
    fn area_breakdown_sums_to_total() {
        // Multi-bank network so inter-bank links are exercised too.
        let config = Config::fully_connected_mlp(&[512, 512, 256]).unwrap();
        let report = simulate(&config).unwrap();
        assert!(!report.accelerator.links.is_empty());
        let breakdown = area_breakdown(&report);
        let total = breakdown.total().square_meters();
        let reported = report.total_area.square_meters();
        assert!(
            (total - reported).abs() / reported < 1e-9,
            "{total} vs {reported}"
        );
    }

    #[test]
    fn converters_dominate_fully_parallel_designs() {
        // The paper's §V.C claim: ADCs take about half of the area in a
        // fully parallel design.
        let mut config = Config::fully_connected_mlp(&[2048, 1024]).unwrap();
        config.parallelism = 0; // one read circuit per column
        let report = simulate(&config).unwrap();
        let breakdown = area_breakdown(&report);
        let fraction = breakdown.converters / breakdown.total();
        assert!(
            fraction > 0.3,
            "converters only {:.0} % of area",
            fraction * 100.0
        );
        // Sharing the read circuits slashes that share.
        config.parallelism = 1;
        let shared = area_breakdown(&simulate(&config).unwrap());
        assert!(shared.converters / shared.total() < fraction);
    }

    #[test]
    fn csv_row_matches_header_columns() {
        let config = Config::fully_connected_mlp(&[128, 128]).unwrap();
        let report = simulate(&config).unwrap();
        let row = report_csv_row(&report);
        assert_eq!(
            row.split(',').count(),
            CSV_HEADER.split(',').count(),
            "row: {row}"
        );
    }

    #[test]
    fn csv_fault_columns_populated_by_fault_sim() {
        use crate::exec::RunControl;
        use crate::fault_sim::{simulate_with_faults, FaultConfig};
        let config = Config::fully_connected_mlp(&[64, 32]).unwrap();
        let fault_config = FaultConfig {
            trials: 2,
            ..FaultConfig::default()
        };
        let report =
            simulate_with_faults(&config, &fault_config, 0, &RunControl::new(), None).unwrap();
        let row = report_csv_row(&report);
        assert_eq!(row.split(',').count(), CSV_HEADER.split(',').count());
        assert!(!row.ends_with(",,,"), "fault columns must be filled: {row}");
        let text = format_report(&report);
        assert!(text.contains("array yield"));
        assert!(text.contains("solver fallbacks"));
    }

    #[test]
    fn report_json_is_canonical_and_distinguishes_values() {
        let config = Config::fully_connected_mlp(&[128, 128]).unwrap();
        let report = simulate(&config).unwrap();
        let a = report_json(&report);
        let b = report_json(&simulate(&config).unwrap());
        assert_eq!(a, b, "deterministic runs must serialize identically");
        assert!(a.starts_with('{') && a.ends_with('}'));
        assert!(a.contains("\"faults\":null"));
        assert!(a.contains("\"banks\":1"));

        let mut other = config.clone();
        other.crossbar_size = 64;
        assert_ne!(a, report_json(&simulate(&other).unwrap()));
    }

    #[test]
    fn report_json_escapes_the_network_name() {
        let mut report = simulate(&Config::fully_connected_mlp(&[128, 128]).unwrap()).unwrap();
        assert!(report_json(&report).starts_with("{\"network\":\"mlp-[128, 128]\","));
        let name = "a\\b \"q\"\nc";
        report.config.network.name = name.to_string();
        let json = report_json(&report);
        let parsed = mnsim_obs::parse_json(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
        assert_eq!(parsed.get("network").and_then(|v| v.as_str()), Some(name));
    }

    #[test]
    fn dse_csv_has_one_line_per_feasible_design() {
        use crate::dse::{explore, Constraints, DesignSpace};
        use crate::exec::RunControl;
        let base = Config::fully_connected_mlp(&[256, 256]).unwrap();
        let space = DesignSpace {
            crossbar_sizes: vec![64, 128],
            parallelism_degrees: vec![8],
            interconnects: vec![mnsim_tech::interconnect::InterconnectNode::N45],
        };
        let result = explore(
            &base,
            &space,
            &Constraints::default(),
            1,
            &RunControl::new(),
            None,
        )
        .unwrap();
        let csv = dse_csv(&result);
        assert_eq!(csv.lines().count(), 1 + result.feasible.len());
        assert!(csv.starts_with("network,"));
    }
}
