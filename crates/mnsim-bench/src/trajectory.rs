//! Benchmark-trajectory harness: a fixed suite of wall-clock benchmarks
//! whose results are written to `BENCH_core.json` at the repo root and
//! diffed across commits, so performance regressions show up as data
//! instead of anecdotes.
//!
//! The suite covers the four cost centers of the codebase: circuit-level
//! DC solving (two sizes), the end-to-end behavior-level `simulate`, a
//! fault-injection Monte-Carlo campaign, and a DSE sweep. Each entry
//! records the median and p95 wall time over `runs` repetitions plus two
//! trace-derived per-level stage breakdowns from one additional traced
//! repetition: `stages` merges each level's self-time intervals across
//! worker lanes (wall seconds — comparable to the median), while
//! `stages_cpu` sums them (CPU seconds — on a parallel entry the sum
//! exceeds the wall median, and the ratio is the effective parallelism).
//!
//! [`compare`] diffs two reports and flags entries whose median slowed
//! down by more than a threshold (the CI job uses 15 %); the
//! `mnsim-bench` binary exits non-zero when any regression is flagged.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use mnsim_circuit::crossbar::{CrossbarCircuit, CrossbarSpec};
use mnsim_circuit::solve::{solve_dc, Rhs, Solver};
use mnsim_core::config::Config;
use mnsim_core::dse::{Constraints, DesignSpace};
use mnsim_core::exec::{self, RunControl};
use mnsim_core::fault_sim::FaultConfig;
use mnsim_core::simulate::simulate;
use mnsim_core::Simulator;
use mnsim_obs::{parse_json, trace, write_json_number, write_json_string, JsonValue};
use mnsim_tech::fault::FaultRates;
use mnsim_tech::interconnect::InterconnectNode;
use mnsim_tech::units::{Resistance, Voltage};

/// Schema version of `BENCH_*.json` documents.
///
/// Version 2 split the single summed stage breakdown into `stages`
/// (lane-merged wall seconds) and `stages_cpu` (summed CPU seconds).
/// Version 3 added `min_s` — the noise-robust statistic [`compare`] uses
/// for entries whose baseline p95/median spread marks them as flaky.
pub const SCHEMA_VERSION: u32 = 3;

/// Baseline entries whose `p95_s` exceeds this multiple of their
/// `median_s` are judged on `min_s` instead of `median_s` by [`compare`]:
/// such spread means scheduler interference dominates the tail (observed
/// at ~3.6× on `fault_mc`), and interference only ever *adds* time — the
/// minimum is the statistic it cannot inflate.
pub const FLAKY_P95_RATIO: f64 = 2.0;

/// One benchmark entry: repeated wall-clock timings plus a trace-derived
/// stage breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Suite-stable benchmark name.
    pub name: String,
    /// Timed repetitions.
    pub runs: usize,
    /// Minimum wall time, seconds — the noise floor; [`compare`] falls
    /// back to it for flaky entries (see [`FLAKY_P95_RATIO`]).
    pub min_s: f64,
    /// Median wall time, seconds.
    pub median_s: f64,
    /// 95th-percentile wall time, seconds.
    pub p95_s: f64,
    /// Per-hierarchy-level **wall** self time (seconds) of one traced
    /// repetition: each level's self-time intervals merged across worker
    /// lanes, so the values are comparable to `median_s`.
    pub stages: BTreeMap<String, f64>,
    /// Per-hierarchy-level **CPU** self time (seconds) of the same traced
    /// repetition: self times summed over spans. For every level
    /// `stages[level] <= stages_cpu[level]`; on a parallel entry the CPU
    /// total exceeds the wall median by the effective parallelism.
    pub stages_cpu: BTreeMap<String, f64>,
}

/// Machine metadata attached to a report.
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Available hardware parallelism.
    pub cpus: usize,
}

impl Machine {
    /// Probes the current machine.
    pub fn current() -> Self {
        Machine {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cpus: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }
}

/// A full benchmark-trajectory report (`BENCH_core.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Document schema version.
    pub schema: u32,
    /// Creation time, seconds since the Unix epoch.
    pub created_unix: u64,
    /// Machine the suite ran on.
    pub machine: Machine,
    /// Benchmark entries in suite order.
    pub entries: Vec<BenchEntry>,
}

/// One flagged slowdown from [`compare`].
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Benchmark name.
    pub name: String,
    /// Baseline statistic, seconds — the median, or the minimum for
    /// entries the baseline spread marks flaky (see [`FLAKY_P95_RATIO`]).
    pub baseline_s: f64,
    /// Current value of the same statistic, seconds.
    pub current_s: f64,
    /// `current / baseline`.
    pub ratio: f64,
}

/// Sorted-sample quantile with the same convention as the metric
/// histograms: nearest-rank on `ceil(q·n)`.
fn sample_quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Times `work` `runs` times and derives one extra traced repetition for
/// the stage breakdown.
fn bench_entry(name: &str, runs: usize, mut work: impl FnMut()) -> BenchEntry {
    // Warm-up repetition: first-touch allocation and lazy statics.
    work();
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let started = Instant::now();
        work();
        samples.push(started.elapsed().as_secs_f64());
    }
    samples.sort_by(f64::total_cmp);
    let session = trace::session();
    work();
    let trace = session.finish();
    let stages = trace
        .level_self_wall_ns()
        .into_iter()
        .map(|(level, wall_ns)| (level, wall_ns as f64 / 1e9))
        .collect();
    let stages_cpu = trace
        .summary()
        .levels
        .iter()
        .map(|(level, stats)| (level.clone(), stats.self_ns as f64 / 1e9))
        .collect();
    BenchEntry {
        name: name.to_string(),
        runs,
        min_s: samples.first().copied().unwrap_or(0.0),
        median_s: sample_quantile(&samples, 0.5),
        p95_s: sample_quantile(&samples, 0.95),
        stages,
        stages_cpu,
    }
}

fn dc_solve_workload(size: usize) -> impl FnMut() {
    let spec = CrossbarSpec::uniform(
        size,
        size,
        Resistance::from_kilo_ohms(10.0),
        Resistance::from_ohms(2.0),
        Resistance::from_ohms(500.0),
        Voltage::from_volts(1.0),
    );
    let xbar = spec.build().expect("uniform crossbar builds");
    move || {
        let solution = solve_dc(xbar.circuit()).expect("healthy array solves");
        assert!(solution.voltages().iter().all(|v| v.is_finite()));
    }
}

/// Worker count of the `simulate_parallel` entry (the suite's pinned
/// apples-to-apples comparison point against `simulate_serial`).
const PARALLEL_THREADS: usize = 4;
/// End-to-end simulations per repetition of the `simulate_serial` /
/// `simulate_parallel` entries — batching keeps the timed region well
/// above scheduler noise and pool-startup cost for a single
/// ~tens-of-microseconds simulate.
const SIMULATE_BATCH: usize = 64;

/// Shape of the multi-RHS workload: one `SIZE`×`SIZE` crossbar re-driven
/// by `INPUTS` correlated input vectors per repetition.
const MULTI_RHS_SIZE: usize = 10;
/// Input vectors per repetition of the multi-RHS workload.
const MULTI_RHS_INPUTS: usize = 12;

/// Smoothly varying (correlated) input batches — the regime batched
/// inference and validation sweeps live in.
fn multi_rhs_drives() -> Vec<Vec<Voltage>> {
    (0..MULTI_RHS_INPUTS)
        .map(|k| {
            (0..MULTI_RHS_SIZE)
                .map(|r| {
                    let phase = r as f64 / MULTI_RHS_SIZE as f64 + 0.1 * k as f64;
                    Voltage::from_volts(0.5 + 0.4 * phase.sin())
                })
                .collect()
        })
        .collect()
}

fn multi_rhs_crossbar() -> CrossbarCircuit {
    CrossbarSpec::uniform(
        MULTI_RHS_SIZE,
        MULTI_RHS_SIZE,
        Resistance::from_kilo_ohms(10.0),
        Resistance::from_ohms(2.0),
        Resistance::from_ohms(500.0),
        Voltage::from_volts(1.0),
    )
    .build()
    .expect("uniform crossbar builds")
}

/// Serial reference: every input re-drives the circuit and solves it
/// anew (assembly + factorization per input). Both multi-RHS entries
/// run the same LDLᵀ engine: the serial path factors once per input, the
/// batched path once per repetition, then backsolves per input.
fn dc_solve_multi_serial_workload() -> impl FnMut() {
    let xbar = multi_rhs_crossbar();
    let drives = multi_rhs_drives();
    move || {
        for drive in &drives {
            let circuit = xbar
                .circuit()
                .with_source_voltages(drive)
                .expect("arity matches");
            let solution = solve_dc(&circuit).expect("healthy array solves");
            assert!(solution.voltages().iter().all(|v| v.is_finite()));
        }
    }
}

/// Batched path: one fresh [`Solver`] per repetition, which analyzes and
/// factors once, every input a backsolve on that factor. The setup asserts
/// 1e-12 equivalence against the serial reference once, outside the timed
/// region.
fn dc_solve_batch_workload() -> impl FnMut() {
    let xbar = multi_rhs_crossbar();
    let drives = multi_rhs_drives();
    let batch: Vec<Rhs> = drives
        .iter()
        .map(|drive| xbar.input_rhs(drive).expect("arity matches"))
        .collect();

    // Equivalence gate (untimed): the batched solutions must match the
    // serial ones to 1e-12 relative, or the speedup below is meaningless.
    let batched = Solver::default()
        .solve_batch(xbar.circuit(), &batch)
        .expect("batch solves");
    for (drive, solution) in drives.iter().zip(&batched) {
        let circuit = xbar
            .circuit()
            .with_source_voltages(drive)
            .expect("arity matches");
        let serial = solve_dc(&circuit).expect("healthy array solves");
        for (&a, &b) in serial.voltages().iter().zip(solution.voltages()) {
            let scale = a.abs().max(b.abs()).max(1.0);
            assert!(
                (a - b).abs() <= 1e-12 * scale,
                "batched solve diverged from serial: {a} vs {b}"
            );
        }
    }

    move || {
        let solutions = Solver::default()
            .solve_batch(xbar.circuit(), &batch)
            .expect("batch solves");
        assert_eq!(solutions.len(), MULTI_RHS_INPUTS);
    }
}

/// Crossbar edge of the sparse cold-vs-refactor pair: the acceptance size
/// (256×256 → ~131k unknowns) in release, scaled down in debug so the
/// quick suite under `cargo test` stays interactive. Both sizes solve on
/// the LDLᵀ engine, like every grounded-source system.
const SPARSE_BENCH_SIZE: usize = if cfg!(debug_assertions) { 32 } else { 256 };

/// A uniform crossbar for the sparse pair with every cell at
/// `state_kohms`; varying only the state keeps the sparsity pattern
/// identical across instances, which is what refactorization requires.
fn sparse_bench_crossbar(state_kohms: f64) -> CrossbarCircuit {
    CrossbarSpec::uniform(
        SPARSE_BENCH_SIZE,
        SPARSE_BENCH_SIZE,
        Resistance::from_kilo_ohms(state_kohms),
        Resistance::from_ohms(2.0),
        Resistance::from_ohms(500.0),
        Voltage::from_volts(1.0),
    )
    .build()
    .expect("uniform crossbar builds")
}

/// Cold sparse-direct path: every repetition re-assembles, re-analyzes
/// (AMD + elimination tree) and re-factors the reduced system from scratch.
fn dc_solve_sparse_cold_workload() -> impl FnMut() {
    let xbar = sparse_bench_crossbar(10.0);
    move || {
        let solution = solve_dc(xbar.circuit()).expect("healthy array solves");
        assert!(solution.voltages().iter().all(|v| v.is_finite()));
    }
}

/// Refactor fast path: one [`Solver`] holds the symbolic analysis and the
/// stamp slot map; every repetition hands it new cell conductances (same
/// pattern), which it scatters into the cached analysis, refactors, and
/// backsolves — the per-trial regime of a fault campaign or a reprogrammed
/// layer.
fn dc_solve_sparse_refactor_workload() -> impl FnMut() {
    let states = [sparse_bench_crossbar(10.0), sparse_bench_crossbar(12.5)];
    let drive = vec![Voltage::from_volts(1.0); SPARSE_BENCH_SIZE];
    let rhs = [states[0].input_rhs(&drive).expect("arity matches")];
    let mut solver = Solver::default();
    solver
        .solve_batch(states[0].circuit(), &rhs)
        .expect("healthy array solves");
    let mut flip = 0usize;
    move || {
        // Alternate between the two programmed states so every repetition
        // performs a genuine value change, never an exact repeat.
        flip ^= 1;
        let solutions = solver
            .solve_batch(states[flip].circuit(), &rhs)
            .expect("healthy array solves");
        assert!(solutions[0].voltages().iter().all(|v| v.is_finite()));
    }
}

/// Runs the fixed benchmark suite.
///
/// `quick` lowers the repetition count (used by tests and the CI smoke
/// path); the committed baselines use the full count.
///
/// # Errors
///
/// Propagates simulation errors as strings (none occur for the fixed
/// configurations unless the model itself is broken).
pub fn run_suite(quick: bool) -> Result<BenchReport, String> {
    let runs = if quick { 3 } else { 9 };
    let mut entries = vec![
        bench_entry("dc_solve_16", runs, dc_solve_workload(16)),
        bench_entry("dc_solve_64", runs, dc_solve_workload(64)),
        bench_entry(
            "dc_solve_multi_serial",
            runs,
            dc_solve_multi_serial_workload(),
        ),
        bench_entry("dc_solve_batch", runs, dc_solve_batch_workload()),
        bench_entry(
            "dc_solve_sparse_cold",
            runs,
            dc_solve_sparse_cold_workload(),
        ),
        bench_entry(
            "dc_solve_sparse_refactor",
            runs,
            dc_solve_sparse_refactor_workload(),
        ),
    ];

    let mlp = Config::fully_connected_mlp(&[512, 256, 128]).map_err(|e| e.to_string())?;
    entries.push(bench_entry("simulate_mlp", runs, || {
        simulate(&mlp).expect("reference MLP simulates");
    }));

    // Serial vs parallel execution engine on the deepest paper network.
    let vgg = Config::vgg16_cnn();
    entries.push(bench_entry("simulate_serial", runs, || {
        for _ in 0..SIMULATE_BATCH {
            simulate(&vgg).expect("VGG-16 simulates");
        }
    }));
    // The same batch dispatched on the exec worker pool: the pool is spun
    // up once per repetition and the simulations are stolen chunk by
    // chunk, so the entry measures the engine's fan-out overhead against
    // real work (a single simulate is far below the profitable grain for
    // parallelism inside one run — batching is the level the engine earns
    // its keep at on this workload).
    let batch: Vec<usize> = (0..SIMULATE_BATCH).collect();
    entries.push(bench_entry("simulate_parallel", runs, || {
        let reports = exec::run_indices(&batch, PARALLEL_THREADS, &RunControl::new(), |_| {
            simulate(&vgg)
        })
        .into_result()
        .expect("VGG-16 simulates");
        assert_eq!(reports.len(), SIMULATE_BATCH);
    }));

    let fault_base = Config::fully_connected_mlp(&[64, 32]).map_err(|e| e.to_string())?;
    let fault_config = FaultConfig {
        rates: FaultRates::stuck_at(0.02),
        trials: if quick { 4 } else { 8 },
        ..FaultConfig::default()
    };
    let fault_sim = Simulator::new(fault_base).threads(1).faults(fault_config);
    entries.push(bench_entry("fault_mc", runs, || {
        fault_sim.run().expect("campaign runs");
    }));

    let dse_base = Config::fully_connected_mlp(&[256, 128]).map_err(|e| e.to_string())?;
    let space = DesignSpace {
        crossbar_sizes: vec![32, 64, 128],
        parallelism_degrees: vec![1, 16],
        interconnects: vec![InterconnectNode::N28, InterconnectNode::N45],
    };
    let dse_sim = Simulator::new(dse_base).threads(1);
    entries.push(bench_entry("dse_sweep", runs, || {
        dse_sim
            .explore(&space, &Constraints::default())
            .expect("sweep is feasible");
    }));

    Ok(BenchReport {
        schema: SCHEMA_VERSION,
        created_unix: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        machine: Machine::current(),
        entries,
    })
}

impl BenchReport {
    /// Serializes to the `BENCH_core.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": {},", self.schema);
        let _ = writeln!(out, "  \"created_unix\": {},", self.created_unix);
        out.push_str("  \"machine\": {\"os\": ");
        write_json_string(&mut out, &self.machine.os);
        out.push_str(", \"arch\": ");
        write_json_string(&mut out, &self.machine.arch);
        let _ = writeln!(out, ", \"cpus\": {}}},", self.machine.cpus);
        out.push_str("  \"entries\": [");
        for (i, entry) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"name\": ");
            write_json_string(&mut out, &entry.name);
            let _ = write!(out, ", \"runs\": {}", entry.runs);
            for (key, seconds) in [
                ("min_s", entry.min_s),
                ("median_s", entry.median_s),
                ("p95_s", entry.p95_s),
            ] {
                let _ = write!(out, ", \"{key}\": ");
                write_json_number(&mut out, seconds);
            }
            out.push_str(", ");
            for (key, stages) in [("stages", &entry.stages), ("stages_cpu", &entry.stages_cpu)]
            {
                let _ = write!(out, "\"{key}\": {{");
                for (j, (stage, &seconds)) in stages.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    write_json_string(&mut out, stage);
                    out.push_str(": ");
                    write_json_number(&mut out, seconds);
                }
                out.push('}');
                if key == "stages" {
                    out.push_str(", ");
                }
            }
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

fn field_f64(object: &JsonValue, key: &str, context: &str) -> Result<f64, String> {
    object
        .get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("{context}: missing numeric field {key:?}"))
}

/// Parses a `BENCH_*.json` document back into a [`BenchReport`].
///
/// # Errors
///
/// Returns a message naming the first malformed field.
pub fn parse_bench_json(input: &str) -> Result<BenchReport, String> {
    let root = parse_json(input)?;
    let schema = field_f64(&root, "schema", "report")? as u32;
    let created_unix = field_f64(&root, "created_unix", "report")? as u64;
    let machine = root.get("machine").ok_or("report: missing machine")?;
    let machine = Machine {
        os: machine
            .get("os")
            .and_then(JsonValue::as_str)
            .unwrap_or("unknown")
            .to_string(),
        arch: machine
            .get("arch")
            .and_then(JsonValue::as_str)
            .unwrap_or("unknown")
            .to_string(),
        cpus: machine.get("cpus").and_then(JsonValue::as_f64).unwrap_or(1.0) as usize,
    };
    let entries = root
        .get("entries")
        .and_then(JsonValue::as_array)
        .ok_or("report: missing entries array")?;
    let mut parsed = Vec::with_capacity(entries.len());
    for (i, entry) in entries.iter().enumerate() {
        let context = format!("entry {i}");
        let name = entry
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("{context}: missing name"))?
            .to_string();
        let stage_map = |key: &str| {
            let mut stages = BTreeMap::new();
            if let Some(JsonValue::Object(pairs)) = entry.get(key) {
                for (stage, value) in pairs {
                    if let Some(seconds) = value.as_f64() {
                        stages.insert(stage.clone(), seconds);
                    }
                }
            }
            stages
        };
        let median_s = field_f64(entry, "median_s", &context)?;
        parsed.push(BenchEntry {
            runs: field_f64(entry, "runs", &context)? as usize,
            // Absent before schema 3: fall back to the median, which
            // degrades the flaky-entry gate to the historical median gate.
            min_s: entry
                .get("min_s")
                .and_then(JsonValue::as_f64)
                .unwrap_or(median_s),
            median_s,
            p95_s: field_f64(entry, "p95_s", &context)?,
            name,
            stages: stage_map("stages"),
            // Absent in schema-1 documents; compare() only reads medians,
            // so old baselines parse to an empty CPU breakdown.
            stages_cpu: stage_map("stages_cpu"),
        });
    }
    Ok(BenchReport {
        schema,
        created_unix,
        machine,
        entries: parsed,
    })
}

/// Whether a baseline entry's tail spread marks it flaky — judged on the
/// *baseline* so the verdict is stable run-to-run.
fn is_flaky(base: &BenchEntry) -> bool {
    base.p95_s > FLAKY_P95_RATIO * base.median_s
}

/// The (baseline, current) statistic pair [`compare`] gates an entry on:
/// medians normally, minima when the baseline is flaky.
fn gate_stats(base: &BenchEntry, entry: &BenchEntry) -> (f64, f64) {
    if is_flaky(base) {
        (base.min_s, entry.min_s)
    } else {
        (base.median_s, entry.median_s)
    }
}

/// Diffs two reports: entries present in both whose current statistic
/// exceeds the baseline's by more than `threshold` (e.g. `0.15` = 15 %)
/// are returned, slowest-relative first.
///
/// The statistic is the median, except for entries whose baseline p95
/// exceeds [`FLAKY_P95_RATIO`] × median: those are gated on `min_s`,
/// because a tail that wide means the median itself is dominated by
/// scheduler interference — which only ever adds time, so the minimum is
/// the one order statistic it cannot inflate.
pub fn compare(baseline: &BenchReport, current: &BenchReport, threshold: f64) -> Vec<Regression> {
    let baseline_by_name: BTreeMap<&str, &BenchEntry> = baseline
        .entries
        .iter()
        .map(|e| (e.name.as_str(), e))
        .collect();
    let mut regressions = Vec::new();
    for entry in &current.entries {
        let Some(base) = baseline_by_name.get(entry.name.as_str()) else {
            continue;
        };
        let (base_s, current_s) = gate_stats(base, entry);
        if base_s <= 0.0 {
            continue;
        }
        let ratio = current_s / base_s;
        if ratio > 1.0 + threshold {
            regressions.push(Regression {
                name: entry.name.clone(),
                baseline_s: base_s,
                current_s,
                ratio,
            });
        }
    }
    regressions.sort_by(|a, b| b.ratio.total_cmp(&a.ratio));
    regressions
}

/// Renders a comparison as a human-readable table (all entries, flagged
/// ones marked).
pub fn comparison_table(
    baseline: &BenchReport,
    current: &BenchReport,
    threshold: f64,
) -> String {
    let baseline_by_name: BTreeMap<&str, &BenchEntry> = baseline
        .entries
        .iter()
        .map(|e| (e.name.as_str(), e))
        .collect();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:>12} {:>12} {:>8}",
        "benchmark", "base med s", "curr med s", "ratio"
    );
    for entry in &current.entries {
        match baseline_by_name.get(entry.name.as_str()) {
            Some(base) if base.median_s > 0.0 => {
                let (base_s, current_s) = gate_stats(base, entry);
                let ratio = current_s / base_s;
                let flaky = if is_flaky(base) { "  [flaky: min-gated]" } else { "" };
                let flag = if ratio > 1.0 + threshold { "  << REGRESSION" } else { "" };
                let _ = writeln!(
                    out,
                    "{:<16} {:>12.6} {:>12.6} {:>8.3}{}{}",
                    entry.name, base_s, current_s, ratio, flag, flaky
                );
            }
            _ => {
                let _ = writeln!(
                    out,
                    "{:<16} {:>12} {:>12.6} {:>8}",
                    entry.name, "-", entry.median_s, "new"
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(medians: &[(&str, f64)]) -> BenchReport {
        BenchReport {
            schema: SCHEMA_VERSION,
            created_unix: 0,
            machine: Machine {
                os: "linux".into(),
                arch: "x86_64".into(),
                cpus: 4,
            },
            entries: medians
                .iter()
                .map(|&(name, median)| BenchEntry {
                    name: name.to_string(),
                    runs: 5,
                    // p95 at 1.2× keeps synthetic entries non-flaky, so
                    // compare() exercises the median gate by default.
                    min_s: median * 0.95,
                    median_s: median,
                    p95_s: median * 1.2,
                    stages: BTreeMap::from([("run".to_string(), median * 0.9)]),
                    stages_cpu: BTreeMap::from([("run".to_string(), median * 0.9)]),
                })
                .collect(),
        }
    }

    #[test]
    fn json_round_trips() {
        let report = report_with(&[("a", 0.5), ("b", 1.25)]);
        let parsed = parse_bench_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn non_finite_times_serialize_as_valid_json() {
        let mut report = report_with(&[("a", 0.5)]);
        report.entries[0].median_s = f64::NAN;
        report.entries[0].stages.insert("run".into(), f64::INFINITY);
        let json = report.to_json();
        mnsim_obs::validate_json(&json).unwrap();
        assert!(json.contains("\"median_s\": null"), "{json}");
        assert!(parse_bench_json(&json).is_err());
    }

    #[test]
    fn compare_flags_regressions_over_threshold() {
        let base = report_with(&[("a", 1.0), ("b", 1.0), ("c", 1.0)]);
        let current = report_with(&[("a", 1.10), ("b", 1.30), ("d", 5.0)]);
        let regressions = compare(&base, &current, 0.15);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].name, "b");
        assert!((regressions[0].ratio - 1.30).abs() < 1e-12);
        // Within threshold and unmatched entries are not flagged.
        assert!(compare(&base, &base, 0.15).is_empty());
        let table = comparison_table(&base, &current, 0.15);
        assert!(table.contains("REGRESSION"));
        assert!(table.contains("new"));
    }

    #[test]
    fn flaky_entries_are_gated_on_min_not_median() {
        // Baseline shaped like the committed fault_mc entry: p95/median
        // ≈ 3.6× marks it flaky, so the gate moves to min_s.
        let mut base = report_with(&[("fault_mc", 0.030)]);
        base.entries[0].p95_s = 0.110;
        base.entries[0].min_s = 0.020;

        // Median jumps 50 % (would trip the 15 % median gate) but the
        // minimum barely moves: scheduler noise, not a regression.
        let mut noisy = report_with(&[("fault_mc", 0.045)]);
        noisy.entries[0].min_s = 0.021;
        assert!(compare(&base, &noisy, 0.15).is_empty());

        // A genuinely slower minimum is still caught, and the flagged
        // statistic pair is the minima.
        let mut slow = report_with(&[("fault_mc", 0.045)]);
        slow.entries[0].min_s = 0.040;
        let regressions = compare(&base, &slow, 0.15);
        assert_eq!(regressions.len(), 1);
        assert!((regressions[0].baseline_s - 0.020).abs() < 1e-12);
        assert!((regressions[0].current_s - 0.040).abs() < 1e-12);
        assert!((regressions[0].ratio - 2.0).abs() < 1e-12);

        // The table marks the entry so the gate switch is visible.
        let table = comparison_table(&base, &noisy, 0.15);
        assert!(table.contains("[flaky: min-gated]"), "{table}");
        assert!(!table.contains("REGRESSION"), "{table}");

        // A schema-2 baseline (no min_s) degrades to the median gate even
        // for flaky entries: min_s parses back as the median.
        let legacy = base.to_json().replace("\"min_s\": 0.02, ", "");
        let parsed = parse_bench_json(&legacy).unwrap();
        assert_eq!(parsed.entries[0].min_s, parsed.entries[0].median_s);
    }

    #[test]
    fn sample_quantile_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(sample_quantile(&sorted, 0.5), 2.0);
        assert_eq!(sample_quantile(&sorted, 0.95), 4.0);
        assert_eq!(sample_quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn quick_suite_produces_entries_with_stages() {
        let report = run_suite(true).unwrap();
        assert!(report.entries.len() >= 6, "{}", report.entries.len());
        for entry in &report.entries {
            assert!(entry.median_s > 0.0, "{} has no timing", entry.name);
            assert!(entry.min_s > 0.0 && entry.min_s <= entry.median_s);
            assert!(entry.p95_s >= entry.median_s);
            assert!(!entry.stages.is_empty(), "{} has no stages", entry.name);
            // Wall (lane-merged) never exceeds CPU (summed) at any level.
            for (level, &wall) in &entry.stages {
                let cpu = entry.stages_cpu.get(level).copied().unwrap_or(0.0);
                assert!(
                    wall <= cpu + 1e-12,
                    "{}: level {level} wall {wall} > cpu {cpu}",
                    entry.name
                );
            }
        }
        // The batched multi-RHS path must beat solving the same inputs
        // serially by at least 2×: one factorization per repetition versus
        // one per input leaves a wide margin over timing noise.
        let median_of = |name: &str| {
            report
                .entries
                .iter()
                .find(|e| e.name == name)
                .unwrap_or_else(|| panic!("missing entry {name}"))
                .median_s
        };
        let serial = median_of("dc_solve_multi_serial");
        let batch = median_of("dc_solve_batch");
        assert!(
            batch * 2.0 <= serial,
            "batched multi-RHS solve is only {:.2}x faster than serial",
            serial / batch
        );
        // A refactor repetition skips the symbolic analysis that a cold one
        // runs: the whole justification for the refactor fast path. Exact
        // counts from one metrics session assert it; a wall-clock ratio
        // sits near its 2× bar under the parallel test runner.
        let session = mnsim_obs::session();
        let work_of = |repetition: &mut dyn FnMut()| {
            let counts = || {
                let snap = session.snapshot();
                [
                    "solver.klu.analyses",
                    "solver.klu.factors",
                    "solver.klu.refactor",
                ]
                .map(|name| snap.counter(name))
            };
            let before = counts();
            repetition();
            let after = counts();
            [0, 1, 2].map(|k| after[k] - before[k])
        };
        let mut sparse_cold = dc_solve_sparse_cold_workload();
        let mut sparse_refactor = dc_solve_sparse_refactor_workload();
        for _ in 0..3 {
            assert_eq!(
                work_of(&mut sparse_cold),
                [1, 1, 0],
                "a cold repetition's analyses, factors and refactors"
            );
            assert_eq!(
                work_of(&mut sparse_refactor),
                [0, 0, 1],
                "a refactor repetition's analyses, factors and refactors"
            );
        }
        drop(session);
        // The exec engine must turn hardware parallelism into wall-clock
        // speedup on the VGG-16 batch. A wall-clock multiple is only
        // attainable when the cores exist, so the bar is gated on the
        // machine (CI containers are routinely single-core).
        let sim_serial = median_of("simulate_serial");
        let sim_parallel = median_of("simulate_parallel");
        if report.machine.cpus >= PARALLEL_THREADS {
            assert!(
                sim_parallel * 2.0 <= sim_serial,
                "parallel VGG-16 batch is only {:.2}x faster than serial at {} threads",
                sim_serial / sim_parallel,
                PARALLEL_THREADS
            );
        } else {
            // Single-core fallback: the engine may not win, but it must
            // not collapse (worst observed pool overhead is well under 2x).
            assert!(
                sim_parallel <= sim_serial * 2.0,
                "parallel VGG-16 batch pathologically slow on {} cpu(s): {:.2}x serial",
                report.machine.cpus,
                sim_parallel / sim_serial
            );
        }
        // On a machine with the cores, the parallel entry's summed CPU
        // stage time strictly exceeds its merged wall time — overlapping
        // worker lanes are the whole point of the split breakdown.
        if report.machine.cpus >= PARALLEL_THREADS {
            let par = report
                .entries
                .iter()
                .find(|e| e.name == "simulate_parallel")
                .unwrap();
            let wall_total: f64 = par.stages.values().sum();
            let cpu_total: f64 = par.stages_cpu.values().sum();
            assert!(
                cpu_total > wall_total,
                "simulate_parallel: cpu {cpu_total} !> wall {wall_total}"
            );
        }
        // The simulate entry sees the paper hierarchy in its breakdown.
        let sim = report
            .entries
            .iter()
            .find(|e| e.name == "simulate_mlp")
            .unwrap();
        for level in ["run", "layer", "bank", "unit"] {
            assert!(sim.stages.contains_key(level), "missing level {level}");
        }
        // And the document round-trips.
        let parsed = parse_bench_json(&report.to_json()).unwrap();
        assert_eq!(parsed.entries.len(), report.entries.len());
    }
}
