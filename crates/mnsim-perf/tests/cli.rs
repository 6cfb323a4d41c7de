//! The `mnsim-perf` binary at tiny (`--quick`) sizes: every workload
//! emits exactly the metrics `BENCHMARK.json` declares, and `run` writes a
//! results file that `compare` accepts against itself.

use std::path::PathBuf;
use std::process::Command;

use mnsim_obs::{parse_json, JsonValue};

const WORKLOADS: [&str; 4] = [
    "table2_validation",
    "fault_campaign",
    "dse_sweep",
    "serve_mixed",
];

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(JsonValue::as_array)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |key| {
                m.get(key)
                    .and_then(JsonValue::as_str)
                    .expect("name and unit")
            };
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn perf(args: &[&str], dir: &PathBuf) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_mnsim-perf"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("mnsim-perf runs")
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    let dir = scratch_dir("declared");
    let sections = [("0", declared("end_to_end")), ("1", declared("per_layer"))];
    let declared_workloads: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(declared_workloads, WORKLOADS);
    for workload in WORKLOADS {
        for (trace, expected) in &sections {
            let args = [
                "--workload",
                workload,
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--quick",
            ];
            let output = perf(&args, &dir);
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                output.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&output.stderr)
            );
            let result = parse_json(stdout.lines().last().expect("a result line")).expect("JSON");
            assert_eq!(
                result.get("correct").and_then(JsonValue::as_bool),
                Some(true)
            );
            assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
            assert!(result.get("attempted").and_then(JsonValue::as_u64) >= Some(1));
            let emitted: Vec<(String, String)> = result
                .get("metrics")
                .and_then(JsonValue::as_object)
                .expect("metrics")
                .iter()
                .map(|(name, m)| {
                    assert!(
                        m.get("value").and_then(JsonValue::as_f64).is_some(),
                        "{name}"
                    );
                    let unit = m.get("unit").and_then(JsonValue::as_str).expect("unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(&emitted, expected, "{workload} --trace {trace}");
        }
    }
}

#[test]
fn run_writes_results_that_compare_accepts() {
    let dir = scratch_dir("run");
    let results = dir.join("results.json");
    let results = results.to_str().expect("utf-8 path");
    let run = perf(
        &[
            "run",
            "--quick",
            "--seconds",
            "1",
            "--workload",
            "dse_sweep",
            "--repeat",
            "2",
            "--out",
            results,
        ],
        &dir,
    );
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let bench = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let compare = perf(&["compare", "--bench", bench, results, results], &dir);
    let table = String::from_utf8_lossy(&compare.stdout);
    assert!(compare.status.success(), "{table}");
    for (name, _) in declared("end_to_end") {
        assert!(
            table.contains(&name),
            "compare table lacks {name}:\n{table}"
        );
    }
}

#[test]
fn malformed_invocations_exit_with_usage() {
    let dir = scratch_dir("usage");
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "dse_sweep", "--seed", "1", "--seconds", "1"],
        &[
            "--workload",
            "dse_sweep",
            "--seed",
            "1",
            "--seconds",
            "-1",
            "--trace",
            "0",
        ],
        &["compare", "only-one.json"],
    ] {
        let output = perf(args, &dir);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
