//! Results files of `mnsim-perf run`, and the `compare` verdicts against
//! the bounds in `BENCHMARK.json`.

use std::fmt::Write as _;

use mnsim_obs::{parse_json, JsonValue};

use crate::stats;

/// Results-file schema version.
pub const SCHEMA: u64 = 1;

/// One workload run, as printed on the last line of its output.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// `true` when no operation failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// `(name, value, unit)` of every metric, in output order.
    pub metrics: Vec<(String, f64, String)>,
}

impl Run {
    /// Parses a result line (`{"correct", "attempted", "failed", "metrics"}`).
    ///
    /// # Errors
    ///
    /// Malformed JSON or a missing field.
    pub fn parse(line: &str) -> Result<Run, String> {
        Run::from_json(&parse_json(line.trim())?)
    }

    fn from_json(value: &JsonValue) -> Result<Run, String> {
        let metrics = value
            .get("metrics")
            .and_then(JsonValue::as_object)
            .ok_or("result without `metrics`")?
            .iter()
            .map(|(name, metric)| {
                let number = metric.get("value").and_then(JsonValue::as_f64);
                let unit = metric.get("unit").and_then(JsonValue::as_str);
                match (number, unit) {
                    (Some(number), Some(unit)) => Ok((name.clone(), number, unit.to_string())),
                    _ => Err(format!("metric {name} needs `value` and `unit`")),
                }
            })
            .collect::<Result<_, String>>()?;
        Ok(Run {
            correct: value
                .get("correct")
                .and_then(JsonValue::as_bool)
                .ok_or("result without `correct`")?,
            attempted: value
                .get("attempted")
                .and_then(JsonValue::as_u64)
                .ok_or("result without `attempted`")?,
            failed: value
                .get("failed")
                .and_then(JsonValue::as_u64)
                .ok_or("result without `failed`")?,
            metrics,
        })
    }

    /// The one-line JSON form; a non-finite value is written as 0 (JSON
    /// has no NaN).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }

    /// The value of metric `name`, if this run reported it.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }
}

/// All runs of one workload in a results file.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadRuns {
    /// Workload name.
    pub name: String,
    /// End-to-end runs (`--trace 0`).
    pub runs: Vec<Run>,
    /// Traced runs (`--trace 1`).
    pub traced: Vec<Run>,
}

/// A results file: one set of runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Results {
    /// Input seed of every run.
    pub seed: u64,
    /// `--seconds` of every run.
    pub seconds: f64,
    /// Tiny inputs.
    pub quick: bool,
    /// Worker threads per operation.
    pub threads: usize,
    /// Per-workload runs, in run order.
    pub workloads: Vec<WorkloadRuns>,
}

fn runs_json(runs: &[Run]) -> String {
    let items: Vec<String> = runs.iter().map(Run::to_json).collect();
    format!("[{}]", items.join(",\n      "))
}

impl Results {
    /// Serializes the file.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"schema\": {SCHEMA},\n  \"seed\": {},\n  \"seconds\": {:?},\n  \"quick\": {},\n  \
             \"threads\": {},\n  \"workloads\": [",
            self.seed, self.seconds, self.quick, self.threads
        );
        for (i, w) in self.workloads.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"name\": \"{}\",\n     \"runs\": {},\n     \"traced\": {}}}",
                w.name,
                runs_json(&w.runs),
                runs_json(&w.traced)
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parses a results file.
    ///
    /// # Errors
    ///
    /// Malformed JSON, a wrong schema, or a missing field.
    pub fn parse(text: &str) -> Result<Results, String> {
        let value = parse_json(text)?;
        if value.get("schema").and_then(JsonValue::as_u64) != Some(SCHEMA) {
            return Err(format!("not a schema-{SCHEMA} results file"));
        }
        let number = |key: &str| {
            value
                .get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("results without `{key}`"))
        };
        let runs = |w: &JsonValue, key: &str| -> Result<Vec<Run>, String> {
            w.get(key)
                .and_then(JsonValue::as_array)
                .ok_or_else(|| format!("workload without `{key}`"))?
                .iter()
                .map(Run::from_json)
                .collect()
        };
        let workloads = value
            .get("workloads")
            .and_then(JsonValue::as_array)
            .ok_or("results without `workloads`")?
            .iter()
            .map(|w| {
                Ok(WorkloadRuns {
                    name: w
                        .get("name")
                        .and_then(JsonValue::as_str)
                        .ok_or("workload without `name`")?
                        .to_string(),
                    runs: runs(w, "runs")?,
                    traced: runs(w, "traced")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Results {
            seed: value
                .get("seed")
                .and_then(JsonValue::as_u64)
                .ok_or("results without `seed`")?,
            seconds: number("seconds")?,
            quick: value
                .get("quick")
                .and_then(JsonValue::as_bool)
                .unwrap_or(false),
            threads: number("threads")? as usize,
            workloads,
        })
    }
}

/// One end-to-end metric declared in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `true` when lower is better.
    pub lower_is_better: bool,
    /// Share of the baseline median the metric may worsen by.
    pub bound: f64,
    /// When set, `compare` judges the metric by this absolute worsening,
    /// in its unit, instead of by `bound`.
    pub abs_bound: Option<f64>,
}

/// Absolute bound `compare` applies to `setup_s`, in seconds. Set-up is
/// milliseconds in size and the session server's accept loop polls every
/// 25 ms, so a share of it says little; `BENCHMARK.json` carries only
/// relative bounds, so this one lives here.
pub const SETUP_ABS_BOUND_S: f64 = 0.05;

/// Reads the `end_to_end` declarations of a `BENCHMARK.json`.
///
/// # Errors
///
/// Malformed JSON or a malformed declaration.
pub fn declared_end_to_end(benchmark_json: &str) -> Result<Vec<Declared>, String> {
    let value = parse_json(benchmark_json)?;
    value
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json without `end_to_end`")?
        .iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key)
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("end_to_end entry without `{key}`"))
            };
            let name = text("name")?;
            Ok(Declared {
                abs_bound: (name == "setup_s").then_some(SETUP_ABS_BOUND_S),
                name,
                unit: text("unit")?,
                lower_is_better: text("better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(JsonValue::as_f64)
                    .ok_or("end_to_end entry without `bound`")?,
            })
        })
        .collect()
}

/// The verdict on one workload × metric pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Same,
    /// Better by more than the bound.
    Better,
    /// Worse by more than the bound.
    Regression,
    /// The quartile spread of either side exceeds the bound and the
    /// sides do not separate completely.
    Unresolved,
    /// A side has no sample of the metric; `compare` counts it as a
    /// regression.
    Missing,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

/// Judges `other` against `base` for one metric: the change of the median
/// and the wider interquartile distance of the two sides, both as a share
/// of the base median, against `bound` (or both in the metric's unit
/// against `abs_bound`, when set).
pub fn verdict(metric: &Declared, base: &[f64], other: &[f64]) -> Verdict {
    if base.is_empty() || other.is_empty() {
        return Verdict::Missing;
    }
    let [b1, base_median, b3] = stats::quartiles(base);
    let [o1, other_median, o3] = stats::quartiles(other);
    let (bound, scale) = match metric.abs_bound {
        Some(abs) => (abs, 1.0),
        None => (metric.bound, base_median.abs()),
    };
    let sign = if metric.lower_is_better { 1.0 } else { -1.0 };
    let worse = sign * (other_median - base_median) / scale;
    let spread = (b3 - b1).max(o3 - o1) / scale;
    let all_better = other
        .iter()
        .all(|&o| base.iter().all(|&b| sign * (o - b) < 0.0));
    if spread > bound && !all_better {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regression
    } else if worse < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn summary(values: &[f64]) -> String {
    let [q1, med, q3] = stats::quartiles(values);
    format!("{med:>12.5} [{q1:.5}, {q3:.5}] n={}", values.len())
}

/// Compares `other` against `base` for every workload of `base` and every
/// declared end-to-end metric; returns the printed table and whether
/// `other` regressed: a pair got worse or has no samples, a workload of
/// `base` is absent from `other`, or a run of `other` failed an operation.
pub fn compare(declared: &[Declared], base: &Results, other: &Results) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    for ours in &base.workloads {
        let Some(theirs) = other.workloads.iter().find(|w| w.name == ours.name) else {
            regressed = true;
            let _ = writeln!(out, "{:<18} missing from the other results", ours.name);
            continue;
        };
        let failed: u64 = theirs.runs.iter().map(|r| r.failed).sum();
        if failed > 0 || theirs.runs.iter().any(|r| !r.correct) {
            regressed = true;
            let _ = writeln!(out, "{:<18} {failed} failed operation(s)", theirs.name);
        }
        for metric in declared {
            let values = |w: &WorkloadRuns| -> Vec<f64> {
                w.runs
                    .iter()
                    .filter_map(|r| r.value(&metric.name))
                    .collect()
            };
            let (a, b) = (values(ours), values(theirs));
            let v = verdict(metric, &a, &b);
            regressed |= matches!(v, Verdict::Regression | Verdict::Missing);
            let change = if a.is_empty() || b.is_empty() {
                f64::NAN
            } else {
                (stats::median(&b) / stats::median(&a) - 1.0) * 100.0
            };
            let bound = match metric.abs_bound {
                Some(abs) => format!("+{abs} {}", metric.unit),
                None => format!("{:.0} %", metric.bound * 100.0),
            };
            let _ = writeln!(
                out,
                "{:<18} {:<12} {:<5} {}  vs {}  {change:+7.2} %  bound {bound}  {}",
                theirs.name,
                metric.name,
                metric.unit,
                summary(&a),
                summary(&b),
                v.label()
            );
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(value: f64) -> Run {
        Run {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![
                ("op_ms".into(), value, "ms".into()),
                ("items_per_s".into(), 1000.0 / value, "1/s".into()),
            ],
        }
    }

    #[test]
    fn results_round_trip() {
        let results = Results {
            seed: 20_160_318,
            seconds: 20.0,
            quick: false,
            threads: 2,
            workloads: vec![WorkloadRuns {
                name: "dse_sweep".into(),
                runs: vec![run(18.25), run(0.1 + 0.2)],
                traced: vec![],
            }],
        };
        let parsed = Results::parse(&results.to_json()).unwrap();
        assert_eq!(parsed, results);
        let line = parsed.workloads[0].runs[1].to_json();
        assert_eq!(Run::parse(&line).unwrap(), run(0.1 + 0.2));
    }

    #[test]
    fn verdicts_follow_the_bound_and_direction() {
        let lower = Declared {
            name: "op_ms".into(),
            unit: "ms".into(),
            lower_is_better: true,
            bound: 0.10,
            abs_bound: None,
        };
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(verdict(&lower, &base, &[10.3, 10.4, 10.2]), Verdict::Same);
        assert_eq!(
            verdict(&lower, &base, &[11.5, 11.6, 11.4]),
            Verdict::Regression
        );
        assert_eq!(verdict(&lower, &base, &[8.0, 8.1, 7.9]), Verdict::Better);
        assert_eq!(
            verdict(&lower, &base, &[6.0, 14.0, 10.0, 7.0, 13.0]),
            Verdict::Unresolved
        );
        assert_eq!(verdict(&lower, &base, &[]), Verdict::Missing);
        let higher = Declared {
            lower_is_better: false,
            ..lower
        };
        assert_eq!(
            verdict(&higher, &base, &[8.0, 8.1, 7.9]),
            Verdict::Regression
        );
    }

    #[test]
    fn setup_is_judged_by_its_absolute_bound() {
        let declared = declared_end_to_end(
            r#"{"end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.25}]}"#,
        )
        .unwrap();
        let setup = &declared[0];
        assert_eq!(setup.abs_bound, Some(SETUP_ABS_BOUND_S));
        // Doubling a 2 ms set-up stays within +0.05 s; +60 ms does not.
        let base = [0.002, 0.0021, 0.0019];
        assert_eq!(
            verdict(setup, &base, &[0.004, 0.0041, 0.0039]),
            Verdict::Same
        );
        assert_eq!(
            verdict(setup, &base, &[0.062, 0.0621, 0.0619]),
            Verdict::Regression
        );
    }

    #[test]
    fn compare_flags_regressions_and_failures() {
        let declared = declared_end_to_end(
            r#"{"end_to_end":[{"name":"op_ms","unit":"ms","better":"lower","bound":0.1}]}"#,
        )
        .unwrap();
        let set = |values: &[f64], failed: u64| Results {
            seed: 1,
            seconds: 1.0,
            quick: true,
            threads: 2,
            workloads: vec![WorkloadRuns {
                name: "w".into(),
                runs: values.iter().map(|&v| Run { failed, ..run(v) }).collect(),
                traced: vec![],
            }],
        };
        let base = set(&[10.0, 10.0, 10.1], 0);
        assert!(!compare(&declared, &base, &set(&[10.0, 10.05, 10.1], 0)).1);
        assert!(compare(&declared, &base, &set(&[12.0, 12.0, 12.1], 0)).1);
        assert!(compare(&declared, &base, &set(&[10.0, 10.0, 10.1], 1)).1);
        // A workload whose runs all crashed (no result lines) ...
        assert!(compare(&declared, &base, &set(&[], 0)).1);
        // ... or that the other file lacks altogether.
        let absent = Results {
            workloads: vec![],
            ..base.clone()
        };
        let (table, regressed) = compare(&declared, &base, &absent);
        assert!(regressed && table.contains("missing"), "{table}");
    }
}
