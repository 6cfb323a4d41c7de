//! Point-in-time metric snapshots with hand-rolled JSON and CSV export
//! (the workspace is offline, so no `serde`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{write_json_number, write_json_string};

/// One histogram bucket: `count` observations at or below `le`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketCount {
    /// Upper edge of the bucket (`+inf` for the overflow bucket).
    pub le: f64,
    /// Observations in the bucket.
    pub count: u64,
}

/// Aggregated view of one histogram or span.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Unit of the recorded values (`"seconds"` for spans, empty for plain
    /// histograms).
    pub unit: String,
    /// Total observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Non-empty buckets in increasing edge order.
    pub buckets: Vec<BucketCount>,
}

impl HistogramSnapshot {
    /// Mean observation (0.0 for an empty histogram).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`q ∈ [0, 1]`), 0.0 for an empty histogram.
    ///
    /// Interpolation contract (pinned by test): the continuous target rank
    /// is `q · count`; the answer lands in the first bucket whose
    /// cumulative count reaches that rank, linearly interpolated between
    /// the bucket's lower and upper edge by the fractional position of the
    /// rank inside the bucket, then clamped to the observed `[min, max]`.
    /// The first data bucket's lower edge and the overflow bucket's upper
    /// edge are taken from `min`/`max`, so single-bucket histograms answer
    /// exactly within the observed range.
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cumulative = 0u64;
        let mut previous_edge: Option<f64> = None;
        for bucket in &self.buckets {
            let next = cumulative + bucket.count;
            if bucket.count > 0 && next as f64 >= target {
                let hi = if bucket.le.is_finite() {
                    bucket.le
                } else {
                    self.max
                };
                // Power-of-two buckets: the lower edge is half the upper,
                // except the first data bucket which starts at `min`.
                let lo = match previous_edge {
                    _ if cumulative == 0 => self.min,
                    Some(edge) => edge,
                    None => self.min,
                };
                let fraction = (target - cumulative as f64) / bucket.count as f64;
                return (lo + fraction * (hi - lo)).clamp(self.min, self.max);
            }
            cumulative = next;
            previous_edge = Some(bucket.le);
        }
        self.max
    }

    /// Median estimate (see [`Self::quantile`]).
    pub(crate) fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate (see [`Self::quantile`]).
    pub(crate) fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate (see [`Self::quantile`]).
    pub(crate) fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// Everything the registry knew at snapshot time, exportable as JSON or
/// CSV.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms and spans by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Convenience counter lookup (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Serializes to a self-contained JSON document.
    ///
    /// Non-finite numbers are encoded as `null` (JSON has no `inf`/`nan`),
    /// which only occurs for the overflow bucket edge.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        write_map(&mut out, self.counters.iter(), |out, v| {
            let _ = write!(out, "{v}");
        });
        out.push_str("},\n  \"gauges\": {");
        write_map(&mut out, self.gauges.iter(), |out, v| {
            write_json_number(out, *v);
        });
        out.push_str("},\n  \"histograms\": {");
        write_map(&mut out, self.histograms.iter(), |out, hist| {
            let _ = write!(out, "{{\"unit\": ");
            write_json_string(out, &hist.unit);
            let _ = write!(out, ", \"count\": {}, \"sum\": ", hist.count);
            write_json_number(out, hist.sum);
            out.push_str(", \"min\": ");
            write_json_number(out, hist.min);
            out.push_str(", \"max\": ");
            write_json_number(out, hist.max);
            out.push_str(", \"mean\": ");
            write_json_number(out, hist.mean());
            out.push_str(", \"p50\": ");
            write_json_number(out, hist.p50());
            out.push_str(", \"p95\": ");
            write_json_number(out, hist.p95());
            out.push_str(", \"p99\": ");
            write_json_number(out, hist.p99());
            out.push_str(", \"buckets\": [");
            for (i, bucket) in hist.buckets.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str("{\"le\": ");
                write_json_number(out, bucket.le);
                let _ = write!(out, ", \"count\": {}}}", bucket.count);
            }
            out.push_str("]}");
        });
        out.push_str("}\n}\n");
        out
    }

    /// Serializes to CSV: one row per metric with the header
    /// `kind,name,unit,count,sum,min,max,mean,p50,p95,p99`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,unit,count,sum,min,max,mean,p50,p95,p99\n");
        for (name, value) in &self.counters {
            let _ = writeln!(out, "counter,{name},,{value},,,,,,,");
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "gauge,{name},,,{value},,,,,,");
        }
        for (name, hist) in &self.histograms {
            let _ = writeln!(
                out,
                "histogram,{name},{},{},{},{},{},{},{},{},{}",
                hist.unit,
                hist.count,
                hist.sum,
                hist.min,
                hist.max,
                hist.mean(),
                hist.p50(),
                hist.p95(),
                hist.p99()
            );
        }
        out
    }
}

/// Writes `"key": <value>` pairs with comma separation.
fn write_map<'a, V: 'a>(
    out: &mut String,
    entries: impl Iterator<Item = (&'a String, &'a V)>,
    mut write_value: impl FnMut(&mut String, &V),
) {
    let mut first = true;
    for (key, value) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n    ");
        write_json_string(out, key);
        out.push_str(": ");
        write_value(out, value);
    }
    if !first {
        out.push_str("\n  ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate_json;

    fn sample() -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("a.count".into(), 42);
        snap.gauges.insert("b.rate".into(), 1234.5);
        snap.histograms.insert(
            "c.time".into(),
            HistogramSnapshot {
                unit: "seconds".into(),
                count: 3,
                sum: 0.6,
                min: 0.1,
                max: 0.3,
                buckets: vec![
                    BucketCount { le: 0.25, count: 2 },
                    BucketCount {
                        le: f64::INFINITY,
                        count: 1,
                    },
                ],
            },
        );
        snap
    }

    #[test]
    fn json_is_valid_and_contains_metrics() {
        let json = sample().to_json();
        validate_json(&json).unwrap();
        assert!(json.contains("\"a.count\": 42"));
        assert!(json.contains("\"b.rate\": 1234.5"));
        assert!(json.contains("\"unit\": \"seconds\""));
        assert!(json.contains("\"le\": null")); // +inf encoded as null
    }

    #[test]
    fn empty_snapshot_is_valid_json() {
        let snap = MetricsSnapshot::default();
        validate_json(&snap.to_json()).unwrap();
    }

    #[test]
    fn csv_has_one_row_per_metric() {
        let csv = sample().to_csv();
        assert_eq!(csv.lines().count(), 4); // header + 3 metrics
        assert!(csv.starts_with("kind,name,unit,count,sum,min,max,mean,p50,p95,p99\n"));
        assert!(csv.contains("counter,a.count,,42"));
        assert!(csv.contains("histogram,c.time,seconds,3"));
        // Every row carries the same number of fields as the header.
        let columns = csv.lines().next().unwrap().split(',').count();
        for line in csv.lines().skip(1) {
            assert_eq!(line.split(',').count(), columns, "row {line:?}");
        }
    }

    #[test]
    fn json_exports_percentiles() {
        let json = sample().to_json();
        validate_json(&json).unwrap();
        for key in ["\"p50\": ", "\"p95\": ", "\"p99\": "] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    /// Pins the quantile interpolation contract documented on
    /// [`HistogramSnapshot::quantile`].
    #[test]
    fn quantile_interpolation_is_pinned() {
        // 10 observations: 4 in (min=1.0, le=2.0], 6 in (2.0, le=4.0],
        // max observed 3.5.
        let hist = HistogramSnapshot {
            unit: String::new(),
            count: 10,
            sum: 25.0,
            min: 1.0,
            max: 3.5,
            buckets: vec![
                BucketCount { le: 2.0, count: 4 },
                BucketCount { le: 4.0, count: 6 },
            ],
        };
        // p50: target rank 5.0 falls in the second bucket (cumulative 4
        // before it), fraction (5-4)/6 between edges [2.0, 4.0].
        let expected_p50 = 2.0 + (1.0 / 6.0) * 2.0;
        assert!((hist.p50() - expected_p50).abs() < 1e-12);
        // p25: target rank 2.5 in the first bucket, interpolated between
        // min=1.0 and le=2.0: 1.0 + (2.5/4)*1.0.
        assert!((hist.quantile(0.25) - 1.625).abs() < 1e-12);
        // p99: target rank 9.9 → fraction (9.9-4)/6 of [2.0, 4.0] would be
        // 3.9667, clamped to max=3.5.
        assert!((hist.p99() - 3.5).abs() < 1e-12);
        // Extremes clamp to the observed range.
        assert_eq!(hist.quantile(0.0), 1.0);
        assert_eq!(hist.quantile(1.0), 3.5);
        // Empty histogram answers 0.
        let empty = HistogramSnapshot {
            unit: String::new(),
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            buckets: vec![],
        };
        assert_eq!(empty.p95(), 0.0);
        // An overflow-bucket quantile interpolates toward `max`.
        let tail = HistogramSnapshot {
            unit: String::new(),
            count: 2,
            sum: 30.0,
            min: 10.0,
            max: 20.0,
            buckets: vec![
                BucketCount { le: 16.0, count: 1 },
                BucketCount {
                    le: f64::INFINITY,
                    count: 1,
                },
            ],
        };
        // p99: rank 1.98 in overflow bucket, edges [16.0, max=20.0],
        // fraction 0.98 → 19.92.
        assert!((tail.p99() - 19.92).abs() < 1e-9);
    }

    #[test]
    fn counter_lookup_defaults_to_zero() {
        assert_eq!(sample().counter("a.count"), 42);
        assert_eq!(sample().counter("missing"), 0);
    }
}
