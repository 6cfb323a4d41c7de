//! Attribution over a collected trace: per-name span times and the share
//! of each benchmark operation that no program span covers.
//!
//! Benchmark spans are the ones this crate opens around its calls; their
//! names start with [`BENCH_PREFIX`]. Every other span was emitted by the
//! program itself.

use std::collections::{BTreeMap, BTreeSet};

use mnsim_obs::trace::{EventKind, Trace};

/// Name prefix of the spans the benchmark opens around its own calls.
pub const BENCH_PREFIX: &str = "perf.";

#[derive(Debug, Clone)]
struct Node {
    name: &'static str,
    parent: u64,
    lane: u64,
    start: u64,
    end: u64,
}

impl Node {
    fn seconds(&self) -> f64 {
        self.end.saturating_sub(self.start) as f64 * 1e-9
    }
}

/// The span tree of one trace, keyed by span id.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    nodes: BTreeMap<u64, Node>,
}

impl Spans {
    /// Reconstructs every span from its begin/end pair (a span still open
    /// at the end of the trace closes at the last timestamp).
    pub fn from_trace(trace: &Trace) -> Self {
        let last = trace.events.iter().map(|e| e.t_ns).max().unwrap_or(0);
        let mut nodes = BTreeMap::new();
        for event in &trace.events {
            match event.kind {
                EventKind::Begin => {
                    nodes.insert(
                        event.id,
                        Node {
                            name: event.name,
                            parent: event.parent,
                            lane: event.lane,
                            start: event.t_ns,
                            end: last,
                        },
                    );
                }
                EventKind::End => {
                    if let Some(node) = nodes.get_mut(&event.id) {
                        node.end = event.t_ns;
                    }
                }
                _ => {}
            }
        }
        Spans { nodes }
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (&'a u64, &'a Node)> + 'a {
        self.nodes.iter().filter(move |(_, n)| n.name == name)
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    /// Summed duration of the spans called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        plus_zero_sum(self.named(name).map(|(_, n)| n.seconds()))
    }

    /// Summed self time of the spans called `name`: each span's duration
    /// minus the union of its children's intervals, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for node in self.nodes.values() {
            children
                .entry(node.parent)
                .or_default()
                .push((node.start, node.end));
        }
        plus_zero_sum(self.named(name).map(|(id, node)| {
            let covered = children
                .get(id)
                .map_or(0, |kids| covered_ns((node.start, node.end), kids));
            node.end.saturating_sub(node.start).saturating_sub(covered) as f64 * 1e-9
        }))
    }

    /// For the benchmark spans called `op`: their summed duration and the
    /// summed part of it that no program span covers, in seconds. Spans
    /// named in `envelopes` wrap a whole operation and attribute nothing,
    /// so they do not count as cover.
    pub fn unattributed_s(&self, op: &str, envelopes: &[&str]) -> (f64, f64) {
        let program: Vec<(u64, u64)> = self
            .nodes
            .values()
            .filter(|n| !n.name.starts_with(BENCH_PREFIX) && !envelopes.contains(&n.name))
            .map(|n| (n.start, n.end))
            .collect();
        let mut total = 0.0;
        let mut outside = 0.0;
        for (_, node) in self.named(op) {
            let duration = node.end.saturating_sub(node.start);
            total += duration as f64 * 1e-9;
            outside +=
                duration.saturating_sub(covered_ns((node.start, node.end), &program)) as f64 * 1e-9;
        }
        (total, outside)
    }

    /// Idle share of the worker pools that ran spans called `chunk`. The
    /// chunks under one parent span form one pool: its capacity is its
    /// lanes times the interval from the first chunk's start to the last
    /// chunk's end, and whatever of that no chunk fills is idle (workers
    /// waiting for the slowest one). `None` when no chunk ran.
    pub fn pool_idle_frac(&self, chunk: &str) -> Option<f64> {
        // parent -> (lanes, first start, last end, summed chunk time)
        let mut pools: BTreeMap<u64, (BTreeSet<u64>, u64, u64, u64)> = BTreeMap::new();
        for (_, node) in self.named(chunk) {
            let pool = pools
                .entry(node.parent)
                .or_insert((BTreeSet::new(), u64::MAX, 0, 0));
            pool.0.insert(node.lane);
            pool.1 = pool.1.min(node.start);
            pool.2 = pool.2.max(node.end);
            pool.3 += node.end.saturating_sub(node.start);
        }
        let (mut capacity, mut busy) = (0, 0);
        for (lanes, start, end, chunks) in pools.values() {
            capacity += lanes.len() as u64 * end.saturating_sub(*start);
            busy += chunks;
        }
        (capacity > 0).then(|| capacity.saturating_sub(busy) as f64 / capacity as f64)
    }
}

/// Sum starting from +0.0 (`Iterator::sum` of nothing is -0.0, which would
/// print as `-0.0` for a layer the workload never enters).
fn plus_zero_sum(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(0.0, |total, v| total + v)
}

/// Length of the part of `span` covered by the union of `intervals`.
fn covered_ns(span: (u64, u64), intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(span.0), e.min(span.1)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = span.0;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnsim_obs::trace::{Event, Level};

    fn event(kind: EventKind, name: &'static str, id: u64, parent: u64, t_ns: u64) -> Event {
        Event {
            kind,
            name,
            index: -1,
            level: Level::Other,
            id,
            parent,
            lane: 0,
            t_ns,
            value: 0.0,
            value2: 0.0,
        }
    }

    #[test]
    fn self_time_and_unattributed_share() {
        use EventKind::{Begin, End};
        // perf.op [0, 100): envelope [0, 100), work A [10, 40) with child
        // B [20, 30), work C [35, 60) overlapping A.
        let trace = Trace {
            events: vec![
                event(Begin, "perf.op", 1, 0, 0),
                event(Begin, "envelope", 2, 1, 0),
                event(Begin, "a", 3, 2, 10),
                event(Begin, "b", 4, 3, 20),
                event(End, "b", 4, 3, 30),
                event(Begin, "c", 5, 2, 35),
                event(End, "a", 3, 2, 40),
                event(End, "c", 5, 2, 60),
                event(End, "envelope", 2, 1, 100),
                event(End, "perf.op", 1, 0, 100),
            ],
            dropped: 0,
        };
        let spans = Spans::from_trace(&trace);
        assert_eq!(spans.count("a"), 1);
        assert!((spans.total_s("a") - 30e-9).abs() < 1e-18);
        assert!((spans.self_s("a") - 20e-9).abs() < 1e-18);
        let (total, outside) = spans.unattributed_s("perf.op", &["envelope"]);
        assert!((total - 100e-9).abs() < 1e-18);
        // Covered: [10, 60) → 50 ns of 100 outside.
        assert!((outside - 50e-9).abs() < 1e-18);
    }

    #[test]
    fn pool_idle_share_counts_lanes_waiting_for_the_slowest_chunk() {
        use EventKind::{Begin, End};
        let on_lane = |lane, e: Event| Event { lane, ..e };
        // One pool under span 1: lane 0 busy [0, 100), lane 1 busy [0, 60).
        let trace = Trace {
            events: vec![
                event(Begin, "op", 1, 0, 0),
                on_lane(0, event(Begin, "chunk", 2, 1, 0)),
                on_lane(1, event(Begin, "chunk", 3, 1, 0)),
                on_lane(1, event(End, "chunk", 3, 1, 60)),
                on_lane(0, event(End, "chunk", 2, 1, 100)),
                event(End, "op", 1, 0, 100),
            ],
            dropped: 0,
        };
        let spans = Spans::from_trace(&trace);
        // Capacity 2 lanes × 100 ns, 160 ns busy.
        assert_eq!(spans.pool_idle_frac("chunk"), Some(0.2));
        assert_eq!(spans.pool_idle_frac("absent"), None);
    }
}
