//! Trace-subsystem integration tests: tree integrity under parallelism,
//! golden Chrome-trace export, and module-attribution consistency with
//! the performance report.
//!
//! Every test opens a [`mnsim::obs::trace::session`], which serializes
//! the tests on the global trace lock so no test records into another
//! test's sink.

use std::collections::{BTreeMap, BTreeSet};

use mnsim::core::config::Config;
use mnsim::core::fault_sim::FaultConfig;
use mnsim::core::simulate::simulate;
use mnsim::core::Simulator;
use mnsim::obs::trace::{self, EventKind};
use mnsim::obs::validate_chrome_trace;
use mnsim::tech::fault::FaultRates;

/// One reconstructed span with its same-lane child time, built by
/// replaying the per-lane begin/end stacks.
struct LaneSpan {
    lane: u64,
    total_ns: u64,
    same_lane_children_ns: u64,
    top_level: bool,
}

/// Replays `events` per lane and returns every closed span, its
/// duration, and how much of that duration was covered by *direct*
/// children opened on the same lane. Panics on malformed traces (an
/// `End` without a matching open `Begin` on its lane).
fn replay_lanes(events: &[trace::Event]) -> BTreeMap<u64, LaneSpan> {
    let mut stacks: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut begins: BTreeMap<u64, (u64, u64, bool)> = BTreeMap::new(); // id -> (lane, t, top)
    let mut child_time: BTreeMap<u64, u64> = BTreeMap::new();
    let mut spans: BTreeMap<u64, LaneSpan> = BTreeMap::new();
    for event in events {
        match event.kind {
            EventKind::Begin => {
                let stack = stacks.entry(event.lane).or_default();
                begins.insert(event.id, (event.lane, event.t_ns, stack.is_empty()));
                stack.push(event.id);
            }
            EventKind::End => {
                let (lane, begin_ns, top_level) = begins
                    .remove(&event.id)
                    .unwrap_or_else(|| panic!("end without begin: {}", event.label()));
                assert_eq!(lane, event.lane, "{} ended on a different lane", event.label());
                let stack = stacks.get_mut(&lane).expect("lane has a stack");
                assert_eq!(stack.pop(), Some(event.id), "per-lane LIFO discipline");
                let total_ns = event.t_ns - begin_ns;
                if let Some(&parent) = stack.last() {
                    *child_time.entry(parent).or_insert(0) += total_ns;
                }
                spans.insert(
                    event.id,
                    LaneSpan {
                        lane,
                        total_ns,
                        same_lane_children_ns: child_time.remove(&event.id).unwrap_or(0),
                        top_level,
                    },
                );
            }
            _ => {}
        }
    }
    assert!(begins.is_empty(), "every begin must be closed by an end");
    spans
}

fn assert_close(a: f64, b: f64, rel: f64, what: &str) {
    let scale = a.abs().max(b.abs()).max(f64::MIN_POSITIVE);
    assert!(
        (a - b).abs() <= rel * scale,
        "{what}: {a} vs {b} (rel err {})",
        (a - b).abs() / scale
    );
}

/// Satellite: trace-tree integrity under parallelism. For every thread
/// count the begin/end events must pair up, parents must temporally
/// enclose their children, and self-times must telescope: per lane, the
/// self-time of all spans sums to the run time of the lane's top-level
/// spans (exactly, in integer nanoseconds). In the serial case the
/// per-level self-time sum equals the root span duration.
#[test]
fn fault_campaign_trace_tree_is_well_formed_across_thread_counts() {
    let config = Config::fully_connected_mlp(&[64, 32]).unwrap();
    for threads in [1usize, 2, 7] {
        let fault_config = FaultConfig {
            rates: FaultRates::stuck_at(0.02),
            trials: 8,
            ..FaultConfig::default()
        };
        let session = trace::session();
        Simulator::new(config.clone())
            .threads(threads)
            .faults(fault_config.clone())
            .run()
            .unwrap();
        let collected = session.finish();
        assert_eq!(collected.dropped, 0, "threads={threads}: events dropped");

        // Begin/end pairing and per-lane stack discipline.
        let spans = replay_lanes(&collected.events);

        // Structural parenting: exactly `trials` trial spans, all
        // children of the single campaign root.
        let campaign: Vec<&trace::Event> = collected
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Begin && e.name == "fault.campaign")
            .collect();
        assert_eq!(campaign.len(), 1, "threads={threads}");
        let campaign_id = campaign[0].id;
        let trials: Vec<&trace::Event> = collected
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Begin && e.name == "fault.trial")
            .collect();
        assert_eq!(trials.len(), fault_config.trials, "threads={threads}");
        for trial in &trials {
            assert_eq!(trial.parent, campaign_id, "threads={threads}");
        }
        if threads > 1 {
            let lanes: BTreeSet<u64> = trials.iter().map(|e| e.lane).collect();
            assert!(lanes.len() > 1, "threads={threads}: trials share one lane");
        }

        // Temporal enclosure: a parent's interval contains each child's.
        let mut intervals: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for event in &collected.events {
            match event.kind {
                EventKind::Begin => {
                    intervals.insert(event.id, (event.t_ns, u64::MAX));
                }
                EventKind::End => {
                    if let Some(iv) = intervals.get_mut(&event.id) {
                        iv.1 = event.t_ns;
                    }
                }
                _ => {}
            }
        }
        for event in &collected.events {
            if event.kind != EventKind::Begin || event.parent == 0 {
                continue;
            }
            let child = intervals[&event.id];
            let parent = intervals[&event.parent];
            assert!(
                parent.0 <= child.0 && child.1 <= parent.1,
                "threads={threads}: {} not enclosed by its parent",
                event.label()
            );
        }

        // Per-lane telescoping: self-times sum exactly to the lane's
        // top-level run time.
        let mut lane_self: BTreeMap<u64, u64> = BTreeMap::new();
        let mut lane_top: BTreeMap<u64, u64> = BTreeMap::new();
        for span in spans.values() {
            *lane_self.entry(span.lane).or_insert(0) +=
                span.total_ns - span.same_lane_children_ns;
            if span.top_level {
                *lane_top.entry(span.lane).or_insert(0) += span.total_ns;
            }
        }
        assert_eq!(lane_self, lane_top, "threads={threads}: self-times must telescope");

        // Serial case: the per-level self-time aggregate equals the root
        // span duration (everything nests under the campaign span).
        if threads == 1 {
            let summary = collected.summary();
            let self_sum: u64 = summary.levels.values().map(|l| l.self_ns).sum();
            assert_eq!(self_sum, summary.root_ns, "per-level self-time vs root");
        }
    }
}

/// Blots out every `"ts":<number>` so only the timestamp payloads — the
/// single nondeterministic part of the export — are excluded from the
/// byte comparison.
fn scrub_timestamps(chrome: &str) -> String {
    let mut out = String::with_capacity(chrome.len());
    let mut rest = chrome;
    while let Some(pos) = rest.find("\"ts\":") {
        let after = pos + "\"ts\":".len();
        out.push_str(&rest[..after]);
        out.push('0');
        let tail = &rest[after..];
        let skip = tail
            .find(|c: char| !matches!(c, '0'..='9' | '.' | '-' | '+' | 'e' | 'E'))
            .unwrap_or(tail.len());
        rest = &tail[skip..];
    }
    out.push_str(rest);
    out
}

/// Satellite: golden Chrome-trace export. A tiny fixed simulation must
/// produce a byte-identical export (modulo timestamps) against the
/// checked-in fixture, and the export must pass the bundled validator
/// with at least four hierarchy levels. Regenerate the fixture with
/// `MNSIM_BLESS=1 cargo test --test trace`.
#[test]
fn golden_chrome_trace_export_is_byte_stable() {
    let config = Config::fully_connected_mlp(&[64, 32]).unwrap();
    let session = trace::session();
    simulate(&config).unwrap();
    let collected = session.finish();
    assert_eq!(collected.dropped, 0);

    let chrome = collected.to_chrome_json();
    validate_chrome_trace(&chrome).expect("export passes the Chrome-trace validator");

    // ≥ 4 hierarchy levels present in the export categories.
    for cat in ["run", "layer", "bank", "unit", "module"] {
        assert!(
            chrome.contains(&format!("\"cat\":\"{cat}\"")),
            "export misses hierarchy level {cat}"
        );
    }

    let scrubbed = scrub_timestamps(&chrome);
    let fixture_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/golden_trace.chrome.json"
    );
    if std::env::var_os("MNSIM_BLESS").is_some() {
        std::fs::write(fixture_path, &scrubbed).unwrap();
        return;
    }
    let fixture = std::fs::read_to_string(fixture_path)
        .expect("fixture missing; regenerate with MNSIM_BLESS=1 cargo test --test trace");
    assert_eq!(
        scrubbed, fixture,
        "Chrome-trace export changed; regenerate the fixture with \
         MNSIM_BLESS=1 cargo test --test trace if the change is intended"
    );
}

/// The per-module time attribution in the trace summary must agree with
/// the `ModulePerf` records the report is built from: the compute-unit
/// modules sum to the unit MVM latency and all modules together sum to
/// the bank cycle latencies.
#[test]
fn traced_simulate_module_times_match_module_perf() {
    let config = Config::fully_connected_mlp(&[128, 64, 32]).unwrap();
    let session = trace::session();
    let report = simulate(&config).unwrap();
    let collected = session.finish();
    let summary = collected.summary();

    // Every hierarchy level is populated (run → layer → bank → unit, plus
    // the pipeline stages).
    for level in ["run", "stage", "layer", "bank", "unit"] {
        assert!(
            summary.levels.contains_key(level),
            "summary misses level {level}: {:?}",
            summary.levels.keys().collect::<Vec<_>>()
        );
    }
    let banks = report.accelerator.banks.len();
    assert_eq!(summary.levels["bank"].spans, banks as u64);
    assert_eq!(summary.levels["layer"].spans, banks as u64);

    // Unit modules (DAC, crossbar, ADC, accumulator, digital) decompose
    // the unit MVM latency.
    let module_time = |name: &str| summary.modules.get(name).map_or(0.0, |m| m.time_s);
    let unit_modules = ["dac", "crossbar", "adc", "accumulator", "digital"];
    let unit_sum: f64 = unit_modules.iter().map(|m| module_time(m)).sum();
    let mvm_sum: f64 = report
        .accelerator
        .banks
        .iter()
        .map(|b| b.unit.mvm.latency.seconds())
        .sum();
    assert_close(unit_sum, mvm_sum, 1e-9, "unit modules vs MVM latency");

    // All modules together decompose the bank cycle latency.
    let all_sum: f64 = summary.modules.values().map(|m| m.time_s).sum();
    let cycle_sum: f64 = report
        .accelerator
        .banks
        .iter()
        .map(|b| b.cycle.latency.seconds())
        .sum();
    assert_close(all_sum, cycle_sum, 1e-9, "all modules vs cycle latency");

    // Module energies are recorded (some modules legitimately model zero
    // dynamic energy, so only the aggregate must be positive).
    let total_energy: f64 = summary.modules.values().map(|m| m.energy_j).sum();
    assert!(total_energy > 0.0, "no module energy recorded");
    for (name, module) in &summary.modules {
        assert!(module.energy_j >= 0.0, "module {name} has negative energy");
        assert_eq!(module.samples, banks as u64, "module {name} sample count");
    }

    // The span tree carries the run→layer→bank→unit path.
    let begins: BTreeMap<u64, &trace::Event> = collected
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Begin)
        .map(|e| (e.id, e))
        .collect();
    let path = |mut id: u64| {
        let mut labels = Vec::new();
        while let Some(event) = begins.get(&id) {
            labels.push(event.label());
            id = event.parent;
        }
        labels.reverse();
        labels.join(";")
    };
    assert!(
        begins
            .values()
            .any(|e| path(e.id) == "simulate;accelerator;layer[0];bank;unit"),
        "the span tree misses the run→layer→bank→unit path"
    );
}
