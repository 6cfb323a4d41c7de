//! Live-telemetry integration tests: the NDJSON event stream must parse,
//! match what the campaign actually did, and keep its determinism
//! contract — event *contents* (counts, totals) bit-stable across thread
//! counts, with only timestamps and rates varying.
//!
//! Every test holds the [`mnsim::obs::session`] lock before opening its
//! live session; the lock serializes the tests in this binary, so the
//! global telemetry hub is never shared between concurrently running
//! tests. The session keeps no copy of its stream: tests read the lines
//! through a [`LiveTap`], the way the session server does.

use mnsim::core::checkpoint::CheckpointPolicy;
use mnsim::core::config::Config;
use mnsim::core::error::CoreError;
use mnsim::core::fault_sim::FaultConfig;
use mnsim::core::simulator::Simulator;
use std::sync::{Arc, Mutex};

use mnsim::obs;
use mnsim::obs::live::{self, LiveConfig, LiveReport, LiveSession, LiveTap};
use mnsim::tech::fault::FaultRates;

/// A per-test scratch path under the system temp directory.
fn temp_path(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("mnsim_live_{}_{name}", std::process::id()))
        .to_string_lossy()
        .to_string()
}

/// Opens a live session whose every line is collected; `finish` ends it
/// and returns the report with the lines.
fn tapped_session(config: LiveConfig) -> (LiveSession, Arc<Mutex<Vec<String>>>) {
    let lines = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&lines);
    let tap = LiveTap::new(move |line| sink.lock().unwrap().push(line.to_string()));
    let live = live::session(config.with_tap(tap)).expect("live session opens");
    (live, lines)
}

fn finish(live: LiveSession, lines: Arc<Mutex<Vec<String>>>) -> (LiveReport, Vec<String>) {
    let report = live.finish();
    let lines = std::mem::take(&mut *lines.lock().unwrap());
    assert_eq!(report.events, lines.len() as u64, "the tap saw every line");
    (report, lines)
}

fn fault_config(trials: usize) -> FaultConfig {
    FaultConfig {
        rates: FaultRates::stuck_at(0.02),
        trials,
        seed: 7,
        ..FaultConfig::default()
    }
}

/// The deterministic skeleton of one NDJSON line: the event tag plus its
/// count/total fields, with timestamps, rates, ETAs, paths, and the
/// timing-gated `sample`/`deadline_approaching` lines stripped.
fn skeleton(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .map(|line| {
            obs::parse_json(line).unwrap_or_else(|e| panic!("unparseable line {line:?}: {e}"))
        })
        .filter_map(|value| {
            let event = value
                .get("event")
                .and_then(|v| v.as_str())
                .expect("every line tags its event")
                .to_string();
            let field = |key: &str| {
                value
                    .get(key)
                    .and_then(|v| v.as_u64())
                    .unwrap_or_else(|| panic!("{event} lacks integer {key}"))
            };
            match event.as_str() {
                "campaign_started" => Some(format!(
                    "started {} {} {}",
                    value.get("campaign").and_then(|v| v.as_str()).unwrap_or(""),
                    field("total"),
                    field("resumed"),
                )),
                "wave_completed" => Some(format!("wave {} {}", field("done"), field("total"))),
                "checkpoint_written" => Some(format!("checkpoint {}", field("completed"))),
                "campaign_finished" => Some(format!(
                    "finished {} {} {}",
                    field("done"),
                    field("total"),
                    value.get("outcome").and_then(|v| v.as_str()).unwrap_or(""),
                )),
                // Samples and deadline projections are timing-dependent
                // and explicitly outside the determinism contract.
                "sample" | "deadline_approaching" => None,
                other => panic!("unexpected event tag {other:?}"),
            }
        })
        .collect()
}

fn run_campaign(threads: usize, trials: usize) -> Vec<String> {
    let session = obs::session();
    let (live, lines) = tapped_session(LiveConfig::default());
    let config = Config::fully_connected_mlp(&[64, 32]).expect("valid config");
    Simulator::new(config)
        .threads(threads)
        .faults(fault_config(trials))
        .run()
        .expect("campaign completes");
    let (_, lines) = finish(live, lines);
    drop(session);
    lines
}

/// Acceptance: event counts and contents are bit-stable across
/// threads ∈ {1, 2, 7}; every line parses with [`obs::parse_json`]; the
/// stream carries ETA and items/s fields on every wave event.
#[test]
fn event_stream_is_deterministic_across_thread_counts() {
    let trials = 24;
    let baseline = run_campaign(1, trials);
    let base_skeleton = skeleton(&baseline);

    // 24 trials at the live grain of ceil(24/8)=3 → exactly 8 waves, with
    // cumulative done counts 3, 6, …, 24, framed by started/finished.
    let mut expected = vec![format!("started fault_mc {trials} 0")];
    expected.extend((1..=8).map(|wave| format!("wave {} {trials}", wave * 3)));
    expected.push(format!("finished {trials} {trials} complete"));
    assert_eq!(base_skeleton, expected);

    // Every wave line carries numeric ETA and throughput.
    for line in baseline.iter().filter(|l| l.contains("wave_completed")) {
        let value = obs::parse_json(line).expect("wave line parses");
        assert!(
            value.get("eta_s").and_then(|v| v.as_f64()).is_some(),
            "{line}"
        );
        assert!(
            value
                .get("items_per_s")
                .and_then(|v| v.as_f64())
                .is_some(),
            "{line}"
        );
    }

    for threads in [2, 7] {
        let lines = run_campaign(threads, trials);
        assert_eq!(
            skeleton(&lines),
            base_skeleton,
            "event contents diverge at {threads} threads"
        );
    }
}

/// Acceptance: an interrupted (deadline-0) run still flushes a final
/// `campaign_finished` event — to the file sink, not just the in-memory
/// report, because each line is flushed as it is written.
#[test]
fn deadline_zero_run_flushes_final_event_to_sink() {
    let sink = temp_path("deadline.ndjson");
    let session = obs::session();
    let live = live::session(LiveConfig::default().to_path(&sink)).expect("live session opens");
    let config = Config::fully_connected_mlp(&[64, 32]).expect("valid config");
    let err = Simulator::new(config)
        .threads(2)
        .faults(fault_config(8))
        .deadline_ms(0)
        .run()
        .expect_err("an expired deadline interrupts the campaign");
    assert!(matches!(err, CoreError::DeadlineExceeded { .. }), "{err}");
    // Read the sink *before* finish(): the stream must already be on disk.
    let on_disk = std::fs::read_to_string(&sink).expect("sink exists mid-session");
    drop(live);
    drop(session);
    let _ = std::fs::remove_file(&sink);

    let lines: Vec<&str> = on_disk.lines().collect();
    assert!(!lines.is_empty(), "interrupted run wrote no events");
    for line in &lines {
        obs::parse_json(line).unwrap_or_else(|e| panic!("unparseable line {line:?}: {e}"));
    }
    let last = obs::parse_json(lines.last().expect("non-empty")).expect("final line parses");
    assert_eq!(
        last.get("event").and_then(|v| v.as_str()),
        Some("campaign_finished")
    );
    assert_eq!(
        last.get("outcome").and_then(|v| v.as_str()),
        Some("interrupted")
    );
    assert_eq!(last.get("done").and_then(|v| v.as_u64()), Some(0));
    assert_eq!(last.get("total").and_then(|v| v.as_u64()), Some(8));
}

/// Checkpointed campaigns emit one `checkpoint_written` per wave (the
/// checkpoint cadence *is* the wave grain), and a zero-period sampler
/// writes counter-delta `sample` lines into the same stream.
#[test]
fn checkpoint_events_match_waves_and_sampler_exports() {
    let ckpt = temp_path("ckpt.json");
    let _ = std::fs::remove_file(&ckpt);
    let session = obs::session();
    let (live, lines) =
        tapped_session(LiveConfig::default().with_sample_period(std::time::Duration::ZERO));
    let config = Config::fully_connected_mlp(&[64, 32]).expect("valid config");
    Simulator::new(config)
        .threads(2)
        .faults(fault_config(8))
        .checkpoint(CheckpointPolicy::new(&ckpt).every(4))
        .run()
        .expect("campaign completes");
    let (report, lines) = finish(live, lines);
    drop(session);
    let _ = std::fs::remove_file(&ckpt);

    let events: Vec<String> = skeleton(&lines);
    // 8 trials at cadence 4 → 2 waves, each persisting then reporting.
    let expected = vec![
        "started fault_mc 8 0".to_string(),
        "checkpoint 4".to_string(),
        "wave 4 8".to_string(),
        "checkpoint 8".to_string(),
        "wave 8 8".to_string(),
        "finished 8 8 complete".to_string(),
    ];
    assert_eq!(events, expected);
    // The checkpoint events name the actual checkpoint path.
    for line in lines.iter().filter(|l| l.contains("checkpoint_written")) {
        let value = obs::parse_json(line).expect("checkpoint line parses");
        assert_eq!(value.get("path").and_then(|v| v.as_str()), Some(ckpt.as_str()));
    }

    // Zero-period sampling: at least one sample per emission, and the
    // counter deltas sum to the campaign's trial total.
    let samples: Vec<obs::JsonValue> = lines
        .iter()
        .map(|line| obs::parse_json(line).expect("line parses"))
        .filter(|value| value.get("event").and_then(|v| v.as_str()) == Some("sample"))
        .collect();
    assert!(!samples.is_empty());
    assert_eq!(report.samples, samples.len() as u64);
    let trials_sampled: u64 = samples
        .iter()
        .filter_map(|s| s.get("counters")?.get("core.fault.trials")?.as_u64())
        .sum();
    assert_eq!(trials_sampled, 8);
}
