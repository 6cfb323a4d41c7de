//! Observability-layer integration tests: the metric counters must tell
//! the truth about what the solver and the simulation pipeline actually
//! did, and the metrics and the trace must agree on every fact.
//!
//! Every test in this binary holds the [`mnsim::obs::session`] lock while
//! running instrumented code. The lock serializes the tests, so the global
//! registry is never polluted by a concurrently running test.

use std::collections::BTreeMap;

use mnsim::core::checkpoint::CheckpointPolicy;
use mnsim::core::config::Config;
use mnsim::core::dse::{Constraints, DesignSpace};
use mnsim::core::fault_sim::FaultConfig;
use mnsim::core::simulate::simulate;
use mnsim::core::Simulator;
use mnsim::obs;
use mnsim::obs::trace::{self, EventKind};
use mnsim::tech::fault::FaultRates;
use mnsim::tech::interconnect::InterconnectNode;

#[test]
fn clean_fault_campaign_records_no_fallbacks() {
    let session = obs::session();
    let fault_config = FaultConfig {
        rates: FaultRates::default(), // all-zero defect rates
        trials: 3,
        ..FaultConfig::default()
    };
    let config = Config::fully_connected_mlp(&[64, 32]).unwrap();
    Simulator::new(config)
        .threads(1)
        .faults(fault_config)
        .run()
        .unwrap();

    let snap = session.snapshot();
    assert_eq!(snap.counter("core.fault.campaigns"), 1);
    assert_eq!(snap.counter("core.fault.trials"), 3);
    assert_eq!(snap.counter("core.fault.retired_trials"), 0);
    // The representative crossbar is solved by the sparse LDLᵀ engine
    // (under the default sinh device each Newton iteration's linearized
    // system lands on the sparse-direct path).
    assert!(snap.counter("solver.klu.factors") >= 1);
    assert!(snap.counter("solver.klu.solves") >= 3);
    assert!(snap.counter("circuit.solve.sparse_lu") >= 3);
    // One primary read per trial, and the identical clean trials after the
    // first refactor nothing on the per-thread handle: two factorizations
    // (the clean reference solve and the handle's first trial), no
    // refactor.
    assert_eq!(snap.counter("circuit.batch.solves"), 3);
    assert_eq!(snap.counter("solver.klu.factors"), 2);
    assert_eq!(snap.counter("solver.klu.refactor"), 0);
}

#[test]
fn simulate_records_per_stage_timings() {
    let session = obs::session();
    let config = Config::fully_connected_mlp(&[128, 128]).unwrap();
    simulate(&config).unwrap();

    let snap = session.snapshot();
    assert_eq!(snap.counter("core.simulate.runs"), 1);
    for stage in ["simulate", "accelerator", "accuracy", "propagate"] {
        let h = snap
            .histograms
            .get(stage)
            .unwrap_or_else(|| panic!("missing stage histogram {stage}"));
        assert_eq!(h.count, 1, "{stage}");
        assert!(h.sum >= 0.0 && h.sum.is_finite(), "{stage}: {}", h.sum);
    }
}

#[test]
fn dse_counters_track_feasibility_split() {
    let session = obs::session();
    let base = Config::fully_connected_mlp(&[512, 256]).unwrap();
    let space = DesignSpace {
        crossbar_sizes: vec![32, 64, 128],
        parallelism_degrees: vec![1, 16],
        interconnects: vec![InterconnectNode::N28, InterconnectNode::N45],
    };
    let result = Simulator::new(base)
        .threads(1)
        .explore(&space, &Constraints::default())
        .unwrap();

    let snap = session.snapshot();
    assert_eq!(snap.counter("core.dse.points"), result.evaluated as u64);
    assert_eq!(
        snap.counter("core.dse.feasible") + snap.counter("core.dse.infeasible"),
        result.evaluated as u64
    );
    assert_eq!(
        snap.counter("core.dse.feasible"),
        result.feasible.len() as u64
    );
    assert_eq!(snap.counter("core.dse.errors"), 0);
    assert!(
        *snap.gauges.get("core.dse.points_per_sec").unwrap() > 0.0,
        "throughput gauge must be set"
    );
}

#[test]
fn parallel_dse_error_still_evaluates_every_point() {
    // Satellite fix regression: a failing combination mid-chunk must not
    // silently drop the losing thread's remaining points. crossbar 2048 is
    // a power of two but beyond the supported 1024, so its evaluation
    // fails `Config::validate` while the space still enumerates it.
    let base = Config::fully_connected_mlp(&[512, 256]).unwrap();
    let space = DesignSpace {
        crossbar_sizes: vec![32, 2048, 64, 128],
        parallelism_degrees: vec![1],
        interconnects: vec![InterconnectNode::N45],
    };

    let session = obs::session();
    let err = Simulator::new(base.clone())
        .threads(2)
        .explore(&space, &Constraints::default())
        .unwrap_err();
    let snap = session.snapshot();

    // All four combinations were attempted despite the mid-chunk failure.
    assert_eq!(snap.counter("core.dse.points"), 4);
    assert_eq!(snap.counter("core.dse.errors"), 1);

    // And the reported error is the one serial traversal reports. The
    // session stays open: the serial sweep is instrumented too, and outside
    // it its counts would land in whatever session another test has open.
    let serial_err = Simulator::new(base)
        .threads(1)
        .explore(&space, &Constraints::default())
        .unwrap_err();
    assert_eq!(err.to_string(), serial_err.to_string());
}

#[test]
fn snapshot_json_is_valid_and_complete() {
    // The acceptance list: the solve counts of the solver engine, per-stage
    // simulate timings, and DSE throughput — all in one machine-readable
    // snapshot.
    let session = obs::session();

    let config = Config::fully_connected_mlp(&[64, 32]).unwrap();
    let fault_config = FaultConfig {
        rates: FaultRates::stuck_at(0.02),
        trials: 2,
        ..FaultConfig::default()
    };
    let sim = Simulator::new(config).threads(1);
    sim.clone().faults(fault_config).run().unwrap();
    let space = DesignSpace {
        crossbar_sizes: vec![32, 64],
        parallelism_degrees: vec![1],
        interconnects: vec![InterconnectNode::N45],
    };
    sim.explore(&space, &Constraints::default()).unwrap();

    let snap = session.snapshot();
    let json = snap.to_json();
    obs::validate_json(&json).expect("snapshot JSON must parse");

    for required in [
        "circuit.solve.sparse_lu",
        "solver.klu.factors",
        "accelerator",
        "core.dse.points_per_sec",
    ] {
        assert!(json.contains(required), "snapshot JSON lacks {required}");
    }

    // CSV export carries the same metric names plus the histogram
    // percentile columns.
    let csv = snap.to_csv();
    assert!(csv.starts_with("kind,name,unit,count,sum,min,max,mean,p50,p95,p99"));
    assert!(csv.contains("counter,circuit.solve.sparse_lu,"));
}

/// Ordering-contract regression: a session opened *before* worker threads
/// spawn must observe every worker's increments, because the registry is
/// global and workers join before `snapshot()` is called. A session
/// opened after the fact would race; the contract (documented on
/// [`obs::session`]) is begin-session → run instrumented code → snapshot.
#[test]
fn session_opened_before_thread_pool_sees_all_worker_counts() {
    let session = obs::session();
    let config = Config::fully_connected_mlp(&[64, 32]).unwrap();
    let fault_config = FaultConfig {
        rates: FaultRates::stuck_at(0.02),
        trials: 14,
        ..FaultConfig::default()
    };
    Simulator::new(config)
        .threads(7)
        .faults(fault_config)
        .run()
        .unwrap();

    let snap = session.snapshot();
    // All 14 trials ran on 7 pool workers; every increment must be
    // visible, not just the spawning thread's share.
    assert_eq!(snap.counter("core.fault.campaigns"), 1);
    assert_eq!(snap.counter("core.fault.trials"), 14);
    // Retired trials skip the solve; every operated trial reads its
    // primary output through its worker's solver handle, so the workers'
    // batch solves count every operated trial exactly.
    let operated = 14 - snap.counter("core.fault.retired_trials");
    assert_eq!(
        snap.counter("circuit.batch.solves"),
        operated,
        "worker increments missing"
    );
}

/// One instrumentation model: with metrics and the trace open together,
/// the two views agree on every fact. Each span name's trace `Begin`
/// count (`name` is the label without its `[i]` suffix) equals its
/// histogram count, each instant's count equals the counter of the same
/// name, and nothing is dropped — for a checkpointed fault campaign at
/// threads {1, 2, 7}, a small DSE sweep, and the campaign run again over
/// its checkpoint, which resumes with every trial complete.
#[test]
fn metrics_and_trace_agree_on_every_fact() {
    let config = Config::fully_connected_mlp(&[64, 32]).unwrap();
    let space = DesignSpace {
        crossbar_sizes: vec![32, 64],
        parallelism_degrees: vec![1, 16],
        interconnects: vec![InterconnectNode::N28, InterconnectNode::N45],
    };
    let checkpoint = std::env::temp_dir()
        .join(format!("mnsim_obs_views_{}.json", std::process::id()))
        .to_string_lossy()
        .to_string();
    let trials = 12;
    for threads in [1usize, 2, 7] {
        let _ = std::fs::remove_file(&checkpoint);
        let metrics = obs::session();
        let trace_session = trace::session();
        let sim = Simulator::new(config.clone()).threads(threads);
        let campaign = sim
            .clone()
            .faults(FaultConfig {
                rates: FaultRates::stuck_at(0.02),
                trials,
                ..FaultConfig::default()
            })
            .checkpoint(CheckpointPolicy::new(&checkpoint).every(4));
        let report = campaign.run().unwrap();
        sim.explore(&space, &Constraints::default()).unwrap();
        assert_eq!(campaign.run().unwrap(), report, "threads={threads}");
        let snap = metrics.snapshot();
        let collected = trace_session.finish();
        drop(metrics);

        assert_eq!(collected.dropped, 0, "threads={threads}");
        let mut begins: BTreeMap<&str, u64> = BTreeMap::new();
        let mut instants: BTreeMap<&str, u64> = BTreeMap::new();
        for event in &collected.events {
            match event.kind {
                EventKind::Begin => *begins.entry(event.name).or_insert(0) += 1,
                EventKind::Instant => *instants.entry(event.name).or_insert(0) += 1,
                _ => {}
            }
        }
        for (name, &count) in &begins {
            assert_eq!(
                snap.histograms.get(*name).map(|h| h.count),
                Some(count),
                "threads={threads}: span {name}"
            );
        }
        for (name, &count) in &instants {
            assert_eq!(
                snap.counter(name),
                count,
                "threads={threads}: instant {name}"
            );
        }
        // The run reached every kind of fact the oracle compares.
        for span in [
            "fault.campaign",
            "dse.point",
            "simulate",
            "circuit.solve.assemble",
            "circuit.solve.residual",
            "circuit.ldl.solve",
            "circuit.solve.finish",
        ] {
            assert!(
                begins.contains_key(span),
                "threads={threads}: no {span} span"
            );
        }
        for mark in [
            "checkpoint.written",
            "checkpoint.resumed",
            "circuit.solve.chord_steps",
        ] {
            assert!(
                instants.contains_key(mark),
                "threads={threads}: no {mark} instant"
            );
        }
        assert_eq!(begins["fault.trial"], trials as u64, "threads={threads}");
        assert_eq!(
            snap.counter("core.fault.trials"),
            trials as u64,
            "threads={threads}"
        );
    }
    let _ = std::fs::remove_file(&checkpoint);
}

/// Overhead guard (ignored by default: wall-clock measurements are too
/// noisy for CI). Run with `cargo test --release -- --ignored overhead`.
///
/// The acceptance contract is that the *disabled* registry keeps a DSE
/// sweep within 5 % of an un-instrumented baseline. That baseline no
/// longer exists at runtime, so the test bounds the same quantity from
/// measurements: (disabled per-op cost) × (a generous over-count of the
/// instrumentation ops per DSE point) must stay below 5 % of the measured
/// per-point evaluation time. The trace subsystem carries a tighter
/// contract — disabled trace call sites must stay below 2 % of simulate
/// wall time — bounded the same way at the end of the test.
#[test]
#[ignore = "wall-clock measurement; run explicitly in release mode"]
fn disabled_instrumentation_overhead_is_negligible() {
    use std::time::Instant;

    let session = obs::session();
    obs::set_enabled(false);

    // Disabled hot-path ops: must be a branch on a relaxed atomic.
    static PROBE: obs::Counter = obs::Counter::new("overhead.probe");
    static PROBE_SPAN: obs::Span = obs::Span::new("overhead.probe_span", obs::Level::Other);
    static PROBE_MARK: obs::Mark = obs::Mark::new("overhead.probe_mark", obs::Level::Other);
    const OPS: u32 = 10_000_000;
    let started = Instant::now();
    for _ in 0..OPS {
        PROBE.inc();
        let _guard = PROBE_SPAN.enter();
    }
    // One counter + one span per loop turn, so two metric ops.
    let per_op = started.elapsed().as_secs_f64() / f64::from(OPS) / 2.0;
    assert!(
        per_op < 25e-9,
        "disabled metric op costs {:.1} ns",
        per_op * 1e9
    );

    // Disabled trace ops: outside a trace session each call must reduce
    // to one relaxed atomic load and a branch.
    let started = Instant::now();
    for _ in 0..OPS {
        PROBE_MARK.record(1.0);
        obs::trace::module_perf("overhead.trace_module", 1.0e-9, 1.0e-12);
    }
    let per_trace_op = started.elapsed().as_secs_f64() / f64::from(OPS) / 2.0;
    assert!(
        per_trace_op < 25e-9,
        "disabled trace op costs {:.1} ns",
        per_trace_op * 1e9
    );

    // Disabled live-telemetry ops: outside a live session every emission
    // helper must reduce to one relaxed atomic load and a branch.
    let started = Instant::now();
    for i in 0..OPS {
        obs::live::wave_completed(i as usize % 100, 100, None);
        let _ = obs::live::wave_grain(100);
    }
    let per_live_op = started.elapsed().as_secs_f64() / f64::from(OPS) / 2.0;
    assert!(
        per_live_op < 25e-9,
        "disabled live-telemetry op costs {:.1} ns",
        per_live_op * 1e9
    );

    // Measured per-point cost of a disabled-registry sweep. Each
    // measurement repeats the sweep to rise above timer noise.
    let sweep = Simulator::new(Config::fully_connected_mlp(&[512, 256]).unwrap()).threads(1);
    let space = DesignSpace::paper_large_bank();
    const REPEATS: usize = 20;
    let mut sweep_secs = f64::INFINITY;
    let mut points = 0usize;
    for _ in 0..5 {
        let started = Instant::now();
        for _ in 0..REPEATS {
            points = sweep
                .explore(&space, &Constraints::default())
                .unwrap()
                .evaluated;
        }
        sweep_secs = sweep_secs.min(started.elapsed().as_secs_f64());
    }
    drop(session);
    let per_point = sweep_secs / (REPEATS * points) as f64;

    // A DSE point touches the point span, the point/admission counters,
    // the simulate span, three stage spans and the run counter — a dozen
    // disabled ops; 32 is a comfortable over-count.
    let overhead_fraction = 32.0 * per_op / per_point;
    assert!(
        overhead_fraction < 0.05,
        "disabled instrumentation costs {:.2} % of a {:.2} µs DSE point",
        overhead_fraction * 100.0,
        per_point * 1e6
    );

    // Tracing adds its own disabled call sites along the same path: the
    // run/stage/layer/bank/unit spans plus the per-unit and per-bank
    // module attributions — again far fewer than 32 per simulated point.
    // The tracing contract is tighter: < 2 % of simulate wall time when
    // disabled.
    let trace_overhead_fraction = 32.0 * per_trace_op / per_point;
    assert!(
        trace_overhead_fraction < 0.02,
        "disabled tracing costs {:.2} % of a {:.2} µs DSE point",
        trace_overhead_fraction * 100.0,
        per_point * 1e6
    );

    // Live telemetry's disabled call sites sit at *wave* granularity (a
    // handful per campaign), far sparser than the per-point ops bounded
    // above — so even the same generous 32-ops-per-point over-count must
    // stay under the 2 % contract.
    let live_overhead_fraction = 32.0 * per_live_op / per_point;
    assert!(
        live_overhead_fraction < 0.02,
        "disabled live telemetry costs {:.2} % of a {:.2} µs DSE point",
        live_overhead_fraction * 100.0,
        per_point * 1e6
    );
}
