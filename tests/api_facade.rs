//! Facade-equivalence suite for the unified `Simulator`/`Session` API.
//!
//! The contract under test: every capability reached through
//! [`Simulator`] — and through a caching [`Session`] wrapped around it —
//! produces results identical to the serial reference (`simulate(&c)` or
//! `.threads(1)`), identical across every [`ExecOptions`] permutation, and
//! identical whether a result was freshly evaluated or answered from the
//! artifact cache.
//! "Identical" is checked at the strongest level available:
//! full-`Report` equality plus byte-for-byte equality of the canonical
//! [`report_json`](mnsim::core::report::report_json) rendering (which
//! round-trips every float through shortest-representation formatting,
//! so two JSONs are byte-equal iff the reports are bit-identical;
//! metrics/trace timing attachments are deliberately outside it).

use std::time::Instant;

use mnsim::core::report::report_json;
use mnsim::core::simulate::simulate;
use mnsim::prelude::*;
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 7];

fn reference_config() -> Config {
    Config::fully_connected_mlp(&[256, 128, 64]).unwrap()
}

#[test]
fn simulator_report_json_is_byte_identical_to_legacy_simulate() {
    let config = reference_config();
    let legacy = simulate(&config).unwrap();
    let legacy_json = report_json(&legacy);
    for threads in THREAD_COUNTS {
        let report = Simulator::new(config.clone()).threads(threads).run().unwrap();
        assert_eq!(legacy, report, "threads={threads}");
        assert_eq!(legacy_json, report_json(&report), "threads={threads}");
    }
}

#[test]
fn simulator_fault_campaign_matches_legacy_at_every_thread_count() {
    let config = Config::fully_connected_mlp(&[64, 32]).unwrap();
    let fault_config = FaultConfig {
        rates: FaultRates::stuck_at(0.03),
        trials: 6,
        ..FaultConfig::default()
    };
    let legacy = Simulator::new(config.clone())
        .faults(fault_config.clone())
        .threads(1)
        .run()
        .unwrap();
    let legacy_json = report_json(&legacy);
    for threads in THREAD_COUNTS {
        let report = Simulator::new(config.clone())
            .faults(fault_config.clone())
            .threads(threads)
            .run()
            .unwrap();
        assert_eq!(legacy, report, "threads={threads}");
        assert_eq!(legacy_json, report_json(&report), "threads={threads}");
    }
}

#[test]
fn simulator_explore_matches_legacy_serial_explore() {
    let config = Config::fully_connected_mlp(&[512, 256]).unwrap();
    let space = DesignSpace {
        crossbar_sizes: vec![32, 64, 128],
        parallelism_degrees: vec![1, 16],
        interconnects: vec![
            mnsim::tech::interconnect::InterconnectNode::N28,
            mnsim::tech::interconnect::InterconnectNode::N45,
        ],
    };
    let constraints = Constraints::crossbar_error(0.3);
    let legacy = Simulator::new(config.clone())
        .threads(1)
        .explore(&space, &constraints)
        .unwrap();
    for threads in THREAD_COUNTS {
        let result = Simulator::new(config.clone())
            .threads(threads)
            .explore(&space, &constraints)
            .unwrap();
        // Full struct equality, traversal order included: the engine
        // reduces in canonical order at every thread count.
        assert_eq!(legacy, result, "threads={threads}");
    }
}

#[test]
fn simulator_validate_matches_legacy_serial_validate() {
    let mut config = reference_config();
    config.crossbar_size = 16; // keep the circuit solves small
    let legacy = Simulator::new(config.clone())
        .threads(1)
        .validate(2, 2, 0xFACADE)
        .unwrap();
    for threads in THREAD_COUNTS {
        let rows = Simulator::new(config.clone())
            .threads(threads)
            .validate(2, 2, 0xFACADE)
            .unwrap();
        assert_eq!(legacy, rows, "threads={threads}");
    }
}

#[test]
fn session_cache_hits_are_byte_identical_to_fresh_runs() {
    // The artifact cache must be observationally invisible: a hit is
    // byte-for-byte the same report a fresh evaluation produces.
    let config = Config::fully_connected_mlp(&[128, 64]).unwrap();
    let fresh_json = report_json(&simulate(&config).unwrap());

    let cache = std::sync::Arc::new(ArtifactCache::new());
    let session = Simulator::new(config.clone())
        .threads(2)
        .into_session_with(std::sync::Arc::clone(&cache));
    let miss = session.run().unwrap();
    assert_eq!(report_json(&miss), fresh_json, "miss equals a legacy run");

    // A different session (different thread count) over the shared cache
    // hits and returns the identical bytes.
    let other = Simulator::new(config)
        .threads(7)
        .into_session_with(cache);
    let hit = other.run().unwrap();
    assert_eq!(report_json(&hit), fresh_json, "hit equals a legacy run");
    assert_eq!(other.cache().stats().hits, 1);
}

#[test]
fn session_fault_campaign_hit_matches_legacy_bytes() {
    let config = Config::fully_connected_mlp(&[64, 32]).unwrap();
    let fault_config = FaultConfig {
        rates: FaultRates::stuck_at(0.03),
        trials: 4,
        ..FaultConfig::default()
    };
    let legacy_json = report_json(
        &Simulator::new(config.clone())
            .faults(fault_config.clone())
            .threads(1)
            .run()
            .unwrap(),
    );
    let session = Simulator::new(config)
        .threads(3)
        .faults(fault_config)
        .into_session();
    assert_eq!(report_json(&session.run().unwrap()), legacy_json, "miss");
    assert_eq!(report_json(&session.run().unwrap()), legacy_json, "hit");
    assert_eq!(session.cache().stats().hits, 1);
}

#[test]
fn simulator_explore_honours_the_session_deadline() {
    let config = Config::fully_connected_mlp(&[512, 256]).unwrap();
    let space = DesignSpace {
        crossbar_sizes: vec![32, 64],
        parallelism_degrees: vec![1, 16],
        interconnects: vec![mnsim::tech::interconnect::InterconnectNode::N45],
    };
    for threads in THREAD_COUNTS {
        let result = Simulator::new(config.clone())
            .threads(threads)
            .deadline(Deadline::at(Instant::now()))
            .explore(&space, &Constraints::default());
        match result {
            Err(CoreError::DeadlineExceeded {
                completed: 0,
                total: 4,
                checkpoint: None,
            }) => {}
            other => panic!("threads={threads}: expected DeadlineExceeded, got {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: no [`ExecOptions`] permutation — thread count, metrics
    /// on/off, trace on/off, set via individual builders or wholesale —
    /// changes a single numerical bit of the report.
    #[test]
    fn exec_options_permutations_never_change_results(
        threads in 0usize..9,
        metrics_bit in 0u8..2,
        trace_bit in 0u8..2,
        wholesale_bit in 0u8..2,
    ) {
        let (metrics, trace, wholesale) =
            (metrics_bit == 1, trace_bit == 1, wholesale_bit == 1);
        let config = Config::fully_connected_mlp(&[128, 64]).unwrap();
        let baseline_json = report_json(&simulate(&config).unwrap());

        let simulator = if wholesale {
            Simulator::new(config).options(ExecOptions { threads, metrics, trace })
        } else {
            Simulator::new(config).threads(threads).metrics(metrics).trace(trace)
        };
        let report = simulator.run().unwrap();

        // Numerical payload identical; instrumentation attaches exactly
        // when requested.
        prop_assert_eq!(report_json(&report), baseline_json);
        prop_assert_eq!(report.metrics.is_some(), metrics);
        prop_assert_eq!(report.trace.is_some(), trace);
    }
}

/// The prelude's run-control API from outside `mnsim-core`, through
/// `mnsim::prelude::*` alone: a cancellation token, a deadline and the
/// artifact cache.
mod prelude_run_control {
    use std::sync::Arc;
    use std::time::Duration;

    use mnsim::prelude::*;

    #[test]
    fn tokens_deadlines_and_the_artifact_cache_work_through_the_prelude() {
        let config = Config::fully_connected_mlp(&[64, 32]).unwrap();
        let campaign = FaultConfig {
            trials: 16,
            ..FaultConfig::default()
        };
        // A token cancelled before the run stops it before any trial.
        for threads in super::THREAD_COUNTS {
            let token = CancelToken::new();
            token.cancel();
            let outcome = Simulator::new(config.clone())
                .threads(threads)
                .faults(campaign.clone())
                .run_controlled(&RunControl::new().cancel(token));
            assert!(
                matches!(
                    outcome,
                    Err(CoreError::Cancelled {
                        completed: 0,
                        total: 16,
                        ..
                    })
                ),
                "threads={threads}: {outcome:?}"
            );
        }

        // A zero deadline has expired with nothing left, and stops a sweep
        // before its first design.
        let deadline = Deadline::after(Duration::ZERO);
        assert!(deadline.expired());
        assert_eq!(deadline.remaining(), Duration::ZERO);
        let outcome = Simulator::new(config.clone()).explore_controlled(
            &DesignSpace::paper_large_bank(),
            &Constraints::default(),
            &RunControl::new().deadline(deadline),
        );
        assert!(
            matches!(
                outcome,
                Err(CoreError::DeadlineExceeded { completed: 0, .. })
            ),
            "{outcome:?}"
        );

        // An inserted artifact comes back; an unknown key does not.
        let cache = ArtifactCache::new();
        let report = Simulator::new(config).run().unwrap();
        cache.insert(7, Artifact::Report(Arc::new(report.clone())));
        match cache.get(7) {
            Some(Artifact::Report(hit)) => assert_eq!(*hit, report),
            other => panic!("expected the inserted report, got {other:?}"),
        }
        assert!(cache.get(8).is_none());
    }
}
