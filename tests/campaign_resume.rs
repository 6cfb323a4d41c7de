//! Campaign-hardening integration tests: cancellation, deterministic
//! checkpoint/resume, and panic isolation through the public API
//! (`Simulator::checkpoint` with `run_controlled` / `explore_controlled`).
//!
//! The central property: a fault campaign (or DSE sweep) that is cancelled
//! mid-run with a checkpoint policy, then resumed, produces a result
//! **bit-identical** to the uninterrupted run — at any thread count.

use std::sync::atomic::{AtomicUsize, Ordering};

use mnsim::core::exec::{self, CancelToken, ExecError, RunControl};
use mnsim::prelude::*;
use proptest::prelude::*;

/// Unique checkpoint path per test case (parallel test threads share the
/// OS temp dir).
fn temp_checkpoint(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "mnsim_campaign_resume_{}_{n}_{tag}.json",
        std::process::id()
    ))
}

fn small_config() -> Config {
    Config::fully_connected_mlp(&[32, 16]).expect("reference config builds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cancel mid-campaign at a random trial budget, checkpoint every 2
    /// trials, resume — the final summary is bit-identical to the
    /// uninterrupted campaign at 1, 2 and 7 threads.
    #[test]
    fn cancelled_campaign_resumes_bit_identically(
        seed in 0u64..u64::MAX,
        trials in 3usize..8,
        budget in 1usize..6,
    ) {
        let config = small_config();
        let base_faults = FaultConfig {
            rates: FaultRates::stuck_at(0.05),
            trials,
            seed,
            ..FaultConfig::default()
        };
        let baseline = Simulator::new(config.clone())
            .threads(1)
            .faults(base_faults.clone())
            .run()
            .expect("uninterrupted campaign runs");

        for threads in [1usize, 2, 7] {
            let path = temp_checkpoint(&format!("fault_t{threads}"));
            let campaign = Simulator::new(config.clone())
                .threads(threads)
                .faults(base_faults.clone())
                .checkpoint(CheckpointPolicy::new(path.display().to_string()).every(2));

            // Interrupted leg: the budget token trips at chunk granularity,
            // so a generous budget may let the run complete — both outcomes
            // are legal, and both must lead to the baseline summary.
            let control = RunControl::with_cancel(CancelToken::after_items(budget));
            let first = campaign.run_controlled(&control);
            match &first {
                Ok(report) => prop_assert_eq!(report, &baseline),
                Err(CoreError::Cancelled { completed, total, .. }) => {
                    prop_assert!(completed < total);
                    prop_assert_eq!(*total, trials);
                }
                Err(other) => prop_assert!(false, "unexpected error: {other}"),
            }

            // Resumed leg: no cancellation; completed trials load from the
            // checkpoint, the rest re-run from their per-trial seeds.
            let resumed = campaign
                .run_controlled(&RunControl::default())
                .expect("resumed campaign completes");
            prop_assert_eq!(&resumed, &baseline, "threads {}", threads);

            let _ = std::fs::remove_file(&path);
        }
    }
}

/// A cancelled DSE sweep with a checkpoint resumes to the exact
/// uninterrupted result (same best point, same feasible set).
#[test]
fn cancelled_dse_sweep_resumes_bit_identically() {
    let base = small_config();
    let space = DesignSpace {
        crossbar_sizes: vec![32, 64, 128],
        parallelism_degrees: vec![1, 4, 16],
        interconnects: vec![
            mnsim::tech::interconnect::InterconnectNode::N28,
            mnsim::tech::interconnect::InterconnectNode::N45,
        ],
    };
    let constraints = Constraints::default();
    let baseline = Simulator::new(base.clone())
        .threads(1)
        .explore(&space, &constraints)
        .expect("sweep is feasible");

    for threads in [1usize, 2, 7] {
        let path = temp_checkpoint(&format!("dse_t{threads}"));
        let sweep = Simulator::new(base.clone())
            .threads(threads)
            .checkpoint(CheckpointPolicy::new(path.display().to_string()).every(2));

        let control = RunControl::with_cancel(CancelToken::after_items(3));
        let first = sweep.explore_controlled(&space, &constraints, &control);
        match first {
            Ok(ref result) => assert_eq!(result, &baseline),
            Err(CoreError::Cancelled { completed, total, .. }) => {
                assert!(completed < total);
                assert_eq!(total, 18);
            }
            Err(other) => panic!("unexpected error: {other}"),
        }

        let resumed = sweep
            .explore_controlled(&space, &constraints, &RunControl::default())
            .expect("resumed sweep completes");
        assert_eq!(resumed, baseline, "threads {threads}");

        let _ = std::fs::remove_file(&path);
    }
}

/// Regression: one panicking work item must surface as a typed
/// `WorkerPanic` with its index, while parallel siblings still complete.
#[test]
fn worker_panic_is_typed_and_isolated() {
    for threads in [1usize, 2, 7] {
        let indices: Vec<usize> = (0..24).collect();
        let result = exec::run_indices::<usize, std::convert::Infallible, _>(
            &indices,
            threads,
            &RunControl::default(),
            |i| {
                if i == 9 {
                    panic!("trial 9 exploded");
                }
                Ok(i * i)
            },
        )
        .into_result();
        match result {
            Err(ExecError::WorkerPanic { index, payload }) => {
                assert_eq!(index, 9);
                assert!(payload.contains("trial 9 exploded"), "{payload}");
            }
            other => panic!("threads {threads}: expected WorkerPanic, got {other:?}"),
        }
    }
}

/// A cancelled `Simulator::run_cancellable` surfaces the typed error and
/// the checkpoint path it wrote; a fresh session then resumes from it.
#[test]
fn facade_cancel_checkpoint_resume_round_trip() {
    let path = temp_checkpoint("facade");
    let faults = FaultConfig {
        rates: FaultRates::stuck_at(0.05),
        trials: 32,
        seed: 0xFACADE,
        ..FaultConfig::default()
    };
    let session = Simulator::new(small_config())
        .threads(1)
        .faults(faults)
        .checkpoint(CheckpointPolicy::new(path.display().to_string()).every(2));

    let baseline = session.run().expect("uninterrupted run");
    let _ = std::fs::remove_file(&path);

    // Cancel immediately: the background run stops at the next boundary.
    let handle = session.run_cancellable();
    handle.cancel();
    match handle.join() {
        Ok(report) => assert_eq!(report, baseline), // raced to completion
        Err(CoreError::Cancelled { checkpoint, .. }) => {
            // The typed error carries the policy path whenever the
            // interrupted campaign managed to write a checkpoint.
            if let Some(written) = checkpoint {
                assert_eq!(written, path.display().to_string());
            }
        }
        Err(other) => panic!("unexpected error: {other}"),
    }

    let resumed = session.run().expect("resumed run completes");
    assert_eq!(resumed, baseline);
    let _ = std::fs::remove_file(&path);
}
