//! Campaign-hardening integration tests: cancellation, deterministic
//! checkpoint/resume, corrupted checkpoints, and panic isolation through
//! the public API (`Simulator::checkpoint` and `Simulator::cancel`).
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
            let first = campaign
                .clone()
                .cancel(CancelToken::after_items(budget))
                .run();
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
            let resumed = campaign.run().expect("resumed campaign completes");
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

        let first = sweep
            .clone()
            .cancel(CancelToken::after_items(3))
            .explore(&space, &constraints);
        match first {
            Ok(ref result) => assert_eq!(result, &baseline),
            Err(CoreError::Cancelled { completed, total, .. }) => {
                assert!(completed < total);
                assert_eq!(total, 18);
            }
            Err(other) => panic!("unexpected error: {other}"),
        }

        let resumed = sweep
            .explore(&space, &constraints)
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

/// A background run cancelled through its `Simulator::cancel` token
/// surfaces the typed error and the checkpoint path it wrote; the same
/// session without the token then resumes from it.
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
    let token = CancelToken::new();
    let background = std::thread::spawn({
        let session = session.clone().cancel(token.clone());
        move || session.run()
    });
    token.cancel();
    match background.join().expect("the run thread does not panic") {
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

/// A checkpoint file is external input. Every strict prefix of a written
/// one is refused with `CoreError::Checkpoint`, never a panic, except the
/// prefix that drops only the final newline: that is still the complete
/// JSON and resumes bit-identically. One changed digit in `schema`,
/// `fingerprint` or the item count is refused too. Checked for a fault
/// campaign and a design-space sweep.
#[test]
fn corrupted_checkpoints_are_refused_with_a_typed_error() {
    let campaign = Simulator::new(small_config())
        .threads(1)
        .faults(FaultConfig {
            rates: FaultRates::stuck_at(0.05),
            trials: 2,
            seed: 0xC0FFEE,
            ..FaultConfig::default()
        });
    assert_corruptions_are_refused("fault_mc", "trials", &campaign, Simulator::run);

    let space = DesignSpace {
        crossbar_sizes: vec![32, 64],
        parallelism_degrees: vec![1, 4],
        interconnects: vec![mnsim::tech::interconnect::InterconnectNode::N45],
    };
    let sweep = Simulator::new(small_config()).threads(1);
    assert_corruptions_are_refused("dse", "combos", &sweep, |sim| {
        sim.explore(&space, &Constraints::default())
    });
}

/// Lets `run` write `sim`'s checkpoint, then resumes `run` from each
/// corruption of that file that
/// `corrupted_checkpoints_are_refused_with_a_typed_error` names.
fn assert_corruptions_are_refused<T: PartialEq + std::fmt::Debug>(
    tag: &str,
    count_key: &str,
    sim: &Simulator,
    run: impl Fn(&Simulator) -> Result<T, CoreError>,
) {
    let path = temp_checkpoint(&format!("corrupt_{tag}"));
    let sim = sim
        .clone()
        .checkpoint(CheckpointPolicy::new(path.display().to_string()));
    let baseline = run(&sim).expect("the uninterrupted run completes");
    let written = std::fs::read(&path).expect("the run wrote its checkpoint");
    assert!(written.ends_with(b"}\n"), "{tag}: {written:?}");
    let resume_from = |contents: &[u8]| {
        std::fs::write(&path, contents).expect("the corrupted file writes");
        run(&sim)
    };

    for len in 0..written.len() {
        match (len + 1 == written.len(), resume_from(&written[..len])) {
            (true, Ok(resumed)) => assert_eq!(resumed, baseline, "{tag}: complete JSON"),
            (false, Err(CoreError::Checkpoint { .. })) => {}
            (_, other) => panic!("{tag}: the {len}-byte prefix gave {other:?}"),
        }
    }

    let text = String::from_utf8(written).expect("checkpoints are UTF-8");
    for field in ["schema", "fingerprint", count_key] {
        // The first digit of the field's value ("0x" skipped), changed.
        let key = format!("\"{field}\": ");
        let mut at = text.find(&key).expect("the field is written") + key.len();
        at += text[at..]
            .find(|c: char| c.is_ascii_digit())
            .expect("a digit");
        if text[at..].starts_with("0x") {
            at += 2;
        }
        let digit = if text.as_bytes()[at] == b'1' {
            "2"
        } else {
            "1"
        };
        let corrupted = format!("{}{digit}{}", &text[..at], &text[at + 1..]);
        match resume_from(corrupted.as_bytes()) {
            Err(CoreError::Checkpoint { reason, .. }) => {
                assert!(
                    reason.contains(field),
                    "{tag}: `{field}` refused for {reason:?}"
                );
            }
            other => panic!("{tag}: a changed `{field}` digit gave {other:?}"),
        }
    }
    let _ = std::fs::remove_file(&path);
}
