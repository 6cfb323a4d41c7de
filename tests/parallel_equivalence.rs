//! Parallel-execution equivalence: the threaded traversals behind the
//! `Simulator` facade must be observationally identical to the serial
//! `.threads(1)` run — same feasible sets, bit-identical statistics, same
//! errors — for any thread count. The facade's other contracts (cache
//! hits, option permutations) have their own suite in
//! `tests/api_facade.rs`.

use mnsim::core::config::Config;
use mnsim::core::dse::{Constraints, DesignPoint, DesignSpace, DseResult};
use mnsim::core::error::CoreError;
use mnsim::core::fault_sim::FaultConfig;
use mnsim::core::Simulator;
use mnsim::tech::fault::FaultRates;
use mnsim::tech::interconnect::InterconnectNode;
use mnsim::tech::memristor::IvModel;

const THREAD_COUNTS: [usize; 4] = [1, 2, 7, 64];

fn dse_base() -> Config {
    Config::fully_connected_mlp(&[512, 256]).unwrap()
}

fn dse_space() -> DesignSpace {
    DesignSpace {
        crossbar_sizes: vec![32, 64, 128, 256],
        parallelism_degrees: vec![1, 8, 32],
        interconnects: vec![InterconnectNode::N28, InterconnectNode::N45],
    }
}

/// Serial traversal order differs from the parallel result's sorted order,
/// so both sides are sorted by the same key before comparison.
fn sorted(mut points: Vec<DesignPoint>) -> Vec<DesignPoint> {
    points.sort_by_key(|p| (p.crossbar_size, p.parallelism, p.interconnect.nanometers()));
    points
}

fn explore_on(
    base: &Config,
    space: &DesignSpace,
    constraints: &Constraints,
    threads: usize,
) -> Result<DseResult, CoreError> {
    Simulator::new(base.clone())
        .threads(threads)
        .explore(space, constraints)
}

#[test]
fn explore_with_equals_serial_for_every_thread_count() {
    let base = dse_base();
    let space = dse_space();
    let constraints = Constraints::crossbar_error(0.3);
    let serial = explore_on(&base, &space, &constraints, 1).unwrap();
    let serial_feasible = sorted(serial.feasible.clone());
    assert!(!serial_feasible.is_empty());

    for threads in THREAD_COUNTS {
        let parallel = explore_on(&base, &space, &constraints, threads).unwrap();
        assert_eq!(parallel.evaluated, serial.evaluated, "threads={threads}");
        // Full struct equality: geometry, interconnect, and every report
        // field must match the serial evaluation exactly.
        assert_eq!(
            sorted(parallel.feasible),
            serial_feasible,
            "threads={threads}"
        );
    }
}

#[test]
fn explore_with_propagates_the_serial_error() {
    // crossbar 2048 enumerates (power of two) but fails validation at
    // evaluation time, exercising the error path mid-traversal.
    let base = dse_base();
    let space = DesignSpace {
        crossbar_sizes: vec![32, 2048, 64, 128],
        parallelism_degrees: vec![1, 8],
        interconnects: vec![InterconnectNode::N45],
    };
    let serial_err = explore_on(&base, &space, &Constraints::default(), 1).unwrap_err();
    assert!(matches!(serial_err, CoreError::Config { .. }));

    for threads in THREAD_COUNTS {
        let err = explore_on(&base, &space, &Constraints::default(), threads).unwrap_err();
        assert_eq!(
            err.to_string(),
            serial_err.to_string(),
            "threads={threads}"
        );
    }
}

#[test]
fn explore_with_reports_earliest_of_several_errors() {
    // Two failing combinations; every thread count must deterministically
    // report the one that comes first in traversal order, as serial does.
    let base = dse_base();
    let space = DesignSpace {
        crossbar_sizes: vec![2048, 32, 4096],
        parallelism_degrees: vec![1],
        interconnects: vec![InterconnectNode::N45],
    };
    let serial_err = explore_on(&base, &space, &Constraints::default(), 1).unwrap_err();
    for threads in THREAD_COUNTS {
        let err = explore_on(&base, &space, &Constraints::default(), threads).unwrap_err();
        assert_eq!(err.to_string(), serial_err.to_string(), "threads={threads}");
    }
}

#[test]
fn fault_campaign_is_bit_identical_across_thread_counts() {
    let config = Config::fully_connected_mlp(&[64, 32]).unwrap();
    let rates = FaultRates {
        broken_wordline: 0.05,
        broken_bitline: 0.05,
        ..FaultRates::stuck_at(0.08)
    };
    let fault_config = FaultConfig {
        rates,
        trials: 9,
        ..FaultConfig::default()
    };
    let campaign = Simulator::new(config).faults(fault_config);
    let serial = campaign.clone().threads(1).run().unwrap();
    let serial_faults = serial.faults.expect("campaign attaches a summary");
    assert!(serial_faults.solves > 0);

    for threads in THREAD_COUNTS {
        let parallel = campaign.clone().threads(threads).run().unwrap();
        // Bit-identical, not approximately equal: trial seeds are derived
        // from the trial index and outcomes are reduced in trial order.
        assert_eq!(
            parallel.faults.expect("campaign attaches a summary"),
            serial_faults,
            "threads={threads}"
        );
    }
}

/// A multi-read campaign on sinh cells: each trial hands its four reads
/// to its worker's solver handle as one batch, which steps them in
/// lockstep on a factor the worker's previous trial left behind. The
/// summary must not depend on which trials shared a worker.
#[test]
fn multi_read_sinh_campaign_is_bit_identical_across_thread_counts() {
    let config = Config::fully_connected_mlp(&[64, 32]).unwrap();
    assert!(matches!(config.device.iv, IvModel::Sinh { .. }));
    let fault_config = FaultConfig {
        rates: FaultRates::stuck_at(0.1),
        trials: 12,
        inputs_per_trial: 4,
        ..FaultConfig::default()
    };
    let campaign = Simulator::new(config).faults(fault_config);
    let serial = campaign.clone().threads(1).run().unwrap();
    let serial_faults = serial.faults.expect("campaign attaches a summary");
    assert!(serial_faults.solves > 0);

    for threads in THREAD_COUNTS {
        let parallel = campaign.clone().threads(threads).run().unwrap();
        assert_eq!(
            parallel.faults.expect("campaign attaches a summary"),
            serial_faults,
            "threads={threads}"
        );
    }
}

#[test]
fn fault_campaign_default_thread_count_matches_serial() {
    // Auto thread count (`threads: 0`) must not change results either.
    let config = Config::fully_connected_mlp(&[64, 32]).unwrap();
    let fault_config = FaultConfig {
        rates: FaultRates::stuck_at(0.05),
        trials: 5,
        ..FaultConfig::default()
    };
    let campaign = Simulator::new(config).faults(fault_config);
    let auto = campaign.clone().threads(0).run().unwrap();
    let serial = campaign.threads(1).run().unwrap();
    assert_eq!(auto.faults, serial.faults);
}
