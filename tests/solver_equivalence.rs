//! Solver-equivalence lockdown for the batched multi-RHS layer.
//!
//! Three contracts, each enforced here:
//!
//! 1. **Equivalence** — [`solve_dc_batch`] over a
//!    [`PreparedSystem`] produces bit-identical node voltages to per-input
//!    [`solve_dc`] on a re-driven circuit: the batch replays the exact
//!    serial assembly and arithmetic, and every read is a backsolve on the
//!    held factorization. Randomized over crossbar shapes, signed weights,
//!    and batch sizes including one and zero.
//! 2. **Invalidation** — a prepared system built for one conductance state
//!    refuses to solve a circuit whose conductances changed: the typed
//!    [`CircuitError::StalePreparedSystem`] fires at 32 and 200 unknowns
//!    alike, and [`prepare_or_reuse`] refreshes or rebuilds instead of ever
//!    reusing a stale factorization.
//! 3. **One engine** — every grounded-source crossbar, whatever its size,
//!    builds the sparse-direct engine, checked through
//!    [`PreparedSystem::engine_kind`].
//!
//! Every test holds the [`mnsim::obs::session`] lock while it runs solver
//! code, so no test's counters can leak into another's measured window.

use mnsim::circuit::batch::{prepare_or_reuse, solve_dc_batch, EngineKind, PreparedSystem, Rhs};
use mnsim::circuit::crossbar::CrossbarSpec;
use mnsim::circuit::solve::{solve_dc, SolveOptions};
use mnsim::circuit::CircuitError;
use mnsim::core::config::Config;
use mnsim::core::netlist_gen::{input_drive_voltages, map_weights};
use mnsim::nn::tensor::Tensor;
use mnsim::obs;
use mnsim::tech::memristor::IvModel;
use mnsim::tech::units::{Resistance, Voltage};
use proptest::prelude::*;

/// Deterministic xorshift uniform in `[0, 1)`.
fn uniform(state: &mut u64) -> f64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// Maps a random signed weight matrix, drives it with `batch_size` random
/// input vectors, and demands bitwise equality between per-input
/// [`solve_dc`] and the batched path.
fn check_crossbar_equivalence(rows: usize, cols: usize, seed: u64, batch_size: usize) {
    let _session = obs::session();
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut config = Config::fully_connected_mlp(&[8, 8]).expect("static dims");
    config.crossbar_size = 8;
    // Ohmic cells keep the circuits linear, so the prepared system's cached
    // engines — not the per-read Newton solve — are what this test exercises.
    config.device.iv = IvModel::Linear;

    // Signed weights exercise both polarity crossbars of the dual mapping.
    let weights = Tensor::from_vec(
        &[cols, rows],
        (0..rows * cols)
            .map(|_| uniform(&mut state) * 2.0 - 1.0)
            .collect(),
    )
    .expect("shape matches data");
    let mapped = map_weights(&config, &weights, &vec![0.0; rows]).expect("fits one block");

    let inputs: Vec<Vec<f64>> = (0..batch_size)
        .map(|_| (0..rows).map(|_| uniform(&mut state)).collect())
        .collect();

    let solve_options = SolveOptions::default();

    let specs: Vec<&CrossbarSpec> = std::iter::once(&mapped.positive)
        .chain(mapped.negative.as_ref())
        .collect();
    for spec in specs {
        let built = spec.build().expect("valid crossbar");
        let batch: Vec<Rhs> = inputs
            .iter()
            .map(|x| {
                let drive = input_drive_voltages(&config, x);
                built.input_rhs(&drive).expect("arity matches")
            })
            .collect();

        let mut prepared = PreparedSystem::build(built.circuit(), solve_options.clone())
            .expect("linear crossbar prepares");
        let batched =
            solve_dc_batch(&mut prepared, built.circuit(), &batch).expect("batch solves");
        assert_eq!(batched.len(), batch_size);

        for (k, x) in inputs.iter().enumerate() {
            let drive = input_drive_voltages(&config, x);
            let serial_circuit = built
                .circuit()
                .with_source_voltages(&drive)
                .expect("arity matches");
            let serial = solve_dc(&serial_circuit, &solve_options).expect("serial solves");
            let a = serial.voltages();
            let b = batched[k].voltages();
            assert_eq!(a.len(), b.len());
            for (node, (&va, &vb)) in a.iter().zip(b).enumerate() {
                assert_eq!(
                    va, vb,
                    "{rows}x{cols} seed {seed} input {k} node {node}: \
                     batch must be bit-identical"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Batches replay the serial assembly exactly: bitwise equality, not
    /// approximate, for every batch size (including one and zero).
    #[test]
    fn cold_batch_is_bit_identical_to_serial(
        rows in 1usize..7,
        cols in 1usize..7,
        seed in 0u64..1_000_000,
        batch_size in 0usize..5,
    ) {
        check_crossbar_equivalence(rows, cols, seed, batch_size);
    }
}

/// A 10×10 crossbar (`2·rows·cols = 200` unknowns).
fn sparse_path_crossbar() -> CrossbarSpec {
    CrossbarSpec::uniform(
        10,
        10,
        Resistance::from_kilo_ohms(10.0),
        Resistance::from_ohms(2.0),
        Resistance::from_ohms(500.0),
        Voltage::from_volts(1.0),
    )
}

/// Rebuilds the spec with one cell conductance changed — same topology,
/// different values, which is exactly the stale case fingerprinting must
/// catch.
fn perturbed(spec: &CrossbarSpec) -> CrossbarSpec {
    let mut changed = spec.clone();
    changed.states[0] = Resistance::from_ohms(changed.states[0].ohms() * 2.0);
    changed
}

#[test]
fn stale_prepared_system_is_a_typed_error_on_every_engine() {
    let _session = obs::session();
    let small_spec = CrossbarSpec::uniform(
        4,
        4,
        Resistance::from_kilo_ohms(10.0),
        Resistance::from_ohms(2.0),
        Resistance::from_ohms(500.0),
        Voltage::from_volts(1.0),
    );
    for spec in [small_spec, sparse_path_crossbar()] {
        let built = spec.build().unwrap();
        let mut prepared = PreparedSystem::build(built.circuit(), SolveOptions::default()).unwrap();
        assert_eq!(prepared.engine_kind(), EngineKind::SparseDirect);

        let changed = perturbed(&spec).build().unwrap();
        let rhs = changed
            .input_rhs(&vec![Voltage::from_volts(1.0); spec.rows])
            .unwrap();
        let result = solve_dc_batch(&mut prepared, changed.circuit(), std::slice::from_ref(&rhs));
        match result {
            Err(CircuitError::StalePreparedSystem { expected, actual }) => {
                assert_ne!(expected, actual);
                assert_eq!(expected, prepared.fingerprint());
            }
            other => panic!("expected StalePreparedSystem, got {other:?}"),
        }

        // Re-driving the *same* conductances is not staleness: only value
        // changes to the resistive network invalidate.
        let redriven = built
            .circuit()
            .with_source_voltages(&vec![Voltage::from_volts(0.25); spec.rows])
            .unwrap();
        assert!(prepared.matches(&redriven));
        assert!(solve_dc_batch(&mut prepared, &redriven, &[rhs]).is_ok());
    }
}

#[test]
fn prepare_or_reuse_never_solves_stale() {
    let _session = obs::session();
    let spec = sparse_path_crossbar();
    let options = SolveOptions::default();
    let mut slot: Option<PreparedSystem> = None;

    let built = spec.build().unwrap();
    let first_fingerprint = {
        let prepared = prepare_or_reuse(&mut slot, built.circuit(), &options).unwrap();
        prepared.fingerprint()
    };

    // Same circuit: the cached system is reused as-is.
    {
        let prepared = prepare_or_reuse(&mut slot, built.circuit(), &options).unwrap();
        assert_eq!(prepared.fingerprint(), first_fingerprint);
    }

    // Changed conductances with unchanged topology: the sparse engine is
    // refreshed in place (refactor), the fingerprint moves to the new
    // circuit, and — because a refactor runs the same LDLᵀ routine on the
    // same analysis — the solve is still bit-identical to a fresh serial
    // factorization.
    let changed = perturbed(&spec).build().unwrap();
    let prepared = prepare_or_reuse(&mut slot, changed.circuit(), &options).unwrap();
    assert_ne!(prepared.fingerprint(), first_fingerprint);
    let drive = vec![Voltage::from_volts(1.0); spec.rows];
    let rhs = changed.input_rhs(&drive).unwrap();
    let batched = prepared.solve(changed.circuit(), &rhs).unwrap();
    let serial = solve_dc(changed.circuit(), &SolveOptions::default()).unwrap();
    assert_eq!(serial.voltages(), batched.voltages());
}

/// Every grounded-source crossbar builds the one engine for its matrix
/// class, whatever its size: 1×1 (2 unknowns), 6×6 (72), 6×8 (96) and
/// 16×16 (512). The choice is identical run to run.
#[test]
fn auto_dispatch_is_deterministic_in_structure_size() {
    let _session = obs::session();
    let spec_for = |rows: usize, cols: usize| {
        CrossbarSpec::uniform(
            rows,
            cols,
            Resistance::from_kilo_ohms(10.0),
            Resistance::from_ohms(2.0),
            Resistance::from_ohms(500.0),
            Voltage::from_volts(1.0),
        )
    };
    for (rows, cols) in [(1, 1), (6, 6), (6, 8), (16, 16)] {
        // Build twice: the choice must be identical run-to-run.
        for _ in 0..2 {
            let built = spec_for(rows, cols).build().unwrap();
            let prepared =
                PreparedSystem::build(built.circuit(), SolveOptions::default()).unwrap();
            assert_eq!(
                prepared.engine_kind(),
                EngineKind::SparseDirect,
                "{rows}x{cols} crossbar dispatched to {:?}",
                prepared.engine_kind()
            );
        }
    }
}
