//! Solver-equivalence lockdown for the batched multi-RHS layer.
//!
//! Three contracts, each enforced here:
//!
//! 1. **Equivalence** — [`solve_dc_batch`] over a
//!    [`PreparedSystem`] produces the same node voltages as per-input
//!    [`solve_dc`] on a re-driven circuit: bit-identical with a cold start
//!    (the batch replays the exact serial assembly and arithmetic), and
//!    within `1e-12` relative tolerance with warm-started CG. Randomized
//!    over crossbar shapes, signed weights, every [`Method`], and batch
//!    sizes including one and zero.
//! 2. **Warm-start behavior** — on a correlated batch the warm-started CG
//!    iteration counts drop strictly below the cold counts (checked both
//!    through the per-solve counters on the prepared system and through
//!    the `circuit.batch.*` observability counters); on an adversarial
//!    orthogonal batch warm starts still converge within the
//!    [`CgOptions`] iteration caps.
//! 3. **Invalidation** — a prepared system built for one conductance state
//!    refuses to solve a circuit whose conductances changed: the typed
//!    [`CircuitError::StalePreparedSystem`] fires on the dense,
//!    sparse-direct, and CG paths alike, and [`prepare_or_reuse`] refreshes
//!    or rebuilds instead of ever reusing a stale factorization.
//! 4. **Dispatch** — under [`Method::Auto`] the engine choice is a pure
//!    function of structure size: dense below 96 unknowns, sparse-direct
//!    above, checked through [`PreparedSystem::engine_kind`].
//!
//! Every test holds the [`mnsim::obs::session`] lock while it runs solver
//! code, so no test's counters can leak into another's measured window.

use mnsim::circuit::batch::{
    prepare_or_reuse, solve_dc_batch, BatchOptions, EngineKind, PreparedSystem, Rhs, WarmStart,
};
use mnsim::circuit::cg::CgOptions;
use mnsim::circuit::crossbar::CrossbarSpec;
use mnsim::circuit::solve::{solve_dc, Method, SolveOptions};
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

fn method_for(index: u8) -> Method {
    match index % 4 {
        0 => Method::Auto,
        1 => Method::DenseLu,
        2 => Method::SparseLu,
        _ => Method::Cg,
    }
}

/// Maps a random signed weight matrix, drives it with `batch_size` random
/// input vectors, and compares per-input [`solve_dc`] against the batched
/// path under the given warm-start policy.
///
/// `rel_tol == 0.0` demands bitwise equality.
fn check_crossbar_equivalence(
    rows: usize,
    cols: usize,
    seed: u64,
    method: Method,
    batch_size: usize,
    warm_start: WarmStart,
    rel_tol: f64,
) {
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

    // Tight CG tolerance keeps even warm-vs-cold iterate differences far
    // below the 1e-12 equivalence bar; serial and batch use identical
    // options, so the cold comparison stays bitwise.
    let solve_options = SolveOptions {
        method,
        cg: CgOptions {
            tolerance: 1e-13,
            ..CgOptions::default()
        },
        ..SolveOptions::default()
    };

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

        let mut prepared = PreparedSystem::build(
            built.circuit(),
            BatchOptions {
                base: solve_options.clone(),
                warm_start,
            },
        )
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
                if rel_tol == 0.0 {
                    assert_eq!(
                        va, vb,
                        "{rows}x{cols} seed {seed} {method:?} input {k} node {node}: \
                         cold batch must be bit-identical"
                    );
                } else {
                    let scale = va.abs().max(vb.abs()).max(1.0);
                    assert!(
                        (va - vb).abs() <= rel_tol * scale,
                        "{rows}x{cols} seed {seed} {method:?} input {k} node {node}: \
                         |{va} - {vb}| > {rel_tol} rel"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cold-started batches replay the serial assembly exactly: bitwise
    /// equality, not approximate, for every method and batch size
    /// (including one and zero).
    #[test]
    fn cold_batch_is_bit_identical_to_serial(
        rows in 1usize..7,
        cols in 1usize..7,
        seed in 0u64..1_000_000,
        method_index in 0u8..4,
        batch_size in 0usize..5,
    ) {
        check_crossbar_equivalence(
            rows, cols, seed, method_for(method_index), batch_size, WarmStart::Cold, 0.0,
        );
    }

    /// Warm-started batches (the default policy) stay within 1e-12 of the
    /// serial solutions.
    #[test]
    fn warm_batch_matches_serial_to_1e12(
        rows in 1usize..7,
        cols in 1usize..7,
        seed in 0u64..1_000_000,
        method_index in 0u8..4,
        batch_size in 1usize..5,
    ) {
        check_crossbar_equivalence(
            rows, cols, seed, method_for(method_index), batch_size, WarmStart::Previous, 1e-12,
        );
    }

    /// The `Nearest` policy is solution-equivalent too — the guess choice
    /// only affects the iteration path, never where it converges.
    #[test]
    fn nearest_batch_matches_serial_to_1e12(
        rows in 1usize..7,
        cols in 1usize..7,
        seed in 0u64..1_000_000,
        batch_size in 1usize..5,
    ) {
        check_crossbar_equivalence(
            rows, cols, seed, Method::Cg, batch_size, WarmStart::Nearest, 1e-12,
        );
    }
}

/// A crossbar past the dense cutoff (`2·rows·cols = 200` unknowns): under
/// `Method::Auto` this now lands on the sparse-direct path, so the CG
/// behavior tests pin `Method::Cg` explicitly.
fn cg_path_crossbar() -> CrossbarSpec {
    CrossbarSpec::uniform(
        10,
        10,
        Resistance::from_kilo_ohms(10.0),
        Resistance::from_ohms(2.0),
        Resistance::from_ohms(500.0),
        Voltage::from_volts(1.0),
    )
}

/// Smoothly varying input batches: the correlated case warm starts are
/// built for.
fn correlated_batch(xbar: &mnsim::circuit::CrossbarCircuit, entries: usize) -> Vec<Rhs> {
    let rows = xbar.spec().rows;
    (0..entries)
        .map(|k| {
            let drive: Vec<Voltage> = (0..rows)
                .map(|r| {
                    Voltage::from_volts(
                        0.5 + 0.4 * ((r as f64) / rows as f64 + 0.07 * k as f64).sin(),
                    )
                })
                .collect();
            xbar.input_rhs(&drive).expect("arity matches")
        })
        .collect()
}

#[test]
fn warm_start_iteration_counts_drop_below_cold_on_correlated_batch() {
    let session = obs::session();
    let built = cg_path_crossbar().build().unwrap();
    let batch = correlated_batch(&built, 6);

    let run = |warm_start: WarmStart| {
        let mut prepared = PreparedSystem::build(
            built.circuit(),
            BatchOptions {
                base: SolveOptions {
                    method: Method::Cg,
                    ..SolveOptions::default()
                },
                warm_start,
            },
        )
        .unwrap();
        assert!(prepared.uses_cg(), "pinned Method::Cg must take the CG path");
        solve_dc_batch(&mut prepared, built.circuit(), &batch).unwrap();
        prepared.last_cg_iterations().to_vec()
    };

    let cold = run(WarmStart::Cold);
    let before_warm = session.snapshot();
    let warm = run(WarmStart::Previous);
    let after_warm = session.snapshot();

    assert_eq!(cold.len(), batch.len());
    assert_eq!(warm.len(), batch.len());
    // The first solve has no history: identical work. Every later solve
    // starts near its neighbor and must converge in strictly fewer
    // iterations than from zero.
    assert_eq!(cold[0], warm[0]);
    for k in 1..batch.len() {
        assert!(
            warm[k] < cold[k],
            "solve {k}: warm {} !< cold {}",
            warm[k],
            cold[k]
        );
    }

    // The observability layer saw the same story: the warm run's recorded
    // iteration total matches the per-solve counters and stays below the
    // cold total.
    let warm_counter = after_warm.counter("circuit.batch.cg_iterations")
        - before_warm.counter("circuit.batch.cg_iterations");
    assert_eq!(warm_counter, warm.iter().sum::<usize>() as u64);
    assert!(warm_counter < cold.iter().sum::<usize>() as u64);
    let warm_starts = after_warm.counter("circuit.batch.warm_starts")
        - before_warm.counter("circuit.batch.warm_starts");
    assert_eq!(warm_starts, (batch.len() - 1) as u64);
}

#[test]
fn orthogonal_batch_converges_within_cg_caps() {
    let _session = obs::session();
    // Adversarial case: every entry drives a different single word line, so
    // the previous solution is a poor guess. Warm starts must still land
    // inside the default CgOptions caps — never worse than cold except for
    // the bounded retry — and agree with the serial answers.
    let built = cg_path_crossbar().build().unwrap();
    let rows = built.spec().rows;
    let batch: Vec<Rhs> = (0..rows)
        .map(|active| {
            let drive: Vec<Voltage> = (0..rows)
                .map(|r| Voltage::from_volts(if r == active { 1.0 } else { 0.0 }))
                .collect();
            built.input_rhs(&drive).expect("arity matches")
        })
        .collect();

    let cg_options = SolveOptions {
        method: Method::Cg,
        ..SolveOptions::default()
    };
    for warm_start in [WarmStart::Previous, WarmStart::Nearest] {
        let mut prepared = PreparedSystem::build(
            built.circuit(),
            BatchOptions {
                base: cg_options.clone(),
                warm_start,
            },
        )
        .unwrap();
        let solutions = solve_dc_batch(&mut prepared, built.circuit(), &batch).unwrap();
        // Resolve the default cap against the system size (2·rows² unknowns).
        let cap = CgOptions::default().max_iterations.resolve(2 * rows * rows);
        for (k, &iterations) in prepared.last_cg_iterations().iter().enumerate() {
            assert!(
                iterations <= cap,
                "{warm_start:?} solve {k}: {iterations} iterations exceed the cap {cap}"
            );
        }
        // And the answers are still the serial answers.
        for (k, solution) in solutions.iter().enumerate() {
            let drive: Vec<Voltage> = (0..rows)
                .map(|r| Voltage::from_volts(if r == k { 1.0 } else { 0.0 }))
                .collect();
            let serial_circuit = built.circuit().with_source_voltages(&drive).unwrap();
            let serial = solve_dc(&serial_circuit, &cg_options).unwrap();
            for (&va, &vb) in serial.voltages().iter().zip(solution.voltages()) {
                // Both runs stop at the default 1e-10 residual tolerance
                // from different starting points, so the solutions agree to
                // tolerance × conditioning, not to machine precision.
                let scale = va.abs().max(vb.abs()).max(1.0);
                assert!((va - vb).abs() <= 1e-7 * scale, "solve {k}: {va} vs {vb}");
            }
        }
    }
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
    let dense_spec = CrossbarSpec::uniform(
        4,
        4,
        Resistance::from_kilo_ohms(10.0),
        Resistance::from_ohms(2.0),
        Resistance::from_ohms(500.0),
        Voltage::from_volts(1.0),
    );
    let sparse_spec = cg_path_crossbar();
    let cg_options = BatchOptions {
        base: SolveOptions {
            method: Method::Cg,
            ..SolveOptions::default()
        },
        ..BatchOptions::default()
    };

    let cases = [
        (dense_spec, BatchOptions::default(), EngineKind::Dense),
        (
            sparse_spec.clone(),
            BatchOptions::default(),
            EngineKind::SparseDirect,
        ),
        (sparse_spec, cg_options, EngineKind::Iterative),
    ];
    for (spec, options, expect_engine) in cases {
        let built = spec.build().unwrap();
        let mut prepared = PreparedSystem::build(built.circuit(), options).unwrap();
        assert_eq!(prepared.engine_kind(), expect_engine);

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
    let spec = cg_path_crossbar();
    let options = BatchOptions::default();
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

/// The Auto dispatch is a pure function of structure size: the same spec
/// always lands on the same engine, and the dense→sparse cutoff sits at
/// 96 unknowns (`2·rows·cols` for a dual-rail crossbar).
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
    // (rows, cols, expected engine): 6x6 → 72 unknowns (< 96, dense);
    // 6x8 → 96 unknowns (at the cutoff, sparse); 16x16 → 512 (sparse).
    let cases = [
        (6, 6, EngineKind::Dense),
        (6, 8, EngineKind::SparseDirect),
        (16, 16, EngineKind::SparseDirect),
    ];
    for (rows, cols, expected) in cases {
        // Build twice: the choice must be identical run-to-run.
        for _ in 0..2 {
            let built = spec_for(rows, cols).build().unwrap();
            let prepared =
                PreparedSystem::build(built.circuit(), BatchOptions::default()).unwrap();
            assert_eq!(
                prepared.engine_kind(),
                expected,
                "{rows}x{cols} crossbar dispatched to {:?}",
                prepared.engine_kind()
            );
        }
    }
}
