//! Solver-equivalence lockdown for the one solver handle
//! ([`mnsim::circuit::Solver`]).
//!
//! Three contracts, each enforced here:
//!
//! 1. **Equivalence** — [`Solver::solve_batch`] produces bit-identical node
//!    voltages to per-input [`solve_dc`] on a re-driven circuit: the batch
//!    replays the exact serial assembly and arithmetic, and every read is a
//!    backsolve on the held factorization. Randomized over crossbar shapes,
//!    signed weights, and batch sizes including one and zero.
//! 2. **No stale answer** — one handle handed any sequence of circuits
//!    (value overlays, resamples, re-driven reads, a change of size, linear
//!    and sinh cells, at 32 and 200 unknowns) answers each exactly as a
//!    fresh one-shot solve of that circuit does, voltages and currents bit
//!    for bit. The handle keeps no key beside its workspace, which
//!    refactors on a value change and re-maps on a structure change.
//! 3. **The structure rule** — a structure is the matrix dimension plus
//!    the stamp coordinates, and a new one is checked for islands: a
//!    resistor island, or an isolated node that adds an unknown and no
//!    stamp, is `SingularSystem` on a handle that solved the healthy
//!    circuit first, as it is on a fresh one.
//!
//! Every test holds the [`mnsim::obs::session`] lock while it runs solver
//! code, so no test's counters can leak into another's measured window.

use mnsim::circuit::crossbar::{CrossbarCircuit, CrossbarSpec};
use mnsim::circuit::solve::{solve_dc, Rhs, Solver};
use mnsim::circuit::{Circuit, CircuitError, DcSolution};
use mnsim::core::config::Config;
use mnsim::core::netlist_gen::{input_drive_voltages, map_weights};
use mnsim::nn::tensor::Tensor;
use mnsim::obs;
use mnsim::tech::fault::{FaultMap, FaultRates};
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
    // Ohmic cells keep the circuits linear, so the held factor — not the
    // per-read Newton solve — is what this test exercises.
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

        let batched = Solver::default()
            .solve_batch(built.circuit(), &batch)
            .expect("batch solves");
        assert_eq!(batched.len(), batch_size);

        for (k, x) in inputs.iter().enumerate() {
            let drive = input_drive_voltages(&config, x);
            let serial_circuit = built
                .circuit()
                .with_source_voltages(&drive)
                .expect("arity matches");
            let serial = solve_dc(&serial_circuit).expect("serial solves");
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

/// Voltages and currents of a solution, as bits.
fn solution_bits(circuit: &Circuit, solution: &DcSolution) -> (Vec<u64>, Vec<u64>) {
    let voltages = solution.voltages().iter().map(|v| v.to_bits()).collect();
    let currents = (0..circuit.elements().len())
        .map(|e| solution.element_current(e).amperes().to_bits())
        .collect();
    (voltages, currents)
}

/// `Ok` when both sides are the same error, or solutions with the same
/// bits.
fn same(
    circuit: &Circuit,
    got: Result<&DcSolution, &CircuitError>,
    want: Result<&DcSolution, &CircuitError>,
) -> Result<(), String> {
    match (got, want) {
        (Ok(g), Ok(w)) if solution_bits(circuit, g) == solution_bits(circuit, w) => Ok(()),
        (Err(g), Err(w)) if g == w => Ok(()),
        (got, want) => Err(format!(
            "handle {:?} against one-shot {:?}",
            got.err(),
            want.err()
        )),
    }
}

/// The crossbar a step of [`one_handle_never_solves_stale`] works on: its
/// edge (4 for 32 unknowns, 10 for 200), its cells and its overlay.
#[derive(Debug, Clone)]
struct Array {
    spec: CrossbarSpec,
    map: Option<FaultMap>,
}

impl Array {
    /// A `size`×`size` array of `iv` cells with states drawn from
    /// `[5 kΩ, 20 kΩ)` and inputs from `[0.2, 1.0)` V.
    fn new(size: usize, iv: IvModel, state: &mut u64) -> Array {
        let mut spec = CrossbarSpec::uniform(
            size,
            size,
            Resistance::from_kilo_ohms(10.0),
            Resistance::from_ohms(2.0),
            Resistance::from_ohms(500.0),
            Voltage::from_volts(1.0),
        );
        spec.iv = iv;
        let mut array = Array { spec, map: None };
        array.resample(state);
        for input in &mut array.spec.inputs {
            *input = Voltage::from_volts(0.2 + 0.8 * uniform(state));
        }
        array
    }

    /// New cell states, same structure.
    fn resample(&mut self, state: &mut u64) {
        for cell in &mut self.spec.states {
            *cell = Resistance::from_ohms(5_000.0 + 15_000.0 * uniform(state));
        }
    }

    fn build(&self) -> CrossbarCircuit {
        let spec = self.spec.clone();
        match &self.map {
            Some(map) => spec.with_faults(
                map.clone(),
                Resistance::from_mega_ohms(1.0),
                Resistance::from_ohms(500.0),
            ),
            None => spec,
        }
        .build()
        .expect("valid crossbar")
    }

    /// `count` seeded reads of the array.
    fn reads(&self, count: usize, state: &mut u64) -> Vec<Vec<Voltage>> {
        (0..count)
            .map(|_| {
                (0..self.spec.rows)
                    .map(|_| Voltage::from_volts(1.2 * uniform(state)))
                    .collect()
            })
            .collect()
    }
}

/// Runs one seeded sequence of `steps` circuits through one handle and
/// checks every answer against a fresh one-shot solve; `Err` names the
/// first step that differs.
fn run_sequence(seed: u64, steps: usize) -> Result<(), String> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let kind = |state: &mut u64| {
        let size = if uniform(state) < 0.5 { 4 } else { 10 };
        let iv = if uniform(state) < 0.5 {
            IvModel::Linear
        } else {
            IvModel::Sinh {
                alpha: 1.0 + 3.0 * uniform(state),
            }
        };
        (size, iv)
    };
    let (size, iv) = kind(&mut state);
    let mut array = Array::new(size, iv, &mut state);
    let mut handle = Solver::default();
    for step in 0..steps {
        let what = (uniform(&mut state) * 5.0) as usize;
        match what {
            // A new array: a change of size or of cell kind, or both.
            0 => {
                let (size, iv) = kind(&mut state);
                array = Array::new(size, iv, &mut state);
            }
            // A stuck-cell overlay.
            1 => {
                let size = array.spec.rows;
                let map = FaultMap::generate(
                    size,
                    size,
                    &FaultRates::stuck_at(0.3 * uniform(&mut state)),
                    seed ^ step as u64,
                )
                .expect("valid rates");
                array.map = Some(map);
            }
            // Resampled cell states.
            2 => array.resample(&mut state),
            _ => {}
        }
        let built = array.build();
        let circuit = built.circuit();
        let context = |e: String| {
            format!(
                "step {step} ({what}), {}x{}: {e}",
                array.spec.rows, array.spec.rows
            )
        };
        if what == 3 {
            // Re-driven reads, one to ten: ten cross the eight-read block.
            let count = 1 + (uniform(&mut state) * 10.0) as usize;
            let reads = array.reads(count, &mut state);
            let batch: Vec<Rhs> = reads
                .iter()
                .map(|r| built.input_rhs(r).expect("arity matches"))
                .collect();
            let got = handle.solve_batch(circuit, &batch);
            let want: Result<Vec<DcSolution>, CircuitError> = reads
                .iter()
                .map(|r| solve_dc(&circuit.with_source_voltages(r).expect("arity matches")))
                .collect();
            match (&got, &want) {
                (Ok(got), Ok(want)) => {
                    for (k, (g, w)) in got.iter().zip(want).enumerate() {
                        same(circuit, Ok(g), Ok(w))
                            .map_err(|e| context(format!("read {k}: {e}")))?;
                    }
                }
                (got, want) => same(
                    circuit,
                    got.as_ref().map(|g| &g[0]),
                    want.as_ref().map(|w| &w[0]),
                )
                .map_err(context)?,
            }
        } else {
            let got = handle.solve(circuit);
            let want = solve_dc(circuit);
            same(circuit, got.as_ref(), want.as_ref()).map_err(context)?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// One handle answers a seeded sequence of circuits — value overlays,
    /// resamples, re-driven reads, new arrays of 32 or 200 unknowns with
    /// linear or sinh cells — exactly as fresh one-shot solves do.
    #[test]
    fn one_handle_never_solves_stale(seed in 0u64..1_000_000, steps in 4usize..12) {
        let _session = obs::session();
        prop_assert_eq!(run_sequence(seed, steps), Ok(()));
    }
}

/// Each of the 500 seeded resistor-island circuits of the crate's
/// `grounded_circuits_with_a_resistor_island_are_singular` — a grounded
/// 1 V divider beside three to six nodes joined by resistors of
/// 10 Ω–100 kΩ — is `SingularSystem` on a handle that first solved the
/// divider alone. Its structure is new, so the island check runs again.
#[test]
fn island_circuits_are_singular_on_a_warm_handle() {
    let _session = obs::session();
    let mut divider = Circuit::new();
    let top = divider.add_node();
    let mid = divider.add_node();
    divider
        .add_voltage_source(top, Circuit::GROUND, Voltage::from_volts(1.0))
        .unwrap();
    divider
        .add_resistor(top, mid, Resistance::from_kilo_ohms(1.0))
        .unwrap();
    divider
        .add_resistor(mid, Circuit::GROUND, Resistance::from_kilo_ohms(1.0))
        .unwrap();
    for seed in 0..500u64 {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut c = divider.clone();
        let island: Vec<usize> = (0..3 + below(&mut state, 4))
            .map(|_| c.add_node())
            .collect();
        let resistor = |c: &mut Circuit, state: &mut u64, n1: usize, n2: usize| {
            let r = Resistance::from_ohms(10.0 * 10f64.powf(4.0 * uniform(state)));
            c.add_resistor(n1, n2, r).unwrap();
        };
        // A random tree over the island, then extra resistors.
        for k in 1..island.len() {
            let to = island[below(&mut state, k)];
            resistor(&mut c, &mut state, island[k], to);
        }
        for _ in 0..below(&mut state, island.len()) {
            let n1 = below(&mut state, island.len());
            let n2 = below(&mut state, island.len());
            if n1 != n2 {
                resistor(&mut c, &mut state, island[n1], island[n2]);
            }
        }
        let mut handle = Solver::default();
        assert_eq!(handle.solve(&divider).unwrap().voltage(mid).volts(), 0.5);
        assert!(
            matches!(handle.solve(&c), Err(CircuitError::SingularSystem { .. })),
            "seed {seed}"
        );
    }
}

/// Uniform in `0..n` from the same xorshift step as [`uniform`], as the
/// crate's tests draw it.
fn below(state: &mut u64, n: usize) -> usize {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    ((*state >> 11) % n as u64) as usize
}

/// The circuit of `tests/klu.rs`'s `floating_node_is_a_typed_singular_error`
/// — a 3×3 crossbar plus one node no element touches — is `SingularSystem`
/// on a handle that first solved the same crossbar without it. The extra
/// unknown adds no stamp, so only the dimension tells the structures
/// apart; without it the handle would backsolve a right-hand side one
/// entry longer than its factor.
#[test]
fn isolated_node_is_singular_on_a_warm_handle() {
    let _session = obs::session();
    let mut state = 42u64.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut spec = CrossbarSpec::uniform(
        3,
        3,
        Resistance::from_kilo_ohms(10.0),
        Resistance::from_ohms(2.0),
        Resistance::from_ohms(500.0),
        Voltage::from_volts(1.0),
    );
    for cell in &mut spec.states {
        *cell = Resistance::from_ohms(5_000.0 + 15_000.0 * uniform(&mut state));
    }
    for input in &mut spec.inputs {
        *input = Voltage::from_volts(0.2 + 0.8 * uniform(&mut state));
    }
    let built = spec.build().unwrap();
    let mut isolated = built.circuit().clone();
    isolated.add_node();
    let mut handle = Solver::default();
    handle.solve(built.circuit()).unwrap();
    assert!(matches!(
        handle.solve(&isolated),
        Err(CircuitError::SingularSystem { .. })
    ));
    // And the handle still answers the crossbar afterwards.
    let again = handle.solve(built.circuit()).unwrap();
    let fresh = solve_dc(built.circuit()).unwrap();
    assert_eq!(
        solution_bits(built.circuit(), &again),
        solution_bits(built.circuit(), &fresh)
    );
}
