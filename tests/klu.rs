//! Integration lockdown for the sparse LDLᵀ direct solver
//! ([`mnsim::circuit::ldl`]): the sparse path must agree with a dense-LU
//! nodal reference to near machine precision, the cached symbolic analysis (elimination tree
//! and column counts) must match a dense symbolic elimination, value-only
//! refactorization must be bit-identical to a fresh factorization, singular
//! systems must surface as typed errors (never NaN or a hang), and every
//! repeated solve of one structure — Newton and chord steps, transient
//! steps, batch reads on one handle and fault trials — must analyze it once
//! and refactor in place, or, for a chord step, backsolve on the held
//! factor. The circuits of one validation share one analysis per pattern,
//! and a factor over a shared analysis is bit-identical to a fresh one. The symbolic, refactor and typed-error checks run on
//! both numeric kernels: the up-looking one below the supernodal switch
//! and the supernodal one above it (`solver.klu.supernodal` counts the
//! latter). The counters keep their `solver.klu.*` names.
//!
//! Every test holds the [`mnsim::obs::session`] lock while it runs solver
//! code, so no test's counters can leak into another's measured window.

mod common;

use mnsim::circuit::crossbar::CrossbarSpec;
use mnsim::circuit::kcl_residual;
use mnsim::circuit::solve::{solve_dc, Rhs, Solver};
use mnsim::circuit::sparse::CscMatrix;
use mnsim::circuit::sparse::TripletMatrix;
use mnsim::circuit::transient::{solve_transient, TransientOptions};
use mnsim::circuit::CircuitError;
use mnsim::circuit::{analyze, Element, SharedAnalyses, SparseLdl, SymbolicAnalysis};
use mnsim::core::config::Config;
use mnsim::core::fault_sim::FaultConfig;
use mnsim::core::Simulator;
use mnsim::obs;
use mnsim::tech::fault::FaultRates;
use mnsim::tech::memristor::IvModel;
use mnsim::tech::units::{Capacitance, Resistance, Time, Voltage};
use proptest::prelude::*;
use std::sync::Arc;

/// Deterministic xorshift uniform in `[0, 1)`.
fn uniform(state: &mut u64) -> f64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// A crossbar whose cell states are drawn from `[5 kΩ, 20 kΩ)` — every
/// cell different, so the reduced system has no accidental symmetry.
fn random_crossbar(rows: usize, cols: usize, seed: u64) -> CrossbarSpec {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut spec = CrossbarSpec::uniform(
        rows,
        cols,
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
    spec
}

/// A random symmetric diagonally dominant sparse matrix in CSC form —
/// the shape every reduced crossbar nodal system has. Its factor stays
/// below the supernodal switch.
fn random_sdd_csc(n: usize, seed: u64) -> CscMatrix {
    sdd_csc(n, 3.0 / n as f64, seed)
}

/// A symmetric diagonally dominant matrix whose graph has each edge with
/// probability `density`.
fn sdd_csc(n: usize, density: f64, seed: u64) -> CscMatrix {
    let mut state = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
    let mut diag = vec![1e-3f64; n]; // ground leak keeps every pivot alive
    let mut triplets = TripletMatrix::new(n, n);
    for i in 0..n {
        for j in (i + 1)..n {
            if uniform(&mut state) < density {
                let g = 1e-4 + uniform(&mut state) * 1e-3;
                triplets.add(i, j, -g);
                triplets.add(j, i, -g);
                diag[i] += g;
                diag[j] += g;
            }
        }
    }
    for (i, &d) in diag.iter().enumerate() {
        triplets.add(i, i, d);
    }
    triplets.to_csc()
}

/// Whether the analysis crosses the supernodal switch: the work per entry
/// of `L`, `Σⱼ cⱼ² / nnz(L)`, is at least 40.
fn above_the_switch(analysis: &SymbolicAnalysis) -> bool {
    let counts = analysis.column_counts();
    let work: usize = counts.iter().map(|&c| c * c).sum();
    work >= 40 * analysis.l_nnz()
}

/// `a` with its values mapped by `f(row, col, value)`, pattern kept: a
/// zero result stays a stored entry (two stamps that cancel exactly).
fn with_values(a: &CscMatrix, f: impl Fn(usize, usize, f64) -> f64) -> CscMatrix {
    let mut t = TripletMatrix::new(a.rows(), a.cols());
    for col in 0..a.cols() {
        for k in a.col_ptr()[col]..a.col_ptr()[col + 1] {
            let row = a.row_idx()[k];
            let value = f(row, col, a.values()[k]);
            if value == 0.0 {
                t.add(row, col, 1.0);
                t.add(row, col, -1.0);
            } else {
                t.add(row, col, value);
            }
        }
    }
    t.to_csc()
}

/// Structural invariants of the cached symbolic analysis of `a`: the
/// ordering is a permutation, every elimination-tree parent is a later
/// column, and the tree and the column counts of `L` equal those of a
/// dense symbolic elimination of `P·A·Pᵀ` — which is exactly the fill the
/// numeric factor stores. The factor reproduces `A` (checked through
/// `(LDLᵀ)⁻¹·A·x = x` on a known solution).
fn check_symbolic_invariants(a: &CscMatrix, seed: u64) -> SymbolicAnalysis {
    let n = a.rows();
    let analysis = analyze(a);
    assert_eq!(analysis.n(), n);
    assert!(analysis.compatible_with(a));

    let perm = analysis.perm();
    let mut seen = vec![false; n];
    for &p in perm {
        assert!(p < n, "index {p} out of range");
        assert!(!seen[p], "index {p} repeated");
        seen[p] = true;
    }

    // Dense symbolic elimination of the permuted pattern: eliminating
    // column k joins every pair of its below-diagonal rows.
    let dense = a.to_dense();
    let mut filled: Vec<Vec<bool>> = (0..n)
        .map(|i| (0..n).map(|j| dense[perm[i]][perm[j]] != 0.0).collect())
        .collect();
    for k in 0..n {
        let below: Vec<usize> = ((k + 1)..n).filter(|&i| filled[i][k]).collect();
        for &i in &below {
            for &j in &below {
                filled[i][j] = true;
            }
        }
    }
    let counts = analysis.column_counts();
    for k in 0..n {
        let first_below = ((k + 1)..n).find(|&i| filled[i][k]);
        assert_eq!(
            analysis.parent(k),
            first_below,
            "etree parent of column {k}"
        );
        if let Some(p) = analysis.parent(k) {
            assert!(p > k, "parent {p} of column {k} is not later");
        }
        let fill = ((k + 1)..n).filter(|&i| filled[i][k]).count();
        assert_eq!(counts[k], fill, "column count of column {k}");
    }

    let ldl = SparseLdl::factor_with(a, Arc::new(analysis.clone())).expect("SDD matrix factorizes");
    assert_eq!(ldl.factor_nnz(), analysis.l_nnz() + n);
    let mut state = seed | 1;
    let x_true: Vec<f64> = (0..n).map(|_| uniform(&mut state) * 2.0 - 1.0).collect();
    let b = a.mul_vec(&x_true);
    let x = ldl.solve(&b);
    for (i, (&xt, &xs)) in x_true.iter().zip(&x).enumerate() {
        let scale = xt.abs().max(xs.abs()).max(1.0);
        assert!(
            (xt - xs).abs() <= 1e-8 * scale,
            "n {n} seed {seed} unknown {i}: {xt} vs {xs}"
        );
    }
    analysis
}

/// `refactor` of `a` with unchanged values — and with changed values on
/// the same pattern — produces solves bit-identical to a from-scratch
/// factorization, and a different pattern is refused with a typed error
/// instead of being silently re-analyzed. So does a factor over an
/// analysis shared by `sharers` threads ([`check_shared_analysis`]).
fn check_refactor_bit_identity(a: &CscMatrix, seed: u64, sharers: usize) {
    let n = a.rows();
    // Same pattern, scaled values: what a fault overlay or reprogram does
    // to the reduced system.
    let scaled = with_values(a, |_, _, v| v * 1.75);
    let mut state = seed.wrapping_add(17) | 1;
    let b: Vec<f64> = (0..n).map(|_| uniform(&mut state) * 2.0 - 1.0).collect();
    let bits = |x: Vec<f64>| x.into_iter().map(f64::to_bits).collect::<Vec<_>>();

    let mut ldl = SparseLdl::factor(a).expect("factors");
    ldl.refactor(a).expect("same values refactor");
    let fresh = SparseLdl::factor(a).expect("factors");
    assert_eq!(
        bits(ldl.solve(&b)),
        bits(fresh.solve(&b)),
        "unchanged-value refactor drifted"
    );

    ldl.refactor(&scaled).expect("scaled values refactor");
    let fresh_scaled = SparseLdl::factor(&scaled).expect("factors");
    assert_eq!(
        bits(ldl.solve(&b)),
        bits(fresh_scaled.solve(&b)),
        "refactored solve drifted"
    );

    let diagonal = {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.add(i, i, 1.0);
        }
        t.to_csc()
    };
    if a.nnz() > n {
        assert_eq!(ldl.refactor(&diagonal), Err(CircuitError::PatternMismatch));
    }
    check_shared_analysis([a, &scaled], &b, sharers);
}

/// `sharers` threads at once factor the two same-pattern matrices of
/// `pair` in turn, each over the analysis a [`SharedAnalyses`] set hands
/// out: the set analyzes the pattern once, and every factor solves `b`
/// bit-identically to a fresh [`SparseLdl::factor`] of its matrix.
fn check_shared_analysis(pair: [&CscMatrix; 2], b: &[f64], sharers: usize) {
    let bits = |x: Vec<f64>| x.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    let fresh = pair.map(|m| bits(SparseLdl::factor(m).expect("factors").solve(b)));
    let set = SharedAnalyses::default();
    let before = obs::snapshot().counter("solver.klu.analyses");
    let shared: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..sharers)
            .map(|k| {
                let (m, set) = (pair[k % 2], &set);
                scope.spawn(move || {
                    let ldl = SparseLdl::factor_with(m, set.analysis_of(m)).expect("factors");
                    bits(ldl.solve(b))
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().expect("sharer"))
            .collect()
    });
    assert_eq!(obs::snapshot().counter("solver.klu.analyses") - before, 1);
    for (k, solved) in shared.iter().enumerate() {
        assert_eq!(
            solved,
            &fresh[k % 2],
            "sharer {k} drifted from a fresh factor"
        );
    }
}

// The cheap properties: small systems on the up-looking kernel.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The sparse-direct `solve_dc` and a dense-LU nodal reference
    /// ([`common::dense_nodal_voltages`]) agree within 1e-10 relative on
    /// random crossbar structures up to 72 unknowns (`2·rows·cols`).
    #[test]
    fn sparse_direct_matches_dense_lu_within_1e10(
        rows in 1usize..7,
        cols in 1usize..7,
        seed in 0u64..1_000_000,
    ) {
        let _session = obs::session();
        let built = random_crossbar(rows, cols, seed).build().expect("valid crossbar");
        let sparse = solve_dc(built.circuit()).expect("SDD system solves");
        let dense = common::dense_nodal_voltages(built.circuit());
        for (node, (&vs, &vd)) in sparse.voltages().iter().zip(&dense).enumerate() {
            let scale = vs.abs().max(vd.abs()).max(1.0);
            prop_assert!(
                (vs - vd).abs() <= 1e-10 * scale,
                "{rows}x{cols} seed {seed} node {node}: sparse {vs} vs dense {vd}"
            );
        }
    }

    /// Structural invariants of the cached symbolic analysis on sparse
    /// SDD matrices, which stay on the up-looking kernel
    /// ([`check_symbolic_invariants`]).
    #[test]
    fn symbolic_analysis_invariants_hold(
        n in 2usize..48,
        seed in 0u64..1_000_000,
    ) {
        let _session = obs::session();
        check_symbolic_invariants(&random_sdd_csc(n, seed), seed);
    }

    /// Refactor and shared-analysis bit-identity on the up-looking kernel
    /// ([`check_refactor_bit_identity`]).
    #[test]
    fn refactor_is_bit_identical_to_fresh_factorization(
        n in 2usize..40,
        seed in 0u64..1_000_000,
        sharers in 1usize..4,
    ) {
        let _session = obs::session();
        check_refactor_bit_identity(&random_sdd_csc(n, seed), seed, sharers);
    }
}

// The heavier properties: dense symbolic references and systems above
// the supernodal switch.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The same invariants above the supernodal switch, where the analysis
    /// postorders the elimination tree into the permutation.
    #[test]
    fn symbolic_analysis_invariants_hold_above_the_switch(
        n in 120usize..200,
        density in 0.2f64..0.5,
        seed in 0u64..1_000_000,
    ) {
        let _session = obs::session();
        let analysis = check_symbolic_invariants(&sdd_csc(n, density, seed), seed);
        prop_assert!(above_the_switch(&analysis), "n {n} density {density} stayed below the switch");
    }

    /// Refactor and shared-analysis bit-identity on the supernodal kernel.
    #[test]
    fn refactor_is_bit_identical_to_fresh_factorization_above_the_switch(
        n in 120usize..200,
        density in 0.2f64..0.5,
        seed in 0u64..1_000_000,
        sharers in 1usize..4,
    ) {
        let session = obs::session();
        let a = sdd_csc(n, density, seed);
        prop_assert!(above_the_switch(&analyze(&a)), "n {n} density {density} stayed below the switch");
        check_refactor_bit_identity(&a, seed, sharers);
        let snap = session.snapshot();
        prop_assert_eq!(
            snap.counter("solver.klu.supernodal"),
            snap.counter("solver.klu.factors") + snap.counter("solver.klu.refactor")
        );
    }

    /// Conservation on both kernels (16×16 runs up-looking, 64×64
    /// supernodal), with linear and sinh cells: the current the sources
    /// deliver leaves through the sense resistors, and every internal node
    /// obeys KCL.
    #[test]
    fn crossbar_currents_are_conserved_on_both_kernels(
        large in 0usize..2,
        sinh in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let session = obs::session();
        let size = if large == 1 { 64 } else { 16 };
        let mut spec = random_crossbar(size, size, seed);
        if sinh == 1 {
            spec.iv = IvModel::Sinh { alpha: 2.5 };
        }
        let built = spec.build().expect("valid crossbar");
        let circuit = built.circuit();
        let solution = solve_dc(circuit).expect("crossbar solves");
        let delivered: f64 = circuit
            .elements()
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e, Element::VoltageSource { .. }))
            .map(|(idx, _)| -solution.element_current(idx).amperes())
            .sum();
        let sensed: f64 = (0..size)
            .map(|col| solution.element_current(built.sense_element(col)).amperes())
            .sum();
        prop_assert!(
            (delivered - sensed).abs() <= 1e-9,
            "{size}x{size} sinh {sinh} seed {seed}: sources deliver {delivered} A, sense resistors carry {sensed} A"
        );
        let residual = kcl_residual(circuit, &solution);
        prop_assert!(residual <= 1e-9, "{size}x{size} sinh {sinh} seed {seed}: KCL residual {residual:e} A");
        prop_assert_eq!(session.snapshot().counter("solver.klu.supernodal") > 0, size == 64);
    }
}

/// Zero, negative and NaN pivots in a column inside a supernode are typed
/// errors naming that column's unknown — from a fresh factorization and
/// from a refactor, which then recovers — and a different pattern is
/// still refused.
#[test]
fn bad_pivots_inside_a_supernode_are_typed() {
    let _session = obs::session();
    let n = 160;
    let a = sdd_csc(n, 0.25, 9);
    let analysis = Arc::new(analyze(&a));
    assert!(above_the_switch(&analysis));
    // Column k shares a supernode with column k − 1 when k − 1 is its only
    // child and column k has one entry fewer below the diagonal.
    let counts = analysis.column_counts();
    let inside = (n / 2..n)
        .find(|&k| {
            analysis.parent(k - 1) == Some(k)
                && counts[k - 1] == counts[k] + 1
                && (0..n).filter(|&j| analysis.parent(j) == Some(k)).count() == 1
        })
        .expect("a dense factor has a wide supernode");
    let u = analysis.perm()[inside];

    let zero = with_values(&a, |r, c, v| if r == u || c == u { 0.0 } else { v });
    let negative = with_values(&a, |r, c, v| if r == u && c == u { -1.0 } else { v });
    let nan = with_values(&a, |r, c, v| if r == u && c == u { f64::NAN } else { v });
    let b = vec![1.0; n];
    let mut ldl = SparseLdl::factor_with(&a, Arc::clone(&analysis)).expect("factors");
    let want = ldl.solve(&b);
    for (what, bad) in [("zero", &zero), ("negative", &negative), ("NaN", &nan)] {
        assert_eq!(
            SparseLdl::factor_with(bad, Arc::clone(&analysis)).err(),
            Some(CircuitError::SingularSystem { at: u }),
            "{what} pivot from a fresh factorization"
        );
        assert_eq!(
            ldl.refactor(bad),
            Err(CircuitError::SingularSystem { at: u }),
            "{what} pivot from a refactor"
        );
        ldl.refactor(&a).expect("good values refactor again");
        assert_eq!(ldl.solve(&b), want, "refactor after a {what} pivot drifted");
    }

    let other = random_sdd_csc(n, 9);
    assert_eq!(ldl.refactor(&other), Err(CircuitError::PatternMismatch));
    assert!(matches!(
        SparseLdl::factor_with(&other, analysis),
        Err(CircuitError::PatternMismatch)
    ));
}

/// A genuinely singular system must come back as the typed
/// [`CircuitError::SingularSystem`] — not NaN voltages and not a hang.
/// The crossbar builder itself models broken lines as 1 TΩ segments
/// precisely to avoid creating one, so the degenerate circuit (a floating
/// node with no DC path anywhere) is built directly here.
#[test]
fn floating_node_is_a_typed_singular_error() {
    let _session = obs::session();
    let built = random_crossbar(3, 3, 42).build().unwrap();
    let mut circuit = built.circuit().clone();
    circuit.add_node(); // no element ever touches it: zero diagonal row

    // The structural island check reports the floating node before any
    // factorization.
    match solve_dc(&circuit) {
        Err(CircuitError::SingularSystem { .. }) => {}
        other => panic!("expected SingularSystem, got {other:?}"),
    }
}

/// Runs a six-trial stuck-at campaign (two reads per trial) on an 8×8
/// array of `iv` cells and returns its counters.
fn fault_campaign_counters(iv: IvModel) -> obs::MetricsSnapshot {
    let session = obs::session();
    let mut config = Config::fully_connected_mlp(&[8, 8]).unwrap();
    config.crossbar_size = 8;
    config.device.iv = iv;
    let fault_config = FaultConfig {
        rates: FaultRates::stuck_at(0.05),
        trials: 6,
        inputs_per_trial: 2,
        // No spare-row repair: defects must survive into the operated
        // circuit, otherwise every trial is identical to the clean array
        // and refactors nothing.
        spare_rows: 0,
        ..FaultConfig::default()
    };
    Simulator::new(config)
        .threads(1)
        .faults(fault_config)
        .run()
        .unwrap();
    session.snapshot()
}

/// Acceptance: per-trial value-only updates in a fault campaign hit the
/// `refactor()` fast path — visible as `solver.klu.refactor` increments —
/// instead of re-analyzing the structure every trial.
#[test]
fn fault_campaign_hits_the_refactor_fast_path() {
    // Ohmic cells keep the trial circuits linear so the sparse engine —
    // not the Newton loop — owns the per-trial solves.
    let snap = fault_campaign_counters(IvModel::Linear);
    assert_eq!(snap.counter("core.fault.trials"), 6);
    // The first trial factors cold; each later trial's fault map is a
    // value-only change on the same structure, so all five must refactor
    // the held factorization in place (the second read of each trial is a
    // backsolve on that factor, which the numeric factor never sees).
    assert_eq!(
        snap.counter("solver.klu.refactor"),
        5,
        "trials after the first must hit the refactor fast path",
    );
    // One analysis per structure owner: the clean reference solve, the
    // clean extra-read handle, and the trial handle.
    assert_eq!(snap.counter("solver.klu.analyses"), 3);
    // And refreshing is strictly cheaper than re-analyzing: symbolic
    // analyses stay well below one per trial solve.
    assert!(snap.counter("solver.klu.analyses") < snap.counter("solver.klu.solves"));
}

/// The same campaign on sinh cells: every read is a Newton solve, and the
/// per-worker handle keeps its workspace across trials, so each fault map
/// is a value-only overlay that refactors one cached analysis instead of
/// re-analyzing.
#[test]
fn sinh_fault_campaign_refactors_one_analysis_across_trials() {
    let snap = fault_campaign_counters(IvModel::Sinh { alpha: 2.5 });
    assert_eq!(snap.counter("core.fault.trials"), 6);
    // One analysis per structure owner: the clean reference solve, the
    // clean extra-read handle, and the trial handle.
    assert_eq!(snap.counter("solver.klu.analyses"), 3);
    assert_eq!(snap.counter("solver.klu.factors"), 3);
    assert!(
        snap.counter("solver.klu.refactor") >= snap.counter("circuit.solve.newton_iterations"),
        "every Newton iteration must refactor in place",
    );
}

/// An 8×8 array (128 unknowns) of sinh cells.
fn sinh_crossbar(seed: u64) -> CrossbarSpec {
    let mut spec = random_crossbar(8, 8, seed);
    spec.iv = IvModel::Sinh { alpha: 2.5 };
    spec
}

/// A non-linear DC solve analyzes and factors its low-field matrix once,
/// and every chord step is one backsolve on that factor: no refactor.
#[test]
fn newton_solve_factors_once_and_takes_chord_steps_on_it() {
    let session = obs::session();
    let built = sinh_crossbar(11).build().unwrap();
    solve_dc(built.circuit()).expect("Newton converges");

    let snap = session.snapshot();
    let chord_steps = snap.counter("circuit.solve.chord_steps");
    assert!(chord_steps >= 2, "only {chord_steps} chord steps");
    assert_eq!(snap.counter("circuit.solve.newton_iterations"), 0);
    assert_eq!(snap.counter("solver.klu.analyses"), 1);
    assert_eq!(snap.counter("solver.klu.factors"), 1);
    assert_eq!(snap.counter("solver.klu.refactor"), 0);
    assert_eq!(snap.counter("solver.klu.solves"), chord_steps + 1);
}

/// Five reads of a 64×64 sinh array, handed to a handle as one batch,
/// share one analysis and one factorization, refactor nothing,
/// and take one backsolve pass per lockstep sweep: no more passes than
/// the longest read's chord steps plus the low-field solve.
/// `solver.klu.solves` counts right-hand sides, so it equals the
/// backsolves of the five reads solved one at a time.
#[test]
fn a_batch_of_reads_shares_one_factor_and_one_pass_per_sweep() {
    let mut spec = random_crossbar(64, 64, 41);
    spec.iv = IvModel::Sinh { alpha: 2.5 };
    let built = spec.build().unwrap();
    let circuit = built.circuit();
    let mut state = 64u64;
    let reads: Vec<Vec<Voltage>> = (0..5)
        .map(|_| {
            (0..64)
                .map(|_| Voltage::from_volts(0.2 + 0.8 * uniform(&mut state)))
                .collect()
        })
        .collect();
    let session = obs::session();
    let (mut longest, mut columns) = (0, 0);
    for read in &reads {
        obs::reset();
        solve_dc(&circuit.with_source_voltages(read).unwrap()).unwrap();
        let snap = session.snapshot();
        longest = longest.max(snap.counter("circuit.solve.chord_steps"));
        columns += snap.counter("solver.klu.solves");
    }

    obs::reset();
    let batch: Vec<Rhs> = reads.iter().map(|r| built.input_rhs(r).unwrap()).collect();
    Solver::default().solve_batch(circuit, &batch).unwrap();
    let snap = session.snapshot();
    assert_eq!(snap.counter("solver.klu.analyses"), 1);
    assert_eq!(snap.counter("solver.klu.factors"), 1);
    assert_eq!(snap.counter("solver.klu.refactor"), 0);
    assert_eq!(snap.counter("circuit.solve.newton_iterations"), 0);
    let passes = snap
        .histograms
        .get("circuit.ldl.solve")
        .map_or(0, |h| h.count);
    assert!(
        passes <= longest + 1,
        "{passes} backsolve passes, longest read {longest} chord steps"
    );
    assert_eq!(snap.counter("solver.klu.solves"), columns);
}

/// `solver.klu.supernodal` names the kernel: a 16×16 sinh array stays on
/// the up-looking kernel, while a 64×64 one runs every numeric
/// factorization, fresh or refactor, on the supernodal kernel. A value
/// overlay after the solve drives a refactor through the same workspace.
#[test]
fn supernodal_counter_names_the_kernel() {
    for (size, supernodal) in [(16, false), (64, true)] {
        let session = obs::session();
        let mut spec = random_crossbar(size, size, 31);
        spec.iv = IvModel::Sinh { alpha: 2.5 };
        let clean = spec.build().unwrap();
        spec.states[5] = Resistance::from_kilo_ohms(100.0);
        let overlaid = spec.build().unwrap();
        let mut solver = Solver::default();
        for built in [&clean, &overlaid] {
            let read = [built.input_rhs(&spec.inputs).unwrap()];
            solver
                .solve_batch(built.circuit(), &read)
                .expect("Newton converges");
        }
        let snap = session.snapshot();
        assert_eq!(snap.counter("solver.klu.analyses"), 1);
        let factorizations =
            snap.counter("solver.klu.factors") + snap.counter("solver.klu.refactor");
        assert!(
            factorizations >= 2,
            "{size}x{size}: {factorizations} factorizations"
        );
        let want = if supernodal { factorizations } else { 0 };
        assert_eq!(snap.counter("solver.klu.supernodal"), want, "{size}x{size}");
    }
}

/// A linear RC mesh with a fixed step stamps the same matrix every step:
/// one analysis and one factorization serve the whole run.
#[test]
fn linear_rc_transient_factors_once() {
    let session = obs::session();
    let mut xbar = random_crossbar(8, 8, 5).build().unwrap();
    xbar.add_node_capacitance(Capacitance::from_femtofarads(20.0))
        .unwrap();
    let steps = 40;
    let options = TransientOptions::step_response(Time::from_nanoseconds(5.0), steps);
    solve_transient(xbar.circuit(), &options).unwrap();

    let snap = session.snapshot();
    assert_eq!(snap.counter("solver.klu.analyses"), 1);
    assert_eq!(snap.counter("solver.klu.factors"), 1);
    assert_eq!(snap.counter("solver.klu.refactor"), 0);
    assert_eq!(snap.counter("solver.klu.solves"), steps as u64);
}

/// A non-linear system on one handle shares one analysis across its reads
/// and across a value-only overlay, and still answers exactly like
/// per-read `solve_dc` calls.
#[test]
fn nonlinear_prepared_system_shares_one_analysis_across_reads_and_overlays() {
    let session = obs::session();
    let clean_spec = sinh_crossbar(23);
    let mut faulty_spec = clean_spec.clone();
    faulty_spec.states[13] = Resistance::from_kilo_ohms(100.0);
    let clean = clean_spec.build().unwrap();
    let faulty = faulty_spec.build().unwrap();
    let reads: Vec<Vec<Voltage>> = (0..4)
        .map(|k| {
            (0..8)
                .map(|i| Voltage::from_volts(0.3 + 0.07 * ((i + k) % 8) as f64))
                .collect()
        })
        .collect();
    let rhs: Vec<Rhs> = reads.iter().map(|r| clean.input_rhs(r).unwrap()).collect();

    let mut solver = Solver::default();
    solver.solve_batch(clean.circuit(), &rhs).unwrap();
    let overlaid = solver.solve_batch(faulty.circuit(), &rhs).unwrap();

    let snap = session.snapshot();
    assert_eq!(snap.counter("solver.klu.analyses"), 1);
    assert_eq!(snap.counter("circuit.batch.prepared_builds"), 1);
    // One fresh factorization; the overlay refactors it.
    assert_eq!(snap.counter("solver.klu.factors"), 1);

    for (read, got) in reads.iter().zip(&overlaid) {
        let patched = faulty.circuit().with_source_voltages(read).unwrap();
        let want = solve_dc(&patched).unwrap();
        assert_eq!(got.voltages(), want.voltages());
    }
}

/// One validation analyzes each distinct reduced pattern once, at every
/// thread count. On a 32×32 configuration its eight circuits — two matrix
/// studies, the uniform array, the single cell, the three fit sizes and the
/// transient mesh — reduce to four patterns: the 32×32 one (the matrix
/// studies, the uniform array, the largest fit size and the mesh), the
/// single cell's, and the 8×8 and 16×16 fit sizes'. So eight factors take
/// four analyses, and the rows do not depend on the thread count.
#[test]
fn validation_analyzes_each_pattern_once_at_every_thread_count() {
    let mut config = Config::fully_connected_mlp(&[32, 32]).unwrap();
    config.crossbar_size = 32;
    let mut rows = Vec::new();
    for threads in [1, 2, 7] {
        let session = obs::session();
        let sim = Simulator::new(config.clone()).threads(threads);
        rows.push(sim.validate(2, 2, 7).unwrap());
        let snap = session.snapshot();
        assert_eq!(snap.counter("solver.klu.analyses"), 4, "threads {threads}");
        assert_eq!(snap.counter("solver.klu.factors"), 8, "threads {threads}");
    }
    let bits = |rows: &[mnsim::core::validate::ValidationRow]| {
        rows.iter()
            .map(|row| (row.mnsim.to_bits(), row.circuit.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(&rows[1]), bits(&rows[0]));
    assert_eq!(bits(&rows[2]), bits(&rows[0]));
}
