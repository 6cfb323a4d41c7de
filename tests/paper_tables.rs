//! Golden regression suite for the reproduction's paper tables.
//!
//! Pins the numbers behind **Table II** (behavior-model vs circuit-level
//! validation of the 3-layer 128×128 network at 90 nm, plus the accuracy
//! comparison across crossbar sizes) and **Table IV** (per-metric optimal
//! designs of the 2048×1024 bank sweep under the 25 % error constraint).
//!
//! ## Tolerances
//!
//! Every pipeline these goldens exercise is deterministic: seeded RNG,
//! fixed-iteration-order solvers, serial reductions. The Table II rows now
//! run through the batched `Solver::solve_batch` path in `validate` (one
//! assembly per weight matrix, re-driven per input); the golden values
//! below predate that change and were deliberately *not* regenerated — the
//! suite passing is the proof that batching left the deviation numbers
//! intact. The golden values are
//! still compared with a relative tolerance of `1e-6` (absolute `1e-9`
//! near zero) rather than bitwise, so the suite survives cross-platform
//! `libm` rounding differences while catching any physical-model change,
//! which moves these values by orders of magnitude more.
//!
//! To regenerate after an *intentional* model change, run
//! `cargo test --test paper_tables -- --ignored --nocapture` and paste the
//! printed constants.

use mnsim::core::config::Config;
use mnsim::core::dse::{Constraints, DesignPoint, DesignSpace, DseResult, Objective};
use mnsim::core::validate::ValidationRow;
use mnsim::core::Simulator;
use mnsim::nn::models;
use mnsim::tech::cmos::CmosNode;

/// Relative tolerance of all golden comparisons (see module docs).
const REL_TOL: f64 = 1e-6;

fn assert_close(actual: f64, golden: f64, what: &str) {
    let scale = golden.abs().max(1e-3);
    assert!(
        (actual - golden).abs() <= REL_TOL * scale,
        "{what}: got {actual:.9}, golden {golden:.9}"
    );
}

// ---------------------------------------------------------------------------
// Table II — model vs circuit validation
// ---------------------------------------------------------------------------

/// The paper's Table II setup: 3-layer fully-connected NN with two
/// 128×128 layers at 90 nm (same as `mnsim-bench`'s `table2_config`).
fn table2_config() -> Config {
    let mut config = Config::for_network(models::mlp(&[128, 128, 128]).expect("static dims"));
    config.cmos = CmosNode::N90;
    config.crossbar_size = 128;
    config
}

/// Sample counts and seed of the pinned Table II run. One weight sample ×
/// two inputs keeps the debug-mode circuit solves interactive; the values
/// are pinned for exactly these counts.
const TABLE2_SAMPLES: (usize, usize, u64) = (1, 2, 20160318);

/// Golden `(metric, mnsim, circuit, max |relative error|)` rows of
/// Table II.
///
/// The pinned error ceilings record where this reproduction stands today:
/// the read-power and settle-latency rows meet the paper's 10 % claim;
/// the computation-power and accuracy rows do not at these interactive
/// sample counts (the model is pessimistic on wire drops), which the
/// ceilings make explicit instead of hiding.
const TABLE2_GOLDEN: [(&str, f64, f64, f64); 5] = [
    ("computation power (avg-case assumption)", 109.472727310, 87.450647333, 0.28),
    ("computation power (random weights)", 109.472727310, 69.325457579, 0.64),
    ("read power (single cell)", 0.250250000, 0.247107885, 0.10),
    ("crossbar settle latency", 0.006225390, 0.005851867, 0.10),
    ("average relative accuracy", 9.443112333, 12.395246667, 0.26),
];

fn table2_rows() -> &'static [ValidationRow] {
    static ROWS: std::sync::OnceLock<Vec<ValidationRow>> = std::sync::OnceLock::new();
    ROWS.get_or_init(|| {
        let (matrices, inputs, seed) = TABLE2_SAMPLES;
        Simulator::new(table2_config())
            .threads(1)
            .validate(matrices, inputs, seed)
            .unwrap()
    })
}

#[test]
fn table2_validation_rows_match_golden() {
    let rows = table2_rows();
    assert_eq!(rows.len(), TABLE2_GOLDEN.len());
    for (row, &(metric, mnsim, circuit, max_error)) in rows.iter().zip(&TABLE2_GOLDEN) {
        assert_eq!(row.metric, metric);
        assert_close(row.mnsim, mnsim, &format!("{metric}: mnsim"));
        assert_close(row.circuit, circuit, &format!("{metric}: circuit"));
        assert!(
            row.relative_error().abs() < max_error,
            "{metric}: model-vs-circuit error {:.2} % breaches its pinned {:.0} % ceiling",
            row.relative_error() * 100.0,
            max_error * 100.0
        );
    }
}

/// Golden `(size, mnsim %, circuit %)` accuracy rows across crossbar
/// sizes (Table II's accuracy row swept over the array size; the 128 case
/// is covered by [`TABLE2_GOLDEN`] itself).
const TABLE2_ACCURACY_BY_SIZE: [(usize, f64, f64); 3] =
    [
    (16, 86.870393534, 89.790156586),
    (32, 52.992395735, 60.828581878),
    (64, 24.144444206, 29.038665996),
];

fn accuracy_row_for_size(size: usize) -> ValidationRow {
    let mut config = table2_config();
    config.crossbar_size = size;
    let (matrices, inputs, seed) = TABLE2_SAMPLES;
    let rows = Simulator::new(config)
        .threads(1)
        .validate(matrices, inputs, seed)
        .unwrap();
    rows.into_iter()
        .find(|r| r.metric == "average relative accuracy")
        .expect("accuracy row present")
}

/// The Table II validation runs through the sparse-direct circuit path
/// (a 32×32 block is 2048 unknowns), and the per-matrix studies fan out
/// over worker threads. A refactored LDLᵀ is bit-identical to a fresh
/// factorization, and partial sums are reduced
/// in matrix order, so every thread count must reproduce the size-32
/// golden accuracy row *bitwise* — not just to tolerance — and the full
/// 128×128 validation with three weight matrices must agree bitwise
/// across thread counts too.
#[test]
fn table2_rows_are_bit_identical_across_thread_counts() {
    let rows_at = |size: usize, (matrices, inputs, seed): (usize, usize, u64), threads: usize| {
        let mut config = table2_config();
        config.crossbar_size = size;
        Simulator::new(config)
            .threads(threads)
            .validate(matrices, inputs, seed)
            .unwrap()
    };

    let reference = rows_at(32, TABLE2_SAMPLES, 1);
    let accuracy = reference
        .iter()
        .find(|r| r.metric == "average relative accuracy")
        .expect("accuracy row present");
    let golden = TABLE2_ACCURACY_BY_SIZE
        .iter()
        .find(|&&(size, _, _)| size == 32)
        .expect("size-32 golden row");
    assert_close(accuracy.mnsim, golden.1, "size 32 threads 1: mnsim accuracy");
    assert_close(accuracy.circuit, golden.2, "size 32 threads 1: circuit accuracy");
    for threads in [2usize, 7] {
        assert_eq!(
            rows_at(32, TABLE2_SAMPLES, threads),
            reference,
            "size 32: {threads}-thread validation drifted from the serial rows"
        );
    }

    let full = (3, 2, TABLE2_SAMPLES.2);
    let reference = rows_at(128, full, 1);
    for threads in [2usize, 7] {
        assert_eq!(
            rows_at(128, full, threads),
            reference,
            "size 128: {threads}-thread validation drifted from the serial rows"
        );
    }
}

#[test]
fn table2_accuracy_error_per_crossbar_size_matches_golden() {
    for &(size, mnsim, circuit) in &TABLE2_ACCURACY_BY_SIZE {
        let row = accuracy_row_for_size(size);
        assert_close(row.mnsim, mnsim, &format!("size {size}: mnsim accuracy"));
        assert_close(row.circuit, circuit, &format!("size {size}: circuit accuracy"));
        // The model consistently under-predicts accuracy (pessimistic on
        // wire drops); pin that direction so a sign flip is caught.
        assert!(
            row.mnsim < row.circuit,
            "size {size}: model stopped being pessimistic"
        );
    }
}

// ---------------------------------------------------------------------------
// Table IV — large-bank DSE optima
// ---------------------------------------------------------------------------

/// The paper's §VII.C large-computation-bank setup (same as
/// `mnsim-bench`'s `large_bank_config`).
fn large_bank_config() -> Config {
    let mut config = Config::for_network(models::large_bank_layer());
    config.cmos = CmosNode::N45;
    config.precision = mnsim::core::config::Precision {
        input_bits: 8,
        weight_bits: 4,
        output_bits: 8,
    };
    config.device.bits_per_cell = 7;
    config
}

/// One golden Table IV column: the design chosen for an objective and its
/// headline metrics.
struct GoldenOptimum {
    objective: Objective,
    crossbar_size: usize,
    parallelism: usize,
    interconnect_nm: u32,
    area_mm2: f64,
    energy_uj: f64,
    latency_us: f64,
    output_error_pct: f64,
}

const TABLE4_GOLDEN: [GoldenOptimum; 4] = [
    GoldenOptimum {
        objective: Objective::Area,
        crossbar_size: 1024,
        parallelism: 1,
        interconnect_nm: 36,
        area_mm2: 0.717717548,
        energy_uj: 20.178271635,
        latency_us: 10.839452085,
        output_error_pct: 24.705882353,
    },
    GoldenOptimum {
        objective: Objective::Energy,
        crossbar_size: 1024,
        parallelism: 128,
        interconnect_nm: 36,
        area_mm2: 2.671697636,
        energy_uj: 0.197534271,
        latency_us: 0.171452085,
        output_error_pct: 24.705882353,
    },
    GoldenOptimum {
        objective: Objective::Latency,
        crossbar_size: 128,
        parallelism: 128,
        interconnect_nm: 45,
        area_mm2: 129.778518300,
        energy_uj: 0.842421354,
        latency_us: 0.095172819,
        output_error_pct: 13.725490196,
    },
    GoldenOptimum {
        objective: Objective::Accuracy,
        crossbar_size: 8,
        parallelism: 1,
        interconnect_nm: 18,
        area_mm2: 306.276331548,
        energy_uj: 29.790796434,
        latency_us: 0.170898819,
        output_error_pct: 1.176470588,
    },
];

/// Runs the full paper sweep serially (deterministic traversal order).
fn table4_result() -> DseResult {
    Simulator::new(large_bank_config())
        .threads(1)
        .explore(
            &DesignSpace::paper_large_bank(),
            &Constraints::crossbar_error(0.25),
        )
        .unwrap()
}

/// Table IV picks the accuracy column with area as the secondary target.
fn optimum_for(result: &DseResult, objective: Objective) -> &DesignPoint {
    if objective == Objective::Accuracy {
        result
            .best_with_secondary(Objective::Accuracy, Objective::Area)
            .expect("feasible set non-empty")
    } else {
        result.best(objective).expect("feasible set non-empty")
    }
}

#[test]
fn table4_per_metric_optima_match_golden() {
    let result = table4_result();
    for golden in &TABLE4_GOLDEN {
        let best = optimum_for(&result, golden.objective);
        let what = format!("optimum for {}", golden.objective);
        assert_eq!(best.crossbar_size, golden.crossbar_size, "{what}");
        assert_eq!(best.parallelism, golden.parallelism, "{what}");
        assert_eq!(best.interconnect.nanometers(), golden.interconnect_nm, "{what}");
        assert_close(
            best.report.total_area.square_millimeters(),
            golden.area_mm2,
            &format!("{what}: area"),
        );
        assert_close(
            best.report.energy_per_sample.microjoules(),
            golden.energy_uj,
            &format!("{what}: energy"),
        );
        assert_close(
            best.report.sample_latency.microseconds(),
            golden.latency_us,
            &format!("{what}: latency"),
        );
        assert_close(
            best.report.output_max_error_rate * 100.0,
            golden.output_error_pct,
            &format!("{what}: output error"),
        );
        // The constraint that defined the sweep must hold for the winner.
        assert!(best.report.worst_crossbar_epsilon <= 0.25);
    }
}

#[test]
fn table4_sweep_shape_is_stable() {
    let result = table4_result();
    // The golden feasible-set shape: any change here means the design
    // space or the constraint model moved.
    assert_eq!(result.evaluated, 285);
    assert_eq!(result.feasible.len(), 169);
}

// ---------------------------------------------------------------------------
// Regeneration helper
// ---------------------------------------------------------------------------

/// Prints the current values in paste-ready form. Run with
/// `cargo test --test paper_tables -- --ignored --nocapture`.
#[test]
#[ignore = "regeneration helper, not a check"]
fn print_current_values() {
    println!("const TABLE2_GOLDEN: [(&str, f64, f64, f64); 5] = [");
    for row in table2_rows() {
        println!(
            "    (\"{}\", {:.9}, {:.9}, {:.2}),  // observed error {:+.2} %",
            row.metric,
            row.mnsim,
            row.circuit,
            (row.relative_error().abs() * 1.1).max(0.10),
            row.relative_error() * 100.0
        );
    }
    println!("];");

    println!("const TABLE2_ACCURACY_BY_SIZE: [(usize, f64, f64); 3] = [");
    for size in [16usize, 32, 64] {
        let row = accuracy_row_for_size(size);
        println!("    ({size}, {:.9}, {:.9}),", row.mnsim, row.circuit);
    }
    println!("];");

    let result = table4_result();
    println!(
        "// evaluated: {}, feasible: {}",
        result.evaluated,
        result.feasible.len()
    );
    for objective in Objective::TABLE_COLUMNS {
        let best = optimum_for(&result, objective);
        println!(
            "GoldenOptimum {{ objective: Objective::{objective:?}, crossbar_size: {}, parallelism: {}, interconnect_nm: {}, area_mm2: {:.9}, energy_uj: {:.9}, latency_us: {:.9}, output_error_pct: {:.9} }},",
            best.crossbar_size,
            best.parallelism,
            best.interconnect.nanometers(),
            best.report.total_area.square_millimeters(),
            best.report.energy_per_sample.microjoules(),
            best.report.sample_latency.microseconds(),
            best.report.output_max_error_rate * 100.0,
        );
    }
}
