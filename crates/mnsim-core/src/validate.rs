//! Model-vs-circuit validation harness (paper §VII.A/B, Tables II & III).
//!
//! The paper validates MNSIM's behavior-level models against SPICE; our
//! circuit-level baseline is `mnsim-circuit`'s non-linear DC solver over
//! the identical resistor-network topology. The harness reports:
//!
//! * **power validation** — average computation power and memory-READ
//!   power of random weight matrices, model vs circuit (Table II rows),
//! * **accuracy validation** — model-predicted average output deviation vs
//!   the circuit-measured deviation (Table II last row),
//! * **speed-up measurement** — wall-clock circuit solve vs behavior-level
//!   evaluation over crossbar sizes (Table III).
//!
//! The paper's latency row comes from SPICE transient runs; our substrate
//! is a DC solver, so latency is validated against the analytic Elmore
//! settling of the same netlist (substitution documented in `DESIGN.md`).
//!
//! Every circuit measurement behind the Table II rows — each random
//! weight matrix, the uniform array, the single-cell read, the wire fit
//! and the transient — is an independent item of one [`exec`] pool run,
//! so no worker idles while another solves the fixed measurements, and
//! the rows are reduced in item order whatever the thread count.
//!
//! The items share one set of symbolic analyses ([`SharedAnalyses`]),
//! made for the run and dropped with it, so each distinct sparsity pattern
//! is analyzed once, by the first worker that needs it, while a worker
//! that needs it at the same time waits. On Table II's square layers the
//! matrix studies, the uniform array and the largest fit size share one
//! pattern, and the transient's mesh has the smallest fit size's: four
//! analyses serve the eight circuits at every thread count, and every
//! factor is bit-identical to one over its own analysis.

use std::time::Instant;

use mnsim_circuit::crossbar::CrossbarSpec;
use mnsim_circuit::ldl::SharedAnalyses;
use mnsim_circuit::solve::{solve_dc, Solver};
use mnsim_circuit::transient::TransientOptions;
use mnsim_nn::data::{random_input_vector, random_weight_matrix};
use mnsim_nn::tensor::Tensor;
use mnsim_tech::units::Time;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::accuracy::{AccuracyModel, Case, FitResult};
use crate::config::Config;
use crate::error::CoreError;
use crate::exec::{self, RunControl};
use crate::modules::crossbar::CrossbarModel;
use crate::netlist_gen::{input_drive_voltages, map_weights};

/// One model-vs-circuit comparison row (a Table II line).
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationRow {
    /// Metric name.
    pub metric: String,
    /// MNSIM behavior-level estimate.
    pub mnsim: f64,
    /// Circuit-level measurement.
    pub circuit: f64,
    /// Unit label.
    pub unit: &'static str,
}

impl ValidationRow {
    /// Signed relative error of the model against the circuit.
    pub fn relative_error(&self) -> f64 {
        (self.mnsim - self.circuit) / self.circuit
    }
}

/// The per-matrix circuit measurement of the power/accuracy validation:
/// solved power and deviation sums over that matrix's input vectors.
struct MatrixPartial {
    power_sum: f64,
    deviation_sum: f64,
    samples: usize,
}

/// What one item of the validation's pool run measures: a random-matrix
/// study, or one of the fixed circuit measurements that follow the
/// matrices, in this order.
enum Measurement {
    /// One random weight matrix's power and deviation sums.
    Matrix(MatrixPartial),
    /// Dissipated power of the uniform array, in watts.
    UniformPower(f64),
    /// Dissipated power of the single driven cell, in watts.
    ReadPower(f64),
    /// The Fig.-5 wire-coefficient fit.
    Fit(FitResult),
    /// The latency mesh's transient settle time.
    Settle(Time),
}

/// The fixed measurements that follow the matrix studies: the uniform
/// array, the single-cell read, the wire fit and the transient.
const FIXED_MEASUREMENTS: usize = 4;

/// Validates computation power, read power and average relative accuracy
/// for `config`'s first bank geometry over `matrices` random weight
/// samples × `inputs_per_matrix` random input vectors — the workload
/// behind [`Simulator::validate`](crate::simulator::Simulator::validate).
///
/// Every circuit measurement is an independent study, so all of them
/// spread over `threads` workers on the [`exec`] pool as one run: first
/// the random weight matrices (each with its own prepared system and read
/// sequence), then the uniform array, the single-cell read, the wire fit
/// and the transient, all sharing one set of symbolic analyses. All
/// random draws happen up front on the calling thread in the historical
/// order — the RNG stream, and therefore every sampled circuit, is
/// untouched by the thread count — and the outputs are reduced in item
/// order, so the rows are bit-identical for every thread count.
///
/// # Errors
///
/// Propagates circuit construction/solver failures (the earliest failing
/// item's, in the order above, which is the one a serial run reports),
/// and [`CoreError::WorkerPanic`] for a panicking item.
pub(crate) fn validate_against_circuit(
    config: &Config,
    matrices: usize,
    inputs_per_matrix: usize,
    seed: u64,
    threads: usize,
) -> Result<Vec<ValidationRow>, CoreError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let bank = &config.network.banks[0];
    let rows = bank.matrix_rows().min(config.crossbar_size);
    let cols = bank.matrix_cols().min(config.crossbar_size);

    // Serial pre-draw, interleaved exactly as the historical loop drew
    // them (weights for matrix i, then its inputs, then matrix i+1 …).
    let studies: Vec<(Tensor, Vec<Tensor>)> = (0..matrices)
        .map(|_| {
            let weights = random_weight_matrix(cols, rows, &mut rng);
            let inputs = (0..inputs_per_matrix)
                .map(|_| random_input_vector(rows, &mut rng))
                .collect();
            (weights, inputs)
        })
        .collect();

    // Accuracy: calibrate the model against the circuit first (the
    // paper's Fig.-5 fit precedes its Table-II validation), then predict
    // the average case.
    let fit_sizes: Vec<usize> = [rows / 4, rows / 2, rows]
        .into_iter()
        .filter(|&s| s >= 2)
        .collect();
    // Latency: behavior model vs a backward-Euler transient of the real
    // RC mesh (our substitute for the paper's SPICE transient runs). A
    // 32×32 mesh keeps the validation interactive; settle time scales as
    // size² in both the model and the mesh, so the comparison transfers.
    let latency_size = config.crossbar_size.min(32);

    let analyses = SharedAnalyses::default();
    let indices: Vec<usize> = (0..matrices + FIXED_MEASUREMENTS).collect();
    let measurements = exec::run_indices(&indices, threads, &RunControl::new(), |item| {
        Ok::<_, CoreError>(match item.checked_sub(matrices) {
            None => {
                let (weights, input_vectors) = &studies[item];
                let study = matrix_study(config, rows, weights, input_vectors, &analyses)?;
                Measurement::Matrix(study)
            }
            Some(0) => {
                Measurement::UniformPower(uniform_array_power(config, rows, cols, &analyses)?)
            }
            Some(1) => Measurement::ReadPower(single_cell_read_power(config, &analyses)?),
            Some(2) => Measurement::Fit(crate::accuracy::fit::fit_wire_coefficient_in(
                &config.device,
                config.interconnect,
                config.sense_resistance,
                &fit_sizes,
                &analyses,
            )?),
            Some(_) => Measurement::Settle(transient_settle(config, latency_size, &analyses)?),
        })
    })
    .into_result()
    .map_err(|error| error.into_core(None))?;

    // Item-order fold: the matrix partials are grouped by the matrix
    // boundaries, not the thread count.
    let mut circuit_power = 0.0;
    let mut circuit_deviation = 0.0;
    let mut samples = 0usize;
    let mut circuit_avg_power = f64::NAN;
    let mut circuit_read_power = f64::NAN;
    let mut fitted = None;
    let mut circuit_latency = f64::NAN;
    for measurement in measurements {
        match measurement {
            Measurement::Matrix(partial) => {
                circuit_power += partial.power_sum;
                circuit_deviation += partial.deviation_sum;
                samples += partial.samples;
            }
            Measurement::UniformPower(watts) => circuit_avg_power = watts,
            Measurement::ReadPower(watts) => circuit_read_power = watts,
            Measurement::Fit(fit) => fitted = Some(fit),
            Measurement::Settle(time) => circuit_latency = time.nanoseconds(),
        }
    }
    let circuit_power = circuit_power / samples as f64;
    let circuit_deviation = circuit_deviation / samples as f64;

    // --- behavior-level estimates ------------------------------------------
    let model = CrossbarModel::new(config.crossbar_size, &config.device, config.interconnect);
    let mnsim_power = model.compute_power(rows, cols).watts();
    let mnsim_read_power = model.read_power().watts();
    // A complete run measured every item, the fit included.
    let mnsim_deviation = fitted.map_or(f64::NAN, |fitted| {
        fitted.model(config.sense_resistance).error_rate(
            rows,
            cols,
            config.interconnect,
            &config.device,
            Case::Average,
        )
    });
    let latency_model = CrossbarModel::new(latency_size, &config.device, config.interconnect);
    let mnsim_latency = latency_model.settle_latency().nanoseconds();

    Ok(vec![
        ValidationRow {
            metric: "computation power (avg-case assumption)".into(),
            mnsim: mnsim_power * 1e3,
            circuit: circuit_avg_power * 1e3,
            unit: "mW",
        },
        ValidationRow {
            metric: "computation power (random weights)".into(),
            mnsim: mnsim_power * 1e3,
            circuit: circuit_power * 1e3,
            unit: "mW",
        },
        ValidationRow {
            metric: "read power (single cell)".into(),
            mnsim: mnsim_read_power * 1e3,
            circuit: circuit_read_power * 1e3,
            unit: "mW",
        },
        ValidationRow {
            metric: "crossbar settle latency".into(),
            mnsim: mnsim_latency,
            circuit: circuit_latency,
            unit: "ns",
        },
        ValidationRow {
            metric: "average relative accuracy".into(),
            mnsim: (1.0 - mnsim_deviation) * 100.0,
            circuit: (1.0 - circuit_deviation) * 100.0,
            unit: "%",
        },
    ])
}

/// Solves one random weight matrix under each of its input vectors. The
/// conductance map depends only on the weights, so it maps and builds
/// once and hands every input vector to one handle as one batch: the
/// reads share one factorization and step together, one multi-column
/// backsolve per step.
fn matrix_study(
    config: &Config,
    rows: usize,
    weights: &Tensor,
    input_vectors: &[Tensor],
    analyses: &SharedAnalyses,
) -> Result<MatrixPartial, CoreError> {
    let mapped = map_weights(config, weights, &vec![0.0; rows])?;
    let built = mapped.positive.build()?;
    let drives: Vec<_> = input_vectors
        .iter()
        .map(|inputs| input_drive_voltages(config, inputs.data()))
        .collect();
    let batch: Vec<_> = drives
        .iter()
        .map(|drive| built.input_rhs(drive))
        .collect::<Result<_, _>>()?;
    let solutions = Solver::sharing(analyses).solve_batch(built.circuit(), &batch)?;
    let mut partial = MatrixPartial {
        power_sum: 0.0,
        deviation_sum: 0.0,
        samples: 0,
    };
    for (drive, solution) in drives.iter().zip(&solutions) {
        partial.power_sum += solution.dissipated_power(built.circuit()).watts();

        // Output deviation against the ideal (wire-free, linear)
        // Eq.-2 result, averaged over columns.
        let ideal = mapped.positive.ideal_output_voltages_for(drive);
        let actual = built.output_voltages(solution);
        let mut dev = 0.0;
        let mut counted = 0usize;
        for (i, a) in ideal.iter().zip(&actual) {
            if i.volts() > 1e-9 {
                dev += ((i.volts() - a.volts()) / i.volts()).abs();
                counted += 1;
            }
        }
        if counted > 0 {
            partial.deviation_sum += dev / counted as f64;
        }
        partial.samples += 1;
    }
    Ok(partial)
}

/// Circuit computation power under the model's *own* average-case
/// assumption (every cell at the harmonic-mean resistance, every input
/// driven): this isolates the topology effects (wire drops) from the
/// weight-distribution assumption. The activity factor 0.5 of the model
/// corresponds to inputs at v_read/√2 RMS; the uniform circuit is driven
/// at that amplitude for a like-for-like energy comparison.
fn uniform_array_power(
    config: &Config,
    rows: usize,
    cols: usize,
    analyses: &SharedAnalyses,
) -> Result<f64, CoreError> {
    let rms_input = mnsim_tech::units::Voltage::from_volts(
        config.device.v_read.volts() / std::f64::consts::SQRT_2,
    );
    let uniform = CrossbarSpec::uniform(
        rows,
        cols,
        config.device.harmonic_mean_resistance(),
        config.interconnect.segment_resistance(),
        config.sense_resistance,
        rms_input,
    );
    let built = uniform.build()?;
    let solution = Solver::sharing(analyses).solve(built.circuit())?;
    Ok(solution.dissipated_power(built.circuit()).watts())
}

/// Circuit read power: a single driven cell with its sense resistor.
fn single_cell_read_power(config: &Config, analyses: &SharedAnalyses) -> Result<f64, CoreError> {
    let single = CrossbarSpec::uniform(
        1,
        1,
        config.device.harmonic_mean_resistance(),
        config.interconnect.segment_resistance(),
        config.sense_resistance,
        config.device.v_read,
    );
    let built = single.build()?;
    let solution = Solver::sharing(analyses).solve(built.circuit())?;
    Ok(solution.dissipated_power(built.circuit()).watts())
}

/// Measures the worst-column settle time of a `size × size` crossbar RC
/// mesh with the backward-Euler transient solver (2 % settling band).
///
/// # Errors
///
/// Propagates circuit failures; reports a settle failure as
/// [`CoreError::InvalidConfig`].
pub fn measure_transient_settle(config: &Config, size: usize) -> Result<Time, CoreError> {
    transient_settle(config, size, &SharedAnalyses::default())
}

/// [`measure_transient_settle`] with the mesh's symbolic analysis taken
/// from `analyses`.
fn transient_settle(
    config: &Config,
    size: usize,
    analyses: &SharedAnalyses,
) -> Result<Time, CoreError> {
    let spec = CrossbarSpec::uniform(
        size,
        size,
        config.device.harmonic_mean_resistance(),
        config.interconnect.segment_resistance(),
        config.sense_resistance,
        config.device.v_read,
    );
    let mut xbar = spec.build()?;
    let node_cap = config.interconnect.segment_capacitance()
        + mnsim_tech::units::Capacitance::from_femtofarads(1.0);
    xbar.add_node_capacitance(node_cap)?;

    // Simulate for 4× the model's Elmore prediction so the waveform
    // settles inside the window.
    let model = CrossbarModel::new(size, &config.device, config.interconnect);
    let window = model.settle_latency() * 4.0;
    let options = TransientOptions::step_response(window, 400);
    let result = Solver::sharing(analyses).solve_transient(xbar.circuit(), &options)?;
    let worst = xbar.output_node(size - 1);
    result
        .settle_time(worst, 0.02)
        .ok_or_else(|| CoreError::InvalidConfig {
            parameter: "transient window",
            reason: format!("crossbar output did not settle within {window}"),
        })
}

/// One Table III row: circuit-vs-model simulation time for one crossbar
/// size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupRow {
    /// Crossbar size.
    pub size: usize,
    /// Circuit-level solve time in seconds.
    pub circuit_seconds: f64,
    /// Behavior-level evaluation time in seconds: the median over
    /// `MODEL_SAMPLES` timed batches of `MODEL_BATCH` evaluations, per
    /// evaluation.
    pub mnsim_seconds: f64,
}

impl SpeedupRow {
    /// The speed-up factor.
    pub fn speedup(&self) -> f64 {
        self.circuit_seconds / self.mnsim_seconds
    }
}

/// Timed samples of the behavior-level evaluation per Table III row; the
/// row reports their median.
const MODEL_SAMPLES: usize = 101;
/// Behavior-level evaluations per timed sample. One evaluation takes tens
/// of nanoseconds, about what reading the clock twice costs, so a sample
/// times a batch and divides.
const MODEL_BATCH: usize = 1000;

/// Measures the Table III speed-up over the given crossbar sizes: one full
/// non-linear circuit solve of the worst-case crossbar versus the
/// behavior-level evaluation (performance + accuracy models), timed as the
/// median of `MODEL_SAMPLES` samples of `MODEL_BATCH` black-boxed
/// evaluations each.
///
/// # Errors
///
/// Propagates circuit failures.
pub fn measure_speedup(config: &Config, sizes: &[usize]) -> Result<Vec<SpeedupRow>, CoreError> {
    let mut rows = Vec::with_capacity(sizes.len());
    for &size in sizes {
        let mut spec = CrossbarSpec::uniform(
            size,
            size,
            config.device.r_min,
            config.interconnect.segment_resistance(),
            config.sense_resistance,
            config.device.v_read,
        );
        spec.iv = config.device.iv;
        let built = spec.build()?;
        let start = Instant::now();
        let _ = solve_dc(built.circuit())?;
        let circuit_seconds = start.elapsed().as_secs_f64();

        let mut samples: Vec<f64> = (0..MODEL_SAMPLES)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..MODEL_BATCH {
                    let (config, size) = std::hint::black_box((config, size));
                    std::hint::black_box(behavior_level(config, size));
                }
                start.elapsed().as_secs_f64() / MODEL_BATCH as f64
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        let mnsim_seconds = samples[MODEL_SAMPLES / 2].max(1e-12);

        rows.push(SpeedupRow {
            size,
            circuit_seconds,
            mnsim_seconds,
        });
    }
    Ok(rows)
}

/// The behavior-level "simulation of a single crossbar" Table III times:
/// the performance models plus the accuracy estimate, summed so that none
/// of them is optimized away.
fn behavior_level(config: &Config, size: usize) -> f64 {
    let model = CrossbarModel::new(size, &config.device, config.interconnect);
    let accuracy = AccuracyModel::from_config(config);
    model.area().square_meters()
        + model.compute_power(size, size).watts()
        + model.settle_latency().seconds()
        + accuracy.error_rate(size, size, config.interconnect, &config.device, Case::Worst)
        + accuracy.error_rate(
            size,
            size,
            config.interconnect,
            &config.device,
            Case::Average,
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rows_are_close() {
        // Small geometry keeps the test fast; the model must land within
        // the paper's ±10 % band for power and a few percent for accuracy.
        let mut config = Config::fully_connected_mlp(&[32, 32]).unwrap();
        config.crossbar_size = 32;
        let rows = validate_against_circuit(&config, 2, 3, 7, 1).unwrap();
        assert_eq!(rows.len(), 5);
        let read = &rows[2];
        assert!(
            read.relative_error().abs() < 0.10,
            "read power off by {:.1} %",
            read.relative_error() * 100.0
        );
        let acc = &rows[4];
        assert!(
            (acc.mnsim - acc.circuit).abs() < 15.0,
            "accuracy gap: {} vs {}",
            acc.mnsim,
            acc.circuit
        );
    }

    #[test]
    fn parallel_validation_is_bit_identical() {
        let mut config = Config::fully_connected_mlp(&[32, 32]).unwrap();
        config.crossbar_size = 32;
        let serial = validate_against_circuit(&config, 3, 2, 7, 1).unwrap();
        for threads in [0usize, 2, 5] {
            let parallel = validate_against_circuit(&config, 3, 2, 7, threads).unwrap();
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn speedup_exceeds_two_orders_for_modest_sizes() {
        let config = Config::fully_connected_mlp(&[64, 64]).unwrap();
        let rows = measure_speedup(&config, &[32]).unwrap();
        assert_eq!(rows.len(), 1);
        assert!(
            rows[0].speedup() > 100.0,
            "speed-up only {}×",
            rows[0].speedup()
        );
    }
}
