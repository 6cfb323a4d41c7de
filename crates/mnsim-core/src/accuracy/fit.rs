//! Calibration of the accuracy model against the circuit simulator —
//! the paper's Fig.-5 methodology ("We use M, N, and r as variables to
//! simulate the error of output voltages on SPICE, and fit the relationship
//! according to Equ. (11)").
//!
//! [`measure_circuit_error_rate`] produces the "SPICE scatter points";
//! [`fit_wire_coefficient`] finds the wire coefficient minimizing the
//! squared model-vs-circuit residual and reports the RMSE the paper quotes
//! (< 0.01).

use mnsim_circuit::batch::PreparedSystem;
use mnsim_circuit::crossbar::CrossbarSpec;
use mnsim_circuit::ldl::SharedAnalyses;
use mnsim_circuit::solve::SolveOptions;
use mnsim_tech::interconnect::InterconnectNode;
use mnsim_tech::memristor::MemristorModel;
use mnsim_tech::units::{Resistance, Voltage};

use crate::accuracy::crossbar_error::{AccuracyModel, Case};
use crate::error::CoreError;

/// One circuit-vs-model comparison point (a "scatter point" of Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorMeasurement {
    /// Crossbar size (square).
    pub size: usize,
    /// Signed error rate measured by the circuit simulator.
    pub measured: f64,
    /// Signed error rate predicted by the calibrated model.
    pub modeled: f64,
}

/// The result of fitting the model coefficients.
#[derive(Debug, Clone, PartialEq)]
pub struct FitResult {
    /// The fitted wire coefficient.
    pub coefficient: f64,
    /// The fitted non-linearity coefficient.
    pub nonlinearity_coefficient: f64,
    /// Root-mean-squared model-vs-circuit residual (paper: < 0.01).
    pub rmse: f64,
    /// The per-size comparison points.
    pub points: Vec<ErrorMeasurement>,
}

impl FitResult {
    /// The calibrated accuracy model these coefficients describe.
    pub fn model(&self, sense_resistance: Resistance) -> AccuracyModel {
        AccuracyModel {
            sense_resistance,
            wire_coefficient: self.coefficient,
            nonlinearity_coefficient: self.nonlinearity_coefficient,
            quadratic_wire: true,
        }
    }
}

/// Solves the worst-case crossbar (all cells at `R_min`, all inputs at the
/// read voltage) with the circuit simulator and returns the signed error
/// rate of the farthest column against the ideal wire-free linear output.
///
/// # Errors
///
/// Propagates circuit construction/solver failures.
pub fn measure_circuit_error_rate(
    size: usize,
    interconnect: InterconnectNode,
    device: &MemristorModel,
    sense_resistance: Resistance,
) -> Result<f64, CoreError> {
    Ok(measure_circuit_error_rates(size, interconnect, device, sense_resistance, &[1.0])?[0])
}

/// Sweeps the worst-case crossbar over several read amplitudes (fractions
/// of `v_read` in `(0, 1]`), returning one signed error rate per amplitude.
///
/// The circuit is assembled and factored once as a
/// [`PreparedSystem`]; every amplitude is a re-driven right-hand side, so
/// the sweep costs one assembly and factorization plus one backsolve per
/// point. `amplitudes = [1.0]` reproduces
/// [`measure_circuit_error_rate`] exactly.
///
/// # Errors
///
/// Rejects non-positive or non-finite amplitudes; propagates circuit
/// construction/solver failures.
pub(crate) fn measure_circuit_error_rates(
    size: usize,
    interconnect: InterconnectNode,
    device: &MemristorModel,
    sense_resistance: Resistance,
    amplitudes: &[f64],
) -> Result<Vec<f64>, CoreError> {
    error_rates(
        size,
        interconnect,
        device,
        sense_resistance,
        amplitudes,
        &SharedAnalyses::default(),
    )
}

/// [`measure_circuit_error_rates`] with the crossbar's symbolic analysis
/// taken from `analyses`.
fn error_rates(
    size: usize,
    interconnect: InterconnectNode,
    device: &MemristorModel,
    sense_resistance: Resistance,
    amplitudes: &[f64],
    analyses: &SharedAnalyses,
) -> Result<Vec<f64>, CoreError> {
    for &amplitude in amplitudes {
        if !(amplitude.is_finite() && amplitude > 0.0) {
            return Err(CoreError::InvalidConfig {
                parameter: "read_amplitude",
                reason: format!("amplitudes must be finite and positive, got {amplitude}"),
            });
        }
    }

    let mut spec = CrossbarSpec::uniform(
        size,
        size,
        device.r_min,
        interconnect.segment_resistance(),
        sense_resistance,
        device.v_read,
    );
    spec.iv = device.iv;
    let xbar = spec.build()?;
    let mut prepared =
        PreparedSystem::build_sharing(xbar.circuit(), SolveOptions::default(), analyses)?;
    let rs_m = sense_resistance.ohms() * size as f64;

    let mut rates = Vec::with_capacity(amplitudes.len());
    for &amplitude in amplitudes {
        let volts = device.v_read.volts() * amplitude;
        let drive = vec![Voltage::from_volts(volts); size];
        let rhs = xbar.input_rhs(&drive)?;
        let solution = prepared.solve(xbar.circuit(), &rhs)?;
        let v_act = xbar.output_voltages(&solution)[size - 1].volts(); // farthest column

        // Ideal: linear cells, no wires (paper Eq. 9 with R_parallel = R/M).
        let v_idl = volts * rs_m / (device.r_min.ohms() + rs_m);
        rates.push((v_idl - v_act) / v_idl);
    }
    Ok(rates)
}

/// Fits the model's wire coefficient over the given sizes by golden-section
/// search on the summed squared residual.
///
/// # Errors
///
/// Propagates circuit failures; rejects an empty size list.
pub fn fit_wire_coefficient(
    device: &MemristorModel,
    interconnect: InterconnectNode,
    sense_resistance: Resistance,
    sizes: &[usize],
) -> Result<FitResult, CoreError> {
    fit_wire_coefficient_sharing(
        device,
        interconnect,
        sense_resistance,
        sizes,
        &SharedAnalyses::default(),
    )
}

/// [`fit_wire_coefficient`] with the crossbars' symbolic analyses taken
/// from `analyses`, which the other circuits of a validation share.
pub(crate) fn fit_wire_coefficient_sharing(
    device: &MemristorModel,
    interconnect: InterconnectNode,
    sense_resistance: Resistance,
    sizes: &[usize],
    analyses: &SharedAnalyses,
) -> Result<FitResult, CoreError> {
    if sizes.is_empty() {
        return Err(CoreError::InvalidConfig {
            parameter: "fit_sizes",
            reason: "need at least one crossbar size to fit against".into(),
        });
    }

    let mut measured = Vec::with_capacity(sizes.len());
    for &size in sizes {
        // `measure_circuit_error_rate`, on the shared analyses.
        let rates = error_rates(
            size,
            interconnect,
            device,
            sense_resistance,
            &[1.0],
            analyses,
        )?;
        measured.push(rates[0]);
    }

    let objective = |wire: f64, nonlinearity: f64| -> f64 {
        let model = AccuracyModel {
            sense_resistance,
            wire_coefficient: wire,
            nonlinearity_coefficient: nonlinearity,
            quadratic_wire: true,
        };
        sizes
            .iter()
            .zip(&measured)
            .map(|(&size, &m)| {
                let p = model.signed_error_rate(size, size, interconnect, device, Case::Worst);
                (p - m) * (p - m)
            })
            .sum()
    };

    // Coordinate descent with golden-section line searches (the objective
    // is smooth and near-separable in the two coefficients).
    let mut coefficient = 1.0;
    let mut nonlinearity = 1.0;
    for _ in 0..4 {
        coefficient = golden_section(|w| objective(w, nonlinearity), 0.0, 4.0);
        nonlinearity = golden_section(|n| objective(coefficient, n), 0.0, 4.0);
    }

    let model = AccuracyModel {
        sense_resistance,
        wire_coefficient: coefficient,
        nonlinearity_coefficient: nonlinearity,
        quadratic_wire: true,
    };
    let points: Vec<ErrorMeasurement> = sizes
        .iter()
        .zip(&measured)
        .map(|(&size, &m)| ErrorMeasurement {
            size,
            measured: m,
            modeled: model.signed_error_rate(size, size, interconnect, device, Case::Worst),
        })
        .collect();
    let rmse = (points
        .iter()
        .map(|p| (p.modeled - p.measured) * (p.modeled - p.measured))
        .sum::<f64>()
        / points.len() as f64)
        .sqrt();

    Ok(FitResult {
        coefficient,
        nonlinearity_coefficient: nonlinearity,
        rmse,
        points,
    })
}

/// Golden-section minimization of a unimodal function on `[lo, hi]`.
fn golden_section(f: impl Fn(f64) -> f64, mut lo: f64, mut hi: f64) -> f64 {
    let phi = (5.0f64.sqrt() - 1.0) / 2.0;
    let mut c = hi - phi * (hi - lo);
    let mut d = lo + phi * (hi - lo);
    let (mut fc, mut fd) = (f(c), f(d));
    for _ in 0..80 {
        if fc < fd {
            hi = d;
            d = c;
            fd = fc;
            c = hi - phi * (hi - lo);
            fc = f(c);
        } else {
            lo = c;
            c = d;
            fc = fd;
            d = lo + phi * (hi - lo);
            fd = f(d);
        }
    }
    (lo + hi) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> MemristorModel {
        MemristorModel::rram_default()
    }

    #[test]
    fn measured_error_grows_with_size() {
        let d = device();
        let rs = Resistance::from_ohms(20.0);
        let e16 = measure_circuit_error_rate(16, InterconnectNode::N28, &d, rs).unwrap();
        let e64 = measure_circuit_error_rate(64, InterconnectNode::N28, &d, rs).unwrap();
        assert!(e64 > e16, "{e64} !> {e16}");
        assert!(e64 > 0.0 && e64 < 1.0);
    }

    #[test]
    fn fit_reaches_paper_rmse_criterion() {
        // The paper's validation: fitted-curve RMSE below 0.01.
        let d = device();
        let rs = Resistance::from_ohms(20.0);
        let fit =
            fit_wire_coefficient(&d, InterconnectNode::N28, rs, &[8, 16, 32, 48, 64]).unwrap();
        assert!(
            fit.rmse < 0.01,
            "RMSE {} exceeds the paper's 0.01 criterion; c = {}",
            fit.rmse,
            fit.coefficient
        );
        assert!(fit.coefficient > 0.0 && fit.coefficient < 4.0);
        assert_eq!(fit.points.len(), 5);
    }

    #[test]
    fn amplitude_sweep_matches_single_point_and_validates() {
        let d = device();
        let rs = Resistance::from_ohms(20.0);
        let rates =
            measure_circuit_error_rates(16, InterconnectNode::N28, &d, rs, &[1.0, 0.75, 0.5])
                .unwrap();
        assert_eq!(rates.len(), 3);
        for &rate in &rates {
            assert!(rate.is_finite() && rate > 0.0 && rate < 1.0, "{rate}");
        }
        // The full-amplitude point of the sweep is the single-point
        // measurement, bit for bit: same prepared system, same arithmetic.
        let single = measure_circuit_error_rate(16, InterconnectNode::N28, &d, rs).unwrap();
        assert_eq!(rates[0], single);
        assert!(
            measure_circuit_error_rates(8, InterconnectNode::N28, &d, rs, &[0.0]).is_err()
        );
        assert!(
            measure_circuit_error_rates(8, InterconnectNode::N28, &d, rs, &[f64::NAN]).is_err()
        );
    }

    #[test]
    fn empty_sizes_rejected() {
        let d = device();
        let rs = Resistance::from_ohms(20.0);
        assert!(fit_wire_coefficient(&d, InterconnectNode::N28, rs, &[]).is_err());
    }
}
