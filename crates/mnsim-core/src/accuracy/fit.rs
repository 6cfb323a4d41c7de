//! Calibration of the accuracy model against the circuit simulator —
//! the paper's Fig.-5 methodology ("We use M, N, and r as variables to
//! simulate the error of output voltages on SPICE, and fit the relationship
//! according to Equ. (11)").
//!
//! [`measure_circuit_error_rate`] produces the "SPICE scatter points";
//! [`fit_wire_coefficient`] finds the wire coefficient minimizing the
//! squared model-vs-circuit residual and reports the RMSE the paper quotes
//! (< 0.01).

use mnsim_circuit::crossbar::CrossbarSpec;
use mnsim_circuit::ldl::SharedAnalyses;
use mnsim_circuit::solve::Solver;
use mnsim_tech::interconnect::InterconnectNode;
use mnsim_tech::memristor::MemristorModel;
use mnsim_tech::units::Resistance;

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
    error_rate(
        size,
        interconnect,
        device,
        sense_resistance,
        &mut Solver::default(),
    )
}

/// [`measure_circuit_error_rate`] on `solver`.
fn error_rate(
    size: usize,
    interconnect: InterconnectNode,
    device: &MemristorModel,
    sense_resistance: Resistance,
    solver: &mut Solver,
) -> Result<f64, CoreError> {
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
    let solution = solver.solve(xbar.circuit())?;
    let v_act = xbar.output_voltages(&solution)[size - 1].volts(); // farthest column

    // Ideal: linear cells, no wires (paper Eq. 9 with R_parallel = R/M).
    let rs_m = sense_resistance.ohms() * size as f64;
    let v_idl = device.v_read.volts() * rs_m / (device.r_min.ohms() + rs_m);
    Ok((v_idl - v_act) / v_idl)
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
    fit_wire_coefficient_in(
        device,
        interconnect,
        sense_resistance,
        sizes,
        &SharedAnalyses::default(),
    )
}

/// [`fit_wire_coefficient`] with the crossbars' symbolic analyses taken
/// from `analyses`, which the other circuits of a validation share.
pub(crate) fn fit_wire_coefficient_in(
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

    let mut solver = Solver::sharing(analyses);
    let measured = sizes
        .iter()
        .map(|&size| error_rate(size, interconnect, device, sense_resistance, &mut solver))
        .collect::<Result<Vec<_>, _>>()?;

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
    fn empty_sizes_rejected() {
        let d = device();
        let rs = Resistance::from_ohms(20.0);
        assert!(fit_wire_coefficient(&d, InterconnectNode::N28, rs, &[]).is_err());
    }
}
