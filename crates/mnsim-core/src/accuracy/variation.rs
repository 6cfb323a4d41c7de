//! Device-variation analysis (paper §VI.D, Eq. 16).
//!
//! A memristor's programmed resistance deviates by up to `σ` (0–30 %).
//! The closed-form model brackets the worst case with `(1 ± σ)·R_act`;
//! this module *verifies* that bracket by Monte-Carlo: the circuit solver
//! runs the worst-case crossbar with every cell's state independently
//! perturbed, and the sampled error distribution must fall inside the
//! model's `±σ` envelope (the paper: "the verification result of the
//! variation-considered model is similar to that shown in Fig. 5").

use mnsim_circuit::crossbar::CrossbarSpec;
use mnsim_circuit::solve::Solver;
use mnsim_tech::interconnect::InterconnectNode;
use mnsim_tech::memristor::MemristorModel;
use mnsim_tech::units::Resistance;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::accuracy::crossbar_error::{AccuracyModel, Case};
use crate::error::CoreError;

/// The Monte-Carlo variation measurement of one crossbar size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationSample {
    /// Crossbar size.
    pub size: usize,
    /// Device variation σ used.
    pub sigma: f64,
    /// Mean signed error rate across the Monte-Carlo runs.
    pub mean_error: f64,
    /// Smallest signed error rate observed.
    pub min_error: f64,
    /// Largest signed error rate observed.
    pub max_error: f64,
    /// Model prediction without variation.
    pub model_nominal: f64,
    /// Model worst-case prediction with variation (Eq. 16, adversarial
    /// sign).
    pub model_with_variation: f64,
}

impl VariationSample {
    /// `true` if every sampled error falls within the model's
    /// `nominal ± (variation swing + slack)` envelope.
    ///
    /// Eq. 16 brackets the cell resistance with `(1 ± σ)`, so variation
    /// can push the output error *either* way around the nominal
    /// prediction by the same swing: favorable draws (cells below
    /// `R_act`) land below nominal just as adversarial draws land above.
    pub fn within_envelope(&self, slack: f64) -> bool {
        let swing = (self.model_with_variation - self.model_nominal).abs();
        let lo = self.model_nominal - swing - slack;
        let hi = self.model_nominal + swing + slack;
        self.min_error >= lo && self.max_error <= hi
    }
}

/// Runs the Monte-Carlo variation experiment for one crossbar size.
///
/// The `model` must already be calibrated (see
/// [`crate::accuracy::fit_wire_coefficient`]); `runs` independent circuits
/// are solved with every cell at `R_min·(1 + U(−σ, σ))`.
///
/// # Errors
///
/// Propagates circuit failures; rejects `σ ∉ (0, 0.3]` or zero runs.
#[allow(clippy::too_many_arguments)]
pub fn measure_variation(
    model: &AccuracyModel,
    device: &MemristorModel,
    interconnect: InterconnectNode,
    sense_resistance: Resistance,
    size: usize,
    sigma: f64,
    runs: usize,
    seed: u64,
) -> Result<VariationSample, CoreError> {
    if !(0.0 < sigma && sigma <= 0.3) {
        return Err(CoreError::InvalidConfig {
            parameter: "sigma",
            reason: format!("variation must be in (0, 0.3], got {sigma}"),
        });
    }
    if runs == 0 {
        return Err(CoreError::InvalidConfig {
            parameter: "runs",
            reason: "need at least one Monte-Carlo run".into(),
        });
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let rs_m = sense_resistance.ohms() * size as f64;
    let v_idl = device.v_read.volts() * rs_m / (device.r_min.ohms() + rs_m);

    let mut mean = 0.0;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    // Every run resamples the cell resistances, a value-only change of one
    // structure: the handle keeps its analysis and refactors for the new
    // values.
    let mut solver = Solver::default();
    for _ in 0..runs {
        let states: Vec<Resistance> = (0..size * size)
            .map(|_| {
                let factor = 1.0 + rng.gen_range(-sigma..=sigma);
                Resistance::from_ohms(device.r_min.ohms() * factor)
            })
            .collect();
        let spec = CrossbarSpec {
            rows: size,
            cols: size,
            wire_resistance: interconnect.segment_resistance(),
            sense_resistance,
            states,
            iv: device.iv,
            inputs: vec![device.v_read; size],
            faults: None,
        };
        let built = spec.build()?;
        let solution = solver.solve(built.circuit())?;
        let v_act = built.output_voltages(&solution)[size - 1].volts();
        let error = (v_idl - v_act) / v_idl;
        mean += error;
        min = min.min(error);
        max = max.max(error);
    }
    mean /= runs as f64;

    let model_nominal = model.signed_error_rate(size, size, interconnect, device, Case::Worst);
    let mut varied_device = device.clone();
    varied_device.sigma = sigma;
    let model_with_variation =
        model.signed_error_rate(size, size, interconnect, &varied_device, Case::Worst);

    Ok(VariationSample {
        size,
        sigma,
        mean_error: mean,
        min_error: min,
        max_error: max,
        model_nominal,
        model_with_variation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy::fit::fit_wire_coefficient;

    #[test]
    fn monte_carlo_mean_tracks_nominal_model() {
        let device = MemristorModel::rram_default();
        let rs = Resistance::from_ohms(10.0);
        let node = InterconnectNode::N28;
        let fit = fit_wire_coefficient(&device, node, rs, &[8, 16, 32]).unwrap();
        let model = fit.model(rs);
        let sample =
            measure_variation(&model, &device, node, rs, 16, 0.15, 12, 77).unwrap();
        // Variation averages out: the Monte-Carlo mean sits near the
        // nominal prediction.
        assert!(
            (sample.mean_error - sample.model_nominal).abs() < 0.05,
            "mean {} vs nominal {}",
            sample.mean_error,
            sample.model_nominal
        );
        // The spread is non-degenerate but bracketed by the model envelope
        // with a small slack.
        assert!(sample.max_error > sample.min_error);
        assert!(
            sample.within_envelope(0.05),
            "samples [{}, {}] outside envelope [{}, {}]",
            sample.min_error,
            sample.max_error,
            sample.model_nominal.min(sample.model_with_variation),
            sample.model_nominal.max(sample.model_with_variation),
        );
    }

    #[test]
    fn rejects_invalid_parameters() {
        let device = MemristorModel::rram_default();
        let rs = Resistance::from_ohms(10.0);
        let model = AccuracyModel::new(rs);
        assert!(
            measure_variation(&model, &device, InterconnectNode::N28, rs, 8, 0.0, 4, 1)
                .is_err()
        );
        assert!(
            measure_variation(&model, &device, InterconnectNode::N28, rs, 8, 0.5, 4, 1)
                .is_err()
        );
        assert!(
            measure_variation(&model, &device, InterconnectNode::N28, rs, 8, 0.1, 0, 1)
                .is_err()
        );
    }

    #[test]
    fn larger_sigma_widens_model_envelope() {
        let device = MemristorModel::rram_default();
        let rs = Resistance::from_ohms(10.0);
        let model = AccuracyModel::new(rs);
        let envelope = |sigma: f64| {
            let mut d = device.clone();
            d.sigma = sigma;
            let varied =
                model.signed_error_rate(32, 32, InterconnectNode::N28, &d, Case::Worst);
            let nominal =
                model.signed_error_rate(32, 32, InterconnectNode::N28, &device, Case::Worst);
            (varied - nominal).abs()
        };
        assert!(envelope(0.3) > envelope(0.1));
    }
}
