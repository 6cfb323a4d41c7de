//! Layer-to-layer error propagation (paper §VI.C, Eq. 15).
//!
//! The input of layer `i` already carries the digital error rate
//! `δ_{i−1}` of the previous layer; combined with the current crossbar's
//! analog error `ε_i`, the practical output voltage is bounded by
//! `(1 ± δ_{i−1})(1 ± ε_i)·V_idl`, i.e. the effective deviation fed to the
//! read circuits is `(1 + δ)(1 + ε) − 1`. MNSIM evaluates the whole
//! accelerator layer by layer with this rule.

use crate::accuracy::quantization::{avg_digital_deviation, max_digital_deviation};

/// Accuracy numbers of one layer after propagation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerAccuracy {
    /// The layer's own crossbar voltage-error rate `ε`.
    pub crossbar_epsilon: f64,
    /// Effective deviation after combining with the incoming error (Eq. 15).
    pub effective_epsilon: f64,
    /// Worst-case digital deviation in levels (Eq. 12).
    pub max_deviation: u32,
    /// Worst-case read error rate (Eq. 13) — this becomes `δ` for the next
    /// layer.
    pub max_error_rate: f64,
    /// Average digital deviation in levels (Eq. 14).
    pub avg_deviation: f64,
    /// Average read error rate.
    pub avg_error_rate: f64,
}

/// Propagates the per-layer crossbar error rates through the network.
///
/// `epsilons[i]` is the analog error rate of layer `i`'s crossbars and `k`
/// the read-circuit quantization levels. Returns one [`LayerAccuracy`] per
/// layer; the last entry's rates describe the accelerator output.
///
/// # Panics
///
/// Panics if `epsilons` is empty, any `ε` is negative, or `k < 2`.
pub fn propagate(epsilons: &[f64], k: u32) -> Vec<LayerAccuracy> {
    assert!(!epsilons.is_empty(), "need at least one layer");
    let mut result = Vec::with_capacity(epsilons.len());
    let mut delta_max = 0.0f64;
    let mut delta_avg = 0.0f64;
    for &eps in epsilons {
        assert!(eps >= 0.0, "error rates must be non-negative");
        // Eq. 15: the worst corner of (1+δ)(1+ε).
        let eff_max = (1.0 + delta_max) * (1.0 + eps) - 1.0;
        let eff_avg = (1.0 + delta_avg) * (1.0 + eps) - 1.0;
        // Each deviation is evaluated once; its rate is the quotient that
        // `max_error_rate` / `avg_error_rate` would evaluate again.
        let max_deviation = max_digital_deviation(k, eff_max);
        let avg_deviation = avg_digital_deviation(k, eff_avg);
        let layer = LayerAccuracy {
            crossbar_epsilon: eps,
            effective_epsilon: eff_max,
            max_deviation,
            max_error_rate: f64::from(max_deviation) / f64::from(k - 1),
            avg_deviation,
            avg_error_rate: avg_deviation / f64::from(k - 1),
        };
        delta_max = layer.max_error_rate;
        delta_avg = layer.avg_error_rate;
        result.push(layer);
    }
    result
}

/// The final output error rates `(max, avg)` of a multi-layer accelerator.
///
/// # Panics
///
/// Same conditions as [`propagate`].
pub fn output_error_rates(epsilons: &[f64], k: u32) -> (f64, f64) {
    let layers = propagate(epsilons, k);
    layers
        .last()
        .map_or((0.0, 0.0), |last| (last.max_error_rate, last.avg_error_rate))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy::quantization::tests::{
        avg_digital_deviation_reference, max_digital_deviation_reference,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `propagate` as first written: every rate from its own evaluation of
    /// the reference Eqs. 12 and 14.
    fn reference_chain(epsilons: &[f64], k: u32) -> Vec<LayerAccuracy> {
        let levels = f64::from(k - 1);
        let (mut delta_max, mut delta_avg) = (0.0f64, 0.0f64);
        epsilons
            .iter()
            .map(|&eps| {
                let eff_max = (1.0 + delta_max) * (1.0 + eps) - 1.0;
                let eff_avg = (1.0 + delta_avg) * (1.0 + eps) - 1.0;
                let layer = LayerAccuracy {
                    crossbar_epsilon: eps,
                    effective_epsilon: eff_max,
                    max_deviation: max_digital_deviation_reference(k, eff_max),
                    max_error_rate: f64::from(max_digital_deviation_reference(k, eff_max)) / levels,
                    avg_deviation: avg_digital_deviation_reference(k, eff_avg),
                    avg_error_rate: avg_digital_deviation_reference(k, eff_avg) / levels,
                };
                delta_max = layer.max_error_rate;
                delta_avg = layer.avg_error_rate;
                layer
            })
            .collect()
    }

    fn field_bits(layer: &LayerAccuracy) -> [u64; 6] {
        [
            layer.crossbar_epsilon.to_bits(),
            layer.effective_epsilon.to_bits(),
            u64::from(layer.max_deviation),
            layer.max_error_rate.to_bits(),
            layer.avg_deviation.to_bits(),
            layer.avg_error_rate.to_bits(),
        ]
    }

    #[test]
    fn chain_is_bit_identical_to_the_reference_chain() {
        let mut rng = StdRng::seed_from_u64(20160318);
        for (k, chains) in [(2u32, 200), (256, 200), (65536, 6)] {
            for _ in 0..chains {
                let depth = rng.gen_range(1..=20usize);
                // Mostly the 0–60 % crossbar errors the sweeps produce,
                // with exact zeros and saturating values mixed in.
                let epsilons: Vec<f64> = (0..depth)
                    .map(|_| match rng.gen_range(0..10u32) {
                        0 => 0.0,
                        1 => rng.gen_range(1.0..8.0),
                        _ => rng.gen_range(0.0..0.6),
                    })
                    .collect();
                let actual = propagate(&epsilons, k);
                let expected = reference_chain(&epsilons, k);
                for (layer, (a, e)) in actual.iter().zip(&expected).enumerate() {
                    assert_eq!(
                        field_bits(a),
                        field_bits(e),
                        "k = {k}, layer {layer} of {epsilons:?}:\n{a:?}\n{e:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_layer_matches_direct_model() {
        let layers = propagate(&[0.08], 64);
        assert_eq!(layers.len(), 1);
        assert_eq!(layers[0].max_deviation, max_digital_deviation(64, 0.08));
        assert!((layers[0].effective_epsilon - 0.08).abs() < 1e-12);
    }

    #[test]
    fn errors_accumulate_across_layers() {
        let one = output_error_rates(&[0.05], 64).0;
        let three = output_error_rates(&[0.05, 0.05, 0.05], 64).0;
        assert!(three > one, "{three} !> {one}");
    }

    #[test]
    fn eq15_compounding() {
        // Layer 2 must see (1+δ1)(1+ε2) − 1, strictly more than ε2.
        let layers = propagate(&[0.10, 0.10], 64);
        assert!(layers[1].effective_epsilon > layers[1].crossbar_epsilon);
        let delta1 = layers[0].max_error_rate;
        let expected = (1.0 + delta1) * 1.10 - 1.0;
        assert!((layers[1].effective_epsilon - expected).abs() < 1e-12);
    }

    #[test]
    fn perfect_layers_stay_perfect() {
        let layers = propagate(&[0.0, 0.0, 0.0], 64);
        for l in layers {
            assert_eq!(l.max_deviation, 0);
            assert_eq!(l.max_error_rate, 0.0);
        }
    }

    #[test]
    fn avg_chain_below_max_chain() {
        let layers = propagate(&[0.06, 0.04, 0.08], 256);
        for l in layers {
            assert!(l.avg_error_rate <= l.max_error_rate + 1e-12);
        }
    }

    #[test]
    fn deep_networks_saturate_gracefully() {
        // 16 layers of 5 % — the error must grow monotonically but remain
        // a valid rate.
        let eps = vec![0.05; 16];
        let layers = propagate(&eps, 256);
        let mut prev = 0.0;
        for l in &layers {
            assert!(l.max_error_rate >= prev);
            prev = l.max_error_rate;
        }
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn empty_input_panics() {
        let _ = propagate(&[], 64);
    }
}
