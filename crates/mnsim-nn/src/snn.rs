//! Rate-coded spiking neural network simulation (paper §II.B-2).
//!
//! The paper maps SNNs whose memristor cells store *fixed* weights: the
//! synapse function is still a matrix-vector multiplication, and the
//! neuron is integrate-and-fire. This module simulates such a network over
//! discrete time steps: inputs are encoded as Bernoulli spike trains whose
//! rates equal the analog values, membrane potentials integrate the
//! weighted spikes, and a neuron fires (and resets by subtraction) when
//! its potential crosses the threshold. Over enough time steps the spike
//! rates converge to the equivalent ReLU network's activations — the
//! standard rate-coding argument, which the tests verify.

use rand::Rng;

use crate::error::NnError;
use crate::layers::FullyConnected;
use crate::tensor::Tensor;

/// A layer of integrate-and-fire neurons with its synapse weights.
#[derive(Debug, Clone)]
struct SpikingLayer {
    synapse: FullyConnected,
    /// Membrane potentials (state across time steps).
    membrane: Vec<f64>,
    /// Firing threshold.
    threshold: f64,
}

/// A rate-coded spiking network.
#[derive(Debug, Clone)]
pub struct SpikingNetwork {
    layers: Vec<SpikingLayer>,
}

/// The result of a spiking simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SpikeTrace {
    /// Time steps simulated.
    pub steps: usize,
    /// Output spike counts per neuron.
    pub output_spikes: Vec<u32>,
}

impl SpikeTrace {
    /// Output firing rates (spikes per step) — the rate-coded estimate of
    /// the equivalent analog activations.
    pub fn rates(&self) -> Vec<f64> {
        self.output_spikes
            .iter()
            .map(|&s| f64::from(s) / self.steps as f64)
            .collect()
    }

    /// Index of the most active output neuron (classification readout).
    ///
    /// # Panics
    ///
    /// Panics if the network has no outputs (valid networks always do).
    pub fn argmax(&self) -> usize {
        self.output_spikes
            .iter()
            .enumerate()
            .max_by_key(|(i, &s)| (s, usize::MAX - i))
            .map(|(i, _)| i)
            .expect("network has outputs")
    }
}

impl SpikingNetwork {
    /// Builds a spiking network from fully-connected synapse layers, all
    /// neurons sharing `threshold`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidNetwork`] for an empty layer list,
    /// non-chaining layers, or a non-positive threshold.
    pub fn new(synapses: Vec<FullyConnected>, threshold: f64) -> Result<Self, NnError> {
        if synapses.is_empty() {
            return Err(NnError::InvalidNetwork {
                reason: "a spiking network needs at least one synapse layer".into(),
            });
        }
        if threshold.is_nan() || threshold <= 0.0 {
            return Err(NnError::InvalidNetwork {
                reason: format!("firing threshold must be positive, got {threshold}"),
            });
        }
        for pair in synapses.windows(2) {
            if pair[0].outputs() != pair[1].inputs() {
                return Err(NnError::InvalidNetwork {
                    reason: format!(
                        "synapse layers do not chain: {} outputs feed {} inputs",
                        pair[0].outputs(),
                        pair[1].inputs()
                    ),
                });
            }
        }
        Ok(SpikingNetwork {
            layers: synapses
                .into_iter()
                .map(|synapse| {
                    let outputs = synapse.outputs();
                    SpikingLayer {
                        synapse,
                        membrane: vec![0.0; outputs],
                        threshold,
                    }
                })
                .collect(),
        })
    }

    /// Number of input neurons.
    pub(crate) fn inputs(&self) -> usize {
        self.layers[0].synapse.inputs()
    }

    /// Number of output neurons.
    pub(crate) fn outputs(&self) -> usize {
        self.layers.last().expect("non-empty").synapse.outputs()
    }

    /// Resets all membrane potentials.
    pub(crate) fn reset(&mut self) {
        for layer in &mut self.layers {
            layer.membrane.iter_mut().for_each(|m| *m = 0.0);
        }
    }

    /// Simulates `steps` time steps with Bernoulli rate coding of `input`
    /// (values clamped to `[0, 1]` as firing probabilities).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the input length differs from
    /// the network's input count.
    pub fn run(
        &mut self,
        input: &Tensor,
        steps: usize,
        rng: &mut impl Rng,
    ) -> Result<SpikeTrace, NnError> {
        if input.shape() != [self.inputs()] {
            return Err(NnError::ShapeMismatch {
                expected: vec![self.inputs()],
                actual: input.shape().to_vec(),
                operation: "spiking run",
            });
        }
        self.reset();
        let mut output_spikes = vec![0u32; self.outputs()];

        for _ in 0..steps {
            // Encode the input as one spike frame.
            let mut spikes: Vec<f64> = input
                .data()
                .iter()
                .map(|&p| {
                    if rng.gen_range(0.0..1.0) < p.clamp(0.0, 1.0) {
                        1.0
                    } else {
                        0.0
                    }
                })
                .collect();

            let last = self.layers.len() - 1;
            for (li, layer) in self.layers.iter_mut().enumerate() {
                let drive = layer
                    .synapse
                    .forward(&Tensor::vector(&spikes))
                    .expect("chained shapes verified at construction");
                let mut out = vec![0.0; layer.membrane.len()];
                for (j, (m, d)) in layer.membrane.iter_mut().zip(drive.data()).enumerate() {
                    *m += d;
                    if *m >= layer.threshold {
                        *m -= layer.threshold; // reset by subtraction
                        out[j] = 1.0;
                        if li == last {
                            output_spikes[j] += 1;
                        }
                    }
                }
                spikes = out;
            }
        }

        Ok(SpikeTrace {
            steps,
            output_spikes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn identity_synapse(n: usize, gain: f64) -> FullyConnected {
        let mut fc = FullyConnected::zeros(n, n);
        for i in 0..n {
            *fc.weights.at2_mut(i, i) = gain;
        }
        fc
    }

    #[test]
    fn construction_validation() {
        assert!(SpikingNetwork::new(vec![], 1.0).is_err());
        assert!(SpikingNetwork::new(vec![identity_synapse(2, 1.0)], 0.0).is_err());
        let nonchain = vec![FullyConnected::zeros(2, 3), FullyConnected::zeros(2, 1)];
        assert!(SpikingNetwork::new(nonchain, 1.0).is_err());
        assert!(SpikingNetwork::new(vec![identity_synapse(4, 1.0)], 1.0).is_ok());
    }

    #[test]
    fn rates_converge_to_input_rates_through_identity() {
        // Identity weights, threshold 1: each output spikes exactly when
        // its input spikes, so the output rate estimates the input value.
        let mut net = SpikingNetwork::new(vec![identity_synapse(3, 1.0)], 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let input = Tensor::vector(&[0.1, 0.5, 0.9]);
        let trace = net.run(&input, 4000, &mut rng).unwrap();
        for (rate, &expected) in trace.rates().iter().zip(input.data()) {
            assert!(
                (rate - expected).abs() < 0.05,
                "rate {rate} vs input {expected}"
            );
        }
    }

    #[test]
    fn rate_coding_approximates_relu_network() {
        // A 2-layer network with mixed-sign weights: spike rates must
        // track the equivalent ReLU activations.
        let mut fc = FullyConnected::zeros(2, 2);
        fc.weights.data_mut().copy_from_slice(&[0.8, 0.2, -0.5, 1.0]);
        let mut net = SpikingNetwork::new(vec![fc.clone()], 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let input = Tensor::vector(&[0.9, 0.6]);
        let trace = net.run(&input, 6000, &mut rng).unwrap();
        let analog = fc.forward(&input).unwrap();
        for (rate, &a) in trace.rates().iter().zip(analog.data()) {
            let expected = a.clamp(0.0, 1.0); // ReLU, rate-capped at 1
            assert!(
                (rate - expected).abs() < 0.06,
                "rate {rate} vs ReLU {expected}"
            );
        }
    }

    #[test]
    fn classification_readout_picks_strongest_drive() {
        let mut fc = FullyConnected::zeros(2, 3);
        // Output 1 gets by far the strongest drive.
        fc.weights
            .data_mut()
            .copy_from_slice(&[0.1, 0.0, 0.9, 0.9, 0.1, 0.0]);
        let mut net = SpikingNetwork::new(vec![fc], 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let trace = net
            .run(&Tensor::vector(&[0.8, 0.8]), 500, &mut rng)
            .unwrap();
        assert_eq!(trace.argmax(), 1);
    }

    #[test]
    fn reset_clears_state_between_samples() {
        let mut net = SpikingNetwork::new(vec![identity_synapse(1, 1.0)], 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let a = net.run(&Tensor::vector(&[1.0]), 100, &mut rng).unwrap();
        let b = net.run(&Tensor::vector(&[0.0]), 100, &mut rng).unwrap();
        assert_eq!(a.output_spikes[0], 100);
        assert_eq!(b.output_spikes[0], 0, "state must not leak across runs");
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut net = SpikingNetwork::new(vec![identity_synapse(3, 1.0)], 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(net.run(&Tensor::vector(&[0.5; 2]), 10, &mut rng).is_err());
    }

    #[test]
    fn deeper_networks_propagate_spikes() {
        let layers = vec![identity_synapse(2, 1.0), identity_synapse(2, 1.0)];
        let mut net = SpikingNetwork::new(layers, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let trace = net
            .run(&Tensor::vector(&[0.7, 0.3]), 3000, &mut rng)
            .unwrap();
        let rates = trace.rates();
        assert!((rates[0] - 0.7).abs() < 0.06);
        assert!((rates[1] - 0.3).abs() < 0.06);
    }
}
