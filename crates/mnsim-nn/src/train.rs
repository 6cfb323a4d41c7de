//! A small SGD/backprop trainer for multi-layer perceptrons.
//!
//! The paper maps *well-trained* networks onto the memristor hardware; this
//! module produces such networks for the application-level accuracy
//! experiments (the 64-16-64 JPEG-style autoencoder of §VII.A and synthetic
//! classifiers). Mean-squared-error loss, full-batch or mini-batch SGD.

use mnsim_obs as obs;
use rand::Rng;

use crate::error::NnError;

static TRAIN_EPOCHS: obs::Counter = obs::Counter::new("nn.train.epochs");
static TRAIN_SAMPLES: obs::Counter = obs::Counter::new("nn.train.samples");
static EPOCH_SPAN: obs::Span = obs::Span::new("nn.train.epoch", obs::Level::Stage);
use crate::layers::{Activation, FullyConnected, Layer};
use crate::network::Network;
use crate::tensor::Tensor;

/// A trainable multi-layer perceptron.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<FullyConnected>,
    hidden_activation: Activation,
    output_activation: Activation,
}

impl Mlp {
    /// Creates an MLP with Xavier-uniform random weights.
    ///
    /// `dims` lists neuron counts per layer (`[in, hidden…, out]`).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidNetwork`] if fewer than two sizes are given
    /// or any size is zero.
    pub fn random(
        dims: &[usize],
        hidden_activation: Activation,
        output_activation: Activation,
        rng: &mut impl Rng,
    ) -> Result<Self, NnError> {
        if dims.len() < 2 || dims.contains(&0) {
            return Err(NnError::InvalidNetwork {
                reason: format!("MLP dims must be ≥2 positive sizes, got {dims:?}"),
            });
        }
        let layers = dims
            .windows(2)
            .map(|pair| {
                let (n_in, n_out) = (pair[0], pair[1]);
                let bound = (6.0 / (n_in + n_out) as f64).sqrt();
                let mut fc = FullyConnected::zeros(n_in, n_out);
                for w in fc.weights.data_mut() {
                    *w = rng.gen_range(-bound..bound);
                }
                fc
            })
            .collect();
        Ok(Mlp {
            layers,
            hidden_activation,
            output_activation,
        })
    }

    /// Layer sizes `[in, hidden…, out]`.
    pub fn dims(&self) -> Vec<usize> {
        let mut dims = vec![self.layers[0].inputs()];
        dims.extend(self.layers.iter().map(FullyConnected::outputs));
        dims
    }

    /// The activation of layer `index` (output layer uses the output
    /// activation).
    fn activation(&self, index: usize) -> Activation {
        if index + 1 == self.layers.len() {
            self.output_activation
        } else {
            self.hidden_activation
        }
    }

    /// Runs the network forward.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor, NnError> {
        let mut current = input.clone();
        for (i, fc) in self.layers.iter().enumerate() {
            let act = self.activation(i);
            current = fc.forward(&current)?.map(|v| act.apply(v));
        }
        Ok(current)
    }

    /// One SGD step on a single `(input, target)` pair with MSE loss;
    /// returns the pre-update loss.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches.
    pub fn train_sample(
        &mut self,
        input: &Tensor,
        target: &Tensor,
        learning_rate: f64,
    ) -> Result<f64, NnError> {
        // Forward with caches.
        let mut activations = vec![input.clone()];
        let mut pre_activations = Vec::with_capacity(self.layers.len());
        for (i, fc) in self.layers.iter().enumerate() {
            let z = fc.forward(activations.last().expect("non-empty"))?;
            let act = self.activation(i);
            activations.push(z.map(|v| act.apply(v)));
            pre_activations.push(z);
        }
        let output = activations.last().expect("non-empty");
        let loss = output.mse(target)?;

        // Backward.
        let n_out = output.len() as f64;
        let mut delta: Vec<f64> = output
            .data()
            .iter()
            .zip(target.data())
            .zip(pre_activations.last().expect("non-empty").data())
            .map(|((y, t), z)| {
                2.0 / n_out * (y - t) * self.activation(self.layers.len() - 1).derivative(*z)
            })
            .collect();

        for i in (0..self.layers.len()).rev() {
            let input_act = activations[i].clone();
            // Gradient for the previous layer's delta, before updating W.
            let prev_delta: Vec<f64> = if i > 0 {
                let fc = &self.layers[i];
                let prev_act = self.activation(i - 1);
                let prev_z = &pre_activations[i - 1];
                (0..fc.inputs())
                    .map(|j| {
                        let mut acc = 0.0;
                        for (k, dk) in delta.iter().enumerate() {
                            acc += fc.weights.at2(k, j) * dk;
                        }
                        acc * prev_act.derivative(prev_z.data()[j])
                    })
                    .collect()
            } else {
                Vec::new()
            };

            let fc = &mut self.layers[i];
            for (k, dk) in delta.iter().enumerate() {
                for j in 0..fc.inputs() {
                    *fc.weights.at2_mut(k, j) -= learning_rate * dk * input_act.data()[j];
                }
                fc.bias.data_mut()[k] -= learning_rate * dk;
            }
            delta = prev_delta;
        }
        Ok(loss)
    }

    /// Trains for `epochs` full passes over the dataset; returns the mean
    /// loss per epoch.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches and rejects an empty dataset.
    pub fn train(
        &mut self,
        samples: &[(Tensor, Tensor)],
        epochs: usize,
        learning_rate: f64,
    ) -> Result<Vec<f64>, NnError> {
        if samples.is_empty() {
            return Err(NnError::InvalidNetwork {
                reason: "training set is empty".into(),
            });
        }
        let mut history = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let _epoch = EPOCH_SPAN.enter();
            TRAIN_EPOCHS.inc();
            TRAIN_SAMPLES.add(samples.len() as u64);
            let mut total = 0.0;
            for (input, target) in samples {
                total += self.train_sample(input, target, learning_rate)?;
            }
            history.push(total / samples.len() as f64);
        }
        Ok(history)
    }

    /// Mean loss over a dataset without updating weights.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches.
    pub fn evaluate(&self, samples: &[(Tensor, Tensor)]) -> Result<f64, NnError> {
        let mut total = 0.0;
        for (input, target) in samples {
            total += self.forward(input)?.mse(target)?;
        }
        Ok(total / samples.len().max(1) as f64)
    }

    /// Converts the trained MLP into an inference [`Network`] of alternating
    /// fully-connected and activation layers.
    pub fn to_network(&self) -> Network {
        let mut layers = Vec::with_capacity(self.layers.len() * 2);
        for (i, fc) in self.layers.iter().enumerate() {
            layers.push(Layer::FullyConnected(fc.clone()));
            layers.push(Layer::Activation(self.activation(i)));
        }
        Network::from_layers(layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_init_respects_dims() {
        let mut rng = StdRng::seed_from_u64(1);
        let mlp = Mlp::random(&[4, 8, 2], Activation::Sigmoid, Activation::Sigmoid, &mut rng)
            .unwrap();
        assert_eq!(mlp.dims(), vec![4, 8, 2]);
        assert!(Mlp::random(&[4], Activation::Relu, Activation::Relu, &mut rng).is_err());
        assert!(Mlp::random(&[4, 0], Activation::Relu, Activation::Relu, &mut rng).is_err());
    }

    #[test]
    fn training_reduces_loss_on_xor() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut mlp = Mlp::random(
            &[2, 8, 1],
            Activation::Sigmoid,
            Activation::Sigmoid,
            &mut rng,
        )
        .unwrap();
        let data: Vec<(Tensor, Tensor)> = [
            ([0.0, 0.0], 0.0),
            ([0.0, 1.0], 1.0),
            ([1.0, 0.0], 1.0),
            ([1.0, 1.0], 0.0),
        ]
        .iter()
        .map(|(x, y)| (Tensor::vector(x), Tensor::vector(&[*y])))
        .collect();

        let history = mlp.train(&data, 2000, 2.0).unwrap();
        let first = history[0];
        let last = *history.last().unwrap();
        assert!(
            last < first / 4.0,
            "loss should fall substantially: {first} → {last}"
        );
        // The trained network must actually classify XOR.
        for (x, t) in &data {
            let y = mlp.forward(x).unwrap().data()[0];
            assert!((y - t.data()[0]).abs() < 0.35, "input {:?} → {y}", x.data());
        }
    }

    #[test]
    fn identity_autoencoder_learns() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut mlp = Mlp::random(
            &[4, 4, 4],
            Activation::Sigmoid,
            Activation::Sigmoid,
            &mut rng,
        )
        .unwrap();
        let data: Vec<(Tensor, Tensor)> = (0..4)
            .map(|i| {
                let mut v = vec![0.15; 4];
                v[i] = 0.85;
                (Tensor::vector(&v), Tensor::vector(&v))
            })
            .collect();
        let before = mlp.evaluate(&data).unwrap();
        mlp.train(&data, 1500, 1.0).unwrap();
        let after = mlp.evaluate(&data).unwrap();
        assert!(after < before / 2.0, "{before} → {after}");
    }

    #[test]
    fn to_network_matches_forward() {
        let mut rng = StdRng::seed_from_u64(11);
        let mlp =
            Mlp::random(&[3, 5, 2], Activation::Relu, Activation::Sigmoid, &mut rng).unwrap();
        let x = Tensor::vector(&[0.2, -0.4, 0.9]);
        let direct = mlp.forward(&x).unwrap();
        let via_network = mlp.to_network().forward(&x).unwrap();
        assert_eq!(direct, via_network);
    }

    #[test]
    fn empty_training_set_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut mlp =
            Mlp::random(&[2, 2], Activation::Relu, Activation::Relu, &mut rng).unwrap();
        assert!(mlp.train(&[], 1, 0.1).is_err());
    }
}
