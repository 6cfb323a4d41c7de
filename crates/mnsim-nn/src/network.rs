//! Network container: an ordered pipeline of layers.

use mnsim_obs::{Level, Span};

use crate::error::NnError;
use crate::layers::Layer;
use crate::tensor::Tensor;

static LAYER_SPAN: Span = Span::new("nn.layer", Level::Layer);

/// A feed-forward network: layers applied in order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Network {
    layers: Vec<Layer>,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Network { layers: Vec::new() }
    }

    /// Creates a network from a layer list.
    pub fn from_layers(layers: Vec<Layer>) -> Self {
        Network { layers }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: Layer) -> &mut Self {
        self.layers.push(layer);
        self
    }

    /// The layers in order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` if the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Runs the whole network forward.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidNetwork`] for an empty network, and
    /// propagates layer shape errors.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor, NnError> {
        if self.layers.is_empty() {
            return Err(NnError::InvalidNetwork {
                reason: "network has no layers".into(),
            });
        }
        let mut current = input.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            let _span = LAYER_SPAN.enter_at(i as i64);
            current = layer.forward(&current)?;
        }
        Ok(current)
    }

    /// Runs forward while recording every intermediate activation
    /// (input excluded, output of each layer included).
    ///
    /// # Errors
    ///
    /// Same as [`Self::forward`].
    pub fn forward_trace(&self, input: &Tensor) -> Result<Vec<Tensor>, NnError> {
        if self.layers.is_empty() {
            return Err(NnError::InvalidNetwork {
                reason: "network has no layers".into(),
            });
        }
        let mut activations = Vec::with_capacity(self.layers.len());
        let mut current = input.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            let _span = LAYER_SPAN.enter_at(i as i64);
            current = layer.forward(&current)?;
            activations.push(current.clone());
        }
        Ok(activations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Activation, FullyConnected};

    fn tiny_network() -> Network {
        let mut fc = FullyConnected::zeros(2, 2);
        fc.weights.data_mut().copy_from_slice(&[1.0, 0.0, 0.0, 1.0]);
        Network::from_layers(vec![
            Layer::FullyConnected(fc),
            Layer::Activation(Activation::Relu),
        ])
    }

    #[test]
    fn forward_chains_layers() {
        let net = tiny_network();
        let out = net.forward(&Tensor::vector(&[-3.0, 5.0])).unwrap();
        assert_eq!(out.data(), &[0.0, 5.0]);
    }

    #[test]
    fn empty_network_rejected() {
        let net = Network::new();
        assert!(net.is_empty());
        assert!(matches!(
            net.forward(&Tensor::vector(&[1.0])),
            Err(NnError::InvalidNetwork { .. })
        ));
    }

    #[test]
    fn trace_records_every_layer() {
        let net = tiny_network();
        let trace = net.forward_trace(&Tensor::vector(&[-3.0, 5.0])).unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].data(), &[-3.0, 5.0]);
        assert_eq!(trace[1].data(), &[0.0, 5.0]);
    }

    #[test]
    fn push_builds_incrementally() {
        let mut net = Network::new();
        net.push(Layer::Activation(Activation::Sigmoid));
        assert_eq!(net.len(), 1);
    }

    #[test]
    fn shape_error_propagates() {
        let net = tiny_network();
        assert!(net.forward(&Tensor::vector(&[1.0, 2.0, 3.0])).is_err());
    }
}
