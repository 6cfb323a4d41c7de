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
    /// Creates a network from a layer list.
    pub(crate) fn from_layers(layers: Vec<Layer>) -> Self {
        Network { layers }
    }

    /// The layers in order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
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
        let net = Network::default();
        assert!(matches!(
            net.forward(&Tensor::vector(&[1.0])),
            Err(NnError::InvalidNetwork { .. })
        ));
    }

    #[test]
    fn shape_error_propagates() {
        let net = tiny_network();
        assert!(net.forward(&Tensor::vector(&[1.0, 2.0, 3.0])).is_err());
    }
}
