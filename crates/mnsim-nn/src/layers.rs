//! Network layers: fully-connected, convolution, activations.
//!
//! These are the algorithm-side counterparts of the hardware hierarchy:
//! a [`FullyConnected`] or [`Conv2d`] layer maps to one MNSIM *computation
//! bank* (its matrix-vector multiplication runs on memristor crossbars),
//! and [`Activation`] maps to the non-linear neuron module (paper §III.B).

use crate::error::NnError;
use crate::tensor::Tensor;

/// The non-linear neuron function at the end of a layer (paper §III.B-4):
/// sigmoid for DNN, ReLU for CNN, integrate-and-fire for SNN.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Activation {
    /// Logistic sigmoid `1 / (1 + e^{-x})`.
    Sigmoid,
    /// Rectified linear unit `max(0, x)`.
    Relu,
    /// Rate-coded integrate-and-fire: the output is the number of threshold
    /// crossings `⌊max(0, x) / threshold⌋` (an abstraction of spike counts
    /// over a fixed time window).
    IntegrateFire {
        /// Firing threshold (must be positive).
        threshold: f64,
    },
}

impl Activation {
    /// Applies the activation to a scalar.
    pub(crate) fn apply(&self, x: f64) -> f64 {
        match *self {
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Relu => x.max(0.0),
            Activation::IntegrateFire { threshold } => (x.max(0.0) / threshold).floor(),
        }
    }

    /// Derivative with respect to the input, used by the trainer.
    ///
    /// For [`Activation::IntegrateFire`] the straight-through estimator is
    /// used (derivative 1 where the neuron is above rest, 0 otherwise).
    pub(crate) fn derivative(&self, x: f64) -> f64 {
        match *self {
            Activation::Sigmoid => {
                let s = self.apply(x);
                s * (1.0 - s)
            }
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::IntegrateFire { .. } => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

/// A fully-connected (dense) layer: `y = W·x + b`.
#[derive(Debug, Clone, PartialEq)]
pub struct FullyConnected {
    /// Weight matrix of shape `(outputs, inputs)`.
    pub weights: Tensor,
    /// Bias vector of shape `(outputs)`.
    pub bias: Tensor,
}

impl FullyConnected {
    /// Creates a zero-initialized layer.
    pub fn zeros(inputs: usize, outputs: usize) -> Self {
        FullyConnected {
            weights: Tensor::zeros(&[outputs, inputs]),
            bias: Tensor::zeros(&[outputs]),
        }
    }

    /// Number of input neurons.
    pub(crate) fn inputs(&self) -> usize {
        self.weights.shape()[1]
    }

    /// Number of output neurons.
    pub(crate) fn outputs(&self) -> usize {
        self.weights.shape()[0]
    }

    /// Computes the pre-activation output `W·x + b`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] on incompatible input length.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor, NnError> {
        self.weights.matvec(input)?.add(&self.bias)
    }
}

/// A 2-D convolution layer over `(channels, height, width)` feature maps.
#[derive(Debug, Clone, PartialEq)]
pub struct Conv2d {
    /// Kernels of shape `(out_channels, in_channels, kernel_h, kernel_w)`.
    pub weights: Tensor,
    /// Bias of shape `(out_channels)`.
    pub bias: Tensor,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding on every border.
    pub padding: usize,
}

impl Conv2d {
    /// Creates a zero-initialized convolution layer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidLayer`] if kernel size or stride is zero.
    pub fn zeros(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Result<Self, NnError> {
        if kernel == 0 || stride == 0 {
            return Err(NnError::InvalidLayer {
                reason: "kernel size and stride must be positive".into(),
            });
        }
        Ok(Conv2d {
            weights: Tensor::zeros(&[out_channels, in_channels, kernel, kernel]),
            bias: Tensor::zeros(&[out_channels]),
            stride,
            padding,
        })
    }

    /// Output channel count.
    pub(crate) fn out_channels(&self) -> usize {
        self.weights.shape()[0]
    }

    /// Input channel count.
    pub(crate) fn in_channels(&self) -> usize {
        self.weights.shape()[1]
    }

    /// Kernel height/width.
    pub(crate) fn kernel(&self) -> usize {
        self.weights.shape()[2]
    }

    /// Spatial output size for a given input size.
    pub(crate) fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.padding - self.kernel()) / self.stride + 1;
        let ow = (w + 2 * self.padding - self.kernel()) / self.stride + 1;
        (oh, ow)
    }

    /// Computes the convolution of a `(c, h, w)` input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the input is not 3-D with the
    /// expected channel count, or smaller than the kernel.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor, NnError> {
        let shape = input.shape();
        if shape.len() != 3 || shape[0] != self.in_channels() {
            return Err(NnError::ShapeMismatch {
                expected: vec![self.in_channels()],
                actual: shape.to_vec(),
                operation: "conv2d",
            });
        }
        let (h, w) = (shape[1], shape[2]);
        let k = self.kernel();
        if h + 2 * self.padding < k || w + 2 * self.padding < k {
            return Err(NnError::ShapeMismatch {
                expected: vec![k, k],
                actual: vec![h, w],
                operation: "conv2d (input smaller than kernel)",
            });
        }
        let (oh, ow) = self.output_hw(h, w);
        let mut out = Tensor::zeros(&[self.out_channels(), oh, ow]);

        let wdata = self.weights.data();
        let (ic, kk) = (self.in_channels(), k);
        for oc in 0..self.out_channels() {
            let b = self.bias.data()[oc];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = b;
                    for c in 0..ic {
                        for ky in 0..kk {
                            let iy = (oy * self.stride + ky) as isize - self.padding as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..kk {
                                let ix =
                                    (ox * self.stride + kx) as isize - self.padding as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let wv = wdata[((oc * ic + c) * kk + ky) * kk + kx];
                                acc += wv * input.at3(c, iy as usize, ix as usize);
                            }
                        }
                    }
                    *out.at3_mut(oc, oy, ox) = acc;
                }
            }
        }
        Ok(out)
    }
}

/// Any layer in a network.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Layer {
    /// Dense synapse layer.
    FullyConnected(FullyConnected),
    /// Convolution synapse layer.
    Conv2d(Conv2d),
    /// Elementwise activation (neuron function).
    Activation(Activation),
    /// Reshape a feature map to a flat vector.
    Flatten,
}

impl Layer {
    /// Runs the layer forward.
    ///
    /// # Errors
    ///
    /// Propagates the shape errors of the concrete layer type.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor, NnError> {
        match self {
            Layer::FullyConnected(fc) => fc.forward(input),
            Layer::Conv2d(conv) => conv.forward(input),
            Layer::Activation(act) => Ok(input.map(|v| act.apply(v))),
            Layer::Flatten => input.reshape(&[input.len()]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activations() {
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-12);
        assert_eq!(Activation::Relu.apply(-2.0), 0.0);
        assert_eq!(Activation::Relu.apply(3.0), 3.0);
        let snn = Activation::IntegrateFire { threshold: 0.5 };
        assert_eq!(snn.apply(1.3), 2.0);
        assert_eq!(snn.apply(-1.0), 0.0);
    }

    #[test]
    fn activation_derivatives() {
        let s = Activation::Sigmoid;
        assert!((s.derivative(0.0) - 0.25).abs() < 1e-12);
        assert_eq!(Activation::Relu.derivative(1.0), 1.0);
        assert_eq!(Activation::Relu.derivative(-1.0), 0.0);
    }

    #[test]
    fn fully_connected_forward() {
        let w = Tensor::from_vec(&[2, 2], vec![1.0, -1.0, 0.5, 0.5]).unwrap();
        let b = Tensor::vector(&[0.0, 1.0]);
        let fc = FullyConnected {
            weights: w,
            bias: b,
        };
        assert_eq!(fc.inputs(), 2);
        assert_eq!(fc.outputs(), 2);
        let y = fc.forward(&Tensor::vector(&[2.0, 4.0])).unwrap();
        assert_eq!(y.data(), &[-2.0, 4.0]);
    }

    #[test]
    fn conv_identity_kernel() {
        // 1×1 kernel with weight 1 reproduces the input.
        let mut conv = Conv2d::zeros(1, 1, 1, 1, 0).unwrap();
        conv.weights.data_mut()[0] = 1.0;
        let input = Tensor::from_vec(&[1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let out = conv.forward(&input).unwrap();
        assert_eq!(out.shape(), &[1, 2, 2]);
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn conv_known_sum_kernel() {
        // 2×2 all-ones kernel, stride 1: each output is the window sum.
        let mut conv = Conv2d::zeros(1, 1, 2, 1, 0).unwrap();
        for v in conv.weights.data_mut() {
            *v = 1.0;
        }
        let input =
            Tensor::from_vec(&[1, 3, 3], (1..=9).map(|i| i as f64).collect()).unwrap();
        let out = conv.forward(&input).unwrap();
        assert_eq!(out.shape(), &[1, 2, 2]);
        assert_eq!(out.data(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn conv_padding_and_stride_shapes() {
        let conv = Conv2d::zeros(3, 8, 3, 2, 1).unwrap();
        // VGG-style: 224×224 with pad 1 stride 2 → 112×112
        assert_eq!(conv.output_hw(224, 224), (112, 112));
        let conv = Conv2d::zeros(3, 8, 3, 1, 1).unwrap();
        assert_eq!(conv.output_hw(224, 224), (224, 224));
    }

    #[test]
    fn conv_channel_mismatch_rejected() {
        let conv = Conv2d::zeros(2, 1, 1, 1, 0).unwrap();
        let input = Tensor::zeros(&[1, 2, 2]);
        assert!(conv.forward(&input).is_err());
    }

    #[test]
    fn flatten_and_layer_dispatch() {
        let input = Tensor::zeros(&[2, 3, 4]);
        let flat = Layer::Flatten.forward(&input).unwrap();
        assert_eq!(flat.shape(), &[24]);

        let act = Layer::Activation(Activation::Relu);
        let y = act.forward(&Tensor::vector(&[-1.0, 1.0])).unwrap();
        assert_eq!(y.data(), &[0.0, 1.0]);
    }
}
