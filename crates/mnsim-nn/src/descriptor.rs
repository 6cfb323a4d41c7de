//! Shape-level network descriptors.
//!
//! The MNSIM performance models do not need trained weights — only the
//! *shape* of every weight-bearing layer (paper Table I: `Network_Depth`,
//! `Network_Scale`). A [`NetworkDescriptor`] lists one [`BankDescriptor`]
//! per neuromorphic layer, i.e. per MNSIM computation bank: only layers
//! carrying convolution kernels or fully-connected weights count (§III.A);
//! the ReLU / pooling / buffering that follows a Conv layer is folded into
//! the same bank as its peripheral function.

use crate::error::NnError;

/// Geometry of a convolution layer mapped onto crossbars.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvShape {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels (number of kernels).
    pub out_channels: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding.
    pub padding: usize,
    /// Input feature-map height.
    pub input_h: usize,
    /// Input feature-map width.
    pub input_w: usize,
}

impl ConvShape {
    /// Output feature-map size `(h, w)`.
    pub fn output_hw(&self) -> (usize, usize) {
        let oh = (self.input_h + 2 * self.padding - self.kernel) / self.stride + 1;
        let ow = (self.input_w + 2 * self.padding - self.kernel) / self.stride + 1;
        (oh, ow)
    }
}

/// One computation bank's workload: a weight-bearing layer plus its
/// in-bank peripheral functions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BankDescriptor {
    /// Fully-connected layer of `inputs × outputs` weights.
    FullyConnected {
        /// Input neuron count.
        inputs: usize,
        /// Output neuron count.
        outputs: usize,
    },
    /// Convolution layer; `pooling` gives the `k×k` max-pool that follows
    /// it inside the same bank (if any).
    Conv {
        /// Kernel geometry.
        shape: ConvShape,
        /// Pooling window size after the convolution, if present.
        pooling: Option<usize>,
    },
}

impl BankDescriptor {
    /// Rows of the weight matrix this bank realizes on crossbars
    /// (= input vector length of one matrix-vector multiplication).
    ///
    /// For a Conv bank the matrix-vector view is: each kernel is one matrix
    /// column of length `in_channels · k²` (paper §II.B-3).
    pub fn matrix_rows(&self) -> usize {
        match self {
            BankDescriptor::FullyConnected { inputs, .. } => *inputs,
            BankDescriptor::Conv { shape, .. } => {
                shape.in_channels * shape.kernel * shape.kernel
            }
        }
    }

    /// Columns of the weight matrix (= output vector length of one
    /// matrix-vector multiplication).
    pub fn matrix_cols(&self) -> usize {
        match self {
            BankDescriptor::FullyConnected { outputs, .. } => *outputs,
            BankDescriptor::Conv { shape, .. } => shape.out_channels,
        }
    }

    /// Matrix-vector multiplications needed per input sample: 1 for a
    /// fully-connected layer, one per output pixel for a convolution.
    pub fn ops_per_sample(&self) -> usize {
        match self {
            BankDescriptor::FullyConnected { .. } => 1,
            BankDescriptor::Conv { shape, .. } => {
                let (oh, ow) = shape.output_hw();
                oh * ow
            }
        }
    }

    /// Total weight count of the bank.
    pub(crate) fn weight_count(&self) -> usize {
        self.matrix_rows() * self.matrix_cols()
    }

    /// Output element count per sample (after pooling, if any).
    pub(crate) fn outputs_per_sample(&self) -> usize {
        match self {
            BankDescriptor::FullyConnected { outputs, .. } => *outputs,
            BankDescriptor::Conv { shape, pooling } => {
                let (mut oh, mut ow) = shape.output_hw();
                if let Some(p) = pooling {
                    oh /= p;
                    ow /= p;
                }
                shape.out_channels * oh * ow
            }
        }
    }
}

/// A complete application network at shape level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkDescriptor {
    /// Human-readable name.
    pub name: String,
    /// One entry per computation bank, input side first.
    pub banks: Vec<BankDescriptor>,
}

impl NetworkDescriptor {
    /// Creates a descriptor after validating bank chaining.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidNetwork`] for an empty bank list or for
    /// consecutive fully-connected banks whose sizes do not chain.
    pub(crate) fn new(
        name: impl Into<String>,
        banks: Vec<BankDescriptor>,
    ) -> Result<Self, NnError> {
        if banks.is_empty() {
            return Err(NnError::InvalidNetwork {
                reason: "a network needs at least one computation bank".into(),
            });
        }
        for window in banks.windows(2) {
            if let (
                BankDescriptor::FullyConnected { outputs, .. },
                BankDescriptor::FullyConnected { inputs, .. },
            ) = (&window[0], &window[1])
            {
                if outputs != inputs {
                    return Err(NnError::InvalidNetwork {
                        reason: format!(
                            "fully-connected banks do not chain: {outputs} outputs feed {inputs} inputs"
                        ),
                    });
                }
            }
        }
        Ok(NetworkDescriptor {
            name: name.into(),
            banks,
        })
    }

    /// `Network_Depth` in the paper's terms: number of computation banks.
    pub fn depth(&self) -> usize {
        self.banks.len()
    }

    /// Total weight count across all banks.
    pub fn total_weights(&self) -> usize {
        self.banks.iter().map(BankDescriptor::weight_count).sum()
    }

    /// Input element count of the first bank (one sample's size).
    pub fn input_size(&self) -> usize {
        match &self.banks[0] {
            BankDescriptor::FullyConnected { inputs, .. } => *inputs,
            BankDescriptor::Conv { shape, .. } => {
                shape.in_channels * shape.input_h * shape.input_w
            }
        }
    }

    /// Output element count of the last bank.
    pub fn output_size(&self) -> usize {
        self.banks
            .last()
            .expect("descriptor has at least one bank")
            .outputs_per_sample()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Conv2d;

    /// A convolution's kernels flatten to the weight matrix a crossbar
    /// block stores (paper §II.B-3): one row per output channel, one column
    /// per input of the receptive field. The crossbar holds the transpose,
    /// so the bank's matrix rows are the inputs and its columns the outputs.
    #[test]
    fn conv_kernels_flatten_to_the_bank_matrix() {
        let conv = Conv2d::zeros(3, 64, 3, 1, 1).unwrap();
        let bank = BankDescriptor::Conv {
            shape: ConvShape {
                in_channels: 3,
                out_channels: 64,
                kernel: 3,
                stride: 1,
                padding: 1,
                input_h: 32,
                input_w: 32,
            },
            pooling: None,
        };
        let kernels = conv.weights.shape();
        assert_eq!(kernels[0], bank.matrix_cols());
        assert_eq!(kernels[1..].iter().product::<usize>(), bank.matrix_rows());
    }

    #[test]
    fn fc_bank_geometry() {
        let bank = BankDescriptor::FullyConnected {
            inputs: 2048,
            outputs: 1024,
        };
        assert_eq!(bank.matrix_rows(), 2048);
        assert_eq!(bank.matrix_cols(), 1024);
        assert_eq!(bank.ops_per_sample(), 1);
        assert_eq!(bank.weight_count(), 2048 * 1024);
        assert_eq!(bank.outputs_per_sample(), 1024);
    }

    #[test]
    fn conv_bank_geometry() {
        let shape = ConvShape {
            in_channels: 3,
            out_channels: 64,
            kernel: 3,
            stride: 1,
            padding: 1,
            input_h: 224,
            input_w: 224,
        };
        let bank = BankDescriptor::Conv {
            shape,
            pooling: None,
        };
        assert_eq!(bank.matrix_rows(), 27);
        assert_eq!(bank.matrix_cols(), 64);
        assert_eq!(shape.output_hw(), (224, 224));
        assert_eq!(bank.ops_per_sample(), 224 * 224);
        assert_eq!(bank.outputs_per_sample(), 64 * 224 * 224);
    }

    #[test]
    fn pooling_shrinks_outputs() {
        let shape = ConvShape {
            in_channels: 64,
            out_channels: 64,
            kernel: 3,
            stride: 1,
            padding: 1,
            input_h: 224,
            input_w: 224,
        };
        let bank = BankDescriptor::Conv {
            shape,
            pooling: Some(2),
        };
        assert_eq!(bank.outputs_per_sample(), 64 * 112 * 112);
    }

    #[test]
    fn descriptor_validation() {
        assert!(NetworkDescriptor::new("empty", vec![]).is_err());

        let bad = NetworkDescriptor::new(
            "mismatch",
            vec![
                BankDescriptor::FullyConnected {
                    inputs: 10,
                    outputs: 20,
                },
                BankDescriptor::FullyConnected {
                    inputs: 30,
                    outputs: 5,
                },
            ],
        );
        assert!(bad.is_err());

        let good = NetworkDescriptor::new(
            "chain",
            vec![
                BankDescriptor::FullyConnected {
                    inputs: 10,
                    outputs: 20,
                },
                BankDescriptor::FullyConnected {
                    inputs: 20,
                    outputs: 5,
                },
            ],
        )
        .unwrap();
        assert_eq!(good.depth(), 2);
        assert_eq!(good.input_size(), 10);
        assert_eq!(good.output_size(), 5);
        assert_eq!(good.total_weights(), 200 + 100);
    }
}
