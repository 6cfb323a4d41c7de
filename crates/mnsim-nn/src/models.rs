//! Descriptors of the reference networks used in the paper's experiments.

use crate::descriptor::{BankDescriptor, ConvShape, NetworkDescriptor};
use crate::error::NnError;

/// A fully-connected multi-layer perceptron: `dims[0] → dims[1] → …`.
///
/// `mlp(&[128, 128, 128])` is the 3-layer NN the paper validates against
/// SPICE (Table II: two 128×128 network layers).
///
/// # Errors
///
/// Returns [`NnError::InvalidNetwork`] if fewer than two sizes are given.
pub fn mlp(dims: &[usize]) -> Result<NetworkDescriptor, NnError> {
    if dims.len() < 2 {
        return Err(NnError::InvalidNetwork {
            reason: format!("an MLP needs at least two sizes, got {dims:?}"),
        });
    }
    let banks = dims
        .windows(2)
        .map(|pair| BankDescriptor::FullyConnected {
            inputs: pair[0],
            outputs: pair[1],
        })
        .collect();
    NetworkDescriptor::new(format!("mlp-{dims:?}"), banks)
}

/// The single 2048×1024 fully-connected layer of the large-computation-bank
/// case study (paper §VII.C, Tables IV/V, Figs. 7/8).
pub fn large_bank_layer() -> NetworkDescriptor {
    mlp(&[2048, 1024]).expect("static dims are valid")
}

/// VGG-16 (Simonyan & Zisserman) on 224×224×3 inputs: 13 convolution
/// banks + 3 fully-connected banks — the paper's deep-CNN case study
/// (§VII.D, Table VI).
pub fn vgg16() -> NetworkDescriptor {
    let mut banks = Vec::new();
    let mut h = 224usize;
    let mut in_c = 3usize;
    // (out_channels, convs in block); every block ends with 2×2 pooling.
    let blocks: [(usize, usize); 5] = [(64, 2), (128, 2), (256, 3), (512, 3), (512, 3)];
    for (out_c, convs) in blocks {
        for i in 0..convs {
            let pooling = if i + 1 == convs { Some(2) } else { None };
            banks.push(BankDescriptor::Conv {
                shape: ConvShape {
                    in_channels: in_c,
                    out_channels: out_c,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                    input_h: h,
                    input_w: h,
                },
                pooling,
            });
            in_c = out_c;
        }
        h /= 2;
    }
    // After 5 pools: 7×7×512 = 25088.
    banks.push(BankDescriptor::FullyConnected {
        inputs: 512 * h * h,
        outputs: 4096,
    });
    banks.push(BankDescriptor::FullyConnected {
        inputs: 4096,
        outputs: 4096,
    });
    banks.push(BankDescriptor::FullyConnected {
        inputs: 4096,
        outputs: 1000,
    });
    NetworkDescriptor::new("vgg16", banks).expect("static shape is valid")
}

/// CaffeNet/AlexNet on 227×227×3 inputs.
///
/// The paper counts CaffeNet as a 7-layer CNN (§III.A); the canonical
/// model has 5 convolution + 3 fully-connected weight layers. We keep all
/// 8 weight-bearing layers as banks and note that the paper's "7" merges
/// the last two fully-connected layers into one bank in its counting.
pub fn caffenet() -> NetworkDescriptor {
    let banks = vec![
        BankDescriptor::Conv {
            shape: ConvShape {
                in_channels: 3,
                out_channels: 96,
                kernel: 11,
                stride: 4,
                padding: 0,
                input_h: 227,
                input_w: 227,
            },
            pooling: Some(2),
        },
        BankDescriptor::Conv {
            shape: ConvShape {
                in_channels: 96,
                out_channels: 256,
                kernel: 5,
                stride: 1,
                padding: 2,
                input_h: 27,
                input_w: 27,
            },
            pooling: Some(2),
        },
        BankDescriptor::Conv {
            shape: ConvShape {
                in_channels: 256,
                out_channels: 384,
                kernel: 3,
                stride: 1,
                padding: 1,
                input_h: 13,
                input_w: 13,
            },
            pooling: None,
        },
        BankDescriptor::Conv {
            shape: ConvShape {
                in_channels: 384,
                out_channels: 384,
                kernel: 3,
                stride: 1,
                padding: 1,
                input_h: 13,
                input_w: 13,
            },
            pooling: None,
        },
        BankDescriptor::Conv {
            shape: ConvShape {
                in_channels: 384,
                out_channels: 256,
                kernel: 3,
                stride: 1,
                padding: 1,
                input_h: 13,
                input_w: 13,
            },
            pooling: Some(2),
        },
        BankDescriptor::FullyConnected {
            inputs: 256 * 6 * 6,
            outputs: 4096,
        },
        BankDescriptor::FullyConnected {
            inputs: 4096,
            outputs: 4096,
        },
        BankDescriptor::FullyConnected {
            inputs: 4096,
            outputs: 1000,
        },
    ];
    NetworkDescriptor::new("caffenet", banks).expect("static shape is valid")
}

/// The 256×256 single-layer DNN task used for the PRIME FF-subarray case
/// study (paper §VII.E-1).
pub fn prime_task() -> NetworkDescriptor {
    mlp(&[256, 256]).expect("static dims are valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::BankDescriptor;

    #[test]
    fn mlp_shapes() {
        let net = mlp(&[128, 128, 128]).unwrap();
        assert_eq!(net.depth(), 2);
        assert_eq!(net.total_weights(), 2 * 128 * 128);
        assert!(mlp(&[64]).is_err());
    }

    #[test]
    fn vgg16_structure() {
        let net = vgg16();
        assert_eq!(net.depth(), 16, "13 conv + 3 fc banks");
        // The famous 138M-ish weight count (we exclude biases).
        let w = net.total_weights();
        assert!(
            (130_000_000..145_000_000).contains(&w),
            "VGG-16 weights ≈ 138M, got {w}"
        );
        // The first fully-connected bank must see 7·7·512 inputs.
        match &net.banks[13] {
            BankDescriptor::FullyConnected { inputs, outputs } => {
                assert_eq!(*inputs, 25088);
                assert_eq!(*outputs, 4096);
            }
            other => panic!("bank 13 should be fully-connected, got {other:?}"),
        }
    }

    #[test]
    fn vgg16_feature_maps_chain() {
        let net = vgg16();
        let mut expect_in = 3usize;
        for bank in &net.banks {
            if let BankDescriptor::Conv { shape, .. } = bank {
                assert_eq!(shape.in_channels, expect_in);
                expect_in = shape.out_channels;
            }
        }
    }

    #[test]
    fn caffenet_structure() {
        let net = caffenet();
        assert_eq!(net.depth(), 8);
        // conv1: 227 → (227-11)/4+1 = 55
        if let BankDescriptor::Conv { shape, .. } = &net.banks[0] {
            assert_eq!(shape.output_hw(), (55, 55));
        } else {
            panic!("bank 0 must be conv");
        }
        // ~61M weights
        let w = net.total_weights();
        assert!((55_000_000..65_000_000).contains(&w), "got {w}");
    }

    #[test]
    fn large_bank_case() {
        let net = large_bank_layer();
        assert_eq!(net.depth(), 1);
        assert_eq!(net.total_weights(), 2048 * 1024);
    }

    #[test]
    fn prime_task_shape() {
        let net = prime_task();
        assert_eq!(net.input_size(), 256);
        assert_eq!(net.output_size(), 256);
    }
}
