//! # mnsim-nn — neural-network substrate for MNSIM
//!
//! The application side of the MNSIM reproduction:
//!
//! * [`tensor`] — minimal dense tensors,
//! * [`quantize`] — fixed-point quantizers (the paper's ideal-computation
//!   reference, §VI),
//! * [`layers`] / [`network`] — DNN/CNN/SNN inference layers,
//! * [`train`] — SGD/backprop trainer producing the "well-trained networks"
//!   MNSIM maps onto hardware,
//! * [`descriptor`] / [`models`] — shape-level network descriptors (VGG-16,
//!   CaffeNet, MLPs) consumed by the performance models,
//! * [`data`] — synthetic workload generators (documented substitutions for
//!   MNIST/ImageNet/JPEG inputs),
//! * [`noise`] — digital-deviation injection for application-level accuracy
//!   validation,
//! * [`fault`] — behavior-level mirror of crossbar hard defects (stuck
//!   weights, blanked rows/columns) sharing `mnsim-tech`'s fault maps,
//! * [`snn`] — rate-coded spiking-network simulation (integrate-and-fire).
//!
//! # Examples
//!
//! ```
//! use mnsim_nn::models::vgg16;
//!
//! let net = vgg16();
//! assert_eq!(net.depth(), 16); // 13 conv + 3 fully-connected banks
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Library code must surface failures as typed errors; tests may unwrap.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod data;
pub mod descriptor;
pub mod error;
pub mod fault;
pub mod layers;
pub mod models;
pub mod network;
pub mod noise;
pub mod quantize;
pub mod snn;
pub mod tensor;
pub mod train;

pub use descriptor::{BankDescriptor, ConvShape, NetworkDescriptor};
pub use error::NnError;
pub use fault::weight_damage_levels;
pub use layers::{Activation, Conv2d, FullyConnected, Layer};
pub use network::Network;
pub use quantize::Quantizer;
pub use snn::{SpikeTrace, SpikingNetwork};
pub use tensor::Tensor;
pub use train::Mlp;
