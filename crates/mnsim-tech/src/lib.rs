//! # mnsim-tech — technology and device substrate for MNSIM
//!
//! This crate provides the *technology layer* that every performance model in
//! the MNSIM platform consumes:
//!
//! * [`units`] — strongly typed physical quantities ([`Resistance`],
//!   [`Power`], [`Area`], …) so that a latency can never be added to an area
//!   by accident.
//! * [`cmos`] — a table-driven CMOS process database (130 nm … 22 nm) in the
//!   spirit of the PTM / CACTI technology files the original paper uses.
//! * [`interconnect`] — wire technology nodes (90 nm … 18 nm) supplying the
//!   per-segment crossbar wire resistance `r` that drives the behavior-level
//!   accuracy model.
//! * [`memristor`] — memristor device models (RRAM / PCM): resistance range,
//!   multi-level cells, non-linear I-V characteristics and device variation.
//! * [`converters`] — the reference design's data converters: the
//!   multilevel sensing-amplifier read circuit and the input DAC, scaled by
//!   CMOS node.
//! * [`fault`] — hard-defect models: stuck-at cells, broken word/bit lines,
//!   drifted resistances, and seeded, replayable fault maps.
//!
//! All numeric values in the databases are *reconstructed* representative
//! values (documented per entry); the MNSIM models only rely on their relative
//! magnitudes and per-node trends, which is exactly how the original platform
//! treats its technology files.
//!
//! # Examples
//!
//! ```
//! use mnsim_tech::cmos::CmosNode;
//! use mnsim_tech::memristor::MemristorModel;
//!
//! let node = CmosNode::N90;
//! assert!(node.params().vdd.volts() > 1.0);
//!
//! let device = MemristorModel::rram_default();
//! // the harmonic mean used by MNSIM's average-case power model
//! let r = device.harmonic_mean_resistance();
//! assert!(r.ohms() > device.r_min.ohms() && r.ohms() < device.r_max.ohms());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Library code must surface failures as typed errors; tests may unwrap.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod cmos;
pub mod converters;
pub mod error;
pub mod fault;
pub mod interconnect;
pub mod memristor;
pub mod units;

pub use cmos::{CmosNode, CmosParams};
pub use converters::{AdcSpec, DacSpec};
pub use error::TechError;
pub use fault::{CellFault, FaultMap, FaultRates};
pub use interconnect::InterconnectNode;
pub use memristor::{CellType, DeviceKind, IvModel, MemristorModel};
pub use units::{
    Area, Capacitance, Conductance, Current, Energy, Frequency, Power, Resistance, Time, Voltage,
};
