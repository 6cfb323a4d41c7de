//! The three-level hierarchical structure of a memristor-based
//! neuromorphic accelerator (paper §III):
//!
//! * [`accelerator`] — Level 1: I/O interfaces + cascaded banks,
//! * [`bank`] — Level 2: units + adder tree + pooling + neurons + buffers,
//! * [`mod@unit`] — Level 3: crossbars + decoders + DACs + read circuits.

pub mod accelerator;
pub mod bank;
pub mod unit;

pub use accelerator::AcceleratorModelResult;
pub use bank::BankModelResult;
pub use unit::{UnitAreaBreakdown, UnitModelResult};
