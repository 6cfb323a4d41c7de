//! The behavior-level computing-accuracy model (paper §VI).
//!
//! * [`crossbar_error`] — analog output-voltage error of one crossbar
//!   (Eqs. 9–11, device variation Eq. 16),
//! * [`quantization`] — voltage error → digital level deviation
//!   (Eqs. 12–14),
//! * [`propagation`] — layer-to-layer accumulation (Eq. 15),
//! * [`fit`] — calibration against the circuit simulator (the Fig.-5
//!   fitting flow, RMSE < 0.01 criterion),
//! * [`variation`] — Monte-Carlo verification of the device-variation
//!   envelope (§VI.D).

pub mod crossbar_error;
pub mod fit;
pub mod propagation;
pub mod quantization;
pub mod variation;

pub use crossbar_error::{AccuracyModel, Case};
pub use fit::{fit_wire_coefficient, measure_circuit_error_rate, ErrorMeasurement, FitResult};
pub use propagation::{propagate, LayerAccuracy};
pub use quantization::{
    avg_digital_deviation, avg_error_rate, max_digital_deviation, max_error_rate,
};
pub use variation::{measure_variation, VariationSample};
