//! Memristor device models.
//!
//! A memristor cell is a passive two-terminal element whose resistance can be
//! programmed to one of several states between `r_min` and `r_max`. MNSIM
//! (paper Table I) configures devices by: kind (RRAM/PCM), cell type
//! (1T1R/0T1R), resistance range (default 500 Ω … 500 kΩ), number of
//! programmable levels, a non-linear I-V characteristic, and an optional
//! random resistance variation `σ` (0 … 30 %, paper §VI.D).
//!
//! # The non-linear I-V model
//!
//! Real RRAM/PCM cells conduct super-linearly at higher bias. We use the
//! standard hyperbolic-sine conduction model
//!
//! ```text
//! I(V) = sinh(α·V) / (α · R_state)
//! ```
//!
//! which has low-field (V → 0) resistance exactly `R_state` and a *chord*
//! resistance at operating voltage `V`
//!
//! ```text
//! R_act(V) = V / I(V) = R_state · α·V / sinh(α·V)  ≤  R_state .
//! ```
//!
//! This is precisely the `R_idl → R_act` split that the paper's accuracy
//! model performs in its first approximation step (§VI.A).

use crate::error::TechError;
use crate::units::{Current, Resistance, Time, Voltage};

/// The physical device family used as the memristor cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DeviceKind {
    /// Resistive random-access memory (HfOx/TaOx-style filamentary cells).
    Rram,
    /// Phase-change memory (GST chalcogenide cells).
    Pcm,
}

impl std::fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceKind::Rram => write!(f, "RRAM"),
            DeviceKind::Pcm => write!(f, "PCM"),
        }
    }
}

/// The crossbar cell structure (paper Table I, `Cell_Type`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum CellType {
    /// One transistor + one memristor: MOS-accessed cell,
    /// area `3(W/L + 1)F²` (paper Eq. 7).
    OneT1R,
    /// Cross-point cell without access device, area `4F²` (paper Eq. 8).
    ZeroT1R,
}

impl std::fmt::Display for CellType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellType::OneT1R => write!(f, "1T1R"),
            CellType::ZeroT1R => write!(f, "0T1R"),
        }
    }
}

/// The I-V characteristic used to convert a programmed (low-field) state
/// resistance into the chord resistance at the operating voltage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IvModel {
    /// Ideal ohmic cell: `R_act = R_state` at every bias.
    Linear,
    /// Hyperbolic-sine conduction with non-linearity coefficient `α` (1/V).
    ///
    /// Typical filamentary RRAM shows `α ≈ 1 … 3 /V`.
    Sinh {
        /// Non-linearity coefficient in 1/V.
        alpha: f64,
    },
}

impl IvModel {
    /// Current through a cell programmed to `state` resistance at bias `v`.
    pub fn current(&self, state: Resistance, v: Voltage) -> Current {
        match *self {
            IvModel::Linear => v / state,
            IvModel::Sinh { alpha } => {
                Current::from_amperes((alpha * v.volts()).sinh() / (alpha * state.ohms()))
            }
        }
    }

    /// Chord resistance `V / I(V)` at bias `v`.
    ///
    /// At `v = 0` the low-field limit (`state` itself) is returned.
    pub fn chord_resistance(&self, state: Resistance, v: Voltage) -> Resistance {
        match *self {
            IvModel::Linear => state,
            IvModel::Sinh { alpha } => {
                let x = alpha * v.volts();
                if x.abs() < 1e-12 {
                    state
                } else {
                    Resistance::from_ohms(state.ohms() * x / x.sinh())
                }
            }
        }
    }

    /// Differential (small-signal) resistance `dV/dI` at bias `v`.
    pub fn differential_resistance(&self, state: Resistance, v: Voltage) -> Resistance {
        match *self {
            IvModel::Linear => state,
            IvModel::Sinh { alpha } => {
                // dI/dV = cosh(αV) / R_state  ⇒  dV/dI = R_state / cosh(αV)
                Resistance::from_ohms(state.ohms() / (alpha * v.volts()).cosh())
            }
        }
    }
}

/// A complete memristor device model (paper Table I `Memristor_Model`,
/// `Cell_Type`, `Resistance_Range` rows).
#[derive(Debug, Clone, PartialEq)]
pub struct MemristorModel {
    /// Device family.
    pub kind: DeviceKind,
    /// Cell access structure.
    pub cell_type: CellType,
    /// Lowest programmable resistance (most conductive state).
    pub r_min: Resistance,
    /// Highest programmable resistance (least conductive state).
    pub r_max: Resistance,
    /// Number of programmable bits per cell (levels = 2^bits).
    pub bits_per_cell: u32,
    /// Non-linear I-V characteristic.
    pub iv: IvModel,
    /// Maximum fractional random resistance deviation `σ` (0 … 0.3);
    /// 0 reproduces the paper's noise-free reference results.
    pub sigma: f64,
    /// Read (compute) bias voltage applied to a selected cell.
    pub v_read: Voltage,
    /// Programming (write) voltage.
    pub v_write: Voltage,
    /// Single-cell write pulse duration.
    pub write_latency: Time,
    /// Access-transistor W/L ratio (1T1R area model, paper Eq. 7).
    pub access_wl_ratio: f64,
    /// Memristor technology feature size in nanometres (cell pitch unit).
    pub feature_nm: u32,
}

impl MemristorModel {
    /// The paper's reference RRAM device: 500 Ω – 500 kΩ, 7-bit multilevel
    /// capability, 1T1R cell, mild sinh non-linearity.
    pub fn rram_default() -> Self {
        MemristorModel {
            kind: DeviceKind::Rram,
            cell_type: CellType::OneT1R,
            r_min: Resistance::from_ohms(500.0),
            r_max: Resistance::from_kilo_ohms(500.0),
            bits_per_cell: 7,
            iv: IvModel::Sinh { alpha: 2.5 },
            sigma: 0.0,
            v_read: Voltage::from_volts(0.5),
            v_write: Voltage::from_volts(2.0),
            write_latency: Time::from_nanoseconds(50.0),
            access_wl_ratio: 2.0,
            feature_nm: 45,
        }
    }

    /// Validates the physical consistency of the model.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::InvalidDeviceParameter`] if any range constraint
    /// is violated (NaN or infinite resistances, voltages, write latency,
    /// access-transistor ratio or sinh `α`, non-positive resistances or
    /// `α`, inverted range, `σ ∉ [0, 0.3]`, zero levels, …).
    pub fn validate(&self) -> Result<(), TechError> {
        // NaN passes every `<=` test below, so finiteness comes first.
        let alpha = match self.iv {
            IvModel::Linear => None,
            IvModel::Sinh { alpha } => Some(("alpha", alpha)),
        };
        for (parameter, value) in [
            ("r_min", self.r_min.ohms()),
            ("r_max", self.r_max.ohms()),
            ("v_read", self.v_read.volts()),
            ("v_write", self.v_write.volts()),
            ("write_latency", self.write_latency.seconds()),
            ("access_wl_ratio", self.access_wl_ratio),
        ]
        .into_iter()
        .chain(alpha)
        {
            if !value.is_finite() {
                return Err(TechError::InvalidDeviceParameter {
                    parameter,
                    reason: format!("must be finite, got {value}"),
                });
            }
        }
        if alpha.is_some_and(|(_, alpha)| alpha <= 0.0) {
            return Err(TechError::InvalidDeviceParameter {
                parameter: "alpha",
                reason: "the sinh non-linearity coefficient must be positive".into(),
            });
        }
        if self.r_min.ohms() <= 0.0 {
            return Err(TechError::InvalidDeviceParameter {
                parameter: "r_min",
                reason: "must be positive".into(),
            });
        }
        if self.r_max.ohms() <= self.r_min.ohms() {
            return Err(TechError::InvalidDeviceParameter {
                parameter: "r_max",
                reason: format!(
                    "must exceed r_min ({} > {} required)",
                    self.r_max, self.r_min
                ),
            });
        }
        if self.bits_per_cell == 0 || self.bits_per_cell > 8 {
            return Err(TechError::InvalidDeviceParameter {
                parameter: "bits_per_cell",
                reason: "must be in 1..=8".into(),
            });
        }
        if !(0.0..=0.3).contains(&self.sigma) {
            return Err(TechError::InvalidDeviceParameter {
                parameter: "sigma",
                reason: "device variation must be within 0 %..=30 % (paper §VI.D)".into(),
            });
        }
        if self.v_read.volts() <= 0.0 || self.v_write.volts() <= self.v_read.volts() {
            return Err(TechError::InvalidDeviceParameter {
                parameter: "v_write",
                reason: "write voltage must exceed the (positive) read voltage".into(),
            });
        }
        Ok(())
    }

    /// Number of programmable resistance levels (`2^bits_per_cell`).
    pub fn levels(&self) -> u32 {
        1 << self.bits_per_cell
    }

    /// The state resistance for a given level.
    ///
    /// Levels are conductance-linear (the natural spacing for matrix-vector
    /// multiplication): level 0 is `r_max` (minimum conductance), the top
    /// level is `r_min`.
    ///
    /// # Panics
    ///
    /// Panics if `level >= self.levels()`.
    pub fn resistance_for_level(&self, level: u32) -> Resistance {
        let levels = self.levels();
        assert!(
            level < levels,
            "level {level} out of range for a {}-level cell",
            levels
        );
        let g_min = 1.0 / self.r_max.ohms();
        let g_max = 1.0 / self.r_min.ohms();
        let g = g_min + (g_max - g_min) * level as f64 / (levels - 1) as f64;
        Resistance::from_ohms(1.0 / g)
    }

    /// The quantized level whose conductance is nearest to the requested
    /// normalized weight in `[0, 1]` (0 → `r_max`, 1 → `r_min`).
    pub fn level_for_weight(&self, weight: f64) -> u32 {
        let levels = self.levels();
        let clamped = weight.clamp(0.0, 1.0);
        (clamped * (levels - 1) as f64).round() as u32
    }

    /// Harmonic mean of `r_min` and `r_max`.
    ///
    /// MNSIM uses this as the representative all-cell resistance in the
    /// average-case computation power estimation (paper §V.A).
    pub fn harmonic_mean_resistance(&self) -> Resistance {
        let rmin = self.r_min.ohms();
        let rmax = self.r_max.ohms();
        Resistance::from_ohms(2.0 * rmin * rmax / (rmin + rmax))
    }

    /// Area of a single cell in units of `F²` of the memristor technology
    /// (paper Eqs. 7–8).
    pub(crate) fn cell_area_f2(&self) -> f64 {
        match self.cell_type {
            CellType::OneT1R => 3.0 * (self.access_wl_ratio + 1.0),
            CellType::ZeroT1R => 4.0,
        }
    }

    /// Absolute area of a single cell.
    pub fn cell_area(&self) -> crate::units::Area {
        let f = self.feature_nm as f64 * 1e-9;
        crate::units::Area::from_square_meters(self.cell_area_f2() * f * f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        MemristorModel::rram_default().validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_ranges() {
        let mut m = MemristorModel::rram_default();
        m.r_max = Resistance::from_ohms(100.0); // below r_min
        assert!(m.validate().is_err());

        let mut m = MemristorModel::rram_default();
        m.sigma = 0.5;
        assert!(m.validate().is_err());

        let mut m = MemristorModel::rram_default();
        m.bits_per_cell = 0;
        assert!(m.validate().is_err());

        let mut m = MemristorModel::rram_default();
        m.v_write = Voltage::from_volts(0.1);
        assert!(m.validate().is_err());
    }

    #[test]
    fn level_endpoints_hit_range_bounds() {
        let m = MemristorModel::rram_default();
        let lo = m.resistance_for_level(0);
        let hi = m.resistance_for_level(m.levels() - 1);
        assert!((lo.ohms() - m.r_max.ohms()).abs() / m.r_max.ohms() < 1e-12);
        assert!((hi.ohms() - m.r_min.ohms()).abs() / m.r_min.ohms() < 1e-12);
    }

    #[test]
    fn levels_are_conductance_monotone() {
        let m = MemristorModel::rram_default();
        let mut prev_g = 0.0;
        for level in 0..m.levels() {
            let g = 1.0 / m.resistance_for_level(level).ohms();
            assert!(g > prev_g, "conductance must increase with level");
            prev_g = g;
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn level_out_of_range_panics() {
        let m = MemristorModel::rram_default();
        let _ = m.resistance_for_level(m.levels());
    }

    #[test]
    fn weight_level_roundtrip() {
        let m = MemristorModel::rram_default();
        for level in [0, 1, 63, 64, 127] {
            let w = level as f64 / (m.levels() - 1) as f64;
            assert_eq!(m.level_for_weight(w), level);
        }
        assert_eq!(m.level_for_weight(-0.5), 0);
        assert_eq!(m.level_for_weight(1.5), m.levels() - 1);
    }

    #[test]
    fn harmonic_mean_between_bounds() {
        let m = MemristorModel::rram_default();
        let h = m.harmonic_mean_resistance().ohms();
        assert!(h > m.r_min.ohms() && h < m.r_max.ohms());
        // harmonic mean of 500 and 500k = 2*500*500k/(500.5k) ≈ 999.0
        assert!((h - 999.000999).abs() < 1e-3);
    }

    #[test]
    fn sinh_chord_resistance_below_state() {
        let iv = IvModel::Sinh { alpha: 2.0 };
        let state = Resistance::from_kilo_ohms(10.0);
        let r = iv.chord_resistance(state, Voltage::from_volts(0.5));
        assert!(r.ohms() < state.ohms());
        // zero-bias limit returns the programmed state
        let r0 = iv.chord_resistance(state, Voltage::from_volts(0.0));
        assert_eq!(r0.ohms(), state.ohms());
    }

    #[test]
    fn sinh_current_exceeds_linear_at_high_bias() {
        let state = Resistance::from_kilo_ohms(1.0);
        let v = Voltage::from_volts(1.0);
        let linear = IvModel::Linear.current(state, v);
        let sinh = IvModel::Sinh { alpha: 2.0 }.current(state, v);
        assert!(sinh.amperes() > linear.amperes());
    }

    #[test]
    fn sinh_low_field_matches_linear() {
        let state = Resistance::from_kilo_ohms(1.0);
        let v = Voltage::from_volts(1e-3);
        let linear = IvModel::Linear.current(state, v).amperes();
        let sinh = IvModel::Sinh { alpha: 2.0 }.current(state, v).amperes();
        assert!((sinh - linear).abs() / linear < 1e-5);
    }

    #[test]
    fn differential_resistance_decreases_with_bias() {
        let iv = IvModel::Sinh { alpha: 2.0 };
        let state = Resistance::from_kilo_ohms(10.0);
        let r_low = iv.differential_resistance(state, Voltage::from_volts(0.1));
        let r_high = iv.differential_resistance(state, Voltage::from_volts(1.0));
        assert!(r_high.ohms() < r_low.ohms());
    }

    #[test]
    fn cell_area_models() {
        let mut m = MemristorModel::rram_default();
        m.cell_type = CellType::ZeroT1R;
        assert_eq!(m.cell_area_f2(), 4.0);
        m.cell_type = CellType::OneT1R;
        m.access_wl_ratio = 2.0;
        assert_eq!(m.cell_area_f2(), 9.0); // 3(2+1)
        assert!(m.cell_area().square_meters() > 0.0);
    }

    #[test]
    fn displays() {
        assert_eq!(DeviceKind::Rram.to_string(), "RRAM");
        assert_eq!(CellType::OneT1R.to_string(), "1T1R");
    }
}
