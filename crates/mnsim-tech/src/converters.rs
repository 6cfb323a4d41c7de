//! Data-converter performance database (ADC / DAC / sensing amplifiers).
//!
//! The read circuits of a computation unit are ADCs or multilevel sensing
//! amplifiers (paper §III.C-4); the input peripheral circuit contains DACs
//! (§III.C-3). The paper chooses converters from a survey-style database
//! (Murmann's ADC survey plus the variable-level SA of the reference design)
//! and scales them with the CMOS node. This module keeps the reference
//! design's two converters: the variable-level SA read circuit and the
//! input DAC.
//!
//! Energy figures follow the Walden figure-of-merit convention:
//! `E_conv = FoM · 2^bits` per conversion, with the FoM and base areas quoted
//! at each entry's native technology node and scaled to the simulated node by
//! first-order rules (`area ∝ F²`, `power ∝ Vdd²`, `delay ∝ FO4`).

use crate::cmos::CmosNode;
use crate::units::{Area, Energy, Frequency, Power, Time};

/// A concrete read-circuit design point: the variable/multilevel sensing
/// amplifier of the paper's reference design (after Li et al., IMW 2011),
/// low power at moderate speed.
#[derive(Debug, Clone, PartialEq)]
pub struct AdcSpec {
    /// Output precision in bits.
    pub bits: u32,
    /// Conversion rate.
    pub frequency: Frequency,
    /// Average power while converting.
    pub power: Power,
    /// Layout area.
    pub area: Area,
    /// Technology node the base numbers are quoted at.
    pub native_node: CmosNode,
}

impl AdcSpec {
    /// The paper's reference read circuit: a variable-level SA running at
    /// 50 MHz (paper §V.C), quoted here at 90 nm for the requested
    /// precision.
    ///
    /// The SA resolves one level per comparison, so its power and area grow
    /// with the number of levels it distinguishes while the 50 MHz
    /// conversion rate is fixed by design.
    pub fn multilevel_sa(bits: u32) -> Self {
        let levels = (1u64 << bits) as f64;
        AdcSpec {
            bits,
            frequency: Frequency::from_megahertz(50.0),
            // ~2 µW per distinguishable level at 90 nm.
            power: Power::from_microwatts(2.0 * levels),
            // comparator + reference ladder: ~60 µm² per level at 90 nm.
            area: Area::from_square_micrometers(60.0 * levels),
            native_node: CmosNode::N90,
        }
    }

    /// Time for one complete conversion.
    pub fn conversion_time(&self) -> Time {
        self.frequency.period()
    }

    /// Energy of one complete conversion.
    pub fn conversion_energy(&self) -> Energy {
        self.power * self.conversion_time()
    }

    /// Scales the design to another CMOS node using first-order rules:
    /// `area ∝ F²`, `power ∝ Vdd²`, `frequency ∝ 1/FO4`.
    pub fn scaled_to(&self, node: CmosNode) -> AdcSpec {
        let from = self.native_node.params();
        let to = node.params();
        let area_scale = (node.nanometers() as f64 / self.native_node.nanometers() as f64).powi(2);
        let power_scale = (to.vdd.volts() / from.vdd.volts()).powi(2);
        let speed_scale = from.fo4_delay.seconds() / to.fo4_delay.seconds();
        AdcSpec {
            bits: self.bits,
            frequency: self.frequency * speed_scale,
            power: self.power * power_scale * speed_scale,
            area: self.area * area_scale,
            native_node: node,
        }
    }
}

/// A digital-to-analog converter driving one crossbar input row.
#[derive(Debug, Clone, PartialEq)]
pub struct DacSpec {
    /// Input precision in bits.
    pub bits: u32,
    /// Conversion (settling) time.
    pub settle_time: Time,
    /// Average power while driving.
    pub power: Power,
    /// Layout area.
    pub area: Area,
    /// Technology node the base numbers are quoted at.
    pub native_node: CmosNode,
}

impl DacSpec {
    /// The reference resistive-ladder DAC of the given precision at 90 nm.
    ///
    /// Power and area grow linearly with the ladder length (2^bits taps are
    /// shared across segments, giving an effective linear growth in bits for
    /// segmented ladders).
    pub fn reference(bits: u32) -> Self {
        DacSpec {
            bits,
            settle_time: Time::from_nanoseconds(1.0 + 0.25 * bits as f64),
            power: Power::from_microwatts(10.0 * bits as f64),
            area: Area::from_square_micrometers(100.0 * bits as f64),
            native_node: CmosNode::N90,
        }
    }

    /// Energy of one conversion.
    pub fn conversion_energy(&self) -> Energy {
        self.power * self.settle_time
    }

    /// Scales the design to another CMOS node (same rules as
    /// [`AdcSpec::scaled_to`]).
    pub fn scaled_to(&self, node: CmosNode) -> DacSpec {
        let from = self.native_node.params();
        let to = node.params();
        let area_scale = (node.nanometers() as f64 / self.native_node.nanometers() as f64).powi(2);
        let power_scale = (to.vdd.volts() / from.vdd.volts()).powi(2);
        let speed_scale = from.fo4_delay.seconds() / to.fo4_delay.seconds();
        DacSpec {
            bits: self.bits,
            settle_time: self.settle_time / speed_scale,
            power: self.power * power_scale * speed_scale,
            area: self.area * area_scale,
            native_node: node,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sa_power_grows_with_precision() {
        let p4 = AdcSpec::multilevel_sa(4).power.watts();
        let p8 = AdcSpec::multilevel_sa(8).power.watts();
        assert!(p8 > p4);
        assert!((p8 / p4 - 16.0).abs() < 1e-9); // 2^8 / 2^4
    }

    #[test]
    fn sa_matches_paper_reference_frequency() {
        let sa = AdcSpec::multilevel_sa(6);
        assert!((sa.frequency.hertz() - 50e6).abs() < 1e-3);
        assert!((sa.conversion_time().nanoseconds() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn scaling_down_shrinks_area_and_speeds_up() {
        let base = AdcSpec::multilevel_sa(6);
        let scaled = base.scaled_to(CmosNode::N45);
        assert!(scaled.area.square_meters() < base.area.square_meters());
        assert!(scaled.frequency.hertz() > base.frequency.hertz());
        assert_eq!(scaled.native_node, CmosNode::N45);
    }

    #[test]
    fn scaling_to_native_node_is_identity() {
        let base = AdcSpec::multilevel_sa(6);
        let same = base.scaled_to(CmosNode::N90);
        assert!((same.power.watts() - base.power.watts()).abs() < 1e-15);
        assert!((same.area.square_meters() - base.area.square_meters()).abs() < 1e-20);
    }

    #[test]
    fn dac_energy_positive_and_scales() {
        let d = DacSpec::reference(8);
        assert!(d.conversion_energy().joules() > 0.0);
        let scaled = d.scaled_to(CmosNode::N45);
        assert!(scaled.settle_time.seconds() < d.settle_time.seconds());
    }
}
