//! The PRIME full-function (FF) subarray case study (paper §VII.E-1,
//! Table VII).
//!
//! PRIME (Chi et al., ISCA'16) embeds computation into ReRAM main memory;
//! its FF subarray is a reconfigurable block where the adders, neurons and
//! buffers live *inside* the computation units. The paper simulates one
//! FF subarray: RRAM, crossbar size 256, four crossbars, 6-bit I/O, 8-bit
//! signed weights at 4 bits per cell (so four cells per weight), 65 nm
//! CMOS, evaluated on a 256×256 DNN layer task.

use mnsim_nn::models;
use mnsim_tech::cmos::CmosNode;

use crate::config::{Config, NetworkType, Precision, SignedMapping, WeightPolarity};
use crate::custom::{CustomDesign, CustomReport};
use crate::error::CoreError;

/// The PRIME FF-subarray configuration.
pub(crate) fn prime_config() -> Config {
    let mut config = Config::for_network(models::prime_task());
    config.network_type = NetworkType::Ann;
    config.cmos = CmosNode::N65;
    config.crossbar_size = 256;
    config.weight_polarity = WeightPolarity::Signed;
    config.signed_mapping = SignedMapping::DualCrossbar;
    config.precision = Precision {
        input_bits: 6,
        weight_bits: 8,
        output_bits: 6,
    };
    // 4-bit cells: 8-bit weights need two slices × two polarities = four
    // cells per weight, matching the published mapping.
    config.device.bits_per_cell = 4;
    config
}

/// The PRIME customized design: reference modules remapped into the
/// units (no extra imported modules are needed — the paper notes "all the
/// modules in the FF subarray have been modeled in MNSIM").
pub(crate) fn prime_design() -> CustomDesign {
    CustomDesign {
        base: prime_config(),
        imported: vec![],
        pipeline_depth: None,
    }
}

/// Evaluates the PRIME FF subarray on the 256×256 DNN-layer peak task.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn simulate_prime() -> Result<CustomReport, CoreError> {
    prime_design().evaluate("PRIME FF-subarray")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configuration_matches_publication() {
        let c = prime_config();
        assert_eq!(c.cmos, CmosNode::N65);
        assert_eq!(c.crossbar_size, 256);
        assert_eq!(c.precision.input_bits, 6);
        assert_eq!(c.precision.output_bits, 6);
        // Four cells per weight: 2 slices × 2 polarity crossbars.
        assert_eq!(c.weight_slices(), 2);
        assert_eq!(c.crossbars_per_block(), 4);
        c.validate().unwrap();
    }

    #[test]
    fn task_uses_four_crossbars_in_one_unit() {
        let c = prime_config();
        let p = crate::mapping::Partition::new(&c, 256, 256);
        assert_eq!(p.unit_count(), 1);
        // unit holds 4 crossbars (checked via the unit model)
        let u = crate::arch::unit::evaluate_unit(&c, 256, 256);
        assert_eq!(u.crossbar_count, 4);
    }

    #[test]
    fn report_magnitudes_are_plausible() {
        let report = simulate_prime().unwrap();
        // Table VII: area 0.17 mm², energy 0.08 µJ, latency 0.66 µs,
        // accuracy 91 %. Our substrate reproduces the order of magnitude,
        // not the exact decimals.
        let area = report.area.square_millimeters();
        assert!(area > 0.01 && area < 10.0, "area {area} mm²");
        let energy = report.energy_per_task.microjoules();
        assert!(energy > 0.001 && energy < 100.0, "energy {energy} µJ");
        let latency = report.latency.microseconds();
        assert!(latency > 0.01 && latency < 100.0, "latency {latency} µs");
        assert!(report.relative_accuracy > 0.5);
    }
}
