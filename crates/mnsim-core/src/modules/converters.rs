//! DAC / ADC wrappers producing [`ModulePerf`] records at the configured
//! CMOS node (paper §V.C).
//!
//! The ADC precision is taken directly from the algorithm's output
//! precision (the paper's §V.C rule: "the precision of ADC can be directly
//! configured according to the algorithm requirements") and the reference
//! read circuit is a 50 MHz variable-level sensing amplifier.

use mnsim_tech::cmos::CmosNode;
use mnsim_tech::converters::{AdcSpec, DacSpec};

use crate::perf::ModulePerf;

/// The reference read circuit: a multilevel SA of `bits` precision scaled
/// to `node`. One operation is one conversion.
pub(crate) fn reference_adc(node: CmosNode, bits: u32) -> ModulePerf {
    let spec = AdcSpec::multilevel_sa(bits).scaled_to(node);
    adc_perf(&spec)
}

/// Converts an [`AdcSpec`] into a per-conversion [`ModulePerf`].
pub(crate) fn adc_perf(spec: &AdcSpec) -> ModulePerf {
    ModulePerf {
        area: spec.area,
        latency: spec.conversion_time(),
        dynamic_energy: spec.conversion_energy(),
        // Converters are analog blocks: a fixed fraction (10 %) of active
        // power leaks when idle.
        leakage: spec.power * 0.1,
    }
}

/// The reference input DAC of `bits` precision scaled to `node`. One
/// operation is one input-vector drive (all DACs settle in parallel, so
/// per-DAC latency is the line latency).
pub(crate) fn reference_dac(node: CmosNode, bits: u32) -> ModulePerf {
    let spec = DacSpec::reference(bits).scaled_to(node);
    ModulePerf {
        area: spec.area,
        latency: spec.settle_time,
        dynamic_energy: spec.conversion_energy(),
        leakage: spec.power * 0.1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_adc_latency_tracks_50mhz() {
        // At its native 90 nm node the SA converts in 20 ns.
        let adc = reference_adc(CmosNode::N90, 6);
        assert!((adc.latency.nanoseconds() - 20.0).abs() < 1e-9);
        // Scaled to 45 nm it is faster.
        let scaled = reference_adc(CmosNode::N45, 6);
        assert!(scaled.latency.nanoseconds() < 20.0);
    }

    #[test]
    fn adc_energy_grows_with_precision() {
        let low = reference_adc(CmosNode::N45, 4);
        let high = reference_adc(CmosNode::N45, 8);
        assert!(high.dynamic_energy.joules() > low.dynamic_energy.joules());
        assert!(high.area.square_meters() > low.area.square_meters());
    }

    #[test]
    fn dac_perf_positive_and_scales() {
        let d90 = reference_dac(CmosNode::N90, 8);
        let d45 = reference_dac(CmosNode::N45, 8);
        assert!(d90.area.square_meters() > d45.area.square_meters());
        assert!(d90.dynamic_energy.joules() > 0.0);
        assert!(d45.latency.seconds() < d90.latency.seconds());
    }
}
