//! Inter-bank global interconnect links.
//!
//! The computation banks of a multi-layer accelerator are physically
//! separate blocks; moving a bank's outputs to the next bank's input
//! buffers crosses a global wire whose length scales with the bank
//! footprint. The paper folds this into the buffer models; we expose it
//! explicitly so that floorplan-dependent effects (big banks → long hops)
//! are visible in the aggregation.

use mnsim_tech::cmos::CmosParams;
use mnsim_tech::interconnect::InterconnectNode;
use mnsim_tech::units::{Area, Energy, Time};

use crate::perf::ModulePerf;

/// A repeatered global link of `bits` wires and `length_m` metres. One
/// operation transfers one `bits`-wide word.
pub(crate) fn interbank_link(
    cmos: &CmosParams,
    interconnect: InterconnectNode,
    bits: u32,
    length_m: f64,
) -> ModulePerf {
    let length = length_m.max(0.0);
    let r = interconnect.global_wire_resistance(length).ohms();
    let c = interconnect.global_wire_capacitance(length).farads();
    let vdd = cmos.vdd.volts();

    // Driver + 0.7·RC Elmore delay of the (repeatered) line.
    let latency = cmos.fo4_delay * 4.0 + Time::from_seconds(0.7 * r * c);
    // Charging the wire at 50 % switching activity, per wire.
    let energy_per_bit = Energy::from_joules(0.5 * c * vdd * vdd);
    // Drivers + repeaters: ~8 transistors per wire per millimetre.
    let repeaters = (8.0 * (1.0 + length * 1e3)).ceil() as u32;

    ModulePerf {
        area: cmos.transistor_area(repeaters * bits),
        latency,
        dynamic_energy: energy_per_bit * bits as f64,
        leakage: cmos.leakage(repeaters * bits / 4),
    }
}

/// Estimates the hop length between two neighbouring banks from their
/// footprints: half the sum of the two blocks' side lengths.
pub(crate) fn hop_length(bank_a: Area, bank_b: Area) -> f64 {
    (bank_a.square_meters().sqrt() + bank_b.square_meters().sqrt()) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnsim_tech::cmos::CmosNode;

    #[test]
    fn longer_links_cost_more() {
        let cmos = CmosNode::N45.params();
        let short = interbank_link(&cmos, InterconnectNode::N28, 64, 0.5e-3);
        let long = interbank_link(&cmos, InterconnectNode::N28, 64, 5e-3);
        assert!(long.latency.seconds() > short.latency.seconds());
        assert!(long.dynamic_energy.joules() > short.dynamic_energy.joules());
        assert!(long.area.square_meters() > short.area.square_meters());
    }

    #[test]
    fn wider_links_cost_area_and_energy_not_latency() {
        let cmos = CmosNode::N45.params();
        let narrow = interbank_link(&cmos, InterconnectNode::N28, 8, 1e-3);
        let wide = interbank_link(&cmos, InterconnectNode::N28, 128, 1e-3);
        assert!((wide.dynamic_energy.joules() / narrow.dynamic_energy.joules() - 16.0).abs() < 1e-9);
        assert_eq!(wide.latency, narrow.latency);
    }

    #[test]
    fn millimetre_hop_is_subnanosecond_with_repeaters() {
        let cmos = CmosNode::N45.params();
        let link = interbank_link(&cmos, InterconnectNode::N45, 64, 1e-3);
        let ns = link.latency.nanoseconds();
        assert!(ns > 0.0 && ns < 5.0, "hop latency {ns} ns");
    }

    #[test]
    fn hop_length_from_footprints() {
        let a = Area::from_square_millimeters(4.0); // 2 mm side
        let b = Area::from_square_millimeters(1.0); // 1 mm side
        assert!((hop_length(a, b) - 1.5e-3).abs() < 1e-12);
    }
}
