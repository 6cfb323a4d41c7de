//! Accelerator I/O interface modules (paper §III.A).
//!
//! The input module buffers a full sample arriving over
//! `Interface_Number[0]` bus wires before releasing it to the first
//! computation bank (keeping the crossbars fully parallel); the output
//! module streams the final results out over `Interface_Number[1]` wires.

use mnsim_tech::cmos::CmosParams;

use crate::modules::digital::{controller, register_bank};
use crate::perf::ModulePerf;

/// An interface buffering `elements` values of `bits` each and moving them
/// over `lines` bus wires. One operation is one full sample transfer.
pub(crate) fn interface(cmos: &CmosParams, elements: usize, bits: u32, lines: usize) -> ModulePerf {
    let lines = lines.max(1);
    let total_bits = elements as u64 * bits as u64;
    let cycles = total_bits.div_ceil(lines as u64).max(1);
    // Bus clock: a conservative 20 FO4 cycle.
    let bus_cycle = cmos.fo4_delay * 20.0;

    let buffer = register_bank(cmos, elements, bits);
    let sequencer = controller(cmos, cycles as usize);
    ModulePerf {
        area: buffer.area + sequencer.area,
        latency: bus_cycle * cycles as f64,
        // Each cycle clocks `lines` bits of the buffer plus the sequencer.
        dynamic_energy: (cmos.dff_energy * lines as f64 + sequencer.dynamic_energy)
            * cycles as f64,
        leakage: buffer.leakage + sequencer.leakage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnsim_tech::cmos::CmosNode;

    #[test]
    fn transfer_cycles_follow_bus_width() {
        let cmos = CmosNode::N90.params();
        // 128 values × 8 bits over 128 wires → 8 cycles;
        // over 256 wires → 4 cycles.
        let narrow = interface(&cmos, 128, 8, 128);
        let wide = interface(&cmos, 128, 8, 256);
        assert!((narrow.latency.seconds() / wide.latency.seconds() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn buffer_dominates_area() {
        let cmos = CmosNode::N90.params();
        let small = interface(&cmos, 64, 8, 128);
        let large = interface(&cmos, 1024, 8, 128);
        assert!(large.area.square_meters() > 10.0 * small.area.square_meters());
    }

    #[test]
    fn degenerate_widths_are_safe() {
        let cmos = CmosNode::N45.params();
        let i = interface(&cmos, 1, 1, 0); // lines clamped to 1
        assert!(i.latency.seconds() > 0.0);
        assert!(i.area.square_meters() > 0.0);
    }
}
