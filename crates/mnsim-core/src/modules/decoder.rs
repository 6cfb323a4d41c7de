//! Address decoder models (paper §V.B, Fig. 4).
//!
//! Memory mode uses the classic address decoder (Fig. 4a): an address
//! selector drives one transfer gate. The computation-oriented decoder
//! (Fig. 4b) adds a NOR gate per line so a single control signal can turn
//! *all* transfer gates on during COMPUTE — the paper's §II.C point that a
//! memory-style one-cell-at-a-time selector cannot feed a crossbar
//! computation.

use mnsim_tech::cmos::CmosParams;

use crate::perf::ModulePerf;

/// The memory-oriented decoder of Fig. 4(a) for `lines` word/bit lines:
/// one `log2(lines)`-input AND per line plus a transfer gate.
pub(crate) fn memory_decoder(cmos: &CmosParams, lines: usize) -> ModulePerf {
    let lines_u = lines.max(2) as u32;
    let addr_bits = (lines.max(2) as f64).log2().ceil() as u32;
    // Per line: an address AND tree (addr_bits − 1 two-input gates) plus
    // address inverters shared across lines.
    let gates = lines_u * addr_bits + addr_bits;
    let transfer_transistors = 2 * lines_u;
    ModulePerf {
        area: cmos.gate_area * gates as f64 + cmos.transistor_area(transfer_transistors),
        latency: cmos.fo4_delay * (addr_bits as f64 + 1.0),
        // In memory mode only one line switches per access.
        dynamic_energy: cmos.gate_energy * (addr_bits as f64 + 1.0),
        leakage: cmos.leakage(4 * gates + transfer_transistors),
    }
}

/// The computation-oriented decoder of Fig. 4(b): the memory decoder plus
/// one NOR gate per line driven by the COMPUTE control signal.
///
/// The returned `dynamic_energy` is the cost of one COMPUTE selection —
/// every line's NOR and transfer gate switches.
pub fn compute_decoder(cmos: &CmosParams, lines: usize) -> ModulePerf {
    let base = memory_decoder(cmos, lines);
    let lines_u = lines.max(2) as u32;
    ModulePerf {
        area: base.area + cmos.gate_area * lines_u as f64,
        // One extra NOR on the selection path.
        latency: base.latency + cmos.fo4_delay,
        // COMPUTE turns on all lines at once: `lines` NOR gates and
        // transfer gates switch.
        dynamic_energy: base.dynamic_energy + cmos.gate_energy * (2.0 * lines_u as f64),
        leakage: base.leakage + cmos.leakage(4 * lines_u),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnsim_tech::cmos::CmosNode;

    #[test]
    fn compute_decoder_extends_memory_decoder() {
        let cmos = CmosNode::N90.params();
        let mem = memory_decoder(&cmos, 128);
        let comp = compute_decoder(&cmos, 128);
        assert!(comp.area.square_meters() > mem.area.square_meters());
        assert!(comp.latency.seconds() > mem.latency.seconds());
        assert!(comp.dynamic_energy.joules() > mem.dynamic_energy.joules());
    }

    #[test]
    fn compute_energy_scales_with_lines_memory_does_not() {
        let cmos = CmosNode::N90.params();
        let c64 = compute_decoder(&cmos, 64).dynamic_energy.joules();
        let c256 = compute_decoder(&cmos, 256).dynamic_energy.joules();
        assert!(c256 > 3.0 * c64, "all-line selection grows with size");

        let m64 = memory_decoder(&cmos, 64).dynamic_energy.joules();
        let m256 = memory_decoder(&cmos, 256).dynamic_energy.joules();
        assert!(m256 < 2.0 * m64, "one-line selection grows only with address width");
    }

    #[test]
    fn latency_grows_logarithmically() {
        let cmos = CmosNode::N90.params();
        let l16 = memory_decoder(&cmos, 16).latency.seconds();
        let l256 = memory_decoder(&cmos, 256).latency.seconds();
        // 4 address bits → 8 address bits: latency grows but far less than 2×.
        assert!(l256 > l16);
        assert!(l256 < 2.0 * l16);
    }

    #[test]
    fn tiny_decoders_are_well_defined() {
        let cmos = CmosNode::N45.params();
        let d = compute_decoder(&cmos, 1);
        assert!(d.area.square_meters() > 0.0);
        assert!(d.latency.seconds() > 0.0);
    }
}
