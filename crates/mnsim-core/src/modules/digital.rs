//! Digital peripheral building blocks: adders, adder trees, shifters,
//! subtractors, comparators, MUXes, registers and controllers.
//!
//! All models are transistor-count × technology-parameter estimates in the
//! style of the paper's §V.D ("MNSIM provides a reference transistor-level
//! design and uses the technology parameters from CACTI, NVSim, PTM…").

use mnsim_tech::cmos::CmosParams;

use crate::perf::ModulePerf;

/// A ripple-carry adder of the given bit width.
pub(crate) fn adder(cmos: &CmosParams, bits: u32) -> ModulePerf {
    let bits = bits.max(1);
    ModulePerf {
        area: cmos.full_adder_area * bits as f64,
        latency: cmos.full_adder_delay * bits as f64, // carry ripple
        dynamic_energy: cmos.full_adder_energy * bits as f64,
        leakage: cmos.leakage(28 * bits),
    }
}

/// A subtractor: an adder plus one inverter per bit (two's-complement).
pub(crate) fn subtractor(cmos: &CmosParams, bits: u32) -> ModulePerf {
    let bits = bits.max(1);
    let base = adder(cmos, bits);
    ModulePerf {
        area: base.area + cmos.gate_area * (bits as f64 * 0.5),
        latency: base.latency + cmos.fo4_delay,
        dynamic_energy: base.dynamic_energy + cmos.gate_energy * bits as f64,
        leakage: base.leakage + cmos.leakage(2 * bits),
    }
}

/// A binary adder tree merging `inputs` operands of `bits` width
/// (paper §III.B-2). Operand width grows by one bit per level.
///
/// Returns [`ModulePerf::ZERO`] for fewer than two inputs (nothing to
/// merge).
pub(crate) fn adder_tree(cmos: &CmosParams, inputs: usize, bits: u32) -> ModulePerf {
    if inputs < 2 {
        return ModulePerf::ZERO;
    }
    let levels = (inputs as f64).log2().ceil() as u32;
    let mut perf = ModulePerf::ZERO;
    let mut remaining = inputs;
    for level in 0..levels {
        let adders_here = remaining / 2;
        let width = bits + level;
        let one = adder(cmos, width);
        // Adders within a level operate in parallel; levels chain.
        let stage = one.replicate_parallel(adders_here);
        perf = ModulePerf {
            area: perf.area + stage.area,
            latency: perf.latency + stage.latency,
            dynamic_energy: perf.dynamic_energy + stage.dynamic_energy,
            leakage: perf.leakage + stage.leakage,
        };
        remaining = remaining / 2 + remaining % 2;
    }
    perf
}

/// Shift-and-add merge of `slices` weight bit-slices, each holding
/// `slice_bits` of the weight, into a `total_bits` result (paper §III.B-2:
/// "the shifters need to be added").
pub(crate) fn shift_add_merge(
    cmos: &CmosParams,
    slices: usize,
    slice_bits: u32,
    total_bits: u32,
) -> ModulePerf {
    if slices < 2 {
        return ModulePerf::ZERO;
    }
    // A fixed shift is wiring; the cost is the (slices − 1) adders at full
    // output width plus one register of pipeline state.
    let merge = adder(cmos, total_bits + slice_bits).repeat_sequential(slices - 1);
    let staging = register_bank(cmos, 1, total_bits + slice_bits);
    merge.chain(&staging)
}

/// An n-bit magnitude comparator (used by pooling and IF neurons).
pub(crate) fn comparator(cmos: &CmosParams, bits: u32) -> ModulePerf {
    let bits = bits.max(1);
    ModulePerf {
        area: cmos.gate_area * (3.0 * bits as f64),
        latency: cmos.fo4_delay * (bits as f64 / 2.0 + 2.0),
        dynamic_energy: cmos.gate_energy * (3.0 * bits as f64),
        leakage: cmos.leakage(12 * bits),
    }
}

/// An `inputs`-to-1 multiplexer of `bits` width (pass-gate implementation;
/// the read-circuit routing of paper §III.C-4).
pub(crate) fn mux(cmos: &CmosParams, inputs: usize, bits: u32) -> ModulePerf {
    if inputs < 2 {
        return ModulePerf::ZERO;
    }
    let stages = (inputs as f64).log2().ceil();
    let pass_gates = (inputs - 1) as u32 * bits;
    ModulePerf {
        area: cmos.transistor_area(2 * pass_gates),
        latency: cmos.fo4_delay * stages,
        dynamic_energy: cmos.gate_energy * (0.5 * pass_gates as f64),
        leakage: cmos.leakage(2 * pass_gates),
    }
}

/// A bank of `words` registers of `bits` each; one operation clocks the
/// whole bank once.
pub(crate) fn register_bank(cmos: &CmosParams, words: usize, bits: u32) -> ModulePerf {
    let flops = words as u32 * bits;
    ModulePerf {
        area: cmos.dff_area * flops as f64,
        latency: cmos.fo4_delay * 4.0, // clk-to-q + setup
        dynamic_energy: cmos.dff_energy * (flops as f64 * 0.5), // 50 % activity
        leakage: cmos.leakage(24 * flops),
    }
}

/// The bank controller: a cycle counter plus instruction decode for the
/// basic WRITE / READ / COMPUTE instruction set (paper §III.D).
pub(crate) fn controller(cmos: &CmosParams, max_count: usize) -> ModulePerf {
    let width = (max_count.max(2) as f64).log2().ceil() as u32;
    let counter = register_bank(cmos, 1, width);
    let decode_gates = 8 * width;
    ModulePerf {
        area: counter.area + cmos.gate_area * decode_gates as f64,
        latency: counter.latency + cmos.fo4_delay * 2.0,
        dynamic_energy: counter.dynamic_energy + cmos.gate_energy * decode_gates as f64 * 0.25,
        leakage: counter.leakage + cmos.leakage(4 * decode_gates),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnsim_tech::cmos::CmosNode;

    fn p90() -> CmosParams {
        CmosNode::N90.params()
    }

    #[test]
    fn adder_scales_with_width() {
        let a8 = adder(&p90(), 8);
        let a16 = adder(&p90(), 16);
        assert!((a16.area / a8.area - 2.0).abs() < 1e-12);
        assert!((a16.latency / a8.latency - 2.0).abs() < 1e-12);
        assert!(a16.leakage.watts() > a8.leakage.watts());
    }

    #[test]
    fn subtractor_slightly_larger_than_adder() {
        let a = adder(&p90(), 8);
        let s = subtractor(&p90(), 8);
        assert!(s.area.square_meters() > a.area.square_meters());
        assert!(s.area.square_meters() < 1.5 * a.area.square_meters());
    }

    #[test]
    fn adder_tree_structure() {
        let cmos = p90();
        // 2 inputs: exactly one adder.
        let t2 = adder_tree(&cmos, 2, 8);
        let a = adder(&cmos, 8);
        assert_eq!(t2.area, a.area);
        // 4 inputs: 2 + 1 adders, two levels of latency.
        let t4 = adder_tree(&cmos, 4, 8);
        assert!(t4.area.square_meters() > 2.9 * a.area.square_meters());
        assert!(t4.latency.seconds() > 1.9 * a.latency.seconds());
        // fewer than 2 inputs: nothing.
        assert_eq!(adder_tree(&cmos, 1, 8), ModulePerf::ZERO);
        assert_eq!(adder_tree(&cmos, 0, 8), ModulePerf::ZERO);
    }

    #[test]
    fn adder_tree_handles_non_power_of_two() {
        let t3 = adder_tree(&p90(), 3, 8);
        let t4 = adder_tree(&p90(), 4, 8);
        assert!(t3.area.square_meters() < t4.area.square_meters());
        assert!(t3.area.square_meters() > 0.0);
    }

    #[test]
    fn shift_add_merge_counts_slices() {
        let cmos = p90();
        assert_eq!(shift_add_merge(&cmos, 1, 4, 8), ModulePerf::ZERO);
        let m2 = shift_add_merge(&cmos, 2, 4, 8);
        let m4 = shift_add_merge(&cmos, 4, 4, 8);
        assert!(m4.latency.seconds() > m2.latency.seconds());
        assert!(m4.dynamic_energy.joules() > m2.dynamic_energy.joules());
    }

    #[test]
    fn mux_grows_with_inputs() {
        let cmos = p90();
        assert_eq!(mux(&cmos, 1, 8), ModulePerf::ZERO);
        let m4 = mux(&cmos, 4, 8);
        let m16 = mux(&cmos, 16, 8);
        assert!(m16.area.square_meters() > m4.area.square_meters());
        assert!(m16.latency.seconds() > m4.latency.seconds());
    }

    #[test]
    fn register_bank_and_controller() {
        let cmos = p90();
        let r = register_bank(&cmos, 64, 8);
        assert!(r.area.square_meters() > 0.0);
        let small = controller(&cmos, 4);
        let big = controller(&cmos, 1024);
        assert!(big.area.square_meters() > small.area.square_meters());
    }

    #[test]
    fn comparator_reasonable() {
        let c = comparator(&p90(), 8);
        let a = adder(&p90(), 8);
        assert!(c.area.square_meters() < a.area.square_meters());
        assert!(c.latency.seconds() < a.latency.seconds());
    }
}
