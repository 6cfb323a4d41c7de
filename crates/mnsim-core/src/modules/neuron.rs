//! Non-linear neuron circuit models (paper §III.B-4).
//!
//! The reference designs are: a LUT-based sigmoid for DNN, a comparator +
//! mux ReLU for CNN, and an accumulate-and-fire circuit for SNN.

use mnsim_tech::cmos::CmosParams;

use crate::config::NetworkType;
use crate::modules::digital::{adder, comparator, mux, register_bank};
use crate::perf::ModulePerf;

/// A LUT-based sigmoid neuron: `2^bits × bits` ROM plus its small address
/// decoder.
pub(crate) fn sigmoid(cmos: &CmosParams, bits: u32) -> ModulePerf {
    let entries = 1u32 << bits.min(12);
    let rom_bits = entries * bits;
    // ROM cell ≈ 1 transistor; address decode ≈ entries gates.
    ModulePerf {
        area: cmos.transistor_area(rom_bits) + cmos.gate_area * entries as f64,
        latency: cmos.fo4_delay * (bits as f64 + 4.0),
        dynamic_energy: cmos.gate_energy * (bits as f64 * 4.0),
        leakage: cmos.leakage(rom_bits / 8 + entries),
    }
}

/// A ReLU neuron: a sign comparator gating a word-wide mux.
pub(crate) fn relu(cmos: &CmosParams, bits: u32) -> ModulePerf {
    comparator(cmos, bits).chain(&mux(cmos, 2, bits))
}

/// An integrate-and-fire neuron: an accumulator register + adder +
/// threshold comparator.
pub(crate) fn integrate_fire(cmos: &CmosParams, bits: u32) -> ModulePerf {
    adder(cmos, bits)
        .chain(&register_bank(cmos, 1, bits))
        .chain(&comparator(cmos, bits))
}

/// The reference neuron for a network type (paper §III.B-4: sigmoid for
/// DNN, integrate-and-fire for SNN, ReLU for CNN).
pub(crate) fn reference_neuron(
    cmos: &CmosParams,
    network_type: NetworkType,
    bits: u32,
) -> ModulePerf {
    match network_type {
        NetworkType::Ann => sigmoid(cmos, bits),
        NetworkType::Snn => integrate_fire(cmos, bits),
        NetworkType::Cnn => relu(cmos, bits),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnsim_tech::cmos::CmosNode;

    #[test]
    fn relu_is_cheapest_sigmoid_is_biggest() {
        let cmos = CmosNode::N45.params();
        let s = sigmoid(&cmos, 8);
        let r = relu(&cmos, 8);
        let i = integrate_fire(&cmos, 8);
        assert!(r.area.square_meters() < i.area.square_meters());
        assert!(i.area.square_meters() < s.area.square_meters());
    }

    #[test]
    fn sigmoid_rom_grows_exponentially_with_bits() {
        let cmos = CmosNode::N45.params();
        let s4 = sigmoid(&cmos, 4).area.square_meters();
        let s8 = sigmoid(&cmos, 8).area.square_meters();
        assert!(s8 / s4 > 8.0);
    }

    #[test]
    fn reference_neuron_dispatch() {
        let cmos = CmosNode::N45.params();
        assert_eq!(
            reference_neuron(&cmos, NetworkType::Ann, 8),
            sigmoid(&cmos, 8)
        );
        assert_eq!(
            reference_neuron(&cmos, NetworkType::Cnn, 8),
            relu(&cmos, 8)
        );
        assert_eq!(
            reference_neuron(&cmos, NetworkType::Snn, 8),
            integrate_fire(&cmos, 8)
        );
    }

    #[test]
    fn all_neurons_have_positive_perf() {
        let cmos = CmosNode::N90.params();
        for t in [NetworkType::Ann, NetworkType::Snn, NetworkType::Cnn] {
            let n = reference_neuron(&cmos, t, 8);
            assert!(n.area.square_meters() > 0.0);
            assert!(n.latency.seconds() > 0.0);
            assert!(n.dynamic_energy.joules() > 0.0);
            assert!(n.leakage.watts() > 0.0);
        }
    }
}
