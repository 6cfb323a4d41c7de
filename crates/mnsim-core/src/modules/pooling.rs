//! Pooling module and pooling line buffer (paper §III.B-3, Fig. 1(f)).
//!
//! The pooling module picks the maximum of a `k × k` window with a
//! comparator tree. Because the window's inputs arrive over multiple
//! cycles, a line buffer holds the live rows: one new value shifts in per
//! cycle and the registers covering the window feed the comparators.

use mnsim_tech::cmos::CmosParams;

use crate::modules::digital::{comparator, mux, register_bank};
use crate::perf::ModulePerf;

/// The `k × k` max-pooling comparator tree over `bits`-wide values.
pub(crate) fn pooling_module(cmos: &CmosParams, window: usize, bits: u32) -> ModulePerf {
    let inputs = window * window;
    if inputs < 2 {
        return ModulePerf::ZERO;
    }
    // A max of n values needs n−1 comparator+mux pairs arranged in a tree
    // of depth ceil(log2 n).
    let pair = comparator(cmos, bits).chain(&mux(cmos, 2, bits));
    let count = inputs - 1;
    let depth = (inputs as f64).log2().ceil();
    let all = pair.replicate_parallel(count);
    ModulePerf {
        area: all.area,
        latency: pair.latency * depth,
        dynamic_energy: all.dynamic_energy,
        leakage: all.leakage,
    }
}

/// The pooling/output line buffer of Fig. 1(f): length per the paper's
/// Eq. (6), `L = W·(h − 1) + w`, where `W` is the feature-map width and
/// `h × w` is the window consuming the data.
pub(crate) fn line_buffer_length(feature_width: usize, window_h: usize, window_w: usize) -> usize {
    feature_width * (window_h.saturating_sub(1)) + window_w
}

/// A line buffer of `length` entries of `bits` each; one operation is one
/// shift (every register clocks).
pub(crate) fn line_buffer(cmos: &CmosParams, length: usize, bits: u32) -> ModulePerf {
    register_bank(cmos, length, bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnsim_tech::cmos::CmosNode;

    #[test]
    fn pooling_module_sizes() {
        let cmos = CmosNode::N45.params();
        let p2 = pooling_module(&cmos, 2, 8); // 4 inputs → 3 pairs
        let p3 = pooling_module(&cmos, 3, 8); // 9 inputs → 8 pairs
        assert!(p3.area.square_meters() > 2.0 * p2.area.square_meters());
        assert!(p3.latency.seconds() > p2.latency.seconds());
        assert_eq!(pooling_module(&cmos, 1, 8), ModulePerf::ZERO);
    }

    #[test]
    fn line_buffer_length_matches_eq6() {
        // Paper Eq. (6): W^{i+1}·(h−1) + w.
        assert_eq!(line_buffer_length(224, 3, 3), 224 * 2 + 3);
        assert_eq!(line_buffer_length(28, 2, 2), 28 + 2);
        // 1×1 window needs a single register.
        assert_eq!(line_buffer_length(100, 1, 1), 1);
    }

    #[test]
    fn line_buffer_scales_with_length() {
        let cmos = CmosNode::N45.params();
        let short = line_buffer(&cmos, 30, 8);
        let long = line_buffer(&cmos, 451, 8);
        assert!(long.area.square_meters() > 10.0 * short.area.square_meters());
        // Latency per shift is one clock edge regardless of length.
        assert_eq!(long.latency, short.latency);
    }
}
