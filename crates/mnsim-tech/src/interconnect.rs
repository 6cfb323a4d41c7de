//! Interconnect (wire) technology model.
//!
//! The behavior-level accuracy model of MNSIM (paper §VI) depends on a single
//! interconnect quantity: the resistance `r` of the wire segment between two
//! neighbouring crossbar cells. The paper sweeps the interconnect technology
//! node over {18, 22, 28, 36, 45} nm (up to 90 nm in the CNN case study) and
//! shows that smaller wires — with their higher per-segment resistance —
//! degrade computing accuracy (Fig. 5).
//!
//! We model the segment as a copper wire of width = node size, aspect ratio
//! 2, and length = one cell pitch (2 cell features per crossbar pitch),
//! including the well-known effective-resistivity increase at narrow line
//! widths (surface/grain-boundary scattering, barrier thickness).

use crate::error::TechError;
use crate::units::{Capacitance, Resistance};

/// Bulk resistivity of copper in Ω·m.
const RHO_CU: f64 = 1.72e-8;

/// An interconnect technology node supported by the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum InterconnectNode {
    /// 18 nm half-pitch wires.
    N18,
    /// 22 nm half-pitch wires.
    N22,
    /// 28 nm half-pitch wires.
    N28,
    /// 36 nm half-pitch wires.
    N36,
    /// 45 nm half-pitch wires.
    N45,
    /// 65 nm half-pitch wires.
    N65,
    /// 90 nm half-pitch wires (upper bound of the VGG-16 case study sweep).
    N90,
}

impl InterconnectNode {
    /// All nodes, smallest first (the order of the paper's sweeps).
    pub const ALL: [InterconnectNode; 7] = [
        InterconnectNode::N18,
        InterconnectNode::N22,
        InterconnectNode::N28,
        InterconnectNode::N36,
        InterconnectNode::N45,
        InterconnectNode::N65,
        InterconnectNode::N90,
    ];

    /// The sweep used by the large-computation-bank case study (Table IV).
    pub const BANK_SWEEP: [InterconnectNode; 5] = [
        InterconnectNode::N18,
        InterconnectNode::N22,
        InterconnectNode::N28,
        InterconnectNode::N36,
        InterconnectNode::N45,
    ];

    /// Looks a node up by half-pitch in nanometres.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::UnknownNode`] if the size is not in the database.
    pub fn from_nanometers(nanometers: u32) -> Result<Self, TechError> {
        match nanometers {
            18 => Ok(InterconnectNode::N18),
            22 => Ok(InterconnectNode::N22),
            28 => Ok(InterconnectNode::N28),
            36 => Ok(InterconnectNode::N36),
            45 => Ok(InterconnectNode::N45),
            65 => Ok(InterconnectNode::N65),
            90 => Ok(InterconnectNode::N90),
            _ => Err(TechError::UnknownNode {
                nanometers,
                database: "interconnect",
            }),
        }
    }

    /// The wire half-pitch in nanometres.
    pub const fn nanometers(self) -> u32 {
        match self {
            InterconnectNode::N18 => 18,
            InterconnectNode::N22 => 22,
            InterconnectNode::N28 => 28,
            InterconnectNode::N36 => 36,
            InterconnectNode::N45 => 45,
            InterconnectNode::N65 => 65,
            InterconnectNode::N90 => 90,
        }
    }

    /// Effective copper resistivity at this line width, in Ω·m.
    ///
    /// Narrow lines suffer from electron surface scattering and the
    /// non-scalable diffusion-barrier liner; the multiplier values follow the
    /// ITRS effective-resistivity trend (≈1× at 90 nm up to ≈3× at 18 nm).
    pub(crate) fn effective_resistivity(self) -> f64 {
        let mult = match self {
            InterconnectNode::N18 => 3.0,
            InterconnectNode::N22 => 2.6,
            InterconnectNode::N28 => 2.2,
            InterconnectNode::N36 => 1.8,
            InterconnectNode::N45 => 1.5,
            InterconnectNode::N65 => 1.2,
            InterconnectNode::N90 => 1.0,
        };
        RHO_CU * mult
    }

    /// Resistance of the wire segment between two neighbouring crossbar
    /// cells — the `r` of the paper's Eq. (10).
    ///
    /// Geometry: length = one crossbar cell pitch = 4 half-pitches (wire +
    /// space on either side of the via landing), cross-section =
    /// width × (2 × width) for aspect-ratio-2 wires.
    pub fn segment_resistance(self) -> Resistance {
        let w = self.nanometers() as f64 * 1e-9;
        let length = 4.0 * w;
        let cross_section = w * (2.0 * w);
        Resistance::from_ohms(self.effective_resistivity() * length / cross_section)
    }

    /// Capacitance of one cell-to-cell wire segment.
    ///
    /// Used only by latency models (RC settle time); the accuracy model
    /// deliberately ignores it (paper §VI.B). Per-length wire capacitance is
    /// nearly node-independent (≈0.2 fF/µm), so the segment value scales
    /// only with the pitch.
    pub fn segment_capacitance(self) -> Capacitance {
        let length_um = 4.0 * self.nanometers() as f64 * 1e-3;
        Capacitance::from_femtofarads(0.2 * length_um)
    }

    /// Resistance of a global (inter-bank) wire of the given length.
    ///
    /// Global wires run on thick upper metal: width = 4 half-pitches,
    /// aspect ratio 2.
    pub fn global_wire_resistance(self, length_m: f64) -> Resistance {
        let w = 4.0 * self.nanometers() as f64 * 1e-9;
        Resistance::from_ohms(self.effective_resistivity() * length_m / (w * 2.0 * w))
    }

    /// Capacitance of a global wire of the given length (≈0.2 fF/µm).
    pub fn global_wire_capacitance(self, length_m: f64) -> Capacitance {
        Capacitance::from_femtofarads(0.2 * length_m * 1e6)
    }
}

impl std::fmt::Display for InterconnectNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} nm wire", self.nanometers())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_nanometers() {
        assert_eq!(
            InterconnectNode::from_nanometers(28).unwrap(),
            InterconnectNode::N28
        );
        assert!(InterconnectNode::from_nanometers(10).is_err());
    }

    #[test]
    fn resistance_grows_as_wires_shrink() {
        // The central claim behind the paper's Fig. 5: smaller interconnect
        // nodes have larger per-segment resistance, hence worse accuracy.
        let mut prev = 0.0;
        for node in InterconnectNode::ALL.iter().rev() {
            let r = node.segment_resistance().ohms();
            assert!(
                r > prev,
                "{node}: segment resistance must grow as wires shrink"
            );
            prev = r;
        }
    }

    #[test]
    fn segment_resistance_magnitude_is_sane() {
        // The model is only valid if r << R_memristor (paper Eq. 10
        // approximation); memristor R_min is 500 Ω in the default device, so
        // r must land in the single-ohm range.
        for node in InterconnectNode::ALL {
            let r = node.segment_resistance().ohms();
            assert!(r > 0.05 && r < 50.0, "{node}: r = {r} Ω out of range");
        }
    }

    #[test]
    fn resistivity_multiplier_bounds() {
        for node in InterconnectNode::ALL {
            let rho = node.effective_resistivity();
            assert!((RHO_CU..=3.5 * RHO_CU).contains(&rho));
        }
    }

    #[test]
    fn capacitance_scales_with_pitch() {
        let c18 = InterconnectNode::N18.segment_capacitance().farads();
        let c90 = InterconnectNode::N90.segment_capacitance().farads();
        assert!(c90 > c18);
        assert!((c90 / c18 - 5.0).abs() < 1e-9); // 90/18 = 5× pitch
    }

    #[test]
    fn bank_sweep_is_subset_of_all() {
        for node in InterconnectNode::BANK_SWEEP {
            assert!(InterconnectNode::ALL.contains(&node));
        }
    }

    #[test]
    fn display_mentions_node() {
        assert_eq!(InterconnectNode::N45.to_string(), "45 nm wire");
    }

    #[test]
    fn global_wires_scale_with_length() {
        let node = InterconnectNode::N45;
        let r1 = node.global_wire_resistance(1e-3).ohms();
        let r2 = node.global_wire_resistance(2e-3).ohms();
        assert!((r2 / r1 - 2.0).abs() < 1e-12);
        let c1 = node.global_wire_capacitance(1e-3).farads();
        // 1 mm at 0.2 fF/µm = 200 fF.
        assert!((c1 - 200e-15).abs() < 1e-18);
    }

    #[test]
    fn global_wires_beat_local_segments_per_length() {
        // Thick upper metal: lower resistance per metre than the 1×-pitch
        // crossbar segments.
        let node = InterconnectNode::N28;
        let seg_len = 4.0 * 28e-9;
        let per_m_local = node.segment_resistance().ohms() / seg_len;
        let per_m_global = node.global_wire_resistance(1.0).ohms();
        assert!(per_m_global < per_m_local);
    }
}
