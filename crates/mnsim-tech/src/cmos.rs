//! CMOS process technology database.
//!
//! MNSIM estimates the peripheral (CMOS) circuitry — decoders, adder trees,
//! buffers, neuron circuits, MUXes — from a small set of per-node process
//! parameters, in the same way the original platform consumes CACTI / NVSim /
//! PTM technology files. This module reconstructs such a table for the nodes
//! exercised by the paper's experiments (130, 90, 65, 45, 32 and 22 nm).
//!
//! The absolute values are representative of published PTM/ITRS data; the
//! MNSIM models only depend on them through well-known first-order formulas
//! (`E = C·V²`, FO4-delay multiples, transistor-count × `F²` areas), so the
//! cross-node *trends* — which are what the design-space exploration studies
//! — are faithful.

use crate::error::TechError;
use crate::units::{Area, Capacitance, Energy, Power, Time, Voltage};

/// A CMOS process node supported by the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum CmosNode {
    /// 130 nm (used by the paper's layout validation, Fig. 6).
    N130,
    /// 90 nm (used by the paper's SPICE validation, Table II).
    N90,
    /// 65 nm (used by the PRIME case study, Table VII).
    N65,
    /// 45 nm (used by the large-bank and VGG-16 case studies).
    N45,
    /// 32 nm (used by the ISAAC case study, Table VII).
    N32,
    /// 22 nm (headroom for forward-looking sweeps).
    N22,
}

impl CmosNode {
    /// Looks a node up by feature size in nanometres.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::UnknownNode`] if the size is not in the database.
    pub fn from_nanometers(nanometers: u32) -> Result<Self, TechError> {
        match nanometers {
            130 => Ok(CmosNode::N130),
            90 => Ok(CmosNode::N90),
            65 => Ok(CmosNode::N65),
            45 => Ok(CmosNode::N45),
            32 => Ok(CmosNode::N32),
            22 => Ok(CmosNode::N22),
            _ => Err(TechError::UnknownNode {
                nanometers,
                database: "cmos",
            }),
        }
    }

    /// The feature size `F` of this node in nanometres.
    pub const fn nanometers(self) -> u32 {
        match self {
            CmosNode::N130 => 130,
            CmosNode::N90 => 90,
            CmosNode::N65 => 65,
            CmosNode::N45 => 45,
            CmosNode::N32 => 32,
            CmosNode::N22 => 22,
        }
    }

    /// The feature size `F` in metres (convenience for area formulas that
    /// use multiples of `F²`).
    pub(crate) fn feature_size_m(self) -> f64 {
        self.nanometers() as f64 * 1e-9
    }

    /// The area of one `F²` at this node.
    pub(crate) fn f2(self) -> Area {
        let f = self.feature_size_m();
        Area::from_square_meters(f * f)
    }

    /// The full parameter record for this node.
    pub fn params(self) -> CmosParams {
        // Representative PTM/ITRS-style values. Sources of the general
        // trends: PTM bulk CMOS models (Zhao & Cao 2007) and the CACTI
        // technology tables; exact decimals are reconstructed.
        match self {
            CmosNode::N130 => CmosParams::build(self, 1.30, 1.60, 52.0, 0.8),
            CmosNode::N90 => CmosParams::build(self, 1.20, 1.40, 40.0, 1.5),
            CmosNode::N65 => CmosParams::build(self, 1.10, 1.20, 30.0, 3.0),
            CmosNode::N45 => CmosParams::build(self, 1.00, 1.10, 21.0, 6.0),
            CmosNode::N32 => CmosParams::build(self, 0.90, 1.00, 15.0, 12.0),
            CmosNode::N22 => CmosParams::build(self, 0.80, 0.90, 12.0, 20.0),
        }
    }
}

impl std::fmt::Display for CmosNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} nm CMOS", self.nanometers())
    }
}

/// Per-node CMOS process parameters consumed by the MNSIM circuit models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CmosParams {
    /// The node this record describes.
    pub node: CmosNode,
    /// Nominal supply voltage.
    pub vdd: Voltage,
    /// Gate capacitance per micrometre of transistor width.
    pub gate_cap_per_um: Capacitance,
    /// Fan-out-of-4 inverter delay — the canonical logic-speed unit.
    pub fo4_delay: Time,
    /// Sub-threshold leakage power of a minimum-size transistor.
    pub leakage_per_transistor: Power,
    /// Switching energy of a minimum-size 2-input gate (`≈ C·V²`).
    pub gate_energy: Energy,
    /// Layout area of a minimum-size 2-input logic gate.
    pub gate_area: Area,
    /// Layout area of a static D flip-flop (≈ 24 transistors).
    pub dff_area: Area,
    /// Switching energy of a D flip-flop per clock.
    pub dff_energy: Energy,
    /// Layout area of a 1-bit full adder (≈ 28 transistors).
    pub full_adder_area: Area,
    /// Switching energy of a 1-bit full adder per operation.
    pub full_adder_energy: Energy,
    /// Propagation delay of a 1-bit full adder (carry path, ≈ 2 FO4).
    pub full_adder_delay: Time,
}

impl CmosParams {
    /// Derives the full record from the four primary per-node numbers.
    ///
    /// * `vdd_v` — supply voltage in volts,
    /// * `cgate_ff_um` — gate capacitance in fF/µm,
    /// * `fo4_ps` — FO4 delay in picoseconds,
    /// * `leak_nw` — leakage per minimum transistor in nanowatts.
    ///
    /// Derived quantities use first-order digital-design rules:
    /// gate switching energy `≈ Ceff · Vdd²` where `Ceff` is the gate cap of
    /// ~3 minimum-width transistors; layout areas are transistor counts
    /// scaled by a routed-cell factor of ~40 F² per transistor pair (a
    /// standard-cell-density figure).
    fn build(node: CmosNode, vdd_v: f64, cgate_ff_um: f64, fo4_ps: f64, leak_nw: f64) -> Self {
        let vdd = Voltage::from_volts(vdd_v);
        let gate_cap_per_um = Capacitance::from_femtofarads(cgate_ff_um);
        let fo4_delay = Time::from_picoseconds(fo4_ps);
        let leakage_per_transistor = Power::from_nanowatts(leak_nw);

        // Minimum transistor width ≈ 2F; effective switched cap of a 2-input
        // gate ≈ 3 transistor gates + local wire ≈ 4 × Cgate(2F).
        let f_um = node.nanometers() as f64 * 1e-3;
        let c_min = Capacitance::from_femtofarads(cgate_ff_um * 2.0 * f_um);
        let c_gate_eff = c_min * 4.0;
        let gate_energy = Energy::from_joules(c_gate_eff.farads() * vdd_v * vdd_v);

        // Standard-cell density: ~20 F² of routed area per transistor.
        let per_transistor = node.f2() * 20.0;
        let gate_area = per_transistor * 4.0; // 2-input NAND/NOR: 4 transistors
        let dff_area = per_transistor * 24.0;
        let full_adder_area = per_transistor * 28.0;

        // A DFF toggles ~6 internal nodes; a full adder ~7 gate equivalents.
        let dff_energy = gate_energy * 6.0;
        let full_adder_energy = gate_energy * 7.0;
        let full_adder_delay = fo4_delay * 2.0;

        CmosParams {
            node,
            vdd,
            gate_cap_per_um,
            fo4_delay,
            leakage_per_transistor,
            gate_energy,
            gate_area,
            dff_area,
            dff_energy,
            full_adder_area,
            full_adder_energy,
            full_adder_delay,
        }
    }

    /// Area of an `n`-transistor custom cell at this node's standard-cell
    /// density.
    pub fn transistor_area(&self, transistors: u32) -> Area {
        self.node.f2() * (20.0 * transistors as f64)
    }

    /// Leakage of an `n`-transistor block.
    pub fn leakage(&self, transistors: u32) -> Power {
        self.leakage_per_transistor * transistors as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All nodes in the database, largest feature size first.
    const ALL: [CmosNode; 6] = [
        CmosNode::N130,
        CmosNode::N90,
        CmosNode::N65,
        CmosNode::N45,
        CmosNode::N32,
        CmosNode::N22,
    ];

    #[test]
    fn lookup_by_nanometers() {
        assert_eq!(CmosNode::from_nanometers(90).unwrap(), CmosNode::N90);
        assert_eq!(CmosNode::from_nanometers(45).unwrap(), CmosNode::N45);
        assert!(matches!(
            CmosNode::from_nanometers(7),
            Err(TechError::UnknownNode { nanometers: 7, .. })
        ));
    }

    #[test]
    fn all_nodes_have_params() {
        for node in ALL {
            let p = node.params();
            assert!(p.vdd.volts() > 0.0, "{node}");
            assert!(p.fo4_delay.seconds() > 0.0, "{node}");
            assert!(p.gate_energy.joules() > 0.0, "{node}");
            assert!(p.gate_area.square_meters() > 0.0, "{node}");
        }
    }

    #[test]
    fn vdd_decreases_with_scaling() {
        let mut prev = f64::INFINITY;
        for node in ALL {
            let vdd = node.params().vdd.volts();
            assert!(vdd < prev, "Vdd must shrink monotonically with the node");
            prev = vdd;
        }
    }

    #[test]
    fn speed_increases_with_scaling() {
        let mut prev = f64::INFINITY;
        for node in ALL {
            let fo4 = node.params().fo4_delay.seconds();
            assert!(fo4 < prev, "FO4 must shrink monotonically with the node");
            prev = fo4;
        }
    }

    #[test]
    fn gate_energy_decreases_with_scaling() {
        let mut prev = f64::INFINITY;
        for node in ALL {
            let e = node.params().gate_energy.joules();
            assert!(e < prev, "gate energy must shrink with the node");
            prev = e;
        }
    }

    #[test]
    fn leakage_increases_with_scaling() {
        // Sub-threshold leakage famously grows as planar CMOS scales down.
        let mut prev = 0.0;
        for node in ALL {
            let l = node.params().leakage_per_transistor.watts();
            assert!(l > prev, "leakage must grow with scaling");
            prev = l;
        }
    }

    #[test]
    fn f2_area_matches_feature_size() {
        let node = CmosNode::N90;
        let f2 = node.f2().square_meters();
        assert!((f2 - 90e-9 * 90e-9).abs() < 1e-25);
    }

    #[test]
    fn adder_is_larger_and_hungrier_than_gate() {
        for node in ALL {
            let p = node.params();
            assert!(p.full_adder_area.square_meters() > p.gate_area.square_meters());
            assert!(p.full_adder_energy.joules() > p.gate_energy.joules());
            assert!(p.dff_area.square_meters() > p.gate_area.square_meters());
        }
    }

    #[test]
    fn transistor_area_scales_linearly() {
        let p = CmosNode::N45.params();
        let a1 = p.transistor_area(10).square_meters();
        let a2 = p.transistor_area(20).square_meters();
        assert!((a2 / a1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_node() {
        assert_eq!(CmosNode::N65.to_string(), "65 nm CMOS");
    }

    #[test]
    fn ordering_follows_declaration() {
        assert!(CmosNode::N130 < CmosNode::N22);
    }
}
