//! Memristor-crossbar array performance model (paper §V.A).
//!
//! * **Area** — cell-count × per-cell area from Eqs. (7)/(8), corrected by
//!   the layout-calibration coefficient the paper extracts from its 130 nm
//!   layout (Fig. 6: 3420 µm² measured vs 2251 µm² estimated → ×1.519).
//! * **Computation power** — all cells selected; every cell is replaced by
//!   the harmonic mean of `R_min`/`R_max` (the paper's average-case rule).
//! * **Read power** — memory-style READ: a single cell selected.
//! * **Latency** — RC settling of word and bit lines.

use mnsim_tech::interconnect::InterconnectNode;
use mnsim_tech::memristor::MemristorModel;
use mnsim_tech::units::{Area, Energy, Power, Time};

/// Layout-overhead calibration coefficient measured from the paper's
/// 32×32 1T1R layout in 130 nm (Fig. 6): `3420 / 2251 ≈ 1.519`.
///
/// Users with their own layouts can substitute their measured coefficient
/// (paper §VII.A, last paragraph).
pub const AREA_CALIBRATION: f64 = 3420.0 / 2251.0;

/// Per-cell parasitic capacitance (junction + via), a small constant that
/// only enters the RC settle-time estimate.
const CELL_CAP_F: f64 = 1.0e-15;

/// The crossbar array model.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossbarModel<'a> {
    /// Physical rows/columns of the array.
    pub size: usize,
    /// Device model.
    pub device: &'a MemristorModel,
    /// Interconnect technology of the array wires.
    pub interconnect: InterconnectNode,
    /// Layout calibration coefficient (≥ 1).
    pub area_calibration: f64,
}

impl<'a> CrossbarModel<'a> {
    /// Creates the reference model with the Fig.-6 calibration.
    pub fn new(size: usize, device: &'a MemristorModel, interconnect: InterconnectNode) -> Self {
        CrossbarModel {
            size,
            device,
            interconnect,
            area_calibration: AREA_CALIBRATION,
        }
    }

    /// Array area: `size² × cell_area × calibration` (paper Eqs. 7–8 plus
    /// the layout coefficient).
    pub fn area(&self) -> Area {
        self.device.cell_area() * (self.size * self.size) as f64 * self.area_calibration
    }

    /// Average-case computation power with `rows_used × cols_used` cells
    /// active: every active cell at the harmonic-mean resistance, average
    /// input activity 1/2 (half of the input bits drive the line high).
    ///
    /// The naive estimate `M·N·V²/R` (the paper's §V.A rule) ignores that
    /// the word/bit lines are resistive ladders which throttle the current
    /// reaching distant cells — our circuit substrate shows up to a ~20×
    /// overestimate at 128×128/28 nm. This model therefore treats each row
    /// as a resistive transmission line with characteristic length
    /// `λ = √(R/r)` cells, rung resistance inflated by the bit-line
    /// congestion `R' = R·(1 + M/λ)`, and per-row input resistance
    /// `R_in = √(r·R')·coth(N·√(r/R'))`. The form converges to the naive
    /// rule as `r → 0` and matches the circuit solver within ±25 % across
    /// sizes 8–128 and wire nodes 18–90 nm.
    pub fn compute_power(&self, rows_used: usize, cols_used: usize) -> Power {
        let r_harm = self.device.harmonic_mean_resistance().ohms();
        let v = self.device.v_read.volts();
        let rows = rows_used.min(self.size) as f64;
        let cols = cols_used.min(self.size) as f64;
        let r_seg = self.interconnect.segment_resistance().ohms();

        let lambda = (r_harm / r_seg).sqrt();
        let rung = r_harm * (1.0 + rows / lambda);
        let arg = cols * (r_seg / rung).sqrt();
        // coth(x) = 1/tanh(x); for tiny arguments fall back to the exact
        // small-x limit R_in = R'/N (the parallel combination of all rungs).
        let r_in = if arg < 1e-6 {
            rung / cols
        } else {
            (r_seg * rung).sqrt() / arg.tanh()
        };
        Power::from_watts(rows * 0.5 * v * v / r_in)
    }

    /// Memory-READ power: a single selected cell at the harmonic-mean
    /// resistance.
    pub(crate) fn read_power(&self) -> Power {
        let r_harm = self.device.harmonic_mean_resistance().ohms();
        let v = self.device.v_read.volts();
        Power::from_watts(v * v / r_harm)
    }

    /// Energy of programming one cell (WRITE instruction).
    pub(crate) fn write_energy_per_cell(&self) -> Energy {
        let v = self.device.v_write.volts();
        // Write current flows through roughly the harmonic-mean resistance
        // for the duration of the programming pulse.
        let r = self.device.harmonic_mean_resistance().ohms();
        Power::from_watts(v * v / r) * self.device.write_latency
    }

    /// RC settle time of the analog computation: the worst-case word line
    /// (N wire segments + N cell loads) followed by the bit line.
    pub fn settle_latency(&self) -> Time {
        let n = self.size as f64;
        let r_seg = self.interconnect.segment_resistance().ohms();
        let c_seg = self.interconnect.segment_capacitance().farads() + CELL_CAP_F;
        // Elmore delay of a distributed RC line ≈ R·C·n²/2, for word line
        // and bit line in sequence; 2.2× for 10-90 % settling.
        let elmore = r_seg * c_seg * n * n / 2.0;
        Time::from_seconds(2.2 * 2.0 * elmore)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(size: usize, device: &MemristorModel) -> CrossbarModel<'_> {
        CrossbarModel::new(size, device, InterconnectNode::N28)
    }

    #[test]
    fn area_matches_eq7_with_calibration() {
        let device = MemristorModel::rram_default();
        let m = model(32, &device);
        // 1T1R, W/L = 2 → 9 F² per cell; F = 45 nm.
        let expected =
            9.0 * 45e-9 * 45e-9 * 32.0 * 32.0 * AREA_CALIBRATION;
        assert!((m.area().square_meters() - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn area_calibration_matches_fig6_ratio() {
        assert!((AREA_CALIBRATION - 1.519).abs() < 1e-3);
    }

    #[test]
    fn compute_power_scales_with_active_cells() {
        let device = MemristorModel::rram_default();
        let m = model(128, &device);
        let full = m.compute_power(128, 128).watts();
        let half_rows = m.compute_power(64, 128).watts();
        let half_cols = m.compute_power(128, 64).watts();
        assert!(half_rows < full);
        assert!(half_cols < full);
        // Clamps to the physical array.
        let clamped = m.compute_power(1024, 1024).watts();
        assert_eq!(clamped, full);
    }

    #[test]
    fn compute_power_saturates_sublinearly_with_size() {
        // The ladder effect: doubling the array far less than quadruples
        // the power (the naive M·N rule would give exactly 4×).
        let device = MemristorModel::rram_default();
        let p64 = model(64, &device).compute_power(64, 64).watts();
        let p128 = model(128, &device).compute_power(128, 128).watts();
        assert!(p128 > p64);
        assert!(p128 / p64 < 3.0, "ratio {}", p128 / p64);
    }

    #[test]
    fn compute_power_approaches_naive_rule_for_tiny_arrays() {
        // With few cells and coarse wires the ladder correction is small:
        // within ~30 % of the naive M·N·V²/2R rule (wires already shave
        // ~20 % even at 8×8, per the circuit measurements).
        let device = MemristorModel::rram_default();
        let m = CrossbarModel::new(8, &device, InterconnectNode::N90);
        let p = m.compute_power(8, 8).watts();
        let naive = 64.0 * 0.5 * 0.25 / device.harmonic_mean_resistance().ohms();
        assert!(p < naive, "ladder correction only reduces power");
        assert!((p / naive - 1.0).abs() < 0.3, "{p} vs naive {naive}");
    }

    #[test]
    fn compute_power_dwarfs_read_power() {
        // The paper's point in §II.C: computation selects all cells, memory
        // READ selects one.
        let device = MemristorModel::rram_default();
        let m = model(128, &device);
        let ratio = m.compute_power(128, 128).watts() / m.read_power().watts();
        assert!(ratio > 100.0, "ratio {ratio}");
    }

    #[test]
    fn settle_latency_grows_quadratically() {
        let device = MemristorModel::rram_default();
        let t64 = model(64, &device).settle_latency().seconds();
        let t128 = model(128, &device).settle_latency().seconds();
        assert!((t128 / t64 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn settle_latency_worse_for_smaller_wires() {
        let device = MemristorModel::rram_default();
        let coarse = CrossbarModel::new(128, &device, InterconnectNode::N90);
        let fine = CrossbarModel::new(128, &device, InterconnectNode::N18);
        // Smaller node: much higher R, somewhat lower C — R wins.
        assert!(fine.settle_latency().seconds() > coarse.settle_latency().seconds());
    }

    #[test]
    fn write_energy_positive() {
        let device = MemristorModel::rram_default();
        let m = model(64, &device);
        assert!(m.write_energy_per_cell().joules() > 0.0);
    }
}
