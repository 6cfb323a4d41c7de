//! Memristor-crossbar netlist construction.
//!
//! Builds the exact resistor-network topology the paper's accuracy analysis
//! assumes (§VI.B): `M×N` memristor cells, `2MN` interconnect wire segments
//! (one per cell on the word line and one on the bit line), and `N` sensing
//! resistors. Solving this network with [`crate::solve::solve_dc`] *is* the
//! "SPICE simulation" the paper validates against and times in Tables II/III.
//!
//! Topology (for `rows = M` word lines and `cols = N` bit lines):
//!
//! ```text
//! V_i ──r── w(i,0) ──r── w(i,1) ── … ──r── w(i,N−1)          (word lines)
//!             │            │                  │
//!           cell         cell               cell             (memristors)
//!             │            │                  │
//!           b(0,j) ──r── b(1,j) ── … ──r── b(M−1,j) ──Rs── ⏚ (bit lines)
//! ```
//!
//! The output of column `j` is read across its sensing resistor, i.e. the
//! voltage of node `b(M−1, j)`. Column `N−1` is the farthest from the
//! drivers — the paper's worst-case column.

use mnsim_tech::fault::{CellFault, FaultMap};
use mnsim_tech::memristor::IvModel;
use mnsim_tech::units::{Resistance, Voltage};

use crate::error::CircuitError;
use crate::mna::{non_positive, Circuit, DcSolution, NodeId};

/// Resistance standing in for an open (broken) wire segment.
///
/// Broken word/bit lines are modeled as a near-open resistor rather than by
/// removing the segment: element removal would leave genuinely floating
/// nodes and a singular nodal matrix, whereas 1 TΩ makes the downstream
/// cells electrically negligible (12 orders above any cell state) while
/// keeping the system solvable — at the cost of severe conditioning, which
/// the LDLᵀ engine absorbs (DESIGN.md §7a).
pub(crate) const OPEN_SEGMENT_RESISTANCE: Resistance = Resistance::from_ohms(1e12);

/// Hard-defect overlay applied to a crossbar netlist at build time.
///
/// The [`FaultMap`] says *which* cells and lines are defective; the overlay
/// adds the device-specific resistances stuck cells are pinned to (the
/// technology's HRS/LRS corner values).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultOverlay {
    /// The defect map; its geometry must match the spec's `rows × cols`.
    pub map: FaultMap,
    /// Resistance pinned onto stuck-at-HRS cells.
    pub hrs: Resistance,
    /// Resistance pinned onto stuck-at-LRS cells.
    pub lrs: Resistance,
}

/// Specification of a crossbar instance to build.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossbarSpec {
    /// Number of word lines (input rows), `M`.
    pub rows: usize,
    /// Number of bit lines (output columns), `N`.
    pub cols: usize,
    /// Interconnect resistance of one cell-to-cell wire segment (`r`).
    pub wire_resistance: Resistance,
    /// Sensing resistance at the foot of every column (`R_s`).
    pub sense_resistance: Resistance,
    /// Programmed state resistance of every cell, row-major `rows × cols`.
    pub states: Vec<Resistance>,
    /// I-V model shared by all cells.
    pub iv: IvModel,
    /// Input voltage of every word line (`rows` entries).
    pub inputs: Vec<Voltage>,
    /// Optional hard-defect overlay (stuck cells, broken lines).
    pub faults: Option<FaultOverlay>,
}

impl CrossbarSpec {
    /// A crossbar with every cell programmed to the same state and every
    /// input driven at the same voltage.
    pub fn uniform(
        rows: usize,
        cols: usize,
        state: Resistance,
        wire_resistance: Resistance,
        sense_resistance: Resistance,
        input: Voltage,
    ) -> Self {
        CrossbarSpec {
            rows,
            cols,
            wire_resistance,
            sense_resistance,
            states: vec![state; rows * cols],
            iv: IvModel::Linear,
            inputs: vec![input; rows],
            faults: None,
        }
    }

    /// Returns this spec with a hard-defect overlay attached.
    pub fn with_faults(mut self, map: FaultMap, hrs: Resistance, lrs: Resistance) -> Self {
        self.faults = Some(FaultOverlay { map, hrs, lrs });
        self
    }

    /// Validates shapes and values.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::DimensionMismatch`] for wrong vector lengths
    /// and [`CircuitError::InvalidElement`] for non-positive sizes or
    /// resistances.
    pub(crate) fn validate(&self) -> Result<(), CircuitError> {
        if self.rows == 0 || self.cols == 0 {
            return Err(CircuitError::InvalidElement {
                reason: "crossbar must have at least one row and one column".into(),
            });
        }
        if self.states.len() != self.rows * self.cols {
            return Err(CircuitError::DimensionMismatch {
                expected: self.rows * self.cols,
                actual: self.states.len(),
                what: "crossbar state matrix length",
            });
        }
        if self.inputs.len() != self.rows {
            return Err(CircuitError::DimensionMismatch {
                expected: self.rows,
                actual: self.inputs.len(),
                what: "crossbar input vector length",
            });
        }
        if non_positive(self.wire_resistance.ohms()) || non_positive(self.sense_resistance.ohms()) {
            return Err(CircuitError::InvalidElement {
                reason: "wire and sense resistances must be positive".into(),
            });
        }
        if self.states.iter().any(|s| non_positive(s.ohms())) {
            return Err(CircuitError::InvalidElement {
                reason: "all cell state resistances must be positive".into(),
            });
        }
        if let Some(overlay) = &self.faults {
            if overlay.map.rows != self.rows || overlay.map.cols != self.cols {
                return Err(CircuitError::DimensionMismatch {
                    expected: self.rows * self.cols,
                    actual: overlay.map.rows * overlay.map.cols,
                    what: "fault map geometry",
                });
            }
            if non_positive(overlay.hrs.ohms()) || non_positive(overlay.lrs.ohms()) {
                return Err(CircuitError::InvalidElement {
                    reason: "fault overlay HRS/LRS resistances must be positive".into(),
                });
            }
        }
        Ok(())
    }

    /// The programmed state of cell `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn state(&self, row: usize, col: usize) -> Resistance {
        assert!(row < self.rows && col < self.cols, "cell index out of range");
        self.states[row * self.cols + col]
    }

    /// The resistance cell `(row, col)` actually presents, after the fault
    /// overlay (if any) pins stuck cells and scales drifted ones.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub(crate) fn effective_state(&self, row: usize, col: usize) -> Resistance {
        let programmed = self.state(row, col);
        let Some(overlay) = &self.faults else {
            return programmed;
        };
        match overlay.map.cells.get(&(row, col)) {
            Some(CellFault::StuckAtHrs) => overlay.hrs,
            Some(CellFault::StuckAtLrs) => overlay.lrs,
            Some(CellFault::Drifted { factor }) => {
                Resistance::from_ohms(programmed.ohms() * factor)
            }
            None => programmed,
        }
    }

    /// Builds the circuit netlist.
    ///
    /// # Errors
    ///
    /// Propagates `validate` failures.
    pub fn build(&self) -> Result<CrossbarCircuit, CircuitError> {
        self.validate()?;
        let mut circuit = Circuit::new();
        let m = self.rows;
        let n = self.cols;

        // Source nodes (driven by the input voltages).
        let source_nodes = circuit.add_nodes(m);
        // Word-line nodes w(i,j) and bit-line nodes b(i,j), row-major.
        let word_nodes = circuit.add_nodes(m * n);
        let bit_nodes = circuit.add_nodes(m * n);

        let w = |i: usize, j: usize| word_nodes[i * n + j];
        let b = |i: usize, j: usize| bit_nodes[i * n + j];

        // Broken lines swap the wire (or sense) resistance for a near-open
        // resistor; see [`OPEN_SEGMENT_RESISTANCE`].
        let map = self.faults.as_ref().map(|overlay| &overlay.map);
        let word_segment = |i: usize, seg: usize| -> Resistance {
            match map.and_then(|m| m.broken_wordlines.get(&i)) {
                Some(&broken) if broken == seg => OPEN_SEGMENT_RESISTANCE,
                _ => self.wire_resistance,
            }
        };
        let bit_segment = |j: usize, seg: usize| -> Resistance {
            match map.and_then(|m| m.broken_bitlines.get(&j)) {
                Some(&broken) if broken == seg => OPEN_SEGMENT_RESISTANCE,
                _ => self.wire_resistance,
            }
        };

        for (i, &source) in source_nodes.iter().enumerate() {
            circuit.add_voltage_source(source, Circuit::GROUND, self.inputs[i])?;
            // Driver → first word-line node (segment 0), then along the row.
            circuit.add_resistor(source, w(i, 0), word_segment(i, 0))?;
            for j in 1..n {
                circuit.add_resistor(w(i, j - 1), w(i, j), word_segment(i, j))?;
            }
        }

        for i in 0..m {
            for j in 0..n {
                circuit.add_memristor(w(i, j), b(i, j), self.effective_state(i, j), self.iv)?;
            }
        }

        let mut sense_elements = Vec::with_capacity(n);
        let mut output_nodes = Vec::with_capacity(n);
        for j in 0..n {
            // Bit line runs down the column (segments 1..m, foot = m).
            for i in 1..m {
                circuit.add_resistor(b(i - 1, j), b(i, j), bit_segment(j, i))?;
            }
            let out = b(m - 1, j);
            let sense = match map.and_then(|fm| fm.broken_bitlines.get(&j)) {
                Some(&broken) if broken >= m => OPEN_SEGMENT_RESISTANCE,
                _ => self.sense_resistance,
            };
            let idx = circuit.add_resistor(out, Circuit::GROUND, sense)?;
            sense_elements.push(idx);
            output_nodes.push(out);
        }

        Ok(CrossbarCircuit {
            spec: self.clone(),
            circuit,
            source_nodes,
            output_nodes,
            sense_elements,
        })
    }

    /// Ideal output voltages: zero wire resistance, linear cells.
    ///
    /// This is the closed-form result of the paper's Eq. (2): for column
    /// `j`, `V_out = Σ_i V_i·g_ij / (g_s + Σ_i g_ij)`. With a fault overlay,
    /// stuck and drifted cells use their effective resistance, cells
    /// isolated by a broken line drop out of both sums, and a column whose
    /// sense resistor is detached reads zero.
    pub fn ideal_output_voltages(&self) -> Vec<Voltage> {
        self.ideal_output_voltages_for(&self.inputs)
    }

    /// [`Self::ideal_output_voltages`] evaluated for an arbitrary input
    /// vector instead of `self.inputs` — the closed-form companion of
    /// solving one spec under many drive patterns (see
    /// [`crate::Solver::solve_batch`]).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not have one entry per row.
    pub fn ideal_output_voltages_for(&self, inputs: &[Voltage]) -> Vec<Voltage> {
        assert_eq!(inputs.len(), self.rows, "one input voltage per row");
        let gs = 1.0 / self.sense_resistance.ohms();
        let map = self.faults.as_ref().map(|overlay| &overlay.map);
        (0..self.cols)
            .map(|j| {
                if map.is_some_and(|m| m.sense_detached(j)) {
                    return Voltage::from_volts(0.0);
                }
                let mut num = 0.0;
                let mut den = gs;
                for (i, input) in inputs.iter().enumerate() {
                    if map.is_some_and(|m| m.is_isolated(i, j)) {
                        continue;
                    }
                    let g = 1.0 / self.effective_state(i, j).ohms();
                    num += input.volts() * g;
                    den += g;
                }
                Voltage::from_volts(num / den)
            })
            .collect()
    }
}

/// A built crossbar netlist with bookkeeping for reading results back.
#[derive(Debug, Clone)]
pub struct CrossbarCircuit {
    spec: CrossbarSpec,
    circuit: Circuit,
    source_nodes: Vec<NodeId>,
    output_nodes: Vec<NodeId>,
    sense_elements: Vec<usize>,
}

impl CrossbarCircuit {
    /// The underlying circuit (solve it with [`crate::solve::solve_dc`]).
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The output node of `col` (read across the sensing resistor).
    pub fn output_node(&self, col: usize) -> NodeId {
        self.output_nodes[col]
    }

    /// The element index of the sensing resistor of `col`.
    pub fn sense_element(&self, col: usize) -> usize {
        self.sense_elements[col]
    }

    /// Builds the batch right-hand side driving the word lines at `inputs`.
    ///
    /// The crossbar netlist adds exactly one voltage source per row, in row
    /// order, so the RHS is the input vector itself.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::DimensionMismatch`] when `inputs` does not
    /// have one entry per row.
    pub fn input_rhs(&self, inputs: &[Voltage]) -> Result<crate::solve::Rhs, CircuitError> {
        if inputs.len() != self.spec.rows {
            return Err(CircuitError::DimensionMismatch {
                expected: self.spec.rows,
                actual: inputs.len(),
                what: "crossbar input vector length",
            });
        }
        Ok(crate::solve::Rhs::from_voltages(inputs))
    }

    /// Extracts the column output voltages from a solution.
    pub fn output_voltages(&self, solution: &DcSolution) -> Vec<Voltage> {
        self.output_nodes
            .iter()
            .map(|&node| solution.voltage(node))
            .collect()
    }

    /// Attaches a grounded parasitic capacitor to every internal word- and
    /// bit-line node, turning the netlist into a transient-capable RC mesh
    /// (for settle-time measurement with
    /// [`crate::transient::solve_transient`]).
    ///
    /// # Errors
    ///
    /// Propagates element-validation failures (non-positive capacitance).
    pub fn add_node_capacitance(
        &mut self,
        capacitance: mnsim_tech::units::Capacitance,
    ) -> Result<(), CircuitError> {
        // Internal nodes are everything after ground and the driven source
        // nodes: the 2·M·N word/bit nodes.
        let first_internal = 1 + self.source_nodes.len();
        for node in first_internal..self.circuit.node_count() {
            self.circuit
                .add_capacitor(node, Circuit::GROUND, capacitance)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::solve_dc;

    fn tiny_spec() -> CrossbarSpec {
        CrossbarSpec::uniform(
            2,
            2,
            Resistance::from_kilo_ohms(10.0),
            Resistance::from_ohms(1.0),
            Resistance::from_ohms(500.0),
            Voltage::from_volts(1.0),
        )
    }

    #[test]
    fn validation_catches_shape_errors() {
        let mut s = tiny_spec();
        s.states.pop();
        assert!(s.validate().is_err());

        let mut s = tiny_spec();
        s.inputs.pop();
        assert!(s.validate().is_err());

        let mut s = tiny_spec();
        s.wire_resistance = Resistance::from_ohms(0.0);
        assert!(s.validate().is_err());

        let mut s = tiny_spec();
        s.rows = 0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn node_and_element_counts() {
        let xbar = tiny_spec().build().unwrap();
        // ground + M sources + 2·M·N internal nodes
        assert_eq!(xbar.circuit().node_count(), 1 + 2 + 8);
        // M sources + M·N word segments + M·N cells + (M−1)·N bit segments
        // + N sense resistors
        assert_eq!(xbar.circuit().element_count(), 2 + 4 + 4 + 2 + 2);
    }

    #[test]
    fn solved_outputs_close_to_ideal_for_small_wire_resistance() {
        let _session = mnsim_obs::session();
        let spec = CrossbarSpec::uniform(
            4,
            4,
            Resistance::from_kilo_ohms(100.0),
            Resistance::from_ohms(0.001), // negligible wires
            Resistance::from_ohms(1000.0),
            Voltage::from_volts(1.0),
        );
        let xbar = spec.build().unwrap();
        let sol = solve_dc(xbar.circuit()).unwrap();
        let got = xbar.output_voltages(&sol);
        let ideal = spec.ideal_output_voltages();
        for (g, i) in got.iter().zip(&ideal) {
            assert!(
                (g.volts() - i.volts()).abs() < 1e-6,
                "{} vs {}",
                g.volts(),
                i.volts()
            );
        }
    }

    #[test]
    fn wire_resistance_reduces_outputs() {
        let _session = mnsim_obs::session();
        let mut spec = CrossbarSpec::uniform(
            8,
            8,
            Resistance::from_ohms(500.0), // R_min cells: worst case
            Resistance::from_ohms(5.0),
            Resistance::from_ohms(200.0),
            Voltage::from_volts(1.0),
        );
        let ideal = spec.ideal_output_voltages();
        spec.iv = IvModel::Linear;
        let xbar = spec.build().unwrap();
        let sol = solve_dc(xbar.circuit()).unwrap();
        let got = xbar.output_voltages(&sol);
        for (j, (g, i)) in got.iter().zip(&ideal).enumerate() {
            assert!(
                g.volts() < i.volts(),
                "col {j}: wires must reduce the output ({} !< {})",
                g.volts(),
                i.volts()
            );
        }
        // The farthest column must be the worst (paper's worst-case claim).
        let errors: Vec<f64> = got
            .iter()
            .zip(&ideal)
            .map(|(g, i)| (i.volts() - g.volts()) / i.volts())
            .collect();
        let last = *errors.last().unwrap();
        for (j, &e) in errors.iter().enumerate() {
            assert!(e <= last + 1e-12, "col {j} error {e} exceeds last column {last}");
        }
    }

    #[test]
    fn ideal_output_matches_paper_eq2() {
        // Single cell: V_out = V·g/(g + gs) = V·Rs/(R + Rs).
        let spec = CrossbarSpec::uniform(
            1,
            1,
            Resistance::from_kilo_ohms(10.0),
            Resistance::from_ohms(1.0),
            Resistance::from_kilo_ohms(10.0),
            Voltage::from_volts(2.0),
        );
        let v = spec.ideal_output_voltages()[0];
        assert!((v.volts() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cell_and_sense_element_lookup() {
        let _session = mnsim_obs::session();
        let xbar = tiny_spec().build().unwrap();
        let sol = solve_dc(xbar.circuit()).unwrap();
        // Current through a sense resistor equals output voltage / Rs.
        for col in 0..2 {
            let i = sol.element_current(xbar.sense_element(col)).amperes();
            let v = sol.voltage(xbar.output_node(col)).volts();
            assert!((i - v / 500.0).abs() < 1e-12);
        }
        // Every cell carries positive current toward the bit line.
        let mut cells = 0;
        for (k, element) in xbar.circuit().elements().iter().enumerate() {
            if matches!(element, crate::mna::Element::Memristor { .. }) {
                assert!(sol.element_current(k).amperes() > 0.0);
                cells += 1;
            }
        }
        assert_eq!(cells, 4);
    }

    #[test]
    fn fault_overlay_pins_stuck_cells() {
        let _session = mnsim_obs::session();
        use mnsim_tech::fault::{CellFault, FaultMap};
        let mut map = FaultMap::empty(2, 2);
        map.cells.insert((0, 0), CellFault::StuckAtLrs);
        map.cells.insert((1, 1), CellFault::StuckAtHrs);
        map.cells.insert((0, 1), CellFault::Drifted { factor: 2.0 });
        let spec = tiny_spec().with_faults(
            map,
            Resistance::from_kilo_ohms(500.0),
            Resistance::from_ohms(500.0),
        );
        assert_eq!(spec.effective_state(0, 0).ohms(), 500.0);
        assert_eq!(spec.effective_state(1, 1).ohms(), 500.0e3);
        assert_eq!(spec.effective_state(0, 1).ohms(), 20.0e3);
        assert_eq!(spec.effective_state(1, 0).ohms(), 10.0e3);
        // An LRS-stuck cell in column 0 pulls that output up.
        let xbar = spec.build().unwrap();
        let sol = solve_dc(xbar.circuit()).unwrap();
        let faulty = xbar.output_voltages(&sol);
        let clean_xbar = tiny_spec().build().unwrap();
        let clean_sol = solve_dc(clean_xbar.circuit()).unwrap();
        let clean = clean_xbar.output_voltages(&clean_sol);
        assert!(faulty[0].volts() > clean[0].volts());
    }

    #[test]
    fn broken_wordline_starves_downstream_cells() {
        let _session = mnsim_obs::session();
        use mnsim_tech::fault::FaultMap;
        let mut map = FaultMap::empty(2, 2);
        // Row 0 broken at segment 0: the whole row is disconnected.
        map.broken_wordlines.insert(0, 0);
        let spec = tiny_spec().with_faults(
            map,
            Resistance::from_kilo_ohms(500.0),
            Resistance::from_ohms(500.0),
        );
        let xbar = spec.build().unwrap();
        let sol = solve_dc(xbar.circuit()).unwrap();
        let faulty = xbar.output_voltages(&sol);
        let clean_xbar = tiny_spec().build().unwrap();
        let clean_sol = solve_dc(clean_xbar.circuit()).unwrap();
        let clean = clean_xbar.output_voltages(&clean_sol);
        // Half the drive current is gone; both columns sag well below clean.
        for (f, c) in faulty.iter().zip(&clean) {
            assert!(f.volts() < 0.7 * c.volts(), "{} !< 0.7·{}", f.volts(), c.volts());
        }
        // Ideal model agrees qualitatively.
        let ideal = xbar.spec.ideal_output_voltages();
        assert!(ideal[0].volts() < clean[0].volts());
    }

    #[test]
    fn detached_sense_reads_near_zero() {
        let _session = mnsim_obs::session();
        use mnsim_tech::fault::FaultMap;
        let mut map = FaultMap::empty(2, 2);
        map.broken_bitlines.insert(1, 2); // seg == rows: sense leg open
        let spec = tiny_spec().with_faults(
            map,
            Resistance::from_kilo_ohms(500.0),
            Resistance::from_ohms(500.0),
        );
        assert_eq!(spec.ideal_output_voltages()[1].volts(), 0.0);
        let xbar = spec.build().unwrap();
        let sol = solve_dc(xbar.circuit()).unwrap();
        // With the sense resistor near-open the column floats to the input
        // level instead of dividing — either way the *sensed current* is
        // negligible.
        let i = sol.element_current(xbar.sense_element(1)).amperes();
        assert!(i.abs() < 1e-9, "sense current {i}");
    }

    #[test]
    fn fault_overlay_geometry_must_match() {
        use mnsim_tech::fault::FaultMap;
        let spec = tiny_spec().with_faults(
            FaultMap::empty(3, 3),
            Resistance::from_kilo_ohms(500.0),
            Resistance::from_ohms(500.0),
        );
        assert!(matches!(
            spec.validate(),
            Err(CircuitError::DimensionMismatch { .. })
        ));
        let spec = tiny_spec().with_faults(
            FaultMap::empty(2, 2),
            Resistance::from_ohms(0.0),
            Resistance::from_ohms(500.0),
        );
        assert!(spec.validate().is_err());
    }

    #[test]
    fn nonuniform_states_change_outputs() {
        let _session = mnsim_obs::session();
        let mut spec = tiny_spec();
        // Make column 0 much more conductive than column 1.
        spec.states[0] = Resistance::from_ohms(500.0);
        spec.states[2] = Resistance::from_ohms(500.0);
        let xbar = spec.build().unwrap();
        let sol = solve_dc(xbar.circuit()).unwrap();
        let out = xbar.output_voltages(&sol);
        assert!(out[0].volts() > out[1].volts());
    }
}
