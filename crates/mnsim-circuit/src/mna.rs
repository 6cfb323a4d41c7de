//! Circuit representation for (modified) nodal analysis.
//!
//! A [`Circuit`] is a flat list of two-terminal elements between integer
//! nodes. Node `0` ([`Circuit::GROUND`]) is the reference. Supported
//! elements cover everything a memristor crossbar needs: resistors, ideal
//! voltage sources, ideal current sources, and memristor cells carrying a
//! programmed state resistance plus a (possibly non-linear) I-V model.
//!
//! Solving is performed by [`crate::solve::solve_dc`]; this module owns the
//! topology and the solution container.

use mnsim_tech::memristor::IvModel;
use mnsim_tech::units::{Capacitance, Current, Power, Resistance, Voltage};

use crate::error::CircuitError;

/// `true` when `x` is NaN or not strictly positive (rejects both).
pub(crate) fn non_positive(x: f64) -> bool {
    x.is_nan() || x <= 0.0
}

/// Identifier of a circuit node. Node `0` is ground.
pub type NodeId = usize;

/// A two-terminal circuit element.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Element {
    /// Ohmic resistor between `n1` and `n2`.
    Resistor {
        /// First terminal.
        n1: NodeId,
        /// Second terminal.
        n2: NodeId,
        /// Resistance value (must be positive).
        resistance: Resistance,
    },
    /// Ideal voltage source driving `npos` relative to `nneg`.
    VoltageSource {
        /// Positive terminal.
        npos: NodeId,
        /// Negative terminal.
        nneg: NodeId,
        /// Source voltage.
        voltage: Voltage,
    },
    /// Ideal current source pushing current from `from` into `to`.
    CurrentSource {
        /// Terminal the current leaves.
        from: NodeId,
        /// Terminal the current enters.
        to: NodeId,
        /// Source current.
        current: Current,
    },
    /// A memristor cell with programmed state resistance and I-V model.
    Memristor {
        /// First terminal (word line side).
        n1: NodeId,
        /// Second terminal (bit line side).
        n2: NodeId,
        /// Programmed (low-field) state resistance.
        state: Resistance,
        /// Conduction model.
        iv: IvModel,
    },
    /// A linear capacitor (open circuit in DC; integrated by
    /// [`crate::transient::solve_transient`]).
    Capacitor {
        /// First terminal.
        n1: NodeId,
        /// Second terminal.
        n2: NodeId,
        /// Capacitance value (must be positive).
        capacitance: Capacitance,
    },
}

/// A DC circuit: a set of nodes and two-terminal elements.
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    node_count: usize,
    elements: Vec<Element>,
}

impl Circuit {
    /// The ground (reference) node.
    pub const GROUND: NodeId = 0;

    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        Circuit {
            node_count: 1,
            elements: Vec::new(),
        }
    }

    /// Allocates a fresh node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = self.node_count;
        self.node_count += 1;
        id
    }

    /// Allocates `n` fresh nodes, returning their ids in order.
    pub fn add_nodes(&mut self, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| self.add_node()).collect()
    }

    /// Total number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The elements of the circuit, in insertion order.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Number of elements.
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    /// `true` if any element has a non-linear I-V characteristic.
    pub fn is_nonlinear(&self) -> bool {
        self.elements.iter().any(|e| {
            matches!(
                e,
                Element::Memristor {
                    iv: IvModel::Sinh { .. },
                    ..
                }
            )
        })
    }

    fn check_node(&self, node: NodeId) -> Result<(), CircuitError> {
        if node >= self.node_count {
            Err(CircuitError::UnknownNode { node })
        } else {
            Ok(())
        }
    }

    /// Adds a resistor; returns its element index.
    ///
    /// # Errors
    ///
    /// Rejects unknown nodes, self-loops, and non-positive resistances.
    pub fn add_resistor(
        &mut self,
        n1: NodeId,
        n2: NodeId,
        resistance: Resistance,
    ) -> Result<usize, CircuitError> {
        self.check_node(n1)?;
        self.check_node(n2)?;
        if n1 == n2 {
            return Err(CircuitError::InvalidElement {
                reason: format!("resistor shorted onto node {n1}"),
            });
        }
        if non_positive(resistance.ohms()) {
            return Err(CircuitError::InvalidElement {
                reason: format!("resistance must be positive, got {resistance}"),
            });
        }
        self.elements.push(Element::Resistor {
            n1,
            n2,
            resistance,
        });
        Ok(self.elements.len() - 1)
    }

    /// Adds an ideal voltage source; returns its element index.
    ///
    /// # Errors
    ///
    /// Rejects unknown nodes and self-loops.
    pub fn add_voltage_source(
        &mut self,
        npos: NodeId,
        nneg: NodeId,
        voltage: Voltage,
    ) -> Result<usize, CircuitError> {
        self.check_node(npos)?;
        self.check_node(nneg)?;
        if npos == nneg {
            return Err(CircuitError::InvalidElement {
                reason: "voltage source shorted onto one node".into(),
            });
        }
        self.elements.push(Element::VoltageSource {
            npos,
            nneg,
            voltage,
        });
        Ok(self.elements.len() - 1)
    }

    /// Adds an ideal current source; returns its element index.
    ///
    /// # Errors
    ///
    /// Rejects unknown nodes.
    pub fn add_current_source(
        &mut self,
        from: NodeId,
        to: NodeId,
        current: Current,
    ) -> Result<usize, CircuitError> {
        self.check_node(from)?;
        self.check_node(to)?;
        self.elements.push(Element::CurrentSource { from, to, current });
        Ok(self.elements.len() - 1)
    }

    /// Adds a memristor cell; returns its element index.
    ///
    /// # Errors
    ///
    /// Rejects unknown nodes, self-loops, and non-positive state resistances.
    pub fn add_memristor(
        &mut self,
        n1: NodeId,
        n2: NodeId,
        state: Resistance,
        iv: IvModel,
    ) -> Result<usize, CircuitError> {
        self.check_node(n1)?;
        self.check_node(n2)?;
        if n1 == n2 {
            return Err(CircuitError::InvalidElement {
                reason: format!("memristor shorted onto node {n1}"),
            });
        }
        if non_positive(state.ohms()) {
            return Err(CircuitError::InvalidElement {
                reason: format!("memristor state resistance must be positive, got {state}"),
            });
        }
        self.elements.push(Element::Memristor { n1, n2, state, iv });
        Ok(self.elements.len() - 1)
    }

    /// Adds a capacitor; returns its element index.
    ///
    /// Capacitors are open circuits for [`crate::solve::solve_dc`] and are
    /// integrated by [`crate::transient::solve_transient`].
    ///
    /// # Errors
    ///
    /// Rejects unknown nodes, self-loops, and non-positive capacitances.
    pub fn add_capacitor(
        &mut self,
        n1: NodeId,
        n2: NodeId,
        capacitance: Capacitance,
    ) -> Result<usize, CircuitError> {
        self.check_node(n1)?;
        self.check_node(n2)?;
        if n1 == n2 {
            return Err(CircuitError::InvalidElement {
                reason: format!("capacitor shorted onto node {n1}"),
            });
        }
        if non_positive(capacitance.farads()) {
            return Err(CircuitError::InvalidElement {
                reason: format!("capacitance must be positive, got {capacitance}"),
            });
        }
        self.elements.push(Element::Capacitor {
            n1,
            n2,
            capacitance,
        });
        Ok(self.elements.len() - 1)
    }

    /// `true` if the circuit contains at least one capacitor (i.e. has
    /// transient dynamics).
    pub fn has_dynamics(&self) -> bool {
        self.elements
            .iter()
            .any(|e| matches!(e, Element::Capacitor { .. }))
    }

    /// Number of ideal voltage sources in the circuit.
    pub fn source_count(&self) -> usize {
        self.elements
            .iter()
            .filter(|e| matches!(e, Element::VoltageSource { .. }))
            .count()
    }

    /// Returns a copy of the circuit with every voltage source re-driven to
    /// the given values, in element insertion order.
    ///
    /// The conductance structure is untouched, which is exactly the
    /// invariant [`crate::batch::PreparedSystem`] relies on: a prepared
    /// system built from `self` stays valid for any circuit produced by this
    /// method.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::DimensionMismatch`] when `voltages` does not
    /// have one entry per voltage source.
    pub fn with_source_voltages(&self, voltages: &[Voltage]) -> Result<Circuit, CircuitError> {
        if voltages.len() != self.source_count() {
            return Err(CircuitError::DimensionMismatch {
                expected: self.source_count(),
                actual: voltages.len(),
                what: "voltage-source value count",
            });
        }
        let mut patched = self.clone();
        let mut k = 0usize;
        for element in &mut patched.elements {
            if let Element::VoltageSource { voltage, .. } = element {
                *voltage = voltages[k];
                k += 1;
            }
        }
        Ok(patched)
    }
}

/// The result of a DC operating-point analysis.
#[derive(Debug, Clone)]
pub struct DcSolution {
    node_voltages: Vec<f64>,
    /// Branch current of each element, in element order, flowing n1 → n2
    /// (for sources: npos → nneg internally, i.e. the current *delivered*
    /// has opposite sign).
    element_currents: Vec<f64>,
}

impl DcSolution {
    pub(crate) fn new(node_voltages: Vec<f64>, element_currents: Vec<f64>) -> Self {
        DcSolution {
            node_voltages,
            element_currents,
        }
    }

    /// The voltage at `node` relative to ground.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist in the solved circuit.
    pub fn voltage(&self, node: NodeId) -> Voltage {
        Voltage::from_volts(self.node_voltages[node])
    }

    /// All node voltages (index = node id).
    pub fn voltages(&self) -> &[f64] {
        &self.node_voltages
    }

    /// Branch current through element `index`, measured from its first
    /// terminal to its second.
    ///
    /// # Panics
    ///
    /// Panics if the element index is out of range.
    pub fn element_current(&self, index: usize) -> Current {
        Current::from_amperes(self.element_currents[index])
    }

    /// Total power delivered by all sources (equals total dissipated power
    /// in a resistive circuit).
    pub fn source_power(&self, circuit: &Circuit) -> Power {
        let mut total = 0.0;
        for (idx, element) in circuit.elements().iter().enumerate() {
            match element {
                Element::VoltageSource { voltage, .. } => {
                    // The stamped branch current flows npos → nneg inside
                    // the source; delivered power = V × (−I_branch).
                    total += voltage.volts() * -self.element_currents[idx];
                }
                Element::CurrentSource { from, to, current } => {
                    let v = self.node_voltages[*to] - self.node_voltages[*from];
                    total += v * current.amperes();
                }
                _ => {}
            }
        }
        Power::from_watts(total)
    }

    /// Total power dissipated in resistive elements.
    pub fn dissipated_power(&self, circuit: &Circuit) -> Power {
        let mut total = 0.0;
        for (idx, element) in circuit.elements().iter().enumerate() {
            match element {
                Element::Resistor { n1, n2, .. } | Element::Memristor { n1, n2, .. } => {
                    let v = self.node_voltages[*n1] - self.node_voltages[*n2];
                    total += v * self.element_currents[idx];
                }
                _ => {}
            }
        }
        Power::from_watts(total)
    }
}

/// Largest Kirchhoff current-law violation of `solution` over all nodes
/// that are neither ground nor a voltage-source terminal, in amperes.
///
/// Source terminals are excluded because their branch currents are *derived*
/// by KCL when the solution is assembled, making their balance trivial.
pub fn kcl_residual(circuit: &Circuit, solution: &DcSolution) -> f64 {
    let n = circuit.node_count();
    let mut net = vec![0.0f64; n];
    let mut skip = vec![false; n];
    skip[Circuit::GROUND] = true;

    for (idx, element) in circuit.elements().iter().enumerate() {
        let current = solution.element_currents[idx];
        match element {
            Element::Resistor { n1, n2, .. }
            | Element::Memristor { n1, n2, .. }
            | Element::Capacitor { n1, n2, .. } => {
                net[*n1] += current;
                net[*n2] -= current;
            }
            Element::CurrentSource { from, to, .. } => {
                net[*from] += current;
                net[*to] -= current;
            }
            Element::VoltageSource { npos, nneg, .. } => {
                skip[*npos] = true;
                skip[*nneg] = true;
            }
        }
    }

    net.iter()
        .zip(&skip)
        .filter(|&(_, &skipped)| !skipped)
        .map(|(&violation, _)| violation.abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kcl_residual_zero_on_exact_solution() {
        let _session = mnsim_obs::session();
        let mut c = Circuit::new();
        let top = c.add_node();
        let mid = c.add_node();
        c.add_voltage_source(top, Circuit::GROUND, Voltage::from_volts(10.0))
            .unwrap();
        c.add_resistor(top, mid, Resistance::from_kilo_ohms(1.0))
            .unwrap();
        c.add_resistor(mid, Circuit::GROUND, Resistance::from_kilo_ohms(3.0))
            .unwrap();
        let solution = crate::solve::solve_dc(&c, &crate::solve::SolveOptions::default()).unwrap();
        assert!(kcl_residual(&c, &solution) < 1e-12);
    }

    #[test]
    fn node_allocation() {
        let mut c = Circuit::new();
        assert_eq!(c.node_count(), 1);
        let a = c.add_node();
        let b = c.add_node();
        assert_eq!((a, b), (1, 2));
        let more = c.add_nodes(3);
        assert_eq!(more, vec![3, 4, 5]);
        assert_eq!(c.node_count(), 6);
    }

    #[test]
    fn element_validation() {
        let mut c = Circuit::new();
        let n = c.add_node();
        assert!(c.add_resistor(n, 99, Resistance::from_ohms(1.0)).is_err());
        assert!(c.add_resistor(n, n, Resistance::from_ohms(1.0)).is_err());
        assert!(c
            .add_resistor(n, Circuit::GROUND, Resistance::from_ohms(0.0))
            .is_err());
        assert!(c
            .add_resistor(n, Circuit::GROUND, Resistance::from_ohms(-5.0))
            .is_err());
        assert!(c
            .add_resistor(n, Circuit::GROUND, Resistance::from_ohms(10.0))
            .is_ok());
        assert_eq!(c.element_count(), 1);
    }

    #[test]
    fn voltage_source_validation() {
        let mut c = Circuit::new();
        let n = c.add_node();
        assert!(c
            .add_voltage_source(n, n, Voltage::from_volts(1.0))
            .is_err());
        assert!(c
            .add_voltage_source(n, Circuit::GROUND, Voltage::from_volts(1.0))
            .is_ok());
    }

    #[test]
    fn memristor_validation_and_nonlinearity_flag() {
        let mut c = Circuit::new();
        let n = c.add_node();
        assert!(!c.is_nonlinear());
        c.add_memristor(
            n,
            Circuit::GROUND,
            Resistance::from_kilo_ohms(10.0),
            IvModel::Linear,
        )
        .unwrap();
        assert!(!c.is_nonlinear());
        c.add_memristor(
            n,
            Circuit::GROUND,
            Resistance::from_kilo_ohms(10.0),
            IvModel::Sinh { alpha: 2.0 },
        )
        .unwrap();
        assert!(c.is_nonlinear());
    }

    #[test]
    fn with_source_voltages_repatches_in_order() {
        let mut c = Circuit::new();
        let a = c.add_node();
        let b = c.add_node();
        c.add_voltage_source(a, Circuit::GROUND, Voltage::from_volts(1.0))
            .unwrap();
        c.add_resistor(a, b, Resistance::from_ohms(10.0)).unwrap();
        c.add_voltage_source(b, Circuit::GROUND, Voltage::from_volts(2.0))
            .unwrap();
        assert_eq!(c.source_count(), 2);
        let patched = c
            .with_source_voltages(&[Voltage::from_volts(3.0), Voltage::from_volts(4.0)])
            .unwrap();
        let values: Vec<f64> = patched
            .elements()
            .iter()
            .filter_map(|e| match e {
                Element::VoltageSource { voltage, .. } => Some(voltage.volts()),
                _ => None,
            })
            .collect();
        assert_eq!(values, vec![3.0, 4.0]);
        // Wrong arity is rejected.
        assert!(c.with_source_voltages(&[Voltage::from_volts(1.0)]).is_err());
    }

    #[test]
    fn zero_state_memristor_rejected() {
        let mut c = Circuit::new();
        let n = c.add_node();
        assert!(c
            .add_memristor(n, Circuit::GROUND, Resistance::from_ohms(0.0), IvModel::Linear)
            .is_err());
    }
}
