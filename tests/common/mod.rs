//! Fixtures shared by several integration-test binaries; each binary uses
//! a subset of them.
#![allow(dead_code)]

use mnsim::circuit::dense::DenseMatrix;
use mnsim::circuit::{Circuit, Element};
use mnsim::tech::units::{Resistance, Voltage};

/// A nonsingular system with a conductance spread of fifteen decades:
/// source → 1 Ω → a → 1 Ω → ground, plus a node b tied to the source and
/// to ground through 1e15 Ω each. A dense LU's relative pivot test calls
/// it singular; LDLᵀ solves it exactly. Returns the circuit and node b,
/// which sits at 0.5 V.
pub fn tiny_pivot_divider() -> (Circuit, usize) {
    let mut c = Circuit::new();
    let top = c.add_node();
    let a = c.add_node();
    let b = c.add_node();
    c.add_voltage_source(top, Circuit::GROUND, Voltage::from_volts(1.0))
        .expect("valid source");
    c.add_resistor(top, a, Resistance::from_ohms(1.0))
        .expect("valid resistor");
    c.add_resistor(a, Circuit::GROUND, Resistance::from_ohms(1.0))
        .expect("valid resistor");
    c.add_resistor(top, b, Resistance::from_ohms(1e15))
        .expect("valid resistor");
    c.add_resistor(b, Circuit::GROUND, Resistance::from_ohms(1e15))
        .expect("valid resistor");
    (c, b)
}

/// A dense reference for linear circuits whose voltage sources are all
/// grounded: the nodal matrix over every node that is neither ground nor
/// driven, assembled here element by element (independently of the
/// library's reduced assembly) and solved by the dense LU. Returns every
/// node voltage.
///
/// # Panics
///
/// On a floating source, a non-linear cell, or a singular matrix.
pub fn dense_nodal_voltages(circuit: &Circuit) -> Vec<f64> {
    let n = circuit.node_count();
    let mut driven: Vec<Option<f64>> = vec![None; n];
    driven[Circuit::GROUND] = Some(0.0);
    for element in circuit.elements() {
        if let Element::VoltageSource {
            npos,
            nneg,
            voltage,
        } = element
        {
            assert_eq!(*nneg, Circuit::GROUND, "floating source");
            driven[*npos] = Some(voltage.volts());
        }
    }
    let mut unknown = vec![usize::MAX; n];
    let mut unknowns = 0;
    for (node, slot) in unknown.iter_mut().enumerate() {
        if driven[node].is_none() {
            *slot = unknowns;
            unknowns += 1;
        }
    }

    let mut a = DenseMatrix::zeros(unknowns);
    let mut b = vec![0.0; unknowns];
    let mut stamp = |n1: usize, n2: usize, g: f64| {
        for (here, there) in [(n1, n2), (n2, n1)] {
            let row = unknown[here];
            if row == usize::MAX {
                continue;
            }
            a[(row, row)] += g;
            match driven[there] {
                Some(v) => b[row] += g * v,
                None => a[(row, unknown[there])] -= g,
            }
        }
    };
    for element in circuit.elements() {
        match element {
            Element::Resistor { n1, n2, resistance } => stamp(*n1, *n2, 1.0 / resistance.ohms()),
            Element::Memristor { n1, n2, state, iv } => {
                assert_eq!(
                    *iv,
                    mnsim::tech::memristor::IvModel::Linear,
                    "non-linear cell"
                );
                stamp(*n1, *n2, 1.0 / state.ohms());
            }
            Element::VoltageSource { .. } => {}
            other => panic!("unsupported element {other:?}"),
        }
    }

    let x = a.solve(&b).expect("nonsingular nodal matrix");
    (0..n)
        .map(|node| driven[node].unwrap_or_else(|| x[unknown[node]]))
        .collect()
}
