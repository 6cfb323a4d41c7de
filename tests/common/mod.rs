//! Fixtures shared by several integration-test binaries.

use mnsim::circuit::Circuit;
use mnsim::tech::units::{Resistance, Voltage};

/// A nonsingular system the dense LU's relative pivot test calls singular
/// (`SingularSystem { at: 1 }`): source → 1 Ω → a → 1 Ω → ground, plus a
/// node b tied to the source and to ground through 1e15 Ω each. LDLᵀ
/// solves it exactly. Returns the circuit and node b, which sits at 0.5 V.
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
