//! Property-based tests of the circuit solver: random ladder networks
//! against analytic answers, netlist round-trips of random circuits, and
//! linearity checks.

use mnsim_circuit::mna::Circuit;
use mnsim_circuit::netlist::{from_netlist, to_netlist};
use mnsim_circuit::solve::solve_dc;
use mnsim_tech::units::{Current, Resistance, Voltage};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A resistor ladder (series chain with taps to ground) solved by the
    /// solver matches the hand-computed nodal solution.
    #[test]
    fn ladder_matches_analytic(
        series in proptest::collection::vec(10.0f64..10_000.0, 1..8),
        shunt in 10.0f64..10_000.0,
        volts in 0.1f64..10.0,
    ) {
        // V — R1 — n1 — R2 — n2 … with a shunt at the final node.
        let mut c = Circuit::new();
        let top = c.add_node();
        c.add_voltage_source(top, Circuit::GROUND, Voltage::from_volts(volts)).unwrap();
        let mut prev = top;
        for &r in &series {
            let n = c.add_node();
            c.add_resistor(prev, n, Resistance::from_ohms(r)).unwrap();
            prev = n;
        }
        c.add_resistor(prev, Circuit::GROUND, Resistance::from_ohms(shunt)).unwrap();

        let solution = solve_dc(&c).unwrap();
        // Single branch: the current is V / (ΣR + shunt) and the final
        // node sits at I·shunt.
        let total: f64 = series.iter().sum::<f64>() + shunt;
        let expect = volts * shunt / total;
        let got = solution.voltage(prev).volts();
        prop_assert!((got - expect).abs() < 1e-9 * volts, "{got} vs {expect}");
    }

    /// Linearity: scaling the source scales every node voltage.
    #[test]
    fn source_scaling_is_linear(
        rs in proptest::collection::vec(10.0f64..5_000.0, 2..6),
        volts in 0.1f64..5.0,
        scale in 1.5f64..4.0,
    ) {
        let build = |v: f64| {
            let mut c = Circuit::new();
            let top = c.add_node();
            c.add_voltage_source(top, Circuit::GROUND, Voltage::from_volts(v)).unwrap();
            let mut prev = top;
            for &r in &rs {
                let n = c.add_node();
                c.add_resistor(prev, n, Resistance::from_ohms(r)).unwrap();
                c.add_resistor(n, Circuit::GROUND, Resistance::from_ohms(r * 2.0)).unwrap();
                prev = n;
            }
            solve_dc(&c).unwrap()
        };
        let base = build(volts);
        let scaled = build(volts * scale);
        for (a, b) in base.voltages().iter().zip(scaled.voltages()) {
            prop_assert!((b - a * scale).abs() < 1e-9 * volts.max(1.0));
        }
    }

    /// Netlist export → import preserves the DC solution for random
    /// resistor/source circuits.
    #[test]
    fn netlist_roundtrip_preserves_solution(
        rs in proptest::collection::vec(10.0f64..100_000.0, 1..6),
        volts in 0.1f64..5.0,
        micro_amps in 0.0f64..100.0,
    ) {
        let mut c = Circuit::new();
        let top = c.add_node();
        c.add_voltage_source(top, Circuit::GROUND, Voltage::from_volts(volts)).unwrap();
        let mut prev = top;
        for &r in &rs {
            let n = c.add_node();
            c.add_resistor(prev, n, Resistance::from_ohms(r)).unwrap();
            prev = n;
        }
        c.add_resistor(prev, Circuit::GROUND, Resistance::from_ohms(777.0)).unwrap();
        c.add_current_source(Circuit::GROUND, prev, Current::from_microamperes(micro_amps))
            .unwrap();

        let restored = from_netlist(&to_netlist(&c, "prop")).unwrap();
        let a = solve_dc(&c).unwrap();
        let b = solve_dc(&restored).unwrap();
        for node in 0..c.node_count() {
            prop_assert!(
                (a.voltage(node).volts() - b.voltage(node).volts()).abs() < 1e-9,
                "node {}", node
            );
        }
    }
}
