//! SPICE netlist export and import.
//!
//! MNSIM can emit its generated circuits as SPICE-compatible netlists so
//! that designers can continue in a transistor-level simulator (paper
//! §IV.A, last paragraph). The emitted dialect is the common denominator:
//! `R`/`V`/`I` cards with integer node names and a final `.end`.
//!
//! Non-linear memristors are exported as resistor cards at their programmed
//! state resistance, annotated with a comment carrying the sinh coefficient —
//! the importer restores them as memristor elements.

use mnsim_tech::memristor::IvModel;
use mnsim_tech::units::{Capacitance, Current, Resistance, Voltage};

use crate::error::CircuitError;
use crate::mna::{Circuit, Element};

/// Serializes a circuit to SPICE netlist text.
pub fn to_netlist(circuit: &Circuit, title: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!("* {title}\n"));
    out.push_str(&format!("* nodes: {}\n", circuit.node_count()));
    for (idx, element) in circuit.elements().iter().enumerate() {
        match element {
            Element::Resistor { n1, n2, resistance } => {
                out.push_str(&format!("R{idx} {n1} {n2} {:.12e}\n", resistance.ohms()));
            }
            Element::VoltageSource {
                npos,
                nneg,
                voltage,
            } => {
                out.push_str(&format!("V{idx} {npos} {nneg} DC {:.12e}\n", voltage.volts()));
            }
            Element::CurrentSource { from, to, current } => {
                out.push_str(&format!("I{idx} {from} {to} DC {:.12e}\n", current.amperes()));
            }
            Element::Capacitor {
                n1,
                n2,
                capacitance,
            } => {
                out.push_str(&format!("C{idx} {n1} {n2} {:.12e}\n", capacitance.farads()));
            }
            Element::Memristor { n1, n2, state, iv } => {
                match iv {
                    IvModel::Linear => {
                        out.push_str(&format!("* memristor linear\nRM{idx} {n1} {n2} {:.12e}\n", state.ohms()));
                    }
                    IvModel::Sinh { alpha } => {
                        out.push_str(&format!(
                            "* memristor sinh alpha={alpha:.12e}\nRM{idx} {n1} {n2} {:.12e}\n",
                            state.ohms()
                        ));
                    }
                }
            }
        }
    }
    out.push_str(".end\n");
    out
}

/// Parses netlist text produced by [`to_netlist`] (or hand-written in the
/// same dialect) back into a [`Circuit`].
///
/// # Errors
///
/// Returns [`CircuitError::NetlistParse`] with the offending line number on
/// malformed input.
pub fn from_netlist(text: &str) -> Result<Circuit, CircuitError> {
    let mut circuit = Circuit::new();
    let mut pending_memristor: Option<IvModel> = None;

    let parse_err = |line: usize, reason: &str| CircuitError::NetlistParse {
        line,
        reason: reason.to_string(),
    };

    for (lineno, raw) in text.lines().enumerate() {
        let line_number = lineno + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('*') {
            let comment = comment.trim();
            if comment == "memristor linear" {
                pending_memristor = Some(IvModel::Linear);
            } else if let Some(rest) = comment.strip_prefix("memristor sinh alpha=") {
                let alpha: f64 = rest
                    .parse()
                    .map_err(|_| parse_err(line_number, "bad sinh alpha"))?;
                pending_memristor = Some(IvModel::Sinh { alpha });
            }
            continue;
        }
        if line.eq_ignore_ascii_case(".end") {
            break;
        }

        let tokens: Vec<&str> = line.split_whitespace().collect();
        if tokens.len() < 4 {
            return Err(parse_err(line_number, "expected `<card> n1 n2 [DC] value`"));
        }
        let card = tokens[0];
        let n1: usize = tokens[1]
            .parse()
            .map_err(|_| parse_err(line_number, "bad node id"))?;
        let n2: usize = tokens[2]
            .parse()
            .map_err(|_| parse_err(line_number, "bad node id"))?;
        let value_token = if tokens[3].eq_ignore_ascii_case("dc") {
            *tokens
                .get(4)
                .ok_or_else(|| parse_err(line_number, "missing DC value"))?
        } else {
            tokens[3]
        };
        let value: f64 = value_token
            .parse()
            .map_err(|_| parse_err(line_number, "bad element value"))?;

        while circuit.node_count() <= n1.max(n2) {
            circuit.add_node();
        }

        let first = card.chars().next().unwrap_or(' ').to_ascii_uppercase();
        let result = match first {
            'R' => {
                if let Some(iv) = pending_memristor.take() {
                    circuit
                        .add_memristor(n1, n2, Resistance::from_ohms(value), iv)
                        .map(|_| ())
                } else {
                    circuit
                        .add_resistor(n1, n2, Resistance::from_ohms(value))
                        .map(|_| ())
                }
            }
            'V' => circuit
                .add_voltage_source(n1, n2, Voltage::from_volts(value))
                .map(|_| ()),
            'I' => circuit
                .add_current_source(n1, n2, Current::from_amperes(value))
                .map(|_| ()),
            'C' => circuit
                .add_capacitor(n1, n2, Capacitance::from_farads(value))
                .map(|_| ()),
            other => {
                return Err(parse_err(
                    line_number,
                    &format!("unsupported element card `{other}`"),
                ))
            }
        };
        result.map_err(|e| parse_err(line_number, &e.to_string()))?;
    }

    Ok(circuit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::{solve_dc, SolveOptions};

    fn sample_circuit() -> Circuit {
        let mut c = Circuit::new();
        let a = c.add_node();
        let b = c.add_node();
        c.add_voltage_source(a, Circuit::GROUND, Voltage::from_volts(1.5))
            .unwrap();
        c.add_resistor(a, b, Resistance::from_ohms(220.0)).unwrap();
        c.add_memristor(
            b,
            Circuit::GROUND,
            Resistance::from_kilo_ohms(4.7),
            IvModel::Sinh { alpha: 1.5 },
        )
        .unwrap();
        c.add_current_source(Circuit::GROUND, b, Current::from_microamperes(10.0))
            .unwrap();
        c
    }

    #[test]
    fn export_contains_all_cards() {
        let text = to_netlist(&sample_circuit(), "sample");
        assert!(text.starts_with("* sample\n"));
        assert!(text.contains("V0 1 0 DC"));
        assert!(text.contains("R1 1 2"));
        assert!(text.contains("* memristor sinh alpha="));
        assert!(text.contains("RM2 2 0"));
        assert!(text.contains("I3 0 2 DC"));
        assert!(text.trim_end().ends_with(".end"));
    }

    #[test]
    fn roundtrip_preserves_solution() {
        let _session = mnsim_obs::session();
        let original = sample_circuit();
        let text = to_netlist(&original, "roundtrip");
        let restored = from_netlist(&text).unwrap();
        assert_eq!(restored.element_count(), original.element_count());
        assert!(restored.is_nonlinear());

        let options = SolveOptions::default();
        let sol_a = solve_dc(&original, &options).unwrap();
        let sol_b = solve_dc(&restored, &options).unwrap();
        for node in 0..original.node_count() {
            assert!(
                (sol_a.voltage(node).volts() - sol_b.voltage(node).volts()).abs() < 1e-9,
                "node {node}"
            );
        }
    }

    #[test]
    fn parse_hand_written_netlist() {
        let _session = mnsim_obs::session();
        let text = "* divider\nV1 1 0 DC 10\nR1 1 2 1000\nR2 2 0 3000\n.end\n";
        let c = from_netlist(text).unwrap();
        let sol = solve_dc(&c, &SolveOptions::default()).unwrap();
        assert!((sol.voltage(2).volts() - 7.5).abs() < 1e-9);
    }

    #[test]
    fn parse_value_without_dc_keyword() {
        let _session = mnsim_obs::session();
        let text = "V1 1 0 5.0\nR1 1 0 100\n";
        let c = from_netlist(text).unwrap();
        let sol = solve_dc(&c, &SolveOptions::default()).unwrap();
        assert!((sol.voltage(1).volts() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let text = "R1 1 0 100\nX9 1 0 5\n";
        match from_netlist(text) {
            Err(CircuitError::NetlistParse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }

        let text = "R1 1 zero 100\n";
        assert!(matches!(
            from_netlist(text),
            Err(CircuitError::NetlistParse { line: 1, .. })
        ));

        let text = "R1 1 0\n";
        assert!(from_netlist(text).is_err());
    }

    #[test]
    fn lines_after_end_are_ignored() {
        let text = "R1 1 0 50\n.end\ngarbage that should not parse\n";
        assert!(from_netlist(text).is_ok());
    }
}
