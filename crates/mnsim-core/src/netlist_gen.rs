//! Netlist generation: from trained weights to circuit-level netlists
//! (paper §IV.A: "If users still want to perform a circuit-level
//! simulation with specific weight matrices and input vectors, MNSIM can
//! generate the netlist file for circuit-level simulators like SPICE").
//!
//! Weights in `[-1, 1]` map onto memristor conductance levels; with the
//! signed dual-crossbar scheme the positive and negative parts land on two
//! mirrored crossbars whose outputs are subtracted.

use mnsim_circuit::crossbar::CrossbarSpec;
use mnsim_circuit::netlist::to_netlist;
use mnsim_nn::tensor::Tensor;
use mnsim_tech::units::{Resistance, Voltage};

use crate::config::{Config, WeightPolarity};
use crate::error::CoreError;

/// The crossbar netlist specifications for one weight matrix block.
#[derive(Debug, Clone, PartialEq)]
pub struct MappedCrossbars {
    /// Crossbar carrying the positive weight parts (or all weights for
    /// unsigned polarity).
    pub positive: CrossbarSpec,
    /// Mirrored crossbar carrying the negative parts (signed dual-crossbar
    /// mapping only).
    pub negative: Option<CrossbarSpec>,
}

impl MappedCrossbars {
    /// Exports the mapped crossbars as SPICE netlist text.
    pub(crate) fn to_netlists(&self, title: &str) -> Vec<String> {
        let mut out = Vec::new();
        out.push(to_netlist_for(&self.positive, &format!("{title} (positive)")));
        if let Some(neg) = &self.negative {
            out.push(to_netlist_for(neg, &format!("{title} (negative)")));
        }
        out
    }
}

fn to_netlist_for(spec: &CrossbarSpec, title: &str) -> String {
    match spec.build() {
        Ok(built) => to_netlist(built.circuit(), title),
        Err(e) => format!("* netlist generation failed: {e}\n.end\n"),
    }
}

/// Maps one weight matrix (shape `(outputs, inputs)`, values in `[-1, 1]`)
/// and one input vector (values in `[0, 1]`) onto crossbar netlist
/// specifications under `config`.
///
/// The matrix is clamped to a single crossbar block (`crossbar_size ×
/// crossbar_size`); larger matrices should be partitioned with
/// [`crate::mapping::Partition`] first and mapped block by block.
///
/// # Errors
///
/// Returns [`CoreError::Nn`] for shape problems and
/// [`CoreError::InvalidConfig`] if the matrix exceeds one block.
pub fn map_weights(
    config: &Config,
    weights: &Tensor,
    inputs: &[f64],
) -> Result<MappedCrossbars, CoreError> {
    let shape = weights.shape();
    if shape.len() != 2 {
        return Err(CoreError::Nn(mnsim_nn::NnError::ShapeMismatch {
            expected: vec![0, 0],
            actual: shape.to_vec(),
            operation: "map_weights",
        }));
    }
    let (outputs, input_count) = (shape[0], shape[1]);
    if inputs.len() != input_count {
        return Err(CoreError::Nn(mnsim_nn::NnError::ShapeMismatch {
            expected: vec![input_count],
            actual: vec![inputs.len()],
            operation: "map_weights inputs",
        }));
    }
    if outputs > config.crossbar_size || input_count > config.crossbar_size {
        return Err(CoreError::InvalidConfig {
            parameter: "Crossbar_Size",
            reason: format!(
                "matrix {outputs}x{input_count} exceeds one {0}x{0} crossbar block; partition first",
                config.crossbar_size
            ),
        });
    }

    let device = &config.device;
    let resistance_for = |weight: f64| -> Resistance {
        device.resistance_for_level(device.level_for_weight(weight))
    };

    // Crossbar rows = inputs, columns = outputs.
    let rows = input_count;
    let cols = outputs;
    let state_at = |sign: f64| -> Vec<Resistance> {
        let mut states = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for o in 0..cols {
                let w = weights.at2(o, i) * sign;
                states.push(resistance_for(w.max(0.0)));
            }
        }
        states
    };

    let input_voltages = input_drive_voltages(config, inputs);

    let base = CrossbarSpec {
        rows,
        cols,
        wire_resistance: config.interconnect.segment_resistance(),
        sense_resistance: config.sense_resistance,
        states: state_at(1.0),
        iv: device.iv,
        inputs: input_voltages.clone(),
        faults: None,
    };

    let negative = match config.weight_polarity {
        WeightPolarity::Signed => Some(CrossbarSpec {
            states: state_at(-1.0),
            ..base.clone()
        }),
        WeightPolarity::Unsigned => None,
    };

    Ok(MappedCrossbars {
        positive: base,
        negative,
    })
}

/// Converts activation values in `[0, 1]` into word-line drive voltages
/// (`v_read · x`, clamped) — the exact mapping [`map_weights`] applies.
///
/// Useful on its own when one mapped crossbar is re-driven by many input
/// vectors through [`mnsim_circuit::Solver::solve_batch`]: the states
/// come from a single `map_weights` call and each input only needs its
/// voltage vector.
pub fn input_drive_voltages(config: &Config, inputs: &[f64]) -> Vec<Voltage> {
    inputs
        .iter()
        .map(|&x| Voltage::from_volts(config.device.v_read.volts() * x.clamp(0.0, 1.0)))
        .collect()
}

/// Generates the SPICE netlist text for a weight matrix + input vector.
///
/// # Errors
///
/// Same conditions as [`map_weights`].
pub fn generate_netlist(
    config: &Config,
    weights: &Tensor,
    inputs: &[f64],
    title: &str,
) -> Result<String, CoreError> {
    let mapped = map_weights(config, weights, inputs)?;
    Ok(mapped.to_netlists(title).join("\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnsim_circuit::netlist::from_netlist;
    use mnsim_circuit::solve::solve_dc;

    fn config() -> Config {
        let mut c = Config::fully_connected_mlp(&[4, 2]).unwrap();
        c.crossbar_size = 4;
        c
    }

    fn weights() -> Tensor {
        // 2 outputs × 4 inputs
        Tensor::from_vec(&[2, 4], vec![0.5, -0.25, 1.0, 0.0, -1.0, 0.75, 0.1, -0.6]).unwrap()
    }

    #[test]
    fn signed_mapping_produces_two_crossbars() {
        let m = map_weights(&config(), &weights(), &[1.0, 0.5, 0.0, 0.25]).unwrap();
        assert!(m.negative.is_some());
        assert_eq!(m.positive.rows, 4);
        assert_eq!(m.positive.cols, 2);
        // Positive crossbar: w=-1.0 cell must be at the most resistive level.
        let neg = m.negative.unwrap();
        let device = config().device;
        // cell (input 0, output 1) has weight −1.0: negative crossbar holds
        // |−1.0| → R_min; positive crossbar holds 0 → R_max.
        assert_eq!(m.positive.state(0, 1).ohms(), device.r_max.ohms());
        assert_eq!(neg.state(0, 1).ohms(), device.r_min.ohms());
    }

    #[test]
    fn unsigned_mapping_single_crossbar() {
        let mut c = config();
        c.weight_polarity = WeightPolarity::Unsigned;
        let w = Tensor::from_vec(&[2, 4], vec![0.5; 8]).unwrap();
        let m = map_weights(&c, &w, &[0.5; 4]).unwrap();
        assert!(m.negative.is_none());
    }

    #[test]
    fn inputs_scale_read_voltage() {
        let m = map_weights(&config(), &weights(), &[1.0, 0.5, 0.0, 0.25]).unwrap();
        let v = config().device.v_read.volts();
        assert!((m.positive.inputs[0].volts() - v).abs() < 1e-12);
        assert!((m.positive.inputs[1].volts() - 0.5 * v).abs() < 1e-12);
        assert_eq!(m.positive.inputs[2].volts(), 0.0);
    }

    #[test]
    fn netlist_roundtrips_into_solvable_circuit() {
        let text = generate_netlist(&config(), &weights(), &[1.0, 0.5, 0.0, 0.25], "block")
            .unwrap();
        assert!(text.contains("* block (positive)"));
        assert!(text.contains("* block (negative)"));
        // The first netlist (up to its .end) parses and solves.
        let first = text.split(".end").next().unwrap().to_string() + ".end\n";
        let circuit = from_netlist(&first).unwrap();
        let sol = solve_dc(&circuit).unwrap();
        assert!(sol.dissipated_power(&circuit).watts() > 0.0);
    }

    #[test]
    fn shape_errors_rejected() {
        let c = config();
        assert!(map_weights(&c, &weights(), &[1.0, 0.5]).is_err());
        let too_big = Tensor::zeros(&[8, 8]);
        assert!(map_weights(&c, &too_big, &[0.0; 8]).is_err());
        let not_2d = Tensor::zeros(&[8]);
        assert!(map_weights(&c, &not_2d, &[0.0; 8]).is_err());
    }
}
