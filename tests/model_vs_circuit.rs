//! Integration of the behavior-level models with the circuit-level
//! substrate: the Fig.-5 fit criterion, netlist round-trips through the
//! generated SPICE text, and the crossbar worst-column claim.

use mnsim::circuit::netlist::from_netlist;
use mnsim::circuit::solve::solve_dc;
use mnsim::core::accuracy::{fit_wire_coefficient, measure_circuit_error_rate, Case};
use mnsim::core::config::Config;
use mnsim::core::netlist_gen::{generate_netlist, map_weights};
use mnsim::nn::data::random_weight_matrix;
use mnsim::tech::interconnect::InterconnectNode;
use mnsim::tech::units::Resistance;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn fig5_fit_meets_paper_criterion_on_two_nodes() {
    let config = Config::fully_connected_mlp(&[64, 64]).unwrap();
    for node in [InterconnectNode::N28, InterconnectNode::N45] {
        let fit = fit_wire_coefficient(
            &config.device,
            node,
            config.sense_resistance,
            &[8, 16, 32, 64],
        )
        .unwrap();
        assert!(
            fit.rmse < 0.01,
            "{node}: RMSE {:.4} exceeds the paper's 0.01",
            fit.rmse
        );
        // The calibrated model generalizes to a size not in the fit set.
        let model = fit.model(config.sense_resistance);
        let predicted = model.signed_error_rate(48, 48, node, &config.device, Case::Worst);
        let measured =
            measure_circuit_error_rate(48, node, &config.device, config.sense_resistance)
                .unwrap();
        assert!(
            (predicted - measured).abs() < 0.03,
            "{node}: interpolation off by {:.3}",
            (predicted - measured).abs()
        );
    }
}

#[test]
fn generated_netlists_solve_to_physical_outputs() {
    let mut config = Config::fully_connected_mlp(&[16, 8]).unwrap();
    config.crossbar_size = 16;
    let mut rng = StdRng::seed_from_u64(99);
    let weights = random_weight_matrix(8, 16, &mut rng);
    let inputs: Vec<f64> = (0..16).map(|i| i as f64 / 15.0).collect();

    let text = generate_netlist(&config, &weights, &inputs, "integration").unwrap();
    // Two netlists (positive + negative); both parse and solve.
    let parts: Vec<&str> = text.split(".end").filter(|p| p.contains('\n') && p.contains('R')).collect();
    assert_eq!(parts.len(), 2, "expected positive + negative netlists");
    for part in parts {
        let netlist = format!("{part}.end\n");
        let circuit = from_netlist(&netlist).unwrap();
        let solution = solve_dc(&circuit).unwrap();
        // All node voltages bounded by the read voltage.
        let v_read = config.device.v_read.volts();
        for &v in solution.voltages() {
            assert!(v >= -1e-9 && v <= v_read + 1e-9, "voltage {v} out of range");
        }
    }
}

#[test]
fn mapped_outputs_track_weight_magnitudes() {
    // A column with larger positive weights must produce a larger
    // positive-crossbar output than a column with zero weights.
    let mut config = Config::fully_connected_mlp(&[8, 2]).unwrap();
    config.crossbar_size = 8;
    let mut data = vec![0.0; 16];
    for d in data.iter_mut().take(8) {
        *d = 0.9; // output 0: strong weights
    }
    let weights = mnsim::nn::tensor::Tensor::from_vec(&[2, 8], data).unwrap();
    let mapped = map_weights(&config, &weights, &[1.0; 8]).unwrap();
    let built = mapped.positive.build().unwrap();
    let solution = solve_dc(built.circuit()).unwrap();
    let outputs = built.output_voltages(&solution);
    assert!(
        outputs[0].volts() > 3.0 * outputs[1].volts(),
        "strong column {} vs zero column {}",
        outputs[0].volts(),
        outputs[1].volts()
    );
}

#[test]
fn worst_column_is_farthest_from_drivers() {
    // The paper's worst-case assumption, checked on the real circuit.
    let config = Config::fully_connected_mlp(&[32, 32]).unwrap();
    let spec = mnsim::circuit::crossbar::CrossbarSpec::uniform(
        32,
        32,
        config.device.r_min,
        config.interconnect.segment_resistance(),
        config.sense_resistance,
        config.device.v_read,
    );
    let built = spec.build().unwrap();
    let solution = solve_dc(built.circuit()).unwrap();
    let outputs = built.output_voltages(&solution);
    let last = outputs.last().unwrap().volts();
    for (i, v) in outputs.iter().enumerate() {
        assert!(
            v.volts() >= last - 1e-12,
            "column {i} ({}) below the last column ({last})",
            v.volts()
        );
    }
}

#[test]
fn error_rate_magnitude_orders_by_interconnect() {
    let config = Config::fully_connected_mlp(&[32, 32]).unwrap();
    let rs = Resistance::from_ohms(10.0);
    let fine = measure_circuit_error_rate(32, InterconnectNode::N18, &config.device, rs).unwrap();
    let coarse =
        measure_circuit_error_rate(32, InterconnectNode::N90, &config.device, rs).unwrap();
    assert!(fine > coarse, "18 nm {fine} vs 90 nm {coarse}");
}
