//! Integration tests for the platform extensions: transient analysis in
//! the validation path, SNN substrate + SNN hardware costing, on-chip
//! training, memory mode, bit-serial encoding, and inter-bank links.

use mnsim::core::config::{Config, InputEncoding, NetworkType};
use mnsim::core::memory_mode::evaluate_memory_mode;
use mnsim::core::report::{area_breakdown, dse_csv, report_csv_row, CSV_HEADER};
use mnsim::core::simulate::simulate;
use mnsim::core::training::{estimate_training, TrainingPlan};
use mnsim::core::validate::measure_transient_settle;
use mnsim::nn::layers::FullyConnected;
use mnsim::nn::snn::SpikingNetwork;
use mnsim::nn::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn transient_settle_tracks_model_prediction() {
    let config = Config::fully_connected_mlp(&[64, 64]).unwrap();
    let measured = measure_transient_settle(&config, 16).unwrap();
    let model = mnsim::core::modules::crossbar::CrossbarModel::new(
        16,
        &config.device,
        config.interconnect,
    );
    let predicted = model.settle_latency();
    let ratio = measured.seconds() / predicted.seconds();
    assert!(
        (0.3..3.0).contains(&ratio),
        "transient {} vs model {} (ratio {ratio})",
        measured.seconds(),
        predicted.seconds()
    );
}

#[test]
fn bit_serial_trades_latency_for_area_at_accelerator_level() {
    let mut config = Config::fully_connected_mlp(&[512, 512]).unwrap();
    config.input_encoding = InputEncoding::AnalogDac;
    let dac = simulate(&config).unwrap();
    config.input_encoding = InputEncoding::BitSerial;
    let serial = simulate(&config).unwrap();
    assert!(serial.total_area.square_meters() < dac.total_area.square_meters());
    assert!(serial.sample_latency.seconds() > dac.sample_latency.seconds());
    // Accuracy is untouched by the input encoding.
    assert_eq!(serial.worst_crossbar_epsilon, dac.worst_crossbar_epsilon);
}

#[test]
fn interbank_links_appear_for_multibank_networks() {
    let single = simulate(&Config::fully_connected_mlp(&[256, 256]).unwrap()).unwrap();
    assert!(single.accelerator.links.is_empty());
    let multi =
        simulate(&Config::fully_connected_mlp(&[256, 256, 256, 256]).unwrap()).unwrap();
    assert_eq!(multi.accelerator.links.len(), 2);
    for link in &multi.accelerator.links {
        assert!(link.area.square_meters() > 0.0);
        assert!(link.dynamic_energy.joules() > 0.0);
    }
}

#[test]
fn training_and_memory_mode_compose_with_any_config() {
    let mut config = Config::fully_connected_mlp(&[128, 64]).unwrap();
    config.network_type = NetworkType::Snn;
    let training = estimate_training(&config, &TrainingPlan::default()).unwrap();
    assert!(training.total_energy().joules() > 0.0);
    let memory = evaluate_memory_mode(&config, 4).unwrap();
    assert!(memory.capacity_bits > 0);
    // Same fabric: memory-mode capacity covers the network's weights.
    let weight_bits =
        config.network.total_weights() as u64 * u64::from(config.precision.weight_bits);
    assert!(memory.capacity_bits * 8 > weight_bits);
}

#[test]
fn snn_hardware_and_algorithm_agree_on_shapes() {
    // The spiking substrate and the SNN accelerator model describe the
    // same network sizes.
    let config = {
        let mut c = Config::fully_connected_mlp(&[32, 16]).unwrap();
        c.network_type = NetworkType::Snn;
        c.crossbar_size = 32;
        c
    };
    let report = simulate(&config).unwrap();
    assert_eq!(report.accelerator.banks.len(), 1);

    let mut rng = StdRng::seed_from_u64(1);
    let mut fc = FullyConnected::zeros(32, 16);
    for w in fc.weights.data_mut() {
        *w = 0.25;
    }
    let mut snn = SpikingNetwork::new(vec![fc], 1.0).unwrap();
    let trace = snn
        .run(&Tensor::vector(&vec![0.5; 32]), 200, &mut rng)
        .unwrap();
    assert_eq!(trace.output_spikes.len(), 16);
    // Energy of a rate-coded classification = per-step energy × steps.
    let energy = report.energy_per_sample.joules() * trace.steps as f64;
    assert!(energy > 0.0);
}

#[test]
fn csv_export_roundtrips_through_parsing() {
    let config = Config::fully_connected_mlp(&[128, 128]).unwrap();
    let report = simulate(&config).unwrap();
    let row = report_csv_row(&report);
    let fields: Vec<&str> = row.split(',').collect();
    assert_eq!(fields.len(), CSV_HEADER.split(',').count());
    // Numeric fields parse back.
    let area: f64 = fields[5].parse().unwrap();
    assert!((area - report.total_area.square_millimeters()).abs() < 1e-3);

    use mnsim::core::dse::{Constraints, DesignSpace};
    use mnsim::core::Simulator;
    let space = DesignSpace {
        crossbar_sizes: vec![128],
        parallelism_degrees: vec![16],
        interconnects: vec![mnsim::tech::interconnect::InterconnectNode::N45],
    };
    let result = Simulator::new(config.clone())
        .threads(1)
        .explore(&space, &Constraints::default())
        .unwrap();
    let csv = dse_csv(&result);
    for line in csv.lines().skip(1) {
        assert_eq!(line.split(',').count(), CSV_HEADER.split(',').count());
    }
}

#[test]
fn area_breakdown_shares_are_sane_across_network_types() {
    for t in [NetworkType::Ann, NetworkType::Snn, NetworkType::Cnn] {
        let mut config = Config::fully_connected_mlp(&[512, 512]).unwrap();
        config.network_type = t;
        let report = simulate(&config).unwrap();
        let b = area_breakdown(&report);
        for (name, share) in [
            ("crossbars", b.crossbars / b.total()),
            ("decoders", b.decoders / b.total()),
            ("converters", b.converters / b.total()),
        ] {
            assert!((0.0..1.0).contains(&share), "{t}: {name} share {share}");
        }
    }
}
