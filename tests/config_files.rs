//! Integration tests of the Table-I configuration-file front end.

use mnsim::core::config::{Config, NetworkType};
use mnsim::core::error::CoreError;
use mnsim::core::simulate::simulate;
use mnsim::tech::cmos::CmosNode;
use mnsim::tech::interconnect::InterconnectNode;
use mnsim::tech::memristor::{CellType, DeviceKind, IvModel};

#[test]
fn paper_table_i_defaults_parse_and_simulate() {
    let text = "\
# Table I of the paper, spelled out
Network_Depth = 2
Network_Scale = 128x128, 128x128
Interface_Number = [128, 128]
Network_Type = ANN
Crossbar_Size = 128
Pooling_Size = 2
Spacial_Size = 1
Weight_Polarity = 2
CMOS_Tech = 90nm
Cell_Type = 1T1R
Memristor_Model = RRAM
Interconnect_Tech = 28nm
Parallelism_Degree = 0
Resistance_Range = [500 500k]
";
    let config = Config::from_text(text).unwrap();
    assert_eq!(config.network.depth(), 2);
    assert_eq!(config.cmos, CmosNode::N90);
    assert_eq!(config.interconnect, InterconnectNode::N28);
    assert_eq!(config.device.kind, DeviceKind::Rram);
    assert_eq!(config.device.cell_type, CellType::OneT1R);
    assert_eq!(config.device.r_min.ohms(), 500.0);
    assert_eq!(config.device.r_max.ohms(), 500_000.0);

    let report = simulate(&config).unwrap();
    assert!(report.total_area.square_millimeters() > 0.0);
}

#[test]
fn comments_and_blank_lines_are_ignored() {
    let text = "\n; semicolon comment\n* star comment\n# hash comment\nCrossbar_Size = 64\n\n";
    let config = Config::from_text(text).unwrap();
    assert_eq!(config.crossbar_size, 64);
}

#[test]
fn pcm_and_0t1r_parse() {
    let config =
        Config::from_text("Memristor_Model = PCM\nCell_Type = 0T1R\n").unwrap();
    assert_eq!(config.device.kind, DeviceKind::Pcm);
    assert_eq!(config.device.cell_type, CellType::ZeroT1R);
}

#[test]
fn cnn_network_type_parses() {
    let config = Config::from_text("Network_Type = CNN\n").unwrap();
    assert_eq!(config.network_type, NetworkType::Cnn);
}

#[test]
fn malformed_files_are_rejected_with_line_numbers() {
    for (text, expected_line) in [
        ("Crossbar_Size 128\n", 1),
        ("Crossbar_Size = 128\nInterface_Number = [1]\n", 2),
        ("CMOS_Tech = 33nm\n", 0), // tech error, no parse line
        ("Network_Scale = 12y34\n", 1),
    ] {
        match Config::from_text(text) {
            Err(CoreError::ConfigParse { line, .. }) => {
                assert_eq!(line, expected_line, "for {text:?}")
            }
            Err(CoreError::Tech(_)) => assert_eq!(expected_line, 0, "for {text:?}"),
            other => panic!("expected error for {text:?}, got {other:?}"),
        }
    }
}

#[test]
fn invalid_semantics_are_rejected_after_parsing() {
    // Parses fine, fails validation: parallelism above crossbar size.
    let text = "Crossbar_Size = 32\nParallelism_Degree = 64\n";
    match Config::from_text(text) {
        Err(CoreError::Config { errors }) => {
            assert_eq!(errors.len(), 1);
            assert_eq!(errors[0].field_path, "Parallelism_Degree");
        }
        other => panic!("expected validation error, got {other:?}"),
    }
}

#[test]
fn every_invalid_field_is_reported_at_once() {
    // Three independent violations in one file: the error must name all of
    // them, not stop at the first.
    let text = "Crossbar_Size = 48\nParallelism_Degree = 64\nPooling_Size = 0\n";
    match Config::from_text(text) {
        Err(CoreError::Config { errors }) => {
            let fields: Vec<&str> = errors.iter().map(|e| e.field_path.as_str()).collect();
            assert!(fields.contains(&"Crossbar_Size"), "{fields:?}");
            assert!(fields.contains(&"Parallelism_Degree"), "{fields:?}");
            assert!(fields.contains(&"Pooling_Size"), "{fields:?}");
            for error in &errors {
                assert!(!error.reason.is_empty());
                assert!(!error.allowed.is_empty());
            }
        }
        other => panic!("expected validation errors, got {other:?}"),
    }
}

#[test]
fn unknown_key_fixture_gets_line_and_suggestion() {
    let text = include_str!("fixtures/typo_key.cfg");
    match Config::from_text(text) {
        Err(CoreError::ConfigParse { line, reason }) => {
            assert_eq!(line, 4, "the misspelled key sits on line 4");
            assert!(reason.contains("Crosbar_Size"), "{reason}");
            assert!(
                reason.contains("did you mean `Crossbar_Size`"),
                "{reason}"
            );
        }
        other => panic!("expected parse error with suggestion, got {other:?}"),
    }
}

#[test]
fn resistance_magnitude_suffixes() {
    let config = Config::from_text("Resistance_Range = [1k 2M]\n").unwrap();
    assert_eq!(config.device.r_min.ohms(), 1_000.0);
    assert_eq!(config.device.r_max.ohms(), 2_000_000.0);
}

#[test]
fn non_finite_device_values_are_rejected() {
    // NaN slips through every `<=` range test, and an infinite bound used
    // to run to NaN report fields or a panic in the accuracy model.
    for range in ["[NaN 500k]", "[500 NaN]", "[500 inf]"] {
        let text = format!("Resistance_Range = {range}\n");
        match Config::from_text(&text) {
            Err(CoreError::Config { errors }) => {
                assert!(
                    errors.iter().any(|e| e.field_path == "Memristor_Model"),
                    "{range}: {errors:?}"
                );
            }
            other => panic!("{range}: expected a Memristor_Model error, got {other:?}"),
        }
    }
    let mut config = Config::fully_connected_mlp(&[64, 32]).unwrap();
    config.sense_resistance = mnsim::tech::units::Resistance::from_ohms(f64::INFINITY);
    let fields: Vec<String> = config.check().into_iter().map(|e| e.field_path).collect();
    assert_eq!(fields, ["Sense_Resistance"]);

    // Device fields only reachable programmatically: a NaN access ratio
    // used to give `total_area = NaN`, and a NaN or zero sinh `α` NaN
    // currents.
    type Edit = fn(&mut mnsim::tech::memristor::MemristorModel);
    let edits: [(&str, Edit); 6] = [
        ("access_wl_ratio = NaN", |d| d.access_wl_ratio = f64::NAN),
        ("access_wl_ratio = inf", |d| {
            d.access_wl_ratio = f64::INFINITY
        }),
        ("write_latency = NaN", |d| {
            d.write_latency = mnsim::tech::units::Time::from_nanoseconds(f64::NAN)
        }),
        ("alpha = NaN", |d| d.iv = IvModel::Sinh { alpha: f64::NAN }),
        ("alpha = 0", |d| d.iv = IvModel::Sinh { alpha: 0.0 }),
        ("alpha = -1", |d| d.iv = IvModel::Sinh { alpha: -1.0 }),
    ];
    for (what, edit) in edits {
        let mut config = Config::fully_connected_mlp(&[64, 32]).unwrap();
        edit(&mut config.device);
        match config.validate() {
            Err(CoreError::Config { errors }) => {
                let fields: Vec<&str> = errors.iter().map(|e| e.field_path.as_str()).collect();
                assert_eq!(fields, ["Memristor_Model"], "{what}");
            }
            other => panic!("{what}: expected a Memristor_Model error, got {other:?}"),
        }
    }
}
