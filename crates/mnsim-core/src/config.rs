//! Platform configuration — the paper's Table I.
//!
//! A [`Config`] carries every design parameter of the three hierarchy
//! levels:
//!
//! | Input | Level | Default |
//! |---|---|---|
//! | `Network_Depth` / `Network_Scale` | Accelerator/Bank | from the network descriptor |
//! | `Interface_Number` | Accelerator | `[128, 128]` |
//! | `Network_Type` | Bank | `ANN` |
//! | `Crossbar_Size` | Bank | `128` |
//! | `Pooling_Size` | Bank | `2` |
//! | `Weight_Polarity` | Unit | `2` (signed) |
//! | `CMOS_Tech` | Unit | `90nm` |
//! | `Cell_Type` | Unit | `1T1R` |
//! | `Memristor_Model` | Unit | `RRAM` |
//! | `Interconnect_Tech` | Unit | `28nm` |
//! | `Parallelism_Degree` | Unit | `0` (all parallel) |
//! | `Resistance_Range` | Unit | `[500 500k]` |
//!
//! Configurations can be built programmatically or parsed from the flat
//! `key = value` file format via [`Config::from_text`].

use mnsim_nn::descriptor::NetworkDescriptor;
use mnsim_nn::models;
use mnsim_tech::cmos::CmosNode;
use mnsim_tech::interconnect::InterconnectNode;
use mnsim_tech::memristor::{CellType, DeviceKind, MemristorModel};
use mnsim_tech::units::Resistance;

use crate::error::{ConfigError, CoreError};

/// The algorithm class mapped onto the accelerator (`Network_Type`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NetworkType {
    /// Fully-connected artificial neural network (sigmoid neurons).
    #[default]
    Ann,
    /// Spiking neural network (integrate-and-fire neurons).
    Snn,
    /// Convolutional neural network (ReLU neurons, pooling).
    Cnn,
}

impl std::fmt::Display for NetworkType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkType::Ann => write!(f, "ANN"),
            NetworkType::Snn => write!(f, "SNN"),
            NetworkType::Cnn => write!(f, "CNN"),
        }
    }
}

/// Whether weights carry a sign (`Weight_Polarity`, paper value 1 or 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WeightPolarity {
    /// Non-negative weights: one memristor per weight.
    Unsigned,
    /// Signed weights: two memristors per weight (paper §III.C-1).
    #[default]
    Signed,
}

/// How signed weights map onto crossbars (paper §III.C-1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SignedMapping {
    /// Two mirrored crossbars; subtractors merge corresponding outputs.
    #[default]
    DualCrossbar,
    /// Positive and negative weights share one crossbar in different
    /// columns; column pairs are subtracted.
    SharedCrossbar,
}

/// How input values reach the crossbar rows.
///
/// The reference design uses one DAC per row (paper §III.C-3). Several
/// published designs instead eliminate the DACs (paper §III.E-2, after
/// \[24\]/\[30\] and ISAAC): inputs are streamed one bit per compute cycle
/// through simple binary drivers, and the read results are shift-added
/// over `input_bits` cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InputEncoding {
    /// Multi-bit DAC per row; one compute cycle per matrix-vector product.
    #[default]
    AnalogDac,
    /// 1-bit drivers; `input_bits` compute cycles per matrix-vector
    /// product with digital shift-accumulate at the read circuits.
    BitSerial,
}

/// Fixed-point precision of the data path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Precision {
    /// Input-signal precision in bits (DAC resolution).
    pub input_bits: u32,
    /// Weight precision in bits (possibly spread over several cells).
    pub weight_bits: u32,
    /// Output/read precision in bits (ADC resolution; `k = 2^bits` levels).
    pub output_bits: u32,
}

impl Default for Precision {
    /// 8-bit signals, 4-bit signed weights, 8-bit outputs — the large-bank
    /// case study's precisions (paper §VII.C).
    fn default() -> Self {
        Precision {
            input_bits: 8,
            weight_bits: 4,
            output_bits: 8,
        }
    }
}

/// A complete MNSIM configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// The application network (defines `Network_Depth` and
    /// `Network_Scale`).
    pub network: NetworkDescriptor,
    /// Algorithm class.
    pub network_type: NetworkType,
    /// Input interface width in wires (`Interface_Number[0]`).
    pub interface_in: usize,
    /// Output interface width in wires (`Interface_Number[1]`).
    pub interface_out: usize,
    /// Crossbar rows/columns (`Crossbar_Size`).
    pub crossbar_size: usize,
    /// Pooling window (`Pooling_Size`, CNN only).
    pub pooling_size: usize,
    /// Weight polarity.
    pub weight_polarity: WeightPolarity,
    /// Signed-weight mapping method.
    pub signed_mapping: SignedMapping,
    /// Input drive scheme.
    pub input_encoding: InputEncoding,
    /// CMOS process (`CMOS_Tech`).
    pub cmos: CmosNode,
    /// Memristor device model (`Cell_Type`, `Memristor_Model`,
    /// `Resistance_Range`).
    pub device: MemristorModel,
    /// Interconnect technology (`Interconnect_Tech`).
    pub interconnect: InterconnectNode,
    /// Read circuits per crossbar (`Parallelism_Degree`; 0 = one per
    /// column, fully parallel).
    pub parallelism: usize,
    /// Fixed-point data-path precision.
    pub precision: Precision,
    /// Column sensing resistance of the read circuit.
    pub sense_resistance: Resistance,
}

impl Config {
    /// Reference configuration (paper defaults) for a given network.
    pub fn for_network(network: NetworkDescriptor) -> Self {
        Config {
            network,
            network_type: NetworkType::Ann,
            interface_in: 128,
            interface_out: 128,
            crossbar_size: 128,
            pooling_size: 2,
            weight_polarity: WeightPolarity::Signed,
            signed_mapping: SignedMapping::DualCrossbar,
            input_encoding: InputEncoding::AnalogDac,
            cmos: CmosNode::N90,
            device: MemristorModel::rram_default(),
            interconnect: InterconnectNode::N28,
            parallelism: 0,
            precision: Precision::default(),
            sense_resistance: Resistance::from_ohms(10.0),
        }
    }

    /// Reference configuration for a fully-connected MLP
    /// (`dims = [in, hidden…, out]`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Nn`] if fewer than two sizes are given, and
    /// validation errors for inconsistent defaults (should not occur).
    pub fn fully_connected_mlp(dims: &[usize]) -> Result<Self, CoreError> {
        let network = models::mlp(dims)?;
        let config = Config::for_network(network);
        config.validate()?;
        Ok(config)
    }

    /// Reference CNN configuration for VGG-16 (paper §VII.D defaults:
    /// 45 nm CMOS, 8-bit data, 7-bit cells).
    pub fn vgg16_cnn() -> Self {
        let mut config = Config::for_network(models::vgg16());
        config.network_type = NetworkType::Cnn;
        config.cmos = CmosNode::N45;
        config.precision = Precision {
            input_bits: 8,
            weight_bits: 8,
            output_bits: 8,
        };
        config
    }

    /// Checks cross-parameter consistency and returns **every** violation
    /// found, as typed [`ConfigError`] records (empty = valid).
    ///
    /// [`Config::validate`] wraps the non-empty case into
    /// [`CoreError::Config`]; call `check` directly to render all
    /// problems of a configuration in one pass (the Table-I file front
    /// end and DSE constraint tooling do).
    pub fn check(&self) -> Vec<ConfigError> {
        let mut errors = Vec::new();
        let mut violation = |field_path: &str, reason: String, allowed: &str| {
            errors.push(ConfigError {
                field_path: field_path.to_string(),
                reason,
                allowed: allowed.to_string(),
            });
        };

        if !self.crossbar_size.is_power_of_two() || !(4..=1024).contains(&self.crossbar_size) {
            violation(
                "Crossbar_Size",
                format!("got {}", self.crossbar_size),
                "a power of two in 4..=1024",
            );
        }
        if self.pooling_size == 0 {
            violation("Pooling_Size", "got 0".into(), "a positive window size");
        }
        if self.parallelism > self.crossbar_size {
            violation(
                "Parallelism_Degree",
                format!(
                    "{} read circuits exceed the {} crossbar columns",
                    self.parallelism, self.crossbar_size
                ),
                "0 (fully parallel) or at most Crossbar_Size",
            );
        }
        if self.interface_in == 0 {
            violation(
                "Interface_Number[0]",
                "input interface width is 0".into(),
                "a positive wire count",
            );
        }
        if self.interface_out == 0 {
            violation(
                "Interface_Number[1]",
                "output interface width is 0".into(),
                "a positive wire count",
            );
        }
        let p = &self.precision;
        for (name, bits) in [
            ("Precision.input_bits", p.input_bits),
            ("Precision.weight_bits", p.weight_bits),
            ("Precision.output_bits", p.output_bits),
        ] {
            if bits == 0 || bits > 16 {
                violation(name, format!("got {bits}"), "1..=16 bits");
            }
        }
        let sense_ohms = self.sense_resistance.ohms();
        if !sense_ohms.is_finite() || sense_ohms <= 0.0 {
            violation(
                "Sense_Resistance",
                format!("got {sense_ohms} Ω"),
                "a positive, finite resistance",
            );
        }
        if let Err(e) = self.device.validate() {
            violation(
                "Memristor_Model",
                e.to_string(),
                "see MemristorModel::validate",
            );
        }
        errors
    }

    /// Validates cross-parameter consistency.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] carrying **every** violation (see
    /// [`Config::check`]), not just the first one found.
    pub fn validate(&self) -> Result<(), CoreError> {
        let errors = self.check();
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors.into())
        }
    }

    /// Number of crossbars a weight needs for its bit slices:
    /// `ceil(weight_bits / bits_per_cell)` (paper §III.B-2).
    pub(crate) fn weight_slices(&self) -> usize {
        self.precision
            .weight_bits
            .div_ceil(self.device.bits_per_cell) as usize
    }

    /// Crossbar copies per logical weight matrix block: bit slices ×
    /// polarity (dual-crossbar signed mapping doubles the crossbars;
    /// shared-crossbar mapping instead doubles the columns).
    pub(crate) fn crossbars_per_block(&self) -> usize {
        let polarity = match (self.weight_polarity, self.signed_mapping) {
            (WeightPolarity::Unsigned, _) => 1,
            (WeightPolarity::Signed, SignedMapping::DualCrossbar) => 2,
            (WeightPolarity::Signed, SignedMapping::SharedCrossbar) => 1,
        };
        polarity * self.weight_slices()
    }

    /// Effective columns one logical output occupies inside a crossbar
    /// (2 for shared-crossbar signed mapping, 1 otherwise).
    pub(crate) fn columns_per_output(&self) -> usize {
        match (self.weight_polarity, self.signed_mapping) {
            (WeightPolarity::Signed, SignedMapping::SharedCrossbar) => 2,
            _ => 1,
        }
    }

    /// The number of read circuits per crossbar after resolving the
    /// `0 = fully parallel` convention against `columns` used columns.
    pub(crate) fn effective_parallelism(&self, columns: usize) -> usize {
        if self.parallelism == 0 {
            columns
        } else {
            self.parallelism.min(columns)
        }
    }

    /// The `k` of the accuracy model: number of output quantization levels.
    pub fn output_levels(&self) -> u32 {
        1 << self.precision.output_bits
    }

    /// Parses the Table I `key = value` configuration-file format.
    ///
    /// `Network_Scale` accepts a comma-separated chain of fully-connected
    /// layer shapes, e.g. `2048x1024` or `128x128,128x128`. For CNNs,
    /// construct the [`NetworkDescriptor`] programmatically and use
    /// [`Config::for_network`] instead.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ConfigParse`] with the offending line, or
    /// validation errors for inconsistent values.
    pub fn from_text(text: &str) -> Result<Self, CoreError> {
        let mut scale: Option<Vec<(usize, usize)>> = None;
        let mut config = Config::for_network(models::mlp(&[128, 128])?);

        for (lineno, raw) in text.lines().enumerate() {
            let line_number = lineno + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') || line.starts_with(';') || line.starts_with('*') {
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| CoreError::ConfigParse {
                line: line_number,
                reason: "expected `key = value`".into(),
            })?;
            let key = key.trim();
            let value = value.trim();
            let err = |reason: String| CoreError::ConfigParse {
                line: line_number,
                reason,
            };

            match key {
                "Network_Depth" => { /* derived from Network_Scale */ }
                "Network_Scale" => {
                    let mut layers = Vec::new();
                    for part in value.split(',') {
                        let (a, b) = part
                            .trim()
                            .split_once(['x', 'X'])
                            .ok_or_else(|| err(format!("bad layer shape `{part}`")))?;
                        let rows: usize =
                            a.trim().parse().map_err(|_| err("bad layer rows".into()))?;
                        let cols: usize =
                            b.trim().parse().map_err(|_| err("bad layer cols".into()))?;
                        layers.push((rows, cols));
                    }
                    scale = Some(layers);
                }
                "Interface_Number" => {
                    let list = parse_bracket_list(value).map_err(err)?;
                    if list.len() != 2 {
                        return Err(err("Interface_Number needs two entries".into()));
                    }
                    config.interface_in = list[0] as usize;
                    config.interface_out = list[1] as usize;
                }
                "Network_Type" => {
                    config.network_type = match value.to_ascii_uppercase().as_str() {
                        "ANN" | "DNN" => NetworkType::Ann,
                        "SNN" => NetworkType::Snn,
                        "CNN" => NetworkType::Cnn,
                        other => return Err(err(format!("unknown network type `{other}`"))),
                    };
                }
                "Crossbar_Size" => {
                    config.crossbar_size =
                        value.parse().map_err(|_| err("bad crossbar size".into()))?;
                }
                "Pooling_Size" => {
                    config.pooling_size =
                        value.parse().map_err(|_| err("bad pooling size".into()))?;
                }
                "Spacial_Size" | "Spatial_Size" => { /* reserved, accepted for compatibility */ }
                "Weight_Polarity" => {
                    config.weight_polarity = match value {
                        "1" => WeightPolarity::Unsigned,
                        "2" => WeightPolarity::Signed,
                        other => return Err(err(format!("weight polarity must be 1 or 2, got `{other}`"))),
                    };
                }
                "CMOS_Tech" => {
                    let nm = parse_nanometers(value).map_err(err)?;
                    config.cmos = CmosNode::from_nanometers(nm)?;
                }
                "Cell_Type" => {
                    config.device.cell_type = match value.to_ascii_uppercase().as_str() {
                        "1T1R" => CellType::OneT1R,
                        "0T1R" => CellType::ZeroT1R,
                        other => return Err(err(format!("unknown cell type `{other}`"))),
                    };
                }
                "Memristor_Model" => {
                    config.device.kind = match value.to_ascii_uppercase().as_str() {
                        "RRAM" => DeviceKind::Rram,
                        "PCM" => DeviceKind::Pcm,
                        other => return Err(err(format!("unknown memristor model `{other}`"))),
                    };
                }
                "Interconnect_Tech" => {
                    let nm = parse_nanometers(value).map_err(err)?;
                    config.interconnect = InterconnectNode::from_nanometers(nm)?;
                }
                "Input_Encoding" => {
                    config.input_encoding = match value.to_ascii_lowercase().as_str() {
                        "analog" | "dac" => InputEncoding::AnalogDac,
                        "bit_serial" | "bitserial" => InputEncoding::BitSerial,
                        other => {
                            return Err(err(format!("unknown input encoding `{other}`")))
                        }
                    };
                }
                "Parallelism_Degree" => {
                    config.parallelism =
                        value.parse().map_err(|_| err("bad parallelism degree".into()))?;
                }
                "Resistance_Range" => {
                    let list = parse_bracket_list(value).map_err(err)?;
                    if list.len() != 2 {
                        return Err(err("Resistance_Range needs two entries".into()));
                    }
                    config.device.r_min = Resistance::from_ohms(list[0]);
                    config.device.r_max = Resistance::from_ohms(list[1]);
                }
                other => {
                    let reason = match nearest_key(other) {
                        Some(suggestion) => format!(
                            "unknown configuration key `{other}` (did you mean `{suggestion}`?)"
                        ),
                        None => format!("unknown configuration key `{other}`"),
                    };
                    return Err(err(reason));
                }
            }
        }

        if let Some(layers) = scale {
            let mut prev = layers[0].0;
            let mut dims = vec![prev];
            for (rows, cols) in &layers {
                if *rows != prev {
                    return Err(CoreError::InvalidConfig {
                        parameter: "Network_Scale",
                        reason: format!("layer {rows}x{cols} does not chain"),
                    });
                }
                dims.push(*cols);
                prev = *cols;
            }
            config.network = models::mlp(&dims)?;
        }

        config.validate()?;
        Ok(config)
    }
}

/// Every key accepted by [`Config::from_text`], for did-you-mean
/// suggestions. Keep in sync with the `match key` arms above.
const KNOWN_KEYS: &[&str] = &[
    "Network_Depth",
    "Network_Scale",
    "Interface_Number",
    "Network_Type",
    "Crossbar_Size",
    "Pooling_Size",
    "Spatial_Size",
    "Weight_Polarity",
    "CMOS_Tech",
    "Cell_Type",
    "Memristor_Model",
    "Interconnect_Tech",
    "Input_Encoding",
    "Parallelism_Degree",
    "Resistance_Range",
];

/// Case-insensitive Levenshtein distance, for typo suggestions.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().flat_map(char::to_lowercase).collect();
    let b: Vec<char> = b.chars().flat_map(char::to_lowercase).collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut prev = row[0];
        row[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = if ca == cb { prev } else { prev + 1 };
            prev = row[j + 1];
            row[j + 1] = cost.min(prev + 1).min(row[j] + 1);
        }
    }
    row[b.len()]
}

/// The closest known configuration key, if it is close enough to be a
/// plausible typo (distance ≤ 1/3 of the key length, minimum 2).
fn nearest_key(unknown: &str) -> Option<&'static str> {
    let (best, distance) = KNOWN_KEYS
        .iter()
        .map(|k| (*k, edit_distance(unknown, k)))
        .min_by_key(|(_, d)| *d)?;
    let budget = (best.len() / 3).max(2);
    (distance <= budget).then_some(best)
}

/// Parses `[a b]` or `[a, b]` lists with `k`/`M` magnitude suffixes.
fn parse_bracket_list(value: &str) -> Result<Vec<f64>, String> {
    let inner = value
        .trim()
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| format!("expected `[a b]` list, got `{value}`"))?;
    inner
        .split([' ', ','])
        .filter(|t| !t.is_empty())
        .map(parse_magnitude)
        .collect()
}

/// Parses a number with an optional `k` (×10³) or `M` (×10⁶) suffix.
fn parse_magnitude(token: &str) -> Result<f64, String> {
    let token = token.trim();
    let (digits, factor) = if let Some(d) = token.strip_suffix(['k', 'K']) {
        (d, 1e3)
    } else if let Some(d) = token.strip_suffix('M') {
        (d, 1e6)
    } else {
        (token, 1.0)
    };
    digits
        .parse::<f64>()
        .map(|v| v * factor)
        .map_err(|_| format!("bad number `{token}`"))
}

/// Parses `90nm` / `90 nm` / `90`.
fn parse_nanometers(value: &str) -> Result<u32, String> {
    value
        .trim()
        .trim_end_matches("nm")
        .trim()
        .parse()
        .map_err(|_| format!("bad technology node `{value}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_i() {
        let config = Config::fully_connected_mlp(&[128, 128, 128]).unwrap();
        assert_eq!(config.interface_in, 128);
        assert_eq!(config.interface_out, 128);
        assert_eq!(config.network_type, NetworkType::Ann);
        assert_eq!(config.crossbar_size, 128);
        assert_eq!(config.pooling_size, 2);
        assert_eq!(config.weight_polarity, WeightPolarity::Signed);
        assert_eq!(config.cmos, CmosNode::N90);
        assert_eq!(config.interconnect, InterconnectNode::N28);
        assert_eq!(config.parallelism, 0);
        assert_eq!(config.device.r_min.ohms(), 500.0);
        assert_eq!(config.device.r_max.ohms(), 500_000.0);
    }

    #[test]
    fn validation_rejects_bad_values() {
        let mut c = Config::fully_connected_mlp(&[64, 64]).unwrap();
        c.crossbar_size = 100;
        assert!(c.validate().is_err());
        c.crossbar_size = 2048;
        assert!(c.validate().is_err());

        let mut c = Config::fully_connected_mlp(&[64, 64]).unwrap();
        c.parallelism = 512;
        assert!(c.validate().is_err());

        let mut c = Config::fully_connected_mlp(&[64, 64]).unwrap();
        c.precision.output_bits = 0;
        assert!(c.validate().is_err());

        let mut c = Config::fully_connected_mlp(&[64, 64]).unwrap();
        c.pooling_size = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn check_collects_every_violation() {
        let mut c = Config::fully_connected_mlp(&[64, 64]).unwrap();
        c.crossbar_size = 100;
        c.pooling_size = 0;
        c.precision.output_bits = 0;
        c.precision.input_bits = 32;
        let errors = c.check();
        let paths: Vec<&str> = errors.iter().map(|e| e.field_path.as_str()).collect();
        assert!(paths.contains(&"Crossbar_Size"), "{paths:?}");
        assert!(paths.contains(&"Pooling_Size"), "{paths:?}");
        assert!(paths.contains(&"Precision.output_bits"), "{paths:?}");
        assert!(paths.contains(&"Precision.input_bits"), "{paths:?}");
        match c.validate() {
            Err(CoreError::Config { errors: e }) => assert_eq!(e, errors),
            other => panic!("expected CoreError::Config, got {other:?}"),
        }
        assert!(Config::fully_connected_mlp(&[64, 64]).unwrap().check().is_empty());
    }

    #[test]
    fn unknown_keys_suggest_nearest() {
        match Config::from_text("Crosbar_Size = 128\n") {
            Err(CoreError::ConfigParse { line, reason }) => {
                assert_eq!(line, 1);
                assert!(reason.contains("did you mean `Crossbar_Size`"), "{reason}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        // Nothing plausible nearby: no suggestion offered.
        match Config::from_text("Quux = 1\n") {
            Err(CoreError::ConfigParse { reason, .. }) => {
                assert!(!reason.contains("did you mean"), "{reason}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        assert_eq!(nearest_key("parallelism_degree"), Some("Parallelism_Degree"));
        assert_eq!(edit_distance("abc", "abd"), 1);
        assert_eq!(edit_distance("", "abc"), 3);
    }

    #[test]
    fn weight_slices_and_crossbars_per_block() {
        let mut c = Config::fully_connected_mlp(&[64, 64]).unwrap();
        c.precision.weight_bits = 4;
        c.device.bits_per_cell = 7;
        assert_eq!(c.weight_slices(), 1);
        assert_eq!(c.crossbars_per_block(), 2); // signed dual-crossbar

        c.precision.weight_bits = 8;
        c.device.bits_per_cell = 4;
        assert_eq!(c.weight_slices(), 2);
        assert_eq!(c.crossbars_per_block(), 4);

        c.weight_polarity = WeightPolarity::Unsigned;
        assert_eq!(c.crossbars_per_block(), 2);

        c.weight_polarity = WeightPolarity::Signed;
        c.signed_mapping = SignedMapping::SharedCrossbar;
        assert_eq!(c.crossbars_per_block(), 2);
        assert_eq!(c.columns_per_output(), 2);
    }

    #[test]
    fn effective_parallelism_resolves_zero() {
        let mut c = Config::fully_connected_mlp(&[64, 64]).unwrap();
        c.parallelism = 0;
        assert_eq!(c.effective_parallelism(64), 64);
        c.parallelism = 16;
        assert_eq!(c.effective_parallelism(64), 16);
        assert_eq!(c.effective_parallelism(8), 8);
    }

    #[test]
    fn parse_full_config_file() {
        let text = "\
# MNSIM configuration (Table I)
Network_Scale = 128x128, 128x128
Interface_Number = [128,128]
Network_Type = ANN
Crossbar_Size = 128
Pooling_Size = 2
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
        assert_eq!(config.crossbar_size, 128);
        assert_eq!(config.device.r_max.ohms(), 500_000.0);
        assert_eq!(config.cmos, CmosNode::N90);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        match Config::from_text("Crossbar_Size = 128\nBogus_Key = 3\n") {
            Err(CoreError::ConfigParse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        assert!(Config::from_text("Crossbar_Size: 128\n").is_err());
        assert!(Config::from_text("Network_Type = GAN\n").is_err());
        assert!(Config::from_text("Resistance_Range = [500]\n").is_err());
    }

    #[test]
    fn parse_rejects_nonchaining_scale() {
        assert!(matches!(
            Config::from_text("Network_Scale = 128x64, 128x32\n"),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn magnitude_suffixes() {
        assert_eq!(parse_magnitude("500").unwrap(), 500.0);
        assert_eq!(parse_magnitude("500k").unwrap(), 500_000.0);
        assert_eq!(parse_magnitude("2M").unwrap(), 2_000_000.0);
        assert!(parse_magnitude("abc").is_err());
    }

    #[test]
    fn output_levels() {
        let mut c = Config::fully_connected_mlp(&[64, 64]).unwrap();
        c.precision.output_bits = 6;
        assert_eq!(c.output_levels(), 64);
    }

    #[test]
    fn input_encoding_parses() {
        let c = Config::from_text("Input_Encoding = bit_serial\n").unwrap();
        assert_eq!(c.input_encoding, InputEncoding::BitSerial);
        let c = Config::from_text("Input_Encoding = analog\n").unwrap();
        assert_eq!(c.input_encoding, InputEncoding::AnalogDac);
        assert!(Config::from_text("Input_Encoding = telepathy\n").is_err());
    }

    #[test]
    fn vgg16_preset() {
        let c = Config::vgg16_cnn();
        assert_eq!(c.network_type, NetworkType::Cnn);
        assert_eq!(c.cmos, CmosNode::N45);
        assert_eq!(c.network.depth(), 16);
        c.validate().unwrap();
    }
}
