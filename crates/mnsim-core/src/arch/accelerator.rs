//! Level-1: the accelerator (paper §III.A, Fig. 1(b)).
//!
//! The accelerator is the I/O interface modules plus the cascaded
//! computation banks. Aggregation follows the paper's §IV.A rules: areas,
//! energies and leakages add; latency is worst-case; multi-layer
//! accelerators are pipelined, so the throughput-defining "latency per
//! pipeline cycle" is the largest bank cycle (paper §VII.D).

use mnsim_nn::descriptor::BankDescriptor;
use mnsim_obs::{Level, Span};
use mnsim_tech::units::{Area, Energy, Power, Time};

use crate::arch::bank::{evaluate_bank, BankModelResult};
use crate::config::Config;
use crate::error::CoreError;
use crate::modules::interface::interface;
use crate::modules::link::{hop_length, interbank_link};
use crate::perf::ModulePerf;

static LAYER_SPAN: Span = Span::new("layer", Level::Layer);

/// The evaluated performance of the whole accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorModelResult {
    /// Input interface (buffers one full sample).
    pub interface_in: ModulePerf,
    /// Output interface.
    pub interface_out: ModulePerf,
    /// Per-bank evaluations, input side first.
    pub banks: Vec<BankModelResult>,
    /// Inter-bank global links (one per neighbouring bank pair); one
    /// operation = one output word moved to the next bank.
    pub links: Vec<ModulePerf>,
    /// Total layout area.
    pub total_area: Area,
    /// Total leakage power.
    pub total_leakage: Power,
    /// End-to-end latency of one sample (pipeline fill).
    pub sample_latency: Time,
    /// Latency of one pipeline cycle = the largest bank cycle.
    pub pipeline_cycle: Time,
    /// Dynamic energy per processed sample.
    pub energy_per_sample: Energy,
    /// Average power while streaming samples
    /// (`energy/sample ÷ pipeline cycle + leakage`).
    pub average_power: Power,
}

/// The next bank's convolution kernel, which sizes bank `i`'s output line
/// buffer (paper Eq. 6).
fn next_kernel_of(descriptors: &[BankDescriptor], i: usize) -> Option<usize> {
    descriptors.get(i + 1).and_then(|next| match next {
        BankDescriptor::Conv { shape, .. } => Some(shape.kernel),
        BankDescriptor::FullyConnected { .. } => None,
    })
}

/// Evaluates the accelerator for `config`, bank by bank on the calling
/// thread (one `layer` trace span per bank).
///
/// # Errors
///
/// Returns configuration validation errors ([`CoreError::Config`]).
pub(crate) fn evaluate_accelerator(config: &Config) -> Result<AcceleratorModelResult, CoreError> {
    config.validate()?;
    let cmos = config.cmos.params();
    let bits = config.precision.input_bits;

    let interface_in = interface(
        &cmos,
        config.network.input_size(),
        bits,
        config.interface_in,
    );
    let interface_out = interface(
        &cmos,
        config.network.output_size(),
        config.precision.output_bits,
        config.interface_out,
    );

    let descriptors = &config.network.banks;
    let mut banks: Vec<BankModelResult> = Vec::with_capacity(descriptors.len());
    for (i, bank) in descriptors.iter().enumerate() {
        let _layer_span = LAYER_SPAN.enter_at(i as i64);
        banks.push(evaluate_bank(config, bank, next_kernel_of(descriptors, i)));
    }

    // Inter-bank links: one hop between every neighbouring bank pair,
    // sized by the producing bank's output word and the two footprints.
    let mut links = Vec::new();
    for (i, pair) in banks.windows(2).enumerate() {
        let length = hop_length(pair[0].area(), pair[1].area());
        let word_bits = config.precision.output_bits
            * (pair[0].unit.parallelism * pair[0].partition.col_blocks()).max(1) as u32;
        let link = interbank_link(&cmos, config.interconnect, word_bits, length);
        // One link transfer per producing-bank pipeline cycle.
        let transfers = descriptors[i].ops_per_sample();
        links.push(ModulePerf {
            area: link.area,
            latency: link.latency,
            dynamic_energy: link.dynamic_energy * transfers as f64,
            leakage: link.leakage,
        });
    }

    let total_area = interface_in.area
        + interface_out.area
        + banks.iter().map(|b| b.area()).sum::<Area>()
        + links.iter().map(|l| l.area).sum::<Area>();
    let total_leakage = interface_in.leakage
        + interface_out.leakage
        + banks.iter().map(|b| b.leakage()).sum::<Power>()
        + links.iter().map(|l| l.leakage).sum::<Power>();

    let banks_latency: Time = banks.iter().map(|b| b.sample.latency).sum();
    let links_latency: Time = links.iter().map(|l| l.latency).sum();
    let sample_latency =
        interface_in.latency + banks_latency + links_latency + interface_out.latency;

    let pipeline_cycle = banks
        .iter()
        .map(|b| b.cycle.latency)
        .fold(Time::ZERO, Time::max);

    let energy_per_sample = interface_in.dynamic_energy
        + interface_out.dynamic_energy
        + banks.iter().map(|b| b.sample.dynamic_energy).sum::<Energy>()
        + links.iter().map(|l| l.dynamic_energy).sum::<Energy>();

    // Streaming power: one sample completes per pipeline cycle in the
    // steady state, but a sample's energy is spread over its banks. Using
    // the end-to-end latency gives the average power of a single-sample
    // (non-overlapped) run; the paper's Power column uses this definition.
    let average_power = if sample_latency.seconds() > 0.0 {
        energy_per_sample / sample_latency + total_leakage
    } else {
        total_leakage
    };

    Ok(AcceleratorModelResult {
        interface_in,
        interface_out,
        banks,
        links,
        total_area,
        total_leakage,
        sample_latency,
        pipeline_cycle,
        energy_per_sample,
        average_power,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_layer_mlp_structure() {
        let config = Config::fully_connected_mlp(&[128, 128, 128]).unwrap();
        let acc = evaluate_accelerator(&config).unwrap();
        assert_eq!(acc.banks.len(), 2);
        assert!(acc.total_area.square_millimeters() > 0.0);
        assert!(acc.sample_latency.seconds() > 0.0);
        assert!(acc.energy_per_sample.joules() > 0.0);
        assert!(acc.average_power.watts() > 0.0);
    }

    #[test]
    fn pipeline_cycle_is_max_bank_cycle() {
        let config = Config::fully_connected_mlp(&[512, 2048, 64]).unwrap();
        let acc = evaluate_accelerator(&config).unwrap();
        let max_cycle = acc
            .banks
            .iter()
            .map(|b| b.cycle.latency.seconds())
            .fold(0.0f64, f64::max);
        assert_eq!(acc.pipeline_cycle.seconds(), max_cycle);
        assert!(acc.sample_latency.seconds() > max_cycle);
    }

    #[test]
    fn deeper_networks_cost_more() {
        let shallow = Config::fully_connected_mlp(&[256, 256]).unwrap();
        let deep = Config::fully_connected_mlp(&[256, 256, 256, 256]).unwrap();
        let a = evaluate_accelerator(&shallow).unwrap();
        let b = evaluate_accelerator(&deep).unwrap();
        assert!(b.total_area.square_meters() > a.total_area.square_meters());
        assert!(b.energy_per_sample.joules() > a.energy_per_sample.joules());
        assert!(b.sample_latency.seconds() > a.sample_latency.seconds());
    }

    #[test]
    fn invalid_config_rejected() {
        let mut config = Config::fully_connected_mlp(&[128, 128]).unwrap();
        config.crossbar_size = 100;
        assert!(evaluate_accelerator(&config).is_err());
    }

    #[test]
    fn vgg16_evaluates() {
        let acc = evaluate_accelerator(&Config::vgg16_cnn()).unwrap();
        assert_eq!(acc.banks.len(), 16);
        // A 138M-weight network occupies hundreds of mm².
        assert!(acc.total_area.square_millimeters() > 10.0);
        // Conv banks dominate the op counts.
        assert!(acc.banks[0].ops_per_sample > 10_000);
    }
}
