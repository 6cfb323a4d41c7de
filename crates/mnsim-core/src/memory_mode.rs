//! Memory-mode (NVSim-style) evaluation of the crossbar fabric.
//!
//! MNSIM is designed to "cooperate with other simulators" — NVSim in
//! particular (paper §III.E-4): the same crossbars that compute can serve
//! as a non-volatile memory macro, with the *memory-oriented* decoder of
//! Fig. 4(a) selecting one cell at a time (paper §II.C). This module
//! evaluates the fabric in that mode, giving the NVSim-comparable numbers
//! (capacity, random-access read/write latency and energy, bandwidth) so
//! results can flow in either direction between the two tools.

use mnsim_tech::units::{Area, Energy, Time};

use crate::config::Config;
use crate::error::CoreError;
use crate::modules::converters::reference_adc;
use crate::modules::crossbar::CrossbarModel;
use crate::modules::decoder::memory_decoder;

/// The NVSim-style evaluation of the fabric as a memory macro.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryModeReport {
    /// Usable capacity in bits (cells × bits per cell).
    pub capacity_bits: u64,
    /// Macro area (arrays + decoders + read circuits).
    pub area: Area,
    /// Random-access read latency of one cell.
    pub read_latency: Time,
    /// Random-access write latency of one cell.
    pub write_latency: Time,
    /// Read energy per bit.
    pub read_energy_per_bit: Energy,
    /// Write energy per bit.
    pub write_energy_per_bit: Energy,
    /// Peak streaming read bandwidth in bits/s (one cell per array per
    /// access, all arrays in parallel).
    pub read_bandwidth_bits_per_s: f64,
}

/// Evaluates `config`'s crossbar fabric as a memory macro built from
/// `arrays` crossbars of `config.crossbar_size`.
///
/// # Errors
///
/// Returns configuration validation errors; rejects zero arrays.
pub fn evaluate_memory_mode(config: &Config, arrays: usize) -> Result<MemoryModeReport, CoreError> {
    config.validate()?;
    if arrays == 0 {
        return Err(CoreError::InvalidConfig {
            parameter: "arrays",
            reason: "a memory macro needs at least one array".into(),
        });
    }
    let cmos = config.cmos.params();
    let size = config.crossbar_size;
    let cells_per_array = (size * size) as u64;
    let capacity_bits =
        cells_per_array * arrays as u64 * u64::from(config.device.bits_per_cell);

    let xbar = CrossbarModel::new(size, &config.device, config.interconnect);
    let decoder = memory_decoder(&cmos, size);
    // Multi-level read needs the full-precision sensing circuit.
    let adc = reference_adc(config.cmos, config.device.bits_per_cell);

    let area = (xbar.area() + decoder.area * 2.0 + adc.area) * arrays as f64;

    let read_latency = decoder.latency + xbar.settle_latency() + adc.latency;
    let write_latency = decoder.latency + config.device.write_latency;

    let bits = f64::from(config.device.bits_per_cell);
    let read_energy_per_bit = (decoder.dynamic_energy
        + xbar.read_power() * adc.latency
        + adc.dynamic_energy)
        / bits;
    let write_energy_per_bit =
        (decoder.dynamic_energy + xbar.write_energy_per_cell()) / bits;

    let read_bandwidth_bits_per_s =
        arrays as f64 * bits / read_latency.seconds();

    Ok(MemoryModeReport {
        capacity_bits,
        area,
        read_latency,
        write_latency,
        read_energy_per_bit,
        write_energy_per_bit,
        read_bandwidth_bits_per_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> Config {
        Config::fully_connected_mlp(&[128, 128]).unwrap()
    }

    #[test]
    fn capacity_counts_multilevel_cells() {
        let report = evaluate_memory_mode(&config(), 4).unwrap();
        // 4 × 128×128 cells × 7 bits
        assert_eq!(report.capacity_bits, 4 * 128 * 128 * 7);
    }

    #[test]
    fn writes_slower_and_hungrier_than_reads() {
        let report = evaluate_memory_mode(&config(), 1).unwrap();
        assert!(report.write_latency.seconds() > report.read_latency.seconds());
        assert!(
            report.write_energy_per_bit.joules() > report.read_energy_per_bit.joules(),
            "write {} vs read {}",
            report.write_energy_per_bit.joules(),
            report.read_energy_per_bit.joules()
        );
    }

    #[test]
    fn read_latency_in_nvm_ballpark() {
        // The paper quotes 10–100 ns NVM read latencies (§V.C); our read
        // path (decoder + settle + multilevel sense) must land in the same
        // decade.
        let report = evaluate_memory_mode(&config(), 1).unwrap();
        let ns = report.read_latency.nanoseconds();
        assert!((1.0..=200.0).contains(&ns), "read latency {ns} ns");
    }

    #[test]
    fn bandwidth_scales_with_arrays() {
        let one = evaluate_memory_mode(&config(), 1).unwrap();
        let eight = evaluate_memory_mode(&config(), 8).unwrap();
        assert!(
            (eight.read_bandwidth_bits_per_s / one.read_bandwidth_bits_per_s - 8.0).abs()
                < 1e-9
        );
        assert!(eight.area.square_meters() > one.area.square_meters());
    }

    #[test]
    fn density_is_positive_and_zero_arrays_rejected() {
        let report = evaluate_memory_mode(&config(), 2).unwrap();
        assert!(report.capacity_bits as f64 / report.area.square_micrometers() > 0.0);
        assert!(evaluate_memory_mode(&config(), 0).is_err());
    }
}
