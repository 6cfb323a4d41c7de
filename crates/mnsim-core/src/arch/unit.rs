//! Level-3: the computation unit (paper §III.C, Fig. 1(d)).
//!
//! A unit is: memristor crossbar(s) + address decoders + input peripheral
//! circuit (DACs & transfer gates) + read circuits (ADCs/SAs, MUX routing,
//! optional subtractors for the dual-crossbar signed mapping, shift-add
//! mergers for bit-sliced weights) + a small control counter.

use mnsim_obs::{trace, Level, Span};
use mnsim_tech::units::Area;

use crate::config::{Config, InputEncoding, SignedMapping, WeightPolarity};
use crate::modules::converters::{reference_adc, reference_dac};
use crate::modules::crossbar::CrossbarModel;
use crate::modules::decoder::{compute_decoder, memory_decoder};
use crate::modules::digital::{adder, controller, mux, register_bank, shift_add_merge, subtractor};
use crate::perf::ModulePerf;

static UNIT_SPAN: Span = Span::new("unit", Level::Unit);

/// Area breakdown of a unit — used for claims like the paper's "ADCs take
/// about half of the area" (§V.C).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UnitAreaBreakdown {
    /// Memristor arrays.
    pub crossbar: Area,
    /// Address decoders.
    pub decoder: Area,
    /// DACs and ADCs.
    pub converters: Area,
    /// Digital periphery (MUX, subtractors, mergers, control).
    pub digital: Area,
}

impl UnitAreaBreakdown {
    /// Total unit area.
    pub fn total(&self) -> Area {
        self.crossbar + self.decoder + self.converters + self.digital
    }
}

/// The evaluated performance of one computation unit.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitModelResult {
    /// Inputs (crossbar rows) actually driven.
    pub rows_used: usize,
    /// Logical outputs produced by the unit.
    pub cols_used: usize,
    /// Physical crossbar columns occupied by those outputs.
    pub physical_cols: usize,
    /// Read circuits per crossbar after resolving `Parallelism_Degree`.
    pub parallelism: usize,
    /// Conversion cycles needed to read all used columns.
    pub read_cycles: usize,
    /// Crossbars in the unit (polarity copies × weight bit slices).
    pub crossbar_count: usize,
    /// One full matrix-vector multiplication of the unit.
    pub mvm: ModulePerf,
    /// One memory-style READ access (decoder + crossbar).
    pub read_access: ModulePerf,
    /// One single-cell WRITE.
    pub write_access: ModulePerf,
    /// Area breakdown.
    pub breakdown: UnitAreaBreakdown,
}

/// Evaluates a computation unit holding a `rows_used × cols_used`
/// sub-matrix under `config`.
///
/// `rows_used`/`cols_used` are clamped to the crossbar geometry.
pub(crate) fn evaluate_unit(
    config: &Config,
    rows_used: usize,
    cols_used: usize,
) -> UnitModelResult {
    let _span = UNIT_SPAN.enter();
    let cmos = config.cmos.params();
    let size = config.crossbar_size;
    let rows_used = rows_used.clamp(1, size);
    let cols_used = cols_used.clamp(1, size / config.columns_per_output().max(1)).max(1);
    let physical_cols = (cols_used * config.columns_per_output()).min(size);

    let crossbar_count = config.crossbars_per_block();
    let slices = config.weight_slices();

    let xbar = CrossbarModel::new(size, &config.device, config.interconnect);
    let p = config.effective_parallelism(physical_cols);
    let read_cycles = physical_cols.div_ceil(p);

    // --- components -------------------------------------------------------
    let adc = reference_adc(config.cmos, config.precision.output_bits);
    // Input drive: a multi-bit DAC per row, or — for the bit-serial
    // customization (§III.E-2) — a 1-bit transfer-gate driver per row plus
    // a shift-accumulator per read circuit, with the whole analog+convert
    // phase repeated once per input bit.
    let bit_serial = config.input_encoding == InputEncoding::BitSerial;
    let input_passes = if bit_serial {
        config.precision.input_bits as usize
    } else {
        1
    };
    let dac = if bit_serial {
        // Two-transistor binary driver (the DAC is eliminated).
        ModulePerf {
            area: cmos.transistor_area(2),
            latency: cmos.fo4_delay * 2.0,
            dynamic_energy: cmos.gate_energy,
            leakage: cmos.leakage(2),
        }
    } else {
        reference_dac(config.cmos, config.precision.input_bits)
    };
    // Shift-accumulator merging the per-bit partial results.
    let accumulator = if bit_serial {
        adder(&cmos, config.precision.output_bits + config.precision.input_bits).chain(
            &register_bank(&cmos, 1, config.precision.output_bits + config.precision.input_bits),
        )
    } else {
        ModulePerf::ZERO
    };
    // Two decoders per crossbar (row select is computation-oriented, the
    // column-side decoder serves READ/WRITE).
    let row_decoder = compute_decoder(&cmos, size);
    let col_decoder = memory_decoder(&cmos, size);
    let routing = mux(&cmos, read_cycles, config.precision.output_bits);
    let needs_subtractor = matches!(
        (config.weight_polarity, config.signed_mapping),
        (WeightPolarity::Signed, SignedMapping::DualCrossbar)
            | (WeightPolarity::Signed, SignedMapping::SharedCrossbar)
    );
    let sub = subtractor(&cmos, config.precision.output_bits);
    let merger = shift_add_merge(
        &cmos,
        slices,
        config.device.bits_per_cell,
        config.precision.output_bits,
    );
    let counter = controller(&cmos, read_cycles.max(2));

    // --- one matrix-vector multiplication ----------------------------------
    // Latency: drive → crossbar settle → sequential ADC cycles →
    // subtract → slice merge; bit-serial encoding repeats the analog and
    // conversion phases once per input bit with a shift-accumulate each
    // pass. All crossbars of the unit operate in parallel.
    let analog_phase = dac.latency + xbar.settle_latency();
    let conversion_phase = adc.latency * read_cycles as f64;
    let digital_phase = if needs_subtractor {
        sub.latency
    } else {
        mnsim_tech::units::Time::ZERO
    } + merger.latency
        + counter.latency;
    let mvm_latency = (analog_phase + conversion_phase + accumulator.latency)
        * input_passes as f64
        + digital_phase;

    // Energy: DACs (one per used row, shared across the unit's crossbars),
    // crossbar conduction over the whole analog+conversion window, one ADC
    // conversion per used physical column per crossbar, digital merging per
    // produced output.
    let crossbar_energy = xbar.compute_power(rows_used, physical_cols)
        * (analog_phase + conversion_phase)
        * (crossbar_count * input_passes) as f64
        * if bit_serial { 0.5 } else { 1.0 }; // half the bits drive per pass
    let dac_energy = dac.dynamic_energy * (rows_used * input_passes) as f64;
    let adc_energy =
        adc.dynamic_energy * (physical_cols * crossbar_count * input_passes) as f64;
    let accumulator_energy =
        accumulator.dynamic_energy * (cols_used * input_passes) as f64;
    let decoder_energy =
        (row_decoder.dynamic_energy + col_decoder.dynamic_energy) * crossbar_count as f64;
    let sub_energy = if needs_subtractor {
        sub.dynamic_energy * cols_used as f64
    } else {
        mnsim_tech::units::Energy::ZERO
    };
    let merge_energy = merger.dynamic_energy * cols_used as f64;
    let mvm_energy = crossbar_energy
        + dac_energy
        + adc_energy
        + accumulator_energy
        + decoder_energy
        + sub_energy
        + merge_energy
        + counter.dynamic_energy;

    // Trace attribution: the exact critical-path decomposition of the MVM,
    // so per-module time/energy sums reproduce `mvm.latency`/`mvm.
    // dynamic_energy` up to floating-point association.
    if trace::enabled() {
        let passes = input_passes as f64;
        trace::module_perf("dac", (dac.latency * passes).seconds(), dac_energy.joules());
        trace::module_perf(
            "crossbar",
            (xbar.settle_latency() * passes).seconds(),
            crossbar_energy.joules(),
        );
        trace::module_perf(
            "adc",
            (conversion_phase * passes).seconds(),
            adc_energy.joules(),
        );
        trace::module_perf(
            "accumulator",
            (accumulator.latency * passes).seconds(),
            accumulator_energy.joules(),
        );
        trace::module_perf(
            "digital",
            digital_phase.seconds(),
            (decoder_energy + sub_energy + merge_energy + counter.dynamic_energy).joules(),
        );
    }

    // --- area & leakage -----------------------------------------------------
    let breakdown = UnitAreaBreakdown {
        crossbar: xbar.area() * crossbar_count as f64,
        decoder: (row_decoder.area + col_decoder.area) * crossbar_count as f64,
        converters: dac.area * size as f64 + adc.area * (p * crossbar_count) as f64,
        digital: routing.area * (p * crossbar_count) as f64
            + if needs_subtractor {
                sub.area * p as f64
            } else {
                Area::ZERO
            }
            + merger.area * p as f64
            + accumulator.area * p as f64
            + counter.area,
    };
    let leakage = (row_decoder.leakage + col_decoder.leakage) * crossbar_count as f64
        + dac.leakage * size as f64
        + adc.leakage * (p * crossbar_count) as f64
        + routing.leakage * (p * crossbar_count) as f64
        + merger.leakage * p as f64
        + accumulator.leakage * p as f64
        + counter.leakage;

    let mvm = ModulePerf {
        area: breakdown.total(),
        latency: mvm_latency,
        dynamic_energy: mvm_energy,
        leakage,
    };

    // --- memory-mode accesses ------------------------------------------------
    let read_access = ModulePerf {
        area: Area::ZERO,
        latency: col_decoder.latency + xbar.settle_latency() + adc.latency,
        dynamic_energy: col_decoder.dynamic_energy
            + xbar.read_power() * adc.latency
            + adc.dynamic_energy,
        leakage: mnsim_tech::units::Power::ZERO,
    };
    let write_access = ModulePerf {
        area: Area::ZERO,
        latency: col_decoder.latency + config.device.write_latency,
        dynamic_energy: col_decoder.dynamic_energy + xbar.write_energy_per_cell(),
        leakage: mnsim_tech::units::Power::ZERO,
    };

    UnitModelResult {
        rows_used,
        cols_used,
        physical_cols,
        parallelism: p,
        read_cycles,
        crossbar_count,
        mvm,
        read_access,
        write_access,
        breakdown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;

    fn config() -> Config {
        Config::fully_connected_mlp(&[128, 128]).unwrap()
    }

    #[test]
    fn full_parallel_unit_reads_in_one_cycle() {
        let u = evaluate_unit(&config(), 128, 128);
        assert_eq!(u.parallelism, 128);
        assert_eq!(u.read_cycles, 1);
        assert_eq!(u.crossbar_count, 2); // signed dual-crossbar, 1 slice
    }

    #[test]
    fn lower_parallelism_trades_latency_for_area() {
        let mut c = config();
        c.parallelism = 0;
        let full = evaluate_unit(&c, 128, 128);
        c.parallelism = 8;
        let shared = evaluate_unit(&c, 128, 128);
        assert_eq!(shared.read_cycles, 16);
        assert!(shared.mvm.latency.seconds() > full.mvm.latency.seconds());
        assert!(
            shared.breakdown.converters.square_meters()
                < full.breakdown.converters.square_meters()
        );
    }

    #[test]
    fn adc_energy_independent_of_parallelism() {
        // Each column is converted exactly once regardless of sharing; the
        // energy difference comes only from the longer crossbar-on window.
        let mut c = config();
        c.parallelism = 0;
        let full = evaluate_unit(&c, 128, 128);
        c.parallelism = 1;
        let serial = evaluate_unit(&c, 128, 128);
        assert!(serial.mvm.dynamic_energy.joules() > full.mvm.dynamic_energy.joules());
    }

    #[test]
    fn bit_slices_multiply_crossbars() {
        let mut c = config();
        c.precision.weight_bits = 8;
        c.device.bits_per_cell = 4;
        let u = evaluate_unit(&c, 128, 128);
        assert_eq!(u.crossbar_count, 4); // 2 slices × 2 polarity
    }

    #[test]
    fn unsigned_single_crossbar() {
        let mut c = config();
        c.weight_polarity = crate::config::WeightPolarity::Unsigned;
        let u = evaluate_unit(&c, 128, 128);
        assert_eq!(u.crossbar_count, 1);
    }

    #[test]
    fn inputs_clamped_to_geometry() {
        let u = evaluate_unit(&config(), 9999, 9999);
        assert_eq!(u.rows_used, 128);
        assert_eq!(u.cols_used, 128);
    }

    #[test]
    fn read_and_write_access_positive() {
        let u = evaluate_unit(&config(), 128, 128);
        assert!(u.read_access.latency.seconds() > 0.0);
        assert!(u.read_access.dynamic_energy.joules() > 0.0);
        assert!(u.write_access.latency.seconds() > u.read_access.latency.seconds());
    }

    #[test]
    fn compute_dominates_read_energy() {
        // §II.C: computation uses all cells, READ one cell.
        let u = evaluate_unit(&config(), 128, 128);
        assert!(u.mvm.dynamic_energy.joules() > 10.0 * u.read_access.dynamic_energy.joules());
    }

    #[test]
    fn breakdown_total_matches_mvm_area() {
        let u = evaluate_unit(&config(), 128, 128);
        assert!(
            (u.breakdown.total().square_meters() - u.mvm.area.square_meters()).abs()
                < 1e-18
        );
    }

    #[test]
    fn bit_serial_eliminates_dac_area_but_multiplies_latency() {
        let mut c = config();
        c.input_encoding = crate::config::InputEncoding::AnalogDac;
        let dac_based = evaluate_unit(&c, 128, 128);
        c.input_encoding = crate::config::InputEncoding::BitSerial;
        let serial = evaluate_unit(&c, 128, 128);
        // The DACs (per-row converters) disappear from the area...
        assert!(
            serial.breakdown.converters.square_meters()
                < dac_based.breakdown.converters.square_meters()
        );
        // ...at the cost of ≈ input_bits× the compute latency.
        let ratio = serial.mvm.latency.seconds() / dac_based.mvm.latency.seconds();
        assert!(
            ratio > 0.5 * c.precision.input_bits as f64,
            "latency ratio {ratio}"
        );
    }

    #[test]
    fn bit_serial_costs_more_adc_energy() {
        // Every input bit pays a full conversion sweep.
        let mut c = config();
        c.input_encoding = crate::config::InputEncoding::BitSerial;
        let serial = evaluate_unit(&c, 128, 128);
        c.input_encoding = crate::config::InputEncoding::AnalogDac;
        let dac_based = evaluate_unit(&c, 128, 128);
        assert!(serial.mvm.dynamic_energy.joules() > dac_based.mvm.dynamic_energy.joules());
    }
}
