//! Level-2: the computation bank (paper §III.B, Fig. 1(c)).
//!
//! A bank processes one neuromorphic layer: a grid of computation units
//! (the partitioned weight matrix), an adder tree merging the row-block
//! partial sums, the pooling module + pooling line buffer (CNN), the
//! non-linear neuron modules, and the output buffer.

use mnsim_nn::descriptor::BankDescriptor;
use mnsim_obs::{trace, Level, Span};
use mnsim_tech::units::{Area, Power};

use crate::arch::unit::{evaluate_unit, UnitModelResult};
use crate::config::{Config, NetworkType};
use crate::mapping::Partition;
use crate::modules::digital::{adder_tree, register_bank};
use crate::modules::neuron::reference_neuron;
use crate::modules::pooling::{line_buffer, line_buffer_length, pooling_module};
use crate::perf::ModulePerf;

static BANK_SPAN: Span = Span::new("bank", Level::Bank);

/// The evaluated performance of one computation bank.
#[derive(Debug, Clone, PartialEq)]
pub struct BankModelResult {
    /// How the weight matrix is spread over crossbars.
    pub partition: Partition,
    /// The (worst-case, full-block) unit evaluation.
    pub unit: UnitModelResult,
    /// Units in the bank.
    pub unit_count: usize,
    /// Matrix-vector multiplications per input sample.
    pub ops_per_sample: usize,
    /// One pipeline cycle: one MVM through units → adder tree → pooling →
    /// neuron → buffer. Its `area`/`leakage` cover the whole bank.
    pub cycle: ModulePerf,
    /// A full sample through this bank (`ops_per_sample` cycles plus
    /// per-sample neuron costs).
    pub sample: ModulePerf,
}

impl BankModelResult {
    /// Bank area (alias of `cycle.area`).
    pub fn area(&self) -> Area {
        self.cycle.area
    }

    /// Bank leakage (alias of `cycle.leakage`).
    pub fn leakage(&self) -> Power {
        self.cycle.leakage
    }
}

/// Evaluates one computation bank.
///
/// `next_kernel` is the `(i+1)`-th layer's convolution kernel size, used to
/// size the output line buffer per the paper's Eq. (6); `None` falls back
/// to a plain output register bank (fully-connected next layer or final
/// output).
pub(crate) fn evaluate_bank(
    config: &Config,
    bank: &BankDescriptor,
    next_kernel: Option<usize>,
) -> BankModelResult {
    let _span = BANK_SPAN.enter();
    let cmos = config.cmos.params();
    let bits = config.precision.output_bits;

    let matrix_rows = bank.matrix_rows();
    let matrix_cols = bank.matrix_cols();
    let partition = Partition::new(config, matrix_rows, matrix_cols);
    let unit_count = partition.unit_count();
    let unit = evaluate_unit(config, partition.max_rows_used(), partition.max_cols_used());
    let ops_per_sample = bank.ops_per_sample();

    // Concurrent outputs per cycle: every column block delivers
    // `parallelism` converted outputs at a time.
    let concurrent_outputs = (unit.parallelism * partition.col_blocks()).max(1);

    // Adder tree per concurrent output, merging the row blocks (Eq. 5).
    let tree = adder_tree(&cmos, partition.row_blocks(), bits);
    let trees = tree.replicate_parallel(concurrent_outputs);

    // Pooling (CNN banks with a pooling stage).
    let (pool_window, conv_out_w, out_channels) = match bank {
        BankDescriptor::Conv { shape, pooling } => {
            let (_, ow) = shape.output_hw();
            (pooling.unwrap_or(0), ow, shape.out_channels)
        }
        BankDescriptor::FullyConnected { .. } => (0, 0, 0),
    };
    let has_pooling = config.network_type == NetworkType::Cnn && pool_window >= 2;
    let (pool, pool_buffers) = if has_pooling {
        let module = pooling_module(&cmos, pool_window, bits).replicate_parallel(concurrent_outputs);
        let len = line_buffer_length(conv_out_w, pool_window, pool_window);
        let buffers = line_buffer(&cmos, len, bits).replicate_parallel(out_channels);
        (module, buffers)
    } else {
        (ModulePerf::ZERO, ModulePerf::ZERO)
    };

    // Neuron modules: one per output neuron for fully-connected banks
    // (each output register is wired to a neuron, §III.B-5); time-shared
    // across pixels for convolution banks.
    let neuron = reference_neuron(&cmos, config.network_type, bits);
    let neuron_count = match bank {
        BankDescriptor::FullyConnected { outputs, .. } => *outputs,
        BankDescriptor::Conv { .. } => concurrent_outputs,
    };
    let neurons = neuron.replicate_parallel(neuron_count);

    // Output buffer: C_out registers for fully-connected layers; line
    // buffers sized by the next layer's kernel (Eq. 6) for Conv layers.
    let out_buffer = match bank {
        BankDescriptor::FullyConnected { outputs, .. } => register_bank(&cmos, *outputs, bits),
        BankDescriptor::Conv { shape, pooling } => {
            let (_, mut ow) = shape.output_hw();
            if let Some(p) = pooling {
                ow /= p.max(&1);
            }
            let k = next_kernel.unwrap_or(3);
            let len = line_buffer_length(ow, k, k);
            line_buffer(&cmos, len, bits).replicate_parallel(shape.out_channels)
        }
    };

    // ---- one pipeline cycle -------------------------------------------------
    let cycle_area = unit.mvm.area * unit_count as f64
        + trees.area
        + pool.area
        + pool_buffers.area
        + neurons.area
        + out_buffer.area;
    let cycle_leakage = unit.mvm.leakage * unit_count as f64
        + trees.leakage
        + pool.leakage
        + pool_buffers.leakage
        + neurons.leakage
        + out_buffer.leakage;
    let pool_cycle_latency = if has_pooling {
        pool.latency / concurrent_outputs as f64
    } else {
        mnsim_tech::units::Time::ZERO
    };
    let cycle_latency = unit.mvm.latency
        + tree.latency
        + pool_cycle_latency
        + neuron.latency
        + out_buffer.latency;
    // Energy of one cycle: all units fire, the trees merge, buffers shift.
    let pool_cycle_energy = if has_pooling {
        // The pooling module produces one result per window² inputs.
        pool.dynamic_energy / (pool_window * pool_window) as f64 + pool_buffers.dynamic_energy
    } else {
        mnsim_tech::units::Energy::ZERO
    };
    let neuron_cycle_energy = match bank {
        // FC: all output neurons fire once in the single cycle.
        BankDescriptor::FullyConnected { .. } => neurons.dynamic_energy,
        // Conv: the shared neurons fire every cycle.
        BankDescriptor::Conv { .. } => neuron.dynamic_energy * concurrent_outputs as f64,
    };
    let cycle_energy = unit.mvm.dynamic_energy * unit_count as f64
        + trees.dynamic_energy
        + pool_cycle_energy
        + neuron_cycle_energy
        + out_buffer.dynamic_energy;

    // Trace attribution: the bank-level latency terms on top of the unit
    // MVM (which attributes its own modules), so that the per-module time
    // sums telescope exactly to the cycle latency.
    if trace::enabled() {
        trace::module_perf(
            "adder_tree",
            tree.latency.seconds(),
            trees.dynamic_energy.joules(),
        );
        if has_pooling {
            trace::module_perf(
                "pooling",
                pool_cycle_latency.seconds(),
                pool_cycle_energy.joules(),
            );
        }
        trace::module_perf(
            "neuron",
            neuron.latency.seconds(),
            neuron_cycle_energy.joules(),
        );
        trace::module_perf(
            "out_buffer",
            out_buffer.latency.seconds(),
            out_buffer.dynamic_energy.joules(),
        );
    }

    let cycle = ModulePerf {
        area: cycle_area,
        latency: cycle_latency,
        dynamic_energy: cycle_energy,
        leakage: cycle_leakage,
    };

    // ---- a full sample --------------------------------------------------------
    let sample = ModulePerf {
        area: cycle_area,
        latency: cycle.latency * ops_per_sample as f64,
        dynamic_energy: cycle.dynamic_energy * ops_per_sample as f64,
        leakage: cycle_leakage,
    };

    BankModelResult {
        partition,
        unit,
        unit_count,
        ops_per_sample,
        cycle,
        sample,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnsim_nn::descriptor::{BankDescriptor, ConvShape};

    fn fc_config() -> Config {
        Config::fully_connected_mlp(&[2048, 1024]).unwrap()
    }

    fn fc_bank() -> BankDescriptor {
        BankDescriptor::FullyConnected {
            inputs: 2048,
            outputs: 1024,
        }
    }

    #[test]
    fn fc_bank_counts() {
        let b = evaluate_bank(&fc_config(), &fc_bank(), None);
        assert_eq!(b.unit_count, 16 * 8);
        assert_eq!(b.ops_per_sample, 1);
        assert_eq!(b.sample.latency, b.cycle.latency);
    }

    #[test]
    fn bank_area_exceeds_units_area() {
        let b = evaluate_bank(&fc_config(), &fc_bank(), None);
        let units_only = b.unit.mvm.area.square_meters() * b.unit_count as f64;
        assert!(b.area().square_meters() > units_only);
    }

    #[test]
    fn larger_crossbars_reduce_fc_bank_area() {
        // The paper's Table V trend: bigger crossbars → fewer peripheral
        // circuits → less area.
        let mut small = fc_config();
        small.crossbar_size = 64;
        let mut large = fc_config();
        large.crossbar_size = 256;
        let a_small = evaluate_bank(&small, &fc_bank(), None).area();
        let a_large = evaluate_bank(&large, &fc_bank(), None).area();
        assert!(
            a_large.square_meters() < a_small.square_meters(),
            "{} !< {}",
            a_large.square_millimeters(),
            a_small.square_millimeters()
        );
    }

    #[test]
    fn lower_parallelism_cuts_area_raises_latency() {
        // The paper's Fig. 7 trade-off.
        let mut c = fc_config();
        c.parallelism = 0;
        let full = evaluate_bank(&c, &fc_bank(), None);
        c.parallelism = 1;
        let serial = evaluate_bank(&c, &fc_bank(), None);
        assert!(serial.area().square_meters() < full.area().square_meters());
        assert!(serial.cycle.latency.seconds() > full.cycle.latency.seconds());
    }

    #[test]
    fn conv_bank_has_many_ops_per_sample() {
        let mut c = Config::vgg16_cnn();
        c.crossbar_size = 128;
        let bank = BankDescriptor::Conv {
            shape: ConvShape {
                in_channels: 64,
                out_channels: 64,
                kernel: 3,
                stride: 1,
                padding: 1,
                input_h: 56,
                input_w: 56,
            },
            pooling: Some(2),
        };
        let b = evaluate_bank(&c, &bank, Some(3));
        assert_eq!(b.ops_per_sample, 56 * 56);
        assert!(b.sample.latency.seconds() > 1000.0 * b.cycle.latency.seconds());
        // Pooling hardware exists.
        let no_pool_bank = BankDescriptor::Conv {
            shape: ConvShape {
                in_channels: 64,
                out_channels: 64,
                kernel: 3,
                stride: 1,
                padding: 1,
                input_h: 56,
                input_w: 56,
            },
            pooling: None,
        };
        let np = evaluate_bank(&c, &no_pool_bank, Some(3));
        assert!(b.area().square_meters() > np.area().square_meters());
    }

    #[test]
    fn next_kernel_sizes_output_buffer() {
        let mut c = Config::vgg16_cnn();
        c.crossbar_size = 128;
        let bank = BankDescriptor::Conv {
            shape: ConvShape {
                in_channels: 3,
                out_channels: 64,
                kernel: 3,
                stride: 1,
                padding: 1,
                input_h: 224,
                input_w: 224,
            },
            pooling: None,
        };
        let small = evaluate_bank(&c, &bank, Some(3));
        let big = evaluate_bank(&c, &bank, Some(7));
        assert!(big.area().square_meters() > small.area().square_meters());
    }

    #[test]
    fn single_unit_bank_has_no_adder_tree_latency() {
        let mut c = Config::fully_connected_mlp(&[64, 16, 64]).unwrap();
        c.crossbar_size = 64;
        let bank = BankDescriptor::FullyConnected {
            inputs: 64,
            outputs: 16,
        };
        let b = evaluate_bank(&c, &bank, None);
        assert_eq!(b.unit_count, 1);
        // Cycle latency = unit + neuron + buffer only (no tree stage).
        let overhead = b.cycle.latency.seconds() - b.unit.mvm.latency.seconds();
        assert!(overhead > 0.0);
    }
}
