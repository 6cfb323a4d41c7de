//! Property-based tests over the core data structures and invariants
//! (deliverable (c)): the linear solvers, the accuracy model, quantizers,
//! partitioning, units and the propagation chain.

use mnsim::circuit::dense::DenseMatrix;
use mnsim::circuit::sparse::TripletMatrix;
use mnsim::circuit::SparseLdl;
use mnsim::core::accuracy::{
    avg_digital_deviation, max_digital_deviation, propagate, AccuracyModel, Case,
};
use mnsim::core::config::Config;
use mnsim::core::mapping::Partition;
use mnsim::nn::quantize::Quantizer;
use mnsim::tech::interconnect::InterconnectNode;
use mnsim::tech::memristor::{IvModel, MemristorModel};
use mnsim::tech::units::{Resistance, Voltage};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sparse LDLᵀ and dense LU agree on random SPD systems.
    #[test]
    fn ldl_matches_dense_lu(seed in 0u64..1000, n in 2usize..24) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        // A = B·Bᵀ + n·I is SPD.
        let b: Vec<Vec<f64>> = (0..n).map(|_| (0..n).map(|_| rnd()).collect()).collect();
        let mut dense = vec![vec![0.0; n]; n];
        let mut triplets = TripletMatrix::new(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for (bik, bjk) in b[i].iter().zip(&b[j]) {
                    acc += bik * bjk;
                }
                if i == j {
                    acc += n as f64;
                }
                dense[i][j] = acc;
                triplets.add(i, j, acc);
            }
        }
        let rhs: Vec<f64> = (0..n).map(|_| rnd()).collect();
        let lu = DenseMatrix::from_rows(&dense).solve(&rhs).unwrap();
        let ldl = SparseLdl::factor(&triplets.to_csc()).unwrap().solve(&rhs);
        for i in 0..n {
            prop_assert!((lu[i] - ldl[i]).abs() < 1e-6, "component {}: {} vs {}", i, lu[i], ldl[i]);
        }
    }

    /// The accuracy model always produces a rate in [0, 1); with *linear*
    /// cells (no sinh cancellation) the worst case bounds the average
    /// case. (With strong non-linearity the signed wire and conduction
    /// errors can cancel in the all-R_min worst case, so the magnitude
    /// ordering is only guaranteed for ohmic cells.)
    #[test]
    fn accuracy_model_bounds(
        rows_pow in 2u32..9,
        cols_pow in 2u32..9,
        rs in 1.0f64..200.0,
        node_idx in 0usize..7,
    ) {
        let rows = 1usize << rows_pow;
        let cols = 1usize << cols_pow;
        let node = InterconnectNode::ALL[node_idx];
        let mut device = MemristorModel::rram_default();
        let model = AccuracyModel::paper_linear(Resistance::from_ohms(rs));
        let worst = model.error_rate(rows, cols, node, &device, Case::Worst);
        let avg = model.error_rate(rows, cols, node, &device, Case::Average);
        prop_assert!((0.0..1.0).contains(&worst));
        prop_assert!((0.0..1.0).contains(&avg));

        device.iv = IvModel::Linear;
        let worst_lin = model.error_rate(rows, cols, node, &device, Case::Worst);
        let avg_lin = model.error_rate(rows, cols, node, &device, Case::Average);
        prop_assert!(worst_lin + 1e-12 >= avg_lin,
            "linear cells: worst {} < avg {}", worst_lin, avg_lin);
    }

    /// Digital deviations are monotone in ε and clamped to k−1. The
    /// paper's Eq. 14 average can exceed its Eq. 12 maximum by at most one
    /// level (the avg sums ⌊i·ε+0.5⌋ up to i = k−1 while the max uses the
    /// (k−1.5)·ε boundary argument), so the true invariant is
    /// `avg ≤ max + 1`.
    #[test]
    fn deviation_monotone_and_clamped(k_pow in 1u32..10, eps in 0.0f64..4.0) {
        let k = 1u32 << k_pow;
        let d = max_digital_deviation(k, eps);
        prop_assert!(d < k);
        let d_more = max_digital_deviation(k, eps + 0.1);
        prop_assert!(d_more >= d);
        let avg = avg_digital_deviation(k, eps);
        prop_assert!(avg <= f64::from(d) + 1.0 + 1e-12);
    }

    /// Error propagation is monotone: adding a layer never reduces the
    /// output error.
    #[test]
    fn propagation_monotone(eps in proptest::collection::vec(0.0f64..0.3, 1..8)) {
        let layers = propagate(&eps, 256);
        let mut prev = 0.0;
        for layer in &layers {
            prop_assert!(layer.max_error_rate + 1e-12 >= prev);
            prev = layer.max_error_rate;
        }
    }

    /// Quantization error is bounded by half a step, and quantization is
    /// idempotent.
    #[test]
    fn quantizer_invariants(bits in 1u32..12, value in -2.0f64..3.0) {
        let q = Quantizer::unsigned_unit(bits).unwrap();
        let quantized = q.quantize(value);
        let clamped = value.clamp(0.0, 1.0);
        prop_assert!((quantized - clamped).abs() <= q.step() / 2.0 + 1e-12);
        prop_assert_eq!(q.quantize(quantized), quantized);
        prop_assert!(q.level_of(quantized) < q.levels());
    }

    /// Matrix partitioning covers the matrix exactly.
    #[test]
    fn partition_covers_matrix(rows in 1usize..5000, cols in 1usize..5000, size_pow in 2u32..11) {
        let mut config = Config::fully_connected_mlp(&[64, 64]).unwrap();
        config.crossbar_size = 1 << size_pow;
        let p = Partition::new(&config, rows, cols);
        let total_rows: usize = (0..p.row_blocks()).map(|b| p.rows_in_block(b)).sum();
        let total_cols: usize = (0..p.col_blocks()).map(|b| p.cols_in_block(b)).sum();
        prop_assert_eq!(total_rows, rows);
        prop_assert_eq!(total_cols, cols);
        prop_assert!(p.utilization() > 0.0 && p.utilization() <= 1.0 + 1e-12);
    }

    /// The sinh I-V model conserves the low-field limit and is odd in V.
    #[test]
    fn sinh_iv_properties(alpha in 0.1f64..5.0, r_kohm in 0.5f64..500.0, v in 0.01f64..1.0) {
        let iv = IvModel::Sinh { alpha };
        let state = Resistance::from_kilo_ohms(r_kohm);
        let pos = iv.current(state, Voltage::from_volts(v)).amperes();
        let neg = iv.current(state, Voltage::from_volts(-v)).amperes();
        prop_assert!((pos + neg).abs() < 1e-12 * pos.abs().max(1e-30), "odd symmetry");
        // chord resistance never exceeds the programmed state
        let chord = iv.chord_resistance(state, Voltage::from_volts(v)).ohms();
        prop_assert!(chord <= state.ohms() + 1e-9);
        prop_assert!(chord > 0.0);
    }

    /// Memristor level mapping is monotone in conductance and inverse to
    /// level_for_weight on exact grid points.
    #[test]
    fn memristor_level_roundtrip(level_frac in 0.0f64..1.0) {
        let device = MemristorModel::rram_default();
        let level = (level_frac * (device.levels() - 1) as f64).round() as u32;
        let weight = level as f64 / (device.levels() - 1) as f64;
        prop_assert_eq!(device.level_for_weight(weight), level);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random crossbar circuits satisfy conservation of power: delivered
    /// source power equals dissipated resistive power.
    #[test]
    fn power_conservation(size in 2usize..10, state_kohm in 1.0f64..100.0) {
        use mnsim::circuit::crossbar::CrossbarSpec;
        use mnsim::circuit::solve::solve_dc;
        let spec = CrossbarSpec::uniform(
            size,
            size,
            Resistance::from_kilo_ohms(state_kohm),
            Resistance::from_ohms(2.0),
            Resistance::from_ohms(50.0),
            Voltage::from_volts(0.5),
        );
        let built = spec.build().unwrap();
        let solution = solve_dc(built.circuit()).unwrap();
        let source = solution.source_power(built.circuit()).watts();
        let dissipated = solution.dissipated_power(built.circuit()).watts();
        prop_assert!((source - dissipated).abs() < 1e-9 * source.abs().max(1e-12),
            "source {} vs dissipated {}", source, dissipated);
    }
}
