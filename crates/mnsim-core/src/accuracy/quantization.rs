//! Read-deviation model: from analog voltage error to digital levels
//! (paper §VI.C, Eqs. 12–14).
//!
//! The read circuits quantize the analog matrix-vector result into `k`
//! levels with boundaries at `{0.5, 1.5, …, k−1.5} × V_interval`. A
//! relative voltage deviation `ε` moves a value across boundaries; the
//! model gives the worst-case and average digital deviations.

/// Maximum digital deviation in levels (paper Eq. 12):
/// `⌊(k − 1.5)·ε + 0.5⌋`, clamped to `k − 1` (a read value can never be
/// more than full scale away from the ideal).
///
/// The paper's example: `k = 64`, `ε = 10 %` → 6 levels (63 read as 57).
///
/// # Panics
///
/// Panics if `k < 2` or `ε` is negative.
pub fn max_digital_deviation(k: u32, epsilon: f64) -> u32 {
    assert!(k >= 2, "need at least two quantization levels");
    assert!(epsilon >= 0.0, "error rate must be non-negative");
    capped_level((f64::from(k) - 1.5) * epsilon + 0.5, f64::from(k - 1))
}

/// `⌊min(x, cap)⌋` for `x ≥ 0`, by truncation: a NaN `x` (`0 · ∞` at
/// `ε = ∞`) fails the comparison and reads as `cap`, as `f64::min`
/// would give.
fn capped_level(x: f64, cap: f64) -> u32 {
    (if x < cap { x } else { cap }) as u32
}

/// Maximum read error rate (paper Eq. 13):
/// `MaxDigitalDeviation / (k − 1)`.
///
/// # Panics
///
/// Same conditions as [`max_digital_deviation`].
pub fn max_error_rate(k: u32, epsilon: f64) -> f64 {
    f64::from(max_digital_deviation(k, epsilon)) / f64::from(k - 1)
}

/// Average digital deviation in levels (paper Eq. 14):
/// `(Σ_{i=0}^{k−1} ⌊i·ε + 0.5⌋) / k`, each term clamped to `k − 1`.
///
/// The terms are integers, summed exactly in a `u64` and divided by `k`
/// once: for `k ≤ 2²⁶` (a configuration allows at most 2¹⁶ levels) the
/// sum converts to `f64` exactly, and the result is the correctly
/// rounded mean.
///
/// # Panics
///
/// Same conditions as [`max_digital_deviation`].
pub fn avg_digital_deviation(k: u32, epsilon: f64) -> f64 {
    assert!(k >= 2, "need at least two quantization levels");
    assert!(epsilon >= 0.0, "error rate must be non-negative");
    let cap = f64::from(k - 1);
    let sum: u64 = (0..k)
        .map(|i| u64::from(capped_level(f64::from(i) * epsilon + 0.5, cap)))
        .sum();
    sum as f64 / f64::from(k)
}

/// Average read error rate: `AvgDigitalDeviation / (k − 1)`.
///
/// # Panics
///
/// Same conditions as [`max_digital_deviation`].
pub fn avg_error_rate(k: u32, epsilon: f64) -> f64 {
    avg_digital_deviation(k, epsilon) / f64::from(k - 1)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Eq. 12 with a `floor` per evaluation, as first written: the
    /// reference the truncating form must match.
    pub(crate) fn max_digital_deviation_reference(k: u32, epsilon: f64) -> u32 {
        let raw = ((k as f64 - 1.5) * epsilon + 0.5).floor();
        (raw.min(f64::from(k - 1))) as u32
    }

    /// Eq. 14 as a floating sum of `floor` terms, as first written: the
    /// oracle of the integer sum.
    pub(crate) fn avg_digital_deviation_reference(k: u32, epsilon: f64) -> f64 {
        let cap = f64::from(k - 1);
        let sum: f64 = (0..k)
            .map(|i| (f64::from(i) * epsilon + 0.5).floor().min(cap))
            .sum();
        sum / f64::from(k)
    }

    /// The `k` values of the oracle tests: 2 up to the 2¹⁶ a
    /// configuration allows.
    const ORACLE_LEVELS: [u32; 8] = [2, 3, 4, 16, 64, 256, 1024, 65536];

    /// ε values for `k` levels: a uniform sweep of [0, 2], the level
    /// boundaries `(2j − 1)/(2i)` at which Eq. 14's term `i` reaches level
    /// `j` and `(2j − 1)/(2k − 3)` at which Eq. 12 does (rounded to f64),
    /// each with both f64 neighbours, for a spread of terms and levels,
    /// and the extremes.
    fn epsilon_grid(k: u32) -> Vec<f64> {
        let mut grid = vec![0.0, 5e-324, 1e-300, 1.0, 1e300, f64::INFINITY];
        let steps = (1 << 19) / k;
        grid.extend((0..=steps).map(|n| 2.0 * f64::from(n) / f64::from(steps)));
        // Terms `i` and levels `j` both range over 1..=k − 1.
        let top = k - 1;
        let mut spread: Vec<u32> = [1, 2, 3, 7, 64, top / 2 + 1, top - 1, top]
            .into_iter()
            .filter(|x| (1..=top).contains(x))
            .collect();
        spread.sort_unstable();
        spread.dedup();
        for &j in &spread {
            for denominator in spread.iter().map(|i| 2 * i).chain([2 * k - 3]) {
                let boundary = f64::from(2 * j - 1) / f64::from(denominator);
                grid.extend([boundary.next_down(), boundary, boundary.next_up()]);
            }
        }
        grid
    }

    #[test]
    fn integer_sum_is_bit_identical_to_the_floor_sum() {
        for k in ORACLE_LEVELS {
            for epsilon in epsilon_grid(k) {
                assert_eq!(
                    avg_digital_deviation(k, epsilon).to_bits(),
                    avg_digital_deviation_reference(k, epsilon).to_bits(),
                    "Eq. 14 at k = {k}, ε = {epsilon:e}"
                );
                assert_eq!(
                    max_digital_deviation(k, epsilon),
                    max_digital_deviation_reference(k, epsilon),
                    "Eq. 12 at k = {k}, ε = {epsilon:e}"
                );
            }
        }
    }

    #[test]
    fn paper_worked_example() {
        // "when k equals 64 and ε equals 10%, the MaxDigitalDeviation
        //  equals 6, which means the maximum value 63 can be wrongly read
        //  as 57" — paper §VI.C.
        assert_eq!(max_digital_deviation(64, 0.10), 6);
        assert!((max_error_rate(64, 0.10) - 6.0 / 63.0).abs() < 1e-12);
    }

    #[test]
    fn zero_epsilon_rounds_to_half_level() {
        // ⌊0 + 0.5⌋ = 0: a perfect signal never crosses a boundary.
        assert_eq!(max_digital_deviation(64, 0.0), 0);
        assert_eq!(max_error_rate(64, 0.0), 0.0);
        assert!((avg_digital_deviation(64, 0.0) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn deviation_monotone_in_epsilon() {
        let mut prev = 0;
        for step in 0..40 {
            let eps = step as f64 * 0.01;
            let d = max_digital_deviation(64, eps);
            assert!(d >= prev);
            prev = d;
        }
    }

    #[test]
    fn average_below_max() {
        for eps in [0.01, 0.05, 0.1, 0.2] {
            for k in [16u32, 64, 256] {
                assert!(
                    avg_digital_deviation(k, eps) <= f64::from(max_digital_deviation(k, eps)),
                    "k={k}, ε={eps}"
                );
                assert!(avg_error_rate(k, eps) <= max_error_rate(k, eps) + 1e-12);
            }
        }
    }

    #[test]
    fn avg_deviation_closed_form_sanity() {
        // For ε = 1 every level deviates by ⌊i + 0.5⌋ = i, so the mean is
        // (k−1)/2.
        let k = 64;
        assert!((avg_digital_deviation(k, 1.0) - 31.5).abs() < 1e-12);
    }

    #[test]
    fn more_levels_mean_more_absolute_deviation() {
        // Fixed ε, growing k: the absolute level deviation grows...
        assert!(max_digital_deviation(256, 0.05) > max_digital_deviation(16, 0.05));
        // ...but the *relative* error rate stays ≈ ε.
        let e = max_error_rate(256, 0.05);
        assert!((e - 0.05).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn k_must_be_at_least_two() {
        let _ = max_digital_deviation(1, 0.1);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn epsilon_must_be_non_negative() {
        let _ = max_digital_deviation(64, -0.1);
    }
}
