//! Fixed-point quantization.
//!
//! MNSIM defines computing error *relative to the fixed-point algorithm*
//! (paper §VI): data quantization error is excluded, analog-computation
//! error is what the accuracy model estimates. This module supplies the
//! fixed-point reference: uniform quantizers for signals (unsigned k-bit
//! levels, matching the read circuits' `k` quantization boundaries) and
//! weights (signed fixed-point).

use crate::error::NnError;
use crate::tensor::Tensor;

/// A uniform quantizer over a closed range.
#[derive(Debug, Clone, PartialEq)]
pub struct Quantizer {
    bits: u32,
    min: f64,
    max: f64,
}

impl Quantizer {
    /// Creates a quantizer with `bits` of precision over `[min, max]`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidQuantizer`] if `bits == 0`, `bits > 16`, or
    /// the range is empty/invalid.
    pub fn new(bits: u32, min: f64, max: f64) -> Result<Self, NnError> {
        if bits == 0 || bits > 16 {
            return Err(NnError::InvalidQuantizer {
                reason: format!("bits must be in 1..=16, got {bits}"),
            });
        }
        if !min.is_finite() || !max.is_finite() || max <= min {
            return Err(NnError::InvalidQuantizer {
                reason: format!("range [{min}, {max}] is empty or not finite"),
            });
        }
        Ok(Quantizer { bits, min, max })
    }

    /// Unsigned signal quantizer over `[0, 1]` — the read-circuit model of
    /// the paper (k = 2^bits levels).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Quantizer::new`].
    pub fn unsigned_unit(bits: u32) -> Result<Self, NnError> {
        Quantizer::new(bits, 0.0, 1.0)
    }

    /// Number of representable levels, `k = 2^bits`.
    pub fn levels(&self) -> u32 {
        1 << self.bits
    }

    /// The quantization step (interval between neighbouring levels).
    pub fn step(&self) -> f64 {
        (self.max - self.min) / (self.levels() - 1) as f64
    }

    /// Quantizes one value to its level index (`0 ..= levels-1`), clamping
    /// out-of-range inputs.
    pub fn level_of(&self, value: f64) -> u32 {
        let clamped = value.clamp(self.min, self.max);
        ((clamped - self.min) / self.step()).round() as u32
    }

    /// The representative value of a level index.
    ///
    /// # Panics
    ///
    /// Panics if `level >= self.levels()`.
    pub(crate) fn value_of(&self, level: u32) -> f64 {
        assert!(level < self.levels(), "level {level} out of range");
        self.min + level as f64 * self.step()
    }

    /// Quantizes one value to its nearest representable value.
    pub fn quantize(&self, value: f64) -> f64 {
        self.value_of(self.level_of(value))
    }

    /// Quantizes every element of a tensor.
    pub fn quantize_tensor(&self, tensor: &Tensor) -> Tensor {
        tensor.map(|v| self.quantize(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_validation() {
        assert!(Quantizer::new(0, 0.0, 1.0).is_err());
        assert!(Quantizer::new(17, 0.0, 1.0).is_err());
        assert!(Quantizer::new(8, 1.0, 1.0).is_err());
        assert!(Quantizer::new(8, 2.0, 1.0).is_err());
        assert!(Quantizer::new(8, f64::NAN, 1.0).is_err());
        assert!(Quantizer::new(8, 0.0, 1.0).is_ok());
    }

    #[test]
    fn level_count_and_step() {
        let q = Quantizer::unsigned_unit(3).unwrap();
        assert_eq!(q.levels(), 8);
        assert!((q.step() - 1.0 / 7.0).abs() < 1e-15);
    }

    #[test]
    fn roundtrip_is_idempotent() {
        let q = Quantizer::new(4, -1.0, 1.0).unwrap();
        for i in 0..q.levels() {
            let v = q.value_of(i);
            assert_eq!(q.level_of(v), i);
            assert_eq!(q.quantize(v), v);
        }
    }

    #[test]
    fn quantization_error_bounded() {
        let q = Quantizer::unsigned_unit(6).unwrap();
        let bound = q.step() / 2.0 + 1e-15;
        for k in 0..1000 {
            let v = k as f64 / 999.0;
            assert!((q.quantize(v) - v).abs() <= bound, "value {v}");
        }
    }

    #[test]
    fn clamping_out_of_range() {
        let q = Quantizer::unsigned_unit(4).unwrap();
        assert_eq!(q.level_of(-1.0), 0);
        assert_eq!(q.level_of(2.0), q.levels() - 1);
        assert_eq!(q.quantize(5.0), 1.0);
    }

    #[test]
    fn signed_quantizer_covers_negatives() {
        let q = Quantizer::new(4, -1.0, 1.0).unwrap();
        assert_eq!(q.value_of(0), -1.0);
        assert!((q.quantize(0.0)).abs() < q.step());
        assert_eq!(q.quantize(1.0), 1.0);
        assert_eq!(q.quantize(-1.0), -1.0);
    }

    #[test]
    fn tensor_quantization() {
        let q = Quantizer::unsigned_unit(1).unwrap();
        let t = Tensor::vector(&[0.1, 0.6, 0.4999]);
        let out = q.quantize_tensor(&t);
        assert_eq!(out.data(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn value_of_bounds_checked() {
        let q = Quantizer::unsigned_unit(2).unwrap();
        let _ = q.value_of(4);
    }
}
