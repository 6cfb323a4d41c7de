//! Minimal dense tensor for the network substrate.
//!
//! MNSIM's application substrate only needs small dense tensors: 1-D
//! activation vectors, 2-D weight matrices and 3-D `(channels, height,
//! width)` feature maps. Data is `f64`; fixed-point behaviour is applied
//! explicitly through [`crate::quantize::Quantizer`], mirroring how the
//! paper separates quantization error from analog-computation error (§VI).

use crate::error::NnError;

/// A dense row-major tensor of `f64` values.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f64>,
}

impl Tensor {
    /// Creates a zero-filled tensor of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or has a zero dimension.
    pub fn zeros(shape: &[usize]) -> Self {
        assert!(
            !shape.is_empty() && shape.iter().all(|&d| d > 0),
            "tensor shape must be non-empty with positive dimensions, got {shape:?}"
        );
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; shape.iter().product()],
        }
    }

    /// Creates a tensor from raw data.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `data.len()` does not match the
    /// shape volume.
    pub fn from_vec(shape: &[usize], data: Vec<f64>) -> Result<Self, NnError> {
        let volume: usize = shape.iter().product();
        if data.len() != volume {
            return Err(NnError::ShapeMismatch {
                expected: shape.to_vec(),
                actual: vec![data.len()],
                operation: "from_vec",
            });
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data,
        })
    }

    /// Creates a 1-D tensor from a slice.
    pub fn vector(data: &[f64]) -> Self {
        Tensor {
            shape: vec![data.len()],
            data: data.to_vec(),
        }
    }

    /// The tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub(crate) fn len(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the underlying data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying data.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element access for 2-D tensors.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or the indices are out of range.
    pub fn at2(&self, i: usize, j: usize) -> f64 {
        assert_eq!(self.shape.len(), 2, "at2 requires a 2-D tensor");
        self.data[i * self.shape[1] + j]
    }

    /// Mutable element access for 2-D tensors.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or the indices are out of range.
    pub(crate) fn at2_mut(&mut self, i: usize, j: usize) -> &mut f64 {
        assert_eq!(self.shape.len(), 2, "at2_mut requires a 2-D tensor");
        &mut self.data[i * self.shape[1] + j]
    }

    /// Element access for 3-D `(c, h, w)` tensors.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 3-D or the indices are out of range.
    pub(crate) fn at3(&self, c: usize, y: usize, x: usize) -> f64 {
        assert_eq!(self.shape.len(), 3, "at3 requires a 3-D tensor");
        let (h, w) = (self.shape[1], self.shape[2]);
        assert!(c < self.shape[0] && y < h && x < w, "index out of range");
        self.data[(c * h + y) * w + x]
    }

    /// Mutable element access for 3-D `(c, h, w)` tensors.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 3-D or the indices are out of range.
    pub(crate) fn at3_mut(&mut self, c: usize, y: usize, x: usize) -> &mut f64 {
        assert_eq!(self.shape.len(), 3, "at3_mut requires a 3-D tensor");
        let (h, w) = (self.shape[1], self.shape[2]);
        assert!(c < self.shape[0] && y < h && x < w, "index out of range");
        &mut self.data[(c * h + y) * w + x]
    }

    /// Reinterprets the tensor with a new shape of the same volume.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the volumes differ.
    pub(crate) fn reshape(&self, shape: &[usize]) -> Result<Tensor, NnError> {
        let volume: usize = shape.iter().product();
        if volume != self.data.len() {
            return Err(NnError::ShapeMismatch {
                expected: self.shape.clone(),
                actual: shape.to_vec(),
                operation: "reshape",
            });
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data: self.data.clone(),
        })
    }

    /// Matrix-vector product `W·x` for a 2-D `(m, n)` weight tensor and a
    /// length-`n` vector.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] on incompatible shapes.
    pub(crate) fn matvec(&self, x: &Tensor) -> Result<Tensor, NnError> {
        if self.shape.len() != 2 || x.shape.len() != 1 || self.shape[1] != x.shape[0] {
            return Err(NnError::ShapeMismatch {
                expected: self.shape.clone(),
                actual: x.shape.clone(),
                operation: "matvec",
            });
        }
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0; m];
        for (i, out_i) in out.iter_mut().enumerate() {
            let row = &self.data[i * n..(i + 1) * n];
            *out_i = row.iter().zip(&x.data).map(|(w, v)| w * v).sum();
        }
        Ok(Tensor {
            shape: vec![m],
            data: out,
        })
    }

    /// Elementwise sum.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if shapes differ.
    pub(crate) fn add(&self, other: &Tensor) -> Result<Tensor, NnError> {
        if self.shape != other.shape {
            return Err(NnError::ShapeMismatch {
                expected: self.shape.clone(),
                actual: other.shape.clone(),
                operation: "add",
            });
        }
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a + b)
                .collect(),
        })
    }

    /// Applies a function to every element, returning a new tensor.
    pub(crate) fn map(&self, f: impl Fn(f64) -> f64) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Mean squared difference against another tensor of the same shape.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if shapes differ.
    pub(crate) fn mse(&self, other: &Tensor) -> Result<f64, NnError> {
        if self.shape != other.shape {
            return Err(NnError::ShapeMismatch {
                expected: self.shape.clone(),
                actual: other.shape.clone(),
                operation: "mse",
            });
        }
        let sum: f64 = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        Ok(sum / self.data.len() as f64)
    }

    /// Index of the largest element (ties broken toward the lower index).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty (valid tensors never are).
    pub fn argmax(&self) -> usize {
        self.data
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i)
            .expect("tensor is non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.len(), 6);
        assert!(t.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "positive dimensions")]
    fn zero_dimension_panics() {
        let _ = Tensor::zeros(&[2, 0]);
    }

    #[test]
    fn from_vec_validates_volume() {
        assert!(Tensor::from_vec(&[2, 2], vec![1.0; 4]).is_ok());
        assert!(Tensor::from_vec(&[2, 2], vec![1.0; 5]).is_err());
    }

    #[test]
    fn index_2d_and_3d() {
        let mut t = Tensor::zeros(&[2, 3]);
        *t.at2_mut(1, 2) = 7.0;
        assert_eq!(t.at2(1, 2), 7.0);
        assert_eq!(t.data()[5], 7.0);

        let mut f = Tensor::zeros(&[2, 2, 2]);
        *f.at3_mut(1, 0, 1) = 3.0;
        assert_eq!(f.at3(1, 0, 1), 3.0);
        assert_eq!(f.data()[5], 3.0);
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn index_3d_bounds_checked() {
        let f = Tensor::zeros(&[1, 2, 2]);
        let _ = f.at3(0, 2, 0);
    }

    #[test]
    fn matvec_known_answer() {
        let w = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let x = Tensor::vector(&[1.0, 0.0, -1.0]);
        let y = w.matvec(&x).unwrap();
        assert_eq!(y.data(), &[-2.0, -2.0]);
    }

    #[test]
    fn matvec_shape_checked() {
        let w = Tensor::zeros(&[2, 3]);
        let x = Tensor::vector(&[1.0, 2.0]);
        assert!(matches!(w.matvec(&x), Err(NnError::ShapeMismatch { .. })));
    }

    #[test]
    fn add_and_map() {
        let a = Tensor::vector(&[1.0, 2.0]);
        let b = Tensor::vector(&[3.0, 4.0]);
        assert_eq!(a.add(&b).unwrap().data(), &[4.0, 6.0]);
        assert_eq!(a.map(|v| v * 10.0).data(), &[10.0, 20.0]);
        let c = Tensor::zeros(&[3]);
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 3], (0..6).map(|i| i as f64).collect()).unwrap();
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[7]).is_err());
    }

    #[test]
    fn mse_and_argmax() {
        let a = Tensor::vector(&[0.0, 1.0, 0.5]);
        let b = Tensor::vector(&[0.0, 0.0, 0.5]);
        assert!((a.mse(&b).unwrap() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(a.argmax(), 1);
        // ties break toward lower index
        let t = Tensor::vector(&[2.0, 2.0]);
        assert_eq!(t.argmax(), 0);
    }
}
