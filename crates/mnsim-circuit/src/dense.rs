//! Dense LU factorization with partial pivoting.
//!
//! No solve path uses it: every DC system goes to the sparse LDLᵀ of
//! [`crate::ldl`]. It is the tests' independent reference: the `ldl` unit
//! tests, the full modified-nodal-analysis oracle of the `solve` tests, and
//! the dense nodal reference of the integration tests.

use crate::error::CircuitError;

/// A dense row-major matrix with an in-place LU solver.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates an `n × n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        DenseMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Creates a matrix from nested rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows are not all of length `rows.len()`.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let n = rows.len();
        let mut m = DenseMatrix::zeros(n);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), n, "row {i} has wrong length");
            for (j, &v) in row.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Solves `A·x = b` by LU with partial pivoting, consuming the matrix.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::SingularSystem`] when a pivot collapses below
    /// `1e-13` of the largest element, and
    /// [`CircuitError::DimensionMismatch`] when `b` has the wrong length.
    pub fn solve(mut self, b: &[f64]) -> Result<Vec<f64>, CircuitError> {
        let n = self.n;
        if b.len() != n {
            return Err(CircuitError::DimensionMismatch {
                expected: n,
                actual: b.len(),
                what: "right-hand side length",
            });
        }
        let mut perm: Vec<usize> = (0..n).collect();
        let scale = self
            .data
            .iter()
            .fold(0.0f64, |acc, v| acc.max(v.abs()))
            .max(1e-300);

        for k in 0..n {
            // Partial pivot: largest |a[i][k]| for i >= k.
            let mut pivot_row = k;
            let mut pivot_val = self[(perm[k], k)].abs();
            for i in (k + 1)..n {
                let v = self[(perm[i], k)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val < 1e-13 * scale {
                return Err(CircuitError::SingularSystem { at: k });
            }
            perm.swap(k, pivot_row);

            let pk = perm[k];
            let diag = self[(pk, k)];
            for &pi in &perm[(k + 1)..n] {
                let factor = self[(pi, k)] / diag;
                if factor == 0.0 {
                    continue;
                }
                self[(pi, k)] = factor; // store L
                for j in (k + 1)..n {
                    let v = self[(pk, j)];
                    self[(pi, j)] -= factor * v;
                }
            }
        }

        // Forward substitution (apply L, permuted).
        let mut y = vec![0.0; n];
        for i in 0..n {
            let pi = perm[i];
            let mut acc = b[pi];
            for (j, &yj) in y.iter().enumerate().take(i) {
                acc -= self[(pi, j)] * yj;
            }
            y[i] = acc;
        }

        // Back substitution (apply U); the unknowns keep their order.
        let mut x = b.to_vec();
        for i in (0..n).rev() {
            let pi = perm[i];
            let mut acc = y[i];
            for (j, &xj) in x.iter().enumerate().skip(i + 1) {
                acc -= self[(pi, j)] * xj;
            }
            x[i] = acc / self[(pi, i)];
        }
        Ok(x)
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.n + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.n + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve() {
        let mut m = DenseMatrix::zeros(3);
        for i in 0..3 {
            m[(i, i)] = 1.0;
        }
        let x = m.solve(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn known_system() {
        // 2x + y = 5 ; x + 3y = 10  → x = 1, y = 3
        let m = DenseMatrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let x = m.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // Without pivoting this system fails immediately (a00 = 0).
        let m = DenseMatrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = m.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_detected() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(matches!(
            m.solve(&[1.0, 2.0]),
            Err(CircuitError::SingularSystem { .. })
        ));
    }

    #[test]
    fn dimension_mismatch_detected() {
        let m = DenseMatrix::zeros(2);
        assert!(matches!(
            m.solve(&[1.0]),
            Err(CircuitError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn random_spd_roundtrip() {
        // A = B·Bᵀ + n·I is SPD; verify A·x recovered from solve matches.
        let n = 8;
        let mut b = DenseMatrix::zeros(n);
        let mut seed = 42u64;
        let mut rnd = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for i in 0..n {
            for j in 0..n {
                b[(i, j)] = rnd();
            }
        }
        let mut a = DenseMatrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += b[(i, k)] * b[(j, k)];
                }
                a[(i, j)] = acc + if i == j { n as f64 } else { 0.0 };
            }
        }
        let x_true: Vec<f64> = (0..n).map(|i| i as f64 - 3.0).collect();
        let mut rhs = vec![0.0; n];
        for i in 0..n {
            for j in 0..n {
                rhs[i] += a[(i, j)] * x_true[j];
            }
        }
        let x = a.solve(&rhs).unwrap();
        for i in 0..n {
            assert!((x[i] - x_true[i]).abs() < 1e-9, "component {i}");
        }
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn from_rows_checks_shape() {
        let _ = DenseMatrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }
}
