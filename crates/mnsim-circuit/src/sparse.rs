//! Compressed-sparse-column matrices.
//!
//! The conductance matrices of crossbar resistor networks are extremely
//! sparse (≈5 non-zeros per row regardless of size), so the circuit solver
//! assembles them in triplet (COO) form and converts once to a
//! [`CscMatrix`] for the column-oriented sparse LDLᵀ factorization in
//! [`crate::ldl`].

use std::fmt;

/// A sparse matrix builder collecting `(row, col, value)` triplets.
///
/// Duplicate coordinates are *summed* on conversion, which is exactly the
/// semantics needed for stamping circuit elements into a nodal matrix.
#[derive(Debug, Clone, Default)]
pub struct TripletMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl TripletMatrix {
    /// Creates an empty `rows × cols` builder.
    pub fn new(rows: usize, cols: usize) -> Self {
        TripletMatrix {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Adds `value` at `(row, col)`; repeated coordinates accumulate.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.rows && col < self.cols,
            "triplet ({row},{col}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        if value != 0.0 {
            self.entries.push((row, col, value));
        }
    }

    /// Empties the builder and resizes it to `rows × cols`, keeping its
    /// storage for the next assembly.
    pub(crate) fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.entries.clear();
    }

    /// The collected `(row, col, value)` triplets in insertion order
    /// (exact zeros are never stored).
    pub(crate) fn entries(&self) -> &[(usize, usize, f64)] {
        &self.entries
    }

    /// Converts to CSC, summing duplicate coordinates.
    ///
    /// Entries within each column are sorted by row, and duplicates are
    /// summed in insertion order, so the conversion is fully
    /// deterministic.
    pub fn to_csc(&self) -> CscMatrix {
        self.to_csc_with_slots().0
    }

    /// [`Self::to_csc`] plus the value slot of every triplet: triplet `k`
    /// is summed into `values()[slots[k]]`. Scattering new values of the
    /// same triplet coordinates through `slots`, in insertion order,
    /// reproduces the conversion's sums exactly without sorting again.
    pub(crate) fn to_csc_with_slots(&self) -> (CscMatrix, Vec<usize>) {
        let mut bucket_ptr = vec![0usize; self.cols + 1];
        for &(_, c, _) in &self.entries {
            bucket_ptr[c + 1] += 1;
        }
        for c in 0..self.cols {
            bucket_ptr[c + 1] += bucket_ptr[c];
        }
        // Triplet ids bucketed by column, then sorted by row per column.
        let mut next = bucket_ptr.clone();
        let mut order = vec![0usize; self.entries.len()];
        for (k, &(_, c, _)) in self.entries.iter().enumerate() {
            order[next[c]] = k;
            next[c] += 1;
        }

        let mut col_ptr = Vec::with_capacity(self.cols + 1);
        col_ptr.push(0);
        let mut row_idx = Vec::with_capacity(self.entries.len());
        let mut slots = vec![0usize; self.entries.len()];
        for w in bucket_ptr.windows(2) {
            let bucket = &mut order[w[0]..w[1]];
            bucket.sort_unstable_by_key(|&k| self.entries[k].0);
            let column_start = row_idx.len();
            for &k in bucket.iter() {
                let r = self.entries[k].0;
                if row_idx.len() == column_start || row_idx.last() != Some(&r) {
                    row_idx.push(r);
                }
                slots[k] = row_idx.len() - 1;
            }
            col_ptr.push(row_idx.len());
        }

        let mut values = vec![0.0; row_idx.len()];
        for (&(_, _, v), &slot) in self.entries.iter().zip(&slots) {
            values[slot] += v;
        }
        let csc = CscMatrix {
            rows: self.rows,
            cols: self.cols,
            col_ptr,
            row_idx,
            values,
        };
        (csc, slots)
    }
}

/// An immutable compressed-sparse-column matrix.
///
/// `col_ptr[j]..col_ptr[j+1]` indexes the stored entries of column `j`, whose row indices (`row_idx`, sorted
/// ascending within each column) and values run in parallel. This is the
/// natural layout for the sparse LDLᵀ in [`crate::ldl`], which
/// reads one column at a time.
#[derive(Clone, PartialEq)]
pub struct CscMatrix {
    rows: usize,
    cols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Column start offsets (`cols + 1` entries).
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Row index of every stored entry, column-major, sorted within columns.
    pub fn row_idx(&self) -> &[usize] {
        &self.row_idx
    }

    /// The stored values, column-major.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Takes the stored values, column-major.
    pub(crate) fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// Converts to a dense row-major matrix (testing / small systems).
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut dense = vec![vec![0.0; self.cols]; self.rows];
        for (c, w) in self.col_ptr.windows(2).enumerate() {
            for k in w[0]..w[1] {
                dense[self.row_idx[k]][c] = self.values[k];
            }
        }
        dense
    }

    /// Dense `y = A·x` product (allocating; test helper).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "x length mismatch");
        let mut y = vec![0.0; self.rows];
        for (&xc, w) in x.iter().zip(self.col_ptr.windows(2)) {
            for k in w[0]..w[1] {
                y[self.row_idx[k]] += self.values[k] * xc;
            }
        }
        y
    }
}

impl fmt::Debug for CscMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CscMatrix {{ {}x{}, nnz: {} }}",
            self.rows,
            self.cols,
            self.nnz()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CscMatrix {
        // [2 -1  0]
        // [-1 2 -1]
        // [0 -1  2]
        let mut t = TripletMatrix::new(3, 3);
        t.add(0, 0, 2.0);
        t.add(0, 1, -1.0);
        t.add(1, 0, -1.0);
        t.add(1, 1, 2.0);
        t.add(1, 2, -1.0);
        t.add(2, 1, -1.0);
        t.add(2, 2, 2.0);
        t.to_csc()
    }

    #[test]
    fn basic_assembly_and_get() {
        let m = small();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.nnz(), 7);
        let dense = m.to_dense();
        assert_eq!(dense[0][0], 2.0);
        assert_eq!(dense[0][2], 0.0);
        assert_eq!(dense[2][1], -1.0);
    }

    #[test]
    fn duplicates_accumulate() {
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 0, 1.0);
        t.add(0, 0, 2.5);
        t.add(1, 1, 1.0);
        t.add(0, 1, -1.0);
        t.add(0, 1, -1.0);
        let m = t.to_csc();
        assert_eq!(m.to_dense()[0][..2], [3.5, -2.0]);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn zero_values_are_dropped() {
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 0, 0.0);
        t.add(1, 1, 5.0);
        assert_eq!(t.entries.len(), 1);
        let m = t.to_csc();
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn csc_slots_sum_duplicates_in_insertion_order() {
        let mut t = TripletMatrix::new(3, 3);
        t.add(2, 1, 1.0);
        t.add(0, 0, 1e16);
        t.add(1, 1, 4.0);
        t.add(0, 0, 1.0);
        t.add(0, 0, -1e16);
        t.add(2, 1, 2.0);
        let (csc, slots) = t.to_csc_with_slots();
        assert_eq!(csc.col_ptr(), &[0, 1, 3, 3]);
        assert_eq!(csc.row_idx(), &[0, 1, 2]);
        assert_eq!(slots, vec![2, 0, 1, 0, 0, 2]);
        // (1e16 + 1) − 1e16 in insertion order rounds the 1 away.
        assert_eq!(csc.values(), &[0.0, 4.0, 3.0]);
        assert_eq!(t.to_csc(), csc);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let mut t = TripletMatrix::new(2, 2);
        t.add(2, 0, 1.0);
    }

    #[test]
    fn dense_roundtrip() {
        let m = small();
        let d = m.to_dense();
        assert_eq!(d[1], vec![-1.0, 2.0, -1.0]);
        assert_eq!(d[0][2], 0.0);
    }

    #[test]
    fn empty_rows_are_handled() {
        let mut t = TripletMatrix::new(4, 4);
        t.add(0, 0, 1.0);
        t.add(3, 3, 1.0);
        let m = t.to_csc();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.col_ptr(), &[0, 1, 1, 1, 2]);
        let d = m.to_dense();
        assert_eq!(d[0], vec![1.0, 0.0, 0.0, 0.0]);
        assert!(d[1].iter().chain(&d[2]).all(|&v| v == 0.0));
        assert_eq!(d[3], vec![0.0, 0.0, 0.0, 1.0]);
    }
}
