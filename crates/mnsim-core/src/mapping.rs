//! Weight-matrix partitioning onto crossbars (paper §III.B-1, Eq. 5).
//!
//! A weight matrix larger than one crossbar is split into a grid of
//! sub-matrices; each sub-matrix (together with its peripheral circuits)
//! becomes one *computation unit*, and the partial results of the units in
//! a column of the grid are merged by the bank's adder tree.

use crate::config::Config;

/// The partition of one `rows × cols` weight matrix onto crossbars of a
/// given size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// Weight-matrix rows (= inputs of the matrix-vector multiplication).
    pub matrix_rows: usize,
    /// Weight-matrix columns (= outputs).
    pub matrix_cols: usize,
    /// Crossbar rows/columns.
    pub crossbar_size: usize,
    /// Physical columns one logical output occupies (2 for shared-crossbar
    /// signed mapping).
    pub columns_per_output: usize,
}

impl Partition {
    /// Builds the partition for one bank of `config`.
    pub fn new(config: &Config, matrix_rows: usize, matrix_cols: usize) -> Self {
        Partition {
            matrix_rows,
            matrix_cols,
            crossbar_size: config.crossbar_size,
            columns_per_output: config.columns_per_output(),
        }
    }

    /// Logical outputs that fit in one crossbar.
    pub(crate) fn outputs_per_crossbar(&self) -> usize {
        (self.crossbar_size / self.columns_per_output).max(1)
    }

    /// Sub-matrix grid rows: `ceil(matrix_rows / crossbar_size)`.
    pub fn row_blocks(&self) -> usize {
        self.matrix_rows.div_ceil(self.crossbar_size)
    }

    /// Sub-matrix grid columns: `ceil(matrix_cols / outputs_per_crossbar)`.
    pub fn col_blocks(&self) -> usize {
        self.matrix_cols.div_ceil(self.outputs_per_crossbar())
    }

    /// Total computation units in the bank (grid cells).
    pub fn unit_count(&self) -> usize {
        self.row_blocks() * self.col_blocks()
    }

    /// Inputs actually used in grid row `block` (the last block may be
    /// ragged).
    ///
    /// # Panics
    ///
    /// Panics if `block >= row_blocks()`.
    pub fn rows_in_block(&self, block: usize) -> usize {
        assert!(block < self.row_blocks(), "row block out of range");
        if block + 1 == self.row_blocks() {
            self.matrix_rows - block * self.crossbar_size
        } else {
            self.crossbar_size
        }
    }

    /// Logical outputs produced by grid column `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block >= col_blocks()`.
    pub fn cols_in_block(&self, block: usize) -> usize {
        assert!(block < self.col_blocks(), "col block out of range");
        let per = self.outputs_per_crossbar();
        if block + 1 == self.col_blocks() {
            self.matrix_cols - block * per
        } else {
            per
        }
    }

    /// Inputs used by the widest (first) row block — what the worst-case
    /// unit model uses.
    pub(crate) fn max_rows_used(&self) -> usize {
        self.matrix_rows.min(self.crossbar_size)
    }

    /// Logical outputs of the widest (first) column block.
    pub(crate) fn max_cols_used(&self) -> usize {
        self.matrix_cols.min(self.outputs_per_crossbar())
    }

    /// Crossbar utilization: used cells / available cells over all units.
    pub fn utilization(&self) -> f64 {
        let used = (self.matrix_rows * self.matrix_cols * self.columns_per_output) as f64;
        let available =
            (self.unit_count() * self.crossbar_size * self.crossbar_size) as f64;
        used / available
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Config, SignedMapping};

    fn base_config() -> Config {
        Config::fully_connected_mlp(&[2048, 1024]).unwrap()
    }

    #[test]
    fn exact_fit() {
        let p = Partition::new(&base_config(), 2048, 1024); // size 128
        assert_eq!(p.row_blocks(), 16);
        assert_eq!(p.col_blocks(), 8);
        assert_eq!(p.unit_count(), 128);
        assert_eq!(p.rows_in_block(15), 128);
        assert_eq!(p.cols_in_block(7), 128);
        assert!((p.utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ragged_edges() {
        let p = Partition::new(&base_config(), 200, 130);
        assert_eq!(p.row_blocks(), 2);
        assert_eq!(p.col_blocks(), 2);
        assert_eq!(p.rows_in_block(0), 128);
        assert_eq!(p.rows_in_block(1), 72);
        assert_eq!(p.cols_in_block(0), 128);
        assert_eq!(p.cols_in_block(1), 2);
        assert!(p.utilization() < 0.5);
    }

    #[test]
    fn shared_crossbar_halves_outputs() {
        let mut config = base_config();
        config.signed_mapping = SignedMapping::SharedCrossbar;
        let p = Partition::new(&config, 128, 128);
        assert_eq!(p.outputs_per_crossbar(), 64);
        assert_eq!(p.col_blocks(), 2);
        assert_eq!(p.unit_count(), 2);
    }

    #[test]
    fn small_matrix_single_unit() {
        let p = Partition::new(&base_config(), 64, 16);
        assert_eq!(p.unit_count(), 1);
        assert_eq!(p.max_rows_used(), 64);
        assert_eq!(p.max_cols_used(), 16);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn block_bounds_checked() {
        let p = Partition::new(&base_config(), 128, 128);
        let _ = p.rows_in_block(1);
    }

    #[test]
    fn sum_of_blocks_covers_matrix() {
        let p = Partition::new(&base_config(), 300, 201);
        let rows: usize = (0..p.row_blocks()).map(|b| p.rows_in_block(b)).sum();
        let cols: usize = (0..p.col_blocks()).map(|b| p.cols_in_block(b)).sum();
        assert_eq!(rows, 300);
        assert_eq!(cols, 201);
    }
}
