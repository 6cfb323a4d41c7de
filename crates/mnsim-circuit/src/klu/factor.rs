//! Sparse LU numeric factorization (Gilbert–Peierls, left-looking).
//!
//! Each diagonal BTF block is factorized independently with per-column
//! symbolic reach (a DFS over the partial L's column graph, giving the
//! update order topologically) followed by a numeric sparse triangular
//! solve. Pivoting is partial with **diagonal preference**: the diagonal
//! candidate is kept whenever it is within [`PIVOT_TOL`] of the column
//! maximum. On the symmetric diagonally-dominant reduced nodal systems the
//! crossbar stamps produce, the diagonal always wins, which is what makes
//! [`Numeric::refactor`] (pivot-order replay) bit-identical to a fresh
//! factorization — the property `tests/klu.rs` pins.
//!
//! The factor pass records a *replay program* per column: the A-scatter
//! list, the U-update list in topological order, and the L row list. A
//! refactorization executes exactly that program — the same operations in
//! the same order on new values — and accepts each replayed pivot only if
//! fresh partial pivoting would pick the same one. A successful refactor
//! is therefore bit-identical to a fresh factorization of the same values;
//! a column where the choice would differ reports [`RefactorFail`] and
//! lets the caller fall back to a full factorization with fresh pivoting.

use crate::sparse::CscMatrix;

/// Relative threshold for preferring the diagonal candidate as pivot.
pub(crate) const PIVOT_TOL: f64 = 1e-3;

const UNPIVOTED: usize = usize::MAX;

/// Why a numeric refactorization could not reuse the cached pivot order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum RefactorFail {
    /// A pivot became exactly zero (or its whole column vanished).
    Singular {
        /// Global permuted column index of the failing pivot.
        column: usize,
    },
    /// Fresh partial pivoting would pick a different pivot for the new
    /// values (or could tie-break differently), so the replay would not
    /// match a fresh factorization.
    PivotGrowth {
        /// Global permuted column index of the failing pivot.
        column: usize,
        /// `|pivot| / column_max` observed at failure.
        ratio: f64,
    },
}

/// One factorized diagonal block, with its replay program.
#[derive(Debug, Clone)]
struct BlockFactor {
    /// Global offset of the block in the permuted index space.
    start: usize,
    /// Block dimension.
    size: usize,
    /// A-scatter program per local column: `(local row, index into A values)`.
    a_ptr: Vec<usize>,
    a_rows: Vec<usize>,
    a_src: Vec<usize>,
    /// U-update program per local column, in topological (replay) order.
    /// `u_cols[t]` is the pivot position k of the entry; `u_vals[t] = U(k, j)`.
    u_ptr: Vec<usize>,
    u_cols: Vec<usize>,
    u_vals: Vec<f64>,
    /// Diagonal of U per pivot position.
    u_diag: Vec<f64>,
    /// L multipliers per local column: rows are *original* block-local row
    /// ids (unit diagonal implicit, pivot row excluded).
    l_ptr: Vec<usize>,
    l_rows: Vec<usize>,
    l_vals: Vec<f64>,
    /// `pivot_row[k]` = original block-local row chosen as pivot k.
    pivot_row: Vec<usize>,
    /// Inverse of `pivot_row`.
    pinv: Vec<usize>,
}

/// The numeric LU factorization of a BTF-permuted matrix.
#[derive(Debug, Clone)]
pub(crate) struct Numeric {
    n: usize,
    blocks: Vec<BlockFactor>,
    /// Off-diagonal (above-block) entries per global permuted column:
    /// `(global permuted row, index into A values, value)`.
    off_ptr: Vec<usize>,
    off_rows: Vec<usize>,
    off_src: Vec<usize>,
    off_vals: Vec<f64>,
}

/// Factorizes `a` under the given BTF+AMD permutations. `row_perm` /
/// `col_perm` map permuted→original; `block_ptr` bounds the diagonal
/// blocks. Returns `Err(global permuted column)` on numeric singularity.
pub(crate) fn factorize(
    a: &CscMatrix,
    row_perm: &[usize],
    col_perm: &[usize],
    block_ptr: &[usize],
) -> Result<Numeric, usize> {
    let n = a.cols();
    debug_assert_eq!(row_perm.len(), n);
    debug_assert_eq!(col_perm.len(), n);

    let mut inv_row = vec![0usize; n];
    for (new, &old) in row_perm.iter().enumerate() {
        inv_row[old] = new;
    }
    let mut block_start = vec![0usize; n];
    for w in block_ptr.windows(2) {
        block_start[w[0]..w[1]].fill(w[0]);
    }

    // Split A's entries into per-block scatter programs + off-block list.
    let mut blocks: Vec<BlockFactor> = block_ptr
        .windows(2)
        .map(|w| BlockFactor::empty(w[0], w[1] - w[0]))
        .collect();
    let mut off_ptr = Vec::with_capacity(n + 1);
    let mut off_rows = Vec::new();
    let mut off_src = Vec::new();
    off_ptr.push(0);

    let col_ptr = a.col_ptr();
    let row_idx = a.row_idx();
    let mut block_of_col = vec![0usize; n];
    for (bi, w) in block_ptr.windows(2).enumerate() {
        block_of_col[w[0]..w[1]].fill(bi);
    }
    for new_j in 0..n {
        let old_j = col_perm[new_j];
        let bi = block_of_col[new_j];
        let s = blocks[bi].start;
        let e = s + blocks[bi].size;
        for k in col_ptr[old_j]..col_ptr[old_j + 1] {
            let new_i = inv_row[row_idx[k]];
            if new_i >= s && new_i < e {
                blocks[bi].a_rows.push(new_i - s);
                blocks[bi].a_src.push(k);
            } else {
                debug_assert!(new_i < s, "BTF form has no entries below the diagonal blocks");
                off_rows.push(new_i);
                off_src.push(k);
            }
        }
        let filled = blocks[bi].a_rows.len();
        blocks[bi].a_ptr.push(filled);
        off_ptr.push(off_rows.len());
    }
    let off_vals: Vec<f64> = off_src.iter().map(|&k| a.values()[k]).collect();

    // Factorize each block.
    for block in &mut blocks {
        block.factor(a.values()).map_err(|local| block.start + local)?;
    }

    Ok(Numeric { n, blocks, off_ptr, off_rows, off_src, off_vals })
}

impl BlockFactor {
    fn empty(start: usize, size: usize) -> Self {
        BlockFactor {
            start,
            size,
            a_ptr: vec![0],
            a_rows: Vec::new(),
            a_src: Vec::new(),
            u_ptr: vec![0],
            u_cols: Vec::new(),
            u_vals: Vec::new(),
            u_diag: Vec::new(),
            l_ptr: vec![0],
            l_rows: Vec::new(),
            l_vals: Vec::new(),
            pivot_row: Vec::new(),
            pinv: Vec::new(),
        }
    }

    /// Gilbert–Peierls left-looking factorization of one block, recording
    /// the replay program as it goes. `Err(local column)` on singularity.
    fn factor(&mut self, avals: &[f64]) -> Result<(), usize> {
        let m = self.size;
        self.pinv = vec![UNPIVOTED; m];
        self.pivot_row = Vec::with_capacity(m);
        self.u_diag = Vec::with_capacity(m);

        let mut x = vec![0.0f64; m];
        let mut marked = vec![usize::MAX; m];
        let mut reach: Vec<usize> = Vec::with_capacity(m);
        let mut dfs: Vec<(usize, usize)> = Vec::new();
        let mut cands: Vec<usize> = Vec::new();

        for j in 0..m {
            // Scatter A(:, j) into the dense work vector.
            for k in self.a_ptr[j]..self.a_ptr[j + 1] {
                x[self.a_rows[k]] = avals[self.a_src[k]];
            }

            // Symbolic reach: DFS from A(:, j)'s rows through L's columns;
            // reverse postorder is the topological update order.
            reach.clear();
            for k in self.a_ptr[j]..self.a_ptr[j + 1] {
                let r = self.a_rows[k];
                if marked[r] == j {
                    continue;
                }
                marked[r] = j;
                dfs.push((r, 0));
                while let Some(&mut (node, ref mut child)) = dfs.last_mut() {
                    let piv = self.pinv[node];
                    let done = if piv == UNPIVOTED {
                        true
                    } else {
                        let lo = self.l_ptr[piv];
                        let hi = self.l_ptr[piv + 1];
                        let mut advanced = false;
                        while lo + *child < hi {
                            let nxt = self.l_rows[lo + *child];
                            *child += 1;
                            if marked[nxt] != j {
                                marked[nxt] = j;
                                dfs.push((nxt, 0));
                                advanced = true;
                                break;
                            }
                        }
                        !advanced
                    };
                    if done {
                        dfs.pop();
                        reach.push(node);
                    }
                }
            }

            // Numeric pass in topological order, recording the program.
            cands.clear();
            for &r in reach.iter().rev() {
                let k = self.pinv[r];
                if k == UNPIVOTED {
                    cands.push(r);
                    continue;
                }
                let xr = x[r];
                self.u_cols.push(k);
                self.u_vals.push(xr);
                for q in self.l_ptr[k]..self.l_ptr[k + 1] {
                    x[self.l_rows[q]] -= self.l_vals[q] * xr;
                }
            }
            self.u_ptr.push(self.u_cols.len());

            // Pivot: column max with diagonal preference.
            let mut colmax = 0.0f64;
            for &r in &cands {
                let v = x[r].abs();
                if v > colmax {
                    colmax = v;
                }
            }
            if cands.is_empty() || colmax == 0.0 || !colmax.is_finite() {
                return Err(j);
            }
            let mut pivot = usize::MAX;
            if marked[j] == j && self.pinv[j] == UNPIVOTED && x[j].abs() >= PIVOT_TOL * colmax {
                pivot = j;
            } else {
                for &r in &cands {
                    if x[r].abs() == colmax {
                        pivot = r;
                        break;
                    }
                }
            }
            let piv_val = x[pivot];
            self.pinv[pivot] = j;
            self.pivot_row.push(pivot);
            self.u_diag.push(piv_val);
            for &r in &cands {
                if r != pivot {
                    self.l_rows.push(r);
                    self.l_vals.push(x[r] / piv_val);
                }
            }
            self.l_ptr.push(self.l_rows.len());

            // Clear the work vector along the reach.
            for &r in &reach {
                x[r] = 0.0;
            }
        }
        Ok(())
    }

    /// Replays the recorded program with new values. Exactly the same
    /// operations in the same order as [`BlockFactor::factor`].
    fn refactor(&mut self, avals: &[f64]) -> Result<(), RefactorFail> {
        let m = self.size;
        let mut x = vec![0.0f64; m];
        for j in 0..m {
            for k in self.a_ptr[j]..self.a_ptr[j + 1] {
                x[self.a_rows[k]] = avals[self.a_src[k]];
            }
            for t in self.u_ptr[j]..self.u_ptr[j + 1] {
                let k = self.u_cols[t];
                let xr = x[self.pivot_row[k]];
                self.u_vals[t] = xr;
                for q in self.l_ptr[k]..self.l_ptr[k + 1] {
                    x[self.l_rows[q]] -= self.l_vals[q] * xr;
                }
            }
            let pr = self.pivot_row[j];
            let piv_val = x[pr];
            let mut colmax = piv_val.abs();
            for q in self.l_ptr[j]..self.l_ptr[j + 1] {
                let v = x[self.l_rows[q]].abs();
                if v > colmax {
                    colmax = v;
                }
            }
            if colmax == 0.0 || !colmax.is_finite() || piv_val == 0.0 {
                return Err(RefactorFail::Singular { column: self.start + j });
            }
            if !self.fresh_pivot_agrees(j, &x, colmax) {
                return Err(RefactorFail::PivotGrowth {
                    column: self.start + j,
                    ratio: piv_val.abs() / colmax,
                });
            }
            self.u_diag[j] = piv_val;
            for q in self.l_ptr[j]..self.l_ptr[j + 1] {
                self.l_vals[q] = x[self.l_rows[q]] / piv_val;
            }
            // Clear: U pivot rows + the pivot itself + L rows cover every
            // touched entry (the column's full L+U pattern).
            for t in self.u_ptr[j]..self.u_ptr[j + 1] {
                x[self.pivot_row[self.u_cols[t]]] = 0.0;
            }
            x[pr] = 0.0;
            for q in self.l_ptr[j]..self.l_ptr[j + 1] {
                x[self.l_rows[q]] = 0.0;
            }
        }
        Ok(())
    }

    /// Whether [`BlockFactor::factor`]'s pivot rule, run on the work vector
    /// `x` of local column `j`, would choose the recorded pivot. The
    /// candidates are the pivot row plus column `j`'s L rows — the same set
    /// the fresh pass sees, because every earlier pivot matched. The
    /// diagonal wins whenever it is within [`PIVOT_TOL`] of `colmax`;
    /// otherwise the fresh pass takes the first maximal candidate in reach
    /// order, which the program does not record, so an off-diagonal pivot
    /// is accepted only as the unique column maximum.
    fn fresh_pivot_agrees(&self, j: usize, x: &[f64], colmax: f64) -> bool {
        let diagonal_qualifies = x[j].abs() >= PIVOT_TOL * colmax;
        let l_rows = &self.l_rows[self.l_ptr[j]..self.l_ptr[j + 1]];
        if self.pivot_row[j] == j {
            return diagonal_qualifies;
        }
        let diagonal_is_candidate = l_rows.contains(&j);
        !(diagonal_is_candidate && diagonal_qualifies)
            && x[self.pivot_row[j]].abs() == colmax
            && l_rows.iter().all(|&r| x[r].abs() < colmax)
    }

    /// Solves the block system `B y = w` in place: `w` enters holding the
    /// local right-hand side (original block-local row order) and leaves
    /// holding the solution in local *column* order via `y`.
    fn solve_local(&self, w: &mut [f64], y: &mut [f64]) {
        let m = self.size;
        debug_assert_eq!(w.len(), m);
        // Forward (L) solve in pivot order, unit diagonal.
        for k in 0..m {
            let t = w[self.pivot_row[k]];
            if t != 0.0 {
                for q in self.l_ptr[k]..self.l_ptr[k + 1] {
                    w[self.l_rows[q]] -= self.l_vals[q] * t;
                }
            }
        }
        // Gather into pivot coordinates, then backward (U) solve.
        for k in 0..m {
            y[k] = w[self.pivot_row[k]];
        }
        for j in (0..m).rev() {
            let yj = y[j] / self.u_diag[j];
            y[j] = yj;
            if yj != 0.0 {
                for t in self.u_ptr[j]..self.u_ptr[j + 1] {
                    y[self.u_cols[t]] -= self.u_vals[t] * yj;
                }
            }
        }
    }
}

impl Numeric {
    /// Refreshes the factorization for a matrix with the *same pattern* but
    /// new values, replaying the cached pivot order and elimination
    /// program. The caller is responsible for pattern compatibility.
    pub(crate) fn refactor(&mut self, a: &CscMatrix) -> Result<(), RefactorFail> {
        debug_assert_eq!(a.cols(), self.n);
        for (t, &k) in self.off_src.iter().enumerate() {
            self.off_vals[t] = a.values()[k];
        }
        for block in &mut self.blocks {
            block.refactor(a.values())?;
        }
        Ok(())
    }

    /// Solves `A x = b` (original coordinates) via block back-substitution
    /// from the last BTF block to the first.
    pub(crate) fn solve(&self, b: &[f64], row_perm: &[usize], col_perm: &[usize]) -> Vec<f64> {
        let n = self.n;
        debug_assert_eq!(b.len(), n);
        let mut pb: Vec<f64> = row_perm.iter().map(|&old| b[old]).collect();
        let mut z = vec![0.0f64; n];
        let mut y_buf = vec![0.0f64; self.blocks.iter().map(|bl| bl.size).max().unwrap_or(0)];
        for block in self.blocks.iter().rev() {
            let s = block.start;
            let e = s + block.size;
            block.solve_local(&mut pb[s..e], &mut y_buf[..block.size]);
            z[s..e].copy_from_slice(&y_buf[..block.size]);
            // Push this block's solution into the rows of earlier blocks.
            for (j, &zj) in z.iter().enumerate().take(e).skip(s) {
                if zj != 0.0 {
                    for t in self.off_ptr[j]..self.off_ptr[j + 1] {
                        pb[self.off_rows[t]] -= self.off_vals[t] * zj;
                    }
                }
            }
        }
        let mut x = vec![0.0f64; n];
        for (new_j, &old_j) in col_perm.iter().enumerate() {
            x[old_j] = z[new_j];
        }
        x
    }

    /// Total stored nonzeros in L + U (including unit diagonals) plus
    /// off-block entries — the fill metric exported as a gauge.
    pub(crate) fn lu_nnz(&self) -> usize {
        self.blocks
            .iter()
            .map(|bl| bl.l_rows.len() + bl.u_cols.len() + 2 * bl.size)
            .sum::<usize>()
            + self.off_rows.len()
    }

    /// Reconstructs the dense matrix represented by the factorization —
    /// test-only support for the L·U ≈ A structural invariant.
    #[cfg(test)]
    pub(crate) fn reconstruct_dense(&self, row_perm: &[usize], col_perm: &[usize]) -> Vec<Vec<f64>> {
        let n = self.n;
        let mut out = vec![vec![0.0f64; n]; n];
        // Column e_j of A equals A x with x = e_j; recover it by solving is
        // circular — instead rebuild per block: B = P_blk^T L U in local
        // coords, then scatter with the global permutations.
        for block in &self.blocks {
            let m = block.size;
            // Dense L (original-local-row × pivot) and U (pivot × local col).
            let mut l = vec![vec![0.0f64; m]; m];
            let mut u = vec![vec![0.0f64; m]; m];
            for k in 0..m {
                l[block.pivot_row[k]][k] = 1.0;
                for q in block.l_ptr[k]..block.l_ptr[k + 1] {
                    l[block.l_rows[q]][k] = block.l_vals[q];
                }
            }
            for j in 0..m {
                u[j][j] = block.u_diag[j];
                for t in block.u_ptr[j]..block.u_ptr[j + 1] {
                    u[block.u_cols[t]][j] = block.u_vals[t];
                }
            }
            for i in 0..m {
                for j in 0..m {
                    let mut acc = 0.0;
                    for k in 0..m {
                        acc += l[i][k] * u[k][j];
                    }
                    if acc != 0.0 {
                        out[row_perm[block.start + i]][col_perm[block.start + j]] += acc;
                    }
                }
            }
        }
        for j in 0..self.n {
            for t in self.off_ptr[j]..self.off_ptr[j + 1] {
                out[row_perm[self.off_rows[t]]][col_perm[j]] += self.off_vals[t];
            }
        }
        out
    }
}
