//! Sparse LDLᵀ direct solver for the reduced nodal system.
//!
//! Every reduced system this crate assembles is symmetric positive
//! definite: each two-terminal element stamps `g·[[1, −1], [−1, 1]]` with
//! `g > 0` (a resistance, a sinh cell's `cosh` slope, a capacitor
//! companion `C/Δt`), and every unknown reaches a driven node or ground
//! through some conductance. So the factorization is `P·A·Pᵀ = L·D·Lᵀ`
//! with no pivoting, following Davis's LDL (ACM TOMS Algorithm 849, 2005):
//!
//! 1. **Order** (`amd`): an approximate-minimum-degree permutation `P` of
//!    the matrix's symmetric pattern.
//! 2. **Symbolic** ([`analyze`]): the elimination tree of `P·A·Pᵀ` and the
//!    column counts of `L`, so the numeric pass writes into storage sized
//!    once per pattern. The counts also pick the numeric kernel: when the
//!    work per entry of `L`, `Σⱼ cⱼ² / nnz(L)`, reaches CHOLMOD's switch
//!    of 40, the analysis postorders the tree into `P` and finds the
//!    fundamental supernodes and their row structure (`supernodal`).
//! 3. **Numeric** ([`SparseLdl`]): below the switch, an up-looking
//!    factorization that computes row `k` of `L` by a sparse triangular
//!    solve over the elimination-tree reach of `A(:, k)`; above it, a
//!    multifrontal factorization with dense frontal kernels per
//!    supernode. Crossbars up to 32×32 stay up-looking, 64×64 and larger
//!    go supernodal.
//!
//! Steps 1–2 run once per sparsity pattern ([`SymbolicAnalysis`]), and a
//! factor holds its analysis behind an [`Arc`], so factors of one pattern
//! can share one: the circuits of one workload that reduce to the same
//! pattern take it from a [`SharedAnalyses`] set, which analyzes each
//! distinct pattern once. A value change — a fault overlay, a Newton step
//! of a non-linear solve — reruns only step 3 ([`SparseLdl::refactor`]).
//! The chord steps of a non-linear solve and the steps of a linear
//! transient rerun none of them: each is one backsolve on the factor
//! already held. Factor and refactor are the same routine on the same
//! analysis, so a refactor is bit-identical to a fresh factorization by
//! construction, and so is a factor over a shared analysis: the analysis
//! is a deterministic function of the pattern. A pivot that is zero,
//! negative or non-finite is a typed [`CircuitError::SingularSystem`], and
//! a refactor on a different pattern is a typed
//! [`CircuitError::PatternMismatch`].
//!
//! The backsolve has one substitution kernel, generic over the number of
//! right-hand sides it carries (`solve_columns`). The reads of a batch
//! solve together: their columns are interleaved by row, and each block of
//! up to eight moves through `L` in one sweep, so the factor is read once
//! per block rather than once per read. Each column gets exactly the
//! operations of a one-column solve, which makes it bit-identical to
//! [`SparseLdl::solve`], the one-column case.
//!
//! Everything here is deterministic: identical inputs give identical
//! factors on every run.

mod amd;
mod supernodal;

use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::error::CircuitError;
use crate::sparse::CscMatrix;
use mnsim_obs as obs;
use supernodal::Supernodes;

// The counters keep the `solver.klu.*` names of the engine this one
// replaced; `mnsim-perf` and the tests read them under those names.
static LDL_ANALYSES: obs::Counter = obs::Counter::new("solver.klu.analyses");
static LDL_FACTORS: obs::Counter = obs::Counter::new("solver.klu.factors");
static LDL_REFACTORS: obs::Counter = obs::Counter::new("solver.klu.refactor");
static LDL_SOLVES: obs::Counter = obs::Counter::new("solver.klu.solves");
static LDL_NNZ: obs::Gauge = obs::Gauge::new("solver.klu.lu_nnz");
/// Numeric factorizations, fresh or refactor, that ran the supernodal
/// kernel.
static LDL_SUPERNODAL: obs::Counter = obs::Counter::new("solver.klu.supernodal");
static ANALYZE_SPAN: obs::Span = obs::Span::new("circuit.ldl.analyze", obs::Level::Stage);
static FACTOR_SPAN: obs::Span = obs::Span::new("circuit.ldl.factor", obs::Level::Stage);
static SOLVE_SPAN: obs::Span = obs::Span::new("circuit.ldl.solve", obs::Level::Stage);

/// Marks an elimination-tree root and an unvisited column.
const NONE: usize = usize::MAX;

/// Right-hand sides one substitution sweep carries: a block's columns
/// travel together through each column of `L`, so the factor streams
/// through the cache once per block instead of once per column.
pub(crate) const BLOCK_COLUMNS: usize = 8;

/// The structure-only half of the factorization: the fill-reducing
/// permutation, the elimination tree and the column layout of `L`,
/// together with the pattern they were computed from and, above the
/// supernodal switch, the supernodes. Computed once per sparsity pattern
/// by [`analyze`] and shared, through an [`Arc`], by every numeric
/// factorization of that pattern, which runs the kernel the analysis
/// picked.
#[derive(Debug, Clone)]
pub struct SymbolicAnalysis {
    /// Fill-reducing permutation, `perm[new] = old`.
    perm: Vec<usize>,
    /// Inverse permutation, `pinv[old] = new`.
    pinv: Vec<usize>,
    /// Elimination-tree parent of each permuted column, [`NONE`] at a root.
    parent: Vec<usize>,
    /// Column pointers of `L` (strictly lower part, permuted order).
    lp: Vec<usize>,
    /// Column pointers of the analyzed matrix.
    col_ptr: Vec<usize>,
    /// Row indices of the analyzed matrix.
    row_idx: Vec<usize>,
    /// The supernodes, when the fill is dense enough for the supernodal
    /// kernel; `None` runs the up-looking kernel.
    supernodes: Option<Supernodes>,
}

impl SymbolicAnalysis {
    /// Matrix dimension the analysis was computed for.
    pub fn n(&self) -> usize {
        self.perm.len()
    }

    /// The fill-reducing permutation, `perm()[new] = old`.
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Elimination-tree parent of permuted column `k`, `None` at a root.
    /// A parent is always a later column.
    pub fn parent(&self, k: usize) -> Option<usize> {
        Some(self.parent[k]).filter(|&p| p != NONE)
    }

    /// Strictly-lower nonzeros of each column of `L`, in permuted order.
    pub fn column_counts(&self) -> Vec<usize> {
        self.lp.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Strictly-lower nonzeros of `L`.
    pub fn l_nnz(&self) -> usize {
        self.lp[self.n()]
    }

    /// Stored entries of the analyzed matrix.
    pub(crate) fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Whether `a` has exactly the sparsity pattern that was analyzed.
    pub fn compatible_with(&self, a: &CscMatrix) -> bool {
        a.rows() == self.n()
            && a.col_ptr() == self.col_ptr.as_slice()
            && a.row_idx() == self.row_idx.as_slice()
    }
}

/// Computes the symbolic analysis of a symmetric matrix: an AMD ordering of
/// its pattern, then the elimination tree and column counts of `L`
/// (Davis's `ldl_symbolic`). Above the supernodal switch the tree is
/// postordered into the permutation — the fill does not change — and the
/// fundamental supernodes are found.
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn analyze(a: &CscMatrix) -> SymbolicAnalysis {
    let n = a.cols();
    assert_eq!(a.rows(), n, "symbolic analysis requires a square matrix");
    let _span = ANALYZE_SPAN.enter();
    let (col_ptr, row_idx) = (a.col_ptr(), a.row_idx());

    let mut perm = amd::min_degree_order(n, col_ptr, row_idx);
    let mut pinv = vec![0usize; n];
    for (new, &old) in perm.iter().enumerate() {
        pinv[old] = new;
    }

    // Column k of L has a nonzero in every row on the tree path from each
    // A(i, k), i < k, up to k; `flag` stops each walk at the first column
    // already visited for this k.
    let mut parent = vec![NONE; n];
    let mut flag = vec![NONE; n];
    let mut counts = vec![0usize; n];
    for k in 0..n {
        flag[k] = k;
        let col = perm[k];
        for &row in &row_idx[col_ptr[col]..col_ptr[col + 1]] {
            let mut i = pinv[row];
            if i >= k {
                continue;
            }
            while flag[i] != k {
                if parent[i] == NONE {
                    parent[i] = k;
                }
                counts[i] += 1;
                flag[i] = k;
                i = parent[i];
            }
        }
    }
    let supernodal = supernodal::worth_it(&counts);
    if supernodal {
        // Postorder the tree: relabel the permutation, the parents and the
        // counts so every supernode's columns are consecutive.
        let post = supernodal::postorder(&parent);
        let mut ipost = vec![0usize; n];
        for (new, &old) in post.iter().enumerate() {
            ipost[old] = new;
        }
        perm = post.iter().map(|&old| perm[old]).collect();
        for (new, &old) in perm.iter().enumerate() {
            pinv[old] = new;
        }
        parent = post
            .iter()
            .map(|&old| match parent[old] {
                NONE => NONE,
                p => ipost[p],
            })
            .collect();
        counts = post.iter().map(|&old| counts[old]).collect();
    }
    let mut lp = Vec::with_capacity(n + 1);
    lp.push(0);
    let mut total = 0;
    for count in counts {
        total += count;
        lp.push(total);
    }

    LDL_ANALYSES.inc();
    let mut analysis = SymbolicAnalysis {
        perm,
        pinv,
        parent,
        lp,
        col_ptr: col_ptr.to_vec(),
        row_idx: row_idx.to_vec(),
        supernodes: None,
    };
    if supernodal {
        analysis.supernodes = Some(Supernodes::new(&analysis));
    }
    analysis
}

/// A set of symbolic analyses shared by the solves of one workload, so that
/// each distinct sparsity pattern is analyzed once however many of its
/// circuits reduce to it. Clones are handles on one set, which lives as
/// long as its last handle: a workload makes one, hands it to its solves,
/// and drops it when it returns.
///
/// [`SharedAnalyses::analysis_of`] compares patterns exactly, as
/// [`SymbolicAnalysis::compatible_with`] does; the dimension and the count
/// of stored entries only pick the slot a matrix looks at. When two
/// threads need one pattern at once, the first computes its analysis and
/// the other waits for it, so the number of analyses does not depend on
/// the thread count.
#[derive(Debug, Clone, Default)]
pub struct SharedAnalyses {
    slots: Arc<Mutex<Vec<Arc<SharedSlot>>>>,
}

/// One pattern's place in a [`SharedAnalyses`], filled once by the first
/// thread that needs it.
#[derive(Debug)]
struct SharedSlot {
    /// Dimension of the pattern.
    n: usize,
    /// Stored entries of the pattern.
    nnz: usize,
    analysis: OnceLock<Arc<SymbolicAnalysis>>,
}

impl SharedAnalyses {
    /// The analysis of `a`'s sparsity pattern: the set's, or [`analyze`]d
    /// now and kept in the set.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn analysis_of(&self, a: &CscMatrix) -> Arc<SymbolicAnalysis> {
        // Slots before `next` hold other patterns of this size.
        let mut next = 0;
        loop {
            let slot = {
                let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
                match slots[next..]
                    .iter()
                    .position(|slot| slot.n == a.rows() && slot.nnz == a.nnz())
                {
                    Some(k) => {
                        next += k + 1;
                        Arc::clone(&slots[next - 1])
                    }
                    None => {
                        let slot = Arc::new(SharedSlot {
                            n: a.rows(),
                            nnz: a.nnz(),
                            analysis: OnceLock::new(),
                        });
                        slots.push(Arc::clone(&slot));
                        next = slots.len();
                        slot
                    }
                }
            };
            // The set's lock is released: other patterns are analyzed
            // meanwhile, and a thread that needs this one waits here.
            let analysis = slot.analysis.get_or_init(|| Arc::new(analyze(a)));
            if analysis.compatible_with(a) {
                return Arc::clone(analysis);
            }
        }
    }
}

/// A sparse `P·A·Pᵀ = L·D·Lᵀ` factorization over a cached symbolic
/// analysis. `L` is unit lower triangular and stored by columns without
/// its diagonal; `D` is the diagonal of pivots. `A` must be symmetric with
/// both triangles stored: the up-looking kernel reads the entries on or
/// above the diagonal of `P·A·Pᵀ`, the supernodal kernel those on or
/// below it.
#[derive(Debug, Clone)]
pub struct SparseLdl {
    symbolic: Arc<SymbolicAnalysis>,
    /// Row indices of `L`, column by column (permuted order), for the
    /// up-looking kernel; the supernodal layout keeps them per supernode.
    li: Vec<usize>,
    /// Values of `L`, column `k` at `lp[k]..lp[k + 1]` (parallel to `li`
    /// on the up-looking kernel).
    lx: Vec<f64>,
    /// The pivots.
    d: Vec<f64>,
}

impl SparseLdl {
    /// Analyzes and factorizes the symmetric matrix `a` from scratch.
    ///
    /// # Errors
    ///
    /// [`CircuitError::SingularSystem`] when a pivot is zero, negative or
    /// non-finite, carrying the unknown it belongs to.
    pub fn factor(a: &CscMatrix) -> Result<SparseLdl, CircuitError> {
        SparseLdl::factor_with(a, Arc::new(analyze(a)))
    }

    /// Factorizes `a` over an existing symbolic analysis of its pattern,
    /// which the factor shares with its other holders. The factor is
    /// bit-identical to [`SparseLdl::factor`] on `a`.
    ///
    /// # Errors
    ///
    /// [`CircuitError::PatternMismatch`] when `a`'s pattern is not the
    /// analyzed one; [`CircuitError::SingularSystem`] on a bad pivot.
    pub fn factor_with(
        a: &CscMatrix,
        symbolic: Arc<SymbolicAnalysis>,
    ) -> Result<SparseLdl, CircuitError> {
        if !symbolic.compatible_with(a) {
            return Err(CircuitError::PatternMismatch);
        }
        let row_indices = if symbolic.supernodes.is_some() {
            0
        } else {
            symbolic.l_nnz()
        };
        let mut ldl = SparseLdl {
            li: vec![0; row_indices],
            lx: vec![0.0; symbolic.l_nnz()],
            d: vec![0.0; symbolic.n()],
            symbolic,
        };
        ldl.numeric(a.values())?;
        LDL_FACTORS.inc();
        LDL_NNZ.set(ldl.factor_nnz() as f64);
        Ok(ldl)
    }

    /// Refactorizes for a matrix with the analyzed pattern and new values.
    /// The result is bit-identical to [`SparseLdl::factor`] on `a`. After an
    /// error the factor must not be used until a refactor succeeds.
    ///
    /// # Errors
    ///
    /// [`CircuitError::PatternMismatch`] when `a`'s pattern is not the
    /// analyzed one (a changed pattern needs a fresh [`analyze`]);
    /// [`CircuitError::SingularSystem`] on a bad pivot.
    pub fn refactor(&mut self, a: &CscMatrix) -> Result<(), CircuitError> {
        if !self.symbolic.compatible_with(a) {
            return Err(CircuitError::PatternMismatch);
        }
        self.refactor_values(a.values())
    }

    /// [`SparseLdl::refactor`] for values laid out in the analyzed
    /// pattern, which the caller guarantees.
    pub(crate) fn refactor_values(&mut self, values: &[f64]) -> Result<(), CircuitError> {
        self.numeric(values)?;
        LDL_REFACTORS.inc();
        Ok(())
    }

    /// The numeric factorization, by the kernel the analysis picked.
    fn numeric(&mut self, values: &[f64]) -> Result<(), CircuitError> {
        let _span = FACTOR_SPAN.enter();
        debug_assert_eq!(values.len(), self.symbolic.nnz());
        match &self.symbolic.supernodes {
            Some(sn) => {
                supernodal::factor(&self.symbolic, sn, values, &mut self.lx, &mut self.d)?;
                LDL_SUPERNODAL.inc();
                Ok(())
            }
            None => self.up_looking(values),
        }
    }

    /// The up-looking numeric factorization (Davis's `ldl_numeric`): row
    /// `k` of `L` solves `L(0..k, 0..k)·D·l = A(0..k, k)` over the
    /// elimination-tree reach of column `k`, and `D(k)` is what is left of
    /// `A(k, k)`.
    fn up_looking(&mut self, values: &[f64]) -> Result<(), CircuitError> {
        let s = &self.symbolic;
        let n = s.n();
        let mut y = vec![0.0f64; n];
        let mut pattern = vec![0usize; n];
        let mut flag = vec![NONE; n];
        // Entries of each column of L written so far.
        let mut fill = vec![0usize; n];
        for k in 0..n {
            // Scatter the upper part of column k of P·A·Pᵀ into y and
            // collect the reach in topological order at pattern[top..].
            let mut top = n;
            flag[k] = k;
            let col = s.perm[k];
            let entries = s.col_ptr[col]..s.col_ptr[col + 1];
            for (&row, &value) in s.row_idx[entries.clone()].iter().zip(&values[entries]) {
                let mut i = s.pinv[row];
                if i > k {
                    continue;
                }
                y[i] += value;
                let mut len = 0;
                while flag[i] != k {
                    pattern[len] = i;
                    len += 1;
                    flag[i] = k;
                    i = s.parent[i];
                }
                while len > 0 {
                    top -= 1;
                    len -= 1;
                    pattern[top] = pattern[len];
                }
            }
            let mut d = y[k];
            y[k] = 0.0;
            for &i in &pattern[top..] {
                let yi = y[i];
                y[i] = 0.0;
                let start = s.lp[i];
                let end = start + fill[i];
                for (&row, &l) in self.li[start..end].iter().zip(&self.lx[start..end]) {
                    y[row] -= l * yi;
                }
                let l_ki = yi / self.d[i];
                d -= l_ki * yi;
                self.li[end] = k;
                self.lx[end] = l_ki;
                fill[i] += 1;
            }
            if !(d > 0.0 && d.is_finite()) {
                return Err(CircuitError::SingularSystem { at: s.perm[k] });
            }
            self.d[k] = d;
        }
        debug_assert!(
            fill.iter()
                .zip(s.lp.windows(2))
                .all(|(&f, w)| f == w[1] - w[0]),
            "numeric fill must match the symbolic column counts"
        );
        Ok(())
    }

    /// Solves `A x = b` in original (unpermuted) coordinates: the
    /// one-column case of the multi-column backsolve the batched reads
    /// take, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` is not the matrix dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_columns(&mut [&mut x]);
        x
    }

    /// Solves `A·X = B` in place for every right-hand side in `columns`,
    /// in original coordinates. The columns pass through the factor in
    /// blocks of up to [`BLOCK_COLUMNS`], interleaved by row so that each
    /// block takes one sweep over `L`. Every column gets exactly the
    /// operations of a one-column solve, so each is bit-identical to
    /// [`SparseLdl::solve`] on it alone.
    ///
    /// # Panics
    ///
    /// Panics if a column's length is not the matrix dimension.
    pub(crate) fn solve_columns(&self, columns: &mut [&mut [f64]]) {
        assert!(
            columns.iter().all(|column| column.len() == self.n()),
            "right-hand side length mismatch"
        );
        let _span = SOLVE_SPAN.enter();
        LDL_SOLVES.add(columns.len() as u64);
        for block in columns.chunks_mut(BLOCK_COLUMNS) {
            match block.len() {
                1 => self.solve_block::<1>(block),
                2 => self.solve_block::<2>(block),
                3 => self.solve_block::<3>(block),
                4 => self.solve_block::<4>(block),
                5 => self.solve_block::<5>(block),
                6 => self.solve_block::<6>(block),
                7 => self.solve_block::<7>(block),
                _ => self.solve_block::<BLOCK_COLUMNS>(block),
            }
        }
    }

    /// Solves the `K` columns of `block` in place, carried through the
    /// factor together as one row-interleaved `[f64; K]` per unknown.
    fn solve_block<const K: usize>(&self, block: &mut [&mut [f64]]) {
        let s = &self.symbolic;
        let mut y: Vec<[f64; K]> = s
            .perm
            .iter()
            .map(|&old| std::array::from_fn(|c| block[c][old]))
            .collect();
        match &s.supernodes {
            Some(sn) => self.substitute(&mut y, || sn.columns()),
            None => self.substitute(&mut y, || {
                (0..s.n()).map(|k| (k, &self.li[s.lp[k]..s.lp[k + 1]]))
            }),
        }
        for (&old, yk) in s.perm.iter().zip(&y) {
            for (column, &value) in block.iter_mut().zip(yk) {
                column[old] = value;
            }
        }
    }

    /// Solves `L·D·Lᵀ·y' = y` in place for the `K` columns of `y`, given
    /// every column of `L` with its strictly-lower row indices in column
    /// order.
    fn substitute<'a, I, const K: usize>(&self, y: &mut [[f64; K]], columns: impl Fn() -> I)
    where
        I: DoubleEndedIterator<Item = (usize, &'a [usize])>,
    {
        let (lp, lx) = (&self.symbolic.lp, &self.lx);
        for (k, rows) in columns() {
            let yk = y[k];
            for (&row, &l) in rows.iter().zip(&lx[lp[k]..lp[k + 1]]) {
                for (yr, &ykc) in y[row].iter_mut().zip(&yk) {
                    *yr -= l * ykc;
                }
            }
        }
        for (yk, &dk) in y.iter_mut().zip(&self.d) {
            for ykc in yk {
                *ykc /= dk;
            }
        }
        for (k, rows) in columns().rev() {
            let mut yk = y[k];
            for (&row, &l) in rows.iter().zip(&lx[lp[k]..lp[k + 1]]) {
                for (ykc, &yr) in yk.iter_mut().zip(&y[row]) {
                    *ykc -= l * yr;
                }
            }
            y[k] = yk;
        }
    }

    /// The cached symbolic analysis.
    pub(crate) fn symbolic(&self) -> &SymbolicAnalysis {
        &self.symbolic
    }

    /// Matrix dimension.
    pub(crate) fn n(&self) -> usize {
        self.symbolic.n()
    }

    /// Stored entries of `L` plus `D` (the fill metric, also exported as
    /// the `solver.klu.lu_nnz` gauge).
    pub fn factor_nnz(&self) -> usize {
        self.lx.len() + self.d.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::TripletMatrix;

    fn csc(n: usize, entries: &[(usize, usize, f64)]) -> CscMatrix {
        let mut t = TripletMatrix::new(n, n);
        for &(r, c, v) in entries {
            t.add(r, c, v);
        }
        t.to_csc()
    }

    /// A small SDD "laplacian + diagonal shift" system, the shape the
    /// reduced crossbar stamps produce.
    fn sdd_system(n: usize, shift: f64) -> CscMatrix {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            let mut diag = shift;
            if i > 0 {
                t.add(i, i - 1, -1.0);
                diag += 1.0;
            }
            if i + 1 < n {
                t.add(i, i + 1, -1.0);
                diag += 1.0;
            }
            t.add(i, i, diag);
        }
        t.to_csc()
    }

    fn solve_dense_ref(a: &CscMatrix, b: &[f64]) -> Vec<f64> {
        let dense = crate::dense::DenseMatrix::from_rows(&a.to_dense());
        dense.solve(b).expect("reference dense solve")
    }

    #[test]
    fn identity_solve_is_exact() {
        let _session = obs::session();
        let a = csc(3, &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]);
        let ldl = SparseLdl::factor(&a).expect("identity factors");
        assert_eq!(ldl.solve(&[3.0, -1.0, 2.5]), vec![3.0, -1.0, 2.5]);
    }

    #[test]
    fn sdd_solve_matches_dense() {
        let _session = obs::session();
        let a = sdd_system(12, 0.5);
        let b: Vec<f64> = (0..12).map(|i| (i as f64) * 0.3 - 1.0).collect();
        let x = SparseLdl::factor(&a).expect("factors").solve(&b);
        for (xi, ri) in x.iter().zip(&solve_dense_ref(&a, &b)) {
            assert!((xi - ri).abs() < 1e-10, "{xi} vs {ri}");
        }
    }

    #[test]
    fn ldl_reconstructs_a() {
        let _session = obs::session();
        let a = sdd_system(9, 0.25);
        let ldl = SparseLdl::factor(&a).expect("factors");
        let n = 9;
        let s = ldl.symbolic();
        // Dense unit-lower L in permuted coordinates.
        let mut l = vec![vec![0.0f64; n]; n];
        for (j, w) in s.lp.windows(2).enumerate() {
            l[j][j] = 1.0;
            for p in w[0]..w[1] {
                l[ldl.li[p]][j] = ldl.lx[p];
            }
        }
        let dense = a.to_dense();
        for i in 0..n {
            for j in 0..n {
                let rebuilt: f64 = (0..n).map(|k| l[i][k] * ldl.d[k] * l[j][k]).sum();
                let want = dense[s.perm[i]][s.perm[j]];
                assert!(
                    (rebuilt - want).abs() < 1e-12,
                    "L·D·Lᵀ at ({i}, {j}): {rebuilt} vs {want}"
                );
            }
        }
    }

    #[test]
    fn refactor_new_values_matches_fresh_factor() {
        let _session = obs::session();
        let a1 = sdd_system(10, 0.5);
        let mut t = TripletMatrix::new(10, 10);
        for j in 0..10 {
            for k in a1.col_ptr()[j]..a1.col_ptr()[j + 1] {
                t.add(a1.row_idx()[k], j, a1.values()[k] * 3.5);
            }
        }
        let a2 = t.to_csc();

        let mut ldl = SparseLdl::factor(&a1).expect("factors");
        ldl.refactor(&a2).expect("same pattern");
        let fresh = SparseLdl::factor(&a2).expect("factors");
        let b = vec![1.0; 10];
        for (r, f) in ldl.solve(&b).iter().zip(&fresh.solve(&b)) {
            assert_eq!(r.to_bits(), f.to_bits());
        }
    }

    #[test]
    fn refactor_rejects_different_pattern() {
        let _session = obs::session();
        let a = sdd_system(6, 0.5);
        let other = csc(
            6,
            &[
                (0, 0, 1.0),
                (1, 1, 1.0),
                (2, 2, 1.0),
                (3, 3, 1.0),
                (4, 4, 1.0),
                (5, 5, 1.0),
            ],
        );
        let mut ldl = SparseLdl::factor(&a).expect("factors");
        assert_eq!(ldl.refactor(&other), Err(CircuitError::PatternMismatch));
        assert!(matches!(
            SparseLdl::factor_with(&other, Arc::new(ldl.symbolic().clone())),
            Err(CircuitError::PatternMismatch)
        ));
    }

    #[test]
    fn empty_column_is_a_singular_pivot() {
        let _session = obs::session();
        // Unknown 1 has no entries at all: a floating node.
        let a = csc(3, &[(0, 0, 1.0), (2, 2, 1.0)]);
        assert_eq!(
            SparseLdl::factor(&a).err(),
            Some(CircuitError::SingularSystem { at: 1 })
        );
    }

    #[test]
    fn singular_and_indefinite_pivots_are_typed() {
        let _session = obs::session();
        // Rank-deficient Laplacian of a floating pair: the second pivot
        // is exactly zero.
        let floating = csc(2, &[(0, 0, 1.0), (0, 1, -1.0), (1, 0, -1.0), (1, 1, 1.0)]);
        assert!(matches!(
            SparseLdl::factor(&floating),
            Err(CircuitError::SingularSystem { .. })
        ));
        // Symmetric but indefinite.
        let indefinite = csc(2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 1.0)]);
        assert!(matches!(
            SparseLdl::factor(&indefinite),
            Err(CircuitError::SingularSystem { .. })
        ));
        let non_finite = csc(1, &[(0, 0, f64::NAN)]);
        assert!(matches!(
            SparseLdl::factor(&non_finite),
            Err(CircuitError::SingularSystem { .. })
        ));
    }

    /// The set compares patterns exactly: two patterns of one dimension and
    /// entry count get an analysis each, and a pattern seen before gets its
    /// own back.
    #[test]
    fn shared_analyses_tell_apart_patterns_of_one_size() {
        let session = obs::session();
        let path = |a: usize, b: usize, c: usize| {
            let mut entries = vec![(0, 0, 2.0), (1, 1, 2.0), (2, 2, 2.0)];
            for (i, j) in [(a, b), (b, c)] {
                entries.extend([(i, j, -1.0), (j, i, -1.0)]);
            }
            csc(3, &entries)
        };
        let (first, second) = (path(0, 1, 2), path(1, 0, 2));
        assert_eq!((first.nnz(), second.nnz()), (7, 7));
        let set = SharedAnalyses::default();
        let a = set.analysis_of(&first);
        let b = set.analysis_of(&second);
        assert!(a.compatible_with(&first) && b.compatible_with(&second));
        assert!(!b.compatible_with(&first));
        assert!(Arc::ptr_eq(&set.analysis_of(&first), &a));
        assert!(Arc::ptr_eq(&set.clone().analysis_of(&second), &b));
        assert_eq!(session.snapshot().counter("solver.klu.analyses"), 2);
    }

    #[test]
    fn elimination_tree_of_a_path_is_a_path() {
        let _session = obs::session();
        // A tridiagonal matrix has no fill under any ordering that AMD picks
        // from a path's ends, and its elimination tree is a chain.
        let a = sdd_system(7, 0.5);
        let s = analyze(&a);
        assert_eq!(s.l_nnz(), 6);
        let roots = (0..7).filter(|&k| s.parent(k).is_none()).count();
        assert_eq!(roots, 1);
        for k in 0..7 {
            if let Some(p) = s.parent(k) {
                assert!(p > k);
            }
        }
    }
}
