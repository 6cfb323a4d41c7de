//! KLU-style sparse direct solver for the reduced nodal system.
//!
//! The classic KLU recipe (Davis & Palamadai Natarajan), reimplemented for
//! the crossbar workload:
//!
//! 1. **BTF** (`btf`): a maximum transversal puts nonzeros on the
//!    diagonal (or proves structural singularity), and Tarjan SCCs carve
//!    the matrix into independent diagonal blocks in block upper
//!    triangular form.
//! 2. **AMD** (`amd`): each block gets a fill-reducing
//!    approximate-minimum-degree ordering on its symmetrized pattern.
//! 3. **Numeric LU** (`factor`): left-looking Gilbert–Peierls
//!    factorization per block with diagonally-preferenced partial
//!    pivoting, recording a replay program.
//!
//! Steps 1–2 plus the replay program are the *symbolic* work, done once
//! per sparsity pattern ([`SymbolicAnalysis`] + the program cached inside
//! [`SparseLu`]). When only values change — fault overlays, variation
//! sweeps, weight reprogramming, Newton re-linearization, transient steps
//! — [`SparseLu::refactor`] redoes only the numeric pass over the cached
//! pivot order at a fraction of the cost, and [`SparseLu::refresh`] adds
//! the contractual fallback: a column where fresh pivoting would choose a
//! different pivot, or a vanished pivot, triggers one full refactorization
//! with fresh pivoting before giving up.
//!
//! A refactor accepts a replayed pivot only if fresh partial pivoting
//! would choose it too, so a successful `refactor` is **bit-identical** to
//! a fresh `factor` on the same values. On the symmetric
//! diagonally-dominant systems crossbar stamping produces, diagonal
//! preference always keeps the diagonal pivot and the fallback never
//! fires. That identity lets Newton loops, transient runs and the batched
//! fault path reuse one factorization without breaking the
//! workspace-wide "bit-identical at any thread count" contract.
//!
//! Everything here is deterministic: no randomization, ties broken by
//! index, identical inputs give identical factors on every run.

mod amd;
mod btf;
mod factor;

use crate::error::CircuitError;
use crate::sparse::CscMatrix;
use mnsim_obs as obs;

static KLU_ANALYSES: obs::Counter = obs::Counter::new("solver.klu.analyses");
static KLU_FACTORS: obs::Counter = obs::Counter::new("solver.klu.factors");
static KLU_REFACTORS: obs::Counter = obs::Counter::new("solver.klu.refactor");
static KLU_REFACTOR_FALLBACKS: obs::Counter = obs::Counter::new("solver.klu.refactor_fallbacks");
static KLU_SOLVES: obs::Counter = obs::Counter::new("solver.klu.solves");
static KLU_LU_NNZ: obs::Gauge = obs::Gauge::new("solver.klu.lu_nnz");

/// Why [`SparseLu::refactor`] refused to reuse the cached pivot order.
///
/// `PatternChanged` means the caller handed a structurally different
/// matrix — a programming error or a stale cache, never recoverable by
/// refactoring. The other two are numeric: values moved far enough that
/// the cached pivots are unusable, and a full factorization with fresh
/// pivoting (see [`SparseLu::refresh`]) is the documented fallback.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum RefactorError {
    /// The matrix's sparsity pattern differs from the analyzed one.
    PatternChanged,
    /// A pivot became exactly zero — the new values are singular under the
    /// cached pivot order.
    Singular {
        /// Permuted column index of the vanished pivot.
        at: usize,
    },
    /// Fresh partial pivoting would choose a different pivot for the new
    /// values, so replaying the cached order would not reproduce a fresh
    /// factorization.
    PivotGrowth {
        /// Permuted column index of the failing pivot.
        column: usize,
        /// Observed `|pivot| / column_max` at failure.
        ratio: f64,
    },
}

impl std::fmt::Display for RefactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefactorError::PatternChanged => {
                write!(f, "sparsity pattern differs from the analyzed structure")
            }
            RefactorError::Singular { at } => {
                write!(f, "pivot vanished at permuted column {at}")
            }
            RefactorError::PivotGrowth { column, ratio } => {
                write!(
                    f,
                    "pivot growth at permuted column {column}: |pivot|/colmax = {ratio:.3e}"
                )
            }
        }
    }
}

impl std::error::Error for RefactorError {}

/// The structure-only half of the factorization: BTF permutations, block
/// boundaries, per-block AMD orderings, and the pattern fingerprint that
/// gates refactorization. Computed once per sparsity pattern by
/// [`analyze`] and shared by every numeric factorization of that
/// structure.
#[derive(Debug, Clone)]
pub struct SymbolicAnalysis {
    n: usize,
    /// Final row permutation (BTF ∘ AMD), `row_perm[new] = old`.
    row_perm: Vec<usize>,
    /// Final column permutation, `col_perm[new] = old`.
    col_perm: Vec<usize>,
    /// Half-open diagonal-block boundaries over the permuted index space.
    block_ptr: Vec<usize>,
    /// [`CscMatrix::pattern_hash`] of the analyzed matrix.
    pattern_hash: u64,
}

impl SymbolicAnalysis {
    /// Matrix dimension the analysis was computed for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Row permutation, `row_perm()[new] = old`.
    pub fn row_perm(&self) -> &[usize] {
        &self.row_perm
    }

    /// Column permutation, `col_perm()[new] = old`.
    pub fn col_perm(&self) -> &[usize] {
        &self.col_perm
    }

    /// Diagonal blocks as half-open `(start, end)` ranges over the
    /// permuted index space; together they partition `0..n`.
    pub fn block_ranges(&self) -> Vec<(usize, usize)> {
        self.block_ptr.windows(2).map(|w| (w[0], w[1])).collect()
    }

    /// Number of BTF diagonal blocks.
    pub fn block_count(&self) -> usize {
        self.block_ptr.len().saturating_sub(1)
    }

    /// Pattern fingerprint of the analyzed matrix (see
    /// [`CscMatrix::pattern_hash`]); a matrix refactorizes against this
    /// analysis iff the hashes match.
    pub fn pattern_hash(&self) -> u64 {
        self.pattern_hash
    }

    /// Whether `a` has the same sparsity pattern as the analyzed matrix.
    pub fn compatible_with(&self, a: &CscMatrix) -> bool {
        a.cols() == self.n && a.rows() == self.n && a.pattern_hash() == self.pattern_hash
    }
}

/// Computes the symbolic analysis of a square matrix: BTF block form plus
/// a per-block AMD fill-reducing ordering.
///
/// # Errors
///
/// [`CircuitError::SingularSystem`] when the matrix is *structurally*
/// singular (no complete transversal exists) — no assignment of values
/// could ever make it factorizable.
pub fn analyze(a: &CscMatrix) -> Result<SymbolicAnalysis, CircuitError> {
    let n = a.cols();
    assert_eq!(a.rows(), n, "symbolic analysis requires a square matrix");
    let form = btf::block_triangular_form(a).map_err(|col| CircuitError::SingularSystem { at: col })?;

    // Per-block AMD on the symmetrized block pattern, composed into the
    // BTF permutations: new[s + i] = btf[s + amd[i]].
    let mut inv_row = vec![0usize; n];
    for (new, &old) in form.row_perm.iter().enumerate() {
        inv_row[old] = new;
    }
    let mut row_perm = form.row_perm.clone();
    let mut col_perm = form.col_perm.clone();
    for w in form.block_ptr.windows(2) {
        let (s, e) = (w[0], w[1]);
        let m = e - s;
        if m <= 2 {
            continue;
        }
        // Block-local symmetrized adjacency from A's pattern.
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); m];
        for local_j in 0..m {
            let old_j = form.col_perm[s + local_j];
            for k in a.col_ptr()[old_j]..a.col_ptr()[old_j + 1] {
                let new_i = inv_row[a.row_idx()[k]];
                if new_i >= s && new_i < e {
                    let local_i = new_i - s;
                    if local_i != local_j {
                        adj[local_i].push(local_j);
                        adj[local_j].push(local_i);
                    }
                }
            }
        }
        let order = amd::min_degree_order(m, &adj);
        for (i, &local) in order.iter().enumerate() {
            row_perm[s + i] = form.row_perm[s + local];
            col_perm[s + i] = form.col_perm[s + local];
        }
    }

    KLU_ANALYSES.add(1);
    Ok(SymbolicAnalysis {
        n,
        row_perm,
        col_perm,
        block_ptr: form.block_ptr,
        pattern_hash: a.pattern_hash(),
    })
}

/// A sparse LU factorization: cached symbolic analysis + numeric factors
/// + the elimination replay program that powers [`SparseLu::refactor`].
#[derive(Debug, Clone)]
pub struct SparseLu {
    symbolic: SymbolicAnalysis,
    numeric: factor::Numeric,
}

impl SparseLu {
    /// Analyzes and factorizes `a` from scratch.
    ///
    /// # Errors
    ///
    /// [`CircuitError::SingularSystem`] for structural or numeric
    /// singularity, carrying the permuted column where elimination broke
    /// down.
    pub fn factor(a: &CscMatrix) -> Result<SparseLu, CircuitError> {
        let symbolic = analyze(a)?;
        SparseLu::factor_with(a, symbolic)
    }

    /// Factorizes `a` reusing an existing symbolic analysis (fresh
    /// pivoting, no ordering/BTF recomputation).
    ///
    /// # Errors
    ///
    /// [`CircuitError::SingularSystem`] on numeric singularity, or when
    /// `a`'s pattern does not match `symbolic` (reported at column 0).
    pub fn factor_with(a: &CscMatrix, symbolic: SymbolicAnalysis) -> Result<SparseLu, CircuitError> {
        if !symbolic.compatible_with(a) {
            return Err(CircuitError::SingularSystem { at: 0 });
        }
        let numeric = factor::factorize(a, &symbolic.row_perm, &symbolic.col_perm, &symbolic.block_ptr)
            .map_err(|col| CircuitError::SingularSystem { at: col })?;
        KLU_FACTORS.add(1);
        KLU_LU_NNZ.set(numeric.lu_nnz() as f64);
        Ok(SparseLu { symbolic, numeric })
    }

    /// Numeric-only refresh for a matrix with the same pattern but new
    /// values: replays the cached pivot order and elimination program.
    ///
    /// On any `Err` the factorization is left in an unspecified numeric
    /// state and must not be used for solves until a successful
    /// [`SparseLu::factor_with`]/[`SparseLu::refresh`] — which is exactly
    /// what `refresh` automates.
    ///
    /// # Errors
    ///
    /// [`RefactorError::PatternChanged`] if `a` is not
    /// refactorization-compatible; [`RefactorError::Singular`] /
    /// [`RefactorError::PivotGrowth`] when fresh pivoting would choose
    /// differently for the new values.
    pub fn refactor(&mut self, a: &CscMatrix) -> Result<(), RefactorError> {
        if !self.symbolic.compatible_with(a) {
            return Err(RefactorError::PatternChanged);
        }
        self.numeric.refactor(a).map_err(|fail| match fail {
            factor::RefactorFail::Singular { column } => RefactorError::Singular { at: column },
            factor::RefactorFail::PivotGrowth { column, ratio } => {
                RefactorError::PivotGrowth { column, ratio }
            }
        })?;
        KLU_REFACTORS.add(1);
        Ok(())
    }

    /// Value refresh with the contractual fallback: try [`SparseLu::refactor`],
    /// and on a pivot mismatch or numeric singularity redo a full
    /// factorization with fresh pivoting (same symbolic analysis). Either
    /// way the result is bit-identical to [`SparseLu::factor`] on `a`.
    /// Returns `true` when the fast path sufficed.
    ///
    /// # Errors
    ///
    /// [`CircuitError::SingularSystem`] when even fresh pivoting cannot
    /// factorize the new values, or when `a`'s pattern does not match the
    /// cached analysis (pattern mismatches are never retried — they mean a
    /// stale cache, which the fallback could silently mask).
    pub fn refresh(&mut self, a: &CscMatrix) -> Result<bool, CircuitError> {
        match self.refactor(a) {
            Ok(()) => Ok(true),
            Err(RefactorError::PatternChanged) => Err(CircuitError::SingularSystem { at: 0 }),
            Err(RefactorError::Singular { .. }) | Err(RefactorError::PivotGrowth { .. }) => {
                KLU_REFACTOR_FALLBACKS.add(1);
                let fresh = SparseLu::factor_with(a, self.symbolic.clone())?;
                *self = fresh;
                Ok(false)
            }
        }
    }

    /// Solves `A x = b` in original (unpermuted) coordinates.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.symbolic.n, "right-hand side length mismatch");
        KLU_SOLVES.add(1);
        self.numeric.solve(b, &self.symbolic.row_perm, &self.symbolic.col_perm)
    }

    /// The cached symbolic analysis.
    pub fn symbolic(&self) -> &SymbolicAnalysis {
        &self.symbolic
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.symbolic.n
    }

    /// Stored nonzeros in L + U (fill metric, also exported as the
    /// `solver.klu.lu_nnz` gauge).
    pub fn lu_nnz(&self) -> usize {
        self.numeric.lu_nnz()
    }

    /// Reconstructs L·U (with permutations undone) as a dense matrix —
    /// test support for the `L·U ≈ A` invariant.
    #[cfg(test)]
    pub(crate) fn reconstruct_dense(&self) -> Vec<Vec<f64>> {
        self.numeric.reconstruct_dense(&self.symbolic.row_perm, &self.symbolic.col_perm)
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
        let a = csc(3, &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]);
        let lu = SparseLu::factor(&a).expect("identity factors");
        assert_eq!(lu.solve(&[3.0, -1.0, 2.5]), vec![3.0, -1.0, 2.5]);
    }

    #[test]
    fn sdd_solve_matches_dense() {
        let a = sdd_system(12, 0.5);
        let b: Vec<f64> = (0..12).map(|i| (i as f64) * 0.3 - 1.0).collect();
        let lu = SparseLu::factor(&a).expect("factors");
        let x = lu.solve(&b);
        let x_ref = solve_dense_ref(&a, &b);
        for (xi, ri) in x.iter().zip(&x_ref) {
            assert!((xi - ri).abs() < 1e-10, "{xi} vs {ri}");
        }
    }

    #[test]
    fn unsymmetric_permuted_system_matches_dense() {
        // Zero diagonal forces the transversal to permute rows; entries
        // chosen so pivoting matters.
        let a = csc(
            4,
            &[
                (0, 1, 2.0),
                (0, 3, 1.0),
                (1, 0, 3.0),
                (1, 2, -1.0),
                (2, 1, 0.5),
                (2, 2, 4.0),
                (3, 0, -2.0),
                (3, 3, 5.0),
            ],
        );
        let b = [1.0, -2.0, 0.5, 3.0];
        let lu = SparseLu::factor(&a).expect("factors");
        let x = lu.solve(&b);
        let x_ref = solve_dense_ref(&a, &b);
        for (xi, ri) in x.iter().zip(&x_ref) {
            assert!((xi - ri).abs() < 1e-10, "{xi} vs {ri}");
        }
    }

    #[test]
    fn lu_reconstructs_a() {
        let a = sdd_system(9, 0.25);
        let lu = SparseLu::factor(&a).expect("factors");
        let rebuilt = lu.reconstruct_dense();
        let dense = a.to_dense();
        for i in 0..9 {
            for j in 0..9 {
                assert!(
                    (rebuilt[i][j] - dense[i][j]).abs() < 1e-12,
                    "L·U mismatch at ({i}, {j}): {} vs {}",
                    rebuilt[i][j],
                    dense[i][j]
                );
            }
        }
    }

    #[test]
    fn refactor_same_values_is_bit_identical() {
        let a = sdd_system(16, 0.75);
        let b: Vec<f64> = (0..16).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        let fresh = SparseLu::factor(&a).expect("factors");
        let mut replayed = fresh.clone();
        replayed.refactor(&a).expect("same pattern refactors");
        let x_fresh = fresh.solve(&b);
        let x_replay = replayed.solve(&b);
        for (f, r) in x_fresh.iter().zip(&x_replay) {
            assert_eq!(f.to_bits(), r.to_bits(), "refactor diverged from factor");
        }
    }

    #[test]
    fn refactor_new_values_matches_fresh_factor() {
        let a1 = sdd_system(10, 0.5);
        // Same pattern, scaled values.
        let mut t = TripletMatrix::new(10, 10);
        for j in 0..10 {
            for k in a1.col_ptr()[j]..a1.col_ptr()[j + 1] {
                t.add(a1.row_idx()[k], j, a1.values()[k] * 3.5);
            }
        }
        let a2 = t.to_csc();
        assert_eq!(a1.pattern_hash(), a2.pattern_hash());

        let mut lu = SparseLu::factor(&a1).expect("factors");
        lu.refactor(&a2).expect("same pattern");
        let fresh = SparseLu::factor(&a2).expect("factors");
        let b = vec![1.0; 10];
        let x_re = lu.solve(&b);
        let x_fr = fresh.solve(&b);
        for (r, f) in x_re.iter().zip(&x_fr) {
            assert_eq!(r.to_bits(), f.to_bits());
        }
    }

    #[test]
    fn refactor_rejects_different_pattern() {
        let a = sdd_system(6, 0.5);
        let other = csc(6, &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0), (3, 3, 1.0), (4, 4, 1.0), (5, 5, 1.0)]);
        let mut lu = SparseLu::factor(&a).expect("factors");
        assert_eq!(lu.refactor(&other), Err(RefactorError::PatternChanged));
    }

    #[test]
    fn structural_singularity_is_typed() {
        // Empty column 1.
        let a = csc(3, &[(0, 0, 1.0), (2, 2, 1.0), (1, 0, 1.0)]);
        assert!(matches!(analyze(&a), Err(CircuitError::SingularSystem { .. })));
    }

    #[test]
    fn numeric_singularity_is_typed() {
        // Structurally fine, numerically rank-deficient: two equal rows.
        let a = csc(2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 1.0), (1, 1, 2.0)]);
        assert!(matches!(SparseLu::factor(&a), Err(CircuitError::SingularSystem { .. })));
    }

    #[test]
    fn refresh_falls_back_on_pivot_collapse() {
        // Factor with a strong diagonal, then refresh with values that
        // zero the first pivot: the replay must fail and the fallback with
        // fresh pivoting must still produce the right answer.
        let a1 = csc(2, &[(0, 0, 4.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 4.0)]);
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 0, 1e-14);
        t.add(0, 1, 1.0);
        t.add(1, 0, 1.0);
        t.add(1, 1, 1e-14);
        let a2 = t.to_csc();
        assert_eq!(a1.pattern_hash(), a2.pattern_hash());

        let mut lu = SparseLu::factor(&a1).expect("factors");
        let fast = lu.refresh(&a2).expect("fallback succeeds");
        assert!(!fast, "pivot collapse must route through the fallback");
        let x = lu.solve(&[1.0, 2.0]);
        let x_ref = solve_dense_ref(&a2, &[1.0, 2.0]);
        for (xi, ri) in x.iter().zip(&x_ref) {
            assert!((xi - ri).abs() < 1e-9, "{xi} vs {ri}");
        }
    }

    #[test]
    fn refresh_matches_fresh_factor_when_the_pivot_choice_changes() {
        // The diagonal of column 0 shrinks to 1e-5 of the column maximum:
        // a value the old 1e-8 growth screen let through, but below the
        // 1e-3 diagonal preference, so fresh pivoting swaps rows.
        let a1 = csc(2, &[(0, 0, 4.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 4.0)]);
        let a2 = csc(2, &[(0, 0, 1e-5), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 4.0)]);
        let mut lu = SparseLu::factor(&a1).expect("factors");
        assert!(matches!(lu.refactor(&a2), Err(RefactorError::PivotGrowth { .. })));
        assert!(!lu.refresh(&a2).expect("fallback succeeds"));
        let fresh = SparseLu::factor(&a2).expect("factors");
        let b = [1.0, 2.0];
        for (r, f) in lu.solve(&b).iter().zip(&fresh.solve(&b)) {
            assert_eq!(r.to_bits(), f.to_bits());
        }
    }

    #[test]
    fn block_ranges_partition_the_matrix() {
        let a = csc(
            5,
            &[
                (0, 0, 2.0),
                (0, 1, -1.0),
                (1, 0, -1.0),
                (1, 1, 2.0),
                (2, 2, 1.0),
                (3, 3, 3.0),
                (3, 4, -1.0),
                (4, 3, -1.0),
                (4, 4, 3.0),
            ],
        );
        let sym = analyze(&a).expect("nonsingular");
        let ranges = sym.block_ranges();
        assert_eq!(ranges.first().map(|r| r.0), Some(0));
        assert_eq!(ranges.last().map(|r| r.1), Some(5));
        for w in ranges.windows(2) {
            assert_eq!(w[0].1, w[1].0, "blocks must tile 0..n contiguously");
        }
    }
}
