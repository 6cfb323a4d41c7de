//! The supernodal numeric kernel: a multifrontal LDLᵀ over fundamental
//! supernodes (Liu, SIAM Review 34(1), 1992; the supernodal Cholesky of
//! Chen, Davis, Hager and Rajamanickam, ACM TOMS Algorithm 887, 2008).
//!
//! Above [`SUPERNODAL_SWITCH`] the analysis postorders the elimination
//! tree and groups its columns into fundamental supernodes: runs of
//! consecutive columns in which each column is the only child of the next
//! and `L(:, j + 1)` has exactly the rows of `L(:, j)` below `j + 1`. The
//! columns of a supernode share one row structure, so its part of `L` is a
//! dense trapezoid with no explicit zeros, and the numeric pass works on
//! dense fronts, one supernode at a time in column order:
//!
//! 1. the supernode's columns of `A` (on and below the diagonal of
//!    `P·A·Pᵀ`) are added into a dense front indexed by its rows;
//! 2. the update matrices of its children are popped off a stack and
//!    extend-added into the front;
//! 3. the leading `w` columns are factored in place, left-looking, and the
//!    trailing block less their outer product is pushed as the
//!    supernode's own update matrix.
//!
//! Each column is formed from four panel columns at a time, so its entries
//! are loaded and stored once per four multiply-adds, and the update
//! matrix two columns at a time, so each panel entry loaded serves both.
//! The factor keeps the column layout of the up-looking kernel — column
//! `k`'s strictly-lower entries at `lp[k]..lp[k + 1]` — with the row
//! indices stored once per supernode instead of once per entry.

use super::{SymbolicAnalysis, NONE};
use crate::error::CircuitError;

/// CHOLMOD's `supernodal_switch`: the supernodal kernel runs when the
/// work per stored entry of `L`, `Σⱼ cⱼ² / nnz(L)` with `cⱼ` the
/// strictly-lower count of column `j`, is at least this. Below it the
/// fronts are too small to pay for their assembly, and the up-looking
/// kernel is faster.
pub(super) const SUPERNODAL_SWITCH: usize = 40;

/// Whether column counts `counts` are worth the supernodal kernel.
pub(super) fn worth_it(counts: &[usize]) -> bool {
    let l_nnz: usize = counts.iter().sum();
    let work: usize = counts.iter().map(|&c| c * c).sum();
    l_nnz > 0 && work >= SUPERNODAL_SWITCH * l_nnz
}

/// A postorder of the forest `parent` as `post[new] = old`: children
/// before their parent, siblings and roots in increasing order.
pub(super) fn postorder(parent: &[usize]) -> Vec<usize> {
    let n = parent.len();
    // Child lists, built backwards so each lists its children ascending.
    let mut head = vec![NONE; n];
    let mut next = vec![NONE; n];
    for j in (0..n).rev() {
        if parent[j] != NONE {
            next[j] = head[parent[j]];
            head[parent[j]] = j;
        }
    }
    let mut post = Vec::with_capacity(n);
    let mut stack = Vec::new();
    for root in (0..n).filter(|&j| parent[j] == NONE) {
        stack.push(root);
        while let Some(&top) = stack.last() {
            match head[top] {
                NONE => {
                    stack.pop();
                    post.push(top);
                }
                child => {
                    head[top] = next[child];
                    stack.push(child);
                }
            }
        }
    }
    post
}

/// The fundamental supernodes of a postordered analysis and the rows of
/// `L` each one covers, in flat arrays.
#[derive(Debug, Clone)]
pub(super) struct Supernodes {
    /// First column of each supernode, then `n`.
    start: Vec<usize>,
    /// Offset of each supernode's rows in `rows`, then `rows.len()`.
    row_ptr: Vec<usize>,
    /// Each supernode's rows of `L`: its own columns, then the rows below
    /// them, ascending.
    rows: Vec<usize>,
    /// Number of child supernodes, i.e. update matrices each one pops.
    children: Vec<usize>,
    /// Entries of the largest dense front.
    front_len: usize,
    /// Most entries the update-matrix stack holds at once.
    stack_len: usize,
}

impl Supernodes {
    /// Finds the fundamental supernodes of the postordered elimination
    /// tree of `s` (whose `parent`, `perm`, `pinv` and `lp` are already
    /// relabeled), and each one's rows: its own columns, then the sorted
    /// union of `A`'s entries below them and its children's rows.
    pub(super) fn new(s: &SymbolicAnalysis) -> Supernodes {
        let n = s.n();
        let count = |k: usize| s.lp[k + 1] - s.lp[k];
        let mut child_count = vec![0usize; n];
        for &p in &s.parent {
            if p != NONE {
                child_count[p] += 1;
            }
        }
        let mut start = vec![0];
        for (j, &children) in child_count.iter().enumerate().skip(1) {
            let joins = s.parent[j - 1] == j && count(j - 1) == count(j) + 1 && children == 1;
            if !joins {
                start.push(j);
            }
        }
        start.push(n);
        let supernodes = start.len() - 1;
        let mut owner = vec![0usize; n];
        for (sup, w) in start.windows(2).enumerate() {
            owner[w[0]..w[1]].fill(sup);
        }

        // Child lists of the supernodal tree, filled as children finish;
        // postorder finishes every child before its parent.
        let mut head = vec![NONE; supernodes];
        let mut next = vec![NONE; supernodes];
        let mut children = vec![0usize; supernodes];
        let mut row_ptr = Vec::with_capacity(supernodes + 1);
        row_ptr.push(0);
        let mut rows = Vec::with_capacity(start.windows(2).map(|w| count(w[0]) + 1).sum());
        let mut mark = vec![NONE; n];
        let mut below = Vec::new();
        let (mut front_len, mut stack, mut stack_len) = (0, 0, 0);
        for sup in 0..supernodes {
            let (first, end) = (start[sup], start[sup + 1]);
            below.clear();
            for k in first..end {
                let col = s.perm[k];
                for &row in &s.row_idx[s.col_ptr[col]..s.col_ptr[col + 1]] {
                    let i = s.pinv[row];
                    if i >= end && mark[i] != sup {
                        mark[i] = sup;
                        below.push(i);
                    }
                }
            }
            let mut child = head[sup];
            while child != NONE {
                let child_rows = &rows[row_ptr[child]..row_ptr[child + 1]];
                let update = &child_rows[start[child + 1] - start[child]..];
                for &i in update {
                    if i >= end && mark[i] != sup {
                        mark[i] = sup;
                        below.push(i);
                    }
                }
                stack -= triangle(update.len());
                child = next[child];
            }
            below.sort_unstable();
            rows.extend(first..end);
            rows.extend_from_slice(&below);
            row_ptr.push(rows.len());
            debug_assert_eq!(end - first + below.len(), count(first) + 1);

            if s.parent[end - 1] != NONE {
                let parent = owner[s.parent[end - 1]];
                next[sup] = head[parent];
                head[parent] = sup;
                children[parent] += 1;
            }
            let m = end - first + below.len();
            front_len = front_len.max(m * m);
            stack += triangle(below.len());
            stack_len = stack_len.max(stack);
        }
        Supernodes {
            start,
            row_ptr,
            rows,
            children,
            front_len,
            stack_len,
        }
    }

    /// Number of supernodes.
    fn count(&self) -> usize {
        self.start.len() - 1
    }

    /// Columns of supernode `sup`.
    fn width(&self, sup: usize) -> usize {
        self.start[sup + 1] - self.start[sup]
    }

    /// Rows of supernode `sup`.
    fn rows(&self, sup: usize) -> &[usize] {
        &self.rows[self.row_ptr[sup]..self.row_ptr[sup + 1]]
    }

    /// Every column of `L` with its strictly-lower row indices, in column
    /// order.
    pub(super) fn columns(&self) -> impl DoubleEndedIterator<Item = (usize, &[usize])> + '_ {
        (0..self.count()).flat_map(move |sup| {
            let first = self.start[sup];
            let rows = self.rows(sup);
            (first..self.start[sup + 1]).map(move |k| (k, &rows[k - first + 1..]))
        })
    }
}

/// Entries of a packed lower triangle of order `p`.
fn triangle(p: usize) -> usize {
    p * (p + 1) / 2
}

/// Subtracts `Σᵢ L(r, i)·D(i)·L(c, i)` over the finished panel columns
/// `i < panel` of a front with leading dimension `m` (`done` holds its
/// columns before `c`) from rows `c..m` of front column `c` (`column`),
/// four panel columns per pass.
fn subtract_panel(done: &[f64], m: usize, panel: usize, c: usize, column: &mut [f64]) {
    let t = |i: usize| done[i * m + i] * done[i * m + c];
    let l = |i: usize| &done[i * m + c..(i + 1) * m];
    let mut i = 0;
    while i + 4 <= panel {
        let (t0, t1, t2, t3) = (t(i), t(i + 1), t(i + 2), t(i + 3));
        for ((((x, &a0), &a1), &a2), &a3) in column
            .iter_mut()
            .zip(l(i))
            .zip(l(i + 1))
            .zip(l(i + 2))
            .zip(l(i + 3))
        {
            *x -= a0 * t0 + a1 * t1 + a2 * t2 + a3 * t3;
        }
        i += 4;
    }
    for i in i..panel {
        let t = t(i);
        for (x, &a) in column.iter_mut().zip(l(i)) {
            *x -= a * t;
        }
    }
}

/// [`subtract_panel`] on front columns `c` (rows `c..m`, `left`) and
/// `c + 1` (rows `c + 1..m`, `right`) at once, so each panel entry is
/// loaded once for both. Every entry sums its terms exactly as
/// [`subtract_panel`] does.
fn subtract_panel_pair(
    done: &[f64],
    m: usize,
    panel: usize,
    c: usize,
    left: &mut [f64],
    right: &mut [f64],
) {
    let t = |i: usize| done[i * m + i] * done[i * m + c];
    let u = |i: usize| done[i * m + i] * done[i * m + c + 1];
    let l = |i: usize| &done[i * m + c + 1..(i + 1) * m];
    let row_c = |i: usize| done[i * m + c];
    let (head, left) = left.split_at_mut(1);
    let head = &mut head[0];
    let mut i = 0;
    while i + 4 <= panel {
        let (t0, t1, t2, t3) = (t(i), t(i + 1), t(i + 2), t(i + 3));
        let (u0, u1, u2, u3) = (u(i), u(i + 1), u(i + 2), u(i + 3));
        *head -= row_c(i) * t0 + row_c(i + 1) * t1 + row_c(i + 2) * t2 + row_c(i + 3) * t3;
        for (((((x, y), &a0), &a1), &a2), &a3) in left
            .iter_mut()
            .zip(right.iter_mut())
            .zip(l(i))
            .zip(l(i + 1))
            .zip(l(i + 2))
            .zip(l(i + 3))
        {
            *x -= a0 * t0 + a1 * t1 + a2 * t2 + a3 * t3;
            *y -= a0 * u0 + a1 * u1 + a2 * u2 + a3 * u3;
        }
        i += 4;
    }
    for i in i..panel {
        let (t, u) = (t(i), u(i));
        *head -= row_c(i) * t;
        for ((x, y), &a) in left.iter_mut().zip(right.iter_mut()).zip(l(i)) {
            *x -= a * t;
            *y -= a * u;
        }
    }
}

/// The multifrontal numeric factorization of `values` (in the analyzed
/// pattern) over the supernodes `sn` of `s`, writing `L` into `lx` (the
/// column layout of `s.lp`) and `D` into `d`.
pub(super) fn factor(
    s: &SymbolicAnalysis,
    sn: &Supernodes,
    values: &[f64],
    lx: &mut [f64],
    d: &mut [f64],
) -> Result<(), CircuitError> {
    // Position of each row of the current supernode in its front.
    let mut map = vec![0usize; s.n()];
    let mut front = vec![0.0f64; sn.front_len];
    // Packed lower-triangular update matrices, column-major, of the
    // supernodes in `pending`, bottom to top.
    let mut stack: Vec<f64> = Vec::with_capacity(sn.stack_len);
    let mut pending: Vec<usize> = Vec::new();
    let mut rel: Vec<usize> = Vec::new();
    for sup in 0..sn.count() {
        let first = sn.start[sup];
        let w = sn.width(sup);
        let rows = sn.rows(sup);
        let m = rows.len();
        for (pos, &row) in rows.iter().enumerate() {
            map[row] = pos;
        }
        // The dense front, column-major with leading dimension `m`; only
        // its lower triangle is read.
        let f = &mut front[..m * m];
        for j in 0..m {
            f[j * m + j..(j + 1) * m].fill(0.0);
        }

        for j in 0..w {
            let k = first + j;
            let col = s.perm[k];
            let entries = s.col_ptr[col]..s.col_ptr[col + 1];
            let column = &mut f[j * m..(j + 1) * m];
            for (&row, &value) in s.row_idx[entries.clone()].iter().zip(&values[entries]) {
                let i = s.pinv[row];
                if i >= k {
                    column[map[i]] += value;
                }
            }
        }

        for _ in 0..sn.children[sup] {
            let child = pending
                .pop()
                .expect("a supernode's children are on the stack");
            let update = &sn.rows(child)[sn.width(child)..];
            let p = update.len();
            let base = stack.len() - triangle(p);
            rel.clear();
            rel.extend(update.iter().map(|&row| map[row]));
            let mut q = base;
            for (b, &rb) in rel.iter().enumerate() {
                let column = &mut f[rb * m..(rb + 1) * m];
                for (&ra, &u) in rel[b..].iter().zip(&stack[q..q + p - b]) {
                    column[ra] += u;
                }
                q += p - b;
            }
            stack.truncate(base);
        }

        for j in 0..w {
            let (done, rest) = f.split_at_mut(j * m);
            let column = &mut rest[j..m];
            subtract_panel(done, m, j, j, column);
            let pivot = column[0];
            if !(pivot > 0.0 && pivot.is_finite()) {
                return Err(CircuitError::SingularSystem {
                    at: s.perm[first + j],
                });
            }
            for x in &mut column[1..] {
                *x /= pivot;
            }
        }
        // The update matrix, two columns at a time.
        let mut j = w;
        while j + 1 < m {
            let (done, rest) = f.split_at_mut(j * m);
            let (left, right) = rest.split_at_mut(m);
            subtract_panel_pair(done, m, w, j, &mut left[j..], &mut right[j + 1..]);
            j += 2;
        }
        if j < m {
            let (done, rest) = f.split_at_mut(j * m);
            subtract_panel(done, m, w, j, &mut rest[j..m]);
        }

        for j in 0..w {
            let k = first + j;
            d[k] = f[j * m + j];
            lx[s.lp[k]..s.lp[k + 1]].copy_from_slice(&f[j * m + j + 1..(j + 1) * m]);
        }
        if m > w {
            for j in w..m {
                stack.extend_from_slice(&f[j * m + j..(j + 1) * m]);
            }
            pending.push(sup);
        }
    }
    debug_assert!(pending.is_empty() && stack.is_empty());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossbar::CrossbarSpec;
    use crate::ldl::{analyze, SparseLdl};
    use crate::solve::{assemble_reduced, linearize, replay_rhs, source_volts, Sources};
    use crate::sparse::{CscMatrix, TripletMatrix};
    use mnsim_tech::memristor::IvModel;
    use mnsim_tech::units::{Resistance, Voltage};
    use proptest::prelude::*;
    use std::sync::Arc;

    /// Deterministic xorshift uniform in `[0, 1)`.
    fn uniform(state: &mut u64) -> f64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A symmetric diagonally dominant matrix whose graph has each edge
    /// with probability `density`: dense enough that its factor crosses
    /// the supernodal switch.
    fn dense_sdd(n: usize, density: f64, seed: u64) -> CscMatrix {
        let mut state = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
        let mut diag = vec![1e-3f64; n];
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            for j in (i + 1)..n {
                if uniform(&mut state) < density {
                    let g = 1e-4 + uniform(&mut state) * 1e-3;
                    t.add(i, j, -g);
                    t.add(j, i, -g);
                    diag[i] += g;
                    diag[j] += g;
                }
            }
        }
        for (i, &d) in diag.iter().enumerate() {
            t.add(i, i, d);
        }
        t.to_csc()
    }

    /// The reduced nodal system of a seeded `size`×`size` crossbar driven
    /// by inputs in `[0.2, 1]` V: linear cells, or the sinh Jacobian at a
    /// random operating point.
    fn crossbar_system(size: usize, sinh: bool, seed: u64) -> (CscMatrix, Vec<f64>) {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut spec = CrossbarSpec::uniform(
            size,
            size,
            Resistance::from_kilo_ohms(10.0),
            Resistance::from_ohms(1.0 + 4.0 * uniform(&mut state)),
            Resistance::from_ohms(100.0 + 900.0 * uniform(&mut state)),
            Voltage::from_volts(1.0),
        );
        for cell in &mut spec.states {
            *cell = Resistance::from_ohms(5_000.0 + 95_000.0 * uniform(&mut state));
        }
        for input in &mut spec.inputs {
            *input = Voltage::from_volts(0.2 + 0.8 * uniform(&mut state));
        }
        if sinh {
            spec.iv = IvModel::Sinh {
                alpha: 1.0 + 3.0 * uniform(&mut state),
            };
        }
        let built = spec.build().expect("valid crossbar");
        let circuit = built.circuit();
        let point: Vec<f64> = (0..circuit.node_count())
            .map(|_| uniform(&mut state))
            .collect();
        let lin = linearize(circuit, sinh.then_some(point.as_slice()));
        let sources = Sources::of(circuit);
        let drive = sources
            .drive(&source_volts(circuit))
            .expect("one source per row");
        let system = assemble_reduced(circuit, &lin, &sources);
        let b = replay_rhs(
            &system.ops,
            system.unknowns,
            &drive.voltages,
            &drive.offsets,
        );
        (system.stamps.to_csc(), b)
    }

    /// The same analysis with the up-looking kernel: a postordered
    /// permutation is as valid an ordering as any.
    fn up_looking(analysis: &SymbolicAnalysis) -> SymbolicAnalysis {
        SymbolicAnalysis {
            supernodes: None,
            ..analysis.clone()
        }
    }

    #[test]
    fn postorder_puts_children_first_and_siblings_in_order() {
        // 0 → 4, 1 → 3, 2 → 3, 3 → 4; 5 is a second root.
        let parent = [4, 3, 3, 4, NONE, NONE];
        assert_eq!(postorder(&parent), vec![0, 1, 2, 3, 4, 5]);
        let parent = [NONE, 0, 0, 1];
        assert_eq!(postorder(&parent), vec![3, 1, 2, 0]);
    }

    #[test]
    fn a_dense_matrix_is_one_supernode() {
        let _session = mnsim_obs::session();
        // Σ c² / nnz(L) of a dense order-n factor is (2n − 1) / 3.
        let n = 70;
        let a = dense_sdd(n, 1.0, 7);
        let s = analyze(&a);
        let sn = s
            .supernodes
            .as_ref()
            .expect("a dense factor is above the switch");
        assert_eq!(sn.count(), 1);
        assert_eq!(sn.rows(0), (0..n).collect::<Vec<_>>().as_slice());
        assert_eq!((sn.front_len, sn.stack_len), (n * n, 0));
        let ldl = SparseLdl::factor_with(&a, Arc::new(s.clone())).expect("SDD factors");
        assert_eq!(ldl.factor_nnz(), n * (n + 1) / 2);
    }

    #[test]
    fn disconnected_blocks_factor_as_a_forest() {
        let _session = mnsim_obs::session();
        // Two uncoupled dense blocks: two root supernodes, no update
        // matrix crosses between them.
        let n = 70;
        let block = dense_sdd(n, 1.0, 11);
        let mut t = TripletMatrix::new(2 * n, 2 * n);
        for col in 0..n {
            for k in block.col_ptr()[col]..block.col_ptr()[col + 1] {
                let (row, value) = (block.row_idx()[k], block.values()[k]);
                t.add(row, col, value);
                t.add(n + row, n + col, 2.0 * value);
            }
        }
        let a = t.to_csc();
        let s = analyze(&a);
        let sn = s
            .supernodes
            .as_ref()
            .expect("dense blocks are above the switch");
        assert_eq!(sn.count(), 2);
        let b: Vec<f64> = (0..2 * n).map(|i| i as f64 - 50.0).collect();
        let x = SparseLdl::factor_with(&a, Arc::new(s.clone()))
            .expect("SDD factors")
            .solve(&b);
        let want = SparseLdl::factor_with(&a, Arc::new(up_looking(&s)))
            .expect("SDD factors")
            .solve(&b);
        for (p, q) in x.iter().zip(&want) {
            assert!((p - q).abs() <= 1e-12 * q.abs().max(1.0), "{p} vs {q}");
        }
    }

    #[test]
    fn crossbars_switch_kernels_between_32_and_64() {
        let _session = mnsim_obs::session();
        for (size, supernodal) in [(16, false), (32, false), (64, true)] {
            let s = analyze(&crossbar_system(size, false, 3).0);
            assert_eq!(s.supernodes.is_some(), supernodal, "{size}x{size}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// On one postordered analysis, the supernodal kernel solves
        /// dense-ish SDD matrices and 64×64 crossbar systems (linear cells
        /// and sinh Jacobians) to within 1e-12 of the up-looking kernel,
        /// and both store the same number of entries.
        #[test]
        fn supernodal_solves_match_the_up_looking_kernel(
            case in 0usize..3,
            n in 120usize..200,
            density in 0.2f64..0.5,
            seed in 0u64..1_000_000,
        ) {
            let _session = mnsim_obs::session();
            let mut state = seed | 1;
            let (a, b) = match case {
                0 => {
                    let b = (0..n).map(|_| uniform(&mut state) * 2.0 - 1.0).collect();
                    (dense_sdd(n, density, seed), b)
                }
                1 => crossbar_system(64, false, seed),
                _ => crossbar_system(64, true, seed),
            };
            let analysis = analyze(&a);
            prop_assert!(analysis.supernodes.is_some(), "case {case} stayed below the switch");
            let supernodal = SparseLdl::factor_with(&a, Arc::new(analysis.clone())).expect("SDD factors");
            let reference = SparseLdl::factor_with(&a, Arc::new(up_looking(&analysis))).expect("SDD factors");
            prop_assert_eq!(supernodal.factor_nnz(), reference.factor_nnz());

            let (x, want) = (supernodal.solve(&b), reference.solve(&b));
            let scale = want.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let worst = x.iter().zip(&want).fold(0.0f64, |m, (p, q)| m.max((p - q).abs()));
            prop_assert!(
                worst <= 1e-12 * scale,
                "case {case} seed {seed}: max difference {worst:e} against {scale:e}"
            );
        }

        /// A multi-column backsolve gives every column exactly the
        /// operations of a one-column solve: `width` columns solved at
        /// once equal `width` one-column solves bit for bit, on the
        /// up-looking kernel (16×16 and 32×32 crossbars) and the
        /// supernodal one (a 64×64 crossbar and a dense SDD matrix), at
        /// widths that cross the eight-column block edge.
        #[test]
        fn multi_column_solves_equal_one_column_solves_bit_for_bit(
            case in 0usize..4,
            width in 1usize..12,
            seed in 0u64..1_000_000,
        ) {
            let _session = mnsim_obs::session();
            let (a, supernodal) = match case {
                0 => (crossbar_system(16, true, seed).0, false),
                1 => (crossbar_system(32, false, seed).0, false),
                2 => (crossbar_system(64, true, seed).0, true),
                _ => (dense_sdd(150, 0.3, seed), true),
            };
            let ldl = SparseLdl::factor(&a).expect("SDD factors");
            prop_assert_eq!(ldl.symbolic().supernodes.is_some(), supernodal, "case {}", case);
            let n = ldl.n();
            let mut state = seed | 1;
            let columns: Vec<Vec<f64>> = (0..width)
                .map(|_| (0..n).map(|_| uniform(&mut state) * 2.0 - 1.0).collect())
                .collect();
            let mut solved = columns.clone();
            let mut block: Vec<&mut [f64]> = solved.iter_mut().map(Vec::as_mut_slice).collect();
            ldl.solve_columns(&mut block);
            for (c, (column, got)) in columns.iter().zip(&solved).enumerate() {
                let want = ldl.solve(column);
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    prop_assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "case {} width {} column {} row {}", case, width, c, i
                    );
                }
            }
        }
    }
}
