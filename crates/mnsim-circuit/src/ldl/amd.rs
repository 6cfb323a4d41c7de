//! Approximate-minimum-degree fill-reducing ordering.
//!
//! A quotient-graph minimum-degree ordering in the style of
//! Amestoy–Davis–Duff AMD: eliminated pivots become *elements* whose
//! boundaries stand in for the clique their elimination would create, and
//! the degree of a variable is approximated as
//!
//! ```text
//! d(v) ≈ |A_v| + |Lp \ v| + Σ_{e ∈ elems(v), e ≠ p} |Le \ Lp|
//! ```
//!
//! capped by the number of other live variables, which the `w`-counter
//! trick evaluates in one sweep over the affected structure (no set unions
//! are ever formed). Absorbed elements (boundary fully inside the new
//! element) are removed, which bounds the quotient graph's size.
//!
//! **The selection contract.** Every pivot is the exact lexicographic
//! minimum of `(approximate degree, variable)` over the live variables, so
//! the permutation is a function of the pattern alone: it does not depend
//! on the order of any list, and the tests pin it against a reference
//! that finds the same minimum by a lazy-deletion heap. An indexed binary
//! heap keeps one entry per live variable, so a degree change is one sift
//! and an unchanged degree costs nothing.
//!
//! **Storage.** A variable's plain neighbours and its elements share one
//! segment of a flat array, sized by its degree in the input pattern: each
//! time the variable joins a new element's boundary it loses the pivot
//! from its neighbours or the pivot's element from its elements, so the
//! two lists together never outgrow the segment and are filtered in place.
//! Element boundaries live in one append-only arena, and an element is
//! named by its pivot. Indices are `u32`, ample for the largest crossbar
//! (1024×1024, about 2.1 M unknowns).
//!
//! **What is left out.** Supervariable detection, aggressive absorption
//! and mass elimination would make the ordering cheaper still, but each
//! changes which pivot is picked, and so the fill and the factor's
//! rounding: the circuit results would no longer be bit-identical to the
//! ones this ordering has always produced. Crossbar meshes have no dense
//! rows, so without them the per-pivot cost already stays proportional to
//! the touched structure.
//!
//! The ordering is *advisory*: any permutation keeps the factorization
//! correct, a poor one only costs fill.

/// Computes a fill-reducing elimination order for the symmetric pattern
/// of the `n × n` CSC matrix `(col_ptr, row_idx)`: an entry `(i, j)` also
/// stands for `(j, i)`, and diagonal and duplicate entries are ignored.
/// Returns the permutation as `order[new] = old`.
///
/// # Panics
///
/// Panics if `n` does not fit the ordering's `u32` indices.
pub(crate) fn min_degree_order(n: usize, col_ptr: &[usize], row_idx: &[usize]) -> Vec<usize> {
    debug_assert_eq!(col_ptr.len(), n + 1);
    if n <= 2 {
        return (0..n).collect();
    }
    assert!(
        u32::try_from(n).is_ok(),
        "{n} unknowns exceed the ordering's u32 indices"
    );

    // Each variable's segment of `iw`, sized by its raw count of
    // off-diagonal entries in either triangle.
    let mut start = vec![0usize; n + 1];
    for j in 0..n {
        for &i in &row_idx[col_ptr[j]..col_ptr[j + 1]] {
            if i != j {
                start[i + 1] += 1;
                start[j + 1] += 1;
            }
        }
    }
    for v in 0..n {
        start[v + 1] += start[v];
    }
    let mut iw = vec![0u32; start[n]];
    let mut next = start[..n].to_vec();
    for j in 0..n {
        for &i in &row_idx[col_ptr[j]..col_ptr[j + 1]] {
            if i != j {
                iw[next[i]] = j as u32;
                next[i] += 1;
                iw[next[j]] = i as u32;
                next[j] += 1;
            }
        }
    }

    // Timestamped scratch marks, one fresh stamp per pass.
    let mut mark = vec![0u32; n];
    let mut stamp = 0u32;

    // The quotient graph: variable `v`'s plain neighbours at
    // `iw[start[v]..][..n_adj[v]]`, its elements right after them.
    let mut n_adj = vec![0u32; n];
    let mut n_elem = vec![0u32; n];
    for v in 0..n {
        stamp += 1;
        let mut len = 0;
        for k in start[v]..start[v + 1] {
            let u = iw[k];
            if mark[u as usize] != stamp {
                mark[u as usize] = stamp;
                iw[start[v] + len] = u;
                len += 1;
            }
        }
        n_adj[v] = len as u32;
    }
    let mut heap = DegreeHeap::new(&n_adj);
    let mut eliminated = vec![false; n];

    // Elements, named by their pivot: the boundary at
    // `arena[e_start[e]..][..e_len[e]]`, and the `w` counter with the
    // stamp it was last reset under.
    let mut arena: Vec<u32> = Vec::new();
    let mut e_start = vec![0usize; n];
    let mut e_len = vec![0u32; n];
    let mut alive = vec![false; n];
    let mut w = vec![0u32; n];
    let mut w_stamp = vec![0u32; n];

    let mut order = Vec::with_capacity(n);
    while let Some(p) = heap.pop() {
        eliminated[p] = true;
        order.push(p);

        // Form the new element's boundary Lp = (A_p ∪ ⋃ Le) \ {p, eliminated}.
        stamp += 1;
        mark[p] = stamp;
        let lp_start = arena.len();
        let seg = start[p];
        let (na, ne) = (n_adj[p] as usize, n_elem[p] as usize);
        for &v in &iw[seg..seg + na] {
            if !eliminated[v as usize] && mark[v as usize] != stamp {
                mark[v as usize] = stamp;
                arena.push(v);
            }
        }
        for &e in &iw[seg + na..seg + na + ne] {
            let e = e as usize;
            if !alive[e] {
                continue;
            }
            for k in e_start[e]..e_start[e] + e_len[e] as usize {
                let v = arena[k];
                if !eliminated[v as usize] && mark[v as usize] != stamp {
                    mark[v as usize] = stamp;
                    arena.push(v);
                }
            }
            // Every parent element is absorbed into the new one.
            alive[e] = false;
        }
        let lp_end = arena.len();
        if lp_start == lp_end {
            continue;
        }

        // w-counter sweep: |Le \ Lp| for every element adjacent to Lp.
        for &v in &arena[lp_start..lp_end] {
            let seg = start[v as usize] + n_adj[v as usize] as usize;
            for &e in &iw[seg..seg + n_elem[v as usize] as usize] {
                let e = e as usize;
                if !alive[e] {
                    continue;
                }
                if w_stamp[e] != stamp {
                    w_stamp[e] = stamp;
                    w[e] = e_len[e];
                }
                w[e] -= 1;
            }
        }

        // Register the new element.
        let lp_len = lp_end - lp_start;
        e_start[p] = lp_start;
        e_len[p] = lp_len as u32;
        alive[p] = true;

        let others_live = n - order.len() - 1;
        for &v in &arena[lp_start..lp_end] {
            let v = v as usize;
            let seg = start[v];
            let (na, ne) = (n_adj[v] as usize, n_elem[v] as usize);

            // Prune plain edges now covered by the new element (members of
            // Lp and the pivot itself), drop edges to eliminated variables.
            let mut kept_adj = 0;
            for k in seg..seg + na {
                let u = iw[k];
                if !eliminated[u as usize] && mark[u as usize] != stamp {
                    iw[seg + kept_adj] = u;
                    kept_adj += 1;
                }
            }

            // Drop dead elements, absorb those fully covered by Lp, and
            // move the survivors down behind the pruned neighbours.
            let mut kept_elem = 0;
            let mut boundary_sum = 0usize;
            for k in seg + na..seg + na + ne {
                let e = iw[k];
                if !alive[e as usize] {
                    continue;
                }
                // The sweep above reset every live element of `v`.
                debug_assert_eq!(w_stamp[e as usize], stamp);
                if w[e as usize] == 0 {
                    alive[e as usize] = false;
                    continue;
                }
                boundary_sum += w[e as usize] as usize;
                iw[seg + kept_adj + kept_elem] = e;
                kept_elem += 1;
            }
            // Joining Lp cost `v` the pivot or one of the pivot's elements,
            // so the new element fits; a miss would overwrite a neighbour's
            // segment.
            assert!(
                seg + kept_adj + kept_elem < start[v + 1],
                "variable {v} outgrew its segment"
            );
            iw[seg + kept_adj + kept_elem] = p as u32;
            n_adj[v] = kept_adj as u32;
            n_elem[v] = kept_elem as u32 + 1;

            // Approximate external degree, capped by the live count.
            heap.set(v, (kept_adj + (lp_len - 1) + boundary_sum).min(others_live));
        }
    }

    order
}

/// A binary min-heap of the live variables keyed on `(degree, variable)`,
/// packed into one `u64` so the key order is the lexicographic one, with
/// each variable's position tracked for in-place degree updates.
struct DegreeHeap {
    keys: Vec<u64>,
    /// Position of each variable in `keys`.
    slot: Vec<u32>,
}

impl DegreeHeap {
    /// A heap holding every variable `v` at degree `degrees[v]`.
    fn new(degrees: &[u32]) -> Self {
        let keys: Vec<u64> = degrees
            .iter()
            .enumerate()
            .map(|(v, &d)| key(d as usize, v))
            .collect();
        let mut heap = DegreeHeap {
            slot: (0..keys.len() as u32).collect(),
            keys,
        };
        for i in (0..heap.keys.len() / 2).rev() {
            heap.sift_down(i);
        }
        heap
    }

    /// Removes and returns the variable with the smallest key.
    fn pop(&mut self) -> Option<usize> {
        let last = self.keys.pop()?;
        let Some(first) = self.keys.first_mut() else {
            return Some(variable(last));
        };
        let top = std::mem::replace(first, last);
        self.sift_down(0);
        Some(variable(top))
    }

    /// Sets the degree of live variable `v`.
    fn set(&mut self, v: usize, degree: usize) {
        let i = self.slot[v] as usize;
        let (old, new) = (self.keys[i], key(degree, v));
        self.keys[i] = new;
        if new < old {
            self.sift_up(i);
        } else if new > old {
            self.sift_down(i);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        let moving = self.keys[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.keys[parent] <= moving {
                break;
            }
            self.place(i, self.keys[parent]);
            i = parent;
        }
        self.place(i, moving);
    }

    fn sift_down(&mut self, mut i: usize) {
        let moving = self.keys[i];
        let len = self.keys.len();
        loop {
            let left = 2 * i + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && self.keys[right] < self.keys[left] {
                right
            } else {
                left
            };
            if self.keys[child] >= moving {
                break;
            }
            self.place(i, self.keys[child]);
            i = child;
        }
        self.place(i, moving);
    }

    fn place(&mut self, i: usize, key: u64) {
        self.keys[i] = key;
        self.slot[variable(key)] = i as u32;
    }
}

fn key(degree: usize, v: usize) -> u64 {
    ((degree as u64) << 32) | v as u64
}

fn variable(key: u64) -> usize {
    (key & u64::from(u32::MAX)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The lazy-deletion ordering this module's ordering replaced, kept as
    /// the reference its permutations must equal: the heap holds
    /// `(degree, v)` for every live `v` and skips stale entries, so each
    /// pop is the lexicographic minimum of `(degree, v)`.
    fn reference_order(n: usize, adj_in: &[Vec<usize>]) -> Vec<usize> {
        if n <= 2 {
            return (0..n).collect();
        }
        let mut adj: Vec<Vec<usize>> = adj_in
            .iter()
            .enumerate()
            .map(|(v, nbrs)| {
                let mut list: Vec<usize> = nbrs.iter().copied().filter(|&u| u != v).collect();
                list.sort_unstable();
                list.dedup();
                list
            })
            .collect();
        let mut elems: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut element_vars: Vec<Vec<usize>> = Vec::new();
        let mut element_alive: Vec<bool> = Vec::new();
        let mut degree: Vec<usize> = adj.iter().map(Vec::len).collect();
        let mut eliminated = vec![false; n];
        let mut heap: BinaryHeap<Reverse<(usize, usize)>> = BinaryHeap::with_capacity(2 * n);
        for (v, &d) in degree.iter().enumerate() {
            heap.push(Reverse((d, v)));
        }
        let mut mark = vec![0u64; n];
        let mut stamp = 0u64;
        let mut elem_w: Vec<usize> = Vec::new();
        let mut elem_stamp: Vec<u64> = Vec::new();
        let mut order = Vec::with_capacity(n);
        while order.len() < n {
            let p = loop {
                let Reverse((d, v)) = heap.pop().expect("heap never empties before n pivots");
                if !eliminated[v] && degree[v] == d {
                    break v;
                }
            };
            eliminated[p] = true;
            order.push(p);
            stamp += 1;
            mark[p] = stamp;
            let mut lp: Vec<usize> = Vec::new();
            for &v in &adj[p] {
                if !eliminated[v] && mark[v] != stamp {
                    mark[v] = stamp;
                    lp.push(v);
                }
            }
            for &e in &elems[p] {
                if !element_alive[e] {
                    continue;
                }
                for &v in &element_vars[e] {
                    if !eliminated[v] && mark[v] != stamp {
                        mark[v] = stamp;
                        lp.push(v);
                    }
                }
                element_alive[e] = false;
            }
            if lp.is_empty() {
                continue;
            }
            for &v in &lp {
                for &e in &elems[v] {
                    if !element_alive[e] {
                        continue;
                    }
                    if elem_stamp[e] != stamp {
                        elem_stamp[e] = stamp;
                        elem_w[e] = element_vars[e].len();
                    }
                    elem_w[e] -= 1;
                }
            }
            let e_new = element_vars.len();
            element_vars.push(lp.clone());
            element_alive.push(true);
            elem_w.push(0);
            elem_stamp.push(0);
            let lp_len = lp.len();
            for &v in &lp {
                adj[v].retain(|&u| !eliminated[u] && mark[u] != stamp);
                let mut kept = Vec::with_capacity(elems[v].len() + 1);
                let mut boundary_sum = 0usize;
                for &e in &elems[v] {
                    if !element_alive[e] {
                        continue;
                    }
                    if elem_stamp[e] == stamp && elem_w[e] == 0 {
                        element_alive[e] = false;
                        continue;
                    }
                    boundary_sum += if elem_stamp[e] == stamp {
                        elem_w[e]
                    } else {
                        element_vars[e].len().saturating_sub(1)
                    };
                    kept.push(e);
                }
                kept.push(e_new);
                elems[v] = kept;
                let d = (adj[v].len() + (lp_len - 1) + boundary_sum).min(n - order.len() - 1);
                degree[v] = d;
                heap.push(Reverse((d, v)));
            }
        }
        order
    }

    /// CSC pattern of the `(row, col)` entries, in the order given, with
    /// whatever duplicates, diagonal entries and asymmetry they carry.
    fn csc_pattern(n: usize, entries: &[(usize, usize)]) -> (Vec<usize>, Vec<usize>) {
        let mut col_ptr = vec![0usize; n + 1];
        for &(_, c) in entries {
            col_ptr[c + 1] += 1;
        }
        for c in 0..n {
            col_ptr[c + 1] += col_ptr[c];
        }
        let mut next = col_ptr.clone();
        let mut row_idx = vec![0usize; entries.len()];
        for &(r, c) in entries {
            row_idx[next[c]] = r;
            next[c] += 1;
        }
        (col_ptr, row_idx)
    }

    /// The adjacency lists the reference ordering was fed from a CSC
    /// pattern: every off-diagonal entry in both directions.
    fn adjacency(n: usize, col_ptr: &[usize], row_idx: &[usize]) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); n];
        for j in 0..n {
            for &i in &row_idx[col_ptr[j]..col_ptr[j + 1]] {
                if i != j {
                    adj[i].push(j);
                    adj[j].push(i);
                }
            }
        }
        adj
    }

    /// Orders the pattern both ways and asserts the permutations agree.
    fn assert_matches_reference(n: usize, entries: &[(usize, usize)], what: &str) -> Vec<usize> {
        let (col_ptr, row_idx) = csc_pattern(n, entries);
        let order = min_degree_order(n, &col_ptr, &row_idx);
        let want = reference_order(n, &adjacency(n, &col_ptr, &row_idx));
        assert_eq!(
            order, want,
            "{what}: permutation differs from the reference"
        );
        order
    }

    fn undirected(edges: &[(usize, usize)]) -> Vec<(usize, usize)> {
        edges.iter().flat_map(|&(a, b)| [(a, b), (b, a)]).collect()
    }

    fn path_graph(n: usize) -> Vec<(usize, usize)> {
        undirected(&(1..n).map(|i| (i - 1, i)).collect::<Vec<_>>())
    }

    fn is_permutation(order: &[usize], n: usize) -> bool {
        let mut seen = vec![false; n];
        order.len() == n
            && order.iter().all(|&v| {
                if v < n && !seen[v] {
                    seen[v] = true;
                    true
                } else {
                    false
                }
            })
    }

    #[test]
    fn path_graph_orders_all_vertices() {
        let order = assert_matches_reference(7, &path_graph(7), "path");
        assert!(is_permutation(&order, 7));
        // Endpoints have degree 1 and must be eliminated before any interior
        // vertex of the initial graph.
        assert!(order[0] == 0 || order[0] == 6);
    }

    #[test]
    fn star_center_outlasts_most_leaves() {
        // Star: center 0 adjacent to all leaves. The center's degree equals
        // the number of remaining leaves, so it cannot be picked while two
        // or more leaves survive (its degree only ties a leaf's at 1).
        let n = 9;
        let star: Vec<(usize, usize)> = (1..n).map(|leaf| (0, leaf)).collect();
        let order = assert_matches_reference(n, &undirected(&star), "star");
        assert!(is_permutation(&order, n));
        let center_pos = order.iter().position(|&v| v == 0).unwrap();
        assert!(
            center_pos >= n - 2,
            "center eliminated at {center_pos} of {n}"
        );
    }

    #[test]
    fn disconnected_and_isolated_vertices_covered() {
        // Two components + an isolated vertex: the output must still be a
        // full permutation, isolated vertex first (degree 0).
        let order = assert_matches_reference(5, &undirected(&[(0, 1), (3, 4)]), "components");
        assert!(is_permutation(&order, 5));
        assert_eq!(order[0], 2);
    }

    #[test]
    fn grid_ordering_is_a_permutation() {
        // 8×8 grid graph — the crossbar-like case.
        let side = 8;
        let mut edges = Vec::new();
        for r in 0..side {
            for c in 0..side {
                let v = r * side + c;
                if c + 1 < side {
                    edges.push((v, v + 1));
                }
                if r + 1 < side {
                    edges.push((v, v + side));
                }
            }
        }
        let order = assert_matches_reference(side * side, &undirected(&edges), "grid");
        assert!(is_permutation(&order, side * side));
    }

    /// A seeded random pattern mixing the shapes that stress the
    /// selection rule: isolated vertices, duplicate and diagonal entries,
    /// one-directional entries, disconnected parts, stars, paths, cliques
    /// and many equal degrees.
    fn random_pattern(rng: &mut StdRng) -> (usize, Vec<(usize, usize)>) {
        let n = rng.gen_range(0usize..80);
        let mut entries = Vec::new();
        if n == 0 {
            return (n, entries);
        }
        for _ in 0..rng.gen_range(0usize..6) {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            match rng.gen_range(0u32..6) {
                // A star around `a` over a stride of vertices.
                0 => {
                    let stride = rng.gen_range(1..n.max(2));
                    entries.extend((b..n).step_by(stride).map(|leaf| (a, leaf)));
                }
                // A path from `a` up to `b`.
                1 => entries.extend((a.min(b)..a.max(b)).map(|i| (i, i + 1))),
                // A small clique.
                2 => {
                    let members: Vec<usize> = (0..rng.gen_range(2usize..6))
                        .map(|_| rng.gen_range(0..n))
                        .collect();
                    for &x in &members {
                        entries.extend(members.iter().map(|&y| (x, y)));
                    }
                }
                // A cycle over a block.
                3 => {
                    let hi = a.max(b);
                    let lo = a.min(b);
                    entries.extend((lo..hi).map(|i| (i, i + 1)));
                    entries.push((hi, lo));
                }
                // Scattered edges, some repeated.
                _ => {
                    for _ in 0..rng.gen_range(0..2 * n) {
                        let e = (rng.gen_range(0..n), rng.gen_range(0..n));
                        entries.push(e);
                        if rng.gen_bool(0.2) {
                            entries.push(e);
                        }
                    }
                }
            }
        }
        // Diagonal entries on a few vertices.
        for _ in 0..rng.gen_range(0..n) {
            let v = rng.gen_range(0..n);
            entries.push((v, v));
        }
        // Mostly symmetric, sometimes one triangle only: the ordering
        // symmetrizes either way.
        if rng.gen_bool(0.7) {
            entries = undirected(&entries);
        }
        (n, entries)
    }

    #[test]
    fn random_patterns_match_the_reference() {
        let mut rng = StdRng::seed_from_u64(0x5eed_a11d);
        for case in 0..400 {
            let (n, entries) = random_pattern(&mut rng);
            let order = assert_matches_reference(n, &entries, &format!("case {case} (n = {n})"));
            assert!(is_permutation(&order, n), "case {case}");
        }
    }

    #[test]
    fn crossbar_patterns_match_the_reference() {
        let _session = mnsim_obs::session();
        use crate::crossbar::CrossbarSpec;
        use crate::mna::Element;
        use crate::solve::{assemble_reduced, linearize};
        use mnsim_tech::units::{Resistance, Voltage};

        for size in [16usize, 32, 64, 128] {
            let built = CrossbarSpec::uniform(
                size,
                size,
                Resistance::from_kilo_ohms(10.0),
                Resistance::from_ohms(2.5),
                Resistance::from_ohms(500.0),
                Voltage::from_volts(0.5),
            )
            .build()
            .expect("valid crossbar");
            let circuit = built.circuit();
            let mut is_driven = vec![false; circuit.node_count()];
            for element in circuit.elements() {
                if let Element::VoltageSource { npos, .. } = element {
                    is_driven[*npos] = true;
                }
            }
            let system = assemble_reduced(circuit, &linearize(circuit, None), &is_driven);
            let csc = system.stamps.to_csc();
            let n = csc.cols();
            let order = min_degree_order(n, csc.col_ptr(), csc.row_idx());
            let want = reference_order(n, &adjacency(n, csc.col_ptr(), csc.row_idx()));
            assert_eq!(order, want, "{size}×{size} crossbar");
        }
    }
}
