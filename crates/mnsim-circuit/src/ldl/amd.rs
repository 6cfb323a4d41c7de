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
//! which the `w`-counter trick evaluates in one sweep over the affected
//! structure (no set unions are ever formed). Supervariable detection and
//! aggressive absorption are omitted — crossbar meshes have no dense rows,
//! so the simple variant already keeps the per-pivot cost proportional to
//! the touched structure. Absorbed elements (boundary fully inside the new
//! element) are removed, which bounds the quotient graph's size.
//!
//! The ordering is *advisory*: any permutation keeps the factorization
//! correct, a poor one only costs fill. The structural contract (output is
//! a permutation of `0..n`) is what [`crate::ldl`]'s tests pin.

use std::collections::BinaryHeap;
use std::cmp::Reverse;

/// Computes a fill-reducing elimination order for a symmetric sparsity
/// pattern given as an adjacency list (self-loops ignored, must be
/// symmetric). Returns the permutation as `order[new] = old`.
pub(crate) fn min_degree_order(n: usize, adj_in: &[Vec<usize>]) -> Vec<usize> {
    debug_assert_eq!(adj_in.len(), n);
    if n <= 2 {
        return (0..n).collect();
    }

    // Quotient graph: per-variable plain neighbors + element memberships.
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

    // Lazy-deletion min-heap of (degree, variable); stale entries are
    // skipped on pop. Tie-break on the variable id keeps the order fully
    // deterministic.
    let mut heap: BinaryHeap<Reverse<(usize, usize)>> = BinaryHeap::with_capacity(2 * n);
    for (v, &d) in degree.iter().enumerate() {
        heap.push(Reverse((d, v)));
    }

    // Timestamped scratch marks.
    let mut mark = vec![0u64; n];
    let mut stamp = 0u64;
    let mut elem_w: Vec<usize> = Vec::new();
    let mut elem_stamp: Vec<u64> = Vec::new();

    let mut order = Vec::with_capacity(n);

    while order.len() < n {
        // Pick the minimum-degree uneliminated variable.
        let p = loop {
            let Reverse((d, v)) = heap.pop().expect("heap never empties before n pivots");
            if !eliminated[v] && degree[v] == d {
                break v;
            }
        };
        eliminated[p] = true;
        order.push(p);

        // Form the new element's boundary Lp = (A_p ∪ ⋃ Le) \ {p, eliminated}.
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
            // Every parent element is absorbed into the new one.
            element_alive[e] = false;
        }
        if lp.is_empty() {
            continue;
        }

        // w-counter sweep: |Le \ Lp| for every element adjacent to Lp.
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

        // Register the new element.
        let e_new = element_vars.len();
        element_vars.push(lp.clone());
        element_alive.push(true);
        elem_w.push(0);
        elem_stamp.push(0);

        let lp_len = lp.len();
        for &v in &lp {
            // Prune plain edges now covered by the new element (members of
            // Lp and the pivot itself), drop edges to eliminated variables.
            adj[v].retain(|&u| !eliminated[u] && mark[u] != stamp);

            // Drop dead elements; absorb those fully covered by Lp.
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

            // Approximate external degree, capped by the live count.
            let d = (adj[v].len() + (lp_len - 1) + boundary_sum).min(n - order.len() - 1);
            degree[v] = d;
            heap.push(Reverse((d, v)));
        }
    }

    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Vec<Vec<usize>> {
        (0..n)
            .map(|i| {
                let mut nbrs = Vec::new();
                if i > 0 {
                    nbrs.push(i - 1);
                }
                if i + 1 < n {
                    nbrs.push(i + 1);
                }
                nbrs
            })
            .collect()
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
        let order = min_degree_order(7, &path_graph(7));
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
        let mut adj = vec![Vec::new(); n];
        for leaf in 1..n {
            adj[0].push(leaf);
            adj[leaf].push(0);
        }
        let order = min_degree_order(n, &adj);
        assert!(is_permutation(&order, n));
        let center_pos = order.iter().position(|&v| v == 0).unwrap();
        assert!(center_pos >= n - 2, "center eliminated at {center_pos} of {n}");
    }

    #[test]
    fn disconnected_and_isolated_vertices_covered() {
        // Two components + an isolated vertex: the output must still be a
        // full permutation, isolated vertex first (degree 0).
        let mut adj = vec![Vec::new(); 5];
        adj[0].push(1);
        adj[1].push(0);
        adj[3].push(4);
        adj[4].push(3);
        let order = min_degree_order(5, &adj);
        assert!(is_permutation(&order, 5));
        assert_eq!(order[0], 2);
    }

    #[test]
    fn grid_ordering_is_a_permutation() {
        // 8×8 grid graph — the crossbar-like case.
        let side = 8;
        let n = side * side;
        let mut adj = vec![Vec::new(); n];
        for r in 0..side {
            for c in 0..side {
                let v = r * side + c;
                if c + 1 < side {
                    adj[v].push(v + 1);
                    adj[v + 1].push(v);
                }
                if r + 1 < side {
                    adj[v].push(v + side);
                    adj[v + side].push(v);
                }
            }
        }
        let order = min_degree_order(n, &adj);
        assert!(is_permutation(&order, n));
    }
}
