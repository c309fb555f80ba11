//! Kuhn–Munkres (Hungarian) algorithm for maximum-weight bipartite
//! matching, `O(n³)`.

use crate::graph::{BipartiteGraph, Edge};
use crate::scratch::KmScratch;

/// Solves maximum-weight matching on `graph` exactly.
///
/// The paper notes "KM algorithm requires a complete bipartite graph … we
/// can add dummy points and set the weight of their corresponding edges to
/// be zero". We do exactly that: node ids are compacted, the smaller side
/// becomes the rows, missing edges get weight 0, and the potential-based
/// `O(n³)` assignment solver runs on the resulting complete rectangular
/// matrix. Zero-weight assignments (dummies / non-edges) are dropped from
/// the returned matching, so only genuine field pairs appear. The
/// pipeline calls [`km_into`] per component; this form serves the tests.
#[cfg(test)]
pub(crate) fn kuhn_munkres(graph: &BipartiteGraph) -> crate::Matching {
    let mut edges: Vec<Edge> = Vec::new();
    km_into(graph, &mut KmScratch::default(), &mut edges);
    crate::Matching::from_edges(edges)
}

/// The scratch-backed solver core. **Appends** matched edges to `out` in
/// column order of the internal assignment (deterministic for a given
/// graph, but not sorted) — callers wanting `(left, right)` order sort
/// afterwards.
pub(crate) fn km_into(graph: &BipartiteGraph, s: &mut KmScratch, out: &mut Vec<Edge>) {
    graph.left_nodes_into(&mut s.lefts);
    graph.right_nodes_into(&mut s.rights);
    if s.lefts.is_empty() || s.rights.is_empty() {
        return;
    }

    // Rows must be the smaller side for the assignment solver.
    let transpose = s.lefts.len() > s.rights.len();
    let (n, m) = if transpose {
        (s.rights.len(), s.lefts.len())
    } else {
        (s.lefts.len(), s.rights.len())
    };
    // `(left, right)` node ids of the cell at row i, column j (1-indexed).
    let cell = |s: &KmScratch, i: usize, j: usize| -> (u32, u32) {
        if transpose {
            (s.lefts[j - 1], s.rights[i - 1])
        } else {
            (s.lefts[i - 1], s.rights[j - 1])
        }
    };

    // Cost matrix (minimization): cost = -weight; absent edges cost 0.
    // Stored flat, row-major, (n+1) × (m+1) with the 0 row/column the
    // algorithm's virtual slots.
    let width = m + 1;
    s.cost.clear();
    s.cost.resize((n + 1) * width, 0.0);
    for i in 1..=n {
        for j in 1..=m {
            let (l, r) = cell(s, i, j);
            s.cost[i * width + j] = -graph.weight(l, r).unwrap_or(0.0);
        }
    }

    // Potential-based assignment (e-maxx formulation), 1-indexed.
    let inf = f64::INFINITY;
    s.u.clear();
    s.u.resize(n + 1, 0.0);
    s.v.clear();
    s.v.resize(m + 1, 0.0);
    s.p.clear();
    s.p.resize(m + 1, 0); // p[j] = row assigned to column j
    s.way.clear();
    s.way.resize(m + 1, 0);
    for i in 1..=n {
        s.p[0] = i;
        let mut j0 = 0usize;
        s.minv.clear();
        s.minv.resize(m + 1, inf);
        s.used.clear();
        s.used.resize(m + 1, false);
        loop {
            s.used[j0] = true;
            let i0 = s.p[j0];
            let mut delta = inf;
            let mut j1 = 0usize;
            for j in 1..=m {
                if !s.used[j] {
                    let cur = s.cost[i0 * width + j] - s.u[i0] - s.v[j];
                    if cur < s.minv[j] {
                        s.minv[j] = cur;
                        s.way[j] = j0;
                    }
                    if s.minv[j] < delta {
                        delta = s.minv[j];
                        j1 = j;
                    }
                }
            }
            for j in 0..=m {
                if s.used[j] {
                    s.u[s.p[j]] += delta;
                    s.v[j] -= delta;
                } else {
                    s.minv[j] -= delta;
                }
            }
            j0 = j1;
            if s.p[j0] == 0 {
                break;
            }
        }
        // Augment along the alternating path.
        loop {
            let j1 = s.way[j0];
            s.p[j0] = s.p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    for j in 1..=m {
        let i = s.p[j];
        if i == 0 {
            continue;
        }
        let (left, right) = cell(s, i, j);
        if let Some(w) = graph.weight(left, right) {
            if w > 0.0 {
                out.push(Edge {
                    left,
                    right,
                    weight: w,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force_matching;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn g(edges: &[(u32, u32, f64)]) -> BipartiteGraph {
        let mut gr = BipartiteGraph::new();
        for &(l, r, w) in edges {
            gr.add_edge(l, r, w);
        }
        gr
    }

    #[test]
    fn empty() {
        assert!(kuhn_munkres(&BipartiteGraph::new()).is_empty());
    }

    #[test]
    fn square_exact() {
        // Classic 3x3 assignment.
        let m = kuhn_munkres(&g(&[
            (0, 0, 0.1),
            (0, 1, 0.6),
            (0, 2, 0.3),
            (1, 0, 0.7),
            (1, 1, 0.2),
            (1, 2, 0.4),
            (2, 0, 0.3),
            (2, 1, 0.9),
            (2, 2, 0.8),
        ]));
        // Optimal: (0,1)=0.6 + (1,0)=0.7 + (2,2)=0.8 = 2.1.
        assert!((m.weight - 2.1).abs() < 1e-9, "got {}", m.weight);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn rectangular_wide() {
        // 1 left node, 3 right nodes: picks the heaviest.
        let m = kuhn_munkres(&g(&[(0, 0, 0.2), (0, 1, 0.8), (0, 2, 0.5)]));
        assert_eq!(m.len(), 1);
        assert_eq!(m.edges[0].right, 1);
    }

    #[test]
    fn rectangular_tall() {
        // 3 left nodes contend for 1 right node (transposed path).
        let m = kuhn_munkres(&g(&[(0, 0, 0.2), (1, 0, 0.8), (2, 0, 0.5)]));
        assert_eq!(m.len(), 1);
        assert_eq!(m.edges[0].left, 1);
    }

    #[test]
    fn leaving_a_node_unmatched_can_be_optimal() {
        // Matching (0,0) blocks both cheaper alternatives: optimal takes
        // the single heavy edge and leaves node 1 unmatched when forced:
        // edges: (0,0,1.0), (1,0,0.9). Max matching = 1.0.
        let m = kuhn_munkres(&g(&[(0, 0, 1.0), (1, 0, 0.9)]));
        assert_eq!(m.len(), 1);
        assert!((m.weight - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sparse_graph_never_invents_edges() {
        let m = kuhn_munkres(&g(&[(0, 1, 0.5), (1, 0, 0.5)]));
        for e in &m.edges {
            assert!(g(&[(0, 1, 0.5), (1, 0, 0.5)])
                .weight(e.left, e.right)
                .is_some());
        }
        assert!((m.weight - 1.0).abs() < 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]
        #[test]
        fn km_equals_brute_force(seed in any::<u64>(), n_edges in 0usize..12) {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut gr = BipartiteGraph::new();
            let mut seen = std::collections::HashSet::new();
            for _ in 0..n_edges {
                let l = rng.gen_range(0..5u32);
                let r = rng.gen_range(0..5u32);
                if seen.insert((l, r)) {
                    gr.add_edge(l, r, rng.gen_range(1..=100) as f64 / 100.0);
                }
            }
            let km = kuhn_munkres(&gr);
            let oracle = brute_force_matching(&gr);
            prop_assert!((km.weight - oracle.weight).abs() < 1e-9,
                "km {} vs oracle {}", km.weight, oracle.weight);
        }

        /// The result is always a valid matching over existing edges.
        #[test]
        fn km_result_is_valid(seed in any::<u64>()) {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut gr = BipartiteGraph::new();
            for _ in 0..15 {
                gr.add_edge(rng.gen_range(0..6), rng.gen_range(0..6), rng.gen_range(0.01..1.0));
            }
            let m = kuhn_munkres(&gr);
            // One-to-one (checked by Matching::from_edges in debug) and
            // edges exist in the graph with the same weight.
            for e in &m.edges {
                prop_assert_eq!(gr.weight(e.left, e.right), Some(e.weight));
            }
        }
    }
}
