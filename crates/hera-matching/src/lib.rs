//! Bipartite maximum-weight matching — the engine behind HERA's field
//! matching (Definition 8).
//!
//! The paper reduces "which field of `R_i` corresponds to which field of
//! `R_j`" to a maximum-weight matching in a bipartite graph whose nodes are
//! fields and whose edge weights are field similarities. This crate
//! implements the full pipeline of §IV-A:
//!
//! 1. [`BipartiteGraph`] — build the graph from weighted `(left, right)`
//!    pairs;
//! 2. [`max_weight_matching_observed`] — the composed solver: it peels off
//!    *mapped edges* whose two endpoints both have degree one (Theorem 1:
//!    they belong to some maximum matching, since all weights are
//!    positive), splits the simplified graph into connected components (a
//!    maximum matching of a disjoint union is the union of per-component
//!    maximum matchings), and runs the Hungarian algorithm (`O(m³)`) per
//!    component, with dummy padding to a complete square matrix as the
//!    paper prescribes; [`max_weight_matching`] returns its [`Matching`];
//! 3. [`greedy_matching_into`] — sort-by-weight maximal matching, used by
//!    the index's *sound* lower bound and as an ablation baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod graph;
mod greedy;
mod hungarian;
mod scratch;

pub use graph::{BipartiteGraph, Edge, Matching};
#[cfg(test)]
pub(crate) use greedy::greedy_matching;
pub use greedy::greedy_matching_into;
#[cfg(test)]
pub(crate) use hungarian::kuhn_munkres;
pub use scratch::MatchScratch;

#[cfg(test)]
mod outcome_tests {
    use super::*;

    #[test]
    fn outcome_reports_structure() {
        let mut gr = BipartiteGraph::new();
        gr.add_edge(9, 9, 0.5); // isolated: peeled by Theorem 1
        gr.add_edge(0, 0, 0.9); // contested triangle: one component
        gr.add_edge(0, 1, 0.8);
        gr.add_edge(1, 0, 0.8);
        gr.add_edge(5, 5, 0.7); // second isolated edge
        let mut scratch = MatchScratch::new();
        let mut out = Vec::new();
        let o = max_weight_matching_observed(&gr, &mut scratch, &mut out);
        assert_eq!(o.mapped_edges, 2);
        assert_eq!(o.components, 1);
        assert_eq!(o.simplified_nodes, 4);
        assert_eq!(
            max_weight_matching_observed(&gr, &mut scratch, &mut Vec::new()).simplified_nodes,
            o.simplified_nodes
        );
    }

    #[test]
    fn empty_graph_outcome_is_zero() {
        let gr = BipartiteGraph::new();
        let mut out = Vec::new();
        let o = max_weight_matching_observed(&gr, &mut MatchScratch::new(), &mut out);
        assert_eq!(o, MatchOutcome::default());
        assert!(out.is_empty());
    }
}

/// Solves maximum-weight bipartite matching with the paper's full pipeline:
/// simplification, component decomposition, and Kuhn–Munkres per component.
///
/// Returns the matching together with the number of nodes that survived
/// simplification (the paper's `m̄` statistic is the average of
/// `simplified_nodes` over all verifications).
pub fn max_weight_matching(graph: &BipartiteGraph) -> Matching {
    let mut edges: Vec<Edge> = Vec::new();
    let outcome = max_weight_matching_observed(graph, &mut MatchScratch::new(), &mut edges);
    let mut m = Matching::from_edges(edges);
    m.simplified_nodes = outcome.simplified_nodes;
    m
}

/// Structural telemetry of one matching run — the per-verification
/// numbers behind the paper's `m̄` statistic and the observability
/// layer's verify spans. All counts are deterministic functions of the
/// input graph.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchOutcome {
    /// Nodes that survived Theorem-1 simplification (the `m̄` input).
    pub simplified_nodes: usize,
    /// Edges peeled directly by Theorem 1 (both endpoints degree one).
    pub mapped_edges: usize,
    /// Connected components the contested remainder split into (one
    /// Kuhn–Munkres invocation each).
    pub components: usize,
}

/// Fully scratch-backed pipeline: **appends** the matched edges to `out`
/// (mapped edges first, then per-component Kuhn–Munkres results; not
/// sorted) and returns the run's structural telemetry.
///
/// This is the zero-allocation entry point the verifier's hot loop uses:
/// simplification, component decomposition, and the Hungarian solver all
/// run on pooled buffers inside `scratch`.
pub fn max_weight_matching_observed(
    graph: &BipartiteGraph,
    scratch: &mut MatchScratch,
    out: &mut Vec<Edge>,
) -> MatchOutcome {
    let scratch::MatchScratch {
        edges,
        deg_l,
        deg_r,
        key_of,
        parent,
        comp_of_root,
        comps,
        km,
        ..
    } = scratch;
    graph.edges_into(edges);
    deg_l.clear();
    deg_r.clear();
    for e in edges.iter() {
        *deg_l.entry(e.left).or_insert(0) += 1;
        *deg_r.entry(e.right).or_insert(0) += 1;
    }

    // Theorem-1 peeling fused with the component union–find: mapped edges
    // (both endpoints degree one) go straight to `out`; contested edges
    // are interned for component decomposition.
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    key_of.clear();
    parent.clear();
    let mut mapped_count = 0usize;
    for e in edges.iter() {
        if deg_l[&e.left] == 1 && deg_r[&e.right] == 1 {
            out.push(*e);
            mapped_count += 1;
            continue;
        }
        let mut intern = |key: (bool, u32)| -> usize {
            *key_of.entry(key).or_insert_with(|| {
                parent.push(parent.len());
                parent.len() - 1
            })
        };
        let l = intern((false, e.left));
        let r = intern((true, e.right));
        let (rl, rr) = (find(parent, l), find(parent, r));
        if rl != rr {
            parent[rl] = rr;
        }
    }
    // Every mapped edge retires one (otherwise untouched) node per side,
    // so the contested remainder has these many distinct nodes.
    let simplified_nodes = deg_l.len() + deg_r.len() - 2 * mapped_count;

    // Group contested edges into pooled component graphs, components in
    // first-seen edge order.
    comp_of_root.clear();
    let mut n_comps = 0usize;
    for e in edges.iter() {
        if deg_l[&e.left] == 1 && deg_r[&e.right] == 1 {
            continue;
        }
        let root = find(parent, key_of[&(false, e.left)]);
        let idx = *comp_of_root.entry(root).or_insert_with(|| {
            if comps.len() == n_comps {
                comps.push(BipartiteGraph::new());
            }
            comps[n_comps].clear();
            n_comps += 1;
            n_comps - 1
        });
        comps[idx].add_edge(e.left, e.right, e.weight);
    }

    for comp in comps[..n_comps].iter() {
        hungarian::km_into(comp, km, out);
    }
    MatchOutcome {
        simplified_nodes,
        mapped_edges: mapped_count,
        components: n_comps,
    }
}

/// Exhaustive maximum-weight matching by branch-and-bound enumeration.
/// Exponential; used as a test oracle and exposed for the correctness
/// benches. Panics if the graph has more than 20 edges.
pub fn brute_force_matching(graph: &BipartiteGraph) -> Matching {
    let edges = graph.edges();
    assert!(
        edges.len() <= 20,
        "brute force oracle limited to 20 edges, got {}",
        edges.len()
    );
    fn rec(
        edges: &[Edge],
        idx: usize,
        used_l: &mut Vec<u32>,
        used_r: &mut Vec<u32>,
        picked: &mut Vec<Edge>,
        best: &mut (f64, Vec<Edge>),
    ) {
        if idx == edges.len() {
            let w: f64 = picked.iter().map(|e| e.weight).sum();
            if w > best.0 {
                *best = (w, picked.clone());
            }
            return;
        }
        let e = edges[idx];
        // Skip edge idx.
        rec(edges, idx + 1, used_l, used_r, picked, best);
        // Take edge idx if endpoints are free.
        if !used_l.contains(&e.left) && !used_r.contains(&e.right) {
            used_l.push(e.left);
            used_r.push(e.right);
            picked.push(e);
            rec(edges, idx + 1, used_l, used_r, picked, best);
            picked.pop();
            used_l.pop();
            used_r.pop();
        }
    }
    let mut best = (f64::NEG_INFINITY, Vec::new());
    rec(
        &edges,
        0,
        &mut Vec::new(),
        &mut Vec::new(),
        &mut Vec::new(),
        &mut best,
    );
    if best.1.is_empty() && best.0 < 0.0 {
        best = (0.0, Vec::new());
    }
    Matching::from_edges(best.1)
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn empty_graph() {
        let m = max_weight_matching(&g(&[]));
        assert!(m.edges.is_empty());
        assert_eq!(m.weight, 0.0);
    }

    #[test]
    fn single_edge() {
        let m = max_weight_matching(&g(&[(0, 0, 0.8)]));
        assert_eq!(m.edges.len(), 1);
        assert!((m.weight - 0.8).abs() < 1e-12);
    }

    #[test]
    fn contested_right_node_takes_heavier_edge() {
        // Two left nodes want the same right node.
        let m = max_weight_matching(&g(&[(0, 0, 0.9), (1, 0, 0.8)]));
        assert_eq!(m.edges.len(), 1);
        assert!((m.weight - 0.9).abs() < 1e-12);
        assert_eq!(m.edges[0].left, 0);
    }

    #[test]
    fn prefers_global_optimum_over_greedy_choice() {
        // Greedy takes (0,0,0.9) then only gets 0.9.
        // Optimal: (0,1,0.8) + (1,0,0.8) = 1.6.
        let m = max_weight_matching(&g(&[(0, 0, 0.9), (0, 1, 0.8), (1, 0, 0.8)]));
        assert!((m.weight - 1.6).abs() < 1e-12);
        assert_eq!(m.edges.len(), 2);
    }

    #[test]
    fn paper_example3_field_matching() {
        // Fig 7: similar field pairs of R1 = r1⊕r6 and R2 = r2⊕r4.
        // name-name 1.0 contested by email-name 0.33; the matching keeps
        // the four pairs of F(1,2) with total 0.37+1+1+1.
        let m = max_weight_matching(&g(&[
            (2, 4, 0.37), // address - addr
            (3, 2, 1.0),  // e-mail - work mailbox (contested)
            (3, 1, 0.33), // e-mail - name
            (4, 3, 1.0),  // Tel-ish field pair
            (5, 5, 1.0),  // Con.Type - Con.Type
        ]));
        assert!((m.weight - 3.37).abs() < 1e-9);
        assert_eq!(m.edges.len(), 4);
        assert!(m
            .edges
            .iter()
            .any(|e| e.left == 3 && e.right == 2 && (e.weight - 1.0).abs() < 1e-12));
    }

    #[test]
    fn matching_reports_simplified_size() {
        // One isolated edge (degree 1/1) is peeled; the contested triangle
        // survives.
        let m = max_weight_matching(&g(&[(9, 9, 0.5), (0, 0, 0.9), (0, 1, 0.8), (1, 0, 0.8)]));
        assert_eq!(m.simplified_nodes, 4); // nodes 0,1 on both sides
        assert!((m.weight - 0.5 - 1.6).abs() < 1e-12);
    }

    #[test]
    fn scratch_reuse_matches_fresh_allocation() {
        // One scratch driven across graphs of very different shapes must
        // produce exactly what the allocating entry points produce.
        let graphs = [
            g(&[]),
            g(&[(0, 0, 0.8)]),
            g(&[(0, 0, 0.9), (0, 1, 0.8), (1, 0, 0.8), (9, 9, 0.5)]),
            g(&[
                (2, 4, 0.37),
                (3, 2, 1.0),
                (3, 1, 0.33),
                (4, 3, 1.0),
                (5, 5, 1.0),
            ]),
            g(&[(7, 7, 0.6), (1, 2, 0.3)]),
        ];
        let mut scratch = MatchScratch::new();
        for gr in &graphs {
            let fresh = max_weight_matching(gr);
            let mut edges = Vec::new();
            let outcome = max_weight_matching_observed(gr, &mut scratch, &mut edges);
            let reused = Matching::from_edges(edges);
            assert_eq!(fresh.edges, reused.edges);
            assert_eq!(fresh.weight.to_bits(), reused.weight.to_bits());
            assert_eq!(fresh.simplified_nodes, outcome.simplified_nodes);

            let greedy_fresh = greedy_matching(gr);
            let mut picked = Vec::new();
            greedy_matching_into(gr, &mut scratch, &mut picked);
            assert_eq!(greedy_fresh.edges, Matching::from_edges(picked).edges);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// The composed pipeline must equal the brute-force oracle.
        #[test]
        fn pipeline_matches_brute_force(seed in any::<u64>(), n_edges in 0usize..10) {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut gr = BipartiteGraph::new();
            let mut seen = std::collections::HashSet::new();
            for _ in 0..n_edges {
                let l = rng.gen_range(0..5u32);
                let r = rng.gen_range(0..5u32);
                if seen.insert((l, r)) {
                    // Weight grid avoids float-tie ambiguity in the oracle.
                    let w = rng.gen_range(1..=20) as f64 / 20.0;
                    gr.add_edge(l, r, w);
                }
            }
            let fast = max_weight_matching(&gr);
            let slow = brute_force_matching(&gr);
            prop_assert!((fast.weight - slow.weight).abs() < 1e-9,
                "pipeline {} vs oracle {}", fast.weight, slow.weight);
        }

        /// Greedy is never better than optimal, and optimal is at most the
        /// total edge weight.
        #[test]
        fn greedy_bounds_optimal(seed in any::<u64>(), n_edges in 0usize..12) {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut gr = BipartiteGraph::new();
            let mut seen = std::collections::HashSet::new();
            for _ in 0..n_edges {
                let l = rng.gen_range(0..6u32);
                let r = rng.gen_range(0..6u32);
                if seen.insert((l, r)) {
                    gr.add_edge(l, r, rng.gen_range(0.05..1.0));
                }
            }
            let opt = max_weight_matching(&gr);
            let greedy = greedy_matching(&gr);
            let total: f64 = gr.edges().iter().map(|e| e.weight).sum();
            prop_assert!(greedy.weight <= opt.weight + 1e-9);
            prop_assert!(opt.weight <= total + 1e-9);
        }
    }
}
