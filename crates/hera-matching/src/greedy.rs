//! Greedy maximal matching — a fast 2-approximation.

use crate::graph::{BipartiteGraph, Edge};
use crate::scratch::MatchScratch;

/// Builds a maximal matching by scanning edges in descending weight order
/// and keeping each edge whose endpoints are still free.
///
/// Properties used elsewhere in the workspace:
/// * its weight is a **lower bound** on the maximum-weight matching (it is
///   a feasible matching), which powers `BoundMode::Sound` in `hera-index`;
/// * it is a ½-approximation of the optimum, making it a useful ablation
///   stand-in for Kuhn–Munkres.
///
/// Ties are broken by `(left, right)` so results are deterministic. The
/// picked edges are **appended** to `out` in descending-weight pick
/// order, on caller-provided scratch, without allocating.
pub fn greedy_matching_into(
    graph: &BipartiteGraph,
    scratch: &mut MatchScratch,
    out: &mut Vec<Edge>,
) {
    graph.edges_into(&mut scratch.edges);
    scratch.edges.sort_unstable_by(|a, b| {
        b.weight
            .partial_cmp(&a.weight)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| (a.left, a.right).cmp(&(b.left, b.right)))
    });
    scratch.used_l.clear();
    scratch.used_r.clear();
    for &e in &scratch.edges {
        if !scratch.used_l.contains(&e.left) && !scratch.used_r.contains(&e.right) {
            scratch.used_l.insert(e.left);
            scratch.used_r.insert(e.right);
            out.push(e);
        }
    }
}

/// [`greedy_matching_into`] as a [`crate::Matching`], for the tests.
#[cfg(test)]
pub(crate) fn greedy_matching(graph: &BipartiteGraph) -> crate::Matching {
    let mut picked: Vec<Edge> = Vec::new();
    greedy_matching_into(graph, &mut MatchScratch::new(), &mut picked);
    crate::Matching::from_edges(picked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{brute_force_matching, kuhn_munkres};
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
    fn takes_heaviest_first() {
        let m = greedy_matching(&g(&[(0, 0, 0.9), (0, 1, 0.8), (1, 0, 0.8)]));
        // Greedy is suboptimal here: 0.9 < 1.6.
        assert!((m.weight - 0.9).abs() < 1e-12);
        let opt = kuhn_munkres(&g(&[(0, 0, 0.9), (0, 1, 0.8), (1, 0, 0.8)]));
        assert!((opt.weight - 1.6).abs() < 1e-12);
    }

    #[test]
    fn deterministic_tie_break() {
        let a = greedy_matching(&g(&[(0, 0, 0.5), (1, 1, 0.5), (0, 1, 0.5)]));
        let b = greedy_matching(&g(&[(0, 1, 0.5), (1, 1, 0.5), (0, 0, 0.5)]));
        assert_eq!(a.edges, b.edges);
    }

    #[test]
    fn empty() {
        assert!(greedy_matching(&BipartiteGraph::new()).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]
        /// Greedy is a feasible matching with weight within [opt/2, opt].
        #[test]
        fn greedy_is_half_approximation(seed in any::<u64>(), n_edges in 0usize..10) {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut gr = BipartiteGraph::new();
            let mut seen = std::collections::HashSet::new();
            for _ in 0..n_edges {
                let l = rng.gen_range(0..5u32);
                let r = rng.gen_range(0..5u32);
                if seen.insert((l, r)) {
                    gr.add_edge(l, r, rng.gen_range(0.01..1.0));
                }
            }
            let greedy = greedy_matching(&gr);
            let opt = brute_force_matching(&gr);
            prop_assert!(greedy.weight <= opt.weight + 1e-9);
            prop_assert!(2.0 * greedy.weight + 1e-9 >= opt.weight);
        }
    }
}
