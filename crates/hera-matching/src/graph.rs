//! Bipartite graph and matching types.

use rustc_hash::FxHashMap;

/// A weighted edge between left node `left` and right node `right`.
///
/// Node ids are caller-defined `u32`s (HERA uses field indices); they need
/// not be dense — the solvers compact them internally.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Left endpoint (a field of `R_i` in HERA).
    pub left: u32,
    /// Right endpoint (a field of `R_j`).
    pub right: u32,
    /// Edge weight; must be finite and non-negative (a field similarity).
    pub weight: f64,
}

/// An undirected bipartite graph `G(X ∪ Y, E)` per Definition 8.
///
/// Parallel `(left, right)` insertions keep the heavier weight, mirroring
/// field similarity's max-over-value-pairs semantics.
#[derive(Debug, Clone, Default)]
pub struct BipartiteGraph {
    edges: FxHashMap<(u32, u32), f64>,
}

impl BipartiteGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or raises) an edge.
    ///
    /// # Panics
    /// Panics if `weight` is negative or non-finite.
    pub fn add_edge(&mut self, left: u32, right: u32, weight: f64) {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "edge weight must be finite and non-negative, got {weight}"
        );
        let slot = self.edges.entry((left, right)).or_insert(0.0);
        if weight > *slot {
            *slot = weight;
        }
    }

    /// Removes every edge but keeps the allocated capacity, so a graph can
    /// be rebuilt per verification without reallocating (scratch reuse).
    pub fn clear(&mut self) {
        self.edges.clear();
    }

    /// True if the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// All edges in deterministic `(left, right)` order.
    pub fn edges(&self) -> Vec<Edge> {
        let mut out = Vec::new();
        self.edges_into(&mut out);
        out
    }

    /// Fills `out` with all edges in deterministic `(left, right)` order,
    /// replacing its previous contents. Allocation-free once `out` has
    /// grown to the working-set size.
    pub(crate) fn edges_into(&self, out: &mut Vec<Edge>) {
        out.clear();
        out.extend(self.edges.iter().map(|(&(left, right), &weight)| Edge {
            left,
            right,
            weight,
        }));
        out.sort_unstable_by_key(|e| (e.left, e.right));
    }

    /// Fills `out` with the distinct left node ids, ascending.
    pub fn left_nodes_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend(self.edges.keys().map(|&(l, _)| l));
        out.sort_unstable();
        out.dedup();
    }

    /// Fills `out` with the distinct right node ids, ascending.
    pub fn right_nodes_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend(self.edges.keys().map(|&(_, r)| r));
        out.sort_unstable();
        out.dedup();
    }

    /// Weight of edge `(left, right)` if present.
    pub fn weight(&self, left: u32, right: u32) -> Option<f64> {
        self.edges.get(&(left, right)).copied()
    }
}

/// A one-to-one matching: no two edges share an endpoint on either side.
#[derive(Debug, Clone, Default)]
pub struct Matching {
    /// The matched edges, sorted by `(left, right)`.
    pub edges: Vec<Edge>,
    /// Total weight `w(M)`.
    pub weight: f64,
    /// Nodes remaining after graph simplification when this matching was
    /// produced by [`max_weight_matching`](crate::max_weight_matching);
    /// 0 otherwise. Feeds the paper's `m̄` statistic (Table II).
    pub simplified_nodes: usize,
}

impl Matching {
    /// Builds a matching from edges, computing the weight.
    ///
    /// # Panics (debug)
    /// Debug-asserts the one-to-one property.
    pub(crate) fn from_edges(mut edges: Vec<Edge>) -> Self {
        edges.sort_unstable_by_key(|e| (e.left, e.right));
        #[cfg(debug_assertions)]
        {
            let mut ls: Vec<u32> = edges.iter().map(|e| e.left).collect();
            ls.sort_unstable();
            let before = ls.len();
            ls.dedup();
            debug_assert_eq!(before, ls.len(), "matching reuses a left node");
            let mut rs: Vec<u32> = edges.iter().map(|e| e.right).collect();
            rs.sort_unstable();
            let before = rs.len();
            rs.dedup();
            debug_assert_eq!(before, rs.len(), "matching reuses a right node");
        }
        let weight = edges.iter().map(|e| e.weight).sum();
        Self {
            edges,
            weight,
            simplified_nodes: 0,
        }
    }

    /// Number of matched pairs.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True if nothing matched.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_edges_keep_max() {
        let mut g = BipartiteGraph::new();
        g.add_edge(1, 2, 0.4);
        g.add_edge(1, 2, 0.7);
        g.add_edge(1, 2, 0.5);
        assert_eq!(g.edges().len(), 1);
        assert_eq!(g.weight(1, 2), Some(0.7));
    }

    #[test]
    fn node_sets() {
        let mut g = BipartiteGraph::new();
        g.add_edge(3, 10, 0.5);
        g.add_edge(1, 10, 0.5);
        g.add_edge(3, 11, 0.5);
        let mut nodes = Vec::new();
        g.left_nodes_into(&mut nodes);
        assert_eq!(nodes, vec![1, 3]);
        g.right_nodes_into(&mut nodes);
        assert_eq!(nodes, vec![10, 11]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_panics() {
        BipartiteGraph::new().add_edge(0, 0, -0.1);
    }

    #[test]
    fn matching_from_edges() {
        let m = Matching::from_edges(vec![
            Edge {
                left: 2,
                right: 0,
                weight: 0.5,
            },
            Edge {
                left: 0,
                right: 1,
                weight: 0.25,
            },
        ]);
        assert_eq!(m.len(), 2);
        assert!((m.weight - 0.75).abs() < 1e-12);
        // Sorted by left.
        assert_eq!((m.edges[0].left, m.edges[0].right), (0, 1));
        assert_eq!((m.edges[1].left, m.edges[1].right), (2, 0));
    }

    #[test]
    #[should_panic(expected = "reuses a left node")]
    #[cfg(debug_assertions)]
    fn non_matching_rejected() {
        Matching::from_edges(vec![
            Edge {
                left: 0,
                right: 0,
                weight: 1.0,
            },
            Edge {
                left: 0,
                right: 1,
                weight: 1.0,
            },
        ]);
    }
}
