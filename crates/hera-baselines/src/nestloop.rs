//! The nest-loop verifier of Fig. 7(a): record similarity with four
//! nested loops and no index.
//!
//! This is the foil for Proposition 4's claim that the index cuts record
//! similarity computation "by three orders of magnitude": it compares
//! every value of every field of `R_i` against every value of every field
//! of `R_j`, rebuilds the similar-field-pair set from scratch, and only
//! then runs the same bipartite matching the indexed verifier uses.
//! Ablation A1 benchmarks the two side by side.

use hera_core::SuperRecord;
use hera_matching::{greedy_matching, max_weight_matching, BipartiteGraph};
use hera_sim::ValueSimilarity;

/// Index-free record-similarity computation.
#[derive(Debug, Clone, Copy)]
pub struct NestLoopVerifier {
    xi: f64,
    use_kuhn_munkres: bool,
}

impl NestLoopVerifier {
    /// Creates a verifier with value threshold ξ.
    pub fn new(xi: f64) -> Self {
        Self {
            xi,
            use_kuhn_munkres: true,
        }
    }

    /// Switches the matcher to greedy (for apples-to-apples ablations).
    pub fn with_greedy(mut self) -> Self {
        self.use_kuhn_munkres = false;
        self
    }

    /// `Sim(left, right)` by brute force: the four loops of Fig. 7(a)
    /// (fields × fields × values × values), then maximum-weight matching
    /// over the similar field pairs.
    pub fn similarity(
        &self,
        left: &SuperRecord,
        right: &SuperRecord,
        metric: &dyn ValueSimilarity,
    ) -> f64 {
        let mut graph = BipartiteGraph::new();
        for (lf, lfield) in left.fields().enumerate() {
            for (rf, rfield) in right.fields().enumerate() {
                let mut best = 0.0f64;
                for va in lfield.values {
                    for vb in rfield.values {
                        let s = metric.sim(va, vb);
                        if s > best {
                            best = s;
                        }
                    }
                }
                if best >= self.xi {
                    graph.add_edge(lf as u32, rf as u32, best);
                }
            }
        }
        let matching = if self.use_kuhn_munkres {
            max_weight_matching(&graph)
        } else {
            greedy_matching(&graph)
        };
        let denom = left.informative_size().min(right.informative_size()).max(1) as f64;
        matching.weight / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hera_core::{InstanceVerifier, SuperRecord};
    use hera_index::ValuePairIndex;
    use hera_join::{JoinConfig, SimilarityJoin};
    use hera_sim::TypeDispatch;
    use hera_types::motivating_example;

    /// The nest-loop similarity must agree exactly with the indexed
    /// verifier — same definition, different plumbing.
    #[test]
    fn agrees_with_indexed_verifier() {
        let ds = motivating_example();
        let metric = TypeDispatch::paper_default();
        for xi in [0.3, 0.5, 0.7] {
            let pairs = SimilarityJoin::new(JoinConfig::new(xi), &metric).join_dataset(&ds);
            let index = ValuePairIndex::build(pairs);
            let supers: Vec<SuperRecord> = ds
                .iter()
                .map(|r| SuperRecord::from_record(&ds, r))
                .collect();
            let indexed = InstanceVerifier::new(&metric, xi, true);
            let nest = NestLoopVerifier::new(xi);
            for i in 0..ds.len() {
                for j in (i + 1)..ds.len() {
                    let a = indexed
                        .verify(&index, &supers[i], &supers[j], &ds.registry, None)
                        .sim;
                    let b = nest.similarity(&supers[i], &supers[j], &metric);
                    assert!(
                        (a - b).abs() < 1e-9,
                        "pair ({i},{j}) at xi={xi}: indexed {a} vs nest-loop {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn greedy_never_beats_km() {
        let ds = motivating_example();
        let metric = TypeDispatch::paper_default();
        let supers: Vec<SuperRecord> = ds
            .iter()
            .map(|r| SuperRecord::from_record(&ds, r))
            .collect();
        let km = NestLoopVerifier::new(0.3);
        let greedy = NestLoopVerifier::new(0.3).with_greedy();
        for i in 0..ds.len() {
            for j in (i + 1)..ds.len() {
                assert!(
                    greedy.similarity(&supers[i], &supers[j], &metric)
                        <= km.similarity(&supers[i], &supers[j], &metric) + 1e-9
                );
            }
        }
    }
}
