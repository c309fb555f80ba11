//! Instance-based verification (§IV-A): record similarity without schema
//! matchings.

use crate::super_record::{FieldRef, SuperRecord};
use crate::voter::SchemaVoter;
use hera_index::{FieldPairSim, ValuePairIndex};
use hera_matching::{
    greedy_matching_into, max_weight_matching_observed, BipartiteGraph, Edge, MatchScratch,
};
use hera_sim::ValueSimilarity;
use hera_types::SchemaRegistry;
use rustc_hash::{FxHashMap, FxHashSet};

/// Outcome of verifying one candidate record pair.
#[derive(Debug, Clone)]
pub struct Verification {
    /// `Sim(Rᵢ, Rⱼ)` per Definition 5.
    pub sim: f64,
    /// The field matching set `ℱᵢⱼ` as `(left_fid, right_fid, simf)`.
    /// One-to-one. Laid out as the forced pairs (first
    /// [`forced_count`](Self::forced_count) entries) followed by the
    /// matcher's predictions, each segment sorted by `(left, right)` —
    /// [`Verification::predicted`] is a slice into this vector, not a
    /// second allocation.
    pub matching: Vec<(u32, u32, f64)>,
    /// Nodes left after graph simplification (contributes to `m̄`).
    pub simplified_nodes: usize,
    /// Nodes of the bipartite graph *before* simplification (distinct
    /// fields covered by similar field pairs).
    pub graph_nodes: usize,
    /// Field pairs injected by decided schema matchings — the length of
    /// the forced prefix of [`matching`](Self::matching).
    pub forced_count: usize,
    /// Connected components the Kuhn–Munkres solver decomposed the
    /// simplified graph into (zero under greedy matching).
    pub components: usize,
    /// `metric.sim` calls the verification made: one per value pair of
    /// each field pair a decided schema matching forces but the index
    /// holds no similar value pair for (§IV-B). Zero without voting.
    pub metric_calls: u64,
}

impl Verification {
    /// The field pairs injected by decided schema matchings.
    pub fn forced(&self) -> &[(u32, u32, f64)] {
        &self.matching[..self.forced_count]
    }

    /// The subset of `matching` produced by the matcher (not forced) —
    /// these are the schema-matching *predictions* handed to the voter.
    pub fn predicted(&self) -> &[(u32, u32, f64)] {
        &self.matching[self.forced_count..]
    }

    /// Renders a human-readable breakdown of the decision: which fields
    /// matched, under which attributes, at what similarity — the
    /// explanation a data steward reviewing a merge wants to see.
    pub fn explain(
        &self,
        registry: &SchemaRegistry,
        left: &SuperRecord,
        right: &SuperRecord,
    ) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Sim(r{}, r{}) = {:.3} from {} matched field pair(s):",
            left.rid,
            right.rid,
            self.sim,
            self.matching.len()
        );
        let attr_names = |attrs: &[hera_types::SourceAttrId]| -> String {
            attrs
                .iter()
                .map(|&a| registry.attr_qualified_name(a))
                .collect::<Vec<_>>()
                .join(" | ")
        };
        let values = |f: FieldRef<'_>| -> String {
            f.values
                .iter()
                .map(|v| format!("{v}"))
                .collect::<Vec<_>>()
                .join(" / ")
        };
        for (idx, &(lf, rf, s)) in self.matching.iter().enumerate() {
            let forced = idx < self.forced_count;
            let lfield = left.field(lf as usize);
            let rfield = right.field(rf as usize);
            let _ = writeln!(
                out,
                "  {:.3}{} [{}] {:?} ≈ [{}] {:?}",
                s,
                if forced { " (schema-decided)" } else { "" },
                attr_names(lfield.attrs),
                values(lfield),
                attr_names(rfield.attrs),
                values(rfield),
            );
        }
        let denom = left.informative_size().min(right.informative_size()).max(1);
        let _ = writeln!(out, "  normalized by min(|R_i|, |R_j|) = {denom}");
        out
    }
}

/// Reusable per-worker buffers for [`InstanceVerifier::verify_with`]: all
/// intermediate state of one verification lives here, so the steady state
/// allocates nothing per verified pair beyond the returned
/// [`Verification::matching`] vector itself.
#[derive(Debug, Default)]
pub(crate) struct VerifyScratch {
    field_pairs: Vec<FieldPairSim>,
    sim_of: FxHashMap<(u32, u32), f64>,
    cands: Vec<(f64, u32, u32)>,
    forced: Vec<(u32, u32, f64)>,
    forced_left: FxHashSet<u32>,
    forced_right: FxHashSet<u32>,
    graph: BipartiteGraph,
    node_buf: Vec<u32>,
    edges: Vec<Edge>,
    matcher: MatchScratch,
}

impl VerifyScratch {
    /// Creates empty scratch; buffers grow to the working-set size over
    /// the first few verifications and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Verifies candidate record pairs using the value-pair index, bipartite
/// matching, and (optionally) decided schema matchings.
pub struct InstanceVerifier<'m> {
    metric: &'m dyn ValueSimilarity,
    xi: f64,
    use_kuhn_munkres: bool,
}

impl<'m> InstanceVerifier<'m> {
    /// Creates a verifier.
    pub fn new(metric: &'m dyn ValueSimilarity, xi: f64, use_kuhn_munkres: bool) -> Self {
        Self {
            metric,
            xi,
            use_kuhn_munkres,
        }
    }

    /// Computes `Sim(left, right)` (Definition 5) on fresh scratch. The
    /// driver verifies through the crate-internal `verify_with`, which
    /// reuses one scratch across pairs.
    pub fn verify(
        &self,
        index: &ValuePairIndex,
        left: &SuperRecord,
        right: &SuperRecord,
        registry: &SchemaRegistry,
        voter: Option<&SchemaVoter>,
    ) -> Verification {
        let mut scratch = VerifyScratch::new();
        self.verify_with(index, left, right, registry, voter, &mut scratch)
    }

    /// Computes `Sim(left, right)` (Definition 5).
    ///
    /// Pipeline (§IV-A): fetch the similar field pairs `𝒱′ᵢⱼ` from the
    /// index; inject decided schema matchings as *forced* field pairs
    /// ("once a matching is determined to be true … directly include the
    /// corresponding field pair into the field matching set"); solve the
    /// remaining pairs as a maximum-weight bipartite matching (after
    /// simplification + component decomposition); accumulate and normalize
    /// by `min(|Rᵢ|, |Rⱼ|)` over informative fields.
    pub(crate) fn verify_with(
        &self,
        index: &ValuePairIndex,
        left: &SuperRecord,
        right: &SuperRecord,
        registry: &SchemaRegistry,
        voter: Option<&SchemaVoter>,
        scratch: &mut VerifyScratch,
    ) -> Verification {
        let mut metric_calls = 0u64;
        index.similar_field_pairs_into(left.rid, right.rid, &mut scratch.field_pairs);

        // ---- Forced pairs from decided schema matchings.
        scratch.forced.clear();
        scratch.forced_left.clear();
        scratch.forced_right.clear();
        if let Some(voter) = voter {
            // Candidate forced pairs: any (lf, rf) whose attribute
            // provenances contain a decided pair. simf comes from the
            // index when available, else is computed directly.
            scratch.sim_of.clear();
            scratch.sim_of.extend(
                scratch
                    .field_pairs
                    .iter()
                    .map(|p| ((p.left_fid, p.right_fid), p.sim)),
            );
            scratch.cands.clear();
            for (lf, lfield) in left.fields().enumerate() {
                for (rf, rfield) in right.fields().enumerate() {
                    let decided = lfield.attrs.iter().any(|&a| {
                        rfield
                            .attrs
                            .iter()
                            .any(|&b| voter.is_decided_pair(registry, a, b))
                    });
                    if !decided {
                        continue;
                    }
                    let s = match scratch.sim_of.get(&(lf as u32, rf as u32)) {
                        Some(&s) => s,
                        None => {
                            metric_calls += (lfield.values.len() * rfield.values.len()) as u64;
                            self.field_sim(lfield, rfield)
                        }
                    };
                    if s > 0.0 {
                        scratch.cands.push((s, lf as u32, rf as u32));
                    }
                }
            }
            // Keep forced pairs one-to-one, heaviest first.
            scratch.cands.sort_unstable_by(|a, b| {
                b.0.partial_cmp(&a.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| (a.1, a.2).cmp(&(b.1, b.2)))
            });
            for &(s, lf, rf) in scratch.cands.iter() {
                if !scratch.forced_left.contains(&lf) && !scratch.forced_right.contains(&rf) {
                    scratch.forced_left.insert(lf);
                    scratch.forced_right.insert(rf);
                    scratch.forced.push((lf, rf, s));
                }
            }
            scratch.forced.sort_unstable_by_key(|&(l, r, _)| (l, r));
        }

        // ---- Bipartite matching over the remaining similar field pairs.
        scratch.graph.clear();
        for p in &scratch.field_pairs {
            if p.sim >= self.xi
                && !scratch.forced_left.contains(&p.left_fid)
                && !scratch.forced_right.contains(&p.right_fid)
            {
                scratch.graph.add_edge(p.left_fid, p.right_fid, p.sim);
            }
        }
        scratch.graph.left_nodes_into(&mut scratch.node_buf);
        let mut graph_nodes = scratch.node_buf.len();
        scratch.graph.right_nodes_into(&mut scratch.node_buf);
        graph_nodes += scratch.node_buf.len();

        scratch.edges.clear();
        let outcome = if self.use_kuhn_munkres {
            max_weight_matching_observed(&scratch.graph, &mut scratch.matcher, &mut scratch.edges)
        } else {
            greedy_matching_into(&scratch.graph, &mut scratch.matcher, &mut scratch.edges);
            hera_matching::MatchOutcome::default()
        };
        let simplified_nodes = outcome.simplified_nodes;
        scratch.edges.sort_unstable_by_key(|e| (e.left, e.right));

        // ---- Assemble the result: one allocation, forced prefix then
        // predicted suffix; `predicted()` is a view, not a copy.
        let forced_count = scratch.forced.len();
        let mut matching: Vec<(u32, u32, f64)> =
            Vec::with_capacity(forced_count + scratch.edges.len());
        matching.extend_from_slice(&scratch.forced);
        matching.extend(scratch.edges.iter().map(|e| (e.left, e.right, e.weight)));

        let total: f64 = matching.iter().map(|&(_, _, s)| s).sum();
        let denom = left.informative_size().min(right.informative_size()).max(1) as f64;

        Verification {
            sim: total / denom,
            matching,
            simplified_nodes,
            graph_nodes,
            forced_count,
            components: outcome.components,
            metric_calls,
        }
    }

    /// Field similarity per Definition 3: max value-pair similarity,
    /// one `metric.sim` call per value pair.
    fn field_sim(&self, a: FieldRef<'_>, b: FieldRef<'_>) -> f64 {
        let mut best = 0.0f64;
        for va in a.values {
            for vb in b.values {
                let s = self.metric.sim(va, vb);
                if s > best {
                    best = s;
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hera_join::{JoinConfig, SimilarityJoin};
    use hera_sim::TypeDispatch;
    use hera_types::motivating_example;

    fn setup(xi: f64) -> (hera_types::Dataset, ValuePairIndex, Vec<SuperRecord>) {
        let ds = motivating_example();
        let metric = TypeDispatch::paper_default();
        let pairs = SimilarityJoin::new(JoinConfig::new(xi), &metric).join_dataset(&ds);
        let index = ValuePairIndex::build(pairs);
        let supers: Vec<SuperRecord> = ds
            .iter()
            .map(|r| SuperRecord::from_record(&ds, r))
            .collect();
        (ds, index, supers)
    }

    #[test]
    fn example3_super_record_similarity() {
        // Build R1 = r1⊕r6 and R2 = r2⊕r4, then Sim(R1, R2) should land
        // near the paper's 0.56 (the paper's 0.37 address similarity is
        // case-sensitive; our folded metric gives 8/18 ≈ 0.444, so the
        // expected total is (0.444+1+1+1)/6 ≈ 0.574).
        let ds = motivating_example();
        let metric = TypeDispatch::paper_default();
        let mut supers: Vec<SuperRecord> = ds
            .iter()
            .map(|r| SuperRecord::from_record(&ds, r))
            .collect();
        // r1 ⊕ r6 (0-based 0, 5): name, addr, mail, Con.Type match.
        let r6 = supers[5].clone();
        let mut r1 = supers.remove(0);
        let remap16 = r1.absorb(&r6, &[(0, 0), (1, 1), (2, 2), (4, 4)]);
        // r2 ⊕ r4 (0-based 1, 3): name matches; Contact No ↔ Tel.
        let r4 = supers[2].clone(); // index shifted after remove
        let mut r2 = supers[0].clone();
        let remap24 = r2.absorb(&r4, &[(0, 0), (1, 3)]);

        // Rebuild index over the merged world.
        let join = SimilarityJoin::new(JoinConfig::new(0.35), &metric);
        let pairs = join.join_dataset(&ds);
        let mut index = ValuePairIndex::build(pairs);
        index.merge(0, 5, 0, |l| remap16.apply(l));
        index.merge(1, 3, 1, |l| remap24.apply(l));
        index.check_invariants().unwrap();

        let verifier = InstanceVerifier::new(&metric, 0.35, true);
        let v = verifier.verify(&index, &r1, &r2, &ds.registry, None);
        // Four matched field pairs, total ≈ 0.444+1+1+1 = 3.444, /6 ≈ 0.574.
        assert_eq!(v.matching.len(), 4, "matching: {:?}", v.matching);
        assert!((v.sim - 3.444 / 6.0).abs() < 0.01, "sim {}", v.sim);
    }

    #[test]
    fn identical_records_score_one() {
        use hera_types::{CanonAttrId, DatasetBuilder, EntityId, Value};
        let mut b = DatasetBuilder::new("t");
        let c = CanonAttrId::new;
        let s1 = b.add_schema("A", [("x", c(0)), ("y", c(1))]);
        let s2 = b.add_schema("B", [("x2", c(0)), ("y2", c(1))]);
        b.add_record(
            s1,
            vec![Value::from("hello world"), Value::from("goodbye")],
            EntityId::new(0),
        )
        .unwrap();
        b.add_record(
            s2,
            vec![Value::from("hello world"), Value::from("goodbye")],
            EntityId::new(0),
        )
        .unwrap();
        let ds = b.build();
        let metric = TypeDispatch::paper_default();
        let pairs = SimilarityJoin::new(JoinConfig::new(0.5), &metric).join_dataset(&ds);
        let index = ValuePairIndex::build(pairs);
        let supers: Vec<SuperRecord> = ds
            .iter()
            .map(|r| SuperRecord::from_record(&ds, r))
            .collect();
        let verifier = InstanceVerifier::new(&metric, 0.5, true);
        let v = verifier.verify(&index, &supers[0], &supers[1], &ds.registry, None);
        assert!((v.sim - 1.0).abs() < 1e-9);
        assert_eq!(v.matching.len(), 2);
    }

    #[test]
    fn disjoint_records_score_zero() {
        let (ds, index, supers) = setup(0.5);
        let metric = TypeDispatch::paper_default();
        let verifier = InstanceVerifier::new(&metric, 0.5, true);
        // r1 (0) and r3 (2) share nothing at ξ = 0.5.
        let v = verifier.verify(&index, &supers[0], &supers[2], &ds.registry, None);
        assert_eq!(v.sim, 0.0);
        assert!(v.matching.is_empty());
    }

    #[test]
    fn forced_matching_overrides_matcher() {
        let (ds, index, supers) = setup(0.5);
        let metric = TypeDispatch::paper_default();
        let verifier = InstanceVerifier::new(&metric, 0.5, true);

        // Decide Customer I.name ≈ Customer III.name via the voter.
        let name1 = ds.attr_of_field(hera_types::RecordId::new(0), 0);
        let name3 = ds.attr_of_field(hera_types::RecordId::new(5), 0);
        let mut voter = SchemaVoter::new();
        for _ in 0..20 {
            voter.add_vote(&ds.registry, name1, name3);
        }
        assert!(!voter.decide(0.8, 0.6, 3).is_empty());

        // r1 vs r6 with the forced pair: the name fields are pinned.
        let v = verifier.verify(&index, &supers[0], &supers[5], &ds.registry, Some(&voter));
        assert!(v.forced_count >= 1);
        assert!(v.matching.iter().any(|&(l, r, _)| l == 0 && r == 0));
        // Forced pairs are not re-predicted, and forced() holds them.
        assert!(v.predicted().iter().all(|&(l, r, _)| !(l == 0 && r == 0)));
        assert!(v.forced().iter().any(|&(l, r, _)| l == 0 && r == 0));
        assert_eq!(v.forced().len() + v.predicted().len(), v.matching.len());
        // Similarity unchanged vs the unforced run (the matcher would have
        // picked name↔name anyway).
        let v0 = verifier.verify(&index, &supers[0], &supers[5], &ds.registry, None);
        assert!((v.sim - v0.sim).abs() < 1e-9);
    }

    #[test]
    fn forced_path_verify_with_matches_verify_and_counts_metric_calls() {
        let (ds, index, supers) = setup(0.5);
        let metric = TypeDispatch::paper_default();
        let verifier = InstanceVerifier::new(&metric, 0.5, true);

        // Force Customer I.name ≈ Customer III.name, then verify r1 against
        // r4: "John" vs "Bush" is no similar pair at ξ = 0.5, so the forced
        // name pair's similarity comes from the metric.
        let name1 = ds.attr_of_field(hera_types::RecordId::new(0), 0);
        let name3 = ds.attr_of_field(hera_types::RecordId::new(5), 0);
        let mut voter = SchemaVoter::new();
        for _ in 0..20 {
            voter.add_vote(&ds.registry, name1, name3);
        }
        assert!(!voter.decide(0.8, 0.6, 3).is_empty());

        let mut scratch = VerifyScratch::new();
        let plain = verifier.verify(&index, &supers[0], &supers[3], &ds.registry, Some(&voter));
        for _ in 0..2 {
            let reused = verifier.verify_with(
                &index,
                &supers[0],
                &supers[3],
                &ds.registry,
                Some(&voter),
                &mut scratch,
            );
            assert_eq!(plain.sim.to_bits(), reused.sim.to_bits());
            assert_eq!(plain.matching, reused.matching);
            assert_eq!(plain.metric_calls, reused.metric_calls);
        }
        assert!(plain.metric_calls > 0, "the forced path calls the metric");
        let unforced = verifier.verify(&index, &supers[0], &supers[3], &ds.registry, None);
        assert_eq!(unforced.metric_calls, 0, "no voter, no metric call");
    }

    #[test]
    fn scratch_reuse_across_pairs_is_clean() {
        let (ds, index, supers) = setup(0.5);
        let metric = TypeDispatch::paper_default();
        let verifier = InstanceVerifier::new(&metric, 0.5, true);
        let mut scratch = VerifyScratch::new();
        // Drive one scratch across every record pair and compare against
        // fresh-scratch verification.
        for i in 0..supers.len() {
            for j in (i + 1)..supers.len() {
                let reused = verifier.verify_with(
                    &index,
                    &supers[i],
                    &supers[j],
                    &ds.registry,
                    None,
                    &mut scratch,
                );
                let fresh = verifier.verify(&index, &supers[i], &supers[j], &ds.registry, None);
                assert_eq!(fresh.sim.to_bits(), reused.sim.to_bits(), "pair {i},{j}");
                assert_eq!(fresh.matching, reused.matching, "pair {i},{j}");
                assert_eq!(fresh.graph_nodes, reused.graph_nodes);
                assert_eq!(fresh.simplified_nodes, reused.simplified_nodes);
                assert_eq!(fresh.metric_calls, reused.metric_calls);
            }
        }
    }

    #[test]
    fn explain_is_readable() {
        let (ds, index, supers) = setup(0.5);
        let metric = TypeDispatch::paper_default();
        let verifier = InstanceVerifier::new(&metric, 0.5, true);
        // r4 vs r6 (0-based 3, 5): three strong matches.
        let v = verifier.verify(&index, &supers[3], &supers[5], &ds.registry, None);
        let text = v.explain(&ds.registry, &supers[3], &supers[5]);
        assert!(text.contains("Sim(r3, r5)"), "{text}");
        assert!(text.contains("Customer III.work mailbox"), "{text}");
        assert!(text.contains("bush@gmail"), "{text}");
        assert!(text.contains("normalized by"), "{text}");
    }

    #[test]
    fn greedy_mode_runs() {
        let (ds, index, supers) = setup(0.5);
        let metric = TypeDispatch::paper_default();
        let km = InstanceVerifier::new(&metric, 0.5, true);
        let gr = InstanceVerifier::new(&metric, 0.5, false);
        let a = km.verify(&index, &supers[3], &supers[5], &ds.registry, None);
        let b = gr.verify(&index, &supers[3], &supers[5], &ds.registry, None);
        // Greedy never beats KM.
        assert!(b.sim <= a.sim + 1e-9);
        assert!(a.sim > 0.5); // r4 and r6 share three strong fields
    }
}
