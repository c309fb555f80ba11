//! The resolver engine: the state of Algorithm 2 and the one mechanism —
//! verify, vote, merge, maintain the index — that acts on it.
//!
//! The batch driver ([`crate::Hera`]) and the streaming session
//! ([`crate::HeraSession`]) differ in *schedule*: which candidate pairs
//! a round verifies, in which order, and what happens to a verdict an
//! earlier merge of the same round made stale. Everything a schedule
//! does to the state goes through this module, so what a verification
//! counts, what a merge touches and in which order, and what a round
//! journals are each written once.

use crate::config::{Ablation, HeraConfig, VOTE_ERROR_THRESHOLD, VOTE_MIN_N, VOTE_PRIOR};
use crate::stats::RunStats;
use crate::super_record::{LabelRemap, SharedAttrs, SuperRecord};
use crate::verify::{InstanceVerifier, Verification, VerifyScratch};
use crate::voter::SchemaVoter;
use hera_index::{Bounds, BoundsScratch, RankedCandidate, UnionFind, ValuePairIndex};
use hera_join::IncrementalJoin;
use hera_obs::Recorder;
use hera_sim::ValueSimilarity;
use hera_types::{Dataset, Schema, SchemaRegistry, Value};
use rustc_hash::{FxHashMap, FxHashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The incremental join a session ingests through and a blocked batch
/// join scans with: threshold `xi`, and text grammed at the length the
/// metric declares ([`ValueSimilarity::qgram_compatible`], 2 when it
/// declares none), the length the batch [`hera_join::SimilarityJoin`]
/// grams at.
pub(crate) fn incremental_join(xi: f64, metric: &Arc<dyn ValueSimilarity>) -> IncrementalJoin {
    IncrementalJoin::new(xi, metric.qgram_compatible().unwrap_or(2), metric.clone())
}

/// What a schedule lends the engine for one call: the configuration,
/// the journal, the schema registry and the verifier built from the
/// metric. All borrowed — a round costs no clone of any of them.
pub(crate) struct Ctx<'a> {
    pub(crate) cfg: &'a HeraConfig,
    pub(crate) rec: &'a Recorder,
    registry: &'a SchemaRegistry,
    verifier: InstanceVerifier<'a>,
    /// Workers for the snapshot verify phase.
    pub(crate) threads: usize,
}

impl<'a> Ctx<'a> {
    pub(crate) fn new(
        cfg: &'a HeraConfig,
        rec: &'a Recorder,
        metric: &'a dyn ValueSimilarity,
        registry: &'a SchemaRegistry,
    ) -> Self {
        Self {
            cfg,
            rec,
            registry,
            verifier: InstanceVerifier::new(
                metric,
                cfg.xi,
                cfg.ablation != Ablation::GreedyMatching,
            ),
            threads: crate::parallel::effective_threads(cfg.num_threads),
        }
    }

    /// Whether the schema-based method runs (off under the A3 ablation).
    fn voting(&self) -> bool {
        self.cfg.ablation != Ablation::NoSchemaVoting
    }
}

/// Counters at the start of a round, for the round's deltas.
pub(crate) struct RoundMark {
    /// The round's number: the lifetime iteration count, monotonic
    /// across calls and across checkpoint/restore.
    pub(crate) round: usize,
    merges: usize,
    metric_calls: u64,
    /// `[candidate, absorb, merge]` times at the start of the round.
    loop_times: [Duration; 3],
}

/// The resolver state: value-pair index, super records, union–find,
/// schema voter and the counters over them.
pub(crate) struct Engine {
    pub(crate) index: ValuePairIndex,
    pub(crate) supers: FxHashMap<u32, SuperRecord>,
    pub(crate) uf: UnionFind,
    pub(crate) voter: SchemaVoter,
    pub(crate) stats: RunStats,
    /// The attribute lists the base-shaped super records share.
    pub(crate) attrs: SharedAttrs,
    /// Scratch for the sequential re-verifications.
    scratch: VerifyScratch,
}

impl Engine {
    /// An engine over no records, to be grown by [`Engine::push_record`]
    /// and `index.extend`.
    pub(crate) fn empty() -> Self {
        Self {
            index: ValuePairIndex::default(),
            supers: FxHashMap::default(),
            uf: UnionFind::new(0),
            voter: SchemaVoter::new(),
            stats: RunStats::default(),
            attrs: SharedAttrs::default(),
            scratch: VerifyScratch::new(),
        }
    }

    /// An engine over a whole dataset and the index bulk-built from its
    /// similarity join: every record a singleton super record.
    pub(crate) fn for_dataset(ds: &Dataset, index: ValuePairIndex) -> Self {
        let mut engine = Self {
            index,
            uf: UnionFind::new(ds.len()),
            ..Self::empty()
        };
        engine.supers.reserve(ds.len());
        for r in ds.iter() {
            let attrs = engine.attrs.of_schema(ds.registry.schema(r.schema));
            let rid = r.id.raw();
            let lifted = SuperRecord::lift(rid, r.values.clone(), attrs);
            engine.supers.insert(rid, lifted);
        }
        engine
    }

    /// Admits one more record as a singleton super record, which keeps
    /// `values` as they are, and returns its rid.
    pub(crate) fn push_record(&mut self, values: Vec<Value>, schema: &Schema) -> u32 {
        let rid = self.uf.push();
        let attrs = self.attrs.of_schema(schema);
        self.supers
            .insert(rid, SuperRecord::lift(rid, values, attrs));
        rid
    }

    // ---- Candidates from the index.

    /// The index groups touching `dirty` (every group when `None`) as
    /// root pairs in ascending order. The index names live roots only —
    /// a merge re-homes every group of the record it folds — so its keys
    /// are the root pairs, and a dirty record's groups are its row. A
    /// group none of whose records changed since it was last examined
    /// has unchanged bounds, so a schedule only revisits groups its
    /// merges (or new arrivals) touched.
    pub(crate) fn root_pairs(&self, dirty: Option<&FxHashSet<u32>>) -> Vec<(u32, u32)> {
        let pairs: Vec<(u32, u32)> = match dirty {
            None => self.index.record_pairs().collect(),
            Some(dirty) => {
                let mut pairs: Vec<(u32, u32)> = dirty
                    .iter()
                    .flat_map(|&d| self.index.partners(d).map(move |p| (d.min(p), d.max(p))))
                    .collect();
                pairs.sort_unstable();
                pairs.dedup();
                pairs
            }
        };
        debug_assert!(
            pairs
                .iter()
                .all(|&(i, j)| [i, j].iter().all(|&r| self.uf.find_const(r) == r)),
            "the index names a folded record"
        );
        pairs
    }

    /// Algorithm-1 bounds of a root pair over informative field counts,
    /// computed in the caller's `scratch`.
    pub(crate) fn bounds(
        &self,
        cfg: &HeraConfig,
        i: u32,
        j: u32,
        scratch: &mut BoundsScratch,
    ) -> Bounds {
        let size = |r: u32| self.supers[&r].informative_size();
        self.index
            .bounds_with(i, j, size(i), size(j), cfg.bound_mode, scratch)
    }

    /// Drops the pairs whose upper bound cannot reach δ and ranks the
    /// rest by expected value; returns `(ranked, pruned count)`.
    pub(crate) fn rank(
        &self,
        cfg: &HeraConfig,
        pairs: &[(u32, u32)],
    ) -> (Vec<RankedCandidate>, usize) {
        let supers = &self.supers;
        self.index.drain_ranked(
            pairs,
            |r| supers[&r].informative_size(),
            |r| supers[&r].members().len() as u64,
            cfg.bound_mode,
            cfg.delta,
        )
    }

    // ---- Verification.

    /// Snapshot verify phase: verifies `pairs` on `ctx.threads` workers
    /// against the state as it stands — verification is read-only, so
    /// threads change when a verdict is computed, never what from — then
    /// folds the verdicts, in input order, into the counters and one
    /// `stage` span. `comparisons` says whether these verifications count
    /// as comparisons (Fig. 10 counts candidate pairs, not directly
    /// decided ones).
    pub(crate) fn verify_snapshot(
        &mut self,
        ctx: &Ctx<'_>,
        pairs: &[(u32, u32)],
        stage: &str,
        round: usize,
        comparisons: bool,
    ) -> Vec<Verification> {
        let started = Instant::now();
        let verdicts = {
            let (index, supers) = (&self.index, &self.supers);
            let (verifier, registry) = (&ctx.verifier, ctx.registry);
            let voter = ctx.voting().then_some(&self.voter);
            crate::parallel::par_map_with(
                ctx.threads,
                pairs,
                VerifyScratch::new,
                |scratch, &(a, b)| {
                    verifier.verify_with(index, &supers[&a], &supers[&b], registry, voter, scratch)
                },
            )
        };
        let elapsed = started.elapsed();
        self.stats.verify_time += elapsed;
        let mut agg = StageAgg::default();
        for v in &verdicts {
            count(&mut self.stats, v, comparisons);
            agg.add(v);
        }
        agg.emit(ctx.rec, stage, round);
        ctx.rec.timing(stage, Some(round), elapsed);
        verdicts
    }

    /// First step of applying a snapshot verdict: resolves the pair to
    /// its current roots, smaller first. `None` when an earlier merge
    /// already joined the two sides.
    pub(crate) fn settle(&mut self, pair: (u32, u32)) -> Option<(u32, u32)> {
        let (ri, rj) = (self.uf.find(pair.0), self.uf.find(pair.1));
        (ri != rj).then_some((ri.min(rj), ri.max(rj)))
    }

    /// Sequential re-verification of a root pair whose snapshot verdict
    /// an earlier merge of the same phase made stale, against the state
    /// as it is now; counted like a snapshot verification and added to
    /// the phase's `agg`.
    pub(crate) fn reverify(
        &mut self,
        ctx: &Ctx<'_>,
        (a, b): (u32, u32),
        comparison: bool,
        agg: &mut StageAgg,
    ) -> Verification {
        let started = Instant::now();
        let v = ctx.verifier.verify_with(
            &self.index,
            &self.supers[&a],
            &self.supers[&b],
            ctx.registry,
            ctx.voting().then_some(&self.voter),
            &mut self.scratch,
        );
        self.stats.verify_time += started.elapsed();
        count(&mut self.stats, &v, comparison);
        agg.add(&v);
        v
    }

    // ---- Vote and merge.

    /// Applies the verdict that root pair `(i, j)`, `i < j`, co-refers:
    /// the schema-based method consumes its field matching (line 9), the
    /// merge is journaled, and `j` folds into `i` (line 10). Returns the
    /// label remap — for state kept outside the engine that carries
    /// value labels — and whether the vote decided new schema matchings,
    /// which can change any pair's later verdict.
    pub(crate) fn merge_verified(
        &mut self,
        ctx: &Ctx<'_>,
        round: usize,
        (i, j): (u32, u32),
        v: &Verification,
    ) -> (LabelRemap, bool) {
        let decided = ctx.voting() && self.vote(ctx, round, i, j, v.predicted());
        ctx.rec.merge(round, i, j, v.sim, v.matching.len());
        (self.merge(i, j, &v.matching), decided)
    }

    /// Casts one vote per attribute pair a predicted field matching
    /// aggregates, promotes the matchings whose Theorem-2 error bound
    /// now clears the threshold, and journals them.
    fn vote(
        &mut self,
        ctx: &Ctx<'_>,
        round: usize,
        i: u32,
        j: u32,
        predicted: &[(u32, u32, f64)],
    ) -> bool {
        let (left, right) = (&self.supers[&i], &self.supers[&j]);
        for &(lf, rf, _) in predicted {
            for &a in left.field(lf as usize).attrs {
                for &b in right.field(rf as usize).attrs {
                    self.voter.add_vote(ctx.registry, a, b);
                }
            }
        }
        let fresh = self
            .voter
            .decide(VOTE_PRIOR, VOTE_ERROR_THRESHOLD, VOTE_MIN_N);
        self.stats.schema_matchings_decided += fresh.len();
        // Name resolution only runs when a sink is attached.
        if ctx.rec.enabled() {
            for d in &fresh {
                ctx.rec.schema_decided(
                    round,
                    &ctx.registry.attr_qualified_name(d.attr),
                    &ctx.registry.attr_qualified_name(d.partner),
                    d.up_error(),
                );
            }
        }
        !fresh.is_empty()
    }

    /// Folds super record `j` into `i` along the field matching and
    /// maintains everything keyed by their labels (§III-B2), in this
    /// order: union–find, the super records (`⊕`, which yields the label
    /// remap), and the index through that remap — the `(i, j)` group is
    /// deleted, third-party groups re-homed.
    fn merge(&mut self, i: u32, j: u32, matching: &[(u32, u32, f64)]) -> LabelRemap {
        debug_assert!(i < j);
        let k = self.uf.union(i, j);
        debug_assert_eq!(k, i, "union keeps the smaller root");
        let loser = self.supers.remove(&j).expect("loser super record exists");
        let winner = self.supers.get_mut(&i).expect("winner super record exists");
        let field_matching: Vec<(u32, u32)> = matching.iter().map(|&(l, r, _)| (l, r)).collect();
        let started = Instant::now();
        let remap = winner.absorb(loser, &field_matching);
        let absorbed = Instant::now();
        self.index.merge(i, j, k, |l| remap.apply(l));
        self.stats.absorb_time += absorbed - started;
        self.stats.merge_time += absorbed.elapsed();
        self.stats.merges += 1;
        remap
    }

    // ---- Round and call bookkeeping.

    /// Opens a round.
    pub(crate) fn begin_round(&mut self) -> RoundMark {
        self.stats.iterations += 1;
        RoundMark {
            round: self.stats.iterations,
            merges: self.stats.merges,
            metric_calls: self.stats.metric_sim_calls,
            loop_times: self.stats.loop_times(),
        }
    }

    /// Merges applied since the round opened.
    pub(crate) fn merges_since(&self, mark: &RoundMark) -> i64 {
        (self.stats.merges - mark.merges) as i64
    }

    /// Closes a round: records its metric calls and journals `round_end`
    /// and the round's share of the loop timers. In the crate's own tests
    /// it also checks the index invariants, and panics naming the broken
    /// one.
    pub(crate) fn end_round(&mut self, ctx: &Ctx<'_>, mark: &RoundMark) {
        self.stats
            .metric_calls_by_round
            .push(self.stats.metric_sim_calls - mark.metric_calls);
        ctx.rec.round_end(
            mark.round,
            self.merges_since(mark),
            self.index.len() as i64,
            self.voter.open_buckets() as i64,
        );
        let now = self.stats.loop_times();
        for (k, stage) in ["candidates", "absorb", "index_merge"]
            .into_iter()
            .enumerate()
        {
            ctx.rec
                .timing(stage, Some(mark.round), now[k] - mark.loop_times[k]);
        }
        #[cfg(test)]
        if let Err(broken) = self.index.check_invariants() {
            let round = mark.round;
            panic!("index invariant broken after iteration {round}: {broken}");
        }
    }

    /// Seals the counters at the end of a run or a resolve call that
    /// took `elapsed`.
    pub(crate) fn seal(&mut self, elapsed: Duration) {
        self.stats.final_index_size = self.index.len();
        self.stats.resolve_time += elapsed;
    }
}

/// Folds one verification into the lifetime counters.
fn count(stats: &mut RunStats, v: &Verification, comparison: bool) {
    stats.comparisons += usize::from(comparison);
    stats.simplified_nodes_sum += v.simplified_nodes;
    stats.graph_nodes_sum += v.graph_nodes;
    stats.matchings_run += 1;
    stats.metric_sim_calls += v.metric_calls;
}

/// Deterministic per-stage aggregate over a list of verifications, folded
/// in input order (the `par_map_with` output order, which is independent
/// of thread count). `lookups` sums the verifications' metric calls.
#[derive(Debug, Default)]
pub(crate) struct StageAgg {
    pub(crate) pairs: i64,
    pub(crate) lookups: i64,
    graph_nodes: i64,
    simplified_nodes: i64,
    components: i64,
}

impl StageAgg {
    fn add(&mut self, v: &Verification) {
        self.pairs += 1;
        self.lookups += v.metric_calls as i64;
        self.graph_nodes += v.graph_nodes as i64;
        self.simplified_nodes += v.simplified_nodes as i64;
        self.components += v.components as i64;
    }

    fn emit(&self, rec: &Recorder, stage: &str, round: usize) {
        rec.span(
            stage,
            Some(round),
            &[
                ("pairs", self.pairs),
                ("lookups", self.lookups),
                ("graph_nodes", self.graph_nodes),
                ("simplified_nodes", self.simplified_nodes),
                ("components", self.components),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hera_join::{JoinConfig, SimilarityJoin};
    use hera_sim::TypeDispatch;
    use hera_types::motivating_example;

    #[test]
    fn dirty_root_pairs_equal_the_filtered_full_scan() {
        let ds = motivating_example();
        let metric = TypeDispatch::paper_default();
        let pairs = SimilarityJoin::new(JoinConfig::new(0.5), &metric).join_dataset(&ds);
        let mut engine = Engine::for_dataset(&ds, ValuePairIndex::build(pairs));
        // Fig. 8's first merges (0-based rids): r1 ⊕ r6, then r2 ⊕ r4.
        engine.merge(0, 5, &[(0, 0, 1.0), (1, 1, 1.0)]);
        engine.merge(1, 3, &[]);
        engine.index.check_invariants().unwrap();

        let all = engine.root_pairs(None);
        assert!(all.len() >= 4, "merged index keeps groups: {all:?}");
        assert!(all.iter().all(|&(i, j)| i < j && ![3, 5].contains(&j)));
        for dirty in [
            vec![],
            vec![0],
            vec![1, 0],
            vec![5],
            vec![2, 4, 3],
            vec![0, 1, 2, 4],
        ] {
            let dirty: FxHashSet<u32> = dirty.into_iter().collect();
            let scan: Vec<(u32, u32)> = all
                .iter()
                .copied()
                .filter(|(i, j)| dirty.contains(i) || dirty.contains(j))
                .collect();
            assert_eq!(engine.root_pairs(Some(&dirty)), scan, "dirty {dirty:?}");
        }
    }
}
