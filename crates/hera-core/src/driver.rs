//! The HERA driver — Algorithm 2 (§V).

use crate::config::HeraConfig;
use crate::engine::{Ctx, Engine, StageAgg};
use crate::stats::RunStats;
use crate::voter::DecidedMatching;
use hera_index::{BoundsScratch, ValuePairIndex};
use hera_join::{Among, IncrementalJoin, JoinConfig, SimilarityJoin};
use hera_sim::{TypeDispatch, ValueSimilarity};
use hera_types::json::Json;
use hera_types::{Dataset, HeraError, Label, Result};
use rustc_hash::FxHashSet;
use std::sync::Arc;
use std::time::Instant;

/// Output of one HERA run.
#[derive(Debug, Clone)]
pub struct HeraResult {
    /// `entity_of[rid]` — the entity label of each base record: the rid of
    /// the super record it was folded into (Algorithm 2 lines 11–12).
    pub entity_of: Vec<u32>,
    /// Run counters (Table II / Fig. 10 / Fig. 12 inputs).
    pub stats: RunStats,
    /// Schema matchings decided by the schema-based method — a useful
    /// by-product ("HERA can generate some high-reliable schema
    /// matchings", §I).
    pub schema_matchings: Vec<DecidedMatching>,
}

impl HeraResult {
    /// Number of predicted entities.
    pub fn entity_count(&self) -> usize {
        let mut labels = self.entity_of.clone();
        labels.sort_unstable();
        labels.dedup();
        labels.len()
    }

    /// Records grouped by predicted entity, ordered by entity label.
    pub fn clusters(&self) -> Vec<Vec<u32>> {
        let mut by_label: std::collections::BTreeMap<u32, Vec<u32>> = Default::default();
        for (rid, &label) in self.entity_of.iter().enumerate() {
            by_label.entry(label).or_default().push(rid as u32);
        }
        by_label.into_values().collect()
    }

    /// True if two base records were resolved to the same entity.
    pub fn same_entity(&self, a: u32, b: u32) -> bool {
        self.entity_of[a as usize] == self.entity_of[b as usize]
    }
}

/// The Heterogeneous Entity Resolution Algorithm.
pub struct Hera {
    config: HeraConfig,
    metric: Arc<dyn ValueSimilarity>,
    recorder: hera_obs::Recorder,
}

/// Builder for [`Hera`] — the single construction path for every option
/// combination.
///
/// ```
/// use hera_core::{Hera, HeraConfig};
/// let hera = Hera::builder(HeraConfig::paper_example()).build();
/// assert_eq!(hera.config().delta, 0.5);
/// ```
pub struct HeraBuilder {
    config: HeraConfig,
    metric: Arc<dyn ValueSimilarity>,
    recorder: Option<hera_obs::Recorder>,
}

impl HeraBuilder {
    fn with_config(config: HeraConfig) -> Self {
        Self {
            config,
            metric: Arc::new(TypeDispatch::paper_default()),
            recorder: None,
        }
    }

    /// Replaces the paper-default metric stack
    /// ([`TypeDispatch::paper_default`]) with a custom black-box value
    /// similarity.
    pub fn metric(mut self, metric: Arc<dyn ValueSimilarity>) -> Self {
        self.metric = metric;
        self
    }

    /// Attaches a journal recorder; every stage of the run emits through
    /// it (see the `hera-obs` crate docs for the event schema). Defaults
    /// to [`hera_obs::Recorder::from_env`].
    pub fn recorder(mut self, recorder: hera_obs::Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Builds the runner.
    pub fn build(self) -> Hera {
        Hera {
            config: self.config,
            metric: self.metric,
            recorder: self.recorder.unwrap_or_else(hera_obs::Recorder::from_env),
        }
    }
}

impl Hera {
    /// Starts building a runner; see [`HeraBuilder`].
    pub fn builder(config: HeraConfig) -> HeraBuilder {
        HeraBuilder::with_config(config)
    }

    /// Read access to the configuration.
    pub fn config(&self) -> &HeraConfig {
        &self.config
    }

    /// Runs the similarity join that feeds the index (Algorithm 2 line 1,
    /// buildable offline per Prop. 1). The result can be shared across
    /// [`Hera::run_with_pairs`] calls — δ-sweeps reuse one join.
    ///
    /// Without blocking this is [`SimilarityJoin::join_dataset`]. Under a
    /// blocking scheme the blocker picks the record pairs and a session's
    /// scan compares them: every record is registered in one
    /// [`IncrementalJoin`], then scanned against its earlier co-blocked
    /// records, on `num_threads` workers. The output is the all-pairs
    /// join restricted to the blocker's record pairs — same labels, same
    /// similarity bits, same order.
    ///
    /// # Panics
    /// Under a blocking scheme, if ξ is 0: as in a session, the scan's
    /// filters need ξ > 0.
    pub fn join(&self, ds: &Dataset) -> Vec<hera_join::ValuePair> {
        let threads = self.config.num_threads;
        let scheme = match self.config.blocking {
            hera_block::BlockingScheme::None => {
                let config = JoinConfig::new(self.config.xi).with_threads(threads);
                return SimilarityJoin::new(config, self.metric.as_ref())
                    .with_recorder(self.recorder.clone())
                    .join_dataset(ds);
            }
            scheme => scheme,
        };
        let blocked = hera_block::Blocker::new(scheme)
            .with_recorder(self.recorder.clone())
            .with_threads(threads)
            .block(ds);
        let started = Instant::now();
        // Each record's earlier partners, ascending: the blocker's pairs
        // are sorted, each `(a, b)` with `a < b`.
        let mut earlier: Vec<Vec<u32>> = vec![Vec::new(); ds.len()];
        for &(a, b) in &blocked.pairs {
            earlier[b as usize].push(a);
        }
        let mut join = IncrementalJoin::new(self.config.xi, 2, self.metric.clone());
        let scans: Vec<_> = ds
            .iter()
            .zip(&earlier)
            .map(|(rec, partners)| {
                let rid = rec.id.raw();
                let entries = join.register_record(rid, &rec.values);
                (rid, entries, Among::Records(partners))
            })
            .collect();
        // Nothing merges during the join, so a label is still the record
        // and field the dataset holds its value at.
        let value = |l: Label| &ds.records[l.rid as usize].values[l.fid as usize];
        let mut pairs = join.pairs_of_each(threads, &scans, value).concat();
        pairs.sort_unstable_by(hera_join::output_order);
        // The funnel counters are order-independent totals, so the span
        // is part of the deterministic core journal. `candidates` counts
        // the value pairs of the compared record pairs.
        let values_of = |rid: u32| scans[rid as usize].1.len();
        let candidates: usize = blocked
            .pairs
            .iter()
            .map(|&(a, b)| values_of(a) * values_of(b))
            .sum();
        let rec = &self.recorder;
        rec.span(
            "join",
            None,
            &[
                ("values", join.len() as i64),
                ("candidates", candidates as i64),
                ("pairs", pairs.len() as i64),
            ],
        );
        rec.timing("join", None, started.elapsed());
        pairs
    }

    /// Runs Algorithm 2 on a dataset.
    pub fn run(&self, ds: &Dataset) -> Result<HeraResult> {
        let t0 = Instant::now();
        let pairs = self.join(ds);
        let join_time = t0.elapsed();
        let mut result = self.run_with_pairs(ds, pairs)?;
        result.stats.index_build_time += join_time;
        Ok(result)
    }

    /// Runs Algorithm 2 with a precomputed similarity-join result (must
    /// come from [`Hera::join`] on the same dataset with the same ξ).
    /// Pairs naming unknown records are rejected with
    /// [`HeraError::UnknownId`]; non-normalized pairs (`a.rid >= b.rid`)
    /// with [`HeraError::InvalidConfig`].
    pub fn run_with_pairs(
        &self,
        ds: &Dataset,
        pairs: Vec<hera_join::ValuePair>,
    ) -> Result<HeraResult> {
        for p in &pairs {
            if p.a.rid as usize >= ds.len() || p.b.rid as usize >= ds.len() {
                return Err(HeraError::UnknownId(format!(
                    "value pair references record {} but the dataset has {} records",
                    p.a.rid.max(p.b.rid),
                    ds.len()
                )));
            }
            if p.a.rid >= p.b.rid {
                return Err(HeraError::InvalidConfig(format!(
                    "value pair ({}, {}) is not rid-normalized (expected a.rid < b.rid)",
                    p.a, p.b
                )));
            }
        }
        let cfg = &self.config;
        let rec = &self.recorder;
        rec.run_start("batch", &ds.name, ds.len(), cfg.delta, cfg.xi);

        // ---- Line 1: build index (offline, Prop. 1).
        let t0 = Instant::now();
        let index = ValuePairIndex::build(pairs);
        let index_build_time = t0.elapsed();
        index.record_span(rec, "index_build");
        rec.timing("index_build", None, index_build_time);

        let t1 = Instant::now();
        let ctx = Ctx::new(cfg, rec, self.metric.as_ref(), &ds.registry);
        let mut engine = Engine::for_dataset(ds, index);
        engine.stats.index_size = engine.index.len();
        engine.stats.index_build_time = index_build_time;
        engine.stats.threads = ctx.threads;

        // ---- Lines 2–10: iterate until no two super records merge. The
        // first round scans every index group; later rounds only the
        // groups touching a record merged in the round before.
        let mut dirty: Option<FxHashSet<u32>> = None;
        while engine.stats.iterations < cfg.max_iterations {
            let merged = BatchRound::run(&mut engine, &ctx, dirty.as_ref())?;
            if merged.is_empty() {
                break;
            }
            dirty = Some(merged);
        }
        engine.seal(t1.elapsed());
        let Engine {
            mut uf,
            voter,
            stats,
            ..
        } = engine;

        rec.run_end(&[
            ("iterations", stats.iterations as i64),
            ("merges", stats.merges as i64),
            ("comparisons", stats.comparisons as i64),
            ("pruned", stats.pruned as i64),
            ("direct_decisions", stats.direct_decisions as i64),
            ("matchings_run", stats.matchings_run as i64),
            (
                "schema_matchings_decided",
                stats.schema_matchings_decided as i64,
            ),
            ("index_size", stats.index_size as i64),
            ("final_index_size", stats.final_index_size as i64),
            ("graph_nodes_sum", stats.graph_nodes_sum as i64),
            ("simplified_nodes_sum", stats.simplified_nodes_sum as i64),
            ("sim_lookups", stats.metric_sim_calls as i64),
        ]);
        // Host-dependent numbers go on a diagnostic line: the thread
        // count differs per run, so it may not touch the core journal.
        let int = |n: u64| Json::Int(n as i64);
        rec.emit_diag(
            "diag",
            vec![
                ("threads", int(stats.threads as u64)),
                ("metric_sim_calls", int(stats.metric_sim_calls)),
            ],
        );
        rec.timing("resolve", None, stats.resolve_time);
        rec.timing("verify", None, stats.verify_time);
        rec.flush();

        // ---- Lines 11–12: entity labels via union–find.
        let entity_of: Vec<u32> = (0..ds.len() as u32).map(|r| uf.find(r)).collect();
        Ok(HeraResult {
            entity_of,
            stats,
            schema_matchings: voter.decided(),
        })
    }
}

/// The batch schedule's round: every candidate the dirty groups yield,
/// the directly-decided ones first, stale verdicts re-verified in-phase.
struct BatchRound<'a, 'c> {
    engine: &'a mut Engine,
    ctx: &'a Ctx<'c>,
    round: usize,
    /// Root pairs this round has taken up, so a pair re-rooted onto one
    /// of them is not examined twice.
    processed: FxHashSet<(u32, u32)>,
    /// The candidate stage's input, in order: the bounds' undecided
    /// pairs, then the direct pairs a merge re-rooted.
    candidates: Vec<(u32, u32)>,
    /// Winners of this round's merges — the next round's dirty set.
    merged: FxHashSet<u32>,
}

impl BatchRound<'_, '_> {
    /// Runs one round over the groups touching `dirty` and returns the
    /// roots it merged into (empty at the fixpoint).
    fn run(
        engine: &mut Engine,
        ctx: &Ctx<'_>,
        dirty: Option<&FxHashSet<u32>>,
    ) -> Result<FxHashSet<u32>> {
        let cfg = ctx.cfg;
        let mark = engine.begin_round();
        let pruned_before = engine.stats.pruned;

        // Line 3: classify every record pair sharing a similar value by
        // its bounds.
        let started = Instant::now();
        let groups = engine.root_pairs(dirty);
        let mut direct: Vec<(u32, u32)> = Vec::new();
        let mut candidates: Vec<(u32, u32)> = Vec::new();
        let mut scratch = BoundsScratch::default();
        for &(i, j) in &groups {
            let b = engine.bounds(cfg, i, j, &mut scratch);
            if b.up < cfg.delta {
                engine.stats.pruned += 1;
            } else if b.is_exact() {
                engine.stats.direct_decisions += 1;
                direct.push((i, j));
            } else {
                candidates.push((i, j));
            }
        }
        engine.stats.candidate_time += started.elapsed();
        ctx.rec.span(
            "candidates",
            Some(mark.round),
            &[
                ("groups", groups.len() as i64),
                ("pruned", (engine.stats.pruned - pruned_before) as i64),
                ("direct", direct.len() as i64),
                ("deferred", candidates.len() as i64),
            ],
        );

        let mut round = BatchRound {
            engine,
            ctx,
            round: mark.round,
            processed: direct.iter().copied().collect(),
            candidates,
            merged: FxHashSet::default(),
        };
        round.stage(true, &direct);
        // Candidates resolve through union–find once more: the direct
        // stage's merges may have re-rooted or joined them.
        let mut verify_list: Vec<(u32, u32)> = Vec::new();
        for (i, j) in std::mem::take(&mut round.candidates) {
            let (ri, rj) = (round.engine.uf.find(i), round.engine.uf.find(j));
            let key = (ri.min(rj), ri.max(rj));
            if ri != rj && round.processed.insert(key) {
                verify_list.push(key);
            }
        }
        round.stage(false, &verify_list);

        let merged = round.merged;
        engine.end_round(ctx, &mark).map_err(HeraError::Corrupt)?;
        Ok(merged)
    }

    /// One verify-then-apply stage: lines 4–5 over the pairs the bounds
    /// decided (`direct`), lines 6–10 over the candidates. Direct pairs
    /// count no comparison, merge whatever similarity a re-verification
    /// finds, and once re-rooted fall through to the candidates.
    ///
    /// Phase A verifies `list` against the state as the stage finds it,
    /// on any number of workers; phase B applies the verdicts in list
    /// order. The split keeps N-thread results bit-identical to the
    /// 1-thread run: a merge earlier in phase B can re-root or grow a
    /// super record a later verdict was computed from, and such a stale
    /// pair is re-verified sequentially against the current state, so
    /// every decision is the one a fully sequential pass would make.
    fn stage(&mut self, direct: bool, list: &[(u32, u32)]) {
        let (ctx, round) = (self.ctx, self.round);
        let (verify_span, apply_span) = if direct {
            ("verify_direct", "apply_direct")
        } else {
            ("verify_candidates", "apply_candidates")
        };
        let verdicts = self
            .engine
            .verify_snapshot(ctx, list, verify_span, round, !direct);
        let merges_before = self.engine.stats.merges;
        let mut touched: FxHashSet<u32> = FxHashSet::default();
        let mut reverified = StageAgg::default();
        for (&key, snapshot) in list.iter().zip(&verdicts) {
            let Some(cur) = self.engine.settle(key) else {
                continue;
            };
            if cur != key {
                if direct {
                    // Exact bounds say nothing under merged roots (the
                    // conflict-free similar-field-pair argument no longer
                    // applies): the pair falls through to the candidates.
                    if self.processed.insert(cur) {
                        self.candidates.push(cur);
                    }
                    continue;
                }
                if !self.processed.insert(cur) {
                    continue;
                }
            }
            let stale = cur != key || touched.contains(&cur.0) || touched.contains(&cur.1);
            let fresh;
            let v = if stale {
                fresh = self.engine.reverify(ctx, cur, !direct, &mut reverified);
                &fresh
            } else {
                snapshot
            };
            if !direct && v.sim < ctx.cfg.delta {
                continue;
            }
            self.engine.merge_verified(ctx, round, cur, v);
            self.merged.insert(cur.0);
            touched.insert(cur.0);
            touched.insert(cur.1);
        }
        ctx.rec.span(
            apply_span,
            Some(round),
            &[
                ("merges", (self.engine.stats.merges - merges_before) as i64),
                ("reverified", reverified.pairs),
                ("lookups", reverified.lookups),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hera_index::BoundMode;
    use hera_types::{motivating_example, CanonAttrId, DatasetBuilder, EntityId, Value};

    #[test]
    fn motivating_example_resolves_correctly() {
        // The paper's end-to-end walkthrough (Fig. 8): with ξ = δ = 0.5,
        // {r1, r2, r4, r6} and {r3, r5} (1-based) form the two entities.
        let ds = motivating_example();
        let result = Hera::builder(HeraConfig::paper_example())
            .build()
            .run(&ds)
            .unwrap();
        assert_eq!(result.entity_count(), 2, "labels: {:?}", result.entity_of);
        // 0-based: {0, 1, 3, 5} and {2, 4}.
        assert!(result.same_entity(0, 1));
        assert!(result.same_entity(0, 3));
        assert!(result.same_entity(0, 5));
        assert!(result.same_entity(2, 4));
        assert!(!result.same_entity(0, 2));
        assert!(result.stats.merges == 4);
        assert!(result.stats.iterations >= 2);
    }

    #[test]
    fn high_threshold_merges_nothing_dissimilar() {
        let ds = motivating_example();
        let result = Hera::builder(HeraConfig::new(0.99, 0.9))
            .build()
            .run(&ds)
            .unwrap();
        // At δ=0.99 only near-identical records merge; r3/r5 do not.
        assert!(!result.same_entity(2, 4));
    }

    #[test]
    fn zero_iteration_on_empty_dataset() {
        let ds = DatasetBuilder::new("empty").build();
        let result = Hera::builder(HeraConfig::paper_example())
            .build()
            .run(&ds)
            .unwrap();
        assert!(result.entity_of.is_empty());
        assert_eq!(result.entity_count(), 0);
    }

    #[test]
    fn singleton_records_stay_singletons() {
        let mut b = DatasetBuilder::new("t");
        let s = b.add_schema("S", [("x", CanonAttrId::new(0))]);
        b.add_record(s, vec![Value::from("alpha")], EntityId::new(0))
            .unwrap();
        b.add_record(s, vec![Value::from("omega")], EntityId::new(1))
            .unwrap();
        let ds = b.build();
        let result = Hera::builder(HeraConfig::paper_example())
            .build()
            .run(&ds)
            .unwrap();
        assert_eq!(result.entity_count(), 2);
        assert_eq!(result.stats.merges, 0);
    }

    #[test]
    fn stats_are_populated() {
        let ds = motivating_example();
        let result = Hera::builder(HeraConfig::paper_example())
            .build()
            .run(&ds)
            .unwrap();
        let s = &result.stats;
        assert!(s.index_size > 0);
        assert!(s.iterations >= 1);
        assert!(s.final_index_size <= s.index_size);
        assert!(s.merges >= s.comparisons.min(s.merges));
    }

    #[test]
    fn description_difference_needs_iterations() {
        // r1 and r2 share only "name"-ish evidence (Bush vs John — none!).
        // They can only merge after r1⊕r6 and r2⊕r4 exist. Verify the
        // run needed more than one iteration.
        let ds = motivating_example();
        let result = Hera::builder(HeraConfig::paper_example())
            .build()
            .run(&ds)
            .unwrap();
        assert!(result.stats.iterations >= 2);
        assert!(result.same_entity(0, 1), "description difference resolved");
    }

    #[test]
    fn paper_bound_mode_also_resolves_example() {
        let ds = motivating_example();
        let cfg = HeraConfig::paper_example().with_bound_mode(BoundMode::Paper);
        let result = Hera::builder(cfg).build().run(&ds).unwrap();
        assert_eq!(result.entity_count(), 2);
    }

    #[test]
    fn greedy_matching_mode_runs() {
        let ds = motivating_example();
        let cfg = HeraConfig::paper_example().with_greedy_matching();
        let result = Hera::builder(cfg).build().run(&ds).unwrap();
        assert_eq!(result.entity_count(), 2);
    }

    #[test]
    fn voting_disabled_still_resolves_example() {
        let ds = motivating_example();
        let cfg = HeraConfig::paper_example().without_schema_voting();
        let result = Hera::builder(cfg).build().run(&ds).unwrap();
        assert_eq!(result.entity_count(), 2);
        assert!(result.schema_matchings.is_empty());
    }

    #[test]
    fn index_invariants_hold_throughout_run() {
        let ds = motivating_example();
        let cfg = HeraConfig::paper_example().with_index_validation();
        let result = Hera::builder(cfg).build().run(&ds).unwrap();
        assert_eq!(result.entity_count(), 2);
    }

    #[test]
    fn bad_pairs_are_rejected_not_panicked() {
        use hera_types::Label;
        let ds = motivating_example();
        let hera = Hera::builder(HeraConfig::paper_example()).build();
        let out_of_range = vec![hera_join::ValuePair {
            a: Label::new(0, 0, 0),
            b: Label::new(99, 0, 0),
            sim: 1.0,
        }];
        assert!(matches!(
            hera.run_with_pairs(&ds, out_of_range),
            Err(HeraError::UnknownId(_))
        ));
        let unnormalized = vec![hera_join::ValuePair {
            a: Label::new(3, 0, 0),
            b: Label::new(1, 0, 0),
            sim: 1.0,
        }];
        assert!(matches!(
            hera.run_with_pairs(&ds, unnormalized),
            Err(HeraError::InvalidConfig(_))
        ));
    }

    #[test]
    fn clusters_partition_records() {
        let ds = motivating_example();
        let result = Hera::builder(HeraConfig::paper_example())
            .build()
            .run(&ds)
            .unwrap();
        let clusters = result.clusters();
        let total: usize = clusters.iter().map(|c| c.len()).sum();
        assert_eq!(total, ds.len());
        let mut all: Vec<u32> = clusters.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..6).collect::<Vec<u32>>());
    }
}
