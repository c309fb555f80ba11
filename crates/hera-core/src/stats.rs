//! Run statistics — the counters behind Table II, Fig. 10, and Fig. 12.

use hera_types::json::Json;
use hera_types::Result;
use std::time::Duration;

/// Counters and timings collected during one [`Hera`](crate::Hera) run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Compare-and-merge iterations executed (`k` of Table II).
    pub iterations: usize,
    /// Initial index size `|𝒱|` (`|S|` of Table II).
    pub index_size: usize,
    /// Index size remaining when the run stopped.
    pub final_index_size: usize,
    /// Record pairs whose upper bound pruned them (`Up < δ`).
    pub pruned: usize,
    /// Record pairs decided directly from the index (`Up = Low`),
    /// similar *and* dissimilar.
    pub direct_decisions: usize,
    /// Full verifications executed (the "comparisons" of Fig. 10).
    pub comparisons: usize,
    /// Merges performed.
    pub merges: usize,
    /// Sum of simplified-bipartite-graph node counts over all
    /// Kuhn–Munkres invocations (for `m̄`).
    pub simplified_nodes_sum: usize,
    /// Sum of pre-simplification graph node counts (how big the field
    /// matching problems were before Theorem-1 peeling).
    pub graph_nodes_sum: usize,
    /// Number of Kuhn–Munkres invocations.
    pub matchings_run: usize,
    /// Schema matchings decided by the voter.
    pub schema_matchings_decided: usize,
    /// Wall-clock time spent building the index (similarity join
    /// included).
    pub index_build_time: Duration,
    /// Wall-clock time of the iterative phase.
    pub resolve_time: Duration,
    /// Wall-clock time spent verifying candidate pairs (the parallel
    /// snapshot phase plus sequential re-verifications; a subset of
    /// [`RunStats::resolve_time`]).
    pub verify_time: Duration,
    /// Wall-clock time spent generating candidates: walking the index
    /// groups of the dirty records and bounding each (classification in
    /// the batch schedule, ranking in the progressive one). With the two
    /// below, names the part of [`RunStats::resolve_time`] that is not
    /// verification.
    pub candidate_time: Duration,
    /// Wall-clock time spent folding super records into each other (`⊕`,
    /// which yields each merge's label remap).
    pub absorb_time: Duration,
    /// Wall-clock time spent on merge maintenance (§III-B2): re-homing
    /// the index groups and similarity-cache entries of folded records.
    pub merge_time: Duration,
    /// Wall-clock time of a session's `add_record` calls, entry to exit:
    /// streaming ingest, none of it resolution (zero for a batch run).
    pub ingest_time: Duration,
    /// The part of [`RunStats::ingest_time`] spent admitting records to
    /// the streaming blocker and mapping the candidates it returns onto
    /// their entity roots. Zero without blocking.
    pub admit_time: Duration,
    /// The part of [`RunStats::ingest_time`] from the end of admission
    /// to the end of the call: the incremental join of the record's
    /// values and the filing of its pairs in the index. What remains of
    /// `ingest_time` is the arity check and lifting the super record.
    pub join_insert_time: Duration,
    /// Worker threads used by the parallel stages.
    pub threads: usize,
    /// Similarity-cache lookups answered from the cache.
    pub sim_cache_hits: u64,
    /// Similarity-cache lookups that fell through to the metric.
    pub sim_cache_misses: u64,
    /// Cache entries invalidated or folded by merge maintenance.
    pub sim_cache_invalidated: u64,
    /// Entries held by the cache when the run finished.
    pub sim_cache_size: usize,
    /// Total `metric.sim` invocations on the verification path.
    pub metric_sim_calls: u64,
    /// `metric.sim` invocations per compare-and-merge iteration — with
    /// the cache on, this should fall across rounds as re-verifications
    /// hit memoized value pairs.
    pub metric_calls_by_round: Vec<u64>,
}

impl RunStats {
    /// Average simplified-graph size `m̄` (Table II). Zero when no
    /// matching ran.
    pub fn avg_simplified_nodes(&self) -> f64 {
        if self.matchings_run == 0 {
            0.0
        } else {
            self.simplified_nodes_sum as f64 / self.matchings_run as f64
        }
    }

    /// Average pre-simplification graph size (companion to
    /// [`RunStats::avg_simplified_nodes`]; the gap between the two is the
    /// Theorem-1 peeling payoff).
    pub fn avg_graph_nodes(&self) -> f64 {
        if self.matchings_run == 0 {
            0.0
        } else {
            self.graph_nodes_sum as f64 / self.matchings_run as f64
        }
    }

    /// Total wall-clock time (Fig. 12's metric).
    pub fn total_time(&self) -> Duration {
        self.index_build_time + self.resolve_time
    }

    /// Candidate-verification throughput: verified record pairs per
    /// second of [`RunStats::verify_time`]. Zero when nothing ran.
    pub fn verify_pairs_per_sec(&self) -> f64 {
        let secs = self.verify_time.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.comparisons as f64 / secs
        }
    }

    /// Fraction of similarity-cache lookups answered from the cache.
    /// Zero when no lookup happened (cache off or no forced-pair work).
    pub fn sim_cache_hit_rate(&self) -> f64 {
        let total = self.sim_cache_hits + self.sim_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.sim_cache_hits as f64 / total as f64
        }
    }

    /// The loop timers beside `verify_time`, as `[candidate, absorb,
    /// merge]`.
    pub(crate) fn loop_times(&self) -> [Duration; 3] {
        [self.candidate_time, self.absorb_time, self.merge_time]
    }

    /// Folds one verification's cache traffic into the counters.
    pub(crate) fn record_cache_delta(&mut self, delta: &crate::simcache::SimDelta) {
        self.sim_cache_hits += delta.hits;
        self.sim_cache_misses += delta.misses;
        self.metric_sim_calls += delta.metric_calls;
    }

    /// Index-construction throughput: indexed value pairs per second of
    /// [`RunStats::index_build_time`]. Zero when nothing ran.
    pub fn index_pairs_per_sec(&self) -> f64 {
        let secs = self.index_build_time.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.index_size as f64 / secs
        }
    }

    /// Cache-invariant count of value-pair similarity lookups on the
    /// verification path. With the cache on every lookup is a hit or a
    /// miss (`metric_sim_calls == sim_cache_misses`); with it off every
    /// lookup calls the metric directly (`hits = misses = 0`). The max
    /// folds both cases so the figure matches across cache modes — it is
    /// the number journal spans report.
    pub fn sim_lookups(&self) -> u64 {
        self.sim_cache_hits + self.sim_cache_misses.max(self.metric_sim_calls)
    }

    /// Encodes the counters as JSON. Durations are stored as integer
    /// microseconds; every other field is an exact integer, so the
    /// deterministic counters roundtrip bit-identically.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("iterations".into(), Json::Int(self.iterations as i64)),
            ("index_size".into(), Json::Int(self.index_size as i64)),
            (
                "final_index_size".into(),
                Json::Int(self.final_index_size as i64),
            ),
            ("pruned".into(), Json::Int(self.pruned as i64)),
            (
                "direct_decisions".into(),
                Json::Int(self.direct_decisions as i64),
            ),
            ("comparisons".into(), Json::Int(self.comparisons as i64)),
            ("merges".into(), Json::Int(self.merges as i64)),
            (
                "simplified_nodes_sum".into(),
                Json::Int(self.simplified_nodes_sum as i64),
            ),
            (
                "graph_nodes_sum".into(),
                Json::Int(self.graph_nodes_sum as i64),
            ),
            ("matchings_run".into(), Json::Int(self.matchings_run as i64)),
            (
                "schema_matchings_decided".into(),
                Json::Int(self.schema_matchings_decided as i64),
            ),
            (
                "index_build_us".into(),
                Json::Int(self.index_build_time.as_micros() as i64),
            ),
            (
                "resolve_us".into(),
                Json::Int(self.resolve_time.as_micros() as i64),
            ),
            (
                "verify_us".into(),
                Json::Int(self.verify_time.as_micros() as i64),
            ),
            (
                "candidate_us".into(),
                Json::Int(self.candidate_time.as_micros() as i64),
            ),
            (
                "absorb_us".into(),
                Json::Int(self.absorb_time.as_micros() as i64),
            ),
            (
                "merge_us".into(),
                Json::Int(self.merge_time.as_micros() as i64),
            ),
            (
                "ingest_us".into(),
                Json::Int(self.ingest_time.as_micros() as i64),
            ),
            (
                "admit_us".into(),
                Json::Int(self.admit_time.as_micros() as i64),
            ),
            (
                "join_insert_us".into(),
                Json::Int(self.join_insert_time.as_micros() as i64),
            ),
            ("threads".into(), Json::Int(self.threads as i64)),
            (
                "sim_cache_hits".into(),
                Json::Int(self.sim_cache_hits as i64),
            ),
            (
                "sim_cache_misses".into(),
                Json::Int(self.sim_cache_misses as i64),
            ),
            (
                "sim_cache_invalidated".into(),
                Json::Int(self.sim_cache_invalidated as i64),
            ),
            (
                "sim_cache_size".into(),
                Json::Int(self.sim_cache_size as i64),
            ),
            (
                "metric_sim_calls".into(),
                Json::Int(self.metric_sim_calls as i64),
            ),
            (
                "metric_calls_by_round".into(),
                Json::Arr(
                    self.metric_calls_by_round
                        .iter()
                        .map(|&c| Json::Int(c as i64))
                        .collect(),
                ),
            ),
        ])
    }

    /// Decodes counters from [`RunStats::to_json`] output.
    pub fn from_json(json: &Json) -> Result<Self> {
        let usize_of =
            |key: &str| -> Result<usize> { Ok(json.expect(key)?.as_i64()?.max(0) as usize) };
        let u64_of = |key: &str| -> Result<u64> { Ok(json.expect(key)?.as_i64()?.max(0) as u64) };
        let dur_of = |key: &str| -> Result<Duration> { Ok(Duration::from_micros(u64_of(key)?)) };
        // The loop and ingest timers postdate the first snapshots: absent
        // reads zero.
        let dur_or_zero = |key: &str| -> Result<Duration> {
            json.get(key).map_or(Ok(Duration::ZERO), |_| dur_of(key))
        };
        let mut metric_calls_by_round = Vec::new();
        for c in json.expect("metric_calls_by_round")?.as_arr()? {
            metric_calls_by_round.push(c.as_i64()?.max(0) as u64);
        }
        Ok(Self {
            iterations: usize_of("iterations")?,
            index_size: usize_of("index_size")?,
            final_index_size: usize_of("final_index_size")?,
            pruned: usize_of("pruned")?,
            direct_decisions: usize_of("direct_decisions")?,
            comparisons: usize_of("comparisons")?,
            merges: usize_of("merges")?,
            simplified_nodes_sum: usize_of("simplified_nodes_sum")?,
            graph_nodes_sum: usize_of("graph_nodes_sum")?,
            matchings_run: usize_of("matchings_run")?,
            schema_matchings_decided: usize_of("schema_matchings_decided")?,
            index_build_time: dur_of("index_build_us")?,
            resolve_time: dur_of("resolve_us")?,
            verify_time: dur_of("verify_us")?,
            candidate_time: dur_or_zero("candidate_us")?,
            absorb_time: dur_or_zero("absorb_us")?,
            merge_time: dur_or_zero("merge_us")?,
            ingest_time: dur_or_zero("ingest_us")?,
            admit_time: dur_or_zero("admit_us")?,
            join_insert_time: dur_or_zero("join_insert_us")?,
            threads: usize_of("threads")?,
            sim_cache_hits: u64_of("sim_cache_hits")?,
            sim_cache_misses: u64_of("sim_cache_misses")?,
            sim_cache_invalidated: u64_of("sim_cache_invalidated")?,
            sim_cache_size: usize_of("sim_cache_size")?,
            metric_sim_calls: u64_of("metric_sim_calls")?,
            metric_calls_by_round,
        })
    }

    /// Checks the internal-consistency invariants the observability layer
    /// relies on. Returns a description of the first violated invariant.
    ///
    /// Invariants (for a finished run):
    /// - cache on: every metric call is a recorded cache miss;
    ///   cache off: no cache traffic and no retained entries
    /// - `metric_calls_by_round` partitions `metric_sim_calls`
    /// - one per-round entry per iteration
    /// - the verify, candidate, absorb and merge timers cover disjoint
    ///   parts of the loop, so they sum to at most the resolve time
    /// - admission and the join insert are disjoint parts of ingest, so
    ///   they sum to at most the ingest time
    /// - every comparison runs at least one matching
    pub fn check_consistency(&self, cache_enabled: bool) -> std::result::Result<(), String> {
        if cache_enabled {
            if self.metric_sim_calls != self.sim_cache_misses {
                return Err(format!(
                    "cache on: metric_sim_calls ({}) != sim_cache_misses ({})",
                    self.metric_sim_calls, self.sim_cache_misses
                ));
            }
        } else {
            if self.sim_cache_hits != 0 || self.sim_cache_misses != 0 {
                return Err(format!(
                    "cache off: recorded cache traffic (hits {}, misses {})",
                    self.sim_cache_hits, self.sim_cache_misses
                ));
            }
            if self.sim_cache_size != 0 {
                return Err(format!(
                    "cache off: cache retained {} entries",
                    self.sim_cache_size
                ));
            }
        }
        let by_round: u64 = self.metric_calls_by_round.iter().sum();
        if by_round != self.metric_sim_calls {
            return Err(format!(
                "metric_calls_by_round sums to {by_round}, metric_sim_calls is {}",
                self.metric_sim_calls
            ));
        }
        if self.iterations != self.metric_calls_by_round.len() {
            return Err(format!(
                "iterations ({}) != metric_calls_by_round.len() ({})",
                self.iterations,
                self.metric_calls_by_round.len()
            ));
        }
        let timed = self.verify_time + self.loop_times().into_iter().sum::<Duration>();
        if timed > self.resolve_time {
            return Err(format!(
                "verify + candidate + absorb + merge time ({timed:?}) exceeds resolve_time ({:?})",
                self.resolve_time
            ));
        }
        let ingest_named = self.admit_time + self.join_insert_time;
        if ingest_named > self.ingest_time {
            return Err(format!(
                "admit + join insert time ({ingest_named:?}) exceeds ingest_time ({:?})",
                self.ingest_time
            ));
        }
        if self.matchings_run < self.comparisons {
            return Err(format!(
                "matchings_run ({}) < comparisons ({})",
                self.matchings_run, self.comparisons
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_simplified_nodes() {
        let mut s = RunStats::default();
        assert_eq!(s.avg_simplified_nodes(), 0.0);
        s.simplified_nodes_sum = 24;
        s.matchings_run = 3;
        assert!((s.avg_simplified_nodes() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn total_time_sums() {
        let s = RunStats {
            index_build_time: Duration::from_millis(30),
            resolve_time: Duration::from_millis(70),
            ..Default::default()
        };
        assert_eq!(s.total_time(), Duration::from_millis(100));
    }

    #[test]
    fn cache_hit_rate() {
        let mut s = RunStats::default();
        assert_eq!(s.sim_cache_hit_rate(), 0.0);
        s.record_cache_delta(&crate::simcache::SimDelta {
            fills: Vec::new(),
            hits: 3,
            misses: 1,
            metric_calls: 1,
        });
        assert!((s.sim_cache_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(s.metric_sim_calls, 1);
    }

    #[test]
    fn json_roundtrip_preserves_counters() {
        let s = RunStats {
            iterations: 3,
            index_size: 120,
            final_index_size: 90,
            pruned: 14,
            comparisons: 33,
            merges: 7,
            matchings_run: 40,
            threads: 4,
            sim_cache_hits: 21,
            sim_cache_misses: 19,
            sim_cache_invalidated: 2,
            sim_cache_size: 17,
            metric_sim_calls: 19,
            metric_calls_by_round: vec![10, 6, 3],
            index_build_time: Duration::from_micros(1234),
            resolve_time: Duration::from_micros(5678),
            verify_time: Duration::from_micros(345),
            candidate_time: Duration::from_micros(456),
            absorb_time: Duration::from_micros(67),
            merge_time: Duration::from_micros(890),
            ..Default::default()
        };
        let dump = s.to_json().to_string_compact();
        let back = RunStats::from_json(&hera_types::json::parse(&dump).unwrap()).unwrap();
        assert_eq!(back.to_json().to_string_compact(), dump);
        assert_eq!(back.merges, 7);
        assert_eq!(back.metric_calls_by_round, vec![10, 6, 3]);
        assert_eq!(back.resolve_time, Duration::from_micros(5678));
        assert_eq!(back.merge_time, Duration::from_micros(890));
        back.check_consistency(true).unwrap();
    }

    #[test]
    fn loop_timers_read_as_zero_when_absent_and_bound_resolve_time() {
        let mut s = RunStats {
            resolve_time: Duration::from_micros(1000),
            verify_time: Duration::from_micros(400),
            candidate_time: Duration::from_micros(300),
            absorb_time: Duration::from_micros(100),
            merge_time: Duration::from_micros(200),
            ..Default::default()
        };
        s.check_consistency(true).unwrap();
        // A snapshot written before the timers existed carries no keys.
        let Json::Obj(mut fields) = s.to_json() else {
            unreachable!()
        };
        fields.retain(|(k, _)| !["candidate_us", "absorb_us", "merge_us"].contains(&k.as_str()));
        let old = RunStats::from_json(&Json::Obj(fields)).unwrap();
        assert_eq!(old.loop_times(), [Duration::ZERO; 3]);
        assert_eq!(old.verify_time, s.verify_time);
        s.merge_time += Duration::from_micros(1);
        assert!(s.check_consistency(true).is_err());
    }

    #[test]
    fn ingest_timers_read_as_zero_when_absent_and_bound_ingest_time() {
        let mut s = RunStats {
            ingest_time: Duration::from_micros(900),
            admit_time: Duration::from_micros(300),
            join_insert_time: Duration::from_micros(500),
            ..Default::default()
        };
        s.check_consistency(true).unwrap();
        let dump = s.to_json().to_string_compact();
        let back = RunStats::from_json(&hera_types::json::parse(&dump).unwrap()).unwrap();
        assert_eq!(back.ingest_time, s.ingest_time);
        assert_eq!(back.admit_time, s.admit_time);
        assert_eq!(back.join_insert_time, s.join_insert_time);
        // A snapshot written before the timers existed carries no keys.
        let Json::Obj(mut fields) = s.to_json() else {
            unreachable!()
        };
        fields.retain(|(k, _)| !["ingest_us", "admit_us", "join_insert_us"].contains(&k.as_str()));
        let old = RunStats::from_json(&Json::Obj(fields)).unwrap();
        assert_eq!(old.ingest_time, Duration::ZERO);
        assert_eq!(old.admit_time + old.join_insert_time, Duration::ZERO);
        s.admit_time += Duration::from_micros(101);
        assert!(s.check_consistency(true).is_err());
    }

    /// A blocked session's ingest timers as the session accumulates
    /// them: both named parts run, and together stay inside the whole.
    #[test]
    fn session_ingest_timers_are_parts_of_ingest_time() {
        use crate::{HeraConfig, HeraSession};
        use hera_block::BlockingScheme;
        let ds = hera_types::motivating_example();
        let config = HeraConfig::paper_example().with_blocking(BlockingScheme::token());
        let mut session = HeraSession::builder(config).build();
        let schemas = session.mirror_schemas(&ds.registry);
        for rec in ds.iter() {
            session
                .add_record(schemas[rec.schema.index()], rec.values.clone())
                .unwrap();
        }
        let s = session.stats();
        assert!(s.admit_time > Duration::ZERO && s.join_insert_time > Duration::ZERO);
        assert!(s.admit_time + s.join_insert_time <= s.ingest_time);
        s.check_consistency(true).unwrap();
    }

    #[test]
    fn throughput_helpers() {
        let s = RunStats::default();
        assert_eq!(s.verify_pairs_per_sec(), 0.0);
        assert_eq!(s.index_pairs_per_sec(), 0.0);
        let s = RunStats {
            comparisons: 500,
            verify_time: Duration::from_millis(250),
            index_size: 1_000,
            index_build_time: Duration::from_millis(100),
            ..Default::default()
        };
        assert!((s.verify_pairs_per_sec() - 2_000.0).abs() < 1e-9);
        assert!((s.index_pairs_per_sec() - 10_000.0).abs() < 1e-9);
    }
}
