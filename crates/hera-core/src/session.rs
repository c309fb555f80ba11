//! Streaming (incremental) entity resolution — HERA beyond the batch
//! Algorithm 2.
//!
//! The paper's framework is batch: build the index offline, iterate to a
//! fixpoint. Real heterogeneous sources *stream* — new exports arrive and
//! should resolve against everything already known without recomputing
//! from scratch. [`HeraSession`] maintains the algorithm's entire state
//! (incremental similarity join, value-pair index, super records,
//! union–find, schema voter) under record insertions:
//!
//! * [`HeraSession::add_record`] joins the new record's values against
//!   every live value, extends the index, and lifts the record into a
//!   super record;
//! * [`HeraSession::resolve`] runs compare-and-merge to a fixpoint, but
//!   only over groups touching records that changed since the last call
//!   (the same dirty-tracking argument the batch driver uses);
//! * decided schema matchings persist across insertions, so the session
//!   gets *better* at matching heterogeneous schemas as it ages — the
//!   schema-based method's intended long-run behavior.

use crate::config::HeraConfig;
use crate::engine::{Ctx, Engine};
use crate::stats::RunStats;
use crate::super_record::SuperRecord;
use crate::voter::{DecidedMatching, SchemaVoter};
use hera_block::StreamingBlocker;
use hera_faults::{io_retryable, BackoffPolicy, Clock, FaultInjector, SystemClock};
use hera_index::{Grouping, UnionFind, ValuePairIndex};
use hera_join::IncrementalJoin;
use hera_sim::{TypeDispatch, ValueSimilarity};
use hera_store::Snapshot;
use hera_types::json::Json;
use hera_types::{HeraError, RecordId, Result, SchemaId, SchemaRegistry, Value};
use rustc_hash::{FxHashMap, FxHashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Verification cap per resolve round (see
/// [`HeraSession::resolve_progressive`]): small enough that a big
/// cluster coalesces across rounds instead of burning Θ(k²) snapshot
/// verifications before its first super-record pair forms, large enough
/// that the parallel verify phase still amortizes its fan-out. Part of
/// the deterministic schedule — never derived from the budget.
const ROUND_CHUNK: usize = 64;

/// Relative priority floor for one resolve round: candidates below
/// `ROUND_FOCUS ×` the round's top priority wait for a later round even
/// when the matching has slots left. Without it every round *fills* with
/// low-value pairs — a k-record cluster contributes at most ⌊k/2⌋
/// disjoint pairs per round, so the filler burns most of the budget
/// while the top cluster crawls through its ~log k coalescence levels.
/// Deferral is free (deferred pairs stay unverified on the frontier), so
/// focusing a round only re-orders spending toward the highest expected
/// value. Like [`ROUND_CHUNK`], a pure function of the ranked list —
/// never of the budget.
const ROUND_FOCUS: f64 = 0.5;

/// Budget for one [`HeraSession::resolve_progressive`] call, in
/// verification comparisons, applied merges, and/or wall-clock time.
/// `None` on an axis means unlimited; the default is unlimited on all —
/// equivalent to [`HeraSession::resolve`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolveBudget {
    /// Maximum pair verifications (snapshot + stale re-verifications)
    /// this call may spend.
    pub comparisons: Option<u64>,
    /// Maximum merges this call may apply.
    pub merges: Option<u64>,
    /// Maximum wall-clock time this call may spend. Unlike the two
    /// deterministic axes, a wall-clock cut is **best-effort, not
    /// bit-exact**: the schedule is still the same deterministic
    /// priority order, but *where* it is cut depends on host timing, so
    /// two runs with the same wall-clock budget may stop at different
    /// prefixes of it. The cut is enforced at round boundaries plus a
    /// per-round cap predicted by the session's verify cost model
    /// ([`HeraSession::per_comparison_cost`]); a call can therefore
    /// overshoot by roughly one round of verifications while the model
    /// warms up.
    pub wall_clock: Option<Duration>,
}

impl ResolveBudget {
    /// No limit on any axis: runs to the fixpoint, exactly like
    /// [`HeraSession::resolve`].
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Limit on verification comparisons only.
    pub fn comparisons(n: u64) -> Self {
        Self {
            comparisons: Some(n),
            ..Self::default()
        }
    }

    /// Limit on applied merges only.
    pub fn merges(n: u64) -> Self {
        Self {
            merges: Some(n),
            ..Self::default()
        }
    }

    /// Limit on wall-clock time only (best-effort; see
    /// [`ResolveBudget::wall_clock`] for the exactness caveat).
    pub fn wall_clock(d: Duration) -> Self {
        Self {
            wall_clock: Some(d),
            ..Self::default()
        }
    }

    /// Adds a merge limit to an existing budget.
    pub fn with_merges(mut self, n: u64) -> Self {
        self.merges = Some(n);
        self
    }

    /// Adds a wall-clock limit to an existing budget (best-effort; see
    /// [`ResolveBudget::wall_clock`] for the exactness caveat).
    pub fn with_wall_clock(mut self, d: Duration) -> Self {
        self.wall_clock = Some(d);
        self
    }

    /// True when any axis is limited.
    pub fn is_bounded(&self) -> bool {
        self.comparisons.is_some() || self.merges.is_some() || self.wall_clock.is_some()
    }
}

/// One applied merge, streamed by
/// [`HeraSession::resolve_progressive_with`] as it happens. Events come
/// out in schedule order — the same confidence-ranked order a budgeted
/// [`HeraSession::resolve_progressive`] spends its budget in — so a
/// consumer that stops listening after `k` events has seen exactly the
/// merges a merge budget of `k` would have applied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergeEvent {
    /// Root record id that absorbed the loser (the surviving entity
    /// label).
    pub winner: u32,
    /// Root record id folded into the winner.
    pub loser: u32,
    /// Record-level similarity of the merged pair (the verifier's
    /// matching score; always ≥ the session's δ).
    pub confidence: f64,
    /// Cumulative comparisons spent by this call when the event was
    /// emitted — the x-axis of a progressive-recall curve.
    pub comparisons_spent: u64,
}

/// What one [`HeraSession::resolve_progressive`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgressiveReport {
    /// Merges applied during this call.
    pub merges: usize,
    /// Comparisons (pair verifications) spent during this call.
    pub comparisons_spent: u64,
    /// Of `comparisons_spent`, verifications whose merge verdict could
    /// not be applied because the merge budget ran out mid-round: the
    /// pairs return to the frontier and a following call re-verifies
    /// them. Non-zero only on `exhausted` runs that bound both axes.
    pub comparisons_deferred: u64,
    /// Union–find roots still marked dirty when the call returned — a
    /// free proxy for remaining work, 0 exactly when the fixpoint was
    /// reached. For the exact count of ranked candidate pairs the next
    /// call will drain, ask [`HeraSession::frontier_len`] (an
    /// O(index-scan) computation this report deliberately skips).
    pub frontier: usize,
    /// True when the call stopped short of the fixpoint — a budget ran
    /// out, or the `HeraConfig::max_iterations` round cap ended the
    /// call with frontier work remaining. The session state is a clean
    /// boundary: checkpoint it and a restored session continues exactly
    /// where this call stopped.
    pub exhausted: bool,
}

/// Per-call state of a progressive resolve, threaded between rounds by
/// [`HeraSession::resolve_progressive_with`].
struct ProgressiveState {
    report: ProgressiveReport,
    /// Rounds run by this call (bounded by `HeraConfig::max_iterations`).
    iterations: usize,
    /// Root pairs already verified this call whose evidence is
    /// unchanged (neither side merged since, no new schema matchings
    /// decided): a deferral that re-dirties a shared root must not
    /// re-verify them — the verdict is a pure function of the two
    /// super records (plus the voter's decided matchings), so it
    /// would come out identical and only waste budget. Each entry is
    /// stamped with both roots' merge epochs and the voter epoch at
    /// decision time; a merge bumps the winning root's epoch (and,
    /// when it decides fresh schema matchings, the voter epoch), so
    /// an entry whose evidence changed reads as stale and the pair
    /// is re-verified — an emergent merge (super[a] absorbing b
    /// makes a∪b match a previously-rejected c) is never skipped.
    decided: FxHashMap<(u32, u32), (u32, u32, u32)>,
    merge_epoch: FxHashMap<u32, u32>,
    voter_epoch: u32,
    /// Call start, for `RunStats::resolve_time`.
    started: Instant,
    /// Wall-clock cutoff derived from `ResolveBudget::wall_clock`.
    deadline: Option<Instant>,
}

/// Incremental HERA: owns the schema registry and all algorithm state.
///
/// A session is [`Send`]: every field is owned data or an
/// `Arc` of a `Send + Sync` trait object, so a built (or restored)
/// session can be handed to a dedicated worker thread — the ownership
/// model `hera-serve` uses to run its one session on one owner thread.
/// It is deliberately *not* `Sync`: all mutation goes through `&mut self`, so
/// concurrent access is structured as message passing to the owning
/// thread, never shared-memory mutation.
pub struct HeraSession {
    config: HeraConfig,
    metric: Arc<dyn ValueSimilarity>,
    registry: SchemaRegistry,
    /// Index, super records, union–find, voter and the lifetime counters —
    /// `stats.iterations` is the monotonic `round` of the session's
    /// journal events and survives checkpoint/restore.
    engine: Engine,
    /// Probe structures over the super records' values, relabeled on
    /// every merge: its live `(label, value)` set is theirs.
    join: IncrementalJoin,
    /// Records whose evidence changed since the last `resolve`.
    dirty: FxHashSet<u32>,
    /// Streaming blocker gating the incremental join's candidate
    /// universe; `None` when [`HeraConfig::blocking`] is
    /// [`hera_block::BlockingScheme::None`] — that path is byte-for-byte
    /// the historical unfiltered ingest.
    blocker: Option<StreamingBlocker>,
    /// Journal recorder (disabled by default).
    recorder: hera_obs::Recorder,
    /// Fault injector threaded into snapshot IO (disabled by default).
    faults: FaultInjector,
    /// Retry policy for checkpoint writes.
    retry: BackoffPolicy,
    /// Delay source for the retry policy's backoff.
    clock: Arc<dyn Clock>,
}

/// Builder for [`HeraSession`] — the single construction path for every
/// option combination.
///
/// ```
/// use hera_core::{HeraConfig, HeraSession};
/// let session = HeraSession::builder(HeraConfig::paper_example()).build();
/// assert!(session.is_empty());
/// ```
pub struct HeraSessionBuilder {
    config: HeraConfig,
    metric: Arc<dyn ValueSimilarity>,
    recorder: Option<hera_obs::Recorder>,
    faults: FaultInjector,
    retry: BackoffPolicy,
    clock: Arc<dyn Clock>,
}

impl HeraSessionBuilder {
    fn with_config(config: HeraConfig) -> Self {
        Self {
            config,
            metric: Arc::new(TypeDispatch::paper_default()),
            recorder: None,
            faults: FaultInjector::disabled(),
            retry: BackoffPolicy::checkpoint_default(),
            clock: Arc::new(SystemClock),
        }
    }

    /// Replaces the paper-default value similarity metric.
    pub fn metric(mut self, metric: Arc<dyn ValueSimilarity>) -> Self {
        self.metric = metric;
        self
    }

    /// Attaches a journal recorder; every `resolve` round emits through
    /// it (see the `hera-obs` crate docs for the event schema). Defaults
    /// to [`hera_obs::Recorder::from_env`].
    pub fn recorder(mut self, recorder: hera_obs::Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Threads a fault injector into the session's snapshot IO: every
    /// checkpoint write and restore read consults the `store.*`
    /// failpoints. Defaults to [`FaultInjector::disabled`]. (The journal
    /// sink's failpoint lives on the recorder — see
    /// `hera_obs::Recorder::with_faults`.)
    pub fn faults(mut self, faults: FaultInjector) -> Self {
        self.faults = faults;
        self
    }

    /// Replaces the checkpoint-write retry policy (default
    /// [`BackoffPolicy::checkpoint_default`]; use
    /// [`BackoffPolicy::none`] to fail fast).
    pub fn retry(mut self, policy: BackoffPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Replaces the delay source behind retry backoff (default
    /// [`SystemClock`]; tests inject `hera_faults::ManualClock`).
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Builds an empty session.
    pub fn build(self) -> HeraSession {
        HeraSession {
            join: IncrementalJoin::new(self.config.xi, 2, self.metric.clone()),
            engine: Engine::empty(),
            blocker: StreamingBlocker::new(&self.config.blocking),
            config: self.config,
            metric: self.metric,
            registry: SchemaRegistry::new(),
            dirty: FxHashSet::default(),
            recorder: self.recorder.unwrap_or_else(hera_obs::Recorder::from_env),
            faults: self.faults,
            retry: self.retry,
            clock: self.clock,
        }
    }

    /// Builds a session whose algorithm state is loaded from a snapshot
    /// written by [`HeraSession::checkpoint`]. The builder's config and
    /// metric must be behaviorally compatible with the checkpointing
    /// session's (same `xi`, same metric) for the continuation to be
    /// equivalent to an uninterrupted run; a differing `xi` is rejected
    /// with [`HeraError::InvalidConfig`] because the live-value join
    /// universe depends on it.
    pub fn restore(self, path: impl AsRef<Path>) -> Result<HeraSession> {
        let start = std::time::Instant::now();
        let (snap, report) = Snapshot::read_report_with(&path, &self.faults)?;
        let mut session = self.build();

        let snap_xi = snap.expect("config")?.expect("xi")?.as_f64()?;
        if snap_xi != session.config.xi {
            return Err(HeraError::InvalidConfig(format!(
                "snapshot was taken at xi={snap_xi} but the restore config has xi={}; \
                 the live-value join universe is xi-dependent",
                session.config.xi
            )));
        }
        // Blocking is likewise universe-shaping: the scheme used at
        // checkpoint time must be the scheme restored under (pre-blocking
        // snapshots carry no key and mean "none").
        let snap_blocking = match snap.expect("config")?.get("blocking") {
            Some(j) => j.as_str()?,
            None => "none",
        };
        if snap_blocking != session.config.blocking.name() {
            return Err(HeraError::InvalidConfig(format!(
                "snapshot was taken with blocking '{snap_blocking}' but the restore config \
                 has '{}'; the join's candidate universe is blocking-dependent",
                session.config.blocking.name()
            )));
        }

        session.registry = SchemaRegistry::from_json(snap.expect("registry")?)?;
        session.registry.rebuild_lookups();
        let record_count = snap.expect("record_count")?.as_i64()?;
        if record_count < 0 {
            return Err(HeraError::Corrupt("negative record_count".into()));
        }
        let record_count = record_count as usize;
        let engine = &mut session.engine;
        engine.uf = UnionFind::from_json(snap.expect("union_find")?)?;
        if engine.uf.len() != record_count {
            return Err(HeraError::Corrupt(format!(
                "union-find covers {} records, snapshot has {record_count}",
                engine.uf.len()
            )));
        }
        for s_json in snap.expect("supers")?.as_arr()? {
            let s = SuperRecord::from_json(s_json, &mut engine.attrs)?;
            if (s.rid as usize) >= record_count || engine.uf.find_const(s.rid) != s.rid {
                return Err(HeraError::Corrupt(format!(
                    "super record {} is not a live union-find root",
                    s.rid
                )));
            }
            // The join holds what the super records hold, so it is
            // rebuilt from them rather than stored beside them.
            for (label, v) in s.labeled_values() {
                session.join.register(label, v);
            }
            engine.supers.insert(s.rid, s);
        }
        for rid in 0..record_count as u32 {
            let root = engine.uf.find_const(rid);
            if !engine.supers.contains_key(&root) {
                return Err(HeraError::Corrupt(format!(
                    "record {rid} resolves to root {root} with no super record"
                )));
            }
        }
        engine.index = ValuePairIndex::from_json(snap.expect("index")?, record_count)?;
        engine.voter = SchemaVoter::from_json(snap.expect("voter")?)?;
        engine.stats = RunStats::from_json(snap.expect("stats")?)?;
        for d in snap.expect("dirty")?.as_arr()? {
            let rid = d.as_u32()?;
            if rid as usize >= record_count {
                return Err(HeraError::Corrupt(format!(
                    "dirty record {rid} out of range"
                )));
            }
            session.dirty.insert(rid);
        }
        match snap.get("blocker") {
            Some(j) => {
                let blocker = StreamingBlocker::from_json(&session.config.blocking, j)?;
                // The blocker counts co-occurrence in a table indexed by
                // rid: a member past the records would size it.
                if let Some(rid) = blocker.max_member().filter(|&m| m as usize >= record_count) {
                    return Err(HeraError::Corrupt(format!(
                        "blocker names record {rid}, snapshot has {record_count}"
                    )));
                }
                session.blocker = Some(blocker);
            }
            None => {
                if session.blocker.is_some() {
                    return Err(HeraError::Corrupt(
                        "snapshot config enables blocking but carries no blocker section".into(),
                    ));
                }
            }
        }
        session.recorder.span(
            "checkpoint_load",
            None,
            &[
                ("bytes", report.payload_bytes as i64),
                ("sections", report.sections as i64),
            ],
        );
        session
            .recorder
            .timing("checkpoint_load", None, start.elapsed());
        session.recorder.flush();
        Ok(session)
    }
}

impl HeraSession {
    /// Starts building a session; see [`HeraSessionBuilder`].
    pub fn builder(config: HeraConfig) -> HeraSessionBuilder {
        HeraSessionBuilder::with_config(config)
    }

    /// Restores a session from a snapshot written by
    /// [`HeraSession::checkpoint`] — shorthand for
    /// [`HeraSessionBuilder::restore`].
    pub fn restore(
        path: impl AsRef<Path>,
        config: HeraConfig,
        metric: Arc<dyn ValueSimilarity>,
    ) -> Result<Self> {
        Self::builder(config).metric(metric).restore(path)
    }

    /// Writes the complete session state to `path` as a versioned,
    /// CRC-checked snapshot (see the `hera-store` crate docs for the
    /// envelope format). The write is atomic — a crash mid-checkpoint
    /// leaves any previous snapshot at `path` intact. A session restored
    /// from the snapshot continues exactly where this one stood:
    /// ingesting the same remaining records and resolving yields
    /// bit-identical entities, stats, and core journal events.
    ///
    /// Transient IO failures are retried under the builder's
    /// [`BackoffPolicy`] (default: 3 attempts with capped exponential
    /// backoff). When the policy is exhausted the error surfaces as
    /// [`HeraError::CheckpointFailed`] — the in-memory session is
    /// untouched, so the caller may keep resolving and checkpoint again
    /// later.
    pub fn checkpoint(&mut self, path: impl AsRef<Path>) -> Result<()> {
        let start = std::time::Instant::now();
        let snap = self.to_snapshot();
        let path = path.as_ref();
        let (report, attempts) = hera_faults::retry(
            &self.retry,
            self.clock.as_ref(),
            |_| snap.write_with(path, &self.faults),
            io_retryable,
        )
        .map_err(|e| HeraError::CheckpointFailed {
            attempts: e.attempts,
            cause: Box::new(e.error),
        })?;
        self.recorder.span(
            "checkpoint_save",
            None,
            &[
                ("bytes", report.payload_bytes as i64),
                ("sections", report.sections as i64),
            ],
        );
        if attempts > 1 {
            // Host-dependent robustness detail, not part of the
            // deterministic core journal.
            self.recorder.emit_diag(
                "diag",
                vec![
                    ("what", Json::Str("checkpoint_retries".into())),
                    ("attempts", Json::Int(i64::from(attempts))),
                ],
            );
        }
        self.recorder
            .timing("checkpoint_save", None, start.elapsed());
        self.recorder.flush();
        Ok(())
    }

    /// Assembles the snapshot sections. Every map is emitted in sorted
    /// order so identical sessions produce identical bytes.
    fn to_snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        snap.insert(
            "config",
            Json::Obj(vec![
                ("xi".into(), Json::Float(self.config.xi)),
                (
                    "blocking".into(),
                    Json::Str(self.config.blocking.name().into()),
                ),
            ]),
        );
        if let Some(b) = &self.blocker {
            snap.insert("blocker", b.to_json());
        }
        snap.insert("registry", self.registry.to_json());
        snap.insert("record_count", Json::Int(self.len() as i64));
        let engine = &self.engine;
        let mut roots: Vec<&SuperRecord> = engine.supers.values().collect();
        roots.sort_unstable_by_key(|s| s.rid);
        snap.insert(
            "supers",
            Json::Arr(roots.iter().map(|s| s.to_json()).collect()),
        );
        snap.insert("union_find", engine.uf.to_json());
        snap.insert("index", engine.index.to_json());
        snap.insert("voter", engine.voter.to_json());
        let mut dirty: Vec<u32> = self.dirty.iter().copied().collect();
        dirty.sort_unstable();
        snap.insert(
            "dirty",
            Json::Arr(dirty.into_iter().map(|r| Json::Int(r as i64)).collect()),
        );
        snap.insert("stats", engine.stats.to_json());
        snap
    }

    /// Registers a source schema (streaming sources can appear at any
    /// time).
    pub fn add_schema<S: Into<String>, I: IntoIterator<Item = S>>(
        &mut self,
        name: impl Into<String>,
        attrs: I,
    ) -> SchemaId {
        self.registry.add_schema(name, attrs)
    }

    /// Registers every schema of `registry`, in its order, and returns
    /// the id map: position `i` holds the session-side id of the
    /// registry's schema `i`. Ids depend on registration order only, so a
    /// rebuilt or restored session mirrors the same registry identically.
    pub fn mirror_schemas(&mut self, registry: &SchemaRegistry) -> Vec<SchemaId> {
        registry
            .schemas()
            .map(|s| self.add_schema(s.name.as_str(), s.attrs.iter().map(|a| a.name.as_str())))
            .collect()
    }

    /// Ingests one record under a registered schema: its values join
    /// against every live value and the index grows accordingly. Returns
    /// the record id. Call [`HeraSession::resolve`] to fold new evidence
    /// into entities (per record for lowest latency, or in batches for
    /// throughput).
    pub fn add_record(&mut self, schema: SchemaId, values: Vec<Value>) -> Result<RecordId> {
        let started = Instant::now();
        if schema.index() >= self.registry.len() {
            return Err(HeraError::UnknownId(format!("{schema}")));
        }
        let expected = self.registry.schema(schema).arity();
        if values.len() != expected {
            return Err(HeraError::ArityMismatch {
                record: self.len() as u32,
                expected,
                actual: values.len(),
            });
        }
        // The super record keeps the values as they arrived, and the
        // blocker and the join read them there: the join clones only what
        // scoring reads, so ingest frees nothing the caller allocated.
        let rid = self
            .engine
            .push_record(values, self.registry.schema(schema));
        let values = self.engine.supers[&rid]
            .base_values()
            .expect("a record just lifted has absorbed nothing");

        // With blocking on, the record's co-blocked candidates bound the
        // join's candidate universe. The blocker speaks in original rids;
        // the join's labels carry union-find roots (relabeled on every
        // merge), so the allow-list is the candidates' *current roots*.
        let admission_started = Instant::now();
        let allowed: Option<Vec<u32>> = self.blocker.as_mut().map(|b| {
            let uf = &mut self.engine.uf;
            let mut roots: Vec<u32> = b
                .admit(rid, values)
                .into_iter()
                .map(|r| uf.find(r))
                .collect();
            roots.sort_unstable();
            roots.dedup();
            roots
        });
        let join_started = match allowed {
            Some(_) => Instant::now(),
            None => admission_started,
        };

        // Labels of previously merged records are already current (the
        // join is relabeled on every merge). The whole record goes through
        // the join's record-level door: the live values of the allowed
        // roots — of every root, unblocked — are gathered once and each of
        // the record's values is scanned against that one neighbourhood.
        let new_pairs = match &allowed {
            Some(rids) => self.join.insert_record_among(rid, values, rids),
            None => self.join.insert_record(rid, values),
        };
        for p in &new_pairs {
            self.dirty.insert(p.a.rid);
            self.dirty.insert(p.b.rid);
        }
        self.engine.index.extend(new_pairs);
        // Four clock reads a record: the join's share ends where the
        // call does, and so takes in filing the pairs just above.
        let done = Instant::now();
        let stats = &mut self.engine.stats;
        stats.ingest_time += done - started;
        stats.admit_time += join_started - admission_started;
        stats.join_insert_time += done - join_started;
        Ok(RecordId::new(rid))
    }

    /// Runs compare-and-merge to a fixpoint over the dirty region.
    /// Returns the number of merges performed.
    ///
    /// Equivalent to [`HeraSession::resolve_progressive`] with an
    /// unlimited [`ResolveBudget`] — both walk the same deterministic
    /// priority schedule, so a budgeted run's merges are always a prefix
    /// of this one's.
    pub fn resolve(&mut self) -> usize {
        self.resolve_progressive(ResolveBudget::unlimited()).merges
    }

    /// Budget-scheduled (progressive / anytime) compare-and-merge: spends
    /// up to `budget` on the highest-expected-value work first and stops
    /// at a clean, checkpointable boundary when a budget runs out.
    ///
    /// Each iteration uses the same two-phase structure as the batch
    /// driver: a parallel snapshot phase verifies surviving candidate
    /// root-pairs against the iteration-start state, then a sequential
    /// apply phase merges in candidate order, deferring any pair whose
    /// super records changed under an earlier merge back to the frontier
    /// (the next round re-ranks and re-verifies it). Each round verifies
    /// the maximal-matching prefix of the ranked list — no two selected
    /// pairs share a root — cut at a relative priority floor
    /// (`ROUND_FOCUS`) and capped at `ROUND_CHUNK` verifications, so
    /// merges collapse a big cluster's remaining intra-pairs into cheap
    /// super-record pairs *before* the schedule spends comparisons on
    /// them — without the matching, a cluster of k records burns Θ(k²)
    /// verifications to buy k/2 merges. Both constants are never derived
    /// from the budget, so every budget still walks the identical
    /// schedule. Candidates are ordered by the value-pair index's
    /// expected-value signal — Up/Low midpoint × frontier component size
    /// ([`hera_index::RankedCandidate::priority`], descending, with
    /// deterministic tie-breaks), so merges come out confidence-ranked
    /// and a small budget completes the biggest clusters first. The schedule is
    /// a pure function of session state: results are bit-identical for
    /// every [`HeraConfig::num_threads`] setting, and
    /// the merges emitted under budget `b` are a prefix of those emitted
    /// under any budget `b' > b` (a budget only truncates the schedule,
    /// never reorders it).
    ///
    /// On exhaustion, unprocessed candidates are returned to the frontier
    /// (their roots re-marked dirty), so the session state — entirely
    /// covered by [`HeraSession::checkpoint`] — is a clean boundary: a
    /// restored session's next call continues exactly where this one
    /// stopped, and journal rounds stay monotonic across the resume.
    /// When the merge budget runs out mid-round, already-verified
    /// below-δ verdicts are still consumed (the decision is
    /// budget-independent), but verified would-merge pairs must defer:
    /// their spent comparisons are reported in
    /// [`ProgressiveReport::comparisons_deferred`] so a caller bounding
    /// both axes can see the re-verification cost the next call pays.
    ///
    /// Implemented as [`HeraSession::resolve_progressive_with`] with a
    /// no-op merge observer, so the two are bit-identical by
    /// construction.
    pub fn resolve_progressive(&mut self, budget: ResolveBudget) -> ProgressiveReport {
        self.resolve_progressive_with(budget, |_| {})
    }

    /// [`HeraSession::resolve_progressive`] with a streaming observer:
    /// `on_merge` is invoked for every applied merge, in schedule order,
    /// the moment it lands. The
    /// schedule, the report, and the journal are bit-identical to
    /// [`HeraSession::resolve_progressive`] under the same budget — the
    /// observer only *watches* the run.
    pub fn resolve_progressive_with<F: FnMut(MergeEvent)>(
        &mut self,
        budget: ResolveBudget,
        mut on_merge: F,
    ) -> ProgressiveReport {
        let mut st = self.progressive_start(budget);
        while self.progressive_round(budget, &mut st, &mut on_merge) {}
        self.progressive_finish(budget, &mut st);
        st.report
    }

    /// Estimated wall-clock cost of one pair verification, from the
    /// session's lifetime verify-phase timings (the same quantity the
    /// journal records as `resolve_verify` timing spans): total verify
    /// time over total comparisons. `None` until the session has
    /// verified at least one pair. This is the cost model behind
    /// [`ResolveBudget::wall_clock`]'s per-round cap.
    pub fn per_comparison_cost(&self) -> Option<Duration> {
        let stats = &self.engine.stats;
        (stats.comparisons > 0).then(|| {
            Duration::from_secs_f64(stats.verify_time.as_secs_f64() / stats.comparisons as f64)
        })
    }

    /// Opens a progressive call: stamps thread/index stats and starts
    /// the wall-clock, returning the per-call state the round driver
    /// threads through.
    fn progressive_start(&mut self, budget: ResolveBudget) -> ProgressiveState {
        let started = Instant::now();
        let stats = &mut self.engine.stats;
        stats.threads = crate::parallel::effective_threads(self.config.num_threads);
        stats.index_size = stats.index_size.max(self.engine.index.len());
        ProgressiveState {
            report: ProgressiveReport::default(),
            iterations: 0,
            decided: FxHashMap::default(),
            merge_epoch: FxHashMap::default(),
            voter_epoch: 0,
            started,
            deadline: budget.wall_clock.map(|d| started + d),
        }
    }

    /// Runs one resolve round (phase A verify + phase B apply) against
    /// `st`, reporting each applied merge through `on_merge`. Returns
    /// `false` when the call is over — fixpoint reached, iteration cap
    /// hit, or a budget ran out — after which
    /// [`HeraSession::progressive_finish`] seals the call.
    fn progressive_round(
        &mut self,
        budget: ResolveBudget,
        st: &mut ProgressiveState,
        on_merge: &mut dyn FnMut(MergeEvent),
    ) -> bool {
        let ctx = Ctx::new(
            &self.config,
            &self.recorder,
            self.metric.as_ref(),
            &self.registry,
        );
        let cfg = ctx.cfg;
        let epoch_of = |epochs: &FxHashMap<u32, u32>, r: u32| epochs.get(&r).copied().unwrap_or(0);
        if self.dirty.is_empty() || st.iterations >= cfg.max_iterations {
            return false;
        }
        // A merge budget or a wall-clock deadline met between rounds ends
        // the call at the round boundary, before the next round spends
        // any comparisons (the deadline best-effort — see
        // [`ResolveBudget::wall_clock`]); the untouched dirty set *is* the
        // frontier state.
        if budget.merges.is_some_and(|m| st.report.merges as u64 >= m)
            || st.deadline.is_some_and(|d| Instant::now() >= d)
        {
            st.report.exhausted = true;
            return false;
        }
        st.iterations += 1;
        let deadline = st.deadline;
        let ProgressiveState {
            report,
            decided,
            merge_epoch,
            voter_epoch,
            ..
        } = st;
        let mark = self.engine.begin_round();
        let round = mark.round;

        // The frontier: root pairs of the dirty groups, minus those
        // whose verdict from earlier in this call still stands, drained
        // from the index in bound-priority order (pruning Up < δ).
        let dirty = std::mem::take(&mut self.dirty);
        let candidates_started = Instant::now();
        let mut keys = self.engine.root_pairs(Some(&dirty));
        keys.retain(|key| {
            let verdict_stands = decided.get(key).is_some_and(|&(ea, eb, ev)| {
                ea == epoch_of(merge_epoch, key.0)
                    && eb == epoch_of(merge_epoch, key.1)
                    && ev == *voter_epoch
            });
            !verdict_stands
        });
        let (ranked, pruned) = self.engine.rank(cfg, &keys);
        self.engine.stats.candidate_time += candidates_started.elapsed();
        self.engine.stats.pruned += pruned;

        // Round schedule: the maximal-matching prefix of the ranked
        // list, cut at the ROUND_FOCUS priority floor and capped at
        // ROUND_CHUNK. Skipping a candidate whose root is already
        // claimed this round costs nothing — it defers back to the
        // frontier unverified — whereas verifying it would burn a
        // comparison on a verdict guaranteed to go stale under the
        // earlier, higher-priority merge (a big fragment's pairs all
        // share its root, so an unfiltered chunk buys one merge per
        // chunk). The schedule is a pure function of the ranked
        // list; the budget only truncates it, and only the budget's
        // cut marks exhaustion.
        let floor = ranked.first().map_or(0.0, |c| ROUND_FOCUS * c.priority());
        let mut claimed: FxHashSet<u32> = FxHashSet::default();
        let mut selected: Vec<(u32, u32)> = Vec::new();
        let mut unselected: Vec<(u32, u32)> = Vec::new();
        for c in &ranked {
            if selected.len() >= ROUND_CHUNK
                || c.priority() < floor
                || claimed.contains(&c.pair.0)
                || claimed.contains(&c.pair.1)
            {
                unselected.push(c.pair);
                continue;
            }
            claimed.insert(c.pair.0);
            claimed.insert(c.pair.1);
            selected.push(c.pair);
        }
        let mut cap = match budget.comparisons {
            Some(c) => (c.saturating_sub(report.comparisons_spent) as usize).min(selected.len()),
            None => selected.len(),
        };
        // Wall-clock budgets additionally cap the round at the
        // number of verifications the cost model predicts still fit
        // before the deadline. Host timing feeds both inputs, so
        // this cut — unlike the two counters above — is best-effort
        // rather than bit-exact (see [`ResolveBudget::wall_clock`]).
        if let Some(d) = deadline {
            let remaining = d.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                cap = 0;
            } else if let Some(per) = self.per_comparison_cost() {
                if !per.is_zero() {
                    let affordable = (remaining.as_secs_f64() / per.as_secs_f64()).floor() as usize;
                    cap = cap.min(affordable);
                }
            }
        }

        // Phase A: verify the round's pairs in parallel against the
        // round-start state.
        let verify_list = &selected[..cap];
        let verdicts =
            self.engine
                .verify_snapshot(&ctx, verify_list, "resolve_verify", round, true);
        report.comparisons_spent += verdicts.len() as u64;

        // Phase B: apply sequentially in candidate (priority) order.
        // The matching filter guarantees no two candidates share a
        // root, so verdicts cannot go stale within the phase; the
        // stale branch below stays as a defensive safeguard (a stale
        // pair defers to the next round rather than merging on
        // outdated evidence).
        let mut touched: FxHashSet<u32> = FxHashSet::default();
        let mut deferred_stale = 0i64;
        let deferred_before = report.comparisons_deferred;
        for (&key, v) in verify_list.iter().zip(&verdicts) {
            let Some(cur) = self.engine.settle(key) else {
                continue;
            };
            if cur != key || touched.contains(&cur.0) || touched.contains(&cur.1) {
                self.dirty.insert(cur.0);
                self.dirty.insert(cur.1);
                deferred_stale += 1;
                continue;
            }
            if v.sim < cfg.delta {
                // A below-δ verdict consumes no merge budget, so a
                // mid-phase merge cut still banks it — its
                // comparison was already spent and the decision is
                // budget-independent.
                decided.insert(
                    cur,
                    (
                        epoch_of(merge_epoch, cur.0),
                        epoch_of(merge_epoch, cur.1),
                        *voter_epoch,
                    ),
                );
                continue;
            }
            if budget.merges.is_some_and(|m| report.merges as u64 >= m) {
                // Verified, would merge, but the merge budget is
                // spent: the pair returns to the frontier undecided
                // and a following call re-verifies it. Its
                // comparison is already in comparisons_spent;
                // count the write-off so the waste is observable.
                self.dirty.insert(cur.0);
                self.dirty.insert(cur.1);
                report.comparisons_deferred += 1;
                continue;
            }
            let (remap, decided_fresh) = self.engine.merge_verified(&ctx, round, cur, v);
            if decided_fresh {
                // New matchings can flip any pair's verdict, not
                // just the merging pair's: stale every memo.
                *voter_epoch += 1;
            }
            self.join.relabel(cur.0, cur.1, |l| remap.apply(l));
            *merge_epoch.entry(cur.0).or_insert(0) += 1;
            self.dirty.insert(cur.0);
            touched.insert(cur.0);
            touched.insert(cur.1);
            report.merges += 1;
            on_merge(MergeEvent {
                winner: cur.0,
                loser: cur.1,
                confidence: v.sim,
                comparisons_spent: report.comparisons_spent,
            });
        }
        ctx.rec.span(
            "resolve_apply",
            Some(round),
            &[
                ("merges", self.engine.merges_since(&mark)),
                ("deferred_stale", deferred_stale),
            ],
        );
        if let Err(broken) = self.engine.end_round(&ctx, &mark) {
            // Only under `HeraConfig::validate_index` (tests/debug).
            panic!("{broken}");
        }
        if cfg.validate_index {
            let supers = self.engine.supers.values();
            if let Err(broken) = self
                .join
                .check_values(supers.flat_map(SuperRecord::labeled_values))
            {
                panic!(
                    "join is not the super records' value table after iteration {round}: {broken}"
                );
            }
        }

        // Return every unprocessed candidate to the frontier by
        // re-marking its current roots dirty — the next round (or the
        // next call) regenerates and re-ranks them. Only a *budget*
        // cut ends the call: the chunk cut just rolls into the next
        // round. Either way the session state is a clean resume
        // boundary.
        let budget_truncated =
            cap < selected.len() || report.comparisons_deferred > deferred_before;
        let uf = &mut self.engine.uf;
        for &(a, b) in selected[cap..].iter().chain(&unselected) {
            self.dirty.insert(uf.find(a));
            self.dirty.insert(uf.find(b));
        }
        if budget_truncated {
            report.exhausted = true;
            return false;
        }
        true
    }

    /// Seals a progressive call: finalizes the report and lifetime stats
    /// and emits the per-call summary span.
    fn progressive_finish(&mut self, budget: ResolveBudget, st: &mut ProgressiveState) {
        let report = &mut st.report;
        if !self.dirty.is_empty() {
            // Either a budget cut above (already flagged) or the
            // max_iterations elbow: work remains, so a partial result
            // must never read as a fixpoint.
            report.exhausted = true;
        }
        report.frontier = self.dirty.len();
        if budget.is_bounded() {
            // One deterministic summary event per bounded call; its
            // counters are pure functions of session state + budget, so
            // the line is byte-identical at every thread count. (A
            // wall-clock-only budget still gets the span, but its
            // counters then depend on where host timing cut the
            // schedule.)
            self.recorder.span(
                "progressive",
                Some(self.engine.stats.iterations),
                &[
                    ("budget_spent", report.comparisons_spent as i64),
                    ("merges_emitted", report.merges as i64),
                    ("comparisons_deferred", report.comparisons_deferred as i64),
                    ("frontier_size", report.frontier as i64),
                    ("exhausted", i64::from(report.exhausted)),
                ],
            );
        }
        self.engine.seal(st.started.elapsed());
        self.recorder.flush();
    }

    /// Candidate root pairs currently pending on the frontier: pairs in
    /// dirty-touching index groups whose upper bound clears `δ` — what
    /// the next [`HeraSession::resolve_progressive`] call will drain
    /// first. Read-only and deterministic.
    pub fn frontier_len(&self) -> usize {
        let keys = self.engine.root_pairs(Some(&self.dirty));
        self.engine.rank(&self.config, &keys).0.len()
    }

    /// Re-marks every live root dirty, returning the whole universe to
    /// the frontier: the next resolve call re-examines every candidate
    /// pair from scratch. A resolved session is a true fixpoint, so
    /// resolving again after this performs zero merges — the invariant
    /// `tests/progressive.rs` property-tests (it is what catches a
    /// schedule that silently skips an emergent merge).
    pub fn mark_all_dirty(&mut self) {
        self.dirty.extend(self.engine.supers.keys().copied());
    }

    /// Current entity label (super-record rid) of a record.
    pub fn entity_of(&self, rid: RecordId) -> u32 {
        self.engine.uf.find_const(rid.raw())
    }

    /// Member record ids of the entity labeled `label`, ascending, or
    /// `None` when `label` is not a live entity label. O(1) — reads the
    /// super record.
    pub fn entity_members(&self, label: u32) -> Option<&[u32]> {
        self.engine.supers.get(&label).map(SuperRecord::members)
    }

    /// All records grouped by current entity.
    pub fn clusters(&mut self) -> Vec<Vec<u32>> {
        self.engine.uf.clusters()
    }

    /// All records grouped by current entity, as compressed rows: the
    /// entity label of each record and each entity's members, in one
    /// array each. Its sets are [`HeraSession::clusters`].
    pub fn grouping(&mut self) -> Grouping {
        self.engine.uf.grouping()
    }

    /// Number of records ingested.
    pub fn len(&self) -> usize {
        self.engine.uf.len()
    }

    /// True if no records were ingested.
    pub fn is_empty(&self) -> bool {
        self.engine.uf.is_empty()
    }

    /// Total merges performed so far.
    pub fn merge_count(&self) -> usize {
        self.engine.stats.merges
    }

    /// Lifetime run statistics (iterations, comparisons, metric calls,
    /// …). Deterministic counters survive [`HeraSession::checkpoint`] /
    /// restore, so a restored-and-continued session reports the same
    /// numbers an uninterrupted one would.
    pub fn stats(&self) -> &RunStats {
        &self.engine.stats
    }

    /// Index size `|𝒱|` right now.
    pub fn index_size(&self) -> usize {
        self.engine.index.len()
    }

    /// Always 0: the session holds no similarity memo. Kept only because
    /// the frozen `benchmark/` package calls it; removed with ROADMAP
    /// item 1(a).
    #[doc(hidden)]
    pub fn sim_cache_size(&self) -> usize {
        0
    }

    /// Schema matchings decided so far.
    pub fn schema_matchings(&self) -> Vec<DecidedMatching> {
        self.engine.voter.decided()
    }

    /// The session's schema registry.
    pub fn registry(&self) -> &SchemaRegistry {
        &self.registry
    }
}

/// Compile-time proof of the worker-thread handoff contract: a session
/// (and everything a worker needs to return) crosses thread boundaries.
/// Breaking this — say by caching a `Rc` or a raw sink handle in a new
/// field — fails the build here rather than in hera-serve.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<HeraSession>();
    assert_send::<ProgressiveReport>();
    assert_send::<MergeEvent>();
    assert_send::<ResolveBudget>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Hera, HeraConfig};
    use hera_types::motivating_example;

    /// Streams the motivating example record by record, resolving after
    /// each insertion; the final entities match the batch run.
    #[test]
    fn streaming_motivating_example() {
        let ds = motivating_example();
        let mut session = HeraSession::builder(HeraConfig::paper_example()).build();
        let schemas = session.mirror_schemas(&ds.registry);
        for rec in ds.iter() {
            session
                .add_record(schemas[rec.schema.index()], rec.values.clone())
                .unwrap();
            session.resolve();
        }
        let clusters = session.clusters();
        assert_eq!(clusters.len(), 2, "{clusters:?}");
        assert_eq!(
            session.entity_of(RecordId::new(0)),
            session.entity_of(RecordId::new(1))
        );
        assert_eq!(
            session.entity_of(RecordId::new(2)),
            session.entity_of(RecordId::new(4))
        );
    }

    /// Ingest-all-then-resolve reaches the same quality as the batch
    /// driver on the example.
    #[test]
    fn bulk_ingest_matches_batch() {
        let ds = motivating_example();
        let batch = Hera::builder(HeraConfig::paper_example())
            .build()
            .run(&ds)
            .unwrap();

        let mut session = HeraSession::builder(HeraConfig::paper_example()).build();
        let schemas = session.mirror_schemas(&ds.registry);
        for rec in ds.iter() {
            session
                .add_record(schemas[rec.schema.index()], rec.values.clone())
                .unwrap();
        }
        session.resolve();
        assert_eq!(session.clusters().len(), batch.entity_count());
        assert_eq!(session.merge_count(), batch.stats.merges);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut session = HeraSession::builder(HeraConfig::paper_example()).build();
        let s = session.add_schema("S", ["a", "b"]);
        let err = session.add_record(s, vec![Value::from("x")]).unwrap_err();
        assert!(matches!(err, HeraError::ArityMismatch { .. }));
    }

    #[test]
    fn unknown_schema_rejected() {
        let mut session = HeraSession::builder(HeraConfig::paper_example()).build();
        let err = session
            .add_record(SchemaId::new(3), vec![Value::from("x")])
            .unwrap_err();
        assert!(matches!(err, HeraError::UnknownId(_)));
    }

    #[test]
    fn empty_session() {
        let mut session = HeraSession::builder(HeraConfig::paper_example()).build();
        assert!(session.is_empty());
        assert_eq!(session.resolve(), 0);
        assert!(session.clusters().is_empty());
    }

    #[test]
    fn resolve_is_idempotent_without_new_evidence() {
        let ds = motivating_example();
        let mut session = HeraSession::builder(HeraConfig::paper_example()).build();
        let schemas = session.mirror_schemas(&ds.registry);
        for rec in ds.iter() {
            session
                .add_record(schemas[rec.schema.index()], rec.values.clone())
                .unwrap();
        }
        let first = session.resolve();
        assert!(first > 0);
        assert_eq!(session.resolve(), 0, "no new evidence, no new merges");
        assert_eq!(session.resolve(), 0);
    }

    #[test]
    fn session_accessors() {
        let mut session = HeraSession::builder(HeraConfig::paper_example()).build();
        let s = session.add_schema("S", ["name", "city"]);
        assert_eq!(session.registry().len(), 1);
        assert_eq!(session.registry().schema(s).arity(), 2);
        session
            .add_record(s, vec![Value::from("x y"), Value::from("LA")])
            .unwrap();
        assert_eq!(session.len(), 1);
        assert!(!session.is_empty());
        assert_eq!(session.index_size(), 0); // one record: nothing to pair
        assert_eq!(session.merge_count(), 0);
        assert_eq!(session.entity_of(RecordId::new(0)), 0);
    }

    #[test]
    fn session_index_stays_consistent() {
        let ds = motivating_example();
        let mut session = HeraSession::builder(HeraConfig::paper_example()).build();
        let schemas = session.mirror_schemas(&ds.registry);
        for rec in ds.iter() {
            session
                .add_record(schemas[rec.schema.index()], rec.values.clone())
                .unwrap();
            session.resolve();
            session.engine.index.check_invariants().unwrap();
        }
    }

    /// Streaming twin of the batch driver's
    /// `index_invariants_hold_throughout_run`: under `validate_index` the
    /// session checks the index invariants after every round
    /// (and panics on a broken one).
    #[test]
    fn session_index_invariants_hold_throughout_run() {
        let ds = motivating_example();
        let cfg = HeraConfig::paper_example().with_index_validation();
        let mut session = HeraSession::builder(cfg).build();
        let schemas = session.mirror_schemas(&ds.registry);
        for rec in ds.iter() {
            session
                .add_record(schemas[rec.schema.index()], rec.values.clone())
                .unwrap();
            session.resolve();
        }
        assert!(session.stats().iterations > 0);
        assert_eq!(session.clusters().len(), 2);
    }

    /// Stats rendering with the wall-clock fields zeroed — what must be
    /// bit-identical across an interrupted and an uninterrupted run.
    fn deterministic_stats(s: &RunStats) -> String {
        let mut s = s.clone();
        s.index_build_time = Default::default();
        s.resolve_time = Default::default();
        s.verify_time = Default::default();
        s.candidate_time = Default::default();
        s.ingest_time = Default::default();
        s.admit_time = Default::default();
        s.join_insert_time = Default::default();
        s.absorb_time = Default::default();
        s.merge_time = Default::default();
        s.to_json().to_string_compact()
    }

    #[test]
    fn checkpoint_restore_midstream_is_continuation_equivalent() {
        let ds = motivating_example();
        let path =
            std::env::temp_dir().join(format!("hera-session-ckpt-{}.hera", std::process::id()));
        let records: Vec<_> = ds.iter().collect();

        let mut straight = HeraSession::builder(HeraConfig::paper_example()).build();
        let schemas = straight.mirror_schemas(&ds.registry);
        for rec in &records {
            straight
                .add_record(schemas[rec.schema.index()], rec.values.clone())
                .unwrap();
            straight.resolve();
        }

        let mut first = HeraSession::builder(HeraConfig::paper_example()).build();
        let schemas = first.mirror_schemas(&ds.registry);
        for rec in &records[..3] {
            first
                .add_record(schemas[rec.schema.index()], rec.values.clone())
                .unwrap();
            first.resolve();
        }
        first.checkpoint(&path).unwrap();
        drop(first);

        let mut resumed = HeraSession::restore(
            &path,
            HeraConfig::paper_example(),
            Arc::new(TypeDispatch::paper_default()),
        )
        .unwrap();
        for rec in &records[3..] {
            resumed
                .add_record(schemas[rec.schema.index()], rec.values.clone())
                .unwrap();
            resumed.resolve();
        }
        std::fs::remove_file(&path).ok();

        assert_eq!(resumed.clusters(), straight.clusters());
        assert_eq!(resumed.merge_count(), straight.merge_count());
        assert_eq!(
            deterministic_stats(resumed.stats()),
            deterministic_stats(straight.stats())
        );
        assert_eq!(
            resumed.schema_matchings().len(),
            straight.schema_matchings().len()
        );
    }

    #[test]
    fn restore_rejects_xi_mismatch_with_typed_error() {
        let ds = motivating_example();
        let path =
            std::env::temp_dir().join(format!("hera-session-xi-{}.hera", std::process::id()));
        let mut session = HeraSession::builder(HeraConfig::paper_example()).build();
        let schemas = session.mirror_schemas(&ds.registry);
        for rec in ds.iter() {
            session
                .add_record(schemas[rec.schema.index()], rec.values.clone())
                .unwrap();
        }
        session.resolve();
        session.checkpoint(&path).unwrap();

        let skewed = HeraConfig::new(0.5, 0.9); // different xi
        let err = HeraSession::restore(&path, skewed, Arc::new(TypeDispatch::paper_default()))
            .err()
            .expect("xi mismatch must be rejected");
        assert!(matches!(err, HeraError::InvalidConfig(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn restore_missing_file_is_io_error() {
        let err = HeraSession::restore(
            "/nonexistent/path/snapshot.hera",
            HeraConfig::paper_example(),
            Arc::new(TypeDispatch::paper_default()),
        )
        .err()
        .expect("missing file must fail");
        assert!(matches!(err, HeraError::Io(_)), "{err}");
    }

    // -- checkpoint retry and fault injection --------------------------

    use hera_faults::{points, FaultKind, FaultPlan, FaultRule, ManualClock};

    fn populated_session(builder: HeraSessionBuilder) -> HeraSession {
        let ds = motivating_example();
        let mut session = builder.build();
        let schemas = session.mirror_schemas(&ds.registry);
        for rec in ds.iter() {
            session
                .add_record(schemas[rec.schema.index()], rec.values.clone())
                .unwrap();
        }
        session.resolve();
        session
    }

    fn write_fault(point: &str, hits: Vec<u64>) -> FaultPlan {
        FaultPlan {
            seed: 0,
            rules: vec![FaultRule {
                point: point.into(),
                hits,
                kind: FaultKind::Error,
            }],
        }
    }

    #[test]
    fn checkpoint_retries_transient_faults_and_succeeds() {
        let path =
            std::env::temp_dir().join(format!("hera-session-retry-{}.hera", std::process::id()));
        // The sync stage fails on the first two write attempts only.
        let plan = write_fault(points::STORE_WRITE_SYNC, vec![1, 2]);
        let clock = Arc::new(ManualClock::new());
        let mut session = populated_session(
            HeraSession::builder(HeraConfig::paper_example())
                .faults(FaultInjector::new(&plan))
                .clock(clock.clone()),
        );
        session.checkpoint(&path).expect("third attempt succeeds");
        assert_eq!(clock.sleeps().len(), 2, "one backoff sleep per retry");
        assert_eq!(
            clock.sleeps(),
            vec![
                std::time::Duration::from_millis(5),
                std::time::Duration::from_millis(10)
            ]
        );
        // The snapshot on disk is complete and restorable.
        let resumed = HeraSession::restore(
            &path,
            HeraConfig::paper_example(),
            Arc::new(TypeDispatch::paper_default()),
        )
        .unwrap();
        assert_eq!(resumed.merge_count(), session.merge_count());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_exhaustion_is_typed_and_session_survives() {
        let dir = std::env::temp_dir().join(format!("hera-session-exhaust-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.hera");
        // Every attempt fails: checkpoint_default allows 3.
        let plan = write_fault(points::STORE_WRITE_CREATE, vec![1, 2, 3, 4, 5, 6]);
        let clock = Arc::new(ManualClock::new());
        let mut session = populated_session(
            HeraSession::builder(HeraConfig::paper_example())
                .faults(FaultInjector::new(&plan))
                .clock(clock.clone()),
        );
        let merges_before = session.merge_count();
        let err = session.checkpoint(&path).unwrap_err();
        match &err {
            HeraError::CheckpointFailed { attempts, cause } => {
                assert_eq!(*attempts, 3);
                assert!(matches!(**cause, HeraError::Io(_)), "{cause}");
            }
            other => panic!("expected CheckpointFailed, got {other}"),
        }
        assert!(!path.exists(), "no file appears on total failure");
        assert!(!dir.join("snap.hera.tmp").exists(), "no stray tmp");
        // The session keeps working: resolve again and checkpoint later
        // (hits 4–6 also fire, so disable retries' fault by using a
        // fresh fault-free session write path via plan exhaustion).
        assert_eq!(session.merge_count(), merges_before);
        assert_eq!(session.resolve(), 0, "in-memory state intact");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_non_retryable_fails_fast() {
        let path =
            std::env::temp_dir().join(format!("hera-session-failfast-{}.hera", std::process::id()));
        let plan = write_fault(points::STORE_WRITE_RENAME, vec![1]);
        let clock = Arc::new(ManualClock::new());
        let mut session = populated_session(
            HeraSession::builder(HeraConfig::paper_example())
                .faults(FaultInjector::new(&plan))
                .retry(hera_faults::BackoffPolicy::none())
                .clock(clock.clone()),
        );
        let err = session.checkpoint(&path).unwrap_err();
        assert!(
            matches!(err, HeraError::CheckpointFailed { attempts: 1, .. }),
            "{err}"
        );
        assert!(clock.sleeps().is_empty(), "none policy never sleeps");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn restore_with_corrupt_read_fault_is_typed() {
        let path =
            std::env::temp_dir().join(format!("hera-session-bitrot-{}.hera", std::process::id()));
        let mut session = populated_session(HeraSession::builder(HeraConfig::paper_example()));
        session.checkpoint(&path).unwrap();
        let plan = FaultPlan {
            seed: 0,
            rules: vec![FaultRule {
                point: points::STORE_READ.into(),
                hits: vec![1],
                kind: FaultKind::Corrupt,
            }],
        };
        let err = HeraSession::builder(HeraConfig::paper_example())
            .faults(FaultInjector::new(&plan))
            .restore(&path)
            .err()
            .expect("bit rot must be rejected");
        assert!(matches!(err, HeraError::Corrupt(_)), "{err}");
        // The file itself is fine: a fault-free restore succeeds.
        HeraSession::builder(HeraConfig::paper_example())
            .restore(&path)
            .unwrap();
        std::fs::remove_file(&path).ok();
    }
}
