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
//! * [`HeraSession::add_record`] lifts the new record into a super record
//!   and queues it for the join;
//! * one join pass takes the queued records in a batch: it registers
//!   them in arrival order, joins each record's values against the live
//!   values of the records before it on `HeraConfig::num_threads`
//!   threads, and extends the index. `resolve`, `checkpoint`,
//!   `frontier_len` and [`HeraSession::extend`] run it first, so what
//!   they see is what joining each record on arrival gives;
//! * [`HeraSession::resolve`] runs compare-and-merge to a fixpoint, but
//!   only over groups touching records that changed since the last call
//!   (the same dirty-tracking argument the batch driver uses);
//! * decided schema matchings persist across insertions, so the session
//!   gets *better* at matching heterogeneous schemas as it ages — the
//!   schema-based method's intended long-run behavior.

use crate::config::{HeraConfig, MAX_ITERATIONS};
use crate::engine::{incremental_join, Ctx, Engine};
use crate::stats::RunStats;
use crate::store::{Snapshot, WriteReport};
use crate::super_record::SuperRecord;
use crate::voter::{DecidedMatching, SchemaVoter};
use hera_block::StreamingBlocker;
use hera_faults::{io_retryable, BackoffPolicy, Clock, FaultInjector, SystemClock};
use hera_index::{Grouping, UnionFind, ValuePairIndex};
use hera_join::{Among, IncrementalJoin};
use hera_sim::{TypeDispatch, ValueSimilarity};
use hera_types::json::Json;
use hera_types::{HeraError, RecordId, Result, SchemaId, SchemaRegistry, Value};
use rustc_hash::{FxHashMap, FxHashSet};
use std::ops::Range;
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

/// Queued records one step of the join pass takes: what the pass holds
/// beside the session — each record's candidate list and its pairs — is
/// bounded by this many records, however many are queued.
const JOIN_CHUNK: usize = 1024;

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
    /// out, or the round cap (4096 rounds per call) ended the
    /// call with frontier work remaining. The session state is a clean
    /// boundary: checkpoint it and a restored session continues exactly
    /// where this call stopped.
    pub exhausted: bool,
}

/// Per-call state of a progressive resolve, threaded between rounds by
/// [`HeraSession::resolve_progressive_with`].
struct ProgressiveState {
    report: ProgressiveReport,
    /// Rounds run by this call (bounded by `MAX_ITERATIONS`).
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
    /// every merge: its live `(label, value)` set is theirs once the
    /// queued records are joined.
    join: IncrementalJoin,
    /// Records the join has taken: rids below it are joined, the rest
    /// are queued for the next join pass.
    joined: u32,
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
            join: incremental_join(self.config.xi, &self.metric),
            joined: 0,
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
    /// written by [`HeraSession::checkpoint`], under the config the
    /// snapshot records: δ, ξ, blocking, bound mode and ablation are the
    /// checkpointing session's (a key an older file lacks takes
    /// [`HeraConfig::paper_example`]'s value), and only `num_threads` is
    /// taken from the builder's config. The metric is the builder's, and
    /// the snapshot records the checkpointing metric's
    /// [`ValueSimilarity::fingerprint`] (an older file, the paper
    /// default's): a builder whose metric has another fingerprint
    /// is refused with [`HeraError::InvalidConfig`] naming both, since
    /// its continuation would not be the uninterrupted run's. A
    /// recorded threshold outside `[0, 1]` or an unknown scheme, bound
    /// mode or ablation name is [`HeraError::Corrupt`].
    pub fn restore(mut self, path: impl AsRef<Path>) -> Result<HeraSession> {
        let start = std::time::Instant::now();
        let (snap, report) = Snapshot::read_report_with(&path, &self.faults)?;
        // The join and the blocker are built under the adopted ξ and
        // scheme.
        self.config = self
            .config
            .adopt(snap.expect("config")?, self.metric.as_ref())?;
        let mut session = self.build();

        session.registry = SchemaRegistry::from_json(snap.expect("registry")?)?;
        session.registry.rebuild_lookups();
        let record_count = snap.expect("record_count")?.as_i64()?;
        if record_count < 0 {
            return Err(HeraError::Corrupt("negative record_count".into()));
        }
        let record_count = record_count as usize;
        session.joined = u32::try_from(record_count)
            .map_err(|_| HeraError::Corrupt(format!("record_count {record_count} is too large")))?;
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
        match (snap.get("blocker"), session.blocker.take()) {
            (None, None) => {}
            (Some(j), Some(empty)) => {
                // The blocker was built from the recorded scheme.
                let blocker = empty.load(j)?;
                // The blocker counts co-occurrence in a table indexed by
                // rid: a member past the records would size it.
                if let Some(rid) = blocker.max_member().filter(|&m| m as usize >= record_count) {
                    return Err(HeraError::Corrupt(format!(
                        "blocker names record {rid}, snapshot has {record_count}"
                    )));
                }
                session.blocker = Some(blocker);
            }
            _ => {
                let disagree = "snapshot config's blocking disagrees with its blocker section";
                return Err(HeraError::Corrupt(disagree.into()));
            }
        }
        journal_snapshot(&session.recorder, "checkpoint_load", report);
        session
            .recorder
            .timing("checkpoint_load", None, start.elapsed());
        session.recorder.flush();
        Ok(session)
    }
}

/// Journals a snapshot write or read: its section count on the core
/// `stage` span, its payload size on a `diag` line (the wall-clock `*_us`
/// stats take more or fewer digits from one run to the next).
fn journal_snapshot(recorder: &hera_obs::Recorder, stage: &str, report: WriteReport) {
    recorder.span(stage, None, &[("sections", report.sections as i64)]);
    let bytes = Json::Int(report.payload_bytes as i64);
    recorder.emit_diag(
        "diag",
        vec![("what", Json::Str(stage.into())), ("bytes", bytes)],
    );
}

impl HeraSession {
    /// Starts building a session; see [`HeraSessionBuilder`].
    pub fn builder(config: HeraConfig) -> HeraSessionBuilder {
        HeraSessionBuilder::with_config(config)
    }

    /// Writes the complete session state to `path` as a versioned,
    /// CRC-checked snapshot (see the [`crate::store`] module docs for the
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
    ///
    /// Queued records are joined first, so the snapshot holds no queue.
    pub fn checkpoint(&mut self, path: impl AsRef<Path>) -> Result<()> {
        self.join_pending();
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
        journal_snapshot(&self.recorder, "checkpoint_save", report);
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
        snap.insert("config", self.config.to_json(self.metric.as_ref()));
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

    /// Ingests one record under a registered schema and returns its id.
    /// The record is checked, lifted into a super record and queued: its
    /// values join against the live values at the next join pass, which
    /// [`HeraSession::resolve`] and its kin, [`HeraSession::checkpoint`],
    /// [`HeraSession::frontier_len`] and [`HeraSession::extend`] run
    /// first. Each queued record is joined against the records that
    /// arrived before it, so the index, the frontier and every later
    /// result are those of joining it on arrival. Call
    /// [`HeraSession::resolve`] to fold new evidence into entities (per
    /// record for lowest latency, or in batches for throughput).
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
        // The super record keeps the values as they arrived; the join
        // pass lends them to the blocker and the join from there.
        let rid = self
            .engine
            .push_record(values, self.registry.schema(schema));
        self.engine.stats.ingest_time += started.elapsed();
        Ok(RecordId::new(rid))
    }

    /// Ingests `records` in order, as [`HeraSession::add_record`] does one
    /// at a time, then runs the join pass: every record is joined when
    /// this returns. Ids are dense, so the records take `len()` onward.
    /// The first record that fails its check ends the call with that
    /// error; the records before it stay ingested, and joined.
    pub fn extend(
        &mut self,
        records: impl IntoIterator<Item = (SchemaId, Vec<Value>)>,
    ) -> Result<()> {
        let added = records
            .into_iter()
            .try_for_each(|(schema, values)| self.add_record(schema, values).map(drop));
        self.join_pending();
        added
    }

    /// The join pass: joins every queued record, [`JOIN_CHUNK`] at a
    /// time in rid order. Its time accrues to the ingest timers.
    fn join_pending(&mut self) {
        let queued = self.len() as u32;
        while self.joined < queued {
            let end = queued.min(self.joined.saturating_add(JOIN_CHUNK as u32));
            self.join_chunk(self.joined..end);
            self.joined = end;
        }
    }

    /// Joins the queued records `rids` in three steps. Only the second,
    /// the scans, runs in parallel; each of the others is cheaper than
    /// handing it to threads.
    ///
    /// 1. In rid order: each record's blocker admission, its candidates
    ///    folded onto their current roots, and its values registered in
    ///    the join.
    /// 2. On `num_threads` workers, a scratch each: each record's values
    ///    scanned against the records before it — its candidates under
    ///    blocking, every earlier record without. The records after it
    ///    are registered already and never gathered, so every scan sees
    ///    what it would have seen on arrival: no record merges while a
    ///    record is queued.
    /// 3. In rid order: the records touched by each record's pairs marked
    ///    dirty, and the pairs filed in the index.
    ///
    /// The chunk journals its admission time (under blocking) and the
    /// rest of its wall time as the `admit` and `join_pass` timing lines.
    fn join_chunk(&mut self, rids: Range<u32>) {
        let started = Instant::now();
        let mut admit_time = Duration::ZERO;
        let mut scans: Vec<(u32, Range<u32>, Option<Vec<u32>>)> = Vec::with_capacity(rids.len());
        for rid in rids {
            let values = self.engine.supers[&rid]
                .base_values()
                .expect("a queued record has absorbed nothing");
            // The blocker speaks in original rids; the join's labels carry
            // union-find roots (relabeled on every merge), so the
            // allow-list is the candidates' *current roots*.
            let admission_started = Instant::now();
            let allowed = self.blocker.as_mut().map(|b| {
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
            if allowed.is_some() {
                admit_time += admission_started.elapsed();
            }
            let entries = self.join.register_record(rid, values);
            scans.push((rid, entries, allowed));
        }
        let scans: Vec<_> = scans
            .iter()
            .map(|(rid, entries, allowed)| {
                let among = allowed.as_deref().map_or(Among::Earlier, Among::Records);
                (*rid, entries.clone(), among)
            })
            .collect();
        // The join scores survivors from values the super records lend:
        // a queued record is its own root, an earlier one under the
        // labels its merges gave it.
        let supers = &self.engine.supers;
        let pairs = self
            .join
            .pairs_of_each(self.config.num_threads, &scans, |l| supers[&l.rid].value(l));
        for new_pairs in pairs {
            for p in &new_pairs {
                self.dirty.insert(p.a.rid);
                self.dirty.insert(p.b.rid);
            }
            self.engine.index.extend(new_pairs);
        }
        let elapsed = started.elapsed();
        if self.blocker.is_some() {
            self.recorder.timing("admit", None, admit_time);
        }
        self.recorder
            .timing("join_pass", None, elapsed - admit_time);
        let stats = &mut self.engine.stats;
        stats.ingest_time += elapsed;
        stats.admit_time += admit_time;
        stats.join_insert_time += elapsed - admit_time;
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
        // The join pass is ingest: it runs before the call's clock and
        // deadline start.
        self.join_pending();
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
        if self.dirty.is_empty() || st.iterations >= MAX_ITERATIONS {
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
        self.engine.end_round(&ctx, &mark);
        #[cfg(test)]
        {
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
    /// first. Deterministic; it joins the queued records first, which is
    /// all it changes.
    pub fn frontier_len(&mut self) -> usize {
        self.join_pending();
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

    /// Index size `|𝒱|` as of the last join pass. Records queued since
    /// are counted once a pass joins them: [`HeraSession::extend`],
    /// [`HeraSession::resolve`], [`HeraSession::checkpoint`] and
    /// [`HeraSession::frontier_len`] run one first.
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

    /// The tier-1 twin of CI step "Base super records": every field of a
    /// record that merged with nothing reads its value from the vector
    /// the caller handed `add_record`, in place, and that vector's buffer
    /// is the base-shaped super record's `base_values()`. A copy on
    /// ingest or a per-field allocation on lifting moves the values.
    #[test]
    fn add_record_keeps_the_callers_vector() {
        let mut session = HeraSession::builder(HeraConfig::paper_example()).build();
        let schema = session.add_schema("S", ["name", "mail", "tel"]);
        let values = vec![Value::from("john"), Value::Null, Value::from("831-432")];
        let buffer = values.as_ptr();
        let rid = session.add_record(schema, values).unwrap().raw();
        let record = &session.engine.supers[&rid];
        for (fid, field) in record.fields().enumerate() {
            match field.values {
                [] => assert_eq!(fid, 1, "only the null field is empty"),
                [value] => assert!(
                    std::ptr::eq(value, buffer.wrapping_add(fid)),
                    "field {fid} reads a copy of its value"
                ),
                more => panic!("field {fid} holds {} values", more.len()),
            }
        }
        let base = record.base_values().expect("the record is base-shaped");
        assert!(
            std::ptr::eq(base.as_ptr(), buffer),
            "add_record copied the vector"
        );
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
    /// `index_invariants_hold_throughout_run`. In this crate's tests every
    /// round ends by checking the index invariants and that the join's
    /// live `(label, value)` set is the super records', and panics on the
    /// first round that breaks either. Random generated datasets, blocking
    /// on and off, `add_record` and `resolve` interleaved at a random
    /// cadence.
    mod every_round {
        use super::*;
        use hera_block::BlockingScheme;
        use hera_datagen::{CorruptionConfig, DatagenConfig, Generator};
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]
            #[test]
            fn join_and_index_hold_every_round(
                seed in 0u64..10_000,
                n_records in 30usize..90,
                blocked in any::<bool>(),
                every in 1usize..12,
            ) {
                let ds = Generator::new(DatagenConfig {
                    name: format!("every-round-{seed}"),
                    seed,
                    n_records,
                    n_entities: (n_records / 6).max(2),
                    n_attrs: 12,
                    n_sources: 4,
                    min_source_attrs: 6,
                    max_source_attrs: 10,
                    corruption: CorruptionConfig::moderate(),
                    domain: Default::default(),
                })
                .generate();
                let mut cfg = HeraConfig::new(0.5, 0.5);
                if blocked {
                    cfg = cfg.with_blocking(BlockingScheme::token());
                }
                let mut session = HeraSession::builder(cfg).build();
                let schemas = session.mirror_schemas(&ds.registry);
                for (i, r) in ds.iter().enumerate() {
                    session
                        .add_record(schemas[r.schema.index()], r.values.clone())
                        .unwrap();
                    if (i + 1) % every == 0 || i + 1 == ds.len() {
                        session.resolve();
                    }
                }
                prop_assert!(session.stats().iterations > 0);
            }
        }
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

        let mut resumed = HeraSession::builder(HeraConfig::paper_example())
            .restore(&path)
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

    /// Two sessions in the same state whose wall-clock timers take
    /// different numbers of digits write snapshots of different sizes,
    /// yet journal the same deterministic checkpoint and restore lines.
    #[test]
    fn checkpoint_journals_do_not_depend_on_the_timers() {
        let journal = |micros: u64| {
            let (recorder, sink) = hera_obs::Recorder::to_memory();
            let builder = HeraSession::builder(HeraConfig::paper_example());
            let mut session = populated_session(builder.recorder(recorder.clone()));
            let stats = &mut session.engine.stats;
            for timer in [
                &mut stats.index_build_time,
                &mut stats.resolve_time,
                &mut stats.verify_time,
                &mut stats.candidate_time,
                &mut stats.absorb_time,
                &mut stats.merge_time,
                &mut stats.ingest_time,
                &mut stats.admit_time,
                &mut stats.join_insert_time,
            ] {
                *timer = Duration::from_micros(micros);
            }
            let path = std::env::temp_dir().join(format!(
                "hera-session-timers-{}-{micros}.hera",
                std::process::id()
            ));
            session.checkpoint(&path).unwrap();
            HeraSession::builder(HeraConfig::paper_example())
                .recorder(recorder)
                .restore(&path)
                .unwrap();
            let bytes = std::fs::metadata(&path).unwrap().len();
            std::fs::remove_file(&path).ok();
            (hera_obs::deterministic_view(&sink.contents()), bytes)
        };
        let (short, short_bytes) = journal(1);
        let (long, long_bytes) = journal(1_000_000);
        assert_ne!(short_bytes, long_bytes, "the timers reach the snapshot");
        assert!(short.contains("\"checkpoint_save\"") && short.contains("\"checkpoint_load\""));
        assert_eq!(short, long);
    }

    /// A blocked session's join pass journals its admission and the rest
    /// of its time as `admit` and `join_pass` timing lines. They sum to
    /// no more than the wall time of the call that ran the pass, and the
    /// deterministic view leaves them out.
    #[test]
    fn a_blocked_join_pass_journals_admit_and_join_pass() {
        let (recorder, sink) = hera_obs::Recorder::to_memory();
        let config = HeraConfig::paper_example().with_blocking(hera_block::BlockingScheme::token());
        let ds = motivating_example();
        let mut session = HeraSession::builder(config).recorder(recorder).build();
        let schemas = session.mirror_schemas(&ds.registry);
        for rec in ds.iter() {
            session
                .add_record(schemas[rec.schema.index()], rec.values.clone())
                .unwrap();
        }
        let started = Instant::now();
        session.resolve();
        let wall = started.elapsed().as_micros() as i64;
        let journal = sink.contents();
        let mut seen = [0, 0];
        let mut sum = 0;
        for line in journal.lines() {
            let doc = hera_types::json::parse(line).unwrap();
            if doc.expect("ev").unwrap().as_str().unwrap() != "timing" {
                continue;
            }
            let stage = doc.expect("stage").unwrap().as_str().unwrap();
            if let Some(at) = ["admit", "join_pass"].iter().position(|&s| s == stage) {
                seen[at] += 1;
                sum += doc.expect("wall_us").unwrap().as_i64().unwrap();
            }
        }
        assert_eq!(seen, [1, 1], "one chunk, one line per stage:\n{journal}");
        assert!(sum <= wall, "{sum} us journaled in a {wall} us call");
        let view = hera_obs::deterministic_view(&journal);
        assert!(!view.contains("\"admit\"") && !view.contains("join_pass"));
    }

    /// Writes the motivating example, resolved under `config`, to a
    /// snapshot at a path of `tag`'s.
    fn resolved_snapshot(config: HeraConfig, tag: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("hera-session-{tag}-{}.hera", std::process::id()));
        populated_session(HeraSession::builder(config))
            .checkpoint(&path)
            .unwrap();
        path
    }

    /// A restore takes ξ from the snapshot, whatever the builder says,
    /// and its thread count from the builder.
    #[test]
    fn restore_adopts_the_snapshots_xi() {
        let path = resolved_snapshot(HeraConfig::new(0.5, 0.7), "xi");
        let restored = HeraSession::builder(HeraConfig::new(0.5, 0.9).with_threads(3))
            .restore(&path)
            .unwrap();
        assert_eq!(restored.config.xi, 0.7);
        assert_eq!(restored.config.num_threads, 3);
        std::fs::remove_file(&path).ok();
    }

    /// A restore takes δ, the bound mode and the ablation from the
    /// snapshot; a file written before δ was recorded restores at the
    /// paper example's δ, not at the builder's.
    #[test]
    fn restore_adopts_the_snapshots_delta_and_ablation() {
        let recorded = HeraConfig::new(0.9, 0.5)
            .with_bound_mode(hera_index::BoundMode::Paper)
            .with_ablation(crate::Ablation::GreedyMatching);
        let path = resolved_snapshot(recorded, "delta");
        let restored = HeraSession::builder(HeraConfig::paper_example())
            .restore(&path)
            .unwrap();
        let c = &restored.config;
        assert_eq!(c.delta, 0.9);
        assert_eq!(c.bound_mode, hera_index::BoundMode::Paper);
        assert_eq!(c.ablation, crate::Ablation::GreedyMatching);

        let mut snap = Snapshot::read(&path).unwrap();
        let Some(Json::Obj(config)) = snap.get("config").cloned() else {
            panic!("a config section");
        };
        let older: Vec<(String, Json)> = config.into_iter().filter(|(k, _)| k != "delta").collect();
        snap.insert("config", Json::Obj(older));
        snap.write(&path).unwrap();
        let restored = HeraSession::builder(HeraConfig::new(0.9, 0.5))
            .restore(&path)
            .unwrap();
        assert_eq!(restored.config.delta, 0.5);
        assert_eq!(restored.len(), motivating_example().len());
        std::fs::remove_file(&path).ok();
    }

    /// A recorded threshold outside [0, 1], or a name no bound mode or
    /// ablation has, is a corrupt snapshot — never a config assertion.
    #[test]
    fn restore_refuses_a_recorded_config_out_of_range_as_corrupt() {
        let path = resolved_snapshot(HeraConfig::paper_example(), "corrupt-config");
        let snap = Snapshot::read(&path).unwrap();
        let Some(Json::Obj(config)) = snap.get("config").cloned() else {
            panic!("a config section");
        };
        let edits = [
            ("delta", Json::Float(1.5)),
            ("xi", Json::Float(-0.25)),
            ("bound_mode", Json::Str("loose".into())),
            ("ablation", Json::Str("no_verification".into())),
            ("blocking", Json::Str("tokens".into())),
        ];
        for (key, value) in edits {
            let mut edited = config.clone();
            edited.iter_mut().find(|(k, _)| k == key).unwrap().1 = value;
            let mut snap = snap.clone();
            snap.insert("config", Json::Obj(edited));
            snap.write(&path).unwrap();
            let err = HeraSession::builder(HeraConfig::paper_example())
                .restore(&path)
                .err()
                .expect("an out-of-range config must be refused");
            assert!(matches!(err, HeraError::Corrupt(_)), "{key}: {err}");
            assert!(err.to_string().contains(key), "{key}: {err}");
        }

        // A scheme and its blocker section come together.
        let recorded =
            HeraConfig::paper_example().with_blocking(hera_block::BlockingScheme::token());
        let path = resolved_snapshot(recorded, "corrupt-blocking");
        let mut snap = Snapshot::read(&path).unwrap();
        let Some(Json::Obj(mut config)) = snap.get("config").cloned() else {
            panic!("a config section");
        };
        config.iter_mut().find(|(k, _)| k == "blocking").unwrap().1 = Json::Str("none".into());
        snap.insert("config", Json::Obj(config));
        snap.write(&path).unwrap();
        let err = HeraSession::builder(HeraConfig::paper_example())
            .restore(&path)
            .err()
            .expect("a blocker section without a scheme must be refused");
        assert!(matches!(err, HeraError::Corrupt(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    /// A call cut by the round cap reports exhaustion — a partial result
    /// is never presented as a fixpoint — and later calls land on the
    /// uncut run's answer. The round loop is driven past one round and
    /// sealed as the cap seals a call.
    #[test]
    fn iteration_cap_reports_exhaustion() {
        let ds = motivating_example();
        let mut full = populated_session(HeraSession::builder(HeraConfig::paper_example()));
        let full_merges = full.merge_count();

        let mut s = HeraSession::builder(HeraConfig::paper_example()).build();
        let schemas = s.mirror_schemas(&ds.registry);
        for rec in ds.iter() {
            s.add_record(schemas[rec.schema.index()], rec.values.clone())
                .unwrap();
        }
        s.join_pending();
        let budget = ResolveBudget::unlimited();
        let mut st = s.progressive_start(budget);
        assert!(
            s.progressive_round(budget, &mut st, &mut |_| {}),
            "the example needs more than one round"
        );
        s.progressive_finish(budget, &mut st);
        let first = st.report;
        assert!(
            first.exhausted && first.frontier > 0,
            "a one-round cut must leave frontier work, and the report must say so: {first:?}"
        );
        let mut merges = first.merges;
        loop {
            let r = s.resolve_progressive(budget);
            merges += r.merges;
            if !r.exhausted {
                break;
            }
        }
        assert_eq!(merges, full_merges);
        assert_eq!(s.clusters(), full.clusters());
    }

    #[test]
    fn restore_missing_file_is_io_error() {
        let err = HeraSession::builder(HeraConfig::paper_example())
            .restore("/nonexistent/path/snapshot.hera")
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
        let resumed = HeraSession::builder(HeraConfig::paper_example())
            .restore(&path)
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
