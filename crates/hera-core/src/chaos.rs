//! The chaos harness: streaming resolution under a deterministic fault
//! plan, and the *no-torn-state* invariant check built on top of it.
//!
//! [`stream`] is the streaming loop: it adds each record of a stretch of
//! a dataset to a [`HeraSession`], resolves it and checkpoints every `k`
//! records, absorbing a failed checkpoint. The CLI's `resolve
//! --streaming`, `checkpoint` and `restore-resolve` run it, and so does
//! the harness: [`run_chaos`] calls it with a [`FaultPlan`]'s injector
//! threaded through every IO edge (snapshot writes and reads, the journal
//! sink) and with an optional simulated *crash* between two calls: at a
//! chosen record the in-memory session is dropped on the floor and the
//! run recovers from its last good checkpoint, just as a restarted
//! process would.
//!
//! [`check_no_torn_state`] is the invariant the chaos property test and
//! `hera-cli faults replay` both assert: under *any* fault plan, a run
//! either
//!
//! 1. **completes with entities bit-identical to the fault-free run**
//!    (degraded sinks and failed checkpoints are absorbed), or
//! 2. **stops with a typed error**, after which restoring its last good
//!    checkpoint fault-free and replaying the remaining records
//!    reproduces the fault-free result exactly;
//!
//! and in both cases no partial snapshot (`.tmp`) file is left behind and
//! the journal that was written stays parseable. Panics and torn on-disk
//! state are the failures this harness exists to rule out.

use crate::config::HeraConfig;
use crate::session::{HeraSession, ResolveBudget};
use hera_faults::{FaultInjector, FaultPlan, FiredFault, ManualClock};
use hera_types::{Dataset, HeraError};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// How [`run_chaos`] drives the session.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Resolution config for every session the run builds.
    pub config: HeraConfig,
    /// Checkpoint after every `checkpoint_every` ingested records
    /// (0 disables checkpointing).
    pub checkpoint_every: usize,
    /// Simulate a crash immediately before ingesting this record index:
    /// the session is dropped and the run recovers from its last good
    /// checkpoint (or restarts from scratch when none exists).
    pub crash_after: Option<usize>,
    /// Treat a failed checkpoint as fatal (surface the typed
    /// [`HeraError::CheckpointFailed`]) instead of degrading gracefully
    /// (count it and keep resolving from in-memory state).
    pub strict_checkpoints: bool,
    /// Ingest only the first `upto` records (`None` = whole dataset).
    pub upto: Option<usize>,
    /// Per-record comparison budget: resolve via
    /// [`HeraSession::resolve_progressive`] with this many comparisons
    /// after each ingest instead of running to the fixpoint (`None` =
    /// unlimited, the classic behavior). Deferred work stays on the
    /// frontier and is picked up by later per-record calls, so torn-state
    /// checking covers budgeted (progressive) runs too.
    pub resolve_budget: Option<u64>,
}

impl ChaosConfig {
    /// A chaos run with checkpoints every `k` records and no crash.
    pub fn new(config: HeraConfig, checkpoint_every: usize) -> Self {
        Self {
            config,
            checkpoint_every,
            crash_after: None,
            strict_checkpoints: false,
            upto: None,
            resolve_budget: None,
        }
    }

    /// The run's [`StreamSchedule`], checkpointing to `snapshot` (`None`
    /// never checkpoints).
    fn schedule<'a>(&self, snapshot: Option<&'a Path>) -> StreamSchedule<'a> {
        StreamSchedule {
            checkpoint: snapshot
                .filter(|_| self.checkpoint_every > 0)
                .map(|path| (self.checkpoint_every, path)),
            strict_checkpoints: self.strict_checkpoints,
            resolve_budget: self.resolve_budget,
        }
    }

    fn n_records(&self, ds: &Dataset) -> usize {
        self.upto.map_or(ds.len(), |u| u.min(ds.len()))
    }
}

/// What a chaos run did and where it ended.
#[derive(Debug)]
pub struct ChaosReport {
    /// Final entity label per record — present iff the run completed.
    pub labels: Option<Vec<u32>>,
    /// The typed error that stopped the run, if it did not complete.
    pub error: Option<HeraError>,
    /// Checkpoints that failed and were absorbed (non-strict mode).
    pub checkpoint_failures: usize,
    /// Recoveries performed (restores from a checkpoint, plus
    /// from-scratch restarts after a crash with no checkpoint).
    pub restores: usize,
    /// Records covered by the last checkpoint that reached disk.
    pub last_good: Option<usize>,
    /// True when the journal sink degraded during the run.
    pub sink_degraded: bool,
    /// Every fault that actually fired, in firing order.
    pub fired: Vec<FiredFault>,
    /// The journal the run's recorder captured (JSON Lines).
    pub journal: String,
}

impl ChaosReport {
    /// True when the run ingested and resolved everything.
    pub fn completed(&self) -> bool {
        self.labels.is_some()
    }
}

/// Final entity label of every ingested record.
fn labels_of(session: &HeraSession, n: usize) -> Vec<u32> {
    (0..n as u32)
        .map(|rid| session.entity_of(hera_types::RecordId::new(rid)))
        .collect()
}

/// When [`stream`] checkpoints, what a failed checkpoint does to it, and
/// how it resolves each record.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamSchedule<'a> {
    /// `(k, path)`: checkpoint to `path` after every record whose
    /// position in the dataset, counted from one, is a multiple of `k`.
    /// `None` never checkpoints.
    pub checkpoint: Option<(usize, &'a Path)>,
    /// Stop at a failed checkpoint ([`HeraError::CheckpointFailed`])
    /// instead of absorbing it.
    pub strict_checkpoints: bool,
    /// Resolve each record under this many comparisons
    /// ([`HeraSession::resolve_progressive`]) instead of to the fixpoint;
    /// deferred work stays on the frontier for the next record.
    pub resolve_budget: Option<u64>,
}

/// What [`stream`] leaves behind besides the session. It accumulates: a
/// run that streams in stretches (a crash and a restore between them)
/// passes the same one to each.
#[derive(Debug, Default)]
pub struct Streamed {
    /// Records covered by the last checkpoint that reached disk.
    pub last_good: Option<usize>,
    /// The checkpoint failures absorbed, in order.
    pub absorbed: Vec<HeraError>,
}

/// Streams records `records` of `ds` into `session` the way a process
/// fed one record at a time does: each record added, then resolved, and
/// the session checkpointed as `schedule` says. This is the loop the
/// CLI's streaming mode runs and the one the chaos harness attacks.
///
/// A checkpoint that still fails after the session's retry policy is
/// absorbed into `streamed` — the in-memory session is intact, so
/// resolution continues and only durability suffered — unless the
/// schedule is strict. The first error that is not absorbed ends the
/// stretch; `streamed` keeps what happened before it.
///
/// The session's schema ids are the dataset's: a fresh session that
/// mirrored `ds.registry` ([`HeraSession::mirror_schemas`]) or one
/// restored from a snapshot such a session wrote.
pub fn stream(
    session: &mut HeraSession,
    ds: &Dataset,
    records: Range<usize>,
    schedule: &StreamSchedule<'_>,
    streamed: &mut Streamed,
) -> Result<(), HeraError> {
    debug_assert_eq!(session.registry().len(), ds.registry.len());
    for i in records {
        let rec = &ds.records[i];
        session.add_record(rec.schema, rec.values.clone())?;
        match schedule.resolve_budget {
            Some(b) => {
                session.resolve_progressive(ResolveBudget::comparisons(b));
            }
            None => {
                session.resolve();
            }
        }
        let Some((k, path)) = schedule.checkpoint else {
            continue;
        };
        if (i + 1).is_multiple_of(k) {
            match session.checkpoint(path) {
                Ok(()) => streamed.last_good = Some(i + 1),
                Err(e @ HeraError::CheckpointFailed { .. }) if !schedule.strict_checkpoints => {
                    streamed.absorbed.push(e);
                }
                Err(e) => return Err(e),
            }
        }
    }
    Ok(())
}

/// Streams `ds` through a session while `plan`'s injector attacks the IO
/// edges; checkpoints land at `snapshot_path`. Never panics: every fault
/// either degrades gracefully or surfaces as the report's typed error.
pub fn run_chaos(
    ds: &Dataset,
    cfg: &ChaosConfig,
    plan: &FaultPlan,
    snapshot_path: &Path,
) -> ChaosReport {
    let injector = FaultInjector::new(plan);
    let (recorder, journal) = hera_obs::Recorder::to_memory();
    let recorder = recorder.deterministic().with_faults(injector.clone());
    let n = cfg.n_records(ds);
    let schedule = cfg.schedule(Some(snapshot_path));
    let mut streamed = Streamed::default();
    let mut restores = 0usize;

    // Chaos runs never sleep for real: backoff delays are recorded, not
    // slept, so 256 property cases stay fast.
    let builder = || {
        HeraSession::builder(cfg.config.clone())
            .faults(injector.clone())
            .recorder(recorder.clone())
            .clock(Arc::new(ManualClock::new()))
    };
    let fresh = || {
        let mut session = builder().build();
        session.mirror_schemas(&ds.registry);
        session
    };
    let mut session = fresh();
    let crash = cfg.crash_after.filter(|&c| c < n);
    let mut result = stream(
        &mut session,
        ds,
        0..crash.unwrap_or(n),
        &schedule,
        &mut streamed,
    );
    if result.is_ok() && crash.is_some() {
        // The crash: the in-memory session is abandoned, exactly what a
        // killed process loses.
        restores += 1;
        result = match streamed.last_good {
            // Recovery can fail itself (e.g. a read fault): the run stops
            // with the typed error.
            Some(_) => builder()
                .restore(snapshot_path)
                .map(|restored| session = restored),
            // Nothing durable yet: a restarted process replays the stream
            // from the beginning.
            None => {
                session = fresh();
                Ok(())
            }
        };
        // Resume from whatever the snapshot covers. That can exceed
        // `last_good`: a checkpoint that failed only at the directory
        // sync had already renamed a complete snapshot into place, so
        // disk is a *lower* bound, not an exact match.
        let from = session.len();
        result = result.and_then(|()| stream(&mut session, ds, from..n, &schedule, &mut streamed));
    }

    let (labels, error) = match result {
        Ok(()) => (Some(labels_of(&session, n)), None),
        Err(e) => (None, Some(e)),
    };
    ChaosReport {
        labels,
        error,
        checkpoint_failures: streamed.absorbed.len(),
        restores,
        last_good: streamed.last_good,
        sink_degraded: recorder.degraded(),
        fired: injector.fired(),
        journal: journal.contents(),
    }
}

/// Outcome of [`check_no_torn_state`].
#[derive(Debug)]
pub struct ChaosVerdict {
    /// True when every invariant held.
    pub ok: bool,
    /// Human-readable explanation when `ok` is false (empty otherwise).
    pub detail: String,
    /// The faulted run's report, for diagnostics.
    pub report: ChaosReport,
}

/// Runs `plan` against `ds` inside `dir` and checks the no-torn-state
/// invariant (module docs): bit-identical completion or typed error plus
/// clean recovery, with no partial snapshot files left in `dir`.
pub fn check_no_torn_state(
    ds: &Dataset,
    cfg: &ChaosConfig,
    plan: &FaultPlan,
    dir: &Path,
) -> ChaosVerdict {
    let n = cfg.n_records(ds);

    // Reference: the same schedule with no faults and no crash.
    let mut ref_cfg = cfg.clone();
    ref_cfg.crash_after = None;
    let ref_report = run_chaos(ds, &ref_cfg, &FaultPlan::none(), &dir.join("ref.hera"));
    let reference = match ref_report.labels {
        Some(l) => l,
        None => {
            return ChaosVerdict {
                detail: format!("fault-free reference run failed: {:?}", ref_report.error),
                ok: false,
                report: ref_report,
            }
        }
    };

    let snapshot = dir.join("chaos.hera");
    let report = run_chaos(ds, cfg, plan, &snapshot);
    let fail = |detail: String, report: ChaosReport| ChaosVerdict {
        ok: false,
        detail,
        report,
    };

    // Invariant: whatever the faults did, the journal that was written
    // stays parseable (degradation truncates it, never corrupts it).
    if let Err(e) = hera_obs::validate(&report.journal) {
        return fail(format!("journal is not trace-check-clean: {e}"), report);
    }

    // Invariant: no partial snapshot file survives, whatever happened.
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            if name.to_string_lossy().ends_with(".tmp") {
                return fail(format!("partial snapshot left behind: {name:?}"), report);
            }
        }
    }

    match (&report.labels, &report.error) {
        (Some(labels), None) => {
            if *labels != reference {
                return fail(
                    format!(
                        "completed run diverged from fault-free reference\n  got: {labels:?}\n  ref: {reference:?}"
                    ),
                    report,
                );
            }
        }
        (None, Some(_)) => {
            // Typed error: recovery from the last good checkpoint —
            // fault-free this time — must reproduce the reference.
            if let Some(covered) = report.last_good {
                let resumed = HeraSession::builder(cfg.config.clone()).restore(&snapshot);
                let mut session = match resumed {
                    Ok(s) => s,
                    Err(e) => {
                        return fail(
                            format!("last good checkpoint does not restore cleanly: {e}"),
                            report,
                        )
                    }
                };
                // Disk may cover more than `covered`: a checkpoint that
                // failed only at the directory sync still renamed a
                // complete snapshot into place. Anything *less* than the
                // last reported-good checkpoint (or beyond the stream)
                // is torn state.
                let got = session.len();
                if got < covered || got > n {
                    return fail(
                        format!("restored snapshot covers {got} records, outside [{covered}, {n}]"),
                        report,
                    );
                }
                let continued = stream(
                    &mut session,
                    ds,
                    got..n,
                    &cfg.schedule(None),
                    &mut Streamed::default(),
                );
                if let Err(e) = continued {
                    return fail(
                        format!("fault-free continuation failed to ingest: {e}"),
                        report,
                    );
                }
                let labels = labels_of(&session, n);
                if labels != reference {
                    return fail(
                        format!(
                            "recovery from last good checkpoint diverged\n  got: {labels:?}\n  ref: {reference:?}"
                        ),
                        report,
                    );
                }
            }
        }
        (Some(_), Some(_)) | (None, None) => {
            return fail("report is internally inconsistent".into(), report)
        }
    }

    ChaosVerdict {
        ok: true,
        detail: String::new(),
        report,
    }
}
