//! Structured observability for HERA: a JSON Lines run journal.
//!
//! The resolve pipeline emits *events* — one JSON object per line —
//! through a [`Recorder`] handle threaded from the driver down to the
//! join, index, and verification stages. Events come in two classes,
//! distinguished by their `"ev"` discriminator:
//!
//! * **Core events** (`run_start`, `span`, `merge`, `schema_decided`,
//!   `round_end`, `run_end`) describe *what the algorithm
//!   decided*: per-stage counter deltas, every merge `rid₁ ⊕ rid₂`, every
//!   schema matching the voter promoted. Because the pipeline's decisions
//!   are bit-identical at every thread count, the core journal is
//!   **byte-identical** across thread counts.
//! * **Diagnostic events** (`timing`, `diag`) describe *how the run went
//!   on this host*: wall-clock per stage, thread count.
//!   These legitimately vary run to run, so they are a separate line
//!   class that [`deterministic_view`] strips and
//!   [`Recorder::deterministic`] suppresses at the source.
//!
//! Per-worker aggregation never happens in the recorder: parallel stages
//! return per-item results in input order (`par_map_with`), the caller
//! folds them in that order, and emits **one** span per stage — so the
//! journal needs no locking discipline beyond the line sink itself.
//!
//! A disabled recorder ([`Recorder::disabled`]) is a `None` sink: every
//! emit method returns after one branch, no formatting, no allocation —
//! the hot path pays nothing. Call sites that must *build* data for an
//! event (e.g. resolve attribute names) guard on [`Recorder::enabled`].
//!
//! **Graceful degradation**: observability must never take a resolve run
//! down with it. When a sink write fails — for real, or through the
//! `obs.sink.write` failpoint of an attached
//! [`hera_faults::FaultInjector`] — the recorder *degrades*: it
//! best-effort appends exactly one `sink_degraded` event, warns once on
//! stderr, and silently drops every further line. The pipeline never
//! sees an error from its tracing calls.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hera_faults::{points, FaultInjector};
use hera_types::json::{self, Json};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Event kinds that are *diagnostic*: host- and configuration-dependent
/// lines that [`deterministic_view`] removes.
pub(crate) const DIAGNOSTIC_EVENTS: [&str; 2] = ["timing", "diag"];

/// Where journal lines go.
enum Sink {
    /// Buffered file writer (flushed on [`Recorder::flush`] and drop).
    File(std::io::BufWriter<std::fs::File>),
    /// In-memory journal, shared with a [`JournalBuffer`].
    Memory(String),
    /// Encode and discard — exercises the serialization path (used by the
    /// `HERA_TRACE=1` test mode) without touching the filesystem.
    Null,
}

impl Sink {
    /// Appends one journal line; false on a write failure.
    fn append(&mut self, line: &str) -> bool {
        match self {
            Sink::File(w) => writeln!(w, "{line}").is_ok(),
            Sink::Memory(s) => {
                s.push_str(line);
                s.push('\n');
                true
            }
            Sink::Null => true,
        }
    }

    /// Flushes buffered bytes (file sinks only).
    fn flush(&mut self) {
        if let Sink::File(w) = self {
            let _ = w.flush();
        }
    }
}

/// Sink plus its degradation flag, behind one lock.
struct SinkState {
    sink: Sink,
    /// Set on the first write failure; all later lines are dropped.
    degraded: bool,
}

impl SinkState {
    fn new(sink: Sink) -> Self {
        Self {
            sink,
            degraded: false,
        }
    }
}

/// Read handle onto a memory-sink journal (see [`Recorder::to_memory`]).
#[derive(Clone)]
pub struct JournalBuffer(Arc<Mutex<SinkState>>);

impl JournalBuffer {
    /// The journal accumulated so far, as JSON Lines text.
    pub fn contents(&self) -> String {
        match &self.0.lock().expect("journal sink poisoned").sink {
            Sink::Memory(s) => s.clone(),
            _ => String::new(),
        }
    }
}

/// Handle for emitting journal events. Cheap to clone (an `Arc` plus two
/// flags); a disabled recorder makes every emit method a no-op.
#[derive(Clone, Default)]
pub struct Recorder {
    sink: Option<Arc<Mutex<SinkState>>>,
    /// Emit diagnostic (`timing` / `diag`) lines.
    diagnostics: bool,
    /// Mirror `round_end` summaries to stderr as live progress lines.
    progress: bool,
    /// Fault injector consulted at `obs.sink.write` (disabled by
    /// default).
    faults: FaultInjector,
}

impl Recorder {
    /// A recorder that records nothing — the zero-cost default.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Records to a file, creating or truncating it. Diagnostics on.
    pub fn to_file(path: &str) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self {
            sink: Some(Arc::new(Mutex::new(SinkState::new(Sink::File(
                std::io::BufWriter::new(file),
            ))))),
            diagnostics: true,
            ..Self::default()
        })
    }

    /// Records to an in-memory buffer; returns the recorder and a read
    /// handle. Diagnostics on (use [`Recorder::deterministic`] to strip).
    pub fn to_memory() -> (Self, JournalBuffer) {
        let sink = Arc::new(Mutex::new(SinkState::new(Sink::Memory(String::new()))));
        let rec = Self {
            sink: Some(sink.clone()),
            diagnostics: true,
            ..Self::default()
        };
        (rec, JournalBuffer(sink))
    }

    /// Encodes every event and discards the bytes — the serialization
    /// path runs, nothing is stored. Used by the `HERA_TRACE=1` test mode.
    pub(crate) fn to_null() -> Self {
        Self {
            sink: Some(Arc::new(Mutex::new(SinkState::new(Sink::Null)))),
            diagnostics: true,
            ..Self::default()
        }
    }

    /// Builds a recorder from the `HERA_TRACE` environment variable:
    /// a null-sink recorder when set (non-empty, not `"0"`), disabled
    /// otherwise. Lets CI drive the whole tracing path through ordinary
    /// test runs without per-process output files.
    pub fn from_env() -> Self {
        match std::env::var("HERA_TRACE") {
            Ok(v) if !v.is_empty() && v != "0" => Self::to_null(),
            _ => Self::disabled(),
        }
    }

    /// Suppresses diagnostic (`timing` / `diag`) lines at the source, so
    /// the journal contains only the byte-identical core events.
    pub fn deterministic(mut self) -> Self {
        self.diagnostics = false;
        self
    }

    /// Enables or disables live progress lines on stderr.
    pub fn with_progress(mut self, on: bool) -> Self {
        self.progress = on;
        self
    }

    /// Attaches a fault injector: every sink write consults the
    /// `obs.sink.write` failpoint, and an injected (or real) failure
    /// triggers graceful degradation instead of an error.
    pub fn with_faults(mut self, faults: FaultInjector) -> Self {
        self.faults = faults;
        self
    }

    /// True if any emit can have an effect — guard expensive event
    /// construction (name lookups, string formatting) on this.
    pub fn enabled(&self) -> bool {
        self.sink.is_some() || self.progress
    }

    /// True once the sink has failed and the recorder dropped into
    /// degraded (drop-everything) mode.
    pub fn degraded(&self) -> bool {
        self.sink
            .as_ref()
            .is_some_and(|s| s.lock().expect("journal sink poisoned").degraded)
    }

    /// Flushes a file sink. Memory/null sinks are always current.
    pub fn flush(&self) {
        if let Some(sink) = &self.sink {
            sink.lock().expect("journal sink poisoned").sink.flush();
        }
    }

    fn write_line(&self, ev: &str, fields: Vec<(&str, Json)>) {
        let Some(sink) = &self.sink else { return };
        let mut obj = Vec::with_capacity(fields.len() + 1);
        obj.push(("ev".to_string(), Json::Str(ev.to_string())));
        obj.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
        let line = Json::Obj(obj).to_string_compact();
        let mut state = sink.lock().expect("journal sink poisoned");
        if state.degraded {
            return;
        }
        let injected = self.faults.hit(points::OBS_SINK_WRITE).is_some();
        let ok = !injected && state.sink.append(&line);
        if !ok {
            // Degrade: one best-effort notice, one stderr warning, then
            // silence. Tracing must never fail the pipeline it observes.
            state.degraded = true;
            let reason = if injected {
                "injected fault"
            } else {
                "io error"
            };
            let notice = Json::Obj(vec![
                ("ev".into(), Json::Str("sink_degraded".into())),
                ("reason".into(), Json::Str(reason.into())),
                ("dropped_event".into(), Json::Str(ev.to_string())),
            ])
            .to_string_compact();
            let _ = state.sink.append(&notice);
            state.sink.flush();
            eprintln!(
                "[hera-obs] journal sink degraded ({reason}); \
                 further trace events are dropped"
            );
        }
    }

    /// Emits a core event (always, when a sink is attached).
    pub fn emit(&self, ev: &str, fields: Vec<(&str, Json)>) {
        if self.sink.is_some() {
            self.write_line(ev, fields);
        }
    }

    /// Emits a diagnostic event (skipped in [`Recorder::deterministic`]
    /// mode).
    pub fn emit_diag(&self, ev: &str, fields: Vec<(&str, Json)>) {
        if self.sink.is_some() && self.diagnostics {
            self.write_line(ev, fields);
        }
    }

    // ---- Typed conveniences over `emit` / `emit_diag`. --------------

    /// Start-of-run marker: which pipeline, on what input, under which
    /// thresholds.
    pub fn run_start(&self, pipeline: &str, dataset: &str, records: usize, delta: f64, xi: f64) {
        if !self.enabled() {
            return;
        }
        self.emit(
            "run_start",
            vec![
                ("pipeline", Json::Str(pipeline.to_string())),
                ("dataset", Json::Str(dataset.to_string())),
                ("records", Json::Int(records as i64)),
                ("delta", Json::Float(delta)),
                ("xi", Json::Float(xi)),
            ],
        );
    }

    /// One pipeline stage's counter deltas. `round` is `None` for stages
    /// outside the compare-and-merge loop (join, index build).
    pub fn span(&self, stage: &str, round: Option<usize>, counters: &[(&str, i64)]) {
        if self.sink.is_none() {
            return;
        }
        let mut fields: Vec<(&str, Json)> = vec![("stage", Json::Str(stage.to_string()))];
        if let Some(r) = round {
            fields.push(("round", Json::Int(r as i64)));
        }
        fields.extend(counters.iter().map(|&(k, v)| (k, Json::Int(v))));
        self.emit("span", fields);
    }

    /// One merge decision: `winner ⊕ loser` at record similarity `sim`
    /// over `matched_fields` matched field pairs.
    pub fn merge(&self, round: usize, winner: u32, loser: u32, sim: f64, matched_fields: usize) {
        if self.sink.is_none() {
            return;
        }
        self.emit(
            "merge",
            vec![
                ("round", Json::Int(round as i64)),
                ("winner", Json::Int(winner as i64)),
                ("loser", Json::Int(loser as i64)),
                ("sim", Json::Float(sim)),
                ("matched_fields", Json::Int(matched_fields as i64)),
            ],
        );
    }

    /// One schema matching promoted by the voter, with its Theorem-2
    /// error bound at decision time.
    pub fn schema_decided(&self, round: usize, attr: &str, partner: &str, up_error: f64) {
        if self.sink.is_none() {
            return;
        }
        self.emit(
            "schema_decided",
            vec![
                ("round", Json::Int(round as i64)),
                ("attr", Json::Str(attr.to_string())),
                ("partner", Json::Str(partner.to_string())),
                ("up_error", Json::Float(up_error)),
            ],
        );
    }

    /// End-of-round summary; mirrors to stderr when progress is on.
    pub fn round_end(&self, round: usize, merges: i64, index_size: i64, open_buckets: i64) {
        if self.progress {
            eprintln!("[trace] round {round}: {merges} merges, index {index_size} pairs");
        }
        if self.sink.is_none() {
            return;
        }
        self.emit(
            "round_end",
            vec![
                ("round", Json::Int(round as i64)),
                ("merges", Json::Int(merges)),
                ("index_size", Json::Int(index_size)),
                ("open_vote_buckets", Json::Int(open_buckets)),
            ],
        );
    }

    /// End-of-run counters (deterministic totals only — host-dependent
    /// numbers belong in a [`Recorder::emit_diag`] event).
    pub fn run_end(&self, counters: &[(&str, i64)]) {
        if self.sink.is_none() {
            return;
        }
        let fields: Vec<(&str, Json)> = counters.iter().map(|&(k, v)| (k, Json::Int(v))).collect();
        self.emit("run_end", fields);
    }

    /// Wall-clock of one stage — diagnostic (host-dependent).
    pub fn timing(&self, stage: &str, round: Option<usize>, wall: Duration) {
        if self.sink.is_none() || !self.diagnostics {
            return;
        }
        let mut fields: Vec<(&str, Json)> = vec![("stage", Json::Str(stage.to_string()))];
        if let Some(r) = round {
            fields.push(("round", Json::Int(r as i64)));
        }
        fields.push(("wall_us", Json::Int(wall.as_micros() as i64)));
        self.emit_diag("timing", fields);
    }
}

/// Summary of a validated journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalSummary {
    /// Total lines.
    pub lines: usize,
    /// Line counts per `"ev"` kind, sorted by kind.
    pub by_kind: BTreeMap<String, usize>,
}

impl JournalSummary {
    /// Lines of one event kind (0 when absent).
    pub fn count(&self, kind: &str) -> usize {
        self.by_kind.get(kind).copied().unwrap_or(0)
    }
}

/// Validates a journal: every line must parse as a JSON object with a
/// string `"ev"` key. Returns per-kind line counts.
pub fn validate(journal: &str) -> Result<JournalSummary, String> {
    let mut summary = JournalSummary {
        lines: 0,
        by_kind: BTreeMap::new(),
    };
    for (i, line) in journal.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let kind = doc
            .get("ev")
            .ok_or_else(|| format!("line {}: missing \"ev\" key", i + 1))?
            .as_str()
            .map_err(|e| format!("line {}: {e}", i + 1))?;
        summary.lines += 1;
        *summary.by_kind.entry(kind.to_string()).or_insert(0) += 1;
    }
    Ok(summary)
}

/// The deterministic core of a journal: every line whose `"ev"` kind is
/// not diagnostic, in order. Two runs of the same dataset and config —
/// at any thread count — produce byte-identical views.
/// Unparseable lines are kept (validation is [`validate`]'s job).
pub fn deterministic_view(journal: &str) -> String {
    let mut out = String::new();
    for line in journal.lines() {
        let diagnostic = json::parse(line)
            .ok()
            .and_then(|doc| {
                doc.get("ev")
                    .and_then(|e| e.as_str().ok().map(String::from))
            })
            .is_some_and(|kind| DIAGNOSTIC_EVENTS.contains(&kind.as_str()));
        if !diagnostic {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Checks that the `"round"` field of every round-bearing journal line
/// never decreases — the invariant a
/// checkpoint-resumed progressive run must uphold (the session's round
/// counter is part of the snapshot, so a restored run continues the
/// numbering instead of restarting at 1).
/// Returns the number of round-bearing lines checked; the error names
/// the first offending line. Unparseable lines are skipped (validation
/// is [`validate`]'s job). Note that a crash-*replay* journal — where
/// the writer re-executes pre-crash rounds — legitimately rewinds;
/// apply this to journals of a single resumed lineage.
pub fn check_rounds_monotonic(journal: &str) -> Result<usize, String> {
    let mut last: Option<i64> = None;
    let mut checked = 0usize;
    for (i, line) in journal.lines().enumerate() {
        let Ok(doc) = json::parse(line) else { continue };
        let Some(round) = doc.get("round").and_then(|r| r.as_i64().ok()) else {
            continue;
        };
        if let Some(prev) = last.filter(|&prev| round < prev) {
            return Err(format!("line {}: round {round} after round {prev}", i + 1));
        }
        last = Some(round);
        checked += 1;
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.enabled());
        rec.run_start("batch", "d", 10, 0.5, 0.5);
        rec.span("verify", Some(1), &[("pairs", 3)]);
        rec.merge(1, 0, 5, 0.7, 4);
        rec.run_end(&[("merges", 1)]);
        rec.flush(); // no panic, no effect
    }

    #[test]
    fn memory_journal_round_trip() {
        let (rec, buf) = Recorder::to_memory();
        assert!(rec.enabled());
        rec.run_start("batch", "demo", 6, 0.5, 0.5);
        rec.span("index_build", None, &[("entries", 20)]);
        rec.span(
            "verify_candidates",
            Some(1),
            &[("pairs", 7), ("lookups", 42)],
        );
        rec.merge(1, 0, 5, 0.574, 4);
        rec.schema_decided(1, "S1.name", "S2.name", 0.57);
        rec.round_end(1, 1, 18, 2);
        rec.timing("verify_candidates", Some(1), Duration::from_micros(1234));
        rec.run_end(&[("iterations", 1), ("merges", 1)]);
        let text = buf.contents();
        let summary = validate(&text).unwrap();
        assert_eq!(summary.lines, 8);
        assert_eq!(summary.count("span"), 2);
        assert_eq!(summary.count("merge"), 1);
        assert_eq!(summary.count("timing"), 1);
        assert!(text.contains("\"ev\":\"run_start\""));
        assert!(text.contains("\"winner\":0"));
        assert!(text.contains("\"wall_us\":1234"));
    }

    #[test]
    fn deterministic_mode_drops_diagnostics_at_source() {
        let (rec, buf) = Recorder::to_memory();
        let rec = rec.deterministic();
        rec.span("verify", Some(1), &[("pairs", 3)]);
        rec.timing("verify", Some(1), Duration::from_millis(5));
        rec.emit_diag("diag", vec![("threads", Json::Int(4))]);
        let text = buf.contents();
        let summary = validate(&text).unwrap();
        assert_eq!(summary.lines, 1);
        assert_eq!(summary.count("timing"), 0);
        assert_eq!(summary.count("diag"), 0);
    }

    #[test]
    fn deterministic_view_strips_exactly_diagnostics() {
        let (rec, buf) = Recorder::to_memory();
        rec.span("verify", Some(1), &[("pairs", 3)]);
        rec.timing("verify", Some(1), Duration::from_millis(5));
        rec.emit_diag("diag", vec![("threads", Json::Int(4))]);
        rec.merge(1, 0, 2, 0.9, 1);
        let full = buf.contents();
        let core = deterministic_view(&full);
        assert_eq!(validate(&core).unwrap().lines, 2);
        assert!(!core.contains("\"ev\":\"timing\""));
        assert!(!core.contains("\"ev\":\"diag\""));
        assert!(core.contains("\"ev\":\"merge\""));
        // A second pass is a fixpoint.
        assert_eq!(deterministic_view(&core), core);
    }

    #[test]
    fn rounds_monotonic_accepts_resumed_numbering() {
        let (rec, buf) = Recorder::to_memory();
        rec.run_start("session", "d", 4, 0.5, 0.5);
        rec.span("resolve_verify", Some(1), &[("pairs", 2)]);
        rec.round_end(1, 1, 10, 0);
        rec.span("progressive", Some(1), &[("exhausted", 1)]);
        // Resumed lineage: the restored session continues at round 2.
        rec.span("resolve_verify", Some(2), &[("pairs", 1)]);
        rec.round_end(2, 0, 10, 0);
        let checked = check_rounds_monotonic(&buf.contents()).unwrap();
        assert_eq!(checked, 5);
    }

    #[test]
    fn rounds_monotonic_rejects_rewound_numbering() {
        let (rec, buf) = Recorder::to_memory();
        rec.round_end(3, 0, 10, 0);
        rec.round_end(1, 0, 10, 0); // restart-from-1 bug
        let err = check_rounds_monotonic(&buf.contents()).unwrap_err();
        assert!(err.contains("round 1 after round 3"), "{err}");
    }

    #[test]
    fn rounds_monotonic_skips_roundless_lines() {
        let (rec, buf) = Recorder::to_memory();
        rec.run_start("batch", "d", 2, 0.5, 0.5);
        rec.run_end(&[("merges", 0)]);
        assert_eq!(check_rounds_monotonic(&buf.contents()).unwrap(), 0);
    }

    #[test]
    fn null_sink_encodes_and_discards() {
        let rec = Recorder::to_null();
        assert!(rec.enabled());
        rec.span("verify", Some(1), &[("pairs", 3)]);
        rec.flush();
    }

    #[test]
    fn clones_share_one_sink() {
        let (rec, buf) = Recorder::to_memory();
        let other = rec.clone();
        rec.span("a", None, &[]);
        other.span("b", None, &[]);
        assert_eq!(validate(&buf.contents()).unwrap().lines, 2);
    }

    #[test]
    fn file_sink_writes_and_flushes() {
        let path = std::env::temp_dir().join("hera_obs_test_journal.jsonl");
        let path = path.to_str().unwrap();
        let rec = Recorder::to_file(path).unwrap();
        rec.run_start("batch", "d", 1, 0.5, 0.5);
        rec.flush();
        let text = std::fs::read_to_string(path).unwrap();
        assert_eq!(validate(&text).unwrap().lines, 1);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn validate_rejects_garbage() {
        assert!(validate("not json\n").is_err());
        assert!(validate("{\"no_ev\":1}\n").is_err());
        assert!(validate("{\"ev\":7}\n").is_err());
        assert_eq!(validate("").unwrap().lines, 0);
    }

    // -- sink degradation ----------------------------------------------

    use hera_faults::{FaultKind, FaultPlan, FaultRule};

    fn sink_fault_on(hits: Vec<u64>) -> FaultInjector {
        FaultInjector::new(&FaultPlan {
            seed: 0,
            rules: vec![FaultRule {
                point: points::OBS_SINK_WRITE.into(),
                hits,
                kind: FaultKind::Error,
            }],
        })
    }

    #[test]
    fn sink_fault_degrades_with_exactly_one_notice() {
        let (rec, buf) = Recorder::to_memory();
        let rec = rec.with_faults(sink_fault_on(vec![3]));
        assert!(!rec.degraded());
        rec.span("a", None, &[]);
        rec.span("b", None, &[]);
        rec.merge(1, 0, 5, 0.7, 4); // third write: fault fires here
        rec.span("c", None, &[]); // dropped
        rec.run_end(&[("merges", 1)]); // dropped
        assert!(rec.degraded());
        let text = buf.contents();
        let summary = validate(&text).expect("degraded journal still parses");
        assert_eq!(summary.count("span"), 2, "lines before the fault survive");
        assert_eq!(summary.count("merge"), 0, "the faulted line is lost");
        assert_eq!(summary.count("sink_degraded"), 1, "exactly one notice");
        assert_eq!(summary.lines, 3);
        assert!(text.contains("\"dropped_event\":\"merge\""));
        assert!(text.contains("\"reason\":\"injected fault\""));
    }

    #[test]
    fn degraded_recorder_stays_silent_and_panic_free() {
        let (rec, buf) = Recorder::to_memory();
        let rec = rec.with_faults(sink_fault_on(vec![1]));
        rec.span("a", None, &[]);
        assert!(rec.degraded());
        for i in 0..50 {
            rec.merge(1, 0, i, 0.5, 1);
            rec.timing("x", None, Duration::from_micros(1));
        }
        rec.flush();
        let summary = validate(&buf.contents()).unwrap();
        assert_eq!(summary.lines, 1, "only the sink_degraded notice");
        assert_eq!(summary.count("sink_degraded"), 1);
    }

    #[test]
    fn empty_plan_injector_changes_nothing() {
        let (rec, buf) = Recorder::to_memory();
        let inj = FaultInjector::new(&FaultPlan::none());
        let rec = rec.with_faults(inj.clone());
        rec.span("a", None, &[]);
        rec.span("b", None, &[]);
        assert!(!rec.degraded());
        assert_eq!(validate(&buf.contents()).unwrap().lines, 2);
        assert_eq!(
            inj.hits(points::OBS_SINK_WRITE),
            2,
            "sink edge is instrumented"
        );
    }

    #[test]
    fn clones_degrade_together() {
        let (rec, buf) = Recorder::to_memory();
        let rec = rec.with_faults(sink_fault_on(vec![2]));
        let clone = rec.clone();
        rec.span("a", None, &[]);
        clone.span("b", None, &[]); // fault fires on the clone
        assert!(rec.degraded() && clone.degraded());
        rec.span("c", None, &[]);
        assert_eq!(validate(&buf.contents()).unwrap().count("span"), 1);
    }
}
