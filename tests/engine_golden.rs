//! Golden pins of the resolver's behaviour across commits.
//!
//! Every other equivalence test in this repo compares the system to
//! itself at one commit (thread counts, cache on/off, checkpointed vs.
//! straight). The fixtures under `tests/fixtures/` were instead written
//! by commit `db3baa8` — the parent of the change that moved the batch
//! driver and the streaming session onto one `Engine` — and this file
//! asserts the current code reproduces them: the journal's deterministic
//! view (by CRC-32), the partition, the merges in apply order, the
//! decided schema matchings with their confidence bits, and the
//! deterministic `RunStats` counters, at 1/2/8 threads with the
//! similarity cache on and off. `engine_golden_midstream.hera` is a
//! `#hera-snapshot v1` file the same commit wrote mid-stream, right
//! after a budget-exhausted call; the current code must restore it and
//! continue to the recorded end state.
//!
//! Regenerate only when behaviour changes on purpose:
//! `cargo test --test engine_golden -- --ignored regenerate_fixtures`.

use hera::core::{DecidedMatching, HeraSession, ProgressiveReport};
use hera::datagen::{presets, scale_preset, ScaleGenerator};
use hera::{
    BlockingScheme, Dataset, Generator, Hera, HeraConfig, Recorder, ResolveBudget, RunStats,
    SchemaId,
};
use std::fmt::Write as _;
use std::path::PathBuf;

const THREADS: [usize; 3] = [1, 2, 8];

const BATCH_FIXTURE: &str = include_str!("fixtures/engine_golden_batch.txt");
const STREAM_FIXTURE: &str = include_str!("fixtures/engine_golden_stream.txt");

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// 300 records on the `D_m4` profile (the ledger's `movies_allpairs`
/// input, smaller).
fn batch_dataset() -> Dataset {
    let mut cfg = presets::dm4();
    cfg.n_entities = 300 * cfg.n_entities / cfg.n_records;
    cfg.n_records = 300;
    Generator::new(cfg).generate()
}

fn batch_config(threads: usize, cache: bool) -> HeraConfig {
    let cfg = HeraConfig::new(0.5, 0.5).with_threads(threads);
    if cache {
        cfg
    } else {
        cfg.without_sim_cache()
    }
}

/// 500 records of the scale preset (the ledger's `scale_stream_blocked`
/// input, smaller), with more and more skewed duplicates so that clusters
/// of several records coalesce over many rounds.
fn stream_dataset() -> Dataset {
    let mut cfg = scale_preset(500, 7);
    cfg.duplicate_ratio = 0.6;
    cfg.duplicate_skew = 2.0;
    ScaleGenerator::new(cfg).generate()
}

fn stream_config(threads: usize, cache: bool) -> HeraConfig {
    batch_config(threads, cache).with_blocking(BlockingScheme::token())
}

/// The stream resolves after every 50th record. Two of those calls run
/// under a budget that exhausts — one per deterministic axis — and are
/// followed by an unlimited call that resumes.
const RESOLVE_EVERY: usize = 50;
const COMPARISON_CUT_AT: usize = 250;
const MERGE_CUT_AT: usize = 400;

fn budget_at(ingested: usize) -> Option<ResolveBudget> {
    match ingested {
        COMPARISON_CUT_AT => Some(ResolveBudget::comparisons(20)),
        MERGE_CUT_AT => Some(ResolveBudget::merges(5)),
        _ => None,
    }
}

/// Ingests `ds.records[from..]` at the fixed cadence, appending each
/// budgeted call's report to `reports`. `after_comparison_cut` runs
/// between the exhausted comparison-budget call and its resume — where
/// the snapshot fixture is taken.
fn drive_stream(
    session: &mut HeraSession,
    ds: &Dataset,
    from: usize,
    reports: &mut Vec<ProgressiveReport>,
    mut after_comparison_cut: impl FnMut(&mut HeraSession),
) {
    for (i, r) in ds.records.iter().enumerate().skip(from) {
        session
            .add_record(SchemaId::new(r.schema.raw()), r.values.clone())
            .unwrap();
        let ingested = i + 1;
        if ingested % RESOLVE_EVERY != 0 {
            continue;
        }
        if let Some(budget) = budget_at(ingested) {
            let report = session.resolve_progressive(budget);
            assert!(
                report.exhausted,
                "budget at {ingested} must cut: {report:?}"
            );
            reports.push(report);
            if ingested == COMPARISON_CUT_AT {
                after_comparison_cut(session);
            }
        }
        session.resolve();
    }
}

fn new_session(cfg: HeraConfig, ds: &Dataset) -> (HeraSession, hera::JournalBuffer) {
    let (rec, buf) = Recorder::to_memory();
    let mut session = HeraSession::builder(cfg)
        .recorder(rec.deterministic())
        .build();
    session.mirror_schemas(&ds.registry);
    (session, buf)
}

/// Everything a run is pinned on, rendered as the fixture text.
struct Outcome {
    journal: String,
    entity_of: Vec<u32>,
    matchings: Vec<DecidedMatching>,
    stats: RunStats,
    reports: Vec<ProgressiveReport>,
}

fn merge_lines(journal: &str) -> impl Iterator<Item = &str> {
    journal.lines().filter(|l| l.contains("\"ev\":\"merge\""))
}

impl Outcome {
    /// Lines prefixed `cache.` hold the counters that exist only with
    /// the similarity cache on; everything else is cache-invariant.
    fn render(&self) -> String {
        let view = hera::obs::deterministic_view(&self.journal);
        let s = &self.stats;
        let mut out = String::new();
        let w = &mut out;
        writeln!(
            w,
            "journal_crc32 {:08x}",
            hera::store::crc32(view.as_bytes())
        )
        .unwrap();
        writeln!(w, "journal_lines {}", view.lines().count()).unwrap();
        writeln!(w, "entity_of {:?}", self.entity_of).unwrap();
        for m in merge_lines(&view) {
            writeln!(w, "merge {m}").unwrap();
        }
        for d in &self.matchings {
            writeln!(
                w,
                "matching {} {} {} {:016x}",
                d.attr,
                d.partner_schema,
                d.partner,
                d.confidence.to_bits()
            )
            .unwrap();
        }
        for r in &self.reports {
            writeln!(w, "budgeted {r:?}").unwrap();
        }
        writeln!(
            w,
            "stats iterations={} index_size={} final_index_size={} pruned={} \
             direct_decisions={} comparisons={} merges={} matchings_run={} \
             schema_matchings_decided={} graph_nodes_sum={} simplified_nodes_sum={} \
             sim_lookups={}",
            s.iterations,
            s.index_size,
            s.final_index_size,
            s.pruned,
            s.direct_decisions,
            s.comparisons,
            s.merges,
            s.matchings_run,
            s.schema_matchings_decided,
            s.graph_nodes_sum,
            s.simplified_nodes_sum,
            s.sim_lookups(),
        )
        .unwrap();
        writeln!(
            w,
            "cache.stats hits={} misses={} metric_sim_calls={} size={} invalidated={}",
            s.sim_cache_hits,
            s.sim_cache_misses,
            s.metric_sim_calls,
            s.sim_cache_size,
            s.sim_cache_invalidated,
        )
        .unwrap();
        writeln!(
            w,
            "cache.metric_calls_by_round {:?}",
            s.metric_calls_by_round
        )
        .unwrap();
        out
    }
}

fn without_cache_lines(text: &str) -> String {
    text.lines()
        .filter(|l| !l.starts_with("cache."))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Compares a rendering against its fixture, naming the first line that
/// differs instead of dumping two multi-kilobyte strings.
fn assert_matches_fixture(got: &str, fixture: &str, cache: bool, what: &str) {
    let (got, want) = if cache {
        (got.to_owned(), fixture.to_owned())
    } else {
        (without_cache_lines(got), without_cache_lines(fixture))
    };
    if got == want {
        return;
    }
    let line = got
        .lines()
        .zip(want.lines())
        .position(|(g, w)| g != w)
        .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
    panic!(
        "{what}: differs from the fixture at line {}\n  got:  {}\n  want: {}",
        line + 1,
        got.lines().nth(line).unwrap_or("<end>"),
        want.lines().nth(line).unwrap_or("<end>"),
    );
}

fn run_batch(threads: usize, cache: bool) -> Outcome {
    let ds = batch_dataset();
    let (rec, buf) = Recorder::to_memory();
    let result = Hera::builder(batch_config(threads, cache))
        .recorder(rec.deterministic())
        .build()
        .run(&ds)
        .unwrap();
    Outcome {
        journal: buf.contents(),
        entity_of: result.entity_of,
        matchings: result.schema_matchings,
        stats: result.stats,
        reports: Vec::new(),
    }
}

fn session_outcome(
    session: &HeraSession,
    ds: &Dataset,
    journal: String,
    reports: Vec<ProgressiveReport>,
) -> Outcome {
    Outcome {
        journal,
        entity_of: ds.iter().map(|r| session.entity_of(r.id)).collect(),
        matchings: session.schema_matchings(),
        stats: session.stats().clone(),
        reports,
    }
}

fn run_stream(
    threads: usize,
    cache: bool,
    after_comparison_cut: impl FnMut(&mut HeraSession),
) -> Outcome {
    let ds = stream_dataset();
    let (mut session, buf) = new_session(stream_config(threads, cache), &ds);
    let mut reports = Vec::new();
    drive_stream(&mut session, &ds, 0, &mut reports, after_comparison_cut);
    session_outcome(&session, &ds, buf.contents(), reports)
}

#[test]
fn batch_matches_the_parent_commit() {
    for threads in THREADS {
        for cache in [true, false] {
            let got = run_batch(threads, cache).render();
            let what = format!("batch, {threads} threads, cache {cache}");
            assert_matches_fixture(&got, BATCH_FIXTURE, cache, &what);
        }
    }
}

#[test]
fn stream_matches_the_parent_commit() {
    for threads in THREADS {
        for cache in [true, false] {
            let got = run_stream(threads, cache, |_| {}).render();
            let what = format!("stream, {threads} threads, cache {cache}");
            assert_matches_fixture(&got, STREAM_FIXTURE, cache, &what);
        }
    }
}

/// Fixture lines with the given prefix, in order.
fn fixture_lines<'a>(fixture: &'a str, prefix: &str) -> Vec<&'a str> {
    fixture.lines().filter(|l| l.starts_with(prefix)).collect()
}

#[test]
fn parent_written_snapshot_restores_and_continues() {
    let ds = stream_dataset();
    let snapshot = fixture_path("engine_golden_midstream.hera");
    for threads in THREADS {
        for cache in [true, false] {
            let what = format!("restore, {threads} threads, cache {cache}");
            let (rec, buf) = Recorder::to_memory();
            let mut session = HeraSession::builder(stream_config(threads, cache))
                .recorder(rec.deterministic())
                .restore(&snapshot)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(session.len(), COMPARISON_CUT_AT, "{what}");
            // The snapshot sits between the exhausted call and its
            // resume: finish that resume, then carry on with the stream.
            session.resolve();
            let mut reports = Vec::new();
            drive_stream(&mut session, &ds, COMPARISON_CUT_AT, &mut reports, |_| {});
            let got = session_outcome(&session, &ds, buf.contents(), reports).render();

            // The partition, the matchings and the lifetime counters
            // must land where the uninterrupted parent run did. The
            // cache counters are left out: the snapshot was written with
            // the cache on, so a cache-off restore has a mixed history.
            for prefix in ["entity_of", "matching", "stats"] {
                assert_eq!(
                    fixture_lines(&got, prefix),
                    fixture_lines(STREAM_FIXTURE, prefix),
                    "{what}: {prefix}"
                );
            }
            // The merges after the restore are the tail of the recorded
            // apply order, and the later budgeted call cuts where it did.
            let (got_merges, all) = (
                fixture_lines(&got, "merge"),
                fixture_lines(STREAM_FIXTURE, "merge"),
            );
            assert!(!got_merges.is_empty() && got_merges.len() < all.len());
            assert_eq!(got_merges, all[all.len() - got_merges.len()..], "{what}");
            assert_eq!(
                fixture_lines(&got, "budgeted"),
                fixture_lines(STREAM_FIXTURE, "budgeted")[1..],
                "{what}"
            );
        }
    }
}

/// Rewrites the three fixtures from the code as it stands.
#[test]
#[ignore = "overwrites tests/fixtures; run only when behaviour changes on purpose"]
fn regenerate_fixtures() {
    let write = |name: &str, text: String| std::fs::write(fixture_path(name), text).unwrap();
    write("engine_golden_batch.txt", run_batch(1, true).render());
    // The snapshot comes from a run of its own: `checkpoint` journals a
    // `checkpoint_save` span the pinned straight run must not carry.
    run_stream(1, true, |session| {
        session
            .checkpoint(fixture_path("engine_golden_midstream.hera"))
            .unwrap();
    });
    write(
        "engine_golden_stream.txt",
        run_stream(1, true, |_| {}).render(),
    );
}
