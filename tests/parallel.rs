//! Determinism of the parallel pipeline: every `num_threads` setting must
//! produce bit-identical results — same joins, same entities, same
//! counters — because parallelism only reschedules read-only snapshot
//! verifications, never reorders decisions.

use hera::{BlockingScheme, Hera, HeraConfig, Recorder, ValuePairIndex};
use hera_datagen::{scale_preset, CorruptionConfig, DatagenConfig, Generator, ScaleGenerator};

/// Seeded dataset big enough to exercise the parallel paths (every stage
/// fans out above 32 items: records, the join's distinct values, root pairs).
fn dataset() -> hera::Dataset {
    Generator::new(DatagenConfig {
        name: "parallel-test".into(),
        seed: 4242,
        n_records: 400,
        n_entities: 60,
        n_attrs: 12,
        n_sources: 4,
        min_source_attrs: 6,
        max_source_attrs: 10,
        corruption: CorruptionConfig::moderate(),
        domain: Default::default(),
    })
    .generate()
}

#[test]
fn thread_count_does_not_change_results() {
    let ds = dataset();
    let base = Hera::builder(HeraConfig::new(0.5, 0.5).with_threads(1))
        .build()
        .run(&ds)
        .unwrap();
    for threads in [2, 4] {
        let r = Hera::builder(HeraConfig::new(0.5, 0.5).with_threads(threads))
            .build()
            .run(&ds)
            .unwrap();
        assert_eq!(base.entity_of, r.entity_of, "{threads} threads");
        assert_eq!(base.stats.merges, r.stats.merges, "{threads} threads");
        assert_eq!(base.stats.comparisons, r.stats.comparisons);
        assert_eq!(base.stats.iterations, r.stats.iterations);
        assert_eq!(base.stats.pruned, r.stats.pruned);
        assert_eq!(
            base.schema_matchings.len(),
            r.schema_matchings.len(),
            "{threads} threads"
        );
    }
}

#[test]
fn thread_count_does_not_change_metric_calls() {
    // Metric calls are counted per verification and folded in input order,
    // so every thread count must report the same calls in the same rounds —
    // and produce the same entities.
    let ds = dataset();
    let base = Hera::builder(HeraConfig::new(0.5, 0.5).with_threads(1))
        .build()
        .run(&ds)
        .unwrap();
    assert!(
        base.stats.metric_sim_calls > 0,
        "workload must reach the forced-pair metric path for this test to mean anything"
    );
    for threads in [2, 4, 8] {
        let r = Hera::builder(HeraConfig::new(0.5, 0.5).with_threads(threads))
            .build()
            .run(&ds)
            .unwrap();
        assert_eq!(base.entity_of, r.entity_of, "{threads} threads");
        assert_eq!(base.stats.merges, r.stats.merges, "{threads} threads");
        assert_eq!(base.stats.metric_sim_calls, r.stats.metric_sim_calls);
        assert_eq!(
            base.stats.metric_calls_by_round,
            r.stats.metric_calls_by_round
        );
    }
}

#[test]
fn auto_threads_match_explicit_single_thread() {
    let ds = dataset();
    let auto = Hera::builder(HeraConfig::new(0.5, 0.5))
        .build()
        .run(&ds)
        .unwrap(); // 0 = auto
    let one = Hera::builder(HeraConfig::new(0.5, 0.5).with_threads(1))
        .build()
        .run(&ds)
        .unwrap();
    assert_eq!(auto.entity_of, one.entity_of);
    assert_eq!(auto.stats.merges, one.stats.merges);
    assert!(auto.stats.threads >= 1);
}

#[test]
fn parallel_join_is_bit_identical() {
    let ds = dataset();
    // The ledger's `scale_allpairs` input: thousands of distinct values, so
    // the join's probe is cut into blocks at every thread count above one.
    let scale = ScaleGenerator::new(scale_preset(2_000, 51)).generate();
    // The all-pairs join, then block → blocked join: the pairs with their
    // similarities bit for bit, and the `blocking` and `join` spans.
    for (ds, xi, blocking) in [
        (&ds, 0.5, BlockingScheme::None),
        (&ds, 0.5, BlockingScheme::token()),
        (&scale, 0.7, BlockingScheme::None),
    ] {
        let join = |threads: usize| {
            let (rec, buf) = Recorder::to_memory();
            let cfg = HeraConfig::new(0.5, xi)
                .with_threads(threads)
                .with_blocking(blocking);
            let hera = Hera::builder(cfg).recorder(rec.deterministic()).build();
            (hera.join(ds), buf.contents())
        };
        let (seq, seq_journal) = join(1);
        assert!(seq.len() > 1_000, "{}: too few pairs", blocking.name());
        assert!(seq_journal.contains("\"join\""));
        assert_eq!(
            seq_journal.contains("\"blocking\""),
            blocking != BlockingScheme::None
        );
        for threads in [2, 4, 8] {
            let (par, par_journal) = join(threads);
            assert_eq!(seq.len(), par.len(), "{threads} threads");
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.a, b.a);
                assert_eq!(a.b, b.b);
                assert_eq!(a.sim.to_bits(), b.sim.to_bits(), "{threads} threads");
            }
            assert_eq!(seq_journal, par_journal, "{threads} threads");
        }
    }
}

/// Runs the full pipeline with a deterministic (core-events-only) memory
/// journal attached and returns the journal text.
fn core_journal(cfg: HeraConfig, ds: &hera::Dataset) -> (String, hera::RunStats) {
    let (rec, buf) = Recorder::to_memory();
    let result = Hera::builder(cfg)
        .recorder(rec.deterministic())
        .build()
        .run(ds)
        .unwrap();
    (buf.contents(), result.stats)
}

#[test]
fn trace_journal_is_byte_identical_across_threads() {
    let ds = dataset();
    let (base, base_stats) = core_journal(HeraConfig::new(0.5, 0.5).with_threads(1), &ds);
    assert!(!base.is_empty());

    // Every line parses; merge lines match the stats counter; the core
    // event kinds all appear on this multi-round workload.
    let summary = hera::obs::validate(&base).unwrap();
    assert_eq!(summary.count("merge"), base_stats.merges);
    assert_eq!(summary.count("run_start"), 1);
    assert_eq!(summary.count("run_end"), 1);
    assert_eq!(summary.count("round_end"), base_stats.iterations);
    assert!(summary.count("span") > 0);
    assert_eq!(summary.count("timing"), 0, "deterministic mode: no timings");
    assert_eq!(summary.count("diag"), 0);

    for threads in [2, 4, 8] {
        let (j, _) = core_journal(HeraConfig::new(0.5, 0.5).with_threads(threads), &ds);
        assert_eq!(base, j, "journal differs at {threads} threads");
    }
}

#[test]
fn full_journal_deterministic_view_matches_core_journal() {
    // A full journal (timings and diagnostics on) stripped through
    // deterministic_view() equals the journal recorded in deterministic
    // mode: diagnostics are *additive*, never interleaved into core data.
    let ds = dataset();
    let (core, _) = core_journal(HeraConfig::new(0.5, 0.5).with_threads(2), &ds);
    let (rec, buf) = Recorder::to_memory();
    let _ = Hera::builder(HeraConfig::new(0.5, 0.5).with_threads(2))
        .recorder(rec)
        .build()
        .run(&ds)
        .unwrap();
    let full = buf.contents();
    let full_summary = hera::obs::validate(&full).unwrap();
    assert!(
        full_summary.count("timing") > 0,
        "full mode records timings"
    );
    assert!(full_summary.count("diag") > 0);
    assert_eq!(hera::obs::deterministic_view(&full), core);
}

#[test]
fn parallel_built_index_passes_invariants() {
    let ds = dataset();
    let pairs = Hera::builder(HeraConfig::new(0.5, 0.5).with_threads(4))
        .build()
        .join(&ds);
    let index = ValuePairIndex::build(pairs);
    index.check_invariants().unwrap();
    // And the invariants survive a whole multi-threaded run.
    let cfg = HeraConfig::new(0.5, 0.5)
        .with_threads(4)
        .with_index_validation();
    let r = Hera::builder(cfg).build().run(&ds).unwrap();
    assert!(r.stats.merges > 0);
}

// ---- The session's join pass ------------------------------------------
//
// `add_record` only lifts and queues a record; one join pass joins the
// queued records, scanning them on `num_threads` workers. Whatever the
// thread count and however many records wait, every observable must be
// what joining each record on arrival gives — `extend` with one record,
// the eager schedule.

/// What a session shows at one point of a stream: the entities, the
/// index size, the frontier, and the checkpoint, section by section, with
/// the stats' wall-clock timers and thread count zeroed.
fn observe(session: &mut hera::HeraSession, path: &std::path::Path, first: u32) -> Vec<String> {
    let mut seen = Vec::new();
    // The pass runs in whichever call comes first.
    let frontier = |s: &mut hera::HeraSession| format!("frontier {}", s.frontier_len());
    if first % 2 == 1 {
        seen.push(frontier(session));
    }
    session.checkpoint(path).unwrap();
    let snap = hera::Snapshot::read(path).unwrap();
    for name in snap.names() {
        let section = snap.get(name).unwrap();
        let bytes = if name == "stats" {
            let mut s = hera::RunStats::from_json(section).unwrap();
            s.index_build_time = Default::default();
            s.resolve_time = Default::default();
            s.verify_time = Default::default();
            s.candidate_time = Default::default();
            s.ingest_time = Default::default();
            s.admit_time = Default::default();
            s.join_insert_time = Default::default();
            s.absorb_time = Default::default();
            s.merge_time = Default::default();
            s.threads = 0;
            s.to_json().to_string_compact()
        } else {
            section.to_string_compact()
        };
        seen.push(format!("{name} {bytes}"));
    }
    if first.is_multiple_of(2) {
        seen.push(frontier(session));
    }
    seen.push(format!("index {}", session.index_size()));
    seen.push(format!("labels {:?}", session.grouping()));
    seen
}

/// Streams `ds` through a session at `threads`, resolving after every
/// `k`-th record and after the last. Every other resolve point, the
/// first included, is observed while records are still queued, and every
/// point after its resolve. `eager` ingests through `extend` one record
/// at a time.
fn stream_observations(
    ds: &hera::Dataset,
    config: HeraConfig,
    k: usize,
    eager: bool,
    tag: &str,
) -> Vec<String> {
    let path = std::env::temp_dir().join(format!(
        "hera-parallel-join-pass-{}-{tag}.hera",
        std::process::id()
    ));
    let mut session = hera::HeraSession::builder(config)
        .recorder(Recorder::disabled())
        .build();
    let schemas = session.mirror_schemas(&ds.registry);
    let mut seen = Vec::new();
    for (i, rec) in ds.iter().enumerate() {
        let record = (schemas[rec.schema.index()], rec.values.clone());
        if eager {
            session.extend([record]).unwrap();
        } else {
            session.add_record(record.0, record.1).unwrap();
        }
        if (i + 1) % k != 0 && i + 1 != ds.len() {
            continue;
        }
        let point = (i / k) as u32;
        if point.is_multiple_of(2) {
            seen.extend(observe(&mut session, &path, point / 2));
        }
        session.resolve();
        seen.extend(observe(&mut session, &path, point));
    }
    std::fs::remove_file(&path).ok();
    seen
}

fn small_dataset(seed: u64, n_records: usize) -> hera::Dataset {
    Generator::new(DatagenConfig {
        name: "parallel-join-pass".into(),
        seed,
        n_records,
        n_entities: n_records / 4 + 1,
        n_attrs: 10,
        n_sources: 3,
        min_source_attrs: 5,
        max_source_attrs: 8,
        corruption: CorruptionConfig::moderate(),
        domain: Default::default(),
    })
    .generate()
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

    /// Random datasets, blocked and unblocked, resolved every `k` records:
    /// at 1, 2, 4 and 8 threads the deferred join pass shows the labels,
    /// index size, frontier and checkpoint sections of the eager schedule,
    /// with records queued and after each resolve.
    #[test]
    fn join_pass_matches_the_eager_schedule_at_every_thread_count(
        seed in 0u64..10_000,
        n_records in 30usize..90,
        k in proptest::prop_oneof![proptest::strategy::Just(1usize), 2usize..80],
        blocked in proptest::prelude::any::<bool>(),
    ) {
        let ds = small_dataset(seed, n_records);
        let config = |threads| {
            let c = HeraConfig::new(0.5, 0.5).with_threads(threads);
            if blocked { c.with_blocking(BlockingScheme::token()) } else { c }
        };
        let eager = stream_observations(&ds, config(1), k, true, &format!("{seed}-eager"));
        proptest::prop_assert!(eager.iter().any(|l| l.starts_with("index ") && l != "index 0"));
        for threads in [1, 2, 4, 8] {
            let deferred =
                stream_observations(&ds, config(threads), k, false, &format!("{seed}-{threads}"));
            proptest::prop_assert_eq!(&deferred, &eager, "{} threads", threads);
        }
    }
}

/// More records queued than one step of the pass takes: 2 500 scale
/// records under token blocking and one resolve, at 1 and 2 threads,
/// against the eager schedule.
#[test]
fn join_pass_over_several_chunks_matches_the_eager_schedule() {
    let ds = ScaleGenerator::new(scale_preset(2500, 61)).generate();
    let config = |threads| {
        HeraConfig::new(0.5, 0.7)
            .with_threads(threads)
            .with_blocking(BlockingScheme::token())
    };
    let eager = stream_observations(&ds, config(1), ds.len(), true, "chunks-eager");
    for threads in [1, 2] {
        let deferred = stream_observations(
            &ds,
            config(threads),
            ds.len(),
            false,
            &format!("chunks-{threads}"),
        );
        assert_eq!(deferred, eager, "{threads} threads");
    }
}
