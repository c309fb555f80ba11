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
                .with_blocking(blocking.clone());
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

#[test]
fn thread_count_does_not_change_results_with_cache() {
    // The memo cache is read-only during the parallel snapshot phase and
    // populated in the sequential apply phase, so every thread count must
    // see the same hit/miss history — and produce the same entities.
    let ds = dataset();
    let base = Hera::builder(HeraConfig::new(0.5, 0.5).with_threads(1))
        .build()
        .run(&ds)
        .unwrap();
    assert!(
        base.stats.sim_cache_hits > 0,
        "workload must exercise the cache for this test to mean anything"
    );
    for threads in [2, 4, 8] {
        let r = Hera::builder(HeraConfig::new(0.5, 0.5).with_threads(threads))
            .build()
            .run(&ds)
            .unwrap();
        assert_eq!(base.entity_of, r.entity_of, "{threads} threads");
        assert_eq!(base.stats.merges, r.stats.merges, "{threads} threads");
        assert_eq!(base.stats.sim_cache_hits, r.stats.sim_cache_hits);
        assert_eq!(base.stats.sim_cache_misses, r.stats.sim_cache_misses);
        assert_eq!(base.stats.sim_cache_size, r.stats.sim_cache_size);
        assert_eq!(
            base.stats.sim_cache_invalidated,
            r.stats.sim_cache_invalidated
        );
        assert_eq!(base.stats.metric_sim_calls, r.stats.metric_sim_calls);
        assert_eq!(
            base.stats.metric_calls_by_round,
            r.stats.metric_calls_by_round
        );
    }
}

#[test]
fn cache_on_and_off_are_bit_identical() {
    // Cached values are exact metric outputs, so disabling the cache may
    // only change speed, never results.
    let ds = dataset();
    for threads in [1, 4] {
        let on = Hera::builder(HeraConfig::new(0.5, 0.5).with_threads(threads))
            .build()
            .run(&ds)
            .unwrap();
        let off = Hera::builder(
            HeraConfig::new(0.5, 0.5)
                .with_threads(threads)
                .without_sim_cache(),
        )
        .build()
        .run(&ds)
        .unwrap();
        assert_eq!(on.entity_of, off.entity_of, "{threads} threads");
        assert_eq!(on.stats.merges, off.stats.merges);
        assert_eq!(on.stats.comparisons, off.stats.comparisons);
        assert_eq!(on.stats.iterations, off.stats.iterations);
        assert_eq!(on.schema_matchings.len(), off.schema_matchings.len());
        // The cache must actually save metric work on this multi-round
        // workload.
        assert!(on.stats.metric_sim_calls < off.stats.metric_sim_calls);
        assert_eq!(off.stats.sim_cache_hits, 0);
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
fn trace_journal_is_byte_identical_across_threads_and_cache() {
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
    for threads in [1, 4] {
        let (j, _) = core_journal(
            HeraConfig::new(0.5, 0.5)
                .with_threads(threads)
                .without_sim_cache(),
            &ds,
        );
        assert_eq!(
            base, j,
            "journal differs with the cache off at {threads} threads"
        );
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
