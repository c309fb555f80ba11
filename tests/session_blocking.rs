//! Streaming-session blocking integration tests (ROADMAP item 2, the
//! streaming half): with a blocking scheme configured, `add_record`
//! joins each arriving record only against its co-blocked candidates;
//! with `BlockingScheme::None` the ingest path is bit-identical to the
//! historical unfiltered one. Blocker state checkpoints and restores
//! with the session, and a snapshot refuses to restore under a
//! different scheme.

use hera::core::HeraSession;
use hera::{
    BlockingScheme, HeraConfig, HeraError, JournalBuffer, PairMetrics, Recorder, SchemaId, Snapshot,
};
use hera_datagen::{CorruptionConfig, DatagenConfig, Generator};
use proptest::prelude::*;

const DELTA: f64 = 0.5;
const XI: f64 = 0.5;

fn dataset(seed: u64, n_records: usize) -> hera::Dataset {
    Generator::new(DatagenConfig {
        name: format!("session-blocking-{seed}"),
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
    .generate()
}

/// Ingests the whole dataset, resolving every `batch` records, under a
/// deterministic journal.
fn run_stream(cfg: HeraConfig, ds: &hera::Dataset, batch: usize) -> (HeraSession, JournalBuffer) {
    let (rec, buf) = Recorder::to_memory();
    let mut session = HeraSession::builder(cfg)
        .recorder(rec.deterministic())
        .build();
    let schemas = session.mirror_schemas(&ds.registry);
    for (i, r) in ds.iter().enumerate() {
        session
            .add_record(schemas[r.schema.index()], r.values.clone())
            .unwrap();
        if (i + 1) % batch == 0 {
            session.resolve();
        }
    }
    session.resolve();
    (session, buf)
}

fn partition(session: &mut HeraSession) -> Vec<Vec<u32>> {
    session.clusters()
}

/// `--blocking none` is the unfiltered path, bit for bit: same entity
/// partition, same comparison counts, byte-identical core journal as a
/// default-config session — so enabling the blocking plumbing costs the
/// no-blocking configuration nothing, not even a journal diff.
#[test]
fn none_scheme_streaming_is_bit_identical() {
    let ds = dataset(41, 240);
    let (mut base, base_buf) = run_stream(HeraConfig::new(DELTA, XI), &ds, 40);
    let (mut none, none_buf) = run_stream(
        HeraConfig::new(DELTA, XI).with_blocking(BlockingScheme::None),
        &ds,
        40,
    );
    assert_eq!(partition(&mut base), partition(&mut none));
    assert_eq!(base.stats().comparisons, none.stats().comparisons);
    assert_eq!(base.stats().merges, none.stats().merges);
    assert_eq!(
        base_buf.contents(),
        none_buf.contents(),
        "journals must be byte-identical"
    );
}

/// A blocked streaming ingest does strictly less comparison work than
/// the unfiltered one and still lands within a few F1 points of it —
/// the streaming analogue of the batch pair-completeness floor.
#[test]
fn token_blocking_cuts_comparisons_and_holds_quality() {
    let ds = dataset(42, 360);
    let (full, _) = run_stream(HeraConfig::new(DELTA, XI), &ds, 60);
    let full_f1 = {
        let mut s = full;
        PairMetrics::score(&s.clusters(), &ds.truth).f1()
    };
    for scheme in [BlockingScheme::token(), BlockingScheme::qgram()] {
        let name = scheme.name();
        let (mut blocked, _) =
            run_stream(HeraConfig::new(DELTA, XI).with_blocking(scheme), &ds, 60);
        let f1 = PairMetrics::score(&blocked.clusters(), &ds.truth).f1();
        assert!(
            f1 > full_f1 - 0.05,
            "{name}: blocked F1 {f1:.3} vs unfiltered {full_f1:.3}"
        );
        assert!(f1 > 0.85, "{name}: blocked F1 {f1:.3}");
    }
}

/// Blocking must produce identical results at every thread count — the
/// blocker runs on the ingest path, which is single-threaded, but the
/// filtered evidence feeds the multi-threaded resolve.
#[test]
fn blocked_streaming_is_deterministic_across_thread_counts() {
    let ds = dataset(43, 240);
    let cfg = HeraConfig::new(DELTA, XI).with_blocking(BlockingScheme::token());
    let (mut base, base_buf) = run_stream(cfg.clone().with_threads(1), &ds, 48);
    let base_part = partition(&mut base);
    for threads in [2, 8] {
        let (mut other, other_buf) = run_stream(cfg.clone().with_threads(threads), &ds, 48);
        assert_eq!(base_part, partition(&mut other), "{threads} threads");
        assert_eq!(
            base_buf.contents(),
            other_buf.contents(),
            "{threads} threads"
        );
    }
}

/// Checkpoint/restore carries the blocker: a session restored
/// mid-stream ingests the remainder bit-identically to the
/// uninterrupted run (same partition, same comparisons), which can only
/// hold if the restored blocker admits future records against exactly
/// the checkpointed blocks.
#[test]
fn blocker_state_survives_checkpoint_restore() {
    let ds = dataset(44, 240);
    let cfg = HeraConfig::new(DELTA, XI).with_blocking(BlockingScheme::token());
    let cut = 120;

    // Uninterrupted reference.
    let (mut whole, _) = run_stream(cfg.clone(), &ds, 48);

    // Interrupted twin: ingest the prefix, checkpoint, restore, finish.
    let dir = std::env::temp_dir().join(format!("hera-blocker-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("blocked.hera");
    {
        let mut first = HeraSession::builder(cfg.clone()).build();
        let schemas = first.mirror_schemas(&ds.registry);
        for (i, r) in ds.iter().enumerate().take(cut) {
            first
                .add_record(schemas[r.schema.index()], r.values.clone())
                .unwrap();
            if (i + 1) % 48 == 0 {
                first.resolve();
            }
        }
        first.checkpoint(&path).unwrap();
    }
    let mut resumed = HeraSession::builder(cfg.clone()).restore(&path).unwrap();
    let schemas: Vec<SchemaId> = ds
        .registry
        .schemas()
        .enumerate()
        .map(|(i, _)| SchemaId::new(i as u32))
        .collect();
    for (i, r) in ds.iter().enumerate().skip(cut) {
        resumed
            .add_record(schemas[r.schema.index()], r.values.clone())
            .unwrap();
        if (i + 1) % 48 == 0 {
            resumed.resolve();
        }
    }
    resumed.resolve();

    assert_eq!(partition(&mut whole), partition(&mut resumed));
    assert_eq!(whole.stats().comparisons, resumed.stats().comparisons);
    assert_eq!(whole.stats().merges, resumed.stats().merges);
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir(&dir).ok();
}

/// The candidate universe depends on the blocking scheme, so a snapshot
/// only restores under the scheme that produced it: every mismatch —
/// including blocking-on → blocking-off and the reverse — is a typed
/// `InvalidConfig`, never a silently different continuation.
#[test]
fn restore_rejects_blocking_scheme_mismatch() {
    let ds = dataset(45, 60);
    let dir = std::env::temp_dir().join(format!("hera-blocker-mismatch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    for (written, restored) in [
        (BlockingScheme::token(), BlockingScheme::None),
        (BlockingScheme::token(), BlockingScheme::qgram()),
        (BlockingScheme::None, BlockingScheme::token()),
    ] {
        let path = dir.join(format!("{}.hera", written.name()));
        let mut session =
            HeraSession::builder(HeraConfig::new(DELTA, XI).with_blocking(written)).build();
        let schemas = session.mirror_schemas(&ds.registry);
        for r in ds.iter().take(30) {
            session
                .add_record(schemas[r.schema.index()], r.values.clone())
                .unwrap();
        }
        session.resolve();
        session.checkpoint(&path).unwrap();

        let err = HeraSession::builder(HeraConfig::new(DELTA, XI).with_blocking(restored))
            .restore(&path)
            .err()
            .unwrap_or_else(|| {
                panic!(
                    "restore of a '{}' snapshot under '{}' must fail",
                    written.name(),
                    restored.name()
                )
            });
        assert!(
            matches!(err, HeraError::InvalidConfig(_)),
            "{} -> {}: {err}",
            written.name(),
            restored.name()
        );
        std::fs::remove_file(&path).ok();
    }
    std::fs::remove_dir(&dir).ok();
}

/// The frozen ledger's join door: a standalone `IncrementalJoin` fed
/// value by value through `insert_among`, each record against the
/// candidates `StreamingBlocker::admit` names, as the `benchmark/`
/// package's stream replay feeds it. Nothing merges before the first
/// `resolve`, so on a token-blocked scale stream the door must emit the
/// very pairs — labels and similarity bits — that the session's join pass
/// files in its index, as the session's snapshot records them.
#[test]
fn the_one_value_door_emits_what_the_join_pass_files() {
    use hera::block::StreamingBlocker;
    use hera::datagen::{scale_preset, ScaleGenerator};
    use hera::{IncrementalJoin, Label, TypeDispatch, ValuePair, ValuePairIndex};
    let ds = ScaleGenerator::new(scale_preset(600, 51)).generate();
    let config = HeraConfig::new(DELTA, 0.5).with_blocking(BlockingScheme::token());
    let bits = |pairs: &[ValuePair]| {
        let mut bits: Vec<(Label, Label, u64)> =
            pairs.iter().map(|p| (p.a, p.b, p.sim.to_bits())).collect();
        bits.sort_unstable();
        bits
    };

    let mut blocker = StreamingBlocker::new(&config.blocking).expect("token blocking streams");
    let metric = std::sync::Arc::new(TypeDispatch::paper_default());
    let mut join = IncrementalJoin::new(config.xi, 2, metric);
    let mut replayed = Vec::new();
    for (rid, r) in (0u32..).zip(&ds.records) {
        let mut allowed = blocker.admit(rid, &r.values);
        allowed.sort_unstable();
        allowed.dedup();
        for (fid, v) in (0u32..).zip(&r.values) {
            if !v.is_null() {
                replayed.extend(join.insert_among(Label::new(rid, fid, 0), v.clone(), &allowed));
            }
        }
    }

    let dir = std::env::temp_dir().join(format!("hera-one-value-door-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("joined.hera");
    let mut session = HeraSession::builder(config)
        .recorder(Recorder::disabled())
        .build();
    let schemas = session.mirror_schemas(&ds.registry);
    for r in ds.iter() {
        session
            .add_record(schemas[r.schema.index()], r.values.clone())
            .unwrap();
    }
    // The checkpoint runs the join pass first, and merges nothing.
    session.checkpoint(&path).unwrap();
    assert_eq!(session.merge_count(), 0);
    let snapshot = Snapshot::read(&path).unwrap();
    let index = ValuePairIndex::from_json(snapshot.get("index").unwrap(), ds.len()).unwrap();
    let filed: Vec<ValuePair> = index
        .record_pairs()
        .flat_map(|(i, j)| index.group(i, j).iter().copied())
        .collect();
    std::fs::remove_dir_all(&dir).ok();

    assert!(filed.len() > 1_000, "{} pairs filed", filed.len());
    assert_eq!(session.index_size(), filed.len());
    assert_eq!(bits(&replayed), bits(&filed));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The session keeps one table of live values, the super records,
    /// and the join is an index over it: for random datasets, blocking
    /// on and off, `add_record` and `resolve` interleaved at a random
    /// cadence, every round leaves the join's live `(label, value)` set
    /// equal to the super records' (`with_index_validation` panics on the
    /// first round that does not), the index holds each `(a, b)` label
    /// pair once, and the snapshot carries no second copy of the values.
    #[test]
    fn join_is_an_index_over_the_super_records(
        seed in 0u64..10_000,
        n_records in 30usize..90,
        blocked in any::<bool>(),
        every in 1usize..12,
    ) {
        let ds = dataset(seed, n_records);
        let mut cfg = HeraConfig::new(DELTA, XI).with_index_validation();
        if blocked {
            cfg = cfg.with_blocking(BlockingScheme::token());
        }
        let mut session = HeraSession::builder(cfg).build();
        let schemas = session.mirror_schemas(&ds.registry);
        let path = std::env::temp_dir().join(format!(
            "hera-session-blocking-{}-table-{seed}.hera",
            std::process::id()
        ));
        for (i, r) in ds.iter().enumerate() {
            session
                .add_record(schemas[r.schema.index()], r.values.clone())
                .unwrap();
            if (i + 1) % every != 0 && i + 1 != ds.len() {
                continue;
            }
            session.resolve();
            session.checkpoint(&path).unwrap();
            let snap = Snapshot::read(&path).unwrap();
            prop_assert!(snap.get("join").is_none());
            let label_pairs: std::collections::BTreeSet<String> = snap
                .expect("index")
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|p| {
                    let side = |k| p.expect(k).unwrap().to_string_compact();
                    format!("{}-{}", side("a"), side("b"))
                })
                .collect();
            prop_assert_eq!(label_pairs.len(), session.index_size());
        }
        std::fs::remove_file(&path).ok();
    }
}
