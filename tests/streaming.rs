//! Streaming-ER integration tests: [`hera::core::HeraSession`] against
//! the batch driver, on generated heterogeneous data.

use hera::core::HeraSession;
use hera::{Hera, HeraConfig, PairMetrics};
use hera_datagen::{CorruptionConfig, DatagenConfig, Generator};

fn dataset() -> hera::Dataset {
    Generator::new(DatagenConfig {
        name: "stream-test".into(),
        seed: 17,
        n_records: 200,
        n_entities: 30,
        n_attrs: 12,
        n_sources: 3,
        min_source_attrs: 7,
        max_source_attrs: 10,
        corruption: CorruptionConfig::moderate(),
        domain: Default::default(),
    })
    .generate()
}

/// Bulk-ingest + single resolve reaches batch-grade quality.
#[test]
fn bulk_ingest_quality_matches_batch() {
    let ds = dataset();
    let batch = Hera::builder(HeraConfig::new(0.5, 0.5))
        .build()
        .run(&ds)
        .unwrap();
    let batch_f1 = PairMetrics::score(&batch.clusters(), &ds.truth).f1();

    let mut session = HeraSession::builder(HeraConfig::new(0.5, 0.5)).build();
    let schemas = session.mirror_schemas(&ds.registry);
    for rec in ds.iter() {
        session
            .add_record(schemas[rec.schema.index()], rec.values.clone())
            .unwrap();
    }
    session.resolve();
    let stream_f1 = PairMetrics::score(&session.clusters(), &ds.truth).f1();
    assert!(
        (stream_f1 - batch_f1).abs() < 0.03,
        "stream F1 {stream_f1:.3} vs batch F1 {batch_f1:.3}"
    );
    assert!(stream_f1 > 0.9, "stream F1 {stream_f1:.3}");
}

/// Per-record resolution (lowest latency mode) stays near batch quality,
/// and every intermediate state is a valid partition.
#[test]
fn per_record_resolution() {
    let ds = dataset();
    let mut session = HeraSession::builder(HeraConfig::new(0.5, 0.5)).build();
    let schemas = session.mirror_schemas(&ds.registry);
    for (step, rec) in ds.iter().enumerate() {
        session
            .add_record(schemas[rec.schema.index()], rec.values.clone())
            .unwrap();
        session.resolve();
        if step % 50 == 0 {
            let total: usize = session.clusters().iter().map(|c| c.len()).sum();
            assert_eq!(total, step + 1, "partition broken at step {step}");
        }
    }
    let f1 = PairMetrics::score(&session.clusters(), &ds.truth).f1();
    assert!(f1 > 0.85, "per-record streaming F1 {f1:.3}");
}

/// The session keeps discovering schema matchings as it ages, and they
/// are overwhelmingly correct.
#[test]
fn schema_matchings_accumulate_and_stay_truthful() {
    let ds = dataset();
    let mut session = HeraSession::builder(HeraConfig::new(0.5, 0.5)).build();
    let schemas = session.mirror_schemas(&ds.registry);
    let mut counts = Vec::new();
    for rec in ds.iter() {
        session
            .add_record(schemas[rec.schema.index()], rec.values.clone())
            .unwrap();
        session.resolve();
        counts.push(session.schema_matchings().len());
    }
    assert!(
        counts.windows(2).all(|w| w[0] <= w[1]),
        "decisions are final"
    );
    let decided = session.schema_matchings();
    assert!(!decided.is_empty(), "no matchings decided");
    // Session attr ids mirror the dataset's registration order 1:1, so
    // ground truth applies directly.
    let correct = decided
        .iter()
        .filter(|m| ds.truth.same_attr(m.attr, m.partner))
        .count();
    assert!(
        correct * 10 >= decided.len() * 9,
        "accuracy {correct}/{} below 90%",
        decided.len()
    );
}

/// Late-arriving records join existing entities without disturbing
/// settled ones.
#[test]
fn late_arrivals_attach_to_existing_entities() {
    let ds = dataset();
    let mut session = HeraSession::builder(HeraConfig::new(0.5, 0.5)).build();
    let schemas = session.mirror_schemas(&ds.registry);
    // Ingest all but the last 20 records, resolve, snapshot.
    let n = ds.len();
    for rec in ds.iter().take(n - 20) {
        session
            .add_record(schemas[rec.schema.index()], rec.values.clone())
            .unwrap();
    }
    session.resolve();
    let before = session.clusters().len();
    // Stragglers arrive.
    for rec in ds.iter().skip(n - 20) {
        session
            .add_record(schemas[rec.schema.index()], rec.values.clone())
            .unwrap();
    }
    session.resolve();
    let after = session.clusters().len();
    // Most stragglers should have joined existing entities rather than
    // forming 20 fresh singletons.
    assert!(
        after < before + 15,
        "stragglers mostly unattached: {before} → {after}"
    );
    let f1 = PairMetrics::score(&session.clusters(), &ds.truth).f1();
    assert!(f1 > 0.9, "final F1 {f1:.3}");
}
