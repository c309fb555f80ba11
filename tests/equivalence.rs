//! Differential / equivalence tests across independent implementations of
//! the same quantity: the indexed verifier vs the nest-loop verifier, the
//! grouped index vs the paper-literal flat index, and Algorithm-1 bounds
//! vs the exact similarity.

use hera::sim::ValueSimilarity;
use hera::types::{Label, Value};
use hera::{
    BoundMode, EditSimilarity, FlatIndex, IncrementalJoin, InstanceVerifier, JoinConfig,
    NestLoopVerifier, SimilarityJoin, SuperRecord, TypeDispatch, ValuePairIndex,
};
use hera_datagen::{CorruptionConfig, DatagenConfig, Generator};
use std::sync::Arc;

fn dataset(seed: u64) -> hera::Dataset {
    Generator::new(DatagenConfig {
        name: "equiv".into(),
        seed,
        n_records: 80,
        n_entities: 15,
        n_attrs: 10,
        n_sources: 3,
        min_source_attrs: 5,
        max_source_attrs: 8,
        corruption: CorruptionConfig::moderate(),
        domain: Default::default(),
    })
    .generate()
}

/// The indexed verifier and the four-nested-loops verifier implement the
/// same Definition 5 — they must agree on every record pair.
#[test]
fn indexed_equals_nestloop_on_generated_data() {
    for seed in [1, 2, 3] {
        let ds = dataset(seed);
        let metric = TypeDispatch::paper_default();
        let xi = 0.5;
        let pairs = SimilarityJoin::new(JoinConfig::new(xi), &metric).join_dataset(&ds);
        let index = ValuePairIndex::build(pairs);
        let supers: Vec<SuperRecord> = ds
            .iter()
            .map(|r| SuperRecord::from_record(&ds, r))
            .collect();
        let indexed = InstanceVerifier::new(&metric, xi, true);
        let nest = NestLoopVerifier::new(xi);
        for (i, j) in index.record_pairs() {
            let a = indexed
                .verify(
                    &index,
                    &supers[i as usize],
                    &supers[j as usize],
                    &ds.registry,
                    None,
                )
                .sim;
            let b = nest.similarity(&supers[i as usize], &supers[j as usize], &metric);
            assert!(
                (a - b).abs() < 1e-9,
                "seed {seed} pair ({i},{j}): indexed {a} vs nest-loop {b}"
            );
        }
    }
}

/// Grouped and flat indexes must agree on every group of real data.
#[test]
fn grouped_equals_flat_index() {
    let ds = dataset(4);
    let metric = TypeDispatch::paper_default();
    let pairs = SimilarityJoin::new(JoinConfig::new(0.5), &metric).join_dataset(&ds);
    let grouped = ValuePairIndex::build(pairs.clone());
    let flat = FlatIndex::build(pairs);
    assert_eq!(grouped.len(), flat.len());
    for (i, j) in grouped.record_pairs() {
        assert_eq!(grouped.group(i, j), flat.group(i, j), "group ({i},{j})");
    }
}

/// Sound bounds must bracket the exact similarity on every real group;
/// the paper-mode upper bound must dominate it too.
#[test]
fn bounds_bracket_exact_similarity() {
    let ds = dataset(5);
    let metric = TypeDispatch::paper_default();
    let xi = 0.5;
    let pairs = SimilarityJoin::new(JoinConfig::new(xi), &metric).join_dataset(&ds);
    let index = ValuePairIndex::build(pairs);
    let supers: Vec<SuperRecord> = ds
        .iter()
        .map(|r| SuperRecord::from_record(&ds, r))
        .collect();
    let verifier = InstanceVerifier::new(&metric, xi, true);
    for (i, j) in index.record_pairs() {
        let (si, sj) = (
            supers[i as usize].informative_size(),
            supers[j as usize].informative_size(),
        );
        let exact = verifier
            .verify(
                &index,
                &supers[i as usize],
                &supers[j as usize],
                &ds.registry,
                None,
            )
            .sim;
        let sound = index.bounds(i, j, si, sj, BoundMode::Sound);
        assert!(
            sound.up + 1e-9 >= exact,
            "pair ({i},{j}): up {} < exact {exact}",
            sound.up
        );
        assert!(
            sound.low <= exact + 1e-9,
            "pair ({i},{j}): low {} > exact {exact}",
            sound.low
        );
        if sound.is_exact() {
            assert!(
                (sound.up - exact).abs() < 1e-9,
                "pair ({i},{j}): pinched bounds {} ≠ exact {exact}",
                sound.up
            );
        }
        let paper = index.bounds(i, j, si, sj, BoundMode::Paper);
        assert!(paper.up + 1e-9 >= exact, "paper upper bound unsound");
    }
}

/// The similarity join's prefix filter loses nothing against the
/// exhaustive join on generated data.
#[test]
fn join_prefix_filter_is_lossless() {
    let ds = dataset(6);
    let metric = TypeDispatch::paper_default();
    for xi in [0.4, 0.6, 0.8] {
        let fast = SimilarityJoin::new(JoinConfig::new(xi), &metric).join_dataset(&ds);
        let slow = SimilarityJoin::new(JoinConfig::new(xi).exhaustive(), &metric).join_dataset(&ds);
        assert_eq!(fast.len(), slow.len(), "xi={xi}");
        assert_eq!(fast, slow, "xi={xi}");
    }
}

/// The prefix filter is complete only for q-gram Jaccard, so under any
/// other string metric the batch join generates share-a-gram candidates,
/// while streaming ingest scores every live value the filters cannot rule
/// out — under edit similarity, every one. Streamed record by record, the
/// incremental join then finds exactly the exhaustive join's value pairs,
/// similarities bit for bit, and so a superset of the batch join's.
#[test]
fn batch_and_incremental_join_agree_under_edit_similarity() {
    let ds = dataset(6);
    let metric = TypeDispatch::paper_default().with_string_metric(Arc::new(EditSimilarity));
    assert_eq!(metric.qgram_compatible(), None);
    let values: Vec<(Label, Value)> = ds
        .iter()
        .flat_map(|r| {
            let labeled = r.values.iter().enumerate();
            labeled.map(move |(fid, v)| (Label::new(r.id.raw(), fid as u32, 0), v.clone()))
        })
        .filter(|(_, v)| !v.is_null())
        .collect();
    let keyed = |pairs: Vec<hera::ValuePair>| {
        let mut keyed: Vec<_> = pairs
            .into_iter()
            .map(|p| (p.a, p.b, p.sim.to_bits()))
            .collect();
        keyed.sort_unstable();
        keyed
    };
    // Pairs the stream adds to the share-a-gram batch join, per ξ: string
    // pairs with no gram in common that edit similarity still scores at ξ
    // or above. On this dataset only the lowest ξ has any.
    let mut added = Vec::new();
    for xi in [0.4, 0.6, 0.8] {
        let exhaustive = SimilarityJoin::new(JoinConfig::new(xi).exhaustive(), &metric);
        let batch = keyed(SimilarityJoin::new(JoinConfig::new(xi), &metric).join(&values));
        let mut incremental = IncrementalJoin::new(xi, 2, Arc::new(metric.clone()));
        let mut streamed = Vec::new();
        for r in ds.iter() {
            streamed.extend(incremental.insert_record(r.id.raw(), &r.values));
        }
        let streamed = keyed(streamed);
        assert!(!batch.is_empty(), "xi={xi}");
        assert_eq!(streamed, keyed(exhaustive.join(&values)), "xi={xi}");
        assert!(
            batch.iter().all(|p| streamed.binary_search(p).is_ok()),
            "xi={xi}: a batch pair the stream lost"
        );
        added.push(streamed.len() - batch.len());
    }
    assert_eq!(added, [15, 0, 0]);
}
