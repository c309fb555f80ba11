//! Differential / equivalence tests across independent implementations of
//! the same quantity: the indexed verifier vs the nest-loop verifier,
//! Algorithm-1 bounds vs the exact similarity, and the filtered, blocked
//! and incremental joins vs the all-pairs join of `common`. (The grouped
//! index is checked against the paper-literal flat index inside
//! hera-index, where that oracle lives.)

mod common;

use common::{all_pairs, ByKind};
use hera::sim::ValueSimilarity;
use hera::types::{Label, Value, ValueKind};
use hera::{
    BlockingScheme, BoundMode, EditSimilarity, Hera, HeraConfig, IncrementalJoin, InstanceVerifier,
    JoinConfig, NestLoopVerifier, QGramJaccard, SimilarityJoin, SuperRecord, TypeDispatch,
    ValuePair, ValuePairIndex,
};
use hera_datagen::{CorruptionConfig, DatagenConfig, Generator};
use std::sync::atomic::{AtomicUsize, Ordering};
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
/// all-pairs join on generated data.
#[test]
fn join_prefix_filter_is_lossless() {
    let ds = dataset(6);
    let metric = TypeDispatch::paper_default();
    for xi in [0.4, 0.6, 0.8] {
        let fast = SimilarityJoin::new(JoinConfig::new(xi), &metric).join_dataset(&ds);
        let slow = all_pairs(&ds, xi, &metric);
        assert_eq!(fast.len(), slow.len(), "xi={xi}");
        assert_eq!(fast, slow, "xi={xi}");
    }
}

/// The prefix filter is complete only for q-gram Jaccard, so under any
/// other string metric the batch join generates share-a-gram candidates,
/// while streaming ingest scores every live value the filters cannot rule
/// out — under edit similarity, every one. Streamed record by record, the
/// incremental join then finds exactly the all-pairs join's value pairs,
/// similarities bit for bit, and so a superset of the batch join's.
#[test]
fn batch_and_incremental_join_agree_under_edit_similarity() {
    let ds = dataset(6);
    let metric = ByKind::new(EditSimilarity, 1.0);
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
        let batch = keyed(SimilarityJoin::new(JoinConfig::new(xi), &metric).join(&values));
        let mut incremental = IncrementalJoin::new(xi, 2, Arc::new(metric.clone()));
        let mut streamed = Vec::new();
        for r in ds.iter() {
            let rid = r.id.raw();
            let entries = incremental.register_record(rid, &r.values);
            let scan = [(rid, entries, hera::join::Among::Earlier)];
            let value = |l: Label| &ds.records[l.rid as usize].values[l.fid as usize];
            streamed.extend(incremental.pairs_of_each(1, &scan, value).concat());
        }
        let streamed = keyed(streamed);
        assert!(!batch.is_empty(), "xi={xi}");
        assert_eq!(streamed, keyed(all_pairs(&ds, xi, &metric)), "xi={xi}");
        assert!(
            batch.iter().all(|p| streamed.binary_search(p).is_ok()),
            "xi={xi}: a batch pair the stream lost"
        );
        added.push(streamed.len() - batch.len());
    }
    assert_eq!(added, [15, 0, 0]);
}

/// Counts the calls its inner metric gets on a pair that is not two
/// numbers: the calls the join's gram path would have made for it.
struct CountStrings<M> {
    inner: M,
    calls: AtomicUsize,
}

impl<M: ValueSimilarity> ValueSimilarity for CountStrings<M> {
    fn sim(&self, a: &Value, b: &Value) -> f64 {
        let num = |v: &Value| matches!(v.kind(), ValueKind::Int | ValueKind::Float);
        if !(num(a) && num(b)) {
            self.calls.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.sim(a, b)
    }
    fn name(&self) -> &'static str {
        "count-strings"
    }
    fn qgram_compatible(&self) -> Option<usize> {
        self.inner.qgram_compatible()
    }
}

/// The join grams at the length the metric declares. Under 3-gram
/// Jaccard, `Hera::join` scores every text pair from 3-gram signatures,
/// blocked and unblocked, so the metric is asked about no string pair,
/// and the pairs are the all-pairs join's (restricted to the blocker's
/// record pairs when blocked), similarity bits included.
#[test]
fn a_declared_gram_length_is_the_joins() {
    let ds = dataset(6);
    let metric = ByKind::new(QGramJaccard::new(3), 1.0);
    assert_eq!(metric.qgram_compatible(), Some(3));
    let xi = 0.5;
    let all = all_pairs(&ds, xi, &metric);
    let bits = |pairs: &[ValuePair]| -> Vec<(Label, Label, u64)> {
        pairs.iter().map(|p| (p.a, p.b, p.sim.to_bits())).collect()
    };
    for scheme in [BlockingScheme::None, BlockingScheme::token()] {
        let counted = Arc::new(CountStrings {
            inner: metric.clone(),
            calls: AtomicUsize::new(0),
        });
        let config = HeraConfig::new(0.5, xi).with_blocking(scheme);
        let joined = Hera::builder(config)
            .metric(counted.clone())
            .recorder(hera::obs::Recorder::disabled())
            .build()
            .join(&ds);
        let calls = counted.calls.load(Ordering::Relaxed);
        assert_eq!(
            calls,
            0,
            "{}: string pairs the metric scored",
            scheme.name()
        );
        let mut expected = all.clone();
        if scheme != BlockingScheme::None {
            let kept = hera::Blocker::new(scheme).block(&ds).pairs;
            expected.retain(|p| kept.binary_search(&(p.a.rid, p.b.rid)).is_ok());
        }
        assert!(!expected.is_empty(), "{}", scheme.name());
        assert_eq!(bits(&joined), bits(&expected), "{}", scheme.name());
    }
}

/// The batch join's funnel on the two inputs the ledger's batch workloads
/// are drawn from — D_m1 at ξ 0.5 and the 2 000-record scale preset at
/// ξ 0.7 — pinned: the grouping, the probe's prefixes and the
/// expansion decide these four counters, and none of them may move
/// without a partition moving too. The same join also journals its
/// transient tables' sizes on one diagnostic `join_mem` line.
#[test]
fn the_join_funnel_is_pinned() {
    let dm1 = Generator::new(hera_datagen::presets::dm1()).generate();
    let scale = hera_datagen::ScaleGenerator::new(hera_datagen::scale_preset(2_000, 51)).generate();
    let metric = TypeDispatch::paper_default();
    for (ds, xi, funnel) in [
        (&dm1, 0.5, [10_960, 4_658, 293_369, 132_807]),
        (&scale, 0.7, [14_360, 13_065, 1_310_658, 7_045]),
    ] {
        let (recorder, journal) = hera::Recorder::to_memory();
        let pairs = SimilarityJoin::new(JoinConfig::new(xi).with_threads(2), &metric)
            .with_recorder(recorder)
            .join_dataset(ds);
        let journal = journal.contents();
        let [values, distinct, candidates, count] = funnel;
        let span = format!(
            "\"stage\":\"join\",\"values\":{values},\"distinct\":{distinct},\
             \"candidates\":{candidates},\"pairs\":{count}}}"
        );
        assert!(journal.contains(&span), "{journal}");
        assert_eq!(pairs.len(), count);
        let mem = journal
            .lines()
            .find(|l| l.contains("\"what\":\"join_mem\""))
            .expect("a join_mem line");
        for table in ["labels", "arena", "hot", "postings", "output"] {
            assert!(mem.contains(&format!("\"{table}_bytes\":")), "{mem}");
        }
        let output = count * std::mem::size_of::<ValuePair>();
        assert!(
            mem.contains(&format!("\"output_bytes\":{output}}}")),
            "{mem}"
        );
    }
}
