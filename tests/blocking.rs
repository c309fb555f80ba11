//! Blocking-stage integration tests: the blocked join must be a strict
//! restriction of the all-pairs join (bit-equal similarities, never a
//! new pair), blocking must be deterministic across thread counts, the
//! `BlockingScheme::None` default must leave the pipeline bit-identical,
//! and each scheme must clear a measured recall floor on a seeded
//! dataset (so a silent recall regression fails tier-1; this is the
//! repo's pair-completeness gate, qgram ≥ 0.95).

use hera::join::{CandidateSource, JoinConfig, SimilarityJoin};
use hera::sim::TypeDispatch;
use hera::types::RecordId;
use hera::{Blocker, BlockingScheme, Hera, HeraConfig};
use hera_datagen::{scale_preset, CorruptionConfig, DatagenConfig, Generator, ScaleGenerator};
use std::collections::HashMap;

const XI: f64 = 0.5;

fn dataset(seed: u64, n_records: usize) -> hera::Dataset {
    Generator::new(DatagenConfig {
        name: format!("blocking-test-{seed}"),
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

fn schemes() -> [BlockingScheme; 3] {
    [
        BlockingScheme::token(),
        BlockingScheme::qgram(),
        BlockingScheme::lsh(),
    ]
}

// Every scheme's blocked join emits a subset of the all-pairs join's
// value pairs, with bit-equal similarities — blocking may only remove
// work, never invent or rescore it.
proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]
    #[test]
    fn blocked_join_is_a_restriction_of_all_pairs(seed in 0u64..10_000) {
        let ds = dataset(seed, 240);
        let metric = TypeDispatch::paper_default();
        let join = SimilarityJoin::new(JoinConfig::new(XI), &metric);
        let full: HashMap<_, _> = join
            .join_dataset(&ds)
            .into_iter()
            .map(|p| ((p.a, p.b), p.sim))
            .collect();
        for scheme in schemes() {
            let outcome = Blocker::new(scheme.clone()).block(&ds);
            let blocked =
                join.join_dataset_with(&ds, &CandidateSource::Blocked(outcome.pairs));
            for p in &blocked {
                let sim = full.get(&(p.a, p.b)).unwrap_or_else(|| {
                    panic!(
                        "seed {seed} {}: blocked join invented pair {:?}-{:?}",
                        scheme.name(), p.a, p.b
                    )
                });
                assert_eq!(
                    sim.to_bits(),
                    p.sim.to_bits(),
                    "seed {seed} {}: sim of {:?}-{:?} differs from all-pairs",
                    scheme.name(), p.a, p.b
                );
            }
        }
    }
}

/// Blocking emits the same pair set at every worker-thread count (600
/// records: key extraction fans out above 32).
#[test]
fn blocking_is_deterministic_across_thread_counts() {
    let ds = dataset(77, 600);
    for scheme in schemes() {
        let base = Blocker::new(scheme.clone()).with_threads(1).block(&ds);
        for threads in [2, 4, 8] {
            let other = Blocker::new(scheme.clone())
                .with_threads(threads)
                .block(&ds);
            assert_eq!(
                base.pairs.as_slice(),
                other.pairs.as_slice(),
                "{} at {threads} threads",
                scheme.name()
            );
            assert_eq!(base.stats, other.stats, "{} stats", scheme.name());
        }
    }
}

/// The full blocked pipeline (block → join → resolve) is bit-identical
/// across thread counts: same entity assignment, same merge count.
#[test]
fn blocked_pipeline_is_deterministic_across_thread_counts() {
    let ds = dataset(78, 400);
    for scheme in schemes() {
        let config = HeraConfig::new(0.5, XI).with_blocking(scheme.clone());
        let base = Hera::builder(config.clone().with_threads(1))
            .build()
            .run(&ds)
            .unwrap();
        for threads in [2, 8] {
            let r = Hera::builder(config.clone().with_threads(threads))
                .build()
                .run(&ds)
                .unwrap();
            assert_eq!(
                base.entity_of,
                r.entity_of,
                "{} at {threads} threads",
                scheme.name()
            );
            assert_eq!(base.stats.merges, r.stats.merges);
            assert_eq!(base.stats.comparisons, r.stats.comparisons);
        }
    }
}

/// `BlockingScheme::None` (the default) routes through the untouched
/// all-pairs path: explicit `None` and an untouched config produce
/// bit-identical results at every thread count.
#[test]
fn none_scheme_keeps_the_pipeline_bit_identical() {
    let ds = dataset(79, 400);
    let default = Hera::builder(HeraConfig::new(0.5, XI).with_threads(1))
        .build()
        .run(&ds)
        .unwrap();
    assert_eq!(HeraConfig::new(0.5, XI).blocking, BlockingScheme::None);
    for threads in [1, 2, 8] {
        let explicit = Hera::builder(
            HeraConfig::new(0.5, XI)
                .with_blocking(BlockingScheme::None)
                .with_threads(threads),
        )
        .build()
        .run(&ds)
        .unwrap();
        assert_eq!(default.entity_of, explicit.entity_of, "{threads} threads");
        assert_eq!(default.stats.merges, explicit.stats.merges);
        assert_eq!(default.stats.comparisons, explicit.stats.comparisons);
    }
}

/// Measured recall floors per scheme on a seeded scale dataset. The
/// floors are deliberately a few points under the measured
/// pair-completeness (token 0.72, qgram 1.00, lsh 0.78 on this seed) so
/// the test catches regressions, not noise. The last committed PC/RR
/// sweep is EXPERIMENTS.md's retired-harness record.
#[test]
fn schemes_clear_their_recall_floor_on_seeded_data() {
    let ds = ScaleGenerator::new(scale_preset(5_000, 51)).generate();
    let truth_pairs = ds.truth.positive_pair_count();
    assert!(truth_pairs > 0, "seeded dataset must contain duplicates");
    let floors = [("token", 0.65), ("qgram", 0.95), ("lsh", 0.70)];
    for scheme in schemes() {
        let outcome = Blocker::new(scheme.clone()).block(&ds);
        let kept = outcome
            .pairs
            .iter()
            .filter(|&(a, b)| ds.truth.same_entity(RecordId::new(a), RecordId::new(b)))
            .count();
        let pc = kept as f64 / truth_pairs as f64;
        let rr = outcome.stats.reduction_ratio();
        eprintln!("{}: pc {pc:.4} rr {rr:.4}", scheme.name());
        let (_, floor) = floors
            .iter()
            .find(|(name, _)| *name == scheme.name())
            .expect("floor per scheme");
        assert!(
            pc >= *floor,
            "{}: pair completeness {pc:.4} fell below floor {floor}",
            scheme.name()
        );
        assert!(
            rr >= 0.8,
            "{}: reduction ratio {rr:.4} — blocking stopped reducing",
            scheme.name()
        );
    }
}
