//! Property tests for the merge-aware similarity memo cache: caching is a
//! pure optimisation, so cached and uncached runs must be *bit-identical*
//! across random datasets and random merge sequences. See DESIGN.md
//! ("Similarity memoization") for why this holds by construction — the
//! cache stores exact metric outputs, is read-only during the parallel
//! snapshot phase, and is invalidated through the same label remap the
//! value-pair index uses on merge.

use hera::{Hera, HeraConfig, HeraSession};
use hera_datagen::{CorruptionConfig, DatagenConfig, Generator};
use proptest::prelude::*;

fn dataset(seed: u64, n_records: usize, n_entities: usize, corruption: u8) -> hera::Dataset {
    Generator::new(DatagenConfig {
        name: format!("simcache-prop-{seed}"),
        seed,
        n_records,
        n_entities,
        n_attrs: 10,
        n_sources: 3,
        min_source_attrs: 5,
        max_source_attrs: 8,
        corruption: match corruption {
            0 => CorruptionConfig::light(),
            1 => CorruptionConfig::moderate(),
            _ => CorruptionConfig::heavy(),
        },
        domain: Default::default(),
    })
    .generate()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batch runs: for random datasets (seed, size, noise level), the
    /// cached and uncached pipelines agree on every entity assignment and
    /// every decided schema matching, bit for bit.
    #[test]
    fn cached_equals_uncached_on_random_datasets(
        seed in 0u64..10_000,
        n_records in 40usize..90,
        n_entities in 8usize..18,
        corruption in 0u8..3,
    ) {
        let ds = dataset(seed, n_records, n_entities, corruption);
        let on = Hera::builder(HeraConfig::new(0.5, 0.5).with_threads(1)).build().run(&ds).unwrap();
        let off = Hera::builder(
            HeraConfig::new(0.5, 0.5).with_threads(1).without_sim_cache(),
        ).build()
        .run(&ds).unwrap();
        prop_assert_eq!(&on.entity_of, &off.entity_of);
        prop_assert_eq!(on.stats.merges, off.stats.merges);
        prop_assert_eq!(on.stats.iterations, off.stats.iterations);
        prop_assert_eq!(on.schema_matchings.len(), off.schema_matchings.len());
        for (a, b) in on.schema_matchings.iter().zip(&off.schema_matchings) {
            prop_assert_eq!(a.attr, b.attr);
            prop_assert_eq!(a.partner, b.partner);
            prop_assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
        }
        // The uncached run must report zero cache traffic; the cached run
        // must never call the metric more often than the uncached one.
        prop_assert_eq!(off.stats.sim_cache_hits + off.stats.sim_cache_misses, 0);
        prop_assert_eq!(off.stats.sim_cache_size, 0);
        prop_assert!(on.stats.metric_sim_calls <= off.stats.metric_sim_calls);
    }

    /// Incremental runs: streaming the same records in random batch sizes
    /// produces a different merge sequence each time (merges interleave
    /// with arrivals), and the cache — invalidated merge by merge — must
    /// stay transparent through all of them.
    #[test]
    fn cached_equals_uncached_over_random_merge_sequences(
        seed in 0u64..10_000,
        batch_sizes in proptest::collection::vec(1usize..8, 4..12),
    ) {
        let ds = dataset(seed, 60, 12, 1);
        let stream = |cfg: HeraConfig| {
            let mut session = HeraSession::builder(cfg).build();
            let schemas = session.mirror_schemas(&ds.registry);
            let mut pending = 0usize;
            let mut batches = batch_sizes.iter().cycle();
            for rec in ds.iter() {
                session
                    .add_record(schemas[rec.schema.index()], rec.values.clone())
                    .unwrap();
                pending += 1;
                if pending >= *batches.next().unwrap() {
                    session.resolve();
                    pending = 0;
                }
            }
            session.resolve();
            session
        };
        let mut on = stream(HeraConfig::new(0.5, 0.5));
        let mut off = stream(HeraConfig::new(0.5, 0.5).without_sim_cache());
        prop_assert_eq!(on.clusters(), off.clusters());
        prop_assert_eq!(on.merge_count(), off.merge_count());
        prop_assert_eq!(off.sim_cache_size(), 0);
    }
}
