//! Property tests for [`hera::RunStats`] internal consistency: on random
//! datasets, the counters the observability layer reports must agree with
//! each other — per-round metric calls partition the total, timings
//! nest.

use hera::{Hera, HeraConfig, RunStats};
use hera_datagen::{CorruptionConfig, DatagenConfig, Generator};

fn random_dataset(seed: u64, n_records: usize) -> hera::Dataset {
    Generator::new(DatagenConfig {
        name: format!("stats-prop-{seed}"),
        seed,
        n_records,
        n_entities: (n_records / 6).max(2),
        n_attrs: 10,
        n_sources: 3,
        min_source_attrs: 5,
        max_source_attrs: 8,
        corruption: CorruptionConfig::moderate(),
        domain: Default::default(),
    })
    .generate()
}

/// The invariants behind `RunStats::check_consistency`, spelled out so a
/// failure names the exact counter pair that disagreed.
fn assert_consistent(s: &RunStats, ctx: &str) {
    s.check_consistency()
        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
    // Per-round metric calls partition the total.
    let by_round: u64 = s.metric_calls_by_round.iter().sum();
    assert_eq!(by_round, s.metric_sim_calls, "{ctx}");
    assert_eq!(s.iterations, s.metric_calls_by_round.len(), "{ctx}");
    // Verification is a phase of the resolve loop.
    assert!(s.verify_time <= s.resolve_time, "{ctx}");
    // Every comparison runs a matching; direct-phase verifications may
    // run more.
    assert!(s.matchings_run >= s.comparisons, "{ctx}");
    assert!(s.final_index_size <= s.index_size, "{ctx}");
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

    /// Random datasets: every counter invariant holds.
    #[test]
    fn run_stats_are_internally_consistent(
        seed in proptest::prelude::any::<u64>(),
        n in 80usize..140,
    ) {
        let ds = random_dataset(seed, n);
        let result = Hera::builder(HeraConfig::new(0.5, 0.5)).build().run(&ds).unwrap();
        assert_consistent(&result.stats, &format!("seed {seed}, {n} records"));
    }
}

#[test]
fn check_consistency_rejects_broken_counters() {
    let ds = random_dataset(7, 90);
    let result = Hera::builder(HeraConfig::new(0.5, 0.5))
        .build()
        .run(&ds)
        .unwrap();
    let good = result.stats.clone();
    good.check_consistency().unwrap();

    let mut s = good.clone();
    s.metric_calls_by_round.push(1);
    assert!(s.check_consistency().is_err(), "round partition");

    let mut s = good.clone();
    s.iterations += 1;
    assert!(s.check_consistency().is_err(), "round count");

    let mut s = good;
    s.verify_time = s.resolve_time + std::time::Duration::from_secs(1);
    assert!(s.check_consistency().is_err(), "time nesting");
}
