//! Shared helpers for the paper-reproduction binaries.
//!
//! Every table and figure of the paper's §VI, and the A1–A4 ablations,
//! has a binary under `src/bin/` that regenerates it (`cargo run
//! --release -p hera-bench --bin exp_fig9`). EXPERIMENTS.md records their
//! output next to the paper's reported values. Engineering timings are
//! the ledger's (`benchmark/`), not this crate's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hera_baselines::eval::PairMetrics;
use hera_core::{Hera, HeraConfig, HeraResult};
use hera_types::Dataset;

/// The four Table I datasets, generation-cached per process.
pub fn datasets() -> Vec<Dataset> {
    ["dm1", "dm2", "dm3", "dm4"]
        .iter()
        .map(|n| hera_datagen::table1_dataset(n))
        .collect()
}

/// The δ sweep used by Figs. 9, 10, 12.
pub const DELTA_SWEEP: [f64; 9] = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// The paper's fixed value-similarity threshold.
pub const XI: f64 = 0.5;

/// Runs HERA at one δ, reusing a precomputed join result.
pub fn run_at_delta(
    ds: &Dataset,
    pairs: &[hera_index::ValuePair],
    delta: f64,
) -> (HeraResult, PairMetrics) {
    let hera = Hera::builder(HeraConfig::new(delta, XI)).build();
    let result = hera.run_with_pairs(ds, pairs.to_vec()).unwrap();
    let metrics = PairMetrics::score(&result.clusters(), &ds.truth);
    (result, metrics)
}

/// Precomputes the ξ = 0.5 similarity join for a dataset.
pub fn shared_join(ds: &Dataset) -> Vec<hera_index::ValuePair> {
    Hera::builder(HeraConfig::new(0.5, XI)).build().join(ds)
}

/// Prints a markdown-style table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a markdown-style header and separator.
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_ascending_and_bounded() {
        for w in DELTA_SWEEP.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(DELTA_SWEEP.iter().all(|d| (0.0..=1.0).contains(d)));
    }

    #[test]
    fn shared_join_reuse_equals_fresh_run() {
        let ds = hera_datagen::table1_dataset("dm1");
        let pairs = shared_join(&ds);
        let (reused, m1) = run_at_delta(&ds, &pairs, 0.5);
        let fresh = Hera::builder(HeraConfig::new(0.5, XI))
            .build()
            .run(&ds)
            .unwrap();
        let m2 = PairMetrics::score(&fresh.clusters(), &ds.truth);
        assert_eq!(reused.entity_of, fresh.entity_of);
        assert_eq!(m1, m2);
    }
}
