//! The paper's comparator side (§VI), implemented from scratch:
//!
//! * [`exchange`] — schema matching + data exchange: target schemas,
//!   tgds and the chase that build the homogeneous `-S` / `-L` datasets
//!   the baselines run on (§VI-A);
//! * [`eval`] — pairwise precision/recall/F1, the paper's measure, plus
//!   B³ and two cluster-agreement scores;
//!
//! * [`RSwoosh`] — the generic match-and-merge ER of Benjelloun et al.
//!   \[4\]: a buffer-and-output loop that merges any matching pair and
//!   re-queues the merge result until no record in the output matches.
//! * [`CorrelationClustering`] — "CC" \[6\]: the KwikCluster pivot
//!   algorithm over the thresholded similarity graph (a 3-approximation
//!   of correlation clustering).
//! * [`CollectiveEr`] — "CR" \[5\]: greedy agglomerative clustering in the
//!   spirit of Bhattacharya & Getoor, scoring cluster pairs by a blend of
//!   attribute similarity and relational (shared co-occurring value)
//!   similarity.
//! * [`NestLoopVerifier`] — the four-nested-loops record similarity of
//!   Fig. 7(a): the foil for the paper's "three orders of magnitude"
//!   index speedup (ablation A1).
//!
//! All three clustering baselines consume *homogeneous* datasets (one
//! schema, the output of [`exchange`]) and share one record-similarity
//! definition (`flat::FlatSuper::similarity`) aligned with HERA's
//! Definition 5, so Fig. 11 compares algorithms, not scoring functions.
//! Candidate pairs come from the same similarity join HERA uses — every
//! system gets the same blocking.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eval;
pub mod exchange;
mod flat;
mod kwik;
mod nestloop;
mod relational;
mod rswoosh;

pub use kwik::CorrelationClustering;
pub use nestloop::NestLoopVerifier;
pub use relational::CollectiveEr;
pub use rswoosh::RSwoosh;

use hera_sim::ValueSimilarity;
use hera_types::Dataset;

/// Common interface: a baseline resolves a homogeneous dataset into
/// clusters of base-record ids.
pub trait Resolver {
    /// Runs the algorithm; returns disjoint clusters covering all records.
    fn resolve(&self, ds: &Dataset, metric: &dyn ValueSimilarity) -> Vec<Vec<u32>>;

    /// Display name for reports.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::PairMetrics;
    use hera_sim::TypeDispatch;
    use hera_types::{motivating_example, Dataset};

    fn exchanged_example() -> Dataset {
        let ds = motivating_example();
        // Full-information exchange: all 7 distinct attributes.
        let plan = crate::exchange::plan_exchange(&ds, 1.0, 1);
        crate::exchange::chase(&ds, &plan, "fig1-full")
    }

    /// With the *full* target schema (no information loss), every
    /// baseline should resolve the easy pairs; the motivating example's
    /// `description difference` pair (r1, r2) stays hard.
    #[test]
    fn baselines_run_on_exchanged_example() {
        let ds = exchanged_example();
        let metric = TypeDispatch::paper_default();
        for resolver in [
            Box::new(RSwoosh::new(0.5, 0.5)) as Box<dyn Resolver>,
            Box::new(CorrelationClustering::new(0.5, 0.5, 7)),
            Box::new(CollectiveEr::new(0.5, 0.5, 0.25)),
        ] {
            let clusters = resolver.resolve(&ds, &metric);
            let total: usize = clusters.iter().map(|c| c.len()).sum();
            assert_eq!(total, ds.len(), "{} dropped records", resolver.name());
            let m = PairMetrics::score(&clusters, &ds.truth);
            assert!(m.recall() > 0.0, "{} found nothing: {m}", resolver.name());
        }
    }

    /// On data exchanged with heavy information loss, HERA (on the
    /// heterogeneous originals) must beat every baseline (on the
    /// exchanged data) — the paper's headline claim, tested end-to-end on
    /// a generated dataset in `tests/`.
    #[test]
    fn information_loss_hurts_baselines() {
        let ds = motivating_example();
        let (lossy, plan) = crate::exchange::exchange_small(&ds, 7);
        assert!(plan.dropped_value_count > 0);
        let metric = TypeDispatch::paper_default();
        let swoosh = RSwoosh::new(0.5, 0.5).resolve(&lossy, &metric);
        let hera = hera_core::Hera::builder(hera_core::HeraConfig::paper_example())
            .build()
            .run(&ds)
            .unwrap()
            .clusters();
        let m_swoosh = PairMetrics::score(&swoosh, &lossy.truth);
        let m_hera = PairMetrics::score(&hera, &ds.truth);
        assert!(
            m_hera.f1() >= m_swoosh.f1(),
            "HERA {m_hera} should not lose to R-Swoosh {m_swoosh} under information loss"
        );
    }
}
