//! Entity-resolution quality metrics (§VI-A "Measure").
//!
//! The paper scores systems by pairwise *precision* ("the proportion of
//! correctly identified record pairs to the record pairs generated"),
//! *recall* ("… to the correct record pairs based on the ground-truth
//! entities") and their harmonic mean *F1*. [`PairMetrics`] implements
//! exactly that; [`bcubed`] adds the B³ cluster metric as a secondary
//! check (pairwise metrics over-reward large clusters, so agreement
//! between the two is a useful sanity signal).

mod cluster;

pub use cluster::{adjusted_rand_index, v_measure};

use hera_types::{GroundTruth, RecordId};
use rustc_hash::FxHashMap;

/// Pairwise precision / recall / F1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairMetrics {
    /// Correctly predicted co-referring pairs.
    pub true_positives: usize,
    /// Predicted pairs that are not co-referring in truth.
    pub false_positives: usize,
    /// Co-referring pairs the prediction missed.
    pub false_negatives: usize,
}

impl PairMetrics {
    /// Scores predicted clusters (each a list of record ids) against
    /// ground truth. Every record must appear in exactly one cluster.
    pub fn score(predicted: &[Vec<u32>], truth: &GroundTruth) -> Self {
        let mut tp = 0usize;
        let mut fp = 0usize;
        let mut predicted_count = 0usize;
        for cluster in predicted {
            for (i, &a) in cluster.iter().enumerate() {
                for &b in &cluster[i + 1..] {
                    predicted_count += 1;
                    if truth.same_entity(RecordId::new(a), RecordId::new(b)) {
                        tp += 1;
                    } else {
                        fp += 1;
                    }
                }
            }
        }
        debug_assert_eq!(tp + fp, predicted_count);
        let positives = truth.positive_pair_count();
        Self {
            true_positives: tp,
            false_positives: fp,
            false_negatives: positives - tp,
        }
    }

    /// Precision; 1.0 when nothing was predicted (vacuously correct).
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// Recall; 1.0 when the truth has no positive pairs.
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let (p, r) = (self.precision(), self.recall());
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

impl std::fmt::Display for PairMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "P={:.3} R={:.3} F1={:.3} (tp={}, fp={}, fn={})",
            self.precision(),
            self.recall(),
            self.f1(),
            self.true_positives,
            self.false_positives,
            self.false_negatives
        )
    }
}

/// B³ (B-cubed) precision / recall / F1 of predicted clusters against the
/// ground truth, averaged per record.
pub fn bcubed(predicted: &[Vec<u32>], truth: &GroundTruth) -> (f64, f64, f64) {
    let n: usize = predicted.iter().map(|c| c.len()).sum();
    if n == 0 {
        return (1.0, 1.0, 1.0);
    }
    // Truth cluster sizes per entity.
    let mut truth_size: FxHashMap<u64, usize> = FxHashMap::default();
    for cluster in predicted {
        for &r in cluster {
            let e = truth.entity_of(RecordId::new(r)).raw() as u64;
            *truth_size.entry(e).or_insert(0) += 1;
        }
    }
    let mut precision_sum = 0.0;
    let mut recall_sum = 0.0;
    for cluster in predicted {
        // Count, per truth entity, how many of its records sit in this
        // predicted cluster.
        let mut counts: FxHashMap<u64, usize> = FxHashMap::default();
        for &r in cluster {
            let e = truth.entity_of(RecordId::new(r)).raw() as u64;
            *counts.entry(e).or_insert(0) += 1;
        }
        for &r in cluster {
            let e = truth.entity_of(RecordId::new(r)).raw() as u64;
            let same_here = counts[&e] as f64;
            precision_sum += same_here / cluster.len() as f64;
            recall_sum += same_here / truth_size[&e] as f64;
        }
    }
    let p = precision_sum / n as f64;
    let r = recall_sum / n as f64;
    let f1 = if p + r == 0.0 {
        0.0
    } else {
        2.0 * p * r / (p + r)
    };
    (p, r, f1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hera_types::{CanonAttrId, EntityId};
    use proptest::prelude::*;

    /// Truth with clusters {0,1,2} and {3,4}.
    fn truth() -> GroundTruth {
        GroundTruth::new(
            vec![
                EntityId::new(0),
                EntityId::new(0),
                EntityId::new(0),
                EntityId::new(1),
                EntityId::new(1),
            ],
            vec![CanonAttrId::new(0)],
        )
    }

    #[test]
    fn perfect_prediction() {
        let m = PairMetrics::score(&[vec![0, 1, 2], vec![3, 4]], &truth());
        assert_eq!(m.precision(), 1.0);
        assert_eq!(m.recall(), 1.0);
        assert_eq!(m.f1(), 1.0);
        let (bp, br, bf) = bcubed(&[vec![0, 1, 2], vec![3, 4]], &truth());
        assert_eq!((bp, br, bf), (1.0, 1.0, 1.0));
    }

    #[test]
    fn all_singletons() {
        let pred: Vec<Vec<u32>> = (0..5).map(|i| vec![i]).collect();
        let m = PairMetrics::score(&pred, &truth());
        assert_eq!(m.true_positives, 0);
        assert_eq!(m.precision(), 1.0); // vacuous
        assert_eq!(m.recall(), 0.0);
        assert_eq!(m.f1(), 0.0);
    }

    #[test]
    fn one_big_cluster() {
        let m = PairMetrics::score(&[vec![0, 1, 2, 3, 4]], &truth());
        // Predicted pairs: 10. True positives: C(3,2)+C(2,2) = 4.
        assert_eq!(m.true_positives, 4);
        assert_eq!(m.false_positives, 6);
        assert_eq!(m.false_negatives, 0);
        assert!((m.precision() - 0.4).abs() < 1e-12);
        assert_eq!(m.recall(), 1.0);
    }

    #[test]
    fn partial_split() {
        // {0,1} {2} {3,4}: tp = 1 + 1 = 2, fp = 0, fn = C(3,2)-1 = 2.
        let m = PairMetrics::score(&[vec![0, 1], vec![2], vec![3, 4]], &truth());
        assert_eq!(m.true_positives, 2);
        assert_eq!(m.false_positives, 0);
        assert_eq!(m.false_negatives, 2);
        assert_eq!(m.precision(), 1.0);
        assert!((m.recall() - 0.5).abs() < 1e-12);
        assert!((m.f1() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn display_format() {
        let m = PairMetrics::score(&[vec![0, 1]], &truth());
        let s = m.to_string();
        assert!(s.contains("P=1.000"));
        assert!(s.contains("tp=1"));
    }

    /// Truth where every record is its own entity (no positive pairs).
    fn singleton_truth() -> GroundTruth {
        GroundTruth::new(
            (0..5).map(EntityId::new).collect(),
            vec![CanonAttrId::new(0)],
        )
    }

    /// Truth where all records are one entity.
    fn giant_truth() -> GroundTruth {
        GroundTruth::new(vec![EntityId::new(0); 5], vec![CanonAttrId::new(0)])
    }

    #[test]
    fn empty_dataset_is_well_defined() {
        // No records anywhere: vacuously perfect, never NaN.
        let t = GroundTruth::new(vec![], vec![CanonAttrId::new(0)]);
        let m = PairMetrics::score(&[], &t);
        assert_eq!((m.precision(), m.recall(), m.f1()), (1.0, 1.0, 1.0));
        assert_eq!(bcubed(&[], &t), (1.0, 1.0, 1.0));
    }

    #[test]
    fn singleton_truth_makes_recall_vacuous() {
        // Truth has zero positive pairs; an all-singleton prediction is
        // perfect, a giant cluster is pure false positives — all three
        // numbers stay defined either way.
        let t = singleton_truth();
        let pred: Vec<Vec<u32>> = (0..5).map(|i| vec![i]).collect();
        let m = PairMetrics::score(&pred, &t);
        assert_eq!((m.precision(), m.recall(), m.f1()), (1.0, 1.0, 1.0));

        let m = PairMetrics::score(&[vec![0, 1, 2, 3, 4]], &t);
        assert_eq!(m.precision(), 0.0);
        assert_eq!(m.recall(), 1.0); // vacuous: no positives to find
        assert_eq!(m.f1(), 0.0);
        for x in [m.precision(), m.recall(), m.f1()] {
            assert!(!x.is_nan());
        }
    }

    #[test]
    fn giant_truth_extremes_are_not_nan() {
        let t = giant_truth();
        for pred in [
            (0..5).map(|i| vec![i]).collect::<Vec<_>>(),
            vec![vec![0, 1, 2, 3, 4]],
        ] {
            let m = PairMetrics::score(&pred, &t);
            let (bp, br, bf) = bcubed(&pred, &t);
            for x in [m.precision(), m.recall(), m.f1(), bp, br, bf] {
                assert!(!x.is_nan(), "{pred:?}");
                assert!((0.0..=1.0).contains(&x), "{pred:?}");
            }
        }
        // The giant prediction exactly matches the giant truth.
        let m = PairMetrics::score(&[vec![0, 1, 2, 3, 4]], &t);
        assert_eq!(m.f1(), 1.0);
    }

    #[test]
    fn bcubed_extremes_are_exact() {
        // All singletons vs truth {0,1,2},{3,4}: B³ precision is 1 (each
        // cluster is pure), recall is 1/|truth cluster| averaged.
        let pred: Vec<Vec<u32>> = (0..5).map(|i| vec![i]).collect();
        let (bp, br, bf) = bcubed(&pred, &truth());
        assert_eq!(bp, 1.0);
        let expected_recall = (3.0 * (1.0 / 3.0) + 2.0 * (1.0 / 2.0)) / 5.0;
        assert!((br - expected_recall).abs() < 1e-12);
        assert!(!bf.is_nan());

        // One giant cluster: recall is 1, precision the purity average.
        let (bp, br, bf) = bcubed(&[vec![0, 1, 2, 3, 4]], &truth());
        assert_eq!(br, 1.0);
        let expected_precision = (3.0 * (3.0 / 5.0) + 2.0 * (2.0 / 5.0)) / 5.0;
        assert!((bp - expected_precision).abs() < 1e-12);
        assert!(!bf.is_nan());
    }

    #[test]
    fn bcubed_penalizes_lumping_less_than_pairwise() {
        let (bp, _, _) = bcubed(&[vec![0, 1, 2, 3, 4]], &truth());
        let m = PairMetrics::score(&[vec![0, 1, 2, 3, 4]], &truth());
        // B³ precision (0.52) > pairwise precision (0.4) on this shape.
        assert!(bp > m.precision());
    }

    proptest! {
        /// Metrics are bounded and consistent for arbitrary partitions.
        #[test]
        fn metric_bounds(assignment in proptest::collection::vec(0u32..4, 5)) {
            // Build predicted clusters from a random label assignment.
            let mut clusters: std::collections::BTreeMap<u32, Vec<u32>> = Default::default();
            for (r, &c) in assignment.iter().enumerate() {
                clusters.entry(c).or_default().push(r as u32);
            }
            let pred: Vec<Vec<u32>> = clusters.into_values().collect();
            let t = truth();
            let m = PairMetrics::score(&pred, &t);
            prop_assert!((0.0..=1.0).contains(&m.precision()));
            prop_assert!((0.0..=1.0).contains(&m.recall()));
            prop_assert!((0.0..=1.0).contains(&m.f1()));
            prop_assert!(m.f1() <= m.precision().max(m.recall()) + 1e-12);
            let (bp, br, bf) = bcubed(&pred, &t);
            prop_assert!((0.0..=1.0).contains(&bp));
            prop_assert!((0.0..=1.0).contains(&br));
            prop_assert!((0.0..=1.0).contains(&bf));
        }
    }
}
