//! Similarity self-join over a dataset's value universe (Definition 7).
//!
//! Given the multiset of values appearing in a record set, the join finds
//! every cross-record pair `(v₁, v₂)` with `simv(v₁, v₂) ≥ ξ`. The result
//! feeds the value-pair index of `hera-index`, and by Proposition 1 it only
//! has to run **once**, offline, before HERA starts iterating.
//!
//! # Strategy
//!
//! A naive self-join is quadratic in the number of values. This crate cuts
//! that down with the filter-verify architecture of the similarity-join
//! literature the paper cites \[13\], fused into a single pass:
//!
//! 1. **Distinct-value grouping.** Real datasets repeat values constantly
//!    (every record of a movie shares its title). The join runs over
//!    *distinct* values only and expands matches to label pairs.
//! 2. **One length-ordered probe of an inverted q-gram index.** Distinct
//!    string renderings are gram-tokenized and the tokens ranked once by
//!    ascending document frequency. Values are processed in `(signature
//!    length, index)` order and each is probed against the values before
//!    it only, so an indexed `y` never meets a shorter probe: it is enough
//!    to index its *index prefix*, the `|y| − ⌈2ξ/(1+ξ)·|y|⌉ + 1` rarest
//!    tokens, while a probing `x` looks up its longer *probe prefix*, the
//!    `|x| − ⌈ξ·|x|⌉ + 1` rarest — any pair with Jaccard `≥ ξ` collides on
//!    one of those. Posting lists are sorted by length, so the length
//!    filter (`|y| ≥ ⌈ξ·|x|⌉`) is a binary search; a positional filter
//!    drops a pair whose remaining tokens can no longer reach the required
//!    overlap. The probe runs on [`hera_types::parallel`], heaviest values
//!    first.
//! 3. **Verification inside the probe.** A pair that survives the filters
//!    is scored at once — by the black-box [`ValueSimilarity`], or from the
//!    stored signatures when the metric declares them equivalent — and, if
//!    `sim ≥ ξ`, expanded to label pairs in the worker's output. No
//!    candidate list is built, sorted or deduplicated.
//! 4. **Numeric sweep.** Numeric values are sorted and paired by a bounded
//!    forward sweep, sound for any metric that is non-increasing in
//!    `|a − b|` (all built-in numeric metrics are); each swept pair is
//!    scored once, by the sweep.
//!
//! The `join` span's `candidates` counts the distinct-value pairs that
//! were scored — the probe's survivors plus the sweep's pairs. It is the
//! same at every thread count.
//!
//! The join grams text at the length the metric declares through
//! [`ValueSimilarity::qgram_compatible`]: a metric whose string leg is
//! folded q-gram Jaccard (HERA's default, `q = 2`) declares its `q`, and
//! then the prefix filter is **complete** and every string pair is scored
//! from the signatures. Under any other metric the same probe runs over
//! full 2-gram signatures with the filters off: the candidates are
//! share-a-gram, so a string pair with no gram in common is never scored.
//!
//! # Under a blocking scheme
//!
//! A blocker (the `hera-block` crate) decides *which* record pairs are
//! compared; [`IncrementalJoin`] compares them. It registers every record,
//! then [`IncrementalJoin::pairs_of_each`] scans each record's values
//! against the live values of the records an [`Among`] names — a session's
//! earlier records or its blocker's candidates, or the batch blocked
//! join's earlier co-blocked records — scoring from values its caller
//! lends, since it stores none. Under any metric a scan emits exactly
//! the pairs an all-pairs join (the metric asked about every pair of
//! values) finds between the scanned record and those records, so
//! streaming ingest finds a superset of the share-a-gram pairs, and the
//! blocked batch join is the all-pairs join restricted to the blocker's
//! record pairs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod incremental;
mod inverted;
mod numeric;

pub use incremental::{Among, IncrementalJoin};

use hera_sim::text::{folded_qgram_set, jaccard_of_sets, GramSketch};
use hera_sim::ValueSimilarity;
use hera_types::{Dataset, Label, Value};
use rustc_hash::FxHashMap;
use std::time::Instant;

/// One emitted similar value pair. `a.rid < b.rid` always holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValuePair {
    /// Label of the first value (smaller rid).
    pub a: Label,
    /// Label of the second value (larger rid).
    pub b: Label,
    /// Black-box similarity, `≥ ξ`.
    pub sim: f64,
}

/// Similarity-join configuration. The gram length is the metric's
/// ([`ValueSimilarity::qgram_compatible`]), or 2 for a metric that
/// declares none.
#[derive(Debug, Clone, Copy)]
pub struct JoinConfig {
    /// Value-similarity threshold ξ (Definition 7).
    pub xi: f64,
    /// Worker threads for the probe and verification
    /// ([`hera_types::parallel`]): `0` auto-detects from the machine, `1`
    /// forces the sequential path. The output is bit-identical for every
    /// setting.
    pub num_threads: usize,
}

impl JoinConfig {
    /// Threshold ξ, worker count auto-detected.
    pub fn new(xi: f64) -> Self {
        assert!((0.0..=1.0).contains(&xi), "xi must be in [0,1]");
        Self { xi, num_threads: 0 }
    }

    /// Sets the worker count (`0` = auto-detect).
    pub fn with_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }
}

/// One value as the verifier sees it: the value, whether it is numeric,
/// and its folded gram signature — the sorted, distinct hashed grams —
/// with the signature's 128-bit sketch. The signature is empty wherever
/// [`score`] does not read it: the incremental join derives it only for a
/// pair the gram path scores.
#[derive(Clone, Copy)]
pub(crate) struct Side<'a> {
    pub(crate) value: &'a Value,
    pub(crate) is_num: bool,
    pub(crate) sig: &'a [u64],
    pub(crate) sketch: GramSketch,
}

/// True iff [`score`] scores a pair from the two signatures: the metric
/// declares a gram length, which the join grams at (`fast_grams`), and
/// the pair is not two numbers.
#[inline]
pub(crate) fn scores_grams(fast_grams: bool, a_is_num: bool, b_is_num: bool) -> bool {
    fast_grams && !(a_is_num && b_is_num)
}

/// The join's one scoring decision, shared by the batch probe and the
/// incremental scan: `Some(sim)` iff `sim(a, b) ≥ ξ`.
///
/// Two numbers, or any pair under a metric that declares no gram length
/// (`fast_grams` off), ask the black-box metric.
/// Every other pair is scored from the signatures — the same value by the
/// [`ValueSimilarity::qgram_compatible`] contract, without re-tokenizing —
/// after the sketch's upper bound on that Jaccard: the bound is sound, so
/// a reject can never drop a pair the exact intersection would keep.
#[inline]
pub(crate) fn score(
    metric: &dyn ValueSimilarity,
    fast_grams: bool,
    xi: f64,
    a: Side<'_>,
    b: Side<'_>,
) -> Option<f64> {
    let s = if scores_grams(fast_grams, a.is_num, b.is_num) {
        if a.sketch
            .jaccard_upper_bound(a.sig.len(), b.sketch, b.sig.len())
            < xi
        {
            return None;
        }
        jaccard_of_sets(a.sig, b.sig)
    } else {
        metric.sim(a.value, b.value)
    };
    (s >= xi).then_some(s)
}

/// The similarity self-join operator.
pub struct SimilarityJoin<'m> {
    config: JoinConfig,
    metric: &'m dyn ValueSimilarity,
    recorder: hera_obs::Recorder,
}

impl<'m> SimilarityJoin<'m> {
    /// Creates a join with the given config and verifying metric.
    pub fn new(config: JoinConfig, metric: &'m dyn ValueSimilarity) -> Self {
        Self {
            config,
            metric,
            recorder: hera_obs::Recorder::disabled(),
        }
    }

    /// Attaches a journal recorder; the join emits a `join` span with its
    /// funnel counters (values → distinct → candidates → pairs).
    pub fn with_recorder(mut self, recorder: hera_obs::Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Joins all values of a dataset: every field of every record
    /// contributes one labeled value (`vid = 0`, base records).
    pub fn join_dataset(&self, ds: &Dataset) -> Vec<ValuePair> {
        self.join_refs(dataset_values(ds))
    }

    /// Joins an explicit labeled value collection.
    pub fn join(&self, values: &[(Label, Value)]) -> Vec<ValuePair> {
        self.join_refs(values.iter().map(|(label, v)| (*label, v)))
    }

    /// [`Self::join`] over borrowed values.
    fn join_refs<'a>(&self, values: impl Iterator<Item = (Label, &'a Value)>) -> Vec<ValuePair> {
        let t0 = Instant::now();
        // 1. Group labels by distinct value.
        let mut total_values = 0usize;
        let mut groups: FxHashMap<&Value, Vec<Label>> = FxHashMap::default();
        for (label, v) in values {
            total_values += 1;
            if !v.is_null() {
                groups.entry(v).or_default().push(label);
            }
        }
        let mut distinct: Vec<(&Value, Vec<Label>)> = groups.into_iter().collect();
        // Deterministic order.
        distinct.sort_unstable_by(|a, b| a.0.cmp(b.0));

        // 2. Pairs *across* distinct values `i < j`: scored once, expanded
        // to label pairs on the spot.
        let xi = self.config.xi;
        let expand = |out: &mut Vec<ValuePair>, i: usize, j: usize, s: f64| {
            for &a in &distinct[i].1 {
                for &b in &distinct[j].1 {
                    push_pair(out, a, b, s);
                }
            }
        };
        // Gram signatures are computed once and reused by the probe *and*
        // (when the metric declares gram compatibility) scoring.
        let declared = self.metric.qgram_compatible();
        let fast_grams = declared.is_some();
        let q = declared.unwrap_or(2);
        let sigs: Vec<Vec<u64>> = distinct
            .iter()
            .map(|(v, _)| folded_qgram_set(&v.text(), q))
            .collect();
        let sides: Vec<Side<'_>> = distinct
            .iter()
            .zip(&sigs)
            .map(|(&(value, _), sig)| Side {
                value,
                is_num: value.as_number().is_some(),
                sig,
                sketch: GramSketch::of(sig),
            })
            .collect();
        // Two numbers the sweep paired are its to emit, not the probe's.
        let swept = numeric::numeric_pairs(&distinct, self.metric, xi);
        let is_swept = |i: usize, j: usize| {
            let at = |&(a, b, _): &(usize, usize, f64)| (a, b).cmp(&(i, j));
            sides[i].is_num && sides[j].is_num && swept.binary_search_by(at).is_ok()
        };
        // The prefix filter exactly where it is complete.
        let threads = self.config.num_threads;
        let (mut out, scored) = inverted::probe(&sigs, xi, fast_grams, threads, |i, j, out| {
            if is_swept(i, j) {
                return false;
            }
            if let Some(s) = score(self.metric, fast_grams, xi, sides[i], sides[j]) {
                expand(out, i, j, s);
            }
            true
        });
        for &(i, j, s) in &swept {
            expand(&mut out, i, j, s);
        }
        let candidates = scored + swept.len();

        // 3. Pairs *within* one distinct-value group: sim(v, v), scored
        // as any other pair.
        for ((_, labels), &side) in distinct.iter().zip(&sides) {
            if labels.len() < 2 {
                continue;
            }
            if let Some(s) = score(self.metric, fast_grams, xi, side, side) {
                for (i, &la) in labels.iter().enumerate() {
                    for &lb in &labels[i + 1..] {
                        push_pair(&mut out, la, lb, s);
                    }
                }
            }
        }

        // The funnel counters are order-independent totals, so the span
        // is part of the deterministic core journal; wall-clock is a
        // separate diagnostic line.
        out.sort_unstable_by(output_order);
        self.recorder.span(
            "join",
            None,
            &[
                ("values", total_values as i64),
                ("distinct", distinct.len() as i64),
                ("candidates", candidates as i64),
                ("pairs", out.len() as i64),
            ],
        );
        self.recorder.timing("join", None, t0.elapsed());
        out
    }
}

/// The join's output order: `(rid1, rid2, sim desc, labels)`, a total
/// order on one join's pairs. Every join sorts by it, so two joins that
/// find the same pairs return the same vector.
pub fn output_order(x: &ValuePair, y: &ValuePair) -> std::cmp::Ordering {
    (x.a.rid, x.b.rid)
        .cmp(&(y.a.rid, y.b.rid))
        .then_with(|| {
            y.sim
                .partial_cmp(&x.sim)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .then_with(|| (x.a, x.b).cmp(&(y.a, y.b)))
}

/// Every non-null value of a dataset under its base label
/// `(rid, fid, 0)`.
fn dataset_values(ds: &Dataset) -> impl Iterator<Item = (Label, &Value)> {
    ds.iter().flat_map(|rec| {
        let values = rec.values.iter().enumerate();
        values
            .filter(|(_, v)| !v.is_null())
            .map(|(fid, v)| (Label::new(rec.id.raw(), fid as u32, 0), v))
    })
}

/// The all-pairs join, the oracle of the crate's tests: the metric asked
/// about every pair of distinct values, a value with itself included, with
/// no signature and no filter; sorted by [`output_order`].
#[cfg(test)]
pub(crate) fn all_pairs<'a>(
    values: impl IntoIterator<Item = (Label, &'a Value)>,
    xi: f64,
    metric: &dyn ValueSimilarity,
) -> Vec<ValuePair> {
    let mut distinct: std::collections::BTreeMap<&Value, Vec<Label>> = Default::default();
    for (label, v) in values {
        if !v.is_null() {
            distinct.entry(v).or_default().push(label);
        }
    }
    let distinct: Vec<(&Value, Vec<Label>)> = distinct.into_iter().collect();
    let mut out = Vec::new();
    for (i, (u, us)) in distinct.iter().enumerate() {
        for (j, (v, vs)) in distinct.iter().enumerate().skip(i) {
            let s = metric.sim(u, v);
            if s < xi {
                continue;
            }
            for (k, &a) in us.iter().enumerate() {
                let partners = if i == j { &vs[k + 1..] } else { &vs[..] };
                for &b in partners {
                    push_pair(&mut out, a, b, s);
                }
            }
        }
    }
    out.sort_unstable_by(output_order);
    out
}

/// [`all_pairs`] over a dataset's values, as [`SimilarityJoin::join_dataset`]
/// labels them.
#[cfg(test)]
pub(crate) fn all_pairs_of(ds: &Dataset, xi: f64, metric: &dyn ValueSimilarity) -> Vec<ValuePair> {
    all_pairs(dataset_values(ds), xi, metric)
}

/// Normalizes (smaller rid first) and drops intra-record pairs.
fn push_pair(out: &mut Vec<ValuePair>, a: Label, b: Label, sim: f64) {
    match a.rid.cmp(&b.rid) {
        std::cmp::Ordering::Equal => {} // same record: excluded by Def. 6
        std::cmp::Ordering::Less => out.push(ValuePair { a, b, sim }),
        std::cmp::Ordering::Greater => out.push(ValuePair { a: b, b: a, sim }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::test_metrics::ByKind;
    use hera_sim::TypeDispatch;
    use hera_types::motivating_example;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn labeled(vals: &[(u32, u32, Value)]) -> Vec<(Label, Value)> {
        vals.iter()
            .map(|(rid, fid, v)| (Label::new(*rid, *fid, 0), v.clone()))
            .collect()
    }

    #[test]
    fn identical_strings_pair_up() {
        let metric = TypeDispatch::paper_default();
        let join = SimilarityJoin::new(JoinConfig::new(0.5), &metric);
        let vals = labeled(&[
            (0, 0, Value::from("bush@gmail")),
            (1, 0, Value::from("bush@gmail")),
            (2, 0, Value::from("unrelated")),
        ]);
        let pairs = join.join(&vals);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].a.rid, 0);
        assert_eq!(pairs[0].b.rid, 1);
        assert_eq!(pairs[0].sim, 1.0);
    }

    #[test]
    fn intra_record_pairs_excluded() {
        let metric = TypeDispatch::paper_default();
        let join = SimilarityJoin::new(JoinConfig::new(0.5), &metric);
        let vals = labeled(&[
            (0, 0, Value::from("same")),
            (0, 1, Value::from("same")), // same record!
        ]);
        assert!(join.join(&vals).is_empty());
    }

    #[test]
    fn threshold_respected() {
        let metric = TypeDispatch::paper_default();
        let join = SimilarityJoin::new(JoinConfig::new(0.95), &metric);
        let vals = labeled(&[
            (0, 0, Value::from("Electronic")),
            (1, 0, Value::from("electronics")), // sim 0.9 < 0.95
        ]);
        assert!(join.join(&vals).is_empty());
        let join = SimilarityJoin::new(JoinConfig::new(0.9), &metric);
        let pairs = join.join(&vals);
        assert_eq!(pairs.len(), 1);
        assert!((pairs[0].sim - 0.9).abs() < 1e-9);
    }

    #[test]
    fn prefix_filter_matches_exhaustive_on_motivating_example() {
        let metric = TypeDispatch::paper_default();
        let ds = motivating_example();
        for xi in [0.3, 0.5, 0.7, 0.9] {
            let fast = SimilarityJoin::new(JoinConfig::new(xi), &metric).join_dataset(&ds);
            let slow = all_pairs_of(&ds, xi, &metric);
            assert_eq!(fast.len(), slow.len(), "xi={xi}");
            assert_eq!(fast, slow, "xi={xi}");
        }
    }

    #[test]
    fn numeric_values_join() {
        let metric = ByKind::new(hera_sim::QGramJaccard::default(), 5.0);
        let join = SimilarityJoin::new(JoinConfig::new(0.5), &metric);
        let vals = labeled(&[
            (0, 0, Value::from(1984i64)),
            (1, 0, Value::from(1985i64)), // sim 0.8
            (2, 0, Value::from(1999i64)), // too far
        ]);
        let pairs = join.join(&vals);
        assert_eq!(pairs.len(), 1);
        assert!((pairs[0].sim - 0.8).abs() < 1e-12);
    }

    #[test]
    fn mixed_string_number_pair() {
        let metric = TypeDispatch::paper_default();
        let join = SimilarityJoin::new(JoinConfig::new(0.9), &metric);
        let vals = labeled(&[(0, 0, Value::from("1984")), (1, 0, Value::from(1984i64))]);
        let pairs = join.join(&vals);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].sim, 1.0);
    }

    #[test]
    fn output_order_is_rid_then_sim_desc() {
        let metric = TypeDispatch::paper_default();
        let join = SimilarityJoin::new(JoinConfig::new(0.3), &metric);
        let vals = labeled(&[
            (0, 0, Value::from("abcdef")),
            (1, 0, Value::from("abcdef")),
            (1, 1, Value::from("abcdxx")),
            (2, 0, Value::from("abcdef")),
        ]);
        let pairs = join.join(&vals);
        // Groups: (0,1) then (0,2) then (1,2); within (0,1) sim desc.
        let rids: Vec<(u32, u32)> = pairs.iter().map(|p| (p.a.rid, p.b.rid)).collect();
        let mut sorted = rids.clone();
        sorted.sort_unstable();
        assert_eq!(rids, sorted);
        for w in pairs.windows(2) {
            if (w[0].a.rid, w[0].b.rid) == (w[1].a.rid, w[1].b.rid) {
                assert!(w[0].sim >= w[1].sim);
            }
        }
    }

    #[test]
    fn nulls_never_join() {
        let metric = TypeDispatch::paper_default();
        let join = SimilarityJoin::new(JoinConfig::new(0.0), &metric);
        let vals = labeled(&[(0, 0, Value::Null), (1, 0, Value::Null)]);
        assert!(join.join(&vals).is_empty());
    }

    /// The sketch bound only ever rejects pairs the exact score would
    /// reject too: the default join (signature path, bound on) must equal
    /// the exhaustive one, which asks the metric about every pair and
    /// never looks at a signature. (The probe's filters have their own
    /// oracle test in `inverted.rs`, the incremental scan its own in
    /// `incremental.rs`.)
    #[test]
    fn sketch_bound_does_not_change_output() {
        let metric = TypeDispatch::paper_default();
        let ds = motivating_example();
        for xi in [0.3, 0.5, 0.7, 0.9] {
            let join = SimilarityJoin::new(JoinConfig::new(xi), &metric);
            let oracle = all_pairs_of(&ds, xi, &metric);
            assert_eq!(join.join_dataset(&ds), oracle, "xi={xi}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// The filtered join must equal the exhaustive join when verifying
        /// with the default metric (prefix filter completeness).
        #[test]
        fn filtered_equals_exhaustive(seed in any::<u64>(), xi in 0.1f64..0.95) {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let words = ["electronic", "electronics", "manager", "managr",
                         "2 norman street", "2 west norman", "bush@gmail",
                         "john@gmail", "831-432", "247-326", "la"];
            let mut vals = Vec::new();
            for rid in 0..8u32 {
                for fid in 0..3u32 {
                    let w = words[rng.gen_range(0..words.len())];
                    vals.push((Label::new(rid, fid, 0), Value::from(w)));
                }
            }
            let metric = TypeDispatch::paper_default();
            let fast = SimilarityJoin::new(JoinConfig::new(xi), &metric).join(&vals);
            let slow = all_pairs(vals.iter().map(|(l, v)| (*l, v)), xi, &metric);
            prop_assert_eq!(fast, slow);
        }

        /// Every emitted pair satisfies the contract.
        #[test]
        fn emitted_pairs_satisfy_contract(seed in any::<u64>()) {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let words = ["aa", "ab", "abc", "abcd", "xyz", "xyzw"];
            let mut vals = Vec::new();
            for rid in 0..6u32 {
                for fid in 0..2u32 {
                    vals.push((Label::new(rid, fid, 0),
                               Value::from(words[rng.gen_range(0..words.len())])));
                }
            }
            let metric = TypeDispatch::paper_default();
            let xi = 0.4;
            for p in SimilarityJoin::new(JoinConfig::new(xi), &metric).join(&vals) {
                prop_assert!(p.a.rid < p.b.rid);
                prop_assert!(p.sim >= xi);
                prop_assert!(p.sim <= 1.0);
            }
        }
    }
}
