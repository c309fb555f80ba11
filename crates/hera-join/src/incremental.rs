//! Incremental similarity join: values arrive one at a time.
//!
//! The batch join (Definition 7) runs once, offline. Streaming entity
//! resolution needs the same result maintained under insertions: when a
//! new record's values arrive, find every existing value within ξ and
//! emit the new index entries. [`IncrementalJoin`] does that with the
//! same gram machinery as the batch join:
//!
//! * string-ish values are probed through an inverted gram index using
//!   the *share-a-gram* rule (complete for q-gram Jaccard at any ξ > 0 —
//!   prefix filtering needs a global frequency order, which shifts as the
//!   stream grows, so it is deliberately not used here);
//! * numeric values are probed through a sorted sweep, sound for metrics
//!   non-increasing in `|a − b|`;
//! * every candidate is scored by the batch join's own dispatch: the
//!   black-box metric, or — when the metric declares
//!   [`ValueSimilarity::qgram_compatible`] — gram signatures stored at
//!   registration time behind the sound [`GramSketch`] upper bound
//!   (bit-identical scores, no re-tokenization in the verify loop).
//!
//! Labels mutate when records merge (the index relabels its entries);
//! [`IncrementalJoin::relabel`] applies the same remap here so future
//! insertions emit pairs against *current* labels.

use crate::{score, Side, ValuePair};
use hera_sim::text::{folded_qgram_set, GramSketch};
use hera_sim::ValueSimilarity;
use hera_types::json::Json;
use hera_types::{HeraError, Label, Result, Value};
use rustc_hash::FxHashMap;

struct Entry {
    label: Label,
    value: Value,
    /// Folded gram signature, kept so verification never re-tokenizes.
    sig: Vec<u64>,
    sketch: GramSketch,
    is_num: bool,
}

/// Insert-only similarity join state. Owns its metric (`Arc`) so it can
/// live inside long-running session state.
pub struct IncrementalJoin {
    xi: f64,
    q: usize,
    metric: std::sync::Arc<dyn ValueSimilarity>,
    /// True iff the metric's string leg is exactly q-gram Jaccard at our
    /// gram length — enables signature scoring + the sketch prefilter.
    fast_grams: bool,
    entries: Vec<Entry>,
    /// gram token → entry indices containing it.
    postings: FxHashMap<u64, Vec<usize>>,
    /// entry indices of numeric values, kept sorted by numeric value.
    numeric: Vec<(f64, usize)>,
    /// rid → entry indices (for relabeling after merges).
    by_rid: FxHashMap<u32, Vec<usize>>,
}

impl IncrementalJoin {
    /// Creates an empty incremental join.
    ///
    /// # Panics
    /// Panics unless `0 < xi ≤ 1` (share-a-gram completeness needs a
    /// strictly positive threshold) or `q == 0`.
    pub fn new(xi: f64, q: usize, metric: std::sync::Arc<dyn ValueSimilarity>) -> Self {
        assert!(xi > 0.0 && xi <= 1.0, "xi must be in (0, 1]");
        assert!(q >= 1, "q must be at least 1");
        let fast_grams = metric.qgram_compatible() == Some(q);
        Self {
            xi,
            q,
            metric,
            fast_grams,
            entries: Vec::new(),
            postings: FxHashMap::default(),
            numeric: Vec::new(),
            by_rid: FxHashMap::default(),
        }
    }

    /// Number of values inserted.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing was inserted yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts one labeled value and returns all new similar pairs
    /// against previously inserted values of *other* records, normalized
    /// (`a.rid < b.rid`) and ordered by partner label.
    pub fn insert(&mut self, label: Label, value: Value) -> Vec<ValuePair> {
        self.insert_filtered(label, value, |_| true)
    }

    /// [`IncrementalJoin::insert`] restricted to a candidate-record
    /// filter: only pairs whose partner rid passes `allowed` are scored
    /// and emitted. The value is registered either way (it must be
    /// probe-able by future insertions). The tests use the filter as the
    /// probing oracle for [`IncrementalJoin::insert_among`].
    fn insert_filtered(
        &mut self,
        label: Label,
        value: Value,
        allowed: impl Fn(u32) -> bool,
    ) -> Vec<ValuePair> {
        if value.is_null() {
            return Vec::new();
        }
        let sig = folded_qgram_set(&value.to_text(), self.q);

        // Candidates: share a gram, or numeric neighbor.
        let mut cand: Vec<usize> = Vec::new();
        for &t in &sig {
            if let Some(list) = self.postings.get(&t) {
                cand.extend(list.iter().copied());
            }
        }
        if let Some(x) = value.as_number() {
            // Walk outward from the insertion point while the metric
            // stays above ξ (monotone in distance).
            let pos = self.numeric.partition_point(|&(v, _)| v < x);
            for &(_, i) in self.numeric[pos..].iter() {
                if self.metric.sim(&value, &self.entries[i].value) >= self.xi {
                    cand.push(i);
                } else {
                    break;
                }
            }
            for &(_, i) in self.numeric[..pos].iter().rev() {
                if self.metric.sim(&value, &self.entries[i].value) >= self.xi {
                    cand.push(i);
                } else {
                    break;
                }
            }
        }
        cand.sort_unstable();
        cand.dedup();

        cand.retain(|&i| allowed(self.entries[i].label.rid));
        let out = self.verify(label, &value, &sig, cand);
        self.register(label, value, &sig);
        out
    }

    /// [`IncrementalJoin::insert`] restricted to an explicit candidate
    /// *record* list: the value is verified against every stored value of
    /// the `rids` given (the blocked streaming path — candidates come
    /// from the blocker, so the inverted gram index and numeric sweep are
    /// not probed at all, making insert cost proportional to the
    /// co-blocked neighborhood instead of the live-value universe).
    ///
    /// Like the batch blocked join, this verifies the allowed cross
    /// product directly with the same dispatch as
    /// [`IncrementalJoin::insert`], so for the default gram-compatible
    /// metric it emits exactly the pairs `insert` would emit against the
    /// same record set (share-a-gram candidate generation is complete
    /// for q-gram Jaccard); an exotic metric scoring
    /// zero-gram-overlap string pairs above ξ can only gain pairs here,
    /// never lose one. Entries of `label`'s own record never pair, and
    /// the value is registered for future probes either way.
    pub fn insert_among(&mut self, label: Label, value: Value, rids: &[u32]) -> Vec<ValuePair> {
        if value.is_null() {
            return Vec::new();
        }
        let sig = folded_qgram_set(&value.to_text(), self.q);
        let mut cand: Vec<usize> = Vec::new();
        for rid in rids {
            if let Some(list) = self.by_rid.get(rid) {
                cand.extend(list.iter().copied());
            }
        }
        cand.sort_unstable();
        cand.dedup();
        let out = self.verify(label, &value, &sig, cand);
        self.register(label, value, &sig);
        out
    }

    /// Scores the incoming value against the stored entries `cand` of
    /// other records ([`score`], the batch join's dispatch) and returns
    /// the normalized pairs that clear ξ, ordered by label.
    fn verify(&self, label: Label, value: &Value, sig: &[u64], cand: Vec<usize>) -> Vec<ValuePair> {
        let incoming = Side {
            value,
            is_num: value.as_number().is_some(),
            sig,
            sketch: GramSketch::of(sig),
        };
        let mut out = Vec::new();
        for other in cand.into_iter().map(|i| &self.entries[i]) {
            if other.label.rid == label.rid {
                continue;
            }
            let stored = Side {
                value: &other.value,
                is_num: other.is_num,
                sig: &other.sig,
                sketch: other.sketch,
            };
            if let Some(sim) = score(
                self.metric.as_ref(),
                self.fast_grams,
                self.xi,
                incoming,
                stored,
            ) {
                let (a, b) = if label.rid < other.label.rid {
                    (label, other.label)
                } else {
                    (other.label, label)
                };
                out.push(ValuePair { a, b, sim });
            }
        }
        out.sort_unstable_by_key(|x| (x.a, x.b));
        out
    }

    /// Registers a value in the probe structures without emitting pairs.
    /// Shared by [`IncrementalJoin::insert`] and snapshot restore, which
    /// replays registration in entry order to rebuild the postings,
    /// numeric sweep, and rid maps bit-identically.
    fn register(&mut self, label: Label, value: Value, sig: &[u64]) {
        let idx = self.entries.len();
        for &t in sig {
            self.postings.entry(t).or_default().push(idx);
        }
        let num = value.as_number();
        if let Some(x) = num {
            let pos = self.numeric.partition_point(|&(v, _)| v < x);
            self.numeric.insert(pos, (x, idx));
        }
        self.by_rid.entry(label.rid).or_default().push(idx);
        self.entries.push(Entry {
            label,
            value,
            sig: sig.to_vec(),
            sketch: GramSketch::of(sig),
            is_num: num.is_some(),
        });
    }

    /// Encodes the join state as JSON: the threshold, gram length, and
    /// the `(label, value)` entries in insertion order. The derived probe
    /// structures (postings, numeric sweep, rid map) are not serialized —
    /// [`IncrementalJoin::from_json`] rebuilds them by replaying
    /// registration, which is deterministic given the same entry order.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("xi".into(), Json::Float(self.xi)),
            ("q".into(), Json::Int(self.q as i64)),
            (
                "entries".into(),
                Json::Arr(
                    self.entries
                        .iter()
                        .map(|e| {
                            Json::Obj(vec![
                                ("label".into(), e.label.to_json()),
                                ("value".into(), e.value.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Decodes a join from [`IncrementalJoin::to_json`] output. The
    /// metric is not serialized (it is arbitrary user code); the caller
    /// supplies the same metric the session was built with.
    pub fn from_json(json: &Json, metric: std::sync::Arc<dyn ValueSimilarity>) -> Result<Self> {
        let xi = json.expect("xi")?.as_f64()?;
        let q = json.expect("q")?.as_i64()?;
        if !(xi > 0.0 && xi <= 1.0) {
            return Err(HeraError::Corrupt(format!(
                "join threshold xi = {xi} outside (0, 1]"
            )));
        }
        if !(1..=64).contains(&q) {
            return Err(HeraError::Corrupt(format!("join gram length q = {q}")));
        }
        let mut join = Self::new(xi, q as usize, metric);
        for e in json.expect("entries")?.as_arr()? {
            let label = Label::from_json(e.expect("label")?)?;
            let value = Value::from_json(e.expect("value")?)?;
            if value.is_null() {
                return Err(HeraError::Corrupt(format!(
                    "join entry {label} holds a null value"
                )));
            }
            let sig = folded_qgram_set(&value.to_text(), join.q);
            join.register(label, value, &sig);
        }
        Ok(join)
    }

    /// Applies a merge remap: every stored label of records `i` or `j`
    /// moves to its new label under the surviving rid (mirror of
    /// `ValuePairIndex::merge`).
    pub fn relabel(&mut self, i: u32, j: u32, remap: impl Fn(Label) -> Label) {
        let mut moved: Vec<usize> = Vec::new();
        for rid in [i, j] {
            if let Some(list) = self.by_rid.remove(&rid) {
                moved.extend(list);
            }
        }
        let mut new_rid = None;
        for &idx in &moved {
            let l = remap(self.entries[idx].label);
            self.entries[idx].label = l;
            debug_assert!(new_rid.is_none() || new_rid == Some(l.rid));
            new_rid = Some(l.rid);
        }
        if let Some(k) = new_rid {
            self.by_rid.entry(k).or_default().extend(moved);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JoinConfig, SimilarityJoin};
    use hera_sim::TypeDispatch;

    fn label(rid: u32, fid: u32) -> Label {
        Label::new(rid, fid, 0)
    }

    use std::sync::Arc;

    #[test]
    fn incremental_matches_batch() {
        let metric = TypeDispatch::paper_default();
        let values: Vec<(Label, Value)> = vec![
            (label(0, 0), Value::from("electronic")),
            (label(0, 1), Value::from("831-432")),
            (label(1, 0), Value::from("electronics")),
            (label(1, 1), Value::from("831-432")),
            (label(2, 0), Value::from("unrelated stuff")),
            (label(3, 0), Value::from(1984i64)),
            (label(4, 0), Value::from(1984i64)),
        ];
        for xi in [0.3, 0.5, 0.9] {
            let batch = SimilarityJoin::new(JoinConfig::new(xi), &metric).join(&values);
            let mut inc = IncrementalJoin::new(xi, 2, Arc::new(metric.clone()));
            let mut streamed: Vec<ValuePair> = Vec::new();
            for (l, v) in &values {
                streamed.extend(inc.insert(*l, v.clone()));
            }
            streamed.sort_unstable_by(crate::output_order);
            assert_eq!(streamed, batch, "xi = {xi}");
        }
    }

    /// Same metric values, but hidden behind a wrapper that does not
    /// declare `qgram_compatible` — forcing every candidate through
    /// `metric.sim`. The signature/sketch fast path must emit exactly the
    /// same pair stream on every insert.
    #[test]
    fn signature_fast_path_matches_metric_path() {
        #[derive(Clone)]
        struct Opaque(TypeDispatch);
        impl ValueSimilarity for Opaque {
            fn sim(&self, a: &Value, b: &Value) -> f64 {
                self.0.sim(a, b)
            }
            fn name(&self) -> &'static str {
                "opaque"
            }
        }

        let metric = TypeDispatch::paper_default();
        assert_eq!(metric.qgram_compatible(), Some(2), "fast path engages");
        let values: Vec<(Label, Value)> = vec![
            (label(0, 0), Value::from("electronic")),
            (label(0, 1), Value::from("1984")),
            (label(1, 0), Value::from("electronics")),
            (label(1, 1), Value::from(1984i64)),
            (label(2, 0), Value::from("electro")),
            (label(3, 0), Value::from("unrelated stuff")),
            (label(4, 0), Value::from(1985i64)),
            (label(5, 0), Value::from("electronic")),
        ];
        for xi in [0.3, 0.7] {
            let mut fast = IncrementalJoin::new(xi, 2, Arc::new(metric.clone()));
            let mut slow = IncrementalJoin::new(xi, 2, Arc::new(Opaque(metric.clone())));
            assert!(fast.fast_grams);
            assert!(!slow.fast_grams);
            for (l, v) in &values {
                let a = fast.insert(*l, v.clone());
                let b = slow.insert(*l, v.clone());
                assert_eq!(a, b, "xi = {xi}, inserting {l}");
            }
        }
    }

    #[test]
    fn same_record_values_never_pair() {
        let metric = TypeDispatch::paper_default();
        let mut inc = IncrementalJoin::new(0.5, 2, Arc::new(metric.clone()));
        assert!(inc.insert(label(0, 0), Value::from("same")).is_empty());
        assert!(inc.insert(label(0, 1), Value::from("same")).is_empty());
        assert_eq!(inc.len(), 2);
    }

    #[test]
    fn nulls_are_ignored() {
        let metric = TypeDispatch::paper_default();
        let mut inc = IncrementalJoin::new(0.5, 2, Arc::new(metric.clone()));
        assert!(inc.insert(label(0, 0), Value::Null).is_empty());
        assert!(inc.is_empty());
    }

    #[test]
    fn relabel_redirects_future_pairs() {
        let metric = TypeDispatch::paper_default();
        let mut inc = IncrementalJoin::new(0.5, 2, Arc::new(metric.clone()));
        inc.insert(label(5, 0), Value::from("bush@gmail"));
        // Record 5 merged into record 1, field shifted to 3.
        inc.relabel(1, 5, |l| {
            if l.rid == 5 {
                Label::new(1, 3, l.vid)
            } else {
                l
            }
        });
        let pairs = inc.insert(label(9, 0), Value::from("bush@gmail"));
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].a, Label::new(1, 3, 0));
        assert_eq!(pairs[0].b, label(9, 0));
    }

    #[test]
    fn numeric_sweep_finds_neighbors() {
        use hera_sim::NumericProximity;
        use std::sync::Arc;
        let metric =
            TypeDispatch::paper_default().with_numeric_metric(Arc::new(NumericProximity::new(5.0)));
        let mut inc = IncrementalJoin::new(0.5, 2, Arc::new(metric.clone()));
        inc.insert(label(0, 0), Value::from(1980i64));
        inc.insert(label(1, 0), Value::from(1990i64));
        let pairs = inc.insert(label(2, 0), Value::from(1981i64));
        // 1981 vs 1980 → sim 0.8; vs 1990 → 0. Gram overlap of "1981" and
        // "1980"/"1990" also exists but numeric dispatch scores them.
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].a.rid, 0);
        assert!((pairs[0].sim - 0.8).abs() < 1e-12);
    }

    #[test]
    fn json_roundtrip_emits_identical_future_pairs() {
        let metric = TypeDispatch::paper_default();
        let mut live = IncrementalJoin::new(0.5, 2, Arc::new(metric.clone()));
        live.insert(label(0, 0), Value::from("electronic"));
        live.insert(label(1, 0), Value::from("electronics"));
        live.insert(label(2, 0), Value::from(1984i64));
        live.relabel(0, 1, |l| {
            if l.rid == 1 {
                Label::new(0, 7, l.vid)
            } else {
                l
            }
        });

        let dump = live.to_json().to_string_compact();
        let mut restored = IncrementalJoin::from_json(
            &hera_types::json::parse(&dump).unwrap(),
            Arc::new(metric.clone()),
        )
        .unwrap();
        assert_eq!(restored.len(), live.len());
        assert_eq!(restored.to_json().to_string_compact(), dump, "fixpoint");

        let a = live.insert(label(9, 0), Value::from("electronic"));
        let b = restored.insert(label(9, 0), Value::from("electronic"));
        assert_eq!(a, b, "restored join emits the same pairs");
        assert!(!a.is_empty());
    }

    #[test]
    fn json_rejects_bad_threshold() {
        let metric = TypeDispatch::paper_default();
        let json = hera_types::json::parse(r#"{"xi":1.5,"q":2,"entries":[]}"#).unwrap();
        let err = match IncrementalJoin::from_json(&json, Arc::new(metric)) {
            Ok(_) => panic!("bad xi accepted"),
            Err(e) => e,
        };
        assert!(matches!(err, hera_types::HeraError::Corrupt(_)), "{err}");
    }

    #[test]
    #[should_panic(expected = "xi")]
    fn zero_xi_rejected() {
        let metric = TypeDispatch::paper_default();
        IncrementalJoin::new(0.0, 2, Arc::new(metric));
    }

    /// `insert` is `insert_filtered` with an always-true filter, and a
    /// filtered insert emits exactly the unfiltered pairs whose partner
    /// rid passes — same pairs, same sims, same order — while still
    /// registering the value for future candidates either way.
    #[test]
    fn insert_filtered_is_a_restriction_of_insert() {
        let metric = TypeDispatch::paper_default();
        let values: Vec<(Label, Value)> = vec![
            (label(0, 0), Value::from("electronic")),
            (label(1, 0), Value::from("electronics")),
            (label(2, 0), Value::from("electronical")),
            (label(3, 0), Value::from("electronic")),
        ];
        let mut plain = IncrementalJoin::new(0.3, 2, Arc::new(metric.clone()));
        let mut open = IncrementalJoin::new(0.3, 2, Arc::new(metric.clone()));
        let mut gated = IncrementalJoin::new(0.3, 2, Arc::new(metric.clone()));
        for (l, v) in &values {
            let a = plain.insert(*l, v.clone());
            let b = open.insert_filtered(*l, v.clone(), |_| true);
            assert_eq!(a, b, "always-true filter must match insert bit for bit");
            // Gate out rid 1 as a *candidate*: pairs whose partner is
            // rid 1 vanish, the rest are untouched — including rid 1's
            // own insert against earlier values, proving the filter
            // constrains candidates, not registration.
            let c = gated.insert_filtered(*l, v.clone(), |r| r != 1);
            let expect: Vec<ValuePair> = a
                .iter()
                .filter(|p| {
                    let partner = if p.a.rid == l.rid { p.b.rid } else { p.a.rid };
                    partner != 1
                })
                .copied()
                .collect();
            assert_eq!(
                c, expect,
                "filter must only remove the gated candidate's pairs"
            );
        }
    }

    /// With the default gram-compatible metric, `insert_among(rids)` is
    /// bit-identical to `insert_filtered(set-membership)` — it verifies
    /// the allowed cross product directly instead of probing the gram
    /// index, but share-a-gram candidate generation is complete for
    /// q-gram Jaccard, so neither path can see a pair the other misses.
    #[test]
    fn insert_among_matches_insert_filtered() {
        use hera_sim::NumericProximity;
        let metric =
            TypeDispatch::paper_default().with_numeric_metric(Arc::new(NumericProximity::new(5.0)));
        let values: Vec<(Label, Value)> = vec![
            (label(0, 0), Value::from("electronic")),
            (label(0, 1), Value::from(1980i64)),
            (label(1, 0), Value::from("electronics")),
            (label(1, 1), Value::from(1981i64)),
            (label(2, 0), Value::from("unrelated stuff")),
            (label(3, 0), Value::from("electronic")),
            (label(3, 1), Value::from(1990i64)),
            (label(4, 0), Value::from("electro")),
        ];
        // Every subset of earlier records as the allowed set, at two
        // thresholds: same pairs, same sims, same order.
        for xi in [0.3, 0.7] {
            for mask in 0u32..32 {
                let mut filtered = IncrementalJoin::new(xi, 2, Arc::new(metric.clone()));
                let mut among = IncrementalJoin::new(xi, 2, Arc::new(metric.clone()));
                for (l, v) in &values {
                    let rids: Vec<u32> = (0..5).filter(|r| mask & (1 << r) != 0).collect();
                    let a = filtered.insert_filtered(*l, v.clone(), |r| rids.contains(&r));
                    let b = among.insert_among(*l, v.clone(), &rids);
                    assert_eq!(a, b, "xi = {xi}, mask = {mask:b}, inserting {l}");
                }
            }
        }
    }
}
