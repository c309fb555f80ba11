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
//! insertions emit pairs against *current* labels. A merge that folds
//! two equal values onto one label leaves one live entry, the one the
//! merged super record kept, so the live `(label, value)` set is the
//! super records' value set and no label is ever scored twice.

use crate::{score, Side, ValuePair};
use hera_sim::text::{folded_qgram_set, GramSketch};
use hera_sim::ValueSimilarity;
use hera_types::{Label, Value};
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
    /// Every value ever registered, by entry index; `None` once a merge
    /// folded the value onto a label another entry already held.
    entries: Vec<Option<Entry>>,
    /// gram token → entry indices containing it (retired ones linger
    /// and are skipped when probed).
    postings: FxHashMap<u64, Vec<usize>>,
    /// entry indices of numeric values, kept sorted by numeric value
    /// (retired ones linger and are skipped when swept).
    numeric: Vec<(f64, usize)>,
    /// rid → live entry indices.
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

    /// Number of live values: those inserted, minus those a merge folded
    /// onto a label that already held an equal value.
    pub fn len(&self) -> usize {
        self.by_rid.values().map(Vec::len).sum()
    }

    /// True if no value is live.
    pub fn is_empty(&self) -> bool {
        self.by_rid.is_empty()
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
                let Some(e) = &self.entries[i] else { continue };
                if self.metric.sim(&value, &e.value) >= self.xi {
                    cand.push(i);
                } else {
                    break;
                }
            }
            for &(_, i) in self.numeric[..pos].iter().rev() {
                let Some(e) = &self.entries[i] else { continue };
                if self.metric.sim(&value, &e.value) >= self.xi {
                    cand.push(i);
                } else {
                    break;
                }
            }
        }
        cand.sort_unstable();
        cand.dedup();

        cand.retain(|&i| {
            self.entries[i]
                .as_ref()
                .is_some_and(|e| allowed(e.label.rid))
        });
        let out = self.verify(label, &value, &sig, cand);
        self.register_sig(label, value, &sig);
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
        self.register_sig(label, value, &sig);
        out
    }

    /// Scores the incoming value against the live entries `cand` of
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
        for other in cand.into_iter().map(|i| self.entry(i)) {
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

    /// The live entry at `idx`; `by_rid` and the filtered candidate lists
    /// hold no other kind.
    fn entry(&self, idx: usize) -> &Entry {
        self.entries[idx]
            .as_ref()
            .expect("a live entry index names a live entry")
    }

    /// Registers a value for future probes without scoring it against
    /// anything: what a restored session does with every value of its
    /// super records. Pairs emitted later do not depend on the order
    /// values were registered in, labels being unique and
    /// [`IncrementalJoin::insert`]'s output sorted by label. Nulls are
    /// ignored, as on insert.
    pub fn register(&mut self, label: Label, value: Value) {
        if !value.is_null() {
            let sig = folded_qgram_set(&value.to_text(), self.q);
            self.register_sig(label, value, &sig);
        }
    }

    fn register_sig(&mut self, label: Label, value: Value, sig: &[u64]) {
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
        self.entries.push(Some(Entry {
            label,
            value,
            sig: sig.to_vec(),
            sketch: GramSketch::of(sig),
            is_num: num.is_some(),
        }));
    }

    /// Applies a merge remap: every stored label of records `i` or `j`
    /// moves to its new label under the surviving rid (mirror of
    /// `ValuePairIndex::merge`). Where the remap folds several values
    /// onto one label — the merged super record kept one of two equal
    /// values — one entry stays live: the surviving record's own if it
    /// has one, else the moved-in entry with the smallest old label,
    /// which is the value `SuperRecord::absorb` keeps. The others are
    /// dropped with their value and signature.
    pub fn relabel(&mut self, i: u32, j: u32, remap: impl Fn(Label) -> Label) {
        // (new label, moved in, old label, entry index): sorted, each
        // run of one new label starts with the entry that keeps it.
        let mut moved: Vec<(Label, bool, Label, usize)> = Vec::new();
        for rid in [i, j] {
            for idx in self.by_rid.remove(&rid).unwrap_or_default() {
                let old = self.entry(idx).label;
                let new = remap(old);
                moved.push((new, new.rid != old.rid, old, idx));
            }
        }
        moved.sort_unstable();
        let mut held = None;
        for (new, _, _, idx) in moved {
            if held == Some(new) {
                self.entries[idx] = None;
                continue;
            }
            held = Some(new);
            self.entries[idx].as_mut().expect("live, read above").label = new;
            self.by_rid.entry(new.rid).or_default().push(idx);
        }
    }

    /// Checks that the live `(label, value)` set is exactly `expected` —
    /// the same labels, each holding the same variant of the same value.
    /// A session passes the values of its super records; the error names
    /// a label that differs.
    pub fn check_values<'a>(
        &self,
        expected: impl IntoIterator<Item = (Label, &'a Value)>,
    ) -> Result<(), String> {
        let mut live: FxHashMap<Label, &Value> = FxHashMap::default();
        for e in self.by_rid.values().flatten().map(|&idx| self.entry(idx)) {
            if live.insert(e.label, &e.value).is_some() {
                return Err(format!("two live join entries share label {}", e.label));
            }
        }
        for (label, value) in expected {
            let Some(held) = live.remove(&label) else {
                return Err(format!("join holds no value at {label}"));
            };
            let same_variant = std::mem::discriminant(held) == std::mem::discriminant(value);
            if !same_variant || held.to_text() != value.to_text() {
                return Err(format!(
                    "join holds {held:?} at {label}, the super record {value:?}"
                ));
            }
        }
        match live.keys().min() {
            Some(extra) => Err(format!(
                "join holds a value at {extra} that no super record has"
            )),
            None => Ok(()),
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

    /// Records 0 and 1 both hold "bush@gmail" (and distinct names) and
    /// merge: the merged super record keeps one copy of the equal value,
    /// and so does the join. A third record holding it too is then
    /// scored once per label, probing or blocked, where a join that kept
    /// both entries emitted the `(0,1,0)` pair twice.
    #[test]
    fn values_folded_by_a_merge_are_scored_once() {
        let metric = TypeDispatch::paper_default();
        let mut probing = IncrementalJoin::new(0.5, 2, Arc::new(metric.clone()));
        let mut blocked = IncrementalJoin::new(0.5, 2, Arc::new(metric.clone()));
        for join in [&mut probing, &mut blocked] {
            join.insert(label(0, 0), Value::from("john bush"));
            join.insert(label(0, 1), Value::from("bush@gmail"));
            join.insert(label(1, 0), Value::from("j. bush"));
            join.insert(label(1, 1), Value::from("bush@gmail"));
            assert_eq!(join.len(), 4);
            // 1 folds into 0: the names stay apart as two values of
            // field 0, the equal mail values share label (0, 1, 0).
            join.relabel(0, 1, |l| match (l.rid, l.fid) {
                (1, 0) => Label::new(0, 0, 1),
                (1, 1) => Label::new(0, 1, 0),
                _ => l,
            });
            assert_eq!(join.len(), 3, "len counts live entries");
            join.check_values([
                (Label::new(0, 0, 0), &Value::from("john bush")),
                (Label::new(0, 0, 1), &Value::from("j. bush")),
                (Label::new(0, 1, 0), &Value::from("bush@gmail")),
            ])
            .unwrap();
        }
        let a = probing.insert(label(2, 0), Value::from("bush@gmail"));
        let b = blocked.insert_among(label(2, 0), Value::from("bush@gmail"), &[0]);
        assert_eq!(a, b);
        assert_eq!(
            a,
            vec![ValuePair {
                a: Label::new(0, 1, 0),
                b: label(2, 0),
                sim: 1.0
            }]
        );
        assert_eq!(probing.len(), 4);
    }

    /// A numeric value retired by a merge must not cut the sweep short:
    /// the walk outward steps over it to the live neighbour behind it.
    #[test]
    fn numeric_sweep_steps_over_retired_values() {
        use hera_sim::NumericProximity;
        let metric =
            TypeDispatch::paper_default().with_numeric_metric(Arc::new(NumericProximity::new(5.0)));
        let mut inc = IncrementalJoin::new(0.5, 2, Arc::new(metric));
        inc.insert(label(0, 0), Value::from(1980i64));
        inc.insert(label(1, 0), Value::from(1981i64));
        inc.insert(label(2, 0), Value::from(1981i64));
        // 2 folds into 1; the two 1981s share a label, one is retired.
        inc.relabel(1, 2, |l| Label::new(1, l.fid, l.vid));
        assert_eq!(inc.len(), 2);
        let pairs = inc.insert(label(3, 0), Value::from(1982i64));
        let partners: Vec<Label> = pairs.iter().map(|p| p.a).collect();
        assert_eq!(partners, vec![label(0, 0), label(1, 0)]);
    }

    /// `register` makes a value probe-able without scoring it, in any
    /// order: a join rebuilt from the live values in label order emits
    /// what the join that saw them arrive (and merge) emits.
    #[test]
    fn registered_values_answer_like_inserted_ones() {
        let metric = TypeDispatch::paper_default();
        let mut live = IncrementalJoin::new(0.5, 2, Arc::new(metric.clone()));
        live.insert(label(1, 0), Value::from("electronics"));
        live.insert(label(2, 0), Value::from(1984i64));
        live.insert(label(0, 0), Value::from("electronic"));
        live.relabel(0, 1, |l| {
            if l.rid == 1 {
                Label::new(0, 7, l.vid)
            } else {
                l
            }
        });

        let mut rebuilt = IncrementalJoin::new(0.5, 2, Arc::new(metric));
        rebuilt.register(label(0, 0), Value::from("electronic"));
        rebuilt.register(Label::new(0, 7, 0), Value::from("electronics"));
        rebuilt.register(label(2, 0), Value::from(1984i64));
        rebuilt.register(label(2, 1), Value::Null);
        assert_eq!(rebuilt.len(), live.len());

        let a = live.insert(label(9, 0), Value::from("electronic"));
        let b = rebuilt.insert(label(9, 0), Value::from("electronic"));
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
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
