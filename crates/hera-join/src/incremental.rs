//! Incremental similarity join: records arrive one at a time.
//!
//! The batch join (Definition 7) runs once, offline. Streaming entity
//! resolution needs the same result maintained under insertions: when a
//! new record's values arrive, find every stored value within ξ and emit
//! the new index entries. [`IncrementalJoin`] keeps every live value with
//! its gram signature and answers through two kinds of door.
//!
//! **The blocked doors** — [`IncrementalJoin::insert_record_among`] and
//! its one-value case [`IncrementalJoin::insert_among`] — take the
//! records a blocker allows and never look at a gram index:
//!
//! 1. *Gather, once per record.* Two tables are dense, one by rid — the
//!    live entry indices of each record — and one by entry index — the
//!    hot row of each value: sketch, numeric flag, signature length. The
//!    allowed records' rows are walked twice, to size one bucket per
//!    signature length and to fill them: a counting sort into one
//!    neighbourhood, in buffers the join owns and every gather refills.
//! 2. *Filter, once per value and length.* A stored length `|y|` can pair
//!    with the incoming `|x|` only if `min(|x|, |y|) ≥ α(|x| + |y|)`, α
//!    being the batch probe's required overlap `⌈ξ/(1+ξ)·(|x|+|y|)⌉`
//!    ([`RequiredOverlap`]); the lengths outside that window are skipped
//!    whole. Inside it α is fixed per length, and a row survives the
//!    integer sketch test [`GramSketch::may_share`] or is dropped without
//!    its entry being touched. The loop over a bucket does nothing else:
//!    what the incoming value is — a string, a number (whose numeric rows
//!    survive regardless), a value under a metric that is not gram
//!    compatible (every row survives) — is decided outside it.
//! 3. *Score the survivors*, in one loop behind the filters, by the batch
//!    join's own dispatch ([`score`]): the sketch bound again and the
//!    exact Jaccard over the stored signatures when the metric declares
//!    [`ValueSimilarity::qgram_compatible`], the black-box metric
//!    otherwise. Both filters are sound for q-gram Jaccard, so the output
//!    is what scoring every row would give. Two numbers skip the gram
//!    filters and go to the metric.
//! 4. *Register* the record's values, after all of them were scored.
//!
//! The neighbourhood stays materialised. Testing each stored row of the
//! allowed records against the record's values directly, through
//! per-value length windows, was measured ≈ 0.05 s slower on the 5 000
//! record blocked stream than gathering and scanning by bucket: skipping
//! a whole out-of-window bucket per value is worth more than the copy.
//!
//! **The probing door** — [`IncrementalJoin::insert`] — has no blocker
//! to narrow the universe, so it finds candidates itself: string-ish
//! values through an inverted gram index under the *share-a-gram* rule
//! (complete for q-gram Jaccard at any ξ > 0 — prefix filtering needs a
//! global frequency order, which shifts as the stream grows), numeric
//! values through a sorted sweep, sound for metrics non-increasing in
//! `|a − b|`. The candidates then go through the same gather and scan.
//! The gram postings and the numeric order are filed lazily, when
//! `insert` is first called and from then on before each probe: a join
//! that is only ever asked through the blocked doors never builds them.
//!
//! Labels mutate when records merge (the index relabels its entries);
//! [`IncrementalJoin::relabel`] applies the same remap here so future
//! insertions emit pairs against *current* labels. A merge that folds
//! two equal values onto one label leaves one live entry, the one the
//! merged super record kept, so the live `(label, value)` set is the
//! super records' value set and no label is ever scored twice.

use crate::inverted::RequiredOverlap;
use crate::{score, Side, ValuePair};
use hera_sim::text::{folded_qgram_set, GramSketch};
use hera_sim::ValueSimilarity;
use hera_types::{Label, Value};
use rustc_hash::FxHashMap;
use std::borrow::Cow;

/// What scoring reads of a stored value; the scan never touches it for a
/// row the filters drop.
struct Entry {
    label: Label,
    value: Value,
    /// Folded gram signature, kept so verification never re-tokenizes.
    sig: Vec<u64>,
}

/// What the filters read of a value.
#[derive(Clone, Copy)]
struct Hot {
    sketch: GramSketch,
    /// Signature length.
    len: u32,
    is_num: bool,
}

/// A value that was tokenized and not yet registered.
struct Pending {
    entry: Entry,
    hot: Hot,
}

/// One stored value as the scan sees it; its length is its bucket's.
#[derive(Clone, Copy, Default)]
struct Row {
    sketch: GramSketch,
    /// Entry index.
    idx: u32,
    is_num: bool,
}

/// The live values an incoming value may pair with, ordered by signature
/// length: `rows[starts[len]..starts[len + 1]]` are those of length `len`.
/// Every gather refills it; nothing of the previous one is read.
#[derive(Default)]
struct Neighbourhood {
    rows: Vec<Row>,
    starts: Vec<u32>,
    /// While a gather fills the buckets: where the next row of each
    /// length goes.
    next: Vec<u32>,
}

impl Neighbourhood {
    /// Counting-sorts the hot rows of the live entries `indices` yields
    /// by signature length. `indices` is walked twice — to size the
    /// buckets, then to fill them — and never copied out.
    fn gather(&mut self, hot: &[Hot], indices: impl Iterator<Item = u32> + Clone) {
        let Self { rows, starts, next } = self;
        starts.clear();
        starts.resize(2, 0);
        for idx in indices.clone() {
            let len = hot[idx as usize].len as usize;
            if len + 2 > starts.len() {
                starts.resize(len + 2, 0);
            }
            starts[len + 1] += 1;
        }
        for len in 1..starts.len() {
            starts[len] += starts[len - 1];
        }
        next.clear();
        next.extend_from_slice(starts);
        let total = next.pop().expect("two slots at least") as usize;
        // Sized only: the buckets tile `rows`, so each slot is written.
        rows.resize(total, Row::default());
        for idx in indices {
            let Hot {
                sketch,
                len,
                is_num,
            } = hot[idx as usize];
            let at = &mut next[len as usize];
            rows[*at as usize] = Row {
                sketch,
                idx,
                is_num,
            };
            *at += 1;
        }
    }
}

/// Insert-only similarity join state. Owns its metric (`Arc`) so it can
/// live inside long-running session state.
///
/// Records are expected to be numbered the way a session numbers them,
/// densely from zero: the per-record table is indexed by rid, so a label
/// naming record `n` sizes `n + 1` rows.
pub struct IncrementalJoin {
    xi: f64,
    q: usize,
    metric: std::sync::Arc<dyn ValueSimilarity>,
    /// True iff the metric's string leg is exactly q-gram Jaccard at our
    /// gram length — enables signature scoring + the gram filters.
    fast_grams: bool,
    /// α for every pair of lengths registered or scanned so far.
    alpha: RequiredOverlap,
    /// Every value ever registered, by entry index; `None` once a merge
    /// folded the value onto a label another entry already held.
    entries: Vec<Option<Entry>>,
    /// The filters' view of `entries`, by the same index (a retired
    /// entry's row lingers, unreachable).
    hot: Vec<Hot>,
    /// The live entry indices of each record, by rid; empty for a record
    /// that was folded into another or never seen.
    by_rid: Vec<Vec<u32>>,
    /// The last gather, and the rows of it that passed the filters for
    /// the value scanned last: buffers, with no meaning between calls.
    neighbourhood: Neighbourhood,
    survivors: Vec<Row>,
    /// `entries[..probed]` are filed in `postings` and `numeric`; the
    /// rest wait for the next [`IncrementalJoin::insert`].
    probed: usize,
    /// gram token → entry indices containing it (retired ones linger
    /// and are skipped when probed).
    postings: FxHashMap<u64, Vec<u32>>,
    /// entry indices of numeric values, kept sorted by numeric value
    /// (retired ones linger and are skipped when swept).
    numeric: Vec<(f64, u32)>,
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
            alpha: RequiredOverlap::new(xi),
            entries: Vec::new(),
            hot: Vec::new(),
            by_rid: Vec::new(),
            neighbourhood: Neighbourhood::default(),
            survivors: Vec::new(),
            probed: 0,
            postings: FxHashMap::default(),
            numeric: Vec::new(),
        }
    }

    /// Number of live values: those inserted, minus those a merge folded
    /// onto a label that already held an equal value.
    pub fn len(&self) -> usize {
        self.by_rid.iter().map(Vec::len).sum()
    }

    /// True if no value is live.
    pub fn is_empty(&self) -> bool {
        self.by_rid.iter().all(Vec::is_empty)
    }

    /// Number of values filed in the gram postings and the numeric order
    /// so far: zero for a join that [`IncrementalJoin::insert`] never
    /// probed.
    pub fn probed(&self) -> usize {
        self.probed
    }

    /// Inserts one labeled value and returns all new similar pairs
    /// against previously inserted values of *other* records, normalized
    /// (`a.rid < b.rid`) and ordered by label.
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
        let Some(incoming) = self.tokenize(label, value) else {
            return Vec::new();
        };
        self.file_unprobed();

        // Candidates: share a gram, or numeric neighbor.
        let mut cand: Vec<u32> = Vec::new();
        for t in &incoming.entry.sig {
            if let Some(list) = self.postings.get(t) {
                cand.extend(list.iter().copied());
            }
        }
        let value = &incoming.entry.value;
        if let Some(x) = value.as_number() {
            // Walk outward from the insertion point while the metric
            // stays above ξ (monotone in distance), over retired entries.
            let pos = self.numeric.partition_point(|&(v, _)| v < x);
            let (below, above) = self.numeric.split_at(pos);
            let near = |&&(_, i): &&(f64, u32)| match &self.entries[i as usize] {
                Some(e) => self.metric.sim(value, &e.value) >= self.xi,
                None => true,
            };
            cand.extend(above.iter().take_while(near).map(|&(_, i)| i));
            cand.extend(below.iter().rev().take_while(near).map(|&(_, i)| i));
        }
        cand.sort_unstable();
        cand.dedup();
        cand.retain(|&i| {
            self.entries[i as usize]
                .as_ref()
                .is_some_and(|e| e.label.rid != label.rid && allowed(e.label.rid))
        });

        let mut out = Vec::new();
        self.neighbourhood.gather(&self.hot, cand.iter().copied());
        self.scan(&incoming, &mut out);
        self.register_tokenized(incoming);
        out
    }

    /// Inserts the values of record `rid` — `values[fid]` under label
    /// `(rid, fid, 0)`, nulls ignored — and returns their similar pairs
    /// against the live values of the records `rids`: the blocked
    /// streaming path. Candidates come from the blocker, so the inverted
    /// gram index and the numeric sweep are not probed (nor built): the
    /// neighbourhood of `rids` is gathered once, every value is scanned
    /// against it (see the module docs), and the cost follows the
    /// co-blocked neighbourhood instead of the live-value universe.
    ///
    /// `rids` may come in any order, repeat a record, name `rid` itself
    /// (values of one record never pair) or a record the join does not
    /// hold; every pair is emitted once. The output is normalized
    /// (`a.rid < b.rid`), ordered by label per value, and the values
    /// follow each other in field order.
    ///
    /// For the default gram-compatible metric these are exactly the pairs
    /// [`IncrementalJoin::insert`] would emit against the same record set
    /// (share-a-gram candidate generation is complete for q-gram
    /// Jaccard); an exotic metric scoring zero-gram-overlap string pairs
    /// above ξ can only gain pairs here, never lose one. The values are
    /// registered for future calls either way.
    pub fn insert_record_among(
        &mut self,
        rid: u32,
        values: Vec<Value>,
        rids: &[u32],
    ) -> Vec<ValuePair> {
        let incoming: Vec<Pending> = (0u32..)
            .zip(values)
            .filter_map(|(fid, v)| self.tokenize(Label::new(rid, fid, 0), v))
            .collect();
        self.insert_tokenized_among(rid, incoming, rids)
    }

    /// [`IncrementalJoin::insert_record_among`] for one value under any
    /// label: the same gather and scan, paid for a single value.
    pub fn insert_among(&mut self, label: Label, value: Value, rids: &[u32]) -> Vec<ValuePair> {
        let incoming = self.tokenize(label, value);
        self.insert_tokenized_among(label.rid, incoming.into_iter().collect(), rids)
    }

    fn insert_tokenized_among(
        &mut self,
        rid: u32,
        incoming: Vec<Pending>,
        rids: &[u32],
    ) -> Vec<ValuePair> {
        let mut out = Vec::new();
        if incoming.is_empty() {
            return out;
        }
        // Each allowed record once: a repeated rid would repeat its pairs.
        let mut rids = Cow::Borrowed(rids);
        if !rids.windows(2).all(|w| w[0] < w[1]) {
            let rids = rids.to_mut();
            rids.sort_unstable();
            rids.dedup();
        }
        let by_rid = &self.by_rid;
        let live = rids
            .iter()
            .filter(|&&other| other != rid)
            .filter_map(|&other| by_rid.get(other as usize))
            .flatten()
            .copied();
        self.neighbourhood.gather(&self.hot, live);
        for value in &incoming {
            self.scan(value, &mut out);
        }
        for value in incoming {
            self.register_tokenized(value);
        }
        out
    }

    /// Appends to `out` the normalized pairs of `incoming` with the rows
    /// of the gathered neighbourhood that clear ξ, ordered by label: per
    /// length bucket the filters that are sound there — the length window
    /// and the integer sketch test under `fast_grams`, numeric rows let
    /// through for a number — then, over what survived, [`score`], the
    /// batch join's dispatch.
    fn scan(&mut self, incoming: &Pending, out: &mut Vec<ValuePair>) {
        let first = out.len();
        let Pending { entry, hot } = incoming;
        let x_len = entry.sig.len();
        let Neighbourhood { rows, starts, .. } = &self.neighbourhood;
        let survivors = &mut self.survivors;
        survivors.clear();
        if !self.fast_grams {
            survivors.extend_from_slice(rows);
        } else {
            for (y_len, bounds) in starts.windows(2).enumerate() {
                let rows = &rows[bounds[0] as usize..bounds[1] as usize];
                if rows.is_empty() {
                    continue;
                }
                // No Jaccard ≥ ξ without α common grams, and no more
                // common grams than the shorter signature holds.
                let alpha = self.alpha.of(x_len + y_len) as usize;
                let in_window = x_len.min(y_len) >= alpha;
                let may_share = |row: &&Row| row.sketch.may_share(y_len, hot.sketch, x_len, alpha);
                if hot.is_num {
                    let passes = |row: &&Row| row.is_num || (in_window && may_share(row));
                    survivors.extend(rows.iter().filter(passes));
                } else if in_window {
                    survivors.extend(rows.iter().filter(may_share));
                }
            }
        }
        let x = Side {
            value: &entry.value,
            is_num: hot.is_num,
            sig: &entry.sig,
            sketch: hot.sketch,
        };
        for row in survivors.iter() {
            let other = self.entries[row.idx as usize]
                .as_ref()
                .expect("a gathered row names a live entry");
            let y = Side {
                value: &other.value,
                is_num: row.is_num,
                sig: &other.sig,
                sketch: row.sketch,
            };
            if let Some(sim) = score(self.metric.as_ref(), self.fast_grams, self.xi, x, y) {
                let (a, b) = if entry.label.rid < other.label.rid {
                    (entry.label, other.label)
                } else {
                    (other.label, entry.label)
                };
                out.push(ValuePair { a, b, sim });
            }
        }
        out[first..].sort_unstable_by_key(|p| (p.a, p.b));
    }

    /// The live entry at `idx`; `by_rid` holds no other kind.
    fn entry(&self, idx: u32) -> &Entry {
        self.entries[idx as usize]
            .as_ref()
            .expect("a live entry index names a live entry")
    }

    /// Registers a value for future calls without scoring it against
    /// anything: what a restored session does with every value of its
    /// super records. Pairs emitted later do not depend on the order
    /// values were registered in, labels being unique and the output
    /// sorted by label. Nulls are ignored, as on insert.
    pub fn register(&mut self, label: Label, value: Value) {
        if let Some(value) = self.tokenize(label, value) {
            self.register_tokenized(value);
        }
    }

    /// Tokenizes a value for scanning and registration; `None` for a
    /// null, which is neither scored nor stored.
    fn tokenize(&mut self, label: Label, value: Value) -> Option<Pending> {
        if value.is_null() {
            return None;
        }
        let sig = folded_qgram_set(&value.text(), self.q);
        // Any two lengths ever tokenized sum to a covered length.
        self.alpha.cover(2 * sig.len());
        let hot = Hot {
            sketch: GramSketch::of(&sig),
            len: u32::try_from(sig.len()).expect("a signature holds fewer than 2^32 grams"),
            is_num: value.as_number().is_some(),
        };
        let entry = Entry { label, value, sig };
        Some(Pending { entry, hot })
    }

    fn register_tokenized(&mut self, Pending { entry, hot }: Pending) {
        let idx = u32::try_from(self.entries.len()).expect("the join holds fewer than 2^32 values");
        self.row_mut(entry.label.rid).push(idx);
        self.entries.push(Some(entry));
        self.hot.push(hot);
    }

    /// Record `rid`'s row of `by_rid`, the table grown to hold it.
    fn row_mut(&mut self, rid: u32) -> &mut Vec<u32> {
        let rid = rid as usize;
        if rid >= self.by_rid.len() {
            self.by_rid.resize_with(rid + 1, Vec::new);
        }
        &mut self.by_rid[rid]
    }

    /// Files every registered entry the probe structures have not seen
    /// yet; those retired in the meantime have nothing to file.
    fn file_unprobed(&mut self) {
        for (idx, entry) in self.entries.iter().enumerate().skip(self.probed) {
            let Some(entry) = entry else { continue };
            let idx = idx as u32; // checked at registration
            for &t in &entry.sig {
                self.postings.entry(t).or_default().push(idx);
            }
            if let Some(x) = entry.value.as_number() {
                let pos = self.numeric.partition_point(|&(v, _)| v < x);
                self.numeric.insert(pos, (x, idx));
            }
        }
        self.probed = self.entries.len();
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
        let mut moved: Vec<(Label, bool, Label, u32)> = Vec::new();
        for rid in [i, j] {
            let row = self.by_rid.get_mut(rid as usize).map(std::mem::take);
            for idx in row.unwrap_or_default() {
                let old = self.entry(idx).label;
                let new = remap(old);
                moved.push((new, new.rid != old.rid, old, idx));
            }
        }
        moved.sort_unstable();
        let mut held = None;
        for (new, _, _, idx) in moved {
            let entry = &mut self.entries[idx as usize];
            if held == Some(new) {
                *entry = None;
                continue;
            }
            held = Some(new);
            entry.as_mut().expect("live, read above").label = new;
            self.row_mut(new.rid).push(idx);
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
        for e in self.by_rid.iter().flatten().map(|&idx| self.entry(idx)) {
            if live.insert(e.label, &e.value).is_some() {
                return Err(format!("two live join entries share label {}", e.label));
            }
        }
        for (label, value) in expected {
            let Some(held) = live.remove(&label) else {
                return Err(format!("join holds no value at {label}"));
            };
            let same_variant = std::mem::discriminant(held) == std::mem::discriminant(value);
            if !same_variant || held.text() != value.text() {
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

    /// A metric that keeps what it computes to itself: no
    /// `qgram_compatible`, so every row goes to `sim`.
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

    /// The blocked doors take the allow-list as it comes: out of order,
    /// with repeats, naming the incoming record itself or records the
    /// join never saw. Every pair comes out once, as for the clean list.
    #[test]
    fn blocked_doors_accept_any_rid_list() {
        let metric = TypeDispatch::paper_default();
        let seeded = || {
            let mut join = IncrementalJoin::new(0.5, 2, Arc::new(metric.clone()));
            join.register(label(0, 0), Value::from("electronic"));
            join.register(label(1, 0), Value::from("electronics"));
            join.register(label(2, 0), Value::from("electronic"));
            join.register(label(3, 0), Value::from("unrelated stuff"));
            // An earlier value of the incoming record: never a partner.
            join.register(label(7, 0), Value::from("electronic"));
            join
        };
        let incoming = || vec![Value::Null, Value::from("electronic")];
        let clean = seeded().insert_record_among(7, incoming(), &[0, 1, 2]);
        let partners: Vec<Label> = clean.iter().map(|p| p.a).collect();
        assert_eq!(partners, vec![label(0, 0), label(1, 0), label(2, 0)]);
        assert!(clean.iter().all(|p| p.b == label(7, 1)));
        let cases: [(&str, &[u32]); 4] = [
            ("unsorted", &[2, 0, 1]),
            ("repeated", &[0, 0, 1, 2, 2, 1]),
            ("own rid", &[0, 1, 2, 7]),
            ("unknown records", &[0, 1, 2, 5, 900]),
        ];
        for (case, rids) in cases {
            let by_record = seeded().insert_record_among(7, incoming(), rids);
            assert_eq!(by_record, clean, "insert_record_among, {case}");
            let by_value = seeded().insert_among(label(7, 1), Value::from("electronic"), rids);
            assert_eq!(by_value, clean, "insert_among, {case}");
        }
    }

    /// A record's values are registered once all of them were scored,
    /// under `(rid, position, 0)`, nulls skipped; the next record pairs
    /// with each of them.
    #[test]
    fn record_door_registers_every_value() {
        let metric = TypeDispatch::paper_default();
        let mut join = IncrementalJoin::new(0.5, 2, Arc::new(metric));
        let first = vec![Value::from("same"), Value::Null, Value::from("same")];
        assert!(join.insert_record_among(0, first, &[]).is_empty());
        assert_eq!(join.len(), 2);
        let pairs = join.insert_record_among(1, vec![Value::from("same")], &[0]);
        let partners: Vec<Label> = pairs.iter().map(|p| p.a).collect();
        assert_eq!(partners, vec![label(0, 0), label(0, 2)]);
    }

    /// What a session with blocking on does to its join — record-level
    /// inserts, merges, `register` on restore — files nothing in the gram
    /// postings or the numeric order.
    #[test]
    fn blocked_doors_never_build_the_probe_structures() {
        let metric = TypeDispatch::paper_default();
        let mut join = IncrementalJoin::new(0.5, 2, Arc::new(metric));
        join.register(label(0, 0), Value::from("electronic"));
        join.register(label(0, 1), Value::from(1984i64));
        let record = vec![Value::from("electronics"), Value::from(1984i64)];
        assert_eq!(join.insert_record_among(1, record, &[0]).len(), 2);
        join.relabel(0, 1, |l| Label::new(0, l.fid, l.rid));
        let pairs = join.insert_among(label(2, 0), Value::from("electronic"), &[0]);
        assert_eq!(pairs.len(), 2);
        assert_eq!(join.len(), 5);
        assert_eq!(join.probed(), 0);
        assert_eq!(join.postings.capacity(), 0);
        assert_eq!(join.numeric.capacity(), 0);
    }

    /// The probe structures are filed late, not differently: a join that
    /// took blocked inserts, merges and `register`s before its first
    /// `insert` answers every later `insert` like the join that was
    /// probed from its first value — the numeric sweep stepping over the
    /// entries a merge retired, filed or not.
    #[test]
    fn late_filing_answers_like_eager_filing() {
        use hera_sim::NumericProximity;
        let metric =
            TypeDispatch::paper_default().with_numeric_metric(Arc::new(NumericProximity::new(5.0)));
        let mut eager = IncrementalJoin::new(0.5, 2, Arc::new(metric.clone()));
        let mut late = IncrementalJoin::new(0.5, 2, Arc::new(metric));
        let records: [(u32, [Value; 2]); 4] = [
            (0, [Value::from("electronic"), Value::from(1980i64)]),
            (1, [Value::from("electronics"), Value::from(1981i64)]),
            (2, [Value::from("electronics"), Value::from(1981i64)]),
            (3, [Value::from("unrelated"), Value::from(1981i64)]),
        ];
        for (rid, values) in &records {
            for (fid, v) in (0u32..).zip(values) {
                eager.insert(label(*rid, fid), v.clone());
            }
            if *rid == 3 {
                for (fid, v) in (0u32..).zip(values) {
                    late.register(label(*rid, fid), v.clone());
                }
            } else {
                late.insert_record_among(*rid, values.to_vec(), &[0, 1, 2]);
            }
        }
        // 2 folds into 1 and 3 into 0: two 1981s and one "electronics"
        // are retired — before `late` filed anything, after `eager` did.
        for join in [&mut eager, &mut late] {
            join.relabel(1, 2, |l| Label::new(1, l.fid, l.vid));
            join.relabel(0, 3, |l| match (l.rid, l.fid) {
                (3, 0) => Label::new(0, 0, 1),
                (3, 1) => Label::new(0, 1, 1),
                _ => l,
            });
            assert_eq!(join.len(), 6);
        }
        assert_eq!(late.probed(), 0);
        let incoming = [
            (label(4, 0), Value::from("electronic")),
            (label(4, 1), Value::from(1982i64)),
            (label(5, 0), Value::from(1979i64)),
            (label(6, 0), Value::from("1981")),
        ];
        for (l, v) in incoming {
            let expected = eager.insert(l, v.clone());
            assert!(!expected.is_empty(), "inserting {l}");
            assert_eq!(late.insert(l, v), expected, "inserting {l}");
            assert_eq!(late.probed(), eager.probed());
        }
        // Retired before it was filed: not in the numeric order at all.
        assert_eq!(late.numeric.len() + 1, eager.numeric.len());
    }

    /// The live values of a stream with merges, as the super records
    /// would hold them: the oracle's input and the source of each remap.
    #[derive(Default)]
    struct LiveValues(std::collections::BTreeMap<Label, Value>);

    impl LiveValues {
        /// Folds record `j` into record `i` field by field: a value `i`
        /// already holds in that field shares its label, any other gets
        /// the field's next free `vid`. Returns the remap.
        fn merge(&mut self, i: u32, j: u32) -> FxHashMap<Label, Label> {
            let moved: Vec<Label> = self.0.keys().copied().filter(|l| l.rid == j).collect();
            let mut remap = FxHashMap::default();
            for old in moved {
                let value = self.0.remove(&old).unwrap();
                let field = || {
                    self.0
                        .iter()
                        .filter(|(l, _)| l.rid == i && l.fid == old.fid)
                };
                let held = field().find(|(_, held)| **held == value).map(|(l, _)| *l);
                let new = held.unwrap_or(Label::new(i, old.fid, field().count() as u32));
                self.0.entry(new).or_insert(value);
                remap.insert(old, new);
            }
            remap
        }
    }

    use proptest::prelude::*;

    fn any_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            "[a-c ]{0,6}".prop_map(Value::from),
            "[a-c ]{7,20}".prop_map(Value::from),
            "[0-2]{1,2}".prop_map(Value::from),
            (0i64..24).prop_map(Value::from),
            (0i64..48).prop_map(|half| Value::from(half as f64 / 2.0)),
            Just(Value::Null),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        /// One stream of records with merges in between, through all
        /// three doors and the batch oracle: the record-level door, the
        /// one-value door, the probing door filtered to the same records
        /// and `JoinConfig::exhaustive()` over the live values of the
        /// allowed records agree on every record — same labels, same
        /// similarity bits, same order — under q-gram Jaccard declared
        /// and hidden, and under edit similarity, where probing finds
        /// only what shares a gram. The allow-lists come unsorted, with
        /// repeats, the incoming record and unknown ones.
        ///
        /// The joins gather into buffers they keep, so every other call
        /// is cut down to one allowed record: neighbourhoods large and
        /// small, of longer and shorter signatures, follow each other
        /// with relabels in between, and the record door must still
        /// answer like a join built afresh from the live values — a row
        /// or a bucket bound left over from the call before would show.
        #[test]
        fn doors_equal_exhaustive(
            records in proptest::collection::vec(
                (
                    proptest::collection::vec(any_value(), 0..5),
                    proptest::collection::vec(0u32..14, 0..12),
                    any::<bool>(),
                    (any::<usize>(), any::<usize>()),
                ),
                0..12,
            ),
            xi in prop_oneof![0.05f64..0.95, Just(0.5), Just(0.75), Just(0.8)],
            metric_kind in 0usize..3,
        ) {
            use hera_sim::text::intersection_size;
            use hera_sim::{EditSimilarity, NumericProximity};
            let jaccard = TypeDispatch::paper_default()
                .with_numeric_metric(Arc::new(NumericProximity::new(5.0)));
            let metric: Arc<dyn ValueSimilarity> = match metric_kind {
                0 => Arc::new(jaccard),
                1 => Arc::new(Opaque(jaccard)),
                _ => Arc::new(jaccard.with_string_metric(Arc::new(EditSimilarity))),
            };
            let share_a_gram_only = metric_kind == 2;
            let mut by_record = IncrementalJoin::new(xi, 2, metric.clone());
            let mut by_value = IncrementalJoin::new(xi, 2, metric.clone());
            let mut probing = IncrementalJoin::new(xi, 2, metric.clone());
            let oracle = SimilarityJoin::new(JoinConfig::new(xi).exhaustive(), metric.as_ref());
            let mut live = LiveValues::default();
            let mut roots: Vec<u32> = Vec::new();
            let bits = |pairs: &[ValuePair]| -> Vec<(Label, Label, u64)> {
                pairs.iter().map(|p| (p.a, p.b, p.sim.to_bits())).collect()
            };

            for (rid, (values, mut rids, merge, picks)) in (0u32..).zip(records) {
                if rid % 2 == 1 {
                    rids.truncate(1);
                }
                // The oracle: everything live in the allowed records and
                // the new record, all pairs; the new record's are the
                // ones an insert emits, value by value in label order.
                let incoming = (0u32..).zip(&values).map(|(fid, v)| (label(rid, fid), v.clone()));
                let universe: Vec<(Label, Value)> = live.0.iter()
                    .filter(|(l, _)| rids.contains(&l.rid))
                    .map(|(l, v)| (*l, v.clone()))
                    .chain(incoming.clone())
                    .collect();
                let mut expected = oracle.join(&universe);
                expected.retain(|p| p.b.rid == rid);
                expected.sort_unstable_by_key(|p| (p.b.fid, p.a));
                let mut probed = expected.clone();
                if share_a_gram_only {
                    let of = |l: Label| &universe.iter().find(|(held, _)| *held == l).unwrap().1;
                    probed.retain(|p| {
                        let (a, b) = (of(p.a), of(p.b));
                        let grams = |v: &Value| folded_qgram_set(&v.to_text(), 2);
                        a.as_number().is_some() && b.as_number().is_some()
                            || intersection_size(&grams(a), &grams(b)) > 0
                    });
                }

                let got = by_record.insert_record_among(rid, values.clone(), &rids);
                prop_assert_eq!(bits(&got), bits(&expected), "record {}, by record", rid);
                let mut fresh = IncrementalJoin::new(xi, 2, metric.clone());
                for (l, v) in &live.0 {
                    fresh.register(*l, v.clone());
                }
                let afresh = fresh.insert_record_among(rid, values.clone(), &rids);
                prop_assert_eq!(bits(&got), bits(&afresh), "record {}, built afresh", rid);
                let mut got = Vec::new();
                let mut got_probing = Vec::new();
                for (l, v) in incoming {
                    got.extend(by_value.insert_among(l, v.clone(), &rids));
                    got_probing.extend(probing.insert_filtered(l, v, |r| rids.contains(&r)));
                }
                prop_assert_eq!(bits(&got), bits(&expected), "record {}, by value", rid);
                prop_assert_eq!(bits(&got_probing), bits(&probed), "record {}, probing", rid);

                live.0.extend(universe.into_iter().filter(|(l, v)| l.rid == rid && !v.is_null()));
                roots.push(rid);
                if merge && roots.len() >= 2 {
                    let j = roots.swap_remove(picks.0 % roots.len());
                    let i = roots[picks.1 % roots.len()];
                    let remap = live.merge(i, j);
                    for join in [&mut by_record, &mut by_value, &mut probing] {
                        join.relabel(i, j, |l| remap.get(&l).copied().unwrap_or(l));
                        prop_assert!(join.check_values(live.0.iter().map(|(l, v)| (*l, v))).is_ok());
                    }
                }
            }
            prop_assert_eq!(by_record.probed(), 0);
        }
    }
}
