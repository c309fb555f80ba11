//! Incremental similarity join: records arrive one at a time.
//!
//! The batch join (Definition 7) runs once, offline. Streaming entity
//! resolution needs the same result maintained under insertions: when a
//! new record's values arrive, find every stored value within ξ and emit
//! the new index entries. [`IncrementalJoin`] keeps every live value with
//! its gram signature, and an insert has two halves:
//!
//! - [`IncrementalJoin::register_record`] tokenizes a record's values and
//!   registers them, the only half that changes the join;
//! - [`IncrementalJoin::pairs_of_each`] scans the registered entries of
//!   a batch of records, each against the records an [`Among`] names, on
//!   worker threads that read the join through `&self`, a scratch each.
//!   A session registers the records that arrived since its last pass in
//!   order, then scans each against [`Among::Earlier`] or its blocker's
//!   candidates; the batch blocked join (`Hera::join` under a blocking
//!   scheme) registers every record, then scans each against its earlier
//!   co-blocked records.
//!
//! Three doors compose the halves for one record at a time, differing
//! only in the records they gather:
//!
//! - [`IncrementalJoin::insert_record`] takes every live record but the
//!   incoming one: "no blocking" read as one block that holds every
//!   record;
//! - [`IncrementalJoin::insert_record_among`] takes the records a blocker
//!   allows;
//! - [`IncrementalJoin::insert_among`] is its one-value case.
//!
//! No scan looks at a gram index; the filters do all the work:
//!
//! 1. *Gather, once per record.* Two tables are dense, one by rid — the
//!    live entry indices of each record — and one by entry index — the
//!    hot row of each value: sketch, numeric flag, signature length. The
//!    allowed records' rows are walked twice, to size one bucket per
//!    signature length and to fill them: a counting sort into one
//!    neighbourhood, in scratch buffers every gather refills.
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
//!
//! Every door therefore emits exactly the pairs the exhaustive batch join
//! (`JoinConfig::exhaustive`) finds between the incoming record and the
//! records it gathered, under any metric: a metric that declares no gram
//! compatibility has every gathered row scored.
//!
//! The neighbourhood stays materialised. Testing each stored row of the
//! allowed records against the record's values directly, through
//! per-value length windows, was measured ≈ 0.05 s slower on the 5 000
//! record blocked stream than gathering and scanning by bucket: skipping
//! a whole out-of-window bucket per value is worth more than the copy.
//!
//! Labels mutate when records merge (the index relabels its entries);
//! [`IncrementalJoin::relabel`] applies the same remap here so future
//! insertions emit pairs against *current* labels. A merge that folds
//! two equal values onto one label leaves one live entry, the one the
//! merged super record kept, so the live `(label, value)` set is the
//! super records' value set and no label is ever scored twice. The
//! folded entry is retired, not reclaimed: its gram ids stay in the
//! arena and its hot row in the table, unreachable.
//!
//! # What a value costs
//!
//! The join stores what the scan and [`score`] read, and a string only
//! where scoring reads one. Every gram token gets one dense `u32` id from
//! a vocabulary the join owns, in first-seen order, and a signature is its
//! ids in ascending order, back to back with every other in one arena:
//! Jaccard over ids equals Jaccard over tokens bit for bit, ids and tokens
//! naming the same grams. The 128-bit sketch is taken from the tokens, so
//! every filter decision is the one the tokens would give. A live value
//! costs 45 bytes in dense columns — its label (12), arena offset (4), hot
//! row (24), retired flag (1) and place in its record's row (4) — plus 4
//! bytes per gram. The value itself is kept only where scoring reads it —
//! a number (two numbers go to the metric), and every value under a metric
//! that is not gram compatible — in a 32-byte map slot beside its entry
//! index. Under q-gram Jaccard a string therefore lives once, in its super
//! record. The vocabulary adds one 16-byte map slot per distinct gram,
//! shared by every value that holds it. Amortized `Vec` growth and map
//! load come on top of all of these.

use crate::inverted::RequiredOverlap;
use crate::{score, Side, ValuePair};
use hera_sim::text::{folded_qgram_set, folded_qgrams_into, GramSketch};
use hera_sim::ValueSimilarity;
use hera_types::parallel::par_map_with;
use hera_types::{Label, Value};
use rustc_hash::FxHashMap;
use std::borrow::Cow;
use std::ops::Range;

/// What the filters read of a value.
#[derive(Clone, Copy)]
struct Hot {
    sketch: GramSketch,
    /// Signature length.
    len: u32,
    is_num: bool,
}

/// A hot row is 24 bytes: the per-entry price the module docs state, and
/// the compile-time twin of the "Compact streaming state" CI step, which
/// refuses a signature held per entry as a `Vec<u64>` again.
const _: () = assert!(std::mem::size_of::<Hot>() == 24);

/// True iff [`score`] may read the value itself, not only its signature:
/// a number (two numbers go to the metric), or any value when the metric
/// is not gram compatible. The join keeps a value exactly then.
fn keeps(fast_grams: bool, is_num: bool) -> bool {
    is_num || !fast_grams
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

/// The buffers of one scan, owned by its caller: the gathered
/// neighbourhood and the rows of it that passed the filters for the value
/// scanned last. They carry no meaning between calls, so one per thread
/// lets scans of several records run at once against one join.
#[derive(Default)]
struct ScanScratch {
    neighbourhood: Neighbourhood,
    survivors: Vec<Row>,
}

/// The records a scan gathers, the scanned record's own always left out.
#[derive(Clone, Copy, Debug)]
pub enum Among<'a> {
    /// Every record.
    Others,
    /// Every record numbered below the scanned one: in a stream numbered
    /// densely from zero, the records that arrived before it.
    Earlier,
    /// These records, in any order, repeated or not, held by the join or
    /// not; each is gathered once.
    Records(&'a [u32]),
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
    /// α for every pair of lengths registered so far.
    alpha: RequiredOverlap,
    /// The dense id of every gram token tokenized so far, in first-seen
    /// order.
    vocab: FxHashMap<u64, u32>,
    /// Every value ever registered, as columns by entry index: its label,
    /// where its gram ids start in `grams` (`hot[idx].len` of them), the
    /// filters' view of it and whether a merge retired it — folded it onto
    /// a label another entry already held. A retired entry's columns
    /// linger, unreachable.
    labels: Vec<Label>,
    offsets: Vec<u32>,
    hot: Vec<Hot>,
    retired: Vec<bool>,
    /// Every entry's gram ids, ascending per entry, back to back.
    grams: Vec<u32>,
    /// The values of the live entries [`keeps`] names, by entry index.
    kept: FxHashMap<u32, Value>,
    /// The live entry indices of each record, by rid; empty for a record
    /// that was folded into another or never seen.
    by_rid: Vec<Vec<u32>>,
    /// The scratch of the inserting doors, which scan one record at a
    /// time.
    scratch: ScanScratch,
    /// The value tokenized last, as tokens in text order and as sorted,
    /// distinct ids: buffers too.
    tokens: Vec<u64>,
    ids: Vec<u32>,
}

impl IncrementalJoin {
    /// Creates an empty incremental join.
    ///
    /// # Panics
    /// Panics unless `0 < xi ≤ 1` and `q ≥ 1`.
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
            vocab: FxHashMap::default(),
            labels: Vec::new(),
            offsets: Vec::new(),
            hot: Vec::new(),
            retired: Vec::new(),
            grams: Vec::new(),
            kept: FxHashMap::default(),
            by_rid: Vec::new(),
            scratch: ScanScratch::default(),
            tokens: Vec::new(),
            ids: Vec::new(),
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

    /// Inserts the values of record `rid` — `values[fid]` under label
    /// `(rid, fid, 0)`, nulls ignored — for future calls, and returns their
    /// similar pairs against the live values of every other record: the
    /// unblocked streaming path. The pairs are normalized (`a.rid < b.rid`)
    /// and ordered by label per value, the values in field order.
    pub fn insert_record(&mut self, rid: u32, values: &[Value]) -> Vec<ValuePair> {
        let entries = self.register_record(rid, values);
        self.pairs_reusing(rid, entries, Among::Others)
    }

    /// [`IncrementalJoin::insert_record`] against the live values of the
    /// records `rids` only: the blocked streaming path. The cost follows
    /// the co-blocked neighbourhood instead of the live-value universe.
    ///
    /// `rids` may come in any order, repeat a record, name `rid` itself
    /// (values of one record never pair) or a record the join does not
    /// hold; every pair is emitted once.
    pub fn insert_record_among(
        &mut self,
        rid: u32,
        values: &[Value],
        rids: &[u32],
    ) -> Vec<ValuePair> {
        let entries = self.register_record(rid, values);
        self.pairs_reusing(rid, entries, Among::Records(rids))
    }

    /// [`IncrementalJoin::insert_record_among`] for one value under any
    /// label: the same gather and scan, paid for a single value.
    pub fn insert_among(&mut self, label: Label, value: Value, rids: &[u32]) -> Vec<ValuePair> {
        let first = self.next_entry();
        self.register_value(label, Cow::Owned(value));
        let entries = first..self.next_entry();
        self.pairs_reusing(label.rid, entries, Among::Records(rids))
    }

    /// Registers the values of record `rid` — `values[fid]` under label
    /// `(rid, fid, 0)`, nulls ignored — and returns the entry indices they
    /// took: the half of an insert that changes the join.
    /// [`IncrementalJoin::pairs_of_each`] is the other half.
    pub fn register_record(&mut self, rid: u32, values: &[Value]) -> Range<u32> {
        let first = self.next_entry();
        for (fid, v) in (0u32..).zip(values) {
            self.register_value(Label::new(rid, fid, 0), Cow::Borrowed(v));
        }
        first..self.next_entry()
    }

    /// The half of an insert that reads the join, for a batch of records:
    /// each `(rid, entries, among)` of `scans` is the entries `entries`,
    /// registered under record `rid`, scanned against the live values of
    /// the records `among` names — never `rid`'s own. The scans run on
    /// `threads` workers ([`hera_types::parallel`], `0` auto-detects), a
    /// scratch each, and each record's pairs come back in the order of
    /// `scans`, the same for every `threads`: normalized (`a.rid <
    /// b.rid`) and ordered by label per entry, the entries in order.
    ///
    /// This is the one place a batch of records is scanned at once; a
    /// session's join pass and the batch blocked join both call it.
    pub fn pairs_of_each(
        &self,
        threads: usize,
        scans: &[(u32, Range<u32>, Among<'_>)],
    ) -> Vec<Vec<ValuePair>> {
        par_map_with(
            threads,
            scans,
            ScanScratch::default,
            |scratch, (rid, entries, among)| self.pairs_of(*rid, entries.clone(), *among, scratch),
        )
    }

    /// One record's scan of [`IncrementalJoin::pairs_of_each`], in
    /// `scratch`.
    ///
    /// Per entry the scan runs the filters that are sound for the gathered
    /// rows — per length bucket the length window and the integer sketch
    /// test under q-gram Jaccard, numeric rows let through for a number —
    /// then, over what survived, the batch join's scoring dispatch.
    fn pairs_of(
        &self,
        rid: u32,
        entries: Range<u32>,
        among: Among<'_>,
        scratch: &mut ScanScratch,
    ) -> Vec<ValuePair> {
        let mut out = Vec::new();
        if entries.is_empty() {
            return out;
        }
        let by_rid = &self.by_rid;
        let hot = &self.hot;
        let neighbourhood = &mut scratch.neighbourhood;
        match among {
            Among::Others => {
                let others = (0u32..).zip(by_rid).filter(|&(other, _)| other != rid);
                neighbourhood.gather(hot, others.flat_map(|(_, row)| row).copied());
            }
            Among::Earlier => {
                let earlier = &by_rid[..by_rid.len().min(rid as usize)];
                neighbourhood.gather(hot, earlier.iter().flatten().copied());
            }
            Among::Records(rids) => {
                // Each allowed record once: a repeat would repeat pairs.
                let mut rids = Cow::Borrowed(rids);
                if !rids.windows(2).all(|w| w[0] < w[1]) {
                    let rids = rids.to_mut();
                    rids.sort_unstable();
                    rids.dedup();
                }
                let rows = rids.iter().filter(|&&other| other != rid);
                let live = rows
                    .filter_map(|&other| by_rid.get(other as usize))
                    .flatten();
                neighbourhood.gather(hot, live.copied());
            }
        }
        for idx in entries {
            self.scan(idx, scratch, &mut out);
        }
        out
    }

    /// [`IncrementalJoin::pairs_of`] with the doors' own scratch.
    fn pairs_reusing(&mut self, rid: u32, entries: Range<u32>, among: Among<'_>) -> Vec<ValuePair> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let out = self.pairs_of(rid, entries, among, &mut scratch);
        self.scratch = scratch;
        out
    }

    /// Appends to `out` the normalized pairs of entry `idx` with the rows
    /// of the gathered neighbourhood that clear ξ, ordered by label.
    fn scan(&self, idx: u32, scratch: &mut ScanScratch, out: &mut Vec<ValuePair>) {
        let first = out.len();
        let label = self.labels[idx as usize];
        let hot = self.hot[idx as usize];
        let x_len = hot.len as usize;
        let ScanScratch {
            neighbourhood: Neighbourhood { rows, starts, .. },
            survivors,
        } = scratch;
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
        let x = self.side(idx);
        for row in survivors.iter() {
            assert!(
                !self.retired[row.idx as usize],
                "a gathered row names a live entry"
            );
            if let Some(sim) = score(
                self.metric.as_ref(),
                self.fast_grams,
                self.xi,
                x,
                self.side(row.idx),
            ) {
                let other = self.labels[row.idx as usize];
                let (a, b) = if label.rid < other.rid {
                    (label, other)
                } else {
                    (other, label)
                };
                out.push(ValuePair { a, b, sim });
            }
        }
        out[first..].sort_unstable_by_key(|p| (p.a, p.b));
    }

    /// Entry `idx` as [`score`] reads it.
    fn side(&self, idx: u32) -> Side<'_, u32> {
        let hot = self.hot[idx as usize];
        Side {
            value: self.kept_value(idx, hot.is_num),
            is_num: hot.is_num,
            sig: self.ids(self.offsets[idx as usize], hot.len),
            sketch: hot.sketch,
        }
    }

    /// The `len` gram ids at `start` in the arena.
    fn ids(&self, start: u32, len: u32) -> &[u32] {
        &self.grams[start as usize..][..len as usize]
    }

    /// Entry `idx`'s value where the join [`keeps`] it, looked up only
    /// then.
    fn kept_value(&self, idx: u32, is_num: bool) -> Option<&Value> {
        if keeps(self.fast_grams, is_num) {
            self.kept.get(&idx)
        } else {
            None
        }
    }

    /// The entry index the next registered value takes.
    fn next_entry(&self) -> u32 {
        u32::try_from(self.labels.len()).expect("the join holds fewer than 2^32 values")
    }

    /// Registers a value for future calls without scoring it against
    /// anything: what a restored session does with every value of its
    /// super records. Pairs emitted later do not depend on the order
    /// values were registered in, labels being unique and the output
    /// sorted by label. Nulls are ignored, as on insert.
    pub fn register(&mut self, label: Label, value: &Value) {
        self.register_value(label, Cow::Borrowed(value));
    }

    /// Tokenizes a value and registers it under `label`, its gram ids
    /// appended to the arena in ascending order; a null is neither scored
    /// nor stored. The value is owned past the call only where [`keeps`]
    /// says scoring reads it, and cloned for that only if it was borrowed.
    fn register_value(&mut self, label: Label, value: Cow<'_, Value>) {
        if value.is_null() {
            return;
        }
        let Self {
            q,
            vocab,
            grams,
            tokens,
            ids,
            ..
        } = self;
        folded_qgrams_into(&value.text(), *q, tokens);
        // Every token its id, a token seen first the next one; sorted
        // once, as ids.
        ids.clear();
        ids.extend(tokens.iter().map(|&token| {
            let next = u32::try_from(vocab.len()).expect("fewer than 2^32 distinct grams");
            *vocab.entry(token).or_insert(next)
        }));
        ids.sort_unstable();
        ids.dedup();
        let start = u32::try_from(grams.len()).expect("the arena holds fewer than 2^32 gram ids");
        grams.extend_from_slice(ids);
        // Any two lengths ever registered sum to a covered length.
        self.alpha.cover(2 * ids.len());
        let hot = Hot {
            // From the tokens, so every filter decides as on the tokens.
            sketch: GramSketch::of(tokens),
            len: u32::try_from(ids.len()).expect("a signature holds fewer than 2^32 grams"),
            is_num: value.as_number().is_some(),
        };
        let idx = self.next_entry();
        self.row_mut(label.rid).push(idx);
        self.labels.push(label);
        self.offsets.push(start);
        self.hot.push(hot);
        self.retired.push(false);
        if keeps(self.fast_grams, hot.is_num) {
            self.kept.insert(idx, value.into_owned());
        }
    }

    /// Record `rid`'s row of `by_rid`, the table grown to hold it.
    fn row_mut(&mut self, rid: u32) -> &mut Vec<u32> {
        let rid = rid as usize;
        if rid >= self.by_rid.len() {
            self.by_rid.resize_with(rid + 1, Vec::new);
        }
        &mut self.by_rid[rid]
    }

    /// Applies a merge remap: every stored label of records `i` or `j`
    /// moves to its new label under the surviving rid (mirror of
    /// `ValuePairIndex::merge`). Where the remap folds several values
    /// onto one label — the merged super record kept one of two equal
    /// values — one entry stays live: the surviving record's own if it
    /// has one, else the moved-in entry with the smallest old label,
    /// which is the value `SuperRecord::absorb` keeps. The others are
    /// retired, and a value kept for them dropped.
    pub fn relabel(&mut self, i: u32, j: u32, remap: impl Fn(Label) -> Label) {
        // (new label, moved in, old label, entry index): sorted, each
        // run of one new label starts with the entry that keeps it.
        let mut moved: Vec<(Label, bool, Label, u32)> = Vec::new();
        for rid in [i, j] {
            let row = self.by_rid.get_mut(rid as usize).map(std::mem::take);
            for idx in row.unwrap_or_default() {
                let old = self.labels[idx as usize];
                let new = remap(old);
                moved.push((new, new.rid != old.rid, old, idx));
            }
        }
        moved.sort_unstable();
        let mut held = None;
        for (new, _, _, idx) in moved {
            if held == Some(new) {
                self.retired[idx as usize] = true;
                self.kept.remove(&idx);
                continue;
            }
            held = Some(new);
            self.labels[idx as usize] = new;
            self.row_mut(new.rid).push(idx);
        }
    }

    /// Checks that the live `(label, value)` set is exactly `expected`,
    /// and that each live entry stores what tokenizing its value would
    /// store: the numeric flag, the gram ids through the vocabulary, the
    /// sketch, and the value itself — same variant, same text — exactly
    /// where the join keeps one (a number, or any value under a metric
    /// that is not gram compatible). A session passes the values of its
    /// super records; the error names a label that differs.
    pub fn check_values<'a>(
        &self,
        expected: impl IntoIterator<Item = (Label, &'a Value)>,
    ) -> Result<(), String> {
        let mut live: FxHashMap<Label, u32> = FxHashMap::default();
        for &idx in self.by_rid.iter().flatten() {
            let label = self.labels[idx as usize];
            if self.retired[idx as usize] {
                return Err(format!("a retired join entry is live at {label}"));
            }
            if live.insert(label, idx).is_some() {
                return Err(format!("two live join entries share label {label}"));
            }
        }
        for (label, value) in expected {
            let Some(idx) = live.remove(&label) else {
                return Err(format!("join holds no value at {label}"));
            };
            if let Err(held) = self.check_entry(idx, value) {
                return Err(format!(
                    "join holds {held} at {label}, the super record {value:?}"
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

    /// What live entry `idx` stores that tokenizing `value` would not
    /// give, named.
    fn check_entry(&self, idx: u32, value: &Value) -> Result<(), String> {
        let hot = self.hot[idx as usize];
        let is_num = value.as_number().is_some();
        if hot.is_num != is_num {
            return Err(format!("numeric flag {}", hot.is_num));
        }
        let tokens = folded_qgram_set(&value.text(), self.q);
        let ids: Option<Vec<u32>> = tokens.iter().map(|t| self.vocab.get(t).copied()).collect();
        let ids = ids.map(|mut ids| {
            ids.sort_unstable();
            ids
        });
        let held = self.ids(self.offsets[idx as usize], hot.len);
        if ids.as_deref() != Some(held) {
            return Err(format!("gram ids {held:?}"));
        }
        if GramSketch::of(&tokens) != hot.sketch {
            return Err(format!("sketch {:?}", hot.sketch));
        }
        match (self.kept.get(&idx), keeps(self.fast_grams, is_num)) {
            (None, false) => Ok(()),
            (None, true) => Err("no value".into()),
            (Some(held), true)
                if std::mem::discriminant(held) == std::mem::discriminant(value)
                    && held.text() == value.text() =>
            {
                Ok(())
            }
            (Some(held), true) => Err(format!("{held:?}")),
            (Some(held), false) => Err(format!("a second copy, {held:?}")),
        }
    }

    /// How many values the join keeps beside their signatures.
    #[cfg(test)]
    fn kept_values(&self) -> usize {
        self.kept.len()
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

    /// Record `rid`'s values under `(rid, fid, 0)`, nulls dropped: what
    /// the batch join reads of a record the doors take whole.
    fn labeled(rid: u32, values: &[Value]) -> impl Iterator<Item = (Label, Value)> + '_ {
        let labeled = (0u32..)
            .zip(values)
            .map(move |(fid, v)| (label(rid, fid), v.clone()));
        labeled.filter(|(_, v)| !v.is_null())
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
        let records: Vec<Vec<Value>> = vec![
            vec![Value::from("electronic"), Value::from("831-432")],
            vec![Value::from("electronics"), Value::from("831-432")],
            vec![Value::from("unrelated stuff")],
            vec![Value::from(1984i64)],
            vec![Value::from(1984i64)],
        ];
        let values: Vec<(Label, Value)> = (0u32..)
            .zip(&records)
            .flat_map(|(rid, values)| labeled(rid, values))
            .collect();
        for xi in [0.3, 0.5, 0.9] {
            let batch = SimilarityJoin::new(JoinConfig::new(xi), &metric).join(&values);
            let mut inc = IncrementalJoin::new(xi, 2, Arc::new(metric.clone()));
            let mut streamed: Vec<ValuePair> = Vec::new();
            for (rid, values) in (0u32..).zip(&records) {
                streamed.extend(inc.insert_record(rid, values));
            }
            streamed.sort_unstable_by(crate::output_order);
            assert_eq!(streamed, batch, "xi = {xi}");
        }
    }

    /// Same metric values, but hidden behind a wrapper that does not
    /// declare `qgram_compatible` — forcing every gathered row through
    /// `metric.sim`. The signature/sketch fast path must emit exactly the
    /// same pair stream on every insert.
    #[test]
    fn signature_fast_path_matches_metric_path() {
        let metric = TypeDispatch::paper_default();
        assert_eq!(metric.qgram_compatible(), Some(2), "fast path engages");
        let records: Vec<Vec<Value>> = vec![
            vec![Value::from("electronic"), Value::from("1984")],
            vec![Value::from("electronics"), Value::from(1984i64)],
            vec![Value::from("electro")],
            vec![Value::from("unrelated stuff")],
            vec![Value::from(1985i64)],
            vec![Value::from("electronic")],
        ];
        for xi in [0.3, 0.7] {
            let mut fast = IncrementalJoin::new(xi, 2, Arc::new(metric.clone()));
            let mut slow = IncrementalJoin::new(xi, 2, Arc::new(Opaque(metric.clone())));
            assert!(fast.fast_grams);
            assert!(!slow.fast_grams);
            let mut numbers = 0;
            for (rid, values) in (0u32..).zip(&records) {
                let a = fast.insert_record(rid, values);
                let b = slow.insert_record(rid, values);
                assert_eq!(a, b, "xi = {xi}, inserting record {rid}");
                // A string lives in its super record only, unless the
                // metric may read it.
                numbers += values.iter().filter(|v| v.as_number().is_some()).count();
                assert_eq!(fast.kept_values(), numbers, "record {rid}");
                assert_eq!(slow.kept_values(), slow.len(), "record {rid}");
            }
        }
    }

    /// A join holding a string, a number and a value a merge relabeled
    /// passes the check against its values; altering, in turn, one gram
    /// id, the sketch, the numeric flag and the kept number makes the
    /// check fail naming the altered value's label.
    #[test]
    fn check_values_refuses_a_tampered_join() {
        let string = (label(0, 0), Value::from("electronic"));
        let number = (label(0, 1), Value::from(1984i64));
        let moved = (Label::new(0, 2, 0), Value::from("bush@gmail"));
        let build = || {
            let mut join = IncrementalJoin::new(0.5, 2, Arc::new(TypeDispatch::paper_default()));
            join.insert_record(0, &[string.1.clone(), number.1.clone()]);
            join.insert_record(1, std::slice::from_ref(&moved.1));
            join.relabel(0, 1, |l| if l.rid == 1 { moved.0 } else { l });
            join
        };
        let expected = [&string, &number, &moved];
        let check = |join: &IncrementalJoin| join.check_values(expected.map(|(l, v)| (*l, v)));
        check(&build()).unwrap();
        let entry = |join: &IncrementalJoin, at: Label| {
            join.by_rid[0]
                .iter()
                .copied()
                .find(|&idx| join.labels[idx as usize] == at)
                .unwrap() as usize
        };
        type Tamper = fn(&mut IncrementalJoin, usize);
        // What is altered, at which label, how, and what the error shows.
        let cases: [(&str, Label, Tamper, &str); 4] = [
            (
                "gram id",
                moved.0,
                |join, idx| {
                    join.grams[join.offsets[idx] as usize] += 1;
                },
                "gram ids",
            ),
            (
                "sketch",
                string.0,
                |join, idx| {
                    join.hot[idx].sketch = GramSketch::of(&[7]);
                },
                "sketch",
            ),
            (
                "numeric flag",
                number.0,
                |join, idx| {
                    join.hot[idx].is_num = false;
                },
                "numeric flag",
            ),
            (
                "kept number",
                number.0,
                |join, idx| {
                    *join.kept.get_mut(&(idx as u32)).unwrap() = Value::from(1985i64);
                },
                "Int(1985)",
            ),
        ];
        for (what, at, tamper, shows) in cases {
            let mut join = build();
            let idx = entry(&join, at);
            tamper(&mut join, idx);
            let err = check(&join).expect_err(what);
            assert!(err.contains(&at.to_string()), "{what}: {err}");
            assert!(err.contains(shows), "{what}: {err}");
        }
    }

    #[test]
    fn same_record_values_never_pair() {
        let metric = TypeDispatch::paper_default();
        let mut inc = IncrementalJoin::new(0.5, 2, Arc::new(metric.clone()));
        let same = || Value::from("same");
        assert!(inc.insert_record(0, &[same(), same()]).is_empty());
        assert!(inc.insert_among(label(0, 2), same(), &[0]).is_empty());
        assert_eq!(inc.len(), 3);
    }

    #[test]
    fn nulls_are_ignored() {
        let metric = TypeDispatch::paper_default();
        let mut inc = IncrementalJoin::new(0.5, 2, Arc::new(metric.clone()));
        assert!(inc.insert_record(0, &[Value::Null]).is_empty());
        assert!(inc.insert_among(label(1, 0), Value::Null, &[0]).is_empty());
        assert!(inc.is_empty());
    }

    #[test]
    fn relabel_redirects_future_pairs() {
        let metric = TypeDispatch::paper_default();
        let mut inc = IncrementalJoin::new(0.5, 2, Arc::new(metric.clone()));
        inc.insert_record(5, &[Value::from("bush@gmail")]);
        // Record 5 merged into record 1, field shifted to 3.
        inc.relabel(1, 5, |l| {
            if l.rid == 5 {
                Label::new(1, 3, l.vid)
            } else {
                l
            }
        });
        let pairs = inc.insert_record(9, &[Value::from("bush@gmail")]);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].a, Label::new(1, 3, 0));
        assert_eq!(pairs[0].b, label(9, 0));
    }

    #[test]
    fn numeric_neighbours_are_found() {
        use hera_sim::NumericProximity;
        let metric =
            TypeDispatch::paper_default().with_numeric_metric(Arc::new(NumericProximity::new(5.0)));
        let mut inc = IncrementalJoin::new(0.5, 2, Arc::new(metric.clone()));
        inc.insert_record(0, &[Value::from(1980i64)]);
        inc.insert_record(1, &[Value::from(1990i64)]);
        let pairs = inc.insert_record(2, &[Value::from(1981i64)]);
        // 1981 vs 1980 → sim 0.8; vs 1990 → 0. Gram overlap of "1981" and
        // "1980"/"1990" also exists but numeric dispatch scores them.
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].a.rid, 0);
        assert!((pairs[0].sim - 0.8).abs() < 1e-12);
    }

    /// Records 0 and 1 both hold "bush@gmail" (and distinct names) and
    /// merge: the merged super record keeps one copy of the equal value,
    /// and so does the join. A third record holding it too is then
    /// scored once per label, unblocked or blocked, where a join that
    /// kept both entries emitted the `(0,1,0)` pair twice.
    #[test]
    fn values_folded_by_a_merge_are_scored_once() {
        let metric = TypeDispatch::paper_default();
        let mut open = IncrementalJoin::new(0.5, 2, Arc::new(metric.clone()));
        let mut blocked = IncrementalJoin::new(0.5, 2, Arc::new(metric.clone()));
        for join in [&mut open, &mut blocked] {
            join.insert_record(0, &[Value::from("john bush"), Value::from("bush@gmail")]);
            join.insert_record(1, &[Value::from("j. bush"), Value::from("bush@gmail")]);
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
        let a = open.insert_record(2, &[Value::from("bush@gmail")]);
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
        assert_eq!(open.len(), 4);
    }

    /// A numeric value retired by a merge is neither gathered nor scored:
    /// the live neighbours around it still are, each once.
    #[test]
    fn retired_numeric_values_are_skipped() {
        use hera_sim::NumericProximity;
        let metric =
            TypeDispatch::paper_default().with_numeric_metric(Arc::new(NumericProximity::new(5.0)));
        let mut inc = IncrementalJoin::new(0.5, 2, Arc::new(metric));
        inc.insert_record(0, &[Value::from(1980i64)]);
        inc.insert_record(1, &[Value::from(1981i64)]);
        inc.insert_record(2, &[Value::from(1981i64)]);
        // 2 folds into 1; the two 1981s share a label, one is retired.
        inc.relabel(1, 2, |l| Label::new(1, l.fid, l.vid));
        assert_eq!(inc.len(), 2);
        let pairs = inc.insert_record(3, &[Value::from(1982i64)]);
        let partners: Vec<Label> = pairs.iter().map(|p| p.a).collect();
        assert_eq!(partners, vec![label(0, 0), label(1, 0)]);
    }

    /// `register` makes a value a partner without scoring it, in any
    /// order: a join rebuilt from the live values in label order emits
    /// what the join that saw them arrive (and merge) emits.
    #[test]
    fn registered_values_answer_like_inserted_ones() {
        let metric = TypeDispatch::paper_default();
        let mut live = IncrementalJoin::new(0.5, 2, Arc::new(metric.clone()));
        live.insert_record(1, &[Value::from("electronics")]);
        live.insert_record(2, &[Value::from(1984i64)]);
        live.insert_record(0, &[Value::from("electronic")]);
        live.relabel(0, 1, |l| {
            if l.rid == 1 {
                Label::new(0, 7, l.vid)
            } else {
                l
            }
        });

        let mut rebuilt = IncrementalJoin::new(0.5, 2, Arc::new(metric));
        rebuilt.register(label(0, 0), &Value::from("electronic"));
        rebuilt.register(Label::new(0, 7, 0), &Value::from("electronics"));
        rebuilt.register(label(2, 0), &Value::from(1984i64));
        rebuilt.register(label(2, 1), &Value::Null);
        assert_eq!(rebuilt.len(), live.len());

        let a = live.insert_record(9, &[Value::from("electronic")]);
        let b = rebuilt.insert_record(9, &[Value::from("electronic")]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    #[should_panic(expected = "xi")]
    fn zero_xi_rejected() {
        let metric = TypeDispatch::paper_default();
        IncrementalJoin::new(0.0, 2, Arc::new(metric));
    }

    /// The blocked doors take the allow-list as it comes: out of order,
    /// with repeats, naming the incoming record itself or records the
    /// join never saw. Every pair comes out once, as for the clean list —
    /// and as from the unblocked door, which gathers every other record.
    #[test]
    fn blocked_doors_accept_any_rid_list() {
        let metric = TypeDispatch::paper_default();
        let seeded = || {
            let mut join = IncrementalJoin::new(0.5, 2, Arc::new(metric.clone()));
            join.register(label(0, 0), &Value::from("electronic"));
            join.register(label(1, 0), &Value::from("electronics"));
            join.register(label(2, 0), &Value::from("electronic"));
            join.register(label(3, 0), &Value::from("unrelated stuff"));
            // An earlier value of the incoming record: never a partner.
            join.register(label(7, 0), &Value::from("electronic"));
            join
        };
        let incoming = || vec![Value::Null, Value::from("electronic")];
        let clean = seeded().insert_record_among(7, &incoming(), &[0, 1, 2]);
        let partners: Vec<Label> = clean.iter().map(|p| p.a).collect();
        assert_eq!(partners, vec![label(0, 0), label(1, 0), label(2, 0)]);
        assert!(clean.iter().all(|p| p.b == label(7, 1)));
        assert_eq!(seeded().insert_record(7, &incoming()), clean, "unblocked");
        let cases: [(&str, &[u32]); 4] = [
            ("unsorted", &[2, 0, 1]),
            ("repeated", &[0, 0, 1, 2, 2, 1]),
            ("own rid", &[0, 1, 2, 7]),
            ("unknown records", &[0, 1, 2, 5, 900]),
        ];
        for (case, rids) in cases {
            let by_record = seeded().insert_record_among(7, &incoming(), rids);
            assert_eq!(by_record, clean, "insert_record_among, {case}");
            let by_value = seeded().insert_among(label(7, 1), Value::from("electronic"), rids);
            assert_eq!(by_value, clean, "insert_among, {case}");
        }
    }

    /// The motivating example, every record registered; then each record
    /// scanned in one batch, against the earlier records `partners`
    /// names, on `threads` workers: the pairs of every scan, in the join's
    /// output order.
    fn scanned(
        xi: f64,
        metric: Arc<dyn ValueSimilarity>,
        partners: impl Fn(u32) -> Vec<u32>,
        threads: usize,
    ) -> Vec<ValuePair> {
        let ds = hera_types::motivating_example();
        let mut join = IncrementalJoin::new(xi, 2, metric);
        let registered: Vec<(u32, Range<u32>, Vec<u32>)> = ds
            .iter()
            .map(|rec| {
                let rid = rec.id.raw();
                (rid, join.register_record(rid, &rec.values), partners(rid))
            })
            .collect();
        let scans: Vec<(u32, Range<u32>, Among<'_>)> = registered
            .iter()
            .map(|(rid, entries, partners)| (*rid, entries.clone(), Among::Records(partners)))
            .collect();
        let mut pairs = join.pairs_of_each(threads, &scans).concat();
        pairs.sort_unstable_by(crate::output_order);
        pairs
    }

    /// A batch scan against no partners yields nothing.
    #[test]
    fn batch_scan_of_no_partners_yields_nothing() {
        let metric = Arc::new(TypeDispatch::paper_default());
        assert!(scanned(0.3, metric, |_| Vec::new(), 2).is_empty());
    }

    /// Each record scanned against every earlier record is the exhaustive
    /// join of the dataset — labels, similarity bits and order — under
    /// q-gram Jaccard and under edit similarity, at one and two threads.
    #[test]
    fn batch_scan_of_every_earlier_record_is_exhaustive() {
        let jaccard = TypeDispatch::paper_default();
        let edit = jaccard
            .clone()
            .with_string_metric(Arc::new(hera_sim::EditSimilarity));
        let metrics: [Arc<dyn ValueSimilarity>; 2] = [Arc::new(jaccard), Arc::new(edit)];
        let ds = hera_types::motivating_example();
        let bits = |pairs: &[ValuePair]| -> Vec<(Label, Label, u64)> {
            pairs.iter().map(|p| (p.a, p.b, p.sim.to_bits())).collect()
        };
        for metric in metrics {
            for xi in [0.3, 0.5, 0.7, 0.9] {
                let config = JoinConfig::new(xi).exhaustive();
                let oracle = SimilarityJoin::new(config, metric.as_ref()).join_dataset(&ds);
                for threads in [1, 2] {
                    let earlier = |rid: u32| (0..rid).collect();
                    let got = scanned(xi, metric.clone(), earlier, threads);
                    assert_eq!(bits(&got), bits(&oracle), "xi={xi}, {threads} threads");
                }
            }
        }
    }

    /// A partner list out of order and with repeats scans like the sorted
    /// one.
    #[test]
    fn batch_scan_takes_partners_in_any_order() {
        let metric: Arc<dyn ValueSimilarity> = Arc::new(TypeDispatch::paper_default());
        let sorted = scanned(0.3, metric.clone(), |rid| (0..rid).collect(), 1);
        let shuffled = |rid: u32| (0..rid).rev().chain(0..rid).collect();
        assert!(!sorted.is_empty());
        assert_eq!(scanned(0.3, metric, shuffled, 2), sorted);
    }

    /// A record's values are registered once all of them were scored,
    /// under `(rid, position, 0)`, nulls skipped; the next record pairs
    /// with each of them.
    #[test]
    fn record_door_registers_every_value() {
        let metric = TypeDispatch::paper_default();
        let mut join = IncrementalJoin::new(0.5, 2, Arc::new(metric));
        let first = vec![Value::from("same"), Value::Null, Value::from("same")];
        assert!(join.insert_record_among(0, &first, &[]).is_empty());
        assert_eq!(join.len(), 2);
        let pairs = join.insert_record_among(1, &[Value::from("same")], &[0]);
        let partners: Vec<Label> = pairs.iter().map(|p| p.a).collect();
        assert_eq!(partners, vec![label(0, 0), label(0, 2)]);
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
        /// three doors and the batch oracle: on every record, the
        /// record-level and the one-value blocked door agree with
        /// `JoinConfig::exhaustive()` over the live values of the allowed
        /// records, and the unblocked door with it over *all* live values
        /// — same labels, same similarity bits, same order — under q-gram
        /// Jaccard declared and hidden, and under edit similarity, where
        /// no gram filter applies. The allow-lists come unsorted, with
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
            use hera_sim::{EditSimilarity, NumericProximity};
            let jaccard = TypeDispatch::paper_default()
                .with_numeric_metric(Arc::new(NumericProximity::new(5.0)));
            let metric: Arc<dyn ValueSimilarity> = match metric_kind {
                0 => Arc::new(jaccard),
                1 => Arc::new(Opaque(jaccard)),
                _ => Arc::new(jaccard.with_string_metric(Arc::new(EditSimilarity))),
            };
            let mut by_record = IncrementalJoin::new(xi, 2, metric.clone());
            let mut by_value = IncrementalJoin::new(xi, 2, metric.clone());
            let mut open = IncrementalJoin::new(xi, 2, metric.clone());
            let oracle = SimilarityJoin::new(JoinConfig::new(xi).exhaustive(), metric.as_ref());
            let mut live = LiveValues::default();
            let mut roots: Vec<u32> = Vec::new();
            let bits = |pairs: &[ValuePair]| -> Vec<(Label, Label, u64)> {
                pairs.iter().map(|p| (p.a, p.b, p.sim.to_bits())).collect()
            };
            // The new record's pairs among `universe`, the ones an insert
            // emits, value by value in label order.
            let new_pairs = |universe: &[(Label, Value)], rid: u32| {
                let mut pairs = oracle.join(universe);
                pairs.retain(|p| p.b.rid == rid);
                pairs.sort_unstable_by_key(|p| (p.b.fid, p.a));
                pairs
            };

            for (rid, (values, mut rids, merge, picks)) in (0u32..).zip(records) {
                if rid % 2 == 1 {
                    rids.truncate(1);
                }
                let incoming: Vec<(Label, Value)> = labeled(rid, &values).collect();
                let everything: Vec<(Label, Value)> = live.0.iter()
                    .map(|(l, v)| (*l, v.clone()))
                    .chain(incoming.iter().cloned())
                    .collect();
                let universe: Vec<(Label, Value)> = everything.iter()
                    .filter(|(l, _)| l.rid == rid || rids.contains(&l.rid))
                    .cloned()
                    .collect();
                let expected = new_pairs(&universe, rid);

                let got = by_record.insert_record_among(rid, &values, &rids);
                prop_assert_eq!(bits(&got), bits(&expected), "record {}, by record", rid);
                let mut fresh = IncrementalJoin::new(xi, 2, metric.clone());
                for (l, v) in &live.0 {
                    fresh.register(*l, v);
                }
                let afresh = fresh.insert_record_among(rid, &values, &rids);
                prop_assert_eq!(bits(&got), bits(&afresh), "record {}, built afresh", rid);
                let mut got = Vec::new();
                for (l, v) in &incoming {
                    got.extend(by_value.insert_among(*l, v.clone(), &rids));
                }
                prop_assert_eq!(bits(&got), bits(&expected), "record {}, by value", rid);
                let got = open.insert_record(rid, &values);
                let expected = new_pairs(&everything, rid);
                prop_assert_eq!(bits(&got), bits(&expected), "record {}, unblocked", rid);

                live.0.extend(incoming);
                roots.push(rid);
                if merge && roots.len() >= 2 {
                    let j = roots.swap_remove(picks.0 % roots.len());
                    let i = roots[picks.1 % roots.len()];
                    let remap = live.merge(i, j);
                    for join in [&mut by_record, &mut by_value, &mut open] {
                        join.relabel(i, j, |l| remap.get(&l).copied().unwrap_or(l));
                        prop_assert!(join.check_values(live.0.iter().map(|(l, v)| (*l, v))).is_ok());
                    }
                }
            }
        }

        /// The two halves of an insert, taken apart: a run of records is
        /// registered first, and each is then scanned against the records
        /// before it — every earlier record, or the earlier ones a list
        /// names — from the last record back to the first, one scratch for
        /// all, and in one batch on two workers. Every record's pairs are
        /// the bits the eager doors give when the records arrive one at a
        /// time.
        #[test]
        fn deferred_scans_equal_eager_inserts(
            records in proptest::collection::vec(
                (
                    proptest::collection::vec(any_value(), 0..5),
                    proptest::collection::vec(0u32..14, 0..12),
                ),
                0..12,
            ),
            xi in prop_oneof![0.05f64..0.95, Just(0.5), Just(0.8)],
            opaque in any::<bool>(),
        ) {
            let jaccard = TypeDispatch::paper_default();
            let metric: Arc<dyn ValueSimilarity> = if opaque {
                Arc::new(Opaque(jaccard))
            } else {
                Arc::new(jaccard)
            };
            let mut open = IncrementalJoin::new(xi, 2, metric.clone());
            let mut blocked = IncrementalJoin::new(xi, 2, metric.clone());
            let mut deferred = IncrementalJoin::new(xi, 2, metric);
            let allowed: Vec<Vec<u32>> = (0u32..)
                .zip(&records)
                .map(|(rid, (_, rids))| rids.iter().copied().filter(|&r| r < rid).collect())
                .collect();
            let mut eager = Vec::new();
            let mut entries = Vec::new();
            for ((rid, (values, _)), rids) in (0u32..).zip(&records).zip(&allowed) {
                eager.push((open.insert_record(rid, values), blocked.insert_record_among(rid, values, rids)));
                entries.push(deferred.register_record(rid, values));
            }
            let mut scratch = ScanScratch::default();
            for (rid, range) in (0..entries.len() as u32).zip(entries.clone()).rev() {
                let (open, blocked) = &eager[rid as usize];
                let all = deferred.pairs_of(rid, range.clone(), Among::Earlier, &mut scratch);
                prop_assert_eq!(&all, open, "record {}, every earlier record", rid);
                let among = Among::Records(&allowed[rid as usize]);
                let some = deferred.pairs_of(rid, range, among, &mut scratch);
                prop_assert_eq!(&some, blocked, "record {}, the allowed records", rid);
            }
            let (open, blocked): (Vec<_>, Vec<_>) = eager.into_iter().unzip();
            let earlier: Vec<_> = (0u32..)
                .zip(&entries)
                .map(|(rid, range)| (rid, range.clone(), Among::Earlier))
                .collect();
            prop_assert_eq!(deferred.pairs_of_each(2, &earlier), open, "one batch, every earlier record");
            let listed: Vec<_> = (0u32..)
                .zip(&entries)
                .zip(&allowed)
                .map(|((rid, range), rids)| (rid, range.clone(), Among::Records(rids)))
                .collect();
            prop_assert_eq!(deferred.pairs_of_each(2, &listed), blocked, "one batch, the allowed records");
        }
    }
}
