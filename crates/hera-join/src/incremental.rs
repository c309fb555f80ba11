//! Incremental similarity join: records arrive one at a time.
//!
//! The batch join (Definition 7) runs once, offline. Streaming entity
//! resolution needs the same result maintained under insertions: when a
//! new record's values arrive, find every stored value within ξ and emit
//! the new index entries. [`IncrementalJoin`] keeps what its filters read
//! of every live value, and an insert has two halves:
//!
//! - [`IncrementalJoin::register_record`] tokenizes a record's values and
//!   registers them, the only half that changes the join;
//! - [`IncrementalJoin::pairs_of_each`] scans the registered entries of
//!   a batch of records, each against the records an [`Among`] names, on
//!   worker threads that read the join through `&self`, a scratch each,
//!   and scores the survivors from values its caller lends.
//!   A session registers the records that arrived since its last pass in
//!   order, then scans each against [`Among::Earlier`] or its blocker's
//!   candidates, lending its super records; the batch blocked join
//!   (`Hera::join` under a blocking scheme) registers every record, then
//!   scans each against its earlier co-blocked records, lending the
//!   dataset.
//!
//! With blocking off a session scans each record against every earlier
//! one: "no blocking" read as one block that holds every record. One
//! door composes the halves for a single value,
//! `IncrementalJoin::insert_among`, kept only for the `benchmark/`
//! package's replay; no library calls it.
//!
//! No scan looks at a gram index; the filters do all the work:
//!
//! 1. *Gather, once per record.* Two tables are dense, one by rid — the
//!    live entry indices of each record — and one by entry index — the
//!    hot row of each value: sketch, numeric flag, distinct-gram count.
//!    The allowed records' rows are walked twice, to size one bucket per
//!    count and to fill them: a counting sort into one neighbourhood, in
//!    scratch buffers every gather refills.
//! 2. *Filter, once per value and count.* A stored count `|y|` can pair
//!    with the incoming `|x|` only if `min(|x|, |y|) ≥ α(|x| + |y|)`, α
//!    being the batch probe's required overlap `⌈ξ/(1+ξ)·(|x|+|y|)⌉`
//!    ([`RequiredOverlap`]); the counts outside that window are skipped
//!    whole. Inside it α is fixed per count, and a row survives the
//!    integer sketch test [`GramSketch::may_share`] or is dropped without
//!    its entry being touched. The loop over a bucket does nothing else:
//!    what the incoming value is — a string, a number (whose numeric rows
//!    survive regardless), a value under a metric that is not gram
//!    compatible (every row survives) — is decided outside it.
//! 3. *Score the survivors*, in one loop behind the filters, by the batch
//!    join's own dispatch ([`score`]). Where the metric declares
//!    [`ValueSimilarity::qgram_compatible`] and the pair is not two
//!    numbers, the sketch bound runs first; only a pair it keeps has both
//!    gram sets re-derived from the lent values, into the worker's
//!    scratch (the scanned value's once per entry), for the exact
//!    Jaccard. Two numbers, and every pair under a metric that is not
//!    gram compatible, go to the metric with the lent values. Both
//!    filters are sound for q-gram Jaccard, so the output is what scoring
//!    every row would give.
//!
//! Every scan therefore emits exactly the pairs an all-pairs join (the
//! metric asked about every pair of values) finds between the scanned
//! record and the records it gathered, under any metric: a metric that
//! declares no gram compatibility has every gathered row scored.
//!
//! The neighbourhood stays materialised. Testing each stored row of the
//! allowed records against the record's values directly, through
//! per-value count windows, was measured ≈ 0.05 s slower on the 5 000
//! record blocked stream than gathering and scanning by bucket: skipping
//! a whole out-of-window bucket per value is worth more than the copy.
//!
//! Labels mutate when records merge (the index relabels its entries);
//! [`IncrementalJoin::relabel`] applies the same remap here so future
//! insertions emit pairs against *current* labels — the labels a lender
//! finds the values under. A merge that folds two equal values onto one
//! label leaves one live entry, the one the merged super record kept, so
//! the live `(label, value)` set is the super records' value set and no
//! label is ever scored twice. The folded entry is retired, not
//! reclaimed: its columns stay, unreachable.
//!
//! # What a value costs
//!
//! The join stores what the filters read and nothing per gram: a live
//! value costs 41 bytes in dense columns — its label (12), hot row (24:
//! the 128-bit sketch, the distinct-gram count and the numeric flag),
//! retired flag (1) and place in its record's row (4) — plus amortized
//! `Vec` growth. Both the sketch and the count are taken from the value's
//! folded q-gram tokens at registration, so every filter decides as on the
//! tokens. The value itself lives once, where its caller keeps it (a super
//! record, a dataset), and is borrowed only to score a survivor: Jaccard
//! over the gram sets re-derived then is Jaccard over the tokens, bit for
//! bit. Only the `benchmark/` replay door keeps values of its own.

use crate::inverted::RequiredOverlap;
use crate::{score, scores_grams, Side, ValuePair};
use hera_sim::text::{folded_qgrams_into, GramSketch};
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
    /// Distinct grams: the signature length the length filter reads.
    len: u32,
    is_num: bool,
}

/// A live value is one cell in each per-entry column — label, hot row,
/// retired flag and place in its record's row: 12 + 24 + 1 + 4 = 41
/// bytes, the price the module docs state. The compile-time twin of the
/// "Compact streaming state" CI step, which refuses per-value gram
/// storage coming back.
const _: () = {
    use std::mem::size_of;
    assert!(size_of::<Label>() == 12);
    assert!(size_of::<Hot>() == 24);
    assert!(size_of::<bool>() == 1);
    assert!(size_of::<u32>() == 4);
};

/// The element type of each per-entry column, named: a column that
/// changes type no longer compiles here.
const _: fn(&IncrementalJoin) -> (Label, Hot, bool, u32) =
    |j| (j.labels[0], j.hot[0], j.retired[0], j.by_rid[0][0]);

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

/// A value's folded q-gram set, re-derived into buffers that keep their
/// capacity from one value to the next.
#[derive(Default)]
struct GramSet {
    /// Sorted and distinct once [`GramSet::lift`] returns.
    tokens: Vec<u64>,
    /// A number's text, rendered here rather than into a new string.
    text: String,
}

impl GramSet {
    /// Fills the set with `value`'s folded q-gram tokens — the set
    /// `folded_qgram_set(&value.text(), q)` returns — and returns it.
    fn lift(&mut self, value: &Value, q: usize) -> &[u64] {
        let Self { tokens, text } = self;
        let rendered = match value {
            Value::Str(s) => s.as_str(),
            Value::Null => "",
            number => {
                use std::fmt::Write as _;
                text.clear();
                write!(text, "{number}").expect("a String takes any write");
                text.as_str()
            }
        };
        debug_assert_eq!(rendered, value.text());
        folded_qgrams_into(rendered, q, tokens);
        tokens.sort_unstable();
        tokens.dedup();
        tokens
    }
}

/// The buffers of one scan, owned by its caller: the gathered
/// neighbourhood, the rows of it that passed the filters for the value
/// scanned last, and the gram sets of the scanned value and of the
/// survivor scored last. They carry no meaning between calls, so one per
/// thread lets scans of several records run at once against one join.
#[derive(Default)]
struct ScanScratch {
    neighbourhood: Neighbourhood,
    survivors: Vec<Row>,
    scanned: GramSet,
    partner: GramSet,
}

/// The records a scan gathers, the scanned record's own always left out.
#[derive(Clone, Copy, Debug)]
pub enum Among<'a> {
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
    /// gram length — enables gram-set scoring + the gram filters.
    fast_grams: bool,
    /// α for every pair of lengths registered so far.
    alpha: RequiredOverlap,
    /// Every value ever registered, as columns by entry index: its label,
    /// the filters' view of it and whether a merge retired it — folded it
    /// onto a label another entry already held. A retired entry's columns
    /// linger, unreachable.
    labels: Vec<Label>,
    hot: Vec<Hot>,
    retired: Vec<bool>,
    /// The live entry indices of each record, by rid; empty for a record
    /// that was folded into another or never seen.
    by_rid: Vec<Vec<u32>>,
    /// The values `IncrementalJoin::insert_among` was handed, by entry
    /// index: what its scans score from. Nothing else writes it.
    handed: FxHashMap<u32, Value>,
    /// The scratch of `IncrementalJoin::insert_among`, which scans one
    /// value at a time; registration lifts values into its gram set.
    scratch: ScanScratch,
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
            labels: Vec::new(),
            hot: Vec::new(),
            retired: Vec::new(),
            by_rid: Vec::new(),
            handed: FxHashMap::default(),
            scratch: ScanScratch::default(),
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

    /// Registers `value` under `label` and returns its similar pairs
    /// against the live values of the records `rids`: one value's
    /// register-and-scan, in the join's own scratch. This door's scans
    /// score from the values it was handed, which the join keeps, so
    /// every value such a scan can reach must have come in through it.
    /// Kept only because the frozen `benchmark/` package calls it;
    /// removed with ROADMAP item 1(a).
    #[doc(hidden)]
    pub fn insert_among(&mut self, label: Label, value: Value, rids: &[u32]) -> Vec<ValuePair> {
        let first = self.next_entry();
        self.register(label, &value);
        let entries = first..self.next_entry();
        if !entries.is_empty() {
            self.handed.insert(first, value);
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        let handed = &self.handed;
        let value = |idx: u32| &handed[&idx];
        let among = Among::Records(rids);
        let out = self.pairs_of(label.rid, entries, among, &value, &mut scratch);
        self.scratch = scratch;
        out
    }

    /// Registers the values of record `rid` — `values[fid]` under label
    /// `(rid, fid, 0)`, nulls ignored — and returns the entry indices they
    /// took: the half of an insert that changes the join.
    /// [`IncrementalJoin::pairs_of_each`] is the other half.
    pub fn register_record(&mut self, rid: u32, values: &[Value]) -> Range<u32> {
        let first = self.next_entry();
        for (fid, v) in (0u32..).zip(values) {
            self.register(Label::new(rid, fid, 0), v);
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
    /// `value` lends the value registered under a live label, as the
    /// label reads now: the join keeps no values, and scores a pair that
    /// passed its filters from the two `value` returns. It must return
    /// the value registered there — what a session's super records or an
    /// unmerged dataset hold.
    ///
    /// This is the one place a batch of records is scanned at once; a
    /// session's join pass and the batch blocked join both call it.
    pub fn pairs_of_each<'v>(
        &self,
        threads: usize,
        scans: &[(u32, Range<u32>, Among<'_>)],
        value: impl Fn(Label) -> &'v Value + Sync,
    ) -> Vec<Vec<ValuePair>> {
        let value = |idx: u32| value(self.labels[idx as usize]);
        par_map_with(
            threads,
            scans,
            ScanScratch::default,
            |scratch, (rid, entries, among)| {
                self.pairs_of(*rid, entries.clone(), *among, &value, scratch)
            },
        )
    }

    /// One record's scan of [`IncrementalJoin::pairs_of_each`], in
    /// `scratch`, `value` lending the value of an entry index.
    ///
    /// Per entry the scan runs the filters that are sound for the gathered
    /// rows — per length bucket the length window and the integer sketch
    /// test under q-gram Jaccard, numeric rows let through for a number —
    /// then, over what survived, the batch join's scoring dispatch.
    fn pairs_of<'v>(
        &self,
        rid: u32,
        entries: Range<u32>,
        among: Among<'_>,
        value: &impl Fn(u32) -> &'v Value,
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
            self.scan(idx, value, scratch, &mut out);
        }
        out
    }

    /// Appends to `out` the normalized pairs of entry `idx` with the rows
    /// of the gathered neighbourhood that clear ξ, ordered by label.
    fn scan<'v>(
        &self,
        idx: u32,
        value: &impl Fn(u32) -> &'v Value,
        scratch: &mut ScanScratch,
        out: &mut Vec<ValuePair>,
    ) {
        let first = out.len();
        let label = self.labels[idx as usize];
        let hot = self.hot[idx as usize];
        let x_len = hot.len as usize;
        let ScanScratch {
            neighbourhood: Neighbourhood { rows, starts, .. },
            survivors,
            scanned,
            partner,
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
        let x_value = value(idx);
        // The scanned value's gram set is derived on its first survivor
        // that is scored by grams, and kept for the others.
        let mut scanned_lifted = false;
        for row in survivors.iter() {
            assert!(
                !self.retired[row.idx as usize],
                "a gathered row names a live entry"
            );
            let by_grams = scores_grams(self.fast_grams, hot.is_num, row.is_num);
            // The sketch bound first: a pair it rejects costs neither a
            // lent value nor a gram set.
            if by_grams {
                let y_len = self.hot[row.idx as usize].len as usize;
                if hot.sketch.jaccard_upper_bound(x_len, row.sketch, y_len) < self.xi {
                    continue;
                }
            }
            let y_value = value(row.idx);
            let (x_grams, y_grams): (&[u64], &[u64]) = if by_grams {
                if !scanned_lifted {
                    scanned.lift(x_value, self.q);
                    scanned_lifted = true;
                }
                (&scanned.tokens, partner.lift(y_value, self.q))
            } else {
                (&[], &[])
            };
            let x = Side {
                value: x_value,
                is_num: hot.is_num,
                sig: x_grams,
                sketch: hot.sketch,
            };
            let y = Side {
                value: y_value,
                is_num: row.is_num,
                sig: y_grams,
                sketch: row.sketch,
            };
            if let Some(sim) = score(self.metric.as_ref(), self.fast_grams, self.xi, x, y) {
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

    /// The entry index the next registered value takes.
    fn next_entry(&self) -> u32 {
        u32::try_from(self.labels.len()).expect("the join holds fewer than 2^32 values")
    }

    /// Registers a value for future calls without scoring it against
    /// anything: what a restored session does with every value of its
    /// super records. Pairs emitted later do not depend on the order
    /// values were registered in, labels being unique and the output
    /// sorted by label. Nulls are ignored, as on insert.
    ///
    /// The value is lifted — folded and tokenized into the join's gram
    /// buffer, its sketch and distinct-gram count taken — and not kept.
    pub fn register(&mut self, label: Label, value: &Value) {
        if value.is_null() {
            return;
        }
        let grams = self.scratch.scanned.lift(value, self.q);
        // Any two counts ever registered sum to a covered length.
        self.alpha.cover(2 * grams.len());
        let hot = Hot {
            sketch: GramSketch::of(grams),
            len: u32::try_from(grams.len()).expect("a signature holds fewer than 2^32 grams"),
            is_num: value.as_number().is_some(),
        };
        let idx = self.next_entry();
        self.row_mut(label.rid).push(idx);
        self.labels.push(label);
        self.hot.push(hot);
        self.retired.push(false);
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
    /// retired.
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
                continue;
            }
            held = Some(new);
            self.labels[idx as usize] = new;
            self.row_mut(new.rid).push(idx);
        }
    }

    /// Checks that the live `(label, value)` set is exactly `expected`,
    /// and that each live entry's hot row is what lifting its value gives:
    /// the numeric flag, the distinct-gram count and the sketch. A session
    /// passes the values of its super records; the error names a label
    /// that differs.
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
        let mut lifted = GramSet::default();
        for (label, value) in expected {
            let Some(idx) = live.remove(&label) else {
                return Err(format!("join holds no value at {label}"));
            };
            let hot = self.hot[idx as usize];
            let grams = lifted.lift(value, self.q);
            let differs = if hot.is_num != value.as_number().is_some() {
                Some(format!("numeric flag {}", hot.is_num))
            } else if hot.len as usize != grams.len() {
                Some(format!("{} distinct grams", hot.len))
            } else if hot.sketch != GramSketch::of(grams) {
                Some(format!("sketch {:?}", hot.sketch))
            } else {
                None
            };
            if let Some(held) = differs {
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
}

/// Metrics the crate's tests swap in for the paper default.
#[cfg(test)]
pub(crate) mod test_metrics {
    use hera_sim::{NumericProximity, ValueSimilarity};
    use hera_types::{Value, ValueKind};

    /// Routes by kind as `TypeDispatch` does, through legs a test picks:
    /// number × number to `number`, any other pair of non-nulls to
    /// `string`, nulls to 0. Numbers go to a [`NumericProximity`]
    /// because the batch join's numeric sweep assumes a metric monotone
    /// in |a − b|.
    #[derive(Clone)]
    pub(crate) struct ByKind<S> {
        string: S,
        number: NumericProximity,
    }

    impl<S: ValueSimilarity> ByKind<S> {
        /// `string` for text, numeric proximity at `scale` for numbers.
        pub(crate) fn new(string: S, scale: f64) -> Self {
            let number = NumericProximity::new(scale);
            Self { string, number }
        }
    }

    impl<S: ValueSimilarity> ValueSimilarity for ByKind<S> {
        fn sim(&self, a: &Value, b: &Value) -> f64 {
            let num = |v: &Value| matches!(v.kind(), ValueKind::Int | ValueKind::Float);
            if a.is_null() || b.is_null() {
                0.0
            } else if num(a) && num(b) {
                self.number.sim(a, b)
            } else {
                self.string.sim(a, b)
            }
        }
        fn name(&self) -> &'static str {
            "by-kind"
        }
        fn qgram_compatible(&self) -> Option<usize> {
            self.string.qgram_compatible()
        }
    }

    /// A metric that keeps what it computes to itself: no
    /// `qgram_compatible`, so every row goes to `sim`.
    #[derive(Clone)]
    pub(crate) struct Opaque<M>(pub M);

    impl<M: ValueSimilarity> ValueSimilarity for Opaque<M> {
        fn sim(&self, a: &Value, b: &Value) -> f64 {
            self.0.sim(a, b)
        }
        fn name(&self) -> &'static str {
            "opaque"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_metrics::{ByKind, Opaque};
    use super::*;
    use crate::{JoinConfig, SimilarityJoin};
    use hera_sim::{EditSimilarity, QGramJaccard, TypeDispatch};
    use std::collections::BTreeMap;

    fn label(rid: u32, fid: u32) -> Label {
        Label::new(rid, fid, 0)
    }

    /// Record `rid`'s values under `(rid, fid, 0)`, nulls dropped: what
    /// the batch join reads of a record [`Lent::ingest`] takes whole.
    fn labeled(rid: u32, values: &[Value]) -> impl Iterator<Item = (Label, Value)> + '_ {
        let labeled = (0u32..)
            .zip(values)
            .map(move |(fid, v)| (label(rid, fid), v.clone()));
        labeled.filter(|(_, v)| !v.is_null())
    }

    /// Moves the values of records `i` and `j` to their labels under
    /// `remap`; a label two values fold onto keeps the one already there
    /// (the two are equal).
    fn remap_values(
        values: &mut BTreeMap<Label, Value>,
        i: u32,
        j: u32,
        remap: impl Fn(Label) -> Label,
    ) {
        let moved: Vec<Label> = values
            .keys()
            .copied()
            .filter(|l| l.rid == i || l.rid == j)
            .collect();
        let moved: Vec<(Label, Value)> = moved
            .into_iter()
            .map(|old| (remap(old), values.remove(&old).unwrap()))
            .collect();
        for (new, value) in moved {
            values.entry(new).or_insert(value);
        }
    }

    /// A join beside the values it is lent, by current label: what a
    /// session keeps in its super records, kept here in a map that
    /// registering and relabeling keep in step with the join.
    struct Lent {
        join: IncrementalJoin,
        values: BTreeMap<Label, Value>,
    }

    impl Lent {
        fn new(xi: f64, metric: Arc<dyn ValueSimilarity>) -> Self {
            Self {
                join: IncrementalJoin::new(xi, 2, metric),
                values: BTreeMap::new(),
            }
        }

        /// Record `rid` inserted the way a session's join pass inserts
        /// it: its values registered, then scanned against the records
        /// `among` names.
        fn ingest(&mut self, rid: u32, values: &[Value], among: Among<'_>) -> Vec<ValuePair> {
            let entries = self.join.register_record(rid, values);
            self.values.extend(labeled(rid, values));
            let lent = &self.values;
            let scans = [(rid, entries, among)];
            self.join.pairs_of_each(1, &scans, |l| &lent[&l]).concat()
        }

        fn register(&mut self, label: Label, value: &Value) {
            self.join.register(label, value);
            if !value.is_null() {
                self.values.insert(label, value.clone());
            }
        }

        fn relabel(&mut self, i: u32, j: u32, remap: impl Fn(Label) -> Label) {
            self.join.relabel(i, j, &remap);
            remap_values(&mut self.values, i, j, remap);
        }

        fn check(&self) -> Result<(), String> {
            self.join
                .check_values(self.values.iter().map(|(l, v)| (*l, v)))
        }
    }

    use std::sync::Arc;

    fn paper() -> Arc<dyn ValueSimilarity> {
        Arc::new(TypeDispatch::paper_default())
    }

    /// A lift is the gram set the batch join tokenizes, for strings
    /// folded byte-wise or through `fold`, and for numbers rendered
    /// into the buffer; the buffers carry nothing from one value to the
    /// next.
    #[test]
    fn lift_is_the_batch_gram_set() {
        let mut set = GramSet::default();
        let values = [
            Value::from("Electronics"),
            Value::from("ÉLAN vital"),
            Value::from("a"),
            Value::from(1984i64),
            Value::from(-7i64),
            Value::from(2.5f64),
            Value::from(1e21f64),
            Value::from(""),
        ];
        for q in [1, 2, 3] {
            for value in &values {
                let want = hera_sim::text::folded_qgram_set(&value.text(), q);
                assert_eq!(set.lift(value, q), want.as_slice(), "{value:?}, q = {q}");
            }
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
            let mut inc = Lent::new(xi, Arc::new(metric.clone()));
            let mut streamed: Vec<ValuePair> = Vec::new();
            for (rid, values) in (0u32..).zip(&records) {
                streamed.extend(inc.ingest(rid, values, Among::Earlier));
            }
            streamed.sort_unstable_by(crate::output_order);
            assert_eq!(streamed, batch, "xi = {xi}");
        }
    }

    /// Same metric values, but hidden behind a wrapper that does not
    /// declare `qgram_compatible` — forcing every gathered row through
    /// `metric.sim`. The gram-set fast path must emit exactly the same
    /// pair stream on every insert.
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
            let mut fast = Lent::new(xi, Arc::new(metric.clone()));
            let mut slow = Lent::new(xi, Arc::new(Opaque(metric.clone())));
            assert!(fast.join.fast_grams);
            assert!(!slow.join.fast_grams);
            for (rid, values) in (0u32..).zip(&records) {
                let a = fast.ingest(rid, values, Among::Earlier);
                let b = slow.ingest(rid, values, Among::Earlier);
                assert_eq!(a, b, "xi = {xi}, inserting record {rid}");
            }
        }
    }

    /// A join holding a string, a number and a value a merge relabeled
    /// passes the check against its values; altering, in turn, the
    /// distinct-gram count, the sketch and the numeric flag makes the
    /// check fail naming the altered value's label.
    #[test]
    fn check_values_refuses_a_tampered_join() {
        let string = (label(0, 0), Value::from("electronic"));
        let number = (label(0, 1), Value::from(1984i64));
        let moved = (Label::new(0, 2, 0), Value::from("bush@gmail"));
        let build = || {
            let mut lent = Lent::new(0.5, paper());
            lent.ingest(0, &[string.1.clone(), number.1.clone()], Among::Earlier);
            lent.ingest(1, std::slice::from_ref(&moved.1), Among::Earlier);
            lent.relabel(0, 1, |l| if l.rid == 1 { moved.0 } else { l });
            lent
        };
        build().check().unwrap();
        let entry = |join: &IncrementalJoin, at: Label| {
            join.by_rid[0]
                .iter()
                .copied()
                .find(|&idx| join.labels[idx as usize] == at)
                .unwrap() as usize
        };
        type Tamper = fn(&mut IncrementalJoin, usize);
        // What is altered, at which label, how, and what the error shows.
        let cases: [(&str, Label, Tamper, &str); 3] = [
            (
                "distinct-gram count",
                moved.0,
                |join, idx| {
                    join.hot[idx].len += 1;
                },
                "distinct grams",
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
        ];
        for (what, at, tamper, shows) in cases {
            let mut lent = build();
            let idx = entry(&lent.join, at);
            tamper(&mut lent.join, idx);
            let err = lent.check().expect_err(what);
            assert!(err.contains(&at.to_string()), "{what}: {err}");
            assert!(err.contains(shows), "{what}: {err}");
        }
    }

    #[test]
    fn same_record_values_never_pair() {
        let mut inc = Lent::new(0.5, paper());
        let same = || Value::from("same");
        assert!(inc.ingest(0, &[same(), same()], Among::Earlier).is_empty());
        assert!(inc.join.insert_among(label(0, 2), same(), &[0]).is_empty());
        assert_eq!(inc.join.len(), 3);
    }

    #[test]
    fn nulls_are_ignored() {
        let mut inc = Lent::new(0.5, paper());
        assert!(inc.ingest(0, &[Value::Null], Among::Earlier).is_empty());
        assert!(inc
            .join
            .insert_among(label(1, 0), Value::Null, &[0])
            .is_empty());
        assert!(inc.join.is_empty());
        assert!(inc.join.handed.is_empty());
    }

    #[test]
    fn relabel_redirects_future_pairs() {
        let mut inc = Lent::new(0.5, paper());
        inc.ingest(5, &[Value::from("bush@gmail")], Among::Earlier);
        // Record 5 merged into record 1, field shifted to 3.
        inc.relabel(1, 5, |l| {
            if l.rid == 5 {
                Label::new(1, 3, l.vid)
            } else {
                l
            }
        });
        let pairs = inc.ingest(9, &[Value::from("bush@gmail")], Among::Earlier);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].a, Label::new(1, 3, 0));
        assert_eq!(pairs[0].b, label(9, 0));
    }

    #[test]
    fn numeric_neighbours_are_found() {
        let metric = ByKind::new(QGramJaccard::default(), 5.0);
        let mut inc = Lent::new(0.5, Arc::new(metric));
        inc.ingest(0, &[Value::from(1980i64)], Among::Earlier);
        inc.ingest(1, &[Value::from(1990i64)], Among::Earlier);
        let pairs = inc.ingest(2, &[Value::from(1981i64)], Among::Earlier);
        // 1981 vs 1980 → sim 0.8; vs 1990 → 0. Gram overlap of "1981" and
        // "1980"/"1990" also exists but numeric dispatch scores them.
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].a.rid, 0);
        assert!((pairs[0].sim - 0.8).abs() < 1e-12);
    }

    /// Records 0 and 1 both hold "bush@gmail" (and distinct names) and
    /// merge: the merged super record keeps one copy of the equal value,
    /// and so does the join. A third record holding it too is then
    /// scored once per label, unblocked or through the one-value door,
    /// where a join that kept both entries emitted the `(0,1,0)` pair
    /// twice.
    #[test]
    fn values_folded_by_a_merge_are_scored_once() {
        let records = [
            [Value::from("john bush"), Value::from("bush@gmail")],
            [Value::from("j. bush"), Value::from("bush@gmail")],
        ];
        // 1 folds into 0: the names stay apart as two values of field 0,
        // the equal mail values share label (0, 1, 0).
        let remap = |l: Label| match (l.rid, l.fid) {
            (1, 0) => Label::new(0, 0, 1),
            (1, 1) => Label::new(0, 1, 0),
            _ => l,
        };
        let merged = [
            (Label::new(0, 0, 0), &Value::from("john bush")),
            (Label::new(0, 0, 1), &Value::from("j. bush")),
            (Label::new(0, 1, 0), &Value::from("bush@gmail")),
        ];
        let mut open = Lent::new(0.5, paper());
        for (rid, values) in (0u32..).zip(&records) {
            open.ingest(rid, values, Among::Earlier);
        }
        assert_eq!(open.join.len(), 4);
        open.relabel(0, 1, remap);
        let mut by_value = IncrementalJoin::new(0.5, 2, paper());
        for (rid, values) in (0u32..).zip(&records) {
            for (l, v) in labeled(rid, values) {
                by_value.insert_among(l, v, &[0]);
            }
        }
        by_value.relabel(0, 1, remap);
        for join in [&open.join, &by_value] {
            assert_eq!(join.len(), 3, "len counts live entries");
            join.check_values(merged).unwrap();
        }
        let a = open.ingest(2, &[Value::from("bush@gmail")], Among::Earlier);
        let b = by_value.insert_among(label(2, 0), Value::from("bush@gmail"), &[0]);
        assert_eq!(a, b);
        assert_eq!(
            a,
            vec![ValuePair {
                a: Label::new(0, 1, 0),
                b: label(2, 0),
                sim: 1.0
            }]
        );
        assert_eq!(open.join.len(), 4);
    }

    /// A numeric value retired by a merge is neither gathered nor scored:
    /// the live neighbours around it still are, each once.
    #[test]
    fn retired_numeric_values_are_skipped() {
        let metric = ByKind::new(QGramJaccard::default(), 5.0);
        let mut inc = Lent::new(0.5, Arc::new(metric));
        inc.ingest(0, &[Value::from(1980i64)], Among::Earlier);
        inc.ingest(1, &[Value::from(1981i64)], Among::Earlier);
        inc.ingest(2, &[Value::from(1981i64)], Among::Earlier);
        // 2 folds into 1; the two 1981s share a label, one is retired.
        inc.relabel(1, 2, |l| Label::new(1, l.fid, l.vid));
        assert_eq!(inc.join.len(), 2);
        let pairs = inc.ingest(3, &[Value::from(1982i64)], Among::Earlier);
        let partners: Vec<Label> = pairs.iter().map(|p| p.a).collect();
        assert_eq!(partners, vec![label(0, 0), label(1, 0)]);
    }

    /// `register` makes a value a partner without scoring it, in any
    /// order: a join rebuilt from the live values in label order emits
    /// what the join that saw them arrive (and merge) emits.
    #[test]
    fn registered_values_answer_like_inserted_ones() {
        let mut live = Lent::new(0.5, paper());
        live.ingest(1, &[Value::from("electronics")], Among::Earlier);
        live.ingest(2, &[Value::from(1984i64)], Among::Earlier);
        live.ingest(0, &[Value::from("electronic")], Among::Earlier);
        live.relabel(0, 1, |l| {
            if l.rid == 1 {
                Label::new(0, 7, l.vid)
            } else {
                l
            }
        });

        let mut rebuilt = Lent::new(0.5, paper());
        rebuilt.register(label(0, 0), &Value::from("electronic"));
        rebuilt.register(Label::new(0, 7, 0), &Value::from("electronics"));
        rebuilt.register(label(2, 0), &Value::from(1984i64));
        rebuilt.register(label(2, 1), &Value::Null);
        assert_eq!(rebuilt.join.len(), live.join.len());

        let a = live.ingest(9, &[Value::from("electronic")], Among::Earlier);
        let b = rebuilt.ingest(9, &[Value::from("electronic")], Among::Earlier);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    #[should_panic(expected = "xi")]
    fn zero_xi_rejected() {
        IncrementalJoin::new(0.0, 2, paper());
    }

    /// A blocked scan and the one-value door take the allow-list as it
    /// comes: out of order, with repeats, naming the incoming record
    /// itself or records the join never saw. Every pair comes out once,
    /// as for the clean list — and as from the unblocked scan, which
    /// gathers every earlier record.
    #[test]
    fn blocked_doors_accept_any_rid_list() {
        let stored = [
            (label(0, 0), "electronic"),
            (label(1, 0), "electronics"),
            (label(2, 0), "electronic"),
            (label(3, 0), "unrelated stuff"),
            // An earlier value of the incoming record: never a partner.
            (label(7, 0), "electronic"),
        ];
        let seeded = || {
            let mut lent = Lent::new(0.5, paper());
            for (l, v) in stored {
                lent.register(l, &Value::from(v));
            }
            lent
        };
        // The one-value door scores from the values it was handed, so
        // its join is seeded through it, each value scanned against
        // nothing.
        let handed = || {
            let mut join = IncrementalJoin::new(0.5, 2, paper());
            for (l, v) in stored {
                join.insert_among(l, Value::from(v), &[]);
            }
            join
        };
        let incoming = || vec![Value::Null, Value::from("electronic")];
        let clean = seeded().ingest(7, &incoming(), Among::Records(&[0, 1, 2]));
        let partners: Vec<Label> = clean.iter().map(|p| p.a).collect();
        assert_eq!(partners, vec![label(0, 0), label(1, 0), label(2, 0)]);
        assert!(clean.iter().all(|p| p.b == label(7, 1)));
        assert_eq!(
            seeded().ingest(7, &incoming(), Among::Earlier),
            clean,
            "unblocked"
        );
        let cases: [(&str, &[u32]); 4] = [
            ("unsorted", &[2, 0, 1]),
            ("repeated", &[0, 0, 1, 2, 2, 1]),
            ("own rid", &[0, 1, 2, 7]),
            ("unknown records", &[0, 1, 2, 5, 900]),
        ];
        for (case, rids) in cases {
            let by_record = seeded().ingest(7, &incoming(), Among::Records(rids));
            assert_eq!(by_record, clean, "by record, {case}");
            let by_value = handed().insert_among(label(7, 1), Value::from("electronic"), rids);
            assert_eq!(by_value, clean, "insert_among, {case}");
        }
    }

    /// The motivating example, every record registered; then each record
    /// scanned in one batch, against the earlier records `partners`
    /// names, on `threads` workers, lent the dataset's values: the pairs
    /// of every scan, in the join's output order.
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
        let lent = |l: Label| &ds.records[l.rid as usize].values[l.fid as usize];
        let mut pairs = join.pairs_of_each(threads, &scans, lent).concat();
        pairs.sort_unstable_by(crate::output_order);
        pairs
    }

    /// A batch scan against no partners yields nothing.
    #[test]
    fn batch_scan_of_no_partners_yields_nothing() {
        assert!(scanned(0.3, paper(), |_| Vec::new(), 2).is_empty());
    }

    /// Each record scanned against every earlier record is the exhaustive
    /// join of the dataset — labels, similarity bits and order — under
    /// q-gram Jaccard and under edit similarity, at one and two threads.
    #[test]
    fn batch_scan_of_every_earlier_record_is_exhaustive() {
        let jaccard = TypeDispatch::paper_default();
        let edit = ByKind::new(EditSimilarity, 1.0);
        let metrics: [Arc<dyn ValueSimilarity>; 2] = [Arc::new(jaccard), Arc::new(edit)];
        let ds = hera_types::motivating_example();
        let bits = |pairs: &[ValuePair]| -> Vec<(Label, Label, u64)> {
            pairs.iter().map(|p| (p.a, p.b, p.sim.to_bits())).collect()
        };
        for metric in metrics {
            for xi in [0.3, 0.5, 0.7, 0.9] {
                let oracle = crate::all_pairs_of(&ds, xi, metric.as_ref());
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
        let sorted = scanned(0.3, paper(), |rid| (0..rid).collect(), 1);
        let shuffled = |rid: u32| (0..rid).rev().chain(0..rid).collect();
        assert!(!sorted.is_empty());
        assert_eq!(scanned(0.3, paper(), shuffled, 2), sorted);
    }

    /// A record's values are registered under `(rid, position, 0)`, nulls
    /// skipped, and never pair with each other; the next record pairs
    /// with each of them.
    #[test]
    fn record_door_registers_every_value() {
        let mut inc = Lent::new(0.5, paper());
        let first = vec![Value::from("same"), Value::Null, Value::from("same")];
        assert!(inc.ingest(0, &first, Among::Records(&[])).is_empty());
        assert_eq!(inc.join.len(), 2);
        let pairs = inc.ingest(1, &[Value::from("same")], Among::Records(&[0]));
        let partners: Vec<Label> = pairs.iter().map(|p| p.a).collect();
        assert_eq!(partners, vec![label(0, 0), label(0, 2)]);
    }

    /// The live values of a stream with merges, as the super records
    /// would hold them: the oracle's input and the source of each remap.
    #[derive(Default)]
    struct LiveValues(BTreeMap<Label, Value>);

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
        /// One stream of records with merges in between, through the
        /// record scans, the one-value door and the batch oracle: on
        /// every record, the blocked record scan and the one-value door
        /// agree with the all-pairs join over the live values of
        /// the allowed records, and the scan of every earlier record with
        /// it over *all* live values — same labels, same similarity bits,
        /// same order — under q-gram Jaccard declared and hidden, and
        /// under edit similarity, where no gram filter applies. The
        /// allow-lists come unsorted, with repeats, the incoming record
        /// and unknown ones.
        ///
        /// Every other record is cut down to one allowed record:
        /// neighbourhoods large and small, of longer and shorter
        /// signatures, follow each other with relabels in between. The
        /// record scan must still answer like a join built afresh from
        /// the live values, and the one-value door, which gathers into
        /// buffers it keeps, like the oracle — a row or a bucket bound
        /// left over from the call before would show.
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
            let jaccard = ByKind::new(QGramJaccard::default(), 5.0);
            let metric: Arc<dyn ValueSimilarity> = match metric_kind {
                0 => Arc::new(jaccard),
                1 => Arc::new(Opaque(jaccard)),
                _ => Arc::new(ByKind::new(EditSimilarity, 5.0)),
            };
            let mut by_record = Lent::new(xi, metric.clone());
            let mut by_value = IncrementalJoin::new(xi, 2, metric.clone());
            let mut open = Lent::new(xi, metric.clone());
            let mut live = LiveValues::default();
            let mut roots: Vec<u32> = Vec::new();
            let bits = |pairs: &[ValuePair]| -> Vec<(Label, Label, u64)> {
                pairs.iter().map(|p| (p.a, p.b, p.sim.to_bits())).collect()
            };
            // The new record's pairs among `universe`, the ones an insert
            // emits, value by value in label order.
            let new_pairs = |universe: &[(Label, Value)], rid: u32| {
                let values = universe.iter().map(|(l, v)| (*l, v));
                let mut pairs = crate::all_pairs(values, xi, metric.as_ref());
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

                let got = by_record.ingest(rid, &values, Among::Records(&rids));
                prop_assert_eq!(bits(&got), bits(&expected), "record {}, by record", rid);
                let mut fresh = Lent::new(xi, metric.clone());
                for (l, v) in &live.0 {
                    fresh.register(*l, v);
                }
                let afresh = fresh.ingest(rid, &values, Among::Records(&rids));
                prop_assert_eq!(bits(&got), bits(&afresh), "record {}, built afresh", rid);
                let mut got = Vec::new();
                for (l, v) in &incoming {
                    got.extend(by_value.insert_among(*l, v.clone(), &rids));
                }
                prop_assert_eq!(bits(&got), bits(&expected), "record {}, by value", rid);
                let got = open.ingest(rid, &values, Among::Earlier);
                let expected = new_pairs(&everything, rid);
                prop_assert_eq!(bits(&got), bits(&expected), "record {}, unblocked", rid);

                live.0.extend(incoming);
                roots.push(rid);
                if merge && roots.len() >= 2 {
                    let j = roots.swap_remove(picks.0 % roots.len());
                    let i = roots[picks.1 % roots.len()];
                    let remap = live.merge(i, j);
                    let remap = |l| remap.get(&l).copied().unwrap_or(l);
                    for lent in [&mut by_record, &mut open] {
                        lent.relabel(i, j, remap);
                        prop_assert!(lent.check().is_ok());
                    }
                    by_value.relabel(i, j, remap);
                    prop_assert!(by_value.check_values(live.0.iter().map(|(l, v)| (*l, v))).is_ok());
                }
            }
        }

        /// The two halves of an insert, taken apart: a run of records is
        /// registered first, and each is then scanned against the records
        /// before it — every earlier record, or the earlier ones a list
        /// names — from the last record back to the first, one scratch for
        /// all, and in one batch on two workers. Every record's pairs are
        /// the bits an insert gives when the records arrive one at a
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
            let mut open = Lent::new(xi, metric.clone());
            let mut blocked = Lent::new(xi, metric.clone());
            let mut deferred = IncrementalJoin::new(xi, 2, metric);
            let allowed: Vec<Vec<u32>> = (0u32..)
                .zip(&records)
                .map(|(rid, (_, rids))| rids.iter().copied().filter(|&r| r < rid).collect())
                .collect();
            let mut eager = Vec::new();
            let mut entries = Vec::new();
            for ((rid, (values, _)), rids) in (0u32..).zip(&records).zip(&allowed) {
                eager.push((open.ingest(rid, values, Among::Earlier), blocked.ingest(rid, values, Among::Records(rids))));
                entries.push(deferred.register_record(rid, values));
            }
            let lent = |l: Label| &records[l.rid as usize].0[l.fid as usize];
            let by_entry = |idx: u32| lent(deferred.labels[idx as usize]);
            let mut scratch = ScanScratch::default();
            for (rid, range) in (0..entries.len() as u32).zip(entries.clone()).rev() {
                let (open, blocked) = &eager[rid as usize];
                let all = deferred.pairs_of(rid, range.clone(), Among::Earlier, &by_entry, &mut scratch);
                prop_assert_eq!(&all, open, "record {}, every earlier record", rid);
                let among = Among::Records(&allowed[rid as usize]);
                let some = deferred.pairs_of(rid, range, among, &by_entry, &mut scratch);
                prop_assert_eq!(&some, blocked, "record {}, the allowed records", rid);
            }
            let (open, blocked): (Vec<_>, Vec<_>) = eager.into_iter().unzip();
            let earlier: Vec<_> = (0u32..)
                .zip(&entries)
                .map(|(rid, range)| (rid, range.clone(), Among::Earlier))
                .collect();
            prop_assert_eq!(deferred.pairs_of_each(2, &earlier, lent), open, "one batch, every earlier record");
            let listed: Vec<_> = (0u32..)
                .zip(&entries)
                .zip(&allowed)
                .map(|((rid, range), rids)| (rid, range.clone(), Among::Records(rids)))
                .collect();
            prop_assert_eq!(deferred.pairs_of_each(2, &listed, lent), blocked, "one batch, the allowed records");
        }
    }
}
