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
//!    *distinct* values only — dense ids by `Hash` + `Eq`, numbered in
//!    [`Value::cmp`] order — with every value's labels in one CSR, and
//!    expands matches to label pairs.
//! 2. **One rank arena.** Each distinct value's folded grams are hashed
//!    into one reused buffer, its 128-bit sketch taken there, and its
//!    distinct grams pushed into one `u32` arena as dense token ids, then
//!    renamed in place to ranks by ascending document frequency. A value
//!    keeps a 24-byte hot row — the sketch, its arena range and the
//!    numeric flag — and no signature of its own.
//! 3. **One length-ordered probe of an inverted q-gram index.** Values are
//!    processed in `(signature length, index)` order and each is probed
//!    against the values before it only, so an indexed `y` never meets a
//!    shorter probe: it is enough to index its *index prefix*, the
//!    `|y| − ⌈2ξ/(1+ξ)·|y|⌉ + 1` rarest tokens, while a probing `x` looks
//!    up its longer *probe prefix*, the `|x| − ⌈ξ·|x|⌉ + 1` rarest — any
//!    pair with Jaccard `≥ ξ` collides on one of those. Posting lists are
//!    sorted by length, so the length filter (`|y| ≥ ⌈ξ·|x|⌉`) is a binary
//!    search; a positional filter drops a pair whose remaining tokens can
//!    no longer reach the required overlap. The probe reads signatures
//!    through the arena and runs on [`hera_types::parallel`], heaviest
//!    values first.
//! 4. **Verification inside the probe.** A pair that survives the filters
//!    is scored at once — by the black-box [`ValueSimilarity`], or, when
//!    the metric declares them equivalent, by Jaccard over the two rank
//!    slices, read only once the hot rows' sketches pass — and, if
//!    `sim ≥ ξ`, kept as one distinct-value pair in the worker's block.
//!    No candidate list is built, sorted or deduplicated.
//! 5. **Numeric sweep.** Numeric values are sorted and paired by a bounded
//!    forward sweep, sound for any metric that is non-increasing in
//!    `|a − b|` (all built-in numeric metrics are); each swept pair is
//!    scored once, by the sweep.
//! 6. **Output written once.** The probe's blocks, the sweep's pairs and
//!    the within-value pairs are expanded to label pairs twice: once to
//!    count them per first record, once to scatter them into one vector of
//!    exact size, each block dropped as soon as it is copied. Each
//!    record's bucket is then sorted by [`output_order`].
//!
//! # What a value costs
//!
//! Per distinct value the join used to hold a 32-byte map entry, then a
//! 32-byte `(value, Vec<Label>)` row whose labels had a heap block of
//! their own (12 bytes a label, at least 48 bytes plus the allocator's
//! header), a 24-byte `Vec<u64>` header with 8 bytes a gram in another
//! block, a 48-byte verifier row, and — in the probe's index — the
//! signature again, at 4 bytes a gram and a 4-byte start: about
//! 220 + 12·g bytes for a value with one label and `g` grams. It now
//! keeps 8 bytes (the value's reference), a 4-byte CSR offset and a
//! 24-byte hot row, 12 bytes per label in the CSR and 4 bytes per gram
//! in the arena: 48 + 4·g. The grouping's id map (16 bytes an entry and
//! 4 bytes a label) and the vocabulary (about 40 bytes a distinct gram)
//! live only while they are built. The probe adds 12 bytes per value,
//! 8 per value per worker (collision counts) and 8 per indexed prefix
//! gram, all freed before the output is written.
//! On the 20 000-record scale preset at ξ 0.7 (144 460 values, 124 723
//! distinct) the `join_mem` diagnostic line reads 3.4 MB of labels,
//! 7.7 MB of arena, 3.0 MB of hot rows, 4.8 MB of postings and
//! 16.2 MB of output (506 567 pairs); the join raises the process's
//! peak by 28 MB, against 76 MB before (`tests/join_memory.rs`).
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

use hera_sim::text::{jaccard_of_sets, GramSketch};
use hera_sim::ValueSimilarity;
use hera_types::json::Json;
use hera_types::{Dataset, Label, Value};
use rustc_hash::FxHashMap;
use std::mem::size_of;
use std::ops::Range;
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
/// and its gram signature — its distinct folded grams, ascending, as
/// hashed grams (`u64`, the incremental join) or as ranks in the batch
/// join's arena (`u32`) — with the 128-bit sketch of the hashed grams.
/// The signature is empty wherever [`score`] does not read it: the
/// incremental join derives it only for a pair the gram path scores.
#[derive(Clone, Copy)]
pub(crate) struct Side<'a, T> {
    pub(crate) value: &'a Value,
    pub(crate) is_num: bool,
    pub(crate) sig: &'a [T],
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
/// [`ValueSimilarity::qgram_compatible`] contract, without re-tokenizing,
/// and the same bits under any renaming of the grams that keeps them
/// distinct and sorted — after the sketch's upper bound on that Jaccard:
/// the bound is sound, so a reject can never drop a pair the exact
/// intersection would keep.
#[inline]
pub(crate) fn score<T: Ord>(
    metric: &dyn ValueSimilarity,
    fast_grams: bool,
    xi: f64,
    a: Side<'_, T>,
    b: Side<'_, T>,
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

/// What the batch join's verifier reads of a distinct value before it
/// touches the rank arena: the sketch, the value's range in the arena,
/// and the numeric flag, kept in the top bit of the length word.
#[derive(Clone, Copy)]
pub(crate) struct HotRow {
    pub(crate) sketch: GramSketch,
    start: u32,
    /// Signature length, [`NUMERIC`] set for a number.
    len: u32,
}

/// The numeric flag's bit in [`HotRow::len`].
const NUMERIC: u32 = 1 << 31;

/// A hot row is 24 bytes: the batch twin of the incremental join's
/// 41-byte entry, and the price the module docs state.
const _: () = assert!(std::mem::size_of::<HotRow>() == 24);

impl HotRow {
    pub(crate) fn new(sketch: GramSketch, start: usize, len: usize, is_num: bool) -> Self {
        let start = u32::try_from(start).expect("the arena holds fewer than 2^32 grams");
        let len = u32::try_from(len)
            .ok()
            .filter(|&len| len < NUMERIC)
            .expect("a signature holds fewer than 2^31 grams");
        let flag = if is_num { NUMERIC } else { 0 };
        Self {
            sketch,
            start,
            len: len | flag,
        }
    }

    /// Distinct grams in the signature.
    #[inline]
    pub(crate) fn len(self) -> u32 {
        self.len & !NUMERIC
    }

    /// True for an `Int` or `Float` value.
    #[inline]
    pub(crate) fn is_num(self) -> bool {
        self.len & NUMERIC != 0
    }

    /// The signature's range in the arena.
    #[inline]
    pub(crate) fn span(self) -> Range<usize> {
        self.start as usize..self.start as usize + self.len() as usize
    }
}

/// A distinct-value pair `(i, j, sim)`, `i ≤ j`, with `sim ≥ ξ`: what the
/// probe, the numeric sweep and the within-value scoring hand to the
/// expansion. `i == j` is a value paired with itself.
type ValueMatch = (u32, u32, f64);

/// The distinct non-null values of a join's input in [`Value::cmp`]
/// order, and their labels as one CSR: value `i`'s labels are
/// `labels[starts[i]..starts[i + 1]]`, in input order.
struct Groups<'a> {
    values: Vec<&'a Value>,
    starts: Vec<u32>,
    labels: Vec<Label>,
    /// Every record id that labels a value, ascending.
    rids: Vec<u32>,
}

impl<'a> Groups<'a> {
    /// Groups `input`, nulls dropped, in two passes. The first gives each
    /// distinct value a dense id — by `Hash` + `Eq`, in an
    /// `FxHashMap<&Value, u32>` — and notes each label's; the second files
    /// the labels, the ids renumbered into `Value::cmp` order. Returns the
    /// groups and the number of input values, nulls included.
    fn of(input: impl Iterator<Item = (Label, &'a Value)> + Clone) -> (Self, usize) {
        let mut id_of: FxHashMap<&Value, u32> = FxHashMap::default();
        let mut firsts: Vec<&Value> = Vec::new();
        let mut sizes: Vec<u32> = Vec::new();
        let mut ids: Vec<u32> = Vec::new();
        let mut rids: Vec<u32> = Vec::new();
        let mut total = 0usize;
        for (label, v) in input.clone() {
            total += 1;
            if v.is_null() {
                continue;
            }
            let id = *id_of.entry(v).or_insert_with(|| {
                firsts.push(v);
                sizes.push(0);
                (firsts.len() - 1) as u32
            });
            sizes[id as usize] += 1;
            ids.push(id);
            if rids.last() != Some(&label.rid) {
                rids.push(label.rid);
            }
        }
        drop(id_of);
        assert!(
            u32::try_from(ids.len()).is_ok(),
            "the join takes fewer than 2^32 values"
        );
        rids.sort_unstable();
        rids.dedup();

        // Deterministic order.
        let mut by_cmp: Vec<u32> = (0..firsts.len() as u32).collect();
        by_cmp.sort_unstable_by(|&a, &b| firsts[a as usize].cmp(firsts[b as usize]));
        let mut place = vec![0u32; by_cmp.len()];
        let mut starts = Vec::with_capacity(by_cmp.len() + 1);
        starts.push(0u32);
        for (at, &id) in by_cmp.iter().enumerate() {
            place[id as usize] = at as u32;
            starts.push(starts[at] + sizes[id as usize]);
        }
        let values: Vec<&Value> = by_cmp.iter().map(|&id| firsts[id as usize]).collect();
        drop((firsts, sizes, by_cmp));

        let mut next = starts.clone();
        let mut labels = vec![Label::new(0, 0, 0); ids.len()];
        let non_null = input.filter(|(_, v)| !v.is_null());
        for ((label, _), id) in non_null.zip(ids) {
            let at = &mut next[place[id as usize] as usize];
            labels[*at as usize] = label;
            *at += 1;
        }
        let groups = Self {
            values,
            starts,
            labels,
            rids,
        };
        (groups, total)
    }

    /// Value `i`'s labels.
    fn labels_of(&self, i: usize) -> &[Label] {
        &self.labels[self.starts[i] as usize..self.starts[i + 1] as usize]
    }

    /// Calls `f` with every label pair of `(i, j, sim)` that spans two
    /// records, the smaller rid first.
    fn each_label_pair(&self, &(i, j, sim): &ValueMatch, mut f: impl FnMut(ValuePair)) {
        let (us, vs) = (self.labels_of(i as usize), self.labels_of(j as usize));
        for (k, &a) in us.iter().enumerate() {
            let partners = if i == j { &vs[k + 1..] } else { vs };
            for &b in partners {
                if let Some(pair) = label_pair(a, b, sim) {
                    f(pair);
                }
            }
        }
    }

    /// The label pairs of every value pair in `lists`, written once into
    /// a vector of exact size in [`output_order`]: counted per first
    /// record, scattered into that record's bucket — each list dropped
    /// once it is copied — and sorted bucket by bucket.
    fn expand(&self, lists: Vec<Vec<ValueMatch>>) -> Vec<ValuePair> {
        // Record ids are dense for a dataset; anything else is ranked.
        let dense = self.rids.last().map_or(0, |&r| r as usize + 1) == self.rids.len();
        let bucket = |rid: u32| {
            if dense {
                rid as usize
            } else {
                self.rids.binary_search(&rid).expect("a labelled record")
            }
        };
        let buckets = self.rids.len();
        let mut starts = vec![0usize; buckets + 1];
        for m in lists.iter().flatten() {
            self.each_label_pair(m, |pair| starts[bucket(pair.a.rid) + 1] += 1);
        }
        for r in 0..buckets {
            starts[r + 1] += starts[r];
        }
        let blank = ValuePair {
            a: Label::new(0, 0, 0),
            b: Label::new(0, 0, 0),
            sim: 0.0,
        };
        let mut out = vec![blank; starts[buckets]];
        let mut next = starts.clone();
        for list in lists {
            for m in &list {
                self.each_label_pair(m, |pair| {
                    let at = &mut next[bucket(pair.a.rid)];
                    out[*at] = pair;
                    *at += 1;
                });
            }
        }
        for w in starts.windows(2) {
            out[w[0]..w[1]].sort_unstable_by(output_order);
        }
        out
    }

    /// Heap bytes of the values, the CSR and the record ids.
    fn heap_bytes(&self) -> usize {
        self.values.capacity() * size_of::<&Value>()
            + (self.starts.capacity() + self.rids.capacity()) * size_of::<u32>()
            + self.labels.capacity() * size_of::<Label>()
    }
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
    fn join_refs<'a>(
        &self,
        values: impl Iterator<Item = (Label, &'a Value)> + Clone,
    ) -> Vec<ValuePair> {
        let t0 = Instant::now();
        // 1. Distinct values, their labels in one CSR.
        let (groups, total_values) = Groups::of(values);

        // 2. Pairs *across* distinct values `i < j`, scored once. Gram
        // signatures are held once, in the rank arena, and read by the
        // probe *and* (when the metric declares gram compatibility)
        // scoring.
        let xi = self.config.xi;
        let declared = self.metric.qgram_compatible();
        let fast_grams = declared.is_some();
        let sigs = inverted::Signatures::build(&groups.values, declared.unwrap_or(2));
        let side = |i: usize| {
            let row = sigs.hot[i];
            Side {
                value: groups.values[i],
                is_num: row.is_num(),
                sig: sigs.sig(i),
                sketch: row.sketch,
            }
        };
        let score_pair = |i: usize, j: usize| score(self.metric, fast_grams, xi, side(i), side(j));
        // Two numbers the sweep paired are its to emit, not the probe's.
        let swept = numeric::numeric_pairs(&groups.values, self.metric, xi);
        let is_swept = |i: usize, j: usize| {
            let at = |&(a, b, _): &ValueMatch| (a as usize, b as usize).cmp(&(i, j));
            sigs.hot[i].is_num() && sigs.hot[j].is_num() && swept.binary_search_by(at).is_ok()
        };
        // The prefix filter exactly where it is complete.
        let threads = self.config.num_threads;
        let probed = inverted::probe(&sigs, xi, fast_grams, threads, |i, j, out| {
            if is_swept(i, j) {
                return false;
            }
            if let Some(s) = score_pair(i, j) {
                out.push((i as u32, j as u32, s));
            }
            true
        });
        let candidates = probed.scored + swept.len();

        // 3. Pairs *within* one distinct value: sim(v, v), scored as any
        // other pair.
        let within: Vec<ValueMatch> = (0..groups.values.len())
            .filter(|&i| groups.labels_of(i).len() >= 2)
            .filter_map(|i| score_pair(i, i).map(|s| (i as u32, i as u32, s)))
            .collect();
        let (arena_bytes, hot_bytes) = sigs.heap_bytes();
        drop(sigs);

        // 4. Every value pair expanded to label pairs, written once.
        let mut lists = probed.blocks;
        lists.push(swept);
        lists.push(within);
        let out = groups.expand(lists);

        // The funnel counters are order-independent totals, so the span
        // is part of the deterministic core journal; wall-clock and the
        // transient tables' sizes are separate diagnostic lines.
        self.recorder.span(
            "join",
            None,
            &[
                ("values", total_values as i64),
                ("distinct", groups.values.len() as i64),
                ("candidates", candidates as i64),
                ("pairs", out.len() as i64),
            ],
        );
        let bytes = |n: usize| Json::Int(n as i64);
        self.recorder.emit_diag(
            "diag",
            vec![
                ("what", Json::Str("join_mem".into())),
                ("labels_bytes", bytes(groups.heap_bytes())),
                ("arena_bytes", bytes(arena_bytes)),
                ("hot_bytes", bytes(hot_bytes)),
                ("postings_bytes", bytes(probed.postings_bytes)),
                (
                    "output_bytes",
                    bytes(out.capacity() * size_of::<ValuePair>()),
                ),
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
fn dataset_values(ds: &Dataset) -> impl Iterator<Item = (Label, &Value)> + Clone {
    ds.records.iter().flat_map(|rec| {
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
                out.extend(partners.iter().filter_map(|&b| label_pair(a, b, s)));
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

/// The pair of `a` and `b`, smaller rid first; `None` within one record.
fn label_pair(a: Label, b: Label, sim: f64) -> Option<ValuePair> {
    match a.rid.cmp(&b.rid) {
        std::cmp::Ordering::Equal => None, // same record: excluded by Def. 6
        std::cmp::Ordering::Less => Some(ValuePair { a, b, sim }),
        std::cmp::Ordering::Greater => Some(ValuePair { a: b, b: a, sim }),
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

    /// `Int(0)`, `Float(-0.0)` and `Float(0.0)` are one value under
    /// `Hash` + `Eq`: one group, whose three labels pair within it.
    #[test]
    fn signed_zeros_are_one_value() {
        let metric = TypeDispatch::paper_default();
        let vals = labeled(&[
            (0, 0, Value::Int(0)),
            (1, 0, Value::Float(-0.0)),
            (2, 0, Value::Float(0.0)),
        ]);
        let (recorder, journal) = hera_obs::Recorder::to_memory();
        let pairs = SimilarityJoin::new(JoinConfig::new(0.5), &metric)
            .with_recorder(recorder)
            .join(&vals);
        let got: Vec<(u32, u32, f64)> = pairs.iter().map(|p| (p.a.rid, p.b.rid, p.sim)).collect();
        assert_eq!(got, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]);
        assert!(journal.contents().contains("\"distinct\":1,"));
    }

    /// The join against the all-pairs oracle on the inputs its grouping,
    /// its arena and its expansion could get wrong: numbers equal across
    /// `Int` and `Float` and both zeros, one value repeated inside a record
    /// and across records, nulls, `""`, non-ASCII text, and a number's
    /// text as a string — under q-gram Jaccard, a numeric scale the sweep
    /// must respect, and edit similarity, which declares no gram length.
    /// The same pairs, similarity bits and `candidates` at 1, 2 and 4
    /// threads. Where the probe is share-a-gram — ξ = 0, or a metric
    /// without a gram length — the oracle keeps the pairs that share a
    /// gram, are one value, or are two numbers (the sweep's).
    #[test]
    fn edge_cases_equal_all_pairs() {
        use hera_sim::text::{folded_qgram_set, intersection_size};
        use hera_sim::{EditSimilarity, QGramJaccard};
        let mut vals = labeled(&[
            (0, 0, Value::Int(2)),
            (0, 1, Value::from("manager")),
            (0, 2, Value::from("manager")),
            (1, 0, Value::Float(2.0)),
            (1, 1, Value::from("manager")),
            (1, 2, Value::Null),
            (2, 0, Value::Float(-0.0)),
            (2, 1, Value::from("")),
            (2, 2, Value::from("Σίσυφος")),
            (3, 0, Value::Int(0)),
            (3, 1, Value::from("")),
            (3, 2, Value::from("σίσυφοσ")),
            (4, 0, Value::Float(0.0)),
            (4, 1, Value::Null),
            (4, 2, Value::from("Ünïcödé")),
            (5, 0, Value::Float(2.5)),
            (5, 1, Value::from("2")),
            (5, 2, Value::from("unicode")),
            (6, 0, Value::Int(3)),
            (6, 1, Value::from("managers")),
            (6, 2, Value::from("2.5")),
        ]);
        vals.extend(labeled(&[
            (7, 0, Value::from("manager")),
            (7, 1, Value::Int(2)),
        ]));
        // Enough distinct values for the probe and the pool to fan out.
        for rid in 8..48u32 {
            let k = rid as usize;
            let word = ["item", "ítem", "items", "stem", "it em"][k % 5];
            vals.push((
                Label::new(rid, 0, 0),
                Value::from(format!("{word} {}", k % 13)),
            ));
            vals.push((Label::new(rid, 1, 0), Value::Float(k as f64 / 4.0)));
        }
        // Sparse record ids take the ranked buckets.
        let sparse: Vec<(Label, Value)> = vals
            .iter()
            .map(|(l, v)| (Label::new(l.rid * 1_000_003, l.fid, l.vid), v.clone()))
            .collect();
        let jaccard = TypeDispatch::paper_default();
        let scaled = ByKind::new(QGramJaccard::default(), 2.0);
        let edit = ByKind::new(EditSimilarity, 1.0);
        let metrics: [&dyn ValueSimilarity; 3] = [&jaccard, &scaled, &edit];
        for input in [&vals, &sparse] {
            let refs = || input.iter().map(|(l, v)| (*l, v));
            let value_of = |l: Label| &input.iter().find(|(m, _)| *m == l).unwrap().1;
            for metric in metrics {
                for xi in [0.0, 0.3, 0.5, 0.8, 1.0] {
                    let mut expected = all_pairs(refs(), xi, metric);
                    if xi == 0.0 || metric.qgram_compatible().is_none() {
                        expected.retain(|p| {
                            let (a, b) = (value_of(p.a), value_of(p.b));
                            let grams = |v: &Value| folded_qgram_set(&v.text(), 2);
                            let both_num = a.as_number().is_some() && b.as_number().is_some();
                            a == b || both_num || intersection_size(&grams(a), &grams(b)) > 0
                        });
                    }
                    let bits = |pairs: &[ValuePair]| -> Vec<(Label, Label, u64)> {
                        pairs.iter().map(|p| (p.a, p.b, p.sim.to_bits())).collect()
                    };
                    let mut spans = Vec::new();
                    for threads in [1, 2, 4] {
                        let (recorder, journal) = hera_obs::Recorder::to_memory();
                        let config = JoinConfig::new(xi).with_threads(threads);
                        let got = SimilarityJoin::new(config, metric)
                            .with_recorder(recorder.deterministic())
                            .join(input);
                        let name = metric.name();
                        assert_eq!(
                            bits(&got),
                            bits(&expected),
                            "{name} xi={xi} {threads} threads"
                        );
                        spans.push(journal.contents());
                    }
                    assert!(spans.iter().all(|s| *s == spans[0]), "{spans:?}");
                }
            }
        }
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
