//! Inverted q-gram index with prefix filtering: one fused, length-ordered,
//! parallel probe (AllPairs / PPJoin, Bayardo et al., Xiao et al.).
//!
//! [`probe`] hands every pair of signatures that could reach Jaccard ≥ ξ
//! to its caller's verifier the moment the pair survives the filters — no
//! candidate list is ever materialised, sorted or deduplicated.
//!
//! * **Token order.** [`Signatures`] holds every value's distinct grams
//!   once, in one `u32` arena: dense token ids, renamed in place to ranks
//!   by ascending `(document frequency, token)` and sorted per value, so
//!   a value's *prefix* is its rarest tokens. The probe reads signatures
//!   there and copies none.
//! * **Length order.** Values are processed in `(signature length, index)`
//!   order, their position in that order being their `ord`; a value is
//!   probed against the values *before* it only, all of them no longer
//!   than itself.
//! * **Index prefix vs probe prefix.** A probing `x` must look at its
//!   first `|x| − ⌈ξ·|x|⌉ + 1` tokens. An indexed `y` only ever meets
//!   probes with `|x| ≥ |y|`, whose required overlap is at least
//!   `⌈2ξ/(1+ξ)·|y|⌉`, so indexing the first `|y| − ⌈2ξ/(1+ξ)·|y|⌉ + 1`
//!   tokens is enough. The whole index is built up front as CSR posting
//!   lists of `(ord, pos)`; each list is ascending in `ord` and therefore
//!   in length.
//! * **Filters.** The length filter (`|y| ≥ ⌈ξ·|x|⌉`) is a binary search
//!   past the too-short head of each list, and the list is left at the
//!   probe's own `ord`. The positional filter drops a pair at a collision
//!   on positions `(i, j)` once `matched + 1 + min(|x|−i−1, |y|−j−1)`
//!   falls below the required overlap `α = ⌈ξ/(1+ξ)·(|x|+|y|)⌉`.
//!
//! With `prefix_filter` off the same probe runs over full signatures with
//! both filters disabled: every pair sharing a gram survives.

use crate::HotRow;
use hera_sim::text::{folded_qgrams_into, GramSketch};
use hera_types::parallel::par_map_block_outputs;
use hera_types::Value;
use rustc_hash::FxHashMap;
use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering};

/// `⌈share · len⌉`, guarded against fp rounding inflating the ceiling
/// (which would illegally shrink a prefix or tighten a filter).
fn required(share: f64, len: usize) -> usize {
    (share * len as f64 - 1e-9).ceil().max(0.0) as usize
}

/// `α(|x| + |y|) = ⌈ξ/(1+ξ)·(|x| + |y|)⌉`, at least 1: the gram overlap
/// two signatures need to reach Jaccard ξ, tabled by the sum of their
/// lengths. Shared by the batch probe and [`crate::IncrementalJoin`].
pub(crate) struct RequiredOverlap {
    share: f64,
    by_sum: Vec<u32>,
}

impl RequiredOverlap {
    pub(crate) fn new(xi: f64) -> Self {
        Self {
            share: xi / (1.0 + xi),
            by_sum: Vec::new(),
        }
    }

    /// Tables every length sum up to `max_sum`.
    pub(crate) fn cover(&mut self, max_sum: usize) {
        for sum in self.by_sum.len()..=max_sum {
            self.by_sum.push(required(self.share, sum).max(1) as u32);
        }
    }

    /// α of a covered length sum.
    #[inline]
    pub(crate) fn of(&self, sum: usize) -> u32 {
        self.by_sum[sum]
    }
}

/// The gram signatures of a join's distinct values, held once: every
/// value's distinct folded grams as ascending token *ranks* in one `u32`
/// arena, and one [`HotRow`] per value naming its range there.
pub(crate) struct Signatures {
    /// Value `i`'s sketch, arena range and numeric flag.
    pub(crate) hot: Vec<HotRow>,
    /// Every signature, value after value.
    pub(crate) ranks: Vec<u32>,
    /// Distinct tokens across all signatures; the ranks are `0..tokens`.
    tokens: usize,
}

impl Signatures {
    /// Tokenizes each value's text at gram length `q` into one reused
    /// buffer, takes the sketch from it, and pushes the value's distinct
    /// grams into the arena as dense token ids; then renames the ids in
    /// place to ranks by ascending `(document frequency, token)`, so a
    /// signature's prefix is its rarest grams.
    pub(crate) fn build(values: &[&Value], q: usize) -> Self {
        let mut grams: Vec<u64> = Vec::new();
        let mut id_of: FxHashMap<u64, u32> = FxHashMap::default();
        let mut tokens: Vec<(u32, u64)> = Vec::new(); // id → (df, token)
        let mut hot = Vec::with_capacity(values.len());
        let mut ranks: Vec<u32> = Vec::new();
        for v in values {
            folded_qgrams_into(&v.text(), q, &mut grams);
            grams.sort_unstable();
            grams.dedup();
            let start = ranks.len();
            for &t in &grams {
                let id = *id_of.entry(t).or_insert_with(|| {
                    tokens.push((0, t));
                    (tokens.len() - 1) as u32
                });
                tokens[id as usize].0 += 1;
                ranks.push(id);
            }
            let is_num = v.as_number().is_some();
            hot.push(HotRow::new(
                GramSketch::of(&grams),
                start,
                grams.len(),
                is_num,
            ));
        }
        drop(id_of);
        ranks.shrink_to_fit();

        // Rank = position in ascending (df, token) order.
        let mut by_rank: Vec<u32> = (0..tokens.len() as u32).collect();
        by_rank.sort_unstable_by_key(|&id| tokens[id as usize]);
        drop(tokens);
        let mut rank_of = vec![0u32; by_rank.len()];
        for (rank, &id) in by_rank.iter().enumerate() {
            rank_of[id as usize] = rank as u32;
        }
        for row in &hot {
            let sig = &mut ranks[row.span()];
            for t in sig.iter_mut() {
                *t = rank_of[*t as usize];
            }
            sig.sort_unstable();
        }
        Self {
            hot,
            ranks,
            tokens: rank_of.len(),
        }
    }

    /// Value `i`'s signature: its distinct grams as ascending ranks.
    #[inline]
    pub(crate) fn sig(&self, i: usize) -> &[u32] {
        &self.ranks[self.hot[i].span()]
    }

    /// Heap bytes of the arena and of the hot rows.
    pub(crate) fn heap_bytes(&self) -> (usize, usize) {
        (
            self.ranks.capacity() * size_of::<u32>(),
            self.hot.capacity() * size_of::<HotRow>(),
        )
    }
}

/// The processing order and the posting lists of one probe. Signatures
/// are read through [`Signatures`], never copied.
struct Postings {
    /// `ord` → index of the value probed at that place. Values with an
    /// empty signature have no `ord`.
    order: Vec<u32>,
    /// Signature length by `ord`, ascending.
    lens: Vec<u32>,
    /// Posting list of token rank `t`: `postings[offsets[t]..offsets[t + 1]]`,
    /// `(ord, position of t in that signature)`, ascending in `ord`.
    offsets: Vec<u32>,
    postings: Vec<(u32, u32)>,
}

impl Postings {
    /// Orders the values and indexes `index_prefix(len)` ranks of every
    /// signature.
    fn build(sigs: &Signatures, index_prefix: impl Fn(usize) -> usize) -> Self {
        assert!(
            u32::try_from(sigs.ranks.len()).is_ok(),
            "the join indexes fewer than 2^32 grams"
        );
        let mut order: Vec<u32> = (0..sigs.hot.len() as u32)
            .filter(|&i| sigs.hot[i as usize].len() > 0)
            .collect();
        order.sort_by_key(|&i| sigs.hot[i as usize].len()); // stable: (len, index)
        let lens: Vec<u32> = order.iter().map(|&i| sigs.hot[i as usize].len()).collect();

        // CSR by counting: sizes, offsets, then a fill in `ord` order.
        let prefixes = || {
            order.iter().map(|&i| {
                let sig = sigs.sig(i as usize);
                &sig[..index_prefix(sig.len())]
            })
        };
        let mut offsets = vec![0u32; sigs.tokens + 1];
        for &t in prefixes().flatten() {
            offsets[t as usize + 1] += 1;
        }
        for t in 0..sigs.tokens {
            offsets[t + 1] += offsets[t];
        }
        let mut next = offsets.clone();
        let mut postings = vec![(0, 0); offsets[sigs.tokens] as usize];
        for (ord, prefix) in prefixes().enumerate() {
            for (pos, &t) in prefix.iter().enumerate() {
                postings[next[t as usize] as usize] = (ord as u32, pos as u32);
                next[t as usize] += 1;
            }
        }
        Self {
            order,
            lens,
            offsets,
            postings,
        }
    }

    /// Heap bytes of the order, the lengths and the posting lists.
    fn heap_bytes(&self) -> usize {
        (self.order.capacity() + self.lens.capacity() + self.offsets.capacity()) * size_of::<u32>()
            + self.postings.capacity() * size_of::<(u32, u32)>()
    }
}

/// What [`probe`] returns.
pub(crate) struct Probed<U> {
    /// The verifier's outputs, one vector per block of probes, the
    /// blocks in probe order; where the cuts fall depends on the thread
    /// count, their concatenation does not.
    pub(crate) blocks: Vec<Vec<U>>,
    /// Pairs scored: the same for every thread count.
    pub(crate) scored: usize,
    /// Heap bytes of the posting lists and the probe order, freed
    /// before `probe` returns.
    pub(crate) postings_bytes: usize,
}

/// A pair that can no longer reach the required overlap.
const DEAD: u32 = u32::MAX;

/// Per-worker collision counts by `ord`, invalidated in O(1) per probe by
/// bumping the epoch; `touched` keeps draining proportional to the values
/// actually hit.
struct Accumulator {
    /// `(epoch of the last touch, collisions so far or DEAD)`.
    slots: Vec<(u32, u32)>,
    touched: Vec<u32>,
    epoch: u32,
}

impl Accumulator {
    fn new(n: usize) -> Self {
        Self {
            slots: vec![(0, 0); n],
            touched: Vec::new(),
            epoch: 0,
        }
    }

    fn begin_probe(&mut self) {
        self.epoch += 1;
        self.touched.clear();
    }

    /// The collision count of `y` in the current probe.
    fn hits(&mut self, y: u32) -> &mut u32 {
        let slot = &mut self.slots[y as usize];
        if slot.0 != self.epoch {
            *slot = (self.epoch, 0);
            self.touched.push(y);
        }
        &mut slot.1
    }
}

/// Probes every signature against the ones before it in `(length, index)`
/// order and calls `verify(i, j, out)` — `i < j` indexing `sigs` — for
/// each pair that survives the filters (see the module docs), exactly
/// once per pair. `verify` appends what the pair yields to `out` and
/// returns whether it scored the pair. Empty signatures pair with
/// nothing.
pub(crate) fn probe<U: Send>(
    sigs: &Signatures,
    xi: f64,
    prefix_filter: bool,
    threads: usize,
    verify: impl Fn(usize, usize, &mut Vec<U>) -> bool + Sync,
) -> Probed<U> {
    let mut alpha = RequiredOverlap::new(xi);
    let overlap_share = alpha.share;
    let prefix = |len: usize, share: f64| {
        if prefix_filter {
            (len - required(share, len).min(len) + 1).min(len)
        } else {
            len
        }
    };
    let index = Postings::build(sigs, |len| prefix(len, 2.0 * overlap_share));
    let lens = &index.lens;
    let n = lens.len();
    alpha.cover(2 * lens.last().copied().unwrap_or(0) as usize);

    // A probe visits postings of lower `ord` only, so its cost grows with
    // `ord`: hand the work out heaviest first.
    let heavy_first: Vec<u32> = (0..n as u32).rev().collect();
    let scored = AtomicUsize::new(0);
    let blocks = par_map_block_outputs(
        threads,
        &heavy_first,
        || Accumulator::new(n),
        |acc, block| {
            let mut out = Vec::new();
            let mut block_scored = 0;
            for &x in block {
                let x_at = index.order[x as usize];
                let sig = sigs.sig(x_at as usize);
                let x_len = sig.len();
                // Length filter: nothing shorter than ⌈ξ·|x|⌉ can pair.
                let first = if prefix_filter {
                    let min_len = required(xi, x_len) as u32;
                    lens.partition_point(|&len| len < min_len) as u32
                } else {
                    0
                };
                acc.begin_probe();
                for (x_pos, &t) in sig[..prefix(x_len, xi)].iter().enumerate() {
                    let (a, b) = (index.offsets[t as usize], index.offsets[t as usize + 1]);
                    let list = &index.postings[a as usize..b as usize];
                    for &(y, y_pos) in &list[list.partition_point(|p| p.0 < first)..] {
                        if y >= x {
                            break;
                        }
                        let hits = acc.hits(y);
                        if !prefix_filter {
                            *hits = 1;
                        } else if *hits != DEAD {
                            // Positional filter: best possible total overlap.
                            let y_len = lens[y as usize] as usize;
                            let rest = (x_len - x_pos - 1).min(y_len - y_pos as usize - 1);
                            *hits = if *hits + 1 + rest as u32 >= alpha.of(x_len + y_len) {
                                *hits + 1
                            } else {
                                DEAD
                            };
                        }
                    }
                }
                for &y in &acc.touched {
                    if acc.slots[y as usize].1 != DEAD {
                        let y_at = index.order[y as usize];
                        let (i, j) = (y_at.min(x_at) as usize, y_at.max(x_at) as usize);
                        block_scored += usize::from(verify(i, j, &mut out));
                    }
                }
            }
            // A statistic: it publishes nothing, and the scope joins every
            // worker before it is read.
            scored.fetch_add(block_scored, Ordering::Relaxed);
            out
        },
    );
    Probed {
        blocks,
        scored: scored.into_inner(),
        postings_bytes: index.heap_bytes() + heavy_first.capacity() * size_of::<u32>(),
    }
}

#[cfg(test)]
mod tests {
    use super::Signatures;
    use crate::incremental::test_metrics::ByKind;
    use crate::{JoinConfig, SimilarityJoin, ValuePair};
    use hera_sim::text::{folded_qgram_set, intersection_size, jaccard_of_sets, GramSketch};
    use hera_sim::{EditSimilarity, TypeDispatch, ValueSimilarity};
    use hera_types::{Label, Value};
    use proptest::prelude::*;

    /// Joins `words`, one record per word, and returns the pairs with the
    /// `join` span's `candidates`.
    fn join(
        words: &[impl AsRef<str>],
        config: JoinConfig,
        metric: &dyn ValueSimilarity,
    ) -> (Vec<ValuePair>, usize) {
        let values: Vec<(Label, Value)> = (0u32..)
            .zip(words)
            .map(|(rid, w)| (Label::new(rid, 0, 0), Value::from(w.as_ref())))
            .collect();
        let (recorder, journal) = hera_obs::Recorder::to_memory();
        let pairs = SimilarityJoin::new(config, metric)
            .with_recorder(recorder)
            .join(&values);
        let journal = journal.contents();
        let (_, counter) = journal
            .split_once("\"candidates\":")
            .expect("the join journals its span");
        let digits = counter.split(|c: char| !c.is_ascii_digit()).next();
        (pairs, digits.unwrap().parse().unwrap())
    }

    /// [`super::probe`] itself over `words`' signatures in the rank
    /// arena, the filters on or off as `prefix_filter` says, verifying by
    /// Jaccard over the rank slices: the pairs of word indices that reach
    /// ξ with their similarity bits, sorted, and the number of pairs
    /// scored.
    fn probed(
        words: &[impl AsRef<str>],
        xi: f64,
        prefix_filter: bool,
        threads: usize,
    ) -> (Vec<(usize, usize, u64)>, usize) {
        let values: Vec<Value> = words.iter().map(|w| Value::from(w.as_ref())).collect();
        let refs: Vec<&Value> = values.iter().collect();
        let sigs = Signatures::build(&refs, 2);
        let probed = super::probe(&sigs, xi, prefix_filter, threads, |i, j, out| {
            let sim = jaccard_of_sets(sigs.sig(i), sigs.sig(j));
            if sim >= xi {
                out.push((i, j, sim.to_bits()));
            }
            true
        });
        let mut pairs = probed.blocks.concat();
        pairs.sort_unstable();
        (pairs, probed.scored)
    }

    /// The arena holds each word's distinct grams once, renamed to ranks:
    /// a slice has its word's gram count, the renaming keeps Jaccard's
    /// bits, and the sketch and numeric flag are the hot row's.
    #[test]
    fn the_arena_is_a_renaming_of_the_gram_sets() {
        let values = [
            Value::from("electronic"),
            Value::from("electronics"),
            Value::from(""),
            Value::from(1984i64),
            Value::from("Σίσυφος"),
            Value::from("ab"),
        ];
        let refs: Vec<&Value> = values.iter().collect();
        let sigs = Signatures::build(&refs, 2);
        let grams: Vec<Vec<u64>> = values
            .iter()
            .map(|v| folded_qgram_set(&v.text(), 2))
            .collect();
        assert_eq!(sigs.ranks.len(), grams.iter().map(Vec::len).sum::<usize>());
        for (i, g) in grams.iter().enumerate() {
            let sig = sigs.sig(i);
            assert_eq!(sig.len(), g.len());
            assert!(sig.windows(2).all(|w| w[0] < w[1]), "ascending, distinct");
            assert_eq!(sigs.hot[i].sketch, GramSketch::of(g));
            assert_eq!(sigs.hot[i].is_num(), values[i].as_number().is_some());
            for (j, h) in grams.iter().enumerate() {
                let (a, b) = (jaccard_of_sets(sig, sigs.sig(j)), jaccard_of_sets(g, h));
                assert_eq!(a.to_bits(), b.to_bits(), "{i} {j}");
            }
        }
    }

    /// The record pairs of the join's output.
    fn rids(pairs: &[ValuePair]) -> Vec<(u32, u32)> {
        pairs.iter().map(|p| (p.a.rid, p.b.rid)).collect()
    }

    #[test]
    fn near_duplicates_pair_and_disjoint_values_do_not() {
        let metric = TypeDispatch::paper_default();
        let words = ["electronic", "aaaa", "electronics", "bbbb"];
        let (pairs, candidates) = join(&words, JoinConfig::new(0.3), &metric);
        assert_eq!(rids(&pairs), vec![(0, 2)]);
        assert_eq!(candidates, 1);
    }

    #[test]
    fn prefix_filter_reduces_candidates() {
        let metric = TypeDispatch::paper_default();
        let words = ["abcdefgh", "abzzzzzz", "ab", "qrstuvwx"];
        // Share-a-gram scores (0,1), (0,2) and (1,2) via "ab"; at ξ = 0.8
        // the length filter alone kills (0,2) and (1,2) (1 gram vs 7), and
        // "ab" is in neither 7-gram value's prefix.
        let (without, shared) = probed(&words, 0.8, false, 1);
        let (with, filtered) = probed(&words, 0.8, true, 1);
        assert_eq!(shared, 3);
        assert_eq!(filtered, 0);
        assert_eq!(with, without);
        // The join filters under q-gram Jaccard.
        let (pairs, candidates) = join(&words, JoinConfig::new(0.8), &metric);
        assert!(pairs.is_empty());
        assert_eq!(candidates, filtered);
    }

    #[test]
    fn prefix_filter_is_complete_for_jaccard() {
        let metric = TypeDispatch::paper_default();
        let words = [
            "2 norman street",
            "2 west norman",
            "bush@gmail",
            "john@gmail",
            "electronic",
            "electronics",
            "manager",
            "product manager",
        ];
        let sigs: Vec<Vec<u64>> = words.iter().map(|w| folded_qgram_set(w, 2)).collect();
        for xi in [0.2, 0.35, 0.5, 0.75, 0.9] {
            let (pairs, _) = join(&words, JoinConfig::new(xi), &metric);
            // Every truly-similar pair must come out.
            let mut similar = Vec::new();
            for i in 0..words.len() {
                for j in i + 1..words.len() {
                    if jaccard_of_sets(&sigs[i], &sigs[j]) >= xi {
                        similar.push((i as u32, j as u32));
                    }
                }
            }
            assert_eq!(rids(&pairs), similar, "xi {xi}");
        }
    }

    #[test]
    fn empty_values_are_skipped() {
        let metric = TypeDispatch::paper_default();
        let (pairs, candidates) = join(&["", "", "a", ""], JoinConfig::new(0.1), &metric);
        assert!(pairs.is_empty());
        assert_eq!(candidates, 0);
    }

    proptest! {
        /// The probe against the exhaustive oracle, on inputs with long
        /// posting lists, many equal lengths and empty signatures: the
        /// same pairs with the same similarity bits, and one `candidates`
        /// count, at every thread count — through the join under q-gram
        /// Jaccard, where the probe filters, and under edit similarity,
        /// where it is share-a-gram; and the probe itself under q-gram
        /// Jaccard with the filters on and off.
        #[test]
        fn probe_equals_exhaustive(
            words in proptest::collection::vec("[a-d ]{0,8}", 0..80),
            xi in prop_oneof![0.05f64..0.95, Just(0.5), Just(0.75), Just(0.8)],
            edit in any::<bool>(),
        ) {
            let jaccard = TypeDispatch::paper_default();
            let edit_router = ByKind::new(EditSimilarity, 1.0);
            let metric: &dyn ValueSimilarity = if edit { &edit_router } else { &jaccard };
            let sigs: Vec<Vec<u64>> = words.iter().map(|w| folded_qgram_set(w, 2)).collect();
            let values: Vec<Value> = words.iter().map(|w| Value::from(w.as_str())).collect();
            let labels = (0u32..).map(|rid| Label::new(rid, 0, 0));
            let mut expected = crate::all_pairs(labels.zip(&values), xi, metric);
            if edit {
                // Edit similarity can pair values without a common gram;
                // share-a-gram candidates cannot.
                expected.retain(|p| {
                    let (a, b) = (p.a.rid as usize, p.b.rid as usize);
                    words[a] == words[b] || intersection_size(&sigs[a], &sigs[b]) > 0
                });
            }
            let bits = |pairs: &[ValuePair]| -> Vec<(Label, Label, u64)> {
                pairs.iter().map(|p| (p.a, p.b, p.sim.to_bits())).collect()
            };
            let mut counts = Vec::new();
            for threads in [1, 2, 8] {
                let config = JoinConfig::new(xi).with_threads(threads);
                let (got, candidates) = join(&words, config, metric);
                prop_assert_eq!(bits(&got), bits(&expected), "{} threads", threads);
                counts.push(candidates);
            }
            prop_assert!(counts.iter().all(|&c| c == counts[0]), "{:?}", counts);

            // Word by word, duplicates apart: every pair of non-empty
            // signatures at Jaccard ≥ ξ.
            let mut similar = Vec::new();
            for j in 0..words.len() {
                for i in 0..j {
                    let sim = jaccard_of_sets(&sigs[i], &sigs[j]);
                    if !sigs[i].is_empty() && !sigs[j].is_empty() && sim >= xi {
                        similar.push((i, j, sim.to_bits()));
                    }
                }
            }
            similar.sort_unstable();
            for prefix_filter in [false, true] {
                let mut counts = Vec::new();
                for threads in [1, 2, 8] {
                    let (got, scored) = probed(&words, xi, prefix_filter, threads);
                    prop_assert_eq!(&got, &similar, "filter {}, {} threads", prefix_filter, threads);
                    counts.push(scored);
                }
                prop_assert!(counts.iter().all(|&c| c == counts[0]), "{:?}", counts);
            }
        }
    }
}
