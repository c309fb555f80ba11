//! Inverted q-gram index with prefix filtering: one fused, length-ordered,
//! parallel probe (AllPairs / PPJoin, Bayardo et al., Xiao et al.).
//!
//! [`probe`] hands every pair of signatures that could reach Jaccard ≥ ξ
//! to its caller's verifier the moment the pair survives the filters — no
//! candidate list is ever materialised, sorted or deduplicated.
//!
//! * **Token order.** Tokens are ranked once by ascending `(document
//!   frequency, token)`; every signature is rewritten as ascending ranks
//!   in one arena, so a value's *prefix* is its rarest tokens.
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

use hera_types::parallel::par_map_blocks;
use rustc_hash::FxHashMap;
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

/// The signatures as ranks, the processing order and the posting lists.
struct Index {
    /// Signature of the value at `ord`: `ranks[starts[ord]..starts[ord + 1]]`,
    /// ascending (rarest token first).
    starts: Vec<u32>,
    ranks: Vec<u32>,
    /// `ord` → the caller's index of that value. Values with an empty
    /// signature have no `ord`.
    order: Vec<u32>,
    /// Posting list of token rank `t`: `postings[offsets[t]..offsets[t + 1]]`,
    /// `(ord, position of t in that signature)`, ascending in `ord`.
    offsets: Vec<u32>,
    postings: Vec<(u32, u32)>,
}

impl Index {
    fn sig(&self, ord: usize) -> &[u32] {
        &self.ranks[self.starts[ord] as usize..self.starts[ord + 1] as usize]
    }

    /// Ranks the tokens, orders the values, and indexes `index_prefix(len)`
    /// tokens of every signature.
    fn build(sigs: &[Vec<u64>], index_prefix: impl Fn(usize) -> usize) -> Self {
        let total: usize = sigs.iter().map(Vec::len).sum();
        assert!(
            u32::try_from(total).is_ok(),
            "the join indexes fewer than 2^32 grams"
        );

        // Dense token ids in first-seen order, with document frequencies.
        let mut id_of: FxHashMap<u64, u32> = FxHashMap::default();
        let mut tokens: Vec<(u32, u64)> = Vec::new(); // id → (df, token)
        let mut order: Vec<u32> = (0..sigs.len() as u32)
            .filter(|&i| !sigs[i as usize].is_empty())
            .collect();
        order.sort_by_key(|&i| sigs[i as usize].len()); // stable: (len, index)
        let mut starts = Vec::with_capacity(order.len() + 1);
        let mut ranks = Vec::with_capacity(total);
        for &i in &order {
            starts.push(ranks.len() as u32);
            for &t in &sigs[i as usize] {
                let id = *id_of.entry(t).or_insert_with(|| {
                    tokens.push((0, t));
                    (tokens.len() - 1) as u32
                });
                tokens[id as usize].0 += 1;
                ranks.push(id);
            }
        }
        starts.push(ranks.len() as u32);

        // Rank = position in ascending (df, token) order.
        let mut by_rank: Vec<u32> = (0..tokens.len() as u32).collect();
        by_rank.sort_unstable_by_key(|&id| tokens[id as usize]);
        let mut rank_of = vec![0u32; tokens.len()];
        for (rank, &id) in by_rank.iter().enumerate() {
            rank_of[id as usize] = rank as u32;
        }
        for slot in &mut ranks {
            *slot = rank_of[*slot as usize];
        }
        for w in starts.windows(2) {
            ranks[w[0] as usize..w[1] as usize].sort_unstable();
        }

        // CSR by counting: sizes, offsets, then a fill in `ord` order.
        let prefixes = || {
            starts.windows(2).map(|w| {
                let sig = &ranks[w[0] as usize..w[1] as usize];
                &sig[..index_prefix(sig.len())]
            })
        };
        let mut offsets = vec![0u32; tokens.len() + 1];
        for &t in prefixes().flatten() {
            offsets[t as usize + 1] += 1;
        }
        for t in 0..tokens.len() {
            offsets[t + 1] += offsets[t];
        }
        let mut next = offsets.clone();
        let mut postings = vec![(0, 0); offsets[tokens.len()] as usize];
        for (ord, prefix) in prefixes().enumerate() {
            for (pos, &t) in prefix.iter().enumerate() {
                postings[next[t as usize] as usize] = (ord as u32, pos as u32);
                next[t as usize] += 1;
            }
        }
        Self {
            starts,
            ranks,
            order,
            offsets,
            postings,
        }
    }
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
/// returns whether it scored the pair.
///
/// Returns the outputs, concatenated in probe order, and the number of
/// pairs scored; both are the same for every `threads`. Empty signatures
/// pair with nothing.
pub(crate) fn probe<U: Send>(
    sigs: &[Vec<u64>],
    xi: f64,
    prefix_filter: bool,
    threads: usize,
    verify: impl Fn(usize, usize, &mut Vec<U>) -> bool + Sync,
) -> (Vec<U>, usize) {
    let mut alpha = RequiredOverlap::new(xi);
    let overlap_share = alpha.share;
    let prefix = |len: usize, share: f64| {
        if prefix_filter {
            (len - required(share, len).min(len) + 1).min(len)
        } else {
            len
        }
    };
    let index = Index::build(sigs, |len| prefix(len, 2.0 * overlap_share));
    let n = index.order.len();
    let lens: Vec<u32> = (0..n).map(|ord| index.sig(ord).len() as u32).collect();
    alpha.cover(2 * lens.last().copied().unwrap_or(0) as usize);

    // A probe visits postings of lower `ord` only, so its cost grows with
    // `ord`: hand the work out heaviest first.
    let heavy_first: Vec<u32> = (0..n as u32).rev().collect();
    let scored = AtomicUsize::new(0);
    let out = par_map_blocks(
        threads,
        &heavy_first,
        || Accumulator::new(n),
        |acc, block| {
            let mut out = Vec::new();
            let mut block_scored = 0;
            for &x in block {
                let sig = index.sig(x as usize);
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
                        let (i, j) = (index.order[y as usize], index.order[x as usize]);
                        let (i, j) = (i.min(j) as usize, i.max(j) as usize);
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
    (out, scored.into_inner())
}

#[cfg(test)]
mod tests {
    use crate::{JoinConfig, SimilarityJoin, ValuePair};
    use hera_sim::text::{folded_qgram_set, intersection_size, jaccard_of_sets};
    use hera_sim::{EditSimilarity, TypeDispatch, ValueSimilarity};
    use hera_types::{Label, Value};
    use proptest::prelude::*;
    use std::sync::Arc;

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
        let config = JoinConfig::new(0.8);
        let unfiltered = JoinConfig {
            prefix_filter: false,
            ..config
        };
        let (without, shared) = join(&words, unfiltered, &metric);
        let (with, filtered) = join(&words, config, &metric);
        assert_eq!(shared, 3);
        assert_eq!(filtered, 0);
        assert_eq!(with, without);
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
        /// count, at every thread count — under q-gram Jaccard with the
        /// prefix filter on and off, and under edit similarity, where the
        /// probe is share-a-gram whatever the config says.
        #[test]
        fn probe_equals_exhaustive(
            words in proptest::collection::vec("[a-d ]{0,8}", 0..80),
            xi in prop_oneof![0.05f64..0.95, Just(0.5), Just(0.75), Just(0.8)],
            prefix_filter in any::<bool>(),
            edit in any::<bool>(),
        ) {
            let mut metric = TypeDispatch::paper_default();
            if edit {
                metric = metric.with_string_metric(Arc::new(EditSimilarity));
            }
            let sigs: Vec<Vec<u64>> = words.iter().map(|w| folded_qgram_set(w, 2)).collect();
            let (mut expected, _) = join(&words, JoinConfig::new(xi).exhaustive(), &metric);
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
                let mut config = JoinConfig::new(xi).with_threads(threads);
                config.prefix_filter = prefix_filter;
                let (got, candidates) = join(&words, config, &metric);
                prop_assert_eq!(bits(&got), bits(&expected), "{} threads", threads);
                counts.push(candidates);
            }
            prop_assert!(counts.iter().all(|&c| c == counts[0]), "{:?}", counts);
        }
    }
}
