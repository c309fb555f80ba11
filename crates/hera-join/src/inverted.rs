//! Inverted q-gram index with prefix filtering.

use rustc_hash::FxHashMap;

/// An inverted index from gram tokens to the distinct values containing
/// them. Exposed publicly so benches can measure candidate generation in
/// isolation.
#[derive(Debug, Default)]
pub struct GramIndex {
    /// token → list of (distinct value index, signature length, token's
    /// position in the value's canonically-ordered signature).
    postings: FxHashMap<u64, Vec<(usize, usize, usize)>>,
}

impl GramIndex {
    /// Inserts a value's (possibly prefix-truncated) signature; `tokens`
    /// are in canonical (rare-first) order starting at position 0.
    pub fn insert(&mut self, value_idx: usize, sig_len: usize, tokens: &[u64]) {
        for (pos, &t) in tokens.iter().enumerate() {
            self.postings
                .entry(t)
                .or_default()
                .push((value_idx, sig_len, pos));
        }
    }

    /// Posting list for a token.
    pub fn postings(&self, token: u64) -> Option<&[(usize, usize, usize)]> {
        self.postings.get(&token).map(|v| v.as_slice())
    }

    /// Number of distinct tokens indexed.
    pub fn token_count(&self) -> usize {
        self.postings.len()
    }
}

/// Per-probe collision accumulator: maps a previously indexed value `y`
/// to `(collisions so far, alive)`. The dense implementation is the one
/// that runs; the tests keep a hash-map one as its oracle. Both produce
/// the same candidate **set** (the caller sorts).
trait Accumulator {
    fn begin_probe(&mut self);
    /// The mutable `(hits, alive)` slot for candidate `y`.
    fn slot(&mut self, y: usize) -> &mut (u32, bool);
    /// Pushes every `(y, x)` with `hits > 0 && alive` into `out`.
    fn drain_into(&mut self, x: usize, out: &mut Vec<(usize, usize)>);
}

/// Reference accumulator: a hash map keyed by candidate index — the
/// differential oracle for [`DenseAccumulator`].
#[cfg(test)]
#[derive(Default)]
struct MapAccumulator {
    acc: FxHashMap<usize, (u32, bool)>,
}

#[cfg(test)]
impl Accumulator for MapAccumulator {
    fn begin_probe(&mut self) {
        self.acc.clear();
    }

    fn slot(&mut self, y: usize) -> &mut (u32, bool) {
        self.acc.entry(y).or_insert((0, true))
    }

    fn drain_into(&mut self, x: usize, out: &mut Vec<(usize, usize)>) {
        for (&y, &(hits, alive)) in &self.acc {
            if hits > 0 && alive {
                out.push((y, x));
            }
        }
    }
}

/// Dense epoch-stamped accumulator: per-candidate state lives in a flat
/// array indexed by value id and is invalidated in O(1) per probe by
/// bumping the epoch, so the hot posting-list loop does plain array
/// indexing instead of hashing. A touched-list makes draining
/// proportional to the candidates actually hit.
struct DenseAccumulator {
    epoch: Vec<u32>,
    state: Vec<(u32, bool)>,
    touched: Vec<usize>,
    current: u32,
}

impl DenseAccumulator {
    fn new(n: usize) -> Self {
        Self {
            epoch: vec![0; n],
            state: vec![(0, true); n],
            touched: Vec::new(),
            current: 0,
        }
    }
}

impl Accumulator for DenseAccumulator {
    fn begin_probe(&mut self) {
        self.current += 1;
        self.touched.clear();
    }

    fn slot(&mut self, y: usize) -> &mut (u32, bool) {
        if self.epoch[y] != self.current {
            self.epoch[y] = self.current;
            self.state[y] = (0, true);
            self.touched.push(y);
        }
        &mut self.state[y]
    }

    fn drain_into(&mut self, x: usize, out: &mut Vec<(usize, usize)>) {
        for &y in &self.touched {
            let (hits, alive) = self.state[y];
            if hits > 0 && alive {
                out.push((y, x));
            }
        }
    }
}

/// Generates candidate distinct-value index pairs `(i, j)` with `i < j`
/// whose gram signatures could reach Jaccard ≥ ξ.
///
/// With `prefix_filter` on, this is PPJoin-style candidate generation
/// (Xiao et al.): signatures are reordered by ascending global document
/// frequency; only the first `|x| − ⌈ξ·|x|⌉ + 1` tokens are
/// probed/indexed; collisions pass a **length filter**
/// (`ξ·max(|x|,|y|) ≤ min(|x|,|y|)`) and a **positional filter** — at a
/// collision on positions `(i, j)` of the canonical orders, the overlap
/// can reach at most `matched + 1 + min(remaining_x, remaining_y)`, which
/// must meet the Jaccard-equivalent overlap requirement
/// `α = ⌈ξ/(1+ξ)·(|x|+|y|)⌉`. Without `prefix_filter`, any shared gram
/// produces a candidate.
pub fn gram_candidates(sigs: &[Vec<u64>], xi: f64, prefix_filter: bool) -> Vec<(usize, usize)> {
    gram_candidates_impl(
        sigs,
        xi,
        prefix_filter,
        &mut DenseAccumulator::new(sigs.len()),
    )
}

/// [`gram_candidates`] through the hash-map reference accumulator.
#[cfg(test)]
fn gram_candidates_ref(sigs: &[Vec<u64>], xi: f64, prefix_filter: bool) -> Vec<(usize, usize)> {
    gram_candidates_impl(sigs, xi, prefix_filter, &mut MapAccumulator::default())
}

fn gram_candidates_impl(
    sigs: &[Vec<u64>],
    xi: f64,
    prefix_filter: bool,
    acc: &mut impl Accumulator,
) -> Vec<(usize, usize)> {
    // Global document frequency per token, for the rare-first canonical
    // order that makes prefixes selective.
    let mut df: FxHashMap<u64, u32> = FxHashMap::default();
    for sig in sigs {
        for &t in sig {
            *df.entry(t).or_insert(0) += 1;
        }
    }

    let mut index = GramIndex::default();
    let mut candidates: Vec<(usize, usize)> = Vec::new();

    for (x, sig) in sigs.iter().enumerate() {
        if sig.is_empty() {
            continue;
        }
        let x_len = sig.len();
        let probe: Vec<u64> = if prefix_filter {
            // Rare-first order; ties by token for determinism.
            let mut ordered = sig.clone();
            ordered.sort_unstable_by_key(|t| (df[t], *t));
            // Epsilon guards against fp rounding inflating ⌈ξ·|x|⌉ and
            // illegally shrinking the prefix.
            let required = ((xi * x_len as f64) - 1e-9).ceil().max(0.0) as usize;
            let keep = x_len.saturating_sub(required) + 1;
            ordered.truncate(keep.max(1));
            ordered
        } else {
            sig.clone()
        };

        acc.begin_probe();
        for (x_pos, &t) in probe.iter().enumerate() {
            if let Some(list) = index.postings(t) {
                for &(y, y_len, y_pos) in list {
                    if !prefix_filter {
                        acc.slot(y).0 += 1;
                        continue;
                    }
                    // Length filter.
                    let (lo, hi) = if x_len < y_len {
                        (x_len, y_len)
                    } else {
                        (y_len, x_len)
                    };
                    if (lo as f64) + 1e-9 < xi * hi as f64 {
                        continue;
                    }
                    let slot = acc.slot(y);
                    if !slot.1 {
                        continue;
                    }
                    // Positional filter: best possible total overlap.
                    let alpha = ((xi / (1.0 + xi)) * (x_len + y_len) as f64 - 1e-9)
                        .ceil()
                        .max(1.0) as u32;
                    let remaining = (x_len - x_pos - 1).min(y_len - y_pos - 1) as u32;
                    if slot.0 + 1 + remaining < alpha {
                        slot.1 = false; // dead: can never reach α
                        continue;
                    }
                    slot.0 += 1;
                }
            }
        }
        acc.drain_into(x, &mut candidates);
        index.insert(x, x_len, &probe);
    }
    candidates.sort_unstable();
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use hera_sim::text::folded_qgram_set;

    fn run(vals: &[&str], xi: f64, pf: bool) -> Vec<(usize, usize)> {
        let sigs: Vec<Vec<u64>> = vals.iter().map(|s| folded_qgram_set(s, 2)).collect();
        let mut c = gram_candidates(&sigs, xi, pf);
        c.sort_unstable();
        c
    }

    #[test]
    fn identical_values_collide() {
        // distinct list never contains duplicates in practice, but near
        // duplicates must collide.
        let c = run(&["electronic", "electronics"], 0.5, true);
        assert_eq!(c, vec![(0, 1)]);
    }

    #[test]
    fn disjoint_values_do_not_collide() {
        let c = run(&["aaaa", "bbbb"], 0.3, true);
        assert!(c.is_empty());
    }

    #[test]
    fn prefix_filter_reduces_candidates() {
        let vals = ["abcdefgh", "abzzzzzz", "ab", "qrstuvwx"];
        let without = run(&vals, 0.8, false);
        let with = run(&vals, 0.8, true);
        assert!(with.len() <= without.len());
        // Share-a-gram finds (0,1) and (0,2) and (1,2) via "ab"; at ξ=0.8
        // the length filter alone kills (0,2)/(1,2) (len 1 vs 7).
        assert!(without.contains(&(0, 1)));
    }

    #[test]
    fn prefix_filter_is_complete_for_jaccard() {
        use hera_sim::text::{folded_qgram_set, jaccard_of_sets};
        let vals = [
            "2 norman street",
            "2 west norman",
            "bush@gmail",
            "john@gmail",
            "electronic",
            "electronics",
            "manager",
            "product manager",
        ];
        for xi in [0.2, 0.35, 0.5, 0.75, 0.9] {
            let cands = run(&vals, xi, true);
            // Every truly-similar pair must be a candidate.
            for i in 0..vals.len() {
                for j in i + 1..vals.len() {
                    let s = jaccard_of_sets(
                        &folded_qgram_set(vals[i], 2),
                        &folded_qgram_set(vals[j], 2),
                    );
                    if s >= xi {
                        assert!(
                            cands.contains(&(i, j)),
                            "missing candidate ({i},{j}) sim {s} at xi {xi}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_values_are_skipped() {
        let c = run(&["", ""], 0.1, true);
        assert!(c.is_empty());
    }

    #[test]
    fn dense_accumulator_matches_reference() {
        let vals = [
            "2 norman street",
            "2 west norman",
            "electronic",
            "electronics",
            "manager",
            "product manager",
            "bush@gmail",
            "john@gmail",
            "",
            "la",
        ];
        let sigs: Vec<Vec<u64>> = vals.iter().map(|s| folded_qgram_set(s, 2)).collect();
        for xi in [0.1, 0.3, 0.5, 0.75, 0.9] {
            for pf in [true, false] {
                assert_eq!(
                    gram_candidates(&sigs, xi, pf),
                    gram_candidates_ref(&sigs, xi, pf),
                    "xi={xi} pf={pf}"
                );
            }
        }
    }

    proptest::proptest! {
        /// The dense epoch-array accumulator is a pure layout change: its
        /// candidate list must equal the hash-map reference on arbitrary
        /// inputs.
        #[test]
        fn dense_matches_reference_on_random_inputs(
            words in proptest::collection::vec("[a-d ]{0,8}", 0..24),
            xi in 0.05f64..0.95,
            pf_bit in 0usize..2,
        ) {
            let pf = pf_bit == 1;
            let sigs: Vec<Vec<u64>> =
                words.iter().map(|s| folded_qgram_set(s, 2)).collect();
            proptest::prop_assert_eq!(
                gram_candidates(&sigs, xi, pf),
                gram_candidates_ref(&sigs, xi, pf)
            );
        }
    }
}
