//! Text normalization, q-gram extraction, and tokenization.
//!
//! The paper's worked examples (Example 3/4) imply the following q-gram
//! convention, which we reproduce exactly:
//!
//! * grams are taken over the raw character sequence **including spaces**
//!   (no `#`-padding): `"2 Norman Street"` has the 2-gram `"2 "`;
//! * text is **case-folded** before gramming: `jaccard2("Electronic",
//!   "electronics") = 9/10 = 0.9`, matching Example 4's `0.9`;
//! * gram multiplicity is ignored (set semantics), matching
//!   `jaccard2("2 Norman Street", "2 West Norman") = 7/19 ≈ 0.37` from
//!   Example 3.
//!
//! Grams are hashed to `u64` tokens (FxHash) so that gram sets are cheap to
//! store, sort, and intersect, and so the similarity-join inverted index can
//! key on them directly. Collisions are possible in principle but the token
//! space is 2⁶⁴ against at most a few hundred thousand distinct grams per
//! dataset, so the probability is negligible; the differential tests in
//! `jaccard.rs` compare against a string-set oracle to catch any regression.

use rustc_hash::FxHasher;
use std::hash::{Hash, Hasher};

/// Case-folds text for gram extraction (Unicode-aware lowercase).
pub fn fold(s: &str) -> String {
    s.to_lowercase()
}

/// Appends to `out` the q-gram tokens over `units`, each read as the
/// `char` `as_char` gives: one gram (a `char` window hashed into a token)
/// per window, in text order, repeats kept.
fn push_grams<T: Copy>(units: &[T], q: usize, as_char: impl Fn(T) -> char, out: &mut Vec<u64>) {
    assert!(q >= 1, "q must be at least 1");
    if units.is_empty() {
        return;
    }
    let hash_gram = |window: &[T]| {
        let mut h = FxHasher::default();
        for &u in window {
            as_char(u).hash(&mut h);
        }
        h.finish()
    };
    if units.len() < q {
        out.push(hash_gram(units));
    } else {
        out.extend(units.windows(q).map(hash_gram));
    }
}

/// `grams` as a set: sorted ascending and deduplicated.
fn into_set(mut grams: Vec<u64>) -> Vec<u64> {
    grams.sort_unstable();
    grams.dedup();
    grams
}

/// Extracts the **set** of q-gram tokens of `s` (already-folded text),
/// sorted ascending and deduplicated.
///
/// Strings shorter than `q` contribute a single gram covering the whole
/// string (so `"a"` still has a signature and `sim("a","a") == 1`); the
/// empty string has the empty set.
pub fn qgram_set(s: &str, q: usize) -> Vec<u64> {
    let chars: Vec<char> = s.chars().collect();
    let mut grams = Vec::new();
    push_grams(&chars, q, |c| c, &mut grams);
    into_set(grams)
}

/// Fold then extract the q-gram set: `qgram_set(&fold(s), q)`.
pub fn folded_qgram_set(s: &str, q: usize) -> Vec<u64> {
    let mut grams = Vec::new();
    folded_qgrams_into(s, q, &mut grams);
    into_set(grams)
}

/// The tokens of [`folded_qgram_set`] in text order, repeats kept,
/// written over `out`: the same set without the sort, for a caller that
/// renames the tokens and sorts the names, or asks only which tokens
/// occur ([`GramSketch::of`]). ASCII text — where folding is byte-wise
/// and a `char` is a byte — is hashed where it lies, with no folded copy
/// and no `char` buffer. Anything else goes through [`fold`]: lowering
/// `char` by `char` would miss what `str::to_lowercase` knows about
/// context (a final `Σ` lowers to `ς`).
pub fn folded_qgrams_into(s: &str, q: usize, out: &mut Vec<u64>) {
    out.clear();
    if s.is_ascii() {
        push_grams(s.as_bytes(), q, |b| char::from(b.to_ascii_lowercase()), out);
    } else {
        let chars: Vec<char> = fold(s).chars().collect();
        push_grams(&chars, q, |c| c, out);
    }
}

/// Size of the intersection of two sorted, deduplicated token slices —
/// hashed gram tokens, or any other ids that name one gram each.
pub fn intersection_size<T: Ord>(a: &[T], b: &[T]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Jaccard similarity of two sorted, deduplicated token sets. It reads
/// only which tokens are shared, so any renaming of the tokens that keeps
/// them distinct and sorted gives the same bits.
/// Two empty sets score 0 (an empty string is treated as informationless,
/// consistent with the null semantics of the data model).
pub fn jaccard_of_sets<T: Ord>(a: &[T], b: &[T]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let inter = intersection_size(a, b);
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Splits folded text into whitespace-delimited word tokens.
pub fn word_tokens(s: &str) -> Vec<String> {
    fold(s).split_whitespace().map(|t| t.to_owned()).collect()
}

/// A 128-bit occupancy sketch of a gram-token set: bit `t mod 128` is set
/// for every token `t`. Two sketches give a **sound upper bound** on the
/// Jaccard similarity of the underlying sets in a handful of word ops, so
/// the join's verifier can reject most below-threshold candidates without
/// running the full merge-intersection.
///
/// Soundness: every set bit of `a & !b` is occupied by at least one gram
/// of `A`, and none of those grams can be in `B` (their bit would be set
/// in `b`). Distinct bits are occupied by distinct grams, so at least
/// `popcount(a & !b)` grams of `A` lie outside `B`, giving
/// `|A ∩ B| ≤ |A| − popcount(a & !b)` (and symmetrically for `B`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GramSketch {
    lo: u64,
    hi: u64,
}

impl GramSketch {
    /// Sketches a token set (sorted or not, repeats or not; only
    /// membership matters).
    pub fn of(sig: &[u64]) -> Self {
        let bits = sig.iter().fold(0u128, |bits, &t| bits | 1u128 << (t & 127));
        Self {
            lo: bits as u64,
            hi: (bits >> 64) as u64,
        }
    }

    /// Upper bound on `|A ∩ B|` given the two set cardinalities.
    pub fn intersection_upper_bound(self, a_len: usize, other: Self, b_len: usize) -> usize {
        let miss_a =
            ((self.lo & !other.lo).count_ones() + (self.hi & !other.hi).count_ones()) as usize;
        let miss_b =
            ((other.lo & !self.lo).count_ones() + (other.hi & !self.hi).count_ones()) as usize;
        a_len
            .saturating_sub(miss_a)
            .min(b_len.saturating_sub(miss_b))
    }

    /// The upper bound as a yes/no question in integers: `false` only if
    /// `|A ∩ B| < overlap` — so a caller that knows the overlap a
    /// threshold requires can reject on `false` without ever dropping a
    /// pair that reaches it. The first side's count alone settles most
    /// rejects.
    #[inline]
    pub fn may_share(self, a_len: usize, other: Self, b_len: usize, overlap: usize) -> bool {
        let miss_a = (self.lo & !other.lo).count_ones() + (self.hi & !other.hi).count_ones();
        if miss_a as usize + overlap > a_len {
            return false;
        }
        let miss_b = (other.lo & !self.lo).count_ones() + (other.hi & !self.hi).count_ones();
        miss_b as usize + overlap <= b_len
    }

    /// Upper bound on the Jaccard similarity of the underlying sets:
    /// `jaccard_of_sets(A, B) ≤ a.jaccard_upper_bound(|A|, b, |B|)`
    /// always holds, so `bound < ξ` soundly rejects a candidate.
    pub fn jaccard_upper_bound(self, a_len: usize, other: Self, b_len: usize) -> f64 {
        let inter = self.intersection_upper_bound(a_len, other, b_len);
        let union = a_len + b_len - inter;
        if union == 0 {
            return 0.0;
        }
        inter as f64 / union as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Oracle: q-gram set as actual strings.
    fn qgram_strings(s: &str, q: usize) -> BTreeSet<String> {
        let chars: Vec<char> = s.chars().collect();
        if chars.is_empty() {
            return BTreeSet::new();
        }
        if chars.len() < q {
            return BTreeSet::from([chars.iter().collect()]);
        }
        chars.windows(q).map(|w| w.iter().collect()).collect()
    }

    #[test]
    fn paper_example3_address_jaccard() {
        // The paper reports 0.37 = 7/19 for "2 Norman Street" vs
        // "2 West Norman", which corresponds to case-SENSITIVE grams
        // ("St" vs "st" do not match). Case-folded grams give 8/18 ≈ 0.444.
        // (Example 4's 0.9 requires folding, so the paper's two examples
        // use inconsistent conventions; we support both.)
        let a = qgram_set("2 Norman Street", 2);
        let b = qgram_set("2 West Norman", 2);
        assert!((jaccard_of_sets(&a, &b) - 7.0 / 19.0).abs() < 1e-9);

        let fa = folded_qgram_set("2 Norman Street", 2);
        let fb = folded_qgram_set("2 West Norman", 2);
        assert!((jaccard_of_sets(&fa, &fb) - 8.0 / 18.0).abs() < 1e-9);
    }

    #[test]
    fn paper_example4_contype_jaccard() {
        // folded "electronic" vs "electronics" → 9/10 = 0.9
        let a = folded_qgram_set("Electronic", 2);
        let b = folded_qgram_set("electronics", 2);
        let sim = jaccard_of_sets(&a, &b);
        assert!((sim - 0.9).abs() < 1e-9, "got {sim}");
    }

    #[test]
    fn short_strings_have_whole_string_gram() {
        assert_eq!(qgram_set("a", 2).len(), 1);
        assert_eq!(jaccard_of_sets(&qgram_set("a", 2), &qgram_set("a", 2)), 1.0);
        assert_eq!(jaccard_of_sets(&qgram_set("a", 2), &qgram_set("b", 2)), 0.0);
    }

    #[test]
    fn empty_string_has_empty_set() {
        assert!(qgram_set("", 2).is_empty());
        assert_eq!(jaccard_of_sets::<u64>(&[], &[]), 0.0);
    }

    #[test]
    fn grams_are_set_semantics() {
        // "aaaa" has only one distinct 2-gram "aa".
        assert_eq!(qgram_set("aaaa", 2).len(), 1);
    }

    #[test]
    fn intersection_size_basic() {
        assert_eq!(intersection_size(&[1, 3, 5], &[2, 3, 5, 7]), 2);
        assert_eq!(intersection_size(&[], &[1]), 0);
    }

    #[test]
    fn word_tokens_fold_and_split() {
        assert_eq!(word_tokens("Product  Manager"), vec!["product", "manager"]);
        assert!(word_tokens("   ").is_empty());
    }

    #[test]
    fn sketch_bound_is_exact_on_identical_sets() {
        let a = folded_qgram_set("electronic", 2);
        let s = GramSketch::of(&a);
        assert_eq!(s.intersection_upper_bound(a.len(), s, a.len()), a.len());
        assert_eq!(s.jaccard_upper_bound(a.len(), s, a.len()), 1.0);
    }

    /// Token `t` sets bit `t mod 128`: bits 0–63 in `lo`, 64–127 in `hi`.
    #[test]
    fn sketch_sets_the_token_bit_mod_128() {
        let s = GramSketch::of(&[0, 63, 64, 127, 128 + 5, 64]);
        assert_eq!(s.lo, 1 | 1 << 63 | 1 << 5);
        assert_eq!(s.hi, 1 | 1 << 63);
    }

    #[test]
    fn sketch_bound_rejects_disjoint_small_sets() {
        // Disjoint sets landing on disjoint bits: bound is 0.
        let a = [1u64, 2, 3];
        let b = [10u64, 11, 12];
        let (sa, sb) = (GramSketch::of(&a), GramSketch::of(&b));
        assert_eq!(sa.intersection_upper_bound(a.len(), sb, b.len()), 0);
        assert_eq!(sa.jaccard_upper_bound(a.len(), sb, b.len()), 0.0);
    }

    #[test]
    fn empty_sketch_bounds_zero() {
        let s = GramSketch::of(&[]);
        assert_eq!(s.jaccard_upper_bound(0, s, 0), 0.0);
        let t = GramSketch::of(&[5]);
        assert_eq!(s.jaccard_upper_bound(0, t, 1), 0.0);
    }

    proptest::proptest! {
        /// The sketch bound must dominate the exact Jaccard on arbitrary
        /// string pairs (soundness: a `bound < ξ` reject is never wrong).
        #[test]
        fn sketch_bound_dominates_exact_jaccard(
            a in "[ -~]{0,30}",
            b in "[ -~]{0,30}",
            q in 1usize..4
        ) {
            let ha = qgram_set(&fold(&a), q);
            let hb = qgram_set(&fold(&b), q);
            let exact = jaccard_of_sets(&ha, &hb);
            let bound = GramSketch::of(&ha)
                .jaccard_upper_bound(ha.len(), GramSketch::of(&hb), hb.len());
            prop_assert!(bound >= exact - 1e-12, "bound {bound} < exact {exact}");
            let inter = intersection_size(&ha, &hb);
            let iub = GramSketch::of(&ha)
                .intersection_upper_bound(ha.len(), GramSketch::of(&hb), hb.len());
            prop_assert!(iub >= inter);
        }

        /// The integer form of the bound never rejects a pair whose exact
        /// Jaccard reaches ξ when asked for the overlap the join derives
        /// from ξ (`⌈ξ/(1+ξ)·(|A|+|B|)⌉`, guarded against fp inflation as
        /// in `hera-join`), including at thresholds a pair can sit on
        /// exactly; it is the intersection bound compared to `overlap`.
        #[test]
        fn integer_sketch_test_keeps_every_similar_pair(
            a in "[a-e ]{0,12}",
            b in "[a-e ]{0,12}",
            xi in prop_oneof![0.05f64..0.95, Just(0.5), Just(0.75), Just(0.8)],
        ) {
            let (ha, hb) = (folded_qgram_set(&a, 2), folded_qgram_set(&b, 2));
            let (sa, sb) = (GramSketch::of(&ha), GramSketch::of(&hb));
            let sum = ha.len() + hb.len();
            let alpha = (xi / (1.0 + xi) * sum as f64 - 1e-9).ceil().max(0.0) as usize;
            if jaccard_of_sets(&ha, &hb) >= xi {
                prop_assert!(sa.may_share(ha.len(), sb, hb.len(), alpha));
                prop_assert!(sb.may_share(hb.len(), sa, ha.len(), alpha));
            }
            let bound = sa.intersection_upper_bound(ha.len(), sb, hb.len());
            for overlap in 0..=sum + 1 {
                prop_assert_eq!(sa.may_share(ha.len(), sb, hb.len(), overlap), bound >= overlap);
            }
        }

        /// Hashed gram sets must have the same cardinality as string gram
        /// sets (i.e. no observed collisions), and jaccard must match the
        /// string-set oracle.
        #[test]
        fn hashed_matches_string_oracle(
            a in "[ -~]{0,20}",
            b in "[ -~]{0,20}",
            q in 1usize..4
        ) {
            let (fa, fb) = (fold(&a), fold(&b));
            let ha = qgram_set(&fa, q);
            let hb = qgram_set(&fb, q);
            let sa = qgram_strings(&fa, q);
            let sb = qgram_strings(&fb, q);
            prop_assert_eq!(ha.len(), sa.len());
            prop_assert_eq!(hb.len(), sb.len());
            let inter_oracle = sa.intersection(&sb).count();
            prop_assert_eq!(intersection_size(&ha, &hb), inter_oracle);
        }

        /// Hashing ASCII text where it lies gives the tokens of the folded
        /// copy, and text with anything else in it — a final sigma, a
        /// dotted capital I that lowers to two chars, a sharp s, accents
        /// composed and combining — still goes through `fold`.
        #[test]
        fn folded_grams_equal_grams_of_the_folded_copy(
            s in prop_oneof![
                "[ -~]{0,20}",
                "[a-cA-C ΣσςİßÀé\u{301}]{0,12}",
            ],
            q in 1usize..5
        ) {
            prop_assert_eq!(folded_qgram_set(&s, q), qgram_set(&fold(&s), q));
        }

        /// The tokens in text order are the set's, each at least once,
        /// and sketch alike.
        #[test]
        fn grams_in_text_order_are_the_set(
            s in prop_oneof!["[ -~]{0,20}", "[a-cA-C ΣσςİßÀé\u{301}]{0,12}"],
            q in 1usize..5
        ) {
            let mut raw = vec![7];
            folded_qgrams_into(&s, q, &mut raw);
            let set = folded_qgram_set(&s, q);
            prop_assert_eq!(GramSketch::of(&raw), GramSketch::of(&set));
            raw.sort_unstable();
            raw.dedup();
            prop_assert_eq!(raw, set);
        }

        #[test]
        fn jaccard_bounds_and_symmetry(a in "[ -~]{0,20}", b in "[ -~]{0,20}") {
            let ha = folded_qgram_set(&a, 2);
            let hb = folded_qgram_set(&b, 2);
            let s = jaccard_of_sets(&ha, &hb);
            prop_assert!((0.0..=1.0).contains(&s));
            prop_assert_eq!(s, jaccard_of_sets(&hb, &ha));
        }
    }

    use proptest::prelude::*;
}
