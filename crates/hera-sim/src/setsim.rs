//! Set-overlap coefficient family over q-gram sets: Dice, overlap, and
//! token-level Jaccard — standard alternatives to the paper's default
//! gram Jaccard, useful when tuning ξ against different value styles.

use crate::text::{folded_qgram_set, intersection_size, word_tokens};
use crate::ValueSimilarity;
use hera_types::Value;

/// Sørensen–Dice over q-gram sets: `2|A∩B| / (|A|+|B|)`. Always ≥
/// Jaccard on the same sets; gentler on length differences.
#[derive(Debug, Clone, Copy)]
pub struct DiceQGram {
    /// Gram length.
    pub q: usize,
}

impl DiceQGram {
    /// Creates a Dice metric.
    ///
    /// # Panics
    /// Panics if `q == 0`.
    pub fn new(q: usize) -> Self {
        assert!(q >= 1, "q must be at least 1");
        Self { q }
    }

    /// Similarity of two raw strings.
    pub(crate) fn sim_str(&self, a: &str, b: &str) -> f64 {
        let sa = folded_qgram_set(a, self.q);
        let sb = folded_qgram_set(b, self.q);
        if sa.is_empty() && sb.is_empty() {
            return 0.0;
        }
        let inter = intersection_size(&sa, &sb);
        2.0 * inter as f64 / (sa.len() + sb.len()) as f64
    }
}

impl Default for DiceQGram {
    fn default() -> Self {
        Self { q: 2 }
    }
}

impl ValueSimilarity for DiceQGram {
    fn sim(&self, a: &Value, b: &Value) -> f64 {
        if a.is_null() || b.is_null() {
            return 0.0;
        }
        self.sim_str(&a.to_text(), &b.to_text())
    }

    fn name(&self) -> &'static str {
        "dice-qgram"
    }
}

/// Overlap coefficient over q-gram sets: `|A∩B| / min(|A|,|B|)`. Scores
/// 1 whenever one value's grams are a subset of the other's — the right
/// tool for abbreviation-heavy data (`"J. Smith"` inside
/// `"John Smith"`-ish), and far too generous as a general default.
#[derive(Debug, Clone, Copy)]
pub struct OverlapQGram {
    /// Gram length.
    pub q: usize,
}

impl OverlapQGram {
    /// Creates an overlap metric.
    ///
    /// # Panics
    /// Panics if `q == 0`.
    pub fn new(q: usize) -> Self {
        assert!(q >= 1, "q must be at least 1");
        Self { q }
    }

    /// Similarity of two raw strings.
    pub(crate) fn sim_str(&self, a: &str, b: &str) -> f64 {
        let sa = folded_qgram_set(a, self.q);
        let sb = folded_qgram_set(b, self.q);
        let min = sa.len().min(sb.len());
        if min == 0 {
            return 0.0;
        }
        intersection_size(&sa, &sb) as f64 / min as f64
    }
}

impl Default for OverlapQGram {
    fn default() -> Self {
        Self { q: 2 }
    }
}

impl ValueSimilarity for OverlapQGram {
    fn sim(&self, a: &Value, b: &Value) -> f64 {
        if a.is_null() || b.is_null() {
            return 0.0;
        }
        self.sim_str(&a.to_text(), &b.to_text())
    }

    fn name(&self) -> &'static str {
        "overlap-qgram"
    }
}

/// Jaccard over whole word tokens (not grams): the classic set-semantics
/// metric for list-valued attributes (`"Drama, Crime"` vs
/// `"Crime, Drama"` → 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct TokenJaccard;

impl TokenJaccard {
    /// Similarity of two raw strings.
    pub(crate) fn sim_str(&self, a: &str, b: &str) -> f64 {
        let norm = |s: &str| -> Vec<String> {
            let mut t: Vec<String> = word_tokens(s)
                .into_iter()
                .map(|w| w.trim_matches(|c: char| !c.is_alphanumeric()).to_owned())
                .filter(|w| !w.is_empty())
                .collect();
            t.sort_unstable();
            t.dedup();
            t
        };
        let (ta, tb) = (norm(a), norm(b));
        if ta.is_empty() && tb.is_empty() {
            return 0.0;
        }
        let mut inter = 0usize;
        let (mut i, mut j) = (0, 0);
        while i < ta.len() && j < tb.len() {
            match ta[i].cmp(&tb[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    inter += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        inter as f64 / (ta.len() + tb.len() - inter) as f64
    }
}

impl ValueSimilarity for TokenJaccard {
    fn sim(&self, a: &Value, b: &Value) -> f64 {
        if a.is_null() || b.is_null() {
            return 0.0;
        }
        self.sim_str(&a.to_text(), &b.to_text())
    }

    fn name(&self) -> &'static str {
        "token-jaccard"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support;
    use crate::QGramJaccard;
    use proptest::prelude::*;

    #[test]
    fn dice_known_value() {
        // "night" vs "nacht": folded grams {ni,ig,gh,ht} vs {na,ac,ch,ht}
        // → inter 1, dice = 2·1/8 = 0.25.
        let d = DiceQGram::default();
        assert!((d.sim_str("night", "nacht") - 0.25).abs() < 1e-12);
    }

    #[test]
    fn overlap_rewards_containment() {
        let o = OverlapQGram::default();
        // Every gram of "norman" appears in "west norman".
        assert_eq!(o.sim_str("norman", "west norman"), 1.0);
        let j = QGramJaccard::default();
        assert!(j.sim_str("norman", "west norman") < 1.0);
    }

    #[test]
    fn token_jaccard_is_order_and_punctuation_blind() {
        let t = TokenJaccard;
        assert_eq!(t.sim_str("Drama, Crime", "Crime, Drama"), 1.0);
        assert!((t.sim_str("Drama, Crime", "Drama") - 0.5).abs() < 1e-12);
        assert_eq!(t.sim_str("a b", "c d"), 0.0);
    }

    proptest! {
        #[test]
        fn dice_dominates_jaccard(a in "[a-z ]{0,16}", b in "[a-z ]{0,16}") {
            let d = DiceQGram::default().sim_str(&a, &b);
            let j = QGramJaccard::default().sim_str(&a, &b);
            prop_assert!(d + 1e-12 >= j);
        }

        #[test]
        fn overlap_dominates_dice(a in "[a-z ]{0,16}", b in "[a-z ]{0,16}") {
            let o = OverlapQGram::default().sim_str(&a, &b);
            let d = DiceQGram::default().sim_str(&a, &b);
            prop_assert!(o + 1e-12 >= d);
        }

        #[test]
        fn dice_invariants(
            a in test_support::any_value(),
            b in test_support::any_value()
        ) {
            test_support::check_invariants(&DiceQGram::default(), &a, &b);
        }

        #[test]
        fn overlap_invariants(
            a in test_support::any_value(),
            b in test_support::any_value()
        ) {
            test_support::check_invariants(&OverlapQGram::default(), &a, &b);
        }
    }

    #[test]
    fn token_jaccard_null_and_empty() {
        let t = TokenJaccard;
        assert_eq!(t.sim(&Value::Null, &Value::from("x")), 0.0);
        assert_eq!(t.sim_str("", ""), 0.0);
        assert_eq!(t.sim(&Value::from("abc"), &Value::from("abc")), 1.0);
    }
}
