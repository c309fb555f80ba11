//! Edit-distance similarity (one of the paper's named alternatives).

use crate::ValueSimilarity;
use hera_types::Value;

/// Levenshtein distance between two char sequences, computed with the
/// classic two-row dynamic program (`O(|a|·|b|)` time, `O(min)` space).
pub(crate) fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    // Keep the shorter string as the row to minimize memory.
    let (short, long) = if a.len() <= b.len() {
        (&a, &b)
    } else {
        (&b, &a)
    };
    if short.is_empty() {
        return long.len();
    }
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut cur: Vec<usize> = vec![0; short.len() + 1];
    for (i, &lc) in long.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &sc) in short.iter().enumerate() {
            let cost = usize::from(lc != sc);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[short.len()]
}

/// Normalized edit similarity: `1 − lev(a, b) / max(|a|, |b|)` over
/// case-folded text. Two empty strings score 0 (informationless).
#[derive(Debug, Clone, Copy, Default)]
pub struct EditSimilarity;

impl EditSimilarity {
    /// Similarity of two raw strings (after case folding).
    pub(crate) fn sim_str(&self, a: &str, b: &str) -> f64 {
        let (a, b) = (a.to_lowercase(), b.to_lowercase());
        let max_len = a.chars().count().max(b.chars().count());
        if max_len == 0 {
            return 0.0;
        }
        1.0 - levenshtein(&a, &b) as f64 / max_len as f64
    }
}

impl ValueSimilarity for EditSimilarity {
    fn sim(&self, a: &Value, b: &Value) -> f64 {
        if a.is_null() || b.is_null() {
            return 0.0;
        }
        self.sim_str(&a.to_text(), &b.to_text())
    }

    fn name(&self) -> &'static str {
        "edit"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support;
    use proptest::prelude::*;

    #[test]
    fn known_distances() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
    }

    #[test]
    fn unicode_counts_chars_not_bytes() {
        assert_eq!(levenshtein("café", "cafe"), 1);
    }

    #[test]
    fn similarity_values() {
        let m = EditSimilarity;
        assert!((m.sim_str("kitten", "sitting") - (1.0 - 3.0 / 7.0)).abs() < 1e-12);
        assert_eq!(m.sim_str("ABC", "abc"), 1.0); // case-folded
        assert_eq!(m.sim_str("", ""), 0.0);
    }

    proptest! {
        #[test]
        fn triangle_inequality(a in "[a-c]{0,8}", b in "[a-c]{0,8}", c in "[a-c]{0,8}") {
            let ab = levenshtein(&a, &b);
            let bc = levenshtein(&b, &c);
            let ac = levenshtein(&a, &c);
            prop_assert!(ac <= ab + bc);
        }

        #[test]
        fn distance_symmetry(a in "[ -~]{0,12}", b in "[ -~]{0,12}") {
            prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        }

        #[test]
        fn distance_bounds(a in "[ -~]{0,12}", b in "[ -~]{0,12}") {
            let d = levenshtein(&a, &b);
            let (la, lb) = (a.chars().count(), b.chars().count());
            prop_assert!(d >= la.abs_diff(lb));
            prop_assert!(d <= la.max(lb));
        }

        #[test]
        fn invariants(
            a in test_support::any_value(),
            b in test_support::any_value()
        ) {
            test_support::check_invariants(&EditSimilarity, &a, &b);
        }
    }
}
