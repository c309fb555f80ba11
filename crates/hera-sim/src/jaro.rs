//! Jaro and Jaro–Winkler similarity.

use crate::ValueSimilarity;
use hera_types::Value;

/// Raw Jaro similarity over char sequences.
///
/// Matching window is `max(|a|, |b|) / 2 − 1`; transpositions are counted
/// between matched characters in order. Returns 0 when either string is
/// empty.
pub(crate) fn jaro_str(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    if a == b {
        return 1.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_used = vec![false; b.len()];
    let mut a_matches: Vec<char> = Vec::new();
    let mut b_match_flags = vec![false; b.len()];
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_used[j] && b[j] == ca {
                b_used[j] = true;
                b_match_flags[j] = true;
                a_matches.push(ca);
                break;
            }
        }
    }
    let m = a_matches.len();
    if m == 0 {
        return 0.0;
    }
    let b_matches: Vec<char> = b
        .iter()
        .zip(&b_match_flags)
        .filter(|(_, &f)| f)
        .map(|(&c, _)| c)
        .collect();
    let transpositions = a_matches
        .iter()
        .zip(&b_matches)
        .filter(|(x, y)| x != y)
        .count()
        / 2;
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

/// Jaro similarity over case-folded text.
#[derive(Debug, Clone, Copy, Default)]
pub struct Jaro;

impl ValueSimilarity for Jaro {
    fn sim(&self, a: &Value, b: &Value) -> f64 {
        if a.is_null() || b.is_null() {
            return 0.0;
        }
        jaro_str(&a.to_text().to_lowercase(), &b.to_text().to_lowercase())
    }

    fn name(&self) -> &'static str {
        "jaro"
    }
}

/// Jaro–Winkler: Jaro boosted by a common-prefix bonus
/// `jw = j + ℓ·p·(1 − j)` with prefix length `ℓ ≤ 4` and scale `p`.
#[derive(Debug, Clone, Copy)]
pub struct JaroWinkler {
    /// Prefix scale, conventionally 0.1, must satisfy `p ≤ 0.25` so the
    /// result stays in `[0, 1]`.
    pub prefix_scale: f64,
}

impl JaroWinkler {
    /// Creates a Jaro–Winkler metric.
    ///
    /// # Panics
    /// Panics if `prefix_scale` is outside `[0, 0.25]`.
    pub fn new(prefix_scale: f64) -> Self {
        assert!(
            (0.0..=0.25).contains(&prefix_scale),
            "prefix scale must be in [0, 0.25]"
        );
        Self { prefix_scale }
    }

    /// Similarity of two case-folded strings.
    pub(crate) fn sim_str(&self, a: &str, b: &str) -> f64 {
        let j = jaro_str(a, b);
        let prefix = a
            .chars()
            .zip(b.chars())
            .take(4)
            .take_while(|(x, y)| x == y)
            .count();
        j + prefix as f64 * self.prefix_scale * (1.0 - j)
    }
}

impl Default for JaroWinkler {
    fn default() -> Self {
        Self { prefix_scale: 0.1 }
    }
}

impl ValueSimilarity for JaroWinkler {
    fn sim(&self, a: &Value, b: &Value) -> f64 {
        if a.is_null() || b.is_null() {
            return 0.0;
        }
        self.sim_str(&a.to_text().to_lowercase(), &b.to_text().to_lowercase())
    }

    fn name(&self) -> &'static str {
        "jaro-winkler"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support;
    use proptest::prelude::*;

    #[test]
    fn classic_examples() {
        // Standard worked examples from the record-linkage literature.
        assert!((jaro_str("martha", "marhta") - 0.944_444).abs() < 1e-4);
        assert!((jaro_str("dixon", "dicksonx") - 0.766_667).abs() < 1e-4);
        assert!((jaro_str("jellyfish", "smellyfish") - 0.896_296).abs() < 1e-4);
    }

    #[test]
    fn jaro_winkler_boosts_shared_prefix() {
        let jw = JaroWinkler::default();
        let j = jaro_str("martha", "marhta");
        let w = jw.sim_str("martha", "marhta");
        assert!(w > j);
        assert!((w - 0.961_111).abs() < 1e-4);
    }

    #[test]
    fn disjoint_strings() {
        assert_eq!(jaro_str("abc", "xyz"), 0.0);
        assert_eq!(jaro_str("", "abc"), 0.0);
    }

    #[test]
    #[should_panic(expected = "prefix scale")]
    fn bad_prefix_scale_panics() {
        JaroWinkler::new(0.5);
    }

    proptest! {
        #[test]
        fn jaro_invariants(
            a in test_support::any_value(),
            b in test_support::any_value()
        ) {
            test_support::check_invariants(&Jaro, &a, &b);
        }

        #[test]
        fn jw_invariants(
            a in test_support::any_value(),
            b in test_support::any_value()
        ) {
            test_support::check_invariants(&JaroWinkler::default(), &a, &b);
        }

        #[test]
        fn jw_dominates_jaro(a in "[a-z]{1,12}", b in "[a-z]{1,12}") {
            let jw = JaroWinkler::default();
            prop_assert!(jw.sim_str(&a, &b) + 1e-12 >= jaro_str(&a, &b));
        }
    }
}
