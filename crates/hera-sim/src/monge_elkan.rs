//! Monge–Elkan: token-level composition of a character-level metric.

use crate::jaro::JaroWinkler;
use crate::text::word_tokens;
use crate::ValueSimilarity;
use hera_types::Value;

/// Monge–Elkan similarity: each token of one string is matched to its
/// best-scoring token in the other under an inner character metric
/// (Jaro–Winkler here), and the per-token maxima are averaged.
/// Symmetrized by averaging both directions (the raw definition is
/// asymmetric).
///
/// Stronger than whole-string metrics on reordered multi-token values
/// (`"Bush, John"` vs `"John Bush"`) and than token-set metrics on
/// per-token typos (`"Jhon Bush"` vs `"John Bush"`).
#[derive(Debug, Clone, Copy)]
pub struct MongeElkan {
    inner: JaroWinkler,
}

impl MongeElkan {
    /// Creates a Monge–Elkan metric over Jaro–Winkler with the given
    /// prefix scale.
    pub fn new(prefix_scale: f64) -> Self {
        Self {
            inner: JaroWinkler::new(prefix_scale),
        }
    }

    fn directed(&self, a: &[String], b: &[String]) -> f64 {
        let mut total = 0.0;
        for ta in a {
            let mut best = 0.0f64;
            for tb in b {
                let s = self.inner.sim_str(ta, tb);
                if s > best {
                    best = s;
                }
            }
            total += best;
        }
        total / a.len() as f64
    }

    /// Similarity of two raw strings.
    pub(crate) fn sim_str(&self, a: &str, b: &str) -> f64 {
        let ta = word_tokens(a);
        let tb = word_tokens(b);
        if ta.is_empty() || tb.is_empty() {
            return 0.0;
        }
        0.5 * (self.directed(&ta, &tb) + self.directed(&tb, &ta))
    }
}

impl Default for MongeElkan {
    fn default() -> Self {
        Self::new(0.1)
    }
}

impl ValueSimilarity for MongeElkan {
    fn sim(&self, a: &Value, b: &Value) -> f64 {
        if a.is_null() || b.is_null() {
            return 0.0;
        }
        self.sim_str(&a.to_text(), &b.to_text())
    }

    fn name(&self) -> &'static str {
        "monge-elkan"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support;
    use proptest::prelude::*;

    #[test]
    fn token_reordering_is_free() {
        let m = MongeElkan::default();
        // Punctuation stays attached to tokens, so compare clean swaps.
        assert!((m.sim_str("john bush", "bush john") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn per_token_typos_score_high() {
        let m = MongeElkan::default();
        let s = m.sim_str("Jhon Bush", "John Bush");
        assert!(s > 0.9, "got {s}");
        // Whole-string 2-gram jaccard is much harsher on the same pair.
        let jac = crate::QGramJaccard::default().sim_str("Jhon Bush", "John Bush");
        assert!(s > jac);
    }

    #[test]
    fn unrelated_strings_score_low() {
        let m = MongeElkan::default();
        assert!(m.sim_str("alpha beta", "zzz qqq") < 0.3);
        assert_eq!(m.sim_str("", "x"), 0.0);
    }

    proptest! {
        #[test]
        fn invariants(
            a in test_support::any_value(),
            b in test_support::any_value()
        ) {
            test_support::check_invariants(&MongeElkan::default(), &a, &b);
        }
    }
}
