//! Q-gram Jaccard — the paper's default string metric.

use crate::text::{folded_qgram_set, jaccard_of_sets};
use crate::ValueSimilarity;
use hera_types::Value;

/// Jaccard similarity over q-gram sets of the text rendering of a value
/// (`|𝔙₁ ∩ 𝔙₂| / |𝔙₁ ∪ 𝔙₂|`, §II-A).
///
/// The paper sets `q = 2` ("we set 2 q-grams"), which is this type's
/// [`Default`]. Text is case-folded before gramming by default — required
/// to reproduce Example 4's `simv(Electronic, electronics) = 0.9` — but
/// `fold: false` disables it, which reproduces Example 3's case-sensitive
/// `0.37` instead (the paper's two worked examples use inconsistent
/// conventions). Non-string values are compared through their text
/// rendering; nulls score 0.
#[derive(Debug, Clone, Copy)]
pub struct QGramJaccard {
    /// Gram length.
    pub q: usize,
    /// Case-fold text before gramming (default true).
    pub fold: bool,
}

impl QGramJaccard {
    /// Creates a case-folding metric with the given gram length.
    ///
    /// # Panics
    /// Panics if `q == 0`.
    pub fn new(q: usize) -> Self {
        assert!(q >= 1, "q must be at least 1");
        Self { q, fold: true }
    }

    /// Similarity of two raw strings.
    pub(crate) fn sim_str(&self, a: &str, b: &str) -> f64 {
        if self.fold {
            jaccard_of_sets(&folded_qgram_set(a, self.q), &folded_qgram_set(b, self.q))
        } else {
            jaccard_of_sets(
                &crate::text::qgram_set(a, self.q),
                &crate::text::qgram_set(b, self.q),
            )
        }
    }
}

impl Default for QGramJaccard {
    /// The paper's configuration: 2-grams, case-folded.
    fn default() -> Self {
        Self { q: 2, fold: true }
    }
}

impl ValueSimilarity for QGramJaccard {
    fn sim(&self, a: &Value, b: &Value) -> f64 {
        if a.is_null() || b.is_null() {
            return 0.0;
        }
        self.sim_str(&a.to_text(), &b.to_text())
    }

    fn name(&self) -> &'static str {
        "qgram-jaccard"
    }

    fn fingerprint(&self) -> String {
        format!("qgram-jaccard(q={},fold={})", self.q, self.fold)
    }

    fn qgram_compatible(&self) -> Option<usize> {
        self.fold.then_some(self.q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support;

    #[test]
    fn paper_values() {
        let m = QGramJaccard::default();
        assert_eq!(m.sim_str("Electronic", "Electronic"), 1.0);
        assert!((m.sim_str("Electronic", "electronics") - 0.9).abs() < 1e-9);
        // Example 3's 0.37 uses case-sensitive grams.
        let cs = QGramJaccard {
            fold: false,
            ..QGramJaccard::new(2)
        };
        assert!((cs.sim_str("2 Norman Street", "2 West Norman") - 7.0 / 19.0).abs() < 1e-9);
        assert!((cs.sim_str("Electronic", "electronics") - 8.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn identical_phone_numbers() {
        let m = QGramJaccard::default();
        assert_eq!(m.sim(&Value::from("831-432"), &Value::from("831-432")), 1.0);
    }

    #[test]
    fn numbers_compare_via_text() {
        let m = QGramJaccard::default();
        assert_eq!(m.sim(&Value::from(1984i64), &Value::from(1984i64)), 1.0);
        let s = m.sim(&Value::from(1984i64), &Value::from(1985i64));
        assert!(s > 0.0 && s < 1.0);
    }

    #[test]
    fn nulls_score_zero() {
        let m = QGramJaccard::default();
        assert_eq!(m.sim(&Value::Null, &Value::from("x")), 0.0);
        assert_eq!(m.sim(&Value::Null, &Value::Null), 0.0);
    }

    /// Gram lengths, and folding, that score pairs differently are told
    /// apart.
    #[test]
    fn fingerprint_names_q_and_fold() {
        let (two, three) = (QGramJaccard::new(2), QGramJaccard::new(3));
        assert_ne!(two.fingerprint(), three.fingerprint());
        assert_eq!(two.fingerprint(), QGramJaccard::default().fingerprint());
        let cs = QGramJaccard { fold: false, ..two };
        assert_ne!(cs.fingerprint(), two.fingerprint());
    }

    #[test]
    #[should_panic(expected = "q must be at least 1")]
    fn zero_q_panics() {
        QGramJaccard::new(0);
    }

    proptest::proptest! {
        #[test]
        fn invariants(
            a in test_support::any_value(),
            b in test_support::any_value(),
            q in 1usize..4
        ) {
            test_support::check_invariants(&QGramJaccard::new(q), &a, &b);
        }
    }
}
