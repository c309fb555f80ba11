//! Soft TF-IDF (Cohen, Ravikumar & Fienberg) — the paper's second named
//! alternative metric.
//!
//! Soft TF-IDF generalizes TF-IDF cosine by letting *near*-equal tokens
//! (under an inner character metric, here Jaro–Winkler) contribute, scaled
//! by their inner similarity. It is trained on a corpus to learn IDF
//! weights; unseen tokens receive the maximum observed IDF.

use crate::jaro::JaroWinkler;
use crate::text::word_tokens;
use crate::ValueSimilarity;
use hera_types::Value;
use rustc_hash::FxHashMap;

/// Trained Soft TF-IDF metric.
#[derive(Debug, Clone)]
pub struct SoftTfIdf {
    idf: FxHashMap<String, f64>,
    /// IDF assigned to tokens never seen in training.
    default_idf: f64,
    /// Inner-similarity threshold θ below which tokens do not soft-match.
    threshold: f64,
    inner: JaroWinkler,
}

impl SoftTfIdf {
    /// Trains IDF weights on a corpus of documents (each document is the
    /// text of one value). Uses the smoothed form
    /// `idf(t) = ln((1 + N) / (1 + df(t))) + 1`.
    pub fn train<'a, I: IntoIterator<Item = &'a str>>(corpus: I, threshold: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&threshold),
            "threshold must be in [0,1]"
        );
        let mut df: FxHashMap<String, usize> = FxHashMap::default();
        let mut n_docs = 0usize;
        for doc in corpus {
            n_docs += 1;
            let mut tokens = word_tokens(doc);
            tokens.sort_unstable();
            tokens.dedup();
            for t in tokens {
                *df.entry(t).or_insert(0) += 1;
            }
        }
        let n = n_docs as f64;
        let idf: FxHashMap<String, f64> = df
            .into_iter()
            .map(|(t, d)| (t, ((1.0 + n) / (1.0 + d as f64)).ln() + 1.0))
            .collect();
        let default_idf = idf
            .values()
            .copied()
            .fold(((1.0 + n) / 1.0).ln() + 1.0, f64::max);
        Self {
            idf,
            default_idf,
            threshold,
            inner: JaroWinkler::default(),
        }
    }

    fn idf_of(&self, token: &str) -> f64 {
        self.idf.get(token).copied().unwrap_or(self.default_idf)
    }

    /// Unit-normalized TF-IDF weights for a token multiset.
    fn weights(&self, tokens: &[String]) -> Vec<(String, f64)> {
        let mut tf: FxHashMap<&str, f64> = FxHashMap::default();
        for t in tokens {
            *tf.entry(t).or_insert(0.0) += 1.0;
        }
        let mut w: Vec<(String, f64)> = tf
            .into_iter()
            .map(|(t, f)| (t.to_owned(), f * self.idf_of(t)))
            .collect();
        let norm = w.iter().map(|(_, x)| x * x).sum::<f64>().sqrt();
        if norm > 0.0 {
            for (_, x) in &mut w {
                *x /= norm;
            }
        }
        w.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        w
    }

    /// One direction of the soft match: each token of `a` grabs its best
    /// partner in `b` (≥ θ) and contributes `w_a · w_b · inner`.
    fn directed(&self, a: &[(String, f64)], b: &[(String, f64)]) -> f64 {
        let mut total = 0.0;
        for (ta, wa) in a {
            let mut best = 0.0f64;
            let mut best_w = 0.0f64;
            for (tb, wb) in b {
                let s = if ta == tb {
                    1.0
                } else {
                    self.inner.sim_str(ta, tb)
                };
                if s >= self.threshold && s > best {
                    best = s;
                    best_w = *wb;
                }
            }
            total += wa * best_w * best;
        }
        total.clamp(0.0, 1.0)
    }

    /// Similarity of two raw strings (symmetrized: average of both
    /// directions).
    pub(crate) fn sim_str(&self, a: &str, b: &str) -> f64 {
        let ta = word_tokens(a);
        let tb = word_tokens(b);
        if ta.is_empty() || tb.is_empty() {
            return 0.0;
        }
        let wa = self.weights(&ta);
        let wb = self.weights(&tb);
        0.5 * (self.directed(&wa, &wb) + self.directed(&wb, &wa))
    }
}

impl ValueSimilarity for SoftTfIdf {
    fn sim(&self, a: &Value, b: &Value) -> f64 {
        if a.is_null() || b.is_null() {
            return 0.0;
        }
        self.sim_str(&a.to_text(), &b.to_text())
    }

    fn name(&self) -> &'static str {
        "soft-tfidf"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support;
    use proptest::prelude::*;

    fn trained() -> SoftTfIdf {
        SoftTfIdf::train(
            [
                "product manager",
                "manager",
                "senior product manager",
                "sales associate",
                "regional sales manager",
            ],
            0.9,
        )
    }

    #[test]
    fn identity_scores_one() {
        let m = trained();
        assert!((m.sim_str("product manager", "product manager") - 1.0).abs() < 1e-9);
    }

    #[test]
    fn near_tokens_soft_match() {
        let m = trained();
        // "managr" ≈ "manager" under Jaro-Winkler (> 0.9), so the pair
        // scores well above plain cosine (which would give 0 overlap on
        // that token).
        let soft = m.sim_str("product managr", "product manager");
        assert!(soft > 0.85, "got {soft}");
        // Plain TF cosine scores the same pair at 0.5 (only "product"
        // overlaps exactly).
        let cos = crate::CosineTf.sim_str("product managr", "product manager");
        assert!(soft > cos, "soft {soft} should beat cosine {cos}");
    }

    #[test]
    fn rare_tokens_weigh_more() {
        let m = trained();
        // "product" (df 2) is rarer than "manager" (df 4): sharing the
        // rare token scores higher than sharing the common one.
        let share_rare = m.sim_str("product x", "product y");
        let share_common = m.sim_str("manager x", "manager y");
        assert!(share_rare > share_common, "{share_rare} vs {share_common}");
    }

    #[test]
    fn empty_scores_zero() {
        let m = trained();
        assert_eq!(m.sim_str("", "manager"), 0.0);
        assert_eq!(m.sim_str("", ""), 0.0);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn bad_threshold_panics() {
        SoftTfIdf::train(["x"], 1.5);
    }

    proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        #[test]
        fn invariants(
            a in test_support::any_value(),
            b in test_support::any_value()
        ) {
            test_support::check_invariants(&trained(), &a, &b);
        }
    }
}
