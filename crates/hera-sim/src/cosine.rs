//! Cosine similarity over word-token term frequencies (the paper's
//! "cosine" alternative).

use crate::text::word_tokens;
use crate::ValueSimilarity;
use hera_types::Value;
use rustc_hash::FxHashMap;

/// Cosine similarity between TF vectors of case-folded word tokens.
#[derive(Debug, Clone, Copy, Default)]
pub struct CosineTf;

impl CosineTf {
    /// Similarity of two raw strings.
    pub(crate) fn sim_str(&self, a: &str, b: &str) -> f64 {
        let tf = |s: &str| -> FxHashMap<String, f64> {
            let mut m = FxHashMap::default();
            for t in word_tokens(s) {
                *m.entry(t).or_insert(0.0) += 1.0;
            }
            m
        };
        let (va, vb) = (tf(a), tf(b));
        if va.is_empty() || vb.is_empty() {
            return 0.0;
        }
        let dot: f64 = va
            .iter()
            .filter_map(|(t, x)| vb.get(t).map(|y| x * y))
            .sum();
        let na: f64 = va.values().map(|x| x * x).sum::<f64>().sqrt();
        let nb: f64 = vb.values().map(|x| x * x).sum::<f64>().sqrt();
        (dot / (na * nb)).clamp(0.0, 1.0)
    }
}

impl ValueSimilarity for CosineTf {
    fn sim(&self, a: &Value, b: &Value) -> f64 {
        if a.is_null() || b.is_null() {
            return 0.0;
        }
        self.sim_str(&a.to_text(), &b.to_text())
    }

    fn name(&self) -> &'static str {
        "cosine-tf"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support;
    use proptest::prelude::*;

    #[test]
    fn identical_token_multisets() {
        let m = CosineTf;
        assert!((m.sim_str("product manager", "manager product") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn half_overlap() {
        let m = CosineTf;
        // {a,b} vs {a,c}: dot=1, norms √2·√2 → 0.5
        assert!((m.sim_str("a b", "a c") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn disjoint_and_empty() {
        let m = CosineTf;
        assert_eq!(m.sim_str("x y", "z w"), 0.0);
        assert_eq!(m.sim_str("", "z"), 0.0);
        assert_eq!(m.sim_str("", ""), 0.0);
    }

    #[test]
    fn case_insensitive() {
        let m = CosineTf;
        assert!((m.sim_str("Product Manager", "product manager") - 1.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn invariants(
            a in test_support::any_value(),
            b in test_support::any_value()
        ) {
            test_support::check_invariants(&CosineTf, &a, &b);
        }
    }
}
