//! Pluggable value-similarity metrics (`simv` in the paper).
//!
//! HERA "could handle records with various data types … and view the
//! similarity metric of corresponding data type as a black-box" (§I). This
//! crate is that black box: a [`ValueSimilarity`] trait with the paper's
//! default instantiation — **Jaccard over 2-grams** ([`QGramJaccard`]) — and
//! the alternatives the paper names (edit distance, Soft TF-IDF) plus a few
//! standard extras (Jaro/Jaro-Winkler, token cosine, numeric proximity).
//!
//! [`TypeDispatch`] composes per-kind metrics into one `simv` covering the
//! whole [`Value`] domain; it is what `hera-core` uses by default.
//!
//! All metrics guarantee:
//! * range: `sim(a, b) ∈ [0, 1]`,
//! * symmetry: `sim(a, b) == sim(b, a)`,
//! * identity on informative values: `sim(a, a) == 1` whenever `a` is
//!   neither null nor empty text,
//! * nulls (and empty strings) carry no evidence: they score `0` against
//!   everything, themselves included.
//!
//! These invariants are enforced by property tests in every module.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cosine;
mod dispatch;
mod edit;
mod jaccard;
mod jaro;
mod monge_elkan;
mod numeric;
mod setsim;
mod softtfidf;
pub mod text;

pub use cosine::CosineTf;
pub use dispatch::TypeDispatch;
pub use edit::EditSimilarity;
pub use jaccard::QGramJaccard;
pub use jaro::{Jaro, JaroWinkler};
pub use monge_elkan::MongeElkan;
pub use numeric::NumericProximity;
pub use setsim::{DiceQGram, OverlapQGram, TokenJaccard};
pub use softtfidf::SoftTfIdf;

use hera_types::Value;

/// A black-box value similarity function (`simv` of Definition 3).
pub trait ValueSimilarity: Send + Sync {
    /// Similarity of two values in `[0, 1]`.
    fn sim(&self, a: &Value, b: &Value) -> f64;

    /// Short metric name for reports.
    fn name(&self) -> &'static str;

    /// Declares that this metric's *string* comparison is exactly Jaccard
    /// over case-folded q-grams of the text rendering, returning the gram
    /// length. Consumers (the similarity join) may then score string
    /// pairs from precomputed gram signatures instead of calling
    /// [`ValueSimilarity::sim`], skipping re-tokenization in the hottest
    /// loop of index construction. Metrics that are not gram-Jaccard must
    /// return `None` (the default).
    fn qgram_compatible(&self) -> Option<usize> {
        None
    }
}

/// Exact equality metric: 1 if [`Value::same`] holds, else 0. Useful as a
/// strict baseline and for key-like attributes.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactMatch;

impl ValueSimilarity for ExactMatch {
    fn sim(&self, a: &Value, b: &Value) -> f64 {
        if a.same(b) {
            1.0
        } else {
            0.0
        }
    }

    fn name(&self) -> &'static str {
        "exact"
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use hera_types::Value;
    use proptest::prelude::*;

    /// Strategy producing arbitrary values of every kind.
    pub fn any_value() -> BoxedStrategy<Value> {
        prop_oneof![
            "[ -~]{0,24}".prop_map(Value::from),
            any::<i64>().prop_map(Value::from),
            (-1.0e6..1.0e6f64).prop_map(Value::from),
            Just(Value::Null),
        ]
        .boxed()
    }

    /// Asserts the four metric invariants for a metric over a value pair.
    pub fn check_invariants<M: crate::ValueSimilarity>(m: &M, a: &Value, b: &Value) {
        let s_ab = m.sim(a, b);
        let s_ba = m.sim(b, a);
        assert!(
            (0.0..=1.0).contains(&s_ab),
            "{} out of range: {s_ab}",
            m.name()
        );
        assert!(
            (s_ab - s_ba).abs() < 1e-12,
            "{} asymmetric: {s_ab} vs {s_ba}",
            m.name()
        );
        // Identity holds for any value that carries information: non-null
        // with a non-empty text rendering. Empty strings are treated as
        // informationless, like nulls.
        if !a.is_null() && !a.to_text().trim().is_empty() {
            let s_aa = m.sim(a, a);
            assert!(
                (s_aa - 1.0).abs() < 1e-12,
                "{} identity violated: sim(a,a)={s_aa} for {a:?}",
                m.name()
            );
        }
        if a.is_null() || b.is_null() {
            assert_eq!(s_ab, 0.0, "{}: null must score 0", m.name());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_match() {
        let m = ExactMatch;
        assert_eq!(m.sim(&Value::from("a"), &Value::from("a")), 1.0);
        assert_eq!(m.sim(&Value::from("a"), &Value::from("b")), 0.0);
        assert_eq!(m.sim(&Value::Null, &Value::Null), 0.0);
        assert_eq!(m.sim(&Value::from(3i64), &Value::from(3.0)), 1.0);
        assert_eq!(m.name(), "exact");
    }

    proptest::proptest! {
        #[test]
        fn exact_invariants(
            a in test_support::any_value(),
            b in test_support::any_value()
        ) {
            test_support::check_invariants(&ExactMatch, &a, &b);
        }
    }
}
