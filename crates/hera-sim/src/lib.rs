//! Value similarity (`simv` in the paper) behind one black-box trait.
//!
//! HERA "could handle records with various data types … and view the
//! similarity metric of corresponding data type as a black-box" (§I). This
//! crate is that black box: the [`ValueSimilarity`] trait, and the one
//! instance of it the paper runs — **Jaccard over 2-grams** for strings
//! ([`QGramJaccard`]) and proximity for numbers ([`NumericProximity`]),
//! composed per value kind by [`TypeDispatch`]. Every shipped path (the
//! driver, a session, the service, the baselines, the benchmarks) runs
//! [`TypeDispatch::paper_default`]; a caller that wants another metric
//! implements the trait and hands it to the builder. [`EditSimilarity`]
//! is the non-gram metric the join's tests exercise that door with.
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

mod dispatch;
mod edit;
mod jaccard;
mod numeric;
pub mod text;

pub use dispatch::TypeDispatch;
pub use edit::EditSimilarity;
pub use jaccard::QGramJaccard;
pub use numeric::NumericProximity;

use hera_types::Value;

/// A black-box value similarity function (`simv` of Definition 3).
pub trait ValueSimilarity: Send + Sync {
    /// Similarity of two values in `[0, 1]`.
    fn sim(&self, a: &Value, b: &Value) -> f64;

    /// Short metric name for reports.
    fn name(&self) -> &'static str;

    /// The metric with its parameters, e.g. `qgram-jaccard(q=2,fold=true)`:
    /// two metrics that may score a pair differently must have different
    /// fingerprints. A session's snapshot records it, and a restore under
    /// a metric with another fingerprint is refused. Defaults to
    /// [`ValueSimilarity::name`], which is enough for a metric without
    /// parameters.
    fn fingerprint(&self) -> String {
        self.name().to_owned()
    }

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
