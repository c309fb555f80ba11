//! Kind-aware metric composition — the concrete `simv` HERA runs with.

use crate::{NumericProximity, QGramJaccard, ValueSimilarity};
use hera_types::{Value, ValueKind};

/// The paper's `simv` over the whole [`Value`] domain, routed by kind:
///
/// * string × string → [`QGramJaccard::default`]: 2-grams over
///   case-folded text, the paper's choice;
/// * number × number → [`NumericProximity::default`]: scale 1;
/// * string × number → the string leg over text renderings (a year
///   stored as `"1984"` in one source and `1984` in another should still
///   match);
/// * anything × null → 0.
///
/// It has no settable part. This is the "black box" handed to the index
/// builder, the verifier, and the baselines, so every system in the
/// evaluation scores values identically; another metric is another
/// [`ValueSimilarity`] handed to the builder in its place.
#[derive(Debug, Clone, Default)]
pub struct TypeDispatch;

impl TypeDispatch {
    /// The paper's configuration: 2-gram Jaccard for strings, exact-ish
    /// numeric proximity for numbers.
    pub fn paper_default() -> Self {
        Self
    }
}

impl ValueSimilarity for TypeDispatch {
    fn sim(&self, a: &Value, b: &Value) -> f64 {
        let (ka, kb) = (a.kind(), b.kind());
        if ka == ValueKind::Null || kb == ValueKind::Null {
            return 0.0;
        }
        let a_num = matches!(ka, ValueKind::Int | ValueKind::Float);
        let b_num = matches!(kb, ValueKind::Int | ValueKind::Float);
        if a_num && b_num {
            NumericProximity::default().sim(a, b)
        } else {
            QGramJaccard::default().sim(a, b)
        }
    }

    fn name(&self) -> &'static str {
        "type-dispatch"
    }

    fn fingerprint(&self) -> String {
        format!(
            "type-dispatch(string={},numeric={})",
            QGramJaccard::default().fingerprint(),
            NumericProximity::default().fingerprint()
        )
    }

    /// The string leg's gram length; numeric pairs still go through
    /// [`ValueSimilarity::sim`] (the join checks kinds).
    fn qgram_compatible(&self) -> Option<usize> {
        QGramJaccard::default().qgram_compatible()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support;
    use proptest::prelude::*;

    #[test]
    fn routes_by_kind() {
        let m = TypeDispatch::paper_default();
        // numbers → numeric proximity (exact only at scale 1)
        assert_eq!(m.sim(&Value::from(1984i64), &Value::from(1984i64)), 1.0);
        assert_eq!(m.sim(&Value::from(1984i64), &Value::from(1990i64)), 0.0);
        // strings → q-gram jaccard
        assert!(
            (m.sim(&Value::from("Electronic"), &Value::from("electronics")) - 0.9).abs() < 1e-9
        );
        // mixed → string metric over text renderings
        assert_eq!(m.sim(&Value::from("1984"), &Value::from(1984i64)), 1.0);
        // nulls → 0
        assert_eq!(m.sim(&Value::Null, &Value::from("x")), 0.0);
        assert_eq!(m.qgram_compatible(), Some(2));
    }

    /// The fingerprint names both legs with their parameters.
    #[test]
    fn fingerprint_composes_the_legs() {
        assert_eq!(
            TypeDispatch::paper_default().fingerprint(),
            "type-dispatch(string=qgram-jaccard(q=2,fold=true),numeric=numeric(scale=1))"
        );
    }

    proptest! {
        #[test]
        fn invariants(
            a in test_support::any_value(),
            b in test_support::any_value()
        ) {
            test_support::check_invariants(&TypeDispatch::paper_default(), &a, &b);
        }
    }
}
