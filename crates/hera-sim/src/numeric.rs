//! Numeric proximity — the "numeric data" black box of §II-A.

use crate::ValueSimilarity;
use hera_types::Value;

/// Scale-based numeric proximity: `max(0, 1 − |a − b| / scale)`.
///
/// `scale` is the difference at which two numbers are considered completely
/// dissimilar; e.g. `scale = 5.0` for movie years makes a ±1-year
/// transcription slip score 0.8. Non-numeric values fall back to exact text
/// comparison (so a numeric column polluted by strings does not panic).
#[derive(Debug, Clone, Copy)]
pub struct NumericProximity {
    /// Difference at which similarity reaches zero. Must be positive.
    pub scale: f64,
}

impl NumericProximity {
    /// Creates a metric with the given zero-similarity scale.
    ///
    /// # Panics
    /// Panics if `scale` is not strictly positive and finite.
    pub fn new(scale: f64) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "scale must be positive and finite"
        );
        Self { scale }
    }

    /// Similarity of two raw numbers.
    pub(crate) fn sim_num(&self, a: f64, b: f64) -> f64 {
        let d = (a - b).abs();
        if !d.is_finite() {
            return 0.0;
        }
        (1.0 - d / self.scale).max(0.0)
    }
}

impl Default for NumericProximity {
    /// Scale of 1: only exact numeric equality scores 1, anything at
    /// distance ≥ 1 scores 0.
    fn default() -> Self {
        Self { scale: 1.0 }
    }
}

impl ValueSimilarity for NumericProximity {
    fn sim(&self, a: &Value, b: &Value) -> f64 {
        match (a.as_number(), b.as_number()) {
            (Some(x), Some(y)) => self.sim_num(x, y),
            _ => {
                if a.is_null() || b.is_null() {
                    0.0
                } else if a.same(b) {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "numeric"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support;
    use proptest::prelude::*;

    #[test]
    fn linear_falloff() {
        let m = NumericProximity::new(5.0);
        assert_eq!(m.sim_num(1984.0, 1984.0), 1.0);
        assert!((m.sim_num(1984.0, 1985.0) - 0.8).abs() < 1e-12);
        assert_eq!(m.sim_num(1984.0, 1990.0), 0.0);
    }

    #[test]
    fn mixed_kinds_fall_back_to_exact() {
        let m = NumericProximity::default();
        assert_eq!(m.sim(&Value::from("x"), &Value::from(3i64)), 0.0);
        assert_eq!(m.sim(&Value::from("x"), &Value::from("x")), 1.0);
        assert_eq!(m.sim(&Value::Null, &Value::from(3i64)), 0.0);
    }

    #[test]
    fn int_float_interop() {
        let m = NumericProximity::new(2.0);
        assert_eq!(m.sim(&Value::from(3i64), &Value::from(3.0)), 1.0);
        assert!((m.sim(&Value::from(3i64), &Value::from(4.0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_panics() {
        NumericProximity::new(0.0);
    }

    proptest! {
        #[test]
        fn invariants(
            a in test_support::any_value(),
            b in test_support::any_value(),
            scale in 0.1..100.0f64
        ) {
            test_support::check_invariants(&NumericProximity::new(scale), &a, &b);
        }
    }
}
