//! Helpers shared by the workspace tests.

use hera::sim::{NumericProximity, ValueSimilarity};
use hera::types::{Value, ValueKind};

/// Routes by kind as `TypeDispatch` does, through legs a test picks:
/// number × number to `number`, any other pair of non-nulls to
/// `string`, nulls to 0. Numbers go to a [`NumericProximity`] because
/// the batch join's numeric sweep assumes a metric monotone in |a − b|.
#[derive(Clone)]
pub struct ByKind<S> {
    string: S,
    number: NumericProximity,
}

impl<S: ValueSimilarity> ByKind<S> {
    /// `string` for text, numeric proximity at `scale` for numbers.
    pub fn new(string: S, scale: f64) -> Self {
        let number = NumericProximity::new(scale);
        Self { string, number }
    }
}

impl<S: ValueSimilarity> ValueSimilarity for ByKind<S> {
    fn sim(&self, a: &Value, b: &Value) -> f64 {
        let num = |v: &Value| matches!(v.kind(), ValueKind::Int | ValueKind::Float);
        if a.is_null() || b.is_null() {
            0.0
        } else if num(a) && num(b) {
            self.number.sim(a, b)
        } else {
            self.string.sim(a, b)
        }
    }
    fn name(&self) -> &'static str {
        "by-kind"
    }
    fn qgram_compatible(&self) -> Option<usize> {
        self.string.qgram_compatible()
    }
}
