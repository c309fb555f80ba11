//! Helpers shared by the workspace tests.

use hera::join::ValuePair;
use hera::sim::{NumericProximity, ValueSimilarity};
use hera::types::{Dataset, Label, Value, ValueKind};
use std::collections::BTreeMap;

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

/// The all-pairs join of a dataset, the oracle the joins are tested
/// against: every non-null value under its base label `(rid, fid, 0)`,
/// the metric asked about every pair of distinct values, a value with
/// itself included, with no signature and no filter; sorted by
/// [`output_order`](hera::join::output_order).
#[allow(dead_code)] // not every test binary that includes this module joins
pub fn all_pairs(ds: &Dataset, xi: f64, metric: &dyn ValueSimilarity) -> Vec<ValuePair> {
    let mut distinct: BTreeMap<&Value, Vec<Label>> = BTreeMap::new();
    for rec in ds.iter() {
        for (fid, v) in (0u32..).zip(&rec.values) {
            if !v.is_null() {
                let label = Label::new(rec.id.raw(), fid, 0);
                distinct.entry(v).or_default().push(label);
            }
        }
    }
    let distinct: Vec<(&Value, Vec<Label>)> = distinct.into_iter().collect();
    let mut out = Vec::new();
    for (i, (u, us)) in distinct.iter().enumerate() {
        for (j, (v, vs)) in distinct.iter().enumerate().skip(i) {
            let sim = metric.sim(u, v);
            if sim < xi {
                continue;
            }
            for (k, &a) in us.iter().enumerate() {
                let partners = if i == j { &vs[k + 1..] } else { &vs[..] };
                for &b in partners {
                    if a.rid != b.rid {
                        let (a, b) = if a.rid < b.rid { (a, b) } else { (b, a) };
                        out.push(ValuePair { a, b, sim });
                    }
                }
            }
        }
    }
    out.sort_unstable_by(hera::join::output_order);
    out
}
