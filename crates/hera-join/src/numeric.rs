//! Sorted-sweep pair generation for numeric values.

use hera_sim::ValueSimilarity;
use hera_types::{Label, Value};

/// Finds the pairs `(i, j, sim)` of numeric distinct values, `i < j`, with
/// `sim = metric.sim(vᵢ, vⱼ) ≥ ξ` by a forward sweep over the sorted
/// number line, ordered by `(i, j)`. Each pair is scored once, here.
///
/// Sound for metrics that are non-increasing in `|a − b|` (every built-in
/// numeric metric is): once `sim(vᵢ, vⱼ) < ξ` for some `j > i` in sorted
/// order, all later `j` are at least as far from `vᵢ` and score no higher,
/// so the sweep stops.
pub fn numeric_pairs(
    distinct: &[(&Value, Vec<Label>)],
    metric: &dyn ValueSimilarity,
    xi: f64,
) -> Vec<(usize, usize, f64)> {
    let mut nums: Vec<(f64, usize)> = distinct
        .iter()
        .enumerate()
        .filter_map(|(i, (v, _))| v.as_number().map(|x| (x, i)))
        .collect();
    nums.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));

    let mut out = Vec::new();
    for (at, &(_, a)) in nums.iter().enumerate() {
        for &(_, b) in &nums[at + 1..] {
            let (i, j) = (a.min(b), a.max(b));
            let s = metric.sim(distinct[i].0, distinct[j].0);
            if s >= xi {
                out.push((i, j, s));
            } else {
                break; // monotone metric: later values only further away
            }
        }
    }
    out.sort_unstable_by_key(|&(i, j, _)| (i, j));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hera_sim::{NumericProximity, TypeDispatch};
    use std::sync::Arc;

    fn dv(vals: &[Value]) -> Vec<(Value, Vec<Label>)> {
        vals.iter()
            .enumerate()
            .map(|(i, v)| (v.clone(), vec![Label::new(i as u32, 0, 0)]))
            .collect()
    }

    fn run(vals: &[Value], scale: f64, xi: f64) -> Vec<(usize, usize)> {
        let metric = TypeDispatch::paper_default()
            .with_numeric_metric(Arc::new(NumericProximity::new(scale)));
        let owned = dv(vals);
        let borrowed: Vec<(&Value, Vec<Label>)> =
            owned.iter().map(|(v, l)| (v, l.clone())).collect();
        let pairs = numeric_pairs(&borrowed, &metric, xi);
        pairs.into_iter().map(|(i, j, _)| (i, j)).collect()
    }

    #[test]
    fn window_respects_scale() {
        let vals: Vec<Value> = [1980i64, 1981, 1985, 2000]
            .iter()
            .map(|&y| Value::from(y))
            .collect();
        // scale 5, xi 0.5 → pairs within |Δ| ≤ 2.5.
        let c = run(&vals, 5.0, 0.5);
        assert_eq!(c, vec![(0, 1)]);
        // scale 10 → |Δ| ≤ 5 adds (0,2),(1,2).
        let c = run(&vals, 10.0, 0.5);
        assert_eq!(c, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn strings_ignored() {
        let vals = vec![Value::from("1984"), Value::from(1984i64)];
        // Only one numeric value → no numeric pairs (mixed pairs come from
        // the gram index instead).
        let c = run(&vals, 5.0, 0.5);
        assert!(c.is_empty());
    }

    #[test]
    fn floats_and_ints_mix() {
        let vals = vec![Value::from(3.5), Value::from(3i64), Value::from(100i64)];
        let c = run(&vals, 2.0, 0.5);
        assert_eq!(c, vec![(0, 1)]);
    }

    #[test]
    fn exhaustive_equivalence_on_dense_cluster() {
        let vals: Vec<Value> = (0..20).map(|i| Value::from(i as f64 * 0.3)).collect();
        let metric =
            TypeDispatch::paper_default().with_numeric_metric(Arc::new(NumericProximity::new(1.0)));
        let owned = dv(&vals);
        let borrowed: Vec<(&Value, Vec<Label>)> =
            owned.iter().map(|(v, l)| (v, l.clone())).collect();
        let sweep = numeric_pairs(&borrowed, &metric, 0.4);
        let mut oracle = Vec::new();
        for i in 0..vals.len() {
            for j in i + 1..vals.len() {
                let s = metric.sim(&vals[i], &vals[j]);
                if s >= 0.4 {
                    oracle.push((i, j, s));
                }
            }
        }
        assert_eq!(sweep, oracle);
    }
}
