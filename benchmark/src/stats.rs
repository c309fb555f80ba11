//! Sample statistics and the bound arithmetic behind `compare`.

/// Whether a larger or a smaller value of a metric is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// How far a metric may worsen before the change counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the base value.
    Rel(f64),
    /// An absolute distance, in the metric's own unit.
    Abs(f64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    WithinBound,
    Regressed,
    /// The inputs' own spread is wider than the bound, so neither
    /// "unchanged" nor "regressed" can be claimed.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within_bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle samples for an even count.
/// Zero for an empty sample, so an absent layer reads as 0.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// 1-based nearest-rank position of percentile `p` (in `(0, 1]`) among
/// `n` samples.
pub fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile; zero for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return 0.0;
    }
    v[rank(v.len(), p) - 1]
}

/// A tail percentile is reported only when at least this many samples
/// lie beyond it (choosing-metrics §1).
pub const MIN_BEYOND: usize = 10;

/// Whether `n` samples leave [`MIN_BEYOND`] beyond percentile `p`.
pub fn supports_percentile(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= MIN_BEYOND
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method).
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let q = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile distance as a share of the median.
pub fn iqr_share(samples: &[f64]) -> f64 {
    let med = median(samples);
    match quartiles(samples) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

/// Estimated run-to-run spread of the *median* of `samples`, as a share
/// of it: the samples' own interquartile share shrunk by the usual
/// 1.25/√n standard-error factor of a median. The reps of one run use
/// different inputs, so their raw spread is input variety, not noise;
/// this is what a repeat of the whole run would be expected to show.
pub fn median_spread(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    1.25 * iqr_share(samples) / (samples.len() as f64).sqrt()
}

/// How much worse `new` is than `base`, positive when worse, in the
/// bound's own terms (a share of `base`, or an absolute distance).
pub fn worsening(base: f64, new: f64, better: Better, bound: Bound) -> f64 {
    let worse_by = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    match bound {
        Bound::Abs(_) => worse_by,
        Bound::Rel(_) if base == 0.0 => 0.0,
        Bound::Rel(_) => worse_by / base.abs(),
    }
}

/// Verdict for one metric. `spread` is the wider of the two inputs'
/// spreads, as a share of the value.
pub fn verdict(base: f64, new: f64, spread: f64, better: Better, bound: Bound) -> Verdict {
    let limit = match bound {
        Bound::Rel(b) | Bound::Abs(b) => b,
    };
    let spread = match bound {
        Bound::Rel(_) => spread,
        Bound::Abs(_) => spread * base.abs(),
    };
    if spread > limit {
        return Verdict::Unresolved;
    }
    let w = worsening(base, new, better, bound);
    if w > limit {
        Verdict::Regressed
    } else if w < -limit {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 100.0);
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert_eq!(percentile(&v, 1.0), 200.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn p95_needs_ten_samples_beyond() {
        // 200 samples: rank 190, exactly ten beyond.
        assert!(supports_percentile(200, 0.95));
        assert!(!supports_percentile(199, 0.95));
        assert!(supports_percentile(1000, 0.99));
        assert!(!supports_percentile(999, 0.99));
        assert!(!supports_percentile(0, 0.5));
        assert!(supports_percentile(20, 0.5));
        assert!(!supports_percentile(19, 0.5));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let (q1, q3) = quartiles(&[4.0, 1.0, 2.0]).unwrap();
        assert_eq!((q1, q3), (1.0, 4.0));
        assert!(quartiles(&[1.0]).is_none());
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn worsening_respects_direction() {
        let rel = Bound::Rel(0.1);
        assert!((worsening(10.0, 11.0, Better::Lower, rel) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, Better::Higher, rel) + 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, Better::Higher, rel) - 0.1).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, Better::Lower, rel), 0.0);
        let abs = Bound::Abs(0.002);
        assert!((worsening(0.8, 0.797, Better::Higher, abs) - 0.003).abs() < 1e-12);
    }

    #[test]
    fn verdicts_for_lower_and_higher_metrics() {
        let b = Bound::Rel(0.1);
        assert_eq!(
            verdict(10.0, 10.5, 0.0, Better::Lower, b),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(10.0, 11.5, 0.0, Better::Lower, b),
            Verdict::Regressed
        );
        assert_eq!(verdict(10.0, 8.0, 0.0, Better::Lower, b), Verdict::Improved);
        assert_eq!(
            verdict(100.0, 80.0, 0.0, Better::Higher, b),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(100.0, 120.0, 0.0, Better::Higher, b),
            Verdict::Improved
        );
        // A spread wider than the bound leaves even a large change open.
        assert_eq!(
            verdict(10.0, 20.0, 0.2, Better::Lower, b),
            Verdict::Unresolved
        );
    }

    #[test]
    fn f1_bound_is_absolute() {
        let b = Bound::Abs(0.002);
        assert_eq!(
            verdict(0.8, 0.799, 0.0, Better::Higher, b),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(0.8, 0.797, 0.0, Better::Higher, b),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(0.8, 0.803, 0.0, Better::Higher, b),
            Verdict::Improved
        );
        // 0.1 % spread of 0.8 is 0.0008 absolute: inside the bound.
        assert_eq!(
            verdict(0.8, 0.8, 0.001, Better::Higher, b),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(0.8, 0.8, 0.01, Better::Higher, b),
            Verdict::Unresolved
        );
    }

    #[test]
    fn median_spread_shrinks_with_sample_count() {
        let few: Vec<f64> = (1..=10).map(f64::from).collect();
        let many: Vec<f64> = (0..1000).map(|i| 1.0 + f64::from(i % 10)).collect();
        assert!(median_spread(&many) < median_spread(&few));
        assert_eq!(median_spread(&[1.0]), 0.0);
    }
}
