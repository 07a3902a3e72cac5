//! The arithmetic every reported number rests on: medians, quartiles,
//! nearest-rank percentiles, the tail-percentile choice, and geometric means.

/// Median of the samples (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller reports at least one sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First quartile, median and third quartile, by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), which is what the
/// acceptance check of this benchmark uses. Fewer than two samples give the
/// one value three times.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    assert!(!samples.is_empty(), "quartiles of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        // Position i*(n+1)/4 on the 1-based sorted list; past either end the
        // last interval is extrapolated, as Python does.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Nearest-rank percentile: the smallest sample with at least `fraction` of
/// the samples at or below it.
pub fn percentile(samples: &[f64], fraction: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // 0.9 * 100 is 90.00000000000001 in floating point: rank 90, not 91.
    let rank = (fraction * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles a tail may be reported at, lowest first, as exact
/// fractions.
const TAIL_LADDER: [(usize, usize); 5] = [(1, 2), (9, 10), (99, 100), (999, 1000), (9999, 10000)];

/// The highest percentile of the ladder that still has at least ten of `n`
/// samples beyond its nearest rank; `None` when even the median has fewer
/// (n < 20).
pub fn tail_fraction(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .find(|(num, den)| n - (n * num).div_ceil(*den) >= 10)
        .map(|(num, den)| *num as f64 / *den as f64)
}

/// Geometric mean of strictly positive samples.
pub fn geomean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "geomean of no samples");
    let log_sum: f64 = samples.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / samples.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    /// Reference values from `statistics.quantiles(v, n=4)` in Python 3.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&ten);
        assert!((q1 - 2.75).abs() < 1e-12 && (q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        let (q1, q2, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q2 - 1.5).abs() < 1e-12);
        assert!((q3 - 2.25).abs() < 1e-12);
        let (q1, q2, q3) = quartiles(&[10.0, 30.0, 20.0, 50.0, 40.0]);
        assert_eq!((q1, q2, q3), (15.0, 30.0, 45.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 1980.0);
        assert_eq!(percentile(&v, 0.5), 1000.0);
        assert_eq!(percentile(&v, 1.0), 2000.0);
        // Twelve operations: the 99th percentile is the slowest one.
        let twelve: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(percentile(&twelve, 0.99), 12.0);
        assert_eq!(percentile(&[5.0], 0.99), 5.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), 90.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_fraction(12), None);
        assert_eq!(tail_fraction(20), Some(0.5));
        assert_eq!(tail_fraction(99), Some(0.5));
        assert_eq!(tail_fraction(100), Some(0.9));
        assert_eq!(tail_fraction(999), Some(0.9));
        assert_eq!(tail_fraction(1_000), Some(0.99));
        assert_eq!(tail_fraction(10_000), Some(0.999));
        assert_eq!(tail_fraction(120_000), Some(0.9999));
    }

    #[test]
    fn geomean_weights_ratios_not_differences() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 10.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[3.5]) - 3.5).abs() < 1e-12);
    }
}
