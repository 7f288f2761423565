//! In-memory aggregation over event values: histogram percentiles.
//!
//! All ordering goes through [`f64::total_cmp`], so every summary is a
//! deterministic function of its values.

/// Percentile by the nearest-rank-on-sorted convention used across the
/// repo's stats: index `q * (len - 1)` rounded half-up.
///
/// # Panics
///
/// Panics if `sorted` is empty.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty set");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    sorted[(pos + 0.5) as usize]
}

/// A five-number-plus summary of a value set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: usize,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (p50).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// Summarizes a value set (`None` when empty). Sorting uses
/// [`f64::total_cmp`], so NaNs order deterministically instead of
/// poisoning the result.
#[must_use]
pub fn summarize(values: &[f64]) -> Option<HistogramSummary> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let sum: f64 = sorted.iter().sum();
    Some(HistogramSummary {
        count: sorted.len(),
        min: sorted[0],
        max: sorted[sorted.len() - 1],
        mean: sum / sorted.len() as f64,
        p50: percentile(&sorted, 0.50),
        p90: percentile(&sorted, 0.90),
        p99: percentile(&sorted, 0.99),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_orders_with_total_cmp() {
        let s = summarize(&[3.0, 1.0, 2.0, f64::NAN]).expect("non-empty");
        assert_eq!(s.count, 4);
        assert_eq!(s.min, 1.0);
        assert!(s.max.is_nan(), "NaN sorts last under total_cmp");
        assert_eq!(s.p50, 3.0, "rank 1.5 rounds half-up to index 2");
        assert_eq!(summarize(&[]), None);
    }

    #[test]
    fn percentile_of_singleton_is_the_value() {
        assert_eq!(percentile(&[7.0], 0.0), 7.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn percentile_picks_ranked_entries() {
        let v: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0, "4.5 rounds half-up");
        assert_eq!(percentile(&v, 0.9), 8.0, "8.1 rounds to 8");
        assert_eq!(percentile(&v, 1.0), 9.0);
    }
}
