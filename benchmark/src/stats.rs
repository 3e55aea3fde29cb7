//! Order statistics for latency samples and for run-to-run comparison.

/// Sorts a sample in place (NaNs, which no timer produces, would sort last).
pub fn sort(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.total_cmp(b));
}

/// The `p`-quantile (`0.0..=1.0`) of an ascending-sorted sample by the
/// nearest-rank rule: the smallest value with at least `p·n` samples at or
/// below it. `None` on an empty sample.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of an unsorted sample (mean of the middle two when even).
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    sort(&mut v);
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

/// Samples strictly beyond the nearest-rank `p`-quantile position.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(usize::from(n > 0), n)
}

/// Interquartile distance as a share of the median, with the quartiles of
/// Python's `statistics.quantiles(values, n=4)` (exclusive method) — the
/// spread the driver computes over ten runs. `None` below two values or on a
/// zero median.
pub fn quartile_spread(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    sort(&mut v);
    let n = v.len();
    let q = |k: usize| {
        // Exclusive method: position k(n+1)/4, 1-based, linearly interpolated
        // and clamped to the sample.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    let med = median(&v)?;
    (med != 0.0).then(|| (q(3) - q(1)) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), Some(50.0));
        assert_eq!(quantile_sorted(&v, 0.95), Some(95.0));
        assert_eq!(quantile_sorted(&v, 1.0), Some(100.0));
        assert_eq!(quantile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(quantile_sorted(&[], 0.5), None);
        assert_eq!(quantile_sorted(&[7.0], 0.95), Some(7.0));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // 200 samples: p95 sits at rank 190, leaving exactly ten beyond.
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(199, 0.95), 9);
        assert_eq!(samples_beyond(0, 0.95), 0);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = quartile_spread(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{s}");
        // statistics.quantiles([10, 11, 13], n=4) == [10.0, 11.0, 13.0]
        let s = quartile_spread(&[13.0, 10.0, 11.0]).unwrap();
        assert!((s - 3.0 / 11.0).abs() < 1e-12, "{s}");
        assert_eq!(quartile_spread(&[1.0]), None);
        assert_eq!(quartile_spread(&[0.0, 0.0]), None);
    }
}
