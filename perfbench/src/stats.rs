//! Order statistics over raw samples. Every reported number is computed
//! from the samples themselves, never from a bucketed histogram.

/// Sorted copy of `xs` (NaN-free input assumed; NaN sorts last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median; `None` for no samples. The campaign analyzer's, so both
/// read a set of samples the same way.
pub use npb_harness::campaign::median;

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(xs, n=4)` (the default "exclusive"
/// method), so spreads printed here match an outside check. Needs at
/// least two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let ld = v.len() as i64;
    if ld < 2 {
        return None;
    }
    let (n, m) = (4i64, ld + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        *slot =
            (v[(j - 1) as usize] * (n - delta) as f64 + v[j as usize] * delta as f64) / n as f64;
    }
    Some(out)
}

/// Interquartile range as a share of the median.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(xs)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Nearest-rank `p`-th percentile, reported only when at least ten
/// samples lie beyond it; otherwise the sample count cannot support it.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    (n - rank >= 10).then(|| v[rank - 1])
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), Some(0.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        // 99 samples: rank 90 leaves only 9 beyond.
        assert_eq!(percentile(&xs[..99], 90.0), None);
        assert_eq!(percentile(&xs, 99.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_is_a_raw_sample_not_a_bucket_bound() {
        // A log2-bucket histogram reports a bucket's upper bound (262144
        // for these values); the raw samples never exceed their maximum.
        let mut xs = vec![1000.0; 2000];
        xs.push(133_915.0);
        assert_eq!(percentile(&xs, 90.0), Some(1000.0));
        assert_eq!(percentile(&xs, 99.0), Some(1000.0));
        assert_eq!(percentile(&xs, 99.6), None, "only 8 samples lie beyond it");
    }

    #[test]
    fn geomean_weights_values_equally() {
        assert!((geomean(&[1.0, 100.0]).unwrap() - 10.0).abs() < 1e-9);
        assert!((geomean(&[5.0]).unwrap() - 5.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[]), None);
    }
}
