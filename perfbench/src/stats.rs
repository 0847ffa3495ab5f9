//! Order statistics over measured samples.

/// The `p`-th percentile (`0 ≤ p ≤ 100`) of `values` by linear
/// interpolation between the two nearest ranks (NumPy's default method).
/// Returns `None` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The median of `values`, `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// The `n - 1` cut points dividing `values` into `n` groups, computed like
/// Python's `statistics.quantiles(values, n=n)` (the default "exclusive"
/// method). Needs at least two values.
pub fn quantiles(values: &[f64], n: usize) -> Option<Vec<f64>> {
    if values.len() < 2 || n < 1 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() + 1;
    let cuts = (1..n)
        .map(|i| {
            let j = (i * m / n).clamp(1, v.len() - 1);
            // Negative when the clamp moved `j` up, exactly as in Python.
            let delta = (i * m) as f64 - (j * n) as f64;
            (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
        })
        .collect();
    Some(cuts)
}

/// The distance between the first and third quartile as a share of the
/// median: the run-to-run spread the benchmark is held to.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let q = quantiles(values, 4)?;
    Some((q[2] - q[0]) / q[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(percentile(&v, 25.0), Some(1.75));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn quantiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantiles(&v, 4), Some(vec![2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        let v = [50.0, 10.0, 40.0, 20.0, 30.0];
        assert_eq!(quantiles(&v, 4), Some(vec![15.0, 30.0, 45.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quantiles(&[1.0, 2.0], 4), Some(vec![0.75, 1.5, 2.25]));
        assert_eq!(quantiles(&[1.0], 4), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = quartile_spread(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
