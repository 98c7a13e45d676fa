//! Order statistics for the report.

/// 1-based nearest rank of quantile `q` (in `[0, 1]`) among `n > 0` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank quantile `q` of ascending `sorted`, however few samples
/// lie beyond it (for ranking samples against each other); `None` when
/// empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), q) - 1])
}

/// Nearest-rank percentile `q` (in `[0, 1]`) of ascending `sorted`, or
/// `None` unless at least ten samples lie beyond it: a percentile the
/// sample cannot support is not reported.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    (n > 0 && n - rank(n, q) >= 10).then(|| sorted[rank(n, q) - 1])
}

/// Median of `values` (any order); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|(_, m, _)| m)
}

/// `(q1, median, q3)` of `values` (any order) by the exclusive method of
/// Python's `statistics.quantiles(values, n=4)`, the rule the spread of a
/// metric across runs is judged by. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    match data.len() {
        0 => None,
        1 => Some((data[0], data[0], data[0])),
        len => {
            // Python's loop body verbatim, including its extrapolation
            // past the ends of very small samples.
            let cut = |i: usize| {
                let m = len + 1;
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            Some((cut(1), cut(2), cut(3)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let data: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&data, 0.99), Some(990.0));
        assert_eq!(
            percentile(&data[..999], 0.99),
            None,
            "only nine samples beyond"
        );
        assert_eq!(percentile(&data[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&data[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(nearest_rank(&data[..20], 0.9), Some(18.0));
        assert_eq!(nearest_rank(&data[..3], 0.99), Some(3.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([5, 1, 4, 2], n=4) == [1.25, 3.0, 4.75]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0]), Some((1.25, 3.0, 4.75)));
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[]), None);
    }
}
