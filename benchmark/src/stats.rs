//! Order statistics used for every reported number.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every metric is measured at least once.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The three cut points of Python's `statistics.quantiles(values, n=4)`
/// (the default `exclusive` method), so spreads computed here match the
/// ones `steadiness.py` computes from the same samples.
///
/// # Panics
///
/// Panics with fewer than two samples, as Python does.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values);
    let ld = s.len();
    assert!(ld >= 2, "quartiles need at least two samples");
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Negative when the clamp raised `j` (fewer than three samples).
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median — the spread each
/// metric's bound in `BENCHMARK.json` is held to.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// Nearest-rank percentile (`p` in `[0, 100]`) of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let s = sorted(values);
    assert!(!s.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    /// Reference values from CPython 3.11:
    /// `statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]`,
    /// `statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]`,
    /// `statistics.quantiles([10, 1, 7, 3, 5], n=4) == [2.0, 5.0, 8.5]`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[10.0, 1.0, 7.0, 3.0, 5.0]), [2.0, 5.0, 8.5]);
        assert_eq!(iqr_share(&ten), 1.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        assert_eq!(percentile(&hundred, 100.0), 100.0);
        assert_eq!(percentile(&hundred, 0.0), 1.0);
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 50.0), 3.0);
    }
}
