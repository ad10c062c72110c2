//! Order statistics the harness reports and compares with.

/// Median of `values` (mean of the two middle values for an even
/// count). NaN for an empty slice, so a missing sample can never read
/// as a plausible number.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), which is
/// what the acceptance procedure of this benchmark is written against.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Smallest and largest of `values`.
pub fn min_max(values: &[f64]) -> (f64, f64) {
    values.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)))
}

/// Run-to-run spread as a share of the median: the inter-quartile
/// distance from four values up, the full range below that (quartiles
/// of two or three values are extrapolations). `None` for fewer than
/// two values.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (lo, hi) = match values.len() {
        0 | 1 => return None,
        2 | 3 => min_max(values),
        _ => quartiles(values)?,
    };
    Some((hi - lo) / median(values).abs())
}

/// The percentiles a tail may be reported at, highest first, each with
/// the share of samples beyond it in parts per thousand (integers, so
/// the ten-sample rule is exact).
const TAIL_LADDER: [(f64, usize); 6] =
    [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (75.0, 250), (50.0, 500)];

/// The highest percentile of [`TAIL_LADDER`] that still has at least
/// ten of `n` samples beyond it; the median when even that has fewer.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER.iter().find(|(_, beyond)| n * beyond >= 10_000).map_or(50.0, |(p, _)| *p)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median_from_four_values_and_range_below() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(spread(&[9.0, 10.0, 11.0]), Some(0.2));
        assert_eq!(spread(&[10.0]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(9_999), 99.0);
        assert_eq!(tail_percentile(1_200), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(5), 50.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }
}
