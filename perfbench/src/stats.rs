//! Order statistics behind every reported number: exact nearest-rank
//! percentiles over the full sample, medians, and fastest repetitions.

/// The nearest-rank percentile `num/den` of an ascending sample: the
/// value at 1-based rank `ceil(num * n / den)`, at least rank 1.
///
/// The rank is computed in integers. Floating point gets p99.9 of 1000
/// samples wrong (`99.9 / 100 * 1000` rounds up past 999 to 1000).
/// Returns `None` for an empty sample or a fraction above 1.
pub fn nearest_rank(sorted: &[u64], num: u64, den: u64) -> Option<u64> {
    if sorted.is_empty() || den == 0 || num > den {
        return None;
    }
    let n = sorted.len() as u128;
    let rank = (u128::from(num) * n).div_ceil(u128::from(den)).max(1);
    Some(sorted[rank as usize - 1])
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Smallest of `values`: for a timing on a shared host, the repetition the
/// fewest other tenants slowed down.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn fastest(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "fastest of an empty sample");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_hits_exact_ranks() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 50, 100), Some(50));
        assert_eq!(nearest_rank(&v, 99, 100), Some(99));
        assert_eq!(nearest_rank(&v, 100, 100), Some(100));
        assert_eq!(nearest_rank(&v, 0, 100), Some(1), "p0 is the minimum");
        assert_eq!(nearest_rank(&v, 1, 1000), Some(1));
        assert_eq!(nearest_rank(&[], 50, 100), None);
        assert_eq!(nearest_rank(&v, 101, 100), None);
    }

    #[test]
    fn p999_of_a_thousand_is_rank_999_not_the_maximum() {
        // The float form ceil(99.9 / 100 * 1000) lands on 1000.
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(nearest_rank(&v, 999, 1000), Some(999));
        assert_eq!(nearest_rank(&v, 99, 100), Some(990));
        let v: Vec<u64> = (1..=1001).collect();
        assert_eq!(nearest_rank(&v, 999, 1000), Some(1000));
    }

    #[test]
    fn nearest_rank_on_small_samples_rounds_rank_up() {
        let v = [10, 20, 30];
        assert_eq!(nearest_rank(&v, 50, 100), Some(20));
        assert_eq!(nearest_rank(&v, 34, 100), Some(20));
        assert_eq!(nearest_rank(&v, 33, 100), Some(10));
        assert_eq!(nearest_rank(&v, 99, 100), Some(30));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(fastest(&[4.0, 1.5, 2.0]), 1.5);
    }
}
