//! Order statistics for the reported timings.

/// Percentiles the harness may report beyond the median, in per mille,
/// highest first.
const TAILS_PER_MILLE: [u32; 4] = [999, 990, 950, 900];

/// Samples that must lie beyond a reported tail percentile.
const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(
        !values.is_empty(),
        "an order statistic needs at least one sample"
    );
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of the `per_mille` percentile among `n` samples.
fn rank(n: usize, per_mille: u32) -> usize {
    (n * per_mille as usize).div_ceil(1000).max(1)
}

/// Median (the mean of the two middle samples for an even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile, `per_mille` in (0, 1000].
pub fn percentile(values: &[f64], per_mille: u32) -> f64 {
    let v = sorted(values);
    v[rank(v.len(), per_mille) - 1]
}

/// The highest percentile (per mille) of `n` samples that keeps at least
/// ten samples beyond it, or `None` when there are too few samples.
pub fn tail_per_mille(n: usize) -> Option<u32> {
    TAILS_PER_MILLE
        .into_iter()
        .find(|&p| n.saturating_sub(rank(n, p)) >= MIN_BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_per_mille(0), None);
        assert_eq!(tail_per_mille(99), None);
        assert_eq!(tail_per_mille(100), Some(900));
        assert_eq!(tail_per_mille(150), Some(900));
        assert_eq!(tail_per_mille(199), Some(900));
        assert_eq!(tail_per_mille(200), Some(950));
        assert_eq!(tail_per_mille(300), Some(950));
        assert_eq!(tail_per_mille(1000), Some(990));
        assert_eq!(tail_per_mille(10_000), Some(999));
        for n in [1, 5, 100, 150, 300, 1000, 12_345] {
            if let Some(p) = tail_per_mille(n) {
                assert!(n - rank(n, p) >= MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn nearest_rank_and_median() {
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(median(&v[..9]), 6.0);
        assert_eq!(percentile(&v, 900), 9.0);
        assert_eq!(percentile(&v, 1000), 10.0);
        assert_eq!(percentile(&v, 1), 1.0);
    }
}
