//! Order statistics used by every metric the ledger reports.

/// The median of `xs` (mean of the middle pair for even lengths); `NaN`
/// when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The interquartile mean: the mean of the middle half of `xs` after
/// dropping `⌊n/4⌋` samples at each end (the plain mean below 4
/// samples). `NaN` when empty.
pub fn iqm(xs: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = xs.into_iter().collect();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// The tail percentiles the ledger may report, highest first.
pub const TAIL_PERCENTILES: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// The highest percentile in [`TAIL_PERCENTILES`] that leaves at least
/// ten samples beyond it in `n` samples — a p99 from 200 samples rests
/// on two observations and says nothing. `None` below 100 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|p| (n as f64) * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// The `p`-th percentile (0–100) of `xs` by the nearest-rank rule: the
/// smallest sample with at least `p`% of the samples at or below it.
/// `NaN` when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64 / 100.0 - 1e-9).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn iqm_drops_a_quarter_at_each_end() {
        // 8 samples: drop 2 low and 2 high, average the middle 4.
        let v = [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0];
        assert_eq!(iqm(v), 3.5);
        assert_eq!(iqm([1.0, 2.0, 6.0]), 3.0);
        assert!(iqm([]).is_nan());
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // p99.9 needs 10 000 samples, p99 1 000, p95 200, p90 100.
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn the_chosen_percentile_leaves_ten_samples_above_it() {
        for n in [100usize, 150, 200, 640, 1_000, 5_000, 10_000, 30_000] {
            let xs: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let p = tail_percentile(n).unwrap();
            let cut = percentile(&xs, p);
            let beyond = xs.iter().filter(|&&x| x > cut).count();
            assert!(beyond >= 10, "n={n} p={p}: {beyond} beyond");
        }
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
    }
}
