//! Exact per-cell summary statistics.
//!
//! The runner holds every record of a cell when it aggregates it, so each
//! metric is summarised from its full sample list. The samples arrive in
//! global job order, which keeps the report bytes independent of how many
//! worker threads flew the missions.

use crate::report::MetricSummary;

/// Summarises one metric's samples: Welford's recurrence over the samples
/// in the given order for mean and population standard deviation, and the
/// exact median and 95th percentile (see [`quantile`]).
pub(crate) fn summarize(samples: &[f64]) -> MetricSummary {
    if samples.is_empty() {
        return MetricSummary::empty();
    }
    let (mut mean, mut m2) = (0.0, 0.0);
    let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
    for (seen, &value) in (1u64..).zip(samples) {
        let delta = value - mean;
        mean += delta / seen as f64;
        m2 += delta * (value - mean);
        min = min.min(value);
        max = max.max(value);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let count = samples.len() as u64;
    MetricSummary {
        count,
        mean: Some(mean),
        std_dev: Some((m2 / count as f64).sqrt()),
        min: Some(min),
        max: Some(max),
        p50: Some(quantile(&sorted, 0.5)),
        p95: Some(quantile(&sorted, 0.95)),
    }
}

/// The `q` quantile of ascending, non-empty `sorted`: linear interpolation
/// between the order statistics that bracket the 1-based rank
/// `1 + q·(n − 1)`.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let last = sorted.len() - 1;
    if last == 0 {
        return sorted[0];
    }
    let rank = 1.0 + q * last as f64;
    // The bracketing pair is (i, i + 1) for the smallest i with rank ≤ i + 2.
    let i = (rank.ceil() as usize).saturating_sub(2).min(last - 1);
    let t = (rank - (i + 1) as f64).clamp(0.0, 1.0);
    sorted[i] + t * (sorted[i + 1] - sorted[i])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments_match_direct_computation() {
        let samples = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let summary = summarize(&samples);
        assert_eq!(summary.count, 8);
        assert!((summary.mean.unwrap() - 5.0).abs() < 1e-12);
        assert!((summary.std_dev.unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(summary.min, Some(2.0));
        assert_eq!(summary.max, Some(9.0));
    }

    #[test]
    fn percentiles_of_a_shuffled_ramp_are_exact() {
        // 1..=100 in a fixed scrambled order (37 is coprime to 100).
        let ramp: Vec<f64> = (0..100u32).map(|i| f64::from(i * 37 % 100 + 1)).collect();
        let summary = summarize(&ramp);
        assert_eq!(summary.p50, Some(50.5));
        assert_eq!(summary.p95, Some(95.05));
    }

    #[test]
    fn unsorted_input_gives_its_order_statistics() {
        let summary = summarize(&[30.0, 1.0, 20.0, 2.0, 10.0, 3.0]);
        // Sorted: 1 2 3 10 20 30. p50 at rank 3.5, p95 at rank 5.75.
        assert_eq!(summary.p50, Some(6.5));
        assert_eq!(summary.p95, Some(27.5));
        assert_eq!(summary.min, Some(1.0));
        assert_eq!(summary.max, Some(30.0));
    }

    #[test]
    fn a_single_sample_is_every_statistic_and_none_is_empty() {
        let summary = summarize(&[4.25]);
        assert_eq!(summary.count, 1);
        assert_eq!(summary.mean, Some(4.25));
        assert_eq!(summary.std_dev, Some(0.0));
        assert_eq!((summary.min, summary.max), (Some(4.25), Some(4.25)));
        assert_eq!((summary.p50, summary.p95), (Some(4.25), Some(4.25)));
        assert_eq!(summarize(&[]), MetricSummary::empty());
    }
}
