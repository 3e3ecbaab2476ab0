//! Order statistics and the quiet-slice rule.
//!
//! Every timing the benchmark reports goes through [`quiet_count`] /
//! [`quiet_indexes`]: a pass is cut into slices of byte-identical work, and
//! timings are computed over the fastest slices only.  On a shared host the
//! disturbance comes from outside the VM and only ever adds time, so the
//! fastest slices are the ones that ran undisturbed.

/// Share of the slices that count as quiet.
const QUIET_SHARE: f64 = 0.05;

/// Fewest slices that count as quiet, however short the pass.
const QUIET_MIN: usize = 8;

/// How many of `slices` fixed-work slices are the quiet ones:
/// `max(8, 5%)`, never more than there are.
pub fn quiet_count(slices: usize) -> usize {
    let share = (slices as f64 * QUIET_SHARE).ceil() as usize;
    share.max(QUIET_MIN).min(slices)
}

/// Indexes of the quiet slices of `durations` (fastest first; ties keep
/// their original order, so the choice is deterministic).
pub fn quiet_indexes(durations: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..durations.len()).collect();
    order.sort_by_key(|&i| (durations[i], i));
    order.truncate(quiet_count(durations.len()));
    order
}

/// Mean duration of the quiet slices.
pub fn quiet_mean(durations: &[u64]) -> f64 {
    let quiet = quiet_indexes(durations);
    let total: u64 = quiet.iter().map(|&i| durations[i]).sum();
    total as f64 / quiet.len().max(1) as f64
}

/// The `q`-quantile (0..=1) of an ascending slice, linearly interpolated
/// between closest ranks.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let below = rank.floor() as usize;
    let above = rank.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (rank - below as f64)
}

/// `sample` in ascending order.
pub fn ascending(sample: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut sample: Vec<f64> = sample.into_iter().collect();
    sample.sort_by(f64::total_cmp);
    sample
}

/// Nanosecond samples as ascending microseconds.
pub fn ascending_us<'a>(ns: impl IntoIterator<Item = &'a u32>) -> Vec<f64> {
    ascending(ns.into_iter().map(|&ns| f64::from(ns) / 1e3))
}

/// How disturbed a pass was, from its slice durations alone.  Reported,
/// never used to accept or discard a run.
#[derive(Debug, Clone)]
pub struct Noise {
    /// Interquartile range of the slice durations over their median.
    pub slice_iqr_over_median: f64,
    /// Median slice over the quiet mean, minus one.
    pub quiet_gap: f64,
    /// Number of slices the pass ran.
    pub slices: usize,
    /// Minimum, nine deciles and maximum of the slice durations, in µs.
    pub slice_us_deciles: Vec<f64>,
}

/// The noise self-report of one pass.
pub fn noise(durations: &[u64]) -> Noise {
    let sorted = ascending(durations.iter().map(|&ns| ns as f64));
    let median = quantile(&sorted, 0.5);
    Noise {
        slice_iqr_over_median: (quantile(&sorted, 0.75) - quantile(&sorted, 0.25)) / median,
        quiet_gap: median / quiet_mean(durations) - 1.0,
        slices: durations.len(),
        slice_us_deciles: (0..=10)
            .map(|d| quantile(&sorted, f64::from(d) / 10.0) / 1e3)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let sample = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&sample, 0.0), 1.0);
        assert_eq!(quantile(&sample, 0.5), 3.0);
        assert_eq!(quantile(&sample, 1.0), 5.0);
        assert!((quantile(&sample, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn quiet_count_is_five_percent_with_a_floor_of_eight() {
        assert_eq!(quiet_count(3), 3);
        assert_eq!(quiet_count(100), 8);
        assert_eq!(quiet_count(160), 8);
        assert_eq!(quiet_count(400), 20);
        assert_eq!(quiet_count(1001), 51);
    }

    #[test]
    fn quiet_indexes_pick_the_fastest_and_break_ties_by_position() {
        let durations = [5, 1, 1, 9, 1, 7, 3, 2, 8, 6, 4];
        assert_eq!(quiet_indexes(&durations), [1, 2, 4, 7, 6, 10, 0, 9]);
    }

    /// The property the rule exists for: noise that only adds time, on half
    /// of the slices, leaves the quiet estimate where it was while the mean
    /// moves by tens of percent.
    #[test]
    fn additive_noise_on_half_the_slices_moves_the_estimate_under_two_percent() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // 10 ms of fixed work with ±0.5% of honest jitter.
        let clean: Vec<u64> = (0..400).map(|_| 10_000_000 + next() % 100_000).collect();
        let noisy: Vec<u64> = clean
            .iter()
            .map(|&d| {
                if next() % 2 == 0 {
                    d + 500_000 + next() % 8_000_000
                } else {
                    d
                }
            })
            .collect();
        let (before, after) = (quiet_mean(&clean), quiet_mean(&noisy));
        assert!(
            (after / before - 1.0).abs() < 0.02,
            "quiet mean moved {before} -> {after}"
        );
        let mean = |d: &[u64]| d.iter().sum::<u64>() as f64 / d.len() as f64;
        assert!(mean(&noisy) / mean(&clean) > 1.15);
        let report = noise(&noisy);
        assert!(report.quiet_gap >= 0.0 && report.slice_iqr_over_median > 0.1);
        assert_eq!(report.slices, 400);
        assert_eq!(report.slice_us_deciles.len(), 11);
        assert!(report.slice_us_deciles.windows(2).all(|w| w[0] <= w[1]));
    }
}
