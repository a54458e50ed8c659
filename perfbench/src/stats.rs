//! Sample statistics, failure accounting, and per-layer attribution —
//! the arithmetic the report rests on, kept apart so it is tested.

use std::ops::Range;

/// Fewest samples that must lie above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by nearest rank, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie above it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = rank(q, sorted.len());
    (sorted.len() - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The 1-based nearest rank of the `q`-quantile among `n` samples.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples a run needs so that the `q`-quantile has [`MIN_BEYOND`] above it.
pub fn samples_needed(q: f64) -> usize {
    (1..).find(|&n| n - rank(q, n) >= MIN_BEYOND).expect("q < 1")
}

/// Median of the samples (mean of the middle pair for even counts); 0
/// for none.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `count` contiguous index ranges covering `0..n`, sizes within one of
/// each other. A run's samples are cut into such blocks and a statistic
/// is reported as its median over the blocks, so a slowdown of the host
/// lasting less than half the run does not move it.
pub fn blocks(n: usize, count: usize) -> Vec<Range<usize>> {
    let count = count.max(1);
    (0..count).map(|i| i * n / count..(i + 1) * n / count).collect()
}

/// `numerator / denominator`, or 0 when the denominator is 0.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Operations attempted and failed. An operation fails when its build
/// did not bring every unit to `Compiled`/`Cached`, or its verdict
/// differs from the reference; the differential check counts as one
/// more operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn failed_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Per-layer milliseconds of one traced operation, and the operation's
/// own wall time: whatever the layers do not cover is `other`.
#[derive(Clone, Debug, Default)]
pub struct Attribution {
    pub layers: Vec<(&'static str, f64)>,
    pub total_ms: f64,
}

impl Attribution {
    pub fn add(&mut self, layer: &'static str, ms: f64) {
        match self.layers.iter_mut().find(|(name, _)| *name == layer) {
            Some((_, total)) => *total += ms,
            None => self.layers.push((layer, ms)),
        }
    }

    pub fn get(&self, layer: &str) -> f64 {
        self.layers.iter().find(|(name, _)| *name == layer).map_or(0.0, |(_, ms)| *ms)
    }

    /// The remainder: traced op time minus the sum over layers.
    pub fn other_ms(&self) -> f64 {
        self.total_ms - self.layers.iter().map(|(_, ms)| ms).sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.9), Some(90.0));
        assert_eq!(percentile(&samples, 0.5), Some(50.0));
        // 99 samples leave only 9 above the 90th percentile.
        assert_eq!(percentile(&samples[..99], 0.9), None);
        assert_eq!(percentile(&samples[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&samples[..19], 0.5), None);
        assert_eq!(samples_needed(0.9), 100);
        assert_eq!(samples_needed(0.5), 20);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn blocks_cover_the_samples_and_shrug_off_a_short_burst() {
        let ranges = blocks(1005, 10);
        assert_eq!(ranges.len(), 10);
        assert_eq!(ranges[0].start, 0);
        assert_eq!(ranges[9].end, 1005);
        assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
        assert!(ranges.iter().all(|r| r.len() == 100 || r.len() == 101));
        // A burst 3× slower over a fifth of the run moves the plain
        // median of blocks not at all.
        let samples: Vec<f64> = (0..1000).map(|i| if i < 200 { 3.0 } else { 1.0 }).collect();
        let per_block: Vec<f64> =
            blocks(samples.len(), 10).into_iter().map(|r| median(&samples[r])).collect();
        assert_eq!(median(&per_block), 1.0);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn failed_frac_counts_failures_over_attempts() {
        let mut tally = Tally::default();
        assert_eq!(tally.failed_frac(), 0.0);
        for ok in [true, true, false, true] {
            tally.record(ok);
        }
        assert_eq!(tally, Tally { attempted: 4, failed: 1 });
        assert_eq!(tally.failed_frac(), 0.25);
    }

    #[test]
    fn layers_and_other_sum_to_the_traced_op() {
        let mut attribution = Attribution { total_ms: 10.0, ..Attribution::default() };
        attribution.add("parse", 2.0);
        attribution.add("check", 3.0);
        attribution.add("parse", 1.0);
        assert_eq!(attribution.get("parse"), 3.0);
        assert_eq!(attribution.get("verify"), 0.0);
        let sum: f64 = attribution.layers.iter().map(|(_, ms)| ms).sum();
        assert_eq!(sum + attribution.other_ms(), attribution.total_ms);
        assert_eq!(attribution.other_ms(), 4.0);
    }
}
