//! Pure arithmetic behind the reported numbers: nearest-rank percentiles,
//! the tail-percentile rule, medians and means, the unattributed-time
//! balance and the assignment digest.

/// Percentiles the tail rule may pick, highest first. The median is
/// reported on its own, so the ladder stops above it.
pub const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples a tail percentile must leave above it to be reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (0 < p ≤ 100) among `n` samples:
/// `⌈p/100 · n⌉`, at least 1.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    // Multiply before dividing so that e.g. 90 % of 10 is exactly 9.
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[nearest_rank(p, sorted.len()) - 1]
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`MIN_BEYOND`] of `n` samples above its nearest rank, or `None` when no
/// rung does (too few samples for a tail).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n.saturating_sub(nearest_rank(p, n)) >= MIN_BEYOND)
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Arithmetic mean of `values`.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no values");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Replay wall time not covered by the benchmark's top-level spans. The
/// spans nest inside the timed replay segments, so the result is the
/// harness's own loop overhead; it is not clamped, so a negative value
/// would expose a span that escaped its segment.
pub fn unattributed_ms(replay_ms: f64, top_level_span_ms: &[f64]) -> f64 {
    replay_ms - top_level_span_ms.iter().sum::<f64>()
}

/// 64-bit FNV-1a, the assignment digest's hash: stable across platforms,
/// processes and builds.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    /// Folds one integer (little-endian bytes) into the hash.
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_ceiling_of_share() {
        assert_eq!(nearest_rank(50.0, 10), 5);
        assert_eq!(nearest_rank(90.0, 10), 9);
        assert_eq!(nearest_rank(99.0, 3810), 3772);
        assert_eq!(nearest_rank(50.0, 1), 1);
        assert_eq!(nearest_rank(0.1, 5), 1);
        assert_eq!(nearest_rank(100.0, 7), 7);
    }

    #[test]
    fn percentile_picks_the_ranked_sample() {
        let sorted: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 10.0);
        assert_eq!(percentile(&sorted, 75.0), 15.0);
        assert_eq!(percentile(&sorted, 100.0), 20.0);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
    }

    #[test]
    fn tail_rule_matches_the_workload_window_counts() {
        // daily-k24: p95 leaves 8 above it, p90 leaves 17.
        assert_eq!(tail_percentile(178), Some(90.0));
        // sharded-service: p90 leaves 4, p75 leaves 11.
        assert_eq!(tail_percentile(45), Some(75.0));
        // backfill-k8: even p75 leaves only 1 of 6 windows above it.
        assert_eq!(tail_percentile(6), None);
        // ingest calls: p99 of 3,810 leaves 38.
        assert_eq!(tail_percentile(3810), Some(99.0));
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn tail_rule_boundaries() {
        // Exactly ten samples beyond qualifies; nine does not.
        assert_eq!(tail_percentile(40), Some(75.0)); // rank 30, 10 beyond
        assert_eq!(tail_percentile(39), None); // rank 30, 9 beyond
        assert_eq!(tail_percentile(100), Some(90.0)); // p95 rank 95: 5 beyond
        assert_eq!(tail_percentile(10_000), Some(99.9)); // rank 9990
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn mean_follows_the_share_of_slow_values() {
        // Two levels, as on a host that alternates between a quiet and a
        // contended phase: the median jumps from one level to the other
        // when the slow share crosses one half, the mean moves with it.
        let runs = [
            [10.0, 10.0, 10.0, 15.0, 15.0],
            [10.0, 10.0, 15.0, 15.0, 15.0],
        ];
        assert_eq!(median(&runs[0]), 10.0);
        assert_eq!(median(&runs[1]), 15.0);
        assert_eq!(mean(&runs[0]), 12.0);
        assert_eq!(mean(&runs[1]), 13.0);
        assert_eq!(mean(&[7.5]), 7.5);
    }

    #[test]
    fn unattributed_is_wall_minus_top_level_spans() {
        assert_eq!(unattributed_ms(100.0, &[60.0, 30.0, 2.5]), 7.5);
        assert_eq!(unattributed_ms(12.0, &[]), 12.0);
        // Spans plus the remainder give back the wall time exactly.
        let spans = [41.25, 0.5, 7.0];
        let rest = unattributed_ms(50.0, &spans);
        assert_eq!(spans.iter().sum::<f64>() + rest, 50.0);
        // Not clamped: over-attribution shows as a negative remainder.
        assert_eq!(unattributed_ms(10.0, &[11.0]), -1.0);
    }

    #[test]
    fn fnv_is_order_sensitive_and_stable() {
        let mut a = Fnv64::default();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fnv64::default();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
        assert_eq!(Fnv64::default().finish(), 0xcbf2_9ce4_8422_2325);
    }
}
