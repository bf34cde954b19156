//! Log₂-bucketed histograms: latency distributions in fixed space.

/// A histogram over `u64` samples (typically nanoseconds) with
/// power-of-two buckets: bucket `0` holds the value `0`, bucket `b ≥ 1`
/// holds values in `[2^(b-1), 2^b)`. Sixty-five buckets cover the full
/// `u64` range, so `observe` never saturates and the whole distribution
/// fits in ~half a kilobyte regardless of sample count.
///
/// Quantiles are answered from the buckets: [`Histogram::quantile`]
/// locates the bucket containing the requested rank and interpolates
/// linearly within it, i.e. an estimate within a factor of two of the
/// exact order statistic — the usual log-bucket trade-off.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            buckets: [0; 65],
        }
    }

    /// The bucket index of `value`: `0` for `0`, else `⌊log₂ value⌋ + 1`.
    fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// The largest value bucket `b` can hold.
    fn bucket_upper(b: usize) -> u64 {
        match b {
            0 => 0,
            64 => u64::MAX,
            _ => (1u64 << b) - 1,
        }
    }

    /// The smallest value bucket `b` can hold.
    fn bucket_lower(b: usize) -> u64 {
        match b {
            0 => 0,
            _ => 1u64 << (b - 1),
        }
    }

    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.buckets[Self::bucket_of(value)] += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample value (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An estimate of the `q`-quantile (`q` clamped to `[0, 1]`),
    /// interpolated linearly inside the bucket holding the sample of
    /// rank `⌈q·count⌉`: if that rank is the `k`-th of `n` samples in a
    /// bucket spanning `[lo, hi]`, the answer is `lo + (hi−lo)·k/n`.
    /// The estimate always lies in the sample's own bucket, so it is
    /// within a factor of two of the exact order statistic (and equals
    /// the bucket's upper edge when the bucket holds one sample).
    /// Returns `0` for an empty histogram; `quantile(0.0)` bounds the
    /// minimum, `quantile(1.0)` the maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lower = Self::bucket_lower(b);
                let upper = Self::bucket_upper(b);
                let frac = (rank - seen) as f64 / n as f64;
                // The f64 round-trip can overshoot by an ulp in the top
                // bucket, so saturate and clamp to the bucket edge.
                let off = ((upper - lower) as f64 * frac).round() as u64;
                return lower.saturating_add(off).min(upper);
            }
            seen += n;
        }
        u64::MAX
    }

    /// The non-empty buckets as ascending `(bucket, count)` pairs — the
    /// sparse form the wire's report frame carries.
    pub fn bucket_counts(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(b, &n)| (b, n))
            .collect()
    }

    /// Rebuilds a histogram from a recorded `sum` and sparse
    /// `(bucket, count)` pairs — the inverse of
    /// [`Histogram::bucket_counts`]. The count is recomputed from the
    /// pairs; `None` when a bucket index exceeds 64 or the counts add up
    /// past `u64::MAX`.
    pub fn from_parts(sum: u64, buckets: &[(usize, u64)]) -> Option<Histogram> {
        let mut h = Histogram::new();
        h.sum = sum;
        for &(b, n) in buckets {
            h.count = h.count.checked_add(n)?;
            // A bucket never holds more than the total, so it cannot overflow.
            *h.buckets.get_mut(b)? += n;
        }
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        // Every bucket's upper bound lands back in the same bucket.
        for b in 0..=64usize {
            assert_eq!(Histogram::bucket_of(Histogram::bucket_upper(b)), b);
        }
    }

    #[test]
    fn count_sum_mean_track_samples() {
        let mut h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        for v in [1u64, 2, 3, 10] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 16);
        assert!((h.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_bound_order_statistics_within_a_factor_of_two() {
        let mut h = Histogram::new();
        let samples: Vec<u64> = (1..=1000).collect();
        for &v in &samples {
            h.observe(v);
        }
        for q in [0.0f64, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * 1000.0).ceil().max(1.0) as usize).min(1000);
            let exact = samples[rank - 1];
            let est = h.quantile(q);
            assert!(est >= exact, "q={q}: estimate {est} below exact {exact}");
            assert!(
                est < exact.max(1) * 2,
                "q={q}: estimate {est} more than 2x exact {exact}"
            );
        }
    }

    #[test]
    fn quantile_interpolates_within_log2_buckets() {
        // Four equal samples at 100 all land in bucket 7 = [64, 127]:
        // rank k of 4 interpolates to 64 + round(63·k/4).
        let mut h = Histogram::new();
        for _ in 0..4 {
            h.observe(100);
        }
        assert_eq!(h.quantile(0.25), 64 + 16);
        assert_eq!(h.quantile(0.5), 64 + 32);
        assert_eq!(h.quantile(1.0), 127);
        // A bucket holding a single sample answers its upper edge for
        // every q — the log-bucket resolution floor.
        let mut s = Histogram::new();
        s.observe(100);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(s.quantile(q), 127);
        }
    }

    #[test]
    fn quantile_pins_bucket_boundaries() {
        // Samples sitting exactly on power-of-two boundaries: 1 fills
        // bucket 1 alone, {2, 3} fill bucket 2, 4 opens bucket 3.
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 4] {
            h.observe(v);
        }
        // Rank 1 is the only sample of bucket 1 = {1}: exact.
        assert_eq!(h.quantile(0.25), 1);
        // Rank 2 is the 1st of 2 samples in bucket 2 = [2, 3]:
        // interpolates to 2 + round(1·1/2) = 3.
        assert_eq!(h.quantile(0.5), 3);
        // Rank 4 is the only sample of bucket 3 = [4, 7]: reported as
        // the bucket's upper edge, the documented over-estimate.
        assert_eq!(h.quantile(1.0), 7);
    }

    #[test]
    fn bucket_counts_round_trip_through_from_parts() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 5, 5, 900, u64::MAX] {
            h.observe(v);
        }
        let sparse = h.bucket_counts();
        assert_eq!(sparse, vec![(0, 1), (1, 1), (3, 2), (10, 1), (64, 1)]);
        let back = Histogram::from_parts(h.sum(), &sparse);
        assert_eq!(back, Some(h));
        // Out-of-range buckets and overflowing counts are refused, not
        // panicked on or wrapped.
        assert_eq!(Histogram::from_parts(10, &[(2, 3), (65, 9)]), None);
        assert_eq!(Histogram::from_parts(10, &[(usize::MAX, 1)]), None);
        assert_eq!(Histogram::from_parts(0, &[(1, u64::MAX), (2, 1)]), None);
        let full = Histogram::from_parts(0, &[(1, u64::MAX - 1), (1, 1)]).unwrap();
        assert_eq!(full.count(), u64::MAX);
        assert_eq!(Histogram::from_parts(0, &[]), Some(Histogram::new()));
    }

    #[test]
    fn quantile_edge_cases() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        h.observe(0);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 0);
        h.observe(u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
        // Out-of-range q clamps instead of panicking.
        assert_eq!(h.quantile(-3.0), 0);
        assert_eq!(h.quantile(7.5), u64::MAX);
    }
}
