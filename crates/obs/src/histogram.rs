//! Fixed-bucket latency histograms.

/// Number of buckets: bucket `i < 31` covers durations in
/// `[2^i, 2^(i+1))` microseconds (bucket 0 additionally catches
/// sub-microsecond samples); the last bucket is unbounded above.
pub const BUCKETS: usize = 32;

/// A fixed-bucket histogram over microsecond durations.
///
/// Buckets are powers of two: 1 µs, 2 µs, 4 µs, ... ~17.9 min, +∞. The
/// geometry is fixed so histograms merge by plain bucket-wise addition
/// and percentile estimates are deterministic functions of the counts.
/// Percentiles are *upper bounds* (the top of the bucket holding the
/// requested rank) — coarse, but monotone and allocation-free.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    total: u64,
    sum_us: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample of `us` microseconds.
    pub fn record_us(&mut self, us: u64) {
        let bucket = if us <= 1 {
            0
        } else {
            (63 - us.leading_zeros() as usize).min(BUCKETS - 1)
        };
        self.counts[bucket] += 1;
        self.total += 1;
        self.sum_us += us;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all samples, in microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us
    }

    /// Upper bound (µs) of the bucket containing the `q`-quantile
    /// sample, with `q` in `[0, 1]`. Returns 0 for an empty histogram.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_us(i);
            }
        }
        bucket_upper_us(BUCKETS - 1)
    }

    /// The 50th percentile upper bound, in microseconds.
    pub fn p50_us(&self) -> u64 {
        self.quantile_us(0.50)
    }

    /// The 90th percentile upper bound, in microseconds.
    pub fn p90_us(&self) -> u64 {
        self.quantile_us(0.90)
    }

    /// The 99th percentile upper bound, in microseconds.
    pub fn p99_us(&self) -> u64 {
        self.quantile_us(0.99)
    }

    /// Merge another histogram into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum_us += other.sum_us;
    }

    /// The raw bucket counts (for tests and export).
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.counts
    }
}

/// Upper bound of bucket `i`, in microseconds (`u64::MAX` for the last).
fn bucket_upper_us(i: usize) -> u64 {
    if i + 1 >= BUCKETS {
        u64::MAX
    } else {
        1u64 << (i + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_and_quantiles() {
        let mut h = Histogram::new();
        for us in [0, 1, 2, 3, 4, 7, 8, 100, 1000, 100_000] {
            h.record_us(us);
        }
        assert_eq!(h.count(), 10);
        // 2 samples land in bucket 0 ([0,2)), p50 of 10 samples is the
        // 5th: 0,1,2,3,4 -> bucket of 4 is [4,8) -> upper bound 8.
        assert_eq!(h.p50_us(), 8);
        assert_eq!(h.quantile_us(0.0), 2); // rank clamps to 1
        assert!(h.p99_us() >= 100_000);
    }

    #[test]
    fn merge_is_bucketwise() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record_us(5);
        b.record_us(5);
        b.record_us(500);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum_us(), 510);
        let mut c = Histogram::new();
        c.record_us(5);
        c.record_us(5);
        c.record_us(500);
        assert_eq!(a, c);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        assert_eq!(Histogram::new().p99_us(), 0);
    }
}
