//! Log-bucketed latency histogram (HdrHistogram-lite).
//!
//! Batch latencies in the pipeline span four orders of magnitude
//! (microseconds for buffer hits, seconds for cold congested batches), so
//! percentiles need exponential buckets: 2 % relative error is plenty for
//! the tail panels.

/// Exponentially-bucketed histogram over `u64` values (typically
/// nanoseconds). 16 sub-buckets per octave ≈ 4.4 % worst-case relative
/// error.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    /// bucket index = octave * SUBBUCKETS + sub; value 0 goes to bucket 0.
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
}

const SUBBUCKETS: usize = 16;

fn bucket_of(v: u64) -> usize {
    if v < SUBBUCKETS as u64 {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros() as usize;
    let shift = octave.saturating_sub(4); // keep 4 significant bits
    let sub = ((v >> shift) as usize) & (SUBBUCKETS - 1);
    (octave - 3) * SUBBUCKETS + sub
}

/// Representative (lower-bound) value of a bucket.
fn bucket_floor(idx: usize) -> u64 {
    if idx < SUBBUCKETS {
        return idx as u64;
    }
    let octave = idx / SUBBUCKETS + 3;
    let sub = idx % SUBBUCKETS;
    let shift = octave - 4;
    ((SUBBUCKETS + sub) as u64) << shift
}

impl Histogram {
    pub const fn new() -> Self {
        Histogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    pub fn record(&mut self, v: u64) {
        let b = bucket_of(v);
        if b >= self.buckets.len() {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of every recorded value.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at quantile `q` in [0, 1] (lower-bound of the bucket holding
    /// it; exact for the recorded max).
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0)) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_floor(i).min(self.max);
            }
        }
        self.max
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, &b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

impl FromIterator<u64> for Histogram {
    fn from_iter<I: IntoIterator<Item = u64>>(values: I) -> Self {
        let mut h = Histogram::new();
        values.into_iter().for_each(|v| h.record(v));
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 5, 9, 15] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(1.0), 15);
        assert_eq!(h.max(), 15);
    }

    #[test]
    fn percentiles_are_within_bucket_error() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 1000);
        }
        let p50 = h.percentile(0.5) as f64;
        assert!((p50 - 5_000_000.0).abs() / 5_000_000.0 < 0.07, "p50 {p50}");
        let p99 = h.percentile(0.99) as f64;
        assert!((p99 - 9_900_000.0).abs() / 9_900_000.0 < 0.07, "p99 {p99}");
    }

    #[test]
    fn mean_and_merge() {
        let mut a = Histogram::new();
        a.record(100);
        a.record(300);
        let mut b = Histogram::new();
        b.record(200);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!((a.mean() - 200.0).abs() < 1e-9);
        assert_eq!(a.max(), 300);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
        // Every quantile of an empty distribution is 0, including the
        // extremes and out-of-range inputs (percentile clamps q).
        for q in [0.0, 0.5, 1.0, -1.0, 2.0, f64::NAN] {
            assert_eq!(h.percentile(q), 0, "q={q}");
        }
    }

    #[test]
    fn extreme_quantiles_clamp_to_min_and_max() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        // q=0.0 still targets the first recorded value, not zero.
        assert_eq!(h.percentile(0.0), 10);
        assert_eq!(h.percentile(1.0), 30);
        // Out-of-range q clamps rather than panicking or indexing wild.
        assert_eq!(h.percentile(-0.5), h.percentile(0.0));
        assert_eq!(h.percentile(1.5), h.percentile(1.0));
    }

    #[test]
    fn merge_into_empty_copies_the_source() {
        let mut src = Histogram::new();
        for v in [1_000u64, 2_000, 4_000] {
            src.record(v);
        }
        let mut dst = Histogram::new();
        dst.merge(&src);
        assert_eq!(dst.count(), 3);
        assert_eq!(dst.max(), src.max());
        assert_eq!(dst.percentile(0.5), src.percentile(0.5));
        assert!((dst.mean() - src.mean()).abs() < 1e-9);
    }

    #[test]
    fn merge_of_empty_is_a_no_op() {
        let mut h = Histogram::new();
        h.record(500);
        let before = (h.count(), h.max(), h.percentile(1.0));
        h.merge(&Histogram::new());
        assert_eq!((h.count(), h.max(), h.percentile(1.0)), before);
        // Empty-into-empty stays empty.
        let mut e = Histogram::new();
        e.merge(&Histogram::new());
        assert_eq!(e.count(), 0);
        assert_eq!(e.percentile(1.0), 0);
    }

    #[test]
    fn bucket_floor_is_monotone_and_below_values() {
        let mut prev = 0;
        for v in (0..60).map(|e| 1u64 << e) {
            let b = bucket_of(v);
            let f = bucket_floor(b);
            assert!(f <= v, "floor({b}) = {f} > {v}");
            assert!(f >= prev, "floors must be monotone");
            prev = f;
        }
    }
}
