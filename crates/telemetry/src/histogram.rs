//! Log₂-bucketed latency histograms with percentile extraction.
//!
//! A [`Histogram`] has 65 fixed buckets: bucket 0 holds the value `0`,
//! bucket `b ≥ 1` holds values whose bit length is `b`, i.e. the range
//! `[2^(b-1), 2^b - 1]`.  Bucketing a sample is therefore one
//! `leading_zeros` plus one relaxed atomic increment — cheap enough to sit
//! on every request-outcome path of the sort service.  The top bucket
//! saturates: any `u64` value fits, so nothing is ever dropped.
//!
//! Percentiles come from an immutable [`HistogramSnapshot`]: the p-th
//! percentile rank is located in the cumulative bucket counts and
//! interpolated linearly inside its bucket's range, then clamped to the
//! largest recorded sample (so a single-sample histogram never reports a
//! percentile above the one value it saw).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Number of buckets: the zero bucket plus one per possible bit length.
pub const NUM_BUCKETS: usize = 65;

/// Bucket index of a value: `0` for zero, otherwise the value's bit length.
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive `[low, high]` range of values a bucket covers.
pub fn bucket_range(bucket: usize) -> (u64, u64) {
    match bucket {
        0 => (0, 0),
        64 => (1u64 << 63, u64::MAX),
        b => (1u64 << (b - 1), (1u64 << b) - 1),
    }
}

struct Inner {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// A concurrent log₂-bucketed histogram.  Clones share the same cells.
#[derive(Clone)]
pub struct Histogram(Arc<Inner>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(Inner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        let inner = &self.0;
        // RELAXED: each cell only needs RMW atomicity; snapshots tolerate
        // the cells lagging each other by in-flight increments (see
        // `HistogramSnapshot`'s docs), so no inter-cell edge is required.
        inner.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        // RELAXED: as above.
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(value, Ordering::Relaxed);
        // RELAXED: as above.
        inner.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds (saturating at `u64::MAX` — about
    /// 584 years, comfortably inside the top bucket).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        // RELAXED: monitoring read; may trail concurrent `record` calls.
        self.0.count.load(Ordering::Relaxed)
    }

    /// An immutable copy of the current state for percentile extraction.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let inner = &self.0;
        // RELAXED: the snapshot is documented as per-cell consistent only;
        // percentile extraction clamps ranks to the observed totals, so
        // cells caught mid-update cannot produce out-of-range results.
        HistogramSnapshot {
            buckets: std::array::from_fn(|b| inner.buckets[b].load(Ordering::Relaxed)),
            // RELAXED: as above.
            count: inner.count.load(Ordering::Relaxed),
            sum: inner.sum.load(Ordering::Relaxed),
            // RELAXED: as above.
            max: inner.max.load(Ordering::Relaxed),
        }
    }

    /// Whether this handle shares its cells with `other`.
    pub fn same_as(&self, other: &Histogram) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count)
            .field("p50", &s.p50())
            .field("p99", &s.p99())
            .field("max", &s.max)
            .finish()
    }
}

/// An immutable histogram state.  Snapshots of *concurrently updated*
/// histograms are internally consistent per cell but the per-bucket counts
/// may momentarily lag `count` by in-flight increments; percentile
/// extraction tolerates that by clamping ranks to the observed totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_range`]).
    pub buckets: [u64; NUM_BUCKETS],
    /// Total recorded samples.
    pub count: u64,
    /// Sum of all recorded samples (wrapping on overflow).
    pub sum: u64,
    /// Largest recorded sample.
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Bucket-wise merge of several snapshots (used to aggregate per-class
    /// latency histograms into one service-wide distribution).
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a HistogramSnapshot>) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for p in parts {
            for (o, v) in out.buckets.iter_mut().zip(p.buckets.iter()) {
                *o += v;
            }
            out.count += p.count;
            out.sum = out.sum.wrapping_add(p.sum);
            out.max = out.max.max(p.max);
        }
        out
    }

    /// Mean sample value (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-th percentile (`p` in `0.0..=100.0`), interpolated linearly
    /// inside the target bucket's range and clamped to the largest recorded
    /// sample.  Returns `0` for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        let in_buckets: u64 = self.buckets.iter().sum();
        if in_buckets == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        if p >= 100.0 {
            return self.max;
        }
        // 1-based rank of the target sample among the bucketed ones.
        let rank = ((p / 100.0 * in_buckets as f64).ceil() as u64).clamp(1, in_buckets);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if rank <= seen + n {
                let (low, high) = bucket_range(b);
                // Linear interpolation at the midpoint of the sample's
                // sub-slot inside the bucket.
                let pos = (rank - seen) as f64 - 0.5;
                let width = (high - low) as f64 + 1.0;
                let v = low as f64 + width * pos / n as f64;
                return (v as u64).clamp(low, high).min(self.max);
            }
            seen += n;
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.percentile(95.0)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        // The zero bucket holds only zero.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_range(0), (0, 0));
        // Bucket b covers [2^(b-1), 2^b - 1]: check every boundary.
        for b in 1..=63usize {
            let (low, high) = bucket_range(b);
            assert_eq!(low, 1u64 << (b - 1));
            assert_eq!(high, (1u64 << b) - 1);
            assert_eq!(bucket_index(low), b, "low edge of bucket {b}");
            assert_eq!(bucket_index(high), b, "high edge of bucket {b}");
            assert_eq!(bucket_index(high) + 1, bucket_index(high + 1));
        }
        // The top bucket saturates at u64::MAX.
        assert_eq!(bucket_index(1u64 << 63), 64);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_range(64), (1u64 << 63, u64::MAX));
    }

    #[test]
    fn empty_histogram_reports_zero_everywhere() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.percentile(0.0), 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
    }

    #[test]
    fn single_sample_percentiles_return_that_sample_region() {
        let h = Histogram::new();
        h.record(1_000);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.max, 1_000);
        assert_eq!(s.mean(), 1_000.0);
        // Every percentile lands in the sample's bucket, clamped to the
        // sample itself at the top.
        let (low, _) = bucket_range(bucket_index(1_000));
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            let v = s.percentile(p);
            assert!(v >= low && v <= 1_000, "p{p} = {v}");
        }
        assert_eq!(s.percentile(100.0), 1_000);
    }

    #[test]
    fn saturating_samples_land_in_the_top_bucket() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record_duration(Duration::from_secs(u64::MAX)); // > u64::MAX ns
        let s = h.snapshot();
        assert_eq!(s.buckets[64], 2);
        assert_eq!(s.max, u64::MAX);
        assert!(s.p99() >= 1u64 << 63, "p99 stays in the top bucket");
        assert_eq!(s.percentile(100.0), u64::MAX);
    }

    #[test]
    fn percentiles_follow_the_distribution() {
        let h = Histogram::new();
        // 90 fast samples around 1 µs, 10 slow around 1 ms.
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        let p50 = s.p50();
        let p99 = s.p99();
        let (fast_low, fast_high) = bucket_range(bucket_index(1_000));
        let (slow_low, _) = bucket_range(bucket_index(1_000_000));
        assert!(p50 >= fast_low && p50 <= fast_high, "p50 = {p50}");
        assert!(p99 >= slow_low && p99 <= 1_000_000, "p99 = {p99}");
        assert!(p99 > p50);
        assert_eq!(s.percentile(100.0), 1_000_000);
    }

    #[test]
    fn duration_recording_uses_nanoseconds() {
        let h = Histogram::new();
        h.record_duration(Duration::from_micros(3));
        let s = h.snapshot();
        assert_eq!(s.sum, 3_000);
        assert_eq!(s.buckets[bucket_index(3_000)], 1);
    }

    #[test]
    fn merged_snapshots_aggregate() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(10);
        a.record(20);
        b.record(1 << 40);
        let m = HistogramSnapshot::merged([&a.snapshot(), &b.snapshot()]);
        assert_eq!(m.count, 3);
        assert_eq!(m.max, 1 << 40);
        assert_eq!(m.sum, 30 + (1 << 40));
        assert_eq!(m.buckets.iter().sum::<u64>(), 3);
        assert_eq!(HistogramSnapshot::merged([]).count, 0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Histogram::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1_000 {
                        h.record(t * 1_000 + i);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, 4_000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 4_000);
    }
}
