//! Lock-free log2-bucketed histogram.
//!
//! Values are `u64`s (durations in nanoseconds, search depths, queue
//! lengths, ...). Bucket 0 counts exact zeros; bucket `i >= 1` counts
//! values in `[2^(i-1), 2^i - 1]`, so 65 buckets cover the full `u64`
//! range. Recording a value is three relaxed `fetch_add`s, plus a `fetch_max`
//! when it raises the maximum; a writer that holds its samples back until a
//! unit of work ends (the engine: a block, a drain) hands them over in one
//! [`Histogram::record_all`], which adds the totals once. There is no locking
//! anywhere and recording from many threads concurrently is safe (totals and
//! per-bucket counts are exact, only the cross-field consistency of a
//! concurrent snapshot is approximate).
//!
//! An owner that shares its histogram with no one records into a plain
//! [`HistogramSnapshot`] instead ([`HistogramSnapshot::record_all`]): the
//! same buckets, filled with plain adds.

use crate::json::{JsonWriter, WriteJson};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Number of log2 buckets: one for zero plus one per bit of `u64`.
pub const NUM_BUCKETS: usize = 65;

/// Index of the bucket that counts `value`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros()) as usize
    }
}

/// Inclusive upper bound of bucket `i` (saturating at `u64::MAX`).
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A lock-free log2-bucketed histogram of `u64` values.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            counts: [(); NUM_BUCKETS].map(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.record_all([value]);
    }

    /// Records every value of `values`, leaving what as many `record` calls
    /// would: one bucket add per run of same-bucket values, the totals once.
    #[inline]
    pub fn record_all(&self, values: impl IntoIterator<Item = u64>) {
        let (mut count, mut sum, mut max) = (0u64, 0u64, 0u64);
        let mut run = (0, 0u64);
        for value in values {
            let bucket = bucket_index(value);
            if bucket != run.0 && run.1 != 0 {
                self.counts[run.0].fetch_add(run.1, Relaxed);
                run.1 = 0;
            }
            run = (bucket, run.1 + 1);
            (count, sum, max) = (count + 1, sum + value, max.max(value));
        }
        if count == 0 {
            return;
        }
        self.counts[run.0].fetch_add(run.1, Relaxed);
        self.sum.fetch_add(sum, Relaxed);
        self.count.fetch_add(count, Relaxed);
        // The maximum only grows: a value at or under it has nothing to add.
        if max > self.max.load(Relaxed) {
            self.max.fetch_max(max, Relaxed);
        }
    }

    /// Number of observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Sum of all observations recorded so far.
    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    /// Largest observation recorded so far (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Relaxed)
    }

    /// Captures a point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; NUM_BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(self.counts.iter()) {
            *slot = bucket.load(Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum: self.sum.load(Relaxed),
            count: self.count.load(Relaxed),
            max: self.max.load(Relaxed),
        }
    }

    /// Resets every bucket and total to zero.
    ///
    /// Not atomic with respect to concurrent `record` calls; intended for
    /// between-phase resets when recorders are quiescent.
    pub fn reset(&self) {
        for bucket in &self.counts {
            bucket.store(0, Relaxed);
        }
        self.sum.store(0, Relaxed);
        self.count.store(0, Relaxed);
        self.max.store(0, Relaxed);
    }
}

/// An owned, immutable copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`bucket_index`]).
    pub buckets: [u64; NUM_BUCKETS],
    /// Sum of all observations.
    pub sum: u64,
    /// Total number of observations.
    pub count: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// An empty snapshot (no observations).
    pub fn empty() -> Self {
        Self {
            buckets: [0; NUM_BUCKETS],
            sum: 0,
            count: 0,
            max: 0,
        }
    }

    /// Records every value of `values` with plain adds, leaving what
    /// [`Histogram::record_all`] leaves in a histogram: for an owner that
    /// shares its histogram with no one.
    pub fn record_all(&mut self, values: impl IntoIterator<Item = u64>) {
        for value in values {
            self.buckets[bucket_index(value)] += 1;
            (self.count, self.sum) = (self.count + 1, self.sum + value);
            self.max = self.max.max(value);
        }
    }

    /// Mean of the recorded values, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Estimates the `q`-quantile (`0.0 <= q <= 1.0`), or `None` when
    /// empty.
    ///
    /// The estimate is the upper bound of the first bucket whose
    /// cumulative count reaches `q * count`, clamped to the recorded
    /// maximum, so it errs high by at most a factor of two.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                return Some(bucket_upper_bound(i).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Median estimate (`quantile(0.5)`).
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.5)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Element-wise sum of two snapshots (e.g. across workers).
    pub fn merge(&self, other: &Self) -> Self {
        let mut buckets = self.buckets;
        for (slot, &c) in buckets.iter_mut().zip(other.buckets.iter()) {
            *slot += c;
        }
        Self {
            buckets,
            sum: self.sum + other.sum,
            count: self.count + other.count,
            max: self.max.max(other.max),
        }
    }

    /// Observations recorded since `prev` was taken (saturating, so a
    /// reset between snapshots yields `self` rather than garbage).
    pub fn delta(&self, prev: &Self) -> Self {
        let mut buckets = [0u64; NUM_BUCKETS];
        for (i, slot) in buckets.iter_mut().enumerate() {
            *slot = self.buckets[i].saturating_sub(prev.buckets[i]);
        }
        Self {
            buckets,
            sum: self.sum.saturating_sub(prev.sum),
            count: self.count.saturating_sub(prev.count),
            max: self.max,
        }
    }

    /// Renders the snapshot as a standalone JSON string.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }
}

/// Writes the snapshot as a JSON object:
/// `{"count":..,"sum":..,"max":..,"mean":..,"p50":..,"p95":..,"p99":..,
///   "buckets":[[upper,count],..]}` (only non-empty buckets listed).
impl WriteJson for HistogramSnapshot {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_u64("count", self.count);
        w.field_u64("sum", self.sum);
        w.field_u64("max", self.max);
        match self.mean() {
            Some(m) => w.field_f64("mean", m),
            None => w.field_null("mean"),
        }
        for (name, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
            match self.quantile(q) {
                Some(v) => w.field_u64(name, v),
                None => w.field_null(name),
            }
        }
        w.key("buckets");
        w.begin_array();
        for (i, &c) in self.buckets.iter().enumerate() {
            if c != 0 {
                w.begin_array();
                w.value_u64(bucket_upper_bound(i));
                w.value_u64(c);
                w.end_array();
            }
        }
        w.end_array();
        w.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_at_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        // Every power of two opens a new bucket; its predecessor closes one.
        for bit in 1..64 {
            let v = 1u64 << bit;
            assert_eq!(bucket_index(v), bit + 1, "2^{bit}");
            assert_eq!(bucket_index(v - 1), bit, "2^{bit} - 1");
        }
        assert_eq!(bucket_index(u64::MAX), 64);
        // Upper bounds agree with the index mapping.
        for i in 1..NUM_BUCKETS {
            assert_eq!(bucket_index(bucket_upper_bound(i)), i);
        }
        assert_eq!(bucket_upper_bound(0), 0);
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.max(), 0);
        let s = h.snapshot();
        assert_eq!(s, HistogramSnapshot::empty());
        assert_eq!(s.mean(), None);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.p99(), None);
    }

    #[test]
    fn totals_and_max() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 106);
        assert_eq!(h.max(), 100);
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 1); // 0
        assert_eq!(s.buckets[1], 1); // 1
        assert_eq!(s.buckets[2], 2); // 2, 3
        assert_eq!(s.buckets[7], 1); // 100 in [64, 127]
        assert!((s.mean().unwrap() - 21.2).abs() < 1e-9);
    }

    #[test]
    fn a_batch_leaves_what_single_records_would() {
        let (one_by_one, batched) = (Histogram::new(), Histogram::new());
        let values = [3, 3, 2, 0, 9, 9, 2, 1 << 40];
        values.iter().for_each(|&v| one_by_one.record(v));
        batched.record_all(values);
        batched.record_all([]);
        assert_eq!(batched.snapshot(), one_by_one.snapshot());
        assert_eq!(
            batched.snapshot().buckets[2],
            4,
            "3, 3, 2 and 2 share a bucket"
        );
        let mut owned = HistogramSnapshot::empty();
        owned.record_all(values);
        owned.record_all([]);
        assert_eq!(owned, one_by_one.snapshot());
    }

    #[test]
    fn quantiles_on_known_distribution() {
        // 100 observations of 1, one of 1000: p50/p95 sit in the ones,
        // p99+ reaches the outlier's bucket (clamped to the true max).
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(1);
        }
        h.record(1000);
        let s = h.snapshot();
        assert_eq!(s.p50(), Some(1));
        assert_eq!(s.p95(), Some(1));
        assert_eq!(s.quantile(1.0), Some(1000));
        // Uniform 1..=8: p50 within a bucket of 4, never above 8.
        let h = Histogram::new();
        for v in 1..=8 {
            h.record(v);
        }
        let s = h.snapshot();
        let p50 = s.p50().unwrap();
        assert!((3..=7).contains(&p50), "p50 = {p50}");
        assert!(s.quantile(1.0).unwrap() <= 8);
    }

    #[test]
    fn quantile_estimate_errs_high_within_bucket() {
        let h = Histogram::new();
        for _ in 0..10 {
            h.record(5); // bucket [4, 7]
        }
        let s = h.snapshot();
        // Upper bound of the bucket is 7, but clamped to the observed max.
        assert_eq!(s.p50(), Some(5));
        assert_eq!(s.p99(), Some(5));
    }

    #[test]
    fn concurrent_record() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 10_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, 40_000);
        assert_eq!(s.max, 39_999);
        // Sum of 0..40000.
        assert_eq!(s.sum, 39_999 * 40_000 / 2);
        assert_eq!(s.buckets.iter().sum::<u64>(), 40_000);
    }

    #[test]
    fn merge_and_delta() {
        let a = {
            let h = Histogram::new();
            h.record(1);
            h.record(100);
            h.snapshot()
        };
        let b = {
            let h = Histogram::new();
            h.record(2);
            h.snapshot()
        };
        let m = a.merge(&b);
        assert_eq!(m.count, 3);
        assert_eq!(m.sum, 103);
        assert_eq!(m.max, 100);
        let d = m.delta(&a);
        assert_eq!(d.count, 1);
        assert_eq!(d.sum, 2);
        // Deltas of identical snapshots are empty except max (a gauge-like
        // high-water mark, intentionally carried over).
        let z = a.delta(&a);
        assert_eq!(z.count, 0);
        assert_eq!(z.sum, 0);
        assert!(z.buckets.iter().all(|&c| c == 0));
    }

    #[test]
    fn reset_clears_everything() {
        let h = Histogram::new();
        h.record(42);
        h.reset();
        assert_eq!(h.snapshot(), HistogramSnapshot::empty());
    }

    #[test]
    fn json_shape() {
        let h = Histogram::new();
        h.record(3);
        let json = h.snapshot().to_json();
        assert!(json.contains("\"count\":1"));
        assert!(json.contains("\"sum\":3"));
        assert!(json.contains("\"p99\":3"));
        assert!(json.contains("\"buckets\":[[3,1]]"));
        let empty = HistogramSnapshot::empty().to_json();
        assert!(empty.contains("\"mean\":null"));
    }
}
