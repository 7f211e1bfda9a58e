//! Log2-bucketed histogram.
//!
//! Values are `u64`s (durations in nanoseconds, search depths, queue
//! lengths, ...). Bucket 0 counts exact zeros; bucket `i >= 1` counts
//! values in `[2^(i-1), 2^i - 1]`, so 65 buckets cover the full `u64`
//! range. A [`HistogramSnapshot`] is plain data: the one thing that records
//! into it owns it and records with plain adds ([`HistogramSnapshot::record`],
//! or [`HistogramSnapshot::record_all`] for the samples a unit of work held
//! back), and a registry snapshot holds a copy of it.

use crate::json::{JsonWriter, WriteJson};

/// Number of log2 buckets: one for zero plus one per bit of `u64`.
pub(crate) const NUM_BUCKETS: usize = 65;

/// Index of the bucket that counts `value`.
#[inline]
pub(crate) fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros()) as usize
    }
}

/// Inclusive upper bound of bucket `i` (saturating at `u64::MAX`).
#[inline]
pub(crate) fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A log2-bucketed histogram of `u64` values, owned by what records into it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see `bucket_index`).
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

    /// Empties the histogram in place. One that has recorded nothing is
    /// already empty and is not written, so resetting an idle owner costs a
    /// read of its count.
    pub fn reset(&mut self) {
        if self.count == 0 {
            return;
        }
        *self = Self::empty();
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.record_all([value]);
    }

    /// Records every value of `values`, leaving what as many
    /// [`HistogramSnapshot::record`] calls would.
    pub fn record_all(&mut self, values: impl IntoIterator<Item = u64>) {
        for value in values {
            self.buckets[bucket_index(value)] += 1;
            (self.count, self.sum) = (self.count + 1, self.sum + value);
            self.max = self.max.max(value);
        }
    }

    /// Mean of the recorded values, or `None` when empty.
    pub(crate) fn mean(&self) -> Option<f64> {
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
    pub(crate) fn quantile(&self, q: f64) -> Option<u64> {
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

    /// Element-wise sum of two histograms (several owners' under one name).
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

    impl HistogramSnapshot {
        /// Renders the snapshot as a standalone JSON string.
        fn to_json(&self) -> String {
            let mut w = JsonWriter::new();
            self.write_json(&mut w);
            w.finish()
        }

        /// Median estimate (`quantile(0.5)`).
        fn p50(&self) -> Option<u64> {
            self.quantile(0.5)
        }

        /// 95th-percentile estimate.
        fn p95(&self) -> Option<u64> {
            self.quantile(0.95)
        }

        /// 99th-percentile estimate.
        fn p99(&self) -> Option<u64> {
            self.quantile(0.99)
        }
    }

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

    /// A histogram holding `values`.
    fn of(values: impl IntoIterator<Item = u64>) -> HistogramSnapshot {
        let mut h = HistogramSnapshot::empty();
        values.into_iter().for_each(|v| h.record(v));
        h
    }

    #[test]
    fn empty_histogram() {
        let h = HistogramSnapshot::default();
        assert_eq!((h.count, h.sum, h.max), (0, 0, 0));
        assert_eq!(h, HistogramSnapshot::empty());
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.p99(), None);
    }

    #[test]
    fn totals_and_max() {
        let s = of([0, 1, 2, 3, 100]);
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 106);
        assert_eq!(s.max, 100);
        assert_eq!(s.buckets[0], 1); // 0
        assert_eq!(s.buckets[1], 1); // 1
        assert_eq!(s.buckets[2], 2); // 2, 3
        assert_eq!(s.buckets[7], 1); // 100 in [64, 127]
        assert!((s.mean().unwrap() - 21.2).abs() < 1e-9);
    }

    #[test]
    fn a_batch_leaves_what_single_records_would() {
        let values = [3, 3, 2, 0, 9, 9, 2, 1 << 40];
        let mut batched = HistogramSnapshot::empty();
        batched.record_all(values);
        batched.record_all([]);
        assert_eq!(batched, of(values));
        assert_eq!(batched.buckets[2], 4, "3, 3, 2 and 2 share a bucket");
    }

    #[test]
    fn quantiles_on_known_distribution() {
        // 100 observations of 1, one of 1000: p50/p95 sit in the ones,
        // p99+ reaches the outlier's bucket (clamped to the true max).
        let s = of(std::iter::repeat(1).take(100).chain([1000]));
        assert_eq!(s.p50(), Some(1));
        assert_eq!(s.p95(), Some(1));
        assert_eq!(s.quantile(1.0), Some(1000));
        // Uniform 1..=8: p50 within a bucket of 4, never above 8.
        let s = of(1..=8);
        let p50 = s.p50().unwrap();
        assert!((3..=7).contains(&p50), "p50 = {p50}");
        assert!(s.quantile(1.0).unwrap() <= 8);
    }

    #[test]
    fn quantile_estimate_errs_high_within_bucket() {
        let s = of([5; 10]); // bucket [4, 7]
                             // Upper bound of the bucket is 7, but clamped to the observed max.
        assert_eq!(s.p50(), Some(5));
        assert_eq!(s.p99(), Some(5));
    }

    #[test]
    fn merge_sums_two_histograms() {
        let (a, b) = (of([1, 100]), of([2]));
        let m = a.merge(&b);
        assert_eq!(m.count, 3);
        assert_eq!(m.sum, 103);
        assert_eq!(m.max, 100);
        assert_eq!(m, of([1, 100, 2]));
        assert_eq!(a.merge(&HistogramSnapshot::empty()), a);
    }

    #[test]
    fn reset_clears_everything() {
        // Zeros leave sum and max at 0: only the count says they were
        // recorded, so an empty one is the only one a reset may skip.
        for mut h in [of([42]), of([0, 0]), HistogramSnapshot::empty()] {
            h.reset();
            assert_eq!(h, HistogramSnapshot::empty());
        }
    }

    #[test]
    fn json_shape() {
        let json = of([3]).to_json();
        assert!(json.contains("\"count\":1"));
        assert!(json.contains("\"sum\":3"));
        assert!(json.contains("\"p99\":3"));
        assert!(json.contains("\"buckets\":[[3,1]]"));
        let empty = HistogramSnapshot::empty().to_json();
        assert!(empty.contains("\"mean\":null"));
    }
}
