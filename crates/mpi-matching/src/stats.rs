//! Search-depth and queue-length statistics.
//!
//! Fig. 7 of the paper reports *queue depth*: the number of queue elements a
//! matching attempt examines before it finds a match or gives up. With one
//! bin this is the traditional linear scan; with `b` bins the expected depth
//! drops towards `n/b` (§II-B). The trace analyzer aggregates these samples
//! per application and per bin count.
//!
//! [`StatsSnapshot`] is the optimistic engine's record: which resolution
//! path each message took (Fig. 8's NC, WC-FP and WC-SP) and how deep its
//! searches went. It lives here, beside [`MatchStats`], so that any
//! [`crate::MatchingBackend`] can hand it out
//! ([`crate::MatchingBackend::engine_stats`]); the engine re-exports it.

use otm_metrics::json_fields;

/// Running aggregate of a stream of `usize` samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DepthAggregate {
    /// Number of samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample seen.
    pub max: u64,
}

json_fields!(DepthAggregate: count, sum, max);

impl DepthAggregate {
    /// Records one sample.
    #[inline]
    pub(crate) fn record(&mut self, depth: usize) {
        let d = depth as u64;
        self.count += 1;
        self.sum += d;
        if d > self.max {
            self.max = d;
        }
    }

    /// Arithmetic mean of the samples, or 0.0 if none were recorded.
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Merges another aggregate into this one.
    pub(crate) fn merge(&mut self, other: &DepthAggregate) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// Statistics accumulated by a matching engine.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MatchStats {
    /// Depth of searches through the posted receive queue (one sample per
    /// incoming message).
    pub prq_search: DepthAggregate,
    /// Depth of searches through the unexpected message queue (one sample
    /// per posted receive).
    pub umq_search: DepthAggregate,
    /// Messages that matched a posted receive on arrival.
    pub matched_on_arrival: u64,
    /// Messages that became unexpected.
    pub unexpected: u64,
    /// Receives that matched an unexpected message at post time.
    pub matched_on_post: u64,
    /// Receives that were appended to the posted receive queue.
    pub posted: u64,
    /// High-water mark of the posted receive queue length.
    pub prq_high_water: usize,
    /// High-water mark of the unexpected message queue length.
    pub umq_high_water: usize,
}

json_fields!(MatchStats: prq_search, umq_search, matched_on_arrival, unexpected, matched_on_post,
    posted, prq_high_water, umq_high_water);

impl MatchStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        MatchStats::default()
    }

    /// Records a PRQ search and its outcome. `examined` is the number of
    /// live entries the search looked at, *including* the matched one; the
    /// recorded queue-depth sample excludes the match itself, so it counts
    /// the wasted comparisons. (This is the paper's Fig. 7 accounting: a
    /// 26-receive fan-in yields a maximum depth of 25, and a first-try hit
    /// costs 0 — which is how the 128-bin average can fall to 0.33.)
    #[inline]
    pub fn record_arrival(&mut self, examined: usize, matched: bool) {
        let depth = if matched {
            examined.saturating_sub(1)
        } else {
            examined
        };
        self.prq_search.record(depth);
        if matched {
            self.matched_on_arrival += 1;
        } else {
            self.unexpected += 1;
        }
    }

    /// Records a UMQ search and its outcome, with the same
    /// examined-minus-match accounting as [`MatchStats::record_arrival`].
    #[inline]
    pub fn record_post(&mut self, examined: usize, matched: bool) {
        let depth = if matched {
            examined.saturating_sub(1)
        } else {
            examined
        };
        self.umq_search.record(depth);
        if matched {
            self.matched_on_post += 1;
        } else {
            self.posted += 1;
        }
    }

    /// Updates the queue-length high-water marks.
    #[inline]
    pub fn observe_queue_lens(&mut self, prq: usize, umq: usize) {
        if prq > self.prq_high_water {
            self.prq_high_water = prq;
        }
        if umq > self.umq_high_water {
            self.umq_high_water = umq;
        }
    }

    /// Combined mean search depth over both queues — the per-application
    /// "queue depth" series of Fig. 7.
    pub fn mean_depth(&self) -> f64 {
        let count = self.prq_search.count + self.umq_search.count;
        if count == 0 {
            0.0
        } else {
            (self.prq_search.sum + self.umq_search.sum) as f64 / count as f64
        }
    }

    /// Combined maximum search depth over both queues.
    pub fn max_depth(&self) -> u64 {
        self.prq_search.max.max(self.umq_search.max)
    }

    /// Merges another statistics block into this one (used to aggregate
    /// per-rank replays).
    pub fn merge(&mut self, other: &MatchStats) {
        self.prq_search.merge(&other.prq_search);
        self.umq_search.merge(&other.umq_search);
        self.matched_on_arrival += other.matched_on_arrival;
        self.unexpected += other.unexpected;
        self.matched_on_post += other.matched_on_post;
        self.posted += other.posted;
        self.prq_high_water = self.prq_high_water.max(other.prq_high_water);
        self.umq_high_water = self.umq_high_water.max(other.umq_high_water);
    }
}

/// The optimistic engine's statistics at one instant, or (see
/// [`StatsSnapshot::delta`], [`StatsSnapshot::merge`]) their growth over an
/// interval.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Blocks processed.
    pub blocks: u64,
    /// Messages processed.
    pub messages: u64,
    /// Messages matched to a receive during block processing.
    pub matched: u64,
    /// Messages that became unexpected.
    pub unexpected: u64,
    /// Messages whose optimistic match was consumed without entering
    /// conflict resolution.
    pub optimistic_ok: u64,
    /// Threads that detected a direct conflict (a lower-id thread booked
    /// their candidate, or the early-booking check skipped a receive).
    pub direct_conflicts: u64,
    /// Threads that entered resolution only because a lower thread
    /// conflicted.
    pub induced_resolutions: u64,
    /// Conflicts resolved via the fast path (§III-D3a).
    pub fast_path: u64,
    /// Conflicts resolved via the slow path (§III-D3b).
    pub slow_path: u64,
    /// Sum of optimistic-search depths (live entries examined).
    pub search_depth_sum: u64,
    /// Number of optimistic searches.
    pub search_count: u64,
    /// Maximum optimistic-search depth.
    pub search_depth_max: u64,
    /// Receives that matched an unexpected message at post time.
    pub matched_on_post: u64,
    /// Receives posted into the index structures.
    pub posted: u64,
    /// Sum of UMQ search depths at post time.
    pub umq_depth_sum: u64,
    /// Number of UMQ searches.
    pub umq_search_count: u64,
}

json_fields!(StatsSnapshot: blocks, messages, matched, unexpected, optimistic_ok, direct_conflicts,
    induced_resolutions, fast_path, slow_path, search_depth_sum, search_count, search_depth_max,
    matched_on_post, posted, umq_depth_sum, umq_search_count);

impl StatsSnapshot {
    /// Mean optimistic-search depth.
    pub fn mean_search_depth(&self) -> f64 {
        if self.search_count == 0 {
            0.0
        } else {
            self.search_depth_sum as f64 / self.search_count as f64
        }
    }

    /// Counters accumulated since `prev` was taken (saturating per field,
    /// so snapshots from a restarted engine never underflow).
    ///
    /// `search_depth_max` is a high-water mark, not a counter: the delta
    /// keeps the current value, which upper-bounds the interval's maximum.
    pub fn delta(&self, prev: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            blocks: self.blocks.saturating_sub(prev.blocks),
            messages: self.messages.saturating_sub(prev.messages),
            matched: self.matched.saturating_sub(prev.matched),
            unexpected: self.unexpected.saturating_sub(prev.unexpected),
            optimistic_ok: self.optimistic_ok.saturating_sub(prev.optimistic_ok),
            direct_conflicts: self.direct_conflicts.saturating_sub(prev.direct_conflicts),
            induced_resolutions: self
                .induced_resolutions
                .saturating_sub(prev.induced_resolutions),
            fast_path: self.fast_path.saturating_sub(prev.fast_path),
            slow_path: self.slow_path.saturating_sub(prev.slow_path),
            search_depth_sum: self.search_depth_sum.saturating_sub(prev.search_depth_sum),
            search_count: self.search_count.saturating_sub(prev.search_count),
            search_depth_max: self.search_depth_max,
            matched_on_post: self.matched_on_post.saturating_sub(prev.matched_on_post),
            posted: self.posted.saturating_sub(prev.posted),
            umq_depth_sum: self.umq_depth_sum.saturating_sub(prev.umq_depth_sum),
            umq_search_count: self.umq_search_count.saturating_sub(prev.umq_search_count),
        }
    }

    /// Adds `other` in place, field by field (counters add, the depth
    /// high-water mark takes the maximum) — how an engine publishes a
    /// tally, and how engines aggregate, e.g. one per simulated rank.
    #[inline]
    pub fn merge(&mut self, other: &StatsSnapshot) {
        self.blocks += other.blocks;
        self.messages += other.messages;
        self.matched += other.matched;
        self.unexpected += other.unexpected;
        self.optimistic_ok += other.optimistic_ok;
        self.direct_conflicts += other.direct_conflicts;
        self.induced_resolutions += other.induced_resolutions;
        self.fast_path += other.fast_path;
        self.slow_path += other.slow_path;
        self.search_depth_sum += other.search_depth_sum;
        self.search_count += other.search_count;
        self.search_depth_max = self.search_depth_max.max(other.search_depth_max);
        self.matched_on_post += other.matched_on_post;
        self.posted += other.posted;
        self.umq_depth_sum += other.umq_depth_sum;
        self.umq_search_count += other.umq_search_count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl DepthAggregate {
        /// Samples recorded since `prev` was taken (saturating). `max` is a
        /// high-water mark and carries the current value.
        fn delta(&self, prev: &DepthAggregate) -> DepthAggregate {
            DepthAggregate {
                count: self.count.saturating_sub(prev.count),
                sum: self.sum.saturating_sub(prev.sum),
                max: self.max,
            }
        }
    }

    impl MatchStats {
        /// Activity recorded since `prev` was taken (saturating per counter).
        /// High-water marks are instantaneous maxima and carry their current
        /// values rather than a difference.
        fn delta(&self, prev: &MatchStats) -> MatchStats {
            MatchStats {
                prq_search: self.prq_search.delta(&prev.prq_search),
                umq_search: self.umq_search.delta(&prev.umq_search),
                matched_on_arrival: self
                    .matched_on_arrival
                    .saturating_sub(prev.matched_on_arrival),
                unexpected: self.unexpected.saturating_sub(prev.unexpected),
                matched_on_post: self.matched_on_post.saturating_sub(prev.matched_on_post),
                posted: self.posted.saturating_sub(prev.posted),
                prq_high_water: self.prq_high_water,
                umq_high_water: self.umq_high_water,
            }
        }
    }

    impl StatsSnapshot {
        /// Fraction of messages that resolved a conflict (either path).
        fn conflict_rate(&self) -> f64 {
            if self.messages == 0 {
                0.0
            } else {
                (self.fast_path + self.slow_path) as f64 / self.messages as f64
            }
        }
    }

    #[test]
    fn aggregate_tracks_count_sum_max() {
        let mut a = DepthAggregate::default();
        for d in [3usize, 0, 7, 2] {
            a.record(d);
        }
        assert_eq!(a.count, 4);
        assert_eq!(a.sum, 12);
        assert_eq!(a.max, 7);
        assert!((a.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_aggregate_mean_is_zero() {
        assert_eq!(DepthAggregate::default().mean(), 0.0);
    }

    #[test]
    fn merge_combines_aggregates() {
        let mut a = DepthAggregate::default();
        a.record(5);
        let mut b = DepthAggregate::default();
        b.record(9);
        b.record(1);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.sum, 15);
        assert_eq!(a.max, 9);
    }

    #[test]
    fn outcome_counters_partition_events() {
        let mut s = MatchStats::new();
        s.record_arrival(1, true);
        s.record_arrival(4, false);
        s.record_post(0, true);
        s.record_post(2, false);
        assert_eq!(s.matched_on_arrival, 1);
        assert_eq!(s.unexpected, 1);
        assert_eq!(s.matched_on_post, 1);
        assert_eq!(s.posted, 1);
        assert_eq!(s.prq_search.count + s.umq_search.count, 4);
    }

    #[test]
    fn mean_depth_spans_both_queues() {
        let mut s = MatchStats::new();
        s.record_arrival(4, true); // 3 wasted comparisons + the match
        s.record_post(0, false);
        assert!((s.mean_depth() - 1.5).abs() < 1e-12);
        assert_eq!(s.max_depth(), 3);
    }

    #[test]
    fn first_try_hits_cost_zero() {
        let mut s = MatchStats::new();
        s.record_arrival(1, true);
        s.record_post(1, true);
        assert_eq!(s.mean_depth(), 0.0);
        assert_eq!(s.max_depth(), 0);
    }

    #[test]
    fn high_water_marks_are_monotone() {
        let mut s = MatchStats::new();
        s.observe_queue_lens(3, 1);
        s.observe_queue_lens(2, 5);
        assert_eq!(s.prq_high_water, 3);
        assert_eq!(s.umq_high_water, 5);
    }

    #[test]
    fn aggregate_delta_subtracts_counters_keeps_max() {
        let mut prev = DepthAggregate::default();
        prev.record(3);
        prev.record(5);
        let mut cur = prev.clone();
        cur.record(1);
        let d = cur.delta(&prev);
        assert_eq!(d.count, 1);
        assert_eq!(d.sum, 1);
        assert_eq!(d.max, 5, "max is a high-water mark");
        // Saturates rather than underflowing after a reset.
        let fresh = DepthAggregate::default();
        assert_eq!(fresh.delta(&prev).count, 0);
    }

    #[test]
    fn stats_delta_isolates_interval_activity() {
        let mut s = MatchStats::new();
        s.record_arrival(2, true);
        s.record_post(1, false);
        s.observe_queue_lens(4, 2);
        let first = s.clone();
        s.record_arrival(3, false);
        s.record_post(0, true);
        s.observe_queue_lens(1, 7);
        let d = s.delta(&first);
        assert_eq!(d.matched_on_arrival, 0);
        assert_eq!(d.unexpected, 1);
        assert_eq!(d.matched_on_post, 1);
        assert_eq!(d.posted, 0);
        assert_eq!(d.prq_search.count, 1);
        assert_eq!(d.prq_search.sum, 3);
        assert_eq!(d.umq_search.count, 1);
        assert_eq!(d.prq_high_water, 4, "high-water carries current value");
        assert_eq!(d.umq_high_water, 7);
        // Delta of identical snapshots is all-zero counters.
        let z = s.delta(&s);
        assert_eq!(z.prq_search.count, 0);
        assert_eq!(z.matched_on_arrival + z.unexpected + z.posted, 0);
    }

    #[test]
    fn stats_merge_is_componentwise() {
        let mut a = MatchStats::new();
        a.record_arrival(2, true);
        a.observe_queue_lens(1, 1);
        let mut b = MatchStats::new();
        b.record_post(3, false);
        b.observe_queue_lens(4, 0);
        a.merge(&b);
        assert_eq!(a.matched_on_arrival, 1);
        assert_eq!(a.posted, 1);
        assert_eq!(a.prq_high_water, 4);
        assert_eq!(a.umq_high_water, 1);
    }

    #[test]
    fn empty_snapshot_rates_are_zero() {
        let snap = StatsSnapshot::default();
        assert_eq!(snap.mean_search_depth(), 0.0);
        assert_eq!(snap.conflict_rate(), 0.0);
    }

    #[test]
    fn conflict_rate_counts_both_paths() {
        let snap = StatsSnapshot {
            messages: 10,
            fast_path: 2,
            slow_path: 3,
            ..Default::default()
        };
        assert!((snap.conflict_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn delta_subtracts_counters_keeps_max() {
        let prev = StatsSnapshot {
            blocks: 2,
            messages: 10,
            matched: 8,
            search_depth_sum: 20,
            search_count: 10,
            search_depth_max: 9,
            ..Default::default()
        };
        let cur = StatsSnapshot {
            blocks: 5,
            messages: 25,
            matched: 21,
            search_depth_sum: 45,
            search_count: 25,
            search_depth_max: 9,
            ..Default::default()
        };
        let d = cur.delta(&prev);
        assert_eq!(d.blocks, 3);
        assert_eq!(d.messages, 15);
        assert_eq!(d.matched, 13);
        assert_eq!(d.search_depth_sum, 25);
        assert_eq!(d.search_count, 15);
        assert_eq!(d.search_depth_max, 9, "max carries over, not subtracted");
        assert!((d.mean_search_depth() - 25.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn delta_saturates_across_engine_restarts() {
        let prev = StatsSnapshot {
            messages: 100,
            ..Default::default()
        };
        let cur = StatsSnapshot {
            messages: 10,
            ..Default::default()
        };
        assert_eq!(cur.delta(&prev).messages, 0);
    }

    #[test]
    fn delta_of_self_is_empty() {
        let snap = StatsSnapshot {
            blocks: 2,
            search_count: 1,
            search_depth_sum: 4,
            search_depth_max: 4,
            ..Default::default()
        };
        let d = snap.delta(&snap);
        assert_eq!(d.blocks, 0);
        assert_eq!(d.search_count, 0);
        assert_eq!(d.search_depth_sum, 0);
    }

    #[test]
    fn merge_sums_counters_maxes_depth() {
        let a = StatsSnapshot {
            blocks: 1,
            messages: 4,
            fast_path: 2,
            search_depth_max: 3,
            ..Default::default()
        };
        let b = StatsSnapshot {
            blocks: 2,
            messages: 6,
            slow_path: 1,
            search_depth_max: 7,
            ..Default::default()
        };
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.blocks, 3);
        assert_eq!(m.messages, 10);
        assert_eq!(m.fast_path, 2);
        assert_eq!(m.slow_path, 1);
        assert_eq!(m.search_depth_max, 7);
        // merge + delta round-trip: (a ∪ b) minus a leaves b's counters.
        let back = m.delta(&a);
        assert_eq!(back.blocks, b.blocks);
        assert_eq!(back.messages, b.messages);
        assert_eq!(back.slow_path, b.slow_path);
    }
}
