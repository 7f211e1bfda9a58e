//! Engine statistics: conflict behaviour, resolution paths, search depths.
//!
//! The message-rate benchmark of Fig. 8 distinguishes the no-conflict case
//! (optimistic matching succeeds outright), the with-conflict fast-path case
//! (WC-FP) and the with-conflict slow-path case (WC-SP); these counters let
//! the harness verify which path actually ran.
//!
//! Nothing is counted atomically where it happens. A block's lanes and its
//! coordinator fill a `Tally` of plain integers in the block arena, a
//! drain's posts one in the drain arena, and the engine merges a tally
//! into its published [`StatsSnapshot`] once: when the block ends, when the
//! drain exits, right away for a direct `post`. That snapshot is the one
//! record of every count; the registry's counters are read from it. A
//! reader never sees a partial block, and neither a message nor a block
//! costs a read-modify-write for being counted.

use otm_metrics::json_fields;

/// Counts not yet published: what one block, or the posts between two
/// publishes, add to the engine's statistics. A per-phase cost record (ROADMAP
/// item 1) is more fields here, not a second record.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// What the engine's counters grow by.
    pub stats: StatsSnapshot,
    /// How long the block's lanes took, if it ran to its end (timed only
    /// where spans are stamped).
    #[cfg(feature = "trace-events")]
    pub latency_ns: u64,
}

/// The engine's statistics at one instant, or (see [`StatsSnapshot::delta`],
/// [`StatsSnapshot::merge`]) their growth over an interval.
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

    /// Fraction of messages that resolved a conflict (either path).
    pub fn conflict_rate(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            (self.fast_path + self.slow_path) as f64 / self.messages as f64
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

    /// Component-wise sum of two snapshots (counters add, the depth
    /// high-water mark takes the maximum) — for aggregating engines, e.g.
    /// one per simulated rank.
    pub fn merge(&self, other: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            blocks: self.blocks + other.blocks,
            messages: self.messages + other.messages,
            matched: self.matched + other.matched,
            unexpected: self.unexpected + other.unexpected,
            optimistic_ok: self.optimistic_ok + other.optimistic_ok,
            direct_conflicts: self.direct_conflicts + other.direct_conflicts,
            induced_resolutions: self.induced_resolutions + other.induced_resolutions,
            fast_path: self.fast_path + other.fast_path,
            slow_path: self.slow_path + other.slow_path,
            search_depth_sum: self.search_depth_sum + other.search_depth_sum,
            search_count: self.search_count + other.search_count,
            search_depth_max: self.search_depth_max.max(other.search_depth_max),
            matched_on_post: self.matched_on_post + other.matched_on_post,
            posted: self.posted + other.posted,
            umq_depth_sum: self.umq_depth_sum + other.umq_depth_sum,
            umq_search_count: self.umq_search_count + other.umq_search_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let m = a.merge(&b);
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
