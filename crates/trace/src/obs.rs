//! Replay progress observability.
//!
//! Long traces replay for minutes; these process-wide counters let a
//! harness (or an operator attaching mid-run) see how far the replay has
//! progressed — operations consumed, receive posts and message arrivals
//! driven into the matchers, progress points sampled — plus a histogram of
//! per-rank replayed-event counts from the rank-major pass, which shows how
//! skewed the rank workloads are.
//!
//! The handle is process-wide (replays accumulate) so the public
//! [`crate::replay::replay`] signature stays unchanged; interval
//! measurements use `snapshot()`/`RegistrySnapshot::delta`.

use otm_metrics::{Counter, Histogram, Registry, RegistrySnapshot};
use std::sync::{Arc, OnceLock};

/// Process-wide replay progress instruments.
#[derive(Debug)]
pub struct ReplayMetrics {
    registry: Registry,
    ops: Arc<Counter>,
    posts: Arc<Counter>,
    arrivals: Arc<Counter>,
    progress_points: Arc<Counter>,
    rank_events: Arc<Histogram>,
}

impl ReplayMetrics {
    fn new() -> Self {
        let registry = Registry::new();
        Self {
            ops: registry.counter("trace_replay_ops_total"),
            posts: registry.counter("trace_replay_posts_total"),
            arrivals: registry.counter("trace_replay_arrivals_total"),
            progress_points: registry.counter("trace_replay_progress_points_total"),
            rank_events: registry.histogram("trace_replay_rank_events"),
            registry,
        }
    }

    /// Counts one replayed trace operation (any kind).
    #[inline]
    pub fn count_op(&self) {
        self.ops.inc();
    }

    /// Counts one receive post driven into a matcher.
    #[inline]
    pub fn count_post(&self) {
        self.posts.inc();
    }

    /// Counts one message arrival driven into a matcher.
    #[inline]
    pub fn count_arrive(&self) {
        self.arrivals.inc();
    }

    /// Counts one progress point (Wait/Waitall sample).
    #[inline]
    pub fn count_progress_point(&self) {
        self.progress_points.inc();
    }

    /// Records how many events one rank's engine processed.
    #[inline]
    pub fn record_rank_events(&self, n: u64) {
        self.rank_events.record(n);
    }

    /// The underlying registry (for embedding into a larger exporter).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Copies out the replay counters; diff two snapshots with
    /// `RegistrySnapshot::delta` to isolate one replay's activity.
    pub fn snapshot(&self) -> RegistrySnapshot {
        self.registry.snapshot()
    }
}

/// The process-wide replay metrics handle (created on first use).
pub fn replay_metrics() -> &'static ReplayMetrics {
    static METRICS: OnceLock<ReplayMetrics> = OnceLock::new();
    METRICS.get_or_init(ReplayMetrics::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_counters_accumulate_monotonically() {
        // The handle is process-wide and tests run in parallel, so assert
        // on the delta of this test's own contribution only.
        let m = replay_metrics();
        let before = m.snapshot();
        m.count_op();
        m.count_post();
        m.count_arrive();
        m.count_progress_point();
        m.record_rank_events(7);
        let d = m.snapshot().delta(&before);
        assert!(d.counters["trace_replay_ops_total"] >= 1);
        assert!(d.counters["trace_replay_posts_total"] >= 1);
        assert!(d.counters["trace_replay_arrivals_total"] >= 1);
        assert!(d.counters["trace_replay_progress_points_total"] >= 1);
        assert!(d.hists["trace_replay_rank_events"].count >= 1);
    }
}
