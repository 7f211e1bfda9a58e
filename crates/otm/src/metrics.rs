//! Engine observability.
//!
//! [`EngineMetrics`] is the engine's handle to the `otm-metrics` registry:
//! search-depth, UMQ-depth, block-latency and block-occupancy histograms,
//! the per-communicator depth-peak gauges, and, with the `trace-events`
//! feature, the lifecycle span recorder.
//!
//! Counts are not pushed. The engine's published [`StatsSnapshot`] is their
//! one record, and `EngineMetrics::snapshot` fills the registry names in
//! from it: `otm_resolutions_total{path}` (no-conflict / fast path / slow
//! path — the NC, WC-FP and WC-SP series of Fig. 8 — and the post path),
//! `otm_matched_total` and `otm_conflicts_total`; the span ring's own drop
//! count is `otm_span_dropped_total`. Only what a count cannot hold is
//! pushed: the histograms and the high-water gauges.
//!
//! No instrument is touched per message: a block's depths and latency reach
//! the registry in one `EngineMetrics::add` when the block ends, a drain's
//! posts in one when the drain exits (a direct `post` publishes right away),
//! the depth-peak gauges once per drain — each with the statistics it goes
//! with, so a snapshot never shows half a publish.

use crate::stats::{StatsSnapshot, Tally};
use otm_base::CommId;
use otm_metrics::{Gauge, Histogram, Registry, RegistrySnapshot};
use std::sync::{Arc, OnceLock};

/// Lifecycle span events retained before overwriting (each message
/// contributes a handful: posted/enqueued/packed/matched).
#[cfg(feature = "trace-events")]
const SPAN_CAPACITY: usize = 256 * 1024;

/// One communicator's two depth-peak gauges, each resolved from the registry
/// the first time [`EngineMetrics::publish_drain_peaks`] has a value for it
/// and kept with the communicator from then on.
#[derive(Debug, Default)]
pub(crate) struct DepthPeakGauges {
    lane: OnceLock<Arc<Gauge>>,
    ring: OnceLock<Arc<Gauge>>,
}

/// Cheap-to-clone handle to the engine's metric instruments.
#[derive(Debug, Clone)]
pub struct EngineMetrics {
    registry: Registry,
    search_depth: Arc<Histogram>,
    block_latency_ns: Arc<Histogram>,
    block_occupancy: Arc<Histogram>,
    umq_match_depth: Arc<Histogram>,
    #[cfg(feature = "trace-events")]
    spans: Arc<otm_metrics::SpanRecorder>,
}

impl Default for EngineMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineMetrics {
    /// Creates a fresh registry with the engine's instruments.
    pub fn new() -> Self {
        let registry = Registry::new();
        Self {
            search_depth: registry.histogram("otm_search_depth"),
            block_latency_ns: registry.histogram("otm_block_latency_ns"),
            block_occupancy: registry.histogram("otm_block_occupancy"),
            umq_match_depth: registry.histogram("otm_umq_match_depth"),
            #[cfg(feature = "trace-events")]
            spans: Arc::new(otm_metrics::SpanRecorder::new(SPAN_CAPACITY)),
            registry,
        }
    }

    /// Publishes a tally's samples: a block's, with the depth of each lane's
    /// optimistic search, or some posts', with the UMQ depth of each match
    /// on post. A block that ran to its end adds its latency and its
    /// occupancy — how well the drain's packing fills blocks.
    pub(crate) fn add(
        &self,
        t: &Tally,
        search_depths: impl IntoIterator<Item = u64>,
        umq_depths: impl IntoIterator<Item = u64>,
    ) {
        self.search_depth.record_all(search_depths);
        self.umq_match_depth.record_all(umq_depths);
        if t.stats.blocks != 0 {
            self.block_latency_ns.record(t.latency_ns);
            self.block_occupancy.record(t.stats.messages);
        }
    }

    /// Publishes one communicator's depth peaks of a finished drain: the
    /// deepest its staged lane and its submission ring got at any refill.
    /// `otm_drain_lane_depth_peak{comm}` (once the lane has staged
    /// something) and `otm_submission_ring_depth_peak{comm}` keep the
    /// all-time high-water mark (`set_max` never lowers it); a ring peak near
    /// the configured ring capacity means submitters are outrunning the
    /// drain and seeing `SubmissionRingFull` backpressure. A communicator's
    /// first publish resolves its labelled gauges into `gauges` — the only
    /// registry look-ups after construction; later ones are a `set_max` each.
    pub(crate) fn publish_drain_peaks(
        &self,
        comm: CommId,
        gauges: &DepthPeakGauges,
        lane_peak: u64,
        ring_peak: u64,
    ) {
        let resolve = |name| {
            self.registry
                .gauge_with(name, vec![("comm", comm.0.to_string())])
        };
        if lane_peak > 0 {
            gauges
                .lane
                .get_or_init(|| resolve("otm_drain_lane_depth_peak"))
                .set_max(lane_peak as i64);
        }
        gauges
            .ring
            .get_or_init(|| resolve("otm_submission_ring_depth_peak"))
            .set_max(ring_peak as i64);
    }

    /// Zeroes every instrument in place, labelled ones included
    /// ([`Registry::reset`]), and resets the span ring: every handle stays
    /// live.
    pub(crate) fn reset(&self) {
        self.registry.reset();
        #[cfg(feature = "trace-events")]
        self.spans.reset();
    }

    /// Copies out the registry, with the counts read from `stats`, the
    /// engine's published statistics. A message a block matched took
    /// exactly one path, so the slow path's is what the other two leave of
    /// `matched`, and `otm_matched_total == Σ otm_resolutions_total{path}`.
    pub(crate) fn snapshot(&self, stats: &StatsSnapshot) -> RegistrySnapshot {
        let mut snap = self.registry.snapshot();
        // Saturating: a block that panicked half-run publishes what its
        // lanes counted, but matched nothing, and stops the engine.
        let wc_sp = stats
            .matched
            .saturating_sub(stats.optimistic_ok + stats.fast_path);
        for (name, n) in [
            ("otm_resolutions_total{path=\"nc\"}", stats.optimistic_ok),
            ("otm_resolutions_total{path=\"wc_fp\"}", stats.fast_path),
            ("otm_resolutions_total{path=\"wc_sp\"}", wc_sp),
            (
                "otm_resolutions_total{path=\"post\"}",
                stats.matched_on_post,
            ),
            ("otm_matched_total", stats.matched + stats.matched_on_post),
            ("otm_conflicts_total", stats.direct_conflicts),
            #[cfg(feature = "trace-events")]
            ("otm_span_dropped_total", self.spans.dropped()),
        ] {
            snap.counters.insert(name.to_string(), n);
        }
        snap
    }

    /// Stamps a lifecycle span event on `subject` (a message or
    /// receive handle). Ring overflow is accounted in
    /// `otm_span_dropped_total`.
    #[cfg(feature = "trace-events")]
    #[inline]
    pub fn span_push(&self, subject: u64, kind: otm_metrics::SpanKind) {
        self.spans.push(subject, kind);
    }

    /// The lifecycle span recorder.
    #[cfg(feature = "trace-events")]
    pub fn spans(&self) -> &otm_metrics::SpanRecorder {
        &self.spans
    }
}

/// Stamps a lifecycle span event when `trace-events` is enabled; expands
/// to nothing otherwise. `SpanKind`, `MatchPath` and `RECV_SUBJECT_BIT`
/// are in scope inside the `$subject` and `$kind` expressions, so call
/// sites read `span_event!(m, h, SpanKind::Matched { path: MatchPath::Nc })`.
#[cfg(feature = "trace-events")]
macro_rules! span_event {
    ($metrics:expr, $subject:expr, $kind:expr) => {{
        #[allow(unused_imports)]
        use ::otm_metrics::{MatchPath, SpanKind, RECV_SUBJECT_BIT};
        $metrics.span_push(($subject) as u64, $kind)
    }};
}

/// No-op expansion: `trace-events` is disabled (the `$subject` and `$kind`
/// tokens are discarded unevaluated).
#[cfg(not(feature = "trace-events"))]
macro_rules! span_event {
    ($metrics:expr, $subject:expr, $kind:expr) => {{
        let _ = &$metrics;
    }};
}

pub(crate) use span_event;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruments_are_registered_and_recorded() {
        let m = EngineMetrics::new();
        let mut block = Tally {
            latency_ns: 9,
            ..Tally::default()
        };
        // Three matched: one no-conflict, one fast path, one slow path.
        (block.stats.optimistic_ok, block.stats.fast_path) = (1, 1);
        (block.stats.matched, block.stats.direct_conflicts) = (3, 1);
        (block.stats.blocks, block.stats.messages) = (1, 4);
        m.add(&block, [3], []);
        // A block that panicked half-run: its searches, no latency sample.
        m.add(&Tally::default(), [1, 1], []);
        let mut posts = Tally::default();
        posts.stats.matched_on_post = 1;
        m.add(&posts, [], [2]);
        let stats = block.stats.merge(&posts.stats);
        // Two drains: the gauges keep the high-water mark across them.
        // A lane that never staged anything publishes its ring peak only.
        let (one, two) = (DepthPeakGauges::default(), DepthPeakGauges::default());
        m.publish_drain_peaks(CommId(1), &one, 7, 5);
        m.publish_drain_peaks(CommId(1), &one, 3, 2);
        m.publish_drain_peaks(CommId(2), &two, 0, 0);
        let snap = m.snapshot(&stats);
        assert_eq!(snap.hists["otm_search_depth"].count, 3);
        assert_eq!(snap.hists["otm_block_latency_ns"].count, 1);
        assert_eq!(snap.hists["otm_block_occupancy"].count, 1);
        assert_eq!(snap.hists["otm_block_occupancy"].sum, 4);
        let gauges: Vec<(&str, i64)> = snap.gauges.iter().map(|(k, &v)| (&**k, v)).collect();
        assert_eq!(
            gauges,
            [
                ("otm_drain_lane_depth_peak{comm=\"1\"}", 7),
                ("otm_submission_ring_depth_peak{comm=\"1\"}", 5),
                ("otm_submission_ring_depth_peak{comm=\"2\"}", 0),
            ]
        );
        assert_eq!(snap.counters["otm_resolutions_total{path=\"nc\"}"], 1);
        assert_eq!(snap.counters["otm_resolutions_total{path=\"wc_fp\"}"], 1);
        assert_eq!(snap.counters["otm_resolutions_total{path=\"wc_sp\"}"], 1);
        assert_eq!(snap.counters["otm_resolutions_total{path=\"post\"}"], 1);
        assert_eq!(snap.counters["otm_matched_total"], 4);
        assert_eq!(snap.counters["otm_conflicts_total"], 1);
        assert_eq!(snap.hists["otm_umq_match_depth"].sum, 2);
    }

    #[test]
    fn clones_share_instruments() {
        let a = EngineMetrics::new();
        let b = a.clone();
        b.add(&Tally::default(), [], [1]);
        let snap = a.snapshot(&StatsSnapshot::default());
        assert_eq!(snap.hists["otm_umq_match_depth"].count, 1);
    }

    #[cfg(feature = "trace-events")]
    #[test]
    fn span_macro_stamps_lifecycle_events() {
        let m = EngineMetrics::new();
        span_event!(m, 7u32, SpanKind::Posted);
        span_event!(
            m,
            7u32,
            SpanKind::Matched {
                path: MatchPath::Nc
            }
        );
        let spans = m.spans().dump();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].subject, 7);
        assert_eq!(spans[0].kind, ::otm_metrics::SpanKind::Posted);
        assert_eq!(
            spans[1].kind,
            ::otm_metrics::SpanKind::Matched {
                path: ::otm_metrics::MatchPath::Nc
            }
        );
        let snap = m.snapshot(&StatsSnapshot::default());
        assert_eq!(snap.counters["otm_span_dropped_total"], 0);
    }

    #[cfg(feature = "trace-events")]
    #[test]
    fn span_overflow_is_accounted_not_silent() {
        let m = EngineMetrics::new();
        for i in 0..(SPAN_CAPACITY as u64 + 5) {
            m.span_push(i, ::otm_metrics::SpanKind::Enqueued);
        }
        assert_eq!(m.spans().dropped(), 5);
        let snap = m.snapshot(&StatsSnapshot::default());
        assert_eq!(snap.counters["otm_span_dropped_total"], 5);
    }
}
