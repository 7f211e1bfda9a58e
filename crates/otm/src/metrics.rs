//! Engine observability.
//!
//! [`EngineMetrics`] is the engine's handle to the `otm-metrics` registry:
//! search-depth and block-latency histograms, per-resolution-path counters
//! (no-conflict / fast path / slow path — the NC, WC-FP and WC-SP series
//! of Fig. 8), and, with the `trace-events` feature, the lifecycle span
//! recorder.
//!
//! The struct carries `Arc` handles resolved once at engine construction, and
//! no instrument is touched per message: a block's tally reaches the registry
//! in one `EngineMetrics::add` when the block ends, a drain's posts in one
//! when the drain exits (a direct `post` publishes right away), the
//! depth-peak gauges once per drain. In between a reader sees the registry as
//! the last publish left it, so `otm_matched_total ==
//! Σ otm_resolutions_total{path}` whenever none is under way.

use crate::stats::Tally;
use otm_base::CommId;
use otm_metrics::{Counter, Gauge, Histogram, Registry, RegistrySnapshot};
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
    no_conflict: Arc<Counter>,
    fast_path: Arc<Counter>,
    slow_path: Arc<Counter>,
    post_match: Arc<Counter>,
    matched: Arc<Counter>,
    conflicts: Arc<Counter>,
    #[cfg(feature = "trace-events")]
    spans: Arc<otm_metrics::SpanRecorder>,
    #[cfg(feature = "trace-events")]
    span_dropped: Arc<Counter>,
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
            no_conflict: registry
                .counter_with("otm_resolutions_total", vec![("path", "nc".into())]),
            fast_path: registry
                .counter_with("otm_resolutions_total", vec![("path", "wc_fp".into())]),
            slow_path: registry
                .counter_with("otm_resolutions_total", vec![("path", "wc_sp".into())]),
            post_match: registry
                .counter_with("otm_resolutions_total", vec![("path", "post".into())]),
            matched: registry.counter("otm_matched_total"),
            conflicts: registry.counter("otm_conflicts_total"),
            #[cfg(feature = "trace-events")]
            spans: Arc::new(otm_metrics::SpanRecorder::new(SPAN_CAPACITY)),
            #[cfg(feature = "trace-events")]
            span_dropped: registry.counter("otm_span_dropped_total"),
            registry,
        }
    }

    /// Publishes a tally: a block's, with the depth of each lane's optimistic
    /// search, or some posts', with the UMQ depth of each match on post. Every
    /// resolution (no-conflict, fast, slow, and the post path, which never
    /// enters a block) is a matched pair, so `otm_matched_total` stays their
    /// sum; a block that ran to its end adds its latency and its occupancy —
    /// how well the drain's packing fills blocks.
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
        let (nc, wc_fp, post) = (
            t.stats.optimistic_ok,
            t.stats.fast_path,
            t.stats.matched_on_post,
        );
        for (counter, n) in [
            (&self.no_conflict, nc),
            (&self.fast_path, wc_fp),
            (&self.slow_path, t.wc_sp),
            (&self.post_match, post),
            (&self.matched, nc + wc_fp + t.wc_sp + post),
            (&self.conflicts, t.stats.direct_conflicts),
        ] {
            if n != 0 {
                counter.add(n);
            }
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
    /// ([`Registry::reset`]), and empties the span ring: every handle stays
    /// live.
    pub(crate) fn reset(&self) {
        self.registry.reset();
        #[cfg(feature = "trace-events")]
        self.spans.clear();
    }

    /// The underlying registry (for embedding into a larger exporter).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Copies out all engine metrics.
    pub fn snapshot(&self) -> RegistrySnapshot {
        self.registry.snapshot()
    }

    /// Stamps a lifecycle span event on `subject` (a message or
    /// receive handle). Ring overflow is accounted in
    /// `otm_span_dropped_total`.
    #[cfg(feature = "trace-events")]
    #[inline]
    pub fn span_push(&self, subject: u64, kind: otm_metrics::SpanKind) {
        if self.spans.push(subject, kind) {
            self.span_dropped.inc();
        }
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
            wc_sp: 1,
            latency_ns: 9,
            ..Tally::default()
        };
        (block.stats.optimistic_ok, block.stats.fast_path) = (1, 1);
        (block.stats.direct_conflicts, block.stats.blocks) = (1, 1);
        block.stats.messages = 4;
        m.add(&block, [3], []);
        // A block that panicked half-run: its searches, no latency sample.
        m.add(&Tally::default(), [1, 1], []);
        let mut posts = Tally::default();
        posts.stats.matched_on_post = 1;
        m.add(&posts, [], [2]);
        // Two drains: the gauges keep the high-water mark across them.
        // A lane that never staged anything publishes its ring peak only.
        let (one, two) = (DepthPeakGauges::default(), DepthPeakGauges::default());
        m.publish_drain_peaks(CommId(1), &one, 7, 5);
        m.publish_drain_peaks(CommId(1), &one, 3, 2);
        m.publish_drain_peaks(CommId(2), &two, 0, 0);
        let snap = m.snapshot();
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
        assert_eq!(a.snapshot().hists["otm_umq_match_depth"].count, 1);
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
        assert_eq!(m.snapshot().counters["otm_span_dropped_total"], 0);
    }

    #[cfg(feature = "trace-events")]
    #[test]
    fn span_overflow_is_accounted_not_silent() {
        let m = EngineMetrics::new();
        for i in 0..(SPAN_CAPACITY as u64 + 5) {
            m.span_push(i, ::otm_metrics::SpanKind::Enqueued);
        }
        assert_eq!(m.spans().dropped(), 5);
        assert_eq!(m.snapshot().counters["otm_span_dropped_total"], 5);
    }
}
