//! Engine observability.
//!
//! [`EngineMetrics`] holds the engine's search-depth, UMQ-depth,
//! block-occupancy and block-latency histograms as bucket arrays it owns and
//! records into with plain adds, and, with the `trace-events` feature, the
//! lifecycle span recorder; each shard holds its communicator's two depth
//! peaks ([`DepthPeaks`]). Nothing is shared, so no instrument costs a
//! read-modify-write, and no registry stands behind them:
//! `OtmEngine::metrics_snapshot` builds the [`RegistrySnapshot`] value.
//!
//! Counts are not recorded here. The engine's published [`StatsSnapshot`]
//! is their one record, and the snapshot fills the registry names in from
//! it: `otm_resolutions_total{path}` (no-conflict / fast path / slow path —
//! the NC, WC-FP and WC-SP series of Fig. 8 — and the post path),
//! `otm_matched_total` and `otm_conflicts_total`; the span ring's own drop
//! count is `otm_span_dropped_total`.
//!
//! No instrument is touched per message: a block's samples are recorded in
//! one `EngineMetrics::add` when the block ends, a drain's posts' when the
//! drain exits (a direct `post`'s right away), the depth peaks once per
//! drain. The engine reads a clock only in the `trace-events` build: there
//! alone is `otm_block_latency_ns` sampled.

use crate::stats::{StatsSnapshot, Tally};
use otm_base::CommId;
use otm_metrics::{labelled, HistogramSnapshot, RegistrySnapshot};

/// Lifecycle span events retained before overwriting (each message
/// contributes a handful: posted/enqueued/packed/matched).
#[cfg(feature = "trace-events")]
const SPAN_CAPACITY: usize = 256 * 1024;

/// A communicator's two depth-peak gauges: the deepest its staged lane and
/// its submission ring got at any drain's refill (a ring peak near the ring
/// capacity means submitters see `SubmissionRingFull`). Each is `None`, and
/// not listed, until a drain raises it; a reset zeroes it, still listed.
#[derive(Debug, Default)]
pub(crate) struct DepthPeaks {
    /// `otm_drain_lane_depth_peak{comm}`.
    pub lane: Option<u64>,
    /// `otm_submission_ring_depth_peak{comm}`.
    pub ring: Option<u64>,
}

/// Raises a high-water mark to `depth`, listing it if it was not.
pub(crate) fn raise(peak: &mut Option<u64>, depth: u64) {
    *peak = Some(peak.unwrap_or(0).max(depth));
}

/// The engine's instruments (see the module docs).
#[derive(Debug)]
pub(crate) struct EngineMetrics {
    search_depth: HistogramSnapshot,
    umq_match_depth: HistogramSnapshot,
    block_occupancy: HistogramSnapshot,
    block_latency_ns: HistogramSnapshot,
    #[cfg(feature = "trace-events")]
    spans: otm_metrics::SpanRecorder,
}

impl EngineMetrics {
    /// Empty instruments.
    pub fn new() -> Self {
        Self {
            search_depth: HistogramSnapshot::empty(),
            umq_match_depth: HistogramSnapshot::empty(),
            block_occupancy: HistogramSnapshot::empty(),
            block_latency_ns: HistogramSnapshot::empty(),
            #[cfg(feature = "trace-events")]
            spans: otm_metrics::SpanRecorder::new(SPAN_CAPACITY),
        }
    }

    /// Records a tally's samples: a block's, with the depth of each lane's
    /// optimistic search, or some posts', with the UMQ depth of each match
    /// on post. A block that ran to its end adds its occupancy — how well
    /// the drain's packing fills blocks — and, with `trace-events`, its
    /// latency.
    pub fn add(
        &mut self,
        t: &Tally,
        search_depths: impl IntoIterator<Item = u64>,
        umq_depths: impl IntoIterator<Item = u64>,
    ) {
        self.search_depth.record_all(search_depths);
        self.umq_match_depth.record_all(umq_depths);
        if t.stats.blocks != 0 {
            self.block_occupancy.record_all([t.stats.messages]);
            #[cfg(feature = "trace-events")]
            self.block_latency_ns.record_all([t.latency_ns]);
        }
    }

    /// Empties every histogram and the span ring, keeping its allocation.
    pub fn reset(&mut self) {
        self.search_depth.reset();
        self.umq_match_depth.reset();
        self.block_occupancy.reset();
        self.block_latency_ns.reset();
        #[cfg(feature = "trace-events")]
        self.spans.reset();
    }

    /// Builds the registry's snapshot: the histograms, the depth peaks of
    /// each communicator in `peaks`, and the counts read from `stats`, the
    /// engine's published statistics. A message a block matched took
    /// exactly one path, so the slow path's is what the other two leave of
    /// `matched`, and `otm_matched_total == Σ otm_resolutions_total{path}`.
    pub fn snapshot<'a>(
        &self,
        stats: &StatsSnapshot,
        peaks: impl IntoIterator<Item = (CommId, &'a DepthPeaks)>,
    ) -> RegistrySnapshot {
        let mut snap = RegistrySnapshot::default();
        for (name, hist) in [
            ("otm_search_depth", &self.search_depth),
            ("otm_umq_match_depth", &self.umq_match_depth),
            ("otm_block_occupancy", &self.block_occupancy),
            ("otm_block_latency_ns", &self.block_latency_ns),
        ] {
            snap.hists.insert(name.to_string(), hist.clone());
        }
        for (comm, peaks) in peaks {
            let lane = ("otm_drain_lane_depth_peak", peaks.lane);
            for (name, peak) in [lane, ("otm_submission_ring_depth_peak", peaks.ring)] {
                if let Some(peak) = peak {
                    snap.gauges
                        .insert(labelled(name, "comm", comm.0), peak as i64);
                }
            }
        }
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
    pub fn span_push(&mut self, subject: u64, kind: otm_metrics::SpanKind) {
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
        let mut m = EngineMetrics::new();
        let mut block = Tally::default();
        #[cfg(feature = "trace-events")]
        {
            block.latency_ns = 9;
        }
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
        let (mut one, mut two) = (DepthPeaks::default(), DepthPeaks::default());
        for (lane, ring) in [(7, 5), (3, 2)] {
            raise(&mut one.lane, lane);
            raise(&mut one.ring, ring);
        }
        raise(&mut two.ring, 0);
        let snap = m.snapshot(&stats, [(CommId(1), &one), (CommId(2), &two)]);
        assert_eq!(snap.hists["otm_search_depth"].count, 3);
        // The block's latency is sampled only where the engine reads a
        // clock: with `trace-events`.
        let latency_samples = u64::from(cfg!(feature = "trace-events"));
        assert_eq!(snap.hists["otm_block_latency_ns"].count, latency_samples);
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

    #[cfg(feature = "trace-events")]
    #[test]
    fn span_macro_stamps_lifecycle_events() {
        let mut m = EngineMetrics::new();
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
        let snap = m.snapshot(&StatsSnapshot::default(), []);
        assert_eq!(snap.counters["otm_span_dropped_total"], 0);
    }

    #[cfg(feature = "trace-events")]
    #[test]
    fn span_overflow_is_accounted_not_silent() {
        let mut m = EngineMetrics::new();
        for i in 0..(SPAN_CAPACITY as u64 + 5) {
            m.span_push(i, ::otm_metrics::SpanKind::Enqueued);
        }
        assert_eq!(m.spans().dropped(), 5);
        let snap = m.snapshot(&StatsSnapshot::default(), []);
        assert_eq!(snap.counters["otm_span_dropped_total"], 5);
    }
}
