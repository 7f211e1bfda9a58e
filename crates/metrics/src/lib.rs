//! **otm-metrics** — zero-dependency observability primitives for the OTM
//! workspace.
//!
//! Every count, gauge, histogram and span ring is plain data owned by the
//! one thing that updates it; nothing here is shared, locked or atomic.
//!
//! * [`HistogramSnapshot`] ([`hist`]) — a log2-bucketed histogram its
//!   owner records into with plain adds; quantiles (p50/p95/p99/max) are
//!   estimated from the bucket upper bounds.
//! * [`RegistrySnapshot`] ([`registry`]) — named counters, gauges and
//!   histograms, a value each owner builds from its own fields under the
//!   names the artifacts read ([`labelled`] renders `name{label="v"}`).
//!   Snapshots of several owners merge ([`RegistrySnapshot::merge`]) and
//!   serialize to JSON.
//!
//! On top of these sit the two flight-recorder layers:
//!
//! * [`SpanRecorder`] ([`span`]) — per-message lifecycle events
//!   (`posted` → `enqueued` → `packed` → `matched{path}`, plus
//!   `retransmitted`/`fell_back`) with explicit drop accounting, JSONL and
//!   Chrome `trace_event` export, and derived per-path post→match latency
//!   histograms.
//! * [`SeriesRecorder`] ([`series`]) — a rolling sampler that distills
//!   registry snapshots into Fig. 6/7-style time-series curves at a fixed
//!   virtual-time cadence, rendered as a columnar JSON artifact.
//!
//! The crate deliberately has **no dependencies**: JSON is emitted by a
//! tiny hand-rolled writer ([`json`]), timestamps come from a monotonic
//! process-start epoch ([`now_ns`]). Snapshots are always compiled in;
//! consumers gate only their [`SpanRecorder`]s behind `trace-events`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod json;
pub mod registry;
pub mod series;
pub mod span;

pub use hist::HistogramSnapshot;
pub use registry::{labelled, RegistrySnapshot};
pub use series::{write_tenant_sections, SeriesPoint, SeriesRecorder};
pub use span::{
    latency_by_path, spans_to_chrome_trace, spans_to_jsonl, MatchPath, SpanEvent, SpanKind,
    SpanRecorder, MATCH_PATHS, RECV_SUBJECT_BIT,
};

use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call to `now_ns` in this process.
///
/// A monotonic, process-local epoch: cheap and non-decreasing. Used to
/// timestamp [`SpanEvent`]s, so the rings of the engine, the service and
/// the senders share one timeline.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::now_ns;

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
