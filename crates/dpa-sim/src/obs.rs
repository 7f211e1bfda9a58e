//! Service observability.
//!
//! [`ServiceMetrics`] is the matching service's handle to the `otm-metrics`
//! registry: completion-queue poll counters, queue-depth gauges (CQ
//! backlog, bounce-pool occupancy, unexpected-store size) with their peak
//! twins, and counters for the two NIC-memory pressure events of §IV —
//! bounce-buffer exhaustion and fallback to software matching. With the
//! `trace-events` feature it also owns the service's lifecycle span
//! recorder (retransmissions, fallback replays).

use otm_metrics::{Counter, Gauge, Histogram, Registry, RegistrySnapshot};
use std::sync::Arc;

/// Lifecycle span events retained before overwriting (retransmissions
/// and fallback replays are rare next to matches, so the service ring
/// can stay small).
#[cfg(feature = "trace-events")]
const SPAN_CAPACITY: usize = 64 * 1024;

/// Handle to the service's metric instruments: one `Arc`, so attaching it to
/// a sender, a NIC or a fault layer is one reference-count increment.
#[derive(Debug, Clone)]
pub struct ServiceMetrics(Arc<Instruments>);

/// The instruments themselves, resolved from the registry once.
#[derive(Debug)]
struct Instruments {
    registry: Registry,
    cq_polls: Arc<Counter>,
    completions: Arc<Counter>,
    bounce_spills: Arc<Counter>,
    fallbacks: Arc<Counter>,
    cq_depth: Arc<Gauge>,
    cq_depth_peak: Arc<Gauge>,
    bounce_in_use: Arc<Gauge>,
    bounce_in_use_peak: Arc<Gauge>,
    unexpected_depth: Arc<Gauge>,
    wire_drops: Arc<Counter>,
    wire_dups: Arc<Counter>,
    wire_reorders: Arc<Counter>,
    wire_delays: Arc<Counter>,
    rx_duplicates: Arc<Counter>,
    rx_gaps: Arc<Counter>,
    rx_staged: Arc<Counter>,
    rx_stage_overflow: Arc<Counter>,
    acks: Arc<Counter>,
    retransmits: Arc<Counter>,
    drain_retries: Arc<Counter>,
    ring_backpressure: Arc<Counter>,
    fallback_escalations: Arc<Counter>,
    backoff_polls: Arc<Histogram>,
    #[cfg(feature = "trace-events")]
    spans: Arc<otm_metrics::SpanRecorder>,
    #[cfg(feature = "trace-events")]
    span_dropped: Arc<Counter>,
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceMetrics {
    /// Creates a fresh registry with the service's instruments.
    pub fn new() -> Self {
        let registry = Registry::new();
        Self(Arc::new(Instruments {
            cq_polls: registry.counter("dpa_cq_polls_total"),
            completions: registry.counter("dpa_completions_total"),
            bounce_spills: registry.counter("dpa_bounce_spills_total"),
            fallbacks: registry.counter("dpa_fallbacks_total"),
            cq_depth: registry.gauge("dpa_cq_depth"),
            cq_depth_peak: registry.gauge("dpa_cq_depth_peak"),
            bounce_in_use: registry.gauge("dpa_bounce_in_use"),
            bounce_in_use_peak: registry.gauge("dpa_bounce_in_use_peak"),
            unexpected_depth: registry.gauge("dpa_unexpected_depth"),
            wire_drops: registry.counter("dpa_wire_drops_total"),
            wire_dups: registry.counter("dpa_wire_dups_total"),
            wire_reorders: registry.counter("dpa_wire_reorders_total"),
            wire_delays: registry.counter("dpa_wire_delays_total"),
            rx_duplicates: registry.counter("dpa_rx_duplicates_total"),
            rx_gaps: registry.counter("dpa_rx_gaps_total"),
            rx_staged: registry.counter("dpa_rx_staged_total"),
            rx_stage_overflow: registry.counter("dpa_rx_stage_overflow_total"),
            acks: registry.counter("dpa_acks_total"),
            retransmits: registry.counter("dpa_retransmits_total"),
            drain_retries: registry.counter("dpa_drain_retries_total"),
            ring_backpressure: registry.counter("dpa_ring_backpressure_total"),
            fallback_escalations: registry.counter("dpa_fallback_escalations_total"),
            backoff_polls: registry.histogram("dpa_backoff_polls"),
            #[cfg(feature = "trace-events")]
            spans: Arc::new(otm_metrics::SpanRecorder::new(SPAN_CAPACITY)),
            #[cfg(feature = "trace-events")]
            span_dropped: registry.counter("dpa_span_dropped_total"),
            registry,
        }))
    }

    /// Counts one completion-queue poll.
    #[inline]
    pub fn count_poll(&self) {
        self.0.cq_polls.inc();
    }

    /// Counts receives completed by one progress call.
    #[inline]
    pub fn add_completions(&self, n: u64) {
        self.0.completions.add(n);
    }

    /// Counts one bounce-pool exhaustion (a message had to wait on the
    /// wire because NIC staging memory ran out).
    #[inline]
    pub fn count_spill(&self) {
        self.0.bounce_spills.inc();
    }

    /// Counts one migration to host software matching (§IV-E).
    #[inline]
    pub fn count_fallback(&self) {
        self.0.fallbacks.inc();
    }

    /// Updates the queue-depth gauges and their peak twins.
    #[inline]
    pub fn observe_queues(&self, cq: usize, bounce: usize, unexpected: usize) {
        self.0.cq_depth.set(cq as i64);
        self.0.cq_depth_peak.set_max(cq as i64);
        self.0.bounce_in_use.set(bounce as i64);
        self.0.bounce_in_use_peak.set_max(bounce as i64);
        self.0.unexpected_depth.set(unexpected as i64);
    }

    /// Counts one fault-injected packet drop on the wire.
    #[inline]
    pub fn count_wire_drop(&self) {
        self.0.wire_drops.inc();
    }

    /// Counts one fault-injected packet duplication on the wire.
    #[inline]
    pub fn count_wire_dup(&self) {
        self.0.wire_dups.inc();
    }

    /// Counts one fault-injected out-of-order release on the wire.
    #[inline]
    pub fn count_wire_reorder(&self) {
        self.0.wire_reorders.inc();
    }

    /// Counts one fault-injected in-order delay on the wire.
    #[inline]
    pub fn count_wire_delay(&self) {
        self.0.wire_delays.inc();
    }

    /// Counts one duplicate sequenced packet discarded at the receiver
    /// (`seq` below the expected counter).
    #[inline]
    pub fn count_rx_duplicate(&self) {
        self.0.rx_duplicates.inc();
    }

    /// Counts one out-of-order sequenced packet discarded at the
    /// receiver (`seq` above the expected counter and no staging room —
    /// a gap a timeout resend will fill).
    #[inline]
    pub fn count_rx_gap(&self) {
        self.0.rx_gaps.inc();
    }

    /// Counts one out-of-order sequenced packet staged by the receiver
    /// (held for in-order delivery instead of discarded).
    #[inline]
    pub fn count_rx_staged(&self) {
        self.0.rx_staged.inc();
    }

    /// Counts one out-of-order packet discarded because the staging
    /// buffer was full.
    #[inline]
    pub fn count_rx_stage_overflow(&self) {
        self.0.rx_stage_overflow.inc();
    }

    /// Counts one cumulative acknowledgement sent or consumed.
    #[inline]
    pub fn count_ack(&self) {
        self.0.acks.inc();
    }

    /// Counts packets retransmitted (timeout resends and fast retransmits).
    #[inline]
    pub fn add_retransmits(&self, n: u64) {
        self.0.retransmits.add(n);
    }

    /// Counts one retry of a failed command-queue drain.
    #[inline]
    pub fn count_drain_retry(&self) {
        self.0.drain_retries.inc();
    }

    /// Counts one submission rejected by a full per-communicator ring
    /// (the engine's retryable backpressure signal): the service drains
    /// inline to free slots and retries the push.
    #[inline]
    pub fn count_ring_backpressure(&self) {
        self.0.ring_backpressure.inc();
    }

    /// Counts one retry-budget exhaustion that escalated to software
    /// fallback (as opposed to an explicit caller-invoked fallback).
    #[inline]
    pub fn count_fallback_escalation(&self) {
        self.0.fallback_escalations.inc();
    }

    /// Records the backoff length (in virtual polls) applied before a
    /// retry or retransmit.
    #[inline]
    pub fn observe_backoff(&self, polls: u64) {
        self.0.backoff_polls.record(polls);
    }

    /// Zeroes every instrument in place (and empties the span ring): the
    /// handle reads as a new one does, and every clone of it stays attached.
    pub(crate) fn reset(&self) {
        self.0.registry.reset();
        #[cfg(feature = "trace-events")]
        self.0.spans.clear();
    }

    /// The underlying registry (for embedding into a larger exporter).
    pub fn registry(&self) -> &Registry {
        &self.0.registry
    }

    /// Copies out all service metrics.
    pub fn snapshot(&self) -> RegistrySnapshot {
        self.0.registry.snapshot()
    }

    /// Stamps a `retransmitted{attempt}` lifecycle span on wire packet
    /// `seq` (no-op unless `trace-events` is on). Ring overflow is
    /// accounted in `dpa_span_dropped_total`.
    #[inline]
    pub fn span_retransmitted(&self, seq: u64, attempt: u32) {
        #[cfg(feature = "trace-events")]
        if self
            .0
            .spans
            .push(seq, otm_metrics::SpanKind::Retransmitted { attempt })
        {
            self.0.span_dropped.inc();
        }
        #[cfg(not(feature = "trace-events"))]
        let _ = (seq, attempt);
    }

    /// Stamps a `fell_back` lifecycle span on `subject` — a message
    /// being replayed into the software matcher during fallback (no-op
    /// unless `trace-events` is on).
    #[inline]
    pub fn span_fell_back(&self, subject: u64) {
        #[cfg(feature = "trace-events")]
        if self.0.spans.push(subject, otm_metrics::SpanKind::FellBack) {
            self.0.span_dropped.inc();
        }
        #[cfg(not(feature = "trace-events"))]
        let _ = subject;
    }

    /// [`ServiceMetrics::span_fell_back`] for a *receive* handle: the
    /// subject is namespaced with [`otm_metrics::RECV_SUBJECT_BIT`] so
    /// it cannot collide with a message sharing the same raw id.
    #[inline]
    pub fn span_fell_back_recv(&self, recv: u64) {
        #[cfg(feature = "trace-events")]
        self.span_fell_back(otm_metrics::RECV_SUBJECT_BIT | recv);
        #[cfg(not(feature = "trace-events"))]
        let _ = recv;
    }

    /// The service's lifecycle span recorder.
    #[cfg(feature = "trace-events")]
    pub fn spans(&self) -> &otm_metrics::SpanRecorder {
        &self.0.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_gauges_track_current_and_peak() {
        let m = ServiceMetrics::new();
        m.observe_queues(5, 3, 1);
        m.observe_queues(2, 7, 0);
        let snap = m.snapshot();
        assert_eq!(snap.gauges["dpa_cq_depth"], 2, "gauge follows the last set");
        assert_eq!(
            snap.gauges["dpa_cq_depth_peak"], 5,
            "peak is a high-water mark"
        );
        assert_eq!(snap.gauges["dpa_bounce_in_use"], 7);
        assert_eq!(snap.gauges["dpa_bounce_in_use_peak"], 7);
        assert_eq!(snap.gauges["dpa_unexpected_depth"], 0);
    }

    #[test]
    fn a_clone_is_one_more_reference_to_the_same_instruments() {
        let m = ServiceMetrics::new();
        let clones: Vec<ServiceMetrics> = (0..3).map(|_| m.clone()).collect();
        assert_eq!(Arc::strong_count(&m.0), 1 + clones.len());
        clones[2].count_ack();
        assert_eq!(m.snapshot().counters["dpa_acks_total"], 1);
        drop(clones);
        assert_eq!(Arc::strong_count(&m.0), 1);
    }

    #[test]
    fn a_reset_handle_reads_as_new_through_every_clone() {
        let m = ServiceMetrics::new();
        let attached = m.clone();
        attached.add_retransmits(30);
        attached.observe_queues(5, 3, 1);
        attached.observe_backoff(8);
        m.reset();
        assert_eq!(attached.snapshot(), ServiceMetrics::new().snapshot());
        attached.count_ack();
        assert_eq!(m.snapshot().counters["dpa_acks_total"], 1);
    }

    #[test]
    fn pressure_counters_accumulate() {
        let m = ServiceMetrics::new();
        m.count_poll();
        m.count_poll();
        m.add_completions(4);
        m.count_spill();
        m.count_fallback();
        let snap = m.snapshot();
        assert_eq!(snap.counters["dpa_cq_polls_total"], 2);
        assert_eq!(snap.counters["dpa_completions_total"], 4);
        assert_eq!(snap.counters["dpa_bounce_spills_total"], 1);
        assert_eq!(snap.counters["dpa_fallbacks_total"], 1);
    }

    #[test]
    fn fault_and_reliability_instruments_accumulate() {
        let m = ServiceMetrics::new();
        m.count_wire_drop();
        m.count_wire_dup();
        m.count_wire_reorder();
        m.count_wire_delay();
        m.count_rx_duplicate();
        m.count_rx_gap();
        m.count_rx_staged();
        m.count_rx_staged();
        m.count_rx_stage_overflow();
        m.count_ack();
        m.add_retransmits(3);
        m.count_drain_retry();
        m.count_fallback_escalation();
        m.observe_backoff(4);
        m.observe_backoff(8);
        let snap = m.snapshot();
        assert_eq!(snap.counters["dpa_wire_drops_total"], 1);
        assert_eq!(snap.counters["dpa_wire_dups_total"], 1);
        assert_eq!(snap.counters["dpa_wire_reorders_total"], 1);
        assert_eq!(snap.counters["dpa_wire_delays_total"], 1);
        assert_eq!(snap.counters["dpa_rx_duplicates_total"], 1);
        assert_eq!(snap.counters["dpa_rx_gaps_total"], 1);
        assert_eq!(snap.counters["dpa_rx_staged_total"], 2);
        assert_eq!(snap.counters["dpa_rx_stage_overflow_total"], 1);
        assert_eq!(snap.counters["dpa_acks_total"], 1);
        assert_eq!(snap.counters["dpa_retransmits_total"], 3);
        assert_eq!(snap.counters["dpa_drain_retries_total"], 1);
        assert_eq!(snap.counters["dpa_fallback_escalations_total"], 1);
        let hist = &snap.hists["dpa_backoff_polls"];
        assert_eq!(hist.count, 2);
        assert_eq!(hist.sum, 12);
    }

    #[cfg(feature = "trace-events")]
    #[test]
    fn service_spans_capture_reliability_events() {
        let m = ServiceMetrics::new();
        m.span_retransmitted(9, 1);
        m.span_fell_back(4);
        let spans = m.spans().dump();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].subject, 9);
        assert_eq!(
            spans[0].kind,
            otm_metrics::SpanKind::Retransmitted { attempt: 1 }
        );
        assert_eq!(spans[1].subject, 4);
        assert_eq!(spans[1].kind, otm_metrics::SpanKind::FellBack);
        let snap = m.snapshot();
        assert_eq!(snap.counters["dpa_span_dropped_total"], 0);
    }
}
