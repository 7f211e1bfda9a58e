//! Service observability.
//!
//! [`ServiceMetrics`] is the matching service's handle to the `otm-metrics`
//! registry: queue-depth gauges (CQ backlog, bounce-pool occupancy,
//! unexpected-store size) with their peak twins, the counts that have no
//! other record, and, with the `trace-events` feature, the service's
//! lifecycle span recorder (retransmissions, fallback replays).
//!
//! A count with an owner that keeps it in a plain field is not pushed here:
//! [`crate::MatchingService::observability_snapshot`] reads it from that
//! field — the poll clock (`dpa_cq_polls_total`), the fallback flag
//! (`dpa_fallbacks_total`), the NIC's [`crate::RxStats`]
//! (`dpa_rx_*_total`) and the wire's [`crate::WireFaultStats`]
//! (`dpa_wire_*_total`) — and the span ring's own drop count is
//! `dpa_span_dropped_total`. What is pushed has no such owner: completions
//! and bounce spills (counted per `progress`), drain retries, ring
//! backpressure and fallback escalations (per retry loop), and the
//! [`crate::ReliableSender`] counts, since a sender attaches to a service
//! it is not owned by: acks, retransmits (sampled into the series inside
//! `progress`) and the backoff histogram.

use otm_metrics::{Counter, Gauge, Histogram, Registry, RegistrySnapshot};
use std::sync::Arc;

/// Lifecycle span events retained before overwriting (retransmissions
/// and fallback replays are rare next to matches, so the service ring
/// can stay small).
#[cfg(feature = "trace-events")]
const SPAN_CAPACITY: usize = 64 * 1024;

/// Handle to the service's metric instruments: one `Arc`, so attaching it to
/// a sender is one reference-count increment.
#[derive(Debug, Clone)]
pub struct ServiceMetrics(Arc<Instruments>);

/// The instruments themselves, resolved from the registry once.
#[derive(Debug)]
struct Instruments {
    registry: Registry,
    completions: Arc<Counter>,
    bounce_spills: Arc<Counter>,
    cq_depth: Arc<Gauge>,
    cq_depth_peak: Arc<Gauge>,
    bounce_in_use: Arc<Gauge>,
    bounce_in_use_peak: Arc<Gauge>,
    unexpected_depth: Arc<Gauge>,
    acks: Arc<Counter>,
    retransmits: Arc<Counter>,
    drain_retries: Arc<Counter>,
    ring_backpressure: Arc<Counter>,
    fallback_escalations: Arc<Counter>,
    backoff_polls: Arc<Histogram>,
    #[cfg(feature = "trace-events")]
    spans: Arc<otm_metrics::SpanRecorder>,
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
            completions: registry.counter("dpa_completions_total"),
            bounce_spills: registry.counter("dpa_bounce_spills_total"),
            cq_depth: registry.gauge("dpa_cq_depth"),
            cq_depth_peak: registry.gauge("dpa_cq_depth_peak"),
            bounce_in_use: registry.gauge("dpa_bounce_in_use"),
            bounce_in_use_peak: registry.gauge("dpa_bounce_in_use_peak"),
            unexpected_depth: registry.gauge("dpa_unexpected_depth"),
            acks: registry.counter("dpa_acks_total"),
            retransmits: registry.counter("dpa_retransmits_total"),
            drain_retries: registry.counter("dpa_drain_retries_total"),
            ring_backpressure: registry.counter("dpa_ring_backpressure_total"),
            fallback_escalations: registry.counter("dpa_fallback_escalations_total"),
            backoff_polls: registry.histogram("dpa_backoff_polls"),
            #[cfg(feature = "trace-events")]
            spans: Arc::new(otm_metrics::SpanRecorder::new(SPAN_CAPACITY)),
            registry,
        }))
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

    /// Updates the queue-depth gauges and their peak twins.
    #[inline]
    pub fn observe_queues(&self, cq: usize, bounce: usize, unexpected: usize) {
        self.0.cq_depth.set(cq as i64);
        self.0.cq_depth_peak.set_max(cq as i64);
        self.0.bounce_in_use.set(bounce as i64);
        self.0.bounce_in_use_peak.set_max(bounce as i64);
        self.0.unexpected_depth.set(unexpected as i64);
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

    /// Zeroes every instrument in place (and resets the span ring): the
    /// handle reads as a new one does, and every clone of it stays attached.
    pub(crate) fn reset(&self) {
        self.0.registry.reset();
        #[cfg(feature = "trace-events")]
        self.0.spans.reset();
    }

    /// Copies out the registry: the pushed half of
    /// [`crate::MatchingService::observability_snapshot`].
    pub(crate) fn snapshot(&self) -> RegistrySnapshot {
        self.0.registry.snapshot()
    }

    /// Stamps a `retransmitted{attempt}` lifecycle span on wire packet
    /// `seq` (no-op unless `trace-events` is on). Ring overflow is
    /// accounted in `dpa_span_dropped_total`.
    #[inline]
    pub fn span_retransmitted(&self, seq: u64, attempt: u32) {
        #[cfg(feature = "trace-events")]
        self.0
            .spans
            .push(seq, otm_metrics::SpanKind::Retransmitted { attempt });
        #[cfg(not(feature = "trace-events"))]
        let _ = (seq, attempt);
    }

    /// Stamps a `fell_back` lifecycle span on `subject` — a message
    /// being replayed into the software matcher during fallback (no-op
    /// unless `trace-events` is on).
    #[inline]
    pub fn span_fell_back(&self, subject: u64) {
        #[cfg(feature = "trace-events")]
        self.0.spans.push(subject, otm_metrics::SpanKind::FellBack);
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
        m.add_completions(4);
        m.count_spill();
        let snap = m.snapshot();
        assert_eq!(snap.counters["dpa_completions_total"], 4);
        assert_eq!(snap.counters["dpa_bounce_spills_total"], 1);
    }

    #[test]
    fn fault_and_reliability_instruments_accumulate() {
        let m = ServiceMetrics::new();
        m.count_ack();
        m.add_retransmits(3);
        m.count_drain_retry();
        m.count_fallback_escalation();
        m.observe_backoff(4);
        m.observe_backoff(8);
        let snap = m.snapshot();
        assert_eq!(snap.counters["dpa_acks_total"], 1);
        assert_eq!(snap.counters["dpa_retransmits_total"], 3);
        assert_eq!(snap.counters["dpa_drain_retries_total"], 1);
        assert_eq!(snap.counters["dpa_fallback_escalations_total"], 1);
        let hist = &snap.hists["dpa_backoff_polls"];
        assert_eq!(hist.count, 2);
        assert_eq!(hist.sum, 12);
    }

    /// The ten service, NIC and wire names of `service`'s snapshot, each
    /// against the field of its owner.
    fn assert_service_counts_read_their_owners(service: &crate::MatchingService) {
        let snap = service.observability_snapshot();
        let (rx, wire) = (
            service.nic().rx_stats(),
            service.nic().wire_fault_stats().unwrap_or_default(),
        );
        for (name, field) in [
            ("dpa_rx_duplicates_total", rx.duplicates),
            ("dpa_rx_gaps_total", rx.gaps),
            ("dpa_rx_staged_total", rx.staged_out_of_order),
            ("dpa_rx_stage_overflow_total", rx.stage_overflow),
            ("dpa_wire_drops_total", wire.drops),
            ("dpa_wire_dups_total", wire.duplicates),
            ("dpa_wire_reorders_total", wire.reorders),
            ("dpa_wire_delays_total", wire.delays),
            ("dpa_cq_polls_total", service.polls()),
            ("dpa_fallbacks_total", u64::from(service.fell_back())),
        ] {
            assert_eq!(snap.counters[name], field, "{name}");
        }
    }

    #[test]
    fn every_count_of_the_snapshot_reads_its_owners_field() {
        use crate::bounce::BouncePool;
        use crate::matchd::{MatchServer, MatchdConfig, TenantConfig};
        use crate::memory::DeviceMemory;
        use crate::nic::RecvNic;
        use crate::rdma::{connected_pair, eager_packet, RdmaDomain};
        use crate::{MatchingService, ReliableSender};
        use otm_base::{CommId, Envelope, FaultPlan, MatchConfig, Rank, ReceivePattern, Tag};

        // A service over a hostile wire with one staging slot, so gaps and
        // overflow fire too, and a table too small for every receive, so it
        // falls back to software matching on the way.
        let (tx, rx) = connected_pair();
        let mut nic = RecvNic::new(rx, BouncePool::new(256, 64));
        nic.set_staging_capacity(1);
        nic.set_faults(
            FaultPlan::new(0x0b00c)
                .with_drop_permille(100)
                .with_duplicate_permille(80)
                .with_reorder_permille(80)
                .with_reorder_window(4)
                .with_delay_permille(80)
                .with_delay_polls(2),
        );
        let config = MatchConfig::small().with_max_receives(48);
        let mut budget = DeviceMemory::bluefield3_l3();
        let mut svc =
            MatchingService::offloaded(nic, RdmaDomain::new(), config.clone(), &mut budget)
                .unwrap();
        let mut sender = ReliableSender::new(tx);
        let n = 64u32;
        let (mut sent, mut done) = (0u32, 0usize);
        for _ in 0..10_000 {
            while sent < n && sender.can_send() {
                svc.post_recv(ReceivePattern::exact(Rank(0), Tag(sent)))
                    .unwrap();
                let env = Envelope::world(Rank(0), Tag(n - 1 - sent));
                sender.send(eager_packet(env, vec![sent as u8])).unwrap();
                sent += 1;
            }
            done += svc.progress().unwrap();
            sender.poll().unwrap();
            if done == n as usize && sender.unacked() == 0 {
                break;
            }
        }
        assert_eq!(done, n as usize);
        let (rx, wire) = (svc.nic().rx_stats(), svc.nic().wire_fault_stats().unwrap());
        for (what, count) in [
            ("duplicates", rx.duplicates),
            ("gaps", rx.gaps),
            ("staged", rx.staged_out_of_order),
            ("overflow", rx.stage_overflow),
            ("drops", wire.drops),
            ("dups", wire.duplicates),
            ("reorders", wire.reorders),
            ("delays", wire.delays),
        ] {
            assert!(count > 0, "the run never saw {what}");
        }
        assert!(svc.fell_back());
        assert_service_counts_read_their_owners(&svc);
        svc.rearm(|| Box::new(otm::OtmEngine::new(config).unwrap()));
        svc.nic_mut().rearm(1);
        assert_service_counts_read_their_owners(&svc);
        let snap = svc.observability_snapshot();
        assert!(snap.counters.values().all(|&v| v == 0), "{snap:?}");

        // A matchd flood: tenant 0's tight ingress backpressures it, and one
        // post off tenant 1's communicator is rejected.
        let mut server = MatchServer::new(MatchConfig::small(), MatchdConfig::default()).unwrap();
        let sessions = [(2, 1), (64, 8)].map(|(capacity, quantum)| {
            server.open_tenant_with(TenantConfig {
                capacity,
                quantum,
                comm: Some(CommId(server.tenant_count() as u16 + 1)),
            })
        });
        for round in 0..8u32 {
            for session in &sessions {
                let (src, comm) = (Rank(session.tenant().0 as u32), session.comm().unwrap());
                for i in 0..3 {
                    let tag = Tag(round * 3 + i);
                    session.submit_post(ReceivePattern::new(src, tag, comm));
                    session.submit_send(tag, vec![i as u8]);
                }
            }
            server.tick().unwrap();
        }
        let foreign = ReceivePattern::new(Rank(1), Tag(0), CommId(1));
        assert!(!sessions[1].submit_post(foreign).is_admitted());
        let (flooder, well) = (sessions[0].stats(), sessions[1].stats());
        assert!(flooder.backpressured > 0 && flooder.ingress_depth > 0);
        assert_eq!((well.rejected, well.backpressured), (1, 0));
        assert!(well.drained > 0 && well.completed > 0);
        let snap = server.observability_snapshot();
        for session in &sessions {
            let (t, stats) = (session.tenant(), session.stats());
            for (name, field) in [
                ("admitted", stats.admitted),
                ("backpressured", stats.backpressured),
                ("rejected", stats.rejected),
                ("drained", stats.drained),
                ("completions", stats.completed),
            ] {
                let key = format!("matchd_{name}_total{{tenant=\"{t}\"}}");
                assert_eq!(snap.counters[&key], field, "{key}");
            }
            let key = format!("matchd_ingress_depth{{tenant=\"{t}\"}}");
            assert_eq!(snap.gauges[&key], stats.ingress_depth as i64, "{key}");
        }
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
        assert_eq!(m.spans().dropped(), 0);
    }
}
