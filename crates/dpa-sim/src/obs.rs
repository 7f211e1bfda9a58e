//! Service observability.
//!
//! `ServiceCounts` is the matching service's own record of what has no
//! other owner: completions and bounce spills (counted per `progress`),
//! drain retries, ring backpressure and fallback escalations (per retry
//! loop), the three queue-depth gauges (CQ backlog, bounce-pool occupancy,
//! unexpected-store size) with the high-water marks of the first two, and
//! the drain-retry backoff histogram. It is a plain field of the service,
//! updated through `&mut self`; with `trace-events` the service also owns a
//! span ring of its fallback replays.
//!
//! [`crate::MatchingService::observability_snapshot`] builds the registry
//! snapshot from these fields and from the fields other owners keep: the
//! poll clock (`dpa_cq_polls_total`), the fallback flag
//! (`dpa_fallbacks_total`), the NIC's [`crate::RxStats`] (`dpa_rx_*_total`),
//! the wire's [`crate::WireFaultStats`] (`dpa_wire_*_total`), and the span
//! ring's own drop count (`dpa_span_dropped_total`).
//!
//! A [`crate::ReliableSender`] counts in its own [`crate::ReliabilityStats`],
//! its own histogram of timeout lengths and, with `trace-events`, its own
//! span ring of retransmissions; [`crate::ReliableSender::observability_snapshot`]
//! reads them under `dpa_acks_total`, `dpa_retransmits_total` and
//! `dpa_backoff_polls`. The service does not own its senders, so its
//! snapshot does not list the two counters; the loops that own the service
//! and every sender (`replay_app`'s endpoints) merge the senders' snapshots
//! into it. [`ServiceMetrics`] is what is left of the shared instrument
//! handle: an inert shim.

use otm_metrics::{HistogramSnapshot, RegistrySnapshot};

/// Lifecycle span events a service or a sender retains before overwriting
/// (retransmissions and fallback replays are rare next to matches, so the
/// rings can stay small).
#[cfg(feature = "trace-events")]
pub(crate) const SPAN_CAPACITY: usize = 64 * 1024;

/// An inert stand-in for the shared instrument handle the service no longer
/// has: [`crate::MatchingService::metrics`] hands it out and
/// [`crate::ReliableSender::attach_metrics`] drops it, since every count is
/// a field of the one thing that updates it (see the module docs). The
/// benchmark package still names both; they go with
/// [`crate::MatchingService::enable_command_queue`] (ROADMAP item 1).
#[derive(Debug, Clone)]
pub struct ServiceMetrics;

/// The service's own counts, gauges and histogram (see the module docs).
#[derive(Debug, Default, PartialEq)]
pub(crate) struct ServiceCounts {
    /// Receives completed (`dpa_completions_total`).
    pub completions: u64,
    /// Polls that ran out of bounce buffers: a message had to wait on the
    /// wire because NIC staging memory ran out (`dpa_bounce_spills_total`).
    pub bounce_spills: u64,
    /// Retries of a failed command-queue drain (`dpa_drain_retries_total`).
    pub drain_retries: u64,
    /// Submissions a full per-communicator ring refused; the service drained
    /// inline and retried (`dpa_ring_backpressure_total`).
    pub ring_backpressure: u64,
    /// Retry budgets exhausted into a software fallback, as opposed to an
    /// explicit one (`dpa_fallback_escalations_total`).
    pub fallback_escalations: u64,
    /// Backoff lengths, in virtual polls, recorded before each drain retry
    /// (`dpa_backoff_polls`).
    pub backoff_polls: HistogramSnapshot,
    /// Queue depths at the last observation, and the high-water marks of
    /// the first two.
    cq_depth: u64,
    cq_depth_peak: u64,
    bounce_in_use: u64,
    bounce_in_use_peak: u64,
    unexpected_depth: u64,
}

impl ServiceCounts {
    /// Sets the queue-depth gauges and raises their peaks.
    #[inline]
    pub fn observe_queues(&mut self, cq: usize, bounce: usize, unexpected: usize) {
        (self.cq_depth, self.bounce_in_use) = (cq as u64, bounce as u64);
        self.unexpected_depth = unexpected as u64;
        self.cq_depth_peak = self.cq_depth_peak.max(self.cq_depth);
        self.bounce_in_use_peak = self.bounce_in_use_peak.max(self.bounce_in_use);
    }

    /// The counts, gauges and histogram under their registry names.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut snap = RegistrySnapshot::default();
        for (name, n) in [
            ("dpa_completions_total", self.completions),
            ("dpa_bounce_spills_total", self.bounce_spills),
            ("dpa_drain_retries_total", self.drain_retries),
            ("dpa_ring_backpressure_total", self.ring_backpressure),
            ("dpa_fallback_escalations_total", self.fallback_escalations),
        ] {
            snap.counters.insert(name.to_string(), n);
        }
        for (name, depth) in [
            ("dpa_cq_depth", self.cq_depth),
            ("dpa_cq_depth_peak", self.cq_depth_peak),
            ("dpa_bounce_in_use", self.bounce_in_use),
            ("dpa_bounce_in_use_peak", self.bounce_in_use_peak),
            ("dpa_unexpected_depth", self.unexpected_depth),
        ] {
            snap.gauges.insert(name.to_string(), depth as i64);
        }
        snap.hists
            .insert("dpa_backoff_polls".to_string(), self.backoff_polls.clone());
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_gauges_track_current_and_peak() {
        let mut m = ServiceCounts::default();
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
    fn pressure_counters_accumulate() {
        let mut m = ServiceCounts::default();
        m.completions += 4;
        m.bounce_spills += 1;
        let snap = m.snapshot();
        assert_eq!(snap.counters["dpa_completions_total"], 4);
        assert_eq!(snap.counters["dpa_bounce_spills_total"], 1);
    }

    #[test]
    fn fault_and_reliability_instruments_accumulate() {
        let mut m = ServiceCounts::default();
        m.drain_retries += 1;
        m.fallback_escalations += 1;
        m.backoff_polls.record_all([4, 8]);
        let snap = m.snapshot();
        assert_eq!(snap.counters["dpa_drain_retries_total"], 1);
        assert_eq!(snap.counters["dpa_fallback_escalations_total"], 1);
        let hist = &snap.hists["dpa_backoff_polls"];
        assert_eq!(hist.count, 2);
        assert_eq!(hist.sum, 12);
        // The senders count their own acks and retransmits.
        assert!(!snap.counters.contains_key("dpa_acks_total"));
        assert!(!snap.counters.contains_key("dpa_retransmits_total"));
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
        use crate::bounce::BouncePool;
        use crate::nic::RecvNic;
        use crate::rdma::RdmaDomain;
        use otm_metrics::{SpanKind, RECV_SUBJECT_BIT};

        let nic = RecvNic::unconnected(BouncePool::new(1, 64));
        let mut svc = crate::MatchingService::mpi_cpu(nic, RdmaDomain::new());
        svc.span_fell_back(4);
        svc.span_fell_back(RECV_SUBJECT_BIT | 9);
        let spans = svc.span_recorder().dump();
        let stamped: Vec<(u64, SpanKind)> = spans.iter().map(|s| (s.subject, s.kind)).collect();
        assert_eq!(
            stamped,
            [
                (4, SpanKind::FellBack),
                (RECV_SUBJECT_BIT | 9, SpanKind::FellBack)
            ]
        );
        assert_eq!(svc.span_recorder().dropped(), 0);
    }
}
