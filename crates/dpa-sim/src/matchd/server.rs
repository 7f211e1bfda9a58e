//! The `matchd` server: a long-lived, multi-tenant owner of one matching
//! service.
//!
//! The server wraps a [`MatchingService`] (and through it the sharded
//! offloaded engine) and runs a deterministic virtual-time **tick loop**.
//! One [`MatchServer::tick`] is one scheduling round:
//!
//! 1. **fair drain** — a deficit-round-robin pass over the tenants moves
//!    admitted requests from each bounded ingress queue into the engine
//!    (posts under the handles minted at admission, through
//!    [`MatchingService::post_recv_queued_reserved`], sends onto the
//!    loopback wire), at most `deficit` per tenant per round;
//! 2. **progress** — one [`MatchingService::progress`] call polls the NIC
//!    and drains the engine's command queue (where the per-lane quota of
//!    [`otm_base::MatchConfig::lane_quota`] keeps cross-communicator blocks
//!    fair *inside* the engine);
//! 3. **completion delivery** — completed receives are routed back to their
//!    tenants by the namespace bits of their handles;
//! 4. **observation** — at the series cadence, the service's sample and,
//!    for each tenant, its ingress depth and completions: the server owns
//!    the service and every tenant's state, so it samples them.
//!
//! A tenant is an index into the server's tenant table ([`TenantId`]),
//! and every tenant operation is a server method on `&mut self`: one
//! owner, no handle to share and nothing to lock.
//!
//! Fairness composes across the two layers: DRR bounds how many of a
//! flooding tenant's requests *enter* the engine per tick, and the lane
//! quota bounds how much of each optimistic block the flooder's lane can
//! own once inside. A well-behaved tenant's ingress therefore keeps
//! draining at its own quantum no matter how hard a neighbour floods — the
//! flooder's excess lands on its *own* bounded ingress and is answered with
//! [`Admission::Backpressured`].
//!
//! Virtual time is the tick counter (which advances the service's poll
//! clock in lockstep), so a given submission schedule replays identically —
//! the same determinism contract as the rest of the simulator.

use super::tenant::{Admission, Tenant, TenantId, TenantRequest, TenantSeries, TenantStats};
use crate::bounce::BouncePool;
use crate::memory::DeviceMemory;
use crate::nic::RecvNic;
use crate::rdma::{connected_pair, eager_packet, QueuePair, RdmaDomain};
use crate::service::{CompletedReceive, MatchingService, ServiceError};
use mpi_matching::RecvHandle;
use otm_base::{CommId, Envelope, MatchConfig, MatchError, Rank, ReceivePattern, Tag};
use otm_metrics::labelled;

/// Per-tenant knobs applied at [`MatchServer::open_tenant_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantConfig {
    /// Ingress bound: submissions beyond it are backpressured.
    pub capacity: usize,
    /// DRR quantum: requests drained per scheduling round.
    pub quantum: usize,
    /// Pin the session to this communicator (posts on any other are
    /// rejected, sends are stamped with it). `None` leaves the session
    /// unpinned — world traffic, no isolation check.
    pub comm: Option<CommId>,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            capacity: 1024,
            quantum: 64,
            comm: None,
        }
    }
}

/// Server-wide knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchdConfig {
    /// Defaults for [`MatchServer::open_tenant`].
    pub tenant: TenantConfig,
    /// Deficit cap, in quanta: how much unused credit an idle-then-bursty
    /// tenant may bank. Bounds the burst one tenant can inject in a single
    /// round after saving up.
    pub deficit_cap_quanta: u64,
}

impl Default for MatchdConfig {
    fn default() -> Self {
        MatchdConfig {
            tenant: TenantConfig::default(),
            deficit_cap_quanta: 4,
        }
    }
}

/// What one [`MatchServer::tick`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickReport {
    /// The tick's ordinal (1-based).
    pub(crate) tick: u64,
    /// Requests the fair drain moved out of tenant ingress queues.
    pub drained: usize,
    /// Receives completed by this tick's progress call.
    pub(crate) completed: usize,
}

/// The long-lived multi-tenant matching server (see module docs).
pub struct MatchServer {
    service: MatchingService,
    /// Loopback wire into the service's NIC, for tenant self-sends.
    wire: QueuePair,
    /// Every tenant's state; a [`TenantId`] is an index here.
    tenants: Vec<Tenant>,
    config: MatchdConfig,
    ticks: u64,
    /// The service's series, sampled on its poll clock; its cadence is the
    /// tenants' too.
    series: Option<otm_metrics::SeriesRecorder>,
    /// The tick at which the tenants' next series point falls due.
    tenants_due: u64,
}

impl MatchServer {
    /// A standalone server: builds its own loopback wire, NIC and offloaded
    /// engine from `match_config` (charged against a fresh BlueField-3
    /// budget).
    pub fn new(match_config: MatchConfig, config: MatchdConfig) -> Result<Self, MatchError> {
        let (tx, rx) = connected_pair();
        let nic = RecvNic::new(
            rx,
            BouncePool::new(1024, mpi_matching::protocol::DEFAULT_EAGER_THRESHOLD),
        );
        let mut budget = DeviceMemory::bluefield3_l3();
        let service =
            MatchingService::offloaded(nic, RdmaDomain::new(), match_config, &mut budget)?;
        Ok(Self::with_service(service, tx, config))
    }

    /// Adopts an existing service. `wire` is a send endpoint into the
    /// service's NIC, used for tenant self-sends.
    pub fn with_service(service: MatchingService, wire: QueuePair, config: MatchdConfig) -> Self {
        MatchServer {
            service,
            wire,
            tenants: Vec::new(),
            config,
            ticks: 0,
            series: None,
            tenants_due: 0,
        }
    }

    /// Opens a tenant with the server-default [`TenantConfig`].
    pub fn open_tenant(&mut self) -> Option<TenantId> {
        self.open_tenant_with(self.config.tenant)
    }

    /// Opens a tenant with explicit knobs. Tenant ids are assigned in open
    /// order, starting at 0; `None` once the server holds 65,535 tenants,
    /// the most whose handle namespaces stay disjoint.
    pub fn open_tenant_with(&mut self, tenant: TenantConfig) -> Option<TenantId> {
        let id = TenantId::from_index(self.tenants.len())?;
        self.tenants.push(Tenant::new(tenant));
        Some(id)
    }

    /// The wrapped service (engine stats, backend name, NIC access).
    pub fn service(&self) -> &MatchingService {
        &self.service
    }

    /// A tenant's state. Panics on an id this server never handed out.
    fn tenant(&mut self, tenant: TenantId) -> &mut Tenant {
        &mut self.tenants[usize::from(tenant.0)]
    }

    /// Submits a receive post for `tenant`. On admission the receive's
    /// handle — minted in the tenant's namespace — is returned immediately;
    /// the post reaches the engine when the fair drain schedules it.
    pub fn submit_post(
        &mut self,
        tenant: TenantId,
        pattern: ReceivePattern,
    ) -> Admission<RecvHandle> {
        let t = self.tenant(tenant);
        if let Some(refused) = t.refusal(t.comm.is_some_and(|comm| pattern.comm != comm)) {
            return refused;
        }
        let handle = tenant.handle(t.next_seq);
        t.next_seq += 1;
        t.push(TenantRequest::Post { pattern, handle });
        Admission::Admitted(handle)
    }

    /// Submits an eager message from `tenant` addressed to this server
    /// (source rank = the tenant id, communicator = the tenant's pin, or
    /// world when unpinned). The payload goes onto the server's loopback
    /// wire when the fair drain schedules it.
    pub fn submit_send(&mut self, tenant: TenantId, tag: Tag, payload: Vec<u8>) -> Admission<()> {
        let t = self.tenant(tenant);
        if let Some(refused) = t.refusal(false) {
            return refused;
        }
        let src = Rank(u32::from(tenant.0));
        let env = match t.comm {
            Some(comm) => Envelope::new(src, tag, comm),
            None => Envelope::world(src, tag),
        };
        t.push(TenantRequest::Send { env, payload });
        Admission::Admitted(())
    }

    /// Takes every completion the server has delivered to `tenant` so far,
    /// oldest first.
    pub fn take_completions(&mut self, tenant: TenantId) -> Vec<CompletedReceive> {
        std::mem::take(&mut self.tenant(tenant).completions)
    }

    /// A snapshot of `tenant`'s counters.
    pub fn tenant_stats(&self, tenant: TenantId) -> TenantStats {
        self.tenants[usize::from(tenant.0)].stats()
    }

    /// The communicator `tenant` is pinned to, if any.
    pub fn tenant_comm(&self, tenant: TenantId) -> Option<CommId> {
        self.tenants[usize::from(tenant.0)].comm
    }

    /// Closes `tenant`: subsequent submissions are rejected. Requests
    /// already admitted still drain, and completions remain collectable.
    pub fn close_tenant(&mut self, tenant: TenantId) {
        self.tenant(tenant).closed = true;
    }

    /// One scheduling round (see module docs): fair drain → progress →
    /// completion delivery → observation.
    pub fn tick(&mut self) -> Result<TickReport, ServiceError> {
        self.ticks += 1;
        let mut drained = 0usize;
        let cap_quanta = self.config.deficit_cap_quanta.max(1);
        for t in &mut self.tenants {
            if t.ingress.is_empty() {
                // Classic DRR: an empty queue forfeits its credit, so idle
                // tenants cannot bank unbounded bursts.
                t.deficit = 0;
                continue;
            }
            let quantum = t.quantum as u64;
            t.deficit = (t.deficit + quantum).min(quantum * cap_quanta);
            // A round that takes the whole ingress forfeits the credit
            // beyond it.
            let take = (t.deficit as usize).min(t.ingress.len());
            if take == t.ingress.len() {
                t.deficit = take as u64;
            }
            // Drain accounting counts what was dispatched: a post bounced
            // by engine backpressure stays in the ingress with its credit.
            let mut dispatched = 0usize;
            while dispatched < take {
                match t.ingress.pop_front().expect("take <= ingress length") {
                    TenantRequest::Post { pattern, handle } => {
                        match self.service.post_recv_queued_reserved(pattern, handle) {
                            Ok(()) => {}
                            Err(ServiceError::Match(MatchError::SubmissionRingFull { .. })) => {
                                // The engine's per-communicator submission
                                // ring is full — retryable backpressure, not
                                // a failure. The bounced post goes back to
                                // the FRONT of the tenant's ingress (it stays
                                // oldest, so per-tenant order holds); this
                                // tick's progress call drains the ring, and
                                // until then the deeper ingress surfaces
                                // Admission::Backpressured with a retry hint
                                // to the tenant.
                                t.ingress
                                    .push_front(TenantRequest::Post { pattern, handle });
                                break;
                            }
                            Err(e) => return Err(e),
                        }
                    }
                    TenantRequest::Send { env, payload } => {
                        self.wire
                            .send(eager_packet(env, payload))
                            .map_err(ServiceError::Rdma)?;
                    }
                }
                dispatched += 1;
            }
            t.deficit -= dispatched as u64;
            t.stats.drained += dispatched as u64;
            drained += dispatched;
        }
        let completed = self.service.progress()?;
        self.deliver_completions();
        self.sample_series();
        Ok(TickReport {
            tick: self.ticks,
            drained,
            completed,
        })
    }

    /// Runs `n` ticks back to back.
    pub fn run_ticks(&mut self, n: u64) -> Result<(), ServiceError> {
        for _ in 0..n {
            self.tick()?;
        }
        Ok(())
    }

    /// Routes every completion the service produced to its tenant's
    /// outbox, by the namespace bits of the receive handle. A matchd
    /// server owns every post path, so a completion outside all tenant
    /// namespaces is a bug: it trips a debug assertion and is dropped
    /// rather than misdelivered.
    fn deliver_completions(&mut self) {
        for done in self.service.take_completed() {
            let tenant = TenantId::of_handle(done.recv)
                .and_then(|id| self.tenants.get_mut(usize::from(id.0)));
            let Some(tenant) = tenant else {
                debug_assert!(false, "completion {:?} of no open tenant", done.recv);
                continue;
            };
            tenant.stats.completed += 1;
            tenant.completions.push(done);
        }
    }

    /// The service's [`MatchingService::observability_snapshot`] with every
    /// tenant's counts read from its [`TenantStats`]:
    /// `matchd_{admitted,backpressured,rejected,drained,completions}_total`
    /// and the `matchd_ingress_depth` gauge, each labelled `{tenant}`.
    /// Readable between any two ticks.
    pub fn observability_snapshot(&self) -> otm_metrics::RegistrySnapshot {
        let mut snap = self.service.observability_snapshot();
        for (tenant, t) in self.tenants.iter().enumerate() {
            let stats = t.stats();
            for (name, n) in [
                ("matchd_admitted_total", stats.admitted),
                ("matchd_backpressured_total", stats.backpressured),
                ("matchd_rejected_total", stats.rejected),
                ("matchd_drained_total", stats.drained),
                ("matchd_completions_total", stats.completed),
            ] {
                snap.counters.insert(labelled(name, "tenant", tenant), n);
            }
            let depth = stats.ingress_depth as i64;
            snap.gauges
                .insert(labelled("matchd_ingress_depth", "tenant", tenant), depth);
        }
        snap
    }

    /// Attaches time-series sampling at `cadence`: the service's series on
    /// its poll clock, and each tenant's [`TenantSeries`] on the tick
    /// clock, from the next tick on.
    pub fn attach_series(&mut self, cadence: u64) {
        self.series = Some(otm_metrics::SeriesRecorder::new(cadence));
        self.tenants_due = 0;
    }

    /// Samples every series that is due: the service's at its poll clock
    /// (its backlog and its snapshot), the tenants' at the tick.
    fn sample_series(&mut self) {
        let Some(series) = &mut self.series else {
            return;
        };
        let polls = self.service.polls();
        if series.due(polls) {
            let snap = self.service.observability_snapshot();
            series.sample(polls, self.service.backlog(), &snap);
        }
        if self.ticks >= self.tenants_due {
            self.tenants_due = self.ticks + series.cadence();
            for tenant in &mut self.tenants {
                tenant.sample(self.ticks);
            }
        }
    }

    /// Finishes the series: takes a terminal point on the service's and on
    /// every tenant's, detaches them and returns them — the service's
    /// series and one per tenant, indexed by tenant id. `None` when
    /// [`MatchServer::attach_series`] was never called.
    pub fn finish_series(&mut self) -> Option<(otm_metrics::SeriesRecorder, Vec<TenantSeries>)> {
        let mut series = self.series.take()?;
        let snap = self.service.observability_snapshot();
        series.force_sample(self.service.polls(), self.service.backlog(), &snap);
        let tenants = self.tenants.iter_mut().map(|tenant| {
            tenant.sample(self.ticks);
            std::mem::take(&mut tenant.series)
        });
        Some((series, tenants.collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MatchServer {
        /// Number of tenants opened so far.
        pub(crate) fn tenant_count(&self) -> usize {
            self.tenants.len()
        }
    }

    #[test]
    fn the_last_tenant_gets_its_completions_and_one_more_is_refused() {
        let mut server = MatchServer::new(MatchConfig::small(), MatchdConfig::default()).unwrap();
        let mut last = None;
        while let Some(tenant) = server.open_tenant() {
            last = Some(tenant);
        }
        let last = last.expect("a server opens tenants");
        assert_eq!(server.tenant_count(), usize::from(u16::MAX));
        assert_eq!(last, TenantId(u16::MAX - 1));
        let pattern = ReceivePattern::exact(Rank(u32::from(last.0)), Tag(1));
        let handle = server
            .submit_post(last, pattern)
            .expect_admitted("the last tenant posts");
        server
            .submit_send(last, Tag(1), vec![7])
            .expect_admitted("the last tenant sends");
        server.run_ticks(2).unwrap();
        let done = server.take_completions(last);
        assert_eq!(done.len(), 1, "the last tenant's completion reaches it");
        assert_eq!((done[0].recv, &done[0].data[..]), (handle, &[7u8][..]));
    }
}
