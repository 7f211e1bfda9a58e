//! The `matchd` server: a long-lived, multi-tenant owner of one matching
//! service.
//!
//! The server wraps a [`MatchingService`] (and through it the sharded
//! offloaded engine) and runs a deterministic virtual-time **tick loop**.
//! One [`MatchServer::tick`] is one scheduling round:
//!
//! 1. **fair drain** — a deficit-round-robin pass over the tenants moves
//!    admitted requests from each bounded ingress queue into the engine
//!    (posts through the reserved-handle session path of
//!    [`MatchingService::post_recv_queued_reserved`], sends onto the
//!    loopback wire), at most `deficit` per tenant per round;
//! 2. **progress** — one [`MatchingService::progress`] call polls the NIC
//!    and drains the engine's command queue (where the per-lane quota of
//!    [`otm_base::MatchConfig::lane_quota`] keeps cross-communicator blocks
//!    fair *inside* the engine);
//! 3. **completion delivery** — completed receives are routed back to their
//!    tenants by the namespace bits of their handles;
//! 4. **observation** — at the series cadence, a per-tenant sample lands
//!    next to the service's global one.
//!
//! Fairness composes across the two layers: DRR bounds how many of a
//! flooding tenant's requests *enter* the engine per tick, and the lane
//! quota bounds how much of each optimistic block the flooder's lane can
//! own once inside. A well-behaved tenant's ingress therefore keeps
//! draining at its own quantum no matter how hard a neighbour floods — the
//! flooder's excess lands on its *own* bounded ingress and is answered with
//! [`Admission::Backpressured`](super::tenant::Admission::Backpressured).
//!
//! Virtual time is the tick counter (which advances the service's poll
//! clock in lockstep), so a given submission schedule replays identically —
//! the same determinism contract as the rest of the simulator.

use super::tenant::{TenantId, TenantRequest, TenantSession, TenantShared, TenantStats};
use crate::bounce::BouncePool;
use crate::memory::DeviceMemory;
use crate::nic::RecvNic;
use crate::rdma::{connected_pair, eager_packet, QueuePair, RdmaDomain};
use crate::service::{MatchingService, ServiceError};
use otm_base::{CommId, MatchConfig, MatchError};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

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
    pub tick: u64,
    /// Requests the fair drain moved out of tenant ingress queues.
    pub drained: usize,
    /// Receives completed by this tick's progress call.
    pub completed: usize,
}

struct TenantEntry {
    id: TenantId,
    shared: Arc<Mutex<TenantShared>>,
    /// DRR credit carried between rounds (reset when the ingress empties).
    deficit: u64,
    series: Option<otm_metrics::SeriesRecorder>,
}

/// The long-lived multi-tenant matching server (see module docs).
pub struct MatchServer {
    service: MatchingService,
    /// Loopback wire into the service's NIC, for tenant self-sends.
    wire: QueuePair,
    tenants: Vec<TenantEntry>,
    config: MatchdConfig,
    ticks: u64,
    series_cadence: Option<u64>,
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
            series_cadence: None,
        }
    }

    /// Opens a tenant session with the server-default [`TenantConfig`].
    pub fn open_tenant(&mut self) -> TenantSession {
        self.open_tenant_with(self.config.tenant)
    }

    /// Opens a tenant session with explicit knobs. Tenant ids are assigned
    /// in open order, starting at 0.
    pub fn open_tenant_with(&mut self, tenant: TenantConfig) -> TenantSession {
        let id = TenantId(self.tenants.len() as u16);
        let shared = Arc::new(Mutex::new(TenantShared {
            ingress: VecDeque::new(),
            capacity: tenant.capacity.max(1),
            quantum: tenant.quantum.max(1),
            next_seq: 0,
            closed: false,
            stats: TenantStats::default(),
            completions: VecDeque::new(),
        }));
        self.tenants.push(TenantEntry {
            id,
            shared: Arc::clone(&shared),
            deficit: 0,
            series: self.series_cadence.map(otm_metrics::SeriesRecorder::new),
        });
        TenantSession {
            id,
            comm: tenant.comm,
            shared,
        }
    }

    /// Number of tenants opened so far.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// The server's virtual clock: completed ticks.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The wrapped service (engine stats, backend name, NIC access).
    pub fn service(&self) -> &MatchingService {
        &self.service
    }

    /// Mutable access to the wrapped service.
    pub fn service_mut(&mut self) -> &mut MatchingService {
        &mut self.service
    }

    /// One scheduling round (see module docs): fair drain → progress →
    /// completion delivery → observation.
    pub fn tick(&mut self) -> Result<TickReport, ServiceError> {
        self.ticks += 1;
        let mut drained = 0usize;
        let cap_quanta = self.config.deficit_cap_quanta.max(1);
        for i in 0..self.tenants.len() {
            // Pop this round's batch under the tenant lock, apply it after
            // dropping the lock (sessions submitting concurrently only ever
            // contend on the short pop). Drain accounting happens *after*
            // dispatch: a post bounced by engine backpressure is requeued
            // below and must not count as drained.
            let batch: Vec<TenantRequest> = {
                let entry = &mut self.tenants[i];
                let mut shared = entry.shared.lock().expect("tenant lock");
                if shared.ingress.is_empty() {
                    // Classic DRR: an empty queue forfeits its credit, so
                    // idle tenants cannot bank unbounded bursts.
                    entry.deficit = 0;
                    continue;
                }
                let quantum = shared.quantum as u64;
                entry.deficit = (entry.deficit + quantum).min(quantum * cap_quanta);
                let take = (entry.deficit as usize).min(shared.ingress.len());
                let batch: Vec<TenantRequest> = shared.ingress.drain(..take).collect();
                entry.deficit -= batch.len() as u64;
                if shared.ingress.is_empty() {
                    entry.deficit = 0;
                }
                batch
            };
            let mut batch: VecDeque<TenantRequest> = batch.into();
            let mut dispatched = 0usize;
            while let Some(req) = batch.pop_front() {
                match req {
                    TenantRequest::Post { pattern, handle } => {
                        match self.service.post_recv_queued_reserved(pattern, handle) {
                            Ok(()) => {}
                            Err(ServiceError::Match(MatchError::SubmissionRingFull { .. })) => {
                                // The engine's per-communicator submission
                                // ring is full — retryable backpressure, not
                                // a failure. The bounced post and the rest of
                                // the batch go back to the FRONT of the
                                // tenant's ingress (they stay oldest, so
                                // per-tenant order holds) with their DRR
                                // credit refunded; this tick's progress call
                                // drains the ring, and until then the deeper
                                // ingress surfaces Admission::Backpressured
                                // with a retry hint to the tenant.
                                batch.push_front(TenantRequest::Post { pattern, handle });
                                break;
                            }
                            Err(e) => return Err(e),
                        }
                        dispatched += 1;
                    }
                    TenantRequest::Send { env, payload } => {
                        self.wire
                            .send(eager_packet(env, payload))
                            .map_err(ServiceError::Rdma)?;
                        dispatched += 1;
                    }
                }
            }
            drained += dispatched;
            let entry = &mut self.tenants[i];
            entry.deficit += batch.len() as u64;
            let mut shared = entry.shared.lock().expect("tenant lock");
            for req in batch.into_iter().rev() {
                shared.ingress.push_front(req);
            }
            shared.stats.drained += dispatched as u64;
        }
        let completed = self.service.progress()?;
        self.deliver_completions();
        self.sample_tenant_series();
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
    /// namespaces is a bug (a caller bypassed the sessions): it trips a
    /// debug assertion and is dropped rather than misdelivered.
    fn deliver_completions(&mut self) {
        for done in self.service.take_completed() {
            let Some(tenant) = TenantId::of_handle(done.recv) else {
                debug_assert!(
                    false,
                    "completion {:?} outside tenant namespaces",
                    done.recv
                );
                continue;
            };
            let Some(entry) = self.tenants.get(tenant.0 as usize) else {
                debug_assert!(false, "completion for unknown tenant {tenant}");
                continue;
            };
            debug_assert_eq!(entry.id, tenant, "tenant ids are open-order indices");
            let mut shared = entry.shared.lock().expect("tenant lock");
            shared.stats.completed += 1;
            shared.completions.push_back(done);
        }
    }

    /// The service's [`MatchingService::observability_snapshot`] with every
    /// tenant's counts read from its [`TenantStats`]:
    /// `matchd_{admitted,backpressured,rejected,drained,completions}_total`
    /// and the `matchd_ingress_depth` gauge, each labelled `{tenant}`.
    /// Readable between any two ticks.
    pub fn observability_snapshot(&self) -> otm_metrics::RegistrySnapshot {
        let mut snap = self.service.observability_snapshot();
        for entry in &self.tenants {
            let shared = entry.shared.lock().expect("tenant lock");
            let (stats, label) = (shared.stats, format!("{{tenant=\"{}\"}}", entry.id));
            for (name, n) in [
                ("matchd_admitted_total", stats.admitted),
                ("matchd_backpressured_total", stats.backpressured),
                ("matchd_rejected_total", stats.rejected),
                ("matchd_drained_total", stats.drained),
                ("matchd_completions_total", stats.completed),
            ] {
                snap.counters.insert(format!("{name}{label}"), n);
            }
            let depth = shared.ingress.len() as i64;
            snap.gauges
                .insert(format!("matchd_ingress_depth{label}"), depth);
        }
        snap
    }

    /// Attaches time-series sampling at `cadence` ticks: the service's
    /// global series plus one per-tenant section (ingress depth as the
    /// queue-depth curve, completions as the matched curve). Applies to
    /// already-open and future tenants.
    pub fn attach_series(&mut self, cadence: u64) {
        self.series_cadence = Some(cadence);
        self.service
            .attach_series(otm_metrics::SeriesRecorder::new(cadence));
        for entry in &mut self.tenants {
            entry.series = Some(otm_metrics::SeriesRecorder::new(cadence));
        }
    }

    /// One synthesized per-tenant snapshot: the tenant's cumulative
    /// completions under the standard matched key, so
    /// [`otm_metrics::SeriesPoint::distill`] reads it like any engine
    /// snapshot.
    fn tenant_snapshot(completed: u64) -> otm_metrics::RegistrySnapshot {
        let mut counters = std::collections::BTreeMap::new();
        counters.insert("otm_matched_total".to_string(), completed);
        otm_metrics::RegistrySnapshot {
            counters,
            gauges: std::collections::BTreeMap::new(),
            hists: std::collections::BTreeMap::new(),
        }
    }

    fn sample_tenant_series(&mut self) {
        let t = self.ticks;
        for entry in &mut self.tenants {
            let Some(series) = &mut entry.series else {
                continue;
            };
            if !series.due(t) {
                continue;
            }
            let (depth, completed) = {
                let shared = entry.shared.lock().expect("tenant lock");
                (shared.ingress.len() as u64, shared.stats.completed)
            };
            series.sample(t, depth, &Self::tenant_snapshot(completed));
        }
    }

    /// Finishes the series: forces a terminal sample on the global and
    /// every per-tenant recorder and returns them — the global series and
    /// one `(tenant id, series)` section per tenant in id order, the
    /// arguments of [`otm_metrics::write_tenant_sections`]. `None` when
    /// [`MatchServer::attach_series`] was never called.
    pub fn finish_series(
        &mut self,
    ) -> Option<(
        otm_metrics::SeriesRecorder,
        Vec<(String, otm_metrics::SeriesRecorder)>,
    )> {
        self.series_cadence?;
        self.service.force_series_sample();
        let global = self.service.take_series()?;
        let mut sections = Vec::new();
        let t = self.ticks;
        for entry in &mut self.tenants {
            let Some(series) = &mut entry.series else {
                continue;
            };
            let (depth, completed) = {
                let shared = entry.shared.lock().expect("tenant lock");
                (shared.ingress.len() as u64, shared.stats.completed)
            };
            series.force_sample(t, depth, &Self::tenant_snapshot(completed));
            sections.push((entry.id.to_string(), series.clone()));
        }
        Some((global, sections))
    }
}
