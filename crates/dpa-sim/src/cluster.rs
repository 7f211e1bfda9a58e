//! A simulated multi-node job: a full mesh of queue pairs, one matching
//! service per node.
//!
//! The paper's closing discussion (§VII) argues that offloading tag
//! matching unlocks offloading the operations *built on top of it* —
//! "collective operations, which are normally built on top of
//! point-to-point operations, and hence need matching to be performed in
//! order to be offloaded". The [`crate::collectives`] module implements
//! tree collectives over this cluster; every hop goes through the full
//! receive path (wire → bounce buffer → CQ → matching → protocol).

use crate::bounce::BouncePool;
use crate::matchd::{Admission, MatchServer, MatchdConfig, TenantConfig, TenantSession};
use crate::memory::DeviceMemory;
use crate::nic::RecvNic;
use crate::rdma::{
    connected_pair, eager_packet, rendezvous_packet, QueuePair, RdmaDomain, WirePacket,
};
use crate::reliable::{ReliabilityStats, ReliableSender};
use crate::service::{CompletedReceive, MatchingService, ServiceError};
use mpi_matching::RecvHandle;
use otm_base::hash::mix64;
use otm_base::{Envelope, FaultPlan, MatchConfig, Rank, ReceivePattern, Tag};

/// Which matching backend every node of the cluster runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterBackend {
    /// Offloaded optimistic matching (per-node DPA budget willing).
    Offloaded,
    /// Host-CPU traditional matching.
    MpiCpu,
}

impl ClusterBackend {
    /// Builds one node's matching service. Offloaded nodes charge their
    /// tables against a fresh BlueField-3-sized DPA budget.
    fn service(self, nic: RecvNic, domain: RdmaDomain, config: &MatchConfig) -> MatchingService {
        match self {
            ClusterBackend::Offloaded => {
                let mut budget = DeviceMemory::bluefield3_l3();
                MatchingService::offloaded(nic, domain, config.clone(), &mut budget)
                    .expect("cluster tables fit the per-node DPA budget")
            }
            ClusterBackend::MpiCpu => MatchingService::mpi_cpu(nic, domain),
        }
    }
}

/// A node's send endpoint towards one peer: a bare queue pair on a
/// perfect wire, or a [`ReliableSender`] when the cluster runs a fault
/// plan (sequence numbers, cumulative acks + SACK, selective repeat).
enum PeerSender {
    Direct(QueuePair),
    /// Boxed: the sender's window + stats dwarf a bare queue pair.
    Reliable(Box<ReliableSender>),
}

impl PeerSender {
    fn send(&mut self, packet: WirePacket) -> Result<(), ServiceError> {
        match self {
            PeerSender::Direct(qp) => qp.send(packet).map_err(ServiceError::Rdma),
            PeerSender::Reliable(s) => s.send(packet).map_err(ServiceError::from),
        }
    }

    /// Drives the reliability protocol one step (acks in, retransmits
    /// out). A no-op on a direct endpoint.
    fn pump(&mut self) -> Result<(), ServiceError> {
        if let PeerSender::Reliable(s) = self {
            // The reverse direction of a mesh data link carries only acks
            // (each direction of the mesh has its own pair), so any app
            // packets the sender hands back can only be stray.
            let stray = s.poll()?;
            debug_assert!(stray.is_empty(), "mesh reverse path carries only acks");
        }
        Ok(())
    }

    fn stats(&self) -> ReliabilityStats {
        match self {
            PeerSender::Direct(_) => ReliabilityStats::default(),
            PeerSender::Reliable(s) => s.stats(),
        }
    }
}

/// One simulated node: a `matchd` client around its matching server, plus
/// send endpoints to every peer.
///
/// Since the matchd refactor a node no longer calls its
/// [`MatchingService`] directly: it runs a private [`MatchServer`] with a
/// single generously-sized tenant session, posts through the session's
/// admission path, and advances matching by ticking the server. The
/// node-facing API is unchanged; what changed is that every receive now
/// travels the same admission → fair drain → completion-delivery pipeline
/// a multi-tenant deployment uses.
pub struct ClusterNode {
    rank: Rank,
    server: MatchServer,
    /// The node's private tenant session on its own server.
    session: TenantSession,
    /// Send endpoint towards each peer (`None` at our own index).
    peers: Vec<Option<PeerSender>>,
    domain: RdmaDomain,
    /// Eager/rendezvous switchover for [`ClusterNode::send`].
    eager_threshold: usize,
}

impl ClusterNode {
    /// This node's rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Posts a receive on this node, through the node's tenant session.
    /// The node's private tenant is sized so admission always succeeds; a
    /// refusal (which would take a pathological backlog) surfaces as
    /// [`ServiceError::Admission`] rather than being retried.
    pub fn post_recv(&mut self, pattern: ReceivePattern) -> Result<RecvHandle, ServiceError> {
        match self.session.submit_post(pattern) {
            Admission::Admitted(handle) => Ok(handle),
            Admission::Backpressured { retry_after } => Err(ServiceError::Admission(format!(
                "node tenant backpressured (retry_after={retry_after})"
            ))),
            Admission::Rejected { reason } => Err(ServiceError::Admission(format!(
                "node tenant rejected: {reason}"
            ))),
        }
    }

    /// Sends `payload` to `dest` with `tag`, choosing eager or rendezvous
    /// by size (§IV-B).
    pub fn send(&mut self, dest: usize, tag: Tag, payload: Vec<u8>) -> Result<(), ServiceError> {
        let env = Envelope::world(self.rank, tag);
        let sender = self.peers[dest]
            .as_mut()
            .expect("no loopback sends in the mesh");
        if payload.len() <= self.eager_threshold {
            sender.send(eager_packet(env, payload))
        } else {
            let (pkt, _rkey) = rendezvous_packet(&self.domain, env, payload, 64);
            sender.send(pkt)
        }
    }

    /// Ticks this node's matching server (fair drain of the node tenant's
    /// queued posts, one NIC poll + match round, completion delivery) and
    /// returns the newly delivered receives. Also drives this node's
    /// reliable senders (acks in, retransmits out) when the cluster runs a
    /// fault plan.
    pub fn progress(&mut self) -> Result<Vec<CompletedReceive>, ServiceError> {
        self.server.tick()?;
        self.pump_senders()?;
        Ok(self.session.take_completions())
    }

    /// Drives every reliable send endpoint one step without touching the
    /// receive path. [`Cluster::progress_until`] pumps the *other* nodes
    /// through this so their dropped packets retransmit while one node is
    /// being progressed.
    pub fn pump_senders(&mut self) -> Result<(), ServiceError> {
        for peer in self.peers.iter_mut().flatten() {
            peer.pump()?;
        }
        Ok(())
    }

    /// Aggregate reliability-protocol counters over this node's send
    /// endpoints (all zero on a fault-free cluster).
    pub fn reliability_stats(&self) -> ReliabilityStats {
        let mut total = ReliabilityStats::default();
        for peer in self.peers.iter().flatten() {
            let s = peer.stats();
            total.sent += s.sent;
            total.retransmits += s.retransmits;
            total.resend_events += s.resend_events;
            total.acks += s.acks;
            total.backoff_polls += s.backoff_polls;
        }
        total
    }

    /// What this node's receive-side fault interpreter injected so far
    /// (`None` when the cluster runs no fault plan).
    pub fn wire_fault_stats(&self) -> Option<crate::fault::WireFaultStats> {
        self.server.service().nic().wire_fault_stats()
    }

    /// Engine statistics when offloaded.
    pub fn engine_stats(&self) -> Option<otm::StatsSnapshot> {
        self.server.service().engine_stats()
    }

    /// The backend label.
    pub fn backend_name(&self) -> &'static str {
        self.server.service().backend_name()
    }

    /// The node's matchd server (tick clock, Prometheus scrape, the
    /// wrapped service).
    pub fn server(&self) -> &MatchServer {
        &self.server
    }

    /// The node's tenant session stats (admissions, drains, completions).
    pub fn tenant_stats(&self) -> crate::matchd::TenantStats {
        self.session.stats()
    }
}

/// The simulated job (see module docs).
pub struct Cluster {
    nodes: Vec<ClusterNode>,
}

impl Cluster {
    /// Builds an `n`-node full-mesh cluster with the given matching
    /// backend on every node.
    ///
    /// Offloaded nodes each charge their tables against a fresh
    /// BlueField-3-sized DPA budget.
    pub fn new(n: usize, backend: ClusterBackend, config: MatchConfig) -> Self {
        Self::build(n, backend, config, None)
    }

    /// Builds an `n`-node cluster whose wires run the given fault plan.
    ///
    /// Every node's receive NIC interprets its own deterministically
    /// derived copy of `plan` (same plan, per-node seed — two clusters
    /// built from the same plan inject identical faults), and every send
    /// endpoint is wrapped in a [`ReliableSender`] so the reliability
    /// protocol recovers the drops, duplicates, reorders and delays.
    pub fn with_faults(
        n: usize,
        backend: ClusterBackend,
        config: MatchConfig,
        plan: FaultPlan,
    ) -> Self {
        Self::build(n, backend, config, Some(plan))
    }

    fn build(
        n: usize,
        backend: ClusterBackend,
        config: MatchConfig,
        faults: Option<FaultPlan>,
    ) -> Self {
        assert!(n >= 2, "a cluster needs at least two nodes");
        // peers_qp[i][j] = i's send endpoint to j.
        let mut send_eps: Vec<Vec<Option<QueuePair>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        let mut recv_qps: Vec<Vec<QueuePair>> = (0..n).map(|_| Vec::new()).collect();
        for i in 0..n {
            for j in (i + 1)..n {
                let (a, b) = connected_pair(); // a: i's side, b: j's side
                let (c, d) = connected_pair(); // c: j's side, d: i's side
                send_eps[i][j] = Some(a);
                recv_qps[j].push(b);
                send_eps[j][i] = Some(c);
                recv_qps[i].push(d);
            }
        }
        // One domain for the whole fabric: RDMA reads reach any peer's
        // registered region, as verbs rkeys do.
        let fabric = RdmaDomain::new();
        let nodes = send_eps
            .into_iter()
            .zip(recv_qps)
            .enumerate()
            .map(|(i, (peers, qps))| {
                let domain = fabric.clone();
                let mut qps = qps.into_iter();
                // Bounce buffers must hold the largest eager payload a
                // peer may send (anything bigger goes rendezvous).
                let mut nic = RecvNic::new(
                    qps.next().expect("n >= 2 gives every node a peer"),
                    BouncePool::new(
                        4 * n.max(16),
                        mpi_matching::protocol::DEFAULT_EAGER_THRESHOLD,
                    ),
                );
                for qp in qps {
                    nic.add_qp(qp);
                }
                if let Some(plan) = &faults {
                    // Same plan, per-node seed: the node index mixes into
                    // the plan's seed so every wire misbehaves differently
                    // yet the whole cluster replays identically from one
                    // root seed.
                    nic.set_faults(plan.clone().with_seed(mix64(plan.seed ^ (i as u64 + 1))));
                }
                let peers = peers
                    .into_iter()
                    .map(|ep| {
                        ep.map(|qp| {
                            if faults.is_some() {
                                PeerSender::Reliable(Box::new(ReliableSender::new(qp)))
                            } else {
                                PeerSender::Direct(qp)
                            }
                        })
                    })
                    .collect();
                let service = backend.service(nic, domain.clone(), &config);
                // The node is a matchd client of its own server: one
                // private tenant, sized so a node can queue a full job's
                // posts without ever seeing backpressure, drained whole
                // every tick (quantum = capacity). No loopback wire — the
                // node's sends go to its peers, never to itself.
                let mut server = MatchServer::with_service(service, None, MatchdConfig::default());
                let session = server.open_tenant_with(TenantConfig {
                    capacity: 1 << 16,
                    quantum: 1 << 16,
                    comm: None,
                });
                ClusterNode {
                    rank: Rank(i as u32),
                    server,
                    session,
                    peers,
                    domain,
                    eager_threshold: mpi_matching::protocol::DEFAULT_EAGER_THRESHOLD,
                }
            })
            .collect();
        Cluster { nodes }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cluster is empty (never: construction requires n ≥ 2).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Mutable access to one node.
    pub fn node_mut(&mut self, i: usize) -> &mut ClusterNode {
        &mut self.nodes[i]
    }

    /// Progresses node `i` until it has accumulated `want` completions
    /// (single-threaded event loop: the sends feeding it must already be on
    /// the wire). Every other node's reliable senders are pumped each
    /// iteration so dropped packets retransmit toward `i` — a no-op on a
    /// fault-free cluster.
    pub fn progress_until(
        &mut self,
        i: usize,
        want: usize,
    ) -> Result<Vec<CompletedReceive>, ServiceError> {
        let mut done = Vec::new();
        while done.len() < want {
            done.extend(self.nodes[i].progress()?);
            for j in 0..self.nodes.len() {
                if j != i {
                    self.nodes[j].pump_senders()?;
                }
            }
        }
        Ok(done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> MatchConfig {
        MatchConfig::default()
            .with_max_receives(256)
            .with_max_unexpected(256)
            .with_bins(64)
    }

    #[test]
    fn mesh_wires_every_pair_in_both_directions() {
        let mut c = Cluster::new(4, ClusterBackend::MpiCpu, config());
        for src in 0..4 {
            for dst in 0..4 {
                if src == dst {
                    continue;
                }
                let tag = Tag((src * 4 + dst) as u32);
                c.node_mut(dst)
                    .post_recv(ReceivePattern::exact(Rank(src as u32), tag))
                    .unwrap();
                c.node_mut(src)
                    .send(dst, tag, vec![src as u8, dst as u8])
                    .unwrap();
                let done = c.progress_until(dst, 1).unwrap();
                assert_eq!(done[0].data, vec![src as u8, dst as u8], "{src}->{dst}");
            }
        }
    }

    #[test]
    fn offloaded_cluster_matches_end_to_end() {
        let mut c = Cluster::new(3, ClusterBackend::Offloaded, config());
        assert_eq!(c.node_mut(0).backend_name(), "Optimistic-DPA");
        // Everyone sends to node 0 with distinct tags; node 0 pre-posts.
        for src in 1..3 {
            c.node_mut(0)
                .post_recv(ReceivePattern::exact(Rank(src as u32), Tag(src as u32)))
                .unwrap();
        }
        for src in 1..3usize {
            c.node_mut(src)
                .send(0, Tag(src as u32), vec![src as u8; 8])
                .unwrap();
        }
        let done = c.progress_until(0, 2).unwrap();
        assert_eq!(done.len(), 2);
        let stats = c.node_mut(0).engine_stats().unwrap();
        assert_eq!(stats.matched, 2);
    }

    #[test]
    fn eager_payloads_up_to_the_threshold_cross_the_mesh() {
        // A payload between the old 4 KiB bounce size and the 8 KiB eager
        // threshold must stage cleanly (regression: it used to panic the
        // receiver's poll).
        let mut c = Cluster::new(2, ClusterBackend::Offloaded, config());
        let payload = vec![7u8; 6000];
        c.node_mut(1)
            .post_recv(ReceivePattern::exact(Rank(0), Tag(4)))
            .unwrap();
        c.node_mut(0).send(1, Tag(4), payload.clone()).unwrap();
        let done = c.progress_until(1, 1).unwrap();
        assert_eq!(done[0].data, payload);
    }

    #[test]
    fn rendezvous_payloads_cross_the_mesh() {
        let mut c = Cluster::new(2, ClusterBackend::Offloaded, config());
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        c.node_mut(1)
            .post_recv(ReceivePattern::exact(Rank(0), Tag(9)))
            .unwrap();
        c.node_mut(0).send(1, Tag(9), payload.clone()).unwrap();
        let done = c.progress_until(1, 1).unwrap();
        assert_eq!(done[0].data, payload);
    }

    #[test]
    fn faulty_mesh_delivers_everything_exactly_once_in_order() {
        // A hostile wire under every link: drops, duplicates and reorders
        // at 15% each. The reliable senders and the NIC's sequence
        // acceptance must deliver every payload exactly once, in per-link
        // send order, on all three nodes.
        let plan = FaultPlan::new(0xc1a5)
            .with_drop_permille(150)
            .with_duplicate_permille(150)
            .with_reorder_permille(150);
        let mut c = Cluster::with_faults(3, ClusterBackend::Offloaded, config(), plan);
        let per_link = 10u32;
        for dst in 0..3usize {
            for src in 0..3usize {
                if src == dst {
                    continue;
                }
                for k in 0..per_link {
                    c.node_mut(dst)
                        .post_recv(ReceivePattern::exact(Rank(src as u32), Tag(k)))
                        .unwrap();
                }
            }
        }
        for src in 0..3usize {
            for dst in 0..3usize {
                if src == dst {
                    continue;
                }
                for k in 0..per_link {
                    c.node_mut(src)
                        .send(dst, Tag(k), vec![src as u8, dst as u8, k as u8])
                        .unwrap();
                }
            }
        }
        for dst in 0..3usize {
            let done = c.progress_until(dst, 2 * per_link as usize).unwrap();
            assert_eq!(done.len(), 2 * per_link as usize);
            for d in done {
                assert_eq!(
                    d.data,
                    vec![d.env.src.0 as u8, dst as u8, d.env.tag.0 as u8],
                    "payload must agree with the matched envelope"
                );
            }
        }
        // The wire really was hostile and the protocol really did work.
        let injected: u64 = (0..3)
            .map(|i| c.node_mut(i).wire_fault_stats().unwrap().total())
            .sum();
        assert!(injected > 0, "the plan must have injected faults");
        let recovered: u64 = (0..3)
            .map(|i| c.node_mut(i).reliability_stats().retransmits)
            .sum();
        assert!(recovered > 0, "drops must have forced retransmissions");
    }
}
