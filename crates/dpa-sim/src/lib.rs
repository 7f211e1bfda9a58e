//! A host-side simulator of an on-path SmartNIC data-path accelerator —
//! the substrate on which the paper deploys Optimistic Tag Matching (§IV).
//!
//! No BlueField-3 hardware or DOCA SDK is available to this reproduction,
//! so the DPA environment is modelled in-process (see DESIGN.md §1 for the
//! substitution argument):
//!
//! * [`rdma`] — an in-process RDMA transport: connected queue pairs carry
//!   send/receive messages, memory regions are registered under rkeys, and
//!   RDMA READ pulls registered bytes (the rendezvous data path);
//! * [`bounce`] — bounce buffers in NIC memory, where incoming messages are
//!   staged before matching decides the user buffer (§IV-A);
//! * [`memory`] — the device-memory budget; allocation failure triggers
//!   fallback to software tag matching (§IV-E);
//! * [`nic`] — the receive-side NIC engine: RDMA receive completions are
//!   staged into bounce buffers and exposed through a completion queue,
//!   with a selective-repeat acceptance check (bounded out-of-order
//!   staging buffer, overflow discarded) for sequenced traffic; its staging
//!   buffers and total-order gate are sequence-indexed reorder windows
//!   (the private `reorder` module);
//! * [`fault`] — the deterministic fault-injection layer: a seeded
//!   [`otm_base::FaultPlan`] drops, duplicates, reorders and delays wire
//!   packets and injects transient backend failures and worker stalls;
//! * [`reliable`] — the sender half of the reliability protocol: sequence
//!   numbers, cumulative acks with SACK blocks, selective-repeat
//!   retransmission with an RTT-tracking timeout, adaptive window,
//!   exponential backoff and a bounded retry budget;
//! * [`obs`] — observability: queue-depth gauges and
//!   NIC-memory pressure counters for the matching service, plus the
//!   fault/reliability counters and backoff histogram;
//! * [`service`] — the matching service: the offloaded optimistic engine
//!   (blocks of N completions matched in parallel), the on-CPU traditional
//!   matcher (MPI-CPU baseline), or no matching at all (RDMA-CPU ceiling),
//!   each driving the eager/rendezvous protocol handling of §IV-B;
//! * [`pingpong`] — the Fig. 8 message-rate harness: k-message sequences,
//!   acknowledged per sequence, both nodes stepped on one thread, with
//!   no-conflict and with-conflict receive scenarios;
//! * [`matchd`] — the long-lived multi-tenant matching server: tenant
//!   sessions with bounded ingress and explicit admission control, a
//!   deficit-round-robin fair drain over one shared engine, and a
//!   deterministic tick loop with live Prometheus exposition;
//! * [`app_replay`] — the end-to-end application replay driver: a Table II
//!   trace becomes sequenced wire packets over per-source-rank queue pairs,
//!   cross-QP ordered by the NIC's total-order gate, and is matched by the
//!   full service path, with the engine-direct replay as the matched-pairs
//!   oracle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app_replay;
pub mod bounce;
pub mod cluster;
pub mod collectives;
pub mod fault;
pub mod matchd;
pub mod memory;
pub mod nic;
pub mod obs;
pub mod pingpong;
pub mod rdma;
pub mod reliable;
mod reorder;
pub mod service;

pub use app_replay::{
    engine_direct_pairs, replay_app, AppReplayConfig, AppReplayOutcome, AppReplayReport,
};
pub use cluster::{Cluster, ClusterBackend, ClusterNode};
pub use fault::{BackendFaultStats, FaultInjectingBackend, WireFaultStats, WireFaults};
pub use matchd::{
    Admission, MatchServer, MatchdConfig, TenantConfig, TenantId, TenantSession, TenantStats,
};
pub use memory::DeviceMemory;
pub use nic::RxStats;
pub use obs::ServiceMetrics;
pub use pingpong::{MatchMode, PingPong, PingPongConfig, PingPongResult, Scenario};
pub use rdma::SackBlocks;
pub use reliable::{ReliabilityError, ReliabilityStats, ReliableSender};
pub use service::{FeedbackController, MatchingService};
