//! Tenants: the client half of the `matchd` server.
//!
//! A tenant is one client of the long-lived matching server — an MPI
//! process, a library layer, a benchmark actor — identified by a
//! [`TenantId`], its index in the server's tenant table, and (usually)
//! pinned to its own communicator. The server owns each tenant's state; a
//! caller holds only the id. Each tenant has a **bounded ingress queue**:
//! submissions are admitted synchronously ([`Admission::Admitted`]), pushed
//! back with a retry hint when the queue is full
//! ([`Admission::Backpressured`]), or refused outright
//! ([`Admission::Rejected`] — closed tenant, cross-tenant communicator).
//!
//! Admission is the flow-control boundary the NIC-offload literature puts
//! *at* the offload resource rather than in each caller: a flooding tenant
//! fills its own ingress and is backpressured there, before its commands
//! can crowd the shared engine's command queue; the server's deficit
//! round-robin (see [`super::server`]) bounds what an admitted backlog can
//! drain per tick.
//!
//! Receive handles are minted **at admission time** in a per-tenant
//! namespace (tenant id in the high bits), ticks before the drain applies
//! the post — that is what lets the server hand its caller the handle
//! immediately while staying fully asynchronous, and what lets it route
//! completions back without a side table.

use super::server::TenantConfig;
use crate::service::CompletedReceive;
use mpi_matching::RecvHandle;
use otm_base::{CommId, Envelope, ReceivePattern};
use otm_metrics::json_fields;
use std::collections::VecDeque;

/// Identifies one tenant of a [`super::MatchServer`]: its index in the
/// server's tenant table, in open order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u16);

/// Bit position of the tenant namespace in a [`RecvHandle`].
const TENANT_SHIFT: u32 = 48;

impl TenantId {
    /// The id of the server's `index`-th tenant, or `None` past the last id
    /// whose handles round-trip through [`Self::handle`] and
    /// [`Self::of_handle`]: the namespace bits are the id biased by one, so
    /// 16 bits name 65,535 tenants, and `u16::MAX` is not one of them.
    pub(super) fn from_index(index: usize) -> Option<TenantId> {
        u16::try_from(index)
            .ok()
            .filter(|&i| i < u16::MAX)
            .map(TenantId)
    }

    /// Mints the `seq`-th receive handle of this tenant's namespace. The
    /// tenant id (biased by one so tenant 0 stays distinct from the
    /// service's own `reserve_recv` counter) occupies the high 16 bits:
    /// namespaces of different tenants — and of the service itself — are
    /// disjoint by construction.
    pub(crate) fn handle(self, seq: u64) -> RecvHandle {
        debug_assert!(self.0 < u16::MAX, "tenant {self} has no namespace");
        debug_assert!(seq < 1 << TENANT_SHIFT, "tenant handle space exhausted");
        RecvHandle(((self.0 as u64 + 1) << TENANT_SHIFT) | seq)
    }

    /// Recovers the tenant a handle was minted for, or `None` for handles
    /// outside any tenant namespace (the service's plain counter).
    pub(crate) fn of_handle(handle: RecvHandle) -> Option<TenantId> {
        match handle.0 >> TENANT_SHIFT {
            0 => None,
            t => Some(TenantId((t - 1) as u16)),
        }
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The server's synchronous answer to one submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission<T> {
    /// The request is in the tenant's ingress queue and will reach the
    /// engine when the fair drain schedules it.
    Admitted(T),
    /// The tenant's bounded ingress is full. Retry in `retry_after` ticks —
    /// the time the drain needs, at this tenant's quantum, to open a slot.
    /// Nothing was enqueued.
    Backpressured {
        /// Server ticks to wait before retrying.
        retry_after: u64,
    },
    /// The request can never be admitted (closed tenant, pattern on
    /// another tenant's communicator).
    /// Nothing was enqueued.
    Rejected {
        /// Why the request was refused.
        reason: &'static str,
    },
}

impl<T> Admission<T> {
    /// Unwraps an admitted value; panics with the admission decision
    /// otherwise. For tests and callers whose tenants are sized to never
    /// push back.
    pub fn expect_admitted(self, context: &str) -> T {
        match self {
            Admission::Admitted(v) => v,
            Admission::Backpressured { retry_after } => {
                panic!("{context}: backpressured (retry_after={retry_after})")
            }
            Admission::Rejected { reason } => panic!("{context}: rejected ({reason})"),
        }
    }

    /// Whether the request was admitted.
    pub fn is_admitted(&self) -> bool {
        matches!(self, Admission::Admitted(_))
    }
}

/// One request waiting in a tenant's ingress queue.
#[derive(Debug, Clone)]
pub(super) enum TenantRequest {
    /// A receive to post, under the handle minted at admission.
    Post {
        pattern: ReceivePattern,
        handle: RecvHandle,
    },
    /// An eager message to put on the server's loopback wire (the tenant's
    /// send half in a single-process harness).
    Send { env: Envelope, payload: Vec<u8> },
}

/// Per-tenant counters, readable at any time through
/// [`super::MatchServer::tenant_stats`]; the server's
/// [`super::MatchServer::observability_snapshot`] reads its
/// `matchd_*{tenant}` names from them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Requests admitted into the ingress queue.
    pub admitted: u64,
    /// Requests pushed back with [`Admission::Backpressured`].
    pub backpressured: u64,
    /// Requests refused with [`Admission::Rejected`].
    pub rejected: u64,
    /// Requests the fair drain has moved from the ingress into the engine.
    pub drained: u64,
    /// Receives completed and delivered to this tenant.
    pub completed: u64,
    /// Current ingress queue depth.
    pub ingress_depth: usize,
}

/// A tenant's series: what the server counts for it, sampled on the tick
/// clock at the cadence of [`super::MatchServer::attach_series`]. The
/// columns have one entry per point.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantSeries {
    /// The tick of each point.
    pub t: Vec<u64>,
    /// The tenant's ingress depth at each point.
    pub ingress_depth: Vec<u64>,
    /// The tenant's completions delivered by each point (cumulative).
    pub completed: Vec<u64>,
}

json_fields!(TenantSeries: t, ingress_depth, completed);

/// One tenant's state, owned by the server.
pub(super) struct Tenant {
    /// The communicator the tenant is pinned to (`None` = unpinned, world
    /// traffic).
    pub(crate) comm: Option<CommId>,
    pub(crate) ingress: VecDeque<TenantRequest>,
    /// Ingress bound; submissions beyond it are backpressured.
    pub(crate) capacity: usize,
    /// DRR quantum: requests this tenant may drain per scheduling round.
    pub(crate) quantum: usize,
    /// Next handle sequence number in this tenant's namespace.
    pub(crate) next_seq: u64,
    pub(crate) closed: bool,
    pub(crate) stats: TenantStats,
    /// Completions the server routed to this tenant, awaiting pickup.
    pub(crate) completions: Vec<CompletedReceive>,
    /// DRR credit carried between rounds (reset when the ingress empties).
    pub(crate) deficit: u64,
    pub(crate) series: TenantSeries,
}

impl Tenant {
    pub(super) fn new(config: TenantConfig) -> Self {
        Tenant {
            comm: config.comm,
            ingress: VecDeque::new(),
            capacity: config.capacity.max(1),
            quantum: config.quantum.max(1),
            next_seq: 0,
            closed: false,
            stats: TenantStats::default(),
            completions: Vec::new(),
            deficit: 0,
            series: TenantSeries::default(),
        }
    }

    /// The answer to a submission that may not enter the ingress now,
    /// counted, or `None` when it may. `foreign` marks a post on another
    /// communicator than the tenant's pin. A backpressured submission is
    /// told the ticks the drain needs, at this tenant's quantum, to free
    /// the overflow.
    pub(super) fn refusal<T>(&mut self, foreign: bool) -> Option<Admission<T>> {
        let reason = if self.closed {
            "tenant closed"
        } else if foreign {
            "pattern not on the tenant's communicator"
        } else if self.ingress.len() < self.capacity {
            return None;
        } else {
            let overflow = (self.ingress.len() + 1 - self.capacity) as u64;
            self.stats.backpressured += 1;
            let retry_after = overflow.div_ceil(self.quantum as u64).max(1);
            return Some(Admission::Backpressured { retry_after });
        };
        self.stats.rejected += 1;
        Some(Admission::Rejected { reason })
    }

    /// Enqueues an admitted request.
    pub(super) fn push(&mut self, req: TenantRequest) {
        self.ingress.push_back(req);
        self.stats.admitted += 1;
    }

    /// The counters, with the ingress depth as it is now.
    pub(super) fn stats(&self) -> TenantStats {
        TenantStats {
            ingress_depth: self.ingress.len(),
            ..self.stats
        }
    }

    /// Appends a point at tick `t` to the series, or refreshes the last
    /// one when it was taken at the same tick.
    pub(super) fn sample(&mut self, t: u64) {
        let s = &mut self.series;
        if s.t.last() == Some(&t) {
            s.t.pop();
            s.ingress_depth.pop();
            s.completed.pop();
        }
        s.t.push(t);
        s.ingress_depth.push(self.ingress.len() as u64);
        s.completed.push(self.stats.completed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_namespaces_are_disjoint_and_reversible() {
        let a = TenantId(0).handle(7);
        let b = TenantId(1).handle(7);
        assert_ne!(a, b);
        assert_eq!(TenantId::of_handle(a), Some(TenantId(0)));
        assert_eq!(TenantId::of_handle(b), Some(TenantId(1)));
        // Plain service handles (low counter values) belong to no tenant.
        assert_eq!(TenantId::of_handle(RecvHandle(42)), None);
        // The last id a server hands out; one more would wrap to the
        // service's own counter space (`(u16::MAX + 1) << 48` is 0 in a u64).
        let last = TenantId(u16::MAX - 1);
        assert_eq!(TenantId::of_handle(last.handle(7)), Some(last));
        assert_eq!(TenantId::from_index(usize::from(u16::MAX)), None);
    }
}
