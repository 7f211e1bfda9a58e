//! Tenant sessions: the client half of the `matchd` server.
//!
//! A tenant is one client of the long-lived matching server — an MPI
//! process, a library layer, a benchmark actor — identified by a
//! [`TenantId`] and (usually) pinned to its own communicator. Each session
//! owns a **bounded ingress queue** shared with the server: submissions are
//! admitted synchronously ([`Admission::Admitted`]), pushed back with a
//! retry hint when the queue is full ([`Admission::Backpressured`]), or
//! refused outright ([`Admission::Rejected`] — closed session, cross-tenant
//! communicator).
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
//! the post — that is what lets a session hand its caller the handle
//! immediately while staying fully asynchronous, and what lets the server
//! route completions back without a side table.

use crate::service::CompletedReceive;
use mpi_matching::RecvHandle;
use otm_base::{CommId, Envelope, Rank, ReceivePattern, Tag};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Identifies one tenant of a [`super::MatchServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u16);

/// Bit position of the tenant namespace in a [`RecvHandle`].
const TENANT_SHIFT: u32 = 48;

impl TenantId {
    /// Mints the `seq`-th receive handle of this tenant's namespace. The
    /// tenant id (biased by one so tenant 0 stays distinct from the
    /// service's own `reserve_recv` counter) occupies the high 16 bits:
    /// namespaces of different tenants — and of the service itself — are
    /// disjoint by construction.
    pub fn handle(self, seq: u64) -> RecvHandle {
        debug_assert!(seq < 1 << TENANT_SHIFT, "tenant handle space exhausted");
        RecvHandle(((self.0 as u64 + 1) << TENANT_SHIFT) | seq)
    }

    /// Recovers the tenant a handle was minted for, or `None` for handles
    /// outside any tenant namespace (the service's plain counter).
    pub fn of_handle(handle: RecvHandle) -> Option<TenantId> {
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
    /// The request can never be admitted (closed session, pattern on
    /// another tenant's communicator).
    /// Nothing was enqueued.
    Rejected {
        /// Why the request was refused.
        reason: &'static str,
    },
}

impl<T> Admission<T> {
    /// Unwraps an admitted value; panics with the admission decision
    /// otherwise. For tests and callers whose sessions are sized to never
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
/// [`TenantSession::stats`]; the server's
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
    /// Receives completed and delivered to this session.
    pub completed: u64,
    /// Current ingress queue depth.
    pub ingress_depth: usize,
}

/// The state one tenant shares with the server (behind a mutex: sessions
/// submit from the client side, the tick loop drains from the server side).
pub(super) struct TenantShared {
    pub ingress: VecDeque<TenantRequest>,
    /// Ingress bound; submissions beyond it are backpressured.
    pub capacity: usize,
    /// DRR quantum: requests this tenant may drain per scheduling round.
    pub quantum: usize,
    /// Next handle sequence number in this tenant's namespace.
    pub next_seq: u64,
    pub closed: bool,
    pub stats: TenantStats,
    /// Completions the server routed to this tenant, awaiting pickup.
    pub completions: VecDeque<CompletedReceive>,
}

/// A tenant's handle on the server: submit posts and sends, collect
/// completions. Cloning yields another handle on the *same* session (same
/// ingress queue, same stats) — useful for splitting the submit and the
/// collect half across owners.
#[derive(Clone)]
pub struct TenantSession {
    pub(super) id: TenantId,
    /// The communicator this session is pinned to (`None` = unpinned, world
    /// traffic).
    pub(super) comm: Option<CommId>,
    pub(super) shared: Arc<Mutex<TenantShared>>,
}

impl TenantSession {
    /// This session's tenant id.
    pub fn tenant(&self) -> TenantId {
        self.id
    }

    /// The communicator the session is pinned to, if any.
    pub fn comm(&self) -> Option<CommId> {
        self.comm
    }

    /// Submits a receive post. On admission the receive's handle — minted
    /// in this tenant's namespace — is returned immediately; the post
    /// reaches the engine when the server's fair drain schedules it.
    pub fn submit_post(&self, pattern: ReceivePattern) -> Admission<RecvHandle> {
        let mut s = self.shared.lock().expect("tenant lock");
        if s.closed {
            return Self::reject(&mut s, "session closed");
        }
        if self.comm.is_some_and(|comm| pattern.comm != comm) {
            return Self::reject(&mut s, "pattern not on the tenant's communicator");
        }
        if let Some(retry_after) = Self::backpressure(&mut s) {
            return Admission::Backpressured { retry_after };
        }
        let handle = self.id.handle(s.next_seq);
        s.next_seq += 1;
        Self::admit(&mut s, TenantRequest::Post { pattern, handle });
        Admission::Admitted(handle)
    }

    /// Submits an eager message addressed to this server (source rank = the
    /// tenant id, communicator = the session's pin, or world when
    /// unpinned). The payload goes onto the server's loopback wire when the
    /// fair drain schedules it.
    pub fn submit_send(&self, tag: Tag, payload: Vec<u8>) -> Admission<()> {
        let mut s = self.shared.lock().expect("tenant lock");
        if s.closed {
            return Self::reject(&mut s, "session closed");
        }
        if let Some(retry_after) = Self::backpressure(&mut s) {
            return Admission::Backpressured { retry_after };
        }
        let src = Rank(self.id.0 as u32);
        let env = match self.comm {
            Some(comm) => Envelope::new(src, tag, comm),
            None => Envelope::world(src, tag),
        };
        Self::admit(&mut s, TenantRequest::Send { env, payload });
        Admission::Admitted(())
    }

    /// Takes every completion the server has delivered to this tenant so
    /// far, oldest first.
    pub fn take_completions(&self) -> Vec<CompletedReceive> {
        let mut s = self.shared.lock().expect("tenant lock");
        s.completions.drain(..).collect()
    }

    /// Completions delivered but not yet taken.
    pub fn completions_len(&self) -> usize {
        self.shared.lock().expect("tenant lock").completions.len()
    }

    /// A snapshot of the session's counters.
    pub fn stats(&self) -> TenantStats {
        let s = self.shared.lock().expect("tenant lock");
        let mut stats = s.stats;
        stats.ingress_depth = s.ingress.len();
        stats
    }

    /// Closes the session: subsequent submissions are rejected. Requests
    /// already admitted still drain, and completions remain collectable.
    pub fn close(&self) {
        self.shared.lock().expect("tenant lock").closed = true;
    }

    fn reject<T>(s: &mut TenantShared, reason: &'static str) -> Admission<T> {
        s.stats.rejected += 1;
        Admission::Rejected { reason }
    }

    /// `Some(retry_after)` when the ingress is full: the ticks the drain
    /// needs, at this tenant's quantum, to free the overflow.
    fn backpressure(s: &mut TenantShared) -> Option<u64> {
        if s.ingress.len() < s.capacity {
            return None;
        }
        let overflow = (s.ingress.len() + 1 - s.capacity) as u64;
        let retry_after = overflow.div_ceil(s.quantum.max(1) as u64).max(1);
        s.stats.backpressured += 1;
        Some(retry_after)
    }

    fn admit(s: &mut TenantShared, req: TenantRequest) {
        s.ingress.push_back(req);
        s.stats.admitted += 1;
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
    }
}
