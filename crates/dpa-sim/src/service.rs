//! The receive-side matching service: matching backend + protocol handling.
//!
//! The service is generic over [`MatchingBackend`]: it holds a
//! `Box<dyn MatchingBackend>` and submits posts and arrivals as commands,
//! drains them, reads the engine's counts and runs the software-fallback
//! migration purely through the trait. The trait objects it ships with are
//! the three configurations Fig. 8 compares:
//!
//! * **Optimistic-DPA** — the offloaded engine: blocks of up to `N`
//!   completions are matched in parallel by [`otm::OtmEngine`]; the host CPU
//!   does no matching work;
//! * **MPI-CPU** — the traditional linked-list matcher running on the host,
//!   one completion at a time;
//! * **RDMA-CPU** — no matching at all: completions are consumed in arrival
//!   order (the transport ceiling: "a reference baseline where no matching
//!   is performed").
//!
//! Every backend is driven the same way, through its command queue: posts
//! and arrivals are commands, applied in submission order by the drain that
//! ends each [`MatchingService::progress`] (§IV-E), and a drain the
//! offloaded engine cannot finish migrates the service to software
//! matching, which is driven the same way. A host matcher, which never
//! migrates and has no device ring to batch for, is also drained at a post
//! while a message waits in the unexpected store, so a receive it matches
//! completes at the post. The service never asks which backend it holds:
//! the engine's counts come through
//! [`MatchingBackend::engine_stats`] and
//! [`MatchingBackend::metrics_snapshot`], `None` for a host backend.
//!
//! An arrival stays on the NIC's completion queue, in its bounce buffer,
//! until its outcome applies in the drain that ends the same `progress`
//! (§IV-A), and the service keeps no copy. After a match, the service runs
//! the protocol stage of §IV-B from the message's descriptor: an eager
//! payload is moved out of the bounce buffer; a rendezvous payload is pulled
//! with an RDMA READ of the bytes behind its piggybacked head, against the
//! sender's registered region. Unexpected messages have their staged bytes
//! (and descriptor) moved into the unexpected store (§IV-C).

use crate::memory::DeviceMemory;
use crate::nic::{Completion, NicError, RecvNic};
use crate::obs::{ServiceCounts, ServiceMetrics};
use crate::rdma::{Descriptor, RdmaDomain, RdmaError};
use mpi_matching::traditional::TraditionalMatcher;
use mpi_matching::{
    CommandOutcome, MatchingBackend, MsgHandle, PendingCommand, PostResult, RdmaNoOp, RecvHandle,
};
use otm::{Delivery, OtmEngine};
use otm_base::hash::IntHasher;
use otm_base::memory::Footprint;
use otm_base::{Envelope, MatchConfig, MatchError, ReceivePattern};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// A receive that completed: matched, protocol executed, data delivered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedReceive {
    /// The receive handle returned by [`MatchingService::post_recv`].
    pub recv: RecvHandle,
    /// The matched message's envelope.
    pub env: Envelope,
    /// The delivered payload (the "user buffer" after the copy / RDMA read).
    pub data: Vec<u8>,
}

/// Errors surfaced by the service.
#[derive(Debug)]
pub enum ServiceError {
    /// Receive path failure.
    Nic(NicError),
    /// Matching failure (resource exhaustion ⇒ software fallback).
    Match(MatchError),
    /// Rendezvous RDMA read failure.
    Rdma(RdmaError),
    /// The software-fallback replay violated a migration invariant (e.g. a
    /// drained receive or message matched while the snapshot was being
    /// replayed, or a drained outcome names a message the service holds no
    /// payload for). The service stays poisoned: running on after a spurious
    /// match would silently corrupt the MPI matching order.
    FallbackReplay(String),
    /// The sender-side reliability protocol gave up (transport failure or
    /// retry-budget exhaustion on an unacknowledged window).
    Reliability(crate::reliable::ReliabilityError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Nic(e) => write!(f, "nic: {e}"),
            ServiceError::Match(e) => write!(f, "match: {e}"),
            ServiceError::Rdma(e) => write!(f, "rdma: {e}"),
            ServiceError::FallbackReplay(msg) => write!(f, "fallback replay: {msg}"),
            ServiceError::Reliability(e) => write!(f, "reliability: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<crate::reliable::ReliabilityError> for ServiceError {
    fn from(e: crate::reliable::ReliabilityError) -> Self {
        ServiceError::Reliability(e)
    }
}

impl From<NicError> for ServiceError {
    fn from(e: NicError) -> Self {
        ServiceError::Nic(e)
    }
}
impl From<MatchError> for ServiceError {
    fn from(e: MatchError) -> Self {
        ServiceError::Match(e)
    }
}
impl From<RdmaError> for ServiceError {
    fn from(e: RdmaError) -> Self {
        ServiceError::Rdma(e)
    }
}

/// A message taken off the completion queue: what the protocol reads of its
/// header, and the bytes its bounce buffer held (the eager payload, or the
/// rendezvous head). An unexpected one waits so in the unexpected store
/// (§IV-C), its bounce buffer freed.
#[derive(Debug)]
struct StoredMessage {
    env: Envelope,
    desc: Descriptor,
    bytes: Vec<u8>,
}

/// The receive-side matching service (see module docs).
pub struct MatchingService {
    /// `None` while poisoned: a fallback migration took the backend and did
    /// not complete (see [`MatchingService::fall_back_to_software`]).
    backend: Option<Box<dyn MatchingBackend>>,
    nic: RecvNic,
    domain: RdmaDomain,
    next_recv: u64,
    completed: Vec<CompletedReceive>,
    /// Handles are the service's own running count, hashed by `IntHasher`.
    unexpected: HashMap<MsgHandle, StoredMessage, BuildHasherDefault<IntHasher>>,
    /// How many completions at the front of the NIC's completion queue are
    /// arrivals submitted into the backend's command queue whose outcome has
    /// not applied yet: each stays there, with its bounce buffer, until its
    /// outcome takes it (a fallback replays it with its payload intact).
    submitted: usize,
    fellback: bool,
    counts: ServiceCounts,
    /// Lifecycle spans of the fallback replays.
    #[cfg(feature = "trace-events")]
    spans: otm_metrics::SpanRecorder,
    /// Virtual clock: one tick per [`MatchingService::progress`] call (the
    /// simulator measures time in polls).
    polls: u64,
}

/// How many times a retryable drain error is retried within one
/// [`MatchingService::progress`] call before the service escalates to
/// software fallback (and how many inline drains a full submission ring
/// gets). Transient device failures (a busy worker, a momentary memory
/// squeeze) clear on retry; genuine exhaustion burns through the budget and
/// migrates. Each retry records one step of the exponential backoff
/// schedule in the `dpa_backoff_polls` histogram — the simulator's clock is
/// the poll count, so the backoff is recorded rather than slept.
pub(crate) const DEFAULT_DRAIN_RETRY_BUDGET: u32 = 3;

/// An inert stand-in for the feedback controller the service no longer
/// runs: [`MatchingService::attach_controller`] drops it. The benchmark
/// package still names it; it goes with
/// [`MatchingService::enable_command_queue`] (ROADMAP item 1).
#[derive(Debug)]
pub struct FeedbackController;

impl FeedbackController {
    /// The one way the benchmark package builds it.
    pub fn with_defaults() -> Self {
        Self
    }
}

impl MatchingService {
    /// Creates a service around an arbitrary matching backend. This is the
    /// single construction path: the named constructors below only pick the
    /// backend (and, for the offloaded one, charge the memory budget).
    pub fn with_backend(
        nic: RecvNic,
        domain: RdmaDomain,
        backend: Box<dyn MatchingBackend>,
    ) -> Self {
        MatchingService {
            backend: Some(backend),
            nic,
            domain,
            next_recv: 0,
            completed: Vec::new(),
            unexpected: HashMap::default(),
            submitted: 0,
            fellback: false,
            counts: ServiceCounts::default(),
            #[cfg(feature = "trace-events")]
            spans: otm_metrics::SpanRecorder::new(crate::obs::SPAN_CAPACITY),
            polls: 0,
        }
    }

    /// Re-arms the service for a new receiver, on the same NIC and domain:
    /// it reads as [`MatchingService::with_backend`] left it. The backend
    /// resets in place ([`MatchingBackend::reset`]); one that refuses — the
    /// software matcher a fallback left — and a poisoned service's missing
    /// one are replaced by `fresh()`.
    /// Receive handles and the poll clock start over; the completed and
    /// unexpected stores empty, and the rendezvous regions of messages that
    /// never matched, waiting or still on the completion queue, are
    /// deregistered; the fallback flag
    /// returns to its default; every count reads zero and the span ring is
    /// empty. The NIC re-arms on its own ([`RecvNic::rearm`]), and so does
    /// each sender ([`crate::ReliableSender::rearm`]).
    pub(crate) fn rearm(&mut self, fresh: impl FnOnce() -> Box<dyn MatchingBackend>) {
        if !self.backend.as_mut().is_some_and(|b| b.reset().is_ok()) {
            self.backend = Some(fresh());
        }
        self.next_recv = 0;
        self.completed.clear();
        let waiting = self.unexpected.drain().map(|(_, stored)| stored.desc);
        let queued = (0..).map_while(|at| self.nic.completion(at));
        for rkey in waiting
            .chain(queued.map(|c| c.desc))
            .filter_map(Descriptor::rkey)
        {
            self.domain.deregister(rkey);
        }
        self.submitted = 0;
        self.fellback = false;
        self.counts = ServiceCounts::default();
        #[cfg(feature = "trace-events")]
        self.spans.reset();
        self.polls = 0;
    }

    /// Does nothing and returns `Ok` for every backend: the service drives
    /// every backend through its command queue (see the module docs). The
    /// benchmark package still calls it; it goes when that package is next
    /// rebuilt (ROADMAP item 1).
    pub fn enable_command_queue(&mut self) -> Result<(), ServiceError> {
        Ok(())
    }

    /// Does nothing: the service runs no feedback controller. The
    /// benchmark package still calls it; it goes with
    /// [`MatchingService::enable_command_queue`] (ROADMAP item 1).
    pub fn attach_controller(&mut self, _: FeedbackController) {}

    /// Always `None`: no controller publishes a window hint, so each
    /// [`crate::ReliableSender`] keeps its own AIMD under its cap. The
    /// benchmark package still reads it; it goes with
    /// [`MatchingService::enable_command_queue`] (ROADMAP item 1).
    pub fn reliability_window_hint(&self) -> Option<usize> {
        None
    }

    /// Creates the offloaded service, charging the communicator's matching
    /// state against the DPA memory budget. An invalid `config` is refused
    /// before anything is charged. On [`MatchError::OutOfDeviceMemory`] the
    /// caller is expected to fall back to [`MatchingService::mpi_cpu`]
    /// (§IV-E).
    pub fn offloaded(
        nic: RecvNic,
        domain: RdmaDomain,
        config: MatchConfig,
        budget: &mut DeviceMemory,
    ) -> Result<Self, MatchError> {
        config.validate()?;
        budget.try_alloc_comm(Footprint::compute(config.bins, config.max_receives))?;
        let engine = OtmEngine::new(config)?;
        Ok(Self::with_backend(nic, domain, Box::new(engine)))
    }

    /// The host-CPU traditional matcher (MPI-CPU baseline).
    pub fn mpi_cpu(nic: RecvNic, domain: RdmaDomain) -> Self {
        Self::with_backend(nic, domain, Box::new(TraditionalMatcher::new()))
    }

    /// The no-matching transport ceiling (RDMA-CPU baseline).
    pub fn rdma_cpu(nic: RecvNic, domain: RdmaDomain) -> Self {
        Self::with_backend(nic, domain, Box::new(RdmaNoOp::new()))
    }

    /// Which backend is running (for reports): `"Poisoned"` when none is.
    pub fn backend_name(&self) -> &'static str {
        self.backend
            .as_ref()
            .map_or("Poisoned", |b| b.backend_name())
    }

    /// Engine statistics, when the backend is the offloaded engine.
    pub fn engine_stats(&self) -> Option<otm::StatsSnapshot> {
        self.backend.as_ref()?.engine_stats()
    }

    /// The running backend, or [`MatchError::EngineStopped`] while the
    /// service is poisoned.
    fn backend(&mut self) -> Result<&mut Box<dyn MatchingBackend>, MatchError> {
        self.backend.as_mut().ok_or(MatchError::EngineStopped)
    }

    /// The inert [`ServiceMetrics`] shim: the service keeps its counts in
    /// fields of its own, read by
    /// [`MatchingService::observability_snapshot`].
    pub fn metrics(&self) -> &ServiceMetrics {
        &ServiceMetrics
    }

    /// One combined registry snapshot: the service's own counts, queue
    /// gauges and drain-retry backoff histogram (see the `obs` module), the
    /// counts read from their other owners — the poll clock, the fallback
    /// flag, the NIC's receive counters and the wire's injected faults
    /// (zeros without a fault plan) — merged with, when the backend is the
    /// offloaded engine, the engine's [`OtmEngine::metrics_snapshot`]. The
    /// senders' counts are theirs
    /// (`ReliableSender::observability_snapshot`).
    pub fn observability_snapshot(&self) -> otm_metrics::RegistrySnapshot {
        let mut snap = self.counts.snapshot();
        let rx = self.nic.rx_stats();
        let wire = self.nic.wire_fault_stats().unwrap_or_default();
        for (name, n) in [
            ("dpa_cq_polls_total", self.polls),
            ("dpa_fallbacks_total", u64::from(self.fellback)),
            ("dpa_rx_duplicates_total", rx.duplicates),
            ("dpa_rx_gaps_total", rx.gaps),
            ("dpa_rx_staged_total", rx.staged_out_of_order),
            ("dpa_rx_stage_overflow_total", rx.stage_overflow),
            ("dpa_wire_drops_total", wire.drops),
            ("dpa_wire_dups_total", wire.duplicates),
            ("dpa_wire_reorders_total", wire.reorders),
            ("dpa_wire_delays_total", wire.delays),
            #[cfg(feature = "trace-events")]
            ("dpa_span_dropped_total", self.spans.dropped()),
        ] {
            snap.counters.insert(name.to_string(), n);
        }
        match self.backend.as_ref().and_then(|b| b.metrics_snapshot()) {
            Some(engine) => snap.merge(&engine),
            None => snap,
        }
    }

    /// The service's virtual clock: how many times
    /// [`MatchingService::progress`] has run.
    pub fn polls(&self) -> u64 {
        self.polls
    }

    /// The backlog matching left behind: completions still on the CQ plus
    /// messages waiting in the unexpected store (the series' queue depth).
    pub(crate) fn backlog(&self) -> u64 {
        (self.nic.cq_len() + self.unexpected.len()) as u64
    }

    /// The span ring of what matches: the offloaded engine's (posted,
    /// enqueued, packed, matched) while it runs, else the service's own
    /// ring of fallback replays (a migration drops the engine and its ring).
    #[cfg(feature = "trace-events")]
    pub fn span_recorder(&self) -> &otm_metrics::SpanRecorder {
        self.backend
            .as_ref()
            .and_then(|b| b.span_recorder())
            .unwrap_or(&self.spans)
    }

    /// Stamps a `fell_back` lifecycle span on `subject` — a message, or a
    /// receive namespaced with [`otm_metrics::RECV_SUBJECT_BIT`] — replayed
    /// into the software matcher (no-op unless `trace-events` is on). Ring
    /// overflow is accounted in `dpa_span_dropped_total`.
    #[inline]
    pub(crate) fn span_fell_back(&mut self, subject: u64) {
        #[cfg(feature = "trace-events")]
        self.spans.push(subject, otm_metrics::SpanKind::FellBack);
        #[cfg(not(feature = "trace-events"))]
        let _ = subject;
    }

    /// Posts a receive under the next reserved handle (see
    /// [`MatchingService::post_recv_queued_reserved`]).
    pub fn post_recv(&mut self, pattern: ReceivePattern) -> Result<RecvHandle, ServiceError> {
        let handle = self.reserve_recv();
        self.post_recv_queued_reserved(pattern, handle)?;
        Ok(handle)
    }

    /// Reserves the next receive handle from the service's own counter
    /// without posting anything. A caller that must know a receive's
    /// identity *before* the post is accepted (the application replay
    /// retries a post a full submission ring refused under the same
    /// handle) reserves here and posts through
    /// [`MatchingService::post_recv_queued_reserved`].
    pub fn reserve_recv(&mut self) -> RecvHandle {
        let handle = RecvHandle(self.next_recv);
        self.next_recv += 1;
        handle
    }

    /// Posts a receive under a caller-supplied handle, which must be unique
    /// for the service's lifetime (reserved via
    /// [`MatchingService::reserve_recv`] or minted in a namespace that
    /// cannot collide with it).
    ///
    /// The post is a command on the backend's queue (§IV-E). On the
    /// offloaded engine it takes effect, in submission order with the
    /// arrivals, at the drain that ends the next
    /// [`MatchingService::progress`], completing there if a waiting
    /// unexpected message matches; a full submission ring is returned as
    /// the retryable [`MatchError::SubmissionRingFull`], and the next
    /// `progress` frees it. A host matcher, which never migrates, has no
    /// device ring to batch for: while a message waits in the unexpected
    /// store the service drains it right after the post, so a match
    /// completes the receive at the post; a post that nothing waiting could
    /// match applies at the next drain.
    pub fn post_recv_queued_reserved(
        &mut self,
        pattern: ReceivePattern,
        handle: RecvHandle,
    ) -> Result<(), ServiceError> {
        let backend = self.backend()?;
        backend.submit_command(PendingCommand::Post { pattern, handle })?;
        if !backend.wants_offload_fallback() && !self.unexpected.is_empty() {
            self.drain_and_apply()?;
        }
        Ok(())
    }

    /// Migrates all matching state from the offloaded backend to a host
    /// software matcher (§III-B/§IV-E fallback), in two phases, each a batch
    /// of commands into the new [`TraditionalMatcher`] whose drained
    /// outcomes apply like any other drain's:
    ///
    /// 1. **State replay.** The drained unexpected messages, then the
    ///    drained receives. Both sides are mutually non-matching by
    ///    construction (each was checked against the other side when it was
    ///    recorded), so a match here means the snapshot is corrupt — the
    ///    replay aborts with [`ServiceError::FallbackReplay`] and the
    ///    poison stays installed.
    /// 2. **Pending replay.** The commands the backend accepted into its
    ///    submission queue but never applied: `extra_pending` first (what a
    ///    terminal [`mpi_matching::DrainReport`] surfaced — those commands
    ///    were popped before the snapshot was taken), then the snapshot's
    ///    own pending tail, in submission order. These are younger than the
    ///    state and *may* legitimately match during replay; any pair formed
    ///    runs its protocol with the payload still on the completion queue
    ///    or in the unexpected store.
    ///
    /// The migration is transactional: the backend slot stays empty — the
    /// service is *poisoned* — while the offloaded backend drains, and the
    /// software matcher is installed only once the full state AND every
    /// pending command have been replayed. If the drain or the replay
    /// fails, the slot stays empty: every later post, arrival and drain
    /// reports [`MatchError::EngineStopped`] rather than silently matching
    /// against a partial state, [`MatchingService::backend_name`] reads
    /// `"Poisoned"`, and only [`MatchingService::rearm`] installs a backend
    /// again.
    fn fall_back_to_software(
        &mut self,
        extra_pending: Vec<PendingCommand>,
    ) -> Result<(), ServiceError> {
        let offloaded = self.backend.take().ok_or(MatchError::EngineStopped)?;
        let state = offloaded.drain_for_fallback()?;
        let arrivals = state
            .unexpected
            .into_iter()
            .map(|(env, msg)| PendingCommand::Arrival { env, msg });
        let posts = state
            .receives
            .into_iter()
            .map(|(pattern, handle)| PendingCommand::Post { pattern, handle });
        let drained: Vec<PendingCommand> = arrivals.chain(posts).collect();
        let pending: Vec<PendingCommand> = extra_pending.into_iter().chain(state.pending).collect();
        let mut matcher = TraditionalMatcher::new();
        for (commands, may_match) in [(drained, false), (pending, true)] {
            for cmd in commands {
                self.span_fell_back(match cmd {
                    PendingCommand::Post { handle, .. } => otm_metrics::RECV_SUBJECT_BIT | handle.0,
                    PendingCommand::Arrival { msg, .. } => msg.0,
                });
                matcher.submit_command(cmd)?;
            }
            let report = matcher.drain_commands();
            if let Some(e) = report.error {
                return Err(e.into());
            }
            for outcome in report.outcomes {
                let matched = matches!(
                    outcome,
                    CommandOutcome::Post {
                        result: PostResult::Matched(_),
                        ..
                    } | CommandOutcome::Delivery(Delivery::Matched { .. })
                );
                if matched && !may_match {
                    return Err(ServiceError::FallbackReplay(format!(
                        "the drained state matched itself during state replay: {outcome:?}"
                    )));
                }
                self.apply_queue_outcome(outcome)?;
            }
        }
        self.backend = Some(Box::new(matcher));
        self.fellback = true;
        Ok(())
    }

    /// Whether the service has fallen back to software matching.
    pub fn fell_back(&self) -> bool {
        self.fellback
    }

    /// Polls the NIC and matches everything that arrived. Returns the
    /// number of newly completed receives.
    ///
    /// Each completion on the CQ is submitted as an arrival into the
    /// backend's queue, one at a time, and stays on the CQ; the drain that
    /// ends the call applies the queue (and packs the offloaded engine's
    /// blocks), and each arrival's outcome takes its completion off the CQ.
    /// A completion an error stops before is submitted by the next call.
    /// A queue pair whose peer is gone is reported (`Nic(Rdma(..))`) only
    /// after what the poll staged is submitted and drained.
    ///
    /// A drain stopped by resource exhaustion or a dead engine migrates to
    /// software matching — loss-free: the commands the drain could not
    /// apply (requeued for retryable errors, surfaced in the report for
    /// terminal ones) replay into the software matcher together with the
    /// drained state, and the arrivals still to come in this call go into
    /// the software matcher's queue.
    pub fn progress(&mut self) -> Result<usize, ServiceError> {
        self.polls += 1;
        // A dead queue pair is reported once what the live ones delivered
        // is matched; a full bounce pool stops the poll where it is.
        let dead = match self.nic.poll() {
            Ok(_) => None,
            Err(e @ NicError::Staging(_)) => {
                self.counts.bounce_spills += 1;
                return Err(e.into());
            }
            Err(e) => Some(e),
        };
        // Backlog at its largest: everything arrived, nothing matched yet.
        self.observe_queues();
        let before = self.completed.len();
        while let Some(&Completion { env, msg, .. }) = self.nic.completion(self.submitted) {
            self.submit_arrival(env, msg)?;
            self.submitted += 1;
        }
        self.drain_and_apply()?;
        // Post-drain view: the CQ is empty, the unexpected store and any
        // still-staged bounce buffers reflect what matching left behind.
        self.observe_queues();
        let done = self.completed.len() - before;
        self.counts.completions += done as u64;
        dead.map_or(Ok(done), |e| Err(e.into()))
    }

    /// Submits one staged arrival into the backend's command queue. A full
    /// per-communicator submission ring is not an error but backpressure
    /// (§IV-E): the drain is the only consumer that frees slots, so run it
    /// inline and retry the push, bounded by the drain retry budget (an
    /// inline drain stalled by injected faults could otherwise spin here
    /// forever without freeing a slot). An inline drain that escalated to
    /// software matching leaves the retry to the software matcher's queue.
    fn submit_arrival(&mut self, env: Envelope, msg: MsgHandle) -> Result<(), ServiceError> {
        let mut attempt: u32 = 0;
        loop {
            match self
                .backend()?
                .submit_command(PendingCommand::Arrival { env, msg })
            {
                Ok(()) => return Ok(()),
                Err(MatchError::SubmissionRingFull { .. })
                    if attempt <= DEFAULT_DRAIN_RETRY_BUDGET =>
                {
                    attempt += 1;
                    self.counts.ring_backpressure += 1;
                    self.drain_and_apply()?;
                }
                Err(e) => return Err(ServiceError::Match(e)),
            }
        }
    }

    /// Drains the backend's command queue and applies every outcome,
    /// retrying retryable drain errors up to the budget and escalating to
    /// software fallback when the backend asks for it.
    fn drain_and_apply(&mut self) -> Result<(), ServiceError> {
        let mut attempt: u32 = 0;
        loop {
            let report = self.backend()?.drain_commands();
            for outcome in report.outcomes {
                self.apply_queue_outcome(outcome)?;
            }
            match report.error {
                None => return Ok(()),
                Some(e) if e.is_retryable() && attempt < DEFAULT_DRAIN_RETRY_BUDGET => {
                    // A retryable drain error requeued the unapplied
                    // commands, so re-draining is safe. Record one step of
                    // the exponential backoff schedule (1, 2, 4, ... polls —
                    // the simulator's clock is the poll count, so the delay
                    // is recorded, not slept) and try again; transient
                    // device faults clear, genuine exhaustion burns the
                    // budget and escalates below.
                    attempt += 1;
                    self.counts.drain_retries += 1;
                    let backoff = 1u64 << (attempt - 1).min(20);
                    self.counts.backoff_polls.record(backoff);
                }
                Some(e)
                    if self.backend()?.wants_offload_fallback()
                        && (e.is_retryable() || e == MatchError::EngineStopped) =>
                {
                    // Retryable exhaustion requeued the unapplied commands
                    // (the fallback snapshot folds them in); a terminal
                    // EngineStopped surfaced them in the report — hand those
                    // over explicitly.
                    self.counts.fallback_escalations += 1;
                    return self.fall_back_to_software(report.unapplied);
                }
                Some(e) => return Err(e.into()),
            }
        }
    }

    /// Applies one drained command outcome: a receive and message paired
    /// by either command complete through the protocol with the message's
    /// stored payload, and an unexpected arrival's payload moves into the
    /// unexpected store.
    fn apply_queue_outcome(&mut self, outcome: CommandOutcome) -> Result<(), ServiceError> {
        let (recv, msg) = match outcome {
            CommandOutcome::Post {
                result: PostResult::Posted,
                ..
            } => return Ok(()),
            CommandOutcome::Post {
                handle,
                result: PostResult::Matched(msg),
            } => (handle, msg),
            CommandOutcome::Delivery(Delivery::Matched { msg, recv }) => (recv, msg),
            CommandOutcome::Delivery(Delivery::Unexpected { msg }) => {
                let stored = self.take_payload(msg)?;
                self.unexpected.insert(msg, stored);
                return Ok(());
            }
        };
        let stored = self.take_payload(msg)?;
        let done = self.run_protocol_from_store(recv, stored)?;
        self.completed.push(done);
        Ok(())
    }

    /// Takes the payload of a message a drain reported. A submitted
    /// arrival's is still on the completion queue, at its front unless a
    /// drain cut short by an error applied a later arrival first; a message
    /// that waited, or that a fallback replays, has it in the unexpected
    /// store.
    fn take_payload(&mut self, msg: MsgHandle) -> Result<StoredMessage, ServiceError> {
        if let Some((completion, bytes)) = self.nic.take_completion(msg, self.submitted) {
            self.submitted -= 1;
            let (env, desc) = (completion.env, completion.desc);
            return Ok(StoredMessage { env, desc, bytes });
        }
        self.unexpected.remove(&msg).ok_or_else(|| {
            ServiceError::FallbackReplay(format!("message {msg:?} has no stored payload"))
        })
    }

    /// Samples the three queue-depth gauges (and their peaks).
    fn observe_queues(&mut self) {
        self.counts.observe_queues(
            self.nic.cq_len(),
            self.nic.bounce_in_use(),
            self.unexpected.len(),
        );
    }

    /// Protocol handling for a matched message, taken out of its bounce
    /// buffer just now or out of the unexpected store: eager hands the bytes
    /// over; rendezvous issues the RDMA read behind the head it holds.
    fn run_protocol_from_store(
        &mut self,
        recv: RecvHandle,
        stored: StoredMessage,
    ) -> Result<CompletedReceive, ServiceError> {
        let (desc, mut data) = (stored.desc, stored.bytes);
        let (len, piggyback) = (desc.len as usize, desc.piggyback as usize);
        match desc.rkey() {
            None => {
                assert!(len <= data.len(), "eager header outruns the staged bytes");
                data.truncate(len);
            }
            Some(rkey) => {
                self.domain
                    .read_into(rkey, piggyback, len - piggyback, &mut data)?;
                // The transfer is one-shot in this simulator: release the
                // sender's registered region so the fabric-wide domain does
                // not accumulate a region per rendezvous message.
                self.domain.deregister(rkey);
            }
        }
        Ok(CompletedReceive {
            recv,
            env: stored.env,
            data,
        })
    }

    /// Takes everything completed so far, in a vector of its own sized to
    /// fit: the service's buffer stays at size for the next polls instead
    /// of regrowing from empty.
    pub fn take_completed(&mut self) -> Vec<CompletedReceive> {
        self.completed.drain(..).collect()
    }

    /// Unexpected messages currently stored.
    pub fn unexpected_len(&self) -> usize {
        self.unexpected.len()
    }

    /// Access to the NIC (e.g. for sending acks from the receiver side).
    pub fn nic(&self) -> &RecvNic {
        &self.nic
    }

    /// Mutable access to the NIC, to connect peers ([`RecvNic::add_qp`]) or
    /// re-arm it ([`RecvNic::rearm`]).
    pub(crate) fn nic_mut(&mut self) -> &mut RecvNic {
        &mut self.nic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounce::BouncePool;
    use crate::rdma::{connected_pair, eager_packet, rendezvous_packet, QueuePair};
    use crate::reliable::ReliableSender;
    use otm_base::{CommHints, CommId, Rank, SourceSel, Tag};

    impl MatchingService {
        /// Completed receives waiting to be taken.
        fn completed_len(&self) -> usize {
            self.completed.len()
        }
    }

    fn setup(mode: &str) -> (QueuePair, RdmaDomain, MatchingService) {
        let (tx, rx) = connected_pair();
        let domain = RdmaDomain::new();
        let nic = RecvNic::new(rx, BouncePool::new(64, 256));
        let svc = match mode {
            "otm" => {
                let mut budget = DeviceMemory::bluefield3_l3();
                MatchingService::offloaded(nic, domain.clone(), MatchConfig::small(), &mut budget)
                    .unwrap()
            }
            "cpu" => MatchingService::mpi_cpu(nic, domain.clone()),
            "rdma" => MatchingService::rdma_cpu(nic, domain.clone()),
            _ => unreachable!(),
        };
        (tx, domain, svc)
    }

    fn env(src: u32, tag: u32) -> Envelope {
        Envelope::world(Rank(src), Tag(tag))
    }

    #[test]
    fn eager_expected_path_delivers_payload() {
        for mode in ["otm", "cpu"] {
            assert_eager_delivers(mode, vec![10, 20, 30]);
        }
    }

    #[test]
    fn eager_zero_byte_message_is_legal() {
        for mode in ["otm", "cpu"] {
            assert_eager_delivers(mode, vec![]);
        }
    }

    /// An eager message sent after its receive is posted completes that
    /// receive with its payload.
    fn assert_eager_delivers(mode: &str, payload: Vec<u8>) {
        let (tx, _domain, mut svc) = setup(mode);
        let recv = svc
            .post_recv(ReceivePattern::exact(Rank(0), Tag(1)))
            .unwrap();
        tx.send(eager_packet(env(0, 1), payload.clone())).unwrap();
        assert_eq!(svc.progress().unwrap(), 1, "{mode}");
        let done = svc.take_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].recv, recv);
        assert_eq!(done[0].data, payload);
    }

    #[test]
    fn consecutive_handles_spread_over_both_ends_of_the_unexpected_maps_hash() {
        // The map picks a bucket with a hash's low bits and tags the entry
        // with its high bits; handles are a running count.
        use std::hash::BuildHasher;
        let (_tx, _domain, svc) = setup("otm");
        let hasher = svc.unexpected.hasher();
        for first in [0u64, 1 << 40] {
            let (mut prefixes, mut suffixes) = (vec![false; 1 << 16], vec![false; 1 << 16]);
            for handle in first..first + 100_000 {
                let hash = hasher.hash_one(MsgHandle(handle));
                prefixes[(hash >> 48) as usize] = true;
                suffixes[(hash & 0xffff) as usize] = true;
            }
            for (end, hit) in [("prefixes", prefixes), ("suffixes", suffixes)] {
                let distinct = hit.iter().filter(|&&h| h).count();
                assert!(
                    distinct * 100 >= 99 << 16,
                    "{distinct} distinct 16-bit {end} from {first}"
                );
            }
        }
    }

    #[test]
    fn eager_unexpected_path_delivers_on_post() {
        for mode in ["otm", "cpu"] {
            let (tx, _domain, mut svc) = setup(mode);
            tx.send(eager_packet(env(2, 9), vec![5; 16])).unwrap();
            assert_eq!(svc.progress().unwrap(), 0, "{mode}: no receive yet");
            assert_eq!(svc.unexpected_len(), 1);
            let recv = svc.post_recv(ReceivePattern::any_source(Tag(9))).unwrap();
            svc.progress().unwrap();
            let done = svc.take_completed();
            assert_eq!(done.len(), 1);
            assert_eq!(done[0].recv, recv);
            assert_eq!(done[0].data, vec![5; 16]);
            assert_eq!(svc.unexpected_len(), 0);
        }
    }

    #[test]
    fn rendezvous_expected_path_pulls_via_rdma_read() {
        // The READ starts behind the head; a head of the whole payload
        // leaves it zero bytes long.
        for (mode, piggyback) in [("otm", 16), ("cpu", 16), ("otm", 200)] {
            assert_rendezvous_delivers(mode, piggyback);
        }
    }

    #[test]
    fn malformed_piggyback_is_clamped_not_underflowed() {
        // A head claiming more than the 200-byte payload is clamped to it
        // when the packet is made, so the READ is zero bytes, not a wrap.
        for mode in ["otm", "cpu"] {
            assert_rendezvous_delivers(mode, 1000);
        }
    }

    /// A rendezvous message of 200 bytes with `piggyback` of them sent
    /// inline, sent after its receive is posted, completes that receive
    /// with the whole payload and releases the sender's region.
    fn assert_rendezvous_delivers(mode: &str, piggyback: usize) {
        let (tx, domain, mut svc) = setup(mode);
        let recv = svc
            .post_recv(ReceivePattern::exact(Rank(0), Tag(2)))
            .unwrap();
        let payload: Vec<u8> = (0..200).map(|i| (i % 251) as u8).collect();
        let (pkt, _rkey) = rendezvous_packet(&domain, env(0, 2), payload.clone(), piggyback);
        assert_eq!(pkt.inline.len(), piggyback.min(200));
        tx.send(pkt).unwrap();
        assert_eq!(svc.progress().unwrap(), 1, "{mode}");
        let done = svc.take_completed();
        assert_eq!(done[0].recv, recv);
        assert_eq!(done[0].data, payload);
        assert_eq!(domain.region_count(), 0, "the region is released");
    }

    #[test]
    fn rendezvous_unexpected_path_reads_at_post_time() {
        let (tx, domain, mut svc) = setup("otm");
        let payload: Vec<u8> = (0..100).collect();
        let (pkt, _rkey) = rendezvous_packet(&domain, env(1, 3), payload.clone(), 0);
        tx.send(pkt).unwrap();
        svc.progress().unwrap();
        assert_eq!(svc.unexpected_len(), 1);
        svc.post_recv(ReceivePattern::exact(Rank(1), Tag(3)))
            .unwrap();
        assert_eq!(svc.progress().unwrap(), 1, "the post applies at the drain");
        let done = svc.take_completed();
        assert_eq!(done[0].data, payload);
    }

    #[test]
    fn a_region_deregistered_before_the_match_fails_the_read() {
        for mode in ["otm", "cpu"] {
            let (tx, domain, mut svc) = setup(mode);
            svc.post_recv(ReceivePattern::exact(Rank(0), Tag(6)))
                .unwrap();
            let (pkt, rkey) = rendezvous_packet(&domain, env(0, 6), vec![7; 100], 8);
            domain.deregister(rkey);
            tx.send(pkt).unwrap();
            assert!(
                matches!(
                    svc.progress(),
                    Err(ServiceError::Rdma(RdmaError::InvalidRKey(key))) if key == rkey.0
                ),
                "{mode}"
            );
        }
    }

    #[test]
    fn a_sender_gone_with_its_lane_empty_disconnects_the_poll() {
        let (tx, _domain, mut svc) = setup("otm");
        drop(tx);
        assert!(matches!(
            svc.progress(),
            Err(ServiceError::Nic(NicError::Rdma(RdmaError::Disconnected)))
        ));
    }

    #[test]
    fn a_dropped_queue_pair_keeps_what_it_sent_and_the_pairs_behind_it_deliver() {
        let (tx, _domain, mut svc) = setup("otm");
        let (tx2, rx2) = connected_pair();
        svc.nic_mut().add_qp(rx2);
        let (mut gone, mut live) = (ReliableSender::new(tx), ReliableSender::new(tx2));
        let first = svc.post_recv(ReceivePattern::exact(Rank(0), Tag(1)));
        let second = svc.post_recv(ReceivePattern::exact(Rank(1), Tag(2)));
        gone.send(eager_packet(env(0, 1), vec![1])).unwrap();
        live.send(eager_packet(env(1, 2), vec![2])).unwrap();
        drop(gone);
        let disconnected = |polled| {
            matches!(
                polled,
                Err(ServiceError::Nic(NicError::Rdma(RdmaError::Disconnected)))
            )
        };
        assert!(disconnected(svc.progress()));
        let done: Vec<_> = svc
            .take_completed()
            .into_iter()
            .map(|c| (c.recv, c.data))
            .collect();
        assert_eq!(
            done,
            [(first.unwrap(), vec![1]), (second.unwrap(), vec![2])]
        );
        live.poll().unwrap();
        assert_eq!(live.unacked(), 0, "the live pair was acked");
        assert!(disconnected(svc.progress()), "the dead pair stays dead");
    }

    #[test]
    fn a_rearmed_service_reads_as_new_and_frees_what_never_matched() {
        let (tx, domain, mut svc) = setup("otm");
        svc.post_recv(ReceivePattern::exact(Rank(0), Tag(1)))
            .unwrap();
        let (pkt, _) = rendezvous_packet(&domain, env(1, 3), vec![3; 100], 0);
        tx.send(pkt).unwrap();
        tx.send(eager_packet(env(0, 1), vec![1])).unwrap();
        assert_eq!(svc.progress().unwrap(), 1);
        assert_eq!((svc.unexpected_len(), domain.region_count()), (1, 1));
        svc.rearm(|| unreachable!("the engine resets in place"));
        svc.nic_mut().rearm(1);
        assert_eq!(domain.region_count(), 0, "the unmatched message's region");
        assert_eq!(
            (svc.unexpected_len(), svc.completed_len(), svc.polls()),
            (0, 0, 0)
        );
        assert_eq!(svc.counts, ServiceCounts::default());
        // The next receiver's first receive and message are numbered 0.
        let recv = svc.post_recv(ReceivePattern::any_source(Tag(1))).unwrap();
        tx.send(eager_packet(env(0, 1), vec![2])).unwrap();
        assert_eq!(svc.progress().unwrap(), 1);
        let done = svc.take_completed();
        assert_eq!(
            (recv, done[0].recv, &done[0].data[..]),
            (RecvHandle(0), recv, &[2u8][..])
        );
        let snap = svc.observability_snapshot();
        assert_eq!(snap.counters["dpa_cq_polls_total"], 1);
        assert_eq!(snap.counters["otm_matched_total"], 1);
    }

    #[test]
    fn a_backend_that_cannot_reset_is_replaced_by_a_fresh_one() {
        let (_tx, _domain, mut svc) = setup("cpu");
        svc.post_recv(ReceivePattern::exact(Rank(0), Tag(1)))
            .unwrap();
        let fresh = || Box::new(OtmEngine::new(MatchConfig::small()).unwrap()) as _;
        svc.rearm(fresh);
        assert_eq!(svc.backend_name(), "Optimistic-DPA");
        assert_eq!(svc.engine_stats(), Some(otm::StatsSnapshot::default()));
        svc.rearm(|| unreachable!("the engine resets in place"));
    }

    #[test]
    fn a_receive_posted_later_never_overtakes_an_earlier_one() {
        // C1 across the two post entry points: the same pattern posted
        // through the reserved session path, then through `post_recv`. The
        // one message must complete the first. `enable_command_queue` is
        // inert; both posts take the queue either way.
        let (tx, _domain, mut svc) = setup("otm");
        svc.enable_command_queue().unwrap();
        let pattern = ReceivePattern::exact(Rank(0), Tag(5));
        let first = svc.reserve_recv();
        svc.post_recv_queued_reserved(pattern, first).unwrap();
        let second = svc.post_recv(pattern).unwrap();
        assert!(second > first);
        tx.send(eager_packet(env(0, 5), vec![5])).unwrap();
        assert_eq!(svc.progress().unwrap(), 1);
        assert_eq!(svc.take_completed()[0].recv, first);
    }

    #[test]
    fn rdma_cpu_completes_without_matching() {
        let (tx, _domain, mut svc) = setup("rdma");
        tx.send(eager_packet(env(0, 0), vec![1])).unwrap();
        tx.send(eager_packet(env(5, 7), vec![2])).unwrap();
        assert_eq!(svc.progress().unwrap(), 2);
        let done = svc.take_completed();
        assert_eq!(done[0].recv, RecvHandle(0));
        assert_eq!(done[1].recv, RecvHandle(1));
        assert_eq!(done[0].data, vec![1]);
    }

    #[test]
    fn bursts_are_matched_in_blocks_by_the_offloaded_engine() {
        let (tx, _domain, mut svc) = setup("otm");
        let n = 12usize; // three blocks of the small config's 4 lanes
        let mut expected = Vec::new();
        for i in 0..n {
            expected.push(
                svc.post_recv(ReceivePattern::exact(Rank(0), Tag(i as u32)))
                    .unwrap(),
            );
        }
        for i in 0..n {
            tx.send(eager_packet(env(0, i as u32), vec![i as u8]))
                .unwrap();
        }
        assert_eq!(svc.progress().unwrap(), n);
        let done = svc.take_completed();
        let stats = svc.engine_stats().unwrap();
        assert!(
            stats.blocks >= 3,
            "burst must span several blocks: {stats:?}"
        );
        for (i, d) in done.iter().enumerate() {
            assert_eq!(d.recv, expected[i]);
            assert_eq!(d.data, vec![i as u8]);
        }
    }

    #[test]
    fn memory_budget_gates_offloading() {
        let (_tx, _domain, _svc) = setup("otm"); // sanity: the big budget works
        let (tx, rx) = connected_pair();
        let domain = RdmaDomain::new();
        let nic = RecvNic::new(rx, BouncePool::new(4, 64));
        let mut tiny = DeviceMemory::new(1024); // far below the tables' cost
        let svc = match MatchingService::offloaded(
            nic,
            domain.clone(),
            MatchConfig::default(),
            &mut tiny,
        ) {
            Err(MatchError::OutOfDeviceMemory { .. }) => {
                let (_, rx) = connected_pair();
                MatchingService::mpi_cpu(RecvNic::new(rx, BouncePool::new(4, 64)), domain)
            }
            other => panic!("tiny budget must refuse offloading: {:?}", other.err()),
        };
        assert_eq!(svc.backend_name(), "MPI-CPU");
        assert_eq!(tiny.used(), 0, "a refused communicator is not charged");
        drop(tx);
    }

    #[test]
    fn an_invalid_config_is_refused_before_the_budget_is_charged() {
        let (_tx, rx) = connected_pair();
        let nic = RecvNic::new(rx, BouncePool::new(4, 64));
        let mut budget = DeviceMemory::bluefield3_l3();
        let config = MatchConfig::default().with_block_threads(0);
        let refused = MatchingService::offloaded(nic, RdmaDomain::new(), config, &mut budget);
        assert!(
            matches!(refused, Err(MatchError::InvalidConfig(_))),
            "{:?}",
            refused.err()
        );
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn backend_names_match_figure_8_labels() {
        let (_t1, _d1, a) = setup("otm");
        let (_t2, _d2, b) = setup("cpu");
        let (_t3, _d3, c) = setup("rdma");
        assert_eq!(a.backend_name(), "Optimistic-DPA");
        assert_eq!(b.backend_name(), "MPI-CPU");
        assert_eq!(c.backend_name(), "RDMA-CPU");
    }

    #[test]
    fn any_backend_can_be_injected_through_the_trait() {
        // The service no longer hard-codes its engines: anything
        // implementing MatchingBackend slots in. The binned matcher is not
        // one of the named constructors, which makes it a good probe.
        let (tx, rx) = connected_pair();
        let domain = RdmaDomain::new();
        let nic = RecvNic::new(rx, BouncePool::new(64, 256));
        let backend = Box::new(mpi_matching::binned::BinnedMatcher::new(16));
        let mut svc = MatchingService::with_backend(nic, domain, backend);
        assert_eq!(svc.backend_name(), "Binned-CPU");
        assert!(svc.engine_stats().is_none(), "not the offloaded engine");
        let recv = svc
            .post_recv(ReceivePattern::exact(Rank(0), Tag(1)))
            .unwrap();
        tx.send(eager_packet(env(0, 1), vec![42])).unwrap();
        assert_eq!(svc.progress().unwrap(), 1);
        let done = svc.take_completed();
        assert_eq!(done[0].recv, recv);
        assert_eq!(done[0].data, vec![42]);
    }

    /// What a queue-driven backend whose drains always stop on a full
    /// receive table reports.
    fn table_full_drain() -> mpi_matching::DrainReport {
        mpi_matching::DrainReport {
            error: Some(MatchError::ReceiveTableFull),
            ..Default::default()
        }
    }

    /// A backend that demands the offload fallback but cannot deliver
    /// its state: the service must poison itself, not limp along.
    struct FailingBackend;
    impl MatchingBackend for FailingBackend {
        fn backend_name(&self) -> &'static str {
            "Failing"
        }
        fn post(&mut self, _: ReceivePattern, _: RecvHandle) -> Result<PostResult, MatchError> {
            unreachable!("posts go through the queue")
        }
        fn arrive_block(
            &mut self,
            _: &[(Envelope, MsgHandle)],
        ) -> Result<Vec<Delivery>, MatchError> {
            unreachable!("arrivals go through the queue")
        }
        fn wants_offload_fallback(&self) -> bool {
            true
        }
        fn submit_command(&mut self, _: PendingCommand) -> Result<(), MatchError> {
            Ok(())
        }
        fn drain_commands(&mut self) -> mpi_matching::DrainReport {
            table_full_drain()
        }
        fn drain_for_fallback(self: Box<Self>) -> Result<mpi_matching::FallbackState, MatchError> {
            Err(MatchError::EngineStopped)
        }
    }

    #[test]
    fn failed_fallback_drain_poisons_the_service() {
        let (tx, rx) = connected_pair();
        let domain = RdmaDomain::new();
        let nic = RecvNic::new(rx, BouncePool::new(64, 256));
        let mut svc = MatchingService::with_backend(nic, domain, Box::new(FailingBackend));
        // The drain that applies the post triggers the fallback, whose
        // state drain fails: the error surfaces and the poison is installed
        // in place of the half-dead backend.
        svc.post_recv(ReceivePattern::exact(Rank(0), Tag(0)))
            .unwrap();
        let err = svc.progress().unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Match(MatchError::EngineStopped)
        ));
        assert_eq!(svc.backend_name(), "Poisoned");
        assert!(!svc.fell_back(), "the migration did not complete");
        // Every subsequent matching operation keeps failing loudly.
        let err = svc
            .post_recv(ReceivePattern::exact(Rank(0), Tag(1)))
            .unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Match(MatchError::EngineStopped)
        ));
        tx.send(eager_packet(env(0, 0), vec![1])).unwrap();
        assert!(svc.progress().is_err());
        drop(tx);
    }

    #[test]
    fn a_poisoned_service_comes_back_when_rearmed() {
        let (tx, rx) = connected_pair();
        let nic = RecvNic::new(rx, BouncePool::new(64, 256));
        let backend = Box::new(FailingBackend);
        let mut svc = MatchingService::with_backend(nic, RdmaDomain::new(), backend);
        svc.post_recv(ReceivePattern::exact(Rank(0), Tag(0)))
            .unwrap();
        assert!(svc.progress().is_err());
        assert_eq!(svc.backend_name(), "Poisoned");
        // The poisoned service has no backend to reset: `fresh()` fills it.
        svc.rearm(|| Box::new(OtmEngine::new(MatchConfig::small()).unwrap()));
        svc.nic_mut().rearm(1);
        assert_eq!(svc.backend_name(), "Optimistic-DPA");
        let recv = svc
            .post_recv(ReceivePattern::exact(Rank(0), Tag(1)))
            .unwrap();
        tx.send(eager_packet(env(0, 1), vec![5])).unwrap();
        assert_eq!(svc.progress().unwrap(), 1);
        let done = svc.take_completed();
        assert_eq!((done[0].recv, &done[0].data[..]), (recv, &[5][..]));
        assert!(!svc.fell_back());
    }

    #[test]
    fn table_full_falls_back_to_software_transparently() {
        // A tiny descriptor table: the engine fills after 4 posts; the
        // drain that meets the 5th migrates to software matching.
        // Everything posted before AND after — plus the unexpected messages
        // parked on the device — must keep matching as if nothing happened.
        let (tx, rx) = connected_pair();
        let domain = RdmaDomain::new();
        let nic = RecvNic::new(rx, BouncePool::new(64, 256));
        let mut budget = DeviceMemory::bluefield3_l3();
        let config = MatchConfig::small()
            .with_max_receives(4)
            .with_block_threads(2);
        let mut svc = MatchingService::offloaded(nic, domain, config, &mut budget).unwrap();

        // One unexpected message parks in the device-side store.
        tx.send(eager_packet(env(9, 9), vec![99])).unwrap();
        svc.progress().unwrap();
        assert_eq!(svc.unexpected_len(), 1);

        // Fill the table, then exceed it.
        let mut posted = Vec::new();
        for i in 0..5u32 {
            posted.push(
                svc.post_recv(ReceivePattern::exact(Rank(0), Tag(i)))
                    .unwrap(),
            );
        }
        assert!(!svc.fell_back(), "the posts wait in the queue");
        assert_eq!(svc.progress().unwrap(), 0);
        assert!(svc.fell_back(), "5th post must trigger the §III-B fallback");
        assert_eq!(svc.backend_name(), "MPI-CPU");

        // All five receives (4 migrated + 1 post-fallback) still match, in
        // posted order per pattern.
        for i in 0..5u32 {
            tx.send(eager_packet(env(0, i), vec![i as u8])).unwrap();
        }
        assert_eq!(svc.progress().unwrap(), 5);
        let done = svc.take_completed();
        for (i, d) in done.iter().enumerate() {
            assert_eq!(d.recv, posted[i]);
            assert_eq!(d.data, vec![i as u8]);
        }

        // The migrated unexpected message matches a late post too, at once:
        // the host matcher is synchronous.
        let late = svc
            .post_recv(ReceivePattern::exact(Rank(9), Tag(9)))
            .unwrap();
        let done = svc.take_completed();
        assert_eq!(done[0].recv, late);
        assert_eq!(done[0].data, vec![99]);
    }

    #[test]
    fn fallback_preserves_post_order_of_same_pattern_receives() {
        let (tx, rx) = connected_pair();
        let domain = RdmaDomain::new();
        let nic = RecvNic::new(rx, BouncePool::new(64, 256));
        let mut budget = DeviceMemory::bluefield3_l3();
        let config = MatchConfig::small()
            .with_max_receives(3)
            .with_block_threads(2);
        let mut svc = MatchingService::offloaded(nic, domain, config, &mut budget).unwrap();
        // Three identical receives fill the table; the fourth (also
        // identical) lands on the software side. C1 must survive the
        // migration: messages match receives in original post order.
        let mut posted = Vec::new();
        for _ in 0..4 {
            posted.push(
                svc.post_recv(ReceivePattern::exact(Rank(1), Tag(1)))
                    .unwrap(),
            );
        }
        svc.progress().unwrap();
        assert!(svc.fell_back());
        for i in 0..4u32 {
            tx.send(eager_packet(env(1, 1), vec![i as u8])).unwrap();
        }
        svc.progress().unwrap();
        let done = svc.take_completed();
        for (i, d) in done.iter().enumerate() {
            assert_eq!(d.recv, posted[i], "C1 across the fallback migration");
            assert_eq!(d.data, vec![i as u8]);
        }
    }

    #[test]
    fn observability_snapshot_tracks_queues_and_fallback() {
        let (tx, rx) = connected_pair();
        let domain = RdmaDomain::new();
        let nic = RecvNic::new(rx, BouncePool::new(64, 256));
        let mut budget = DeviceMemory::bluefield3_l3();
        let config = MatchConfig::small()
            .with_max_receives(2)
            .with_block_threads(2);
        let mut svc = MatchingService::offloaded(nic, domain, config, &mut budget).unwrap();

        // One unexpected message, then two matched ones.
        tx.send(eager_packet(env(9, 9), vec![1])).unwrap();
        svc.progress().unwrap();
        for i in 0..2u32 {
            svc.post_recv(ReceivePattern::exact(Rank(0), Tag(i)))
                .unwrap();
            tx.send(eager_packet(env(0, i), vec![i as u8])).unwrap();
        }
        svc.progress().unwrap();

        let snap = svc.observability_snapshot();
        assert_eq!(snap.counters["dpa_cq_polls_total"], 2);
        assert_eq!(snap.counters["dpa_completions_total"], 2);
        assert!(snap.gauges["dpa_cq_depth_peak"] >= 1);
        assert!(snap.gauges["dpa_bounce_in_use_peak"] >= 1);
        assert_eq!(snap.gauges["dpa_unexpected_depth"], 1);
        // The merge pulls the engine's instruments into the same snapshot.
        assert!(snap.hists.contains_key("otm_search_depth"));
        assert_eq!(snap.counters["dpa_fallbacks_total"], 0);

        // Posting unmatched receives until the 2-entry table overflows
        // triggers the §IV-E fallback; the exact post that overflows
        // depends on lazy slot reclamation, so loop with a safety bound.
        for i in 0..16u32 {
            svc.post_recv(ReceivePattern::exact(Rank(3), Tag(i)))
                .unwrap();
            svc.progress().unwrap();
            if svc.fell_back() {
                break;
            }
        }
        assert!(svc.fell_back());
        // After fallback the backend is software: the snapshot is the
        // service's alone, and still machine-readable.
        let snap = svc.observability_snapshot();
        assert_eq!(snap.counters["dpa_fallbacks_total"], 1);
        let json = svc.observability_snapshot().to_json();
        assert!(json.contains("dpa_cq_depth_peak"));
    }

    #[test]
    fn observability_snapshot_names_are_stable() {
        // The ladder and the CI validators read these instruments by name:
        // a rename or a removal must show up here, not as a silently-zero
        // metric downstream.
        let (tx, _domain, mut svc) = setup("otm");
        let snap = svc.observability_snapshot();
        let counters: Vec<&str> = snap.counters.keys().map(String::as_str).collect();
        let gauges: Vec<&str> = snap.gauges.keys().map(String::as_str).collect();
        let hists: Vec<&str> = snap.hists.keys().map(String::as_str).collect();
        let mut expected_counters = vec![
            "dpa_bounce_spills_total",
            "dpa_completions_total",
            "dpa_cq_polls_total",
            "dpa_drain_retries_total",
            "dpa_fallback_escalations_total",
            "dpa_fallbacks_total",
            "dpa_ring_backpressure_total",
            "dpa_rx_duplicates_total",
            "dpa_rx_gaps_total",
            "dpa_rx_stage_overflow_total",
            "dpa_rx_staged_total",
            "dpa_wire_delays_total",
            "dpa_wire_drops_total",
            "dpa_wire_dups_total",
            "dpa_wire_reorders_total",
            "otm_conflicts_total",
            "otm_matched_total",
            "otm_resolutions_total{path=\"nc\"}",
            "otm_resolutions_total{path=\"post\"}",
            "otm_resolutions_total{path=\"wc_fp\"}",
            "otm_resolutions_total{path=\"wc_sp\"}",
        ];
        if cfg!(feature = "trace-events") {
            expected_counters.extend(["dpa_span_dropped_total", "otm_span_dropped_total"]);
            expected_counters.sort_unstable();
        }
        assert_eq!(counters, expected_counters);
        assert_eq!(
            gauges,
            [
                "dpa_bounce_in_use",
                "dpa_bounce_in_use_peak",
                "dpa_cq_depth",
                "dpa_cq_depth_peak",
                "dpa_unexpected_depth",
            ]
        );
        assert_eq!(
            hists,
            [
                "dpa_backoff_polls",
                "otm_block_latency_ns",
                "otm_block_occupancy",
                "otm_search_depth",
                "otm_umq_match_depth",
            ]
        );

        // The per-communicator peak gauges register when the first drain
        // that staged the communicator's lane ends.
        svc.post_recv(ReceivePattern::exact(Rank(0), Tag(1)))
            .unwrap();
        tx.send(eager_packet(env(0, 1), vec![1])).unwrap();
        assert_eq!(svc.progress().unwrap(), 1);
        let after = svc.observability_snapshot();
        let new_gauges: Vec<&str> = after
            .gauges
            .keys()
            .map(String::as_str)
            .filter(|g| !gauges.contains(g))
            .collect();
        assert_eq!(
            new_gauges,
            [
                "otm_drain_lane_depth_peak{comm=\"0\"}",
                "otm_submission_ring_depth_peak{comm=\"0\"}",
            ]
        );
        assert_eq!(after.counters.len(), counters.len());
        assert_eq!(after.hists.len(), hists.len());
    }

    #[test]
    fn series_sampler_snapshots_at_poll_cadence() {
        // The owner of the service samples after each `progress`, on the
        // service's poll clock, as `replay_app` and fig8's flight recorder do.
        let (tx, _domain, mut svc) = setup("otm");
        let mut series = otm_metrics::SeriesRecorder::new(2);
        let mut progress = |svc: &mut MatchingService| {
            svc.progress().unwrap();
            series.sample(svc.polls(), svc.backlog(), &svc.observability_snapshot());
        };
        for i in 0..4u32 {
            svc.post_recv(ReceivePattern::exact(Rank(0), Tag(i)))
                .unwrap();
        }
        for round in 0..4u32 {
            tx.send(eager_packet(env(0, round), vec![round as u8]))
                .unwrap();
            progress(&mut svc);
        }
        // One straggler the table never matches, so queue_depth is visible.
        tx.send(eager_packet(env(9, 9), vec![])).unwrap();
        progress(&mut svc);
        series.force_sample(svc.polls(), svc.backlog(), &svc.observability_snapshot());
        // The first sample is due immediately (poll 1), then every 2 polls;
        // the forced terminal sample coincides with the t=5 grid point and
        // replaces it, keeping `t` strictly increasing.
        let ts: Vec<u64> = series.points().iter().map(|p| p.t).collect();
        assert_eq!(ts, vec![1, 3, 5]);
        // The terminal point's cumulative values equal the end-of-run
        // registry snapshot — the artifact's self-consistency guarantee.
        let last = series.last().expect("non-empty series");
        let snap = svc.observability_snapshot();
        let end = otm_metrics::SeriesPoint::distill(svc.polls(), 0, &snap);
        assert_eq!(last.matched, end.matched);
        assert_eq!(last.path_counts, end.path_counts);
        assert_eq!(last.retransmits, end.retransmits);
        assert_eq!(last.fallbacks, end.fallbacks);
        assert_eq!(last.queue_depth, 1, "the straggler sits in the store");
    }

    #[test]
    fn command_queue_path_matches_like_the_direct_path() {
        // The same traffic through the offloaded engine's queue and through
        // the host matcher's: payloads land on the same receives, in the
        // same order.
        let run = |mode: &str| {
            let (tx, _domain, mut svc) = setup(mode);
            let n = 8usize;
            let mut posted = Vec::new();
            for i in 0..n {
                posted.push(
                    svc.post_recv(ReceivePattern::exact(Rank(0), Tag(i as u32)))
                        .unwrap(),
                );
            }
            for i in 0..n {
                tx.send(eager_packet(env(0, i as u32), vec![i as u8]))
                    .unwrap();
            }
            assert_eq!(svc.progress().unwrap(), n, "{mode}");
            let mut done = svc.take_completed();
            // Unexpected messages survive both: the payload waits on the
            // completion queue and moves to the store at drain time.
            tx.send(eager_packet(env(7, 7), vec![77])).unwrap();
            assert_eq!(svc.progress().unwrap(), 0, "{mode}");
            assert_eq!(svc.unexpected_len(), 1, "{mode}");
            posted.push(
                svc.post_recv(ReceivePattern::exact(Rank(7), Tag(7)))
                    .unwrap(),
            );
            svc.progress().unwrap();
            done.extend(svc.take_completed());
            let recvs: Vec<RecvHandle> = done.iter().map(|d| d.recv).collect();
            assert_eq!(recvs, posted, "{mode}");
            done.into_iter().map(|d| d.data).collect::<Vec<_>>()
        };
        assert_eq!(run("otm"), run("cpu"));
    }

    #[test]
    fn queued_posts_complete_against_waiting_and_future_messages() {
        // Posts submitted through the command queue interleave with queued
        // arrivals in one submission stream and complete at drain time —
        // both when the message is already waiting in the device store and
        // when it arrives afterwards.
        let (tx, _domain, mut svc) = setup("otm");

        // Message first: arrival drains to the store, then the queued post
        // matches it on the next drain.
        tx.send(eager_packet(env(0, 1), vec![11])).unwrap();
        assert_eq!(svc.progress().unwrap(), 0);
        assert_eq!(svc.unexpected_len(), 1);
        let first = svc
            .post_recv(ReceivePattern::exact(Rank(0), Tag(1)))
            .unwrap();
        assert_eq!(svc.completed_len(), 0, "the post waits for the drain");
        assert_eq!(svc.progress().unwrap(), 1);
        let done = svc.take_completed();
        assert_eq!(done[0].recv, first);
        assert_eq!(done[0].data, vec![11]);

        // Post first: the queued post applies in the same drain as the
        // arrival behind it.
        let second = svc.post_recv(ReceivePattern::any_source(Tag(2))).unwrap();
        tx.send(eager_packet(env(3, 2), vec![22])).unwrap();
        assert_eq!(svc.progress().unwrap(), 1);
        let done = svc.take_completed();
        assert_eq!(done[0].recv, second);
        assert_eq!(done[0].data, vec![22]);
    }

    #[test]
    fn host_backends_take_posts_and_arrivals_as_commands() {
        /// A host backend whose direct entry points panic: the service
        /// reaches it through its command queue only.
        struct CommandsOnly(Box<dyn MatchingBackend>);
        impl MatchingBackend for CommandsOnly {
            fn backend_name(&self) -> &'static str {
                self.0.backend_name()
            }
            fn post(&mut self, _: ReceivePattern, _: RecvHandle) -> Result<PostResult, MatchError> {
                unreachable!("posts are commands")
            }
            fn arrive_block(
                &mut self,
                _: &[(Envelope, MsgHandle)],
            ) -> Result<Vec<Delivery>, MatchError> {
                unreachable!("arrivals are commands")
            }
            fn submit_command(&mut self, cmd: PendingCommand) -> Result<(), MatchError> {
                self.0.submit_command(cmd)
            }
            fn drain_commands(&mut self) -> mpi_matching::DrainReport {
                self.0.drain_commands()
            }
        }

        let hosts: [Box<dyn MatchingBackend>; 2] = [
            Box::new(TraditionalMatcher::new()),
            Box::new(RdmaNoOp::new()),
        ];
        for host in hosts {
            let name = host.backend_name();
            let (tx, rx) = connected_pair();
            let nic = RecvNic::new(rx, BouncePool::new(64, 256));
            let backend = Box::new(CommandsOnly(host));
            let mut svc = MatchingService::with_backend(nic, RdmaDomain::new(), backend);
            svc.enable_command_queue().unwrap();
            assert_eq!(svc.backend_name(), name);
            // A message that waits, then the receive that takes it; a
            // receive that waits, then the message it takes.
            tx.send(eager_packet(env(0, 1), vec![1])).unwrap();
            let waited = u64::from(name == "MPI-CPU");
            assert_eq!(svc.progress().unwrap() as u64, 1 - waited, "{name}");
            assert_eq!(svc.unexpected_len() as u64, waited, "{name}");
            let first = svc
                .post_recv(ReceivePattern::exact(Rank(0), Tag(1)))
                .unwrap();
            assert_eq!(svc.completed_len() as u64, 1, "{name}: at the post");
            let second = svc
                .post_recv(ReceivePattern::exact(Rank(0), Tag(2)))
                .unwrap();
            tx.send(eager_packet(env(0, 2), vec![2])).unwrap();
            assert_eq!(svc.progress().unwrap(), 1, "{name}");
            let done = svc.take_completed();
            let data: Vec<&[u8]> = done.iter().map(|d| &d.data[..]).collect();
            assert_eq!(data, [&[1u8][..], &[2u8][..]], "{name}");
            if name == "MPI-CPU" {
                assert_eq!((done[0].recv, done[1].recv), (first, second));
            }
            assert!(svc.submitted == 0 && svc.engine_stats().is_none());
        }
    }

    #[test]
    fn a_full_ring_refuses_a_post_until_progress_drains_it() {
        // A post is a command on a 2-slot ring: the third bounces back to
        // the caller, retryable, and goes in once a drain freed the ring.
        let (tx, rx) = connected_pair();
        let nic = RecvNic::new(rx, BouncePool::new(64, 256));
        let engine = OtmEngine::new(MatchConfig::small().with_ring_capacity(2)).unwrap();
        let mut svc = MatchingService::with_backend(nic, RdmaDomain::new(), Box::new(engine));
        for tag in 0..2 {
            svc.post_recv(ReceivePattern::exact(Rank(0), Tag(tag)))
                .unwrap();
        }
        let (pattern, third) = (ReceivePattern::exact(Rank(0), Tag(2)), svc.reserve_recv());
        assert!(matches!(
            svc.post_recv_queued_reserved(pattern, third),
            Err(ServiceError::Match(MatchError::SubmissionRingFull { .. }))
        ));
        assert_eq!(svc.progress().unwrap(), 0);
        svc.post_recv_queued_reserved(pattern, third).unwrap();
        tx.send(eager_packet(env(0, 2), vec![2])).unwrap();
        assert_eq!(svc.progress().unwrap(), 1);
        assert_eq!(svc.take_completed()[0].recv, third);
    }

    #[test]
    fn a_post_its_hints_forbid_is_refused_when_queued_and_costs_no_one_else() {
        // A queued receive on comm 2 that breaks its no-wildcards hints,
        // between comm 1's receive and its message: the post is refused on
        // the spot, as a direct post would be, and comm 1's pair completes.
        let (tx, rx) = connected_pair();
        let nic = RecvNic::new(rx, BouncePool::new(64, 256));
        let mut engine = OtmEngine::new(MatchConfig::small()).unwrap();
        let (one, two) = (CommId(1), CommId(2));
        engine.declare_comm(two, CommHints::no_wildcards()).unwrap();
        let mut svc = MatchingService::with_backend(nic, RdmaDomain::new(), Box::new(engine));
        let recv = svc
            .post_recv(ReceivePattern::new(Rank(0), Tag(1), one))
            .unwrap();
        let any_source = ReceivePattern::new(SourceSel::Any, Tag(1), two);
        let refused = svc.reserve_recv();
        assert!(matches!(
            svc.post_recv_queued_reserved(any_source, refused),
            Err(ServiceError::Match(MatchError::HintViolation(_)))
        ));
        tx.send(eager_packet(Envelope::new(Rank(0), Tag(1), one), vec![7]))
            .unwrap();
        assert_eq!(svc.progress().unwrap(), 1);
        let done = svc.take_completed();
        assert_eq!((done[0].recv, &done[0].data[..]), (recv, &[7][..]));
        assert!(svc.submitted == 0 && !svc.fell_back());
    }

    #[test]
    fn queued_arrivals_survive_fallback_under_store_pressure() {
        // The lost-arrival bug, end to end: arrivals are sitting in the
        // engine's submission queue when store pressure forces the software
        // fallback. Before the loss-free snapshot, those queued arrivals
        // were silently discarded; now every payload must be delivered.
        let (tx, rx) = connected_pair();
        let domain = RdmaDomain::new();
        let nic = RecvNic::new(rx, BouncePool::new(64, 256));
        let mut budget = DeviceMemory::bluefield3_l3();
        let config = MatchConfig::small()
            .with_max_unexpected(2)
            .with_block_threads(2);
        let mut svc = MatchingService::offloaded(nic, domain, config, &mut budget).unwrap();

        // Five unmatched messages against a 2-slot device store: the first
        // block fills it, the next one trips UnexpectedStoreFull mid-drain
        // with the rest still queued.
        for i in 0..5u32 {
            tx.send(eager_packet(env(1, i), vec![i as u8])).unwrap();
        }
        assert_eq!(svc.progress().unwrap(), 0);
        assert!(svc.fell_back(), "store pressure must trigger the fallback");
        assert_eq!(svc.backend_name(), "MPI-CPU");
        assert_eq!(
            svc.unexpected_len(),
            5,
            "every queued arrival must survive the migration"
        );

        // All five payloads are intact and match in arrival order.
        let mut posted = Vec::new();
        for _ in 0..5 {
            posted.push(svc.post_recv(ReceivePattern::any_tag(Rank(1))).unwrap());
        }
        let done = svc.take_completed();
        assert_eq!(done.len(), 5);
        for (i, d) in done.iter().enumerate() {
            assert_eq!(d.recv, posted[i], "C1/C2 across the migration");
            assert_eq!(d.data, vec![i as u8]);
        }
    }

    #[test]
    fn fallback_replay_violation_is_a_real_error_and_keeps_the_poison() {
        /// A backend whose snapshot is corrupt: it hands back a receive and
        /// an unexpected message that match each other — the replay must
        /// refuse to install the software matcher.
        struct CorruptBackend;
        impl MatchingBackend for CorruptBackend {
            fn backend_name(&self) -> &'static str {
                "Corrupt"
            }
            fn post(&mut self, _: ReceivePattern, _: RecvHandle) -> Result<PostResult, MatchError> {
                unreachable!("posts go through the queue")
            }
            fn arrive_block(
                &mut self,
                _: &[(Envelope, MsgHandle)],
            ) -> Result<Vec<Delivery>, MatchError> {
                unreachable!("arrivals go through the queue")
            }
            fn submit_command(&mut self, _: PendingCommand) -> Result<(), MatchError> {
                Ok(())
            }
            fn drain_commands(&mut self) -> mpi_matching::DrainReport {
                table_full_drain()
            }
            fn wants_offload_fallback(&self) -> bool {
                true
            }
            fn drain_for_fallback(
                self: Box<Self>,
            ) -> Result<mpi_matching::FallbackState, MatchError> {
                Ok(mpi_matching::FallbackState {
                    receives: vec![(ReceivePattern::exact(Rank(0), Tag(0)), RecvHandle(0))],
                    unexpected: vec![(Envelope::world(Rank(0), Tag(0)), MsgHandle(0))],
                    pending: Vec::new(),
                })
            }
        }

        let (tx, rx) = connected_pair();
        let domain = RdmaDomain::new();
        let nic = RecvNic::new(rx, BouncePool::new(64, 256));
        let mut svc = MatchingService::with_backend(nic, domain, Box::new(CorruptBackend));
        svc.post_recv(ReceivePattern::exact(Rank(9), Tag(9)))
            .unwrap();
        let err = svc.progress().unwrap_err();
        assert!(
            matches!(err, ServiceError::FallbackReplay(_)),
            "got {err:?}"
        );
        assert_eq!(svc.backend_name(), "Poisoned");
        assert!(!svc.fell_back());
        // Still poisoned afterwards — no silent half-migrated matching.
        let err = svc
            .post_recv(ReceivePattern::exact(Rank(9), Tag(8)))
            .unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Match(MatchError::EngineStopped)
        ));
        drop(tx);
    }

    #[test]
    fn wc_burst_preserves_message_order_end_to_end() {
        // All receives identical, all messages identical: the with-conflict
        // scenario. Payloads reveal the pairing: message i must complete
        // receive i.
        let (tx, _domain, mut svc) = setup("otm");
        let n = 8usize;
        let mut posted = Vec::new();
        for _ in 0..n {
            posted.push(
                svc.post_recv(ReceivePattern::exact(Rank(0), Tag(0)))
                    .unwrap(),
            );
        }
        for i in 0..n {
            tx.send(eager_packet(env(0, 0), vec![i as u8])).unwrap();
        }
        assert_eq!(svc.progress().unwrap(), n);
        let mut done = svc.take_completed();
        done.sort_by_key(|c| c.recv);
        for (i, d) in done.iter().enumerate() {
            assert_eq!(d.recv, posted[i]);
            assert_eq!(d.data, vec![i as u8], "receive {i} must get message {i}");
        }
    }

    #[test]
    fn transient_drain_faults_clear_within_the_retry_budget() {
        use crate::fault::FaultInjectingBackend;
        use otm_base::FaultPlan;

        // Two transient device failures, then a perfect device: the in-call
        // retry loop absorbs them inside a single progress() and the
        // offloaded engine keeps running — no fallback, no caller-visible
        // error.
        let (tx, rx) = connected_pair();
        let domain = RdmaDomain::new();
        let nic = RecvNic::new(rx, BouncePool::new(64, 256));
        let engine = OtmEngine::new(MatchConfig::small()).unwrap();
        let plan = FaultPlan::new(0x7a11).with_max_faults(2);
        let faulty = FaultInjectingBackend::new(Box::new(engine), &plan, 1000, 0);
        let mut svc = MatchingService::with_backend(nic, domain, Box::new(faulty));

        let mut posted = Vec::new();
        for i in 0..3u32 {
            posted.push(
                svc.post_recv(ReceivePattern::exact(Rank(0), Tag(i)))
                    .unwrap(),
            );
            tx.send(eager_packet(env(0, i), vec![i as u8])).unwrap();
        }
        assert_eq!(svc.progress().unwrap(), 3);
        assert!(!svc.fell_back(), "transient faults must not escalate");
        assert_eq!(svc.backend_name(), "Optimistic-DPA");
        let done = svc.take_completed();
        for (i, d) in done.iter().enumerate() {
            assert_eq!(d.recv, posted[i]);
            assert_eq!(d.data, vec![i as u8]);
        }
        let snap = svc.observability_snapshot();
        assert_eq!(snap.counters["dpa_drain_retries_total"], 2);
        assert_eq!(snap.counters["dpa_fallback_escalations_total"], 0);
        assert_eq!(snap.hists["dpa_backoff_polls"].count, 2);
    }

    #[test]
    fn tiny_submission_ring_backpressure_drains_inline_and_loses_nothing() {
        // A 2-slot submission ring cannot hold a whole arrival burst: the
        // third push bounces with SubmissionRingFull, the service drains
        // inline to free slots, and every message still completes in order
        // on the offloaded path — backpressure, not breakage.
        let (tx, rx) = connected_pair();
        let domain = RdmaDomain::new();
        let nic = RecvNic::new(rx, BouncePool::new(64, 256));
        let engine = OtmEngine::new(MatchConfig::small().with_ring_capacity(2)).unwrap();
        let mut svc = MatchingService::with_backend(nic, domain, Box::new(engine));

        let n = 8u32;
        let mut posted = Vec::new();
        for i in 0..n {
            posted.push(
                svc.post_recv(ReceivePattern::exact(Rank(0), Tag(i)))
                    .unwrap(),
            );
            // The ring holds two posts: apply each before the next.
            svc.progress().unwrap();
        }
        for i in 0..n {
            tx.send(eager_packet(env(0, i), vec![i as u8])).unwrap();
        }
        assert_eq!(svc.progress().unwrap(), n as usize);
        assert!(!svc.fell_back(), "ring backpressure must not escalate");
        assert_eq!(svc.backend_name(), "Optimistic-DPA");
        let done = svc.take_completed();
        assert_eq!(done.len(), n as usize);
        for (i, d) in done.iter().enumerate() {
            assert_eq!(d.recv, posted[i]);
            assert_eq!(d.data, vec![i as u8]);
        }
        let snap = svc.observability_snapshot();
        assert!(
            snap.counters["dpa_ring_backpressure_total"] > 0,
            "the tiny ring must have rejected at least one push"
        );
        assert_eq!(snap.counters["dpa_fallback_escalations_total"], 0);
    }

    #[test]
    fn retry_budget_exhaustion_escalates_to_software_fallback() {
        use crate::fault::FaultInjectingBackend;
        use otm_base::FaultPlan;

        // Every drain fails, forever: the retry budget burns down and the
        // service escalates to software fallback on its own — not because a
        // caller asked for it — with every queued post and arrival payload
        // surviving the migration.
        let (tx, rx) = connected_pair();
        let domain = RdmaDomain::new();
        let nic = RecvNic::new(rx, BouncePool::new(64, 256));
        let engine = OtmEngine::new(MatchConfig::small()).unwrap();
        let plan = FaultPlan::new(0xdead);
        let faulty = FaultInjectingBackend::new(Box::new(engine), &plan, 1000, 0);
        let mut svc = MatchingService::with_backend(nic, domain, Box::new(faulty));

        let mut posted = Vec::new();
        for i in 0..4u32 {
            posted.push(
                svc.post_recv(ReceivePattern::exact(Rank(0), Tag(i)))
                    .unwrap(),
            );
        }
        for i in 0..4u32 {
            tx.send(eager_packet(env(0, i), vec![i as u8])).unwrap();
        }
        assert!(!svc.fell_back());
        assert_eq!(svc.progress().unwrap(), 4, "replay completes the pairs");
        assert!(
            svc.fell_back(),
            "budget exhaustion must trigger the §IV-E fallback"
        );
        assert_eq!(svc.backend_name(), "MPI-CPU");
        let done = svc.take_completed();
        assert_eq!(done.len(), 4, "no payload may be lost in the escalation");
        for (i, d) in done.iter().enumerate() {
            assert_eq!(d.recv, posted[i]);
            assert_eq!(d.data, vec![i as u8]);
        }
        let snap = svc.observability_snapshot();
        assert_eq!(
            snap.counters["dpa_drain_retries_total"],
            u64::from(DEFAULT_DRAIN_RETRY_BUDGET)
        );
        assert_eq!(snap.counters["dpa_fallback_escalations_total"], 1);
    }

    #[test]
    fn a_fallback_mid_poll_sends_the_rest_of_the_poll_through_the_software_queue() {
        use crate::fault::FaultInjectingBackend;
        use otm_base::FaultPlan;

        // Two posts fill a 2-slot ring, and every drain fails. The first
        // arrival of the poll meets the full ring: the inline drain burns
        // the retry budget and migrates mid-poll, the refused arrival goes
        // into the software matcher's queue, and so do the three behind it.
        let (tx, rx) = connected_pair();
        let nic = RecvNic::new(rx, BouncePool::new(64, 256));
        let engine = OtmEngine::new(MatchConfig::small().with_ring_capacity(2)).unwrap();
        let plan = FaultPlan::new(0x3d);
        let faulty = FaultInjectingBackend::new(Box::new(engine), &plan, 1000, 0);
        let mut svc = MatchingService::with_backend(nic, RdmaDomain::new(), Box::new(faulty));
        let mut posted = Vec::new();
        for _ in 0..2 {
            posted.push(svc.post_recv(ReceivePattern::any_tag(Rank(0))).unwrap());
        }
        for i in 0..4u32 {
            tx.send(eager_packet(env(0, i), vec![i as u8])).unwrap();
        }
        assert_eq!(svc.progress().unwrap(), 2);
        assert_eq!((svc.backend_name(), svc.unexpected_len()), ("MPI-CPU", 2));
        let snap = svc.observability_snapshot();
        assert_eq!(snap.counters["dpa_ring_backpressure_total"], 1);
        assert_eq!(snap.counters["dpa_fallback_escalations_total"], 1);
        for _ in 0..2 {
            posted.push(svc.post_recv(ReceivePattern::any_tag(Rank(0))).unwrap());
        }
        let done = svc.take_completed();
        let pairs: Vec<(RecvHandle, Vec<u8>)> =
            done.into_iter().map(|d| (d.recv, d.data)).collect();
        let expected: Vec<(RecvHandle, Vec<u8>)> =
            (0..4u8).map(|i| (posted[i as usize], vec![i])).collect();
        assert_eq!(pairs, expected, "every message, in order, none lost");
        assert_eq!(svc.submitted, 0);
    }

    #[test]
    fn a_drain_cut_short_across_communicators_takes_a_later_arrival_behind_the_cq_front() {
        // Two-lane blocks over two communicators whose stores hold two
        // messages each, comm 2's already one. A block's store pre-check
        // counts each lane as a message that may wait, so the first block,
        // comm 1's messages 1 and 3, passes and matches, and the second,
        // comm 2's 2 and 4, overflows. The drain that stops there reports
        // message 3 while message 2 heads the CQ: its payload is taken from
        // behind the front. The retries fail alike, and the fallback replays
        // 2 and 4 from the CQ front.
        let (tx, rx) = connected_pair();
        let nic = RecvNic::new(rx, BouncePool::new(64, 256));
        let config = MatchConfig::small()
            .with_max_unexpected(2)
            .with_block_threads(2);
        let engine = OtmEngine::new(config).unwrap();
        let mut svc = MatchingService::with_backend(nic, RdmaDomain::new(), Box::new(engine));
        let on = |comm: u16, tag: u32| Envelope::new(Rank(0), Tag(tag), CommId(comm));
        let recv = |comm: u16, tag: u32| ReceivePattern::new(Rank(0), Tag(tag), CommId(comm));
        tx.send(eager_packet(on(2, 0), vec![0])).unwrap();
        assert_eq!(svc.progress().unwrap(), 0);
        let posted = [svc.post_recv(recv(1, 1)), svc.post_recv(recv(1, 3))].map(Result::unwrap);
        for (comm, tag) in [(1, 1), (2, 2), (1, 3), (2, 4)] {
            tx.send(eager_packet(on(comm, tag), vec![tag as u8]))
                .unwrap();
        }
        assert_eq!(svc.progress().unwrap(), 2);
        let done = svc.take_completed();
        let pairs: Vec<(RecvHandle, &[u8])> = done.iter().map(|d| (d.recv, &d.data[..])).collect();
        assert_eq!(pairs, [(posted[0], &[1u8][..]), (posted[1], &[3u8][..])]);
        assert!(svc.fell_back(), "comm 2's store stayed full");
        assert_eq!(
            (svc.submitted, svc.nic.cq_len(), svc.unexpected_len()),
            (0, 0, 3)
        );
        for tag in [0, 2, 4] {
            svc.post_recv(recv(2, tag)).unwrap();
            assert_eq!(svc.take_completed()[0].data, [tag as u8]);
        }
    }

    /// Drives `rounds` rounds of 512 1 KiB rendezvous messages closed-loop
    /// over four queue pairs (one communicator each) and a hostile wire into
    /// the offloaded engine, applying the service's window hint the way the
    /// ladder's `stream_lossy_rdv` does. Returns the completions and the
    /// service's registry snapshot merged with the senders', with the one
    /// wall-clock histogram's values cut to its count.
    fn lossy_stream(
        rounds: usize,
        attach: bool,
    ) -> (Vec<CompletedReceive>, otm_metrics::RegistrySnapshot) {
        use crate::ReliableSender;
        use otm_base::{CommId, FaultPlan};

        const LANES: usize = 4;
        let (tx, rx) = connected_pair();
        let mut nic = RecvNic::new(rx, BouncePool::new(1024, 192));
        let mut peers = vec![tx];
        for _ in 1..LANES {
            let (tx, rx) = connected_pair();
            nic.add_qp(rx);
            peers.push(tx);
        }
        nic.set_faults(
            FaultPlan::new(1 ^ 0xa99)
                .with_drop_permille(100)
                .with_duplicate_permille(80)
                .with_reorder_permille(80)
                .with_reorder_window(4),
        );
        let domain = RdmaDomain::new();
        let engine = OtmEngine::new(MatchConfig::default()).unwrap();
        let mut svc = MatchingService::with_backend(nic, domain.clone(), Box::new(engine));
        if attach {
            svc.attach_controller(FeedbackController::with_defaults());
        }
        let mut senders: Vec<ReliableSender> = peers
            .into_iter()
            .map(|qp| {
                let mut s = ReliableSender::new(qp);
                s.attach_metrics(svc.metrics().clone());
                s
            })
            .collect();
        let mut done = Vec::new();
        let pump = |svc: &mut MatchingService,
                    senders: &mut [ReliableSender],
                    done: &mut Vec<CompletedReceive>| {
            svc.progress().unwrap();
            done.extend(svc.take_completed());
            let hint = svc.reliability_window_hint();
            for s in senders.iter_mut() {
                if let Some(h) = hint {
                    s.set_window_limit(h);
                }
                s.poll().unwrap();
            }
        };
        let per_lane = 512 / LANES;
        let key = |round: usize, j: usize| (Rank(j as u32), Tag((round * per_lane + j) as u32));
        for round in 0..rounds {
            for j in 0..per_lane {
                for lane in 0..LANES {
                    let (src, tag) = key(round, j);
                    let comm = CommId(lane as u16 + 1);
                    svc.post_recv(ReceivePattern::new(src, tag, comm)).unwrap();
                }
            }
            for j in 0..per_lane {
                for lane in 0..LANES {
                    while !senders[lane].can_send() {
                        pump(&mut svc, &mut senders, &mut done);
                    }
                    let (src, tag) = key(round, j);
                    let env = Envelope::new(src, tag, CommId(lane as u16 + 1));
                    let packet = rendezvous_packet(&domain, env, vec![j as u8; 1024], 64).0;
                    senders[lane].send(packet).unwrap();
                }
            }
            while done.len() < (round + 1) * 512 || senders.iter().any(|s| s.unacked() > 0) {
                pump(&mut svc, &mut senders, &mut done);
            }
        }
        let senders = senders.iter().map(ReliableSender::observability_snapshot);
        let mut snap = senders.fold(svc.observability_snapshot(), |snap, s| snap.merge(&s));
        let latency = snap.hists.get_mut("otm_block_latency_ns").unwrap();
        *latency = otm_metrics::HistogramSnapshot {
            count: latency.count,
            ..Default::default()
        };
        (done, snap)
    }

    #[test]
    fn the_controller_stubs_are_inert() {
        let (tx, _domain, svc) = setup("otm");
        assert_eq!(svc.reliability_window_hint(), None);
        drop(tx);
        let (attached, plain) = (lossy_stream(8, true), lossy_stream(8, false));
        assert_eq!(attached.0.len(), 8 * 512);
        assert!(
            attached.1.counters["dpa_retransmits_total"] > 0,
            "a lossy wire"
        );
        assert_eq!(attached, plain);
    }
}
