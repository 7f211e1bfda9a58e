//! The pluggable matching-backend interface used by the SmartNIC simulator.
//!
//! The paper's service layer (§IV-E) treats matching as a component behind
//! the DPA command queues: receives are posted through a command path,
//! messages are matched in blocks, and when device resources run out the
//! whole matching state migrates to host software. [`MatchingBackend`]
//! captures exactly that contract so the simulator, the trace replayer and
//! the figure harnesses can swap engines — the parallel optimistic engine,
//! the host-CPU baselines, or the no-matching RDMA ceiling — without
//! enum-dispatching over a closed set.
//!
//! Unlike [`Matcher`], which models a *sequential*
//! engine for oracle comparisons, this trait speaks the service's language:
//! block-granular arrival ([`MatchingBackend::arrive_block`]), an explicit
//! offload-fallback drain ([`MatchingBackend::drain_for_fallback`]), and
//! statistics *merging* (offloaded engines keep their own counters and fold
//! them into a host-side [`MatchStats`] on demand).
//!
//! # Selecting a backend
//!
//! Every backend is constructed concretely and then used uniformly through
//! the trait. The optimistic engine (`otm::OtmEngine`) implements the trait
//! in its own crate; the host-side engines and the RDMA ceiling live here:
//!
//! ```
//! use mpi_matching::backend::{MatchingBackend, RdmaNoOp};
//! use mpi_matching::binned::BinnedMatcher;
//! use mpi_matching::traditional::TraditionalMatcher;
//! use mpi_matching::{MsgHandle, RecvHandle};
//! use otm_base::{Envelope, Rank, ReceivePattern, Tag};
//!
//! let mut backends: Vec<Box<dyn MatchingBackend>> = vec![
//!     Box::new(TraditionalMatcher::new()), // "MPI-CPU"
//!     Box::new(BinnedMatcher::new(64)),    // "Binned-CPU"
//!     Box::new(RdmaNoOp::new()),           // "RDMA-CPU" (no matching)
//! ];
//! for backend in &mut backends {
//!     backend.post(ReceivePattern::exact(Rank(0), Tag(1)), RecvHandle(0))?;
//!     let deliveries =
//!         backend.arrive_block(&[(Envelope::world(Rank(0), Tag(1)), MsgHandle(0))])?;
//!     assert_eq!(deliveries[0].matched(), Some(RecvHandle(0)));
//! }
//! # Ok::<(), otm_base::MatchError>(())
//! ```

#![deny(missing_docs)]

use crate::binned::BinnedMatcher;
use crate::matcher::{ArriveResult, Matcher, MsgHandle, PostResult, RecvHandle};
use crate::rank_based::RankBasedMatcher;
use crate::stats::MatchStats;
use crate::traditional::TraditionalMatcher;
use otm_base::{Envelope, MatchError, ReceivePattern};
use std::any::Any;

/// One host-to-backend command, mirroring the DPA QP command set (§IV-E).
///
/// Backends with an internal submission queue (the offloaded engine) accept
/// these through [`MatchingBackend::submit_command`] and apply them at
/// [`MatchingBackend::drain_commands`]; a fallback snapshot carries the
/// commands a backend accepted but never applied, so the offload→software
/// migration is loss-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PendingCommand {
    /// Post a receive (the `post` command path).
    Post {
        /// The receive's matching pattern.
        pattern: ReceivePattern,
        /// The caller's handle for the receive.
        handle: RecvHandle,
    },
    /// Deliver one incoming message (the arrival path; queue-draining
    /// backends batch consecutive arrivals into blocks).
    Arrival {
        /// The message's envelope.
        env: Envelope,
        /// The caller's handle for the message.
        msg: MsgHandle,
    },
}

/// The result of applying one [`PendingCommand`], in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandOutcome {
    /// Outcome of a [`PendingCommand::Post`]. Carries the submitted receive
    /// handle so callers can attribute the result without replaying the
    /// submission order — under cross-communicator packing the applied set
    /// is not necessarily a prefix of the submitted sequence when a drain
    /// stops early.
    Post {
        /// The handle the receive was submitted under.
        handle: RecvHandle,
        /// What posting it did (matched immediately or parked in the PRQ).
        result: PostResult,
    },
    /// Outcome of a [`PendingCommand::Arrival`].
    Delivery(BlockDelivery),
}

/// Everything one [`MatchingBackend::drain_commands`] call accomplished.
///
/// A drain is not all-or-nothing: commands apply one by one (arrivals in
/// blocks), and an error stops the drain mid-queue. The outcomes of the
/// commands that *did* apply are always reported — dropping them would lose
/// deliveries the caller must act on.
#[derive(Debug, Default)]
pub struct DrainReport {
    /// Outcome of every applied command. Outcomes appear in the order the
    /// commands were applied, which under cross-communicator packing is not
    /// necessarily the order they were submitted — each outcome therefore
    /// carries its own handle ([`CommandOutcome::Post`]) or delivery
    /// ([`CommandOutcome::Delivery`]) so the caller never has to replay the
    /// submission sequence to attribute a result.
    pub outcomes: Vec<CommandOutcome>,
    /// The error that stopped the drain early, if any. On a *retryable*
    /// error ([`MatchError::is_retryable`]: resource exhaustion) the
    /// failing command and everything queued behind it went back to the
    /// front of the queue, so a retry after remedying the error resumes
    /// exactly where this drain stopped. On a *terminal* error
    /// ([`MatchError::is_terminal`]: the engine is dead, or the command can
    /// never apply) nothing is requeued — the unapplied commands are
    /// surfaced in [`DrainReport::unapplied`] instead, so a retry loop
    /// terminates rather than spinning on the same error forever.
    pub error: Option<MatchError>,
    /// On a terminal error: the failing command and every command behind
    /// it (including commands still sitting in the queue), in submission
    /// order. Empty on success and on retryable errors. The caller owns
    /// these — typically by replaying them into a software matcher after a
    /// fallback migration.
    pub unapplied: Vec<PendingCommand>,
}

impl DrainReport {
    /// Whether the drain stopped on a terminal error (see
    /// [`DrainReport::error`]).
    pub fn is_terminal(&self) -> bool {
        self.error.as_ref().is_some_and(|e| e.is_terminal())
    }
}

/// Matching state drained from a backend for software fallback: the pending
/// receives (per-communicator post order), the waiting unexpected messages
/// (per-communicator arrival order), and the commands the backend accepted
/// into its submission queue but never applied (global submission order).
///
/// C1 only constrains order *within* a communicator, so replaying the
/// receives communicator-by-communicator into a software matcher preserves
/// MPI semantics. The `pending` commands replay *after* the drained state
/// (they are strictly younger than everything the backend applied), and —
/// unlike the state, which is mutually non-matching by construction — they
/// may legitimately produce matches during the replay.
///
/// ```
/// use mpi_matching::backend::{FallbackState, MatchingBackend};
/// use mpi_matching::traditional::TraditionalMatcher;
/// use mpi_matching::{MsgHandle, RecvHandle};
/// use otm_base::{Envelope, Rank, ReceivePattern, Tag};
///
/// let mut b: Box<dyn MatchingBackend> = Box::new(TraditionalMatcher::new());
/// b.post(ReceivePattern::exact(Rank(0), Tag(1)), RecvHandle(0))?;
/// b.arrive_block(&[(Envelope::world(Rank(9), Tag(9)), MsgHandle(0))])?;
///
/// let state: FallbackState = b.drain_for_fallback()?;
/// assert_eq!(state.receives.len(), 1);   // the still-pending receive
/// assert_eq!(state.unexpected.len(), 1); // the unmatched message
/// assert!(state.pending.is_empty());     // synchronous backend: no queue
/// assert_eq!(state.len(), 2);
/// # Ok::<(), otm_base::MatchError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FallbackState {
    /// Pending receives, per-communicator post order.
    pub receives: Vec<(ReceivePattern, RecvHandle)>,
    /// Waiting unexpected messages, per-communicator arrival order.
    pub unexpected: Vec<(Envelope, MsgHandle)>,
    /// Commands accepted but not yet applied, in submission order.
    pub pending: Vec<PendingCommand>,
}

impl FallbackState {
    /// A snapshot of applied matching state only, with no pending commands
    /// (the shape of backends that apply every operation synchronously).
    pub fn from_state(
        receives: Vec<(ReceivePattern, RecvHandle)>,
        unexpected: Vec<(Envelope, MsgHandle)>,
    ) -> Self {
        FallbackState {
            receives,
            unexpected,
            pending: Vec::new(),
        }
    }

    /// Total entries the snapshot carries (receives, messages, commands).
    pub fn len(&self) -> usize {
        self.receives.len() + self.unexpected.len() + self.pending.len()
    }

    /// Whether the snapshot carries nothing at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Outcome of matching one incoming message in a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockDelivery {
    /// The message matched a posted receive.
    Matched {
        /// The message's handle.
        msg: MsgHandle,
        /// The matched receive's handle.
        recv: RecvHandle,
    },
    /// No receive matched; the message was stored as unexpected.
    Unexpected {
        /// The message's handle.
        msg: MsgHandle,
    },
}

impl BlockDelivery {
    /// The matched receive handle, if any.
    pub fn matched(self) -> Option<RecvHandle> {
        match self {
            BlockDelivery::Matched { recv, .. } => Some(recv),
            BlockDelivery::Unexpected { .. } => None,
        }
    }

    /// The message handle.
    pub fn msg(self) -> MsgHandle {
        match self {
            BlockDelivery::Matched { msg, .. } | BlockDelivery::Unexpected { msg } => msg,
        }
    }
}

/// A matching engine as the simulator's service layer sees it (§IV-E).
///
/// Implementations must uphold the MPI matching constraints C1/C2 (see
/// [`Matcher`]); within one [`MatchingBackend::arrive_block`] call, messages
/// are matched in slice order (lane *i* is the *i*-th arrival) and the
/// deliveries come back in that same order.
///
/// The optional capabilities degrade gracefully through the defaults: a
/// plain host engine is a complete backend out of the box, refusing the
/// command-queue and offload-fallback paths it does not have —
///
/// ```
/// use mpi_matching::backend::{MatchingBackend, PendingCommand, RdmaNoOp};
/// use mpi_matching::{MsgHandle, RecvHandle};
/// use otm_base::{Envelope, Rank, ReceivePattern, Tag};
///
/// let mut b: Box<dyn MatchingBackend> = Box::new(RdmaNoOp::new());
/// // The synchronous paths always work...
/// b.post(ReceivePattern::exact(Rank(0), Tag(1)), RecvHandle(0))?;
/// let d = b.arrive_block(&[(Envelope::world(Rank(0), Tag(1)), MsgHandle(0))])?;
/// assert!(d[0].matched().is_some());
/// // ...while the device-only capabilities report themselves absent.
/// assert!(!b.supports_command_queue());
/// assert!(!b.wants_offload_fallback());
/// assert!(b
///     .submit_command(PendingCommand::Arrival {
///         env: Envelope::world(Rank(0), Tag(2)),
///         msg: MsgHandle(1),
///     })
///     .is_err());
/// # Ok::<(), otm_base::MatchError>(())
/// ```
pub trait MatchingBackend: Send {
    /// The label reports and Figure 8 use for this backend
    /// (e.g. `"Optimistic-DPA"`, `"MPI-CPU"`, `"RDMA-CPU"`).
    fn backend_name(&self) -> &'static str;

    /// The preferred arrival-block size. The service feeds
    /// [`MatchingBackend::arrive_block`] at most this many messages at a
    /// time. Sequential engines match one message per "block".
    fn block_size(&self) -> usize {
        1
    }

    /// Posts a receive — the host-to-device command path.
    fn post(
        &mut self,
        pattern: ReceivePattern,
        handle: RecvHandle,
    ) -> Result<PostResult, MatchError>;

    /// Matches a block of up to [`MatchingBackend::block_size`] incoming
    /// messages, in slice (= arrival) order.
    ///
    /// On error the block must be rejected atomically: no message of the
    /// block may have been half-applied, so the caller can migrate the
    /// intact state via [`MatchingBackend::drain_for_fallback`].
    fn arrive_block(
        &mut self,
        msgs: &[(Envelope, MsgHandle)],
    ) -> Result<Vec<BlockDelivery>, MatchError>;

    /// Non-destructive unexpected-queue probe (`MPI_Iprobe` semantics).
    fn probe(&self, pattern: &ReceivePattern) -> Option<MsgHandle>;

    /// Live posted receives.
    fn prq_len(&self) -> usize;

    /// Waiting unexpected messages.
    fn umq_len(&self) -> usize;

    /// Folds this backend's accumulated matching statistics into `into`.
    ///
    /// Offloaded engines translate their device-side counters; host engines
    /// merge their [`MatchStats`] verbatim.
    fn merge_stats(&self, into: &mut MatchStats);

    /// Whether a [`MatchingBackend::drain_commands`] that stops on an error
    /// the service cannot retry away — resource exhaustion
    /// ([`MatchError::ReceiveTableFull`], [`MatchError::UnexpectedStoreFull`])
    /// past the retry budget, or [`MatchError::EngineStopped`] — should make
    /// the service migrate to software matching (§IV-E). Only a drain
    /// triggers the migration. Host backends are unbounded and never ask
    /// for fallback.
    fn wants_offload_fallback(&self) -> bool {
        false
    }

    /// Whether this backend accepts asynchronous commands through
    /// [`MatchingBackend::submit_command`] (the DPA command-queue path,
    /// §IV-E). Synchronous host backends do not.
    fn supports_command_queue(&self) -> bool {
        false
    }

    /// Enqueues one command for a later [`MatchingBackend::drain_commands`].
    ///
    /// The default refuses: only queue-capable backends
    /// ([`MatchingBackend::supports_command_queue`]) accept submissions.
    fn submit_command(&mut self, cmd: PendingCommand) -> Result<(), MatchError> {
        let _ = cmd;
        Err(MatchError::InvalidConfig(format!(
            "the {} backend has no command queue",
            self.backend_name()
        )))
    }

    /// Applies queued commands in submission order and reports their
    /// outcomes (see [`DrainReport`] for the partial-failure contract).
    ///
    /// The default refuses, mirroring [`MatchingBackend::submit_command`].
    fn drain_commands(&mut self) -> DrainReport {
        DrainReport {
            outcomes: Vec::new(),
            error: Some(MatchError::InvalidConfig(format!(
                "the {} backend has no command queue",
                self.backend_name()
            ))),
            unapplied: Vec::new(),
        }
    }

    /// Commands currently sitting in the submission queue. Zero for
    /// synchronous backends.
    fn pending_commands(&self) -> usize {
        0
    }

    /// Drains the complete matching state — applied receives and unexpected
    /// messages *plus* any commands still sitting in the submission queue —
    /// for migration to software tag matching, consuming the backend (the
    /// device resources are being given up). Nothing the backend ever
    /// accepted may be dropped: a fallback under load must be loss-free.
    ///
    /// The default refuses: only offload-capable backends support the
    /// drain, and the service never invokes it unless
    /// [`MatchingBackend::wants_offload_fallback`] said so.
    fn drain_for_fallback(self: Box<Self>) -> Result<FallbackState, MatchError> {
        Err(MatchError::InvalidConfig(format!(
            "the {} backend has no offload state to drain",
            self.backend_name()
        )))
    }

    /// Empties the backend in place so that it reads as new, keeping what
    /// it allocated: how a caller that serves one receiver after another
    /// reuses one backend.
    ///
    /// The default refuses, and a refused caller builds a new backend. An
    /// override refuses too, changing nothing, while the backend holds work
    /// it has not applied.
    fn reset(&mut self) -> Result<(), MatchError> {
        Err(MatchError::InvalidConfig(format!(
            "the {} backend cannot be reset",
            self.backend_name()
        )))
    }

    /// The backend as [`Any`], for observability downcasts (e.g. the
    /// service reading the optimistic engine's device-side metrics).
    fn as_any(&self) -> &dyn Any;
}

/// Matches one block through a sequential [`Matcher`], one arrival at a
/// time. Shared by the host-CPU backend impls.
fn arrive_block_via_matcher<M: Matcher>(
    matcher: &mut M,
    msgs: &[(Envelope, MsgHandle)],
) -> Result<Vec<BlockDelivery>, MatchError> {
    msgs.iter()
        .map(|&(env, msg)| {
            Ok(match matcher.arrive(env, msg)? {
                ArriveResult::Matched(recv) => BlockDelivery::Matched { msg, recv },
                ArriveResult::Unexpected => BlockDelivery::Unexpected { msg },
            })
        })
        .collect()
}

impl MatchingBackend for TraditionalMatcher {
    fn backend_name(&self) -> &'static str {
        "MPI-CPU"
    }

    fn post(
        &mut self,
        pattern: ReceivePattern,
        handle: RecvHandle,
    ) -> Result<PostResult, MatchError> {
        Matcher::post(self, pattern, handle)
    }

    fn arrive_block(
        &mut self,
        msgs: &[(Envelope, MsgHandle)],
    ) -> Result<Vec<BlockDelivery>, MatchError> {
        arrive_block_via_matcher(self, msgs)
    }

    fn probe(&self, pattern: &ReceivePattern) -> Option<MsgHandle> {
        Matcher::probe(self, pattern)
    }

    fn prq_len(&self) -> usize {
        Matcher::prq_len(self)
    }

    fn umq_len(&self) -> usize {
        Matcher::umq_len(self)
    }

    fn merge_stats(&self, into: &mut MatchStats) {
        into.merge(Matcher::stats(self));
    }

    fn drain_for_fallback(self: Box<Self>) -> Result<FallbackState, MatchError> {
        Ok(self.snapshot_state())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

impl MatchingBackend for BinnedMatcher {
    fn backend_name(&self) -> &'static str {
        "Binned-CPU"
    }

    fn post(
        &mut self,
        pattern: ReceivePattern,
        handle: RecvHandle,
    ) -> Result<PostResult, MatchError> {
        Matcher::post(self, pattern, handle)
    }

    fn arrive_block(
        &mut self,
        msgs: &[(Envelope, MsgHandle)],
    ) -> Result<Vec<BlockDelivery>, MatchError> {
        arrive_block_via_matcher(self, msgs)
    }

    fn probe(&self, pattern: &ReceivePattern) -> Option<MsgHandle> {
        Matcher::probe(self, pattern)
    }

    fn prq_len(&self) -> usize {
        Matcher::prq_len(self)
    }

    fn umq_len(&self) -> usize {
        Matcher::umq_len(self)
    }

    fn merge_stats(&self, into: &mut MatchStats) {
        into.merge(Matcher::stats(self));
    }

    fn drain_for_fallback(self: Box<Self>) -> Result<FallbackState, MatchError> {
        Ok(self.snapshot_state())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

impl MatchingBackend for RankBasedMatcher {
    fn backend_name(&self) -> &'static str {
        "Rank-CPU"
    }

    fn post(
        &mut self,
        pattern: ReceivePattern,
        handle: RecvHandle,
    ) -> Result<PostResult, MatchError> {
        Matcher::post(self, pattern, handle)
    }

    fn arrive_block(
        &mut self,
        msgs: &[(Envelope, MsgHandle)],
    ) -> Result<Vec<BlockDelivery>, MatchError> {
        arrive_block_via_matcher(self, msgs)
    }

    fn probe(&self, pattern: &ReceivePattern) -> Option<MsgHandle> {
        Matcher::probe(self, pattern)
    }

    fn prq_len(&self) -> usize {
        Matcher::prq_len(self)
    }

    fn umq_len(&self) -> usize {
        Matcher::umq_len(self)
    }

    fn merge_stats(&self, into: &mut MatchStats) {
        into.merge(Matcher::stats(self));
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The paper's **RDMA-CPU** baseline: no tag matching at all, every message
/// "matches" immediately — the transport ceiling of Figure 8.
///
/// The delivered receive handle is fabricated from the message handle, as
/// the real baseline would address the buffer directly from the packet.
#[derive(Debug, Clone, Copy, Default)]
pub struct RdmaNoOp;

impl RdmaNoOp {
    /// Creates the no-op backend.
    pub fn new() -> Self {
        RdmaNoOp
    }
}

impl MatchingBackend for RdmaNoOp {
    fn backend_name(&self) -> &'static str {
        "RDMA-CPU"
    }

    fn post(
        &mut self,
        _pattern: ReceivePattern,
        _handle: RecvHandle,
    ) -> Result<PostResult, MatchError> {
        Ok(PostResult::Posted)
    }

    fn arrive_block(
        &mut self,
        msgs: &[(Envelope, MsgHandle)],
    ) -> Result<Vec<BlockDelivery>, MatchError> {
        Ok(msgs
            .iter()
            .map(|&(_, msg)| BlockDelivery::Matched {
                msg,
                recv: RecvHandle(msg.0),
            })
            .collect())
    }

    fn probe(&self, _pattern: &ReceivePattern) -> Option<MsgHandle> {
        None
    }

    fn prq_len(&self) -> usize {
        0
    }

    fn umq_len(&self) -> usize {
        0
    }

    fn merge_stats(&self, _into: &mut MatchStats) {}

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otm_base::{Rank, Tag};

    fn env(src: u32, tag: u32) -> Envelope {
        Envelope::world(Rank(src), Tag(tag))
    }

    #[test]
    fn backend_labels_are_the_figure_labels() {
        let backends: Vec<Box<dyn MatchingBackend>> = vec![
            Box::new(TraditionalMatcher::new()),
            Box::new(BinnedMatcher::new(8)),
            Box::new(RankBasedMatcher::new()),
            Box::new(RdmaNoOp::new()),
        ];
        let names: Vec<_> = backends.iter().map(|b| b.backend_name()).collect();
        assert_eq!(names, vec!["MPI-CPU", "Binned-CPU", "Rank-CPU", "RDMA-CPU"]);
    }

    #[test]
    fn host_backends_match_through_the_block_interface() {
        let mut b: Box<dyn MatchingBackend> = Box::new(TraditionalMatcher::new());
        assert_eq!(b.block_size(), 1);
        b.post(ReceivePattern::exact(Rank(0), Tag(1)), RecvHandle(7))
            .unwrap();
        let d = b
            .arrive_block(&[(env(0, 1), MsgHandle(0)), (env(9, 9), MsgHandle(1))])
            .unwrap();
        assert_eq!(
            d[0],
            BlockDelivery::Matched {
                msg: MsgHandle(0),
                recv: RecvHandle(7)
            }
        );
        assert_eq!(d[1], BlockDelivery::Unexpected { msg: MsgHandle(1) });
        assert_eq!(b.umq_len(), 1);
        assert_eq!(b.probe(&ReceivePattern::any_any()), Some(MsgHandle(1)));
    }

    #[test]
    fn traditional_drain_preserves_both_queues_in_order() {
        let mut b: Box<dyn MatchingBackend> = Box::new(TraditionalMatcher::new());
        b.post(ReceivePattern::exact(Rank(0), Tag(0)), RecvHandle(0))
            .unwrap();
        b.post(ReceivePattern::exact(Rank(0), Tag(1)), RecvHandle(1))
            .unwrap();
        b.arrive_block(&[(env(5, 5), MsgHandle(0)), (env(6, 6), MsgHandle(1))])
            .unwrap();
        let state = b.drain_for_fallback().unwrap();
        assert_eq!(
            state.receives.iter().map(|&(_, h)| h).collect::<Vec<_>>(),
            vec![RecvHandle(0), RecvHandle(1)]
        );
        assert_eq!(
            state.unexpected.iter().map(|&(_, h)| h).collect::<Vec<_>>(),
            vec![MsgHandle(0), MsgHandle(1)]
        );
        assert!(state.pending.is_empty());
    }

    #[test]
    fn binned_drain_restores_post_and_arrival_order() {
        let mut b = BinnedMatcher::new(16);
        // Interleave binned and wildcard receives so the drain has to
        // re-serialize the two structures by post label.
        MatchingBackend::post(
            &mut b,
            ReceivePattern::exact(Rank(0), Tag(0)),
            RecvHandle(0),
        )
        .unwrap();
        MatchingBackend::post(&mut b, ReceivePattern::any_source(Tag(9)), RecvHandle(1)).unwrap();
        MatchingBackend::post(
            &mut b,
            ReceivePattern::exact(Rank(2), Tag(2)),
            RecvHandle(2),
        )
        .unwrap();
        b.arrive_block(&[(env(7, 7), MsgHandle(0)), (env(8, 8), MsgHandle(1))])
            .unwrap();
        let state = Box::new(b).drain_for_fallback().unwrap();
        assert_eq!(
            state.receives.iter().map(|&(_, h)| h).collect::<Vec<_>>(),
            vec![RecvHandle(0), RecvHandle(1), RecvHandle(2)]
        );
        assert_eq!(
            state.unexpected.iter().map(|&(_, h)| h).collect::<Vec<_>>(),
            vec![MsgHandle(0), MsgHandle(1)]
        );
        assert!(state.pending.is_empty());
    }

    #[test]
    fn synchronous_backends_refuse_command_submission() {
        let mut b: Box<dyn MatchingBackend> = Box::new(TraditionalMatcher::new());
        assert!(!b.supports_command_queue());
        assert_eq!(b.pending_commands(), 0);
        assert!(matches!(
            b.submit_command(PendingCommand::Post {
                pattern: ReceivePattern::any_any(),
                handle: RecvHandle(0),
            }),
            Err(MatchError::InvalidConfig(_))
        ));
        let report = b.drain_commands();
        assert!(report.outcomes.is_empty());
        assert!(report.is_terminal());
        assert!(report.unapplied.is_empty());
    }

    #[test]
    fn host_backends_never_request_offload_fallback() {
        let b: Box<dyn MatchingBackend> = Box::new(TraditionalMatcher::new());
        assert!(!b.wants_offload_fallback());
        let nb: Box<dyn MatchingBackend> = Box::new(RdmaNoOp::new());
        assert!(!nb.wants_offload_fallback());
    }

    #[test]
    fn drain_without_offload_state_is_refused() {
        let b: Box<dyn MatchingBackend> = Box::new(RankBasedMatcher::new());
        assert!(matches!(
            b.drain_for_fallback(),
            Err(MatchError::InvalidConfig(_))
        ));
    }

    #[test]
    fn rdma_noop_fabricates_matches() {
        let mut b = RdmaNoOp::new();
        let d = b.arrive_block(&[(env(1, 1), MsgHandle(42))]).unwrap();
        assert_eq!(
            d,
            vec![BlockDelivery::Matched {
                msg: MsgHandle(42),
                recv: RecvHandle(42)
            }]
        );
        let mut stats = MatchStats::new();
        b.merge_stats(&mut stats);
        assert_eq!(stats.posted, 0);
    }

    #[test]
    fn merge_stats_folds_host_counters() {
        let mut b = TraditionalMatcher::new();
        MatchingBackend::post(
            &mut b,
            ReceivePattern::exact(Rank(0), Tag(1)),
            RecvHandle(0),
        )
        .unwrap();
        b.arrive_block(&[(env(0, 1), MsgHandle(0))]).unwrap();
        let mut stats = MatchStats::new();
        b.merge_stats(&mut stats);
        assert_eq!(stats.matched_on_arrival, 1);
        assert_eq!(stats.posted, 1);
    }

    #[test]
    fn as_any_supports_observability_downcasts() {
        let b: Box<dyn MatchingBackend> = Box::new(BinnedMatcher::new(4));
        let binned = b.as_any().downcast_ref::<BinnedMatcher>().unwrap();
        assert_eq!(binned.bins(), 4);
        assert!(b.as_any().downcast_ref::<TraditionalMatcher>().is_none());
    }
}
