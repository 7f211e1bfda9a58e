//! The pluggable matching-backend interface used by the SmartNIC simulator.
//!
//! The paper's service layer (§IV-E) treats matching as a component behind
//! the DPA command queues: receives and arrivals are commands, a drain
//! applies them in submission order, and when device resources run out the
//! whole matching state migrates to host software. [`MatchingBackend`]
//! captures exactly that contract, and no more, so the service can swap
//! engines — the parallel optimistic engine, the host-CPU baselines, or the
//! no-matching RDMA ceiling — without enum-dispatching over a closed set.
//!
//! There is one way in, whatever runs behind it:
//! [`MatchingBackend::submit_command`] queues a command and
//! [`MatchingBackend::drain_commands`] applies the queue. The offloaded
//! engine queues on its per-communicator rings; a host backend keeps a plain
//! vector and applies it at the drain with its own direct `post` / `arrive`
//! calls ([`drain_host_queue`]). Either way a command takes effect at the
//! drain, not at the submit, so a fallback snapshot carries the commands
//! still queued.
//!
//! Unlike [`Matcher`], which models a *sequential* engine for oracle
//! comparisons, this trait speaks the service's language: a command queue,
//! an explicit offload-fallback drain
//! ([`MatchingBackend::drain_for_fallback`]), and the offloaded engine's
//! own counts ([`MatchingBackend::engine_stats`],
//! [`MatchingBackend::metrics_snapshot`]). Queue lengths, probes and a host
//! matcher's [`MatchStats`](crate::MatchStats) are read through [`Matcher`]
//! or the concrete engine, never through this trait.
//!
//! # Selecting a backend
//!
//! Every backend is constructed concretely and then used uniformly through
//! the trait. The optimistic engine (`otm::OtmEngine`) implements the trait
//! in its own crate; the host-side engines and the RDMA ceiling live here:
//!
//! ```
//! use mpi_matching::backend::{
//!     BlockDelivery, CommandOutcome, MatchingBackend, PendingCommand, RdmaNoOp,
//! };
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
//!     let (pattern, handle) = (ReceivePattern::exact(Rank(0), Tag(1)), RecvHandle(0));
//!     backend.submit_command(PendingCommand::Post { pattern, handle })?;
//!     let (env, msg) = (Envelope::world(Rank(0), Tag(1)), MsgHandle(0));
//!     backend.submit_command(PendingCommand::Arrival { env, msg })?;
//!     let report = backend.drain_commands();
//!     let CommandOutcome::Delivery(delivery) = report.outcomes[1] else {
//!         unreachable!("the second command is the arrival")
//!     };
//!     assert_eq!(delivery, BlockDelivery::Matched { msg, recv: handle });
//! }
//! # Ok::<(), otm_base::MatchError>(())
//! ```

#![deny(missing_docs)]

use crate::binned::BinnedMatcher;
use crate::matcher::{ArriveResult, Matcher, MsgHandle, PostResult, RecvHandle};
use crate::rank_based::RankBasedMatcher;
use crate::stats::StatsSnapshot;
use crate::traditional::TraditionalMatcher;
use otm_base::{Envelope, MatchError, ReceivePattern};
use otm_metrics::{RegistrySnapshot, SpanRecorder};

/// One host-to-backend command, mirroring the DPA QP command set (§IV-E).
///
/// Every backend accepts these through [`MatchingBackend::submit_command`]
/// and applies them at [`MatchingBackend::drain_commands`]; a fallback
/// snapshot carries the commands a backend accepted but never applied, so
/// the offload→software migration is loss-free.
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
/// use mpi_matching::backend::{FallbackState, MatchingBackend, PendingCommand};
/// use mpi_matching::traditional::TraditionalMatcher;
/// use mpi_matching::{MsgHandle, RecvHandle};
/// use otm_base::{Envelope, Rank, ReceivePattern, Tag};
///
/// let mut b: Box<dyn MatchingBackend> = Box::new(TraditionalMatcher::new());
/// let (pattern, handle) = (ReceivePattern::exact(Rank(0), Tag(1)), RecvHandle(0));
/// b.submit_command(PendingCommand::Post { pattern, handle })?;
/// b.drain_commands();
/// let (env, msg) = (Envelope::world(Rank(9), Tag(9)), MsgHandle(0));
/// b.submit_command(PendingCommand::Arrival { env, msg })?;
///
/// let state: FallbackState = b.drain_for_fallback()?;
/// assert_eq!(state.receives.len(), 1); // the drained, still-pending receive
/// // The arrival was never drained, so it comes back as a command.
/// assert!(state.unexpected.is_empty());
/// assert_eq!(state.pending, [PendingCommand::Arrival { env, msg }]);
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
    /// (what a host matcher's state reads as before its queue is added).
    pub(crate) fn from_state(
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
/// [`Matcher`]); a drain applies the commands of one communicator in
/// submission order, and within one [`MatchingBackend::arrive_block`] call
/// messages are matched in slice order (lane *i* is the *i*-th arrival) and
/// the deliveries come back in that same order.
///
/// Every backend is driven the same way: commands in, a drain, outcomes
/// out. A host backend applies nothing at the submit, and never refuses
/// one —
///
/// ```
/// use mpi_matching::backend::{
///     BlockDelivery, CommandOutcome, MatchingBackend, PendingCommand,
/// };
/// use mpi_matching::traditional::TraditionalMatcher;
/// use mpi_matching::{Matcher, MsgHandle, PostResult, RecvHandle};
/// use otm_base::{Envelope, Rank, ReceivePattern, Tag};
///
/// let mut b = TraditionalMatcher::new();
/// let (env, msg) = (Envelope::world(Rank(0), Tag(1)), MsgHandle(0));
/// b.submit_command(PendingCommand::Arrival { env, msg })?;
/// let (pattern, handle) = (ReceivePattern::exact(Rank(0), Tag(1)), RecvHandle(0));
/// b.submit_command(PendingCommand::Post { pattern, handle })?;
/// // Nothing applies until the drain...
/// assert_eq!((Matcher::prq_len(&b), Matcher::umq_len(&b)), (0, 0));
/// // ...which applies both, in submission order.
/// let report = b.drain_commands();
/// assert_eq!(
///     report.outcomes,
///     [
///         CommandOutcome::Delivery(BlockDelivery::Unexpected { msg }),
///         CommandOutcome::Post { handle, result: PostResult::Matched(msg) },
///     ]
/// );
/// assert!(report.error.is_none() && !b.wants_offload_fallback());
/// # Ok::<(), otm_base::MatchError>(())
/// ```
///
/// The first nine methods are what the service calls. The last three —
/// [`MatchingBackend::block_size`], [`MatchingBackend::post`] and
/// [`MatchingBackend::arrive_block`] — are the direct calls outside the
/// queue: a host backend's drain applies its posts with `post`, and
/// otherwise only the benchmark package calls them (ROADMAP item 1); they
/// go once it no longer does.
pub trait MatchingBackend: Send {
    /// The label reports and Figure 8 use for this backend
    /// (e.g. `"Optimistic-DPA"`, `"MPI-CPU"`, `"RDMA-CPU"`).
    fn backend_name(&self) -> &'static str;

    /// Enqueues one command for the next [`MatchingBackend::drain_commands`].
    /// A host backend never refuses; the offloaded engine refuses a full
    /// ring ([`MatchError::SubmissionRingFull`], retryable) and a post its
    /// communicator's hints forbid.
    fn submit_command(&mut self, cmd: PendingCommand) -> Result<(), MatchError>;

    /// Applies queued commands in submission order and reports their
    /// outcomes (see [`DrainReport`] for the partial-failure contract).
    fn drain_commands(&mut self) -> DrainReport;

    /// Drains the complete matching state — applied receives and unexpected
    /// messages *plus* any commands still sitting in the submission queue —
    /// for migration to software tag matching, consuming the backend (the
    /// device resources are being given up). Nothing the backend ever
    /// accepted may be dropped: a fallback under load must be loss-free.
    ///
    /// The default refuses: the service never invokes it unless
    /// [`MatchingBackend::wants_offload_fallback`] said so.
    fn drain_for_fallback(self: Box<Self>) -> Result<FallbackState, MatchError> {
        Err(MatchError::InvalidConfig(format!(
            "the {} backend has no offload state to drain",
            self.backend_name()
        )))
    }

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

    /// The offloaded engine's statistics; `None` for any other backend.
    fn engine_stats(&self) -> Option<StatsSnapshot> {
        None
    }

    /// The offloaded engine's registry snapshot (its histograms, depth-peak
    /// gauges and path counters); `None` for any other backend.
    fn metrics_snapshot(&self) -> Option<RegistrySnapshot> {
        None
    }

    /// The offloaded engine's lifecycle span ring, when it records spans
    /// (`otm`'s `trace-events` feature); `None` for any other backend.
    fn span_recorder(&self) -> Option<&SpanRecorder> {
        None
    }

    /// How many messages the engine matches in one block: its block
    /// threads, 1 for a sequential engine. Nothing in the workspace reads
    /// it; the benchmark package's block rung chunks its
    /// [`MatchingBackend::arrive_block`] calls by it (ROADMAP item 1).
    fn block_size(&self) -> usize {
        1
    }

    /// Posts a receive at once, outside the command queue: what a host
    /// matcher's drain applies a [`PendingCommand::Post`] with, and what
    /// the benchmark package still calls (ROADMAP item 1).
    fn post(
        &mut self,
        pattern: ReceivePattern,
        handle: RecvHandle,
    ) -> Result<PostResult, MatchError>;

    /// Matches a block of incoming messages at once, outside the command
    /// queue, in slice (= arrival) order. Only the benchmark package calls
    /// it (ROADMAP item 1).
    ///
    /// On error the block must be rejected atomically: no message of the
    /// block may have been half-applied, so the caller can migrate the
    /// intact state via [`MatchingBackend::drain_for_fallback`].
    fn arrive_block(
        &mut self,
        msgs: &[(Envelope, MsgHandle)],
    ) -> Result<Vec<BlockDelivery>, MatchError>;
}

/// Matches one message through a sequential [`Matcher`]: the direct
/// arrival of every host matcher, inside a drain and out.
pub fn arrive_via_matcher<M: Matcher>(
    matcher: &mut M,
    env: Envelope,
    msg: MsgHandle,
) -> Result<BlockDelivery, MatchError> {
    Ok(match matcher.arrive(env, msg)? {
        ArriveResult::Matched(recv) => BlockDelivery::Matched { msg, recv },
        ArriveResult::Unexpected => BlockDelivery::Unexpected { msg },
    })
}

/// Applies the commands a host backend queued, oldest first, with the same
/// direct calls it answers outside the queue: [`MatchingBackend::post`] for
/// a receive, `arrive` for a message. `queue` names the backend's
/// `Vec<PendingCommand>`, which keeps its allocation. A command that fails
/// stops the drain ([`DrainReport`]): after a retryable error it and every
/// command behind it stay queued, after a terminal one they are handed back
/// in [`DrainReport::unapplied`].
pub fn drain_host_queue<B: MatchingBackend>(
    backend: &mut B,
    queue: fn(&mut B) -> &mut Vec<PendingCommand>,
    arrive: fn(&mut B, Envelope, MsgHandle) -> Result<BlockDelivery, MatchError>,
) -> DrainReport {
    let mut commands = std::mem::take(queue(backend));
    let mut report = DrainReport {
        outcomes: Vec::with_capacity(commands.len()),
        ..DrainReport::default()
    };
    for &cmd in &commands {
        let applied = match cmd {
            PendingCommand::Post { pattern, handle } => backend
                .post(pattern, handle)
                .map(|result| CommandOutcome::Post { handle, result }),
            PendingCommand::Arrival { env, msg } => {
                arrive(backend, env, msg).map(CommandOutcome::Delivery)
            }
        };
        match applied {
            Ok(outcome) => report.outcomes.push(outcome),
            Err(e) => {
                report.error = Some(e);
                break;
            }
        }
    }
    commands.drain(..report.outcomes.len());
    if report.is_terminal() {
        report.unapplied.append(&mut commands);
    }
    *queue(backend) = commands;
    report
}

/// The [`MatchingBackend`] of a host [`Matcher`] with a `queue` field:
/// direct calls go to the matcher, and a drain applies the queue through
/// it. With a snapshot method named, the backend drains for fallback too,
/// its queue carried as the snapshot's pending commands.
macro_rules! host_backend {
    ($matcher:ty, $name:literal $(, $snapshot:ident)?) => {
        impl MatchingBackend for $matcher {
            fn backend_name(&self) -> &'static str {
                $name
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
                msgs.iter()
                    .map(|&(env, msg)| arrive_via_matcher(self, env, msg))
                    .collect()
            }

            fn submit_command(&mut self, cmd: PendingCommand) -> Result<(), MatchError> {
                self.queue.push(cmd);
                Ok(())
            }

            fn drain_commands(&mut self) -> DrainReport {
                drain_host_queue(self, |m| &mut m.queue, arrive_via_matcher)
            }

            $(
                fn drain_for_fallback(self: Box<Self>) -> Result<FallbackState, MatchError> {
                    let mut state = self.$snapshot();
                    state.pending = self.queue;
                    Ok(state)
                }
            )?
        }
    };
}

host_backend!(TraditionalMatcher, "MPI-CPU", snapshot_state);
host_backend!(BinnedMatcher, "Binned-CPU", snapshot_state);
host_backend!(RankBasedMatcher, "Rank-CPU");

/// The paper's **RDMA-CPU** baseline: no tag matching at all, every message
/// "matches" immediately — the transport ceiling of Figure 8.
///
/// The delivered receive handle is fabricated from the message handle, as
/// the real baseline would address the buffer directly from the packet.
#[derive(Debug, Clone, Default)]
pub struct RdmaNoOp {
    queue: Vec<PendingCommand>,
}

impl RdmaNoOp {
    /// Creates the no-op backend.
    pub fn new() -> Self {
        RdmaNoOp::default()
    }

    /// The fabricated match of one message.
    fn arrive(&mut self, _env: Envelope, msg: MsgHandle) -> Result<BlockDelivery, MatchError> {
        Ok(BlockDelivery::Matched {
            msg,
            recv: RecvHandle(msg.0),
        })
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
        msgs.iter()
            .map(|&(env, msg)| self.arrive(env, msg))
            .collect()
    }

    fn submit_command(&mut self, cmd: PendingCommand) -> Result<(), MatchError> {
        self.queue.push(cmd);
        Ok(())
    }

    fn drain_commands(&mut self) -> DrainReport {
        drain_host_queue(self, |b| &mut b.queue, RdmaNoOp::arrive)
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
        let mut b = TraditionalMatcher::new();
        assert_eq!(MatchingBackend::block_size(&b), 1);
        MatchingBackend::post(
            &mut b,
            ReceivePattern::exact(Rank(0), Tag(1)),
            RecvHandle(7),
        )
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
        assert_eq!(Matcher::umq_len(&b), 1);
        assert_eq!(
            Matcher::probe(&b, &ReceivePattern::any_any()),
            Some(MsgHandle(1))
        );
        let stats = Matcher::stats(&b);
        assert_eq!((stats.posted, stats.matched_on_arrival), (1, 1));
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
    fn undrained_commands_are_handed_back_in_submission_order() {
        let mut b = TraditionalMatcher::new();
        let commands = [
            PendingCommand::Arrival {
                env: env(0, 1),
                msg: MsgHandle(0),
            },
            PendingCommand::Post {
                pattern: ReceivePattern::exact(Rank(0), Tag(1)),
                handle: RecvHandle(0),
            },
            PendingCommand::Arrival {
                env: env(0, 1),
                msg: MsgHandle(1),
            },
        ];
        for cmd in commands {
            b.submit_command(cmd).unwrap();
        }
        let lens = (b.queue.len(), Matcher::prq_len(&b), Matcher::umq_len(&b));
        assert_eq!(lens, (3, 0, 0));
        assert_eq!(
            Box::new(b).drain_for_fallback().unwrap(),
            FallbackState {
                receives: Vec::new(),
                unexpected: Vec::new(),
                pending: commands.to_vec(),
            }
        );
    }

    #[test]
    fn every_host_backend_applies_its_queue_at_the_drain() {
        let backends: Vec<Box<dyn MatchingBackend>> = vec![
            Box::new(TraditionalMatcher::new()),
            Box::new(BinnedMatcher::new(8)),
            Box::new(RankBasedMatcher::new()),
            Box::new(RdmaNoOp::new()),
        ];
        for mut b in backends {
            let pattern = ReceivePattern::exact(Rank(0), Tag(1));
            b.submit_command(PendingCommand::Post {
                pattern,
                handle: RecvHandle(5),
            })
            .unwrap();
            let (env, msg) = (env(0, 1), MsgHandle(5));
            b.submit_command(PendingCommand::Arrival { env, msg })
                .unwrap();
            let report = b.drain_commands();
            assert!(report.error.is_none() && report.unapplied.is_empty());
            assert_eq!(
                report.outcomes,
                [
                    CommandOutcome::Post {
                        handle: RecvHandle(5),
                        result: PostResult::Posted
                    },
                    CommandOutcome::Delivery(BlockDelivery::Matched {
                        msg,
                        recv: RecvHandle(5)
                    }),
                ],
                "{}",
                b.backend_name()
            );
            assert!(b.drain_commands().outcomes.is_empty(), "drained once");
            assert!(b.engine_stats().is_none() && b.metrics_snapshot().is_none());
        }
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
    }
}
