//! The common interface implemented by every host-side matching engine.

use crate::stats::MatchStats;
use otm_base::{Envelope, MatchError, ReceivePattern};

/// Opaque handle the caller associates with a posted receive.
///
/// Matching engines never interpret the handle; they hand it back when an
/// incoming message matches the receive. In a real MPI implementation it
/// would identify the receive request (and thereby the user buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecvHandle(pub u64);

/// Opaque handle the caller associates with an incoming message.
///
/// Handed back when a later-posted receive matches the (by then unexpected)
/// message. In a real implementation it would locate the staged message data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgHandle(pub u64);

/// Outcome of posting a receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostResult {
    /// The receive matched a message already waiting in the unexpected
    /// message queue; the protocol handling stage can start immediately
    /// (Fig. 1a, steps 2a/3a).
    Matched(MsgHandle),
    /// No unexpected message matched; the receive is recorded in the posted
    /// receive queue (Fig. 1a, steps 2b/3b).
    Posted,
}

impl PostResult {
    /// The matched message handle, if any.
    #[inline]
    pub fn matched(self) -> Option<MsgHandle> {
        match self {
            PostResult::Matched(m) => Some(m),
            PostResult::Posted => None,
        }
    }
}

/// Outcome of delivering an incoming message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArriveResult {
    /// The message matched a posted receive, which is consumed (Fig. 1b,
    /// step 2b).
    Matched(RecvHandle),
    /// No posted receive matched; the message is stored in the unexpected
    /// message queue (Fig. 1b, steps 2a/3a).
    Unexpected,
}

/// A sequential MPI tag-matching engine.
///
/// Implementations must uphold the MPI matching constraints:
///
/// * **C1 — order of posted receives.** If a message matches several posted
///   receives, the earliest-posted one matches.
/// * **C2 — non-overtaking messages.** If two messages match the same
///   receive pattern, they match (and are consumed from the UMQ) in arrival
///   order.
///
/// The [`Oracle`](crate::oracle::Oracle) encodes these rules directly; the
/// workspace property tests assert every implementation agrees with it.
pub trait Matcher {
    /// Posts a receive: first searches the unexpected message queue; on a
    /// miss, records the receive in the posted receive queue.
    fn post(
        &mut self,
        pattern: ReceivePattern,
        handle: RecvHandle,
    ) -> Result<PostResult, MatchError>;

    /// Delivers an incoming message: first searches the posted receive
    /// queue; on a miss, stores the message in the unexpected message queue.
    fn arrive(&mut self, env: Envelope, handle: MsgHandle) -> Result<ArriveResult, MatchError>;

    /// Number of receives currently pending in the posted receive queue.
    fn prq_len(&self) -> usize;

    /// Number of messages currently waiting in the unexpected message queue.
    fn umq_len(&self) -> usize;

    /// Non-destructive unexpected-queue probe (`MPI_Iprobe` semantics):
    /// returns the oldest waiting message matching `pattern` without
    /// consuming it, or `None` if no unexpected message matches.
    fn probe(&self, pattern: &ReceivePattern) -> Option<MsgHandle>;

    /// Search-depth and queue statistics accumulated so far.
    fn stats(&self) -> &MatchStats;

    /// Resets the accumulated statistics (queue contents are untouched).
    fn reset_stats(&mut self);

    /// A short name identifying the strategy (for reports and Table I).
    fn strategy_name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ArriveResult {
        /// The matched receive handle, if any.
        #[inline]
        fn matched(self) -> Option<RecvHandle> {
            match self {
                ArriveResult::Matched(r) => Some(r),
                ArriveResult::Unexpected => None,
            }
        }
    }

    #[test]
    fn post_result_accessor() {
        assert_eq!(
            PostResult::Matched(MsgHandle(4)).matched(),
            Some(MsgHandle(4))
        );
        assert_eq!(PostResult::Posted.matched(), None);
    }

    #[test]
    fn arrive_result_accessor() {
        assert_eq!(
            ArriveResult::Matched(RecvHandle(9)).matched(),
            Some(RecvHandle(9))
        );
        assert_eq!(ArriveResult::Unexpected.matched(), None);
    }

    #[test]
    fn handles_are_ordered() {
        assert!(RecvHandle(1) < RecvHandle(2));
        assert!(MsgHandle(1) < MsgHandle(2));
    }
}
