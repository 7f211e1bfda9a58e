//! A deliberately simple sequential reference for MPI matching.
//!
//! MPI tag matching is a *deterministic* function of the interleaved
//! sequence of receive posts and message arrivals: constraint C1 forces a
//! message to match the earliest-posted matching receive, and constraint C2
//! (plus the UMQ discipline of Fig. 1) forces a receive to match the
//! earliest-arrived matching unexpected message. [`Oracle`] computes that
//! function with two plain vectors and linear scans — slow, obviously
//! correct, and the ground truth for every property test in this workspace,
//! including the parallel optimistic engine's.

use crate::matcher::{ArriveResult, Matcher, MsgHandle, PostResult, RecvHandle};
use crate::stats::MatchStats;
use otm_base::{Envelope, MatchError, ReceivePattern};
use std::collections::BTreeMap;

/// One step of a matching workload: either the application posts a receive
/// or the network delivers a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchEvent {
    /// The application posts a receive with this pattern.
    Post(ReceivePattern),
    /// A message with this envelope arrives.
    Arrive(Envelope),
}

/// The complete pairing produced by running a workload: which message each
/// receive got, and which receive each message got.
///
/// Handles are assigned densely in event order (the i-th `Post` event gets
/// `RecvHandle(i)` counting posts only, likewise for messages), so two
/// engines run over the same event sequence produce directly comparable
/// assignments.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Assignment {
    /// For every message delivered: the receive it was paired with, or
    /// `None` if it was still unexpected when the workload ended.
    pub msg_to_recv: BTreeMap<MsgHandle, Option<RecvHandle>>,
    /// For every receive posted: the message it was paired with, or `None`
    /// if it was still pending when the workload ended.
    pub recv_to_msg: BTreeMap<RecvHandle, Option<MsgHandle>>,
}

impl Assignment {
    /// Number of completed (message, receive) pairs.
    pub fn pairs(&self) -> usize {
        self.msg_to_recv.values().filter(|v| v.is_some()).count()
    }

    /// Checks internal consistency: the two maps must describe the same
    /// one-to-one pairing.
    pub fn is_consistent(&self) -> bool {
        let forward: Vec<_> = self
            .msg_to_recv
            .iter()
            .filter_map(|(m, r)| r.map(|r| (*m, r)))
            .collect();
        for (m, r) in &forward {
            if self.recv_to_msg.get(r) != Some(&Some(*m)) {
                return false;
            }
        }
        let paired_recvs = self.recv_to_msg.values().filter(|v| v.is_some()).count();
        forward.len() == paired_recvs
    }
}

/// The sequential reference matcher (see module docs).
#[derive(Debug, Clone, Default)]
pub struct Oracle {
    prq: Vec<(ReceivePattern, RecvHandle)>,
    umq: Vec<(Envelope, MsgHandle)>,
    stats: MatchStats,
}

impl Oracle {
    /// Creates an empty oracle.
    pub fn new() -> Self {
        Oracle::default()
    }

    /// Runs a whole workload through a fresh oracle, assigning handles in
    /// event order, and returns the resulting pairing.
    pub fn run(events: &[MatchEvent]) -> Assignment {
        let mut oracle = Oracle::new();
        Self::drive(&mut oracle, events).expect("oracle is unbounded and never fails")
    }

    /// Drives any [`Matcher`] over a workload with the same dense handle
    /// assignment as [`Oracle::run`], so the resulting [`Assignment`] can be
    /// compared against the oracle's.
    pub fn drive<M: Matcher + ?Sized>(
        matcher: &mut M,
        events: &[MatchEvent],
    ) -> Result<Assignment, MatchError> {
        let mut asg = Assignment::default();
        let mut next_recv = 0u64;
        let mut next_msg = 0u64;
        for ev in events {
            match *ev {
                MatchEvent::Post(pattern) => {
                    let h = RecvHandle(next_recv);
                    next_recv += 1;
                    match matcher.post(pattern, h)? {
                        PostResult::Matched(m) => {
                            asg.recv_to_msg.insert(h, Some(m));
                            asg.msg_to_recv.insert(m, Some(h));
                        }
                        PostResult::Posted => {
                            asg.recv_to_msg.insert(h, None);
                        }
                    }
                }
                MatchEvent::Arrive(env) => {
                    let m = MsgHandle(next_msg);
                    next_msg += 1;
                    match matcher.arrive(env, m)? {
                        ArriveResult::Matched(r) => {
                            asg.msg_to_recv.insert(m, Some(r));
                            asg.recv_to_msg.insert(r, Some(m));
                        }
                        ArriveResult::Unexpected => {
                            asg.msg_to_recv.insert(m, None);
                        }
                    }
                }
            }
        }
        Ok(asg)
    }

    /// Drives a [`MatchingBackend`](crate::backend::MatchingBackend) over a
    /// workload with the same dense handle assignment as [`Oracle::run`],
    /// delivering each arrival as a one-message block. The resulting
    /// [`Assignment`] is directly comparable with the oracle's.
    pub fn drive_backend(
        backend: &mut dyn crate::backend::MatchingBackend,
        events: &[MatchEvent],
    ) -> Result<Assignment, MatchError> {
        use crate::backend::BlockDelivery;
        let mut asg = Assignment::default();
        let mut next_recv = 0u64;
        let mut next_msg = 0u64;
        for ev in events {
            match *ev {
                MatchEvent::Post(pattern) => {
                    let h = RecvHandle(next_recv);
                    next_recv += 1;
                    match backend.post(pattern, h)? {
                        PostResult::Matched(m) => {
                            asg.recv_to_msg.insert(h, Some(m));
                            asg.msg_to_recv.insert(m, Some(h));
                        }
                        PostResult::Posted => {
                            asg.recv_to_msg.insert(h, None);
                        }
                    }
                }
                MatchEvent::Arrive(env) => {
                    let m = MsgHandle(next_msg);
                    next_msg += 1;
                    match backend.arrive_block(&[(env, m)])?[0] {
                        BlockDelivery::Matched { recv, .. } => {
                            asg.msg_to_recv.insert(m, Some(recv));
                            asg.recv_to_msg.insert(recv, Some(m));
                        }
                        BlockDelivery::Unexpected { .. } => {
                            asg.msg_to_recv.insert(m, None);
                        }
                    }
                }
            }
        }
        Ok(asg)
    }
}

impl Matcher for Oracle {
    fn post(
        &mut self,
        pattern: ReceivePattern,
        handle: RecvHandle,
    ) -> Result<PostResult, MatchError> {
        // C2 over the UMQ: the oldest matching unexpected message wins.
        // `umq` is kept in arrival order, so the first match is the oldest.
        let hit = self.umq.iter().position(|(env, _)| pattern.matches(env));
        let depth = hit.map_or(self.umq.len(), |i| i + 1);
        match hit {
            Some(i) => {
                let (_, m) = self.umq.remove(i);
                self.stats.record_post(depth, true);
                self.stats
                    .observe_queue_lens(self.prq.len(), self.umq.len());
                Ok(PostResult::Matched(m))
            }
            None => {
                self.prq.push((pattern, handle));
                self.stats.record_post(depth, false);
                self.stats
                    .observe_queue_lens(self.prq.len(), self.umq.len());
                Ok(PostResult::Posted)
            }
        }
    }

    fn arrive(&mut self, env: Envelope, handle: MsgHandle) -> Result<ArriveResult, MatchError> {
        // C1 over the PRQ: the earliest-posted matching receive wins.
        // `prq` is kept in post order, so the first match is the earliest.
        let hit = self.prq.iter().position(|(p, _)| p.matches(&env));
        let depth = hit.map_or(self.prq.len(), |i| i + 1);
        match hit {
            Some(i) => {
                let (_, r) = self.prq.remove(i);
                self.stats.record_arrival(depth, true);
                self.stats
                    .observe_queue_lens(self.prq.len(), self.umq.len());
                Ok(ArriveResult::Matched(r))
            }
            None => {
                self.umq.push((env, handle));
                self.stats.record_arrival(depth, false);
                self.stats
                    .observe_queue_lens(self.prq.len(), self.umq.len());
                Ok(ArriveResult::Unexpected)
            }
        }
    }

    fn prq_len(&self) -> usize {
        self.prq.len()
    }

    fn umq_len(&self) -> usize {
        self.umq.len()
    }

    fn probe(&self, pattern: &ReceivePattern) -> Option<MsgHandle> {
        self.umq
            .iter()
            .find(|(env, _)| pattern.matches(env))
            .map(|&(_, m)| m)
    }

    fn stats(&self) -> &MatchStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = MatchStats::new();
    }

    fn strategy_name(&self) -> &'static str {
        "oracle"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otm_base::{Rank, Tag};

    fn post(src: u32, tag: u32) -> MatchEvent {
        MatchEvent::Post(ReceivePattern::exact(Rank(src), Tag(tag)))
    }

    fn arrive(src: u32, tag: u32) -> MatchEvent {
        MatchEvent::Arrive(Envelope::world(Rank(src), Tag(tag)))
    }

    #[test]
    fn expected_message_matches_posted_receive() {
        let asg = Oracle::run(&[post(0, 1), arrive(0, 1)]);
        assert_eq!(asg.msg_to_recv[&MsgHandle(0)], Some(RecvHandle(0)));
        assert!(asg.is_consistent());
    }

    #[test]
    fn unexpected_message_matches_later_receive() {
        let asg = Oracle::run(&[arrive(0, 1), post(0, 1)]);
        assert_eq!(asg.recv_to_msg[&RecvHandle(0)], Some(MsgHandle(0)));
        assert!(asg.is_consistent());
    }

    #[test]
    fn c1_earliest_posted_receive_wins() {
        // Two receives both match; the first-posted one must match first.
        let asg = Oracle::run(&[post(0, 1), post(0, 1), arrive(0, 1)]);
        assert_eq!(asg.msg_to_recv[&MsgHandle(0)], Some(RecvHandle(0)));
        assert_eq!(asg.recv_to_msg[&RecvHandle(1)], None);
    }

    #[test]
    fn c1_applies_across_wildcard_classes() {
        // An ANY_SOURCE receive posted before an exact one must win even
        // though it lives in a different index class.
        let events = [
            MatchEvent::Post(ReceivePattern::any_source(Tag(1))),
            post(0, 1),
            arrive(0, 1),
        ];
        let asg = Oracle::run(&events);
        assert_eq!(asg.msg_to_recv[&MsgHandle(0)], Some(RecvHandle(0)));
    }

    #[test]
    fn c2_messages_do_not_overtake() {
        // Two identical messages, two identical receives: pairing must be
        // in-order on both sides.
        let asg = Oracle::run(&[post(0, 1), post(0, 1), arrive(0, 1), arrive(0, 1)]);
        assert_eq!(asg.msg_to_recv[&MsgHandle(0)], Some(RecvHandle(0)));
        assert_eq!(asg.msg_to_recv[&MsgHandle(1)], Some(RecvHandle(1)));
    }

    #[test]
    fn c2_umq_consumed_in_arrival_order() {
        let asg = Oracle::run(&[arrive(0, 1), arrive(0, 1), post(0, 1)]);
        assert_eq!(asg.recv_to_msg[&RecvHandle(0)], Some(MsgHandle(0)));
        assert_eq!(asg.msg_to_recv[&MsgHandle(1)], None);
    }

    #[test]
    fn non_matching_messages_stay_unexpected() {
        let asg = Oracle::run(&[post(0, 1), arrive(0, 2), arrive(1, 1)]);
        assert_eq!(asg.msg_to_recv[&MsgHandle(0)], None);
        assert_eq!(asg.msg_to_recv[&MsgHandle(1)], None);
        assert_eq!(asg.recv_to_msg[&RecvHandle(0)], None);
    }

    #[test]
    fn wildcard_receive_scoops_oldest_unexpected() {
        let events = [
            arrive(3, 7),
            arrive(2, 9),
            MatchEvent::Post(ReceivePattern::any_any()),
        ];
        let asg = Oracle::run(&events);
        assert_eq!(asg.recv_to_msg[&RecvHandle(0)], Some(MsgHandle(0)));
    }

    #[test]
    fn stats_reflect_search_depths() {
        let mut oracle = Oracle::new();
        Oracle::drive(&mut oracle, &[post(0, 1), post(0, 2), arrive(0, 2)]).unwrap();
        // The arrival scanned past the tag-1 receive to hit the tag-2 one:
        // one wasted comparison.
        assert_eq!(oracle.stats().prq_search.max, 1);
        assert_eq!(oracle.stats().matched_on_arrival, 1);
        assert_eq!(oracle.prq_len(), 1);
    }

    #[test]
    fn assignment_consistency_detects_corruption() {
        let mut asg = Oracle::run(&[post(0, 1), arrive(0, 1)]);
        assert!(asg.is_consistent());
        asg.recv_to_msg.insert(RecvHandle(0), None);
        assert!(!asg.is_consistent());
    }
}
