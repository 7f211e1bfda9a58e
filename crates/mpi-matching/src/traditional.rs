//! The traditional two-queue matcher — the paper's **MPI-CPU** baseline.
//!
//! Mainstream MPI implementations keep two linked lists (Fig. 1): the posted
//! receive queue (PRQ) and the unexpected message queue (UMQ). Posting walks
//! the UMQ from its head; message arrival walks the PRQ from its head. List
//! order is post/arrival order, which makes both C1 and C2 hold by
//! construction — at the cost of `O(n)` searches that serialize matching
//! (§I, §II-A). This is also exactly the 1-bin configuration of the Fig. 7
//! sweep.
//!
//! The implementation uses an arena of entries threaded through an intrusive
//! singly-linked list (indices instead of pointers), mirroring how MPI
//! libraries lay these queues out, and counts every link traversal so the
//! trace analyzer can report search depths.

use crate::matcher::{ArriveResult, Matcher, MsgHandle, PostResult, RecvHandle};
use crate::stats::MatchStats;
use otm_base::{Envelope, MatchError, ReceivePattern};

const NIL: u32 = u32::MAX;

/// An intrusive singly-linked FIFO over an arena with a free list.
///
/// Generic over the entry payload so the PRQ (patterns) and the UMQ
/// (envelopes) share the machinery.
#[derive(Debug, Clone)]
struct LinkedQueue<T> {
    arena: Vec<Entry<T>>,
    free: u32,
    head: u32,
    tail: u32,
    len: usize,
}

#[derive(Debug, Clone)]
struct Entry<T> {
    item: Option<T>,
    next: u32,
}

impl<T> LinkedQueue<T> {
    fn new() -> Self {
        LinkedQueue {
            arena: Vec::new(),
            free: NIL,
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Appends at the tail (newest end).
    fn push_back(&mut self, item: T) {
        let idx = if self.free != NIL {
            let idx = self.free;
            self.free = self.arena[idx as usize].next;
            self.arena[idx as usize] = Entry {
                item: Some(item),
                next: NIL,
            };
            idx
        } else {
            let idx = self.arena.len() as u32;
            self.arena.push(Entry {
                item: Some(item),
                next: NIL,
            });
            idx
        };
        if self.tail == NIL {
            self.head = idx;
        } else {
            self.arena[self.tail as usize].next = idx;
        }
        self.tail = idx;
        self.len += 1;
    }

    /// Scans from the head; removes and returns the first entry `pred`
    /// accepts, together with the number of entries examined.
    fn remove_first<F: FnMut(&T) -> bool>(&mut self, mut pred: F) -> (Option<T>, usize) {
        let mut prev = NIL;
        let mut cur = self.head;
        let mut depth = 0usize;
        while cur != NIL {
            depth += 1;
            let entry = &self.arena[cur as usize];
            let item = entry.item.as_ref().expect("live entry has an item");
            if pred(item) {
                let next = entry.next;
                if prev == NIL {
                    self.head = next;
                } else {
                    self.arena[prev as usize].next = next;
                }
                if cur == self.tail {
                    self.tail = prev;
                }
                let taken = self.arena[cur as usize].item.take();
                self.arena[cur as usize].next = self.free;
                self.free = cur;
                self.len -= 1;
                return (taken, depth);
            }
            prev = cur;
            cur = entry.next;
        }
        (None, depth)
    }

    /// Iterates items in queue order (oldest first).
    fn iter(&self) -> impl Iterator<Item = &T> {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            if cur == NIL {
                return None;
            }
            let entry = &self.arena[cur as usize];
            cur = entry.next;
            entry.item.as_ref()
        })
    }
}

/// The traditional linked-list matcher (see module docs).
#[derive(Debug, Clone)]
pub struct TraditionalMatcher {
    prq: LinkedQueue<(ReceivePattern, RecvHandle)>,
    umq: LinkedQueue<(Envelope, MsgHandle)>,
    stats: MatchStats,
    /// Commands submitted through [`crate::MatchingBackend::submit_command`]
    /// and not yet drained.
    pub(crate) queue: Vec<crate::backend::PendingCommand>,
}

impl TraditionalMatcher {
    /// Creates an empty matcher.
    pub fn new() -> Self {
        TraditionalMatcher {
            prq: LinkedQueue::new(),
            umq: LinkedQueue::new(),
            stats: MatchStats::new(),
            queue: Vec::new(),
        }
    }

    /// Pending receives in post order (oldest first) — used by tests and by
    /// the trace analyzer's final-state dump.
    pub fn pending_receives(&self) -> Vec<RecvHandle> {
        self.prq.iter().map(|(_, h)| *h).collect()
    }

    /// Waiting unexpected messages in arrival order (oldest first).
    pub fn waiting_messages(&self) -> Vec<MsgHandle> {
        self.umq.iter().map(|(_, h)| *h).collect()
    }

    /// Copies out the full matching state: pending receives in post order
    /// and unexpected messages in arrival order — the
    /// [`FallbackState`](crate::backend::FallbackState) shape the backend
    /// trait's drain hands to a replacement matcher.
    pub fn snapshot_state(&self) -> crate::backend::FallbackState {
        crate::backend::FallbackState::from_state(
            self.prq.iter().copied().collect(),
            self.umq.iter().copied().collect(),
        )
    }
}

impl Default for TraditionalMatcher {
    fn default() -> Self {
        TraditionalMatcher::new()
    }
}

impl Matcher for TraditionalMatcher {
    fn post(
        &mut self,
        pattern: ReceivePattern,
        handle: RecvHandle,
    ) -> Result<PostResult, MatchError> {
        let (hit, depth) = self.umq.remove_first(|(env, _)| pattern.matches(env));
        let result = match hit {
            Some((_, m)) => {
                self.stats.record_post(depth, true);
                PostResult::Matched(m)
            }
            None => {
                self.prq.push_back((pattern, handle));
                self.stats.record_post(depth, false);
                PostResult::Posted
            }
        };
        self.stats
            .observe_queue_lens(self.prq.len(), self.umq.len());
        Ok(result)
    }

    fn arrive(&mut self, env: Envelope, handle: MsgHandle) -> Result<ArriveResult, MatchError> {
        let (hit, depth) = self.prq.remove_first(|(p, _)| p.matches(&env));
        let result = match hit {
            Some((_, r)) => {
                self.stats.record_arrival(depth, true);
                ArriveResult::Matched(r)
            }
            None => {
                self.umq.push_back((env, handle));
                self.stats.record_arrival(depth, false);
                ArriveResult::Unexpected
            }
        };
        self.stats
            .observe_queue_lens(self.prq.len(), self.umq.len());
        Ok(result)
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
        "traditional"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{MatchEvent, Oracle};
    use otm_base::{Rank, Tag};

    fn post(src: u32, tag: u32) -> MatchEvent {
        MatchEvent::Post(ReceivePattern::exact(Rank(src), Tag(tag)))
    }

    fn arrive(src: u32, tag: u32) -> MatchEvent {
        MatchEvent::Arrive(Envelope::world(Rank(src), Tag(tag)))
    }

    #[test]
    fn agrees_with_oracle_on_basic_flows() {
        let workloads: Vec<Vec<MatchEvent>> = vec![
            vec![post(0, 1), arrive(0, 1)],
            vec![arrive(0, 1), post(0, 1)],
            vec![post(0, 1), post(0, 1), arrive(0, 1), arrive(0, 1)],
            vec![arrive(1, 2), arrive(1, 2), post(1, 2), post(1, 2)],
            vec![
                MatchEvent::Post(ReceivePattern::any_source(Tag(5))),
                post(2, 5),
                arrive(2, 5),
                arrive(2, 5),
            ],
        ];
        for events in &workloads {
            let mut m = TraditionalMatcher::new();
            let got = Oracle::drive(&mut m, events).unwrap();
            assert_eq!(got, Oracle::run(events), "workload {events:?}");
        }
    }

    #[test]
    fn search_depth_counts_link_traversals() {
        let mut m = TraditionalMatcher::new();
        Oracle::drive(&mut m, &[post(0, 1), post(0, 2), post(0, 3), arrive(0, 3)]).unwrap();
        // The arrival walked past two receives before hitting the third.
        assert_eq!(m.stats().prq_search.max, 2);
    }

    #[test]
    fn high_water_marks_track_queue_growth() {
        let mut m = TraditionalMatcher::new();
        Oracle::drive(&mut m, &[arrive(0, 1), arrive(0, 2), arrive(0, 3)]).unwrap();
        assert_eq!(m.stats().umq_high_water, 3);
        assert_eq!(m.umq_len(), 3);
    }

    #[test]
    fn arena_reuses_freed_slots() {
        let mut m = TraditionalMatcher::new();
        // Fill and drain repeatedly; the arena must not grow past the peak.
        for round in 0..10u32 {
            for i in 0..8u32 {
                m.post(
                    ReceivePattern::exact(Rank(0), Tag(i)),
                    RecvHandle(u64::from(round * 8 + i)),
                )
                .unwrap();
            }
            for i in 0..8u32 {
                m.arrive(
                    Envelope::world(Rank(0), Tag(i)),
                    MsgHandle(u64::from(round * 8 + i)),
                )
                .unwrap();
            }
        }
        assert_eq!(m.prq_len(), 0);
        assert!(
            m.prq.arena.len() <= 8,
            "arena grew to {}",
            m.prq.arena.len()
        );
    }

    #[test]
    fn removal_from_middle_keeps_order() {
        let mut m = TraditionalMatcher::new();
        m.post(ReceivePattern::exact(Rank(0), Tag(0)), RecvHandle(0))
            .unwrap();
        m.post(ReceivePattern::exact(Rank(0), Tag(1)), RecvHandle(1))
            .unwrap();
        m.post(ReceivePattern::exact(Rank(0), Tag(2)), RecvHandle(2))
            .unwrap();
        // Remove the middle receive.
        let r = m
            .arrive(Envelope::world(Rank(0), Tag(1)), MsgHandle(0))
            .unwrap();
        assert_eq!(r, ArriveResult::Matched(RecvHandle(1)));
        assert_eq!(m.pending_receives(), vec![RecvHandle(0), RecvHandle(2)]);
        // Remove the tail, then the head.
        m.arrive(Envelope::world(Rank(0), Tag(2)), MsgHandle(1))
            .unwrap();
        assert_eq!(m.pending_receives(), vec![RecvHandle(0)]);
        m.arrive(Envelope::world(Rank(0), Tag(0)), MsgHandle(2))
            .unwrap();
        assert!(m.pending_receives().is_empty());
    }

    #[test]
    fn tail_removal_then_push_keeps_list_wellformed() {
        let mut m = TraditionalMatcher::new();
        m.post(ReceivePattern::exact(Rank(0), Tag(0)), RecvHandle(0))
            .unwrap();
        m.arrive(Envelope::world(Rank(0), Tag(0)), MsgHandle(0))
            .unwrap();
        m.post(ReceivePattern::exact(Rank(0), Tag(1)), RecvHandle(1))
            .unwrap();
        assert_eq!(m.pending_receives(), vec![RecvHandle(1)]);
    }

    #[test]
    fn strategy_name_is_stable() {
        assert_eq!(TraditionalMatcher::new().strategy_name(), "traditional");
    }
}
