//! The unexpected-message store (§IV-C).
//!
//! A message with no matching receive is kept until a matching receive is
//! posted. The store mirrors the posted-receive organisation, with one
//! twist: "an unexpected message is indexed in *each* of these data
//! structures, while a posted receive is indexed in only one of them" —
//! because the message cannot know which wildcard class the future receive
//! will use. When a receive is posted, only the index corresponding to its
//! class is searched.
//!
//! The store is only ever accessed from the coordinator side (receive
//! posting and block-end unexpected insertion are serialized with block
//! execution), so it needs no internal synchronization.
//!
//! # Four lists through one slab
//!
//! Every waiting message is one slab entry, and the entry itself carries the
//! `prev`/`next` links of the four lists it is on: its `(src, tag)` bin, its
//! `tag` bin, its `src` bin and the arrival-order list. The lists' ends are
//! one boxed slice of `3 · bins + 1` `{head, tail}` pairs — nothing is
//! allocated per bin, and an empty bin is eight bytes. Inserting appends to
//! four tails, with the three bin indexes taken from the hashes the sender
//! inlined (§IV-D). Every list is in arrival order, so the first match on the
//! list a receive's class selects is the oldest one (C2).
//!
//! Removal is O(1) because the links are in the entry: a hit rewrites the
//! `next` of up to four predecessors (or the list's head) and the `prev` of
//! up to four successors (or its tail), wherever in its lists the entry sits,
//! and the slot goes back on the free list at once. No list ever holds a
//! reference to a slot that is not live, so there is nothing to sweep and a
//! search never steps over anything dead: [`UmqMatch::depth`] — the entries a
//! search examined, the hit included — counts waiting messages only.

use crate::table::IndexHome;
use mpi_matching::MsgHandle;
use otm_base::hash::bin_of;
use otm_base::{ArrivalSeq, Envelope, InlineHashes, MatchError, ReceivePattern};

/// No slot: past either end of a list, and both ends of an empty one.
const NIL: u32 = u32::MAX;

/// The view — position in [`UmqEntry::lists`] and [`UmqEntry::links`] — of
/// the arrival-order list; views 0–2 are the `(src, tag)`, `tag` and `src`
/// bins. A view is the [`WildcardClass::index`](otm_base::WildcardClass::index)
/// of the receives that search it.
const ORDER: usize = 3;

/// The two ends of one list.
#[derive(Debug, Clone, Copy)]
struct Ends {
    head: u32,
    tail: u32,
}

/// An entry's neighbours on one of its lists.
#[derive(Debug, Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
}

#[derive(Debug, Clone, Copy)]
struct UmqEntry {
    env: Envelope,
    handle: MsgHandle,
    arrival: ArrivalSeq,
    /// The list the entry is on in each view, as an index into
    /// [`UnexpectedStore::ends`].
    lists: [u32; 4],
    /// Its neighbours on that list.
    links: [Link; 4],
}

/// A found unexpected message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UmqMatch {
    /// The message's handle.
    pub handle: MsgHandle,
    /// Its arrival sequence number.
    pub arrival: ArrivalSeq,
    /// Waiting messages examined during the search, this one included.
    pub depth: usize,
}

/// The unexpected-message store for one communicator (see module docs).
#[derive(Debug)]
pub struct UnexpectedStore {
    bins: usize,
    capacity: usize,
    /// Waiting messages and freed slots; a slot is one or the other.
    slab: Vec<UmqEntry>,
    free: Vec<u32>,
    /// View `v`'s bin `b` at `v · bins + b`, the arrival-order list last.
    ends: Box<[Ends]>,
}

impl UnexpectedStore {
    /// Creates a store with `bins` bins per index and room for `capacity`
    /// simultaneously waiting messages.
    pub fn new(bins: usize, capacity: usize) -> Self {
        assert!(bins > 0, "UMQ index tables need at least one bin");
        let empty = Ends {
            head: NIL,
            tail: NIL,
        };
        UnexpectedStore {
            bins,
            // Slots are 32-bit and the last value is `NIL`.
            capacity: capacity.min(NIL as usize),
            slab: Vec::new(),
            free: Vec::new(),
            ends: vec![empty; ORDER * bins + 1].into_boxed_slice(),
        }
    }

    /// Number of messages currently waiting.
    pub fn len(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Whether no messages are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remaining capacity (messages that can still be stored).
    pub fn available(&self) -> usize {
        self.capacity - self.len()
    }

    /// Appends an unexpected message to its four lists; `hashes` are the
    /// envelope's (§IV-D).
    ///
    /// Fails with [`MatchError::UnexpectedStoreFull`] at capacity — the
    /// resource-exhaustion condition that forces fallback to software tag
    /// matching (§IV-E).
    pub fn insert(
        &mut self,
        env: Envelope,
        hashes: &InlineHashes,
        handle: MsgHandle,
        arrival: ArrivalSeq,
    ) -> Result<(), MatchError> {
        if self.len() >= self.capacity {
            return Err(MatchError::UnexpectedStoreFull);
        }
        let bins = self.bins;
        let lists = [
            bin_of(hashes.src_tag, bins),
            bins + bin_of(hashes.tag, bins),
            2 * bins + bin_of(hashes.src, bins),
            ORDER * bins,
        ]
        .map(|list| list as u32);
        let links = lists.map(|list| Link {
            prev: self.ends[list as usize].tail,
            next: NIL,
        });
        let entry = UmqEntry {
            env,
            handle,
            arrival,
            lists,
            links,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = entry;
                slot
            }
            None => {
                self.slab.push(entry);
                (self.slab.len() - 1) as u32
            }
        };
        for (view, (list, link)) in lists.into_iter().zip(links).enumerate() {
            let ends = &mut self.ends[list as usize];
            ends.tail = slot;
            match link.prev {
                NIL => ends.head = slot,
                prev => self.slab[prev as usize].links[view].next = slot,
            }
        }
        Ok(())
    }

    /// The oldest waiting message matching `pattern` and the entries examined
    /// to reach it: one walk of the list the pattern's wildcard class selects
    /// (§IV-C). An empty store answers before hashing or touching a bin.
    fn find(&self, pattern: &ReceivePattern) -> Option<(u32, usize)> {
        if self.is_empty() {
            return None;
        }
        let home = IndexHome::of(pattern, self.bins);
        let view = home.class.index();
        let mut slot = self.ends[view * self.bins + home.bin].head;
        let mut depth = 0usize;
        while slot != NIL {
            let entry = &self.slab[slot as usize];
            depth += 1;
            if pattern.matches(&entry.env) {
                return Some((slot, depth));
            }
            slot = entry.links[view].next;
        }
        None
    }

    /// Searches for the oldest waiting message matching a newly posted
    /// receive, consuming it on a hit: the entry leaves its four lists and
    /// its slot is free again when this returns.
    pub fn match_post(&mut self, pattern: &ReceivePattern) -> Option<UmqMatch> {
        let (slot, depth) = self.find(pattern)?;
        let UmqEntry {
            handle,
            arrival,
            lists,
            links,
            ..
        } = self.slab[slot as usize];
        for (view, (list, link)) in lists.into_iter().zip(links).enumerate() {
            match link.prev {
                NIL => self.ends[list as usize].head = link.next,
                prev => self.slab[prev as usize].links[view].next = link.next,
            }
            match link.next {
                NIL => self.ends[list as usize].tail = link.prev,
                next => self.slab[next as usize].links[view].prev = link.prev,
            }
        }
        self.free.push(slot);
        Some(UmqMatch {
            handle,
            arrival,
            depth,
        })
    }

    /// The waiting messages, oldest first.
    fn in_order(&self) -> impl Iterator<Item = &UmqEntry> {
        // `NIL` indexes no slot: the capacity stops the slab short of it.
        let at = |slot: u32| self.slab.get(slot as usize);
        let first = self.ends[ORDER * self.bins].head;
        std::iter::successors(at(first), move |e| at(e.links[ORDER].next))
    }

    /// Drains every waiting message in arrival order. Used by the software
    /// fallback to migrate state off the device.
    pub fn drain(&mut self) -> Vec<(Envelope, MsgHandle)> {
        let out = self.in_order().map(|e| (e.env, e.handle)).collect();
        *self = UnexpectedStore::new(self.bins, self.capacity);
        out
    }

    /// Non-destructive probe (`MPI_Iprobe` semantics): the oldest waiting
    /// message matching `pattern`, if any.
    pub fn probe(&self, pattern: &ReceivePattern) -> Option<MsgHandle> {
        let (slot, _) = self.find(pattern)?;
        Some(self.slab[slot as usize].handle)
    }

    /// Waiting messages in arrival order (diagnostics and tests).
    pub fn waiting(&self) -> Vec<MsgHandle> {
        self.in_order().map(|e| e.handle).collect()
    }
}

#[cfg(test)]
impl UnexpectedStore {
    /// Walks all `3 · bins + 1` lists and panics unless every waiting message
    /// is reached exactly once in each view, on the list it names there, with
    /// `prev`/`next` and the lists' ends agreeing, and no freed slot is
    /// reached at all.
    fn check_links(&self) {
        assert_eq!(self.ends.len(), ORDER * self.bins + 1);
        let mut freed = vec![false; self.slab.len()];
        for &slot in &self.free {
            let twice = std::mem::replace(&mut freed[slot as usize], true);
            assert!(!twice, "slot {slot} is on the free list twice");
        }
        let mut seen = vec![[false; 4]; self.slab.len()];
        let mut reached = [0usize; 4];
        for (list, ends) in self.ends.iter().enumerate() {
            let view = list / self.bins;
            let (mut prev, mut slot) = (NIL, ends.head);
            while slot != NIL {
                let entry = &self.slab[slot as usize];
                assert!(!freed[slot as usize], "list {list} reaches freed {slot}");
                assert_eq!(entry.lists[view] as usize, list, "slot {slot} is misfiled");
                assert_eq!(entry.links[view].prev, prev, "slot {slot}, list {list}");
                let twice = std::mem::replace(&mut seen[slot as usize][view], true);
                assert!(!twice, "slot {slot} reached twice in view {view}");
                reached[view] += 1;
                (prev, slot) = (slot, entry.links[view].next);
            }
            assert_eq!(ends.tail, prev, "tail of list {list}");
        }
        assert_eq!(reached, [self.len(); 4], "waiting messages per view");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otm_base::{Rank, Tag};

    fn env(src: u32, tag: u32) -> Envelope {
        Envelope::world(Rank(src), Tag(tag))
    }

    /// Inserts message `id` (handle and arrival) the way a block does.
    fn put(u: &mut UnexpectedStore, env: Envelope, id: u64) -> Result<(), MatchError> {
        u.insert(env, &InlineHashes::of(&env), MsgHandle(id), ArrivalSeq(id))
    }

    /// A store whose every operation is followed by [`check_links`] and by
    /// the slab bound: it never holds more slots than were ever waiting at
    /// once.
    struct Checked {
        store: UnexpectedStore,
        peak: usize,
    }

    impl Checked {
        fn new(bins: usize, capacity: usize) -> Self {
            Checked {
                store: UnexpectedStore::new(bins, capacity),
                peak: 0,
            }
        }

        fn check(&mut self) {
            self.peak = self.peak.max(self.store.len());
            self.store.check_links();
            assert!(
                self.store.slab.len() <= self.peak,
                "{} slots for a peak of {} waiting",
                self.store.slab.len(),
                self.peak
            );
        }

        fn put(&mut self, env: Envelope, id: u64) {
            put(&mut self.store, env, id).unwrap();
            self.check();
        }

        fn match_post(&mut self, pattern: &ReceivePattern) -> Option<UmqMatch> {
            let m = self.store.match_post(pattern);
            self.check();
            m
        }
    }

    #[test]
    fn insert_then_match_exact() {
        let mut u = UnexpectedStore::new(16, 8);
        put(&mut u, env(1, 2), 0).unwrap();
        let m = u
            .match_post(&ReceivePattern::exact(Rank(1), Tag(2)))
            .unwrap();
        assert_eq!(m.handle, MsgHandle(0));
        assert!(u.is_empty());
    }

    #[test]
    fn miss_leaves_store_untouched() {
        let mut u = UnexpectedStore::new(16, 8);
        put(&mut u, env(1, 2), 0).unwrap();
        assert!(u
            .match_post(&ReceivePattern::exact(Rank(1), Tag(3)))
            .is_none());
        assert_eq!(u.len(), 1);
    }

    #[test]
    fn every_wildcard_class_can_find_the_message() {
        for pattern in [
            ReceivePattern::exact(Rank(1), Tag(2)),
            ReceivePattern::any_source(Tag(2)),
            ReceivePattern::any_tag(Rank(1)),
            ReceivePattern::any_any(),
        ] {
            let mut u = UnexpectedStore::new(16, 8);
            let e = env(1, 2);
            u.insert(e, &InlineHashes::of(&e), MsgHandle(7), ArrivalSeq(3))
                .unwrap();
            assert_eq!(u.probe(&pattern), Some(MsgHandle(7)), "probe for {pattern}");
            let m = u
                .match_post(&pattern)
                .unwrap_or_else(|| panic!("miss for {pattern}"));
            assert_eq!(m.handle, MsgHandle(7));
            assert_eq!(m.arrival, ArrivalSeq(3));
        }
    }

    #[test]
    fn c2_oldest_matching_message_wins() {
        let mut u = UnexpectedStore::new(16, 8);
        put(&mut u, env(1, 2), 0).unwrap();
        put(&mut u, env(1, 2), 1).unwrap();
        let m = u
            .match_post(&ReceivePattern::exact(Rank(1), Tag(2)))
            .unwrap();
        assert_eq!(m.handle, MsgHandle(0));
        let m = u
            .match_post(&ReceivePattern::exact(Rank(1), Tag(2)))
            .unwrap();
        assert_eq!(m.handle, MsgHandle(1));
    }

    #[test]
    fn capacity_forces_fallback() {
        let mut u = UnexpectedStore::new(4, 2);
        put(&mut u, env(0, 0), 0).unwrap();
        put(&mut u, env(0, 1), 1).unwrap();
        assert_eq!(
            put(&mut u, env(0, 2), 2),
            Err(MatchError::UnexpectedStoreFull)
        );
        // Draining one makes room again.
        u.match_post(&ReceivePattern::exact(Rank(0), Tag(0)))
            .unwrap();
        put(&mut u, env(0, 2), 2).unwrap();
    }

    #[test]
    fn a_match_through_one_index_leaves_the_other_three() {
        let mut u = Checked::new(16, 8);
        u.put(env(1, 2), 0);
        u.put(env(3, 2), 1);
        // Consume message 0 via the exact index; the ANY_SOURCE search over
        // the tag index it shared with message 1 must now start at 1.
        u.match_post(&ReceivePattern::exact(Rank(1), Tag(2)))
            .unwrap();
        let m = u.match_post(&ReceivePattern::any_source(Tag(2))).unwrap();
        assert_eq!((m.handle, m.depth), (MsgHandle(1), 1));
    }

    #[test]
    fn a_reused_slot_carries_nothing_of_its_last_message() {
        let mut u = Checked::new(1, 8); // one bin: maximal aliasing
        u.put(env(1, 1), 0);
        u.match_post(&ReceivePattern::exact(Rank(1), Tag(1)))
            .unwrap();
        u.put(env(2, 2), 1);
        assert_eq!(u.store.slab.len(), 1, "the freed slot is the next one used");
        // Searching for the OLD message must miss in every view.
        for pattern in [
            ReceivePattern::exact(Rank(1), Tag(1)),
            ReceivePattern::any_source(Tag(1)),
            ReceivePattern::any_tag(Rank(1)),
        ] {
            assert!(u.match_post(&pattern).is_none(), "{pattern}");
        }
        let m = u
            .match_post(&ReceivePattern::exact(Rank(2), Tag(2)))
            .unwrap();
        assert_eq!(m.handle, MsgHandle(1));
    }

    #[test]
    fn depth_counts_entries_in_searched_index_only() {
        let mut u = UnexpectedStore::new(1, 16);
        for i in 0..5u64 {
            put(&mut u, env(0, i as u32), i).unwrap();
        }
        let m = u
            .match_post(&ReceivePattern::exact(Rank(0), Tag(4)))
            .unwrap();
        assert_eq!(m.depth, 5);
    }

    #[test]
    fn waiting_lists_messages_in_arrival_order() {
        let mut u = UnexpectedStore::new(8, 8);
        put(&mut u, env(0, 0), 0).unwrap();
        put(&mut u, env(1, 1), 1).unwrap();
        put(&mut u, env(2, 2), 2).unwrap();
        u.match_post(&ReceivePattern::exact(Rank(1), Tag(1)))
            .unwrap();
        assert_eq!(u.waiting(), vec![MsgHandle(0), MsgHandle(2)]);
    }

    #[test]
    fn interior_tail_and_head_matches_unlink_in_place() {
        let mut u = Checked::new(1, 8); // one bin: every view is one list of four
        for i in 0..4u64 {
            u.put(env(0, i as u32), i);
        }
        let exact = |tag| ReceivePattern::exact(Rank(0), Tag(tag));
        // The tail, reached past three others; then an interior entry.
        assert_eq!(u.match_post(&exact(3)).unwrap().depth, 4);
        assert_eq!(u.match_post(&exact(1)).unwrap().depth, 2);
        assert_eq!(u.store.waiting(), vec![MsgHandle(0), MsgHandle(2)]);
        // What left is invisible to every later operation and not counted.
        assert!(u.match_post(&exact(3)).is_none());
        assert_eq!(u.match_post(&exact(2)).unwrap().depth, 2);
        // The head, and with it the last entry: every list is empty again.
        assert_eq!(u.match_post(&exact(0)).unwrap().depth, 1);
        assert!(u.store.is_empty());
        assert!(u.store.ends.iter().all(|e| (e.head, e.tail) == (NIL, NIL)));
    }

    #[test]
    fn wildcard_churn_removes_from_the_interior_without_growing() {
        // Reverse-order wildcard consumption: every match but a round's last
        // hits the far end of the scanned list.
        let mut u = Checked::new(1, 32);
        for round in 0..300u64 {
            for i in 0..4u64 {
                u.put(env(0, i as u32), round * 4 + i);
            }
            for i in (0..4u64).rev() {
                let m = u
                    .match_post(&ReceivePattern::any_source(Tag(i as u32)))
                    .unwrap();
                assert_eq!(m.handle, MsgHandle(round * 4 + i));
                assert_eq!(m.depth as u64, i + 1, "only waiting messages count");
            }
        }
        assert!(u.store.is_empty());
        assert_eq!(u.peak, 4);
    }

    #[test]
    fn posts_into_an_emptied_store_find_nothing_and_disturb_nothing() {
        let mut u = Checked::new(2, 8);
        for i in 0..10_000u64 {
            u.put(env(0, (i % 4) as u32), i);
            let m = u.match_post(&ReceivePattern::any_tag(Rank(0))).unwrap();
            assert_eq!(m.handle, MsgHandle(i));
            for pattern in [
                ReceivePattern::exact(Rank(0), Tag((i % 4) as u32)),
                ReceivePattern::any_any(),
            ] {
                assert!(u.match_post(&pattern).is_none(), "the store is empty");
            }
        }
        assert_eq!(u.peak, 1);
        for i in 0..4u64 {
            u.put(env(0, 1), i);
        }
        for (i, pattern) in [
            ReceivePattern::exact(Rank(0), Tag(1)),
            ReceivePattern::any_source(Tag(1)),
            ReceivePattern::any_tag(Rank(0)),
            ReceivePattern::any_any(),
        ]
        .iter()
        .enumerate()
        {
            let m = u.match_post(pattern).unwrap();
            assert_eq!(m.handle, MsgHandle(i as u64), "oldest first for {pattern}");
        }
    }

    #[test]
    fn heavy_churn_stays_bounded() {
        let mut u = Checked::new(4, 32);
        for round in 0..200u64 {
            for i in 0..8u64 {
                u.put(env((i % 3) as u32, (i % 5) as u32), round * 8 + i);
            }
            for i in 0..8u64 {
                let p = ReceivePattern::exact(Rank((i % 3) as u32), Tag((i % 5) as u32));
                assert!(u.match_post(&p).is_some(), "round {round}, i {i}");
            }
        }
        assert!(u.store.is_empty());
        assert_eq!(u.peak, 8);
    }

    #[test]
    fn drain_empties_every_list_and_the_store_starts_over() {
        let mut u = Checked::new(2, 8);
        for i in 0..6u64 {
            u.put(env((i % 2) as u32, (i % 3) as u32), i);
        }
        u.match_post(&ReceivePattern::any_tag(Rank(1))).unwrap();
        let drained: Vec<MsgHandle> = u.store.drain().into_iter().map(|(_, h)| h).collect();
        assert_eq!(drained, [0, 2, 3, 4, 5].map(MsgHandle));
        u.check();
        assert_eq!((u.store.len(), u.store.available()), (0, 8));
        assert!(u.store.match_post(&ReceivePattern::any_any()).is_none());
        u.put(env(0, 0), 9);
        assert_eq!(u.store.waiting(), vec![MsgHandle(9)]);
    }
}
