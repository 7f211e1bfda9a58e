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
//! A waiting message is one slab entry carrying its links on four lists of
//! [`list`](crate::list): its `(src, tag)`, `tag` and `src` bins, taken from
//! the hashes the sender inlined (§IV-D), and the arrival-order list the
//! both-wildcard receives search. Every list is in arrival order, so the
//! first match on the one a receive's class selects is the oldest (C2). A
//! hit leaves all four lists in O(1) and its slot is free at once: no list
//! holds a dead slot, so nothing is swept and [`UmqMatch::depth`] — the
//! entries a search examined, the hit included — counts waiting messages.

use crate::list::{IndexHome, Link, Lists, Slab};
use mpi_matching::MsgHandle;
use otm_base::config::MAX_SLOTS;
use otm_base::{ArrivalSeq, Envelope, InlineHashes, MatchError, ReceivePattern, WildcardClass};

#[derive(Debug, Clone, Copy)]
struct UmqEntry {
    env: Envelope,
    handle: MsgHandle,
    arrival: ArrivalSeq,
    /// The position of the list the entry is on in each view, in class
    /// order (the view gives the class, so an entry stays 80 bytes).
    lists: [u32; 4],
    /// Its neighbours there.
    links: [Link; 4],
}

impl Slab for Vec<UmqEntry> {
    fn link(&self, slot: u32, view: usize) -> &Link {
        &self[slot as usize].links[view]
    }

    fn link_mut(&mut self, slot: u32, view: usize) -> &mut Link {
        &mut self[slot as usize].links[view]
    }
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
    capacity: usize,
    /// Waiting messages and freed slots; a slot is one or the other.
    slab: Vec<UmqEntry>,
    free: Vec<u32>,
    lists: Lists,
}

impl UnexpectedStore {
    /// Creates a store with `bins` bins per index and room for `capacity`
    /// simultaneously waiting messages.
    pub fn new(bins: usize, capacity: usize) -> Self {
        assert!(capacity <= MAX_SLOTS, "capacity must be <= {MAX_SLOTS}");
        UnexpectedStore {
            capacity,
            slab: Vec::new(),
            free: Vec::new(),
            lists: Lists::new(bins),
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
        let homes = self.lists.of_message(hashes);
        let entry = UmqEntry {
            env,
            handle,
            arrival,
            lists: homes.map(|h| h.list),
            links: [Link::default(); 4],
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
        for home in homes {
            self.lists.push_back(&mut self.slab, home, slot);
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
        let home = self.lists.of_pattern(pattern);
        let mut depth = 0usize;
        for slot in self.lists.iter(&self.slab, home) {
            depth += 1;
            if pattern.matches(&self.slab[slot as usize].env) {
                return Some((slot, depth));
            }
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
            ..
        } = self.slab[slot as usize];
        for (class, list) in WildcardClass::ALL.into_iter().zip(lists) {
            self.lists
                .unlink(&mut self.slab, IndexHome { class, list }, slot);
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
        // The arrival-order list is the one list of the both-wildcard view.
        let (slab, order) = (&self.slab, self.lists.home(WildcardClass::BothWild, 0));
        self.lists
            .iter(slab, order)
            .map(|slot| &slab[slot as usize])
    }

    /// Drains every waiting message in arrival order. Used by the software
    /// fallback to migrate state off the device.
    pub fn drain(&mut self) -> Vec<(Envelope, MsgHandle)> {
        let out = self.in_order().map(|e| (e.env, e.handle)).collect();
        self.reset();
        out
    }

    /// Empties the store in place: the slab, its free list and every list,
    /// keeping what they allocated. The next message takes slot 0, as in a
    /// new store.
    pub fn reset(&mut self) {
        self.slab.clear();
        self.free.clear();
        self.lists.clear();
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
    /// [`Lists::check_links`] over the slab: panics unless every waiting
    /// message is reached exactly once in each view, on the list it names
    /// there, and no freed slot is reached at all.
    fn check_links(&self) {
        let mut freed = vec![false; self.slab.len()];
        for &slot in &self.free {
            let twice = std::mem::replace(&mut freed[slot as usize], true);
            assert!(!twice, "slot {slot} is on the free list twice");
        }
        let home = |slot: u32, view: usize| {
            let (class, list) = (
                WildcardClass::ALL[view],
                self.slab[slot as usize].lists[view],
            );
            (!freed[slot as usize]).then_some(IndexHome { class, list })
        };
        let reached = self.lists.check_links(&self.slab, home);
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
