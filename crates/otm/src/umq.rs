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
//! Entries live in a slab addressed by `(slot, generation)` references; a
//! matched entry frees its slot immediately and bumps the generation, so
//! stale references in the other three index structures are recognized and
//! dropped the next time their bin is scanned (with a global compaction once
//! stale references accumulate).

use mpi_matching::MsgHandle;
use otm_base::envelope::{SourceSel, TagSel};
use otm_base::hash::{bin_of, hash_src, hash_src_tag, hash_tag};
use otm_base::{ArrivalSeq, Envelope, MatchError, ReceivePattern, WildcardClass};
use std::collections::VecDeque;

/// Reference to a slab entry: slot index plus the generation it was
/// allocated under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EntryRef {
    slot: u32,
    gen: u32,
}

#[derive(Debug, Clone)]
struct UmqEntry {
    env: Envelope,
    handle: MsgHandle,
    arrival: ArrivalSeq,
    gen: u32,
    live: bool,
}

/// A found unexpected message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UmqMatch {
    /// The message's handle.
    pub handle: MsgHandle,
    /// Its arrival sequence number.
    pub arrival: ArrivalSeq,
    /// Live entries examined during the search.
    pub depth: usize,
}

/// The unexpected-message store for one communicator (see module docs).
#[derive(Debug)]
pub struct UnexpectedStore {
    bins: usize,
    capacity: usize,
    slab: Vec<UmqEntry>,
    free: Vec<u32>,
    by_src_tag: Box<[VecDeque<EntryRef>]>,
    by_tag: Box<[VecDeque<EntryRef>]>,
    by_src: Box<[VecDeque<EntryRef>]>,
    order: VecDeque<EntryRef>,
    live: usize,
    stale_refs: usize,
}

fn make_bins(bins: usize) -> Box<[VecDeque<EntryRef>]> {
    (0..bins).map(|_| VecDeque::new()).collect()
}

impl UnexpectedStore {
    /// Creates a store with `bins` bins per index and room for `capacity`
    /// simultaneously waiting messages.
    pub fn new(bins: usize, capacity: usize) -> Self {
        assert!(bins > 0, "UMQ index tables need at least one bin");
        UnexpectedStore {
            bins,
            capacity,
            slab: Vec::new(),
            free: Vec::new(),
            by_src_tag: make_bins(bins),
            by_tag: make_bins(bins),
            by_src: make_bins(bins),
            order: VecDeque::new(),
            live: 0,
            stale_refs: 0,
        }
    }

    /// Number of messages currently waiting.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no messages are waiting.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Remaining capacity (messages that can still be stored).
    pub fn available(&self) -> usize {
        self.capacity - self.live
    }

    /// Inserts an unexpected message into all four indexes.
    ///
    /// Fails with [`MatchError::UnexpectedStoreFull`] at capacity — the
    /// resource-exhaustion condition that forces fallback to software tag
    /// matching (§IV-E).
    pub fn insert(
        &mut self,
        env: Envelope,
        handle: MsgHandle,
        arrival: ArrivalSeq,
    ) -> Result<(), MatchError> {
        if self.live >= self.capacity {
            return Err(MatchError::UnexpectedStoreFull);
        }
        let slot = if let Some(slot) = self.free.pop() {
            let e = &mut self.slab[slot as usize];
            e.env = env;
            e.handle = handle;
            e.arrival = arrival;
            e.live = true;
            slot
        } else {
            let slot = self.slab.len() as u32;
            self.slab.push(UmqEntry {
                env,
                handle,
                arrival,
                gen: 0,
                live: true,
            });
            slot
        };
        let r = EntryRef {
            slot,
            gen: self.slab[slot as usize].gen,
        };
        self.by_src_tag[bin_of(hash_src_tag(env.src, env.tag, env.comm), self.bins)].push_back(r);
        self.by_tag[bin_of(hash_tag(env.tag, env.comm), self.bins)].push_back(r);
        self.by_src[bin_of(hash_src(env.src, env.comm), self.bins)].push_back(r);
        self.order.push_back(r);
        self.live += 1;
        Ok(())
    }

    /// Searches for the oldest waiting message matching a newly posted
    /// receive, consuming it on a hit. Only the index matching the
    /// pattern's wildcard class is searched (§IV-C).
    /// An empty store answers before hashing or touching a bin; tombstones
    /// that scan would have popped go with the next scan or compaction.
    pub fn match_post(&mut self, pattern: &ReceivePattern) -> Option<UmqMatch> {
        if self.live == 0 {
            return None;
        }
        let bin_idx = match pattern.wildcard_class() {
            WildcardClass::None => {
                let (SourceSel::Rank(src), TagSel::Tag(tag)) = (pattern.src, pattern.tag) else {
                    unreachable!("class None has concrete src and tag");
                };
                Some((
                    0usize,
                    bin_of(hash_src_tag(src, tag, pattern.comm), self.bins),
                ))
            }
            WildcardClass::SrcWild => {
                let TagSel::Tag(tag) = pattern.tag else {
                    unreachable!("class SrcWild has a concrete tag");
                };
                Some((1, bin_of(hash_tag(tag, pattern.comm), self.bins)))
            }
            WildcardClass::TagWild => {
                let SourceSel::Rank(src) = pattern.src else {
                    unreachable!("class TagWild has a concrete src");
                };
                Some((2, bin_of(hash_src(src, pattern.comm), self.bins)))
            }
            WildcardClass::BothWild => None,
        };
        let result = {
            let refs = match bin_idx {
                Some((0, b)) => &mut self.by_src_tag[b],
                Some((1, b)) => &mut self.by_tag[b],
                Some((2, b)) => &mut self.by_src[b],
                None => &mut self.order,
                _ => unreachable!(),
            };
            Self::scan(&mut self.slab, refs, pattern, &mut self.stale_refs)
        };
        if let Some((slot, m)) = result {
            self.live -= 1;
            // The generation bump at consumption already invalidated the
            // stale references in the other three views, so the slot is
            // immediately safe to reuse.
            self.reclaim(slot);
            if self.stale_refs > 4 * self.capacity.max(16) {
                self.compact();
            }
            return Some(m);
        }
        None
    }

    /// Scans one reference deque; consumes and returns the first live
    /// match. References are only ever *popped from the front* — an O(1)
    /// deque operation — never removed from the middle: a stale or consumed
    /// reference in the interior stays behind as a tombstone (recognized by
    /// its generation mismatch) until a later front pop or the global
    /// compaction sweeps it. The old `VecDeque::remove(i)` shifted the tail
    /// on every hit, turning heavy-wildcard churn quadratic.
    fn scan(
        slab: &mut [UmqEntry],
        refs: &mut VecDeque<EntryRef>,
        pattern: &ReceivePattern,
        stale_refs: &mut usize,
    ) -> Option<(u32, UmqMatch)> {
        let mut depth = 0usize;
        let mut i = 0usize;
        while i < refs.len() {
            let r = refs[i];
            let entry = &mut slab[r.slot as usize];
            if entry.gen != r.gen || !entry.live {
                if i == 0 {
                    refs.pop_front();
                    *stale_refs = stale_refs.saturating_sub(1);
                } else {
                    // Interior tombstone: skip it, leave it counted.
                    i += 1;
                }
                continue;
            }
            depth += 1;
            if pattern.matches(&entry.env) {
                entry.live = false;
                entry.gen = entry.gen.wrapping_add(1);
                let m = UmqMatch {
                    handle: entry.handle,
                    arrival: entry.arrival,
                    depth,
                };
                let slot = r.slot;
                if i == 0 {
                    refs.pop_front();
                    // The other three indexes now hold stale references.
                    *stale_refs += 3;
                } else {
                    // The consumed entry's reference becomes a tombstone
                    // here too (the generation bump above invalidated it),
                    // so all four views now hold one.
                    *stale_refs += 4;
                }
                return Some((slot, m));
            }
            i += 1;
        }
        None
    }

    /// Marks the freed slot reusable (called from the match path and the
    /// compaction sweep); stale references elsewhere are resolved by
    /// generation mismatch.
    fn reclaim(&mut self, slot: u32) {
        self.free.push(slot);
    }

    /// Drops every stale reference from every index and reclaims dead slots.
    fn compact(&mut self) {
        let slab = &mut self.slab;
        let mut dropped = 0usize;
        let mut purge = |refs: &mut VecDeque<EntryRef>| {
            let before = refs.len();
            refs.retain(|r| {
                let e = &slab[r.slot as usize];
                e.gen == r.gen && e.live
            });
            dropped += before - refs.len();
        };
        for group in [&mut self.by_src_tag, &mut self.by_tag, &mut self.by_src] {
            for refs in group.iter_mut() {
                purge(refs);
            }
        }
        purge(&mut self.order);
        self.stale_refs = 0;
        // Reclaim every dead slot not already on the free list.
        let free_set: std::collections::HashSet<u32> = self.free.iter().copied().collect();
        let dead: Vec<u32> = self
            .slab
            .iter()
            .enumerate()
            .filter(|(i, e)| !e.live && !free_set.contains(&(*i as u32)))
            .map(|(i, _)| i as u32)
            .collect();
        for slot in dead {
            self.reclaim(slot);
        }
        let _ = dropped;
    }

    /// Drains every waiting message in arrival order. Used by the software
    /// fallback to migrate state off the device.
    pub fn drain(&mut self) -> Vec<(Envelope, MsgHandle)> {
        let mut out = Vec::with_capacity(self.live);
        for r in std::mem::take(&mut self.order) {
            let e = &mut self.slab[r.slot as usize];
            if e.gen == r.gen && e.live {
                e.live = false;
                e.gen = e.gen.wrapping_add(1);
                out.push((e.env, e.handle));
            }
        }
        self.live = 0;
        self.compact();
        out
    }

    /// Non-destructive probe (`MPI_Iprobe` semantics): the oldest waiting
    /// message matching `pattern`, if any. Searches the arrival-order view
    /// read-only (no stale-reference purging).
    pub fn probe(&self, pattern: &ReceivePattern) -> Option<MsgHandle> {
        self.order.iter().find_map(|r| {
            let e = &self.slab[r.slot as usize];
            (e.gen == r.gen && e.live && pattern.matches(&e.env)).then_some(e.handle)
        })
    }

    /// Waiting messages in arrival order (diagnostics and tests).
    pub fn waiting(&self) -> Vec<MsgHandle> {
        self.order
            .iter()
            .filter(|r| {
                let e = &self.slab[r.slot as usize];
                e.gen == r.gen && e.live
            })
            .map(|r| self.slab[r.slot as usize].handle)
            .collect()
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
    fn insert_then_match_exact() {
        let mut u = UnexpectedStore::new(16, 8);
        u.insert(env(1, 2), MsgHandle(0), ArrivalSeq(0)).unwrap();
        let m = u
            .match_post(&ReceivePattern::exact(Rank(1), Tag(2)))
            .unwrap();
        assert_eq!(m.handle, MsgHandle(0));
        assert!(u.is_empty());
    }

    #[test]
    fn miss_leaves_store_untouched() {
        let mut u = UnexpectedStore::new(16, 8);
        u.insert(env(1, 2), MsgHandle(0), ArrivalSeq(0)).unwrap();
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
            u.insert(env(1, 2), MsgHandle(7), ArrivalSeq(3)).unwrap();
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
        u.insert(env(1, 2), MsgHandle(0), ArrivalSeq(0)).unwrap();
        u.insert(env(1, 2), MsgHandle(1), ArrivalSeq(1)).unwrap();
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
        u.insert(env(0, 0), MsgHandle(0), ArrivalSeq(0)).unwrap();
        u.insert(env(0, 1), MsgHandle(1), ArrivalSeq(1)).unwrap();
        assert_eq!(
            u.insert(env(0, 2), MsgHandle(2), ArrivalSeq(2)),
            Err(MatchError::UnexpectedStoreFull)
        );
        // Draining one makes room again.
        u.match_post(&ReceivePattern::exact(Rank(0), Tag(0)))
            .unwrap();
        u.insert(env(0, 2), MsgHandle(2), ArrivalSeq(2)).unwrap();
    }

    #[test]
    fn stale_references_are_skipped_in_other_indexes() {
        let mut u = UnexpectedStore::new(16, 8);
        u.insert(env(1, 2), MsgHandle(0), ArrivalSeq(0)).unwrap();
        u.insert(env(3, 2), MsgHandle(1), ArrivalSeq(1)).unwrap();
        // Consume message 0 via the exact index; the tag index still holds a
        // stale reference to it.
        u.match_post(&ReceivePattern::exact(Rank(1), Tag(2)))
            .unwrap();
        // The ANY_SOURCE search over the tag index must skip it and find 1.
        let m = u.match_post(&ReceivePattern::any_source(Tag(2))).unwrap();
        assert_eq!(m.handle, MsgHandle(1));
    }

    #[test]
    fn slot_reuse_does_not_resurrect_old_references() {
        let mut u = UnexpectedStore::new(1, 8); // one bin: maximal aliasing
        u.insert(env(1, 1), MsgHandle(0), ArrivalSeq(0)).unwrap();
        u.match_post(&ReceivePattern::exact(Rank(1), Tag(1)))
            .unwrap();
        // Force a compaction cycle to reclaim the slot, then reuse it.
        u.compact();
        u.insert(env(2, 2), MsgHandle(1), ArrivalSeq(1)).unwrap();
        // Searching for the OLD message must miss: the old references were
        // invalidated by the generation bump even though the slot is reused.
        assert!(u
            .match_post(&ReceivePattern::exact(Rank(1), Tag(1)))
            .is_none());
        let m = u
            .match_post(&ReceivePattern::exact(Rank(2), Tag(2)))
            .unwrap();
        assert_eq!(m.handle, MsgHandle(1));
    }

    #[test]
    fn depth_counts_live_entries_in_searched_index_only() {
        let mut u = UnexpectedStore::new(1, 16);
        for i in 0..5u64 {
            u.insert(env(0, i as u32), MsgHandle(i), ArrivalSeq(i))
                .unwrap();
        }
        let m = u
            .match_post(&ReceivePattern::exact(Rank(0), Tag(4)))
            .unwrap();
        assert_eq!(m.depth, 5);
    }

    #[test]
    fn waiting_lists_messages_in_arrival_order() {
        let mut u = UnexpectedStore::new(8, 8);
        u.insert(env(0, 0), MsgHandle(0), ArrivalSeq(0)).unwrap();
        u.insert(env(1, 1), MsgHandle(1), ArrivalSeq(1)).unwrap();
        u.insert(env(2, 2), MsgHandle(2), ArrivalSeq(2)).unwrap();
        u.match_post(&ReceivePattern::exact(Rank(1), Tag(1)))
            .unwrap();
        assert_eq!(u.waiting(), vec![MsgHandle(0), MsgHandle(2)]);
    }

    #[test]
    fn interior_matches_leave_tombstones_not_shifts() {
        let mut u = UnexpectedStore::new(1, 8); // one bin: all refs share a deque
        for i in 0..4u64 {
            u.insert(env(0, i as u32), MsgHandle(i), ArrivalSeq(i))
                .unwrap();
        }
        // Consume the *last* message: its reference sits in the interior of
        // the scanned deque, so it must stay behind as a tombstone instead
        // of shifting the tail (the old quadratic `VecDeque::remove`).
        assert_eq!(u.by_src_tag[0].len(), 4);
        u.match_post(&ReceivePattern::exact(Rank(0), Tag(3)))
            .unwrap();
        assert_eq!(
            u.by_src_tag[0].len(),
            4,
            "interior consumption must not shift the deque"
        );
        assert_eq!(u.stale_refs, 4, "all four views hold a tombstone");
        // The tombstone is invisible to every later operation.
        assert_eq!(u.waiting(), vec![MsgHandle(0), MsgHandle(1), MsgHandle(2)]);
        assert!(u
            .match_post(&ReceivePattern::exact(Rank(0), Tag(3)))
            .is_none());
        // Front consumption still pops eagerly (O(1)).
        u.match_post(&ReceivePattern::exact(Rank(0), Tag(0)))
            .unwrap();
        assert_eq!(u.by_src_tag[0].len(), 3);
    }

    #[test]
    fn wildcard_churn_keeps_reference_deques_bounded() {
        // Reverse-order wildcard consumption: every match hits the interior
        // of the scanned deque, the worst case for tombstone accumulation.
        // Compaction (triggered by the stale-reference counter) must keep
        // every view bounded while matching stays correct.
        let mut u = UnexpectedStore::new(1, 32);
        for round in 0..300u64 {
            for i in 0..4u64 {
                u.insert(
                    env(0, i as u32),
                    MsgHandle(round * 4 + i),
                    ArrivalSeq(round * 4 + i),
                )
                .unwrap();
            }
            for i in (0..4u64).rev() {
                let m = u
                    .match_post(&ReceivePattern::any_source(Tag(i as u32)))
                    .unwrap();
                assert_eq!(m.handle, MsgHandle(round * 4 + i));
            }
        }
        assert!(u.is_empty());
        let bound = 4 * 32 + 32; // compaction threshold plus live slack
        assert!(u.order.len() <= bound, "order grew to {}", u.order.len());
        assert!(
            u.by_tag[0].len() <= bound,
            "by_tag grew to {}",
            u.by_tag[0].len()
        );
    }

    #[test]
    fn tombstones_behind_skipped_empty_store_scans_are_still_swept() {
        // Each round leaves three stale references behind its one match, and
        // the posts that find the store empty no longer pop any of them.
        let mut u = UnexpectedStore::new(2, 8);
        let bound = 4 * 16 + 4; // compaction threshold plus one match
        for i in 0..10_000u64 {
            u.insert(env(0, (i % 4) as u32), MsgHandle(i), ArrivalSeq(i))
                .unwrap();
            let m = u.match_post(&ReceivePattern::any_tag(Rank(0))).unwrap();
            assert_eq!(m.handle, MsgHandle(i));
            for pattern in [
                ReceivePattern::exact(Rank(0), Tag((i % 4) as u32)),
                ReceivePattern::any_any(),
            ] {
                assert!(u.match_post(&pattern).is_none(), "the store is empty");
            }
            assert!(u.stale_refs <= bound, "{} stale at {i}", u.stale_refs);
            assert!(u.order.len() <= bound, "order grew to {}", u.order.len());
        }
        assert!(u.slab.len() <= 8, "slab grew to {}", u.slab.len());
        for i in 0..4u64 {
            u.insert(env(0, 1), MsgHandle(i), ArrivalSeq(i)).unwrap();
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
        let mut u = UnexpectedStore::new(4, 32);
        for round in 0..200u64 {
            for i in 0..8u64 {
                u.insert(
                    env((i % 3) as u32, (i % 5) as u32),
                    MsgHandle(round * 8 + i),
                    ArrivalSeq(round * 8 + i),
                )
                .unwrap();
            }
            for i in 0..8u64 {
                let p = ReceivePattern::exact(Rank((i % 3) as u32), Tag((i % 5) as u32));
                assert!(u.match_post(&p).is_some(), "round {round}, i {i}");
            }
        }
        assert!(u.is_empty());
        assert!(u.slab.len() <= 64, "slab grew to {}", u.slab.len());
    }
}
