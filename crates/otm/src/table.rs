//! The fixed-size receive descriptor table (§III-B).
//!
//! "Receive descriptors are stored in a fixed-size table, where the size of
//! the table determines the maximum number of receives that can be posted at
//! the same time." Each slot holds the matching payload (pattern, post
//! label, sequence id, user handle, home index location) plus the atomics
//! the parallel protocol operates on: the lifecycle state, the *booking
//! bitmap* (one bit per block thread, §III-C) and the epoch of the block
//! that consumed the receive (needed to keep fast-path rank walks stable
//! while tombstones from older blocks are skipped).
//!
//! The table has no lock: it lives inside its communicator's
//! `ShardHost`, which the engine owns outright.
//! Posting and block-end cleanup allocate and release slots
//! through `&mut`; block lanes get `&` and only ever read payloads and update
//! the three atomics, which are the protocol's own shared state (§III-C) and
//! what a multi-core block executor would share. They are also the only
//! read-modify-writes a lane issues — one booking `fetch_or`, one consume
//! CAS — since what a lane counts goes into the block's plain-integer tally.
//! A slot's `Link` on its index list is a plain field, written through
//! `&mut` by posting and block-end cleanup and read by lanes through `&`.

use crate::list::{IndexHome, Link, Slab};
use otm_base::{MatchError, PostLabel, ReceivePattern, SeqId, WildcardClass};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Index of a descriptor slot within the table.
pub(crate) type DescId = u32;

/// Lifecycle states of a descriptor slot.
pub mod state {
    /// Slot is unused and on the free list.
    pub(crate) const FREE: u8 = 0;
    /// Slot holds a posted, not-yet-matched receive.
    pub const POSTED: u8 = 1;
    /// Slot's receive has been matched; the slot is a tombstone until the
    /// coordinator unlinks and frees it.
    pub const CONSUMED: u8 = 2;
}

/// The matching payload of a posted receive.
///
/// Written when the slot is allocated (through `&mut`) and read by block
/// lanes during searches; lanes never write it.
#[derive(Debug, Clone, Copy)]
pub struct Payload {
    /// What this receive matches.
    pub pattern: ReceivePattern,
    /// Posting-order label arbitrating C1 across indexes (§III-C).
    pub label: PostLabel,
    /// Sequence id of the run of compatible receives this one belongs to
    /// (§III-D3a).
    pub seq: SeqId,
    /// Caller's receive handle, returned on a match.
    pub handle: u64,
    /// The index list the receive is on.
    pub home: IndexHome,
}

/// One slot of the descriptor table.
#[derive(Debug)]
pub struct Slot {
    payload: Payload,
    /// Neighbours on the list `payload.home`.
    link: Link,
    state: AtomicU8,
    /// Booking bitmap: bit *i* set means block thread *i* optimistically
    /// booked this receive (§III-C). Cleared by the coordinator at block end
    /// so bitmaps stay monotone *within* a block — the fast-path rank
    /// computation depends on that.
    booking: AtomicU64,
    /// Block number during which the receive was consumed. Fast-path rank
    /// walks count entries consumed in the *current* block (they are being
    /// taken by lower-ranked threads) but skip older tombstones.
    consumed_epoch: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Slot {
            payload: Payload {
                pattern: ReceivePattern::any_any(),
                label: PostLabel::ZERO,
                seq: SeqId::ZERO,
                handle: 0,
                home: IndexHome {
                    class: WildcardClass::BothWild,
                    list: 0,
                },
            },
            link: Link::default(),
            state: AtomicU8::new(state::FREE),
            booking: AtomicU64::new(0),
            consumed_epoch: AtomicU64::new(0),
        }
    }

    /// The payload written when the slot was allocated.
    #[inline]
    pub(crate) fn payload(&self) -> Payload {
        self.payload
    }

    /// Current lifecycle state.
    #[inline]
    pub fn state(&self) -> u8 {
        self.state.load(Ordering::Acquire)
    }

    /// Whether the slot currently holds a live (posted) receive.
    #[inline]
    pub(crate) fn is_posted(&self) -> bool {
        self.state() == state::POSTED
    }

    /// Books this receive for block thread `lane`, returning the bitmap
    /// value *before* the booking.
    #[inline]
    pub(crate) fn book(&self, lane: usize) -> u64 {
        self.booking.fetch_or(1u64 << lane, Ordering::AcqRel)
    }

    /// Loads the booking bitmap.
    #[inline]
    pub(crate) fn booking(&self) -> u64 {
        self.booking.load(Ordering::Acquire)
    }

    /// Clears the booking bitmap (block-end cleanup).
    #[inline]
    pub(crate) fn clear_booking(&self) {
        self.booking.store(0, Ordering::Release);
    }

    /// Attempts to consume the receive: `POSTED → CONSUMED`, stamping the
    /// consuming block's epoch. Returns `true` on success; `false` means
    /// another thread consumed it first.
    #[inline]
    pub fn try_consume(&self, epoch: u64) -> bool {
        // Stamp the epoch before publishing CONSUMED so any thread that
        // observes the state also observes a correct epoch.
        self.consumed_epoch.store(epoch, Ordering::Release);
        self.state
            .compare_exchange(
                state::POSTED,
                state::CONSUMED,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// The epoch stamped by [`Slot::try_consume`]. Meaningful only while the
    /// state is `CONSUMED`.
    #[inline]
    pub(crate) fn consumed_epoch(&self) -> u64 {
        self.consumed_epoch.load(Ordering::Acquire)
    }
}

/// The fixed-size descriptor table plus its free list.
///
/// Slots at and past `watermark` have never been allocated; below it, a slot
/// is live or on `free`. Allocation takes a released slot first, the most
/// recently released, and only then the watermark's: the order a free list
/// pre-filled with every id would give, without writing one.
#[derive(Debug)]
pub struct ReceiveTable {
    slots: Box<[Slot]>,
    /// Released slot ids, popped by [`ReceiveTable::allocate`] and pushed by
    /// [`ReceiveTable::release`].
    free: Vec<DescId>,
    /// The first slot never allocated.
    watermark: DescId,
}

impl ReceiveTable {
    /// Creates a table with `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        let slots: Vec<Slot> = (0..capacity).map(|_| Slot::new()).collect();
        ReceiveTable {
            slots: slots.into_boxed_slice(),
            free: Vec::new(),
            watermark: 0,
        }
    }

    /// Frees every slot ever allocated and lowers the watermark to 0: the
    /// table reads as new, and the next allocations take the ids a new table
    /// would. Touches only the slots below the watermark.
    pub(crate) fn reset(&mut self) {
        for slot in &mut self.slots[..self.watermark as usize] {
            *slot.state.get_mut() = state::FREE;
            *slot.booking.get_mut() = 0;
        }
        self.free.clear();
        self.watermark = 0;
    }

    /// Number of slots currently allocated (posted or tombstoned).
    pub fn allocated(&self) -> usize {
        self.watermark as usize - self.free.len()
    }

    /// Accesses a slot by id.
    #[inline]
    pub fn slot(&self, id: DescId) -> &Slot {
        &self.slots[id as usize]
    }

    /// Allocates a slot, writes its payload, and publishes it as `POSTED`.
    ///
    /// Returns [`MatchError::ReceiveTableFull`] when the table is exhausted —
    /// the condition under which the MPI implementation must fall back to
    /// software tag matching (§III-B).
    pub fn allocate(&mut self, payload: Payload) -> Result<DescId, MatchError> {
        let id = match self.free.pop() {
            Some(id) => id,
            None if (self.watermark as usize) < self.slots.len() => {
                self.watermark += 1;
                self.watermark - 1
            }
            None => return Err(MatchError::ReceiveTableFull),
        };
        let slot = &mut self.slots[id as usize];
        debug_assert_eq!(slot.state(), state::FREE);
        slot.payload = payload;
        slot.booking.store(0, Ordering::Relaxed);
        slot.state.store(state::POSTED, Ordering::Release);
        Ok(id)
    }

    /// Every posted receive's payload, in no particular order (walks every
    /// slot ever allocated). The software fallback migrates them off the
    /// device.
    pub fn posted(&self) -> impl Iterator<Item = Payload> + '_ {
        self.slots[..self.watermark as usize]
            .iter()
            .filter(|s| s.is_posted())
            .map(Slot::payload)
    }

    /// Releases a consumed slot back to the free list.
    ///
    /// Must only be called after the slot has been unlinked from its index
    /// list.
    pub fn release(&mut self, id: DescId) {
        let slot = &self.slots[id as usize];
        debug_assert_eq!(slot.state(), state::CONSUMED);
        slot.state.store(state::FREE, Ordering::Release);
        slot.booking.store(0, Ordering::Relaxed);
        self.free.push(id);
    }
}

/// A posted receive is on one list, so one link serves every view.
impl Slab for ReceiveTable {
    fn link(&self, slot: u32, _view: usize) -> &Link {
        &self.slots[slot as usize].link
    }

    fn link_mut(&mut self, slot: u32, _view: usize) -> &mut Link {
        &mut self.slots[slot as usize].link
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otm_base::{Rank, Tag};

    fn payload(tag: u32) -> Payload {
        Payload {
            pattern: ReceivePattern::exact(Rank(0), Tag(tag)),
            label: PostLabel(u64::from(tag)),
            seq: SeqId(0),
            handle: u64::from(tag),
            home: IndexHome {
                class: WildcardClass::None,
                list: 3,
            },
        }
    }

    #[test]
    fn allocate_publishes_posted_payload() {
        let mut t = ReceiveTable::new(4);
        let id = t.allocate(payload(9)).unwrap();
        let slot = t.slot(id);
        assert!(slot.is_posted());
        assert_eq!(slot.payload().handle, 9);
        assert_eq!(slot.payload().home.list, 3);
        assert_eq!(t.allocated(), 1);
    }

    #[test]
    fn table_capacity_is_enforced() {
        let mut t = ReceiveTable::new(2);
        t.allocate(payload(0)).unwrap();
        t.allocate(payload(1)).unwrap();
        assert_eq!(t.allocate(payload(2)), Err(MatchError::ReceiveTableFull));
    }

    #[test]
    fn release_recycles_slots() {
        let mut t = ReceiveTable::new(1);
        let id = t.allocate(payload(0)).unwrap();
        assert!(t.slot(id).try_consume(5));
        t.release(id);
        assert_eq!(t.allocated(), 0);
        let id2 = t.allocate(payload(1)).unwrap();
        assert_eq!(id, id2, "single slot must be reused");
        assert_eq!(t.slot(id2).payload().handle, 1);
        assert_eq!(t.slot(id2).booking(), 0, "booking cleared on reuse");
    }

    #[test]
    fn released_slots_go_first_then_the_watermark() {
        let mut t = ReceiveTable::new(4);
        let ids: Vec<_> = (0..3).map(|i| t.allocate(payload(i)).unwrap()).collect();
        assert_eq!(ids, [0, 1, 2]);
        for id in [0, 2] {
            t.slot(id).try_consume(1);
            t.release(id);
        }
        // The most recently released first, as a free list pre-filled with
        // every id in reverse would pop them.
        let next: Vec<_> = (0..3).map(|i| t.allocate(payload(i)).unwrap()).collect();
        assert_eq!(next, [2, 0, 3]);
        assert_eq!(t.allocate(payload(9)), Err(MatchError::ReceiveTableFull));
    }

    #[test]
    fn reset_frees_every_slot_and_allocates_from_zero_again() {
        let mut t = ReceiveTable::new(4);
        for i in 0..3 {
            t.allocate(payload(i)).unwrap();
        }
        t.slot(1).book(2);
        t.slot(2).try_consume(7);
        t.reset();
        assert_eq!((t.allocated(), t.posted().count()), (0, 0));
        for id in 0..4 {
            assert_eq!((t.slot(id).state(), t.slot(id).booking()), (state::FREE, 0));
        }
        let again: Vec<_> = (0..4).map(|i| t.allocate(payload(i)).unwrap()).collect();
        assert_eq!(again, [0, 1, 2, 3]);
    }

    #[test]
    fn consume_is_single_winner() {
        let mut t = ReceiveTable::new(1);
        let id = t.allocate(payload(0)).unwrap();
        assert!(t.slot(id).try_consume(7));
        assert!(!t.slot(id).try_consume(8), "second consume must fail");
        assert_eq!(t.slot(id).state(), state::CONSUMED);
    }

    #[test]
    fn consumed_epoch_is_stamped() {
        let mut t = ReceiveTable::new(1);
        let id = t.allocate(payload(0)).unwrap();
        t.slot(id).try_consume(42);
        assert_eq!(t.slot(id).consumed_epoch(), 42);
    }

    #[test]
    fn booking_sets_lane_bits_and_reports_prior() {
        let mut t = ReceiveTable::new(1);
        let id = t.allocate(payload(0)).unwrap();
        let slot = t.slot(id);
        assert_eq!(slot.book(3), 0, "first booking sees empty bitmap");
        assert_eq!(slot.book(0), 1 << 3, "second booking sees the first");
        assert_eq!(slot.booking(), (1 << 3) | 1);
        slot.clear_booking();
        assert_eq!(slot.booking(), 0);
    }

    #[test]
    fn concurrent_bookings_all_land() {
        let mut t = ReceiveTable::new(1);
        let id = t.allocate(payload(0)).unwrap();
        let slot = t.slot(id);
        std::thread::scope(|s| {
            for lane in 0..32usize {
                s.spawn(move || {
                    slot.book(lane);
                });
            }
        });
        assert_eq!(slot.booking(), (1u64 << 32) - 1);
    }

    #[test]
    fn concurrent_consume_has_exactly_one_winner() {
        use std::sync::atomic::AtomicUsize;
        let mut t = ReceiveTable::new(1);
        let id = t.allocate(payload(0)).unwrap();
        let slot = t.slot(id);
        let wins = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..16 {
                s.spawn(|| {
                    if slot.try_consume(1) {
                        wins.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::SeqCst), 1);
    }
}
