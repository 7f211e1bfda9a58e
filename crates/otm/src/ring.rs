//! Bounded per-communicator submission rings (§IV-E command queues).
//!
//! One [`CommandRing`] hangs off every `CommShard`: host threads submitting
//! commands for that communicator push onto its ring without touching any
//! other communicator's state, and the drain coordinator pops from the
//! consumer end. The layout is Vyukov's bounded ring of per-slot sequence
//! stamps, used multi-producer **single**-consumer: each slot carries an
//! atomic *stamp* that encodes which lap of the ring last wrote or read it, so
//! producers and the consumer coordinate through slot-local loads instead of
//! one shared lock. There is one consumer at a time because every
//! [`CommandRing::pop`] runs either under the engine's coordinator lock
//! (`OtmEngine::drain`, held from entry to exit) or on an engine being
//! consumed (`OtmEngine::drain_for_fallback(self)`).
//!
//! Because the crate forbids `unsafe`, the value cell of each slot is a
//! `std::sync::Mutex<Option<_>>` rather than an `UnsafeCell`. The mutex is
//! *never contended*: the stamp protocol guarantees at most one thread owns a
//! slot's cell at any time, so every lock acquisition is the uncontended
//! fast path (one CAS on the lock word). All cross-thread coordination —
//! including full/empty detection — still happens on the stamps and on the
//! head/tail counters, which is what makes submission wait-free in practice:
//! a producer claims a slot with a single `fetch`-style CAS on `tail` and
//! never waits for other producers to finish publishing. The command's
//! ticket sits beside the stamp in an atomic of its own, so the drain's merge
//! reads a ring's head ticket with two loads and no lock.
//!
//! A full ring is a *backpressure signal*, not a blocking condition:
//! [`CommandRing::push`] hands the command back so the caller can surface
//! `MatchError::SubmissionRingFull` and retry after a drain frees slots.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use otm_base::sync::lock;

use crate::command::Command;

/// Pads the wrapped value to a 64-byte cache line so the hot atomics
/// (per-slot stamps, head, tail) don't false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
struct CachePadded<T>(T);

/// One ring slot: the stamp encodes the slot's lap state; the ticket and the
/// cell hold the ticketed command while the slot is occupied.
///
/// Stamp protocol for the slot at index `i = pos & mask`:
/// - `stamp == pos`      → empty, writable by the producer that claims `pos`
/// - `stamp == pos + 1`  → full, readable by the consumer at `pos`
/// - anything else       → the slot belongs to a different lap (ring full
///   from the producer's view, empty from the consumer's)
///
/// The producer writes `ticket` (relaxed) and the cell before its `Release`
/// store of the stamp; whoever then reads `stamp == pos + 1` with `Acquire`
/// sees both.
#[derive(Debug)]
struct Slot {
    stamp: AtomicUsize,
    ticket: AtomicU64,
    cell: Mutex<Option<Command>>,
}

/// A bounded multi-producer single-consumer ring of ticketed commands.
///
/// Tickets are the global submission sequence numbers assigned by the
/// `CommandQueue` facade; the drain merges ring heads by ticket to recover
/// the global submission order when it needs it (consecutive packing).
#[derive(Debug)]
pub struct CommandRing {
    slots: Box<[CachePadded<Slot>]>,
    mask: usize,
    /// Next position a producer will claim.
    tail: CachePadded<AtomicUsize>,
    /// Next position the consumer will read.
    head: CachePadded<AtomicUsize>,
}

impl CommandRing {
    /// A ring with at least `capacity` slots (rounded up to a power of two,
    /// minimum 2 so head/tail arithmetic stays trivially correct).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let slots = (0..cap)
            .map(|i| {
                CachePadded(Slot {
                    stamp: AtomicUsize::new(i),
                    ticket: AtomicU64::new(0),
                    cell: Mutex::new(None),
                })
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        CommandRing {
            slots,
            mask: cap - 1,
            tail: CachePadded(AtomicUsize::new(0)),
            head: CachePadded(AtomicUsize::new(0)),
        }
    }

    /// Number of slots (the rounded-up capacity).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Pushes a ticketed command; on a full ring the command is handed back
    /// so the caller can surface retryable backpressure instead of blocking.
    pub fn push(&self, ticket: u64, cmd: Command) -> Result<(), (u64, Command)> {
        let mut pos = self.tail.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask].0;
            let stamp = slot.stamp.load(Ordering::Acquire);
            let diff = stamp as isize - pos as isize;
            if diff == 0 {
                // The slot is writable at `pos`; claim it by advancing tail.
                match self.tail.0.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // We own the slot exclusively until the stamp below
                        // publishes it, so this lock never contends.
                        slot.ticket.store(ticket, Ordering::Relaxed);
                        *lock(&slot.cell) = Some(cmd);
                        slot.stamp.store(pos.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(now) => pos = now,
                }
            } else if diff < 0 {
                // The consumer hasn't freed this slot from the previous lap:
                // the ring is full. Hand the command back as backpressure.
                return Err((ticket, cmd));
            } else {
                // Another producer claimed `pos` already; chase the tail.
                pos = self.tail.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Pops the oldest published command, or `None` if the ring is empty.
    ///
    /// A slot that a producer has claimed but not yet published reads as
    /// empty — the command logically belongs to the *next* drain, like any
    /// submit that races past the drain's last queue inspection.
    pub fn pop(&self) -> Option<(u64, Command)> {
        let mut pos = self.head.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask].0;
            let stamp = slot.stamp.load(Ordering::Acquire);
            let diff = stamp as isize - pos.wrapping_add(1) as isize;
            if diff == 0 {
                match self.head.0.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let ticket = slot.ticket.load(Ordering::Relaxed);
                        let cmd = lock(&slot.cell).take();
                        slot.stamp
                            .store(pos.wrapping_add(self.slots.len()), Ordering::Release);
                        debug_assert!(cmd.is_some(), "stamped slot must hold a value");
                        return cmd.map(|cmd| (ticket, cmd));
                    }
                    Err(now) => pos = now,
                }
            } else if diff < 0 {
                // Slot not yet published: the ring is (transiently) empty.
                return None;
            } else {
                pos = self.head.0.load(Ordering::Relaxed);
            }
        }
    }

    /// The ticket at the ring's head without consuming it, or `None` when
    /// the ring has no published head. The drain's k-way merge uses this to
    /// pick the lane with the globally oldest command. Consumer-side only:
    /// with the single consumer the head cannot move between the stamp check
    /// and the ticket load, and a producer cannot reuse the slot before the
    /// head passes it.
    pub fn peek_ticket(&self) -> Option<u64> {
        let pos = self.head.0.load(Ordering::Relaxed);
        let slot = &self.slots[pos & self.mask].0;
        (slot.stamp.load(Ordering::Acquire) == pos.wrapping_add(1))
            .then(|| slot.ticket.load(Ordering::Relaxed))
    }

    /// Number of commands currently in the ring (racy under concurrent
    /// producers — a monitoring snapshot, not a synchronization primitive).
    pub fn len(&self) -> usize {
        let tail = self.tail.0.load(Ordering::Relaxed);
        let head = self.head.0.load(Ordering::Relaxed);
        tail.wrapping_sub(head)
    }

    /// Whether the ring currently holds no commands (same caveat as
    /// [`CommandRing::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_matching::MsgHandle;
    use otm_base::{CommId, Envelope, Rank, Tag};

    fn arrival(seq: u64) -> Command {
        Command::Arrival {
            env: Envelope::new(Rank(0), Tag(7), CommId(1)),
            msg: MsgHandle(seq),
        }
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(CommandRing::new(0).capacity(), 2);
        assert_eq!(CommandRing::new(1).capacity(), 2);
        assert_eq!(CommandRing::new(3).capacity(), 4);
        assert_eq!(CommandRing::new(1024).capacity(), 1024);
        assert_eq!(CommandRing::new(1025).capacity(), 2048);
    }

    #[test]
    fn push_pop_preserves_fifo_order() {
        let ring = CommandRing::new(8);
        for i in 0..5 {
            ring.push(i, arrival(i)).unwrap();
        }
        assert_eq!(ring.len(), 5);
        for i in 0..5u64 {
            let (ticket, cmd) = ring.pop().expect("value present");
            assert_eq!(ticket, i);
            assert!(matches!(cmd, Command::Arrival { msg, .. } if msg.0 == i));
        }
        assert!(ring.pop().is_none());
        assert!(ring.is_empty());
    }

    #[test]
    fn full_ring_hands_the_command_back() {
        let ring = CommandRing::new(2);
        ring.push(0, arrival(0)).unwrap();
        ring.push(1, arrival(1)).unwrap();
        let (ticket, cmd) = ring.push(2, arrival(2)).unwrap_err();
        assert_eq!(ticket, 2);
        assert!(matches!(cmd, Command::Arrival { msg, .. } if msg.0 == 2));
        // Freeing one slot makes the retry succeed.
        assert_eq!(ring.pop().unwrap().0, 0);
        ring.push(2, cmd).unwrap();
        assert_eq!(ring.len(), 2);
    }

    #[test]
    fn peek_ticket_tracks_the_head_without_consuming() {
        let ring = CommandRing::new(4);
        assert_eq!(ring.peek_ticket(), None);
        ring.push(10, arrival(0)).unwrap();
        ring.push(11, arrival(1)).unwrap();
        assert_eq!(ring.peek_ticket(), Some(10));
        assert_eq!(ring.peek_ticket(), Some(10), "peek does not consume");
        ring.pop().unwrap();
        assert_eq!(ring.peek_ticket(), Some(11));
        ring.pop().unwrap();
        assert_eq!(ring.peek_ticket(), None);
    }

    #[test]
    fn ring_survives_many_wraparound_laps() {
        let ring = CommandRing::new(4);
        for lap in 0..100u64 {
            for i in 0..4 {
                ring.push(lap * 4 + i, arrival(lap * 4 + i)).unwrap();
            }
            assert!(ring.push(u64::MAX, arrival(0)).is_err(), "ring is full");
            for i in 0..4 {
                assert_eq!(ring.pop().unwrap().0, lap * 4 + i);
            }
            assert!(ring.is_empty());
        }
    }

    #[test]
    fn popping_to_empty_yields_every_command_in_order() {
        let ring = CommandRing::new(8);
        for i in 0..6 {
            ring.push(i, arrival(i)).unwrap();
        }
        let tickets: Vec<u64> = std::iter::from_fn(|| ring.pop()).map(|(t, _)| t).collect();
        assert_eq!(tickets, vec![0, 1, 2, 3, 4, 5]);
        assert!(ring.is_empty());
    }

    #[test]
    fn padded_slot_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<CachePadded<Slot>>(), 64);
    }

    #[test]
    fn concurrent_producers_deliver_every_command_exactly_once() {
        use std::sync::Arc;
        let ring = Arc::new(CommandRing::new(1024));
        let producers = 4;
        let per_producer = 200u64;
        let handles: Vec<_> = (0..producers)
            .map(|p| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..per_producer {
                        let ticket = p as u64 * per_producer + i;
                        let mut entry = (ticket, arrival(ticket));
                        loop {
                            match ring.push(entry.0, entry.1) {
                                Ok(()) => break,
                                Err(back) => {
                                    entry = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut tickets: Vec<u64> = std::iter::from_fn(|| ring.pop()).map(|(t, _)| t).collect();
        tickets.sort_unstable();
        assert_eq!(
            tickets,
            (0..producers as u64 * per_producer).collect::<Vec<_>>()
        );
    }

    #[test]
    fn peeked_ticket_is_the_ticket_pop_yields_under_concurrent_producers() {
        use std::sync::{Arc, Barrier};
        // A tiny ring, so slots are reused lap after lap while the consumer
        // peeks: a ticket read from the wrong lap would differ from the
        // ticket the pop returns, or from the command it travelled with.
        let ring = Arc::new(CommandRing::new(4));
        let (producers, per_producer) = (3u64, 2_000u64);
        let start = Arc::new(Barrier::new(producers as usize + 1));
        let handles: Vec<_> = (0..producers)
            .map(|p| {
                let (ring, start) = (Arc::clone(&ring), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    for i in 0..per_producer {
                        let ticket = p * per_producer + i;
                        while ring.push(ticket, arrival(ticket)).is_err() {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        start.wait();
        let mut last = vec![None; producers as usize];
        let mut popped = 0;
        while popped < producers * per_producer {
            let Some(peeked) = ring.peek_ticket() else {
                std::thread::yield_now();
                continue;
            };
            assert_eq!(ring.peek_ticket(), Some(peeked), "the head is stable");
            let (ticket, cmd) = ring.pop().expect("a peeked head is poppable");
            assert_eq!(ticket, peeked);
            assert!(matches!(cmd, Command::Arrival { msg, .. } if msg.0 == ticket));
            let producer = (ticket / per_producer) as usize;
            assert!(last[producer] < Some(ticket), "per-producer FIFO");
            last[producer] = Some(ticket);
            popped += 1;
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ring.peek_ticket(), None);
    }
}
