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
//! consumed (`OtmEngine::drain_for_fallback(self)`). That is the ring's
//! contract, and `pop` leans on it: `head` has one writer, so once the stamp
//! says the head slot is published nobody else can take it, and `pop` advances
//! `head` with a plain store where a multi-consumer ring would need a
//! compare-and-swap to win the slot.
//!
//! A slot holds its command as plain words: the ticket and three more
//! `AtomicU64`s (see `encode`). The producer that won the `tail` CAS for
//! position `pos` is the slot's only writer until it publishes: it stores the
//! four words `Relaxed`, then the stamp `pos + 1` with `Release`. The consumer
//! loads the stamp with `Acquire` and reads the words only once it sees
//! `pos + 1`, so the stores happen-before its loads; it frees the slot with a
//! `Release` store of the next lap's stamp, which that lap's producer
//! `Acquire`s before overwriting the words. No word is written while another
//! thread may read it, which is why relaxed accesses are race-free and the
//! slot needs no lock, no `Option` and no `unsafe`. All coordination,
//! including full/empty detection, happens on the stamps and the head/tail
//! counters: a producer claims a slot with one CAS on `tail` and never waits
//! for other producers to publish, and the drain's merge reads a ring's head
//! ticket with two loads.
//!
//! A full ring is a *backpressure signal*, not a blocking condition:
//! [`CommandRing::push`] hands the command back so the caller can surface
//! `MatchError::SubmissionRingFull` and retry after a drain frees slots.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use mpi_matching::{MsgHandle, RecvHandle};
use otm_base::envelope::{SourceSel, TagSel};
use otm_base::{CommId, Envelope, Rank, ReceivePattern, Tag};

use crate::command::Command;

/// Bits of a command's first word, above the 16-bit communicator id.
const POST: u64 = 1 << 16;
const ANY_SOURCE: u64 = 1 << 17;
const ANY_TAG: u64 = 1 << 18;

/// A command as three words: kind, wildcard bits and communicator | source
/// rank ‖ tag (a wildcard leaves its half zero) | handle.
fn encode(cmd: &Command) -> [u64; 3] {
    let (bits, src, tag, comm, handle) = match *cmd {
        Command::Arrival { env, msg } => (0, env.src.0, env.tag.0, env.comm, msg.0),
        Command::Post { pattern, handle } => {
            let (any_src, src) = match pattern.src {
                SourceSel::Any => (ANY_SOURCE, 0),
                SourceSel::Rank(r) => (0, r.0),
            };
            let (any_tag, tag) = match pattern.tag {
                TagSel::Any => (ANY_TAG, 0),
                TagSel::Tag(t) => (0, t.0),
            };
            (POST | any_src | any_tag, src, tag, pattern.comm, handle.0)
        }
    };
    let src_tag = u64::from(src) << 32 | u64::from(tag);
    [bits | u64::from(comm.0), src_tag, handle]
}

/// The command [`encode`] made `words` of.
fn decode([bits, src_tag, handle]: [u64; 3]) -> Command {
    let (src, tag, comm) = (
        Rank((src_tag >> 32) as u32),
        Tag(src_tag as u32),
        CommId(bits as u16),
    );
    if bits & POST == 0 {
        let env = Envelope::new(src, tag, comm);
        return Command::Arrival {
            env,
            msg: MsgHandle(handle),
        };
    }
    let src = (bits & ANY_SOURCE == 0)
        .then_some(src)
        .map_or(SourceSel::Any, SourceSel::Rank);
    let tag = (bits & ANY_TAG == 0)
        .then_some(tag)
        .map_or(TagSel::Any, TagSel::Tag);
    let pattern = ReceivePattern { src, tag, comm };
    Command::Post {
        pattern,
        handle: RecvHandle(handle),
    }
}

/// Pads the wrapped value to a 64-byte cache line so the hot atomics
/// (per-slot stamps, head, tail) don't false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
struct CachePadded<T>(T);

/// One ring slot: the stamp encodes the slot's lap state; the ticket and the
/// words hold the ticketed command while the slot is occupied.
///
/// Stamp protocol for the slot at index `i = pos & mask`:
/// - `stamp == pos`      → empty, writable by the producer that claims `pos`
/// - `stamp == pos + 1`  → full, readable by the consumer at `pos`
/// - anything else       → the slot belongs to a different lap (ring full
///   from the producer's view, empty from the consumer's)
///
/// The producer writes `ticket` and `words` (relaxed) before its `Release`
/// store of the stamp; whoever then reads `stamp == pos + 1` with `Acquire`
/// sees all four.
#[derive(Debug)]
struct Slot {
    stamp: AtomicUsize,
    ticket: AtomicU64,
    words: [AtomicU64; 3],
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
                    words: Default::default(),
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
                        // publishes it.
                        slot.ticket.store(ticket, Ordering::Relaxed);
                        for (word, value) in slot.words.iter().zip(encode(&cmd)) {
                            word.store(value, Ordering::Relaxed);
                        }
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
    /// Single-consumer by contract (see the module docs): the stamp check
    /// proves the head slot is ours, so `head` moves with a store.
    ///
    /// A slot that a producer has claimed but not yet published reads as
    /// empty — the command logically belongs to the *next* drain, like any
    /// submit that races past the drain's last queue inspection.
    pub fn pop(&self) -> Option<(u64, Command)> {
        let pos = self.head.0.load(Ordering::Relaxed);
        let slot = &self.slots[pos & self.mask].0;
        if slot.stamp.load(Ordering::Acquire) != pos.wrapping_add(1) {
            return None;
        }
        let ticket = slot.ticket.load(Ordering::Relaxed);
        let words = [0, 1, 2].map(|i| slot.words[i].load(Ordering::Relaxed));
        self.head.0.store(pos.wrapping_add(1), Ordering::Relaxed);
        slot.stamp
            .store(pos.wrapping_add(self.slots.len()), Ordering::Release);
        Some((ticket, decode(words)))
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
    fn pop_leaves_the_head_alone_until_its_slot_is_published() {
        let ring = CommandRing::new(4);
        ring.push(0, arrival(0)).unwrap();
        ring.pop().unwrap();
        // A producer has claimed position 1 and not yet published it.
        ring.tail.0.store(2, Ordering::Relaxed);
        assert!(ring.pop().is_none());
        assert_eq!(ring.peek_ticket(), None);
        assert_eq!(ring.head.0.load(Ordering::Relaxed), 1);
        assert_eq!(ring.len(), 1, "claimed, so counted");
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
    fn every_command_shape_survives_the_slot_encoding() {
        let sources = [
            SourceSel::Any,
            SourceSel::Rank(Rank(0)),
            SourceSel::Rank(Rank(u32::MAX)),
        ];
        let tags = [TagSel::Any, TagSel::Tag(Tag(0)), TagSel::Tag(Tag(u32::MAX))];
        for comm in [CommId(0), CommId(7), CommId(u16::MAX)] {
            for handle in [0, 1 << 32, u64::MAX] {
                for src in sources {
                    for tag in tags {
                        let post = Command::Post {
                            pattern: ReceivePattern { src, tag, comm },
                            handle: RecvHandle(handle),
                        };
                        assert_eq!(decode(encode(&post)), post);
                        if let (SourceSel::Rank(src), TagSel::Tag(tag)) = (src, tag) {
                            let arrival = Command::Arrival {
                                env: Envelope::new(src, tag, comm),
                                msg: MsgHandle(handle),
                            };
                            assert_eq!(decode(encode(&arrival)), arrival);
                        }
                    }
                }
            }
        }
    }

    /// A command that is a function of its ticket alone, in all four word
    /// positions, so a pop that mixed two laps' words cannot go unnoticed.
    fn command_of(ticket: u64) -> Command {
        let h = otm_base::hash::mix64(ticket);
        let (src, tag, comm) = (Rank(h as u32), Tag((h >> 32) as u32), CommId(ticket as u16));
        if ticket % 2 == 0 {
            return Command::Arrival {
                env: Envelope::new(src, tag, comm),
                msg: MsgHandle(ticket),
            };
        }
        Command::Post {
            pattern: ReceivePattern {
                src: if h & 1 == 0 {
                    SourceSel::Any
                } else {
                    src.into()
                },
                tag: if h & 2 == 0 { TagSel::Any } else { tag.into() },
                comm,
            },
            handle: RecvHandle(ticket),
        }
    }

    #[test]
    fn popped_words_belong_to_one_command_under_concurrent_producers() {
        use std::sync::{Arc, Barrier};
        let ring = Arc::new(CommandRing::new(4));
        let (producers, per_producer) = (4u64, 5_000u64);
        let start = Arc::new(Barrier::new(producers as usize + 1));
        let handles: Vec<_> = (0..producers)
            .map(|p| {
                let (ring, start) = (Arc::clone(&ring), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    for i in 0..per_producer {
                        let ticket = p * per_producer + i;
                        while ring.push(ticket, command_of(ticket)).is_err() {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        start.wait();
        let mut seen = vec![false; (producers * per_producer) as usize];
        let mut popped = 0;
        while popped < producers * per_producer {
            let Some((ticket, cmd)) = ring.pop() else {
                std::thread::yield_now();
                continue;
            };
            assert_eq!(cmd, command_of(ticket), "ticket {ticket}");
            assert!(!std::mem::replace(&mut seen[ticket as usize], true));
            popped += 1;
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(ring.pop().is_none(), "nothing duplicated");
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
