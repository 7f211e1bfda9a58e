//! Heap allocations per delivered message, counted exactly.
//!
//! The whole receive path — `ReliableSender` → `RecvNic` → `MatchingService`
//! → `OtmEngine` behind its command queue — is driven closed-loop over a
//! clean wire, the way the ladder's `stream_nc` drives it, under a global
//! allocator that counts. A clock cannot tell 2.5 allocations from 4.5 inside
//! its noise; a count can, and it is a function of the code alone. A second
//! kind of round sends first and posts once the messages are stored as
//! unexpected, the way `stream_unexp` does; a third stamps each message with
//! its global index and sends it through the NIC's total-order gate, the way
//! `replay_app` does; a fourth runs 1 KiB rendezvous messages over a wire
//! that drops, duplicates and reorders, the way `stream_lossy_rdv` does.
//! Regrowths (`realloc`) count as allocations and are counted apart too:
//! they skip the allocator's per-thread cache, so a regrowth on the path
//! costs more than the fresh allocation it could be.
//!
//! The same counter bounds what a peer costs to have: a destination's queue
//! pairs, senders and NIC built, used for one message each and dropped; what
//! `replay_app` allocates per message once its endpoints and its engine
//! exist; what a communicator costs the engine that matches for it; what a
//! warm drain costs: its report; what a stream of blocks matched directly
//! costs: its deliveries; and what resetting that engine, or a warm
//! `SequentialOtm`'s posts and arrivals, cost: nothing.
//!
//! This file is its own test binary with one `#[test]`, so nothing else
//! allocates while it counts, and it holds the only `unsafe` in the
//! repository: the layer crates stay `#![forbid(unsafe_code)]`, and a
//! `GlobalAlloc` cannot be written without it.

use dpa_sim::app_replay::{replay_app, AppReplayConfig};
use dpa_sim::bounce::BouncePool;
use dpa_sim::nic::RecvNic;
use dpa_sim::rdma::{connected_pair, eager_packet, rendezvous_packet, RdmaDomain};
use dpa_sim::{MatchingService, ReliableSender};
use mpi_matching::{Matcher, MsgHandle, RecvHandle};
use otm::Command;
use otm::{OtmEngine, SequentialOtm};
use otm_base::{CommId, Envelope, FaultPlan, MatchConfig, Rank, ReceivePattern, Tag};
use otm_trace::{AppTrace, MpiOp, RankTrace};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// The `realloc` calls among `ALLOCATIONS`: a regrowth counts as one
/// allocation, but it skips the allocator's per-thread cache.
static REGROWTHS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every block it hands out or regrows, and
/// the regrowths apart.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller already upholds; the counter is a relaxed
// atomic and touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        REGROWTHS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const LANES: usize = 4;
const ROUND: usize = 512;
const EAGER_MAX: usize = 192;
const PIGGYBACK: usize = 64;

/// Message `i` of a round: its lane (queue pair and communicator), source and
/// tag.
fn key(i: usize) -> (usize, Rank, Tag) {
    (i % LANES, Rank((i / LANES) as u32), Tag(i as u32 % 7))
}

/// How a round's messages meet their receives.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Receives posted first.
    Expected,
    /// Messages stored as unexpected, receives posted once every one is.
    UnexpectedFirst,
    /// As `Expected`, with each message stamped with its global index and
    /// released in that order by the NIC's total-order gate: the NIC polls
    /// one lane at a time, so most packets park behind another lane's.
    Gated,
    /// As `Expected`, over a wire that drops 10 %, duplicates 8 % and
    /// reorders 8 % of the packets: retransmits, staging out of order and
    /// short drains, the way `stream_lossy_rdv` runs.
    Hostile,
}

struct Stack {
    svc: MatchingService,
    senders: Vec<ReliableSender>,
    domain: RdmaDomain,
    /// The next global index to stamp, in `Mode::Gated`.
    gseq: Option<u64>,
}

fn stack(mode: Mode) -> Stack {
    let (tx, rx) = connected_pair();
    let mut nic = RecvNic::new(rx, BouncePool::new(1024, EAGER_MAX));
    let mut peers = vec![tx];
    for _ in 1..LANES {
        let (tx, rx) = connected_pair();
        nic.add_qp(rx);
        peers.push(tx);
    }
    let gated = mode == Mode::Gated;
    if gated {
        nic.enable_total_order();
    }
    if mode == Mode::Hostile {
        let plan = FaultPlan::new(0xa98)
            .with_drop_permille(100)
            .with_duplicate_permille(80)
            .with_reorder_permille(80)
            .with_reorder_window(4);
        nic.set_faults(plan);
    }
    let domain = RdmaDomain::new();
    let engine = OtmEngine::new(MatchConfig::default()).unwrap();
    let mut svc = MatchingService::with_backend(nic, domain.clone(), Box::new(engine));
    svc.enable_command_queue().unwrap();
    Stack {
        svc,
        senders: peers.into_iter().map(ReliableSender::new).collect(),
        domain,
        gseq: gated.then_some(0),
    }
}

impl Stack {
    /// One turn of the loop; returns how many receives completed.
    fn pump(&mut self) -> usize {
        self.svc.progress().unwrap();
        let done = self.svc.take_completed().len();
        for s in &mut self.senders {
            s.poll().unwrap();
        }
        done
    }

    /// Posts the round's distinct receives.
    fn post_all(&mut self) {
        for i in 0..ROUND {
            let (lane, src, tag) = key(i);
            let pattern = ReceivePattern::new(src, tag, CommId(lane as u16 + 1));
            let handle = self.svc.reserve_recv();
            self.svc.post_recv_queued_reserved(pattern, handle).unwrap();
        }
    }

    /// Posts a round of distinct receives, sends its messages window by
    /// window and pumps until every one completed. Every round uses the same
    /// keys, so after the first the index bins it hashes into are at size.
    /// With `Mode::UnexpectedFirst` the receives are posted once every
    /// message is acked, which is after the engine stored it as unexpected.
    fn round(&mut self, payload_len: usize, mode: Mode) {
        let unexpected_first = mode == Mode::UnexpectedFirst;
        if !unexpected_first {
            self.post_all();
        }
        let mut done = 0;
        for i in 0..ROUND {
            let (lane, src, tag) = key(i);
            while !self.senders[lane].can_send() {
                done += self.pump();
            }
            let env = Envelope::new(src, tag, CommId(lane as u16 + 1));
            let payload = vec![i as u8; payload_len];
            let mut packet = if payload_len <= EAGER_MAX {
                eager_packet(env, payload)
            } else {
                rendezvous_packet(&self.domain, env, payload, PIGGYBACK).0
            };
            if let Some(gseq) = self.gseq.as_mut() {
                packet = packet.with_gseq(*gseq);
                *gseq += 1;
            }
            self.senders[lane].send(packet).unwrap();
        }
        if unexpected_first {
            while self.senders.iter().any(|s| s.unacked() > 0) {
                done += self.pump();
            }
            assert_eq!(done, 0, "nothing completes before its receive is posted");
            self.post_all();
        }
        while done < ROUND || self.senders.iter().any(|s| s.unacked() > 0) {
            done += self.pump();
        }
        assert_eq!(done, ROUND, "every message completes exactly once");
    }
}

/// Allocations per delivered message over `rounds` rounds, after two rounds
/// of warm-up (tables, rings, windows and the completion vector at size),
/// and the regrowths among them.
fn allocations_per_message(payload_len: usize, mode: Mode, rounds: u32) -> (f64, f64) {
    let mut stack = stack(mode);
    for _ in 0..2 {
        stack.round(payload_len, mode);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let regrowths_before = REGROWTHS.load(Ordering::Relaxed);
    for _ in 0..rounds {
        stack.round(payload_len, mode);
    }
    if let Some(gseq) = stack.gseq {
        let nic = stack.svc.nic();
        assert_eq!(nic.next_gseq(), gseq, "the gate released every message");
        let parked = nic.rx_stats().gate_parked;
        assert!(parked * 2 > gseq, "most packets parked: {parked} of {gseq}");
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let regrowths = REGROWTHS.load(Ordering::Relaxed) - regrowths_before;
    let messages = f64::from(rounds) * ROUND as f64;
    (allocations as f64 / messages, regrowths as f64 / messages)
}

/// Peers of one destination in the construction budget: BigFFT's 62 sources.
const PEERS: usize = 62;

/// Allocations to build, use once and drop what `replay_app` builds for its
/// first destination and re-arms for the rest: `PEERS` queue pairs, their
/// reliable senders and the NIC that terminates them, every pair carrying
/// one 8-byte message and its ack.
fn construction_allocations() -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    {
        let (tx, rx) = connected_pair();
        let mut nic = RecvNic::new(rx, BouncePool::new(64, EAGER_MAX));
        let mut senders = Vec::with_capacity(PEERS);
        senders.push(ReliableSender::new(tx));
        for _ in 1..PEERS {
            let (tx, rx) = connected_pair();
            nic.add_qp(rx);
            senders.push(ReliableSender::new(tx));
        }
        for (i, s) in senders.iter_mut().enumerate() {
            let env = Envelope::new(Rank(i as u32), Tag(0), CommId(1));
            s.send(eager_packet(env, vec![i as u8; 8])).unwrap();
        }
        assert_eq!(nic.poll().unwrap(), PEERS);
        for c in nic.take_block(PEERS) {
            nic.release(c.bounce);
        }
        for s in &mut senders {
            s.poll().unwrap();
            assert_eq!(s.unacked(), 0, "one message, one ack");
        }
    }
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// BigFFT cut to the receives of its first `destinations` ranks and the
/// sends addressed to them: each destination posts 62 receives and takes 62
/// rendezvous messages, one from each of 62 peers.
fn bigfft_destinations(destinations: u32) -> AppTrace {
    let entry = otm_workloads::catalog()
        .into_iter()
        .find(|a| a.name == "BigFFT");
    let full = (entry.expect("BigFFT is in the catalog").generate)(0);
    let ranks = full.ranks.into_iter().map(|r| {
        let ops = r.ops.into_iter().filter(|t| match t.op {
            MpiOp::Irecv { .. } | MpiOp::Recv { .. } => r.rank.0 < destinations,
            MpiOp::Isend { dest, .. } | MpiOp::Send { dest, .. } => dest.0 < destinations,
            _ => false,
        });
        RankTrace {
            rank: r.rank,
            ops: ops.collect(),
        }
    });
    AppTrace {
        name: full.name,
        ranks: ranks.collect(),
    }
}

/// Allocations `replay_app` makes per replayed message once its endpoints
/// and its engine exist: a replay of 16 BigFFT destinations less one of 8,
/// over the 8 × 62 messages between them, so whatever the first destination
/// builds cancels.
fn replay_allocations_per_message() -> f64 {
    let count = |destinations: u32| {
        let trace = bigfft_destinations(destinations);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let out = replay_app(&trace, &AppReplayConfig::default()).unwrap();
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(out.report.messages, u64::from(destinations) * 62);
        assert_eq!(out.report.completed, out.report.messages);
        allocations
    };
    let (eight, sixteen) = (count(8), count(16));
    (sixteen - eight) as f64 / (8.0 * 62.0)
}

/// Allocations to create one communicator at the default configuration: the
/// first post on a fresh `CommId` builds its shard (receive table, both
/// queues' list ends, command queue) and posts into it.
fn communicator_allocations() -> u64 {
    let mut engine = OtmEngine::new(MatchConfig::default()).unwrap();
    let post = |engine: &mut OtmEngine, comm| {
        let pattern = ReceivePattern::new(Rank(0), Tag(0), CommId(comm));
        engine.post(pattern, RecvHandle(u64::from(comm))).unwrap();
    };
    // The first communicator also sizes the directory.
    post(&mut engine, 1);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    post(&mut engine, 2);
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Submits, on each of `comms`, `posts` receives and then `arrivals`
/// messages, tag `i` for the `i`-th of each: receives past `arrivals` stay
/// posted, messages past `posts` wait.
fn submit_round(engine: &mut OtmEngine, comms: &[u16], posts: u32, arrivals: u32) {
    for &comm in comms {
        let comm = CommId(comm);
        for tag in 0..posts {
            let pattern = ReceivePattern::new(Rank(0), Tag(tag), comm);
            let handle = RecvHandle(u64::from(tag));
            engine.submit(Command::Post { pattern, handle }).unwrap();
        }
        for tag in 0..arrivals {
            let env = Envelope::new(Rank(0), Tag(tag), comm);
            let msg = MsgHandle(u64::from(tag));
            engine.submit(Command::Arrival { env, msg }).unwrap();
        }
    }
}

/// Allocations of one warm drain (two drains of the same traffic ran
/// before it) of `posts` receives and then `arrivals` messages on each of
/// three communicators, and the blocks it ran.
fn drain_allocations(posts: u32, arrivals: u32) -> (u64, u64) {
    let mut engine = OtmEngine::new(MatchConfig::default()).unwrap();
    let comms = [1, 2, 3];
    for _ in 0..2 {
        submit_round(&mut engine, &comms, posts, arrivals);
        assert_eq!(engine.drain().error, None);
    }
    submit_round(&mut engine, &comms, posts, arrivals);
    let blocks = engine.stats().blocks;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = engine.drain();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        (report.error, report.outcomes.len()),
        (None, 3 * (posts + arrivals) as usize)
    );
    (allocations, engine.stats().blocks - blocks)
}

/// Allocations of a warm `SequentialOtm` (one round like it ran before):
/// `n` receives posted, then `n` messages that match them, then `n`
/// messages stored unexpected, then `n` receives that match those on post.
fn sequential_allocations(n: u32) -> u64 {
    let mut m = SequentialOtm::new(MatchConfig::default()).unwrap();
    let round = |m: &mut SequentialOtm| {
        let pattern = |tag| ReceivePattern::new(Rank(0), Tag(tag), CommId(1));
        let env = |tag| Envelope::new(Rank(0), Tag(tag), CommId(1));
        for tag in 0..n {
            m.post(pattern(tag), RecvHandle(u64::from(tag))).unwrap();
        }
        for tag in 0..2 * n {
            m.arrive(env(tag % n), MsgHandle(u64::from(tag))).unwrap();
        }
        for tag in 0..n {
            m.post(pattern(tag), RecvHandle(u64::from(n + tag)))
                .unwrap();
        }
        assert_eq!((m.prq_len(), m.umq_len()), (0, 0));
    };
    round(&mut m);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    round(&mut m);
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Allocations of `OtmEngine::process_stream` over `blocks` full blocks of
/// messages that match receives posted before, on a warm engine.
fn stream_allocations(blocks: usize) -> u64 {
    let mut engine = OtmEngine::new(MatchConfig::default()).unwrap();
    let n = blocks * engine.config().block_threads;
    let round = |engine: &mut OtmEngine| {
        for i in 0..n as u64 {
            let pattern = ReceivePattern::new(Rank(0), Tag(0), CommId(1));
            engine.post(pattern, RecvHandle(i)).unwrap();
        }
        let msgs: Vec<_> = (0..n as u64)
            .map(|i| (Envelope::new(Rank(0), Tag(0), CommId(1)), MsgHandle(i)))
            .collect();
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let deliveries = engine.process_stream(&msgs).unwrap();
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(deliveries.len(), n);
        allocations
    };
    round(&mut engine);
    round(&mut engine)
}

/// Allocations of `OtmEngine::reset`, twice, on an engine that matched on
/// two communicators, directly and through warm drains, with a receive left
/// posted and a message left waiting on each: once as it first parks their
/// shards, once after the next round took them back.
fn reset_allocations() -> u64 {
    let mut engine = OtmEngine::new(MatchConfig::default()).unwrap();
    let mut allocations = 0;
    for round in 0..2 {
        for comm in [CommId(1), CommId(2)] {
            for (tag, recv) in [(0, 0), (9, 1)] {
                let pattern = ReceivePattern::new(Rank(0), Tag(tag), comm);
                engine.post(pattern, RecvHandle(recv)).unwrap();
            }
            let msgs = [0, 5].map(|tag| {
                let env = Envelope::new(Rank(0), Tag(tag), comm);
                (env, MsgHandle(u64::from(tag)))
            });
            engine.process_block(&msgs).unwrap();
        }
        // Two drains that match everything they bring: the second finds its
        // arena at size.
        for _ in 0..2 {
            submit_round(&mut engine, &[1, 2], 4, 0);
            submit_round(&mut engine, &[1, 2], 0, 4);
            assert_eq!(engine.drain().error, None);
        }
        assert_eq!(
            (engine.prq_len(), engine.umq_len()),
            (2, 2),
            "round {round}"
        );
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        engine.reset().unwrap();
        allocations += ALLOCATIONS.load(Ordering::Relaxed) - before;
    }
    allocations
}

#[test]
fn steady_state_allocations_per_message_stay_in_budget() {
    // The payload, and a share of each drain's report and each poll's
    // completions handed out: the window copies into a recycled buffer, the
    // service pops completions off the NIC one by one, and a drain works in
    // the arena its engine keeps. Measured 1.008 (1.039 while each block
    // locked its communicators into a vector of guards, 1.322 when every
    // drain built its scheduler, block, outcome, peak and head vectors and
    // its directory snapshot anew, the service copied each block of
    // completions out of the NIC and its completion vector regrew from empty
    // after every take); the budget is that plus 0.1.
    let (eager, eager_regrowths) = allocations_per_message(8, Mode::Expected, 8);
    assert!(
        eager <= 1.11,
        "8-byte eager: {eager:.3} allocations a message"
    );
    // Plus the head and the READ's target, allocated at its final size; the
    // registered region is the payload itself, moved into the domain's map.
    // Measured 3.008 (3.039 with a block's guards, 3.322 before the drain
    // arena).
    let (rendezvous, rendezvous_regrowths) = allocations_per_message(1024, Mode::Expected, 8);
    assert!(
        rendezvous <= 3.11,
        "1 KiB rendezvous: {rendezvous:.3} allocations a message"
    );
    // Nothing regrows once warm, not even the READ's target, allocated at
    // its final size. Measured 0.186 a message, eager or rendezvous, while
    // every drain's lanes, blocks and outcomes and every poll's completions
    // grew from empty, and 1.186 for rendezvous when the READ regrew the
    // head to take the tail.
    assert_eq!(
        (eager_regrowths, rendezvous_regrowths),
        (0.0, 0.0),
        "regrowths a message, 8-byte eager and 1 KiB rendezvous"
    );
    // Sent, settled as unexpected, then posted: the store links the message
    // into a slab slot it already owns and the service's map is at size, so
    // the early arrival costs what the expected one does plus a share of the
    // post-time drains' reports. Measured 1.008 (1.039 with a block's
    // guards, 1.361 before the drain arena, 1.625 when the store was a deque
    // per bin, swept of tombstones every thousand matches or so).
    let (unexpected, _) = allocations_per_message(8, Mode::UnexpectedFirst, 8);
    assert!(
        unexpected <= 1.11,
        "8-byte eager, unexpected first: {unexpected:.3} allocations a message"
    );
    // The gate parks and releases in a window indexed by sequence number
    // that is at size after the warm-up, so passing through it costs what
    // the ungated path does. Measured 1.008 (1.039 with a block's guards,
    // 1.324 before the drain arena, 1.414 when the gate was an ordered map, a
    // node allocated and freed every few packets); the budget is the ungated
    // figure plus 0.1.
    let (gated, _) = allocations_per_message(8, Mode::Gated, 8);
    assert!(
        gated <= 1.11,
        "8-byte eager through the total-order gate: {gated:.3} allocations a message"
    );
    // A hostile wire adds retransmitted copies, duplicates the NIC drops
    // and out-of-order packets it stages, and short drains: 6.7 messages a
    // block against 31 on a clean one. Measured 3.364 (3.425 with a block's
    // guards, 4.484 before the drain arena).
    let (hostile, _) = allocations_per_message(1024, Mode::Hostile, 8);
    assert!(
        hostile <= 3.47,
        "1 KiB rendezvous over a hostile wire: {hostile:.3} allocations a message"
    );
    println!(
        "allocations per message: eager {eager:.3}, rendezvous {rendezvous:.3}, \
         unexpected-first eager {unexpected:.3}, gated eager {gated:.3}, \
         hostile rendezvous {hostile:.3}; \
         regrowths: eager {eager_regrowths:.3}, rendezvous {rendezvous_regrowths:.3}"
    );
    // A warm drain allocates its report and nothing else, however many
    // blocks it runs. Measured 15 for the posts alone and 27 with two blocks
    // while every drain built its arena anew, and 1 more a block while a
    // block locked its communicators into a vector of guards.
    assert_eq!(drain_allocations(16, 0), (1, 0), "a drain of posts");
    assert_eq!(drain_allocations(16, 16), (1, 2), "a drain of two blocks");
    println!("allocations per warm drain: 1");
    // Blocks matched directly write their deliveries into the one vector
    // the stream returns. Measured 1 for 4 blocks (5 while each block
    // returned a vector of its own).
    assert_eq!(stream_allocations(4), 1, "a stream of 4 blocks");
    // A warm sequential adapter matches each arrival as a one-message block
    // whose delivery comes straight back, and reads the two depth sums it
    // needs: its posts and arrivals allocate nothing. Measured 0 (one
    // vector an arrival while each returned its block's deliveries).
    let sequential = sequential_allocations(64);
    assert_eq!(sequential, 0, "{sequential} allocations in 256 operations");
    println!("allocations per warm stream: 1; per sequential operation: 0");
    // A queue pair is one allocation, and none more until it carries a frame.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    drop(connected_pair());
    assert_eq!(ALLOCATIONS.load(Ordering::Relaxed) - before, 1);
    // Per peer: the link, a four-slot queue per direction, the payload, the
    // window's entry and its copy, and a share of the NIC's per-QP vectors.
    // Measured 462 (466 when those vectors started at one slot, 472 with a
    // per-QP expected-sequence vector beside the staging buffers, 528 over
    // two std channels per pair); the budget is 472 plus 5 %.
    let construction = construction_allocations();
    assert!(
        construction <= 495,
        "{PEERS}-peer destination: {construction} allocations"
    );
    println!("allocations per {PEERS}-peer destination: {construction}");
    // A replayed destination re-arms the endpoints and resets the engine the
    // first one built: the payload, the rendezvous head and the READ's
    // target, and a share of the drains' reports and of the destination's
    // event stream (its keyed vector, sized exactly, the stable sort's
    // scratch and the stream). Measured 3.115 (3.147 with a block's guards,
    // 3.825 before the drain arena, 4.486 while every destination built and dropped an engine of
    // its own, 4.534 while each stream grew by doubling behind a sort of
    // the whole trace, 11.810 when every destination built and dropped its
    // own queue pairs, senders, NIC, bounce pool, service and registry).
    let replayed = replay_allocations_per_message();
    assert!(
        replayed <= 3.22,
        "{PEERS}-peer replay: {replayed:.3} allocations a message"
    );
    println!("allocations per replayed {PEERS}-peer message: {replayed:.3}");
    // The table's slots, one slice of list ends per queue and the command
    // queue; the shard itself lives in the directory, the post links its
    // receive through its slot, and the table's free list waits for a
    // release. Measured 4 (5 while the shard was reference-counted, 6 when
    // the free list was filled with every slot up front, 9 when a bin was a
    // vector: three slices of them, and a post's push into an empty one).
    let communicator = communicator_allocations();
    assert!(
        communicator <= 4,
        "{communicator} allocations a communicator"
    );
    println!("allocations per communicator: {communicator}");
    // A reset empties the tables, lists, stores, queues and registry in
    // place and parks the shards it emptied.
    let reset = reset_allocations();
    assert_eq!(reset, 0, "{reset} allocations in two resets");
}
