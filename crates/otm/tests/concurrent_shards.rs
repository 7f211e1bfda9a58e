//! Concurrent-shard stress tests (no loom, plain `std::thread`): poster
//! threads drive distinct communicator shards of one shared engine through
//! the command queue, posts and arrivals alike, while the main thread
//! drains blocks, and the resulting per-communicator match sets must be
//! identical to the serialized oracle.
//!
//! Matching is deterministic in the per-communicator post order and the
//! arrival order (C1 + C2), and matching is communicator-local. Each
//! communicator here is owned by exactly one poster thread, so its post
//! *and* arrival orders are that thread's program order regardless of how
//! the threads interleave — the concurrent run must therefore reproduce the
//! oracle's assignment for every communicator, on every execution.

use mpi_matching::oracle::{MatchEvent, Oracle};
use mpi_matching::{Assignment, MsgHandle, PostResult, RecvHandle};
use otm::{Command, CommandOutcome, Delivery, OtmEngine};
use otm_base::{CommId, FaultRng, MatchConfig, ReceivePattern, SourceSel, TagSel};
use std::sync::atomic::{AtomicBool, Ordering};

#[path = "../../../tests/support/prop.rs"]
mod prop;

/// Handle-space stride separating communicators, so a delivery's handle
/// identifies its shard.
const BASE: u64 = 1_000_000;

/// A random single-communicator event stream over a small (rank, tag) space
/// (small so duplicates and wildcards collide often).
fn comm_events(rng: &mut FaultRng, comm: CommId, n: usize) -> Vec<MatchEvent> {
    (0..n)
        .map(|_| prop::event_mix(rng, comm, 3, 3, prop::MIX))
        .collect()
}

/// The oracle's dense-handle assignment, translated into the shard's global
/// handle range.
fn oracle_on(events: &[MatchEvent], base: u64) -> Assignment {
    let dense = Oracle::run(events);
    let mut asg = Assignment::default();
    for (r, m) in dense.recv_to_msg {
        asg.recv_to_msg
            .insert(RecvHandle(r.0 + base), m.map(|m| MsgHandle(m.0 + base)));
    }
    for (m, r) in dense.msg_to_recv {
        asg.msg_to_recv
            .insert(MsgHandle(m.0 + base), r.map(|r| RecvHandle(r.0 + base)));
    }
    asg
}

/// Runs of 1 to 64 posts on `comm` (exact and wildcard), each followed by
/// up to eight arrivals, until there are `n` events.
fn comm_runs(rng: &mut FaultRng, comm: CommId, n: usize) -> Vec<MatchEvent> {
    let mut events = Vec::new();
    while events.len() < n {
        for _ in 0..1 + rng.below(64) {
            events.push(prop::event_mix(rng, comm, 3, 3, [0, 6, 1, 1, 1]));
        }
        for _ in 0..rng.below(9) {
            events.push(prop::event_mix(rng, comm, 3, 3, [1, 0, 0, 0, 0]));
        }
    }
    events.truncate(n);
    events
}

/// Runs `per_comm` event streams concurrently — one poster thread per
/// communicator submitting its posts and arrivals, the main thread
/// draining — and asserts every communicator's match set equals its
/// serialized oracle.
fn run_concurrent(per_comm: &[Vec<MatchEvent>]) {
    run_concurrent_probed(per_comm, false);
}

/// [`run_concurrent`], with one more thread, when `probing`, that reads
/// every communicator (`probe`, which takes its lock, and `comm_hints`)
/// until the last command is drained.
fn run_concurrent_probed(per_comm: &[Vec<MatchEvent>], probing: bool) {
    let comms = per_comm.len();
    let total_commands: usize = per_comm.iter().map(Vec::len).sum();
    let total_posts: usize = per_comm
        .iter()
        .flatten()
        .filter(|e| matches!(e, MatchEvent::Post(_)))
        .count();
    let total_arrivals = total_commands - total_posts;

    let config = MatchConfig::default()
        .with_max_receives((total_posts + 1).next_power_of_two())
        .with_max_unexpected((total_arrivals + 1).next_power_of_two())
        .with_bins(32)
        .with_block_threads(4);
    let engine = OtmEngine::new(config).expect("stress configuration");

    let mut outcomes: Vec<CommandOutcome> = Vec::new();
    let drained = AtomicBool::new(false);
    std::thread::scope(|s| {
        let engine = &engine;
        if probing {
            let drained = &drained;
            s.spawn(move || {
                while !drained.load(Ordering::Relaxed) {
                    for c in 1..=comms as u16 {
                        let any = ReceivePattern::new(SourceSel::Any, TagSel::Any, CommId(c));
                        engine.probe(&any);
                        engine.comm_hints(CommId(c));
                    }
                }
            });
        }
        for (c, events) in per_comm.iter().enumerate() {
            s.spawn(move || {
                let base = c as u64 * BASE;
                let (mut next_recv, mut next_msg) = (0u64, 0u64);
                for ev in events {
                    let cmd = match *ev {
                        MatchEvent::Post(pattern) => {
                            next_recv += 1;
                            Command::Post {
                                pattern,
                                handle: RecvHandle(base + next_recv - 1),
                            }
                        }
                        MatchEvent::Arrive(env) => {
                            next_msg += 1;
                            Command::Arrival {
                                env,
                                msg: MsgHandle(base + next_msg - 1),
                            }
                        }
                    };
                    engine.submit(cmd).expect("rings sized for the workload");
                }
            });
        }

        while outcomes.len() < total_commands {
            let report = engine.drain();
            if let Some(e) = report.error {
                panic!("drain failed mid-stress: {e:?}");
            }
            outcomes.extend(report.outcomes);
            if outcomes.len() < total_commands {
                std::thread::yield_now();
            }
        }
        drained.store(true, Ordering::Relaxed);
    });

    // Rebuild each communicator's observed assignment from the drained
    // outcomes (handles carry their shard).
    let mut observed: Vec<Assignment> = (0..comms).map(|_| Assignment::default()).collect();
    for outcome in outcomes {
        match outcome {
            CommandOutcome::Post {
                handle,
                result: PostResult::Matched(msg),
            }
            | CommandOutcome::Delivery(Delivery::Matched { msg, recv: handle }) => {
                let c = (msg.0 / BASE) as usize;
                observed[c].msg_to_recv.insert(msg, Some(handle));
                observed[c].recv_to_msg.insert(handle, Some(msg));
            }
            CommandOutcome::Post {
                handle,
                result: PostResult::Posted,
            } => {
                let c = (handle.0 / BASE) as usize;
                observed[c].recv_to_msg.entry(handle).or_insert(None);
            }
            CommandOutcome::Delivery(Delivery::Unexpected { msg }) => {
                let c = (msg.0 / BASE) as usize;
                observed[c].msg_to_recv.entry(msg).or_insert(None);
            }
        }
    }

    for (c, events) in per_comm.iter().enumerate() {
        let expect = oracle_on(events, c as u64 * BASE);
        assert!(observed[c].is_consistent());
        assert_eq!(
            observed[c], expect,
            "communicator {c} diverged from its serialized oracle"
        );
    }
    assert_eq!(engine.pending_commands(), 0);
}

/// The acceptance-criteria shape: two poster threads on two communicators,
/// repeated across seeds so thread interleavings vary.
#[test]
fn two_threads_two_comms_match_the_serialized_oracle() {
    for seed in 0..8u64 {
        let mut rng = FaultRng::new(0xC0FFEE ^ seed);
        let per_comm: Vec<Vec<MatchEvent>> = (0..2)
            .map(|c| comm_events(&mut rng, CommId(c as u16 + 1), 200))
            .collect();
        run_concurrent(&per_comm);
    }
}

/// Wider fan-out: four poster threads on four communicator shards.
#[test]
fn four_threads_four_comms_match_the_serialized_oracle() {
    for seed in 0..4u64 {
        let mut rng = FaultRng::new(0xBEEF ^ seed);
        let per_comm: Vec<Vec<MatchEvent>> = (0..4)
            .map(|c| comm_events(&mut rng, CommId(c as u16 + 1), 150))
            .collect();
        run_concurrent(&per_comm);
    }
}

/// Lopsided shards — one busy communicator, one nearly idle — still match
/// their oracles (exercises drains that straddle shard activity).
#[test]
fn lopsided_shards_match_the_serialized_oracle() {
    let mut rng = FaultRng::new(0xD15C0);
    let per_comm = vec![
        comm_events(&mut rng, CommId(1), 400),
        comm_events(&mut rng, CommId(2), 10),
    ];
    run_concurrent(&per_comm);
}

/// Post runs on four communicators while a fifth thread probes the same
/// communicators: a drain keeps a communicator's lock across a run of its
/// posts, and the prober's lock on it must neither deadlock with that nor
/// move a match.
#[test]
fn post_runs_under_concurrent_probes_match_the_serialized_oracle() {
    for seed in 0..4u64 {
        let mut rng = FaultRng::new(0x9057 ^ seed);
        let per_comm: Vec<Vec<MatchEvent>> = (0..4)
            .map(|c| comm_runs(&mut rng, CommId(c as u16 + 1), 300))
            .collect();
        run_concurrent_probed(&per_comm, true);
    }
}
