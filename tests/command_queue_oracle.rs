//! Deterministic companion to the `command_queue_interleavings_equal_
//! serialized_oracle` property in `tests/properties.rs`: seeded random
//! interleavings of multi-communicator posts and arrivals are pushed
//! through the engine's command queue and drained in blocks, and every
//! communicator's match set must equal its serialized oracle. The property
//! explores the space; this one pins a reproducible sample of it.

#[path = "support/prop.rs"]
mod prop;

use mpi_matching::oracle::{MatchEvent, Oracle};
use mpi_matching::{Assignment, MsgHandle, PostResult, RecvHandle};
use otm::{Command, CommandOutcome, OtmEngine};
use otm_base::{CommId, Envelope, FaultRng, MatchConfig, Rank, ReceivePattern, Tag};
use prop::comm_event;

const COMMS: usize = 3;
const BASE: u64 = 1_000_000;

fn check_interleaving(events: &[(u16, MatchEvent)]) {
    let config = MatchConfig::default()
        .with_block_threads(4)
        .with_max_receives(1024)
        .with_max_unexpected(1024)
        .with_bins(16);
    let mut engine = OtmEngine::new(config).unwrap();

    // Submit everything in the generated global interleaving.
    let mut next_recv = [0u64; COMMS];
    let mut next_msg = [0u64; COMMS];
    let mut submitted: Vec<(u16, Command)> = Vec::new();
    for &(c, ev) in events {
        let base = c as u64 * BASE;
        let cmd = match ev {
            MatchEvent::Post(pattern) => {
                let handle = RecvHandle(base + next_recv[c as usize]);
                next_recv[c as usize] += 1;
                Command::Post { pattern, handle }
            }
            MatchEvent::Arrive(env) => {
                let msg = MsgHandle(base + next_msg[c as usize]);
                next_msg[c as usize] += 1;
                Command::Arrival { env, msg }
            }
        };
        engine.submit(cmd).unwrap();
        submitted.push((c, cmd));
    }
    let report = engine.drain();
    assert!(report.error.is_none(), "drain failed: {:?}", report.error);
    assert_eq!(report.outcomes.len(), submitted.len());

    // Outcomes come back in submission order; rebuild each communicator's
    // observed assignment from the pairing.
    let mut observed: Vec<Assignment> = (0..COMMS).map(|_| Assignment::default()).collect();
    for (&(c, cmd), outcome) in submitted.iter().zip(&report.outcomes) {
        let asg = &mut observed[c as usize];
        match (cmd, outcome) {
            (
                Command::Post { handle, .. },
                CommandOutcome::Post {
                    handle: out,
                    result: PostResult::Matched(m),
                },
            ) => {
                assert_eq!(*out, handle, "outcome echoes the wrong handle");
                asg.recv_to_msg.insert(handle, Some(*m));
                asg.msg_to_recv.insert(*m, Some(handle));
            }
            (
                Command::Post { handle, .. },
                CommandOutcome::Post {
                    handle: out,
                    result: PostResult::Posted,
                },
            ) => {
                assert_eq!(*out, handle, "outcome echoes the wrong handle");
                asg.recv_to_msg.entry(handle).or_insert(None);
            }
            (Command::Arrival { msg, .. }, CommandOutcome::Delivery(d)) => match *d {
                otm::Delivery::Matched { recv, .. } => {
                    asg.msg_to_recv.insert(msg, Some(recv));
                    asg.recv_to_msg.insert(recv, Some(msg));
                }
                otm::Delivery::Unexpected { .. } => {
                    asg.msg_to_recv.entry(msg).or_insert(None);
                }
            },
            _ => panic!("outcome kind does not match its command"),
        }
    }

    // Per communicator, the serialized oracle over that communicator's
    // subsequence (translated into its handle range) must agree.
    for (c, observed) in observed.iter().enumerate() {
        let sub: Vec<MatchEvent> = events
            .iter()
            .filter(|&&(cc, _)| cc as usize == c)
            .map(|&(_, ev)| ev)
            .collect();
        let dense = Oracle::run(&sub);
        let base = c as u64 * BASE;
        let mut expect = Assignment::default();
        for (r, m) in dense.recv_to_msg {
            expect
                .recv_to_msg
                .insert(RecvHandle(r.0 + base), m.map(|m| MsgHandle(m.0 + base)));
        }
        for (m, r) in dense.msg_to_recv {
            expect
                .msg_to_recv
                .insert(MsgHandle(m.0 + base), r.map(|r| RecvHandle(r.0 + base)));
        }
        assert!(observed.is_consistent());
        assert_eq!(
            observed, &expect,
            "communicator {c} diverged from its serialized oracle"
        );
    }
}

#[test]
fn seeded_interleavings_equal_their_serialized_oracles() {
    for seed in 0..32u64 {
        let mut rng = FaultRng::new(0x0DDC0DE ^ seed);
        let len = rng.below(160);
        let events: Vec<(u16, MatchEvent)> = (0..len).map(|_| comm_event(&mut rng)).collect();
        check_interleaving(&events);
    }
}

#[test]
fn all_posts_then_all_arrivals_round_trip() {
    let mut events = Vec::new();
    for c in 0..COMMS as u16 {
        for i in 0..8u32 {
            events.push((
                c,
                MatchEvent::Post(ReceivePattern::new(Rank(i % 3), Tag(i % 3), CommId(c + 1))),
            ));
        }
    }
    for c in 0..COMMS as u16 {
        for i in 0..8u32 {
            events.push((
                c,
                MatchEvent::Arrive(Envelope::new(Rank(i % 3), Tag(i % 3), CommId(c + 1))),
            ));
        }
    }
    check_interleaving(&events);
}
