//! Shared harness for the loss-free fallback oracle, used by both the
//! property (`tests/properties.rs`) and its seeded deterministic
//! companion (`tests/fallback_total.rs`).
//!
//! The oracle: for every drainable backend, *falling back with commands
//! still sitting in the submission queue* must be equivalent to *draining
//! the queue first and falling back afterwards*. Both paths replay their
//! [`FallbackState`] into a fresh software matcher exactly the way the
//! service migrates — applied state first (which must not match), then the
//! pending commands in submission order (which may) — and must end with the
//! same match assignment and the same residual queues.

#![allow(dead_code)]

pub mod chaos;
pub mod prop;

use mpi_matching::backend::{BlockDelivery, DrainReport};
use mpi_matching::oracle::{MatchEvent, Oracle};
use mpi_matching::traditional::TraditionalMatcher;
use mpi_matching::{
    ArriveResult, Assignment, FallbackState, Matcher, MatchingBackend, MsgHandle, PendingCommand,
    PostResult, RecvHandle,
};
use otm::{CommandOutcome, OtmEngine};
use otm_base::{CommId, FaultRng, MatchConfig, MatchError};
use std::collections::{HashMap, HashSet};

/// An engine configuration for the fallback oracle: parallel blocks, tables
/// big enough that the oracle never trips resource exhaustion.
pub fn fallback_oracle_config() -> MatchConfig {
    MatchConfig::default()
        .with_block_threads(4)
        .with_max_receives(1024)
        .with_max_unexpected(1024)
        .with_bins(16)
}

/// A named way to build a fresh backend, for oracles that run several.
pub type BackendFactory = (&'static str, fn() -> Box<dyn MatchingBackend>);

/// What a fallback path leaves behind: the match assignment accumulated
/// across the run plus the replayed software matcher's residual queues.
pub type FallbackOutcome = (Assignment, Vec<RecvHandle>, Vec<MsgHandle>);

/// Applies one event synchronously through the backend trait, recording the
/// outcome into `asg`.
pub fn apply_event(
    b: &mut dyn MatchingBackend,
    ev: &MatchEvent,
    next_recv: &mut u64,
    next_msg: &mut u64,
    asg: &mut Assignment,
) {
    match *ev {
        MatchEvent::Post(pattern) => {
            let handle = RecvHandle(*next_recv);
            *next_recv += 1;
            match b.post(pattern, handle).expect("tables sized for the run") {
                PostResult::Matched(m) => {
                    asg.recv_to_msg.insert(handle, Some(m));
                    asg.msg_to_recv.insert(m, Some(handle));
                }
                PostResult::Posted => {
                    asg.recv_to_msg.insert(handle, None);
                }
            }
        }
        MatchEvent::Arrive(env) => {
            let msg = MsgHandle(*next_msg);
            *next_msg += 1;
            match b
                .arrive_block(&[(env, msg)])
                .expect("tables sized for the run")[0]
            {
                otm::Delivery::Matched { recv, .. } => {
                    asg.msg_to_recv.insert(msg, Some(recv));
                    asg.recv_to_msg.insert(recv, Some(msg));
                }
                otm::Delivery::Unexpected { .. } => {
                    asg.msg_to_recv.insert(msg, None);
                }
            }
        }
    }
}

/// Translates one event into the command it would be submitted as.
pub fn to_command(ev: &MatchEvent, next_recv: &mut u64, next_msg: &mut u64) -> PendingCommand {
    match *ev {
        MatchEvent::Post(pattern) => {
            let handle = RecvHandle(*next_recv);
            *next_recv += 1;
            PendingCommand::Post { pattern, handle }
        }
        MatchEvent::Arrive(env) => {
            let msg = MsgHandle(*next_msg);
            *next_msg += 1;
            PendingCommand::Arrival { env, msg }
        }
    }
}

/// An interleaved multi-communicator command stream: `len`
/// [`prop::comm_event`]s in submission order, handles dense per kind.
pub fn command_stream(rng: &mut FaultRng, len: usize) -> Vec<PendingCommand> {
    let (mut next_recv, mut next_msg) = (0u64, 0u64);
    (0..len)
        .map(|_| to_command(&prop::comm_event(rng).1, &mut next_recv, &mut next_msg))
        .collect()
}

/// Records one drained command outcome into `asg`.
pub fn record_outcome(cmd: &PendingCommand, outcome: &CommandOutcome, asg: &mut Assignment) {
    match (*cmd, outcome) {
        (
            PendingCommand::Post { handle, .. },
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
            PendingCommand::Post { handle, .. },
            CommandOutcome::Post {
                handle: out,
                result: PostResult::Posted,
            },
        ) => {
            assert_eq!(*out, handle, "outcome echoes the wrong handle");
            asg.recv_to_msg.insert(handle, None);
        }
        (PendingCommand::Arrival { msg, .. }, CommandOutcome::Delivery(d)) => match *d {
            otm::Delivery::Matched { recv, .. } => {
                asg.msg_to_recv.insert(msg, Some(recv));
                asg.recv_to_msg.insert(recv, Some(msg));
            }
            otm::Delivery::Unexpected { .. } => {
                asg.msg_to_recv.insert(msg, None);
            }
        },
        _ => panic!("outcome kind does not match its command"),
    }
}

/// Replays a fallback snapshot into a fresh software matcher exactly as the
/// service migrates: unexpected messages and receives first (both must
/// replay without matching — they were mutually checked when recorded),
/// then the pending commands in submission order (which may legitimately
/// match). Newly formed pairs land in `asg`.
pub fn replay_snapshot(state: FallbackState, asg: &mut Assignment) -> TraditionalMatcher {
    let mut m = TraditionalMatcher::new();
    for (env, msg) in state.unexpected {
        assert_eq!(
            Matcher::arrive(&mut m, env, msg).expect("software matcher is unbounded"),
            ArriveResult::Unexpected,
            "drained message {msg:?} matched during state replay"
        );
    }
    for (pattern, recv) in state.receives {
        assert_eq!(
            Matcher::post(&mut m, pattern, recv).expect("software matcher is unbounded"),
            PostResult::Posted,
            "drained receive {recv:?} matched during state replay"
        );
    }
    for cmd in state.pending {
        match cmd {
            PendingCommand::Post { pattern, handle } => {
                match Matcher::post(&mut m, pattern, handle).expect("unbounded") {
                    PostResult::Matched(msg) => {
                        asg.recv_to_msg.insert(handle, Some(msg));
                        asg.msg_to_recv.insert(msg, Some(handle));
                    }
                    PostResult::Posted => {
                        asg.recv_to_msg.insert(handle, None);
                    }
                }
            }
            PendingCommand::Arrival { env, msg } => {
                match Matcher::arrive(&mut m, env, msg).expect("unbounded") {
                    ArriveResult::Matched(recv) => {
                        asg.msg_to_recv.insert(msg, Some(recv));
                        asg.recv_to_msg.insert(recv, Some(msg));
                    }
                    ArriveResult::Unexpected => {
                        asg.msg_to_recv.insert(msg, None);
                    }
                }
            }
        }
    }
    m
}

/// Path A of the fallback oracle: apply the prefix, leave the suffix in the
/// submission queue, then fall back directly — the snapshot must carry the
/// queue.
pub fn fallback_with_queue(
    mut b: Box<dyn MatchingBackend>,
    events: &[MatchEvent],
    cut: usize,
) -> FallbackOutcome {
    let mut asg = Assignment::default();
    let (mut next_recv, mut next_msg) = (0u64, 0u64);
    for ev in &events[..cut] {
        apply_event(b.as_mut(), ev, &mut next_recv, &mut next_msg, &mut asg);
    }
    for ev in &events[cut..] {
        let cmd = to_command(ev, &mut next_recv, &mut next_msg);
        b.submit_command(cmd).expect("engine running");
    }
    let state = b.drain_for_fallback().expect("drainable backend");
    let m = replay_snapshot(state, &mut asg);
    (asg, m.pending_receives(), m.waiting_messages())
}

/// Path B of the fallback oracle: same prefix and suffix, but the queue is
/// drained (outcomes applied) before the fallback — the snapshot's pending
/// tail must then be empty.
pub fn drain_then_fallback(
    mut b: Box<dyn MatchingBackend>,
    events: &[MatchEvent],
    cut: usize,
) -> FallbackOutcome {
    let mut asg = Assignment::default();
    let (mut next_recv, mut next_msg) = (0u64, 0u64);
    for ev in &events[..cut] {
        apply_event(b.as_mut(), ev, &mut next_recv, &mut next_msg, &mut asg);
    }
    let mut cmds = Vec::new();
    for ev in &events[cut..] {
        let cmd = to_command(ev, &mut next_recv, &mut next_msg);
        b.submit_command(cmd).expect("engine running");
        cmds.push(cmd);
    }
    let report = b.drain_commands();
    assert!(report.error.is_none(), "drain failed: {:?}", report.error);
    assert!(report.unapplied.is_empty());
    assert_eq!(report.outcomes.len(), cmds.len());
    for (cmd, outcome) in cmds.iter().zip(&report.outcomes) {
        record_outcome(cmd, outcome, &mut asg);
    }
    let state = b.drain_for_fallback().expect("drainable backend");
    assert!(
        state.pending.is_empty(),
        "a drained backend has no pending commands left"
    );
    let m = replay_snapshot(state, &mut asg);
    (asg, m.pending_receives(), m.waiting_messages())
}

// ---------------------------------------------------------------------------
// Packing-equivalence oracle (the cross-communicator drain scheduler)
// ---------------------------------------------------------------------------

/// Builds a fresh engine, submits `cmds`, and drains once.
pub fn drain_once(config: MatchConfig, cmds: &[PendingCommand]) -> (OtmEngine, DrainReport) {
    let mut engine = OtmEngine::new(config).expect("valid test config");
    for &cmd in cmds {
        engine.submit(cmd).expect("engine running");
    }
    let report = engine.drain();
    (engine, report)
}

/// The sequential reference: `cmds` applied one at a time, in submission
/// order, to the unbounded [`Oracle`], each result as the outcome a drain
/// reports for that command. A drain reports its outcomes in submission
/// order too, so the two vectors compare element for element.
pub fn sequential_outcomes(cmds: &[PendingCommand]) -> Vec<CommandOutcome> {
    let mut oracle = Oracle::new();
    cmds.iter()
        .map(|&cmd| match cmd {
            PendingCommand::Post { pattern, handle } => CommandOutcome::Post {
                handle,
                result: oracle.post(pattern, handle).expect("oracle is unbounded"),
            },
            PendingCommand::Arrival { env, msg } => CommandOutcome::Delivery(
                match oracle.arrive(env, msg).expect("oracle is unbounded") {
                    ArriveResult::Matched(recv) => BlockDelivery::Matched { msg, recv },
                    ArriveResult::Unexpected => BlockDelivery::Unexpected { msg },
                },
            ),
        })
        .collect()
}

/// The packing-equivalence oracle, success path: one drain of the submitted
/// stream produces, command for command, the outcomes of the sequential
/// reference. Matching is communicator-local and the packer preserves
/// per-communicator command order, so however it packs blocks across
/// communicators, the full outcome vector must agree.
pub fn assert_packing_equivalence(config: MatchConfig, cmds: &[PendingCommand]) {
    let (_, report) = drain_once(config, cmds);
    assert!(report.error.is_none(), "drain failed: {:?}", report.error);
    assert!(report.unapplied.is_empty());
    assert_eq!(
        report.outcomes.len(),
        cmds.len(),
        "every command must drain"
    );
    assert_eq!(
        report.outcomes,
        sequential_outcomes(cmds),
        "the packed drain must equal the sequential oracle"
    );
}

/// Ring-backpressure companion of [`assert_packing_equivalence`]: the same
/// stream pushed through capacity-bounded per-communicator rings — draining
/// inline whenever a push bounces with `SubmissionRingFull`, exactly as a
/// caller honoring the backpressure contract would — must produce the
/// sequential reference's outcome vector. Along the way every forced inline
/// drain must consume at least one pending command (a full ring implies
/// pending work, so a drain that applies nothing would livelock the retry
/// loop).
pub fn assert_ring_equivalence(config: MatchConfig, cmds: &[PendingCommand]) {
    let mut engine = OtmEngine::new(config).expect("valid test config");
    let mut outcomes = Vec::new();
    for &cmd in cmds {
        loop {
            match engine.submit(cmd) {
                Ok(()) => break,
                Err(MatchError::SubmissionRingFull { .. }) => {
                    assert!(
                        engine.pending_commands() > 0,
                        "a full ring implies pending work"
                    );
                    let report = engine.drain();
                    assert!(
                        report.error.is_none(),
                        "inline drain failed: {:?}",
                        report.error
                    );
                    assert!(
                        !report.outcomes.is_empty(),
                        "no-livelock: a drain with pending work must consume commands"
                    );
                    outcomes.extend(report.outcomes);
                }
                Err(e) => panic!("engine running: {e}"),
            }
        }
    }
    let report = engine.drain();
    assert!(
        report.error.is_none(),
        "final drain failed: {:?}",
        report.error
    );
    assert!(report.unapplied.is_empty());
    outcomes.extend(report.outcomes);
    assert_eq!(outcomes.len(), cmds.len(), "every command must drain");
    assert_eq!(
        outcomes,
        sequential_outcomes(cmds),
        "the bounded-ring drain must equal the sequential oracle"
    );
}

/// Identity of a command within one test stream: posts by receive handle,
/// arrivals by message handle (each unique on its side).
fn command_key(cmd: &PendingCommand) -> (bool, u64) {
    match *cmd {
        PendingCommand::Post { handle, .. } => (true, handle.0),
        PendingCommand::Arrival { msg, .. } => (false, msg.0),
    }
}

/// The same identity recovered from a drained outcome.
fn outcome_key(outcome: &CommandOutcome) -> (bool, u64) {
    match *outcome {
        CommandOutcome::Post { handle, .. } => (true, handle.0),
        CommandOutcome::Delivery(d) => (false, d.msg().0),
    }
}

fn command_comm(cmd: &PendingCommand) -> CommId {
    match cmd {
        PendingCommand::Post { pattern, .. } => pattern.comm,
        PendingCommand::Arrival { env, .. } => env.comm,
    }
}

/// The failure-contract oracle: drained once (typically with tables sized
/// to trip resource exhaustion mid-stream), the [`DrainReport`] must
/// satisfy the error contract:
///
/// * the reported outcomes and the leftover commands (the requeued tail on
///   a retryable error, [`DrainReport::unapplied`] on a terminal one)
///   partition the submitted stream exactly;
/// * outcomes and leftovers each keep submission order;
/// * per communicator, the applied commands are a prefix of that
///   communicator's submitted subsequence — the FIFO oracle even under
///   cross-communicator reordering.
pub fn assert_drain_failure_contract(config: MatchConfig, cmds: &[PendingCommand]) {
    let (engine, report) = drain_once(config, cmds);
    let leftover: Vec<PendingCommand> = match &report.error {
        Some(e) if e.is_retryable() => {
            assert!(
                report.unapplied.is_empty(),
                "retryable errors requeue instead of surfacing unapplied"
            );
            engine.drain_for_fallback().pending
        }
        Some(_) => report.unapplied.clone(),
        None => {
            assert!(report.unapplied.is_empty());
            Vec::new()
        }
    };

    let applied: Vec<(bool, u64)> = report.outcomes.iter().map(outcome_key).collect();
    let applied_set: HashSet<(bool, u64)> = applied.iter().copied().collect();
    assert_eq!(
        applied_set.len(),
        applied.len(),
        "an outcome was reported twice"
    );
    let left: Vec<(bool, u64)> = leftover.iter().map(command_key).collect();
    assert_eq!(
        applied.len() + left.len(),
        cmds.len(),
        "outcomes and leftovers must partition the submitted stream"
    );
    for k in &left {
        assert!(
            !applied_set.contains(k),
            "command both applied and left over"
        );
    }

    let order: HashMap<(bool, u64), usize> = cmds
        .iter()
        .enumerate()
        .map(|(i, c)| (command_key(c), i))
        .collect();
    let position = |k: &(bool, u64)| -> usize {
        *order.get(k).expect("outcome refers to a submitted command")
    };
    assert!(
        applied
            .windows(2)
            .all(|w| position(&w[0]) < position(&w[1])),
        "outcomes must be reported in submission order"
    );
    assert!(
        left.windows(2).all(|w| position(&w[0]) < position(&w[1])),
        "leftovers must keep submission order"
    );

    // Per-communicator FIFO: once one of a communicator's commands is left
    // unapplied, every later command of that communicator must be too.
    let mut cut: HashSet<CommId> = HashSet::new();
    for cmd in cmds {
        let comm = command_comm(cmd);
        if applied_set.contains(&command_key(cmd)) {
            assert!(
                !cut.contains(&comm),
                "{comm:?} applied a command after an unapplied one"
            );
        } else {
            cut.insert(comm);
        }
    }
}
