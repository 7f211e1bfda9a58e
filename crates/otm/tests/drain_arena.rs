//! The drain's working memory belongs to the engine, not to one drain, and
//! its queues lose, duplicate and reorder nothing.
//!
//! `OtmEngine::drain` keeps its scheduler and its outcome and peak vectors
//! from one drain to the next. Whatever a drain leaves in them must not
//! reach the next one: not a command a failed drain staged and requeued,
//! not an outcome, not a communicator created since, and not a shard a
//! reset must empty. And the communicators' bounded queues, drained in
//! seeded interleavings through every capacity from one command up, must
//! hand each command over exactly once, in its communicator's order, with
//! the outcome a serialized oracle gives it.

use mpi_matching::oracle::{MatchEvent, Oracle};
use mpi_matching::{ArriveResult, Matcher, MsgHandle, RecvHandle};
use otm::{Command, CommandOutcome, Delivery, OtmEngine};
use otm_base::{
    CommHints, CommId, Envelope, FaultRng, MatchConfig, MatchError, Rank, ReceivePattern,
    SourceSel, Tag, TagSel,
};

#[path = "../../../tests/support/prop.rs"]
mod prop;

fn arrival(comm: u16, tag: u32, msg: u64) -> Command {
    Command::Arrival {
        env: Envelope::new(Rank(0), Tag(tag), CommId(comm)),
        msg: MsgHandle(msg),
    }
}

fn post(comm: u16, tag: u32, recv: u64) -> Command {
    Command::Post {
        pattern: ReceivePattern::new(Rank(0), Tag(tag), CommId(comm)),
        handle: RecvHandle(recv),
    }
}

/// What a script saw: every drain's outcomes (pooled, sorted: a failed
/// drain moves where a command is applied, never what it is matched with),
/// each drain's error, and the direct posts' results.
#[derive(Debug, Default, PartialEq)]
struct Seen {
    outcomes: Vec<String>,
    errors: Vec<Option<MatchError>>,
    direct: Vec<String>,
}

impl Seen {
    fn drain(&mut self, engine: &mut OtmEngine) {
        let report = engine.drain();
        assert!(report.unapplied.is_empty(), "only retryable failures here");
        let outcomes = report.outcomes.iter().map(|o| format!("{o:?}"));
        self.outcomes.extend(outcomes);
        self.errors.push(report.error);
    }
}

/// Communicator 1 takes six arrivals no receive waits for while
/// communicator 2 posts and matches beside it; then, after two drains,
/// direct posts take two of the waiting messages; then a communicator no
/// drain has seen gets a matched pair, and communicator 1's other four
/// messages their receives.
fn script(engine: &mut OtmEngine) -> Seen {
    let mut seen = Seen::default();
    for tag in 1..=6 {
        let (msg, recv) = (u64::from(tag), u64::from(tag));
        engine.submit(arrival(1, tag, msg)).unwrap();
        engine.submit(post(2, tag, 100 + recv)).unwrap();
        engine.submit(arrival(2, tag, 100 + msg)).unwrap();
    }
    seen.drain(engine);
    seen.drain(engine);
    for tag in 1..=2 {
        let pattern = ReceivePattern::new(Rank(0), Tag(tag), CommId(1));
        let result = engine.post(pattern, RecvHandle(u64::from(tag)));
        seen.direct.push(format!("{result:?}"));
    }
    seen.drain(engine);
    engine.submit(post(3, 9, 300)).unwrap();
    engine.submit(arrival(3, 9, 300)).unwrap();
    for tag in 3..=6 {
        engine.submit(post(1, tag, u64::from(tag))).unwrap();
    }
    seen.drain(engine);
    assert_eq!(engine.pending_commands(), 0);
    seen.outcomes.sort();
    seen
}

#[test]
fn drains_after_a_retryable_failure_agree_with_an_engine_that_never_failed() {
    // Four unexpected slots per communicator and blocks of four: the second
    // block puts two more of communicator 1's arrivals on a full store.
    let tiny = MatchConfig::small().with_max_unexpected(4);
    let mut engine = OtmEngine::new(tiny.clone()).unwrap();
    // Warm the arena on other traffic first, and reset it away.
    for round in 0..3 {
        for tag in 0..8 {
            let comm = 1 + (tag % 3) as u16;
            engine.submit(post(comm, tag, 0)).unwrap();
            engine.submit(arrival(comm, tag, round)).unwrap();
        }
        assert_eq!(engine.drain().error, None);
    }
    engine.reset().unwrap();
    let failed = script(&mut engine);
    let store_full = Some(MatchError::UnexpectedStoreFull);
    assert_eq!(
        failed.errors,
        [store_full.clone(), store_full, None, None],
        "twice stopped, then freed by the direct posts"
    );
    let mut fresh = OtmEngine::new(tiny.clone().with_max_unexpected(64)).unwrap();
    let never_failed = script(&mut fresh);
    assert_eq!(never_failed.errors, vec![None; 4]);
    assert_eq!(failed.outcomes, never_failed.outcomes);
    assert_eq!(failed.direct, never_failed.direct);
    assert_eq!(engine.stats(), fresh.stats());
    assert_eq!((engine.prq_len(), engine.umq_len()), (0, 0));
    // The arena shares no shard a reset empties.
    engine.reset().unwrap();
    assert_eq!(engine.stats(), OtmEngine::new(tiny).unwrap().stats());
}

#[test]
fn a_communicator_created_between_two_drains_is_seen_by_the_second() {
    let mut engine = OtmEngine::new(MatchConfig::small()).unwrap();
    engine.submit(post(1, 0, 0)).unwrap();
    engine.submit(arrival(1, 0, 0)).unwrap();
    assert_eq!(engine.drain().outcomes.len(), 2);
    // One created by a submit, one declared with hints before its first use.
    engine.submit(post(2, 0, 1)).unwrap();
    engine
        .declare_comm(CommId(3), CommHints::no_wildcards())
        .unwrap();
    engine.submit(arrival(3, 0, 2)).unwrap();
    engine.submit(arrival(2, 0, 1)).unwrap();
    let report = engine.drain();
    assert_eq!(report.error, None);
    assert_eq!(report.outcomes.len(), 3);
    assert_eq!(engine.pending_commands(), 0);
    assert_eq!((engine.prq_len(), engine.umq_len()), (0, 1));
    assert_eq!(
        engine.comm_hints(CommId(3)),
        Some(CommHints::no_wildcards())
    );
    // A reset drops the snapshot with the shards: a communicator that comes
    // back after it is found again.
    engine.reset().unwrap();
    engine.submit(post(3, 0, 3)).unwrap();
    engine.submit(arrival(3, 0, 3)).unwrap();
    assert_eq!(engine.drain().outcomes.len(), 2);
    assert_eq!((engine.prq_len(), engine.umq_len()), (0, 0));
}

#[test]
fn a_queue_refuses_at_exactly_its_capacity_until_a_drain_frees_it() {
    let mut engine = OtmEngine::new(MatchConfig::small().with_ring_capacity(3)).unwrap();
    for msg in 0..3 {
        engine.submit(arrival(1, 0, msg)).unwrap();
    }
    let refused = engine.submit(arrival(1, 0, 3)).unwrap_err();
    assert_eq!(refused, MatchError::SubmissionRingFull { comm: 1 });
    assert!(refused.is_retryable());
    assert_eq!(engine.pending_commands(), 3, "nothing refused is queued");
    // Another communicator's queue is its own.
    engine.submit(arrival(2, 0, 9)).unwrap();
    assert_eq!(engine.drain().outcomes.len(), 4);
    engine
        .submit(arrival(1, 0, 3))
        .expect("the drain made room");
    assert_eq!(engine.pending_commands(), 1);
}

#[test]
fn commands_a_failed_drain_puts_back_keep_their_queue_slots() {
    // Blocks of two into a store of two: the second block finds it full.
    let config = MatchConfig::small()
        .with_ring_capacity(3)
        .with_block_threads(2)
        .with_max_unexpected(2);
    let mut engine = OtmEngine::new(config).unwrap();
    for msg in 0..3 {
        engine.submit(arrival(1, msg as u32, msg)).unwrap();
    }
    let report = engine.drain();
    assert_eq!(report.error, Some(MatchError::UnexpectedStoreFull));
    assert_eq!(report.outcomes.len(), 2);
    assert_eq!(engine.pending_commands(), 1);
    // The requeued arrival holds one of the queue's three slots.
    engine.submit(post(1, 2, 2)).unwrap();
    engine.submit(post(1, 3, 3)).unwrap();
    let refused = engine.submit(arrival(1, 5, 5));
    assert_eq!(refused, Err(MatchError::SubmissionRingFull { comm: 1 }));
    // Direct posts empty the store, and the retry resumes at the arrival.
    for tag in 0..2 {
        let pattern = ReceivePattern::new(Rank(0), Tag(tag), CommId(1));
        engine.post(pattern, RecvHandle(u64::from(tag))).unwrap();
    }
    let report = engine.drain();
    assert_eq!(report.error, None);
    let unexpected = Delivery::Unexpected { msg: MsgHandle(2) };
    let matched = mpi_matching::PostResult::Matched(MsgHandle(2));
    let posted = mpi_matching::PostResult::Posted;
    assert_eq!(
        report.outcomes,
        [
            CommandOutcome::Delivery(unexpected),
            CommandOutcome::Post {
                handle: RecvHandle(2),
                result: matched
            },
            CommandOutcome::Post {
                handle: RecvHandle(3),
                result: posted
            },
        ]
    );
    engine.submit(arrival(1, 5, 5)).unwrap();
}

/// A communicator's seeded script over a small (rank, tag) space, so
/// duplicates and wildcards collide often: runs of 1 to 64 posts, exact and
/// wildcard, each followed by up to eight arrivals.
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

/// Probes `comm` for the oldest waiting message, and for the oldest tagged 0.
fn probes(
    comm: CommId,
    probe: impl Fn(&ReceivePattern) -> Option<MsgHandle>,
) -> [Option<MsgHandle>; 2] {
    [TagSel::Any, TagSel::Tag(Tag(0))]
        .map(|tag| probe(&ReceivePattern::new(SourceSel::Any, tag, comm)))
}

/// Runs `per_comm`'s scripts, communicator `i + 1` the `i`-th, through one
/// engine whose queues hold `capacity` commands, in a seeded interleaving:
/// each step, a communicator with commands left submits its next one, which
/// is what any interleaving of one submitter per communicator comes to. A
/// full queue is drained and the same command submitted again, and a drain
/// also runs at random. Each communicator's commands go, once queued, to a
/// serialized oracle of their own. The drains' outcomes, end to end, must be
/// the oracles' results in submission order: nothing lost, duplicated or
/// reordered. And between drains, probing a communicator must find what its
/// oracle finds.
fn run_schedule(seed: u64, per_comm: &[Vec<MatchEvent>], capacity: usize) {
    let mut rng = FaultRng::new(seed);
    let config = MatchConfig::default()
        .with_block_threads(4)
        .with_bins(32)
        .with_max_receives(4096)
        .with_max_unexpected(4096)
        .with_ring_capacity(capacity);
    let mut engine = OtmEngine::new(config).unwrap();
    let mut oracles: Vec<Oracle> = per_comm.iter().map(|_| Oracle::new()).collect();
    let (mut expected, mut outcomes, mut refusals) = (Vec::new(), Vec::new(), 0);
    let drain = |engine: &mut OtmEngine, oracles: &[Oracle], outcomes: &mut Vec<_>| {
        let report = engine.drain();
        assert_eq!(report.error, None, "seed {seed:#x}");
        outcomes.extend(report.outcomes);
        assert_eq!(engine.pending_commands(), 0);
        for (c, oracle) in oracles.iter().enumerate() {
            let comm = CommId(c as u16 + 1);
            assert_eq!(
                probes(comm, |p| engine.probe(p)),
                probes(comm, |p| oracle.probe(p)),
                "seed {seed:#x}, {comm} after {} outcomes",
                outcomes.len()
            );
        }
    };
    let mut next = vec![0; per_comm.len()];
    for handle in 0.. {
        let open: Vec<usize> = (0..per_comm.len())
            .filter(|&c| next[c] < per_comm[c].len())
            .collect();
        let Some(&c) = open.get(rng.below(open.len().max(1) as u64) as usize) else {
            break;
        };
        let event = per_comm[c][next[c]];
        next[c] += 1;
        let cmd = match event {
            MatchEvent::Post(pattern) => Command::Post {
                pattern,
                handle: RecvHandle(handle),
            },
            MatchEvent::Arrive(env) => Command::Arrival {
                env,
                msg: MsgHandle(handle),
            },
        };
        while let Err(e) = engine.submit(cmd) {
            let comm = c as u16 + 1;
            assert_eq!(e, MatchError::SubmissionRingFull { comm });
            refusals += 1;
            drain(&mut engine, &oracles, &mut outcomes);
        }
        expected.push(match cmd {
            Command::Post { pattern, handle } => CommandOutcome::Post {
                handle,
                result: oracles[c].post(pattern, handle).unwrap(),
            },
            Command::Arrival { env, msg } => {
                CommandOutcome::Delivery(match oracles[c].arrive(env, msg).unwrap() {
                    ArriveResult::Matched(recv) => Delivery::Matched { msg, recv },
                    ArriveResult::Unexpected => Delivery::Unexpected { msg },
                })
            }
        });
        if rng.chance(20) {
            drain(&mut engine, &oracles, &mut outcomes);
        }
    }
    drain(&mut engine, &oracles, &mut outcomes);
    assert!(
        refusals > 0,
        "seed {seed:#x}: no queue of {capacity} filled"
    );
    assert_eq!(outcomes, expected, "seed {seed:#x}");
}

#[test]
fn tiny_queues_lose_duplicate_and_reorder_nothing() {
    for seed in 0..8u64 {
        let mut rng = FaultRng::new(0xC0FFEE ^ seed);
        let per_comm: Vec<_> = (1..=4)
            .map(|c| comm_runs(&mut rng, CommId(c), 150))
            .collect();
        run_schedule(0x5EED ^ seed, &per_comm, 1 + seed as usize);
    }
}

#[test]
fn lopsided_communicators_through_tiny_queues_match_their_oracles() {
    let mut rng = FaultRng::new(0xD15C0);
    let per_comm = [
        comm_runs(&mut rng, CommId(1), 400),
        comm_runs(&mut rng, CommId(2), 10),
    ];
    run_schedule(0xD15C0, &per_comm, 3);
}
