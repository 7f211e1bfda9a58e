//! A drain's runs of posts apply what the same steps apply one call at a
//! time.
//!
//! `OtmEngine::drain` applies a run of posts on one communicator step after
//! step straight into its shard. What the run applies must be what the same
//! steps applied one call at a time give: the drain's own step sequence (a
//! standalone `PackingScheduler` with the engine's window) replayed through
//! the direct `post` and `process_block` of a second engine. And a run that
//! stops on a full receive table must leave the failed post and everything
//! behind it queued, as if it had never been tried.

use mpi_matching::oracle::MatchEvent;
use mpi_matching::{MsgHandle, RecvHandle};
use otm::scheduler::{PackingScheduler, PackingStep};
use otm::{Command, CommandOutcome, OtmEngine};
use otm_base::{
    CommHints, CommId, Envelope, FaultRng, MatchConfig, MatchError, Rank, ReceivePattern, Tag,
};
use std::collections::{BTreeMap, VecDeque};

#[path = "../../../tests/support/prop.rs"]
mod prop;

const COMMS: u16 = 4;

fn config(max_receives: usize) -> MatchConfig {
    MatchConfig::default()
        .with_block_threads(8)
        .with_bins(16)
        .with_max_receives(max_receives)
        .with_max_unexpected(4096)
        .with_ring_capacity(4096)
}

fn comm_of(cmd: &Command) -> CommId {
    match cmd {
        Command::Post { pattern, .. } => pattern.comm,
        Command::Arrival { env, .. } => env.comm,
    }
}

/// A seeded post-heavy script on four communicators: `runs` runs of 1 to 64
/// posts on one communicator (60 % exact, the rest spread over the three
/// wildcard classes), each followed by up to eight arrivals on any of them.
fn script(rng: &mut FaultRng, runs: usize, next: &mut (u64, u64)) -> Vec<Command> {
    let mut cmds = Vec::new();
    let mut push = |ev: MatchEvent, cmds: &mut Vec<Command>| {
        cmds.push(match ev {
            MatchEvent::Post(pattern) => {
                next.0 += 1;
                Command::Post {
                    pattern,
                    handle: RecvHandle(next.0),
                }
            }
            MatchEvent::Arrive(env) => {
                next.1 += 1;
                Command::Arrival {
                    env,
                    msg: MsgHandle(next.1),
                }
            }
        })
    };
    for _ in 0..runs {
        let comm = CommId(1 + rng.below(u64::from(COMMS)) as u16);
        for _ in 0..1 + rng.below(64) {
            push(prop::event_mix(rng, comm, 3, 3, [0, 6, 1, 1, 1]), &mut cmds);
        }
        for _ in 0..rng.below(9) {
            let comm = CommId(1 + rng.below(u64::from(COMMS)) as u16);
            push(prop::event_mix(rng, comm, 3, 3, [1, 0, 0, 0, 0]), &mut cmds);
        }
    }
    cmds
}

/// The depth gauges a drain publishes, by name and communicator.
type Gauges = BTreeMap<String, i64>;

fn raise(gauges: &mut Gauges, family: &str, comm: CommId, depth: usize) {
    let peak = gauges
        .entry(format!("{family}{{comm=\"{}\"}}", comm.0))
        .or_insert(0);
    *peak = (*peak).max(depth as i64);
}

/// Applies `cmds` (ticketed from `first`) to `engine` as one drain would
/// step them, one direct call a step, and returns the outcomes in ticket
/// order. The peaks the drain would publish go into `gauges`: each lane's
/// and each ring's depth after every refill, over the communicators `known`
/// at drain entry.
fn replay_drain(
    engine: &mut OtmEngine,
    cmds: &[Command],
    first: u64,
    known: &[CommId],
    gauges: &mut Gauges,
) -> Vec<CommandOutcome> {
    let window = engine.effective_packing_window();
    let mut sched = PackingScheduler::new(engine.config().block_threads);
    let (mut next, mut outcomes) = (0, Vec::new());
    loop {
        let refill = next;
        while next < cmds.len() && sched.staged() < window {
            sched.admit(VecDeque::from([(first + next as u64, cmds[next])]));
            next += 1;
        }
        if next > refill {
            for (comm, depth) in sched.lane_depths() {
                raise(gauges, "otm_drain_lane_depth_peak", comm, depth);
            }
            for &comm in known {
                let ringed = cmds[next..].iter().filter(|c| comm_of(c) == comm).count();
                raise(gauges, "otm_submission_ring_depth_peak", comm, ringed);
            }
        }
        match sched.next_step() {
            None => break,
            Some(PackingStep::Post {
                idx,
                pattern,
                handle,
            }) => {
                let result = engine.post(pattern, handle).unwrap();
                outcomes.push((idx, CommandOutcome::Post { handle, result }));
            }
            Some(PackingStep::Block { msgs }) => {
                let block: Vec<_> = msgs.iter().map(|&(_, env, msg)| (env, msg)).collect();
                let deliveries = engine.process_block(&block).unwrap();
                for (&(idx, _, _), d) in msgs.iter().zip(deliveries) {
                    outcomes.push((idx, CommandOutcome::Delivery(d)));
                }
            }
        }
    }
    outcomes.sort_by_key(|&(idx, _)| idx);
    outcomes.into_iter().map(|(_, o)| o).collect()
}

#[test]
fn post_runs_equal_the_same_steps_applied_one_call_at_a_time() {
    for seed in 0..6u64 {
        let mut rng = FaultRng::new(0x0009_0572 ^ seed);
        let mut handles = (0, 0);
        let phases: Vec<Vec<Command>> =
            (0..3).map(|_| script(&mut rng, 12, &mut handles)).collect();
        let mut drained = OtmEngine::new(config(4096)).unwrap();
        let mut direct = OtmEngine::new(config(4096)).unwrap();
        let (mut known, mut gauges, mut ticket) = (Vec::new(), Gauges::new(), 0);
        for (phase, cmds) in phases.iter().enumerate() {
            for &cmd in cmds {
                drained.submit(cmd).unwrap();
                if !known.contains(&comm_of(&cmd)) {
                    known.push(comm_of(&cmd));
                }
            }
            let report = drained.drain();
            assert_eq!(report.error, None, "seed {seed} phase {phase}");
            let want = replay_drain(&mut direct, cmds, ticket, &known, &mut gauges);
            assert_eq!(report.outcomes, want, "seed {seed} phase {phase}");
            ticket += cmds.len() as u64;
        }
        assert_eq!(drained.stats(), direct.stats(), "seed {seed}");
        assert_eq!(drained.metrics_snapshot().gauges, gauges, "seed {seed}");
    }
}

/// Exact receives as `(communicator, tag, handle)`, posts only:
/// communicator 1's ahead of a run of 24 on communicator 2, then some on
/// all three. The drain serves communicator 1's lane first, so the run
/// starts after twelve posts.
fn posts_around_a_run() -> Vec<(u16, u32, u64)> {
    let mut posts = Vec::new();
    for tag in 0..6 {
        posts.push((1, tag, 100 + u64::from(tag)));
    }
    for tag in 0..24 {
        posts.push((2, tag, 200 + u64::from(tag)));
    }
    for tag in 6..12 {
        posts.push((3, tag, 300 + u64::from(tag)));
        posts.push((1, tag, 100 + u64::from(tag)));
        posts.push((2, 24 + tag, 224 + u64::from(tag)));
    }
    posts
}

/// Every outcome of `engine`'s drains (pooled and sorted: a failed drain
/// moves where a command is applied, never what it is matched with), and
/// each drain's error.
#[derive(Debug, Default, PartialEq)]
struct Seen {
    outcomes: Vec<String>,
    errors: Vec<Option<MatchError>>,
}

impl Seen {
    fn drain(&mut self, engine: &mut OtmEngine) {
        let report = engine.drain();
        assert!(report.unapplied.is_empty(), "a full table is retryable");
        let outcomes = report.outcomes.iter().map(|o| format!("{o:?}"));
        self.outcomes.extend(outcomes);
        self.errors.push(report.error);
    }
}

/// Submits [`posts_around_a_run`] and drains; matches communicator 2's
/// first fifteen receives directly and drains again; then sends every other
/// receive its message.
/// `check` runs right after the first drain.
fn run_with_a_block_between(engine: &mut OtmEngine, check: impl FnOnce(&OtmEngine)) -> Seen {
    let posts = posts_around_a_run();
    let mut seen = Seen::default();
    for &(comm, tag, recv) in &posts {
        let pattern = ReceivePattern::new(Rank(0), Tag(tag), CommId(comm));
        let handle = RecvHandle(recv);
        engine.submit(Command::Post { pattern, handle }).unwrap();
    }
    seen.drain(engine);
    check(engine);
    let freeing: Vec<_> = (0..15)
        .map(|tag| {
            (
                Envelope::new(Rank(0), Tag(tag), CommId(2)),
                MsgHandle(tag.into()),
            )
        })
        .collect();
    let freed = engine.process_stream(&freeing).unwrap();
    assert!(freed.iter().all(|d| d.matched().is_some()));
    seen.drain(engine);
    for (comm, tag, recv) in posts {
        if comm != 2 || recv >= 215 {
            let env = Envelope::new(Rank(0), Tag(tag), CommId(comm));
            let msg = MsgHandle(1000 + recv);
            engine.submit(Command::Arrival { env, msg }).unwrap();
        }
    }
    seen.drain(engine);
    assert_eq!(engine.pending_commands(), 0);
    seen.outcomes.sort();
    seen
}

#[test]
fn a_run_stopped_by_a_full_table_requeues_and_resumes_exactly() {
    // Communicator 2 has room for 16 receives; its run of 24 stops at the
    // 17th. The drain requeues that post and everything behind it, and
    // the communicator answers a caller at once.
    let mut failing = OtmEngine::new(config(16)).unwrap();
    let failed = run_with_a_block_between(&mut failing, |engine| {
        assert_eq!(engine.comm_hints(CommId(2)), Some(CommHints::NONE));
        let pattern = ReceivePattern::new(Rank(0), Tag(0), CommId(2));
        assert_eq!(engine.probe(&pattern), None);
        assert_eq!(engine.stats().posted, 12 + 16);
        assert_eq!(engine.pending_commands(), posts_around_a_run().len() - 28);
    });
    assert_eq!(
        failed.errors,
        [Some(MatchError::ReceiveTableFull), None, None]
    );
    // An engine with room for everything applies the same commands without
    // a failure: every outcome and every counter reads the same.
    let mut roomy = OtmEngine::new(config(64)).unwrap();
    let clean = run_with_a_block_between(&mut roomy, |_| {});
    assert_eq!(clean.errors, [None, None, None]);
    assert_eq!(failed.outcomes, clean.outcomes);
    assert_eq!(failing.stats(), roomy.stats());
}
