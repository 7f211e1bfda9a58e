//! The drain's working memory belongs to the engine, not to one drain.
//!
//! `OtmEngine::drain` keeps its scheduler, its outcome and peak vectors, the
//! merge's head cache and its directory snapshot from one drain to the next.
//! Whatever a drain leaves in them must not reach the next one: not a
//! command a failed drain staged and requeued, not an outcome, not a
//! snapshot that misses a communicator created since, and not a shard a
//! reset must empty.

use mpi_matching::{MsgHandle, RecvHandle};
use otm::{Command, OtmEngine};
use otm_base::{CommHints, CommId, Envelope, MatchConfig, MatchError, Rank, ReceivePattern, Tag};

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
    fn drain(&mut self, engine: &OtmEngine) {
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
