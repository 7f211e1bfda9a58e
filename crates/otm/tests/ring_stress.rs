//! Multi-producer submission-ring stress (plain `std::thread`, run under
//! TSan in the nightly job): producer threads hammer tiny per-communicator
//! rings through the engine's `&self` submit path — two of them sharing one
//! ring, so the CAS tail claim really contends — while the single drain
//! consumer runs concurrently. Ring-full answers are retried by the
//! producers (that is the backpressure contract), and at the end every
//! submitted command must have been applied exactly once: no loss, no
//! duplication, no arrival overtaking its own post.

use mpi_matching::{MsgHandle, PostResult, RecvHandle};
use otm::{Command, CommandOutcome, Delivery, OtmEngine};
use otm_base::{CommId, Envelope, MatchConfig, MatchError, Rank, ReceivePattern, Tag};
use std::sync::Arc;
use std::thread;

const PRODUCERS: usize = 4;
const PER_PRODUCER: u64 = 300;

/// Submits one command, yielding through ring-full backpressure: the drain
/// on the main thread is the only thing that frees slots.
fn submit_retrying(engine: &OtmEngine, cmd: Command) {
    loop {
        match engine.submit(cmd) {
            Ok(()) => return,
            Err(MatchError::SubmissionRingFull { .. }) => thread::yield_now(),
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
}

#[test]
fn concurrent_producers_through_tiny_rings_lose_and_duplicate_nothing() {
    let config = MatchConfig::default()
        .with_ring_capacity(8)
        .with_max_receives(4096)
        .with_lane_quota(Some(4));
    let engine = Arc::new(OtmEngine::new(config).unwrap());
    // Threads 0 and 1 share communicator 7 — a genuinely multi-producer
    // ring; threads 2 and 3 own their communicators, so the drain also
    // exercises the cross-lane min-ticket merge under load.
    let comms = [CommId(7), CommId(7), CommId(2), CommId(3)];

    let mut workers = Vec::new();
    for (t, comm) in comms.iter().copied().enumerate().take(PRODUCERS) {
        let engine = Arc::clone(&engine);
        workers.push(thread::spawn(move || {
            for i in 0..PER_PRODUCER {
                // Pair id doubles as the handle, the message and (low bits)
                // the tag, so every outcome self-identifies.
                let id = (t as u64) * 1_000_000 + i;
                let tag = Tag((t as u32) * 100_000 + i as u32);
                submit_retrying(
                    &engine,
                    Command::Post {
                        pattern: ReceivePattern::new(Rank(0), tag, comm),
                        handle: RecvHandle(id),
                    },
                );
                submit_retrying(
                    &engine,
                    Command::Arrival {
                        env: Envelope::new(Rank(0), tag, comm),
                        msg: MsgHandle(id),
                    },
                );
            }
        }));
    }

    // The single consumer drains concurrently with the producers. Tags are
    // unique per pair and each producer pushes post-then-arrival, so every
    // arrival must come back Matched against its own post.
    let expect = (PRODUCERS as u64) * PER_PRODUCER;
    let mut posted = 0u64;
    let mut matched: Vec<u64> = Vec::new();
    let mut rounds = 0u64;
    while posted < expect || (matched.len() as u64) < expect {
        rounds += 1;
        assert!(rounds < 10_000_000, "drain loop failed to converge");
        let report = engine.drain();
        assert!(report.error.is_none(), "clean run: {:?}", report.error);
        for outcome in report.outcomes {
            match outcome {
                CommandOutcome::Post {
                    result: PostResult::Posted,
                    ..
                } => posted += 1,
                CommandOutcome::Post {
                    handle,
                    result: PostResult::Matched(msg),
                } => {
                    assert_eq!(handle.0, msg.0, "a pair only matches itself");
                    posted += 1;
                    matched.push(msg.0);
                }
                CommandOutcome::Delivery(Delivery::Matched { msg, recv }) => {
                    assert_eq!(recv.0, msg.0, "a pair only matches itself");
                    matched.push(msg.0);
                }
                CommandOutcome::Delivery(Delivery::Unexpected { msg }) => {
                    panic!("arrival {msg:?} overtook its post in a FIFO lane");
                }
            }
        }
        thread::yield_now();
    }
    for w in workers {
        w.join().unwrap();
    }

    // Fully quiescent: nothing left in any ring, every pair accounted for.
    let report = engine.drain();
    assert!(report.outcomes.is_empty(), "rings must be empty at the end");
    assert_eq!(posted, expect);
    matched.sort_unstable();
    let expected: Vec<u64> = (0..PRODUCERS as u64)
        .flat_map(|t| (0..PER_PRODUCER).map(move |i| t * 1_000_000 + i))
        .collect();
    assert_eq!(matched, expected, "every pair matched exactly once");
}

#[test]
fn ring_full_is_retryable_backpressure_at_the_engine_boundary() {
    // Capacity 2: the third submit into one communicator bounces with the
    // retryable SubmissionRingFull, a drain frees the slots, and the very
    // same command then goes through.
    let engine = OtmEngine::new(MatchConfig::small().with_ring_capacity(2)).unwrap();
    let arrival = |i: u64| Command::Arrival {
        env: Envelope::world(Rank(0), Tag(0)),
        msg: MsgHandle(i),
    };
    engine.submit(arrival(0)).unwrap();
    engine.submit(arrival(1)).unwrap();
    let err = engine.submit(arrival(2)).unwrap_err();
    assert!(
        matches!(err, MatchError::SubmissionRingFull { comm: 0 }),
        "got {err:?}"
    );
    assert!(err.is_retryable(), "ring-full must be retryable");
    assert_eq!(
        engine.pending_commands(),
        2,
        "the bounced command is not enqueued"
    );

    let report = engine.drain();
    assert!(report.error.is_none());
    assert_eq!(report.outcomes.len(), 2);
    engine
        .submit(arrival(2))
        .expect("the drain freed ring slots");
    assert_eq!(engine.pending_commands(), 1);
}

/// A drain works on the communicator directory as it stood at entry. Three
/// full rings are the backlog; two racers keep refilling two of them while
/// the drain runs, and a third submitter creates a communicator the drain
/// has never seen — after it has proof that the drain is past its entry: a
/// submit into the third full ring only succeeds once the drain has popped
/// from it, which is after the snapshot. Whatever the interleaving, the late
/// communicator's commands belong to the *next* drain, and nothing is lost,
/// duplicated or reordered within a communicator.
#[test]
fn communicator_created_mid_drain_waits_for_the_next_drain() {
    const RING: u64 = 1024;
    const EXTRA: u64 = 600;
    const LATE: CommId = CommId(9);
    let config = MatchConfig::default()
        .with_ring_capacity(RING as usize)
        .with_max_unexpected(4096);
    let engine = Arc::new(OtmEngine::new(config).unwrap());
    // Every id names its communicator and its position in that
    // communicator's submission order.
    let arrival = |comm: CommId, i: u64| Command::Arrival {
        env: Envelope::new(Rank(0), Tag(i as u32), comm),
        msg: MsgHandle(u64::from(comm.0) * 1_000_000 + i),
    };
    // Round-robin, so the drain's very first pop frees a slot of ring 1.
    for i in 0..RING {
        for comm in 1..=3 {
            engine.submit(arrival(CommId(comm), i)).unwrap();
        }
    }
    assert!(matches!(
        engine.submit(arrival(CommId(1), RING)),
        Err(MatchError::SubmissionRingFull { comm: 1 })
    ));

    let start = Arc::new(std::sync::Barrier::new(4));
    let mut workers = Vec::new();
    for comm in [CommId(2), CommId(3)] {
        let (engine, start) = (Arc::clone(&engine), Arc::clone(&start));
        workers.push(thread::spawn(move || {
            start.wait();
            for i in RING..RING + EXTRA {
                submit_retrying(&engine, arrival(comm, i));
            }
        }));
    }
    {
        let (engine, start) = (Arc::clone(&engine), Arc::clone(&start));
        workers.push(thread::spawn(move || {
            start.wait();
            submit_retrying(&engine, arrival(CommId(1), RING));
            for i in 0..EXTRA {
                submit_retrying(&engine, arrival(LATE, i));
            }
        }));
    }
    start.wait();
    let mut reports = vec![engine.drain()];
    for w in workers {
        w.join().unwrap();
    }
    loop {
        let report = engine.drain();
        if report.outcomes.is_empty() {
            break;
        }
        reports.push(report);
    }

    let ids = |report: &otm::DrainReport| -> Vec<u64> {
        assert!(report.error.is_none(), "clean run: {:?}", report.error);
        report
            .outcomes
            .iter()
            .map(|outcome| match outcome {
                CommandOutcome::Delivery(Delivery::Unexpected { msg }) => msg.0,
                other => panic!("nothing was posted, got {other:?}"),
            })
            .collect()
    };
    assert!(
        ids(&reports[0]).iter().all(|id| id / 1_000_000 != 9),
        "the first drain's snapshot predates communicator 9"
    );
    assert!(reports.len() >= 2, "communicator 9 needs a later drain");
    // In drain order every communicator's ids count up from 0 without a gap:
    // nothing lost, nothing duplicated, nothing overtaken.
    let mut next = std::collections::BTreeMap::new();
    for id in reports.iter().flat_map(ids) {
        let expected = next.entry(id / 1_000_000).or_insert(0u64);
        assert_eq!(id % 1_000_000, *expected, "communicator {}", id / 1_000_000);
        *expected += 1;
    }
    let expected = [
        (1, RING + 1),
        (2, RING + EXTRA),
        (3, RING + EXTRA),
        (9, EXTRA),
    ];
    assert_eq!(next.into_iter().collect::<Vec<_>>(), expected);
}
