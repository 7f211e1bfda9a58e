//! Communicator-hint behaviour (§VII): wildcard assertions are enforced,
//! and `mpi_assert_allow_overtaking` communicators match without the
//! ordering machinery while still pairing every message with a
//! pattern-correct receive.

use mpi_matching::{MatchingBackend, MsgHandle, PostResult, RecvHandle};
use otm::{Command, CommandOutcome, Delivery, OtmEngine};
use otm_base::{CommHints, CommId, Envelope, MatchConfig, MatchError, Rank, ReceivePattern, Tag};
use std::collections::HashSet;

fn engine() -> OtmEngine {
    OtmEngine::new(
        MatchConfig::default()
            .with_block_threads(8)
            .with_max_receives(512)
            .with_bins(64),
    )
    .unwrap()
}

#[test]
fn wildcard_assertions_reject_violating_receives() {
    let mut e = engine();
    let comm = CommId(1);
    e.declare_comm(comm, CommHints::no_wildcards()).unwrap();
    // Fully-specified receives are fine.
    e.post(ReceivePattern::new(Rank(0), Tag(0), comm), RecvHandle(0))
        .unwrap();
    // Wildcards violate the assertion.
    let any_src = ReceivePattern::new(otm_base::SourceSel::Any, Tag(0), comm);
    assert!(matches!(
        e.post(any_src, RecvHandle(1)),
        Err(MatchError::HintViolation(_))
    ));
    let any_tag = ReceivePattern::new(Rank(0), otm_base::TagSel::Any, comm);
    assert!(matches!(
        e.post(any_tag, RecvHandle(2)),
        Err(MatchError::HintViolation(_))
    ));
}

#[test]
fn a_queued_post_its_hints_forbid_is_refused_at_submission() {
    // The queue refuses what the direct path refuses, when the command is
    // submitted: nothing enters a ring, and the queued commands around it,
    // on its communicator or another, drain untouched.
    let mut e = engine();
    let (strict, other) = (CommId(1), CommId(2));
    e.declare_comm(strict, CommHints::no_wildcards()).unwrap();
    let post = |pattern, h| Command::Post {
        pattern,
        handle: RecvHandle(h),
    };
    let arrival = |comm, h| Command::Arrival {
        env: Envelope::new(Rank(0), Tag(0), comm),
        msg: MsgHandle(h),
    };
    let exact = |comm| ReceivePattern::new(Rank(0), Tag(0), comm);
    e.submit(post(exact(strict), 0)).unwrap();
    // Both ways in: the shared submit and the exclusive one.
    let any_src = ReceivePattern::new(otm_base::SourceSel::Any, Tag(0), strict);
    assert!(matches!(
        e.submit(post(any_src, 1)),
        Err(MatchError::HintViolation(_))
    ));
    let any_tag = ReceivePattern::new(Rank(0), otm_base::TagSel::Any, strict);
    assert!(matches!(
        MatchingBackend::submit_command(&mut e, post(any_tag, 2)),
        Err(MatchError::HintViolation(_))
    ));
    assert_eq!(e.pending_commands(), 1);
    let wildcard_elsewhere = ReceivePattern::new(otm_base::SourceSel::Any, Tag(0), other);
    e.submit(post(wildcard_elsewhere, 3)).unwrap();
    e.submit(arrival(strict, 4)).unwrap();
    e.submit(arrival(other, 5)).unwrap();
    let report = e.drain();
    assert_eq!(report.error, None);
    let matched = |msg, recv| {
        CommandOutcome::Delivery(Delivery::Matched {
            msg: MsgHandle(msg),
            recv: RecvHandle(recv),
        })
    };
    let posted = |h| CommandOutcome::Post {
        handle: RecvHandle(h),
        result: PostResult::Posted,
    };
    assert_eq!(
        report.outcomes,
        [posted(0), posted(3), matched(4, 0), matched(5, 3)]
    );
    assert_eq!(e.stats().posted, 2);
}

#[test]
fn single_assertions_ban_only_their_wildcard() {
    let mut e = engine();
    let comm = CommId(2);
    e.declare_comm(
        comm,
        CommHints {
            no_any_source: true,
            ..Default::default()
        },
    )
    .unwrap();
    // ANY_TAG is still allowed.
    e.post(
        ReceivePattern::new(Rank(0), otm_base::TagSel::Any, comm),
        RecvHandle(0),
    )
    .unwrap();
    // ANY_SOURCE is not.
    let p = ReceivePattern::new(otm_base::SourceSel::Any, Tag(0), comm);
    assert!(matches!(
        e.post(p, RecvHandle(1)),
        Err(MatchError::HintViolation(_))
    ));
}

#[test]
fn hints_must_be_declared_before_first_use() {
    let mut e = engine();
    let comm = CommId(3);
    e.post(ReceivePattern::new(Rank(0), Tag(0), comm), RecvHandle(0))
        .unwrap();
    assert!(matches!(
        e.declare_comm(comm, CommHints::relaxed()),
        Err(MatchError::InvalidConfig(_))
    ));
    // Undeclared communicators default to full semantics.
    assert_eq!(e.comm_hints(comm), Some(CommHints::NONE));
}

#[test]
fn hinted_comm_still_matches_correctly() {
    let mut e = engine();
    let comm = CommId(4);
    e.declare_comm(comm, CommHints::no_wildcards()).unwrap();
    for i in 0..8u32 {
        e.post(
            ReceivePattern::new(Rank(0), Tag(i), comm),
            RecvHandle(u64::from(i)),
        )
        .unwrap();
    }
    let msgs: Vec<(Envelope, MsgHandle)> = (0..8u32)
        .map(|i| {
            (
                Envelope::new(Rank(0), Tag(i), comm),
                MsgHandle(u64::from(i)),
            )
        })
        .collect();
    let d = e.process_block(&msgs).unwrap();
    for (i, del) in d.iter().enumerate() {
        assert_eq!(del.matched(), Some(RecvHandle(i as u64)));
    }
}

#[test]
fn allow_overtaking_pairs_every_message_with_a_matching_receive() {
    // The WC storm on a relaxed communicator: ordering is waived, but the
    // pairing must still be one-to-one and pattern-correct.
    let mut e = engine();
    let comm = CommId(5);
    e.declare_comm(
        comm,
        CommHints {
            allow_overtaking: true,
            ..Default::default()
        },
    )
    .unwrap();
    let n = 64u64;
    for i in 0..n {
        e.post(ReceivePattern::new(Rank(0), Tag(0), comm), RecvHandle(i))
            .unwrap();
    }
    let msgs: Vec<(Envelope, MsgHandle)> = (0..n)
        .map(|i| (Envelope::new(Rank(0), Tag(0), comm), MsgHandle(i)))
        .collect();
    let deliveries = e.process_stream(&msgs).unwrap();
    let mut recvs = HashSet::new();
    for d in &deliveries {
        match d {
            Delivery::Matched { recv, .. } => {
                assert!(recvs.insert(*recv), "receive {recv:?} consumed twice");
                assert!(recv.0 < n);
            }
            Delivery::Unexpected { msg } => panic!("message {msg:?} missed a waiting receive"),
        }
    }
    assert_eq!(recvs.len(), n as usize);
    // The relaxed path books nothing, so no conflicts are ever detected.
    let stats = e.stats();
    assert_eq!(stats.direct_conflicts, 0, "{stats:?}");
    assert_eq!(stats.fast_path + stats.slow_path, 0, "{stats:?}");
}

#[test]
fn relaxed_and_strict_comms_coexist_in_one_block() {
    let mut e = engine();
    let relaxed = CommId(6);
    e.declare_comm(relaxed, CommHints::relaxed()).unwrap();
    // Strict WORLD receives (ordered) + relaxed comm receives.
    for i in 0..4u64 {
        e.post(ReceivePattern::exact(Rank(0), Tag(0)), RecvHandle(i))
            .unwrap();
        e.post(
            ReceivePattern::new(Rank(0), Tag(0), relaxed),
            RecvHandle(100 + i),
        )
        .unwrap();
    }
    let mut msgs = Vec::new();
    for i in 0..4u64 {
        msgs.push((Envelope::world(Rank(0), Tag(0)), MsgHandle(i)));
        msgs.push((Envelope::new(Rank(0), Tag(0), relaxed), MsgHandle(100 + i)));
    }
    let deliveries = e.process_block(&msgs).unwrap();
    // Strict lanes must preserve order among themselves (C2).
    let strict: Vec<_> = deliveries
        .iter()
        .filter(|d| d.msg().0 < 100)
        .map(|d| d.matched().unwrap())
        .collect();
    assert_eq!(
        strict,
        vec![RecvHandle(0), RecvHandle(1), RecvHandle(2), RecvHandle(3)]
    );
    // Relaxed lanes must each get one of the relaxed receives.
    let relaxed_recvs: HashSet<_> = deliveries
        .iter()
        .filter(|d| d.msg().0 >= 100)
        .map(|d| d.matched().unwrap())
        .collect();
    assert_eq!(relaxed_recvs.len(), 4);
    assert!(relaxed_recvs.iter().all(|r| r.0 >= 100));
    // A relaxed lane's first search is a sample like a strict lane's: the
    // histogram and the counters come from the same per-lane depths.
    let (stats, snap) = (e.stats(), e.metrics_snapshot());
    let depths = &snap.hists["otm_search_depth"];
    assert_eq!(stats.search_count, 8);
    assert_eq!(
        (depths.count, depths.sum, depths.max),
        (
            stats.search_count,
            stats.search_depth_sum,
            stats.search_depth_max
        )
    );
}

#[test]
fn relaxed_unexpected_messages_still_park_and_match_later() {
    let mut e = engine();
    let comm = CommId(7);
    e.declare_comm(
        comm,
        CommHints {
            allow_overtaking: true,
            ..Default::default()
        },
    )
    .unwrap();
    let d = e
        .process_block(&[(Envelope::new(Rank(2), Tag(3), comm), MsgHandle(0))])
        .unwrap();
    assert_eq!(d[0], Delivery::Unexpected { msg: MsgHandle(0) });
    let r = e
        .post(ReceivePattern::new(Rank(2), Tag(3), comm), RecvHandle(0))
        .unwrap();
    assert_eq!(r, mpi_matching::PostResult::Matched(MsgHandle(0)));
}

#[test]
fn repeated_relaxed_storms_never_lose_receives() {
    // Stress: many racing rounds on a relaxed communicator; the pairing
    // must stay one-to-one every round.
    let mut e = OtmEngine::new(
        MatchConfig::default()
            .with_block_threads(32)
            .with_max_receives(2048)
            .with_bins(64),
    )
    .unwrap();
    let comm = CommId(8);
    e.declare_comm(comm, CommHints::relaxed()).unwrap();
    for round in 0..30u64 {
        for i in 0..32u64 {
            e.post(
                ReceivePattern::new(Rank(0), Tag(0), comm),
                RecvHandle(round * 32 + i),
            )
            .unwrap();
        }
        let msgs: Vec<(Envelope, MsgHandle)> = (0..32u64)
            .map(|i| {
                (
                    Envelope::new(Rank(0), Tag(0), comm),
                    MsgHandle(round * 32 + i),
                )
            })
            .collect();
        let d = e.process_block(&msgs).unwrap();
        let unique: HashSet<_> = d.iter().filter_map(|x| x.matched()).collect();
        assert_eq!(
            unique.len(),
            32,
            "round {round}: duplicate or missed receives"
        );
    }
    assert_eq!(e.prq_len(), 0);
}
