//! Property-based tests (proptest): randomized workloads over every engine,
//! asserting oracle equivalence and structural invariants.

mod support;

use mpi_matching::binned::BinnedMatcher;
use mpi_matching::oracle::{MatchEvent, Oracle};
use mpi_matching::rank_based::RankBasedMatcher;
use mpi_matching::traditional::TraditionalMatcher;
use mpi_matching::{Matcher, MatchingBackend};
use otm::{Command, CommandOutcome, OtmEngine, SequentialOtm};
use otm_base::envelope::{SourceSel, TagSel};
use otm_base::{CommId, Envelope, MatchConfig, PackingPolicy, Rank, ReceivePattern, Tag};
use otm_trace::emul::FourIndexMatcher;
use proptest::prelude::*;
use support::{
    assert_drain_failure_contract, assert_packing_equivalence, assert_ring_equivalence,
    drain_then_fallback, fallback_oracle_config, fallback_with_queue, to_command,
};

/// Strategy: one matching event over a small (rank, tag) space — small so
/// wildcards and duplicates collide often.
fn event_strategy() -> impl Strategy<Value = MatchEvent> {
    let src = 0u32..3;
    let tag = 0u32..3;
    prop_oneof![
        4 => (src.clone(), tag.clone())
            .prop_map(|(s, t)| MatchEvent::Arrive(Envelope::world(Rank(s), Tag(t)))),
        3 => (src.clone(), tag.clone())
            .prop_map(|(s, t)| MatchEvent::Post(ReceivePattern::exact(Rank(s), Tag(t)))),
        1 => tag.clone().prop_map(|t| MatchEvent::Post(ReceivePattern::any_source(Tag(t)))),
        1 => src.prop_map(|s| MatchEvent::Post(ReceivePattern::any_tag(Rank(s)))),
        1 => Just(MatchEvent::Post(ReceivePattern::any_any())),
    ]
}

/// Strategy: one event tagged with its communicator shard — an interleaved
/// multi-communicator stream for the command-queue property.
fn comm_event_strategy() -> impl Strategy<Value = (u16, MatchEvent)> {
    let comm = 0u16..3;
    let src = 0u32..3;
    let tag = 0u32..3;
    (comm, src, tag, 0u8..10).prop_map(|(c, s, t, kind)| {
        let comm = CommId(c + 1);
        let ev = match kind {
            0..=3 => MatchEvent::Arrive(Envelope::new(Rank(s), Tag(t), comm)),
            4..=6 => MatchEvent::Post(ReceivePattern::new(Rank(s), Tag(t), comm)),
            7 => MatchEvent::Post(ReceivePattern::new(SourceSel::Any, Tag(t), comm)),
            8 => MatchEvent::Post(ReceivePattern::new(Rank(s), TagSel::Any, comm)),
            _ => MatchEvent::Post(ReceivePattern::new(SourceSel::Any, TagSel::Any, comm)),
        };
        (c, ev)
    })
}

/// Strategy: an arbitrary engine-stats snapshot with fields bounded to 32
/// bits, so `merge`'s component-wise sums can never overflow.
fn stats_snapshot_strategy() -> impl Strategy<Value = otm::StatsSnapshot> {
    proptest::collection::vec(0u64..(1 << 32), 16).prop_map(|v| otm::StatsSnapshot {
        blocks: v[0],
        messages: v[1],
        matched: v[2],
        unexpected: v[3],
        optimistic_ok: v[4],
        direct_conflicts: v[5],
        induced_resolutions: v[6],
        fast_path: v[7],
        slow_path: v[8],
        search_depth_sum: v[9],
        search_count: v[10],
        search_depth_max: v[11],
        matched_on_post: v[12],
        posted: v[13],
        umq_depth_sum: v[14],
        umq_search_count: v[15],
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// All sequential engines equal the oracle on arbitrary event streams.
    #[test]
    fn sequential_engines_equal_oracle(events in prop::collection::vec(event_strategy(), 0..200)) {
        let expect = Oracle::run(&events);
        let mut engines: Vec<Box<dyn Matcher>> = vec![
            Box::new(TraditionalMatcher::new()),
            Box::new(BinnedMatcher::new(1)),
            Box::new(BinnedMatcher::new(16)),
            Box::new(RankBasedMatcher::new()),
            Box::new(FourIndexMatcher::new(1)),
            Box::new(FourIndexMatcher::new(16)),
        ];
        for engine in &mut engines {
            let got = Oracle::drive(engine.as_mut(), &events).unwrap();
            prop_assert_eq!(&got, &expect, "{} diverged", engine.strategy_name());
            prop_assert!(got.is_consistent());
        }
    }

    /// The parallel engine equals the oracle when arrivals are chunked into
    /// blocks of arbitrary size at arbitrary post boundaries.
    #[test]
    fn parallel_engine_equals_oracle(
        events in prop::collection::vec(event_strategy(), 0..120),
        block in 1usize..9,
    ) {
        let expect = Oracle::run(&events);
        let config = MatchConfig::default()
            .with_block_threads(block)
            .with_max_receives(1024)
            .with_max_unexpected(1024)
            .with_bins(16);
        let mut engine = OtmEngine::new(config).unwrap();
        let mut asg = mpi_matching::Assignment::default();
        let mut next_recv = 0u64;
        let mut next_msg = 0u64;
        let mut pending: Vec<(Envelope, mpi_matching::MsgHandle)> = Vec::new();
        let flush = |engine: &mut OtmEngine,
                         pending: &mut Vec<(Envelope, mpi_matching::MsgHandle)>,
                         asg: &mut mpi_matching::Assignment| {
            for d in engine.process_stream(pending).unwrap() {
                match d {
                    otm::Delivery::Matched { msg, recv } => {
                        asg.msg_to_recv.insert(msg, Some(recv));
                        asg.recv_to_msg.insert(recv, Some(msg));
                    }
                    otm::Delivery::Unexpected { msg } => {
                        asg.msg_to_recv.insert(msg, None);
                    }
                }
            }
            pending.clear();
        };
        for ev in &events {
            match *ev {
                MatchEvent::Post(p) => {
                    // Posts drain the pending arrivals first (QP ordering).
                    flush(&mut engine, &mut pending, &mut asg);
                    let h = mpi_matching::RecvHandle(next_recv);
                    next_recv += 1;
                    match engine.post(p, h).unwrap() {
                        mpi_matching::PostResult::Matched(m) => {
                            asg.recv_to_msg.insert(h, Some(m));
                            asg.msg_to_recv.insert(m, Some(h));
                        }
                        mpi_matching::PostResult::Posted => {
                            asg.recv_to_msg.insert(h, None);
                        }
                    }
                }
                MatchEvent::Arrive(env) => {
                    pending.push((env, mpi_matching::MsgHandle(next_msg)));
                    next_msg += 1;
                }
            }
        }
        flush(&mut engine, &mut pending, &mut asg);
        prop_assert_eq!(&asg, &expect);
        prop_assert!(asg.is_consistent());
    }

    /// Queue-length invariant: posts+arrivals conserve — every event is
    /// matched exactly once or sits in exactly one queue.
    #[test]
    fn conservation_of_events(events in prop::collection::vec(event_strategy(), 0..200)) {
        let mut m = TraditionalMatcher::new();
        let asg = Oracle::drive(&mut m, &events).unwrap();
        let posts = events.iter().filter(|e| matches!(e, MatchEvent::Post(_))).count();
        let arrivals = events.len() - posts;
        let pairs = asg.pairs();
        prop_assert_eq!(m.prq_len(), posts - pairs);
        prop_assert_eq!(m.umq_len(), arrivals - pairs);
        let stats = m.stats();
        prop_assert_eq!(stats.matched_on_arrival + stats.matched_on_post, pairs as u64);
    }

    /// Interleaved multi-communicator posts and arrivals pushed through the
    /// engine's command queue and drained in blocks produce, for every
    /// communicator, exactly the serialized oracle's match set: matching is
    /// communicator-local and the queue preserves per-communicator order.
    #[test]
    fn command_queue_interleavings_equal_serialized_oracle(
        events in prop::collection::vec(comm_event_strategy(), 0..160),
    ) {
        use mpi_matching::{Assignment, MsgHandle, PostResult, RecvHandle};
        const COMMS: usize = 3;
        const BASE: u64 = 1_000_000;
        let config = MatchConfig::default()
            .with_block_threads(4)
            .with_max_receives(1024)
            .with_max_unexpected(1024)
            .with_bins(16);
        let engine = OtmEngine::new(config).unwrap();

        // Submit everything in the generated global interleaving.
        let mut next_recv = [0u64; COMMS];
        let mut next_msg = [0u64; COMMS];
        let mut submitted: Vec<(u16, Command)> = Vec::new();
        for &(c, ev) in &events {
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
        prop_assert!(report.error.is_none(), "drain failed: {:?}", report.error);
        prop_assert_eq!(report.outcomes.len(), submitted.len());

        // Outcomes come back in submission order; rebuild each
        // communicator's observed assignment from the pairing.
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
                    prop_assert_eq!(*out, handle, "outcome echoes the wrong handle");
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
                    prop_assert_eq!(*out, handle, "outcome echoes the wrong handle");
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
                _ => prop_assert!(false, "outcome kind does not match its command"),
            }
        }

        // Per communicator, the serialized oracle over that communicator's
        // subsequence (translated into its handle range) must agree.
        for c in 0..COMMS {
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
            prop_assert!(observed[c].is_consistent());
            prop_assert_eq!(&observed[c], &expect, "communicator {} diverged", c);
        }
    }

    /// The loss-free fallback oracle: for every drainable backend, falling
    /// back with commands still sitting in the submission queue is
    /// equivalent to draining the queue first and falling back afterwards.
    /// Both paths replay their [`FallbackState`] into a fresh software
    /// matcher the way the service migrates (state first — which must not
    /// match — then pending commands, which may); the resulting match
    /// assignment and residual queues must be identical. Synchronous
    /// backends take the same path with an empty pending tail, pinning the
    /// snapshot-totality contract across the whole fleet.
    #[test]
    fn fallback_with_pending_queue_equals_drain_then_fallback(
        events in prop::collection::vec(event_strategy(), 1..80),
        cut_pct in 0usize..100,
    ) {
        let cut = events.len() * cut_pct / 100;
        let factories: Vec<(&'static str, fn() -> Box<dyn MatchingBackend>)> = vec![
            ("traditional", || Box::new(TraditionalMatcher::new())),
            ("binned", || Box::new(BinnedMatcher::new(16))),
            ("four-index", || Box::new(FourIndexMatcher::new(16))),
            ("optimistic-seq", || {
                Box::new(SequentialOtm::new(fallback_oracle_config()).unwrap())
            }),
            ("optimistic-dpa", || {
                Box::new(OtmEngine::new(fallback_oracle_config()).unwrap())
            }),
        ];
        for (name, make) in factories {
            let queued = fallback_with_queue(make(), &events, cut);
            let drained = drain_then_fallback(make(), &events, cut);
            prop_assert_eq!(queued, drained, "{} diverged", name);
        }
    }

    /// The packing-equivalence property: draining the same interleaved
    /// multi-communicator stream under the cross-communicator scheduler
    /// produces exactly the consecutive drain's outcomes, command for
    /// command — the block-filling reordering is invisible to MPI matching
    /// semantics. (`tests/packing_equivalence.rs` is the seeded
    /// deterministic companion.)
    #[test]
    fn packed_drain_equals_consecutive_drain(
        events in prop::collection::vec(comm_event_strategy(), 0..160),
    ) {
        let (mut next_recv, mut next_msg) = (0u64, 0u64);
        let cmds: Vec<mpi_matching::PendingCommand> = events
            .iter()
            .map(|(_, ev)| to_command(ev, &mut next_recv, &mut next_msg))
            .collect();
        assert_packing_equivalence(fallback_oracle_config(), &cmds);
    }

    /// The bounded-ring property: lane rotation, per-lane quotas and
    /// capacity-bounded submission rings composed together still satisfy
    /// packed≡consecutive — the same stream pushed through tiny rings,
    /// draining inline on every `SubmissionRingFull` bounce, equals the
    /// never-full-ring oracle under either packing policy. The helper
    /// also asserts no-livelock: every forced inline drain consumes at
    /// least one pending command, so the submit-retry loop always makes
    /// progress. (`tests/packing_equivalence.rs` has the seeded
    /// deterministic companion that runs in the nightly TSan job.)
    #[test]
    fn bounded_rings_with_rotation_and_quota_preserve_equivalence(
        events in prop::collection::vec(comm_event_strategy(), 0..160),
        quota in 1usize..5,
        capacity in 2usize..17,
    ) {
        let (mut next_recv, mut next_msg) = (0u64, 0u64);
        let cmds: Vec<mpi_matching::PendingCommand> = events
            .iter()
            .map(|(_, ev)| to_command(ev, &mut next_recv, &mut next_msg))
            .collect();
        let config = fallback_oracle_config()
            .with_ring_capacity(capacity)
            .with_lane_quota(Some(quota));
        assert_ring_equivalence(config, &cmds);
    }

    /// Injected-failure companion: with tables sized to overflow
    /// mid-stream, both packing policies keep the `DrainReport` contract —
    /// outcomes plus the requeued/unapplied tail partition the stream,
    /// both keep submission order, and each communicator's applied
    /// commands are a prefix of its subsequence.
    #[test]
    fn packed_drain_failure_contract(
        events in prop::collection::vec(comm_event_strategy(), 1..160),
    ) {
        let config = MatchConfig::default()
            .with_block_threads(4)
            .with_max_receives(8)
            .with_max_unexpected(8)
            .with_bins(4);
        let (mut next_recv, mut next_msg) = (0u64, 0u64);
        let cmds: Vec<mpi_matching::PendingCommand> = events
            .iter()
            .map(|(_, ev)| to_command(ev, &mut next_recv, &mut next_msg))
            .collect();
        for packing in [PackingPolicy::Consecutive, PackingPolicy::CrossComm] {
            assert_drain_failure_contract(config.clone(), packing, &cmds);
        }
    }

    /// The analyzer's four-index matcher records depth samples for every
    /// event and its outcome counters always sum up.
    #[test]
    fn four_index_stats_are_complete(
        events in prop::collection::vec(event_strategy(), 0..150),
        bins in 1usize..64,
    ) {
        let mut m = FourIndexMatcher::new(bins);
        Oracle::drive(&mut m, &events).unwrap();
        let stats = m.stats();
        let posts = events.iter().filter(|e| matches!(e, MatchEvent::Post(_))).count() as u64;
        let arrivals = events.len() as u64 - posts;
        prop_assert_eq!(stats.umq_search.count, posts);
        prop_assert_eq!(stats.prq_search.count, arrivals);
        prop_assert_eq!(stats.matched_on_post + stats.posted, posts);
        prop_assert_eq!(stats.matched_on_arrival + stats.unexpected, arrivals);
    }

    /// The chaos oracle over random seeds: a hostile wire (drops,
    /// duplicates, reorders and delays at 10%+ each, recovered by the
    /// reliability protocol) never changes a matched (receive, message)
    /// pair relative to the fault-free run — on the synchronous path and
    /// through the command-queue drain alike, with and without receive-side
    /// staging, across sender window sizes, and with the reorder
    /// rate cranked far above the drop rate (the regime where the staging
    /// buffer does the most work). A fault budget keeps every case live;
    /// past it the wire is perfect.
    #[test]
    fn chaos_faulty_wire_preserves_matched_pairs(
        workload_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        queued in any::<bool>(),
        staging in any::<bool>(),
        reorder_heavy in any::<bool>(),
        window in prop::option::of(4usize..48),
    ) {
        let reorder = if reorder_heavy { 350 } else { 120 };
        let plan = otm_base::FaultPlan::new(fault_seed)
            .with_drop_permille(120)
            .with_duplicate_permille(120)
            .with_reorder_permille(reorder)
            .with_delay_permille(100)
            .with_max_faults(300);
        // Capacity 0 is the discard path: nothing staged, nothing SACKed.
        let staging = if staging { None } else { Some(0) };
        support::chaos::assert_chaos_equivalence(
            workload_seed, plan, 3, 16, queued, window, staging,
        );
    }

    /// `StatsSnapshot::merge` followed by `delta` recovers the merged-in
    /// contribution exactly: the algebra behind interval measurement
    /// (flight-recorder deltas) and per-rank aggregation. The search-depth
    /// high-water mark is the one non-counter field — `delta` keeps the
    /// current (merged) maximum rather than subtracting.
    #[test]
    fn stats_merge_then_delta_roundtrips(
        a in stats_snapshot_strategy(),
        b in stats_snapshot_strategy(),
    ) {
        let merged = a.merge(&b);
        let recovered = merged.delta(&a);
        let expected = otm::StatsSnapshot {
            search_depth_max: a.search_depth_max.max(b.search_depth_max),
            ..b.clone()
        };
        prop_assert_eq!(recovered, expected);
        prop_assert_eq!(a.merge(&b), b.merge(&a));
        // Delta against itself zeroes every counter; the high-water mark
        // stays (it upper-bounds the empty interval's maximum).
        let self_delta = a.delta(&a);
        let zeroed = otm::StatsSnapshot {
            search_depth_max: a.search_depth_max,
            ..Default::default()
        };
        prop_assert_eq!(self_delta, zeroed);
    }

    /// The matchd fairness property (deterministic companion:
    /// `tests/tenant_fairness.rs`): arbitrary multi-tenant submission
    /// schedules with arbitrary per-tenant quanta, pushed through the fair
    /// drain, (a) never let one tenant drain more than its deficit cap in a
    /// single round, (b) lose nothing — every admitted pair completes once
    /// the schedule settles — and (c) keep per-tenant FIFO: completions
    /// come back in handle-mint order.
    #[test]
    fn matchd_fair_drain_is_bounded_lossless_and_fifo(
        rounds in prop::collection::vec(prop::collection::vec(0usize..5, 3), 1..25),
        quanta in prop::collection::vec(1usize..9, 3),
    ) {
        use dpa_sim::{MatchServer, MatchdConfig, TenantConfig};
        const CAPACITY: usize = 32;
        const CAP_QUANTA: u64 = 4;
        let config = MatchConfig::default()
            .with_block_threads(4)
            .with_max_receives(1 << 14)
            .with_max_unexpected(1 << 14)
            .with_bins(16)
            .with_lane_quota(Some(4));
        let mut server = MatchServer::new(
            config,
            MatchdConfig {
                tenant: TenantConfig::default(),
                deficit_cap_quanta: CAP_QUANTA,
                ..MatchdConfig::default()
            },
        )
        .unwrap();
        let sessions: Vec<dpa_sim::TenantSession> = quanta
            .iter()
            .enumerate()
            .map(|(i, &q)| {
                server.open_tenant_with(TenantConfig {
                    capacity: CAPACITY,
                    quantum: q,
                    comm: Some(CommId(i as u16 + 1)),
                })
            })
            .collect();
        let mut admitted = vec![0u64; sessions.len()];
        let mut drained_before = vec![0u64; sessions.len()];
        for (r, round) in rounds.iter().enumerate() {
            for (i, (&pairs, session)) in round.iter().zip(&sessions).enumerate() {
                for p in 0..pairs {
                    // Pairs are admitted atomically: skip when the ingress
                    // cannot hold both halves, so every admitted post has
                    // its message and "lossless" means `completed == admitted`.
                    if session.stats().ingress_depth + 2 > CAPACITY {
                        break;
                    }
                    let tag = Tag(((r * 31 + p) % 11) as u32);
                    let src = Rank(session.tenant().0 as u32);
                    let pattern = ReceivePattern::new(src, tag, session.comm().unwrap());
                    prop_assert!(session.submit_post(pattern).is_admitted());
                    prop_assert!(session.submit_send(tag, vec![p as u8]).is_admitted());
                    admitted[i] += 1;
                }
            }
            server.tick().unwrap();
            for (i, session) in sessions.iter().enumerate() {
                let drained = session.stats().drained;
                prop_assert!(
                    drained - drained_before[i] <= quanta[i] as u64 * CAP_QUANTA,
                    "tenant {} drained {} in one round (quantum {}, cap {})",
                    i, drained - drained_before[i], quanta[i], CAP_QUANTA
                );
                drained_before[i] = drained;
            }
        }
        for _ in 0..200 {
            if sessions.iter().all(|s| s.stats().ingress_depth == 0) {
                break;
            }
            server.tick().unwrap();
        }
        server.run_ticks(2).unwrap();
        for (i, session) in sessions.iter().enumerate() {
            let stats = session.stats();
            prop_assert_eq!(stats.ingress_depth, 0, "tenant {} never settled", i);
            prop_assert_eq!(stats.completed, admitted[i], "tenant {} lost work", i);
            let seqs: Vec<u64> = session
                .take_completions()
                .iter()
                .map(|d| d.recv.0 & ((1u64 << 48) - 1))
                .collect();
            let mut sorted = seqs.clone();
            sorted.sort_unstable();
            prop_assert_eq!(seqs, sorted, "tenant {} completions out of mint order", i);
        }
    }
}
