//! Property-based tests: randomized workloads over every engine, asserting
//! oracle equivalence and structural invariants. Each property runs 64
//! seeded cases through `support::prop::cases`, which shrinks a failure to
//! the smallest failing input and prints the seed that rebuilds it.

mod support;

use mpi_matching::binned::BinnedMatcher;
use mpi_matching::oracle::{MatchEvent, Oracle};
use mpi_matching::rank_based::RankBasedMatcher;
use mpi_matching::traditional::TraditionalMatcher;
use mpi_matching::{Matcher, MsgHandle, RecvHandle};
use otm::ring::CommandRing;
use otm::{Command, CommandOutcome, OtmEngine, SequentialOtm};
use otm_base::envelope::{SourceSel, TagSel};
use otm_base::{CommId, Envelope, FaultRng, MatchConfig, PackingPolicy, Rank, ReceivePattern, Tag};
use support::prop::{self, cases, comm_event, event, range, vec};
use support::{
    assert_drain_failure_contract, assert_packing_equivalence, assert_ring_equivalence,
    command_stream, drain_then_fallback, fallback_oracle_config, fallback_with_queue,
};

/// Cases per property.
const CASES: u64 = 64;

/// An arbitrary engine-stats snapshot with fields bounded to 32 bits, so
/// `merge`'s component-wise sums can never overflow.
fn stats_snapshot(rng: &mut FaultRng) -> otm::StatsSnapshot {
    let mut field = || rng.below(1 << 32);
    otm::StatsSnapshot {
        blocks: field(),
        messages: field(),
        matched: field(),
        unexpected: field(),
        optimistic_ok: field(),
        direct_conflicts: field(),
        induced_resolutions: field(),
        fast_path: field(),
        slow_path: field(),
        search_depth_sum: field(),
        search_count: field(),
        search_depth_max: field(),
        matched_on_post: field(),
        posted: field(),
        umq_depth_sum: field(),
        umq_search_count: field(),
    }
}

/// A 64-bit value that is an extreme (0, 1, `MAX`) half the time; narrower
/// fields truncate it.
fn edgy(rng: &mut FaultRng) -> u64 {
    match rng.below(6) {
        0 => 0,
        1 => 1,
        2 => u64::MAX,
        _ => rng.next_u64(),
    }
}

/// Any `Command` a submitter can build: both kinds, concrete and wildcard
/// selectors, extremes in every field.
fn any_command(rng: &mut FaultRng) -> Command {
    let (src, tag) = (Rank(edgy(rng) as u32), Tag(edgy(rng) as u32));
    let (comm, handle) = (CommId(edgy(rng) as u16), edgy(rng));
    if rng.chance(400) {
        let env = Envelope::new(src, tag, comm);
        return Command::Arrival {
            env,
            msg: MsgHandle(handle),
        };
    }
    let src = if rng.chance(500) {
        src.into()
    } else {
        SourceSel::Any
    };
    let tag = if rng.chance(500) {
        tag.into()
    } else {
        TagSel::Any
    };
    Command::Post {
        pattern: ReceivePattern { src, tag, comm },
        handle: RecvHandle(handle),
    }
}

/// A ring slot stores a command as three atomic words: whatever goes in
/// comes out, with its ticket, in order, lap after lap of a small ring.
#[test]
fn ring_slot_words_round_trip_every_command() {
    cases(
        "ring_slot_words_round_trip_every_command",
        CASES,
        |rng, size| vec(rng, 0..200, size, |rng| (edgy(rng), any_command(rng))),
        |entries| {
            let ring = CommandRing::new(4);
            let mut queued = std::collections::VecDeque::new();
            for entry in entries {
                if ring.push(entry.0, entry.1).is_err() {
                    assert_eq!(queued.len(), 4, "only a full ring refuses");
                    assert_eq!(ring.pop(), queued.pop_front());
                    ring.push(entry.0, entry.1).unwrap();
                }
                queued.push_back(entry);
            }
            assert!(std::iter::from_fn(|| ring.pop()).eq(queued));
        },
    );
}

/// All sequential engines equal the oracle on arbitrary event streams.
#[test]
fn sequential_engines_equal_oracle() {
    cases(
        "sequential_engines_equal_oracle",
        CASES,
        |rng, size| vec(rng, 0..200, size, event),
        |events| {
            let expect = Oracle::run(&events);
            let mut engines: Vec<Box<dyn Matcher>> = vec![
                Box::new(TraditionalMatcher::new()),
                Box::new(BinnedMatcher::new(1)),
                Box::new(BinnedMatcher::new(16)),
                Box::new(RankBasedMatcher::new()),
                Box::new(SequentialOtm::new(fallback_oracle_config().with_bins(1)).unwrap()),
                Box::new(SequentialOtm::new(fallback_oracle_config()).unwrap()),
            ];
            for engine in &mut engines {
                let got = Oracle::drive(engine.as_mut(), &events).unwrap();
                assert_eq!(&got, &expect, "{} diverged", engine.strategy_name());
                assert!(got.is_consistent());
            }
        },
    );
}

/// The parallel engine equals the oracle when arrivals are chunked into
/// blocks of arbitrary size at arbitrary post boundaries.
#[test]
fn parallel_engine_equals_oracle() {
    cases(
        "parallel_engine_equals_oracle",
        CASES,
        |rng, size| {
            let block = range(rng, 1..9) as usize;
            (vec(rng, 0..120, size, event), block)
        },
        |(events, block)| {
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
            assert_eq!(&asg, &expect);
            assert!(asg.is_consistent());
        },
    );
}

/// Queue-length invariant: posts+arrivals conserve — every event is
/// matched exactly once or sits in exactly one queue.
#[test]
fn conservation_of_events() {
    cases(
        "conservation_of_events",
        CASES,
        |rng, size| vec(rng, 0..200, size, event),
        |events| {
            let mut m = TraditionalMatcher::new();
            let asg = Oracle::drive(&mut m, &events).unwrap();
            let posts = events
                .iter()
                .filter(|e| matches!(e, MatchEvent::Post(_)))
                .count();
            let arrivals = events.len() - posts;
            let pairs = asg.pairs();
            assert_eq!(Matcher::prq_len(&m), posts - pairs);
            assert_eq!(Matcher::umq_len(&m), arrivals - pairs);
            let stats = m.stats();
            assert_eq!(
                stats.matched_on_arrival + stats.matched_on_post,
                pairs as u64
            );
        },
    );
}

/// Interleaved multi-communicator posts and arrivals pushed through the
/// engine's command queue and drained in blocks produce, for every
/// communicator, exactly the serialized oracle's match set: matching is
/// communicator-local and the queue preserves per-communicator order.
#[test]
fn command_queue_interleavings_equal_serialized_oracle() {
    cases(
        "command_queue_interleavings_equal_serialized_oracle",
        CASES,
        |rng, size| vec(rng, 0..160, size, comm_event),
        |events| {
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
            assert!(report.error.is_none(), "drain failed: {:?}", report.error);
            assert_eq!(report.outcomes.len(), submitted.len());

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
                assert_eq!(observed, &expect, "communicator {} diverged", c);
            }
        },
    );
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
fn fallback_with_pending_queue_equals_drain_then_fallback() {
    cases(
        "fallback_with_pending_queue_equals_drain_then_fallback",
        CASES,
        |rng, size| {
            let cut_pct = range(rng, 0..100) as usize;
            (vec(rng, 1..80, size, event), cut_pct)
        },
        |(events, cut_pct)| {
            let cut = events.len() * cut_pct / 100;
            let factories: Vec<support::BackendFactory> = vec![
                ("traditional", || Box::new(TraditionalMatcher::new())),
                ("binned", || Box::new(BinnedMatcher::new(16))),
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
                assert_eq!(queued, drained, "{} diverged", name);
            }
        },
    );
}

/// The packing-equivalence property: draining the same interleaved
/// multi-communicator stream under the cross-communicator scheduler
/// produces exactly the consecutive drain's outcomes, command for
/// command — the block-filling reordering is invisible to MPI matching
/// semantics. (`tests/packing_equivalence.rs` is the seeded
/// deterministic companion.)
#[test]
fn packed_drain_equals_consecutive_drain() {
    cases(
        "packed_drain_equals_consecutive_drain",
        CASES,
        |rng, size| {
            let len = prop::len(rng, 0..160, size);
            command_stream(rng, len)
        },
        |cmds| assert_packing_equivalence(fallback_oracle_config(), &cmds),
    );
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
fn bounded_rings_with_rotation_and_quota_preserve_equivalence() {
    cases(
        "bounded_rings_with_rotation_and_quota_preserve_equivalence",
        CASES,
        |rng, size| {
            let quota = range(rng, 1..5) as usize;
            let capacity = range(rng, 2..17) as usize;
            let len = prop::len(rng, 0..160, size);
            (command_stream(rng, len), quota, capacity)
        },
        |(cmds, quota, capacity)| {
            let config = fallback_oracle_config()
                .with_ring_capacity(capacity)
                .with_lane_quota(Some(quota));
            assert_ring_equivalence(config, &cmds);
        },
    );
}

/// Injected-failure companion: with tables sized to overflow
/// mid-stream, both packing policies keep the `DrainReport` contract —
/// outcomes plus the requeued/unapplied tail partition the stream,
/// both keep submission order, and each communicator's applied
/// commands are a prefix of its subsequence.
#[test]
fn packed_drain_failure_contract() {
    cases(
        "packed_drain_failure_contract",
        CASES,
        |rng, size| {
            let len = prop::len(rng, 1..160, size);
            command_stream(rng, len)
        },
        |cmds| {
            let config = MatchConfig::default()
                .with_block_threads(4)
                .with_max_receives(8)
                .with_max_unexpected(8)
                .with_bins(4);
            for packing in [PackingPolicy::Consecutive, PackingPolicy::CrossComm] {
                assert_drain_failure_contract(config.clone(), packing, &cmds);
            }
        },
    );
}

/// The sequential engine the trace analyzer replays through, sized to the
/// case the way the analyzer sizes a rank's engine, records depth samples
/// for every event and its outcome counters always sum up.
#[test]
fn sequential_engine_stats_are_complete() {
    cases(
        "sequential_engine_stats_are_complete",
        CASES,
        |rng, size| {
            let bins = range(rng, 1..64) as usize;
            (vec(rng, 0..150, size, event), bins)
        },
        |(events, bins)| {
            let posts = events
                .iter()
                .filter(|e| matches!(e, MatchEvent::Post(_)))
                .count() as u64;
            let arrivals = events.len() as u64 - posts;
            let config = MatchConfig::default()
                .with_bins(bins)
                .with_block_threads(1)
                .with_max_receives(posts.max(1) as usize)
                .with_max_unexpected(arrivals.max(1) as usize);
            let mut m = SequentialOtm::new(config).unwrap();
            Oracle::drive(&mut m, &events).unwrap();
            let stats = m.stats();
            assert_eq!(stats.umq_search.count, posts);
            assert_eq!(stats.prq_search.count, arrivals);
            assert_eq!(stats.matched_on_post + stats.posted, posts);
            assert_eq!(stats.matched_on_arrival + stats.unexpected, arrivals);
        },
    );
}

/// One step of the unexpected-store model test.
#[derive(Debug, Clone, Copy)]
enum StoreOp {
    Insert(Envelope),
    MatchPost(ReceivePattern),
    Probe(ReceivePattern),
    Drain,
}

/// The unexpected store's four intrusive lists against a plain `Vec` in
/// arrival order: 2,048 random inserts, posts of all four wildcard classes,
/// probes and drains per case, over one bin (every view one list), two, and
/// 128 (mostly one key a bin), with capacities small enough to be hit. The
/// model's depth is what §IV-C says a post examines: the waiting messages, up
/// to the hit, that share the bin its class's index hashes it to.
#[test]
fn unexpected_store_equals_an_arrival_ordered_vec() {
    use otm::umq::UnexpectedStore;
    use otm_base::hash::{bin_of, hash_src, hash_src_tag, hash_tag};
    use otm_base::{ArrivalSeq, InlineHashes, MatchError};

    cases(
        "unexpected_store_equals_an_arrival_ordered_vec",
        CASES,
        |rng, size| {
            let bins = [1, 2, 128][rng.below(3) as usize];
            let capacity = range(rng, 1..48) as usize;
            let ops: Vec<StoreOp> = (0..4 * size)
                .map(|_| {
                    let draw = rng.below(100);
                    match prop::event_mix(rng, CommId::WORLD, 4, 4, [5, 2, 1, 1, 1]) {
                        _ if draw == 0 => StoreOp::Drain,
                        MatchEvent::Arrive(env) => StoreOp::Insert(env),
                        MatchEvent::Post(p) if draw < 25 => StoreOp::Probe(p),
                        MatchEvent::Post(p) => StoreOp::MatchPost(p),
                    }
                })
                .collect();
            (bins, capacity, ops)
        },
        |(bins, capacity, ops)| {
            let mut store = UnexpectedStore::new(bins, capacity);
            let mut model: Vec<(Envelope, MsgHandle, ArrivalSeq)> = Vec::new();
            // The index of the model's oldest match, and the depth of the
            // search that finds it.
            let find = |model: &[(Envelope, MsgHandle, ArrivalSeq)], p: &ReceivePattern| {
                let hit = model.iter().position(|(env, ..)| p.matches(env))?;
                let c = p.comm;
                let shares_bin = |env: &Envelope| match (p.src, p.tag) {
                    (SourceSel::Rank(s), TagSel::Tag(t)) => {
                        bin_of(hash_src_tag(s, t, c), bins)
                            == bin_of(hash_src_tag(env.src, env.tag, c), bins)
                    }
                    (SourceSel::Any, TagSel::Tag(t)) => {
                        bin_of(hash_tag(t, c), bins) == bin_of(hash_tag(env.tag, c), bins)
                    }
                    (SourceSel::Rank(s), TagSel::Any) => {
                        bin_of(hash_src(s, c), bins) == bin_of(hash_src(env.src, c), bins)
                    }
                    (SourceSel::Any, TagSel::Any) => true,
                };
                let depth = model[..=hit].iter().filter(|(e, ..)| shares_bin(e)).count();
                Some((hit, depth))
            };
            for (step, op) in ops.into_iter().enumerate() {
                let id = step as u64;
                match op {
                    StoreOp::Insert(env) => {
                        let hashes = InlineHashes::of(&env);
                        let stored = store.insert(env, &hashes, MsgHandle(id), ArrivalSeq(id));
                        if model.len() < capacity {
                            assert_eq!(stored, Ok(()), "step {step}");
                            model.push((env, MsgHandle(id), ArrivalSeq(id)));
                        } else {
                            assert_eq!(stored, Err(MatchError::UnexpectedStoreFull));
                        }
                    }
                    StoreOp::MatchPost(p) => {
                        let expected = find(&model, &p).map(|(hit, depth)| {
                            let (_, handle, arrival) = model.remove(hit);
                            (handle, arrival, depth)
                        });
                        let got = store.match_post(&p).map(|m| (m.handle, m.arrival, m.depth));
                        assert_eq!(got, expected, "step {step}: {p}");
                    }
                    StoreOp::Probe(p) => {
                        let expected = find(&model, &p).map(|(hit, _)| model[hit].1);
                        assert_eq!(store.probe(&p), expected, "step {step}: probe {p}");
                    }
                    StoreOp::Drain => {
                        let expected: Vec<_> = model.drain(..).map(|(e, h, _)| (e, h)).collect();
                        assert_eq!(store.drain(), expected, "step {step}: drain");
                    }
                }
                let waiting: Vec<MsgHandle> = model.iter().map(|&(_, h, _)| h).collect();
                assert_eq!(store.waiting(), waiting, "step {step}");
                assert_eq!(
                    (store.len(), store.available()),
                    (model.len(), capacity - model.len()),
                    "step {step}"
                );
            }
        },
    );
}

/// One step of the posted-receive model test.
#[derive(Debug, Clone, Copy)]
enum PrqOp {
    /// Post a receive; it shares the previous post's sequence id when the
    /// patterns are the same.
    Post(ReceivePattern),
    /// A lane's search for a message, consuming the candidate it finds.
    Match(Envelope),
    /// Consume the `n`-th allocated receive (modulo their number) directly.
    Tombstone(usize),
    /// The fast path's walk from the `n`-th allocated receive, `rank` steps.
    Walk(usize, usize),
    /// Block end: unlink and free the tombstones whose model position has
    /// its bit set in the mask, then start the next block.
    BlockEnd(u64),
}

/// The posted-receive indexes against a `Vec` in post-label order: random
/// posts of all four classes (runs of one pattern among them), lane-style
/// searches that consume their candidate, direct tombstones, fast-path walks
/// and block ends that unlink a random subset of the tombstones, at one bin,
/// two and 128, with `check_links` after every operation. A receive's list
/// is worked out from the hash functions, and the model's depth is what
/// §III-C says a search examines: in each of the four lists the message
/// keys, the posted receives up to that list's first match.
#[test]
fn posted_indexes_equal_a_label_ordered_vec() {
    use otm::index::{walk_sequence, PrqIndexes};
    use otm::table::{state, Payload, ReceiveTable};
    use otm_base::hash::{bin_of, hash_src, hash_src_tag, hash_tag};
    use otm_base::{CommHints, InlineHashes, MatchError, PostLabel, SeqId};

    struct Entry {
        pattern: ReceivePattern,
        label: u64,
        seq: u64,
        desc: u32,
        /// The epoch of the block that consumed it, once it has.
        consumed: Option<u64>,
    }

    cases(
        "posted_indexes_equal_a_label_ordered_vec",
        CASES,
        |rng, size| {
            let bins = [1, 2, 128][rng.below(3) as usize];
            let capacity = range(rng, 1..48) as usize;
            let mut last = ReceivePattern::any_any();
            let ops: Vec<PrqOp> = (0..4 * size)
                .map(|_| match rng.below(100) {
                    0..=4 => PrqOp::BlockEnd(rng.next_u64() | rng.next_u64()),
                    5..=14 => PrqOp::Tombstone(rng.below(64) as usize),
                    15..=29 => PrqOp::Walk(rng.below(64) as usize, rng.below(5) as usize),
                    draw => match prop::event_mix(rng, CommId::WORLD, 4, 4, [4, 3, 1, 1, 1]) {
                        MatchEvent::Arrive(env) => PrqOp::Match(env),
                        MatchEvent::Post(_) if draw < 55 => PrqOp::Post(last),
                        MatchEvent::Post(p) => {
                            last = p;
                            PrqOp::Post(p)
                        }
                    },
                })
                .collect();
            (bins, capacity, ops)
        },
        |(bins, capacity, ops)| {
            // The list a pattern is on: its class and its key's bin.
            let home = |p: &ReceivePattern| {
                let c = p.comm;
                let bin = match (p.src, p.tag) {
                    (SourceSel::Rank(s), TagSel::Tag(t)) => bin_of(hash_src_tag(s, t, c), bins),
                    (SourceSel::Any, TagSel::Tag(t)) => bin_of(hash_tag(t, c), bins),
                    (SourceSel::Rank(s), TagSel::Any) => bin_of(hash_src(s, c), bins),
                    (SourceSel::Any, TagSel::Any) => 0,
                };
                (p.wildcard_class(), bin)
            };
            let mut idx = PrqIndexes::new(bins);
            let mut table = ReceiveTable::new(capacity);
            let mut model: Vec<Entry> = Vec::new();
            let (mut epoch, mut next_label, mut seq) = (1u64, 0u64, 0u64);
            let mut last: Option<ReceivePattern> = None;
            for (step, op) in ops.into_iter().enumerate() {
                match op {
                    PrqOp::Post(pattern) => {
                        if last != Some(pattern) {
                            seq += 1;
                        }
                        last = Some(pattern);
                        let desc = table.allocate(Payload {
                            pattern,
                            label: PostLabel(next_label),
                            seq: SeqId(seq),
                            handle: next_label,
                            home: idx.home_of(&pattern),
                        });
                        if model.len() < capacity {
                            let desc = desc.unwrap();
                            idx.insert(&mut table, desc);
                            model.push(Entry {
                                pattern,
                                label: next_label,
                                seq,
                                desc,
                                consumed: None,
                            });
                            next_label += 1;
                        } else {
                            assert_eq!(desc, Err(MatchError::ReceiveTableFull), "step {step}");
                        }
                    }
                    PrqOp::Match(env) => {
                        // Each class's list the message keys: the posted
                        // receives on it up to its first match are examined.
                        let mut depth = 0;
                        let mut hit: Option<usize> = None;
                        for (src, tag) in [
                            (env.src.into(), env.tag.into()),
                            (SourceSel::Any, env.tag.into()),
                            (env.src.into(), TagSel::Any),
                            (SourceSel::Any, TagSel::Any),
                        ] {
                            let list = home(&ReceivePattern::new(src, tag, env.comm));
                            let on_list = model
                                .iter()
                                .enumerate()
                                .filter(|(_, e)| e.consumed.is_none() && home(&e.pattern) == list);
                            for (at, e) in on_list {
                                depth += 1;
                                if e.pattern.matches(&env) {
                                    hit = Some(hit.map_or(at, |h| h.min(at)));
                                    break;
                                }
                            }
                        }
                        let out =
                            idx.search(&env, &InlineHashes::of(&env), &table, 0, CommHints::NONE);
                        let got = out.candidate.map(|c| (c.desc, c.label.0));
                        let expected = hit.map(|at| (model[at].desc, model[at].label));
                        assert_eq!((got, out.depth), (expected, depth), "step {step}: {env}");
                        assert!(!out.skipped_booked);
                        if let Some(at) = hit {
                            assert!(table.slot(model[at].desc).try_consume(epoch));
                            model[at].consumed = Some(epoch);
                        }
                    }
                    PrqOp::Tombstone(n) if !model.is_empty() => {
                        let len = model.len();
                        let e = &mut model[n % len];
                        if e.consumed.is_none() {
                            assert!(table.slot(e.desc).try_consume(epoch), "step {step}");
                            e.consumed = Some(epoch);
                        }
                    }
                    PrqOp::Walk(n, rank) if !model.is_empty() => {
                        // From the candidate, `rank` steps down its list, each
                        // in the same sequence and not consumed in an older
                        // block.
                        let at = n % model.len();
                        let (cand, list) = (&model[at], home(&model[at].pattern));
                        let expected = if rank == 0 {
                            Some(cand.desc)
                        } else {
                            model[at + 1..]
                                .iter()
                                .filter(|e| home(&e.pattern) == list)
                                .take(rank)
                                .take_while(|e| {
                                    e.seq == cand.seq && e.consumed.unwrap_or(epoch) == epoch
                                })
                                .nth(rank - 1)
                                .map(|e| e.desc)
                        };
                        let got = walk_sequence(&table, cand.desc, rank, SeqId(cand.seq), epoch);
                        assert_eq!(
                            got, expected,
                            "step {step}: walk {rank} from {}",
                            cand.label
                        );
                    }
                    PrqOp::BlockEnd(mask) => {
                        let mut at = 0;
                        model.retain(|e| {
                            let unlink = e.consumed.is_some() && mask >> (at % 64) & 1 == 1;
                            at += 1;
                            if unlink {
                                idx.unlink(&mut table, e.desc);
                                table.release(e.desc);
                            }
                            !unlink
                        });
                        epoch += 1;
                    }
                    PrqOp::Tombstone(_) | PrqOp::Walk(..) => {}
                }
                idx.check_links(&table);
                let posted = model.iter().filter(|e| e.consumed.is_none()).count();
                assert_eq!(
                    (table.allocated(), table.posted().count()),
                    (model.len(), posted),
                    "step {step}"
                );
                for e in &model {
                    let expected = if e.consumed.is_some() {
                        state::CONSUMED
                    } else {
                        state::POSTED
                    };
                    assert_eq!(table.slot(e.desc).state(), expected, "step {step}");
                }
            }
        },
    );
}

/// The chaos oracle over random seeds: a hostile wire (drops,
/// duplicates, reorders and delays at 10%+ each, recovered by the
/// reliability protocol) never changes a matched (receive, message)
/// pair relative to the fault-free run — on the host matcher's synchronous
/// path and the engine's command-queue drain alike, with and without receive-side
/// staging, across sender window sizes, and with the reorder
/// rate cranked far above the drop rate (the regime where the staging
/// buffer does the most work). A fault budget keeps every case live;
/// past it the wire is perfect.
#[test]
fn chaos_faulty_wire_preserves_matched_pairs() {
    cases(
        "chaos_faulty_wire_preserves_matched_pairs",
        CASES,
        |rng, _size| {
            let window = rng.chance(500).then(|| range(rng, 4..48) as usize);
            (
                rng.next_u64(),
                rng.next_u64(),
                rng.chance(500),
                rng.chance(500),
                rng.chance(500),
                window,
            )
        },
        |(workload_seed, fault_seed, queued, staging, reorder_heavy, window)| {
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
                workload_seed,
                plan,
                3,
                16,
                queued,
                window,
                staging,
            );
        },
    );
}

/// `StatsSnapshot::merge` followed by `delta` recovers the merged-in
/// contribution exactly: the algebra behind interval measurement
/// (flight-recorder deltas) and per-rank aggregation. The search-depth
/// high-water mark is the one non-counter field — `delta` keeps the
/// current (merged) maximum rather than subtracting.
#[test]
fn stats_merge_then_delta_roundtrips() {
    cases(
        "stats_merge_then_delta_roundtrips",
        CASES,
        |rng, _size| (stats_snapshot(rng), stats_snapshot(rng)),
        |(a, b)| {
            let merged = a.merge(&b);
            let recovered = merged.delta(&a);
            let expected = otm::StatsSnapshot {
                search_depth_max: a.search_depth_max.max(b.search_depth_max),
                ..b.clone()
            };
            assert_eq!(recovered, expected);
            assert_eq!(a.merge(&b), b.merge(&a));
            // Delta against itself zeroes every counter; the high-water mark
            // stays (it upper-bounds the empty interval's maximum).
            let self_delta = a.delta(&a);
            let zeroed = otm::StatsSnapshot {
                search_depth_max: a.search_depth_max,
                ..Default::default()
            };
            assert_eq!(self_delta, zeroed);
        },
    );
}

/// The matchd fairness property (deterministic companion:
/// `tests/tenant_fairness.rs`): arbitrary multi-tenant submission
/// schedules with arbitrary per-tenant quanta, pushed through the fair
/// drain, (a) never let one tenant drain more than its deficit cap in a
/// single round, (b) lose nothing — every admitted pair completes once
/// the schedule settles — and (c) keep per-tenant FIFO: completions
/// come back in handle-mint order.
#[test]
fn matchd_fair_drain_is_bounded_lossless_and_fifo() {
    cases(
        "matchd_fair_drain_is_bounded_lossless_and_fifo",
        CASES,
        |rng, size| {
            let quanta: [usize; 3] = std::array::from_fn(|_| range(rng, 1..9) as usize);
            let rounds = vec(rng, 1..25, size, |rng| -> [usize; 3] {
                std::array::from_fn(|_| rng.below(5) as usize)
            });
            (rounds, quanta)
        },
        |(rounds, quanta)| {
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
                        assert!(session.submit_post(pattern).is_admitted());
                        assert!(session.submit_send(tag, vec![p as u8]).is_admitted());
                        admitted[i] += 1;
                    }
                }
                server.tick().unwrap();
                for (i, session) in sessions.iter().enumerate() {
                    let drained = session.stats().drained;
                    assert!(
                        drained - drained_before[i] <= quanta[i] as u64 * CAP_QUANTA,
                        "tenant {} drained {} in one round (quantum {}, cap {})",
                        i,
                        drained - drained_before[i],
                        quanta[i],
                        CAP_QUANTA
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
                assert_eq!(stats.ingress_depth, 0, "tenant {} never settled", i);
                assert_eq!(stats.completed, admitted[i], "tenant {} lost work", i);
                let seqs: Vec<u64> = session
                    .take_completions()
                    .iter()
                    .map(|d| d.recv.0 & ((1u64 << 48) - 1))
                    .collect();
                let mut sorted = seqs.clone();
                sorted.sort_unstable();
                assert_eq!(seqs, sorted, "tenant {} completions out of mint order", i);
            }
        },
    );
}

/// The runner itself: a deliberately false property fails, shrinks to
/// exactly the boundary input, and the reported seed rebuilds it.
#[test]
fn prop_runner_shrinks_a_false_property_to_its_boundary() {
    let gen = |rng: &mut FaultRng, size| vec(rng, 0..200, size, |rng| rng.below(7));
    let check = |v: Vec<u64>| assert!(v.len() < 10, "len {}", v.len());
    let f = prop::run("len < 10", CASES, gen, check).expect("most cases draw 10 or more");
    assert_eq!(f.size, 10, "bisection stops at the first failing size");
    assert_eq!(f.message, "len 10");
    let rebuilt = gen(&mut FaultRng::new(f.seed), f.size);
    assert_eq!(
        rebuilt.len(),
        10,
        "the reported seed and size rebuild the input"
    );
    assert_eq!(rebuilt, gen(&mut FaultRng::new(f.seed), prop::FULL)[..10]);
    // Same name, same cases: a second run reports the same failure.
    let again = prop::run("len < 10", CASES, gen, check).expect("still false");
    assert_eq!((again.seed, again.size), (f.seed, f.size));
    assert!(prop::run("len < 200", CASES, gen, |v| assert!(v.len() < 200)).is_none());
}
