//! Seeded deterministic companion to the packing-equivalence property
//! (`tests/properties.rs`): the cross-communicator drain scheduler must be
//! outcome-identical to the strict consecutive drain on every stream, and
//! both policies must honor the `DrainReport` failure contract when the
//! engine's tables overflow mid-queue. Pinned seeds, so every run checks
//! the same streams.

mod support;

use mpi_matching::{MsgHandle, PendingCommand, RecvHandle};
use otm_base::{
    CommId, Envelope, FaultRng, MatchConfig, MatchError, PackingPolicy, Rank, ReceivePattern, Tag,
};
use support::{
    assert_drain_failure_contract, assert_packing_equivalence, assert_ring_equivalence,
    command_stream, drain_under_policy, fallback_oracle_config,
};

/// Success path: identical outcomes, command for command, on streams of
/// growing length.
#[test]
fn packed_drain_equals_consecutive_drain_seeded() {
    let mut rng = FaultRng::new(0x0DDC0DE);
    for round in 0usize..48 {
        let len = 1 + (round * 7) % 160;
        let cmds = command_stream(&mut rng, len);
        assert_packing_equivalence(fallback_oracle_config(), &cmds);
    }
}

/// Bounded-ring path, seeded: tiny per-communicator rings force inline
/// drains mid-stream (the backpressure contract), rotation cursors and
/// per-lane quotas chop the lanes into many small blocks — and the outcome
/// vector must still equal the never-full-ring oracle under either
/// packing policy, with every forced drain consuming pending work.
#[test]
fn bounded_ring_drain_equals_unbounded_oracle_seeded() {
    let mut rng = FaultRng::new(0x0DDC0DE ^ 0x51A6);
    for round in 0usize..32 {
        let len = 1 + (round * 9) % 160;
        let cmds = command_stream(&mut rng, len);
        let config = fallback_oracle_config()
            .with_ring_capacity(2 + round % 7)
            .with_lane_quota(Some(1 + round % 4));
        assert_ring_equivalence(config, &cmds);
    }
}

/// Failure path: with tables sized to overflow mid-stream, both policies
/// keep the partition / ordering / per-communicator-prefix contract.
#[test]
fn drain_failure_contract_holds_for_both_policies() {
    let mut rng = FaultRng::new(0x0DDC0DE ^ 0xF00D);
    let config = MatchConfig::default()
        .with_block_threads(4)
        .with_max_receives(8)
        .with_max_unexpected(8)
        .with_bins(4);
    for _ in 0..48 {
        let cmds = command_stream(&mut rng, 120);
        for packing in [PackingPolicy::Consecutive, PackingPolicy::CrossComm] {
            assert_drain_failure_contract(config.clone(), packing, &cmds);
        }
    }
}

/// Round-robin over 3 communicators; communicator c posts whenever
/// (i + c) % 3 == 2, so the post positions are staggered across lanes and
/// the *global* stream has a post roughly every third command.
fn staggered_three_comm_stream() -> Vec<PendingCommand> {
    let mut cmds = Vec::new();
    let (mut next_recv, mut next_msg) = (0u64, 0u64);
    for i in 0u32..120 {
        for c in 0u16..3 {
            let comm = CommId(c + 1);
            if (i + c as u32) % 3 == 2 {
                let handle = RecvHandle(next_recv);
                next_recv += 1;
                cmds.push(PendingCommand::Post {
                    pattern: ReceivePattern::new(Rank(0), Tag(next_recv as u32), comm),
                    handle,
                });
            } else {
                let msg = MsgHandle(next_msg);
                next_msg += 1;
                cmds.push(PendingCommand::Arrival {
                    env: Envelope::new(Rank(0), Tag(next_msg as u32), comm),
                    msg,
                });
            }
        }
    }
    cmds
}

/// The perf mechanism itself, pinned deterministically: on a post-riddled
/// interleaved stream the cross-communicator scheduler executes the same
/// arrivals in strictly fewer, fuller blocks than the consecutive packer.
#[test]
fn cross_comm_packs_fewer_fuller_blocks() {
    let cmds = staggered_three_comm_stream();
    let config = fallback_oracle_config().with_block_threads(8);
    let (consec, a) = drain_under_policy(config.clone(), PackingPolicy::Consecutive, &cmds);
    let (cross, b) = drain_under_policy(config, PackingPolicy::CrossComm, &cmds);
    assert!(a.error.is_none() && b.error.is_none());
    assert_eq!(a.outcomes, b.outcomes, "same outcomes either way");
    let (sa, sb) = (consec.stats(), cross.stats());
    assert_eq!(sa.messages, sb.messages, "same arrivals matched");
    assert!(
        sb.blocks * 2 <= sa.blocks,
        "cross-comm must at least halve the block count on this stream \
         (consecutive {} vs cross-comm {})",
        sa.blocks,
        sb.blocks
    );
}

/// The per-communicator depth gauges after one drain of the staggered
/// stream, once clean and once stopping on `ReceiveTableFull` with the
/// window still staged (both reach their peaks before the failing post).
/// The literals were recorded at the last commit that sampled the gauges at
/// every step: the drain publishes the same peaks, once, on every exit —
/// and no other gauge.
#[test]
fn depth_peak_gauges_are_published_on_clean_and_failing_drains() {
    let cmds = staggered_three_comm_stream();
    let expected: Vec<(String, i64)> = [
        ("otm_drain_lane_depth_peak", [22, 23, 21]),
        ("otm_submission_ring_depth_peak", [98, 99, 99]),
    ]
    .into_iter()
    .flat_map(|(name, peaks)| {
        (1..=3).map(move |comm| (format!("{name}{{comm=\"{comm}\"}}"), peaks[comm - 1]))
    })
    .collect();
    let config = fallback_oracle_config().with_block_threads(8);
    for (config, error) in [
        (config.clone(), None),
        (
            config.with_max_receives(4),
            Some(MatchError::ReceiveTableFull),
        ),
    ] {
        let (engine, report) = drain_under_policy(config, PackingPolicy::CrossComm, &cmds);
        assert_eq!(report.error, error);
        assert!(
            report.outcomes.len() >= 64,
            "at least one window was applied"
        );
        let gauges: Vec<(String, i64)> = engine.metrics_snapshot().gauges.into_iter().collect();
        assert_eq!(gauges, expected, "drain ending with {error:?}");
    }
}

/// Order-sensitive FNV-1a over 64-bit words.
fn fnv(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// A seeded stream over four communicators of very uneven depth (8 : 4 : 3 : 1),
/// 70% arrivals with exact and `ANY_SOURCE` posts interleaved throughout.
fn uneven_four_comm_stream(rng: &mut FaultRng, len: usize) -> Vec<PendingCommand> {
    let (mut next_recv, mut next_msg) = (0u64, 0u64);
    (0..len)
        .map(|_| {
            let comm = match rng.below(16) {
                0..=7 => CommId(1),
                8..=11 => CommId(2),
                12..=14 => CommId(3),
                _ => CommId(4),
            };
            let ev = support::prop::event_mix(rng, comm, 3, 3, [7, 2, 1, 0, 0]);
            support::to_command(&ev, &mut next_recv, &mut next_msg)
        })
        .collect()
}

/// Golden step trace. The drain's step sequence — which commands share a
/// block — is a function of the packing window, the lane quota and the
/// submission order, and nothing about how cheaply the queue is read may
/// move it. Three submit-then-drain phases (a deep backlog, a trickle, a
/// second backlog on the communicators the first left state in) at windows
/// of one and eight blocks, with and without a lane quota. The literals
/// were recorded at `ce0287e`, before the drain read the rings in place.
#[test]
fn golden_step_trace_is_pinned_across_windows_and_quotas() {
    // Per (window, lane quota): blocks, messages, occupancy sum, occupancy
    // count, occupancy-bucket hash, outcome hash.
    let runs = [(32, None), (32, Some(8)), (256, None), (256, Some(8))];
    let mut actual = Vec::new();
    for (window, quota) in runs {
        let config = MatchConfig::default()
            .with_max_receives(4096)
            .with_max_unexpected(4096)
            .with_bins(16)
            .with_ring_capacity(4096)
            .with_lane_quota(quota);
        let mut engine = otm::OtmEngine::new(config).expect("valid test config");
        engine.set_packing_window_override(window);
        let stream = uneven_four_comm_stream(&mut FaultRng::new(0x601D_57E9), 2440);
        let mut phases = stream.as_slice();
        let mut outcome_hash = FNV_SEED;
        for len in [1500usize, 40, 900] {
            let (cmds, rest) = phases.split_at(len);
            phases = rest;
            for &cmd in cmds {
                engine.submit(cmd).expect("ring sized for the phase");
            }
            let report = engine.drain();
            assert!(report.error.is_none(), "clean drain: {:?}", report.error);
            assert_eq!(report.outcomes.len(), len, "every command drains");
            for outcome in &report.outcomes {
                let words = match *outcome {
                    otm::CommandOutcome::Post {
                        handle,
                        result: mpi_matching::PostResult::Posted,
                    } => [1, handle.0, u64::MAX],
                    otm::CommandOutcome::Post {
                        handle,
                        result: mpi_matching::PostResult::Matched(msg),
                    } => [2, handle.0, msg.0],
                    otm::CommandOutcome::Delivery(otm::Delivery::Matched { msg, recv }) => {
                        [3, msg.0, recv.0]
                    }
                    otm::CommandOutcome::Delivery(otm::Delivery::Unexpected { msg }) => {
                        [4, msg.0, u64::MAX]
                    }
                };
                words.into_iter().for_each(|w| fnv(&mut outcome_hash, w));
            }
        }
        assert!(phases.is_empty());
        let stats = engine.stats();
        let occupancy = engine.metrics_snapshot().hists["otm_block_occupancy"].clone();
        let mut bucket_hash = FNV_SEED;
        occupancy
            .buckets
            .iter()
            .for_each(|&b| fnv(&mut bucket_hash, b));
        actual.push([
            stats.blocks,
            stats.messages,
            occupancy.sum,
            occupancy.count,
            bucket_hash,
            outcome_hash,
        ]);
    }
    assert_eq!(actual, GOLDEN, "one row per {runs:?}");
}

/// The scheduler's own step sequence, through its public surface alone:
/// a seeded admission sequence refilled to a window before every step (the
/// drain's loop), hashed step by step together with the lane depths and the
/// live-lane count each refill observes.
#[test]
fn scheduler_step_sequence_is_pinned() {
    use otm::scheduler::{PackingScheduler, PackingStep};
    use std::collections::VecDeque;
    let runs = [
        (PackingPolicy::CrossComm, None),
        (PackingPolicy::CrossComm, Some(3)),
        (PackingPolicy::Consecutive, None),
    ];
    let mut actual = Vec::new();
    for (policy, quota) in runs {
        let mut rng = FaultRng::new(0x5C4E_D01E);
        let mut pending: VecDeque<(u64, PendingCommand)> = uneven_four_comm_stream(&mut rng, 700)
            .into_iter()
            .enumerate()
            .map(|(ticket, cmd)| (ticket as u64 * 3, cmd))
            .collect();
        let mut sched = PackingScheduler::new(policy, 8).with_lane_quota(quota);
        let (mut hash, mut steps) = (FNV_SEED, 0u64);
        loop {
            let room = 20usize.saturating_sub(sched.staged()).min(pending.len());
            if room > 0 {
                // Uneven chunks: the refill size must not matter, only the
                // admission order.
                let first = room.min(1 + (steps as usize % 5));
                sched.admit(pending.drain(..first).collect());
                sched.admit(pending.drain(..room - first).collect());
                fnv(&mut hash, sched.lane_count() as u64);
                for (comm, depth) in sched.lane_depths() {
                    fnv(&mut hash, u64::from(comm.0) << 32 | depth as u64);
                }
            }
            let Some(step) = sched.next_step() else { break };
            steps += 1;
            match step {
                PackingStep::Post { idx, handle, .. } => {
                    [1, idx, handle.0]
                        .into_iter()
                        .for_each(|w| fnv(&mut hash, w));
                }
                PackingStep::Block { msgs } => {
                    fnv(&mut hash, 2);
                    for (idx, env, msg) in msgs {
                        [idx, u64::from(env.comm.0), msg.0]
                            .into_iter()
                            .for_each(|w| fnv(&mut hash, w));
                    }
                }
            }
            fnv(&mut hash, sched.staged() as u64);
        }
        assert!(pending.is_empty() && sched.staged() == 0);
        assert_eq!(sched.into_unapplied(), Vec::new());
        actual.push([steps, hash]);
    }
    assert_eq!(actual, GOLDEN_STEPS, "one row per {runs:?}");
}

const GOLDEN: [[u64; 6]; 4] = [
    [
        254,
        1727,
        1727,
        254,
        18409326758813499915,
        17748070946224254559,
    ],
    [
        274,
        1727,
        1727,
        274,
        14575283364666816969,
        17748070946224254559,
    ],
    [
        254,
        1727,
        1727,
        254,
        2633685000301500275,
        17748070946224254559,
    ],
    [
        274,
        1727,
        1727,
        274,
        2773749593102119633,
        17748070946224254559,
    ],
];
const GOLDEN_STEPS: [[u64; 2]; 3] = [
    [311, 6638756716922004637],
    [336, 6603629957991773451],
    [377, 11014769808375531082],
];
