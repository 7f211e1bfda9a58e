//! Seeded deterministic companion to the packing-equivalence property
//! (`tests/properties.rs`): the cross-communicator drain scheduler must be
//! outcome-identical to applying every command in submission order to the
//! sequential `mpi_matching::oracle::Oracle`, on every stream, and must
//! honor the `DrainReport` failure contract when the engine's tables
//! overflow mid-queue. Pinned seeds, so every run checks the same streams.

mod support;

use mpi_matching::{MsgHandle, PendingCommand, RecvHandle};
use otm::CommandOutcome;
use otm_base::{CommId, Envelope, FaultRng, MatchConfig, MatchError, Rank, ReceivePattern, Tag};
use support::{
    assert_drain_failure_contract, assert_packing_equivalence, assert_ring_equivalence,
    command_stream, drain_once, fallback_oracle_config, sequential_outcomes,
};

/// Success path: the sequential oracle's outcomes — the commands applied
/// consecutively, in submission order — command for command, on streams
/// of growing length.
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
/// drains mid-stream (the backpressure contract) and rotation cursors
/// chop the lanes into many small blocks — and the outcome vector must
/// still equal the sequential oracle, with every forced drain consuming
/// pending work.
#[test]
fn bounded_ring_drain_equals_unbounded_oracle_seeded() {
    let mut rng = FaultRng::new(0x0DDC0DE ^ 0x51A6);
    for round in 0usize..32 {
        let len = 1 + (round * 9) % 160;
        let cmds = command_stream(&mut rng, len);
        let config = fallback_oracle_config().with_ring_capacity(2 + round % 7);
        assert_ring_equivalence(config, &cmds);
    }
}

/// Failure path: with tables sized to overflow mid-stream, the drain keeps
/// the partition / ordering / per-communicator-prefix contract.
#[test]
fn drain_failure_contract_holds() {
    let mut rng = FaultRng::new(0x0DDC0DE ^ 0xF00D);
    let config = MatchConfig::default()
        .with_block_threads(4)
        .with_max_receives(8)
        .with_max_unexpected(8)
        .with_bins(4);
    for _ in 0..48 {
        let cmds = command_stream(&mut rng, 120);
        assert_drain_failure_contract(config.clone(), &cmds);
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

/// Blocks the consecutive packer (a single global FIFO that every post cuts
/// short) executed on [`staggered_three_comm_stream`] at block width 8, the
/// last time it existed: recorded at `3cd2ade`, where it was deleted.
const CONSECUTIVE_STAGGERED_BLOCKS: u64 = 121;

/// The perf mechanism itself, pinned deterministically: on a post-riddled
/// interleaved stream the cross-communicator scheduler executes the
/// arrivals in exactly 41 blocks, at most half of what the consecutive
/// packer needed. The literal was recorded at `3cd2ade`.
#[test]
fn cross_comm_packs_fewer_fuller_blocks() {
    let cmds = staggered_three_comm_stream();
    let config = fallback_oracle_config().with_block_threads(8);
    let (engine, report) = drain_once(config, &cmds);
    assert!(report.error.is_none());
    assert_eq!(
        report.outcomes,
        sequential_outcomes(&cmds),
        "same outcomes as the sequential oracle"
    );
    let stats = engine.stats();
    assert_eq!((stats.blocks, stats.messages), (41, 240));
    assert!(
        stats.blocks * 2 <= CONSECUTIVE_STAGGERED_BLOCKS,
        "cross-comm must at least halve the block count on this stream \
         (consecutive {CONSECUTIVE_STAGGERED_BLOCKS} vs cross-comm {})",
        stats.blocks
    );
}

/// Command `i` of `lane`'s stream under a 30 %-post mix: posts spread
/// uniformly (Bresenham-style), and post j and arrival j of a lane share a
/// unique tag, so every command applies whichever side lands first and the
/// tables never overflow.
fn mixed_command(lane: usize, per_lane: usize, i: usize) -> PendingCommand {
    let comm = CommId(lane as u16 + 1);
    let base = (lane * per_lane) as u64;
    let posts_before = (i as u64 * 30 / 100) as u32;
    if (i as u64 + 1) * 30 / 100 > i as u64 * 30 / 100 {
        PendingCommand::Post {
            pattern: ReceivePattern::new(Rank(0), Tag(posts_before), comm),
            handle: RecvHandle(base + u64::from(posts_before)),
        }
    } else {
        let j = i as u32 - posts_before;
        PendingCommand::Arrival {
            env: Envelope::new(Rank(0), Tag(j), comm),
            msg: MsgHandle(base + u64::from(j)),
        }
    }
}

/// Mixed traffic at 2,000 commands: four lanes of 30 % posts, submitted in
/// bursts of eight commands round-robin across the lanes with one drain a
/// round, at the default 32-wide block. On one thread the blocks are a
/// function of the stream: 1,400 arrivals in 175 blocks of exactly 8 (the
/// consecutive packer needed 586 blocks, 2.39 arrivals each). The literals
/// were recorded as fig8's mixed-traffic row.
#[test]
fn mixed_traffic_packs_full_blocks_exactly() {
    const LANES: usize = 4;
    let per_lane = 2000 / LANES;
    let config = MatchConfig::default()
        .with_max_receives(600)
        .with_max_unexpected(1400)
        .with_bins(4096);
    let mut engine = otm::OtmEngine::new(config).expect("valid test config");
    let (mut messages, mut posts) = (0u64, 0u64);
    for burst in (0..per_lane).step_by(8) {
        for lane in 0..LANES {
            for i in burst..(burst + 8).min(per_lane) {
                engine
                    .submit(mixed_command(lane, per_lane, i))
                    .expect("ring fits a round");
            }
        }
        let report = engine.drain();
        assert!(report.error.is_none(), "clean drain: {:?}", report.error);
        for outcome in &report.outcomes {
            match outcome {
                CommandOutcome::Post { .. } => posts += 1,
                CommandOutcome::Delivery(_) => messages += 1,
            }
        }
    }
    let stats = engine.stats();
    assert_eq!((messages, posts, stats.messages), (1400, 600, 1400));
    assert_eq!(stats.blocks, 175);
    assert_eq!(stats.messages as f64 / stats.blocks as f64, 8.0);
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
        let (engine, report) = drain_once(config, &cmds);
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
/// block — is a function of the packing window and the submission order,
/// and nothing about how cheaply the queue is read may move it. Three
/// submit-then-drain phases (a deep backlog, a trickle, a second backlog
/// on the communicators the first left state in) at windows of one and
/// eight blocks. The literals were recorded at `ce0287e`, before the
/// drain read the rings in place.
#[test]
fn golden_step_trace_is_pinned_across_windows_and_quotas() {
    // Per window: blocks, messages, occupancy sum, occupancy count,
    // occupancy-bucket hash, outcome hash.
    let runs = [32, 256];
    let mut actual = Vec::new();
    for window in runs {
        let config = MatchConfig::default()
            .with_max_receives(4096)
            .with_max_unexpected(4096)
            .with_bins(16)
            .with_ring_capacity(4096);
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
    let mut rng = FaultRng::new(0x5C4E_D01E);
    let mut pending: VecDeque<(u64, PendingCommand)> = uneven_four_comm_stream(&mut rng, 700)
        .into_iter()
        .enumerate()
        .map(|(ticket, cmd)| (ticket as u64 * 3, cmd))
        .collect();
    let mut sched = PackingScheduler::new(8);
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
    assert_eq!([steps, hash], GOLDEN_STEPS);
}

const GOLDEN: [[u64; 6]; 2] = [
    [
        254,
        1727,
        1727,
        254,
        18409326758813499915,
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
];
const GOLDEN_STEPS: [u64; 2] = [311, 6638756716922004637];
