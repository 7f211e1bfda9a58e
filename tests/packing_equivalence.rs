//! Seeded deterministic companion to the packing-equivalence property
//! (`tests/properties.rs`): the cross-communicator drain scheduler must be
//! outcome-identical to the strict consecutive drain on every stream, and
//! both policies must honor the `DrainReport` failure contract when the
//! engine's tables overflow mid-queue. Pinned seeds, so the nightly
//! ThreadSanitizer job runs the same streams every night.

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
