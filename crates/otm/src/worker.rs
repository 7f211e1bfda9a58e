//! The block executor: steps a block's lanes through the optimistic
//! matching protocol of §III on the coordinator's thread.
//!
//! A lane's protocol is cut at its two partial barriers into three phases —
//! [`search_and_book`], [`detect`], [`resolve_and_settle`] — and [`run_block`]
//! sweeps each phase over the lanes in lane order. Why that order stands in
//! for the barriers is argued in [`block`](crate::block)'s module doc; the
//! protocol's correctness argument lives in DESIGN.md §5 and is enforced
//! end-to-end by the oracle property tests.

use crate::block::{below_mask, result_code, BlockState};
use crate::index::{walk_sequence, SearchOutcome};
use crate::metrics::{span_event, EngineMetrics};
use crate::shard::{Entry, ShardHost};
use otm_base::MatchConfig;

/// What every lane uses of its engine (`metrics` to stamp lifecycle spans).
pub(crate) struct LaneCtx<'a> {
    pub metrics: &'a mut EngineMetrics,
    pub config: &'a MatchConfig,
}

/// Runs one block (§III-C, §III-D): three sweeps over `block.lanes`, after
/// which every lane's entry of `block.results` is set and `block.tally` holds
/// what the lanes resolved. `shards` is the engine's directory; a lane finds
/// its communicator's through [`LaneData::shard`](crate::block::LaneData::shard).
pub(crate) fn run_block(ctx: &mut LaneCtx<'_>, block: &mut BlockState, shards: &[Entry]) {
    let n = block.lanes.len();
    for lane in 0..n {
        search_and_book(ctx, block, shards, lane);
    }
    for lane in 0..n {
        detect(block, shards, lane);
    }
    for lane in 0..n {
        resolve_and_settle(ctx, block, shards, lane);
    }
}

/// First sweep — optimistic search and booking, up to the first partial
/// barrier (§III-D1): lanes below `lane` have booked when this returns, which
/// is all [`detect`] needs (later lanes cannot steal our receive, C2 gives
/// us precedence).
fn search_and_book(ctx: &mut LaneCtx<'_>, block: &mut BlockState, shards: &[Entry], lane: usize) {
    let lane_data = &block.lanes[lane];
    let comm = &shards[lane_data.shard].1.host;

    // §VII: a communicator asserted with `mpi_assert_allow_overtaking`
    // waives the ordering constraints — no booking, no barrier, no
    // conflict resolution; any pattern-correct pairing is acceptable.
    if lane_data.hints.allow_overtaking {
        block.results[lane] = run_lane_relaxed(ctx, block, lane, comm);
        return;
    }

    // Phase 1 — optimistic search (§III-C): find the oldest matching
    // receive across the four indexes, as if no other message existed.
    // Hint-banned index classes are skipped.
    let skip_mask = if ctx.config.early_booking_check {
        below_mask(lane)
    } else {
        0
    };
    let (env, hashes) = (&lane_data.env, &lane_data.hashes);
    let search = comm
        .prq
        .search(env, hashes, &comm.table, skip_mask, lane_data.hints);

    // Phase 2 — book the candidate: set our bit in its booking bitmap.
    if let Some(cand) = search.candidate {
        comm.table.slot(cand.desc).book(lane);
        block.booked_desc[lane] = cand.desc;
    }
    block.searches[lane] = Some(search);
}

/// Second sweep — conflict detection (§III-D2), up to the second partial
/// barrier: the `conflicted`/`forced` flags of all lanes below `lane` are
/// final when this returns. A lane that settled in the first sweep takes no
/// part. A direct conflict means a lower lane booked our
/// candidate (it wins: lowest id first). Skipping a lower-booked receive
/// during the search is also a conflict: the skipped receive may come back
/// to us if its booker resolves away.
fn detect(block: &mut BlockState, shards: &[Entry], lane: usize) {
    let (Some(search), result_code::UNSET) = (block.searches[lane], block.results[lane]) else {
        return;
    };
    #[cfg(test)]
    assert_ne!(block.fail_lane, Some(lane), "fail-point on lane {lane}");
    let bit = 1u64 << lane;
    let table = &shards[block.lanes[lane].shard].1.host.table;
    let direct = search.skipped_booked
        || search
            .candidate
            .is_some_and(|c| table.slot(c.desc).booking() & below_mask(lane) != 0);
    if search.skipped_booked {
        block.forced |= bit;
    }
    if direct {
        block.conflicted |= bit;
        block.tally.stats.direct_conflicts += 1;
    }
}

/// Third sweep — resolve and settle: lanes below `lane` have settled when
/// this runs, which is what the slow path waits for.
fn resolve_and_settle(
    ctx: &mut LaneCtx<'_>,
    block: &mut BlockState,
    shards: &[Entry],
    lane: usize,
) {
    let (Some(search), result_code::UNSET) = (block.searches[lane], block.results[lane]) else {
        return;
    };
    let below = below_mask(lane);
    let comm = &shards[block.lanes[lane].shard].1.host;

    // "If a thread i detects a conflict, then all other threads j > i need
    // to enter the conflict resolution phase" — a resolving lower thread
    // may re-match onto our candidate, and it has precedence (§III-D2).
    let direct = block.conflicted & (1u64 << lane) != 0;
    let resolve = direct || block.conflicted & below != 0;

    let result = if !resolve {
        match search.candidate {
            Some(cand) => {
                // No lane below us booked this receive and none of them will
                // re-match (none conflicted), so consuming cannot fail.
                let ok = comm.table.slot(cand.desc).try_consume(block.epoch);
                debug_assert!(ok, "unconflicted consume lost a race");
                if ok {
                    block.tally.stats.optimistic_ok += 1;
                    span_event!(
                        ctx.metrics,
                        block.lanes[lane].handle.0,
                        SpanKind::Matched {
                            path: MatchPath::Nc
                        }
                    );
                    cand.desc as u64
                } else {
                    // Defensive: fall through to the slow path.
                    resolve_slow(ctx, block, lane, comm)
                }
            }
            None => result_code::UNEXPECTED,
        }
    } else {
        if !direct {
            block.tally.stats.induced_resolutions += 1;
        }
        resolve_conflict(ctx, block, lane, comm, &search)
    };
    block.results[lane] = result;
}

/// The relaxed lane protocol for `mpi_assert_allow_overtaking`
/// communicators (§VII): search, CAS-consume, done — whole in the first
/// sweep. The lane books nothing and never conflicts with anyone (its
/// communicator's receives are invisible to strict lanes, which always run
/// on other communicators). Returns the lane's result code; its first search
/// is left in `block.searches` for the depth statistics.
fn run_lane_relaxed(
    ctx: &mut LaneCtx<'_>,
    block: &mut BlockState,
    lane: usize,
    comm: &ShardHost,
) -> u64 {
    let (lane_data, epoch) = (&block.lanes[lane], block.epoch);
    loop {
        let (env, hashes) = (&lane_data.env, &lane_data.hashes);
        let out = comm
            .prq
            .search(env, hashes, &comm.table, 0, lane_data.hints);
        block.searches[lane].get_or_insert(out);
        match out.candidate {
            None => break result_code::UNEXPECTED,
            Some(c) => {
                if comm.table.slot(c.desc).try_consume(epoch) {
                    block.tally.stats.optimistic_ok += 1;
                    span_event!(
                        ctx.metrics,
                        lane_data.handle.0,
                        SpanKind::Matched {
                            path: MatchPath::Nc
                        }
                    );
                    break c.desc as u64;
                }
                // Another relaxed lane took it; any other receive is fine.
            }
        }
    }
}

/// Conflict resolution (§III-D3): fast path when eligible, slow path
/// otherwise.
fn resolve_conflict(
    ctx: &mut LaneCtx<'_>,
    block: &mut BlockState,
    lane: usize,
    comm: &ShardHost,
    search: &SearchOutcome,
) -> u64 {
    let (below, forced, epoch) = (below_mask(lane), block.forced, block.epoch);
    let table = &comm.table;

    // Fast path (§III-D3a). Sound when:
    //  * we have a candidate and did not skip anything ourselves,
    //  * no lower lane skipped anything (their re-search could reach an
    //    older receive and upset the rank assignment),
    //  * every lower lane booked OUR candidate — then lane j will end up
    //    with the j-th receive of the sequence, deterministically, and our
    //    own rank equals our lane index,
    //  * the sequence of compatible receives is long enough for our rank.
    // The rank walk counts same-sequence entries consumed in this block as
    // steps (they are being taken by lower-ranked lanes), which is sound
    // because consumed entries stay linked in the list until the block
    // ends: no lane unlinks.
    if ctx.config.fast_path && !search.skipped_booked {
        if let Some(cand) = search.candidate {
            let no_lower_skips = forced & below == 0;
            let all_lower_booked = table.slot(cand.desc).booking() & below == below;
            if no_lower_skips && all_lower_booked {
                let payload = table.slot(cand.desc).payload();
                let rank = below.count_ones() as usize;
                if let Some(target) = walk_sequence(table, cand.desc, rank, payload.seq, epoch) {
                    if table.slot(target).try_consume(epoch) {
                        block.tally.stats.fast_path += 1;
                        span_event!(
                            ctx.metrics,
                            block.lanes[lane].handle.0,
                            SpanKind::Matched {
                                path: MatchPath::WcFp
                            }
                        );
                        return target as u64;
                    }
                }
            }
        }
    }

    resolve_slow(ctx, block, lane, comm)
}

/// Slow path (§III-D3b): once every lower lane has settled — which the
/// third sweep's lane order guarantees — re-search. At that point the
/// consumed flags of all earlier messages are final, so the oldest posted
/// matching receive is exactly the sequential assignment for this message.
fn resolve_slow(
    ctx: &mut LaneCtx<'_>,
    block: &mut BlockState,
    lane: usize,
    comm: &ShardHost,
) -> u64 {
    let (table, lane_data, epoch) = (&comm.table, &block.lanes[lane], block.epoch);

    block.tally.stats.slow_path += 1;
    loop {
        let (env, hashes) = (&lane_data.env, &lane_data.hashes);
        let out = comm.prq.search(env, hashes, table, 0, lane_data.hints);
        match out.candidate {
            None => return result_code::UNEXPECTED,
            Some(c) => {
                if table.slot(c.desc).try_consume(epoch) {
                    span_event!(
                        ctx.metrics,
                        lane_data.handle.0,
                        SpanKind::Matched {
                            path: MatchPath::WcSp
                        }
                    );
                    return c.desc as u64;
                }
                // Reachable only if lanes ever run concurrently: a fast-path
                // lane above us took it between our read and our CAS;
                // re-search (it targets a different rank, so this
                // terminates).
            }
        }
    }
}
