//! The block worker: one persistent thread per lane running the optimistic
//! matching protocol of §III.
//!
//! Lifecycle: wait for a new epoch → (if this lane is active) run the lane
//! algorithm → report done. The lane algorithm is documented step by step in
//! [`run_lane`]; its correctness argument lives in DESIGN.md §5 and is
//! enforced end-to-end by the oracle property tests.

use crate::block::{below_mask, result_code, BlockShared, LaneData};
use crate::metrics::{span_event, EngineMetrics};
use crate::stats::OtmStats;
use crate::table::{state, DescId};
use otm_base::sync::{lock, read, wait};
use otm_base::MatchConfig;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Context handed to each worker thread at spawn.
pub(crate) struct WorkerCtx {
    pub shared: Arc<BlockShared>,
    pub stats: Arc<OtmStats>,
    pub metrics: EngineMetrics,
    pub config: MatchConfig,
    pub lane: usize,
}

/// Worker thread entry point.
pub(crate) fn worker_main(ctx: WorkerCtx) {
    let mut seen_epoch = 0u64;
    loop {
        // Wait for the coordinator to publish a new block (or stop).
        {
            let mut control = lock(&ctx.shared.control);
            loop {
                if control.stop {
                    return;
                }
                if control.epoch > seen_epoch {
                    seen_epoch = control.epoch;
                    break;
                }
                control = wait(&ctx.shared.start_cv, control);
            }
        }

        let active = {
            let lanes = read(&ctx.shared.lanes);
            let active = lanes.len();
            if ctx.lane < active {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_lane(&ctx, &lanes[ctx.lane]);
                }));
                if outcome.is_err() {
                    // Poison the engine and release anyone waiting on this
                    // lane's barrier bits so the block can drain.
                    ctx.shared.poisoned.store(true, Ordering::SeqCst);
                    let bit = 1u64 << ctx.lane;
                    ctx.shared.booked.fetch_or(bit, Ordering::SeqCst);
                    ctx.shared.detected.fetch_or(bit, Ordering::SeqCst);
                    ctx.shared.settled.fetch_or(bit, Ordering::SeqCst);
                }
            }
            active
        };

        // Report completion. Inactive lanes report too — the coordinator
        // waits for the full pool so that no stale worker can be inside
        // `lanes` when the next block is written.
        let mut control = lock(&ctx.shared.control);
        control.done += 1;
        if control.done == pool_size(active, ctx.config.block_threads) {
            ctx.shared.done_cv.notify_one();
        }
    }
}

/// How many workers report done for a block: the whole pool.
#[inline]
pub(crate) fn pool_size(_active: usize, pool: usize) -> usize {
    pool
}

/// Runs one lane on the coordinator's own thread with the same poisoning
/// discipline as the pooled path. Used by 1-thread engines.
pub(crate) fn worker_main_inline(ctx: &WorkerCtx, lane_data: &LaneData) {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_lane(ctx, lane_data);
    }));
    if outcome.is_err() {
        ctx.shared.poisoned.store(true, Ordering::SeqCst);
        let bit = 1u64 << ctx.lane;
        ctx.shared.booked.fetch_or(bit, Ordering::SeqCst);
        ctx.shared.detected.fetch_or(bit, Ordering::SeqCst);
        ctx.shared.settled.fetch_or(bit, Ordering::SeqCst);
    }
}

/// The per-lane matching protocol (§III-C, §III-D).
///
/// Also callable from the coordinator itself: a 1-thread engine runs its
/// single lane inline (one DPA execution unit, no handoff), which
/// `OtmEngine::process_block` uses when `block_threads == 1`.
pub(crate) fn run_lane(ctx: &WorkerCtx, lane_data: &LaneData) {
    let shared = &ctx.shared;
    let lane = ctx.lane;
    let bit = 1u64 << lane;
    let below = below_mask(lane);
    let epoch = shared.epoch.load(Ordering::Acquire);
    let comm = &lane_data.comm;
    let table = &comm.table;
    let prq = &comm.prq;

    // §VII: a communicator asserted with `mpi_assert_allow_overtaking`
    // waives the ordering constraints — no booking, no barrier, no
    // conflict resolution; any pattern-correct pairing is acceptable.
    if comm.hints.allow_overtaking {
        run_lane_relaxed(ctx, lane_data, epoch);
        return;
    }

    // Phase 1 — optimistic search (§III-C): find the oldest matching
    // receive across the four indexes, as if no other message existed.
    // Hint-banned index classes are skipped.
    let skip_mask = if ctx.config.early_booking_check {
        below
    } else {
        0
    };
    let search = prq.search_hinted(
        &lane_data.env,
        &lane_data.hashes,
        table,
        skip_mask,
        comm.hints,
    );
    ctx.stats.record_search(search.depth);
    ctx.metrics.record_search_depth(search.depth as u64);

    // Phase 2 — book the candidate: set our bit in its booking bitmap.
    if let Some(cand) = search.candidate {
        table.slot(cand.desc).book(lane);
        shared.booked_desc[lane].store(cand.desc, Ordering::Release);
    }

    // Phase 3 — partial barrier (§III-D1): wait for every earlier lane to
    // finish booking. Later lanes cannot steal our receive (C2 gives us
    // precedence), so we do not wait for them.
    shared.booked.fetch_or(bit, Ordering::AcqRel);
    BlockShared::wait_bits(&shared.booked, below);

    // Phase 4 — conflict detection (§III-D2). A direct conflict means a
    // lower lane booked our candidate (it wins: lowest id first). Skipping
    // a lower-booked receive during the search is also a conflict: the
    // skipped receive may come back to us if its booker resolves away.
    let direct = search.skipped_booked
        || search
            .candidate
            .map(|c| table.slot(c.desc).booking() & below != 0)
            .unwrap_or(false);
    if search.skipped_booked {
        shared.forced.fetch_or(bit, Ordering::AcqRel);
    }
    if direct {
        shared.conflicted.fetch_or(bit, Ordering::AcqRel);
        ctx.stats.direct_conflicts.fetch_add(1, Ordering::Relaxed);
        ctx.metrics.count_conflict();
    }
    shared.detected.fetch_or(bit, Ordering::AcqRel);
    BlockShared::wait_bits(&shared.detected, below);

    // "If a thread i detects a conflict, then all other threads j > i need
    // to enter the conflict resolution phase" — a resolving lower thread
    // may re-match onto our candidate, and it has precedence (§III-D2).
    let lower_conflicts = shared.conflicted.load(Ordering::Acquire) & below;
    let resolve = direct || lower_conflicts != 0;

    let result = if !resolve {
        match search.candidate {
            Some(cand) => {
                // No lane below us booked this receive and none of them will
                // re-match (none conflicted), so consuming cannot fail.
                let ok = table.slot(cand.desc).try_consume(epoch);
                debug_assert!(ok, "unconflicted consume lost a race");
                if ok {
                    ctx.stats.optimistic_ok.fetch_add(1, Ordering::Relaxed);
                    ctx.metrics.count_no_conflict();
                    ctx.metrics.count_matched();
                    span_event!(
                        ctx.metrics,
                        lane_data.handle.0,
                        SpanKind::Matched {
                            path: MatchPath::Nc
                        }
                    );
                    finish_consume(ctx, lane_data, cand.desc);
                    cand.desc as u64
                } else {
                    // Defensive: fall through to the slow path.
                    resolve_slow(ctx, lane_data, below, epoch)
                }
            }
            None => result_code::UNEXPECTED,
        }
    } else {
        if !direct {
            ctx.stats
                .induced_resolutions
                .fetch_add(1, Ordering::Relaxed);
        }
        resolve_conflict(ctx, lane_data, &search, below, epoch)
    };

    // Phase 6 — settle: publish the result and release later lanes'
    // slow-path waits.
    shared.results[lane].store(result, Ordering::Release);
    shared.settled.fetch_or(bit, Ordering::AcqRel);
}

/// The relaxed lane protocol for `mpi_assert_allow_overtaking`
/// communicators (§VII): search, CAS-consume, done. The lane still
/// publishes its barrier bits so strict lanes in the same block (on other
/// communicators) never stall on it.
fn run_lane_relaxed(ctx: &WorkerCtx, lane_data: &LaneData, epoch: u64) {
    let shared = &ctx.shared;
    let bit = 1u64 << ctx.lane;
    let comm = &lane_data.comm;
    // Release strict peers immediately: this lane books nothing and never
    // conflicts with anyone (its communicator's receives are invisible to
    // strict lanes, which always run on other communicators).
    shared.booked.fetch_or(bit, Ordering::AcqRel);
    shared.detected.fetch_or(bit, Ordering::AcqRel);
    let mut first = true;
    let result = loop {
        let out = comm.prq.search_hinted(
            &lane_data.env,
            &lane_data.hashes,
            &comm.table,
            0,
            comm.hints,
        );
        if first {
            ctx.stats.record_search(out.depth);
            first = false;
        }
        match out.candidate {
            None => break result_code::UNEXPECTED,
            Some(c) => {
                if comm.table.slot(c.desc).try_consume(epoch) {
                    ctx.stats.optimistic_ok.fetch_add(1, Ordering::Relaxed);
                    ctx.metrics.count_no_conflict();
                    ctx.metrics.count_matched();
                    span_event!(
                        ctx.metrics,
                        lane_data.handle.0,
                        SpanKind::Matched {
                            path: MatchPath::Nc
                        }
                    );
                    finish_consume(ctx, lane_data, c.desc);
                    break c.desc as u64;
                }
                // Another relaxed lane took it; any other receive is fine.
            }
        }
    };
    shared.results[ctx.lane].store(result, Ordering::Release);
    shared.settled.fetch_or(bit, Ordering::AcqRel);
}

/// Conflict resolution (§III-D3): fast path when eligible, slow path
/// otherwise.
fn resolve_conflict(
    ctx: &WorkerCtx,
    lane_data: &LaneData,
    search: &crate::index::SearchOutcome,
    below: u64,
    epoch: u64,
) -> u64 {
    let shared = &ctx.shared;
    let table = &lane_data.comm.table;
    let prq = &lane_data.comm.prq;

    // Fast path (§III-D3a). Sound when:
    //  * we have a candidate and did not skip anything ourselves,
    //  * no lower lane skipped anything (their re-search could reach an
    //    older receive and upset the rank assignment),
    //  * every lower lane booked OUR candidate — then lane j will end up
    //    with the j-th receive of the sequence, deterministically, and our
    //    own rank equals our lane index,
    //  * the sequence of compatible receives is long enough for our rank.
    // Fast path additionally requires lazy removal: the rank walk counts
    // same-sequence entries consumed in this block as steps (they are being
    // taken by lower-ranked lanes), which is only sound while consumed
    // entries stay linked in the chain. Eager removal unlinks them
    // concurrently and would shift the walk's target (a C2 violation), so
    // eager-removal configurations always resolve through the slow path.
    if ctx.config.fast_path && ctx.config.lazy_removal && !search.skipped_booked {
        if let Some(cand) = search.candidate {
            let no_lower_skips = shared.forced.load(Ordering::Acquire) & below == 0;
            let all_lower_booked = table.slot(cand.desc).booking() & below == below;
            if no_lower_skips && all_lower_booked {
                let payload = table.slot(cand.desc).payload();
                let rank = below.count_ones() as usize;
                if let Some(target) =
                    prq.walk_sequence(payload.home, cand.desc, rank, payload.seq, table, epoch)
                {
                    if table.slot(target).try_consume(epoch) {
                        ctx.stats.fast_path.fetch_add(1, Ordering::Relaxed);
                        ctx.metrics.count_fast_path();
                        ctx.metrics.count_matched();
                        span_event!(
                            ctx.metrics,
                            lane_data.handle.0,
                            SpanKind::Matched {
                                path: MatchPath::WcFp
                            }
                        );
                        finish_consume(ctx, lane_data, target);
                        return target as u64;
                    }
                }
            }
        }
    }

    resolve_slow(ctx, lane_data, below, epoch)
}

/// Slow path (§III-D3b): wait for every lower lane to settle, then
/// re-search. At that point the consumed flags of all earlier messages are
/// final, so the oldest posted matching receive is exactly the sequential
/// assignment for this message.
fn resolve_slow(ctx: &WorkerCtx, lane_data: &LaneData, below: u64, epoch: u64) -> u64 {
    let shared = &ctx.shared;
    let table = &lane_data.comm.table;
    let prq = &lane_data.comm.prq;

    BlockShared::wait_bits(&shared.settled, below);
    ctx.stats.slow_path.fetch_add(1, Ordering::Relaxed);
    loop {
        let out = prq.research(
            &lane_data.env,
            &lane_data.hashes,
            table,
            lane_data.comm.hints,
        );
        match out.candidate {
            None => return result_code::UNEXPECTED,
            Some(c) => {
                if table.slot(c.desc).try_consume(epoch) {
                    // The WC-SP *resolution* counter fires only on a
                    // successful consume (a slow-path entry that goes
                    // unexpected resolved nothing), keeping the invariant
                    // `otm_matched_total == Σ otm_resolutions_total{path}`.
                    // `stats.slow_path` above still counts entries.
                    ctx.metrics.count_slow_path();
                    ctx.metrics.count_matched();
                    span_event!(
                        ctx.metrics,
                        lane_data.handle.0,
                        SpanKind::Matched {
                            path: MatchPath::WcSp
                        }
                    );
                    finish_consume(ctx, lane_data, c.desc);
                    return c.desc as u64;
                }
                // A concurrent fast-path lane above us took it between our
                // read and our CAS; re-search (it targets a different rank,
                // so this terminates).
            }
        }
    }
}

/// Post-consumption bookkeeping: with eager removal the consuming thread
/// unlinks the descriptor from its bin immediately, serializing on the bin's
/// write lock — the overhead lazy removal avoids (§IV-D). With lazy removal
/// the tombstone stays until the coordinator's block-end sweep.
fn finish_consume(ctx: &WorkerCtx, lane_data: &LaneData, desc: DescId) {
    if !ctx.config.lazy_removal {
        let payload = lane_data.comm.table.slot(desc).payload();
        debug_assert_eq!(lane_data.comm.table.slot(desc).state(), state::CONSUMED);
        lane_data.comm.prq.unlink(payload.home, desc);
    }
}
