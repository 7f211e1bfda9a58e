//! The Optimistic Tag Matching engine: public API and coordinator logic.
//!
//! [`OtmEngine`] owns the block arena its lanes (the DPA threads of §IV) are
//! stepped through and the per-communicator state: descriptor table, index
//! structures and unexpected-message store, plain data inside one
//! [`shard`](crate::shard) mutex per communicator. It starts no thread: a
//! block runs on the thread that calls in.
//!
//! Two host-facing paths feed the engine, mirroring §IV-E's QP command
//! handling:
//!
//! * **The command queue**, the way the matching service drives the engine.
//!   Any thread may [`OtmEngine::submit`] post and arrival commands into the
//!   engine's FIFO [`CommandQueue`]; a drainer thread calls
//!   [`OtmEngine::drain`] to apply them, staging a bounded window in a
//!   packing scheduler that assembles arrivals into parallel blocks,
//!   reordering across communicators to keep blocks full under mixed
//!   post/arrival traffic. Because matching outcomes depend only on
//!   per-communicator command order, which the scheduler strictly
//!   preserves, the per-communicator match set is identical to a fully
//!   serialized engine's.
//! * **Direct calls** for a caller that holds the engine exclusively (the
//!   sequential adapter, oracles, benchmarks of the block alone):
//!   [`OtmEngine::post`] posts one receive, and blocks of incoming messages
//!   are matched via [`OtmEngine::process_block`] (with a chunking
//!   [`OtmEngine::process_stream`]). All three take `&mut self`, so a direct
//!   call never runs beside a drain. The block coordinator locks exactly the
//!   shards the block touches, once each, and lends them to the lanes.
//!
//! There are two lock levels and nothing below them. The coordinator lock
//! guards the block arena, the drain arena and the arrival clock; a drain
//! holds it from entry to exit, which serializes whole drains against each
//! other, and `submit` never takes it. Under it come the shard locks, taken
//! in [`CommId`] order by a block and one at a time by everything else (a
//! drain's posts, once a run); a shard's tables have no lock of their own.
//! Counting follows them: a block's lanes and a drain's posts add to plain
//! tallies under the coordinator lock, published once as the block ends and
//! the drain exits ([`stats`](crate::stats)). A caller that holds the engine
//! exclusively shares with no one, and [`MatchingBackend::submit_command`]
//! reaches the ticket counter and the directory through `get_mut`.

use crate::block::{result_code, BlockState, LaneData, NO_DESC};
use crate::command::{Command, CommandOutcome, CommandQueue, DrainReport, Merge};
use crate::metrics::{span_event, EngineMetrics};
use crate::scheduler::{PackingScheduler, PackingStep};
use crate::shard::{locate, CommShard, Locked, ShardHost, ShardMap};
use crate::stats::{StatsSnapshot, Tally};
use crate::table::{DescId, Payload};
use crate::worker::{run_block, LaneCtx};
use mpi_matching::stats::DepthAggregate;
use mpi_matching::{
    ArriveResult, MatchStats, Matcher, MatchingBackend, MsgHandle, PostResult, RecvHandle,
};
use otm_base::sync::{lock, mutex_mut};
use otm_base::{
    ArrivalSeq, CommHints, CommId, Envelope, InlineHashes, MatchConfig, MatchError, PackingPolicy,
    ReceivePattern,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

pub use mpi_matching::backend::{BlockDelivery as Delivery, FallbackState};

/// Coordinator-only state: whatever must be serialized across blocks but
/// not across posts. Guarded by the engine's coordinator lock, which
/// thereby serializes block execution on the single [`BlockState`] arena
/// and, held for a whole [`OtmEngine::drain`], keeps concurrent drains from
/// interleaving their queue pops and breaking FIFO order.
struct CoordState {
    blocks: BlockCoord,
    drain: DrainArena,
}

/// What running a block takes besides its lanes.
struct BlockCoord {
    /// Arrival sequence of the next incoming message.
    next_arrival: ArrivalSeq,
    /// The block arena.
    block: BlockState,
    /// Block scratch: each lane's communicator as its place in the
    /// directory, sorted; deduplicated once the shards are locked.
    comms: Vec<usize>,
}

/// What a drain works in, kept for the next one: the coordinator runs on
/// memory it already owns (§IV-E), so a warm drain allocates its report and
/// nothing else. Its vectors are emptied, not dropped, so they stay at size.
struct DrainArena {
    /// The directory snapshot the drain works on, and the directory
    /// generation it was taken at (`None`: never taken).
    lanes: Vec<(CommId, Arc<CommShard>)>,
    generation: Option<u64>,
    /// The packing scheduler, re-armed at every drain.
    sched: PackingScheduler,
    /// The merge's cached ring heads, one per lane.
    heads: Vec<Option<u64>>,
    /// The applied commands' outcomes under their tickets, moved into the
    /// report in submission order.
    outcomes: Vec<(u64, CommandOutcome)>,
    /// Per-lane depth peaks of the staged lane and the submission ring.
    lane_peaks: Vec<u64>,
    ring_peaks: Vec<u64>,
    /// What the drain's posts counted, and each match's UMQ depth.
    posts: Tally,
    umq_depths: Vec<u64>,
}

/// The span subject of a queued command: its message, or its receive.
#[cfg(feature = "trace-events")]
fn span_subject(cmd: &Command) -> u64 {
    match cmd {
        Command::Post { handle, .. } => ::otm_metrics::RECV_SUBJECT_BIT | handle.0,
        Command::Arrival { msg, .. } => msg.0,
    }
}

/// Moves a drain's outcomes, tickets stripped, into a vector of their own in
/// ticket order, leaving `outcomes` empty; `first..=last` spans the tickets
/// the drain staged. When the outcomes fill that span (no requeue, burned
/// ticket or failed step in it) each one's place is `ticket − first`, so it
/// is written there and nothing is compared. Otherwise, sort.
fn in_submission_order(
    outcomes: &mut Vec<(u64, CommandOutcome)>,
    (first, last): (u64, u64),
) -> Vec<CommandOutcome> {
    if first <= last && (last - first) as usize + 1 == outcomes.len() {
        let mut ordered = vec![outcomes[0].1; outcomes.len()];
        for (ticket, outcome) in outcomes.drain(..) {
            ordered[(ticket - first) as usize] = outcome;
        }
        return ordered;
    }
    outcomes.sort_unstable_by_key(|&(ticket, _)| ticket);
    outcomes.drain(..).map(|(_, o)| o).collect()
}

/// The Optimistic Tag Matching engine (see module docs and crate docs).
pub struct OtmEngine {
    config: MatchConfig,
    /// The published statistics: a leaf lock, held for one merge or copy.
    stats: Mutex<StatsSnapshot>,
    metrics: EngineMetrics,
    shards: ShardMap,
    queue: CommandQueue,
    coord: Mutex<CoordState>,
    /// Set by [`OtmEngine::set_packing`] to drain with the reference packer
    /// (`Consecutive`); nothing at run time sets it. Read at the top of
    /// every drain.
    pack_consecutive: AtomicBool,
    /// Runtime packing-window override in commands (0 = the configured
    /// default of `block_threads × 8`). Read at the top of every drain.
    packing_window_override: AtomicUsize,
    /// Set by [`OtmEngine::shutdown`], and when a block panicked half-run.
    stopped: AtomicBool,
}

impl std::fmt::Debug for OtmEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OtmEngine")
            .field("config", &self.config)
            .field("comms", &self.shards.len())
            .field("stopped", &self.stopped.load(Ordering::Relaxed))
            .finish()
    }
}

impl OtmEngine {
    /// Creates an engine with a block arena of `config.block_threads` lanes.
    pub fn new(config: MatchConfig) -> Result<Self, MatchError> {
        config.validate()?;
        Ok(OtmEngine {
            queue: CommandQueue::new(),
            coord: Mutex::new(CoordState {
                blocks: BlockCoord {
                    next_arrival: ArrivalSeq::ZERO,
                    block: BlockState::new(config.block_threads),
                    comms: Vec::with_capacity(config.block_threads),
                },
                drain: DrainArena {
                    lanes: Vec::new(),
                    generation: None,
                    sched: PackingScheduler::new(PackingPolicy::CrossComm, config.block_threads)
                        .with_lane_quota(config.lane_quota),
                    heads: Vec::new(),
                    outcomes: Vec::new(),
                    lane_peaks: Vec::new(),
                    ring_peaks: Vec::new(),
                    posts: Tally::default(),
                    umq_depths: Vec::new(),
                },
            }),
            config,
            stats: Mutex::default(),
            metrics: EngineMetrics::new(),
            shards: ShardMap::new(),
            pack_consecutive: AtomicBool::new(false),
            packing_window_override: AtomicUsize::new(0),
            stopped: AtomicBool::new(false),
        })
    }

    /// Empties the engine in place so that it reads as new: every
    /// communicator's table, indexes and unexpected store, its labels and
    /// sequence ids; the tickets, the arrival clock, the block epoch and the
    /// coordinator's tally; the
    /// published statistics and every registry instrument (a labelled gauge
    /// of a communicator used before the reset stays registered, at 0); the
    /// span ring; both packing selectors; the drain's directory snapshot.
    /// What the engine allocated stays: the shards (a communicator's comes
    /// back on its next use), their rings, the block and drain arenas and
    /// every instrument handle, so a reset allocates nothing. It takes no
    /// lock, holding the engine to itself.
    ///
    /// Refused, with the engine untouched, when it is stopped
    /// ([`MatchError::EngineStopped`]) or holds a command no drain has
    /// applied ([`MatchError::InvalidConfig`]): a reset never drops work.
    pub fn reset(&mut self) -> Result<(), MatchError> {
        self.check_running()?;
        if self.queue.stashed() || self.shards.any_queued() {
            return Err(MatchError::InvalidConfig(
                "an engine with queued commands cannot be reset".into(),
            ));
        }
        let coord = mutex_mut(&mut self.coord);
        // The snapshot shares the shards the directory is about to empty;
        // the reset moves the directory's generation, so the next drain
        // copies it again.
        coord.drain.lanes.clear();
        coord.drain.posts = Tally::default();
        coord.blocks.next_arrival = ArrivalSeq::ZERO;
        coord.blocks.block.epoch = 0;
        self.shards.reset();
        self.queue.reset();
        *mutex_mut(&mut self.stats) = StatsSnapshot::default();
        self.metrics.reset();
        *self.pack_consecutive.get_mut() = false;
        *self.packing_window_override.get_mut() = 0;
        Ok(())
    }

    /// Selects the packer for subsequent drains. An engine drains
    /// [`PackingPolicy::CrossComm`]; [`PackingPolicy::Consecutive`] is the
    /// reference packer of the packed ≡ consecutive oracle and of fig8's
    /// `--packing` A/B row, and nothing at run time selects it. Safe to
    /// call at any time: the selector is read once at the top of each
    /// drain, and both packers preserve per-communicator FIFO order, so a
    /// mid-stream switch cannot violate MPI matching order.
    pub fn set_packing(&self, policy: PackingPolicy) {
        self.pack_consecutive
            .store(policy == PackingPolicy::Consecutive, Ordering::Relaxed);
    }

    /// The packer the next drain will use (see [`OtmEngine::set_packing`]).
    pub fn packing(&self) -> PackingPolicy {
        if self.pack_consecutive.load(Ordering::Relaxed) {
            PackingPolicy::Consecutive
        } else {
            PackingPolicy::CrossComm
        }
    }

    /// Overrides the drain's staging-window depth in commands (0 restores
    /// the configured default of `block_threads × 8`, floored at 32).
    /// Values below one block are rounded up so blocks can still fill.
    pub fn set_packing_window_override(&self, window: usize) {
        self.packing_window_override
            .store(window, Ordering::Relaxed);
    }

    /// The staging-window depth the next drain will use.
    pub fn effective_packing_window(&self) -> usize {
        match self.packing_window_override.load(Ordering::Relaxed) {
            0 => self.config.block_threads.saturating_mul(8).max(32),
            w => w.max(self.config.block_threads),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &MatchConfig {
        &self.config
    }

    /// A snapshot of the engine's statistics.
    pub fn stats(&self) -> StatsSnapshot {
        lock(&self.stats).clone()
    }

    /// The engine's metric instruments (histograms, path counters).
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// Copies out the engine's metrics registry: search-depth and
    /// block-latency histograms plus resolution-path counters, ready for
    /// Prometheus or JSON exposition.
    pub fn metrics_snapshot(&self) -> otm_metrics::RegistrySnapshot {
        self.metrics.snapshot()
    }

    /// Copies out the retained lifecycle span events, oldest first.
    #[cfg(feature = "trace-events")]
    pub fn span_events(&self) -> Vec<otm_metrics::SpanEvent> {
        self.metrics.spans().dump()
    }

    /// The engine's lifecycle span recorder (ring stats, JSONL and Chrome
    /// `trace_event` export, per-path latency histograms).
    #[cfg(feature = "trace-events")]
    pub fn span_recorder(&self) -> &otm_metrics::SpanRecorder {
        self.metrics.spans()
    }

    fn check_running(&self) -> Result<(), MatchError> {
        if self.stopped.load(Ordering::SeqCst) {
            Err(MatchError::EngineStopped)
        } else {
            Ok(())
        }
    }

    /// Declares a communicator with matching hints (§VII): "applications
    /// can provide MPI communicator info objects to influence the
    /// offloading of tag matching for a given communicator" (§IV-E).
    ///
    /// Like the DPA resource allocation, hints are fixed at communicator
    /// creation: calling this after the communicator has been used is an
    /// error.
    pub fn declare_comm(&self, comm: CommId, hints: CommHints) -> Result<(), MatchError> {
        self.check_running()?;
        self.shards.try_declare(comm, &self.config, hints)
    }

    /// The hints a communicator was declared with.
    pub fn comm_hints(&self, comm: CommId) -> Option<CommHints> {
        self.shards.get(comm).map(|s| s.hints)
    }

    /// Merges `tally`, with the depth samples that go with it, into the
    /// published statistics and the registry.
    fn publish(
        &self,
        tally: Tally,
        search_depths: impl IntoIterator<Item = u64>,
        umq_depths: impl IntoIterator<Item = u64>,
    ) {
        self.metrics.add(&tally, search_depths, umq_depths);
        let mut stats = lock(&self.stats);
        *stats = stats.merge(&tally.stats);
    }

    /// Publishes what a block counted, and the depth of every lane's search,
    /// and zeroes the arena's tally.
    fn publish_block(&self, block: &mut BlockState) {
        let depths = block.searches.iter().flatten().map(|s| s.depth as u64);
        let mut tally = std::mem::take(&mut block.tally);
        for depth in depths.clone() {
            tally.stats.search_count += 1;
            tally.stats.search_depth_sum += depth;
            tally.stats.search_depth_max = tally.stats.search_depth_max.max(depth);
        }
        self.publish(tally, depths, []);
    }

    /// Posts a receive — the host-to-DPA command path (§IV-E) — into a
    /// running engine's locked shard, the communicator's hints already
    /// checked (the drain holds the guard across a run of one
    /// communicator's posts; [`OtmEngine::post`] locks for one).
    ///
    /// The unexpected-message store is searched first (§IV-C); on a miss the
    /// receive is labelled, assigned its sequence id, and indexed in the
    /// structure matching its wildcard class (§III-B). Counts into `tally`
    /// and hands a match's UMQ depth to `depth`; the caller publishes both.
    /// A post the full table refuses leaves no trace. Reads no engine field
    /// but `metrics` (for lifecycle spans).
    fn post_locked(
        metrics: &EngineMetrics,
        host: &mut ShardHost,
        pattern: ReceivePattern,
        handle: RecvHandle,
        tally: &mut Tally,
        depth: impl FnOnce(u64),
    ) -> Result<PostResult, MatchError> {
        if let Some(m) = host.umq.match_post(&pattern) {
            tally.stats.umq_search_count += 1;
            tally.stats.matched_on_post += 1;
            tally.stats.umq_depth_sum += m.depth as u64;
            depth(m.depth as u64);
            // The subject is the *message* consumed from the UMQ: if it
            // arrived through a block earlier, this closes the span those
            // events opened.
            span_event!(
                metrics,
                m.handle.0,
                SpanKind::Matched {
                    path: MatchPath::Post
                }
            );
            // The consumed receive is not indexed, so it breaks any ongoing
            // run of compatible receives.
            host.last_pattern = None;
            return Ok(PostResult::Matched(m.handle));
        }
        // Sequence ids (§III-D3a): consecutive compatible posts share one.
        let seq = match &host.last_pattern {
            Some(p) if p.compatible(&pattern) => host.cur_seq,
            _ => host.cur_seq.next(),
        };
        let desc = host.table.allocate(Payload {
            pattern,
            label: host.next_label,
            seq,
            handle: handle.0,
            home: host.prq.home_of(&pattern),
        })?;
        (host.cur_seq, host.last_pattern) = (seq, Some(pattern));
        host.next_label = host.next_label.next();
        host.prq.insert(&mut host.table, desc);
        tally.stats.umq_search_count += 1;
        tally.stats.posted += 1;
        span_event!(metrics, RECV_SUBJECT_BIT | handle.0, SpanKind::Posted);
        Ok(PostResult::Posted)
    }

    /// Posts a receive for a caller with the engine to itself, applied at
    /// once: the shard is found without the directory's lock or an `Arc`
    /// clone. A caller sharing the engine submits a [`Command::Post`].
    pub fn post(
        &mut self,
        pattern: ReceivePattern,
        handle: RecvHandle,
    ) -> Result<PostResult, MatchError> {
        self.check_running()?;
        let shard = self.shards.shard_mut(pattern.comm, &self.config);
        shard.admits(&pattern)?;
        let (mut tally, mut depth) = (Tally::default(), None);
        let note = |d| depth = Some(d);
        let result = {
            let host = &mut lock(&shard.host);
            Self::post_locked(&self.metrics, host, pattern, handle, &mut tally, note)
        };
        self.publish(tally, [], depth);
        result
    }

    /// Enqueues a command into the engine's submission queue (§IV-E's QP
    /// command path). Callable from any thread; the command takes effect at
    /// the next [`OtmEngine::drain`].
    ///
    /// On the default ring submission path a full communicator ring rejects
    /// the command with the retryable
    /// [`MatchError::SubmissionRingFull`] — nothing is enqueued; draining
    /// frees slots, after which the same submit succeeds.
    pub fn submit(&self, cmd: Command) -> Result<(), MatchError> {
        self.check_running()?;
        // The span subject must be captured before `cmd` moves into the
        // queue; the event itself is stamped only once the submit succeeded
        // (a ring-full rejection enqueues nothing, so it opens no span).
        #[cfg(feature = "trace-events")]
        let subject = span_subject(&cmd);
        self.queue.submit(cmd, &self.shards, &self.config)?;
        #[cfg(feature = "trace-events")]
        span_event!(self.metrics, subject, SpanKind::Enqueued);
        Ok(())
    }

    /// Number of submitted commands not yet drained.
    pub fn pending_commands(&self) -> usize {
        self.queue.len(&self.shards.all_sorted())
    }

    /// Drains the command queue — the coordinator half of the QP command
    /// path. Commands are staged into a [`PackingScheduler`] window and
    /// carved into steps: single posts, and arrival blocks of up to
    /// `block_threads` messages matched in parallel. Blocks are assembled
    /// *across* communicators (§IV-E execution-group scheduling): posts at
    /// lane heads are hoisted ahead of other communicators' arrivals and the
    /// arrival runs of every lane are fused, so mixed post/arrival traffic
    /// still fills blocks. Per-communicator command order — the only order
    /// MPI matching can observe — is strictly preserved. With a single
    /// staged lane and no lane quota the steps are those of the reference
    /// packer ([`OtmEngine::set_packing`]), which packs strictly in
    /// submission order.
    ///
    /// The drain is *pipelined* (the paper's CQ pipelining, §IV-E): it pops
    /// commands one at a time, straight off the rings into the scheduler,
    /// and holds no lock a submitter takes, so racing `submit`s overlap with
    /// block execution instead of stalling behind the whole drain. Whole drains are serialized against each other
    /// by the coordinator lock, and only commands already queued when the
    /// drain started are processed — submissions racing in mid-drain wait
    /// for the next drain, so a busy submitter cannot pin the coordinator
    /// forever. A drain that finds nothing queued returns at once.
    ///
    /// The communicator directory is read once, at entry: the bounding
    /// count, the merge and the depth samples all work on that snapshot. A
    /// communicator created after it holds only commands submitted after
    /// drain entry, which the bound already leaves to the next drain. The
    /// snapshot is kept for the next drain and copied again only when the
    /// directory's generation moved (a communicator was added, or a reset).
    ///
    /// Everything else a drain works in is kept from one drain to the next
    /// too (the scheduler, re-armed; the block, outcome, peak and head
    /// vectors, emptied), so a warm drain allocates its report's outcome
    /// vector and nothing else; a block, its guards.
    ///
    /// Per-communicator depth peaks (staged lane, submission ring) are kept
    /// in two vectors indexed like the snapshot and published once, on every
    /// exit, through the gauge handles each communicator keeps after its
    /// first publish: no step resolves a labelled instrument. What the
    /// drain's posts counted is published with them; a block's tally, as the
    /// block ends.
    ///
    /// On an error the drain stops: outcomes of the commands already
    /// applied are returned in the report (in submission order) together
    /// with the error. What happens to the failing command and everything
    /// unapplied behind it depends on the error class (see
    /// [`DrainReport::error`]): *retryable* resource exhaustion requeues
    /// them at the front of the queue in submission order (ahead of racing
    /// submissions) so a retry resumes exactly where this drain stopped;
    /// a *terminal* error (the engine is stopped or poisoned, a command is
    /// invalid) surfaces them in [`DrainReport::unapplied`] instead, so a
    /// retry loop terminates rather than spinning forever on a dead engine.
    pub fn drain(&self) -> DrainReport {
        let mut coord = lock(&self.coord);
        let CoordState { blocks, drain } = &mut *coord;
        let DrainArena {
            lanes,
            generation,
            sched,
            heads,
            outcomes,
            lane_peaks,
            ring_peaks,
            posts,
            umq_depths,
        } = drain;
        self.shards.refresh(lanes, generation);
        let lanes = &lanes[..];
        let mut merge = self.queue.merge(lanes, heads);
        // Bound the drain to what was queued at entry (racing submissions
        // land behind this count and belong to the next drain).
        let mut remaining = merge.len();
        if remaining == 0 {
            return DrainReport::default();
        }
        // The staging window is a few blocks deep: enough lookahead to fuse
        // arrival runs across lanes.
        let window = self.effective_packing_window();
        sched.rearm(self.packing(), lanes);
        for peaks in [&mut *lane_peaks, &mut *ring_peaks] {
            peaks.clear();
            peaks.resize(lanes.len(), 0);
        }
        // The span of the staged tickets, for the outcomes' reorder.
        let mut tickets = (u64::MAX, 0);
        let mut sampled = false;
        // The last post's shard guard, kept while the next step is a post on
        // the same communicator and dropped before anything else is locked.
        let mut held: Option<(usize, Locked<'_>)> = None;
        let failure = loop {
            // Refill the window before every step so blocks are assembled
            // from the fullest lanes we are entitled to see.
            let mut refilled = false;
            while remaining > 0 && sched.staged() < window {
                match merge.next() {
                    Some((lane, ticket, cmd)) => {
                        // A lane grows only here; a ring shrinks here and
                        // is sampled after the refill.
                        let depth = sched.admit_at(lane, ticket, cmd) as u64;
                        lane_peaks[lane] = lane_peaks[lane].max(depth);
                        tickets = (tickets.0.min(ticket), tickets.1.max(ticket));
                        remaining -= 1;
                        refilled = true;
                    }
                    // The rest of the count is claimed but not yet
                    // published: it belongs to the next drain.
                    None => remaining = 0,
                }
            }
            if refilled {
                sampled = true;
                for (peak, (_, shard)) in ring_peaks.iter_mut().zip(lanes) {
                    *peak = (*peak).max(shard.submission.len() as u64);
                }
            }
            let Some((lane, step)) = sched.next_step_at() else {
                break None;
            };
            match step {
                PackingStep::Post {
                    idx,
                    pattern,
                    handle,
                } => {
                    if held.as_ref().is_some_and(|&(at, _)| at != lane) {
                        held = None;
                    }
                    let (_, host) = held.get_or_insert_with(|| (lane, lock(&lanes[lane].1.host)));
                    let depth = |d| umq_depths.push(d);
                    match self.check_running().and_then(|()| {
                        Self::post_locked(&self.metrics, host, pattern, handle, posts, depth)
                    }) {
                        Ok(result) => outcomes.push((idx, CommandOutcome::Post { handle, result })),
                        Err(e) => break Some((e, vec![(idx, Command::Post { pattern, handle })])),
                    }
                }
                PackingStep::Block { msgs } => {
                    held = None;
                    let block = msgs.iter().map(|&(_, env, msg)| (env, msg));
                    let deliver = |lane: usize, d| {
                        outcomes.push((msgs[lane].0, CommandOutcome::Delivery(d)));
                    };
                    // A block that fails has delivered nothing.
                    if let Err(e) = self.process_block_locked(blocks, lanes, block, deliver) {
                        let failed = msgs
                            .into_iter()
                            .map(|(idx, env, msg)| (idx, Command::Arrival { env, msg }))
                            .collect();
                        break Some((e, failed));
                    }
                    sched.recycle(msgs);
                }
            }
        };
        drop(held);
        if sampled {
            for ((comm, shard), (&lane, &ring)) in
                lanes.iter().zip(lane_peaks.iter().zip(ring_peaks.iter()))
            {
                self.metrics
                    .publish_drain_peaks(*comm, &shard.depth_peaks, lane, ring);
            }
        }
        self.publish(std::mem::take(posts), [], umq_depths.drain(..));
        if let Some((error, failed)) = failure {
            return self.fail_drain(error, failed, sched, outcomes, tickets, merge);
        }
        DrainReport {
            outcomes: in_submission_order(outcomes, tickets),
            error: None,
            unapplied: Vec::new(),
        }
    }

    /// Finishes a drain that stopped on `error`, deciding the fate of the
    /// unapplied commands: the `failed` step plus everything still staged
    /// in the scheduler, restored to submission order (every staged command
    /// is older than anything left in the queue, so putting the sorted set
    /// back at the queue front reconstructs the global order exactly).
    /// Retryable errors requeue them at the queue front; terminal errors
    /// pull *everything* (including commands still queued, over a fresh
    /// directory snapshot) out and surface it in the report, so retry loops
    /// terminate and a subsequent fallback can replay the commands. The
    /// scheduler is left empty for the next drain.
    fn fail_drain(
        &self,
        error: MatchError,
        failed: Vec<(u64, Command)>,
        sched: &mut PackingScheduler,
        outcomes: &mut Vec<(u64, CommandOutcome)>,
        tickets: (u64, u64),
        mut merge: Merge<'_>,
    ) -> DrainReport {
        let mut unprocessed: Vec<(u64, Command)> = failed;
        sched.take_unapplied(&mut unprocessed);
        unprocessed.sort_unstable_by_key(|&(idx, _)| idx);
        let outcomes = in_submission_order(outcomes, tickets);
        let unapplied = if error.is_retryable() {
            merge.requeue_front(unprocessed);
            Vec::new()
        } else {
            drop(merge);
            let (lanes, mut heads) = (self.shards.all_sorted(), Vec::new());
            let queued = self.queue.merge(&lanes, &mut heads);
            unprocessed.extend(queued.map(|(_, ticket, cmd)| (ticket, cmd)));
            unprocessed.into_iter().map(|(_, cmd)| cmd).collect()
        };
        DrainReport {
            outcomes,
            error: Some(error),
            unapplied,
        }
    }

    /// Stops the engine: every subsequent post, submit, block, or drain
    /// reports [`MatchError::EngineStopped`]. Commands already in the
    /// submission queue stay there — [`OtmEngine::drain_for_fallback`]
    /// still surfaces them, so shutdown loses nothing.
    pub fn shutdown(&self) {
        self.stopped.store(true, Ordering::SeqCst);
    }

    /// Matches one block of up to `N` incoming messages.
    ///
    /// Messages are taken in arrival order: lane *i* processes the *i*-th
    /// message, and the block's deliveries are returned in the same order.
    pub fn process_block(
        &mut self,
        msgs: &[(Envelope, MsgHandle)],
    ) -> Result<Vec<Delivery>, MatchError> {
        self.check_running()?;
        // With the engine to ourselves the directory is read in place.
        for (env, _) in msgs {
            self.shards.shard_mut(env.comm, &self.config);
        }
        let lanes = self.shards.read();
        let blocks = &mut lock(&self.coord).blocks;
        let mut deliveries = Vec::with_capacity(msgs.len());
        let deliver = |_, d| deliveries.push(d);
        self.process_block_locked(blocks, &lanes.live, msgs.iter().copied(), deliver)?;
        Ok(deliveries)
    }

    /// The block coordinator. Requires the coordinator lock (serializing
    /// block execution on the one [`BlockState`] arena) and takes the locks
    /// of exactly the shards the block touches, in [`CommId`] order — the
    /// engine's global lock order — holding them until the block's cleanup
    /// is done. Posters hold at most one shard lock and never the
    /// coordinator lock, so this cannot deadlock; posts into communicators
    /// outside the block proceed concurrently with it.
    ///
    /// `lanes` is the caller's view of the directory (a drain's snapshot, or
    /// the directory itself) and holds every communicator of `msgs`. Each
    /// lane's delivery goes to `deliver`, in lane order, once the block can
    /// no longer fail. Apart from the guards, a block allocates nothing.
    fn process_block_locked(
        &self,
        blocks: &mut BlockCoord,
        lanes: &[(CommId, Arc<CommShard>)],
        msgs: impl ExactSizeIterator<Item = (Envelope, MsgHandle)>,
        mut deliver: impl FnMut(usize, Delivery),
    ) -> Result<(), MatchError> {
        self.check_running()?;
        let n = msgs.len();
        if n == 0 {
            return Ok(());
        }
        if n > self.config.block_threads {
            return Err(MatchError::InvalidConfig(format!(
                "block of {n} messages exceeds the block width of {}",
                self.config.block_threads
            )));
        }
        let BlockCoord {
            next_arrival,
            block,
            comms,
        } = blocks;
        // The lanes' inputs. Until the shards are locked, `shard` is the
        // communicator's place in `lanes`.
        block.lanes.clear();
        block.lanes.extend(msgs.map(|(env, handle)| {
            let shard = locate(lanes, env.comm).expect("the caller's view holds every lane's");
            LaneData {
                env,
                handle,
                hashes: InlineHashes::of(&env),
                hints: lanes[shard].1.hints,
                shard,
            }
        }));

        // Lock the shards the block touches, each once, in `CommId` order
        // (the directory's). From here to the end of the block no poster can
        // reach an involved communicator's tables.
        //
        // Pre-check the unexpected-store capacity on the way: in the worst
        // case every message of the block goes unexpected, and rejecting up
        // front keeps the operation atomic — the caller can fall back to
        // software matching (§IV-E) with the engine's state fully intact (see
        // `drain_for_fallback`).
        comms.clear();
        comms.extend(block.lanes.iter().map(|lane| lane.shard));
        comms.sort_unstable();
        let mut guards = Vec::new();
        for arrivals in comms.chunk_by(|a, b| a == b) {
            let host = lock(&lanes[arrivals[0]].1.host);
            if host.umq.available() < arrivals.len() {
                return Err(MatchError::UnexpectedStoreFull);
            }
            guards.push(host);
        }
        comms.dedup();
        for lane in &mut block.lanes {
            lane.shard = comms
                .binary_search(&lane.shard)
                .expect("every block communicator is locked");
        }

        // Publish the block and step its lanes through the protocol.
        let started = std::time::Instant::now();
        #[cfg(feature = "trace-events")]
        {
            // Block ids are the arena's block count before this one:
            // serialized by the coordinator lock we hold, so gap-free.
            let block_id = block.epoch;
            for lane in &block.lanes {
                span_event!(
                    self.metrics,
                    lane.handle.0,
                    SpanKind::Packed {
                        block_id,
                        occupancy: n as u32
                    }
                );
            }
        }
        block.reset_for_block(n);
        let ctx = LaneCtx {
            metrics: &self.metrics,
            config: &self.config,
        };
        // `lock` ignores mutex poison, so a block that panicked half-run
        // must stop the engine itself: its bookings and consumes are not
        // cleaned up, and the tables stay readable for `drain_for_fallback`.
        // What its lanes counted before the panic is published all the same.
        let swept = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_block(&ctx, block, &guards)
        }));
        if swept.is_err() {
            self.stopped.store(true, Ordering::SeqCst);
            self.publish_block(block);
            return Err(MatchError::EngineStopped);
        }
        block.tally.latency_ns = started.elapsed().as_nanos() as u64;

        // Block-end cleanup, phase 1: clear the booking bitmaps so they are
        // monotone only within a block.
        for (&desc, lane) in block.booked_desc.iter().zip(&block.lanes) {
            if desc != NO_DESC {
                guards[lane.shard].table.slot(desc).clear_booking();
            }
        }

        // Phase 2: collect results, unlink and free consumed descriptors,
        // store unexpected messages (in lane = arrival order).
        let epoch = block.epoch;
        for (lane, (data, &code)) in block.lanes.iter().zip(&block.results).enumerate() {
            debug_assert_ne!(code, result_code::UNSET, "lane {lane} never settled");
            let host = &mut *guards[data.shard];
            if code == result_code::UNEXPECTED {
                block.tally.stats.unexpected += 1;
                let arrival = ArrivalSeq(next_arrival.0 + lane as u64);
                host.umq
                    .insert(data.env, &data.hashes, data.handle, arrival)
                    .expect("capacity pre-checked before the block ran");
                deliver(lane, Delivery::Unexpected { msg: data.handle });
            } else {
                let desc = code as DescId;
                debug_assert_eq!(host.table.slot(desc).state(), crate::table::state::CONSUMED);
                debug_assert_eq!(host.table.slot(desc).consumed_epoch(), epoch);
                let payload = host.table.slot(desc).payload();
                // §IV-D's lazy removal: the tombstone leaves its list now
                // that the block's lanes are done walking it.
                host.prq.unlink(&mut host.table, desc);
                host.table.release(desc);
                block.tally.stats.matched += 1;
                deliver(
                    lane,
                    Delivery::Matched {
                        msg: data.handle,
                        recv: RecvHandle(payload.handle),
                    },
                );
            }
        }
        *next_arrival = ArrivalSeq(next_arrival.0 + n as u64);
        (block.tally.stats.blocks, block.tally.stats.messages) = (1, n as u64);
        self.publish_block(block);
        Ok(())
    }

    /// Matches an arbitrarily long message stream, chunked into blocks of
    /// the configured size.
    pub fn process_stream(
        &mut self,
        msgs: &[(Envelope, MsgHandle)],
    ) -> Result<Vec<Delivery>, MatchError> {
        let mut out = Vec::with_capacity(msgs.len());
        for chunk in msgs.chunks(self.config.block_threads) {
            out.extend(self.process_block(chunk)?);
        }
        Ok(out)
    }

    /// Non-destructive unexpected-message probe (`MPI_Iprobe` semantics):
    /// the oldest waiting message matching `pattern`, if any.
    pub fn probe(&self, pattern: &ReceivePattern) -> Option<MsgHandle> {
        self.shards
            .get(pattern.comm)
            .and_then(|shard| lock(&shard.host).umq.probe(pattern))
    }

    /// Drains the complete matching state for migration to software tag
    /// matching — the fallback the paper mandates when device resources run
    /// out (§III-B, §IV-E). Consumes the engine (the device resources are
    /// being given up).
    ///
    /// Returns the pending receives, the waiting unexpected messages, *and*
    /// every command still sitting in the submission queue. Receives are
    /// ordered per communicator by post label (C1 only constrains order
    /// *within* a communicator, so replaying communicator-by-communicator
    /// into a software matcher preserves MPI semantics); unexpected
    /// messages are in arrival order per communicator; pending commands are
    /// in global submission order (including any batch a failed retryable
    /// drain put back at the queue front). Nothing the engine ever accepted
    /// is dropped — the fallback is loss-free even with a non-empty queue.
    pub fn drain_for_fallback(self) -> FallbackState {
        // Take the queue first: it holds the youngest accepted work, and
        // consuming `self` guarantees no submitter can race in behind us.
        let lanes = self.shards.all_sorted();
        let pending: Vec<Command> = self
            .queue
            .merge(&lanes, &mut Vec::new())
            .map(|(_, _, cmd)| cmd)
            .collect();
        let mut receives = Vec::new();
        let mut unexpected = Vec::new();
        for (_, shard) in &lanes {
            let mut host = lock(&shard.host);
            let mut posted: Vec<_> = host.table.posted().collect();
            posted.sort_by_key(|p| p.label);
            receives.extend(
                posted
                    .into_iter()
                    .map(|p| (p.pattern, RecvHandle(p.handle))),
            );
            unexpected.extend(host.umq.drain());
        }
        FallbackState {
            receives,
            unexpected,
            pending,
        }
    }

    /// Live posted receives across all communicators.
    pub fn prq_len(&self) -> usize {
        self.shards
            .all_sorted()
            .iter()
            .map(|(_, s)| lock(&s.host).table.posted().count())
            .sum()
    }

    /// Waiting unexpected messages across all communicators.
    pub fn umq_len(&self) -> usize {
        self.shards
            .all_sorted()
            .iter()
            .map(|(_, s)| lock(&s.host).umq.len())
            .sum()
    }

    /// Fraction of the `(src, tag)` table's bins, over every communicator,
    /// that hold no posted receive (a §V statistic); 1.0 before any
    /// communicator exists.
    pub fn prq_empty_bin_fraction(&self) -> f64 {
        let (mut empty, mut bins) = (0usize, 0usize);
        for (_, shard) in self.shards.all_sorted() {
            let host = lock(&shard.host);
            empty += host.prq.empty_bins(&host.table);
            bins += host.prq.bins();
        }
        if bins == 0 {
            1.0
        } else {
            empty as f64 / bins as f64
        }
    }
}

impl MatchingBackend for OtmEngine {
    fn backend_name(&self) -> &'static str {
        "Optimistic-DPA"
    }

    fn block_size(&self) -> usize {
        self.config.block_threads
    }

    fn post(
        &mut self,
        pattern: ReceivePattern,
        handle: RecvHandle,
    ) -> Result<PostResult, MatchError> {
        OtmEngine::post(self, pattern, handle)
    }

    fn arrive_block(
        &mut self,
        msgs: &[(Envelope, MsgHandle)],
    ) -> Result<Vec<Delivery>, MatchError> {
        self.process_stream(msgs)
    }

    fn probe(&self, pattern: &ReceivePattern) -> Option<MsgHandle> {
        OtmEngine::probe(self, pattern)
    }

    fn prq_len(&self) -> usize {
        OtmEngine::prq_len(self)
    }

    fn umq_len(&self) -> usize {
        OtmEngine::umq_len(self)
    }

    /// Translates the engine's device-side counters into host
    /// [`MatchStats`]: block search depths land in `prq_search`, post-time
    /// UMQ search depths in `umq_search`. Queue high-water marks are not
    /// tracked device-side and merge as zero.
    fn merge_stats(&self, into: &mut MatchStats) {
        let s = self.stats();
        into.merge(&MatchStats {
            prq_search: DepthAggregate {
                count: s.search_count,
                sum: s.search_depth_sum,
                max: s.search_depth_max,
            },
            umq_search: DepthAggregate {
                count: s.umq_search_count,
                sum: s.umq_depth_sum,
                max: 0,
            },
            matched_on_arrival: s.matched,
            unexpected: s.unexpected,
            matched_on_post: s.matched_on_post,
            posted: s.posted,
            prq_high_water: 0,
            umq_high_water: 0,
        });
    }

    fn wants_offload_fallback(&self) -> bool {
        true
    }

    fn supports_command_queue(&self) -> bool {
        true
    }

    /// [`OtmEngine::submit`] with the engine to ourselves: the same ticket
    /// sequence and ring push, reached without a lock or a read-modify-write.
    fn submit_command(&mut self, cmd: Command) -> Result<(), MatchError> {
        self.check_running()?;
        #[cfg(feature = "trace-events")]
        let subject = span_subject(&cmd);
        self.queue
            .submit_exclusive(cmd, &mut self.shards, &self.config)?;
        #[cfg(feature = "trace-events")]
        span_event!(self.metrics, subject, SpanKind::Enqueued);
        Ok(())
    }

    fn drain_commands(&mut self) -> DrainReport {
        OtmEngine::drain(self)
    }

    fn pending_commands(&self) -> usize {
        OtmEngine::pending_commands(self)
    }

    fn drain_for_fallback(self: Box<Self>) -> Result<FallbackState, MatchError> {
        Ok((*self).drain_for_fallback())
    }

    fn reset(&mut self) -> Result<(), MatchError> {
        OtmEngine::reset(self)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Adapter implementing the sequential [`Matcher`] interface on top of the
/// parallel engine by processing one-message blocks.
///
/// Single-message blocks exercise the optimistic search and booking paths
/// (never the conflict paths); the adapter lets the engine participate in
/// the oracle-equivalence harness and the Table I strategy comparison, and
/// it is the matcher the trace analyzer replays each rank through.
///
/// The adapter owns its engine outright, so its own calls are the only ones
/// that change it: each call's search depth is what the engine's depth sum
/// grew by since the previous call, and the queue lengths behind the
/// high-water marks follow from the calls' outcomes without a walk of the
/// engine's bins.
pub struct SequentialOtm {
    engine: OtmEngine,
    stats: MatchStats,
    /// The engine's statistics as the previous call left them.
    seen: StatsSnapshot,
    /// Posted receives and waiting messages.
    prq: usize,
    umq: usize,
}

impl SequentialOtm {
    /// Wraps a fresh engine with the given configuration.
    pub fn new(config: MatchConfig) -> Result<Self, MatchError> {
        Ok(SequentialOtm {
            engine: OtmEngine::new(config)?,
            stats: MatchStats::new(),
            seen: StatsSnapshot::default(),
            prq: 0,
            umq: 0,
        })
    }

    /// Resets the wrapped engine ([`OtmEngine::reset`]) and the adapter's
    /// statistics and queue lengths: the adapter reads as new. Refused, with
    /// nothing changed, when the engine refuses.
    pub fn reset(&mut self) -> Result<(), MatchError> {
        self.engine.reset()?;
        self.stats = MatchStats::new();
        self.seen = StatsSnapshot::default();
        (self.prq, self.umq) = (0, 0);
        Ok(())
    }

    /// [`OtmEngine::prq_empty_bin_fraction`] of the wrapped engine.
    pub fn prq_empty_bin_fraction(&self) -> f64 {
        self.engine.prq_empty_bin_fraction()
    }

    /// What the engine's statistics grew by since the previous call.
    fn growth(&mut self) -> StatsSnapshot {
        let now = self.engine.stats();
        let grown = now.delta(&self.seen);
        self.seen = now;
        grown
    }
}

impl std::fmt::Debug for SequentialOtm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SequentialOtm")
            .field("engine", &self.engine)
            .finish()
    }
}

impl Matcher for SequentialOtm {
    fn post(
        &mut self,
        pattern: ReceivePattern,
        handle: RecvHandle,
    ) -> Result<PostResult, MatchError> {
        let result = self.engine.post(pattern, handle)?;
        let depth = self.growth().umq_depth_sum as usize;
        let matched = matches!(result, PostResult::Matched(_));
        if matched {
            self.umq -= 1;
        } else {
            self.prq += 1;
        }
        self.stats.record_post(depth, matched);
        self.stats.observe_queue_lens(self.prq, self.umq);
        Ok(result)
    }

    fn arrive(&mut self, env: Envelope, handle: MsgHandle) -> Result<ArriveResult, MatchError> {
        let deliveries = self.engine.process_block(&[(env, handle)])?;
        let depth = self.growth().search_depth_sum as usize;
        let result = match deliveries[0] {
            Delivery::Matched { recv, .. } => {
                self.prq -= 1;
                ArriveResult::Matched(recv)
            }
            Delivery::Unexpected { .. } => {
                self.umq += 1;
                ArriveResult::Unexpected
            }
        };
        self.stats
            .record_arrival(depth, matches!(result, ArriveResult::Matched(_)));
        self.stats.observe_queue_lens(self.prq, self.umq);
        Ok(result)
    }

    fn prq_len(&self) -> usize {
        self.prq
    }

    fn umq_len(&self) -> usize {
        self.umq
    }

    fn probe(&self, pattern: &ReceivePattern) -> Option<MsgHandle> {
        self.engine.probe(pattern)
    }

    fn stats(&self) -> &MatchStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = MatchStats::new();
    }

    fn strategy_name(&self) -> &'static str {
        "optimistic"
    }
}

impl MatchingBackend for SequentialOtm {
    fn backend_name(&self) -> &'static str {
        "Optimistic-Seq"
    }

    fn post(
        &mut self,
        pattern: ReceivePattern,
        handle: RecvHandle,
    ) -> Result<PostResult, MatchError> {
        Matcher::post(self, pattern, handle)
    }

    fn arrive_block(
        &mut self,
        msgs: &[(Envelope, MsgHandle)],
    ) -> Result<Vec<Delivery>, MatchError> {
        msgs.iter()
            .map(|&(env, msg)| {
                Ok(match Matcher::arrive(self, env, msg)? {
                    ArriveResult::Matched(recv) => Delivery::Matched { msg, recv },
                    ArriveResult::Unexpected => Delivery::Unexpected { msg },
                })
            })
            .collect()
    }

    fn probe(&self, pattern: &ReceivePattern) -> Option<MsgHandle> {
        Matcher::probe(self, pattern)
    }

    fn prq_len(&self) -> usize {
        Matcher::prq_len(self)
    }

    fn umq_len(&self) -> usize {
        Matcher::umq_len(self)
    }

    /// The adapter tracks exact per-operation [`MatchStats`] (unlike the
    /// parallel engine's translated counters), merged verbatim.
    fn merge_stats(&self, into: &mut MatchStats) {
        into.merge(&self.stats);
    }

    fn wants_offload_fallback(&self) -> bool {
        true
    }

    fn drain_for_fallback(self: Box<Self>) -> Result<FallbackState, MatchError> {
        Ok(self.engine.drain_for_fallback())
    }

    fn reset(&mut self) -> Result<(), MatchError> {
        SequentialOtm::reset(self)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otm_base::envelope::{SourceSel, TagSel};
    use otm_base::{Rank, Tag};

    fn engine() -> OtmEngine {
        OtmEngine::new(MatchConfig::small()).unwrap()
    }

    fn env(src: u32, tag: u32) -> Envelope {
        Envelope::world(Rank(src), Tag(tag))
    }

    #[test]
    fn expected_message_matches() {
        let mut e = engine();
        e.post(ReceivePattern::exact(Rank(0), Tag(1)), RecvHandle(10))
            .unwrap();
        let d = e.process_block(&[(env(0, 1), MsgHandle(0))]).unwrap();
        assert_eq!(
            d,
            vec![Delivery::Matched {
                msg: MsgHandle(0),
                recv: RecvHandle(10)
            }]
        );
        assert_eq!(e.prq_len(), 0);
    }

    #[test]
    fn unexpected_message_is_stored_then_matched_at_post() {
        let mut e = engine();
        let d = e.process_block(&[(env(2, 3), MsgHandle(5))]).unwrap();
        assert_eq!(d, vec![Delivery::Unexpected { msg: MsgHandle(5) }]);
        assert_eq!(e.umq_len(), 1);
        let r = e
            .post(ReceivePattern::exact(Rank(2), Tag(3)), RecvHandle(0))
            .unwrap();
        assert_eq!(r, PostResult::Matched(MsgHandle(5)));
        assert_eq!(e.umq_len(), 0);
    }

    #[test]
    fn a_block_into_a_communicator_with_nothing_posted_reads_no_index() {
        // Each lane still records a search (of depth 0), and a receive no
        // message wants — which makes the lanes really search — changes
        // nothing a caller can see.
        for allow_overtaking in [false, true] {
            let run = |unrelated_post: bool| {
                let mut e = engine();
                let comm = CommId(3);
                let hints = CommHints {
                    allow_overtaking,
                    ..Default::default()
                };
                e.declare_comm(comm, hints).unwrap();
                if unrelated_post {
                    e.post(ReceivePattern::new(Rank(99), Tag(99), comm), RecvHandle(0))
                        .unwrap();
                }
                let msgs: Vec<_> = (0..e.config().block_threads as u32)
                    .map(|i| {
                        (
                            Envelope::new(Rank(i), Tag(i % 3), comm),
                            MsgHandle(i.into()),
                        )
                    })
                    .collect();
                (e.process_block(&msgs).unwrap(), e.stats())
            };
            let (skipped, stats) = run(false);
            let lanes = skipped.len() as u64;
            for (i, d) in skipped.iter().enumerate() {
                let msg = MsgHandle(i as u64);
                assert_eq!(*d, Delivery::Unexpected { msg });
            }
            assert_eq!((stats.search_count, stats.search_depth_sum), (lanes, 0));
            assert_eq!(stats.unexpected, lanes);
            let (searched, after) = run(true);
            assert_eq!(skipped, searched, "allow_overtaking: {allow_overtaking}");
            assert_eq!(after.search_count, lanes);
        }
    }

    #[test]
    fn full_block_matches_distinct_receives_in_parallel() {
        let mut e = engine();
        let n = e.config().block_threads;
        for i in 0..n {
            e.post(
                ReceivePattern::exact(Rank(i as u32), Tag(0)),
                RecvHandle(i as u64),
            )
            .unwrap();
        }
        let msgs: Vec<_> = (0..n)
            .map(|i| (env(i as u32, 0), MsgHandle(i as u64)))
            .collect();
        let d = e.process_block(&msgs).unwrap();
        for (i, del) in d.iter().enumerate() {
            assert_eq!(
                *del,
                Delivery::Matched {
                    msg: MsgHandle(i as u64),
                    recv: RecvHandle(i as u64)
                }
            );
        }
        let snap = e.stats();
        assert_eq!(snap.matched, n as u64);
        assert_eq!(
            snap.slow_path + snap.fast_path,
            0,
            "distinct receives must not conflict"
        );
    }

    #[test]
    fn conflicting_block_preserves_message_order() {
        // All messages match the same sequence of compatible receives: the
        // canonical WC scenario. Deliveries must pair message i with the
        // i-th posted receive.
        let mut e = engine();
        let n = e.config().block_threads;
        for i in 0..n {
            e.post(ReceivePattern::exact(Rank(7), Tag(7)), RecvHandle(i as u64))
                .unwrap();
        }
        let msgs: Vec<_> = (0..n).map(|i| (env(7, 7), MsgHandle(i as u64))).collect();
        let d = e.process_block(&msgs).unwrap();
        for (i, del) in d.iter().enumerate() {
            assert_eq!(
                *del,
                Delivery::Matched {
                    msg: MsgHandle(i as u64),
                    recv: RecvHandle(i as u64)
                },
                "lane {i}"
            );
        }
    }

    #[test]
    fn fast_path_is_taken_for_compatible_sequences() {
        // Conflicts are time-dependent (§III-C): "two threads attempt to
        // book the same receive only if they process messages matching that
        // same receive at the same time". With 32 lanes racing over many
        // rounds, the all-booked-same-receive scenario occurs reliably.
        let mut e =
            OtmEngine::new(MatchConfig::default().with_max_receives(4096).with_bins(64)).unwrap();
        let n = e.config().block_threads;
        let mut next = 0u64;
        for _round in 0..50 {
            for _ in 0..n {
                e.post(ReceivePattern::exact(Rank(1), Tag(1)), RecvHandle(next))
                    .unwrap();
                next += 1;
            }
            let msgs: Vec<_> = (0..n).map(|i| (env(1, 1), MsgHandle(i as u64))).collect();
            let d = e.process_block(&msgs).unwrap();
            let base = next - n as u64;
            for (i, del) in d.iter().enumerate() {
                assert_eq!(del.matched(), Some(RecvHandle(base + i as u64)), "lane {i}");
            }
        }
        assert!(e.stats().fast_path > 0, "stats: {:?}", e.stats());
    }

    #[test]
    fn slow_path_only_when_fast_path_disabled() {
        // As with the fast-path test, conflicts are time-dependent, so run
        // many racing rounds; with the fast path off, every conflict must
        // resolve through the slow path (the WC-SP configuration of Fig. 8).
        let mut e = OtmEngine::new(
            MatchConfig::default()
                .with_max_receives(4096)
                .with_bins(64)
                .with_fast_path(false),
        )
        .unwrap();
        let n = e.config().block_threads;
        let mut next = 0u64;
        for _round in 0..50 {
            for _ in 0..n {
                e.post(ReceivePattern::exact(Rank(1), Tag(1)), RecvHandle(next))
                    .unwrap();
                next += 1;
            }
            let msgs: Vec<_> = (0..n).map(|i| (env(1, 1), MsgHandle(i as u64))).collect();
            let d = e.process_block(&msgs).unwrap();
            let base = next - n as u64;
            for (i, del) in d.iter().enumerate() {
                assert_eq!(del.matched(), Some(RecvHandle(base + i as u64)), "lane {i}");
            }
        }
        let snap = e.stats();
        assert_eq!(snap.fast_path, 0);
        assert!(snap.slow_path > 0, "stats: {snap:?}");
    }

    #[test]
    fn mixed_block_some_unexpected() {
        let mut e = engine();
        e.post(ReceivePattern::exact(Rank(0), Tag(0)), RecvHandle(0))
            .unwrap();
        let d = e
            .process_block(&[
                (env(0, 0), MsgHandle(0)),
                (env(9, 9), MsgHandle(1)),
                (env(0, 0), MsgHandle(2)),
            ])
            .unwrap();
        assert_eq!(
            d[0],
            Delivery::Matched {
                msg: MsgHandle(0),
                recv: RecvHandle(0)
            }
        );
        assert_eq!(d[1], Delivery::Unexpected { msg: MsgHandle(1) });
        assert_eq!(d[2], Delivery::Unexpected { msg: MsgHandle(2) });
        // Unexpected messages must be retrievable in arrival order.
        let r = e.post(ReceivePattern::any_any(), RecvHandle(1)).unwrap();
        assert_eq!(r, PostResult::Matched(MsgHandle(1)));
        let r = e.post(ReceivePattern::any_any(), RecvHandle(2)).unwrap();
        assert_eq!(r, PostResult::Matched(MsgHandle(2)));
    }

    #[test]
    fn wildcard_receives_match_in_post_order_across_blocks() {
        let mut e = engine();
        e.post(ReceivePattern::any_source(Tag(5)), RecvHandle(0))
            .unwrap();
        e.post(ReceivePattern::exact(Rank(1), Tag(5)), RecvHandle(1))
            .unwrap();
        let d = e
            .process_stream(&[(env(1, 5), MsgHandle(0)), (env(1, 5), MsgHandle(1))])
            .unwrap();
        assert_eq!(
            d[0].matched(),
            Some(RecvHandle(0)),
            "C1: wildcard posted first wins"
        );
        assert_eq!(d[1].matched(), Some(RecvHandle(1)));
    }

    #[test]
    fn receive_table_capacity_reports_fallback() {
        let mut e = OtmEngine::new(MatchConfig::small().with_max_receives(2)).unwrap();
        e.post(ReceivePattern::exact(Rank(0), Tag(0)), RecvHandle(0))
            .unwrap();
        e.post(ReceivePattern::exact(Rank(0), Tag(1)), RecvHandle(1))
            .unwrap();
        assert_eq!(
            e.post(ReceivePattern::exact(Rank(0), Tag(2)), RecvHandle(2)),
            Err(MatchError::ReceiveTableFull)
        );
        // Consuming a receive frees capacity.
        e.process_block(&[(env(0, 0), MsgHandle(0))]).unwrap();
        e.post(ReceivePattern::exact(Rank(0), Tag(2)), RecvHandle(2))
            .unwrap();
    }

    #[test]
    fn unexpected_store_capacity_reports_fallback() {
        let mut e = OtmEngine::new(MatchConfig::small().with_max_unexpected(1)).unwrap();
        e.process_block(&[(env(0, 0), MsgHandle(0))]).unwrap();
        // A block that could overflow the store is rejected atomically —
        // BEFORE any message is matched — so the caller can migrate the
        // fully intact state to software matching (§IV-E).
        let err = e.process_block(&[(env(0, 1), MsgHandle(1))]).unwrap_err();
        assert_eq!(err, MatchError::UnexpectedStoreFull);
        // Nothing was lost or half-applied: the first unexpected message is
        // still there, posting still works, and draining hands it over.
        assert_eq!(e.umq_len(), 1);
        let r = e
            .post(ReceivePattern::exact(Rank(0), Tag(0)), RecvHandle(0))
            .unwrap();
        assert_eq!(r, PostResult::Matched(MsgHandle(0)));
        // With the store drained the same block now succeeds.
        let d = e.process_block(&[(env(0, 1), MsgHandle(1))]).unwrap();
        assert_eq!(d[0], Delivery::Unexpected { msg: MsgHandle(1) });
    }

    #[test]
    fn rejected_block_preserves_state_for_fallback_drain() {
        let mut e = OtmEngine::new(MatchConfig::small().with_max_unexpected(1)).unwrap();
        e.post(ReceivePattern::exact(Rank(5), Tag(5)), RecvHandle(9))
            .unwrap();
        e.process_block(&[(env(0, 0), MsgHandle(0))]).unwrap();
        // This block contains a MATCHING message and an overflowing one;
        // the atomic pre-check must reject it without consuming the match.
        let err = e
            .process_block(&[(env(5, 5), MsgHandle(1)), (env(0, 1), MsgHandle(2))])
            .unwrap_err();
        assert_eq!(err, MatchError::UnexpectedStoreFull);
        let state = e.drain_for_fallback();
        assert_eq!(
            state.receives,
            vec![(ReceivePattern::exact(Rank(5), Tag(5)), RecvHandle(9))]
        );
        assert_eq!(state.unexpected.len(), 1);
        assert_eq!(state.unexpected[0].1, MsgHandle(0));
        assert!(state.pending.is_empty());
    }

    #[test]
    fn multi_comm_block_maps_each_lane_to_its_own_shard() {
        // Three communicators in unsorted arrival order, one of them twice:
        // the lane -> locked-shard mapping must survive the sort + dedup.
        let mut e = OtmEngine::new(MatchConfig::small().with_max_unexpected(2)).unwrap();
        let on = |comm: u16, tag: u32| Envelope::new(Rank(0), Tag(tag), CommId(comm));
        let umq_lens = |e: &OtmEngine| -> Vec<usize> {
            [1u16, 3, 5]
                .iter()
                .map(|&c| lock(&e.shards.get(CommId(c)).unwrap().host).umq.len())
                .collect()
        };
        e.post(
            ReceivePattern::new(Rank(0), Tag(1), CommId(1)),
            RecvHandle(11),
        )
        .unwrap();
        e.process_block(&[(on(3, 9), MsgHandle(90)), (on(5, 9), MsgHandle(91))])
            .unwrap();
        assert_eq!(umq_lens(&e), [0, 1, 1]);

        // Comm 5 has one free slot and the block brings two messages for it.
        let block = [
            (on(5, 0), MsgHandle(0)),
            (on(1, 1), MsgHandle(1)),
            (on(5, 2), MsgHandle(2)),
            (on(3, 3), MsgHandle(3)),
        ];
        assert_eq!(
            e.process_block(&block),
            Err(MatchError::UnexpectedStoreFull)
        );
        assert_eq!(e.prq_len(), 1, "the comm-1 receive is still posted");
        assert_eq!(umq_lens(&e), [0, 1, 1]);

        // Free one comm-5 slot: the same block now delivers, in lane order.
        assert_eq!(
            e.post(
                ReceivePattern::new(Rank(0), Tag(9), CommId(5)),
                RecvHandle(59)
            ),
            Ok(PostResult::Matched(MsgHandle(91)))
        );
        assert_eq!(
            e.process_block(&block).unwrap(),
            vec![
                Delivery::Unexpected { msg: MsgHandle(0) },
                Delivery::Matched {
                    msg: MsgHandle(1),
                    recv: RecvHandle(11)
                },
                Delivery::Unexpected { msg: MsgHandle(2) },
                Delivery::Unexpected { msg: MsgHandle(3) },
            ]
        );
        assert_eq!(umq_lens(&e), [0, 2, 2]);
        let any = |comm: u16| ReceivePattern::new(SourceSel::Any, TagSel::Any, CommId(comm));
        assert_eq!(e.probe(&any(5)), Some(MsgHandle(0)));
        assert_eq!(e.probe(&any(3)), Some(MsgHandle(90)));
        assert_eq!(e.probe(&any(1)), None);
        assert_eq!(e.prq_len(), 0);
    }

    #[test]
    fn oversized_block_is_rejected() {
        let mut e = engine();
        let n = e.config().block_threads;
        let msgs: Vec<_> = (0..n + 1)
            .map(|i| (env(0, 0), MsgHandle(i as u64)))
            .collect();
        assert!(matches!(
            e.process_block(&msgs),
            Err(MatchError::InvalidConfig(_))
        ));
    }

    #[test]
    fn empty_block_is_a_noop() {
        let mut e = engine();
        assert_eq!(e.process_block(&[]).unwrap(), Vec::new());
        assert_eq!(e.stats().blocks, 0);
    }

    #[test]
    fn communicators_are_isolated() {
        let mut e = engine();
        let other = CommId(3);
        e.post(ReceivePattern::new(Rank(0), Tag(0), other), RecvHandle(0))
            .unwrap();
        // Same (src, tag) on WORLD must not match the comm-3 receive.
        let d = e.process_block(&[(env(0, 0), MsgHandle(0))]).unwrap();
        assert_eq!(d[0], Delivery::Unexpected { msg: MsgHandle(0) });
        let d = e
            .process_block(&[(Envelope::new(Rank(0), Tag(0), other), MsgHandle(1))])
            .unwrap();
        assert_eq!(d[0].matched(), Some(RecvHandle(0)));
    }

    #[test]
    fn sequence_ids_advance_on_incompatible_posts() {
        let mut e = engine();
        // Three compatible posts, then an incompatible one, then compatible
        // again: exercised indirectly through the fast path machinery; here
        // we just assert the engine accepts the pattern stream.
        for i in 0..3 {
            e.post(ReceivePattern::exact(Rank(0), Tag(0)), RecvHandle(i))
                .unwrap();
        }
        e.post(ReceivePattern::exact(Rank(0), Tag(1)), RecvHandle(3))
            .unwrap();
        e.post(ReceivePattern::exact(Rank(0), Tag(0)), RecvHandle(4))
            .unwrap();
        assert_eq!(e.prq_len(), 5);
    }

    #[test]
    fn sequential_adapter_tracks_stats() {
        let mut m = SequentialOtm::new(MatchConfig::small()).unwrap();
        Matcher::post(
            &mut m,
            ReceivePattern::exact(Rank(0), Tag(0)),
            RecvHandle(0),
        )
        .unwrap();
        let r = m.arrive(env(0, 0), MsgHandle(0)).unwrap();
        assert_eq!(r, ArriveResult::Matched(RecvHandle(0)));
        assert_eq!(m.stats().matched_on_arrival, 1);
        assert_eq!(m.strategy_name(), "optimistic");
    }

    #[test]
    fn adapter_queue_lengths_follow_its_engine() {
        let mut rng = otm_base::FaultRng::new(7);
        let config = MatchConfig::small()
            .with_bins(2)
            .with_max_receives(512)
            .with_max_unexpected(512);
        let mut m = SequentialOtm::new(config).unwrap();
        for i in 0..400u64 {
            let (src, tag) = (rng.below(3) as u32, rng.below(3) as u32);
            if rng.below(2) == 0 {
                let pattern = match rng.below(4) {
                    0 => ReceivePattern::any_source(Tag(tag)),
                    1 => ReceivePattern::any_tag(Rank(src)),
                    _ => ReceivePattern::exact(Rank(src), Tag(tag)),
                };
                Matcher::post(&mut m, pattern, RecvHandle(i)).unwrap();
            } else {
                m.arrive(env(src, tag), MsgHandle(i)).unwrap();
            }
            assert_eq!(Matcher::prq_len(&m), m.engine.prq_len(), "after event {i}");
            assert_eq!(Matcher::umq_len(&m), m.engine.umq_len(), "after event {i}");
        }
    }

    #[test]
    fn an_adapter_whose_engine_refuses_a_reset_keeps_everything() {
        // The adapter queues nothing and never stops on its own: the
        // refusals are reached through the wrapped engine.
        let mut m = SequentialOtm::new(MatchConfig::small()).unwrap();
        Matcher::post(
            &mut m,
            ReceivePattern::exact(Rank(0), Tag(1)),
            RecvHandle(0),
        )
        .unwrap();
        m.arrive(env(0, 2), MsgHandle(0)).unwrap();
        let cmd = Command::Arrival {
            env: env(0, 1),
            msg: MsgHandle(1),
        };
        m.engine.submit(cmd).unwrap();
        let before = (m.stats.clone(), m.prq, m.umq, m.engine.stats());
        let refused = m.reset();
        assert!(
            matches!(refused, Err(MatchError::InvalidConfig(_))),
            "{refused:?}"
        );
        assert_eq!((m.stats.clone(), m.prq, m.umq, m.engine.stats()), before);
        let matched = Delivery::Matched {
            msg: MsgHandle(1),
            recv: RecvHandle(0),
        };
        assert_eq!(
            m.engine.drain().outcomes,
            [CommandOutcome::Delivery(matched)]
        );
        m.engine.shutdown();
        let before = (m.stats.clone(), m.prq, m.umq, m.engine.stats());
        assert_eq!(m.reset(), Err(MatchError::EngineStopped));
        assert_eq!((m.stats.clone(), m.prq, m.umq, m.engine.stats()), before);
        assert_eq!(m.engine.umq_len(), 1);
    }

    #[test]
    fn empty_bin_fraction_counts_posted_exact_receives_only() {
        let config = MatchConfig::small().with_bins(32).with_max_receives(128);
        let mut m = SequentialOtm::new(config).unwrap();
        assert_eq!(m.prq_empty_bin_fraction(), 1.0, "no communicator yet");
        // Wildcard receives live outside the `(src, tag)` table.
        Matcher::post(&mut m, ReceivePattern::any_source(Tag(99)), RecvHandle(99)).unwrap();
        assert_eq!(m.prq_empty_bin_fraction(), 1.0);
        for t in 0..64u32 {
            Matcher::post(
                &mut m,
                ReceivePattern::exact(Rank(0), Tag(t)),
                RecvHandle(u64::from(t)),
            )
            .unwrap();
        }
        assert!(m.prq_empty_bin_fraction() < 0.5);
        // Consumed receives do not occupy a bin.
        for t in 0..64u32 {
            m.arrive(env(0, t), MsgHandle(u64::from(t))).unwrap();
        }
        assert_eq!(m.prq_empty_bin_fraction(), 1.0);
    }

    #[test]
    fn metrics_snapshot_tracks_engine_activity() {
        let mut e = engine();
        e.post(ReceivePattern::exact(Rank(0), Tag(1)), RecvHandle(10))
            .unwrap();
        e.process_block(&[(env(0, 1), MsgHandle(0))]).unwrap();
        let snap = e.metrics_snapshot();
        assert_eq!(snap.hists["otm_search_depth"].count, 1);
        assert_eq!(snap.hists["otm_block_latency_ns"].count, 1);
        assert!(snap.hists["otm_block_latency_ns"].max > 0);
        assert_eq!(snap.counters["otm_resolutions_total{path=\"nc\"}"], 1);
        // A post-time UMQ match lands in the UMQ histogram.
        e.process_block(&[(env(9, 9), MsgHandle(1))]).unwrap();
        e.post(ReceivePattern::exact(Rank(9), Tag(9)), RecvHandle(11))
            .unwrap();
        let snap = e.metrics_snapshot();
        assert_eq!(snap.hists["otm_umq_match_depth"].count, 1);
        // The delta between consecutive snapshots isolates new activity.
        let later = e.metrics_snapshot();
        assert_eq!(later.delta(&snap).hists["otm_search_depth"].count, 0);
    }

    #[cfg(feature = "trace-events")]
    #[test]
    fn span_lifecycle_covers_enqueued_packed_matched() {
        use otm_metrics::{MatchPath, SpanKind, RECV_SUBJECT_BIT};
        let mut e = engine();
        e.submit(Command::Post {
            pattern: ReceivePattern::exact(Rank(0), Tag(1)),
            handle: RecvHandle(3),
        })
        .unwrap();
        e.submit(Command::Arrival {
            env: env(0, 1),
            msg: MsgHandle(3),
        })
        .unwrap();
        let report = e.drain();
        assert!(report.error.is_none());
        let spans = e.span_events();
        // The receive (namespaced subject) was enqueued then posted; the
        // message — sharing the raw id 3, distinguishable only through the
        // namespace bit — was enqueued, packed into a 1-message block, and
        // matched without conflict.
        let recv = RECV_SUBJECT_BIT | 3;
        let kinds_of = |subject: u64| -> Vec<SpanKind> {
            spans
                .iter()
                .filter(|s| s.subject == subject)
                .map(|s| s.kind)
                .collect()
        };
        assert_eq!(kinds_of(recv), vec![SpanKind::Enqueued, SpanKind::Posted]);
        assert_eq!(
            kinds_of(3),
            vec![
                SpanKind::Enqueued,
                SpanKind::Packed {
                    block_id: 0,
                    occupancy: 1
                },
                SpanKind::Matched {
                    path: MatchPath::Nc
                }
            ]
        );
        // A later post consuming the UMQ closes the unexpected message's
        // span with a post-path match.
        e.submit(Command::Arrival {
            env: env(9, 9),
            msg: MsgHandle(50),
        })
        .unwrap();
        e.drain();
        let r = e
            .post(ReceivePattern::exact(Rank(9), Tag(9)), RecvHandle(8))
            .unwrap();
        assert_eq!(r, PostResult::Matched(MsgHandle(50)));
        let spans = e.span_events();
        assert!(spans.iter().any(|s| s.subject == 50
            && s.kind
                == SpanKind::Matched {
                    path: MatchPath::Post
                }));
        // Flight-recorder invariants: nothing dropped, matched spans agree
        // with the matched counter, and the path counters sum to it.
        assert_eq!(e.span_recorder().dropped(), 0);
        let matched_spans = spans
            .iter()
            .filter(|s| matches!(s.kind, SpanKind::Matched { .. }))
            .count() as u64;
        let snap = e.metrics_snapshot();
        assert_eq!(snap.counters["otm_matched_total"], matched_spans);
        let path_sum: u64 = otm_metrics::MATCH_PATHS
            .iter()
            .map(|p| {
                let key = format!("otm_resolutions_total{{path=\"{}\"}}", p.label());
                snap.counters.get(&key).copied().unwrap_or(0)
            })
            .sum();
        assert_eq!(path_sum, snap.counters["otm_matched_total"]);
    }

    #[test]
    fn stream_across_many_blocks_drains_receives_in_order() {
        let mut e = engine();
        let total = 3 * e.config().block_threads + 1;
        for i in 0..total {
            e.post(ReceivePattern::exact(Rank(0), Tag(0)), RecvHandle(i as u64))
                .unwrap();
        }
        let msgs: Vec<_> = (0..total)
            .map(|i| (env(0, 0), MsgHandle(i as u64)))
            .collect();
        let d = e.process_stream(&msgs).unwrap();
        for (i, del) in d.iter().enumerate() {
            assert_eq!(del.matched(), Some(RecvHandle(i as u64)), "message {i}");
        }
        assert_eq!(e.prq_len(), 0);
    }

    #[test]
    fn engine_is_shareable_across_threads() {
        // The `&self` command path only helps if the engine can actually be
        // shared; this is a compile-time property, checked here explicitly
        // since `forbid(unsafe_code)` means it must hold by construction.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<OtmEngine>();
    }

    #[test]
    fn submitted_commands_apply_in_order_on_drain() {
        let e = engine();
        e.submit(Command::Post {
            pattern: ReceivePattern::exact(Rank(0), Tag(1)),
            handle: RecvHandle(0),
        })
        .unwrap();
        e.submit(Command::Arrival {
            env: env(0, 1),
            msg: MsgHandle(0),
        })
        .unwrap();
        e.submit(Command::Arrival {
            env: env(4, 4),
            msg: MsgHandle(1),
        })
        .unwrap();
        assert_eq!(e.pending_commands(), 3);
        let report = e.drain();
        assert!(report.error.is_none());
        assert_eq!(
            report.outcomes,
            vec![
                CommandOutcome::Post {
                    handle: RecvHandle(0),
                    result: PostResult::Posted
                },
                CommandOutcome::Delivery(Delivery::Matched {
                    msg: MsgHandle(0),
                    recv: RecvHandle(0)
                }),
                CommandOutcome::Delivery(Delivery::Unexpected { msg: MsgHandle(1) }),
            ]
        );
        assert_eq!(e.pending_commands(), 0);
        assert_eq!(e.umq_len(), 1);
    }

    #[test]
    fn drain_batches_consecutive_arrivals_into_blocks() {
        let e = engine();
        let n = e.config().block_threads;
        // 2n+1 arrivals with no posts in between: the drain must pack them
        // into full blocks (2 full + 1 remainder).
        for i in 0..(2 * n + 1) {
            e.submit(Command::Arrival {
                env: env(0, 0),
                msg: MsgHandle(i as u64),
            })
            .unwrap();
        }
        let report = e.drain();
        assert!(report.error.is_none());
        assert_eq!(report.outcomes.len(), 2 * n + 1);
        assert_eq!(e.stats().blocks, 3);
        assert_eq!(e.umq_len(), 2 * n + 1);
    }

    #[test]
    fn failed_drain_requeues_the_unprocessed_tail() {
        let mut e = OtmEngine::new(MatchConfig::small().with_max_unexpected(1)).unwrap();
        // Arrival / post / arrival / post: the posts force one-message
        // batches. The first arrival fills the store, so the second cannot
        // be stored; it and the post behind it must stay queued.
        e.submit(Command::Arrival {
            env: env(0, 0),
            msg: MsgHandle(0),
        })
        .unwrap();
        e.submit(Command::Post {
            pattern: ReceivePattern::exact(Rank(8), Tag(8)),
            handle: RecvHandle(0),
        })
        .unwrap();
        e.submit(Command::Arrival {
            env: env(0, 1),
            msg: MsgHandle(1),
        })
        .unwrap();
        e.submit(Command::Post {
            pattern: ReceivePattern::exact(Rank(9), Tag(9)),
            handle: RecvHandle(1),
        })
        .unwrap();
        let report = e.drain();
        assert_eq!(report.error, Some(MatchError::UnexpectedStoreFull));
        // The first arrival and the first post were applied; the failed
        // arrival and the trailing post are back in submission order.
        assert_eq!(
            report.outcomes,
            vec![
                CommandOutcome::Delivery(Delivery::Unexpected { msg: MsgHandle(0) }),
                CommandOutcome::Post {
                    handle: RecvHandle(0),
                    result: PostResult::Posted
                },
            ]
        );
        assert_eq!(e.pending_commands(), 2);
        // Remedy the error — consume the stored message to free capacity —
        // then the retry resumes exactly where the drain stopped.
        let r = e
            .post(ReceivePattern::exact(Rank(0), Tag(0)), RecvHandle(7))
            .unwrap();
        assert_eq!(r, PostResult::Matched(MsgHandle(0)));
        let report = e.drain();
        assert!(report.error.is_none());
        assert_eq!(
            report.outcomes,
            vec![
                CommandOutcome::Delivery(Delivery::Unexpected { msg: MsgHandle(1) }),
                CommandOutcome::Post {
                    handle: RecvHandle(1),
                    result: PostResult::Posted
                },
            ]
        );
    }

    #[test]
    fn concurrent_posts_to_distinct_comms_succeed() {
        // Smoke test for the sharded `&self` path (the full interleaving
        // stress test lives in tests/concurrent_shards.rs): two threads
        // submit posts into two communicators simultaneously.
        let e = engine();
        let comm_a = CommId(1);
        let comm_b = CommId(2);
        std::thread::scope(|s| {
            for (t, comm) in [comm_a, comm_b].into_iter().enumerate() {
                let e = &e;
                s.spawn(move || {
                    for i in 0..32u64 {
                        e.submit(Command::Post {
                            pattern: ReceivePattern::new(Rank(0), Tag(i as u32), comm),
                            handle: RecvHandle(t as u64 * 1000 + i),
                        })
                        .unwrap();
                    }
                });
            }
        });
        let report = e.drain();
        assert!(report.error.is_none());
        assert_eq!(report.outcomes.len(), 64);
        assert_eq!(e.prq_len(), 64);
        assert_eq!(e.stats().posted, 64);
    }

    #[test]
    fn backend_trait_drives_the_engine() {
        let mut boxed: Box<dyn MatchingBackend> = Box::new(engine());
        assert_eq!(boxed.backend_name(), "Optimistic-DPA");
        assert!(boxed.wants_offload_fallback());
        assert_eq!(boxed.block_size(), MatchConfig::small().block_threads);
        boxed
            .post(ReceivePattern::exact(Rank(0), Tag(1)), RecvHandle(4))
            .unwrap();
        let d = boxed.arrive_block(&[(env(0, 1), MsgHandle(0))]).unwrap();
        assert_eq!(d[0].matched(), Some(RecvHandle(4)));
        let mut stats = MatchStats::new();
        boxed.merge_stats(&mut stats);
        assert_eq!(stats.posted, 1);
        assert_eq!(stats.matched_on_arrival, 1);
        // The observability downcast the service layer relies on.
        assert!(boxed.as_any().downcast_ref::<OtmEngine>().is_some());
        // The command-queue half of the trait.
        assert!(boxed.supports_command_queue());
        boxed
            .submit_command(Command::Arrival {
                env: env(9, 9),
                msg: MsgHandle(1),
            })
            .unwrap();
        assert_eq!(boxed.pending_commands(), 1);
        let report = boxed.drain_commands();
        assert!(report.error.is_none());
        assert_eq!(
            report.outcomes,
            vec![CommandOutcome::Delivery(Delivery::Unexpected {
                msg: MsgHandle(1)
            })]
        );
        let state = boxed.drain_for_fallback().unwrap();
        assert!(state.receives.is_empty());
        assert_eq!(state.unexpected.len(), 1);
        assert!(state.pending.is_empty());
    }

    #[test]
    fn fallback_snapshot_carries_the_undrained_queue() {
        // The lost-receive/lost-arrival bug: commands accepted into the
        // submission queue but never drained MUST survive the fallback
        // migration inside the snapshot's `pending`, in submission order.
        let mut e = engine();
        e.post(ReceivePattern::exact(Rank(0), Tag(0)), RecvHandle(0))
            .unwrap();
        e.submit(Command::Post {
            pattern: ReceivePattern::exact(Rank(1), Tag(1)),
            handle: RecvHandle(1),
        })
        .unwrap();
        e.submit(Command::Arrival {
            env: env(2, 2),
            msg: MsgHandle(0),
        })
        .unwrap();
        let state = e.drain_for_fallback();
        assert_eq!(
            state.receives,
            vec![(ReceivePattern::exact(Rank(0), Tag(0)), RecvHandle(0))]
        );
        assert_eq!(
            state.pending,
            vec![
                Command::Post {
                    pattern: ReceivePattern::exact(Rank(1), Tag(1)),
                    handle: RecvHandle(1),
                },
                Command::Arrival {
                    env: env(2, 2),
                    msg: MsgHandle(0),
                },
            ]
        );
    }

    #[test]
    fn drain_on_stopped_engine_surfaces_commands_terminally() {
        // A retry loop on a dead engine must terminate: the drain reports
        // EngineStopped as terminal and hands the commands over instead of
        // requeueing them forever.
        let e = engine();
        e.submit(Command::Arrival {
            env: env(0, 0),
            msg: MsgHandle(0),
        })
        .unwrap();
        e.submit(Command::Post {
            pattern: ReceivePattern::exact(Rank(1), Tag(1)),
            handle: RecvHandle(1),
        })
        .unwrap();
        e.shutdown();
        let report = e.drain();
        assert_eq!(report.error, Some(MatchError::EngineStopped));
        assert!(report.is_terminal());
        assert!(report.outcomes.is_empty());
        assert_eq!(report.unapplied.len(), 2);
        assert!(matches!(report.unapplied[0], Command::Arrival { .. }));
        assert!(matches!(report.unapplied[1], Command::Post { .. }));
        // The queue is empty now — a second drain is a clean no-op, not an
        // infinite EngineStopped spin.
        assert_eq!(e.pending_commands(), 0);
        let again = e.drain();
        assert!(again.error.is_none());
        assert!(again.unapplied.is_empty());
        // Submitting to a stopped engine is refused outright.
        assert_eq!(
            e.submit(Command::Arrival {
                env: env(0, 0),
                msg: MsgHandle(9),
            }),
            Err(MatchError::EngineStopped)
        );
    }

    #[test]
    fn panicking_lane_stops_the_engine_and_loses_no_receive() {
        let mut e = engine();
        let n = e.config().block_threads;
        for i in 0..n {
            e.post(ReceivePattern::exact(Rank(7), Tag(7)), RecvHandle(i as u64))
                .unwrap();
        }
        e.submit(Command::Arrival {
            env: env(3, 3),
            msg: MsgHandle(99),
        })
        .unwrap();
        // Lane 1 dies in the detection sweep: every lane has booked the
        // first receive, lane 0 has detected, nothing is consumed yet.
        lock(&e.coord).blocks.block.fail_lane = Some(1);
        let msgs: Vec<_> = (0..n).map(|i| (env(7, 7), MsgHandle(i as u64))).collect();
        assert_eq!(e.process_block(&msgs), Err(MatchError::EngineStopped));
        // What the half-run block's lanes got to was published on the way
        // out — every lane searched, none consumed — its completion was not.
        let stats = e.stats();
        assert_eq!(stats.search_count, n as u64);
        assert_eq!((stats.blocks, stats.messages, stats.matched), (0, 0, 0));
        let snap = e.metrics_snapshot();
        assert_eq!(snap.hists["otm_search_depth"].count, n as u64);
        assert_eq!(snap.hists["otm_block_occupancy"].count, 0);

        // Every later entry point refuses, and the drain is terminal.
        assert_eq!(e.process_block(&msgs), Err(MatchError::EngineStopped));
        assert_eq!(
            e.post(ReceivePattern::exact(Rank(0), Tag(0)), RecvHandle(50)),
            Err(MatchError::EngineStopped)
        );
        assert_eq!(
            e.submit(Command::Arrival {
                env: env(0, 0),
                msg: MsgHandle(100),
            }),
            Err(MatchError::EngineStopped)
        );
        let report = e.drain();
        assert_eq!(report.error, Some(MatchError::EngineStopped));
        assert!(report.is_terminal());
        assert_eq!(report.unapplied.len(), 1);

        // The half-run block left its bookings behind, but the tables stay
        // readable: the fallback still gets every posted receive, in order.
        let state = e.drain_for_fallback();
        let handles: Vec<RecvHandle> = state.receives.iter().map(|&(_, h)| h).collect();
        assert_eq!(handles, (0..n as u64).map(RecvHandle).collect::<Vec<_>>());
        assert!(state.unexpected.is_empty());
    }

    #[test]
    fn retryable_drain_error_still_requeues() {
        // Single-lane engine: each arrival is its own block, so the first
        // one fills the 1-slot unexpected store and the second block is
        // rejected by the capacity pre-check.
        let mut e = OtmEngine::new(
            MatchConfig::small()
                .with_block_threads(1)
                .with_max_unexpected(1),
        )
        .unwrap();
        for i in 0..2u64 {
            e.submit(Command::Arrival {
                env: env(0, i as u32),
                msg: MsgHandle(i),
            })
            .unwrap();
        }
        // A retryable error: the failing command goes back to the queue
        // front and nothing is surfaced.
        let report = e.drain();
        assert_eq!(report.error, Some(MatchError::UnexpectedStoreFull));
        assert!(!report.is_terminal());
        assert!(report.unapplied.is_empty());
        assert_eq!(e.pending_commands(), 1);
        // Free capacity, retry: the drain resumes where it stopped.
        assert_eq!(
            e.post(ReceivePattern::any_any(), RecvHandle(0)).unwrap(),
            PostResult::Matched(MsgHandle(0))
        );
        let retry = e.drain();
        assert!(retry.error.is_none());
        assert_eq!(retry.outcomes.len(), 1);
    }

    #[test]
    fn requeue_around_an_applied_command_still_reports_in_ticket_order() {
        let mut e = OtmEngine::new(MatchConfig::small().with_max_unexpected(1)).unwrap();
        let on = |comm: u16, tag: u32| Envelope::new(Rank(0), Tag(tag), CommId(comm));
        let arrival = |comm, tag, msg| Command::Arrival {
            env: on(comm, tag),
            msg: MsgHandle(msg),
        };
        let post = |comm, tag, handle| Command::Post {
            pattern: ReceivePattern::new(Rank(0), Tag(tag), CommId(comm)),
            handle: RecvHandle(handle),
        };
        // Ticket 0 fills communicator 1's one-message store.
        e.submit(arrival(1, 0, 0)).unwrap();
        assert!(e.drain().error.is_none());
        // Tickets 1, 2, 3: the post is hoisted and applied, the fused block
        // behind it fails on communicator 1's full store and is requeued —
        // tickets 1 and 3, around the applied 2.
        e.submit(arrival(1, 1, 1)).unwrap();
        e.submit(post(2, 9, 0)).unwrap();
        e.submit(arrival(2, 5, 2)).unwrap();
        let report = e.drain();
        assert_eq!(report.error, Some(MatchError::UnexpectedStoreFull));
        assert_eq!(report.outcomes.len(), 1, "the hoisted post");
        assert_eq!(e.pending_commands(), 2);
        e.post(
            ReceivePattern::new(Rank(0), Tag(0), CommId(1)),
            RecvHandle(7),
        )
        .unwrap();
        // Ticket 4 is hoisted ahead of the requeued block, so the drain
        // applies 4, 1, 3: not a run, and not in order.
        e.submit(post(3, 8, 1)).unwrap();
        let report = e.drain();
        assert!(report.error.is_none());
        assert_eq!(
            report.outcomes,
            vec![
                CommandOutcome::Delivery(Delivery::Unexpected { msg: MsgHandle(1) }),
                CommandOutcome::Delivery(Delivery::Unexpected { msg: MsgHandle(2) }),
                CommandOutcome::Post {
                    handle: RecvHandle(1),
                    result: PostResult::Posted
                },
            ]
        );
    }

    #[test]
    fn shared_and_exclusive_submits_drain_in_one_ticket_order() {
        let mut e = OtmEngine::new(MatchConfig::small().with_max_unexpected(4096)).unwrap();
        let arrival = |i: u64| Command::Arrival {
            env: Envelope::new(Rank(0), Tag(i as u32), CommId(1 + (i % 3) as u16)),
            msg: MsgHandle(i),
        };
        let (mut next, mut drained) = (0u64, Vec::new());
        for round in 0..24 {
            // A thread submits through `&self` and is joined...
            std::thread::scope(|s| {
                let e = &e;
                s.spawn(move || (next..next + 5).for_each(|i| e.submit(arrival(i)).unwrap()));
            });
            next += 5;
            // ...before the owner submits through `&mut self`: one sequence.
            for i in next..next + 3 {
                MatchingBackend::submit_command(&mut e, arrival(i)).unwrap();
            }
            next += 3;
            if round % 5 == 4 {
                drained.extend(e.drain().outcomes);
            }
        }
        drained.extend(e.drain().outcomes);
        // Outcomes come in ticket order, and tickets were handed out in the
        // order the submits happened, whichever way each came in.
        let msgs: Vec<u64> = drained
            .iter()
            .map(|o| match o {
                CommandOutcome::Delivery(d) => d.msg().0,
                other => panic!("unexpected outcome {other:?}"),
            })
            .collect();
        assert_eq!(msgs, (0..next).collect::<Vec<_>>());
        // Per-communicator FIFO: each store gives its messages back oldest
        // first.
        for comm in 1..=3u64 {
            let any = ReceivePattern::new(SourceSel::Any, TagSel::Any, CommId(comm as u16));
            let mut stored = Vec::new();
            while let Some(msg) = e.probe(&any) {
                e.post(any, RecvHandle(0)).unwrap();
                stored.push(msg.0);
            }
            let expect: Vec<u64> = (0..next).filter(|i| 1 + i % 3 == comm).collect();
            assert_eq!(stored, expect, "communicator {comm}");
        }
    }

    #[test]
    fn pipelined_drain_interleaves_with_racing_submitters() {
        // Submissions racing with an in-flight drain must neither deadlock
        // nor get lost: whatever the first drain's entry snapshot missed is
        // picked up by a follow-up drain.
        let e = OtmEngine::new(
            MatchConfig::small()
                .with_max_receives(4096)
                .with_max_unexpected(4096),
        )
        .unwrap();
        const PER_THREAD: u64 = 200;
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let e = &e;
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        e.submit(Command::Arrival {
                            env: env(t as u32, (i % 7) as u32),
                            msg: MsgHandle(t * PER_THREAD + i),
                        })
                        .unwrap();
                    }
                });
            }
            let e = &e;
            s.spawn(move || {
                let mut applied = 0usize;
                while applied < (2 * PER_THREAD) as usize {
                    let report = e.drain();
                    assert!(report.error.is_none(), "drain failed: {:?}", report.error);
                    applied += report.outcomes.len();
                }
            });
        });
        assert_eq!(e.pending_commands(), 0);
        assert_eq!(e.umq_len(), 2 * PER_THREAD as usize);
    }
}
