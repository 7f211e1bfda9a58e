//! The Optimistic Tag Matching engine: public API and coordinator logic.
//!
//! [`OtmEngine`] owns the block arena its lanes (the DPA threads of §IV) are
//! stepped through and the per-communicator state: descriptor table, index
//! structures, unexpected-message store and command queue, plain data in one
//! [`shard`](crate::shard) per communicator. It starts no thread: a block
//! runs on the thread that calls in.
//!
//! Two host-facing paths feed the engine, mirroring §IV-E's QP command
//! handling:
//!
//! * **The command queue**, the way the matching service drives the engine.
//!   [`OtmEngine::submit`] queues post and arrival commands on their
//!   communicators' FIFO queues ([`command`](crate::command)), and
//!   [`OtmEngine::drain`] applies them where they are queued, staging a
//!   bounded window that a packer carves into parallel blocks, reordering
//!   across communicators to keep blocks full under mixed post/arrival
//!   traffic. Because matching outcomes depend only on per-communicator
//!   command order, which the packer strictly preserves, the
//!   per-communicator match set is identical to a fully serialized
//!   engine's.
//! * **Direct calls** for oracles, the sequential adapter and benchmarks of
//!   the block alone: [`OtmEngine::post`] posts one receive, and blocks of
//!   incoming messages are matched via [`OtmEngine::process_block`] (with a
//!   chunking [`OtmEngine::process_stream`]).
//!
//! The engine has one owner, as the paper's command queue has one host
//! process (§IV-E): every entry point that changes it takes `&mut self`, and
//! it holds no lock. The concurrency the protocol depends on is the block's
//! lanes, and the booking atomics in [`table`](crate::table) are where it
//! lives. Counting follows the coordinator: a block's lanes and a drain's
//! posts add to plain tallies, published once as the block ends and the
//! drain exits ([`stats`](crate::stats)).

use crate::block::{result_code, BlockState, LaneData, NO_DESC};
use crate::command::{comm_of, requeue_front, take_queued, Command, CommandOutcome, DrainReport};
use crate::metrics::{raise, span_event, EngineMetrics};
use crate::scheduler::{Packer, PackingStep};
use crate::shard::{locate, Entry, ShardHost, ShardMap};
use crate::stats::{StatsSnapshot, Tally};
use crate::table::{DescId, Payload};
use crate::worker::{run_block, LaneCtx};
use mpi_matching::backend::{arrive_via_matcher, drain_host_queue};
use mpi_matching::{
    ArriveResult, MatchStats, Matcher, MatchingBackend, MsgHandle, PostResult, RecvHandle,
};
use otm_base::{
    ArrivalSeq, CommHints, CommId, Envelope, InlineHashes, MatchConfig, MatchError, ReceivePattern,
};

pub use mpi_matching::backend::{BlockDelivery as Delivery, FallbackState};

/// Everything a block and a published count touch besides the shards: kept
/// apart from the directory and the drain arena so a drain can lend all
/// three at once.
struct Coord {
    config: MatchConfig,
    metrics: EngineMetrics,
    /// The published statistics.
    stats: StatsSnapshot,
    /// Set by [`OtmEngine::shutdown`], and when a block panicked half-run.
    stopped: bool,
    /// Arrival sequence of the next incoming message.
    next_arrival: ArrivalSeq,
    /// The block arena.
    block: BlockState,
    /// Block scratch: each lane's communicator as its place in the
    /// directory, in runs per communicator.
    comms: Vec<usize>,
}

/// What a drain works in, kept for the next one: the coordinator runs on
/// memory it already owns (§IV-E), so a warm drain allocates its report and
/// nothing else. Its vectors are emptied, not dropped, so they stay at size.
struct DrainArena {
    /// The packer, re-armed at every drain: how much of each queue is
    /// staged, and the rotation.
    packer: Packer,
    /// The applied commands' outcomes under their tickets, moved into the
    /// report in submission order.
    outcomes: Vec<(u64, CommandOutcome)>,
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
/// the drain staged. When the outcomes fill that span (no requeue or failed
/// step in it) each one's place is `ticket − first`, so it is written there
/// and nothing is compared. Otherwise, sort.
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

/// Posts a receive — the host-to-DPA command path (§IV-E) — into `host`,
/// the communicator's hints already checked.
///
/// The unexpected-message store is searched first (§IV-C); on a miss the
/// receive is labelled, assigned its sequence id, and indexed in the
/// structure matching its wildcard class (§III-B). Counts into `tally` and
/// hands a match's UMQ depth to `depth`; the caller publishes both. A post
/// the full table refuses leaves no trace. `metrics` is for lifecycle spans.
fn apply_post(
    metrics: &mut EngineMetrics,
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
        // The subject is the *message* consumed from the UMQ: if it arrived
        // through a block earlier, this closes the span those events opened.
        span_event!(
            metrics,
            m.handle.0,
            SpanKind::Matched {
                path: MatchPath::Post
            }
        );
        // The consumed receive is not indexed, so it breaks any ongoing run
        // of compatible receives.
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

impl Coord {
    fn check_running(&self) -> Result<(), MatchError> {
        if self.stopped {
            Err(MatchError::EngineStopped)
        } else {
            Ok(())
        }
    }

    /// Merges `tally` into the published statistics, and the depth samples
    /// that go with it into the registry's histograms.
    fn publish(
        &mut self,
        tally: &Tally,
        search_depths: impl IntoIterator<Item = u64>,
        umq_depths: impl IntoIterator<Item = u64>,
    ) {
        self.metrics.add(tally, search_depths, umq_depths);
        self.stats.merge(&tally.stats);
    }

    /// Publishes what the block counted, and the depth of every lane's
    /// search, and zeroes the arena's tally, read in place (a copy would
    /// read its fields back before their writes left the store buffer).
    fn publish_block(&mut self) {
        let tally = &mut self.block.tally;
        let depths = self.block.searches.iter().flatten().map(|s| s.depth as u64);
        for depth in depths.clone() {
            tally.stats.search_count += 1;
            tally.stats.search_depth_sum += depth;
            tally.stats.search_depth_max = tally.stats.search_depth_max.max(depth);
        }
        self.metrics.add(tally, depths, []);
        self.stats.merge(&tally.stats);
        *tally = Tally::default();
    }

    /// The block coordinator: runs `msgs` as one block on the block arena
    /// against `shards`, the directory, which holds every communicator of
    /// `msgs`. A lane borrows its communicator's shard by its place there.
    /// Each lane's delivery goes to `deliver`, in lane order, once the block
    /// can no longer fail. A block allocates nothing.
    fn match_block(
        &mut self,
        shards: &mut [Entry],
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
        let block = &mut self.block;
        block.lanes.clear();
        let mut shard = 0;
        block.lanes.extend(msgs.map(|(env, handle)| {
            // A block's lanes come in runs per communicator: search where
            // a run starts.
            if shards.get(shard).map(|(id, _)| *id) != Some(env.comm) {
                shard = locate(shards, env.comm).expect("the directory holds every lane's");
            }
            LaneData {
                env,
                handle,
                hashes: InlineHashes::of(&env),
                hints: shards[shard].1.hints,
                shard,
            }
        }));

        // Pre-check the unexpected-store capacity of every communicator the
        // block touches: in the worst case every message of the block goes
        // unexpected, and rejecting up front keeps the operation atomic —
        // the caller can fall back to software matching (§IV-E) with the
        // engine's state fully intact (see `drain_for_fallback`).
        self.comms.clear();
        self.comms.extend(block.lanes.iter().map(|lane| lane.shard));
        self.comms.sort_unstable();
        for arrivals in self.comms.chunk_by(|a, b| a == b) {
            if shards[arrivals[0]].1.host.umq.available() < arrivals.len() {
                return Err(MatchError::UnexpectedStoreFull);
            }
        }

        // Publish the block and step its lanes through the protocol.
        #[cfg(feature = "trace-events")]
        let started = std::time::Instant::now();
        #[cfg(feature = "trace-events")]
        {
            // Block ids are the arena's block count before this one: gap-free.
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
        let mut ctx = LaneCtx {
            metrics: &mut self.metrics,
            config: &self.config,
        };
        // A block that panicked half-run stops the engine: its bookings and
        // consumes are not cleaned up, and the tables stay readable for
        // `drain_for_fallback`. What its lanes counted before the panic is
        // published all the same.
        let swept = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_block(&mut ctx, block, shards)
        }));
        if swept.is_err() {
            self.stopped = true;
            self.publish_block();
            return Err(MatchError::EngineStopped);
        }
        #[cfg(feature = "trace-events")]
        {
            block.tally.latency_ns = started.elapsed().as_nanos() as u64;
        }

        // Block-end cleanup, phase 1: clear the booking bitmaps so they are
        // monotone only within a block.
        for (&desc, lane) in block.booked_desc.iter().zip(&block.lanes) {
            if desc != NO_DESC {
                shards[lane.shard].1.host.table.slot(desc).clear_booking();
            }
        }

        // Phase 2: collect results, unlink and free consumed descriptors,
        // store unexpected messages (in lane = arrival order).
        let (epoch, first_arrival) = (block.epoch, self.next_arrival.0);
        for (lane, (data, &code)) in block.lanes.iter().zip(&block.results).enumerate() {
            debug_assert_ne!(code, result_code::UNSET, "lane {lane} never settled");
            let host = &mut shards[data.shard].1.host;
            if code == result_code::UNEXPECTED {
                block.tally.stats.unexpected += 1;
                let arrival = ArrivalSeq(first_arrival + lane as u64);
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
        self.next_arrival = ArrivalSeq(first_arrival + n as u64);
        (block.tally.stats.blocks, block.tally.stats.messages) = (1, n as u64);
        self.publish_block();
        Ok(())
    }
}

/// The Optimistic Tag Matching engine (see module docs and crate docs).
pub struct OtmEngine {
    coord: Coord,
    shards: ShardMap,
    /// The ticket the next accepted command is stamped with.
    tickets: u64,
    drain: DrainArena,
    /// Packing-window override in commands (0 = the configured default of
    /// `block_threads × 8`).
    packing_window_override: usize,
}

impl std::fmt::Debug for OtmEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OtmEngine")
            .field("config", &self.coord.config)
            .field("comms", &self.shards.len())
            .field("stopped", &self.coord.stopped)
            .finish()
    }
}

impl OtmEngine {
    /// Creates an engine with a block arena of `config.block_threads` lanes.
    pub fn new(config: MatchConfig) -> Result<Self, MatchError> {
        config.validate()?;
        Ok(OtmEngine {
            drain: DrainArena {
                packer: Packer::new(config.block_threads),
                outcomes: Vec::new(),
                posts: Tally::default(),
                umq_depths: Vec::new(),
            },
            coord: Coord {
                next_arrival: ArrivalSeq::ZERO,
                block: BlockState::new(config.block_threads),
                comms: Vec::with_capacity(config.block_threads),
                config,
                metrics: EngineMetrics::new(),
                stats: StatsSnapshot::default(),
                stopped: false,
            },
            shards: ShardMap::new(),
            tickets: 0,
            packing_window_override: 0,
        })
    }

    /// Empties the engine in place so that it reads as new: every
    /// communicator's table, indexes and unexpected store, its labels and
    /// sequence ids; the tickets, the arrival clock and the block epoch; the
    /// published statistics, the histograms and the depth peaks (a
    /// communicator's peak gauge listed before the reset stays listed, at
    /// 0); the span ring; the packing-window override. What the engine
    /// allocated stays: the shards (a communicator's comes back on its next
    /// use), their queues and the block and drain arenas, so a reset
    /// allocates nothing.
    ///
    /// Refused, with the engine untouched, when it is stopped
    /// ([`MatchError::EngineStopped`]) or holds a command no drain has
    /// applied ([`MatchError::InvalidConfig`]): a reset never drops work.
    pub fn reset(&mut self) -> Result<(), MatchError> {
        self.coord.check_running()?;
        if self.shards.queued() > 0 {
            return Err(MatchError::InvalidConfig(
                "an engine with queued commands cannot be reset".into(),
            ));
        }
        let coord = &mut self.coord;
        coord.next_arrival = ArrivalSeq::ZERO;
        coord.block.epoch = 0;
        coord.stats = StatsSnapshot::default();
        coord.metrics.reset();
        self.shards.reset();
        self.tickets = 0;
        self.packing_window_override = 0;
        Ok(())
    }

    /// Overrides the drain's staging-window depth in commands (0 restores
    /// the configured default of `block_threads × 8`, floored at 32).
    /// Values below one block are rounded up so blocks can still fill.
    pub fn set_packing_window_override(&mut self, window: usize) {
        self.packing_window_override = window;
    }

    /// The staging-window depth the next drain will use.
    pub fn effective_packing_window(&self) -> usize {
        let block = self.coord.config.block_threads;
        match self.packing_window_override {
            0 => block.saturating_mul(8).max(32),
            w => w.max(block),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &MatchConfig {
        &self.coord.config
    }

    /// A snapshot of the engine's statistics.
    pub fn stats(&self) -> StatsSnapshot {
        self.coord.stats.clone()
    }

    /// Builds the engine's metrics registry: the depth, latency (sampled
    /// with `trace-events` only) and occupancy histograms, the depth-peak
    /// gauges, and the resolution-path, matched and conflict counters read
    /// from [`OtmEngine::stats`].
    pub fn metrics_snapshot(&self) -> otm_metrics::RegistrySnapshot {
        let shards = self.shards.live.iter().chain(&self.shards.parked);
        let peaks = shards.map(|(comm, shard)| (*comm, &shard.depth_peaks));
        self.coord.metrics.snapshot(&self.coord.stats, peaks)
    }

    /// Copies out the retained lifecycle span events, oldest first.
    #[cfg(feature = "trace-events")]
    pub fn span_events(&self) -> Vec<otm_metrics::SpanEvent> {
        self.coord.metrics.spans().dump()
    }

    /// The engine's lifecycle span recorder (ring stats, JSONL and Chrome
    /// `trace_event` export, per-path latency histograms).
    #[cfg(feature = "trace-events")]
    pub fn span_recorder(&self) -> &otm_metrics::SpanRecorder {
        self.coord.metrics.spans()
    }

    /// Declares a communicator with matching hints (§VII): "applications
    /// can provide MPI communicator info objects to influence the
    /// offloading of tag matching for a given communicator" (§IV-E).
    ///
    /// Like the DPA resource allocation, hints are fixed at communicator
    /// creation: calling this after the communicator has been used is an
    /// error.
    pub fn declare_comm(&mut self, comm: CommId, hints: CommHints) -> Result<(), MatchError> {
        self.coord.check_running()?;
        self.shards.try_declare(comm, &self.coord.config, hints)
    }

    /// The hints a communicator was declared with.
    pub fn comm_hints(&self, comm: CommId) -> Option<CommHints> {
        self.shards.find(comm).map(|s| s.hints)
    }

    /// Posts a receive, applied at once.
    pub fn post(
        &mut self,
        pattern: ReceivePattern,
        handle: RecvHandle,
    ) -> Result<PostResult, MatchError> {
        self.coord.check_running()?;
        let at = self.shards.place(pattern.comm, &self.coord.config);
        let shard = &mut self.shards.live[at].1;
        shard.admits(&pattern)?;
        let (mut tally, mut depth) = (Tally::default(), None);
        let note = |d| depth = Some(d);
        let metrics = &mut self.coord.metrics;
        let result = apply_post(metrics, &mut shard.host, pattern, handle, &mut tally, note);
        self.coord.publish(&tally, [], depth);
        result
    }

    /// Queues a command on its communicator's queue (§IV-E's QP command
    /// path), stamped with the next submission ticket; it takes effect at
    /// the next [`OtmEngine::drain`].
    ///
    /// A post its communicator's hints forbid is refused as a direct post
    /// would be. A communicator queue holding `ring_capacity` commands
    /// refuses the command with the retryable
    /// [`MatchError::SubmissionRingFull`]: nothing is queued and no ticket
    /// is drawn; a drain frees room, after which the same submit succeeds.
    pub fn submit(&mut self, cmd: Command) -> Result<(), MatchError> {
        self.coord.check_running()?;
        // The span subject must be captured before `cmd` moves into the
        // queue; the event itself is stamped only once the submit succeeded
        // (a refused command opens no span).
        #[cfg(feature = "trace-events")]
        let subject = span_subject(&cmd);
        let config = &self.coord.config;
        let at = self.shards.place(comm_of(&cmd), config);
        let shard = &mut self.shards.live[at].1;
        shard.enqueue(self.tickets, cmd, config.ring_capacity)?;
        self.tickets += 1;
        #[cfg(feature = "trace-events")]
        span_event!(self.coord.metrics, subject, SpanKind::Enqueued);
        Ok(())
    }

    /// Number of submitted commands not yet drained.
    pub fn pending_commands(&self) -> usize {
        self.shards.queued()
    }

    /// Drains the command queues — the coordinator half of the QP command
    /// path. Commands are staged, oldest first across every communicator,
    /// into a packing window and carved into steps: single posts, and
    /// arrival blocks of up to `block_threads` messages matched in parallel.
    /// Blocks are assembled *across* communicators (§IV-E execution-group
    /// scheduling): posts at lane heads are hoisted ahead of other
    /// communicators' arrivals and the arrival runs of every lane are fused,
    /// so mixed post/arrival traffic still fills blocks. Per-communicator
    /// command order — the only order MPI matching can observe — is
    /// strictly preserved. A drain that finds nothing queued returns at
    /// once.
    ///
    /// The window is read where the host wrote it: a communicator's lane is
    /// its own queue in the directory, staging moves no command, and a step
    /// pops its commands off the queue fronts. What a drain works in (the
    /// packer, the outcome and depth vectors) is kept for the next, so a
    /// warm drain allocates its report's outcome vector and nothing else.
    /// A lane's depth peak is raised as a refill grows it; what the posts
    /// counted is published on every exit, a block's tally as it ends.
    ///
    /// On an error the drain stops, and reports the outcomes of the commands
    /// it applied (in submission order) with the error. The failing step's
    /// commands go back to the fronts of their queues, where every unapplied
    /// command behind them still is. After *retryable* resource exhaustion
    /// they stay queued, so a retry resumes exactly where this drain stopped;
    /// a *terminal* error (the engine is stopped, a command is invalid)
    /// surfaces every queued command in [`DrainReport::unapplied`] instead,
    /// so a retry loop terminates (see [`DrainReport::error`]).
    pub fn drain(&mut self) -> DrainReport {
        // The staging window is a few blocks deep: enough lookahead to fuse
        // arrival runs across lanes.
        let window = self.effective_packing_window();
        let OtmEngine {
            coord,
            shards,
            drain,
            ..
        } = self;
        if shards.queued() == 0 {
            return DrainReport::default();
        }
        let lanes = &mut shards.live[..];
        let DrainArena {
            packer,
            outcomes,
            posts,
            umq_depths,
        } = drain;
        packer.rearm(lanes);
        // The span of the staged tickets, for the outcomes' reorder.
        let mut tickets = (u64::MAX, 0);
        // Refills the window, as before every step, so blocks are assembled
        // from the fullest lanes we are entitled to see. A lane grows only
        // here, so its depth peak is raised here.
        let mut refill = |packer: &mut Packer, lanes: &mut [Entry]| {
            packer.refill(lanes, window, |(_, shard), (first, last), depth| {
                raise(&mut shard.depth_peaks.lane, depth as u64);
                tickets = (tickets.0.min(first), tickets.1.max(last));
            });
        };
        refill(packer, lanes);
        // A queue's unstaged tail only shrinks while the drain runs, so its
        // peak is what the first refill leaves.
        for (lane, (_, shard)) in lanes.iter_mut().enumerate() {
            let unstaged = shard.queue.len() - packer.staged_on(lane);
            raise(&mut shard.depth_peaks.ring, unstaged as u64);
        }
        let failure = loop {
            let Some((lane, step)) = packer.next_step(lanes) else {
                break None;
            };
            match step {
                PackingStep::Post {
                    idx,
                    pattern,
                    handle,
                } => {
                    let host = &mut lanes[lane].1.host;
                    let depth = |d| umq_depths.push(d);
                    match coord.check_running().and_then(|()| {
                        apply_post(&mut coord.metrics, host, pattern, handle, posts, depth)
                    }) {
                        Ok(result) => outcomes.push((idx, CommandOutcome::Post { handle, result })),
                        Err(e) => break Some((e, vec![(idx, Command::Post { pattern, handle })])),
                    }
                }
                PackingStep::Block { msgs } => {
                    let block = msgs.iter().map(|&(_, env, msg)| (env, msg));
                    let deliver = |lane: usize, d| {
                        outcomes.push((msgs[lane].0, CommandOutcome::Delivery(d)));
                    };
                    // A block that fails has delivered nothing.
                    if let Err(e) = coord.match_block(lanes, block, deliver) {
                        let failed = msgs
                            .into_iter()
                            .map(|(idx, env, msg)| (idx, Command::Arrival { env, msg }))
                            .collect();
                        break Some((e, failed));
                    }
                    packer.recycle(msgs);
                }
            }
            refill(packer, lanes);
        };
        coord.publish(&std::mem::take(posts), [], umq_depths.drain(..));
        let mut report = DrainReport::default();
        if let Some((error, failed)) = failure {
            // In front of the unapplied commands still queued; a terminal
            // error takes them all out, in ticket order.
            requeue_front(lanes, failed);
            if !error.is_retryable() {
                report.unapplied = take_queued(lanes);
            }
            report.error = Some(error);
        }
        report.outcomes = in_submission_order(outcomes, tickets);
        report
    }

    /// Stops the engine: every subsequent post, submit, block, or drain
    /// reports [`MatchError::EngineStopped`]. Commands already queued stay
    /// there — [`OtmEngine::drain_for_fallback`] still surfaces them, so
    /// shutdown loses nothing.
    pub fn shutdown(&mut self) {
        self.coord.stopped = true;
    }

    /// Matches one block of up to `N` incoming messages.
    ///
    /// Messages are taken in arrival order: lane *i* processes the *i*-th
    /// message, and the block's deliveries are returned in the same order.
    pub fn process_block(
        &mut self,
        msgs: &[(Envelope, MsgHandle)],
    ) -> Result<Vec<Delivery>, MatchError> {
        let mut deliveries = Vec::with_capacity(msgs.len());
        self.match_into(msgs, |d| deliveries.push(d))?;
        Ok(deliveries)
    }

    /// Matches an arbitrarily long message stream, chunked into blocks of
    /// the configured size, into one vector of deliveries.
    pub fn process_stream(
        &mut self,
        msgs: &[(Envelope, MsgHandle)],
    ) -> Result<Vec<Delivery>, MatchError> {
        let mut out = Vec::with_capacity(msgs.len());
        for chunk in msgs.chunks(self.coord.config.block_threads) {
            self.match_into(chunk, |d| out.push(d))?;
        }
        Ok(out)
    }

    /// Matches `msgs` as one block, handing each lane's delivery to
    /// `deliver` in lane order once the block can no longer fail.
    fn match_into(
        &mut self,
        msgs: &[(Envelope, MsgHandle)],
        mut deliver: impl FnMut(Delivery),
    ) -> Result<(), MatchError> {
        self.coord.check_running()?;
        for (env, _) in msgs {
            self.shards.place(env.comm, &self.coord.config);
        }
        let lanes = &mut self.shards.live;
        self.coord
            .match_block(lanes, msgs.iter().copied(), |_, d| deliver(d))
    }

    /// Non-destructive unexpected-message probe (`MPI_Iprobe` semantics):
    /// the oldest waiting message matching `pattern`, if any.
    pub fn probe(&self, pattern: &ReceivePattern) -> Option<MsgHandle> {
        self.shards.find(pattern.comm)?.host.umq.probe(pattern)
    }

    /// Drains the complete matching state for migration to software tag
    /// matching — the fallback the paper mandates when device resources run
    /// out (§III-B, §IV-E). Consumes the engine (the device resources are
    /// being given up).
    ///
    /// Returns the pending receives, the waiting unexpected messages, *and*
    /// every command still queued. Receives are ordered per communicator by
    /// post label (C1 only constrains order *within* a communicator, so
    /// replaying communicator-by-communicator into a software matcher
    /// preserves MPI semantics); unexpected messages are in arrival order
    /// per communicator; pending commands are in global submission order
    /// (including any batch a failed retryable drain put back). Nothing the
    /// engine ever accepted is dropped — the fallback is loss-free even with
    /// commands queued.
    pub fn drain_for_fallback(mut self) -> FallbackState {
        let lanes = &mut self.shards.live;
        let pending = take_queued(lanes);
        let mut receives = Vec::new();
        let mut unexpected = Vec::new();
        for (_, shard) in lanes.iter_mut() {
            let host = &mut shard.host;
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

    /// The matching state of every communicator in use.
    fn hosts(&self) -> impl Iterator<Item = &ShardHost> {
        self.shards.live.iter().map(|(_, shard)| &shard.host)
    }

    /// Live posted receives across all communicators.
    pub fn prq_len(&self) -> usize {
        self.hosts().map(|host| host.table.posted().count()).sum()
    }

    /// Waiting unexpected messages across all communicators.
    pub fn umq_len(&self) -> usize {
        self.hosts().map(|host| host.umq.len()).sum()
    }

    /// Fraction of the `(src, tag)` table's bins, over every communicator,
    /// that hold no posted receive (a §V statistic); 1.0 before any
    /// communicator exists.
    pub fn prq_empty_bin_fraction(&self) -> f64 {
        let (mut empty, mut bins) = (0usize, 0usize);
        for host in self.hosts() {
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
        self.coord.config.block_threads
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

    fn wants_offload_fallback(&self) -> bool {
        true
    }

    fn submit_command(&mut self, cmd: Command) -> Result<(), MatchError> {
        OtmEngine::submit(self, cmd)
    }

    fn drain_commands(&mut self) -> DrainReport {
        OtmEngine::drain(self)
    }

    fn drain_for_fallback(self: Box<Self>) -> Result<FallbackState, MatchError> {
        Ok((*self).drain_for_fallback())
    }

    fn reset(&mut self) -> Result<(), MatchError> {
        OtmEngine::reset(self)
    }

    fn engine_stats(&self) -> Option<StatsSnapshot> {
        Some(self.stats())
    }

    fn metrics_snapshot(&self) -> Option<otm_metrics::RegistrySnapshot> {
        Some(OtmEngine::metrics_snapshot(self))
    }

    #[cfg(feature = "trace-events")]
    fn span_recorder(&self) -> Option<&otm_metrics::SpanRecorder> {
        Some(OtmEngine::span_recorder(self))
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
/// that change it: each call's search depth is what the call added to the
/// engine's depth sum, and the queue lengths behind the high-water marks
/// follow from the calls' outcomes without a walk of the engine's bins. An
/// arrival is a one-message block whose delivery comes straight back to
/// the adapter: a call allocates nothing.
pub struct SequentialOtm {
    engine: OtmEngine,
    stats: MatchStats,
    /// Posted receives and waiting messages.
    prq: usize,
    umq: usize,
    /// Commands submitted as a [`MatchingBackend`] and not yet drained.
    queue: Vec<Command>,
}

impl SequentialOtm {
    /// Wraps a fresh engine with the given configuration.
    pub fn new(config: MatchConfig) -> Result<Self, MatchError> {
        Ok(SequentialOtm {
            engine: OtmEngine::new(config)?,
            stats: MatchStats::new(),
            prq: 0,
            umq: 0,
            queue: Vec::new(),
        })
    }

    /// Resets the wrapped engine ([`OtmEngine::reset`]) and the adapter's
    /// statistics and queue lengths: the adapter reads as new. Refused, with
    /// nothing changed, when the engine refuses or commands wait undrained.
    pub fn reset(&mut self) -> Result<(), MatchError> {
        if !self.queue.is_empty() {
            return Err(MatchError::InvalidConfig(
                "an adapter with queued commands cannot be reset".into(),
            ));
        }
        self.engine.reset()?;
        self.stats = MatchStats::new();
        (self.prq, self.umq) = (0, 0);
        Ok(())
    }

    /// [`OtmEngine::prq_empty_bin_fraction`] of the wrapped engine.
    pub fn prq_empty_bin_fraction(&self) -> f64 {
        self.engine.prq_empty_bin_fraction()
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
        let before = self.engine.coord.stats.umq_depth_sum;
        let result = self.engine.post(pattern, handle)?;
        let depth = (self.engine.coord.stats.umq_depth_sum - before) as usize;
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
        let (before, mut delivery) = (self.engine.coord.stats.search_depth_sum, None);
        self.engine
            .match_into(&[(env, handle)], |d| delivery = Some(d))?;
        let depth = (self.engine.coord.stats.search_depth_sum - before) as usize;
        let result = match delivery.expect("a one-message block delivers once") {
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
            .map(|&(env, msg)| arrive_via_matcher(self, env, msg))
            .collect()
    }

    fn wants_offload_fallback(&self) -> bool {
        true
    }

    fn submit_command(&mut self, cmd: Command) -> Result<(), MatchError> {
        self.queue.push(cmd);
        Ok(())
    }

    fn drain_commands(&mut self) -> DrainReport {
        drain_host_queue(self, |s| &mut s.queue, arrive_via_matcher)
    }

    fn drain_for_fallback(self: Box<Self>) -> Result<FallbackState, MatchError> {
        let mut state = self.engine.drain_for_fallback();
        state.pending = self.queue;
        Ok(state)
    }

    fn reset(&mut self) -> Result<(), MatchError> {
        SequentialOtm::reset(self)
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
    fn the_store_pre_check_counts_each_communicators_lanes_in_any_order() {
        // Seeded blocks of 1-8 lanes over three communicators whose stores
        // hold 0-4 of their 4 slots: in runs, rotated runs or runs that name
        // a communicator twice, a block is refused exactly when some
        // communicator brings more messages than its store has room for.
        let config = MatchConfig::small()
            .with_max_unexpected(4)
            .with_block_threads(8);
        let on = |comm: u64, tag: u64| Envelope::new(Rank(0), Tag(tag as u32), CommId(comm as u16));
        let mut rng = otm_base::FaultRng::new(11);
        let mut refused = 0;
        for case in 0..400 {
            let mut e = OtmEngine::new(config.clone()).unwrap();
            let held: Vec<u64> = (0..3).map(|_| rng.below(5)).collect();
            for (comm, &n) in held.iter().enumerate() {
                for tag in 0..n {
                    e.process_block(&[(on(comm as u64, tag), MsgHandle(tag))])
                        .unwrap();
                }
            }
            let block: Vec<_> = (0..1 + rng.below(8))
                .map(|i| (on(rng.below(3), 100 + i), MsgHandle(100 + i)))
                .collect();
            let over = (0..3).any(|c| {
                let n = block.iter().filter(|(env, _)| env.comm.0 == c).count();
                n as u64 > 4 - held[usize::from(c)]
            });
            let got = e.process_block(&block);
            assert_eq!(got.is_err(), over, "case {case}: {held:?} {block:?}");
            let stored = if over { 0 } else { block.len() as u64 };
            assert_eq!(e.umq_len() as u64, held.iter().sum::<u64>() + stored);
            refused += usize::from(over);
        }
        assert!((40..360).contains(&refused), "{refused} of 400 refused");
    }

    #[test]
    fn multi_comm_block_maps_each_lane_to_its_own_shard() {
        // Three communicators in unsorted arrival order, one of them twice:
        // each lane must reach its own communicator's shard, and the store
        // pre-check must count each communicator's arrivals together.
        let mut e = OtmEngine::new(MatchConfig::small().with_max_unexpected(2)).unwrap();
        let on = |comm: u16, tag: u32| Envelope::new(Rank(0), Tag(tag), CommId(comm));
        let umq_lens = |e: &OtmEngine| -> Vec<usize> {
            [1u16, 3, 5]
                .iter()
                .map(|&c| e.shards.find(CommId(c)).unwrap().host.umq.len())
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
        // The engine reads a clock only where it stamps spans.
        #[cfg(feature = "trace-events")]
        {
            assert_eq!(snap.hists["otm_block_latency_ns"].count, 1);
            assert!(snap.hists["otm_block_latency_ns"].max > 0);
        }
        #[cfg(not(feature = "trace-events"))]
        assert_eq!(snap.hists["otm_block_latency_ns"].count, 0);
        assert_eq!(snap.counters["otm_resolutions_total{path=\"nc\"}"], 1);
        // A post-time UMQ match lands in the UMQ histogram.
        e.process_block(&[(env(9, 9), MsgHandle(1))]).unwrap();
        e.post(ReceivePattern::exact(Rank(9), Tag(9)), RecvHandle(11))
            .unwrap();
        let snap = e.metrics_snapshot();
        assert_eq!(snap.hists["otm_umq_match_depth"].count, 1);
        // With no activity in between, a second snapshot reads the same.
        assert_eq!(e.metrics_snapshot(), snap);
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
    fn engine_is_send() {
        // `MatchingBackend: Send`: a boxed engine may move to another
        // thread, though one owner uses it at a time.
        fn assert_send<T: Send>() {}
        assert_send::<OtmEngine>();
    }

    #[test]
    fn submitted_commands_apply_in_order_on_drain() {
        let mut e = engine();
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
        let mut e = engine();
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
    fn the_adapter_applies_its_queue_at_the_drain_and_keeps_what_it_could_not() {
        let config = MatchConfig::small().with_max_receives(1);
        let mut seq = SequentialOtm::new(config).unwrap();
        let post = |tag: u32| Command::Post {
            pattern: ReceivePattern::exact(Rank(0), Tag(tag)),
            handle: RecvHandle(u64::from(tag)),
        };
        for tag in 0..2 {
            seq.submit_command(post(tag)).unwrap();
        }
        assert_eq!((Matcher::prq_len(&seq), seq.queue.len()), (0, 2));
        let report = seq.drain_commands();
        assert_eq!(
            report.outcomes,
            [CommandOutcome::Post {
                handle: RecvHandle(0),
                result: PostResult::Posted
            }]
        );
        assert_eq!(report.error, Some(MatchError::ReceiveTableFull));
        assert!(report.unapplied.is_empty(), "a retryable error requeues");
        assert_eq!(seq.queue.len(), 1);
        assert!(seq.reset().is_err(), "queued work refuses a reset");
        let state = Box::new(seq).drain_for_fallback().unwrap();
        assert_eq!(state.receives.len(), 1);
        assert_eq!(state.pending, [post(1)]);
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
        // What the service reads in place of a downcast.
        let stats = boxed.engine_stats().unwrap();
        assert_eq!((stats.posted, stats.matched), (1, 1));
        let snap = boxed.metrics_snapshot().unwrap();
        assert_eq!(snap.counters["otm_matched_total"], 1);
        // The command-queue half of the trait.
        boxed
            .submit_command(Command::Arrival {
                env: env(9, 9),
                msg: MsgHandle(1),
            })
            .unwrap();
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
        let mut e = engine();
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
        e.coord.block.fail_lane = Some(1);
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

    /// Per round `r`, in ticket order: a post and the arrival it takes on
    /// communicator 1, in the first four rounds an arrival no receive waits
    /// for on communicator 2, and on communicator 3 an arrival ahead of the
    /// post that takes it. Twenty-eight commands, so one window stages them
    /// all, on all three queues.
    fn three_comm_rounds() -> Vec<Command> {
        let mut cmds = Vec::new();
        for r in 0..6u32 {
            let handle = |comm: u16| 10 * u64::from(comm) + u64::from(r);
            let post = |comm| Command::Post {
                pattern: ReceivePattern::new(Rank(0), Tag(r), CommId(comm)),
                handle: RecvHandle(handle(comm)),
            };
            let arrival = |comm| Command::Arrival {
                env: Envelope::new(Rank(0), Tag(r), CommId(comm)),
                msg: MsgHandle(handle(comm)),
            };
            cmds.extend([post(1), arrival(1)]);
            cmds.extend((r < 4).then(|| arrival(2)));
            cmds.extend([arrival(3), post(3)]);
        }
        cmds
    }

    /// The receive a command posts or the message it delivers, and whether
    /// it is a receive; the same for the outcome a drain reports for it.
    fn command_subject(cmd: &Command) -> (bool, u64) {
        match cmd {
            Command::Post { handle, .. } => (true, handle.0),
            Command::Arrival { msg, .. } => (false, msg.0),
        }
    }

    fn outcome_subject(outcome: &CommandOutcome) -> (bool, u64) {
        match outcome {
            CommandOutcome::Post { handle, .. } => (true, handle.0),
            CommandOutcome::Delivery(Delivery::Matched { msg, .. })
            | CommandOutcome::Delivery(Delivery::Unexpected { msg }) => (false, msg.0),
        }
    }

    /// The commands of `cmds` no outcome of `applied` reports, in ticket
    /// order, each on a communicator of its own.
    fn unapplied_of(cmds: &[Command], applied: &[CommandOutcome]) -> Vec<Command> {
        let applied: Vec<_> = applied.iter().map(outcome_subject).collect();
        let unapplied: Vec<_> = cmds
            .iter()
            .copied()
            .filter(|cmd| !applied.contains(&command_subject(cmd)))
            .collect();
        for comm in 1..=3 {
            let queued = unapplied.iter().any(|cmd| comm_of(cmd) == CommId(comm));
            assert!(queued, "communicator {comm} has commands left unapplied");
        }
        unapplied
    }

    #[test]
    fn a_failed_step_puts_back_only_its_own_commands() {
        let cmds = three_comm_rounds();
        let on_two = |msg: u64| Envelope::new(Rank(0), Tag(msg as u32), CommId(2));
        // Messages 90 and 91 wait in two of communicator 2's four unexpected
        // slots before the rounds are submitted.
        let submitted = |config: MatchConfig| {
            let mut e = OtmEngine::new(config).unwrap();
            for msg in [90, 91] {
                let env = on_two(msg);
                e.submit(Command::Arrival {
                    env,
                    msg: MsgHandle(msg),
                })
                .unwrap();
            }
            assert_eq!(e.drain().error, None);
            cmds.iter().for_each(|&cmd| e.submit(cmd).unwrap());
            e
        };
        // So the drain's first block, which carries three of communicator
        // 2's arrivals, overflows its store, behind a hoisted post and ahead
        // of commands staged and not yet stepped on all three queues.
        let tiny = MatchConfig::small().with_max_unexpected(4);
        let mut failed = submitted(tiny.clone());
        let first = failed.drain();
        assert_eq!(first.error, Some(MatchError::UnexpectedStoreFull));
        assert!(first.unapplied.is_empty());
        let unapplied = unapplied_of(&cmds, &first.outcomes);
        assert_eq!(failed.pending_commands(), unapplied.len());
        // Each queue holds exactly its unapplied commands, in ticket order:
        // a twin that failed the same way hands them all to a fallback.
        let mut twin = submitted(tiny.clone());
        assert_eq!(twin.drain().outcomes, first.outcomes);
        assert_eq!(twin.drain_for_fallback().pending, unapplied);

        // Direct posts take messages 90 and 91 to make room, and the retry
        // ends where an engine with room to spare, given the same commands
        // and posts, ends without failing.
        let mut roomy = submitted(tiny.with_max_unexpected(64));
        let all = roomy.drain();
        assert_eq!(all.error, None);
        for e in [&mut failed, &mut roomy] {
            for msg in [90, 91] {
                let pattern = ReceivePattern::new(Rank(0), Tag(msg as u32), CommId(2));
                let result = e.post(pattern, RecvHandle(msg));
                assert_eq!(result, Ok(PostResult::Matched(MsgHandle(msg))));
            }
        }
        let retry = failed.drain();
        assert_eq!(retry.error, None);
        let sorted = |outcomes: Vec<CommandOutcome>| {
            let mut seen: Vec<_> = outcomes.iter().map(|o| format!("{o:?}")).collect();
            seen.sort();
            seen
        };
        let retried = first.outcomes.into_iter().chain(retry.outcomes).collect();
        assert_eq!(sorted(retried), sorted(all.outcomes));
        assert_eq!(failed.stats(), roomy.stats());
        assert_eq!(failed.pending_commands(), 0);
    }

    #[test]
    fn a_terminal_failure_surfaces_every_unapplied_command_once_in_ticket_order() {
        let cmds = three_comm_rounds();
        let mut e = engine();
        cmds.iter().for_each(|&cmd| e.submit(cmd).unwrap());
        // A lane of the drain's first block dies: the engine stops, with
        // commands staged and not yet stepped on all three queues.
        e.coord.block.fail_lane = Some(1);
        let report = e.drain();
        assert_eq!(report.error, Some(MatchError::EngineStopped));
        assert!(report.is_terminal());
        assert_eq!(report.unapplied, unapplied_of(&cmds, &report.outcomes));
        assert!(!report.outcomes.is_empty(), "a post was hoisted ahead");
        assert_eq!(e.pending_commands(), 0);
    }
}
