//! End-to-end application replay: a Table II trace driven through the full
//! production path.
//!
//! The trace analyzer's [`otm_trace::replay::replay`] feeds matchers
//! *directly* — posts and arrivals go straight into the engine with no wire
//! in between. This module closes the gap the paper's Fig. 6/7 evaluation
//! actually measures: every send of the application trace becomes a wire
//! packet that crosses a per-source-rank queue pair under the
//! [`crate::ReliableSender`] selective-repeat reliability protocol, lands
//! in the destination's [`RecvNic`] (optionally
//! behind a seeded [`FaultPlan`]), is staged into bounce buffers, submitted
//! through the service's command queue into the engine's bounded
//! per-communicator queue (one `VecDeque` a shard), cross-communicator
//! packed, matched, and carried to completion by the eager or
//! rendezvous/RDMA-READ protocol of §IV-B.
//!
//! Like the engine-direct replay, destinations are replayed one at a time —
//! rank-major, because matching state is private to a rank. Everything a
//! destination uses is built once per replay, the way a NIC's bounce
//! buffers, queues and matching tables are set up in NIC memory ahead of
//! time (§IV-A, §IV-E): one [`MatchingService`] with its [`RecvNic`],
//! bounce pool (sized to the busiest destination) and [`OtmEngine`] (sized
//! to the most posts and the most arrivals of any destination), one
//! [`RdmaDomain`], and one queue pair + reliable sender per slot. A
//! destination's `i`-th source in rank order sends on slot `i`; the slots
//! grow to the widest destination so far. Between destinations
//! every layer re-arms in place to read as new — `MatchingService::rearm`
//! (which resets the engine, [`OtmEngine::reset`]), `RecvNic::rearm` (only
//! the destination's slots are polled), `ReliableSender::rearm` — so no
//! count, stale frame, receive, waiting message or unmatched rendezvous
//! region carries over, and a destination costs nothing to start. What is
//! live at once is the widest destination's endpoints (a link of a few
//! hundred bytes and a four-slot queue per direction in use per peer) and
//! one engine, never the trace's.
//!
//! The endpoints own the service and every sender, so they sample the
//! busiest destination's series: after each `progress` of the service, on
//! its poll clock, the service's registry snapshot merged with its active
//! senders'.
//!
//! ## The ordering contract
//!
//! Matched-pairs equivalence against the engine-direct replay is only
//! provable if the engine observes posts and arrivals in trace order even
//! when the wire reorders, drops and duplicates packets. Two mechanisms
//! provide it:
//!
//! * every arrival is stamped with a global per-destination sequence number
//!   ([`crate::rdma::WirePacket::with_gseq`]) — its position in the
//!   destination's arrival stream — and the NIC's cross-QP **total-order
//!   gate** ([`RecvNic::enable_total_order`]) releases accepted packets to
//!   the completion queue strictly in that order;
//! * a post that follows in-flight arrivals waits for them to settle
//!   (senders fully acked, gate empty) before it is submitted, so the
//!   single submission stream interleaves posts and arrivals exactly as the
//!   trace does. Consecutive arrivals never wait on each other — bursts
//!   stay concurrent and keep the packing scheduler busy.
//!
//! The correctness oracle is [`engine_direct_pairs`]: the same trace pushed
//! straight into an [`otm::SequentialOtm`], reset for each destination. The
//! pair sets must be identical — clean wire or hostile.

use crate::bounce::BouncePool;
use crate::nic::RecvNic;
use crate::rdma::{connected_pair, eager_packet, rendezvous_packet, RdmaDomain};
use crate::reliable::{ReliableSender, PROTOCOL_LABEL};
use crate::service::{CompletedReceive, MatchingService, ServiceError};
use mpi_matching::{ArriveResult, Matcher, MatchingBackend, MsgHandle, PostResult, RecvHandle};
use otm::OtmEngine;
use otm_base::{Envelope, FaultPlan, MatchConfig, MatchError, Rank, ReceivePattern};
use otm_metrics::json::{JsonWriter, WriteJson};
use otm_metrics::{json_fields, RegistrySnapshot, SeriesRecorder};
use otm_trace::model::{AppTrace, MpiOp, TimedOp};

/// Ceiling on the simulated payload size a trace `count` maps to.
pub const MAX_PAYLOAD_BYTES: usize = 4096;

/// Payload bytes reserved for the message identity (a little-endian arrival
/// index), used by the matched-pairs oracle.
const ID_BYTES: usize = 8;

/// Parameters of an end-to-end application replay.
#[derive(Debug, Clone)]
pub struct AppReplayConfig {
    /// Seeded wire-fault plan installed on the NIC and restarted from its
    /// seed for every destination. Faults hit only sequenced packets, i.e.
    /// every replayed arrival.
    pub faults: Option<FaultPlan>,
    /// Bins per hash-table index of the engine (and the oracle).
    pub bins: usize,
    /// Largest payload (bytes) sent eagerly; larger messages take the
    /// rendezvous RTS + RDMA-READ path.
    pub eager_max: usize,
    /// Bytes of a rendezvous payload piggybacked on the RTS.
    pub piggyback: usize,
    /// When set, the destination with the most arrivals gets a queue-depth
    /// series sampler at this cadence (in service polls); the result lands
    /// in [`AppReplayReport::series`].
    pub series_cadence: Option<u64>,
}

impl Default for AppReplayConfig {
    fn default() -> Self {
        AppReplayConfig {
            faults: None,
            bins: 128,
            eager_max: 192,
            piggyback: 64,
            series_cadence: None,
        }
    }
}

impl AppReplayConfig {
    /// Installs a wire-fault plan, restarted for every destination.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Sets the engine (and oracle) bin count.
    #[must_use]
    pub fn with_bins(mut self, bins: usize) -> Self {
        self.bins = bins;
        self
    }

    /// Samples the busiest destination's queue depths at this cadence.
    #[must_use]
    pub fn with_series_cadence(mut self, cadence: u64) -> Self {
        self.series_cadence = Some(cadence);
        self
    }
}

/// A matched (receive, message) pair, locally numbered per destination:
/// `recv` is the receive's position in the destination's post stream and
/// `msg` the message's position in its arrival stream.
pub type MatchedPair = (u32, u64, u64);

/// Aggregated counters of one end-to-end replay (all destinations merged).
#[derive(Debug, Clone, Default)]
pub struct AppReplayReport {
    /// Application name (Table II).
    pub name: String,
    /// Number of processes in the trace.
    pub processes: usize,
    /// Reliability-protocol label (always `selective-repeat`; the key is
    /// kept so artifacts stay comparable with the committed ones).
    pub mode: String,
    /// Whether a wire-fault plan was installed.
    pub faulty: bool,
    /// Receives posted across all destinations.
    pub posts: u64,
    /// Messages driven end to end (posts' counterpart: trace sends).
    pub messages: u64,
    /// Messages that took the eager path.
    pub eager_messages: u64,
    /// Messages that took the rendezvous RTS + RDMA-READ path.
    pub rendezvous_messages: u64,
    /// Matched pairs completed by the service.
    pub completed: u64,
    /// Packets the fault layer dropped.
    pub wire_drops: u64,
    /// Packets the fault layer duplicated.
    pub wire_duplicates: u64,
    /// Packets the fault layer reordered.
    pub wire_reorders: u64,
    /// Packets the fault layer delayed.
    pub wire_delays: u64,
    /// Packets the senders retransmitted.
    pub retransmits: u64,
    /// SACK-triggered fast retransmits (subset of `retransmits`).
    pub fast_retransmits: u64,
    /// Timeout or fast-retransmit bursts.
    pub resend_events: u64,
    /// Cumulative acks the senders consumed.
    pub acks_received: u64,
    /// Polls the senders ended waiting on unacknowledged packets: the sum
    /// of their [`crate::ReliabilityStats::backoff_polls`]. Not the
    /// `dpa_backoff_polls` histogram, which holds the length of each
    /// timeout that fired and the service's drain-retry backoffs.
    pub backoff_polls: u64,
    /// Retransmitted packets per dropped packet (0 when nothing dropped).
    pub retransmit_amplification: f64,
    /// Duplicates the NICs discarded.
    pub rx_duplicates: u64,
    /// Out-of-order packets the NICs discarded (staging buffer full).
    pub rx_gaps: u64,
    /// Out-of-order packets the NICs staged.
    pub rx_staged_out_of_order: u64,
    /// Acks the NICs sent.
    pub acks_sent: u64,
    /// Packets parked in the cross-QP total-order gate.
    pub gate_parked: u64,
    /// Packets the gate released to completion queues.
    pub gate_released: u64,
    /// No-conflict resolutions.
    pub path_nc: u64,
    /// Wildcard fast-path resolutions.
    pub path_wc_fp: u64,
    /// Wildcard slow-path resolutions.
    pub path_wc_sp: u64,
    /// Destinations that migrated to the software-fallback matcher.
    pub fallbacks: u64,
    /// Wall-clock seconds for the whole replay.
    pub elapsed_secs: f64,
    /// End-to-end message rate (`messages / elapsed_secs`).
    pub msgs_per_sec: f64,
    /// Queue-depth time series of the busiest destination, when
    /// [`AppReplayConfig::series_cadence`] asked for one.
    pub series: Option<SeriesRecorder>,
}

/// One artifact row: a flat object, keys in field order (`name` under the
/// key `app`), the series embedded or `null`.
impl WriteJson for AppReplayReport {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_str("app", &self.name);
        json_fields!(w, self; processes, mode, faulty, posts, messages, eager_messages,
            rendezvous_messages, completed, wire_drops, wire_duplicates, wire_reorders,
            wire_delays, retransmits, fast_retransmits, resend_events, acks_received,
            backoff_polls, retransmit_amplification, rx_duplicates, rx_gaps,
            rx_staged_out_of_order, acks_sent, gate_parked, gate_released, path_nc, path_wc_fp,
            path_wc_sp, fallbacks, elapsed_secs, msgs_per_sec, series);
        w.end_object();
    }
}

/// Everything one end-to-end replay produced.
#[derive(Debug, Clone)]
pub struct AppReplayOutcome {
    /// Aggregated counters.
    pub report: AppReplayReport,
    /// Every matched pair, sorted — directly comparable against
    /// [`engine_direct_pairs`].
    pub matched_pairs: Vec<MatchedPair>,
}

/// One destination's event stream, in global trace order.
#[derive(Debug, PartialEq)]
enum Ev {
    Post(ReceivePattern),
    Arrive {
        src: Rank,
        env: Envelope,
        bytes: usize,
    },
}

/// Maps a trace `count` (elements) to a simulated payload size in bytes —
/// at least [`ID_BYTES`] so the payload can carry the arrival index, capped
/// at [`MAX_PAYLOAD_BYTES`].
fn payload_len(count: u64) -> usize {
    usize::try_from(count)
        .unwrap_or(MAX_PAYLOAD_BYTES)
        .clamp(ID_BYTES, MAX_PAYLOAD_BYTES)
}

/// Builds the payload for the arrival at position `idx`: the index in the
/// first eight bytes (the oracle identity), an index-derived fill after.
fn payload_for(idx: u64, len: usize) -> Vec<u8> {
    let mut p = vec![idx as u8; len];
    p[..ID_BYTES].copy_from_slice(&idx.to_le_bytes());
    p
}

/// Recovers the arrival index from a completed payload.
fn payload_id(data: &[u8]) -> u64 {
    let mut id = [0u8; ID_BYTES];
    id.copy_from_slice(&data[..ID_BYTES]);
    u64::from_le_bytes(id)
}

/// The destination an operation of `rank` feeds, and its event there: a
/// receive is a post at `rank`, a send an arrival at a destination below
/// `n` (collectives and one-sided ops are ignored, as in the analyzer
/// replays).
fn event_of(rank: Rank, op: &MpiOp, n: usize) -> Option<(usize, Ev)> {
    match *op {
        MpiOp::Irecv { src, tag, comm, .. } | MpiOp::Recv { src, tag, comm, .. } => {
            Some((rank.0 as usize, Ev::Post(ReceivePattern { src, tag, comm })))
        }
        MpiOp::Isend {
            dest,
            tag,
            comm,
            count,
            ..
        }
        | MpiOp::Send {
            dest,
            tag,
            comm,
            count,
        } if (dest.0 as usize) < n => {
            let arrival = Ev::Arrive {
                src: rank,
                env: Envelope::new(rank, tag, comm),
                bytes: payload_len(count),
            };
            Some((dest.0 as usize, arrival))
        }
        _ => None,
    }
}

/// An operation's place in the analyzer's global order: its time, then its
/// rank, then its index in that rank's operations. The time contributes its
/// order-preserving bits — a negative float's bits flipped, a positive
/// one's sign bit set — of `time + 0.0`, so `-0.0` ties `0.0` as a float
/// comparison has it.
fn order_key(time: f64, rank: Rank, index: usize) -> u128 {
    let bits = (time + 0.0).to_bits();
    let bits = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    let index = u32::try_from(index).expect("a rank's operation index fits a u32");
    u128::from(bits) << 64 | u128::from(rank.0) << 32 | u128::from(index)
}

/// Splits the trace into per-destination event streams: each destination's
/// own receive posts plus the sends targeting it, in global time order (ties
/// broken by rank, then program order). A counting pass sizes every stream
/// exactly; the second pushes each event behind its [`order_key`] in
/// rank-entry order, and each stream is then sorted on its own by a stable
/// sort — the trace is never sorted as a whole. A rank that appears twice in
/// `ranks` ties on the whole key, and the stable sort keeps its entries in
/// `ranks` order, as the global order does.
fn per_destination_events(trace: &AppTrace) -> Vec<Vec<Ev>> {
    let n = trace
        .ranks
        .iter()
        .map(|r| r.rank.0 as usize + 1)
        .max()
        .unwrap_or(0);
    let mut sizes = vec![0usize; n];
    for r in &trace.ranks {
        for TimedOp { op, .. } in &r.ops {
            if let Some((dest, _)) = event_of(r.rank, op, n) {
                sizes[dest] += 1;
            }
        }
    }
    let mut keyed: Vec<Vec<(u128, Ev)>> = sizes.into_iter().map(Vec::with_capacity).collect();
    for r in &trace.ranks {
        for (i, TimedOp { time, op }) in r.ops.iter().enumerate() {
            if let Some((dest, ev)) = event_of(r.rank, op, n) {
                keyed[dest].push((order_key(*time, r.rank, i), ev));
            }
        }
    }
    keyed
        .into_iter()
        .map(|mut events| {
            events.sort_by_key(|&(key, _)| key);
            events.into_iter().map(|(_, ev)| ev).collect()
        })
        .collect()
}

/// `config` sized for the largest destination of `per_rank`: its table holds
/// the most receives any destination posts, and its unexpected store the
/// most messages any destination is sent. One engine so sized serves every
/// destination in turn, reset between them; a larger table changes no count.
fn sized_for(config: MatchConfig, per_rank: &[Vec<Ev>]) -> MatchConfig {
    let (posts, arrivals) = per_rank.iter().fold((1, 1), |(p, a), events| {
        let posts = events.iter().filter(|e| matches!(e, Ev::Post(_))).count();
        (p.max(posts), a.max(events.len() - posts))
    });
    config
        .with_max_receives(posts)
        .with_max_unexpected(arrivals)
}

/// The matched-pairs oracle: the same per-destination event streams pushed
/// straight into one [`otm::SequentialOtm`], reset for each destination, no
/// wire, no service. Receive and message handles are numbered per
/// destination exactly as the end-to-end replay numbers them, so the sorted
/// pair vectors of the two paths are directly comparable.
///
/// ```
/// use dpa_sim::app_replay::{engine_direct_pairs, replay_app, AppReplayConfig};
/// use otm_trace::model::{AppTrace, MpiOp, RankTrace, TimedOp};
/// use otm_base::envelope::{SourceSel, TagSel};
/// use otm_base::{CommId, Rank, Tag};
///
/// // Rank 1 posts a wildcard receive; rank 0 sends the matching message.
/// let trace = AppTrace {
///     name: "doc".into(),
///     ranks: vec![
///         RankTrace {
///             rank: Rank(0),
///             ops: vec![TimedOp {
///                 time: 2.0,
///                 op: MpiOp::Send { dest: Rank(1), tag: Tag(7), comm: CommId::WORLD, count: 64 },
///             }],
///         },
///         RankTrace {
///             rank: Rank(1),
///             ops: vec![TimedOp {
///                 time: 1.0,
///                 op: MpiOp::Recv { src: SourceSel::Any, tag: TagSel::Tag(Tag(7)), comm: CommId::WORLD, count: 64 },
///             }],
///         },
///     ],
/// };
/// let end_to_end = replay_app(&trace, &AppReplayConfig::default()).unwrap();
/// assert_eq!(end_to_end.matched_pairs, engine_direct_pairs(&trace, 128));
/// ```
pub fn engine_direct_pairs(trace: &AppTrace, bins: usize) -> Vec<MatchedPair> {
    let per_rank = per_destination_events(trace);
    let config = MatchConfig::default().with_bins(bins).with_block_threads(1);
    let mut engine =
        otm::SequentialOtm::new(sized_for(config, &per_rank)).expect("oracle replay configuration");
    let mut pairs = Vec::new();
    for (dest, events) in per_rank.iter().enumerate() {
        if events.is_empty() {
            continue;
        }
        engine
            .reset()
            .expect("nothing is queued between destinations");
        let first = pairs.len();
        let (mut next_recv, mut next_msg) = (0u64, 0u64);
        for ev in events {
            match ev {
                Ev::Post(pattern) => {
                    let handle = RecvHandle(next_recv);
                    next_recv += 1;
                    let posted = Matcher::post(&mut engine, *pattern, handle);
                    if let PostResult::Matched(msg) = posted.expect("oracle within engine capacity")
                    {
                        pairs.push((dest as u32, handle.0, msg.0));
                    }
                }
                Ev::Arrive { env, .. } => {
                    let msg = MsgHandle(next_msg);
                    next_msg += 1;
                    let arrived = engine.arrive(*env, msg);
                    if let ArriveResult::Matched(recv) =
                        arrived.expect("oracle within engine capacity")
                    {
                        pairs.push((dest as u32, recv.0, msg.0));
                    }
                }
            }
        }
        // Destinations go in ascending order, so sorting each one's pairs
        // sorts them all.
        pairs[first..].sort_unstable();
    }
    debug_assert!(pairs.windows(2).all(|w| w[0] <= w[1]));
    pairs
}

/// The replay's endpoints, built once and re-armed for each destination: the
/// service with the NIC and the engine behind it, and one queue pair and
/// reliable sender per slot. The destination's `i`-th source in rank order
/// sends on slot `i`; the slots grow to the widest destination so far, and
/// those past the current one's sources sit idle. A destination may have a
/// series, sampled after each `progress` of the service.
struct Endpoints {
    svc: MatchingService,
    domain: RdmaDomain,
    /// The engine's configuration, for the one a fallback makes necessary.
    engine_config: MatchConfig,
    /// One per queue pair of the NIC, in slot order.
    senders: Vec<ReliableSender>,
    /// The current destination's sources, in rank order.
    sources: Vec<u32>,
    /// The current destination's series, if it has one.
    series: Option<SeriesRecorder>,
}

impl Endpoints {
    /// A set with no slot yet, around an engine configured by `engine`: a
    /// destination arms it first. Its bounce pool holds `buffers` staging
    /// buffers, whichever destination it serves.
    fn new(
        cfg: &AppReplayConfig,
        buffers: usize,
        engine_config: MatchConfig,
    ) -> Result<Self, MatchError> {
        let buf = cfg.eager_max.max(cfg.piggyback).max(ID_BYTES);
        let mut nic = RecvNic::unconnected(BouncePool::new(buffers, buf));
        nic.enable_total_order();
        if let Some(plan) = &cfg.faults {
            nic.set_faults(plan.clone());
        }
        let domain = RdmaDomain::new();
        let backend = Self::engine(&engine_config)?;
        Ok(Endpoints {
            svc: MatchingService::with_backend(nic, domain.clone(), backend),
            domain,
            engine_config,
            senders: Vec::new(),
            sources: Vec::new(),
            series: None,
        })
    }

    /// An engine as `config` says: the one the set starts with, and the one
    /// that replaces the software matcher a fallback leaves.
    fn engine(config: &MatchConfig) -> Result<Box<dyn MatchingBackend>, MatchError> {
        Ok(Box::new(OtmEngine::new(config.clone())?))
    }

    /// Arms the set for one destination: a slot per source that sends to it
    /// (connecting more queue pairs if the set is narrower), and the
    /// service, its engine, the NIC and those slots' senders re-armed to
    /// read as new.
    fn arm(&mut self, events: &[Ev]) {
        self.sources.clear();
        self.sources.extend(events.iter().filter_map(|e| match e {
            Ev::Arrive { src, .. } => Some(src.0),
            Ev::Post(_) => None,
        }));
        self.sources.sort_unstable();
        self.sources.dedup();
        let active = self.sources.len();
        while self.senders.len() < active {
            let (tx, rx) = connected_pair();
            self.svc.nic_mut().add_qp(rx);
            self.senders.push(ReliableSender::new(tx));
        }
        let config = &self.engine_config;
        self.svc
            .rearm(|| Self::engine(config).expect("the configuration built the first engine"));
        self.svc.nic_mut().rearm(active);
        for s in &mut self.senders[..active] {
            s.rearm();
        }
    }

    /// The slot `src` sends on.
    fn slot(&self, src: u32) -> usize {
        self.sources
            .binary_search(&src)
            .expect("a slot for every arrival source")
    }

    /// The current destination's senders.
    fn active(&self) -> &[ReliableSender] {
        &self.senders[..self.sources.len()]
    }

    /// The destination's registry snapshot: the service's merged with its
    /// active senders'.
    fn observability_snapshot(&self) -> RegistrySnapshot {
        let senders = self
            .active()
            .iter()
            .map(ReliableSender::observability_snapshot);
        senders.fold(self.svc.observability_snapshot(), |snap, s| snap.merge(&s))
    }

    /// Progresses the service, then samples the series if one is due at the
    /// service's poll clock: the backlog matching left behind, and the
    /// destination's snapshot.
    fn progress(&mut self) -> Result<(), ServiceError> {
        self.svc.progress()?;
        let t = self.svc.polls();
        if self.series.as_ref().is_some_and(|s| s.due(t)) {
            let (depth, snap) = (self.svc.backlog(), self.observability_snapshot());
            if let Some(series) = &mut self.series {
                series.sample(t, depth, &snap);
            }
        }
        Ok(())
    }

    /// One turn of the whole path: the service progresses, its completions
    /// go into `pairs`, and every active sender polls once (ack intake and
    /// retransmit timers).
    fn pump(&mut self, dest: u32, pairs: &mut Vec<MatchedPair>) -> Result<(), ServiceError> {
        self.progress()?;
        collect(dest, self.svc.take_completed(), pairs);
        for s in &mut self.senders[..self.sources.len()] {
            let stray = s.poll().map_err(ServiceError::Reliability)?;
            debug_assert!(stray.is_empty(), "nothing sends app data back");
        }
        Ok(())
    }

    /// Pumps until every arrival sent so far has been accepted (senders
    /// fully acked) *and* released by the total-order gate — the point at
    /// which the engine's submission stream provably contains every prior
    /// arrival, so a post may follow.
    fn settle(&mut self, dest: u32, pairs: &mut Vec<MatchedPair>) -> Result<(), ServiceError> {
        loop {
            self.pump(dest, pairs)?;
            let all_acked = self.active().iter().all(|s| s.unacked() == 0);
            if all_acked && self.svc.nic().gate_parked_len() == 0 {
                // One more pass drains anything the final acks released.
                self.progress()?;
                collect(dest, self.svc.take_completed(), pairs);
                return Ok(());
            }
        }
    }
}

/// Collects the service's completions into the pair vector.
fn collect(dest: u32, done: Vec<CompletedReceive>, pairs: &mut Vec<MatchedPair>) {
    for c in done {
        pairs.push((dest, c.recv.0, payload_id(&c.data)));
    }
}

/// Replays one application trace end to end through the full production
/// path — per-source-rank queue pairs under the reliability protocol, the
/// receive NIC's staging and total-order gate, the service's command queue,
/// the engine's bounded per-communicator queues (one `VecDeque` a shard),
/// and the eager/rendezvous payload protocol — one destination rank at a
/// time.
///
/// The returned [`AppReplayOutcome::matched_pairs`] must equal
/// [`engine_direct_pairs`] on the same trace for any [`AppReplayConfig`]:
/// the wire and the faults may change *how often* packets cross, never
/// *what matches*.
pub fn replay_app(
    trace: &AppTrace,
    cfg: &AppReplayConfig,
) -> Result<AppReplayOutcome, ServiceError> {
    let per_rank = per_destination_events(trace);
    let mut report = AppReplayReport {
        name: trace.name.clone(),
        processes: trace.processes(),
        mode: PROTOCOL_LABEL.to_string(),
        faulty: cfg.faults.is_some(),
        ..AppReplayReport::default()
    };
    let mut pairs: Vec<MatchedPair> = Vec::new();
    let arrivals_at = |d: usize| {
        per_rank[d]
            .iter()
            .filter(|e| matches!(e, Ev::Arrive { .. }))
            .count()
    };
    let busiest = (0..per_rank.len()).max_by_key(|&d| arrivals_at(d));
    // Sized once, to the busiest destination: never smaller than the pool a
    // destination of its own would get.
    let buffers = busiest.map_or(0, arrivals_at).clamp(64, 8192);
    let engine = sized_for(MatchConfig::default().with_bins(cfg.bins), &per_rank);
    let mut ends = Endpoints::new(cfg, buffers, engine).map_err(ServiceError::Match)?;
    let start = std::time::Instant::now();

    for (dest, events) in per_rank.iter().enumerate() {
        if events.is_empty() {
            continue;
        }
        let posts = events.iter().filter(|e| matches!(e, Ev::Post(_))).count();
        let arrivals = events.len() - posts;
        report.posts += posts as u64;
        report.messages += arrivals as u64;
        ends.arm(events);
        if let (Some(cadence), Some(b)) = (cfg.series_cadence, busiest) {
            if b == dest {
                ends.series = Some(SeriesRecorder::new(cadence.max(1)));
            }
        }
        let dest = dest as u32;
        let first = pairs.len();

        // ---- the event loop: posts and arrivals in trace order ----------
        let mut gseq = 0u64;
        let mut dirty = false;
        for ev in events {
            match ev {
                Ev::Post(pattern) => {
                    if dirty {
                        ends.settle(dest, &mut pairs)?;
                        dirty = false;
                    }
                    // A post is a command on its communicator's ring, and
                    // nothing drains the ring between two posts: a full one
                    // is drained and the post retried under its handle.
                    let handle = ends.svc.reserve_recv();
                    loop {
                        match ends.svc.post_recv_queued_reserved(*pattern, handle) {
                            Ok(()) => break,
                            Err(ServiceError::Match(MatchError::SubmissionRingFull { .. })) => {
                                ends.pump(dest, &mut pairs)?;
                            }
                            Err(e) => return Err(e),
                        }
                    }
                }
                Ev::Arrive { src, env, bytes } => {
                    // Window backpressure: progress the whole path (all
                    // senders — a parked packet may wait on another QP's
                    // retransmission) until this sender has room.
                    let at = ends.slot(src.0);
                    while !ends.senders[at].can_send() {
                        ends.pump(dest, &mut pairs)?;
                    }
                    let payload = payload_for(gseq, *bytes);
                    let pkt = if *bytes <= cfg.eager_max {
                        report.eager_messages += 1;
                        eager_packet(*env, payload)
                    } else {
                        report.rendezvous_messages += 1;
                        // The service RDMA-READs the tail and deregisters
                        // the region once the payload is delivered.
                        rendezvous_packet(&ends.domain, *env, payload, cfg.piggyback).0
                    };
                    let sent = ends.senders[at].send(pkt.with_gseq(gseq));
                    sent.map_err(ServiceError::Reliability)?;
                    gseq += 1;
                    dirty = true;
                }
            }
        }
        ends.settle(dest, &mut pairs)?;
        // Destinations go in ascending order, so sorting each one's pairs
        // sorts them all.
        pairs[first..].sort_unstable();

        // ---- per-destination accounting ---------------------------------
        if let Some(mut series) = ends.series.take() {
            // The terminal point is the destination's end-of-run snapshot.
            let snap = ends.observability_snapshot();
            series.force_sample(ends.svc.polls(), ends.svc.backlog(), &snap);
            report.series = Some(series);
        }
        let svc = &ends.svc;
        // A message a block matched took exactly one of the three paths.
        let engine = svc.engine_stats().unwrap_or_default();
        let (nc, wc_fp) = (engine.optimistic_ok, engine.fast_path);
        let wc_sp = engine.matched - nc - wc_fp;
        #[cfg(test)]
        tests::check_paths_against_the_registry(svc, [nc, wc_fp, wc_sp]);
        report.path_nc += nc;
        report.path_wc_fp += wc_fp;
        report.path_wc_sp += wc_sp;
        let wire = svc.nic().wire_fault_stats().unwrap_or_default();
        report.wire_drops += wire.drops;
        report.wire_duplicates += wire.duplicates;
        report.wire_reorders += wire.reorders;
        report.wire_delays += wire.delays;
        let rx = svc.nic().rx_stats();
        report.rx_duplicates += rx.duplicates;
        report.rx_gaps += rx.gaps;
        report.rx_staged_out_of_order += rx.staged_out_of_order;
        report.acks_sent += rx.acks_sent;
        report.gate_parked += rx.gate_parked;
        report.gate_released += rx.gate_released;
        report.fallbacks += u64::from(svc.fell_back());
        for s in ends.active() {
            let rel = s.stats();
            report.retransmits += rel.retransmits;
            report.fast_retransmits += rel.fast_retransmits;
            report.resend_events += rel.resend_events;
            report.acks_received += rel.acks;
            report.backoff_polls += rel.backoff_polls;
        }
        #[cfg(test)]
        tests::note_destination_end(ends.observability_snapshot(), ends.active());
    }

    report.elapsed_secs = start.elapsed().as_secs_f64();
    report.msgs_per_sec = report.messages as f64 / report.elapsed_secs.max(f64::EPSILON);
    report.retransmit_amplification = if report.wire_drops > 0 {
        report.retransmits as f64 / report.wire_drops as f64
    } else {
        0.0
    };
    debug_assert!(pairs.windows(2).all(|w| w[0] <= w[1]));
    report.completed = pairs.len() as u64;
    #[cfg(test)]
    tests::note_regions_left(ends.domain.region_count());
    Ok(AppReplayOutcome {
        report,
        matched_pairs: pairs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use otm_base::envelope::{SourceSel, TagSel};
    use otm_base::{CommId, Rank, Tag};
    use otm_trace::model::{RankTrace, ReqId};

    /// Three ranks into one: wildcard receives, an unexpected arrival, a
    /// rendezvous-sized payload, and a post-only tail receive.
    fn cross_traffic_trace() -> AppTrace {
        let send = |t: f64, dest: u32, tag: u32, count: u64| TimedOp {
            time: t,
            op: MpiOp::Send {
                dest: Rank(dest),
                tag: Tag(tag),
                comm: CommId::WORLD,
                count,
            },
        };
        let recv = |t: f64, src: SourceSel, tag: TagSel, count: u64| TimedOp {
            time: t,
            op: MpiOp::Irecv {
                src,
                tag,
                comm: CommId::WORLD,
                count,
                request: ReqId(0),
            },
        };
        AppTrace {
            name: "cross-traffic".into(),
            ranks: vec![
                RankTrace {
                    rank: Rank(0),
                    ops: vec![
                        send(1.0, 2, 5, 16),
                        send(3.0, 2, 6, 1024), // rendezvous-sized
                        send(5.0, 2, 7, 16),   // stays unexpected
                    ],
                },
                RankTrace {
                    rank: Rank(1),
                    ops: vec![send(2.0, 2, 5, 16), send(4.0, 2, 9, 16)],
                },
                RankTrace {
                    rank: Rank(2),
                    ops: vec![
                        recv(0.5, SourceSel::Any, TagSel::Tag(Tag(5)), 16),
                        recv(0.6, SourceSel::Any, TagSel::Tag(Tag(5)), 16),
                        recv(2.5, SourceSel::Rank(Rank(0)), TagSel::Tag(Tag(6)), 1024),
                        recv(3.5, SourceSel::Any, TagSel::Tag(Tag(9)), 16),
                        recv(9.0, SourceSel::Any, TagSel::Tag(Tag(99)), 16), // never matches
                    ],
                },
            ],
        }
    }

    thread_local! {
        /// Destinations whose path counts this thread's replays checked.
        static CHECKED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
        /// Regions still registered when this thread's last replay ended.
        static REGIONS_LEFT: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
    }

    /// Called by every replay in this crate's tests as it ends.
    pub(super) fn note_regions_left(regions: usize) {
        REGIONS_LEFT.with(|r| r.set(Some(regions)));
    }

    #[test]
    fn no_region_outlives_its_destination() {
        // Rank 1 never receives rank 0's rendezvous-sized tag-8 message; the
        // replay goes on to rank 2, which matches one of its own.
        let send = |t: f64, dest: u32, tag: u32| TimedOp {
            time: t,
            op: MpiOp::Send {
                dest: Rank(dest),
                tag: Tag(tag),
                comm: CommId::WORLD,
                count: 1024,
            },
        };
        let recv = |t: f64, tag: u32| TimedOp {
            time: t,
            op: MpiOp::Recv {
                src: SourceSel::Rank(Rank(0)),
                tag: TagSel::Tag(Tag(tag)),
                comm: CommId::WORLD,
                count: 1024,
            },
        };
        let trace = AppTrace {
            name: "unmatched-rendezvous".into(),
            ranks: vec![
                RankTrace {
                    rank: Rank(0),
                    ops: vec![send(1.0, 1, 7), send(2.0, 1, 8), send(3.0, 2, 7)],
                },
                RankTrace {
                    rank: Rank(1),
                    ops: vec![recv(0.5, 7)],
                },
                RankTrace {
                    rank: Rank(2),
                    ops: vec![recv(0.5, 7)],
                },
            ],
        };
        REGIONS_LEFT.with(|r| r.set(None));
        let out = replay_app(&trace, &AppReplayConfig::default()).unwrap();
        assert_eq!(out.matched_pairs, engine_direct_pairs(&trace, 128));
        let r = &out.report;
        assert_eq!(
            (r.rendezvous_messages, r.completed),
            (3, 2),
            "tag 8 never matched"
        );
        assert_eq!(REGIONS_LEFT.with(std::cell::Cell::get), Some(0));
    }

    /// Called by every replay in this crate's tests, once per destination:
    /// the path counts `replay_app` reports are the registry's
    /// `otm_resolutions_total{path}`, read the way it used to read them.
    pub(super) fn check_paths_against_the_registry(svc: &MatchingService, paths: [u64; 3]) {
        let snap = svc.observability_snapshot();
        let keyed = ["nc", "wc_fp", "wc_sp"].map(|p| {
            let key = format!("otm_resolutions_total{{path=\"{p}\"}}");
            snap.counters.get(&key).copied().unwrap_or(0)
        });
        assert_eq!(paths, keyed);
        CHECKED.with(|c| c.set(c.get() + 1));
    }

    /// Four sources burst same-tag messages at two destinations that hold
    /// wildcard receives (a seeded few name their source): the messages of
    /// a block compete for the same receives, so conflicts resolve.
    fn wildcard_heavy_trace(seed: u64) -> AppTrace {
        let mut rng = otm_base::FaultRng::new(seed);
        let mut ranks: Vec<RankTrace> = (0..6)
            .map(|r| RankTrace {
                rank: Rank(r),
                ops: Vec::new(),
            })
            .collect();
        for round in 0..8u32 {
            let t = f64::from(round);
            for dest in 0..2u32 {
                for i in 0..16u32 {
                    let src = match rng.below(4) {
                        0 => SourceSel::Rank(Rank(2 + i % 4)),
                        _ => SourceSel::Any,
                    };
                    ranks[dest as usize].ops.push(TimedOp {
                        time: t + 0.25,
                        op: MpiOp::Irecv {
                            src,
                            tag: TagSel::Tag(Tag(rng.below(2) as u32)),
                            comm: CommId::WORLD,
                            count: 16,
                            request: ReqId(i),
                        },
                    });
                }
            }
            for src in 2..6u32 {
                for _ in 0..8 {
                    ranks[src as usize].ops.push(TimedOp {
                        time: t + 0.5,
                        op: MpiOp::Send {
                            dest: Rank(rng.below(2) as u32),
                            tag: Tag(rng.below(2) as u32),
                            comm: CommId::WORLD,
                            count: 16,
                        },
                    });
                }
            }
        }
        AppTrace {
            name: "wildcard-heavy".into(),
            ranks,
        }
    }

    #[test]
    fn path_counts_are_the_registrys_on_plain_and_wildcard_heavy_traces() {
        let before = CHECKED.with(std::cell::Cell::get);
        let plain = replay_app(&cross_traffic_trace(), &AppReplayConfig::default()).unwrap();
        assert_eq!(CHECKED.with(std::cell::Cell::get) - before, 1, "rank 2");
        let r = &plain.report;
        let by_path = r.path_nc + r.path_wc_fp + r.path_wc_sp;
        assert_eq!(by_path, r.completed, "every receive was posted first");
        let trace = wildcard_heavy_trace(0x23);
        let heavy = replay_app(&trace, &AppReplayConfig::default()).unwrap();
        assert_eq!(
            CHECKED.with(std::cell::Cell::get) - before,
            3,
            "ranks 0 and 1"
        );
        assert_eq!(heavy.matched_pairs, engine_direct_pairs(&trace, 128));
        let r = &heavy.report;
        assert!(r.path_wc_fp + r.path_wc_sp > 0, "conflicts resolved: {r:?}");
        assert!(r.path_nc > 0);
    }

    #[test]
    fn clean_wire_replay_matches_the_engine_direct_oracle() {
        let trace = cross_traffic_trace();
        let out = replay_app(&trace, &AppReplayConfig::default()).unwrap();
        assert_eq!(out.matched_pairs, engine_direct_pairs(&trace, 128));
        assert_eq!(out.report.messages, 5);
        assert_eq!(out.report.posts, 5);
        assert_eq!(out.report.completed, 4, "tag 7 stays unexpected");
        assert_eq!(out.report.rendezvous_messages, 1);
        assert_eq!(out.report.eager_messages, 4);
        assert_eq!(
            out.report.gate_released, 5,
            "every arrival crossed the gate"
        );
    }

    #[test]
    fn a_destination_nobody_sends_to_still_replays() {
        // Rank 2 posts a wildcard receive no message ever reaches: its NIC
        // terminates no queue pair in use.
        let trace = AppTrace {
            name: "post-only".into(),
            ranks: vec![
                RankTrace {
                    rank: Rank(0),
                    ops: vec![TimedOp {
                        time: 1.0,
                        op: MpiOp::Send {
                            dest: Rank(1),
                            tag: Tag(3),
                            comm: CommId::WORLD,
                            count: 16,
                        },
                    }],
                },
                RankTrace {
                    rank: Rank(1),
                    ops: vec![TimedOp {
                        time: 0.5,
                        op: MpiOp::Recv {
                            src: SourceSel::Rank(Rank(0)),
                            tag: TagSel::Tag(Tag(3)),
                            comm: CommId::WORLD,
                            count: 16,
                        },
                    }],
                },
                RankTrace {
                    rank: Rank(2),
                    ops: vec![TimedOp {
                        time: 0.5,
                        op: MpiOp::Irecv {
                            src: SourceSel::Any,
                            tag: TagSel::Any,
                            comm: CommId::WORLD,
                            count: 16,
                            request: ReqId(0),
                        },
                    }],
                },
            ],
        };
        let out = replay_app(&trace, &AppReplayConfig::default()).unwrap();
        assert_eq!(out.matched_pairs, engine_direct_pairs(&trace, 128));
        assert_eq!((out.report.posts, out.report.completed), (2, 1));
    }

    /// Rank 0 posts `n` receives in a row, then rank 1 sends the `n`
    /// messages they wait for, one tag of seven each.
    fn consecutive_posts_trace(n: u32) -> AppTrace {
        let tag = |i: u32| Tag(i % 7);
        let recvs = (0..n).map(|i| TimedOp {
            time: f64::from(i),
            op: MpiOp::Irecv {
                src: SourceSel::Rank(Rank(1)),
                tag: TagSel::Tag(tag(i)),
                comm: CommId::WORLD,
                count: 16,
                request: ReqId(i),
            },
        });
        let sends = (0..n).map(|i| TimedOp {
            time: f64::from(n + i),
            op: MpiOp::Send {
                dest: Rank(0),
                tag: tag(i),
                comm: CommId::WORLD,
                count: 16,
            },
        });
        AppTrace {
            name: "consecutive posts".into(),
            ranks: vec![
                RankTrace {
                    rank: Rank(0),
                    ops: recvs.collect(),
                },
                RankTrace {
                    rank: Rank(1),
                    ops: sends.collect(),
                },
            ],
        }
    }

    #[test]
    fn more_consecutive_posts_than_a_ring_or_a_fixed_oracle_holds_still_replay() {
        // A communicator's queue holds 1,024 commands, and nothing drains it
        // between two posts; 20,000 outstanding receives are more than the
        // 16,384 an oracle of fixed size held.
        for n in [1_100, 20_000] {
            let trace = consecutive_posts_trace(n);
            let out = replay_app(&trace, &AppReplayConfig::default()).unwrap();
            assert_eq!(out.report.completed, u64::from(n), "{n} posts");
            assert_eq!(out.matched_pairs, engine_direct_pairs(&trace, 128));
        }
    }

    thread_local! {
        /// The last destination's end-of-run snapshot, and its active
        /// senders' summed `stats()` acks and retransmits.
        static LAST_END: std::cell::RefCell<Option<(otm_metrics::RegistrySnapshot, [u64; 2])>> =
            const { std::cell::RefCell::new(None) };
    }

    /// Called by every replay in this crate's tests, once per destination,
    /// as it ends.
    pub(super) fn note_destination_end(
        snap: otm_metrics::RegistrySnapshot,
        senders: &[ReliableSender],
    ) {
        let sums = senders.iter().fold([0, 0], |[acks, retx], s| {
            [acks + s.stats().acks, retx + s.stats().retransmits]
        });
        LAST_END.with(|end| *end.borrow_mut() = Some((snap, sums)));
    }

    /// Four sources fan eight rounds of 16 messages into rank 0, each round
    /// behind its 16 receives (a third name their source, the rest take
    /// any); every fourth message is rendezvous-sized.
    fn fan_in_trace() -> AppTrace {
        let mut ranks: Vec<RankTrace> = (0..5)
            .map(|r| RankTrace {
                rank: Rank(r),
                ops: Vec::new(),
            })
            .collect();
        for round in 0..8u32 {
            let t = f64::from(round);
            for i in 0..16u32 {
                let src = match i % 3 {
                    0 => SourceSel::Rank(Rank(1 + i / 4)),
                    _ => SourceSel::Any,
                };
                ranks[0].ops.push(TimedOp {
                    time: t + 0.25,
                    op: MpiOp::Irecv {
                        src,
                        tag: TagSel::Tag(Tag(round * 16 + i)),
                        comm: CommId::WORLD,
                        count: 16,
                        request: ReqId(i),
                    },
                });
                let count = if i % 4 == 3 { 1024 } else { 16 };
                ranks[1 + i as usize / 4].ops.push(TimedOp {
                    time: t + 0.5,
                    op: MpiOp::Send {
                        dest: Rank(0),
                        tag: Tag(round * 16 + i),
                        comm: CommId::WORLD,
                        count,
                    },
                });
            }
        }
        AppTrace {
            name: "fan-in".into(),
            ranks,
        }
    }

    #[test]
    fn a_hostile_destinations_sender_counts_and_series_are_pinned() {
        let trace = fan_in_trace();
        let cfg = AppReplayConfig::default()
            .with_faults(
                FaultPlan::new(0x5e4d)
                    .with_drop_permille(150)
                    .with_duplicate_permille(100)
                    .with_reorder_permille(100)
                    .with_reorder_window(4)
                    .with_delay_permille(50)
                    .with_delay_polls(3),
            )
            .with_series_cadence(16);
        let out = replay_app(&trace, &cfg).unwrap();
        assert_eq!(out.matched_pairs, engine_direct_pairs(&trace, 128));
        assert_eq!(out.report.completed, 128);
        let (snap, senders) = LAST_END.with(|end| end.borrow_mut().take()).unwrap();
        let (acks, retx) = (
            snap.counters["dpa_acks_total"],
            snap.counters["dpa_retransmits_total"],
        );
        assert_eq!((acks, retx), (71, 37));
        assert_eq!([acks, retx], senders, "the senders' own stats");
        // Timeout lengths, in polls: six of 8..=15, two of 16..=31.
        let backoff = &snap.hists["dpa_backoff_polls"];
        let buckets: Vec<(usize, u64)> = (backoff.buckets.iter().enumerate())
            .filter(|&(_, &n)| n != 0)
            .map(|(i, &n)| (i, n))
            .collect();
        assert_eq!((backoff.count, backoff.sum), (8, 85));
        assert_eq!(buckets, [(4, 6), (5, 2)]);
        let series = out.report.series.expect("a series was asked for");
        let t: Vec<u64> = series.points().iter().map(|p| p.t).collect();
        let column: Vec<u64> = series.points().iter().map(|p| p.retransmits).collect();
        assert_eq!(t, [1, 17, 33, 49, 65, 81, 97]);
        assert_eq!(column, [0, 15, 16, 25, 26, 30, 37]);
    }

    #[test]
    fn hostile_wire_replay_matches_the_oracle() {
        let trace = cross_traffic_trace();
        let oracle = engine_direct_pairs(&trace, 128);
        let cfg = AppReplayConfig::default().with_faults(
            FaultPlan::new(0xa99)
                .with_drop_permille(150)
                .with_duplicate_permille(120)
                .with_reorder_permille(120)
                .with_reorder_window(4),
        );
        let out = replay_app(&trace, &cfg).unwrap();
        assert_eq!(out.matched_pairs, oracle);
    }

    fn render(report: &AppReplayReport) -> String {
        let mut w = JsonWriter::new();
        report.write_json(&mut w);
        w.finish()
    }

    #[test]
    fn report_json_is_one_object_with_the_schema_fields() {
        let trace = cross_traffic_trace();
        let out = replay_app(&trace, &AppReplayConfig::default()).unwrap();
        let json = render(&out.report);
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"app\":",
            "\"mode\":",
            "\"messages\":",
            "\"completed\":",
            "\"rendezvous_messages\":",
            "\"retransmit_amplification\":",
            "\"gate_released\":",
            "\"path_nc\":",
            "\"series\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    /// The golden row: key names and order as in the committed
    /// `experiments/app_replay_*.json`, and a caller-supplied name with a
    /// quote, a backslash and a newline stays one parsable string.
    #[test]
    fn report_json_escapes_the_name_and_pins_the_key_order() {
        let report = AppReplayReport {
            name: "a\"b\\c\n".to_string(),
            processes: 2,
            mode: PROTOCOL_LABEL.to_string(),
            faulty: true,
            posts: 3,
            messages: 4,
            retransmit_amplification: 1.5,
            elapsed_secs: 0.25,
            msgs_per_sec: 16.0,
            ..AppReplayReport::default()
        };
        assert_eq!(
            render(&report),
            concat!(
                r#"{"app":"a\"b\\c\n","processes":2,"mode":"selective-repeat","faulty":true,"#,
                r#""posts":3,"messages":4,"eager_messages":0,"rendezvous_messages":0,"#,
                r#""completed":0,"wire_drops":0,"wire_duplicates":0,"wire_reorders":0,"#,
                r#""wire_delays":0,"retransmits":0,"fast_retransmits":0,"resend_events":0,"#,
                r#""acks_received":0,"backoff_polls":0,"retransmit_amplification":1.5,"#,
                r#""rx_duplicates":0,"rx_gaps":0,"rx_staged_out_of_order":0,"acks_sent":0,"#,
                r#""gate_parked":0,"gate_released":0,"path_nc":0,"path_wc_fp":0,"#,
                r#""path_wc_sp":0,"fallbacks":0,"elapsed_secs":0.25,"msgs_per_sec":16,"#,
                r#""series":null}"#
            )
        );
    }

    /// The split as it was: the whole trace in the analyzer's merged order,
    /// each operation pushed to its destination's stream in turn.
    fn per_destination_events_by_merged_ops(trace: &AppTrace) -> Vec<Vec<Ev>> {
        let n = trace
            .ranks
            .iter()
            .map(|r| r.rank.0 as usize + 1)
            .max()
            .unwrap_or(0);
        let mut per_rank: Vec<Vec<Ev>> = (0..n).map(|_| Vec::new()).collect();
        for (rank, TimedOp { op, .. }) in trace.merged_ops() {
            match op {
                MpiOp::Irecv { src, tag, comm, .. } | MpiOp::Recv { src, tag, comm, .. } => {
                    per_rank[rank.0 as usize].push(Ev::Post(ReceivePattern { src, tag, comm }));
                }
                MpiOp::Isend {
                    dest,
                    tag,
                    comm,
                    count,
                    ..
                }
                | MpiOp::Send {
                    dest,
                    tag,
                    comm,
                    count,
                } if (dest.0 as usize) < n => {
                    per_rank[dest.0 as usize].push(Ev::Arrive {
                        src: rank,
                        env: Envelope {
                            src: rank,
                            tag,
                            comm,
                        },
                        bytes: payload_len(count),
                    });
                }
                _ => {}
            }
        }
        per_rank
    }

    /// Keeps the receives of ranks below `destinations` and the sends
    /// addressed to them.
    fn first_destinations(trace: AppTrace, destinations: u32) -> AppTrace {
        let ranks = trace.ranks.into_iter().map(|r| {
            let ops = r.ops.into_iter().filter(|t| match t.op {
                MpiOp::Irecv { .. } | MpiOp::Recv { .. } => r.rank.0 < destinations,
                MpiOp::Isend { dest, .. } | MpiOp::Send { dest, .. } => dest.0 < destinations,
                _ => true,
            });
            RankTrace {
                rank: r.rank,
                ops: ops.collect(),
            }
        });
        AppTrace {
            name: trace.name,
            ranks: ranks.collect(),
        }
    }

    /// Returns how many events the split holds.
    fn assert_split_equals_the_merged_order(trace: &AppTrace) -> usize {
        let split = per_destination_events(trace);
        assert_eq!(
            split,
            per_destination_events_by_merged_ops(trace),
            "{}",
            trace.name
        );
        split.iter().map(Vec::len).sum()
    }

    #[test]
    fn the_split_equals_the_merged_order_on_every_table_ii_app() {
        let mut without_events = Vec::new();
        for spec in otm_workloads::catalog() {
            let trace = first_destinations((spec.generate)(42), 16);
            if assert_split_equals_the_merged_order(&trace) == 0 {
                without_events.push(spec.name);
            }
        }
        assert_eq!(without_events, ["HILO", "HILO 2D"], "all collectives");
    }

    #[test]
    fn the_split_equals_the_merged_order_under_ties_of_every_kind() {
        // Seeded: a handful of coarse timestamps, so times tie across ranks
        // and within one; rank entries out of rank order, and rank 3 twice
        // (two entries tie on time, rank *and* program index). Every
        // operation has a tag of its own, so a swap shows.
        let mut rng = otm_base::FaultRng::new(0x5eed_0023);
        let mut tag = 0;
        let entries = [5u32, 3, 0, 3, 9, 1];
        let ranks = entries.map(|rank| RankTrace {
            rank: Rank(rank),
            ops: (0..200 + rng.below(100))
                .map(|_| {
                    tag += 1;
                    let time = rng.below(8) as f64 * 0.5;
                    let op = if rng.below(2) == 0 {
                        MpiOp::Send {
                            dest: Rank(entries[rng.below(entries.len() as u64) as usize]),
                            tag: Tag(tag),
                            comm: CommId::WORLD,
                            count: rng.below(512),
                        }
                    } else {
                        MpiOp::Irecv {
                            src: SourceSel::Any,
                            tag: TagSel::Tag(Tag(tag)),
                            comm: CommId::WORLD,
                            count: 1,
                            request: ReqId(0),
                        }
                    };
                    TimedOp { time, op }
                })
                .collect(),
        });
        let ties = AppTrace {
            name: "ties".into(),
            ranks: ranks.into(),
        };
        assert_split_equals_the_merged_order(&ties);

        // `-0.0` ties `0.0`: rank 0's send goes before rank 1's, and rank
        // 2's two receives stay in program order.
        let at = |time: f64, op: MpiOp| TimedOp { time, op };
        let send = |tag: u32| MpiOp::Send {
            dest: Rank(2),
            tag: Tag(tag),
            comm: CommId::WORLD,
            count: 16,
        };
        let recv = |tag: u32| MpiOp::Recv {
            src: SourceSel::Any,
            tag: TagSel::Tag(Tag(tag)),
            comm: CommId::WORLD,
            count: 16,
        };
        let signed_zeros = AppTrace {
            name: "signed zeros".into(),
            ranks: vec![
                RankTrace {
                    rank: Rank(1),
                    ops: vec![at(-0.0, send(1))],
                },
                RankTrace {
                    rank: Rank(0),
                    ops: vec![at(0.0, send(0))],
                },
                RankTrace {
                    rank: Rank(2),
                    ops: vec![at(0.0, recv(0)), at(-0.0, recv(1))],
                },
            ],
        };
        assert_split_equals_the_merged_order(&signed_zeros);
        let tags: Vec<_> = per_destination_events(&signed_zeros)[2]
            .iter()
            .map(|ev| match ev {
                Ev::Post(p) => p.tag,
                Ev::Arrive { env, .. } => TagSel::Tag(env.tag),
            })
            .collect();
        let order = [0, 1, 0, 1].map(|t| TagSel::Tag(Tag(t)));
        assert_eq!(tags, order, "rank 0, rank 1, then rank 2's two receives");
    }

    #[test]
    fn payload_identity_survives_the_clamp() {
        assert_eq!(payload_len(0), ID_BYTES);
        assert_eq!(payload_len(1 << 40), MAX_PAYLOAD_BYTES);
        let p = payload_for(7, 16);
        assert_eq!(p.len(), 16);
        assert_eq!(payload_id(&p), 7);
    }
}
