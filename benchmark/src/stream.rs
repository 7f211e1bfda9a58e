//! The `stream_*` workloads: seeded generation, the oracle, the stack under
//! test and the closed-loop driver.
//!
//! The driver is one thread. Every queue pair is an in-process queue that
//! thread polls, and a lane's packets in flight are bounded by its
//! `ReliableSender` window (default cap 64, AIMD), so a slower stack is
//! offered less load. The only other threads are the engine's own worker
//! pool, `MatchConfig::default()` — the paper's N = 32.

use crate::tracer::{Call, Tracer};
use dpa_sim::bounce::BouncePool;
use dpa_sim::nic::RecvNic;
use dpa_sim::rdma::{
    connected_pair, eager_packet, rendezvous_packet, QueuePair, RKey, RdmaDomain, WirePacket,
};
use dpa_sim::service::CompletedReceive;
use dpa_sim::{FeedbackController, MatchingService, ReliableSender};
use mpi_matching::traditional::TraditionalMatcher;
use mpi_matching::{ArriveResult, Matcher, MsgHandle, PostResult, RecvHandle};
use otm::OtmEngine;
use otm_base::{
    CommId, Envelope, FaultPlan, FaultRng, MatchConfig, Rank, ReceivePattern, SourceSel, Tag,
    TagSel,
};
use std::collections::{BTreeMap, HashSet};
use std::time::{Duration, Instant};

/// Receives (and messages) per round. Half the default receive table and
/// unexpected store (1024 each), so a round never trips the fallback.
pub const ROUND: usize = 512;

/// Payloads up to this many bytes travel eagerly, larger ones as RTS +
/// RDMA READ with `PIGGYBACK` head bytes — `AppReplayConfig`'s defaults.
const EAGER_MAX: usize = 192;
const PIGGYBACK: usize = 64;

/// Leading payload bytes that carry the message id (little endian).
const ID_BYTES: usize = 8;

/// `pump` calls without a completion before a rep is declared stuck.
const STALL_PUMPS: u64 = 2_000_000;

/// How the receives of a round relate to its messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Every receive names its own `(src, tag)`: no two messages of a block
    /// want the same receive (Fig. 8 NC).
    Distinct,
    /// Every message carries the same envelope and the receives alternate
    /// between naming its source and `ANY_SOURCE`: all lanes of a block
    /// compete for the same receive (Fig. 8 WC).
    Conflict,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSpec {
    pub name: &'static str,
    /// Queue pairs, one communicator each.
    pub lanes: usize,
    pub shape: Shape,
    /// Send the round first and post its receives once the arrivals have
    /// been matched as unexpected.
    pub unexpected_first: bool,
    pub payload_len: usize,
    /// 10 % drop, 8 % duplicate, 8 % reorder over a window of 4 polls.
    pub hostile_wire: bool,
    /// Rounds per rep: calibrated once so that a rep takes about 0.3 s on
    /// the reference container, then frozen. Never scaled at run time.
    pub rounds_per_rep: usize,
}

pub const STREAMS: [StreamSpec; 4] = [
    StreamSpec {
        name: "stream_nc",
        lanes: 4,
        shape: Shape::Distinct,
        unexpected_first: false,
        payload_len: 8,
        hostile_wire: false,
        rounds_per_rep: 64,
    },
    StreamSpec {
        name: "stream_wc",
        lanes: 1,
        shape: Shape::Conflict,
        unexpected_first: false,
        payload_len: 8,
        hostile_wire: false,
        rounds_per_rep: 32,
    },
    StreamSpec {
        name: "stream_unexp",
        lanes: 4,
        shape: Shape::Distinct,
        unexpected_first: true,
        payload_len: 8,
        hostile_wire: false,
        rounds_per_rep: 64,
    },
    StreamSpec {
        name: "stream_lossy_rdv",
        lanes: 4,
        shape: Shape::Distinct,
        unexpected_first: false,
        payload_len: 1024,
        hostile_wire: true,
        rounds_per_rep: 32,
    },
];

#[derive(Debug, Clone, PartialEq)]
pub struct Round {
    /// Receives in posting order.
    pub posts: Vec<ReceivePattern>,
    /// `(lane, envelope)` in sending order.
    pub sends: Vec<(usize, Envelope)>,
}

/// One rep's generated input plus what a correct run must produce from it.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    pub spec: StreamSpec,
    pub rounds: Vec<Round>,
    /// Seed-derived byte mixed into every payload's fill.
    pub fill: u8,
    pub faults: Option<FaultPlan>,
    /// `expected[i]` is the id of the message the `i`-th posted receive of
    /// the rep must complete with.
    pub expected: Vec<u32>,
}

fn comm_of(lane: usize) -> CommId {
    CommId(lane as u16 + 1)
}

fn lane_of(comm: CommId) -> usize {
    usize::from(comm.0) - 1
}

impl Stream {
    /// Builds `rounds` rounds from `seed`. Equal seeds give equal streams.
    pub fn generate(spec: StreamSpec, seed: u64, rounds: usize) -> Stream {
        let mut rng = FaultRng::new(seed);
        let fill = rng.next_u64() as u8;
        let hot = (rng.below(1024) as u32, rng.below(1 << 16) as u32);
        let per_lane = ROUND / spec.lanes;
        let rounds: Vec<Round> = (0..rounds)
            .map(|_| match spec.shape {
                Shape::Distinct => distinct_round(&mut rng, spec.lanes, per_lane),
                Shape::Conflict => conflict_round(hot, spec.lanes, per_lane),
            })
            .collect();
        let faults = spec.hostile_wire.then(|| {
            FaultPlan::new(seed ^ 0xa99)
                .with_drop_permille(100)
                .with_duplicate_permille(80)
                .with_reorder_permille(80)
                .with_reorder_window(4)
        });
        let expected = oracle(&rounds, spec.lanes, spec.unexpected_first);
        Stream {
            spec,
            rounds,
            fill,
            faults,
            expected,
        }
    }

    pub fn messages(&self) -> usize {
        self.rounds.iter().map(|r| r.sends.len()).sum()
    }

    pub fn payload(&self, id: u64) -> Vec<u8> {
        let mut p = vec![self.fill ^ id as u8; self.spec.payload_len.max(ID_BYTES)];
        p[..ID_BYTES].copy_from_slice(&id.to_le_bytes());
        p
    }

    /// Whether `data` is exactly what `payload(id)` builds.
    fn payload_is(&self, data: &[u8], id: u64) -> bool {
        data.len() == self.spec.payload_len.max(ID_BYTES)
            && payload_id(data) == Some(id)
            && data[ID_BYTES..].iter().all(|&b| b == self.fill ^ id as u8)
    }

    /// The wire packet of message `id`, and for a rendezvous message the
    /// key of the region it registered (the service deregisters it after
    /// the RDMA READ; a rung that stops below the service does so itself).
    pub fn packet(
        &self,
        domain: &RdmaDomain,
        env: Envelope,
        id: u64,
    ) -> (WirePacket, Option<RKey>) {
        let payload = self.payload(id);
        if payload.len() <= EAGER_MAX {
            (eager_packet(env, payload), None)
        } else {
            let (packet, rkey) = rendezvous_packet(domain, env, payload, PIGGYBACK);
            (packet, Some(rkey))
        }
    }

    /// The first `rounds` rounds as a stream of their own (rounds are
    /// self-contained, so the oracle's prefix is the prefix's oracle).
    pub fn prefix(&self, rounds: usize) -> Stream {
        let rounds = self.rounds[..rounds.min(self.rounds.len())].to_vec();
        let posts = rounds.iter().map(|r| r.posts.len()).sum();
        Stream {
            spec: self.spec,
            rounds,
            fill: self.fill,
            faults: self.faults.clone(),
            expected: self.expected[..posts].to_vec(),
        }
    }

    pub fn is_rendezvous(&self) -> bool {
        self.spec.payload_len > EAGER_MAX
    }

    /// Bytes one message moves by RDMA READ and by eager copy, computed
    /// from the sizes (not measured).
    pub fn computed_bytes(&self) -> (f64, f64) {
        let len = self.spec.payload_len.max(ID_BYTES) as f64;
        if self.is_rendezvous() {
            (len - PIGGYBACK as f64, PIGGYBACK as f64)
        } else {
            (0.0, len)
        }
    }
}

fn distinct_round(rng: &mut FaultRng, lanes: usize, per_lane: usize) -> Round {
    let keys: Vec<Vec<(u32, u32)>> = (0..lanes)
        .map(|_| {
            let mut seen = HashSet::new();
            let mut keys = Vec::with_capacity(per_lane);
            while keys.len() < per_lane {
                let key = (rng.below(1024) as u32, rng.below(1 << 16) as u32);
                if seen.insert(key) {
                    keys.push(key);
                }
            }
            keys
        })
        .collect();
    // Messages reach each lane in a seeded shuffle of its posting order.
    let order: Vec<Vec<usize>> = (0..lanes)
        .map(|_| {
            let mut idx: Vec<usize> = (0..per_lane).collect();
            for i in (1..per_lane).rev() {
                idx.swap(i, rng.below(i as u64 + 1) as usize);
            }
            idx
        })
        .collect();
    let mut round = Round {
        posts: Vec::with_capacity(lanes * per_lane),
        sends: Vec::with_capacity(lanes * per_lane),
    };
    for j in 0..per_lane {
        for lane in 0..lanes {
            let (src, tag) = keys[lane][j];
            round
                .posts
                .push(ReceivePattern::new(Rank(src), Tag(tag), comm_of(lane)));
            let (src, tag) = keys[lane][order[lane][j]];
            round
                .sends
                .push((lane, Envelope::new(Rank(src), Tag(tag), comm_of(lane))));
        }
    }
    round
}

fn conflict_round((src, tag): (u32, u32), lanes: usize, per_lane: usize) -> Round {
    let mut round = Round {
        posts: Vec::with_capacity(lanes * per_lane),
        sends: Vec::with_capacity(lanes * per_lane),
    };
    for j in 0..per_lane {
        for lane in 0..lanes {
            let source = if j % 2 == 0 {
                SourceSel::Rank(Rank(src))
            } else {
                SourceSel::Any
            };
            round.posts.push(ReceivePattern {
                src: source,
                tag: TagSel::Tag(Tag(tag)),
                comm: comm_of(lane),
            });
            round
                .sends
                .push((lane, Envelope::new(Rank(src), Tag(tag), comm_of(lane))));
        }
    }
    round
}

/// The same per-communicator post/arrival order the driver produces, fed
/// to one `TraditionalMatcher` per communicator.
fn oracle(rounds: &[Round], lanes: usize, unexpected_first: bool) -> Vec<u32> {
    let mut matchers: Vec<TraditionalMatcher> =
        (0..lanes).map(|_| TraditionalMatcher::new()).collect();
    let posts: usize = rounds.iter().map(|r| r.posts.len()).sum();
    let mut expected = vec![u32::MAX; posts];
    let (mut next_post, mut next_msg) = (0u64, 0u64);
    for round in rounds {
        for phase in [unexpected_first, !unexpected_first] {
            if phase {
                for (lane, env) in &round.sends {
                    let arrived = matchers[*lane]
                        .arrive(*env, MsgHandle(next_msg))
                        .expect("software matcher is unbounded");
                    if let ArriveResult::Matched(recv) = arrived {
                        expected[recv.0 as usize] = next_msg as u32;
                    }
                    next_msg += 1;
                }
            } else {
                for pattern in &round.posts {
                    let posted = matchers[lane_of(pattern.comm)]
                        .post(*pattern, RecvHandle(next_post))
                        .expect("software matcher is unbounded");
                    if let PostResult::Matched(msg) = posted {
                        expected[next_post as usize] = msg.0 as u32;
                    }
                    next_post += 1;
                }
            }
        }
    }
    assert!(
        expected.iter().all(|&m| m != u32::MAX),
        "every generated receive is matched within its round"
    );
    expected
}

/// The id a completed payload carries, if it is long enough to carry one.
pub fn payload_id(data: &[u8]) -> Option<u64> {
    let id: [u8; ID_BYTES] = data.get(..ID_BYTES)?.try_into().ok()?;
    Some(u64::from_le_bytes(id))
}

/// How many of `done` are right: completed by the receive the oracle names
/// (`pairs` off for the RDMA-CPU ceiling, which matches nothing), once, with
/// the id, length and fill the sender wrote. `first_recv` is the handle of
/// the rep's first posted receive.
pub fn count_correct(
    stream: &Stream,
    first_recv: u64,
    done: &[CompletedReceive],
    pairs: bool,
) -> u64 {
    let mut seen = vec![false; stream.messages()];
    let mut ok = 0;
    for c in done {
        let Some(id) = payload_id(&c.data) else {
            continue;
        };
        let Some(slot) = seen.get_mut(id as usize) else {
            continue;
        };
        let paired = !pairs
            || c.recv
                .0
                .checked_sub(first_recv)
                .and_then(|i| stream.expected.get(i as usize))
                .is_some_and(|&want| u64::from(want) == id);
        if paired && !*slot && stream.payload_is(&c.data, id) {
            *slot = true;
            ok += 1;
        }
    }
    ok
}

/// Which matcher sits behind the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The offloaded engine behind its command queue, with the feedback
    /// controller attached: the stack as shipped.
    Otm,
    /// `MatchingService::mpi_cpu`: the paper's host-matching ceiling.
    MpiCpu,
    /// `MatchingService::rdma_cpu`: the paper's no-matching ceiling.
    RdmaCpu,
}

/// Everything a stream runs through, long-lived across reps.
pub struct Stack {
    pub svc: MatchingService,
    pub senders: Vec<ReliableSender>,
    pub domain: RdmaDomain,
}

/// A receive NIC terminating one queue pair per lane, and the peer ends.
pub fn receive_nic(stream: &Stream) -> (RecvNic, Vec<QueuePair>) {
    let pool = BouncePool::new(1024, EAGER_MAX);
    let (tx, rx) = connected_pair();
    let mut nic = RecvNic::new(rx, pool);
    let mut peers = vec![tx];
    for _ in 1..stream.spec.lanes {
        let (tx, rx) = connected_pair();
        nic.add_qp(rx);
        peers.push(tx);
    }
    (nic, peers)
}

impl Stack {
    pub fn build(stream: &Stream, backend: Backend) -> Result<Stack, String> {
        let (mut nic, peers) = receive_nic(stream);
        if let Some(plan) = &stream.faults {
            nic.set_faults(plan.clone());
        }
        let domain = RdmaDomain::new();
        let mut svc = match backend {
            Backend::Otm => {
                let engine = OtmEngine::new(MatchConfig::default()).map_err(|e| e.to_string())?;
                let mut svc = MatchingService::with_backend(nic, domain.clone(), Box::new(engine));
                svc.enable_command_queue().map_err(|e| e.to_string())?;
                svc
            }
            Backend::MpiCpu => MatchingService::mpi_cpu(nic, domain.clone()),
            Backend::RdmaCpu => MatchingService::rdma_cpu(nic, domain.clone()),
        };
        svc.attach_controller(FeedbackController::with_defaults());
        let senders = peers
            .into_iter()
            .map(|qp| {
                let mut s = ReliableSender::new(qp);
                s.attach_metrics(svc.metrics().clone());
                s
            })
            .collect();
        Ok(Stack {
            svc,
            senders,
            domain,
        })
    }

    /// Cumulative counters read through the layers' public accessors.
    pub fn counters(&self) -> Counters {
        let mut c = Counters::default();
        for s in &self.senders {
            let r = s.stats();
            c.add("sent", r.sent);
            c.add("retransmits", r.retransmits);
            c.add("fast_retransmits", r.fast_retransmits);
            c.add("acks_received", r.acks);
            c.add("backoff_polls", r.backoff_polls);
        }
        let nic = self.svc.nic();
        let wire = nic.wire_fault_stats().unwrap_or_default();
        c.add("wire_drops", wire.drops);
        c.add("wire_duplicates", wire.duplicates);
        c.add("wire_reorders", wire.reorders);
        let rx = nic.rx_stats();
        c.add("rx_duplicates", rx.duplicates);
        c.add("rx_gaps", rx.gaps);
        c.add("staged_out_of_order", rx.staged_out_of_order);
        c.add("stage_overflow", rx.stage_overflow);
        c.add("acks_sent", rx.acks_sent);
        c.add("gate_parked", rx.gate_parked);
        c.add("gate_released", rx.gate_released);
        c.add("polls", self.svc.polls());
        let snap = self.svc.observability_snapshot();
        for (key, name) in [
            ("fallbacks", "dpa_fallbacks_total"),
            ("ring_backpressure", "dpa_ring_backpressure_total"),
            ("drain_retries", "dpa_drain_retries_total"),
            ("knob_changes", "dpa_knob_changes_total"),
        ] {
            c.add(key, snap.counters.get(name).copied().unwrap_or(0));
        }
        if let Some(e) = self.svc.engine_stats() {
            c.add("blocks", e.blocks);
            c.add("block_messages", e.messages);
            c.add("block_unexpected", e.unexpected);
            c.add("path_nc", e.optimistic_ok);
            c.add("path_wc_fp", e.fast_path);
            c.add("path_wc_sp", e.slow_path);
            c.add("search_depth_sum", e.search_depth_sum);
            c.add("search_count", e.search_count);
            c.add("matched_on_post", e.matched_on_post);
            c.add("posted", e.posted);
            c.add("umq_depth_sum", e.umq_depth_sum);
            c.add("umq_search_count", e.umq_search_count);
        }
        c
    }
}

/// Named cumulative counts; `since` turns two readings into an interval.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters(BTreeMap<&'static str, u64>);

impl Counters {
    pub fn add(&mut self, key: &'static str, n: u64) {
        *self.0.entry(key).or_insert(0) += n;
    }

    pub fn get(&self, key: &str) -> u64 {
        self.0.get(key).copied().unwrap_or(0)
    }

    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(k, v)| (*k, v.saturating_sub(earlier.get(k))))
                .collect(),
        )
    }

    pub fn merge(&mut self, other: &Counters) {
        for (key, n) in &other.0 {
            self.add(key, *n);
        }
    }

    /// `num / den`, reading 0 when the denominator is 0.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        match self.get(den) {
            0 => 0.0,
            d => self.get(num) as f64 / d as f64,
        }
    }
}

/// What one rep produced.
pub struct RepOutcome {
    /// First post or send to last completion.
    pub elapsed: Duration,
    /// Handle of the rep's first posted receive.
    pub first_recv: u64,
    pub done: Vec<CompletedReceive>,
    pub progress_calls: u64,
    pub empty_progress: u64,
}

struct Rep<'a> {
    stack: &'a mut Stack,
    tracer: &'a mut Tracer,
    /// Send instant per message id; filled only while tracing.
    sent_at: Vec<Option<Instant>>,
    latencies_us: &'a mut Vec<f64>,
    first_recv: Option<u64>,
    done: Vec<CompletedReceive>,
    progress_calls: u64,
    empty_progress: u64,
    idle_pumps: u64,
}

impl Rep<'_> {
    /// One turn of the loop: progress the service, collect completions,
    /// poll every sender (ack intake, retransmit timers, window hint).
    fn pump(&mut self) -> Result<(), String> {
        let svc = &mut self.stack.svc;
        let completed = self
            .tracer
            .time(Call::Progress, || svc.progress())
            .map_err(|e| format!("service error: {e}"))?;
        self.progress_calls += 1;
        if completed == 0 {
            self.empty_progress += 1;
            self.idle_pumps += 1;
            if self.idle_pumps > STALL_PUMPS {
                return Err(format!("no completion in {STALL_PUMPS} polls"));
            }
        } else {
            self.idle_pumps = 0;
        }
        let batch = self
            .tracer
            .time(Call::TakeCompleted, || svc.take_completed());
        if self.tracer.enabled() && !batch.is_empty() {
            let now = Instant::now();
            for c in &batch {
                let sent = payload_id(&c.data).and_then(|id| *self.sent_at.get(id as usize)?);
                if let Some(sent) = sent {
                    self.latencies_us
                        .push(now.duration_since(sent).as_secs_f64() * 1e6);
                }
            }
        }
        self.done.extend(batch);
        let hint = svc.reliability_window_hint();
        let senders = &mut self.stack.senders;
        self.tracer
            .time(Call::SenderPoll, || {
                for s in senders.iter_mut() {
                    if let Some(h) = hint {
                        s.set_window_limit(h);
                    }
                    s.poll()?;
                }
                Ok(())
            })
            .map_err(|e: dpa_sim::ReliabilityError| format!("reliability error: {e}"))
    }

    fn post_all(&mut self, round: &Round) -> Result<(), String> {
        for pattern in &round.posts {
            let svc = &mut self.stack.svc;
            let handle = self
                .tracer
                .time(Call::Post, || {
                    let handle = svc.reserve_recv();
                    svc.post_recv_queued_reserved(*pattern, handle)
                        .map(|()| handle)
                })
                .map_err(|e| format!("service error: {e}"))?;
            self.first_recv.get_or_insert(handle.0);
        }
        Ok(())
    }

    fn run(&mut self, stream: &Stream) -> Result<Duration, String> {
        let start = Instant::now();
        self.tracer.begin_rep(start);
        let mut id = 0u64;
        for round in &stream.rounds {
            let target = self.done.len() + round.sends.len();
            if !stream.spec.unexpected_first {
                self.post_all(round)?;
            }
            for (lane, env) in &round.sends {
                while !self.stack.senders[*lane].can_send() {
                    self.pump()?;
                }
                let domain = &self.stack.domain;
                let packet = self
                    .tracer
                    .time(Call::PacketBuild, || stream.packet(domain, *env, id).0);
                if self.tracer.enabled() {
                    self.sent_at[id as usize] = Some(Instant::now());
                }
                let sender = &mut self.stack.senders[*lane];
                self.tracer
                    .time(Call::Send, || sender.send(packet))
                    .map_err(|e| format!("reliability error: {e}"))?;
                id += 1;
            }
            if stream.spec.unexpected_first {
                // An ack leaves the NIC in the same `progress` call that
                // hands the packet to the matcher, so a fully acked round
                // has been matched (as unexpected) before the first post.
                while self.stack.senders.iter().any(|s| s.unacked() > 0) {
                    self.pump()?;
                }
                self.post_all(round)?;
            }
            while self.done.len() < target {
                self.pump()?;
            }
        }
        let end = Instant::now();
        self.tracer.end_rep(end);
        // Outside the clock: let the last acks land so reps do not overlap.
        while self.stack.senders.iter().any(|s| s.unacked() > 0) {
            self.pump()?;
        }
        Ok(end.duration_since(start))
    }
}

/// Drives one rep of `stream` through `stack`. Completions are kept, not
/// inspected: the oracle comparison happens after the clock stops.
pub fn run_rep(
    stack: &mut Stack,
    stream: &Stream,
    tracer: &mut Tracer,
    latencies_us: &mut Vec<f64>,
) -> Result<RepOutcome, String> {
    let messages = stream.messages();
    let mut rep = Rep {
        stack,
        sent_at: if tracer.enabled() {
            vec![None; messages]
        } else {
            Vec::new()
        },
        tracer,
        latencies_us,
        first_recv: None,
        done: Vec::with_capacity(messages),
        progress_calls: 0,
        empty_progress: 0,
        idle_pumps: 0,
    };
    let elapsed = rep.run(stream)?;
    Ok(RepOutcome {
        elapsed,
        first_recv: rep.first_recv.unwrap_or(0),
        done: rep.done,
        progress_calls: rep.progress_calls,
        empty_progress: rep.empty_progress,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str) -> StreamSpec {
        *STREAMS.iter().find(|s| s.name == name).unwrap()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for s in STREAMS {
            let a = Stream::generate(s, 7, 2);
            assert_eq!(a, Stream::generate(s, 7, 2), "{}", s.name);
            assert_ne!(a, Stream::generate(s, 8, 2), "{}", s.name);
            assert_eq!(a.messages(), 2 * ROUND);
            assert_eq!(a.expected.len(), 2 * ROUND);
        }
    }

    #[test]
    fn conflict_rounds_match_in_posting_order() {
        let s = Stream::generate(spec("stream_wc"), 3, 1);
        let want: Vec<u32> = (0..ROUND as u32).collect();
        assert_eq!(s.expected, want);
    }

    #[test]
    fn a_clean_rep_is_all_correct_and_a_corrupted_one_is_not() {
        let stream = Stream::generate(spec("stream_nc"), 11, 2);
        let mut stack = Stack::build(&stream, Backend::Otm).unwrap();
        let mut tracer = Tracer::new(false);
        let mut rep = run_rep(&mut stack, &stream, &mut tracer, &mut Vec::new()).unwrap();
        let n = stream.messages() as u64;
        assert_eq!(count_correct(&stream, rep.first_recv, &rep.done, true), n);

        // A payload whose fill differs.
        let last = rep.done[0].data.len() - 1;
        rep.done[0].data[last] ^= 0xff;
        assert_eq!(
            count_correct(&stream, rep.first_recv, &rep.done, true),
            n - 1
        );
        rep.done[0].data[last] ^= 0xff;

        // Two receives that completed with each other's message.
        let (a, b) = (rep.done[0].recv, rep.done[1].recv);
        rep.done[0].recv = b;
        rep.done[1].recv = a;
        assert_eq!(
            count_correct(&stream, rep.first_recv, &rep.done, true),
            n - 2
        );

        // The same message delivered twice counts once.
        let dup = rep.done[2].clone();
        rep.done.push(dup);
        assert_eq!(
            count_correct(&stream, rep.first_recv, &rep.done, true),
            n - 2
        );
    }

    #[test]
    fn every_stream_shape_completes_on_every_backend() {
        for s in STREAMS {
            let stream = Stream::generate(s, 5, 1);
            for backend in [Backend::Otm, Backend::MpiCpu, Backend::RdmaCpu] {
                let mut stack = Stack::build(&stream, backend).unwrap();
                let mut tracer = Tracer::new(true);
                let mut lat = Vec::new();
                let rep = run_rep(&mut stack, &stream, &mut tracer, &mut lat).unwrap();
                let pairs = backend != Backend::RdmaCpu;
                assert_eq!(
                    count_correct(&stream, rep.first_recv, &rep.done, pairs),
                    ROUND as u64,
                    "{} on {backend:?}",
                    s.name
                );
                assert_eq!(lat.len(), ROUND);
            }
        }
    }
}
