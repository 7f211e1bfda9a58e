//! Sender-side reliability: sequence numbers, cumulative acks with SACK
//! blocks, and selective-repeat retransmission.
//!
//! The receive side ([`crate::nic::RecvNic`]) delivers sequenced packets
//! strictly in order, discards duplicates, stages out-of-order packets in
//! a bounded buffer, and returns cumulative acknowledgements that
//! advertise the staged runs as SACK blocks. [`ReliableSender`] is the
//! matching sender half: it stamps outgoing packets with consecutive
//! sequence numbers and keeps the unacknowledged window. SACKed packets
//! are never resent — holes below the highest SACKed sequence are
//! fast-retransmitted (at most once per timeout epoch) and a timeout
//! resends only the still-unSACKed packets (all of them when the receiver
//! could stage nothing and so SACKed nothing).
//!
//! The retransmit timer follows the smoothed round-trip estimate: packets
//! acknowledged without ever being retransmitted contribute RTT samples
//! (Karn's rule), the timeout is `srtt + 4·rttvar` (floored at the
//! configured base), doubles on each silent timeout, and — the decay half
//! of the schedule — snaps back to the estimate the moment an ack makes
//! progress, instead of staying pinned at the grown value. The unacked
//! window is sized adaptively (AIMD): it halves on timeout and reopens by
//! one on each ack that advances the cumulative edge, up to the
//! configured cap ([`ReliableSender::set_window_limit`]).
//!
//! Together the two halves guarantee the property the chaos oracle
//! checks: the receiver stages sequenced packets in exactly the order
//! they were sent, no matter what the faulty wire dropped, duplicated,
//! reordered or delayed. Message handles — and therefore every matching
//! outcome — are identical to a fault-free run.
//!
//! The window's copy of a packet's inline bytes lives in a buffer the sender
//! recycles, like a NIC send queue's pre-registered inline buffers: the ack
//! that retires a packet frees its buffer for a later `send`, which then
//! allocates nothing.
//!
//! Time is virtual: the "clock" is the number of [`ReliableSender::poll`]
//! calls, mirroring the NIC's poll-driven delivery clock, so tests are
//! deterministic and never sleep.

use crate::obs::ServiceMetrics;
use crate::rdma::{Ack, Frame, QueuePair, RdmaError, WirePacket};
use otm_metrics::{HistogramSnapshot, RegistrySnapshot};
use std::collections::VecDeque;

/// The label artifacts and bench reports carry in their `mode` key: there is
/// one protocol, and the key keeps new artifacts comparable with the
/// committed ones.
pub const PROTOCOL_LABEL: &str = "selective-repeat";

/// Default number of polls without progress before the first retransmit
/// (also the floor of the RTT-driven timeout).
pub const DEFAULT_TIMEOUT_POLLS: u64 = 8;

/// Default cap on consecutive retransmit attempts for one window.
pub const DEFAULT_MAX_RETRIES: u32 = 16;

/// Default ceiling on packets in flight (the adaptive window's cap).
pub const DEFAULT_WINDOW_LIMIT: usize = 64;

/// The adaptive window never shrinks below this many packets.
pub const MIN_WINDOW_LIMIT: usize = 4;

/// Ceiling on the exponentially growing timeout, in polls.
const MAX_TIMEOUT_POLLS: u64 = 1 << 20;

/// Why a [`ReliableSender`] gave up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReliabilityError {
    /// The transport failed outright.
    Rdma(RdmaError),
    /// The retry budget was exhausted: the window was retransmitted
    /// `retries` times without the cumulative ack advancing.
    BudgetExhausted {
        /// Retransmit attempts performed.
        retries: u32,
        /// Packets still unacknowledged.
        unacked: usize,
    },
}

impl std::fmt::Display for ReliabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReliabilityError::Rdma(e) => write!(f, "transport: {e}"),
            ReliabilityError::BudgetExhausted { retries, unacked } => write!(
                f,
                "retry budget exhausted after {retries} retransmits with {unacked} packets unacked"
            ),
        }
    }
}

impl std::error::Error for ReliabilityError {}

/// Counters of what the reliability protocol did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReliabilityStats {
    /// Data packets sent for the first time.
    pub sent: u64,
    /// Packets retransmitted (timeout resends and fast retransmits).
    pub retransmits: u64,
    /// Resend events — timeouts or fast-retransmit bursts, each of which
    /// may retransmit several packets.
    pub resend_events: u64,
    /// Packets fast-retransmitted because a SACK exposed them as holes
    /// (a subset of `retransmits`).
    pub fast_retransmits: u64,
    /// Cumulative acknowledgements consumed.
    pub acks: u64,
    /// Polls that ended waiting on unacknowledged packets without sending
    /// a fast retransmit: every tick of the retransmit timer, whether or
    /// not an ack moved the window in the same poll. Not the backoff
    /// lengths: those are the `dpa_backoff_polls` histogram, one sample
    /// per timeout that fired.
    pub backoff_polls: u64,
    /// RTT samples folded into the smoothed estimate (Karn-filtered:
    /// only packets acknowledged without ever being retransmitted).
    pub rtt_samples: u64,
}

/// One unacknowledged packet in flight.
#[derive(Debug)]
struct Inflight {
    seq: u64,
    packet: WirePacket,
    /// Covered by a SACK block: the receiver holds it, never resend.
    sacked: bool,
    /// Already fast-retransmitted in the current timeout epoch.
    fast_retx: bool,
    /// Times this packet was retransmitted (0 = only the original send).
    retx: u32,
    /// Virtual-time clock value of the last transmission.
    sent_at: u64,
}

/// The sender half of the reliability protocol.
///
/// Wraps one [`QueuePair`] endpoint. Application packets go out through
/// [`ReliableSender::send`], which stamps them with the next sequence
/// number and keeps a copy in the unacked window ([`ReliableSender::can_send`]
/// tells the caller when the adaptive window has room).
/// [`ReliableSender::poll`] consumes incoming acks, returns any non-ack
/// packets to the caller (the reverse direction may carry application
/// traffic, as the ping-pong harness does), and drives the retransmit
/// timer.
#[derive(Debug)]
pub struct ReliableSender {
    qp: QueuePair,
    /// What `poll` took off the wire at once; empty between polls.
    inbox: VecDeque<Frame>,
    next_seq: u64,
    /// Every sequenced packet `< cumulative` ack received so far.
    acked: u64,
    window: VecDeque<Inflight>,
    /// Inline buffers of retired window entries, at most `window_cap`.
    spare: Vec<Vec<u8>>,
    /// Virtual time: the number of `poll` calls so far.
    clock: u64,
    timeout_polls: u64,
    base_timeout: u64,
    /// Smoothed RTT estimate in polls (None until the first sample).
    srtt: Option<u64>,
    /// Smoothed RTT variance in polls.
    rttvar: u64,
    polls_since_progress: u64,
    retries: u32,
    max_retries: u32,
    /// Configured ceiling on packets in flight.
    window_cap: usize,
    /// Adaptive in-flight limit (AIMD, at most `window_cap`).
    cwnd: usize,
    stats: ReliabilityStats,
    /// The length of each timeout that fired, in polls (`dpa_backoff_polls`).
    timeouts: HistogramSnapshot,
    /// Lifecycle spans of the retransmitted packets.
    #[cfg(feature = "trace-events")]
    spans: otm_metrics::SpanRecorder,
}

impl ReliableSender {
    /// Wraps `qp` with the default timeout and retry budget.
    pub fn new(qp: QueuePair) -> Self {
        Self::with_limits(qp, DEFAULT_TIMEOUT_POLLS, DEFAULT_MAX_RETRIES)
    }

    /// Wraps `qp` with an explicit base timeout (polls before the first
    /// retransmit; also the RTT-driven timeout's floor) and retry budget.
    pub fn with_limits(qp: QueuePair, timeout_polls: u64, max_retries: u32) -> Self {
        let timeout_polls = timeout_polls.max(1);
        ReliableSender {
            qp,
            inbox: VecDeque::new(),
            next_seq: 0,
            acked: 0,
            window: VecDeque::new(),
            spare: Vec::new(),
            clock: 0,
            timeout_polls,
            base_timeout: timeout_polls,
            srtt: None,
            rttvar: 0,
            polls_since_progress: 0,
            retries: 0,
            max_retries,
            window_cap: DEFAULT_WINDOW_LIMIT,
            cwnd: DEFAULT_WINDOW_LIMIT,
            stats: ReliabilityStats::default(),
            timeouts: HistogramSnapshot::empty(),
            #[cfg(feature = "trace-events")]
            spans: otm_metrics::SpanRecorder::new(crate::obs::SPAN_CAPACITY),
        }
    }

    /// Re-arms the sender for a new peer on the same link: it reads as it
    /// did when built, with its limits. Frames still on the link are
    /// discarded; sequence numbers, the clock, the RTT estimate and timeout,
    /// the retry count, the adaptive window, the counters, the timeout
    /// histogram and the span ring start over. The window's and the free
    /// list's buffers stay, so the next sends allocate nothing.
    pub(crate) fn rearm(&mut self) {
        self.inbox.clear();
        // A peer that is gone cannot have acked anything either.
        let _ = self.qp.recv_all(&mut self.inbox);
        self.inbox.clear();
        for e in self.window.drain(..) {
            if self.spare.len() < DEFAULT_WINDOW_LIMIT {
                self.spare.push(e.packet.inline);
            }
        }
        self.next_seq = 0;
        self.acked = 0;
        self.clock = 0;
        self.timeout_polls = self.base_timeout;
        self.srtt = None;
        self.rttvar = 0;
        self.polls_since_progress = 0;
        self.retries = 0;
        self.window_cap = DEFAULT_WINDOW_LIMIT;
        self.cwnd = DEFAULT_WINDOW_LIMIT;
        self.stats = ReliabilityStats::default();
        self.timeouts.reset();
        #[cfg(feature = "trace-events")]
        self.spans.reset();
    }

    /// Does nothing: the sender counts in its own fields, read by
    /// [`ReliableSender::observability_snapshot`]. The benchmark package
    /// still calls it with [`crate::MatchingService::metrics`]; it goes
    /// with [`crate::MatchingService::enable_command_queue`] (ROADMAP
    /// item 1).
    pub fn attach_metrics(&mut self, _: ServiceMetrics) {}

    /// The sender's registry snapshot: acks consumed
    /// (`dpa_acks_total`) and packets retransmitted
    /// (`dpa_retransmits_total`) from its [`ReliabilityStats`], the length
    /// of each timeout that fired (`dpa_backoff_polls`), and with
    /// `trace-events` its span ring's drop count (`dpa_span_dropped_total`).
    /// The service's snapshot lists neither counter; merged into it, the
    /// timeouts join the service's drain-retry backoffs in
    /// `dpa_backoff_polls`.
    pub fn observability_snapshot(&self) -> RegistrySnapshot {
        let mut snap = RegistrySnapshot::default();
        for (name, n) in [
            ("dpa_acks_total", self.stats.acks),
            ("dpa_retransmits_total", self.stats.retransmits),
            #[cfg(feature = "trace-events")]
            ("dpa_span_dropped_total", self.spans.dropped()),
        ] {
            snap.counters.insert(name.to_string(), n);
        }
        snap.hists
            .insert("dpa_backoff_polls".to_string(), self.timeouts.clone());
        snap
    }

    /// The span ring of the retransmitted packets.
    #[cfg(feature = "trace-events")]
    pub fn span_recorder(&self) -> &otm_metrics::SpanRecorder {
        &self.spans
    }

    /// Sends one packet reliably: stamps it with the next sequence number,
    /// copies it into the unacked window (the inline bytes into a recycled
    /// buffer), transmits. The caller is expected to gate on
    /// [`ReliableSender::can_send`]; sending past the adaptive window is
    /// allowed but forfeits its loss-avoidance.
    pub fn send(&mut self, packet: WirePacket) -> Result<(), ReliabilityError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let packet = packet.with_seq(seq);
        let mut inline = self.spare.pop().unwrap_or_default();
        inline.clear();
        inline.extend_from_slice(&packet.inline);
        self.window.push_back(Inflight {
            seq,
            packet: WirePacket { inline, ..packet },
            sacked: false,
            fast_retx: false,
            retx: 0,
            sent_at: self.clock,
        });
        self.stats.sent += 1;
        self.qp.send(packet).map_err(ReliabilityError::Rdma)
    }

    /// Whether the adaptive window has room for another `send`.
    pub fn can_send(&self) -> bool {
        self.window.len() < self.cwnd
    }

    /// The current adaptive in-flight limit.
    pub fn window_limit(&self) -> usize {
        self.cwnd
    }

    /// Sets the ceiling on packets in flight. The adaptive limit is clamped
    /// into the new cap and can reopen up to it.
    pub fn set_window_limit(&mut self, cap: usize) {
        let cap = cap.max(MIN_WINDOW_LIMIT);
        self.window_cap = cap;
        self.cwnd = self.cwnd.min(cap);
        self.spare.truncate(cap);
    }

    /// The smoothed RTT estimate in polls, once a sample exists.
    pub fn srtt_polls(&self) -> Option<u64> {
        self.srtt
    }

    /// The configured base timeout (the RTT-driven timeout's floor).
    pub fn base_timeout(&self) -> u64 {
        self.base_timeout
    }

    /// The current retransmit timeout in polls (diagnostics; regression
    /// tests assert the post-recovery decay).
    pub fn current_timeout_polls(&self) -> u64 {
        self.timeout_polls
    }

    /// Folds one Karn-eligible RTT sample into the smoothed estimate.
    fn observe_rtt(&mut self, sample: u64) {
        let sample = sample.max(1);
        self.stats.rtt_samples += 1;
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = (sample / 2).max(1);
            }
            Some(srtt) => {
                self.rttvar = (3 * self.rttvar + srtt.abs_diff(sample)) / 4;
                self.srtt = Some((7 * srtt + sample) / 8);
            }
        }
    }

    /// The RTT-driven retransmit timeout: `srtt + 4·rttvar`, floored at
    /// the configured base and capped at the backoff ceiling. Before any
    /// sample exists this is just the base timeout.
    fn rto(&self) -> u64 {
        match self.srtt {
            None => self.base_timeout,
            Some(srtt) => {
                (srtt + (4 * self.rttvar).max(1)).clamp(self.base_timeout, MAX_TIMEOUT_POLLS)
            }
        }
    }

    /// Drives the protocol one step: consumes acks (cumulative edge +
    /// SACK blocks), fast-retransmits exposed holes, and retransmits on
    /// timeout. Returns any non-ack packets that arrived on the reverse
    /// direction — they belong to the application.
    pub fn poll(&mut self) -> Result<Vec<WirePacket>, ReliabilityError> {
        self.clock += 1;
        let mut app_packets = Vec::new();
        let mut progressed = false;
        loop {
            if self.inbox.is_empty() {
                let arrived = self.qp.recv_all(&mut self.inbox);
                arrived.map_err(ReliabilityError::Rdma)?;
            }
            match self.inbox.pop_front() {
                None => break,
                Some(Frame::Data(packet)) => app_packets.push(packet),
                Some(Frame::Ack(Ack { cumulative, sack })) => {
                    self.stats.acks += 1;
                    if cumulative > self.acked {
                        self.acked = cumulative;
                        while self.window.front().is_some_and(|e| e.seq < cumulative) {
                            let e = self.window.pop_front().expect("front checked");
                            // Karn's rule: only never-retransmitted
                            // packets yield unambiguous RTT samples.
                            if e.retx == 0 {
                                let sample = self.clock.saturating_sub(e.sent_at);
                                self.observe_rtt(sample);
                            }
                            if self.spare.len() < self.window_cap {
                                self.spare.push(e.packet.inline);
                            }
                        }
                        progressed = true;
                    }
                    if !sack.is_empty() {
                        // The window steps aside so the estimator can be
                        // fed while it is walked.
                        let mut window = std::mem::take(&mut self.window);
                        for e in &mut window {
                            if !e.sacked && sack.contains(e.seq) {
                                e.sacked = true;
                                // Freshly-SACKed never-retransmitted
                                // packets are Karn-eligible too.
                                if e.retx == 0 {
                                    self.observe_rtt(self.clock.saturating_sub(e.sent_at));
                                }
                            }
                        }
                        self.window = window;
                    }
                }
            }
        }
        if progressed {
            // Progress: the backoff schedule decays back to the smoothed
            // estimate instead of staying pinned at the grown timeout,
            // and the adaptive window reopens by one.
            self.polls_since_progress = 0;
            self.retries = 0;
            self.timeout_polls = self.rto();
            self.cwnd = (self.cwnd + 1).min(self.window_cap);
        }
        if self.window.is_empty() {
            self.polls_since_progress = 0;
            return Ok(app_packets);
        }
        // Fast retransmit: a SACKed packet above an unSACKed one is
        // evidence the hole was lost, not delayed — resend it now, at most
        // once per timeout epoch.
        let highest_sacked = self.window.iter().filter(|e| e.sacked).map(|e| e.seq).max();
        if let Some(h) = highest_sacked {
            let mut resent = 0u64;
            let clock = self.clock;
            for e in &mut self.window {
                if e.seq >= h {
                    break;
                }
                if e.sacked || e.fast_retx {
                    continue;
                }
                self.qp
                    .send(e.packet.clone())
                    .map_err(ReliabilityError::Rdma)?;
                e.fast_retx = true;
                e.retx += 1;
                e.sent_at = clock;
                resent += 1;
                #[cfg(feature = "trace-events")]
                self.spans.push(
                    e.seq,
                    otm_metrics::SpanKind::Retransmitted { attempt: e.retx },
                );
            }
            if resent > 0 {
                self.stats.retransmits += resent;
                self.stats.fast_retransmits += resent;
                self.stats.resend_events += 1;
                // Give the retransmit a full timeout to land before
                // escalating to a blanket resend.
                self.polls_since_progress = 0;
                return Ok(app_packets);
            }
        }
        self.polls_since_progress += 1;
        self.stats.backoff_polls += 1;
        if self.polls_since_progress >= self.timeout_polls {
            if self.retries >= self.max_retries {
                return Err(ReliabilityError::BudgetExhausted {
                    retries: self.retries,
                    unacked: self.window.len(),
                });
            }
            // Timeout resend of the unSACKed packets only. The timeout
            // doubles for the next attempt and the adaptive window halves.
            let mut resent = 0u64;
            let clock = self.clock;
            for e in &mut self.window {
                if e.sacked {
                    continue;
                }
                self.qp
                    .send(e.packet.clone())
                    .map_err(ReliabilityError::Rdma)?;
                e.retx += 1;
                e.sent_at = clock;
                // The timeout resend supersedes fast retransmit: the
                // standing SACK evidence has already been acted on twice,
                // so further recovery is the backoff schedule's job.
                e.fast_retx = true;
                resent += 1;
                #[cfg(feature = "trace-events")]
                self.spans.push(
                    e.seq,
                    otm_metrics::SpanKind::Retransmitted { attempt: e.retx },
                );
            }
            self.stats.retransmits += resent;
            self.stats.resend_events += 1;
            self.timeouts.record(self.timeout_polls);
            self.retries += 1;
            self.polls_since_progress = 0;
            self.timeout_polls = (self.timeout_polls * 2).min(MAX_TIMEOUT_POLLS);
            self.cwnd = (self.cwnd / 2).max(MIN_WINDOW_LIMIT);
        }
        Ok(app_packets)
    }

    /// Polls until every sent packet is acknowledged or the retry budget
    /// runs out. `max_polls` bounds the loop for safety.
    pub fn flush(&mut self, max_polls: u64) -> Result<(), ReliabilityError> {
        for _ in 0..max_polls {
            if self.window.is_empty() {
                return Ok(());
            }
            self.poll()?;
        }
        if self.window.is_empty() {
            Ok(())
        } else {
            Err(ReliabilityError::BudgetExhausted {
                retries: self.retries,
                unacked: self.window.len(),
            })
        }
    }

    /// Packets sent but not yet cumulatively acknowledged (SACKed packets
    /// still count until the cumulative edge passes them).
    pub fn unacked(&self) -> usize {
        self.window.len()
    }

    /// The next sequence number to be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Protocol counters.
    pub fn stats(&self) -> ReliabilityStats {
        self.stats
    }

    /// The wrapped endpoint (e.g. for sending unsequenced control
    /// traffic that bypasses the reliability protocol).
    pub fn qp(&self) -> &QueuePair {
        &self.qp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdma::{connected_pair, eager_packet, SackBlocks};
    use otm_base::{Envelope, Rank, Tag};

    fn env(tag: u32) -> Envelope {
        Envelope::world(Rank(0), Tag(tag))
    }

    fn sack(blocks: &[(u64, u64)]) -> SackBlocks {
        let mut s = SackBlocks::empty();
        for &(start, end) in blocks {
            assert!(s.push(start, end));
        }
        s
    }

    /// Drains and returns the sequence numbers currently on the wire.
    fn drain_seqs(qp: &QueuePair) -> Vec<u64> {
        let mut seqs = Vec::new();
        while let Some(frame) = qp.try_recv().unwrap() {
            let Frame::Data(packet) = frame else {
                panic!("expected a data packet, got {frame:?}");
            };
            seqs.push(packet.seq.expect("sequenced"));
        }
        seqs
    }

    #[test]
    fn observability_snapshot_names_are_stable() {
        // The sender is the one owner of the ack and retransmit counts: the
        // service's snapshot does not list them.
        let (a, _b) = connected_pair();
        let snap = ReliableSender::new(a).observability_snapshot();
        let counters: Vec<&str> = snap.counters.keys().map(String::as_str).collect();
        let mut expected = vec!["dpa_acks_total", "dpa_retransmits_total"];
        if cfg!(feature = "trace-events") {
            expected.push("dpa_span_dropped_total");
        }
        assert_eq!(counters, expected);
        assert!(snap.gauges.is_empty());
        let hists: Vec<&str> = snap.hists.keys().map(String::as_str).collect();
        assert_eq!(hists, ["dpa_backoff_polls"]);
    }

    #[test]
    fn send_stamps_consecutive_sequence_numbers() {
        let (a, b) = connected_pair();
        let mut s = ReliableSender::new(a);
        s.send(eager_packet(env(0), vec![])).unwrap();
        s.send(eager_packet(env(1), vec![])).unwrap();
        assert_eq!(drain_seqs(&b), vec![0, 1]);
        assert_eq!(s.unacked(), 2);
    }

    #[test]
    fn cumulative_ack_advances_the_window() {
        let (a, b) = connected_pair();
        let mut s = ReliableSender::new(a);
        for i in 0..4 {
            s.send(eager_packet(env(i), vec![])).unwrap();
        }
        b.send_ack(3, SackBlocks::empty()).unwrap();
        s.poll().unwrap();
        assert_eq!(s.unacked(), 1, "seqs 0..3 acked, seq 3 still out");
        b.send_ack(4, SackBlocks::empty()).unwrap();
        s.poll().unwrap();
        assert_eq!(s.unacked(), 0);
        assert_eq!(s.stats().acks, 2);
    }

    #[test]
    fn timeout_triggers_a_full_window_resend() {
        let (a, b) = connected_pair();
        let mut s = ReliableSender::with_limits(a, 2, 4);
        s.send(eager_packet(env(0), vec![])).unwrap();
        s.send(eager_packet(env(1), vec![])).unwrap();
        // Drain the original transmissions; the receiver stays silent.
        assert!(b.try_recv().unwrap().is_some());
        assert!(b.try_recv().unwrap().is_some());
        s.poll().unwrap();
        s.poll().unwrap(); // second silent poll hits the timeout
        assert_eq!(s.stats().resend_events, 1);
        assert_eq!(s.stats().retransmits, 2, "nothing SACKed: full resend");
        assert_eq!(drain_seqs(&b), vec![0, 1]);
    }

    #[test]
    fn backoff_doubles_between_resends_and_resets_on_progress() {
        let (a, b) = connected_pair();
        let mut s = ReliableSender::with_limits(a, 1, 8);
        s.send(eager_packet(env(0), vec![])).unwrap();
        s.poll().unwrap(); // timeout 1 → resend, timeout now 2
        s.poll().unwrap(); // 1 of 2
        assert_eq!(s.stats().resend_events, 1, "second resend not yet due");
        s.poll().unwrap(); // 2 of 2 → resend, timeout now 4
        assert_eq!(s.stats().resend_events, 2);
        b.send_ack(1, SackBlocks::empty()).unwrap();
        s.poll().unwrap();
        assert_eq!(s.unacked(), 0);
        // Progress reset the schedule: a new packet gets the base timeout.
        s.send(eager_packet(env(1), vec![])).unwrap();
        s.poll().unwrap();
        assert_eq!(s.stats().resend_events, 3, "base timeout again after reset");
    }

    #[test]
    fn sacked_packets_are_never_resent_and_holes_go_fast() {
        let (a, b) = connected_pair();
        let mut s = ReliableSender::with_limits(a, 4, 8);
        for i in 0..3 {
            s.send(eager_packet(env(i), vec![])).unwrap();
        }
        assert_eq!(drain_seqs(&b), vec![0, 1, 2]);
        // The receiver holds 1 and 2, the hole is 0.
        b.send_ack(0, sack(&[(1, 3)])).unwrap();
        s.poll().unwrap();
        assert_eq!(drain_seqs(&b), vec![0], "only the hole is retransmitted");
        let st = s.stats();
        assert_eq!(st.fast_retransmits, 1);
        assert_eq!(st.retransmits, 1);
        assert_eq!(st.resend_events, 1);
        // The retransmit lands; the cumulative edge releases everything.
        b.send_ack(3, SackBlocks::empty()).unwrap();
        s.poll().unwrap();
        assert_eq!(s.unacked(), 0);
    }

    #[test]
    fn fast_retransmit_fires_once_per_timeout_epoch() {
        let (a, b) = connected_pair();
        let mut s = ReliableSender::with_limits(a, 3, 8);
        for i in 0..2 {
            s.send(eager_packet(env(i), vec![])).unwrap();
        }
        drain_seqs(&b);
        b.send_ack(0, sack(&[(1, 2)])).unwrap();
        s.poll().unwrap();
        assert_eq!(drain_seqs(&b), vec![0], "hole fast-retransmitted");
        // Duplicate SACKs must not trigger another fast retransmit.
        b.send_ack(0, sack(&[(1, 2)])).unwrap();
        s.poll().unwrap();
        assert_eq!(drain_seqs(&b), vec![], "same epoch: no second fast retx");
        // The timeout epoch rolls over: the still-missing hole is resent
        // (selectively — the SACKed packet stays out of it), and the
        // standing SACK evidence does not re-trigger a fast retransmit
        // behind the timeout resend.
        s.poll().unwrap();
        s.poll().unwrap();
        s.poll().unwrap();
        assert_eq!(drain_seqs(&b), vec![0], "timeout resends only the hole");
        s.poll().unwrap();
        assert_eq!(drain_seqs(&b), vec![], "no fast retx echo after timeout");
        assert_eq!(s.stats().retransmits, 2);
        assert_eq!(s.stats().fast_retransmits, 1);
    }

    #[test]
    fn timeout_decays_to_the_rtt_estimate_after_recovery() {
        // Satellite regression: burst-drop grows the timeout; once the
        // wire turns clean, the next ack snaps it back to the smoothed
        // estimate instead of leaving it pinned at the doubled value.
        let (a, b) = connected_pair();
        let mut s = ReliableSender::with_limits(a, 2, 30);
        // Clean exchange: establish a ~1-poll RTT sample.
        s.send(eager_packet(env(0), vec![])).unwrap();
        b.send_ack(1, SackBlocks::empty()).unwrap();
        s.poll().unwrap();
        assert_eq!(s.unacked(), 0);
        assert!(s.srtt_polls().is_some(), "clean ack produced a sample");
        // Burst loss: silence doubles the timeout repeatedly.
        s.send(eager_packet(env(1), vec![])).unwrap();
        for _ in 0..14 {
            s.poll().unwrap();
        }
        let grown = s.current_timeout_polls();
        assert!(grown >= 8, "backoff must have grown (got {grown})");
        // The wire recovers: one ack and the timeout decays.
        b.send_ack(2, SackBlocks::empty()).unwrap();
        s.poll().unwrap();
        let decayed = s.current_timeout_polls();
        assert!(
            decayed < grown,
            "timeout must decay after progress ({decayed} !< {grown})"
        );
        assert!(
            decayed <= s.srtt_polls().unwrap() * 4 + s.base_timeout(),
            "decayed timeout tracks the RTT estimate, not the backoff"
        );
    }

    #[test]
    fn adaptive_window_halves_on_timeout_and_reopens_on_progress() {
        let (a, b) = connected_pair();
        // Base timeout of 4 so a progress poll is never also a timeout
        // poll (with a 1-poll timeout the two races obscure the window
        // dynamics under test).
        let mut s = ReliableSender::with_limits(a, 4, 30);
        s.set_window_limit(8);
        assert_eq!(s.window_limit(), 8);
        for i in 0..8 {
            s.send(eager_packet(env(i), vec![])).unwrap();
        }
        assert!(!s.can_send(), "window full");
        for _ in 0..4 {
            s.poll().unwrap(); // silence → timeout → multiplicative decrease
        }
        assert_eq!(s.window_limit(), 4);
        // Each cumulative advance reopens the window additively.
        for k in 1..=4u64 {
            b.send_ack(2 * k, SackBlocks::empty()).unwrap();
            s.poll().unwrap();
        }
        assert_eq!(s.unacked(), 0);
        assert_eq!(s.window_limit(), 8, "reopened up to the cap");
        assert!(s.can_send());
    }

    #[test]
    fn a_recycled_buffer_carries_only_the_bytes_of_its_own_packet() {
        let (a, b) = connected_pair();
        let mut s = ReliableSender::with_limits(a, 1, 8);
        s.send(eager_packet(env(0), vec![7; 100])).unwrap();
        assert_eq!(drain_seqs(&b), vec![0]);
        b.send_ack(1, SackBlocks::empty()).unwrap();
        s.poll().unwrap();
        assert_eq!(
            s.spare.len(),
            1,
            "the ack retired seq 0 and freed its buffer"
        );
        // The short packet's window copy goes into the long one's buffer.
        s.send(eager_packet(env(1), vec![1, 2, 3])).unwrap();
        assert!(s.spare.is_empty());
        assert_eq!(drain_seqs(&b), vec![1]);
        // Silence until the RTT-driven timeout resends the window.
        let resent = (0..16).find_map(|_| {
            s.poll().unwrap();
            b.try_recv().unwrap()
        });
        let copy = eager_packet(env(1), vec![1, 2, 3]).with_seq(1);
        assert_eq!(resent, Some(Frame::Data(copy)));
    }

    /// Sends, loses, SACKs and acks a few packets; returns every sequence
    /// number the sender put on the wire, step by step.
    fn scripted_exchange(s: &mut ReliableSender, b: &QueuePair) -> Vec<Vec<u64>> {
        let mut wire = Vec::new();
        for i in 0..4 {
            s.send(eager_packet(env(i), vec![i as u8; 8])).unwrap();
        }
        wire.push(drain_seqs(b));
        b.send_ack(1, sack(&[(2, 4)])).unwrap();
        for _ in 0..12 {
            s.poll().unwrap();
            wire.push(drain_seqs(b));
        }
        b.send_ack(4, SackBlocks::empty()).unwrap();
        s.poll().unwrap();
        s.send(eager_packet(env(9), vec![9])).unwrap();
        wire.push(drain_seqs(b));
        wire
    }

    #[test]
    fn a_rearmed_sender_behaves_like_a_new_one() {
        let (a, b) = connected_pair();
        let mut fresh = ReliableSender::with_limits(a, 2, 8);
        let want = scripted_exchange(&mut fresh, &b);
        // A history to forget: a shrunk window, timeouts, an RTT estimate,
        // packets never acked, and an ack left on the link.
        let (a, b) = connected_pair();
        let mut s = ReliableSender::with_limits(a, 2, 8);
        s.set_window_limit(4);
        for i in 0..6 {
            s.send(eager_packet(env(i), vec![1; 32])).unwrap();
        }
        b.send_ack(2, SackBlocks::empty()).unwrap();
        for _ in 0..5 {
            s.poll().unwrap();
        }
        b.send_ack(3, SackBlocks::empty()).unwrap();
        drain_seqs(&b);
        s.rearm();
        assert_eq!(
            (s.unacked(), s.next_seq(), s.window_limit()),
            (0, 0, DEFAULT_WINDOW_LIMIT)
        );
        assert_eq!(s.spare.len(), 6, "acked or not, every window copy is kept");
        assert_eq!(scripted_exchange(&mut s, &b), want);
        assert_eq!(s.stats(), fresh.stats());
        assert_eq!(
            (s.srtt_polls(), s.current_timeout_polls(), s.window_limit()),
            (
                fresh.srtt_polls(),
                fresh.current_timeout_polls(),
                fresh.window_limit()
            )
        );
    }

    #[test]
    fn the_free_list_stays_within_the_window_cap() {
        let (a, b) = connected_pair();
        let mut s = ReliableSender::new(a);
        let mut acked = 0;
        let mut round = |s: &mut ReliableSender, n: u64| {
            for i in 0..n {
                s.send(eager_packet(env(i as u32), vec![i as u8; 8]))
                    .unwrap();
            }
            acked += n;
            b.send_ack(acked, SackBlocks::empty()).unwrap();
            s.poll().unwrap();
            assert_eq!(s.unacked(), 0);
            drain_seqs(&b);
        };
        // Sending past the window is allowed; keeping its buffers is not.
        round(&mut s, DEFAULT_WINDOW_LIMIT as u64 + 10);
        assert_eq!(s.spare.len(), DEFAULT_WINDOW_LIMIT);
        s.set_window_limit(8);
        assert_eq!(s.spare.len(), 8, "a shrunk cap sheds the surplus");
        round(&mut s, 20);
        assert_eq!(s.spare.len(), 8);
    }

    /// The payload of the `i`-th message of the lossy-wire test: a function
    /// of `i` alone, of a length that differs from its neighbours'.
    fn payload_of(i: u32) -> Vec<u8> {
        vec![i as u8; 1 + (i as usize * 37) % 90]
    }

    #[test]
    fn retransmits_over_a_lossy_wire_carry_their_own_bytes_from_recycled_buffers() {
        use crate::bounce::BouncePool;
        use crate::nic::RecvNic;
        use otm_base::FaultPlan;
        let (a, b) = connected_pair();
        let mut nic = RecvNic::new(b, BouncePool::new(128, 128));
        // The ladder's `stream_lossy_rdv` wire at seed 1.
        nic.set_faults(
            FaultPlan::new(1 ^ 0xa99)
                .with_drop_permille(100)
                .with_duplicate_permille(80)
                .with_reorder_permille(80)
                .with_reorder_window(4),
        );
        let mut s = ReliableSender::with_limits(a, 4, 32);
        let n = 600u32;
        let (mut sent, mut delivered, mut recycled) = (0u32, 0u32, 0u32);
        for _ in 0..100_000 {
            while sent < n && s.can_send() {
                recycled += u32::from(!s.spare.is_empty());
                s.send(eager_packet(env(sent), payload_of(sent))).unwrap();
                sent += 1;
            }
            s.poll().expect("sender within budget");
            nic.poll().unwrap();
            for c in nic.take_block(64) {
                // Whichever copy filled the slot — the original, a fast
                // retransmit or a timeout resend — it is this message's.
                assert_eq!(nic.take_staged(c.bounce), payload_of(delivered));
                delivered += 1;
            }
            if delivered == n && s.unacked() == 0 {
                break;
            }
        }
        assert_eq!((sent, delivered, s.unacked()), (n, n, 0));
        assert!(recycled > n / 2, "{recycled} sends reused a freed buffer");
        // Recorded at af273cd, where the window cloned every packet: the
        // buffers change no protocol decision.
        assert_eq!(format!("{:?}", s.stats()), LOSSY_WIRE_STATS);
    }

    const LOSSY_WIRE_STATS: &str = "ReliabilityStats { sent: 600, retransmits: 107, \
        resend_events: 48, fast_retransmits: 96, acks: 75, backoff_polls: 70, rtt_samples: 907 }";

    #[cfg(feature = "trace-events")]
    #[test]
    fn resends_stamp_retransmitted_spans_per_packet() {
        let (a, b) = connected_pair();
        let mut s = ReliableSender::with_limits(a, 1, 8);
        s.send(eager_packet(env(0), vec![])).unwrap();
        s.send(eager_packet(env(1), vec![])).unwrap();
        assert!(b.try_recv().unwrap().is_some());
        assert!(b.try_recv().unwrap().is_some());
        s.poll().unwrap(); // timeout → first resend of the 2-packet window
        s.poll().unwrap();
        s.poll().unwrap(); // doubled timeout elapses → second resend
        let spans = s.span_recorder().dump();
        use otm_metrics::SpanKind;
        let stamped: Vec<(u64, SpanKind)> = spans.iter().map(|s| (s.subject, s.kind)).collect();
        assert_eq!(
            stamped,
            vec![
                (0, SpanKind::Retransmitted { attempt: 1 }),
                (1, SpanKind::Retransmitted { attempt: 1 }),
                (0, SpanKind::Retransmitted { attempt: 2 }),
                (1, SpanKind::Retransmitted { attempt: 2 }),
            ],
            "one span per resent packet, attempt index per window resend"
        );
        assert_eq!(s.span_recorder().dropped(), 0);
    }

    #[test]
    fn retry_budget_exhaustion_is_reported() {
        let (a, _b) = connected_pair();
        let mut s = ReliableSender::with_limits(a, 1, 2);
        s.send(eager_packet(env(0), vec![])).unwrap();
        let mut err = None;
        for _ in 0..10 {
            if let Err(e) = s.poll() {
                err = Some(e);
                break;
            }
        }
        match err.expect("budget must run out") {
            ReliabilityError::BudgetExhausted { retries, unacked } => {
                assert_eq!(retries, 2);
                assert_eq!(unacked, 1);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn non_ack_reverse_traffic_is_handed_back_to_the_caller() {
        let (a, b) = connected_pair();
        let mut s = ReliableSender::new(a);
        b.send(eager_packet(env(9), vec![42])).unwrap();
        b.send_ack(0, SackBlocks::empty()).unwrap();
        let app = s.poll().unwrap();
        assert_eq!(app.len(), 1, "the eager packet belongs to the application");
        assert_eq!(app[0].inline, vec![42]);
    }

    #[test]
    fn flush_completes_once_acks_arrive() {
        let (a, b) = connected_pair();
        let mut s = ReliableSender::new(a);
        s.send(eager_packet(env(0), vec![])).unwrap();
        b.send_ack(1, SackBlocks::empty()).unwrap();
        s.flush(16).unwrap();
        assert_eq!(s.unacked(), 0);
    }

    #[test]
    fn disconnected_peer_surfaces_a_transport_error() {
        let (a, b) = connected_pair();
        let mut s = ReliableSender::new(a);
        drop(b);
        assert!(matches!(
            s.send(eager_packet(env(0), vec![])),
            Err(ReliabilityError::Rdma(RdmaError::Disconnected))
        ));
    }
}
