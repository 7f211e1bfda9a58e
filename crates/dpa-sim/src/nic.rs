//! The receive-side NIC engine (§IV-A).
//!
//! "When an RDMA receive completes at the receiver, a completion
//! notification is generated and stored in an RDMA completion queue.
//! Incoming messages are staged into bounce buffers in NIC memory."
//!
//! [`RecvNic::poll`] drains the wire into bounce buffers and appends
//! completion entries. The service pops them one at a time into its
//! backend's command queue; the offloaded engine's drain packs them into
//! blocks — the paper's scheme of letting DPA thread *i* wait on completion
//! *i*, *i + N*, … maps onto lane *i* of each block.

use crate::bounce::{BounceId, BouncePool};
use crate::fault::{WireFaultStats, WireFaults};
use crate::rdma::{Frame, MessageHeader, QueuePair, RdmaError, WirePacket};
use crate::reorder::ReorderWindow;
use mpi_matching::MsgHandle;
use otm_base::{FaultPlan, MatchError};
use std::collections::VecDeque;

/// Default per-QP capacity of the out-of-order staging buffer. Sized to hold
/// a full sender window so a single early drop never forces discards; a
/// packet that overflows it is discarded and repaired by a timeout resend.
pub const DEFAULT_STAGING_CAPACITY: usize = 64;

/// A completion-queue entry: one arrived message staged in NIC memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The message header (envelope, inline hashes, protocol descriptor).
    pub header: MessageHeader,
    /// Where the inline bytes were staged.
    pub bounce: BounceId,
    /// Monotone per-NIC message handle (arrival order).
    pub msg: MsgHandle,
}

/// Errors surfaced by the receive path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NicError {
    /// Transport failure.
    Rdma(RdmaError),
    /// NIC memory exhausted while staging (bounce pool full).
    Staging(MatchError),
}

impl std::fmt::Display for NicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NicError::Rdma(e) => write!(f, "transport: {e}"),
            NicError::Staging(e) => write!(f, "staging: {e}"),
        }
    }
}

impl std::error::Error for NicError {}

/// Counters of the reliability receive side.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RxStats {
    /// Sequenced packets discarded because their sequence number was
    /// already accepted or already staged (retransmit overlap or wire
    /// duplication).
    pub duplicates: u64,
    /// Sequenced packets discarded because they arrived ahead of the next
    /// expected sequence number and the staging buffer could not hold them.
    pub gaps: u64,
    /// Out-of-order sequenced packets staged for later in-order delivery.
    pub staged_out_of_order: u64,
    /// Out-of-order packets discarded because the staging buffer was full
    /// (or has zero capacity); every one is also counted in `gaps`.
    pub stage_overflow: u64,
    /// Cumulative acknowledgements sent back to peers.
    pub acks_sent: u64,
    /// Accepted packets parked in the cross-QP total-order gate because an
    /// earlier global sequence number had not been released yet.
    pub gate_parked: u64,
    /// Packets the total-order gate released to the completion queue (every
    /// gated packet is parked then released, so `gate_released` counts all
    /// gated deliveries; `gate_parked` counts how many had to wait).
    pub gate_released: u64,
}

/// The receive-side NIC: wire → bounce buffers → completion queue.
///
/// A NIC can terminate several queue pairs (one per remote peer in a
/// multi-node job); their completions merge into the one CQ in poll order.
///
/// Packets stamped with a reliability sequence number (sent through a
/// [`crate::reliable::ReliableSender`]) pass a per-QP selective-repeat
/// acceptance check: duplicates are discarded, out-of-order packets are
/// held in a bounded per-QP staging buffer and delivered the moment the
/// hole fills (a full or zero-capacity buffer discards them instead), and
/// the cumulative acks advertise the staged ranges as SACK blocks so the
/// sender retransmits only the holes. Delivery to the completion queue is
/// strictly in sequence order, so the CQ — and the monotone [`MsgHandle`]s
/// it assigns — are identical to a fault-free run's, no matter what a
/// [`WireFaults`] layer did to the wire.
/// Unsequenced packets keep the legacy pass-through behavior.
#[derive(Debug)]
pub struct RecvNic {
    qps: Vec<QueuePair>,
    /// Queue pairs polled, drained and acked: the first `active` of `qps`
    /// (all of them unless [`RecvNic::rearm`] said fewer).
    active: usize,
    /// Per-QP frames taken off the wire at once and not yet looked at.
    /// Refilled only when empty, so a poll that returns early leaves the
    /// rest here, in order, as if they were still on the wire.
    inbox: Vec<VecDeque<Frame>>,
    pool: BouncePool,
    cq: VecDeque<Completion>,
    next_msg: u64,
    /// A packet already pulled off its queue pair whose staging failed
    /// (bounce pool exhausted). Retried first on the next poll so no
    /// message is ever dropped; holding it preserves per-QP FIFO order
    /// because the failing poll returns immediately. A sequenced held
    /// packet has already passed the acceptance check, so the retry goes
    /// straight to staging.
    held: Option<WirePacket>,
    /// Fault interpreter wrapping delivery, if a plan was installed.
    faults: Option<WireFaults>,
    /// Per-QP flag: sequenced traffic arrived since the last ack.
    ack_due: Vec<bool>,
    /// Per-QP out-of-order staging buffer. Its base is the QP's next
    /// expected sequence number, so whatever it holds is strictly above it;
    /// drained in order the moment the hole fills. A staging failure while
    /// draining puts the packet back at the front and retries next poll, so
    /// nothing is dropped.
    staging: Vec<ReorderWindow<WirePacket>>,
    /// Per-QP staging-buffer bound, in packets held.
    staging_capacity: usize,
    /// Whether the cross-QP total-order gate is enabled (see
    /// [`RecvNic::enable_total_order`]).
    total_order: bool,
    /// The total-order gate: accepted packets carrying a global sequence
    /// number park here until every earlier `gseq` has been released to the
    /// completion queue; its base is the next `gseq` to release. Naturally
    /// bounded by the sum of the peers' send windows plus the per-QP staging
    /// buffers — a sender whose packets are parked stops receiving ack
    /// progress on *other* packets only when its own window fills, so the
    /// gate never grows past what the per-QP reliability layer already
    /// admits. Its slots run from the base to the highest `gseq` parked.
    gate: ReorderWindow<WirePacket>,
    rx_stats: RxStats,
}

impl RecvNic {
    /// Creates a receive engine over one queue pair with the given staging
    /// pool.
    pub fn new(qp: QueuePair, pool: BouncePool) -> Self {
        let mut nic = Self::unconnected(pool);
        nic.add_qp(qp);
        nic
    }

    /// Creates a receive engine that terminates no queue pair yet:
    /// [`RecvNic::add_qp`] connects each peer.
    pub(crate) fn unconnected(pool: BouncePool) -> Self {
        RecvNic {
            qps: Vec::new(),
            active: 0,
            inbox: Vec::new(),
            pool,
            cq: VecDeque::new(),
            next_msg: 0,
            held: None,
            faults: None,
            ack_due: Vec::new(),
            staging: Vec::new(),
            staging_capacity: DEFAULT_STAGING_CAPACITY,
            total_order: false,
            gate: ReorderWindow::default(),
            rx_stats: RxStats::default(),
        }
    }

    /// Re-arms the NIC for a new set of peers over the queue pairs it
    /// already terminates, the first `active` of them: it reads as it did
    /// when built, and keeps every buffer's allocation. Frames still on
    /// those links are discarded, their staging windows and the gate
    /// restart at sequence 0, message handles at 0 and the receive counters
    /// at zero; an installed fault plan starts over from its seed. Queue
    /// pairs past `active` are not polled until a later re-arm takes them
    /// in.
    ///
    /// # Panics
    ///
    /// If `active` exceeds [`RecvNic::qp_count`].
    pub(crate) fn rearm(&mut self, active: usize) {
        assert!(
            active <= self.qps.len(),
            "{active} of {} queue pairs",
            self.qps.len()
        );
        self.active = active;
        for qp in 0..active {
            let inbox = &mut self.inbox[qp];
            inbox.clear();
            // A peer that is gone cannot send anything stale either.
            let _ = self.qps[qp].recv_all(inbox);
            inbox.clear();
            self.ack_due[qp] = false;
            self.staging[qp].reset();
        }
        while let Some(c) = self.cq.pop_front() {
            self.pool.release(c.bounce);
        }
        self.held = None;
        self.gate.reset();
        self.next_msg = 0;
        self.rx_stats = RxStats::default();
        if let Some(faults) = self.faults.take() {
            self.set_faults(faults.plan().clone());
        }
    }

    /// Enables cross-QP total-order delivery: accepted packets stamped with
    /// a global sequence number ([`WirePacket::with_gseq`]) are released to
    /// the completion queue strictly in that order, no matter which QP they
    /// arrived on or how the wire interleaved them. Packets without a
    /// `gseq` bypass the gate. The per-QP reliability acceptance still runs
    /// first (and its acks cover parked packets), so enabling the gate
    /// changes delivery *order* across QPs, never delivery *reliability*.
    /// Enable before sequenced traffic starts.
    pub fn enable_total_order(&mut self) {
        self.total_order = true;
    }

    /// Whether the cross-QP total-order gate is enabled.
    pub fn total_order(&self) -> bool {
        self.total_order
    }

    /// Packets currently parked in the total-order gate (diagnostics).
    pub fn gate_parked_len(&self) -> usize {
        self.gate.len()
    }

    /// The next global sequence number the total-order gate will release
    /// (diagnostics; equals the number of gated packets delivered so far).
    pub fn next_gseq(&self) -> u64 {
        self.gate.base()
    }

    /// Overrides the per-QP out-of-order staging bound. A zero capacity
    /// disables staging: every out-of-order packet is discarded, nothing is
    /// SACKed, and the sender repairs each loss by timeout resend.
    pub fn set_staging_capacity(&mut self, capacity: usize) {
        self.staging_capacity = capacity;
    }

    /// Installs a fault plan on the delivery path. Sequenced packets are
    /// dropped/duplicated/reordered/delayed per the plan; the reliability
    /// protocol repairs the damage before anything reaches the completion
    /// queue.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(WireFaults::new(plan));
    }

    /// Terminates an additional queue pair on this NIC (another peer); every
    /// queue pair is polled from then on.
    pub fn add_qp(&mut self, qp: QueuePair) {
        self.qps.push(qp);
        self.inbox.push(VecDeque::new());
        self.ack_due.push(false);
        self.staging.push(ReorderWindow::default());
        self.active = self.qps.len();
    }

    /// Number of queue pairs terminated here.
    pub fn qp_count(&self) -> usize {
        self.qps.len()
    }

    /// Drains every packet currently on the wire into bounce buffers,
    /// generating completions. Returns how many arrived.
    pub fn poll(&mut self) -> Result<usize, NicError> {
        if let Some(f) = self.faults.as_mut() {
            f.tick();
        }
        let polled = self.poll_wire();
        // Whatever was accepted is acked, also when staging stopped the
        // poll; only a dead queue pair ends it where it was found.
        if !matches!(polled, Err(NicError::Rdma(_))) {
            self.send_due_acks();
        }
        polled
    }

    /// [`RecvNic::poll`] between the fault clock's tick and the acks.
    fn poll_wire(&mut self) -> Result<usize, NicError> {
        let mut n = 0;
        // Retry the packet a previous poll could not stage.
        if let Some(packet) = self.held.take() {
            if let Err((packet, e)) = self.stage_packet(packet) {
                self.held = Some(packet);
                return Err(e);
            }
            n += 1;
        }
        // Resume a total-order gate drain a previous poll's bounce-pool
        // exhaustion cut short (the failing packet stayed parked).
        if self.total_order {
            n += self.drain_gate()?;
        }
        // Release held-back (reordered/delayed) packets that are now due.
        while let Some((qp, packet)) = self.faults.as_mut().and_then(WireFaults::pop_due) {
            n += self.accept_packet(qp, packet)?;
        }
        for i in 0..self.active {
            loop {
                if self.inbox[i].is_empty() {
                    let arrived = self.qps[i].recv_all(&mut self.inbox[i]);
                    arrived.map_err(NicError::Rdma)?;
                }
                match self.inbox[i].pop_front() {
                    None => break,
                    // Acks are consumed by the sender half; one arriving
                    // here (e.g. on a shared endpoint) is transport noise,
                    // not a message.
                    Some(Frame::Ack(_)) => {}
                    Some(Frame::Data(packet)) => match self.faults.as_mut() {
                        None => n += self.accept_packet(i, packet)?,
                        Some(f) => {
                            for packet in f.admit(i, packet).into_iter().flatten() {
                                // Any extra copy lost with an early return
                                // could only be a duplicate of the now-held
                                // packet, so nothing unique is dropped.
                                n += self.accept_packet(i, packet)?;
                            }
                        }
                    },
                }
            }
        }
        // Deliver staged out-of-order packets whose holes filled this poll.
        Ok(n + self.drain_staged()?)
    }

    /// Runs the reliability acceptance check on one delivered packet and
    /// stages it if accepted. Returns how many completions were generated:
    /// `0` when the packet was discarded (duplicate, out-of-order gap) or
    /// parked in the staging buffer, `1` for a direct acceptance, more when an in-order arrival filled a hole and its
    /// QP's staged run drained behind it — eager draining frees staging
    /// capacity for later packets arriving in the same poll.
    fn accept_packet(&mut self, qp: usize, packet: WirePacket) -> Result<usize, NicError> {
        let sequenced = packet.seq.is_some();
        if let Some(seq) = packet.seq {
            // Any sequenced arrival — accepted or not — owes the peer a
            // fresh cumulative ack, so retransmits re-ack too.
            self.ack_due[qp] = true;
            let expected = self.staging[qp].base();
            if seq < expected {
                self.rx_stats.duplicates += 1;
                return Ok(0);
            }
            if seq > expected {
                self.accept_out_of_order(qp, seq, packet);
                return Ok(0);
            }
            // A retransmit can race its own staged copy: the in-order copy
            // wins and the staged one becomes a duplicate.
            if self.staging[qp].skip().is_some() {
                self.rx_stats.duplicates += 1;
            }
        }
        match self.deliver_packet(packet) {
            Ok(k) => {
                if sequenced {
                    Ok(k + self.drain_staged_qp(qp)?)
                } else {
                    Ok(k)
                }
            }
            Err((Some(packet), e)) => {
                self.held = Some(packet);
                Err(e)
            }
            Err((None, e)) => Err(e),
        }
    }

    /// Routes one packet that passed its QP's reliability acceptance to the
    /// completion queue: directly when the total-order gate is off or the
    /// packet carries no global sequence number, through the gate
    /// otherwise. Returns how many completions were generated (a parked
    /// packet generates none now; releasing it — possibly along with a run
    /// of successors — generates them later). On a bounce-pool failure the
    /// packet travels back (`Some`) for the caller to re-hold or re-stage,
    /// unless it is safely parked in the gate (`None`: the failure is the
    /// gate head's, which stays parked and is retried next poll).
    #[allow(clippy::result_large_err)] // internal: the packet must travel back
    fn deliver_packet(
        &mut self,
        packet: WirePacket,
    ) -> Result<usize, (Option<WirePacket>, NicError)> {
        if self.total_order {
            if let Some(gseq) = packet.gseq {
                return self.deliver_gated(gseq, packet).map_err(|e| (None, e));
            }
        }
        match self.stage_packet(packet) {
            Ok(()) => Ok(1),
            Err((packet, e)) => Err((Some(packet), e)),
        }
    }

    /// The gated half of [`RecvNic::deliver_packet`]: the packet parks at
    /// its `gseq` (counted as parked unless it is the one the gate waits
    /// for), then whatever run is ready is released. A failure leaves the
    /// gate's head parked.
    // Out of line: inlined, it made `deliver_packet`'s ungated path dearer
    // (`stream_nc`'s `nic` rung).
    #[inline(never)]
    fn deliver_gated(&mut self, gseq: u64, packet: WirePacket) -> Result<usize, NicError> {
        let next = self.gate.base();
        if gseq < next || self.gate.contains(gseq) {
            // Per-QP acceptance is exactly-once, so a gate-level duplicate
            // means two packets shared a global sequence number (a
            // sender-side numbering bug); discarding the later copy keeps
            // delivery exactly-once per gseq.
            self.rx_stats.duplicates += 1;
            return Ok(0);
        }
        self.gate.park(gseq, packet);
        if gseq != next {
            self.rx_stats.gate_parked += 1;
        }
        self.drain_gate()
    }

    /// Releases gated packets whose global-order predecessors have all been
    /// delivered, strictly in `gseq` order. A bounce-pool failure puts the
    /// head back at the front of the gate and surfaces the error; the next
    /// poll resumes the drain.
    fn drain_gate(&mut self) -> Result<usize, NicError> {
        let mut n = 0;
        while let Some(packet) = self.gate.pop_front() {
            match self.stage_packet(packet) {
                Ok(()) => {
                    self.rx_stats.gate_released += 1;
                    n += 1;
                }
                Err((packet, e)) => {
                    self.gate.put_back(packet);
                    return Err(e);
                }
            }
        }
        Ok(n)
    }

    /// Handles a sequenced packet above the expected counter: staged while
    /// the bounded buffer has room, discarded (and counted as overflow + gap)
    /// otherwise. Never generates a completion directly.
    fn accept_out_of_order(&mut self, qp: usize, seq: u64, packet: WirePacket) {
        if self.staging[qp].contains(seq) {
            self.rx_stats.duplicates += 1;
            return;
        }
        if self.staging[qp].len() < self.staging_capacity {
            self.staging[qp].park(seq, packet);
            self.rx_stats.staged_out_of_order += 1;
            return;
        }
        self.rx_stats.stage_overflow += 1;
        self.rx_stats.gaps += 1;
    }

    /// Delivers staged packets whose hole has filled, strictly in sequence
    /// order per QP. A bounce-pool failure puts the packet back at the front
    /// of its staging buffer and surfaces the error; the next poll resumes
    /// the drain, so nothing is dropped.
    fn drain_staged(&mut self) -> Result<usize, NicError> {
        let mut n = 0;
        for qp in 0..self.active {
            n += self.drain_staged_qp(qp)?;
        }
        Ok(n)
    }

    /// The per-QP half of [`RecvNic::drain_staged`].
    fn drain_staged_qp(&mut self, qp: usize) -> Result<usize, NicError> {
        let mut n = 0;
        while let Some(packet) = self.staging[qp].pop_front() {
            match self.deliver_packet(packet) {
                Ok(k) => {
                    self.ack_due[qp] = true;
                    n += k;
                }
                Err((Some(packet), e)) => {
                    self.staging[qp].put_back(packet);
                    return Err(e);
                }
                Err((None, e)) => {
                    // The packet itself is parked in the gate (accepted at
                    // the per-QP layer, so the ack must cover it); the
                    // error is the gate head's bounce failure, retried on
                    // the next poll.
                    self.ack_due[qp] = true;
                    return Err(e);
                }
            }
        }
        Ok(n)
    }

    /// Sends one cumulative ack on every QP that saw sequenced traffic
    /// since the last ack, advertising any staged out-of-order runs as
    /// SACK blocks. Best-effort: a disconnected peer cannot use the ack
    /// anyway.
    fn send_due_acks(&mut self) {
        for i in 0..self.active {
            if self.ack_due[i] {
                self.ack_due[i] = false;
                let staging = &self.staging[i];
                let _ = self.qps[i].send_ack(staging.base(), staging.sack());
                self.rx_stats.acks_sent += 1;
            }
        }
    }

    /// Stages one packet — its inline bytes move into a bounce buffer — or
    /// hands it back whole on failure.
    #[allow(clippy::result_large_err)] // internal: the packet must travel back
    fn stage_packet(&mut self, mut packet: WirePacket) -> Result<(), (WirePacket, NicError)> {
        match self.pool.stage(std::mem::take(&mut packet.inline)) {
            Ok(bounce) => {
                let msg = MsgHandle(self.next_msg);
                self.next_msg += 1;
                self.cq.push_back(Completion {
                    header: packet.header,
                    bounce,
                    msg,
                });
                Ok(())
            }
            Err((inline, e)) => {
                packet.inline = inline;
                Err((packet, NicError::Staging(e)))
            }
        }
    }

    /// Pops up to `max` consecutive completions. The service pops one at a
    /// time; the benchmark package's NIC rung still takes blocks here
    /// (ROADMAP item 1).
    pub fn take_block(&mut self, max: usize) -> Vec<Completion> {
        let n = self.cq.len().min(max);
        self.cq.drain(..n).collect()
    }

    /// Pops the oldest completion.
    pub(crate) fn next_completion(&mut self) -> Option<Completion> {
        self.cq.pop_front()
    }

    /// Completions waiting to be matched.
    pub fn cq_len(&self) -> usize {
        self.cq.len()
    }

    /// Bounce buffers currently holding staged messages.
    pub fn bounce_in_use(&self) -> usize {
        self.pool.in_use()
    }

    /// Reads the staged bytes of a completion.
    pub fn staged(&self, bounce: BounceId) -> &[u8] {
        self.pool.data(bounce)
    }

    /// Moves the staged bytes of a completion out and returns its bounce
    /// buffer.
    pub fn take_staged(&mut self, bounce: BounceId) -> Vec<u8> {
        self.pool.take(bounce)
    }

    /// Returns a bounce buffer whose bytes the caller does not want.
    pub fn release(&mut self, bounce: BounceId) {
        self.pool.release(bounce);
    }

    /// The first endpoint, e.g. for sending acknowledgements back on a
    /// two-node setup.
    ///
    /// # Panics
    ///
    /// If the NIC terminates no queue pair.
    pub fn qp(&self) -> &QueuePair {
        &self.qps[0]
    }

    /// Reliability receive counters (discarded duplicates/gaps, staged
    /// out-of-order packets, acks sent).
    pub fn rx_stats(&self) -> RxStats {
        self.rx_stats
    }

    /// Out-of-order packets currently staged on queue pair `qp`
    /// (diagnostics).
    pub fn staged_out_of_order_len(&self, qp: usize) -> usize {
        self.staging[qp].len()
    }

    /// What the installed fault plan injected so far, if one is active.
    pub fn wire_fault_stats(&self) -> Option<WireFaultStats> {
        self.faults.as_ref().map(WireFaults::stats)
    }

    /// The next expected sequence number on queue pair `qp` (diagnostics).
    pub fn expected_seq(&self, qp: usize) -> u64 {
        self.staging[qp].base()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdma::{connected_pair, eager_packet, SackBlocks};
    use otm_base::{Envelope, Rank, Tag};

    fn nic_pair(buffers: usize) -> (QueuePair, RecvNic) {
        let (a, b) = connected_pair();
        (a, RecvNic::new(b, BouncePool::new(buffers, 64)))
    }

    fn env(tag: u32) -> Envelope {
        Envelope::world(Rank(0), Tag(tag))
    }

    /// The ack the NIC sent back to `tx`.
    fn sent_ack(tx: &QueuePair) -> crate::rdma::Ack {
        match tx.try_recv().unwrap().expect("ack sent") {
            Frame::Ack(ack) => ack,
            Frame::Data(p) => panic!("expected an ack, got {p:?}"),
        }
    }

    #[test]
    fn completions_stay_under_two_cache_lines() {
        assert!(std::mem::size_of::<Completion>() <= 96);
    }

    #[test]
    fn poll_stages_and_completes_in_arrival_order() {
        let (tx, mut nic) = nic_pair(4);
        tx.send(eager_packet(env(1), vec![1])).unwrap();
        tx.send(eager_packet(env(2), vec![2])).unwrap();
        assert_eq!(nic.poll().unwrap(), 2);
        let block = nic.take_block(8);
        assert_eq!(block.len(), 2);
        assert_eq!(block[0].msg, MsgHandle(0));
        assert_eq!(block[1].msg, MsgHandle(1));
        assert_eq!(nic.staged(block[0].bounce), &[1]);
        assert_eq!(nic.staged(block[1].bounce), &[2]);
    }

    #[test]
    fn take_block_respects_block_size() {
        let (tx, mut nic) = nic_pair(8);
        for i in 0..5 {
            tx.send(eager_packet(env(i), vec![])).unwrap();
        }
        nic.poll().unwrap();
        assert_eq!(nic.take_block(3).len(), 3);
        assert_eq!(nic.cq_len(), 2);
        assert_eq!(nic.take_block(3).len(), 2);
    }

    #[test]
    fn msg_handles_keep_increasing_across_polls() {
        let (tx, mut nic) = nic_pair(8);
        tx.send(eager_packet(env(0), vec![])).unwrap();
        nic.poll().unwrap();
        let first = nic.take_block(1)[0];
        nic.release(first.bounce);
        tx.send(eager_packet(env(1), vec![])).unwrap();
        nic.poll().unwrap();
        let second = nic.take_block(1)[0];
        assert_eq!(first.msg, MsgHandle(0));
        assert_eq!(second.msg, MsgHandle(1));
    }

    #[test]
    fn staging_exhaustion_is_reported_and_the_packet_survives() {
        let (tx, mut nic) = nic_pair(1);
        tx.send(eager_packet(env(0), vec![10])).unwrap();
        tx.send(eager_packet(env(1), vec![11])).unwrap();
        assert!(matches!(nic.poll(), Err(NicError::Staging(_))));
        // The first message staged before exhaustion; releasing its buffer
        // lets the held second packet stage on the next poll — nothing is
        // dropped and order is preserved.
        let first = nic.take_block(1)[0];
        assert_eq!(nic.staged(first.bounce), &[10]);
        nic.release(first.bounce);
        assert_eq!(nic.poll().unwrap(), 1);
        let second = nic.take_block(1)[0];
        assert_eq!(nic.staged(second.bounce), &[11]);
        assert_eq!(second.msg, MsgHandle(1));
    }

    /// Polls a one-buffer NIC until `n` messages came out, releasing each;
    /// returns their first bytes in delivery order.
    fn drain_one_by_one(nic: &mut RecvNic, n: usize) -> Vec<u8> {
        let mut got = Vec::new();
        while got.len() < n {
            // The poll stages one packet and reports the next as not staged.
            let _ = nic.poll();
            let block = nic.take_block(8);
            assert_eq!(block.len(), 1, "one bounce buffer, one completion");
            assert_eq!(block[0].msg, MsgHandle(got.len() as u64));
            got.push(nic.staged(block[0].bounce)[0]);
            nic.release(block[0].bounce);
        }
        got
    }

    #[test]
    fn staging_exhaustion_mid_batch_keeps_the_rest_of_the_batch_in_order() {
        // Four frames come off the wire in one `recv_all`; the pool holds
        // one. The poll stops at the second: the third and fourth stay in
        // the NIC's inbox, ahead of the frame sent afterwards.
        let (tx, mut nic) = nic_pair(1);
        for i in 10..14 {
            tx.send(eager_packet(env(i), vec![i as u8])).unwrap();
        }
        assert!(matches!(nic.poll(), Err(NicError::Staging(_))));
        assert_eq!(tx.try_recv().unwrap(), None, "the wire was emptied");
        tx.send(eager_packet(env(14), vec![14])).unwrap();
        assert_eq!(drain_one_by_one(&mut nic, 5), [10, 11, 12, 13, 14]);
        assert_eq!(nic.poll().unwrap(), 0, "each exactly once");
    }

    #[test]
    fn total_order_gate_drain_survives_bounce_exhaustion_mid_batch() {
        // Three sequenced frames per QP in one batch each, global order
        // interleaved across the QPs, one bounce buffer.
        let (tx_a, rx_a) = connected_pair();
        let (tx_b, rx_b) = connected_pair();
        let mut nic = RecvNic::new(rx_a, BouncePool::new(1, 64));
        nic.add_qp(rx_b);
        nic.enable_total_order();
        for seq in 0..3u64 {
            for (qp, tx) in [&tx_a, &tx_b].into_iter().enumerate() {
                let gseq = 2 * seq + qp as u64;
                let packet = eager_packet(env(gseq as u32), vec![gseq as u8]);
                tx.send(packet.with_seq(seq).with_gseq(gseq)).unwrap();
            }
        }
        assert_eq!(drain_one_by_one(&mut nic, 6), [0, 1, 2, 3, 4, 5]);
        assert_eq!(nic.poll().unwrap(), 0);
        assert_eq!((nic.expected_seq(0), nic.expected_seq(1)), (3, 3));
        assert_eq!(nic.gate_parked_len(), 0);
        assert_eq!(nic.rx_stats().gate_released, 6);
        assert_eq!(nic.rx_stats().duplicates, 0);
    }

    #[test]
    fn released_buffers_allow_further_traffic() {
        let (tx, mut nic) = nic_pair(1);
        tx.send(eager_packet(env(0), vec![7])).unwrap();
        nic.poll().unwrap();
        let c = nic.take_block(1)[0];
        nic.release(c.bounce);
        tx.send(eager_packet(env(1), vec![8])).unwrap();
        assert_eq!(nic.poll().unwrap(), 1);
    }

    #[test]
    fn sequenced_packets_are_accepted_in_order_and_acked() {
        let (tx, mut nic) = nic_pair(4);
        tx.send(eager_packet(env(0), vec![0]).with_seq(0)).unwrap();
        tx.send(eager_packet(env(1), vec![1]).with_seq(1)).unwrap();
        assert_eq!(nic.poll().unwrap(), 2);
        assert_eq!(nic.expected_seq(0), 2);
        // One cumulative ack for the poll, carrying the next expected seq.
        let ack = sent_ack(&tx);
        assert_eq!(ack.cumulative, 2);
        assert!(ack.sack.is_empty(), "nothing staged, nothing advertised");
        assert_eq!(nic.rx_stats().acks_sent, 1);
    }

    #[test]
    fn duplicate_and_gap_sequences_are_discarded_without_staging() {
        let (tx, mut nic) = nic_pair(8);
        nic.set_staging_capacity(0);
        tx.send(eager_packet(env(0), vec![0]).with_seq(0)).unwrap();
        tx.send(eager_packet(env(0), vec![0]).with_seq(0)).unwrap(); // dup
        tx.send(eager_packet(env(5), vec![5]).with_seq(5)).unwrap(); // gap
        tx.send(eager_packet(env(1), vec![1]).with_seq(1)).unwrap();
        assert_eq!(nic.poll().unwrap(), 2, "only seqs 0 and 1 staged");
        let stats = nic.rx_stats();
        assert_eq!(stats.duplicates, 1);
        assert_eq!(stats.gaps, 1);
        assert_eq!(stats.stage_overflow, 1);
        assert_eq!(stats.staged_out_of_order, 0, "capacity 0 never stages");
        let block = nic.take_block(8);
        assert_eq!(block.len(), 2);
        assert_eq!(nic.staged(block[0].bounce), &[0]);
        assert_eq!(nic.staged(block[1].bounce), &[1]);
    }

    #[test]
    fn retransmitted_window_fills_the_gap_exactly_once() {
        let (tx, mut nic) = nic_pair(8);
        nic.set_staging_capacity(0);
        // First transmission: seq 1 lost on the (conceptual) wire.
        tx.send(eager_packet(env(0), vec![0]).with_seq(0)).unwrap();
        tx.send(eager_packet(env(2), vec![2]).with_seq(2)).unwrap();
        nic.poll().unwrap();
        // Nothing was staged or SACKed: the timeout resends [1, 2].
        tx.send(eager_packet(env(1), vec![1]).with_seq(1)).unwrap();
        tx.send(eager_packet(env(2), vec![2]).with_seq(2)).unwrap();
        nic.poll().unwrap();
        let block = nic.take_block(8);
        let staged: Vec<&[u8]> = block.iter().map(|c| nic.staged(c.bounce)).collect();
        assert_eq!(staged, vec![&[0u8][..], &[1], &[2]], "in order, no dups");
        assert_eq!(nic.rx_stats().gaps, 1);
        assert_eq!(nic.rx_stats().duplicates, 0);
    }

    #[test]
    fn selective_repeat_stages_and_delivers_on_hole_fill() {
        let (tx, mut nic) = nic_pair(8);
        tx.send(eager_packet(env(0), vec![0]).with_seq(0)).unwrap();
        tx.send(eager_packet(env(2), vec![2]).with_seq(2)).unwrap();
        tx.send(eager_packet(env(3), vec![3]).with_seq(3)).unwrap();
        assert_eq!(nic.poll().unwrap(), 1, "only seq 0 delivered; 2,3 staged");
        assert_eq!(nic.staged_out_of_order_len(0), 2);
        assert_eq!(nic.rx_stats().staged_out_of_order, 2);
        assert_eq!(nic.rx_stats().gaps, 0, "staging is not a discard");
        // The ack advertises the staged run [2, 4) above cumulative 1.
        let ack = sent_ack(&tx);
        assert_eq!(ack.cumulative, 1);
        assert_eq!(ack.sack.iter().collect::<Vec<_>>(), vec![(2, 4)]);
        // Filling the hole releases the whole staged run, in order.
        tx.send(eager_packet(env(1), vec![1]).with_seq(1)).unwrap();
        assert_eq!(nic.poll().unwrap(), 3);
        assert_eq!(nic.staged_out_of_order_len(0), 0);
        assert_eq!(nic.expected_seq(0), 4);
        let block = nic.take_block(8);
        let bytes: Vec<u8> = block.iter().map(|c| nic.staged(c.bounce)[0]).collect();
        assert_eq!(bytes, vec![0, 1, 2, 3], "delivery is strictly in order");
        assert_eq!(block[0].msg, MsgHandle(0), "handles match a clean run");
    }

    #[test]
    fn selective_repeat_discards_duplicates_of_staged_packets() {
        let (tx, mut nic) = nic_pair(8);
        tx.send(eager_packet(env(2), vec![2]).with_seq(2)).unwrap();
        tx.send(eager_packet(env(2), vec![2]).with_seq(2)).unwrap(); // dup
        assert_eq!(nic.poll().unwrap(), 0);
        assert_eq!(nic.rx_stats().staged_out_of_order, 1);
        assert_eq!(nic.rx_stats().duplicates, 1, "second copy is a dup");
        // An in-order retransmit sweep racing its own staged copy delivers
        // exactly once.
        tx.send(eager_packet(env(0), vec![0]).with_seq(0)).unwrap();
        tx.send(eager_packet(env(1), vec![1]).with_seq(1)).unwrap();
        tx.send(eager_packet(env(2), vec![2]).with_seq(2)).unwrap();
        assert_eq!(nic.poll().unwrap(), 3);
        assert_eq!(nic.rx_stats().duplicates, 2, "staged copy superseded");
        let block = nic.take_block(8);
        let bytes: Vec<u8> = block.iter().map(|c| nic.staged(c.bounce)[0]).collect();
        assert_eq!(bytes, vec![0, 1, 2]);
    }

    #[test]
    fn staging_overflow_degrades_to_goback_n_discard() {
        let (tx, mut nic) = nic_pair(8);
        nic.set_staging_capacity(2);
        tx.send(eager_packet(env(1), vec![1]).with_seq(1)).unwrap();
        tx.send(eager_packet(env(2), vec![2]).with_seq(2)).unwrap();
        tx.send(eager_packet(env(3), vec![3]).with_seq(3)).unwrap(); // overflow
        assert_eq!(nic.poll().unwrap(), 0);
        let stats = nic.rx_stats();
        assert_eq!(stats.staged_out_of_order, 2);
        assert_eq!(stats.stage_overflow, 1);
        assert_eq!(stats.gaps, 1, "the overflowed packet counts as a gap");
        // The retransmit fills the hole and re-sends the overflowed seq.
        tx.send(eager_packet(env(0), vec![0]).with_seq(0)).unwrap();
        tx.send(eager_packet(env(3), vec![3]).with_seq(3)).unwrap();
        assert_eq!(nic.poll().unwrap(), 4);
        let block = nic.take_block(8);
        let bytes: Vec<u8> = block.iter().map(|c| nic.staged(c.bounce)[0]).collect();
        assert_eq!(bytes, vec![0, 1, 2, 3]);
    }

    #[test]
    fn sack_blocks_summarize_disjoint_staged_runs() {
        let (tx, mut nic) = nic_pair(16);
        for seq in [2u64, 3, 5, 8, 9] {
            tx.send(eager_packet(env(seq as u32), vec![seq as u8]).with_seq(seq))
                .unwrap();
        }
        assert_eq!(nic.poll().unwrap(), 0);
        let ack = sent_ack(&tx);
        assert_eq!(ack.cumulative, 0);
        assert_eq!(
            ack.sack.iter().collect::<Vec<_>>(),
            vec![(2, 4), (5, 6), (8, 10)]
        );
    }

    #[test]
    fn staged_drain_survives_bounce_exhaustion() {
        // Pool of 2: the hole-filling packet and the first staged packet
        // stage, the second staged packet must wait without being lost.
        let (tx, mut nic) = nic_pair(2);
        tx.send(eager_packet(env(1), vec![1]).with_seq(1)).unwrap();
        tx.send(eager_packet(env(2), vec![2]).with_seq(2)).unwrap();
        assert_eq!(nic.poll().unwrap(), 0, "both staged out of order");
        tx.send(eager_packet(env(0), vec![0]).with_seq(0)).unwrap();
        assert!(matches!(nic.poll(), Err(NicError::Staging(_))));
        assert_eq!(nic.staged_out_of_order_len(0), 1, "seq 2 still staged");
        // Releasing bounce buffers lets the drain resume in order.
        for c in nic.take_block(8) {
            nic.release(c.bounce);
        }
        assert_eq!(nic.poll().unwrap(), 1);
        let block = nic.take_block(8);
        assert_eq!(nic.staged(block[0].bounce), &[2]);
        assert_eq!(block[0].msg, MsgHandle(2), "handle order preserved");
    }

    #[test]
    fn stray_acks_never_become_completions() {
        let (tx, mut nic) = nic_pair(4);
        tx.send_ack(3, SackBlocks::empty()).unwrap();
        assert_eq!(nic.poll().unwrap(), 0);
        assert_eq!(nic.cq_len(), 0);
    }

    #[test]
    fn unsequenced_traffic_keeps_legacy_passthrough_semantics() {
        let (tx, mut nic) = nic_pair(4);
        tx.send(eager_packet(env(0), vec![9])).unwrap();
        assert_eq!(nic.poll().unwrap(), 1);
        assert_eq!(nic.expected_seq(0), 0, "no sequence state touched");
        assert_eq!(
            tx.try_recv().unwrap(),
            None,
            "no ack owed for unsequenced traffic"
        );
    }

    /// Drives `n` messages through a faulty wire into a NIC with the given
    /// staging capacity and asserts exactly-once in-order delivery.
    fn faulty_wire_roundtrip(
        staging_capacity: usize,
    ) -> (RxStats, crate::reliable::ReliabilityStats) {
        use crate::reliable::ReliableSender;
        use otm_base::FaultPlan;
        let (a, b) = connected_pair();
        let mut nic = RecvNic::new(b, BouncePool::new(64, 64));
        nic.set_staging_capacity(staging_capacity);
        nic.set_faults(
            FaultPlan::new(0x5eed)
                .with_drop_permille(150)
                .with_duplicate_permille(150)
                .with_reorder_permille(150)
                .with_reorder_window(4),
        );
        let mut sender = ReliableSender::with_limits(a, 4, 32);
        let n = 50u32;
        for i in 0..n {
            sender.send(eager_packet(env(i), vec![i as u8])).unwrap();
        }
        let mut staged = Vec::new();
        for _ in 0..4096 {
            sender.poll().expect("sender within budget");
            nic.poll().unwrap();
            for c in nic.take_block(64) {
                staged.push(nic.staged(c.bounce)[0]);
                let b = c.bounce;
                nic.release(b);
            }
            if staged.len() == n as usize && sender.unacked() == 0 {
                break;
            }
        }
        assert_eq!(
            staged,
            (0..n as u8).collect::<Vec<_>>(),
            "exactly-once, in-order delivery under drop+dup+reorder \
             (staging capacity {staging_capacity})"
        );
        let wire = nic.wire_fault_stats().unwrap();
        assert!(wire.total() > 0, "the plan must actually have injected");
        (nic.rx_stats(), sender.stats())
    }

    #[test]
    fn total_order_gate_releases_cross_qp_packets_in_global_order() {
        let (tx_a, rx_a) = connected_pair();
        let (tx_b, rx_b) = connected_pair();
        let mut nic = RecvNic::new(rx_a, BouncePool::new(8, 64));
        nic.add_qp(rx_b);
        nic.enable_total_order();
        // QP 0 carries gseqs {1, 2}, QP 1 carries {0, 3}; per-QP seqs are
        // independent. Global order must come out 0, 1, 2, 3.
        tx_a.send(eager_packet(env(1), vec![1]).with_seq(0).with_gseq(1))
            .unwrap();
        tx_a.send(eager_packet(env(2), vec![2]).with_seq(1).with_gseq(2))
            .unwrap();
        tx_b.send(eager_packet(env(0), vec![0]).with_seq(0).with_gseq(0))
            .unwrap();
        tx_b.send(eager_packet(env(3), vec![3]).with_seq(1).with_gseq(3))
            .unwrap();
        assert_eq!(nic.poll().unwrap(), 4);
        let block = nic.take_block(8);
        let bytes: Vec<u8> = block.iter().map(|c| nic.staged(c.bounce)[0]).collect();
        assert_eq!(bytes, vec![0, 1, 2, 3], "global order across QPs");
        assert_eq!(block[0].msg, MsgHandle(0), "handles follow global order");
        assert_eq!(nic.next_gseq(), 4);
        assert_eq!(nic.gate_parked_len(), 0);
        let stats = nic.rx_stats();
        assert_eq!(stats.gate_released, 4);
        assert!(
            stats.gate_parked >= 2,
            "QP 0's packets arrived before gseq 0 and had to wait: {stats:?}"
        );
    }

    #[test]
    fn total_order_gate_holds_packets_until_the_global_hole_fills() {
        let (tx_a, rx_a) = connected_pair();
        let (tx_b, rx_b) = connected_pair();
        let mut nic = RecvNic::new(rx_a, BouncePool::new(8, 64));
        nic.add_qp(rx_b);
        nic.enable_total_order();
        tx_a.send(eager_packet(env(1), vec![1]).with_seq(0).with_gseq(1))
            .unwrap();
        assert_eq!(nic.poll().unwrap(), 0, "gseq 1 parked behind missing 0");
        assert_eq!(nic.gate_parked_len(), 1);
        assert_eq!(nic.expected_seq(0), 1, "per-QP acceptance already ran");
        // The parked packet is acked at the per-QP layer: a retransmitted
        // copy is discarded as a duplicate, not double-delivered.
        tx_a.send(eager_packet(env(1), vec![1]).with_seq(0).with_gseq(1))
            .unwrap();
        assert_eq!(nic.poll().unwrap(), 0);
        assert_eq!(nic.rx_stats().duplicates, 1);
        tx_b.send(eager_packet(env(0), vec![0]).with_seq(0).with_gseq(0))
            .unwrap();
        assert_eq!(nic.poll().unwrap(), 2, "hole filled, run released");
        let block = nic.take_block(8);
        let bytes: Vec<u8> = block.iter().map(|c| nic.staged(c.bounce)[0]).collect();
        assert_eq!(bytes, vec![0, 1]);
    }

    #[test]
    fn total_order_gate_drain_survives_bounce_exhaustion() {
        let (tx_a, rx_a) = connected_pair();
        let (tx_b, rx_b) = connected_pair();
        let mut nic = RecvNic::new(rx_a, BouncePool::new(1, 64));
        nic.add_qp(rx_b);
        nic.enable_total_order();
        tx_a.send(eager_packet(env(0), vec![0]).with_seq(0).with_gseq(0))
            .unwrap();
        tx_b.send(eager_packet(env(1), vec![1]).with_seq(0).with_gseq(1))
            .unwrap();
        // gseq 0 stages into the single bounce buffer; gseq 1's release
        // fails and must stay parked, not dropped.
        assert!(matches!(nic.poll(), Err(NicError::Staging(_))));
        assert_eq!(nic.gate_parked_len(), 1);
        let first = nic.take_block(1)[0];
        assert_eq!(nic.staged(first.bounce), &[0]);
        nic.release(first.bounce);
        assert_eq!(nic.poll().unwrap(), 1, "gate drain resumes next poll");
        let second = nic.take_block(1)[0];
        assert_eq!(nic.staged(second.bounce), &[1]);
        assert_eq!(second.msg, MsgHandle(1), "handle order preserved");
    }

    #[test]
    fn total_order_gate_discards_a_shared_gseq_once_per_extra_copy() {
        // Both QPs stamp the same global sequence numbers: every packet is
        // new at its own QP, so only the gate can tell the copies apart.
        let (tx_a, rx_a) = connected_pair();
        let (tx_b, rx_b) = connected_pair();
        let mut nic = RecvNic::new(rx_a, BouncePool::new(8, 64));
        nic.add_qp(rx_b);
        nic.enable_total_order();
        let send = |tx: &QueuePair, seq: u64, gseq: u64, byte: u8| {
            let packet = eager_packet(env(gseq as u32), vec![byte]);
            tx.send(packet.with_seq(seq).with_gseq(gseq)).unwrap();
        };
        // Below the gate's base: gseq 0 was released before B's copy came.
        send(&tx_a, 0, 0, 0);
        send(&tx_b, 0, 0, 100);
        assert_eq!(nic.poll().unwrap(), 1);
        assert_eq!(nic.rx_stats().duplicates, 1);
        // Already parked: gseq 2 waits behind 1 when B's copy comes.
        send(&tx_a, 1, 2, 2);
        send(&tx_b, 1, 2, 102);
        assert_eq!(nic.poll().unwrap(), 0);
        assert_eq!(nic.gate_parked_len(), 1, "one copy parked, not two");
        assert_eq!(nic.rx_stats().duplicates, 2);
        send(&tx_b, 2, 1, 1);
        assert_eq!(nic.poll().unwrap(), 2, "gseq 1 releases the parked 2");
        let block = nic.take_block(8);
        let bytes: Vec<u8> = block.iter().map(|c| nic.staged(c.bounce)[0]).collect();
        assert_eq!(bytes, vec![0, 1, 2], "each gseq delivered exactly once");
        assert_eq!(nic.gate_parked_len(), 0);
        assert_eq!(nic.next_gseq(), 3);
        let stats = nic.rx_stats();
        assert_eq!(
            (stats.duplicates, stats.gate_parked, stats.gate_released),
            (2, 1, 3)
        );
        assert_eq!((nic.expected_seq(0), nic.expected_seq(1)), (2, 3));
    }

    #[test]
    fn a_rearmed_nic_reads_as_new_on_the_queue_pairs_it_keeps() {
        let (tx_a, rx_a) = connected_pair();
        let (tx_b, rx_b) = connected_pair();
        let mut nic = RecvNic::unconnected(BouncePool::new(8, 64));
        nic.add_qp(rx_a);
        nic.add_qp(rx_b);
        nic.enable_total_order();
        let send = |tx: &QueuePair, seq: u64, gseq: u64| {
            let packet = eager_packet(env(gseq as u32), vec![gseq as u8]);
            tx.send(packet.with_seq(seq).with_gseq(gseq)).unwrap();
        };
        // The first peers: gseq 0 and 2 delivered, 3 parked behind the lost
        // 1, seq 2 staged on QP 0 above its hole, one completion left.
        send(&tx_a, 0, 0);
        send(&tx_b, 0, 2);
        send(&tx_b, 1, 3);
        send(&tx_a, 2, 9);
        assert_eq!(nic.poll().unwrap(), 1);
        assert_eq!(
            (nic.gate_parked_len(), nic.staged_out_of_order_len(0)),
            (2, 1)
        );
        // Still on the links when the peers go: a retransmit, and acks.
        send(&tx_a, 0, 0);
        nic.rearm(1);
        assert_eq!(nic.bounce_in_use(), 0, "the left-over completion went");
        assert_eq!((nic.rx_stats(), nic.next_gseq()), (RxStats::default(), 0));
        assert_eq!(
            (nic.expected_seq(0), nic.staged_out_of_order_len(0)),
            (0, 0)
        );
        // The next peer starts over on QP 0; QP 1 is not polled.
        send(&tx_b, 2, 4);
        send(&tx_a, 0, 0);
        assert_eq!(nic.poll().unwrap(), 1);
        let c = nic.take_block(8);
        assert_eq!(
            (c.len(), c[0].msg, nic.staged(c[0].bounce)),
            (1, MsgHandle(0), &[0u8][..])
        );
        let stats = nic.rx_stats();
        assert_eq!(
            (stats.duplicates, stats.gate_released, stats.acks_sent),
            (0, 1, 1)
        );
        // The first peers' ack is still on the link (the sender's end
        // discards it when it re-arms); the new one acks sequence 0 only.
        let acks: Vec<_> = std::iter::from_fn(|| tx_a.try_recv().unwrap()).collect();
        let Some(Frame::Ack(last)) = acks.last() else {
            panic!("an ack last, got {acks:?}")
        };
        assert_eq!((acks.len(), last.cumulative, last.sack.len()), (2, 1, 0));
        assert_eq!(nic.qp_count(), 2);
    }

    #[test]
    fn ungated_packets_bypass_an_enabled_gate() {
        let (tx, mut nic) = nic_pair(4);
        nic.enable_total_order();
        tx.send(eager_packet(env(0), vec![9])).unwrap();
        assert_eq!(nic.poll().unwrap(), 1, "no gseq, no gating");
        assert_eq!(nic.next_gseq(), 0);
        assert_eq!(nic.rx_stats().gate_released, 0);
    }

    /// Two senders over a hostile wire into one total-order NIC: delivery
    /// must come out exactly once in global order, whatever the faults did.
    fn faulty_two_qp_total_order(staging_capacity: usize) -> RxStats {
        use crate::reliable::ReliableSender;
        use otm_base::FaultPlan;
        let (tx_a, rx_a) = connected_pair();
        let (tx_b, rx_b) = connected_pair();
        let mut nic = RecvNic::new(rx_a, BouncePool::new(64, 64));
        nic.add_qp(rx_b);
        nic.set_staging_capacity(staging_capacity);
        nic.enable_total_order();
        nic.set_faults(
            FaultPlan::new(0x707a1)
                .with_drop_permille(120)
                .with_duplicate_permille(120)
                .with_reorder_permille(120)
                .with_reorder_window(4),
        );
        let mut senders = [
            ReliableSender::with_limits(tx_a, 4, 32),
            ReliableSender::with_limits(tx_b, 4, 32),
        ];
        // Global stream 0..40 alternates between the two QPs; the
        // ReliableSender stamps each QP's per-QP seq itself.
        let n = 40u64;
        for g in 0..n {
            let qp = (g % 2) as usize;
            let pkt = eager_packet(env(g as u32), vec![g as u8]).with_gseq(g);
            while !senders[qp].can_send() {
                senders[qp].poll().unwrap();
                nic.poll().unwrap();
            }
            senders[qp].send(pkt).unwrap();
        }
        let mut got = Vec::new();
        for _ in 0..4096 {
            for s in &mut senders {
                s.poll().unwrap();
            }
            nic.poll().unwrap();
            for c in nic.take_block(64) {
                got.push(nic.staged(c.bounce)[0]);
                let b = c.bounce;
                nic.release(b);
            }
            if got.len() == n as usize && senders.iter().all(|s| s.unacked() == 0) {
                break;
            }
        }
        assert_eq!(
            got,
            (0..n as u8).collect::<Vec<_>>(),
            "exactly-once global-order delivery across QPs \
             (staging capacity {staging_capacity})"
        );
        nic.rx_stats()
    }

    #[test]
    fn faulty_two_qp_total_order_holds_without_staging() {
        let stats = faulty_two_qp_total_order(0);
        assert_eq!(stats.staged_out_of_order, 0, "capacity 0 never stages");
        assert!(
            stats.stage_overflow > 0,
            "reorders must have been discarded"
        );
    }

    #[test]
    fn faulty_two_qp_total_order_holds_with_staging() {
        let stats = faulty_two_qp_total_order(DEFAULT_STAGING_CAPACITY);
        assert!(stats.gate_parked > 0, "cross-QP skew must have parked");
    }

    #[test]
    fn faulty_wire_without_staging_delivers_exactly_once_in_order() {
        let (rx, tx) = faulty_wire_roundtrip(0);
        assert_eq!(rx.staged_out_of_order, 0, "capacity 0 never stages");
        assert!(rx.stage_overflow > 0, "reorders must have been discarded");
        assert_eq!(tx.fast_retransmits, 0, "nothing staged, nothing SACKed");
    }

    #[test]
    fn faulty_wire_with_staging_delivers_exactly_once_in_order() {
        let (rx, tx) = faulty_wire_roundtrip(DEFAULT_STAGING_CAPACITY);
        assert!(rx.staged_out_of_order > 0, "reorders must have staged");
        // The identical fault schedule costs strictly fewer retransmits
        // with staging + SACK than with every out-of-order packet discarded.
        let (_, discard) = faulty_wire_roundtrip(0);
        assert!(
            tx.retransmits < discard.retransmits,
            "staging ({}) must beat discarding ({}) on the same seed",
            tx.retransmits,
            discard.retransmits
        );
    }
}
