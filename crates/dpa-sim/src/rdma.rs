//! An in-process RDMA transport model.
//!
//! Two endpoints exchange frames over a connected queue pair: one
//! allocation of two lanes standing in for the wire, sized like a NIC's
//! queue-pair context. Memory regions are
//! registered in an [`RdmaDomain`] under rkeys; RDMA READ pulls
//! registered bytes by `(rkey, offset, len)` — exactly the operation the
//! rendezvous protocol issues after a match (§IV-B). Message headers carry
//! the MPI envelope plus the sender-side inline hashes of §IV-D.
//!
//! The stack runs on one thread, which steps both endpoints of every queue
//! pair, so a link and a domain are plain data behind an `Rc`: a frame is
//! handed on by moving it into the peer's queue, with no lock and no atomic.
//! A queue pair is unbounded and FIFO per direction. Sends fail with
//! [`RdmaError::Disconnected`] once the peer endpoint is dropped; receives
//! first deliver every frame the peer sent before it dropped and only then
//! report it. Every reader polls.

use otm_base::hash::IntHasher;
use otm_base::{Envelope, InlineHashes};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasherDefault;
use std::rc::Rc;

/// Remote key identifying a registered memory region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RKey(pub u64);

/// Errors surfaced by the transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RdmaError {
    /// RDMA READ referenced an unknown rkey (region deregistered or never
    /// registered).
    InvalidRKey(u64),
    /// RDMA READ ran past the end of the region.
    OutOfBounds {
        /// Requested offset.
        offset: usize,
        /// Requested length.
        len: usize,
        /// Region size.
        region: usize,
    },
    /// The peer's queue pair has been dropped.
    Disconnected,
}

impl std::fmt::Display for RdmaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RdmaError::InvalidRKey(k) => write!(f, "invalid rkey {k:#x}"),
            RdmaError::OutOfBounds {
                offset,
                len,
                region,
            } => {
                write!(
                    f,
                    "RDMA read [{offset}, {offset}+{len}) outside region of {region} bytes"
                )
            }
            RdmaError::Disconnected => write!(f, "queue pair disconnected"),
        }
    }
}

impl std::error::Error for RdmaError {}

/// A protection-domain-like registry of memory regions, shared by all
/// endpoints of a simulated fabric: a clone is one more handle on the same
/// regions.
#[derive(Debug, Clone, Default)]
pub struct RdmaDomain {
    inner: Rc<RefCell<Regions>>,
}

/// The registered regions by rkey, and the last rkey handed out.
#[derive(Debug, Default)]
struct Regions {
    next_rkey: u64,
    by_rkey: HashMap<u64, Vec<u8>, BuildHasherDefault<IntHasher>>,
}

impl RdmaDomain {
    /// Creates an empty domain.
    pub fn new() -> Self {
        RdmaDomain::default()
    }

    /// Registers a buffer, returning its rkey. The buffer is immutable
    /// while registered: a sender registers its payload right before the
    /// RTS, and the receiving service deregisters it once the RDMA READ
    /// that completes the message has pulled it.
    pub(crate) fn register(&self, data: Vec<u8>) -> RKey {
        let mut inner = self.inner.borrow_mut();
        inner.next_rkey += 1;
        let key = inner.next_rkey;
        inner.by_rkey.insert(key, data);
        RKey(key)
    }

    /// RDMA READ: appends the `len` bytes at `offset` of the region to `out`
    /// (the rendezvous head the caller already holds). The result is one
    /// fresh allocation at its final size that takes the head and the
    /// region's bytes and replaces `out`; the head is never regrown, since a
    /// regrowth bypasses the allocator's per-thread cache that a fresh
    /// allocation is served from. `out` is untouched on an error.
    pub(crate) fn read_into(
        &self,
        rkey: RKey,
        offset: usize,
        len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), RdmaError> {
        let inner = self.inner.borrow();
        let region = inner.by_rkey.get(&rkey.0);
        let region = region.ok_or(RdmaError::InvalidRKey(rkey.0))?;
        let bytes = offset
            .checked_add(len)
            .and_then(|end| region.get(offset..end))
            .ok_or(RdmaError::OutOfBounds {
                offset,
                len,
                region: region.len(),
            })?;
        let mut data = Vec::with_capacity(out.len() + len);
        data.extend_from_slice(out);
        data.extend_from_slice(bytes);
        *out = data;
        Ok(())
    }

    /// Deregisters a region. Reads against the rkey fail afterwards.
    pub fn deregister(&self, rkey: RKey) {
        self.inner.borrow_mut().by_rkey.remove(&rkey.0);
    }
}

/// How a message's payload travels (§IV-B), in 16 bytes. `rkey` 0, which
/// [`RdmaDomain::register`] never hands out, marks an eager payload: it all
/// rides in the packet. Any other names the sender's registered region,
/// pulled by an RDMA READ after the match, its first `piggyback` bytes in
/// the packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Descriptor {
    rkey: u64,
    /// Payload length in bytes.
    pub(crate) len: u32,
    /// Bytes of the payload's head in the packet (0 for eager).
    pub(crate) piggyback: u32,
}

impl Descriptor {
    /// Panics if a length does not fit `u32`, or if the head claims more
    /// bytes than the payload holds (the READ behind it would underflow).
    fn new(rkey: u64, len: usize, piggyback: usize) -> Self {
        let fit = |n: usize| u32::try_from(n).expect("payload lengths fit u32");
        let (len, piggyback) = (fit(len), fit(piggyback));
        assert!(piggyback <= len, "a piggyback fits its payload");
        Descriptor {
            rkey,
            len,
            piggyback,
        }
    }

    /// The sender's registered region, `None` for an eager payload.
    pub(crate) fn rkey(self) -> Option<RKey> {
        (self.rkey != 0).then_some(RKey(self.rkey))
    }
}

/// Maximum number of `[start, end)` ranges one ack can advertise. Four
/// blocks cover four independent holes; a wire hostile enough to fragment
/// the staging buffer further is repaired by the next ack's refreshed view.
pub(crate) const MAX_SACK_BLOCKS: usize = 4;

/// Fixed-size set of selective-acknowledgement ranges carried in an ack.
///
/// Each block is a half-open `[start, end)` run of sequence numbers the
/// receiver holds in its out-of-order staging buffer. Fixed-size (rather
/// than a `Vec`) so an `Ack` stays `Copy`, matching real NIC ack
/// descriptors which budget a handful of SACK slots per packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct SackBlocks {
    blocks: [(u64, u64); MAX_SACK_BLOCKS],
    len: u8,
}

impl SackBlocks {
    /// An empty SACK set (what plain cumulative acks carry).
    pub(crate) fn empty() -> Self {
        Self::default()
    }

    /// Appends a `[start, end)` block. Returns `false` (dropping the block)
    /// once all slots are used — later acks re-advertise the survivors.
    pub(crate) fn push(&mut self, start: u64, end: u64) -> bool {
        debug_assert!(start < end, "SACK blocks are non-empty half-open ranges");
        if (self.len as usize) < MAX_SACK_BLOCKS {
            self.blocks[self.len as usize] = (start, end);
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// Whether no blocks are advertised.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates the advertised `(start, end)` ranges.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.blocks[..self.len as usize].iter().copied()
    }

    /// Whether `seq` falls inside any advertised block.
    pub(crate) fn contains(&self, seq: u64) -> bool {
        self.iter().any(|(start, end)| seq >= start && seq < end)
    }
}

/// The matching-relevant message header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MessageHeader {
    /// The MPI envelope (source, tag, communicator).
    pub(crate) env: Envelope,
    /// Sender-side inline hash values (§IV-D).
    pub(crate) hashes: InlineHashes,
    /// Protocol selection and transfer descriptor.
    pub(crate) desc: Descriptor,
}

/// The sequence number no packet is stamped with: it marks one unstamped.
const UNSTAMPED: u64 = u64::MAX;

/// One packet on the wire: header plus inline bytes (the eager payload, or
/// the rendezvous piggyback head).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WirePacket {
    /// Message header.
    pub(crate) header: MessageHeader,
    /// Inline bytes.
    pub(crate) inline: Vec<u8>,
    /// Reliability sequence number, stamped by a `ReliableSender`, read
    /// through [`WirePacket::seq`]. Unstamped marks legacy/control traffic
    /// that bypasses the reliability protocol (and is never touched by
    /// fault injection, which only targets sequenced data packets).
    seq: u64,
    /// Global delivery sequence number across all of the *receiver's* queue
    /// pairs, stamped by a sender that participates in total-order delivery
    /// (the application-replay driver stamps the trace position here), read
    /// through [`WirePacket::gseq`].
    /// Orthogonal to `seq`, which orders packets within one QP: `gseq`
    /// orders accepted packets across QPs when the receive NIC's
    /// total-order gate is enabled, and is ignored otherwise.
    gseq: u64,
}

impl WirePacket {
    /// Stamps a reliability sequence number on the packet.
    #[must_use]
    pub(crate) fn with_seq(mut self, seq: u64) -> Self {
        debug_assert_ne!(seq, UNSTAMPED, "the sentinel is no sequence number");
        self.seq = seq;
        self
    }

    /// Stamps a global (cross-QP) delivery sequence number on the packet,
    /// consumed by [`crate::nic::RecvNic`]'s total-order gate.
    #[must_use]
    pub fn with_gseq(mut self, gseq: u64) -> Self {
        debug_assert_ne!(gseq, UNSTAMPED, "the sentinel is no sequence number");
        self.gseq = gseq;
        self
    }

    /// A copy whose inline bytes are written over `buf`'s, in its allocation.
    pub(crate) fn copy_into(&self, mut buf: Vec<u8>) -> Self {
        buf.clone_from(&self.inline);
        WirePacket {
            inline: buf,
            ..*self
        }
    }

    /// The reliability sequence number, once a sender stamped one.
    pub(crate) fn seq(&self) -> Option<u64> {
        (self.seq != UNSTAMPED).then_some(self.seq)
    }

    /// The global delivery sequence number, once a sender stamped one.
    pub(crate) fn gseq(&self) -> Option<u64> {
        (self.gseq != UNSTAMPED).then_some(self.gseq)
    }
}

/// A reliability acknowledgement: the receiver has accepted every sequenced
/// packet with `seq < cumulative` (`cumulative` is the next sequence number
/// it expects). Transport control traffic: it is unsequenced, untouched by
/// fault injection, and never reaches the matching engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Ack {
    /// The receiver's next expected sequence number.
    pub(crate) cumulative: u64,
    /// Sequenced packets held above `cumulative` in the receiver's staging
    /// buffer (empty when nothing is staged).
    pub(crate) sack: SackBlocks,
}

/// What a queue pair carries: a data packet, or an acknowledgement — kept
/// out of [`WirePacket`] so no data packet (nor the window entry, staged
/// packet and completion made from it) carries an ack's SACK blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Frame {
    /// A message: eager payload or rendezvous descriptor.
    Data(WirePacket),
    /// A reliability acknowledgement.
    Ack(Ack),
}

/// One direction of a queue pair: the frames one endpoint has sent and the
/// other has not yet taken.
#[derive(Debug, Default)]
struct Lane {
    frames: RefCell<VecDeque<Frame>>,
    /// The writing endpoint was dropped (set after its last send).
    closed: Cell<bool>,
}

impl Lane {
    /// `Disconnected` when the lane is empty and its writer is gone, else
    /// `none`: what a receive that found no frame reports.
    fn nothing<T>(&self, none: T) -> Result<T, RdmaError> {
        if self.closed.get() {
            Err(RdmaError::Disconnected)
        } else {
            Ok(none)
        }
    }
}

/// One endpoint of a connected queue pair: it writes lane `side` and reads
/// the other.
#[derive(Debug)]
pub struct QueuePair {
    lanes: Rc<[Lane; 2]>,
    side: usize,
}

impl QueuePair {
    /// Sends a packet to the peer.
    pub fn send(&self, packet: WirePacket) -> Result<(), RdmaError> {
        self.push(Frame::Data(packet))
    }

    /// Sends a cumulative acknowledgement carrying `sack` to the peer.
    pub(crate) fn send_ack(&self, cumulative: u64, sack: SackBlocks) -> Result<(), RdmaError> {
        self.push(Frame::Ack(Ack { cumulative, sack }))
    }

    fn push(&self, frame: Frame) -> Result<(), RdmaError> {
        if self.rx().closed.get() {
            return Err(RdmaError::Disconnected);
        }
        self.lanes[self.side].frames.borrow_mut().push_back(frame);
        Ok(())
    }

    /// The lane this endpoint reads.
    fn rx(&self) -> &Lane {
        &self.lanes[1 - self.side]
    }

    /// Non-blocking receive of the next frame, if one has arrived.
    pub(crate) fn try_recv(&self) -> Result<Option<Frame>, RdmaError> {
        let frame = self.rx().frames.borrow_mut().pop_front();
        match frame {
            Some(frame) => Ok(Some(frame)),
            None => self.rx().nothing(None),
        }
    }

    /// Takes every frame that has arrived and returns how many: they go
    /// behind what `out` holds, and an empty `out` trades buffers with the
    /// lane, so neither side allocates in steady state.
    pub(crate) fn recv_all(&self, out: &mut VecDeque<Frame>) -> Result<usize, RdmaError> {
        let mut frames = self.rx().frames.borrow_mut();
        let n = frames.len();
        if n == 0 {
            return self.rx().nothing(0);
        }
        if out.is_empty() {
            std::mem::swap(&mut *frames, out);
        } else {
            out.append(&mut frames);
        }
        Ok(n)
    }
}

impl Drop for QueuePair {
    fn drop(&mut self) {
        self.lanes[self.side].closed.set(true);
    }
}

/// Creates a connected pair of endpoints: one allocation, and none more
/// until a direction carries its first frame (then a four-slot queue).
pub fn connected_pair() -> (QueuePair, QueuePair) {
    let lanes = Rc::<[Lane; 2]>::default();
    let peer = QueuePair {
        lanes: Rc::clone(&lanes),
        side: 1,
    };
    (QueuePair { lanes, side: 0 }, peer)
}

/// A packet for `env` that no sender has stamped yet.
fn unstamped(env: Envelope, desc: Descriptor, inline: Vec<u8>) -> WirePacket {
    let hashes = InlineHashes::of(&env);
    WirePacket {
        header: MessageHeader { env, hashes, desc },
        inline,
        seq: UNSTAMPED,
        gseq: UNSTAMPED,
    }
}

/// Convenience: builds an eager packet for `env` carrying `payload`.
pub fn eager_packet(env: Envelope, payload: Vec<u8>) -> WirePacket {
    unstamped(env, Descriptor::new(0, payload.len(), 0), payload)
}

/// Convenience: registers `payload` in `domain` and builds the RTS packet,
/// piggybacking the first `piggyback` bytes. Returns the packet and the
/// rkey (the receiving service deregisters it once it has read the region).
pub fn rendezvous_packet(
    domain: &RdmaDomain,
    env: Envelope,
    payload: Vec<u8>,
    piggyback: usize,
) -> (WirePacket, RKey) {
    let piggyback = piggyback.min(payload.len());
    let head = payload[..piggyback].to_vec();
    let len = payload.len();
    let rkey = domain.register(payload);
    (
        unstamped(env, Descriptor::new(rkey.0, len, piggyback), head),
        rkey,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use otm_base::{Rank, Tag};

    impl SackBlocks {
        /// Number of blocks advertised.
        pub(crate) fn len(&self) -> usize {
            self.len as usize
        }

        /// Highest sequence number covered by any block, if one is advertised.
        /// The sender fast-retransmits holes below this watermark.
        fn highest(&self) -> Option<u64> {
            self.iter().map(|(_, end)| end - 1).max()
        }
    }

    impl RdmaDomain {
        /// Number of currently registered regions (diagnostics).
        pub(crate) fn region_count(&self) -> usize {
            self.inner.borrow().by_rkey.len()
        }
    }

    fn env() -> Envelope {
        Envelope::world(Rank(0), Tag(1))
    }

    /// `read_into` an empty buffer.
    fn read(d: &RdmaDomain, rkey: RKey, offset: usize, len: usize) -> Result<Vec<u8>, RdmaError> {
        let mut out = Vec::new();
        d.read_into(rkey, offset, len, &mut out).map(|()| out)
    }

    /// The inline bytes of the next frame on `qp`, a data packet.
    fn inline(qp: &QueuePair) -> Vec<u8> {
        match qp.try_recv().unwrap().expect("a frame has arrived") {
            Frame::Data(packet) => packet.inline,
            Frame::Ack(ack) => panic!("expected a data packet, got {ack:?}"),
        }
    }

    #[test]
    fn queue_pair_delivers_in_order() {
        let (a, b) = connected_pair();
        a.send(eager_packet(env(), vec![1])).unwrap();
        a.send(eager_packet(env(), vec![2])).unwrap();
        assert_eq!(inline(&b), vec![1]);
        assert_eq!(inline(&b), vec![2]);
        assert_eq!(b.try_recv().unwrap(), None);
    }

    #[test]
    fn both_directions_work() {
        let (a, b) = connected_pair();
        a.send(eager_packet(env(), vec![1])).unwrap();
        b.send(eager_packet(env(), vec![2])).unwrap();
        assert_eq!(inline(&b), vec![1]);
        assert_eq!(inline(&a), vec![2]);
    }

    #[test]
    fn disconnect_is_reported() {
        let (a, b) = connected_pair();
        drop(b);
        assert_eq!(
            a.send(eager_packet(env(), vec![])),
            Err(RdmaError::Disconnected)
        );
        assert_eq!(a.try_recv(), Err(RdmaError::Disconnected));
    }

    #[test]
    fn frames_sent_before_the_peer_dropped_arrive_before_the_disconnect() {
        let (a, b) = connected_pair();
        a.send(eager_packet(env(), vec![7])).unwrap();
        a.send_ack(3, SackBlocks::empty()).unwrap();
        drop(a);
        assert!(matches!(b.try_recv(), Ok(Some(Frame::Data(p))) if p.inline == [7]));
        let mut rest = VecDeque::new();
        assert_eq!(b.recv_all(&mut rest), Ok(1));
        assert!(matches!(rest[0], Frame::Ack(ack) if ack.cumulative == 3));
        assert_eq!(b.recv_all(&mut rest), Err(RdmaError::Disconnected));
        assert_eq!(b.try_recv(), Err(RdmaError::Disconnected));
        let sent = b.send_ack(0, SackBlocks::empty());
        assert_eq!(sent, Err(RdmaError::Disconnected));
    }

    #[test]
    fn a_link_is_queue_pair_context_sized() {
        // Both directions' queues and flags: what `connected_pair`
        // allocates, before any frame.
        assert!(std::mem::size_of::<[Lane; 2]>() <= 192);
        assert!(std::mem::size_of::<QueuePair>() <= 16);
    }

    #[test]
    fn recv_all_appends_behind_what_the_caller_holds() {
        let (a, b) = connected_pair();
        let mut held: VecDeque<Frame> = [Frame::Data(eager_packet(env(), vec![0]))].into();
        a.send(eager_packet(env(), vec![1])).unwrap();
        a.send(eager_packet(env(), vec![2])).unwrap();
        assert_eq!(b.recv_all(&mut held), Ok(2));
        let bytes = held.iter().map(|f| match f {
            Frame::Data(p) => p.inline[0],
            Frame::Ack(ack) => panic!("expected data, got {ack:?}"),
        });
        assert_eq!(bytes.collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(b.recv_all(&mut held), Ok(0), "the lane is empty");
        assert_eq!(held.len(), 3, "and the caller's frames stay");
        // An empty deque trades buffers with the lane: no copy, and the
        // lane keeps a buffer for its next frame.
        a.send(eager_packet(env(), vec![3])).unwrap();
        let mut empty = VecDeque::with_capacity(16);
        assert_eq!(b.recv_all(&mut empty), Ok(1));
        assert!(empty.capacity() < 16, "took the lane's buffer");
        assert!(matches!(&empty[0], Frame::Data(p) if p.inline == [3]));
    }

    #[test]
    fn rdma_read_returns_registered_bytes() {
        let d = RdmaDomain::new();
        let rkey = d.register((0..100u8).collect());
        assert_eq!(read(&d, rkey, 0, 4).unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(read(&d, rkey, 96, 4).unwrap(), vec![96, 97, 98, 99]);
    }

    #[test]
    fn rdma_read_bounds_are_checked() {
        let d = RdmaDomain::new();
        let rkey = d.register(vec![0u8; 10]);
        assert!(matches!(
            read(&d, rkey, 8, 4),
            Err(RdmaError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn rdma_read_overflowing_range_is_rejected_not_wrapped() {
        let d = RdmaDomain::new();
        let rkey = d.register(vec![0u8; 10]);
        assert!(matches!(
            read(&d, rkey, usize::MAX, 2),
            Err(RdmaError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn deregistered_rkey_is_invalid() {
        let d = RdmaDomain::new();
        let rkey = d.register(vec![1, 2, 3]);
        d.deregister(rkey);
        assert_eq!(read(&d, rkey, 0, 1), Err(RdmaError::InvalidRKey(rkey.0)));
        assert_eq!(d.region_count(), 0);
    }

    #[test]
    fn rkeys_are_unique_across_registrations() {
        let d = RdmaDomain::new();
        let a = d.register(vec![1]);
        let b = d.register(vec![2]);
        assert_ne!(a, b);
        assert_eq!(read(&d, a, 0, 1).unwrap(), vec![1]);
        assert_eq!(read(&d, b, 0, 1).unwrap(), vec![2]);
    }

    #[test]
    fn rendezvous_packet_piggybacks_head_bytes() {
        let d = RdmaDomain::new();
        let payload: Vec<u8> = (0..32).collect();
        let (pkt, rkey) = rendezvous_packet(&d, env(), payload, 8);
        assert_eq!(pkt.inline, (0..8).collect::<Vec<u8>>());
        let desc = pkt.header.desc;
        assert_eq!(desc.rkey(), Some(rkey));
        assert_eq!(desc.len, 32);
        assert_eq!(desc.piggyback, 8);
        // The remainder is readable via RDMA.
        assert_eq!(read(&d, rkey, 8, 24).unwrap(), (8..32).collect::<Vec<u8>>());
    }

    #[test]
    fn header_carries_inline_hashes() {
        let pkt = eager_packet(env(), vec![]);
        assert_eq!(pkt.header.hashes, InlineHashes::of(&env()));
        assert_eq!(pkt.header.desc, Descriptor::new(0, 0, 0));
        assert_eq!(pkt.header.desc.rkey(), None, "rkey 0 is eager");
    }

    #[test]
    fn packets_are_unsequenced_until_stamped() {
        let pkt = eager_packet(env(), vec![1, 2]);
        assert_eq!(pkt.seq(), None);
        assert_eq!(pkt.with_seq(7).seq(), Some(7));
    }

    #[test]
    fn global_sequence_is_orthogonal_to_the_per_qp_sequence() {
        let pkt = eager_packet(env(), vec![1]);
        assert_eq!(pkt.gseq(), None, "unstamped until a sender opts in");
        let stamped = pkt.with_seq(3).with_gseq(41);
        assert_eq!(stamped.seq(), Some(3));
        assert_eq!(stamped.gseq(), Some(41));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "the sentinel is no sequence number")]
    fn the_unstamped_sentinel_is_never_stamped_as_a_sequence_number() {
        let _ = eager_packet(env(), vec![]).with_seq(UNSTAMPED);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "the sentinel is no sequence number")]
    fn the_unstamped_sentinel_is_never_stamped_as_a_global_sequence_number() {
        let _ = eager_packet(env(), vec![]).with_gseq(UNSTAMPED);
    }

    #[test]
    fn a_descriptor_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Descriptor>(), 16);
        let desc = Descriptor::new(9, u32::MAX as usize, 64);
        assert_eq!((desc.rkey(), desc.len), (Some(RKey(9)), u32::MAX));
    }

    #[test]
    #[should_panic(expected = "payload lengths fit u32")]
    fn a_descriptor_refuses_a_length_past_u32() {
        let _ = Descriptor::new(9, 1 << 32, 0);
    }

    #[test]
    #[should_panic(expected = "payload lengths fit u32")]
    fn a_descriptor_refuses_a_piggyback_past_u32() {
        let _ = Descriptor::new(9, 0, 1 << 32);
    }

    #[test]
    #[should_panic(expected = "a piggyback fits its payload")]
    fn a_descriptor_refuses_a_piggyback_past_its_length() {
        let _ = Descriptor::new(9, 64, 1000);
    }

    #[test]
    fn acks_are_frames_of_their_own_and_data_packets_stay_small() {
        let (a, b) = connected_pair();
        a.send_ack(41, SackBlocks::empty()).unwrap();
        a.send(eager_packet(env(), vec![])).unwrap();
        let Some(Frame::Ack(ack)) = b.try_recv().unwrap() else {
            panic!("expected ack");
        };
        assert_eq!(ack.cumulative, 41);
        assert!(ack.sack.is_empty(), "plain cumulative acks carry no SACK");
        assert!(matches!(b.try_recv().unwrap(), Some(Frame::Data(_))));
        // The SACK blocks ride in the ack's frame only, in the bytes a data
        // packet's frame has anyway.
        assert!(std::mem::size_of::<WirePacket>() <= 96);
        assert!(std::mem::size_of::<Frame>() <= 96);
    }

    #[test]
    fn read_into_appends_behind_the_head_and_checks_its_bounds() {
        let d = RdmaDomain::new();
        let rkey = d.register((0..32u8).collect());
        let mut data = vec![0, 1, 2, 3];
        d.read_into(rkey, 4, 28, &mut data).unwrap();
        assert_eq!(data, (0..32u8).collect::<Vec<_>>());
        assert_eq!(data.capacity(), 32, "one allocation, at the exact size");
        for (offset, len) in [(30, 4), (usize::MAX, 2)] {
            assert!(matches!(
                d.read_into(rkey, offset, len, &mut data),
                Err(RdmaError::OutOfBounds { .. })
            ));
        }
        d.deregister(rkey);
        assert_eq!(
            d.read_into(rkey, 0, 1, &mut data),
            Err(RdmaError::InvalidRKey(rkey.0))
        );
        assert_eq!(data.len(), 32, "failed reads append nothing");
    }

    #[test]
    fn sack_blocks_bound_and_query() {
        let mut sack = SackBlocks::empty();
        assert!(sack.is_empty());
        assert_eq!(sack.highest(), None);
        assert!(sack.push(5, 7));
        assert!(sack.push(9, 10));
        assert!(sack.push(12, 20));
        assert!(sack.push(30, 31));
        assert!(!sack.push(40, 41), "fifth block is dropped, not stored");
        assert_eq!(sack.len(), MAX_SACK_BLOCKS);
        assert!(sack.contains(5) && sack.contains(6) && !sack.contains(7));
        assert!(sack.contains(19) && !sack.contains(20));
        assert!(!sack.contains(40), "overflowed block is not advertised");
        assert_eq!(sack.highest(), Some(30));
        assert_eq!(
            sack.iter().collect::<Vec<_>>(),
            vec![(5, 7), (9, 10), (12, 20), (30, 31)]
        );
    }
}
