//! One block of optimistic matching: its per-lane inputs and the state the
//! lanes leave for each other and for the coordinator.
//!
//! The paper's `N` lanes are DPA hardware threads that run each phase of the
//! protocol at the same instant and synchronize through partial barriers
//! (§III-D1): before detecting conflicts lane *i* waits for every lane
//! `j < i` to have booked, and before resolving it waits for their conflict
//! flags (the slow path additionally for their results). Every one of those
//! waits is on *lower* lanes, for a phase no later than the waiter's own, so
//! the executor in `worker.rs` steps the lanes through the three phases on
//! the coordinator's thread, each phase a sweep over `0..n` in lane order:
//! when lane *i* enters a phase, all lanes have finished the phase before and
//! lanes `j < i` have finished this one. That is a legal schedule of the same
//! protocol — the one in which every lane searches before any lane consumes,
//! which is the DPA's — and the sweep order *is* the partial barrier: nothing
//! waits, and nothing is left to race. `BlockState` therefore belongs to
//! the engine and holds plain values, and so do the tables and indexes, each
//! in its communicator's shard: the lanes borrow the shards they match
//! against through `&`, by their place in the engine's directory. What the
//! lanes write through `&` is the three atomics of a descriptor slot, which
//! are the protocol itself (§III-C); what they count goes into the arena's
//! `Tally`, plain integers the coordinator publishes at block end.

use crate::index::SearchOutcome;
use crate::stats::Tally;
use crate::table::DescId;
use mpi_matching::MsgHandle;
use otm_base::{CommHints, Envelope, InlineHashes};

/// One lane's input for the current block.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneData {
    /// The incoming message's envelope.
    pub(crate) env: Envelope,
    /// The caller's message handle.
    pub(crate) handle: MsgHandle,
    /// Sender-side inline hashes (§IV-D).
    pub(crate) hashes: InlineHashes,
    /// The hints of the message's communicator (§VII).
    pub(crate) hints: CommHints,
    /// The place of the message's communicator in the engine's directory,
    /// the shards the coordinator lends to `worker::run_block`.
    pub(crate) shard: usize,
}

/// Lane result encoding stored in [`BlockState::results`].
pub(crate) mod result_code {
    /// Lane has not produced a result yet.
    pub(crate) const UNSET: u64 = u64::MAX;
    /// The message was unexpected.
    pub(crate) const UNEXPECTED: u64 = u64::MAX - 1;
    // Any other value is the matched descriptor id.
}

/// `booked_desc` value of a lane that booked nothing.
pub(crate) const NO_DESC: DescId = DescId::MAX;

/// The block arena: everything one block's lanes hand to each other and to
/// the coordinator. Allocated once per engine for `block_threads` lanes and
/// reused by every block, so running a block allocates nothing here.
#[derive(Debug)]
pub(crate) struct BlockState {
    /// Monotone block number used to stamp consumed descriptors.
    pub(crate) epoch: u64,
    /// Flag bitmap: lane detected a direct conflict.
    pub(crate) conflicted: u64,
    /// Flag bitmap: lane skipped a lower-booked receive during the search
    /// (early-booking check) — poisons the fast path of later lanes.
    pub(crate) forced: u64,
    /// The block's lanes, in arrival order.
    pub(crate) lanes: Vec<LaneData>,
    /// What the block's lanes and its coordinator count; zero between blocks.
    pub(crate) tally: Tally,
    /// Per-lane outcome of the optimistic search (of an overtaking lane, its
    /// first), carried from the first sweep to the other two and to the
    /// tally's search depths; `None` until the lane has searched.
    pub(crate) searches: Vec<Option<SearchOutcome>>,
    /// Per-lane result (see [`result_code`]).
    pub(crate) results: Vec<u64>,
    /// Per-lane descriptor booked in the optimistic phase ([`NO_DESC`] =
    /// none); the coordinator clears these bookings at block end.
    pub(crate) booked_desc: Vec<DescId>,
    /// Fail-point: the detection sweep panics on this lane.
    #[cfg(test)]
    pub fail_lane: Option<usize>,
}

impl BlockState {
    /// Creates the arena for blocks of up to `n_lanes` messages.
    pub(crate) fn new(n_lanes: usize) -> Self {
        BlockState {
            epoch: 0,
            conflicted: 0,
            forced: 0,
            lanes: Vec::with_capacity(n_lanes),
            tally: Tally::default(),
            searches: Vec::with_capacity(n_lanes),
            results: Vec::with_capacity(n_lanes),
            booked_desc: Vec::with_capacity(n_lanes),
            #[cfg(test)]
            fail_lane: None,
        }
    }

    /// Starts the next block: bumps the epoch and resets the per-lane state
    /// for the `n` lanes the caller has put in [`BlockState::lanes`].
    pub(crate) fn reset_for_block(&mut self, n: usize) {
        self.epoch += 1;
        self.conflicted = 0;
        self.forced = 0;
        self.searches.clear();
        self.searches.resize(n, None);
        self.results.clear();
        self.results.resize(n, result_code::UNSET);
        self.booked_desc.clear();
        self.booked_desc.resize(n, NO_DESC);
    }
}

/// Bit mask of all lanes strictly below `lane`.
#[inline]
pub(crate) fn below_mask(lane: usize) -> u64 {
    (1u64 << lane) - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_data_is_copy() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<LaneData>();
    }

    #[test]
    fn masks_cover_expected_lanes() {
        assert_eq!(below_mask(0), 0);
        assert_eq!(below_mask(3), 0b111);
        assert_eq!(below_mask(63), u64::MAX >> 1);
    }

    #[test]
    fn reset_clears_everything() {
        let mut s = BlockState::new(4);
        s.reset_for_block(4);
        s.conflicted = 3;
        s.forced = 1;
        s.results[2] = 5;
        s.booked_desc[1] = 9;
        s.reset_for_block(3);
        assert_eq!(s.epoch, 2);
        assert_eq!((s.conflicted, s.forced), (0, 0));
        assert_eq!(s.results, [result_code::UNSET; 3]);
        assert_eq!(s.booked_desc, [NO_DESC; 3]);
        assert_eq!(s.searches, [None; 3]);
    }
}
