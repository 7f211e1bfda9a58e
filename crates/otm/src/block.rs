//! Shared state coordinating one block of parallel matching.
//!
//! The coordinator (the thread owning [`OtmEngine`](crate::engine::OtmEngine))
//! publishes a block of up to `N` messages, wakes the persistent worker
//! pool, and waits for every active lane to settle. Within a block, workers
//! synchronize through three monotone bitmaps that implement the paper's
//! partial barriers (§III-D1):
//!
//! * `booked` — lane *i* has finished its optimistic search and booked its
//!   candidate; lane *i* waits for all bits `j < i` before conflict
//!   detection;
//! * `detected` — lane *i* has published its conflict flags; waiting on the
//!   lower bits makes the `conflicted`/`forced` flag bitmaps of all earlier
//!   lanes readable;
//! * `settled` — lane *i* has produced its final result; the slow path
//!   waits on the lower bits before re-searching.
//!
//! All bitmaps are reset by the coordinator between blocks, while no worker
//! is inside the block — workers are gated by the epoch in [`Control`].

use crate::index::PrqIndexes;
use crate::table::ReceiveTable;
use mpi_matching::MsgHandle;
use otm_base::{Envelope, InlineHashes};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

/// Per-communicator matching state shared with the workers.
#[derive(Debug)]
pub struct CommShared {
    /// The fixed-size receive descriptor table.
    pub table: ReceiveTable,
    /// The four posted-receive index structures.
    pub prq: PrqIndexes,
    /// The communicator's matching hints (§VII). Fixed at communicator
    /// creation, like the DPA resources themselves (§IV-E).
    pub hints: otm_base::CommHints,
}

/// One lane's input for the current block.
#[derive(Debug, Clone)]
pub struct LaneData {
    /// The incoming message's envelope.
    pub env: Envelope,
    /// The caller's message handle.
    pub handle: MsgHandle,
    /// Sender-side inline hashes (§IV-D).
    pub hashes: InlineHashes,
    /// The communicator state the message matches against (pre-resolved by
    /// the coordinator so workers never touch the communicator map).
    pub comm: Arc<CommShared>,
}

/// Lane result encoding stored in [`BlockShared::results`].
pub mod result_code {
    /// Lane has not produced a result yet.
    pub const UNSET: u64 = u64::MAX;
    /// The message was unexpected.
    pub const UNEXPECTED: u64 = u64::MAX - 1;
    // Any other value is the matched descriptor id.
}

/// Epoch/stop gate between the coordinator and the workers.
#[derive(Debug, Default)]
pub struct Control {
    /// Current block number; workers run a block when this exceeds the last
    /// epoch they processed.
    pub epoch: u64,
    /// Lanes that finished the current block.
    pub done: usize,
    /// Tells workers to exit.
    pub stop: bool,
}

/// All state shared between the coordinator and the worker pool.
#[derive(Debug)]
pub struct BlockShared {
    /// Gate + done counting.
    pub control: Mutex<Control>,
    /// Workers wait here for a new epoch.
    pub start_cv: Condvar,
    /// The coordinator waits here for `done == active`.
    pub done_cv: Condvar,
    /// The block's lanes. Written by the coordinator strictly between
    /// blocks.
    pub lanes: RwLock<Vec<LaneData>>,
    /// Monotone block number used to stamp consumed descriptors.
    pub epoch: AtomicU64,
    /// Partial-barrier bitmap: optimistic phase finished.
    pub booked: AtomicU64,
    /// Partial-barrier bitmap: conflict flags published.
    pub detected: AtomicU64,
    /// Partial-barrier bitmap: final result produced.
    pub settled: AtomicU64,
    /// Flag bitmap: lane detected a direct conflict.
    pub conflicted: AtomicU64,
    /// Flag bitmap: lane skipped a lower-booked receive during the search
    /// (early-booking check) — poisons the fast path of later lanes.
    pub forced: AtomicU64,
    /// Per-lane result (see [`result_code`]).
    pub results: Vec<AtomicU64>,
    /// Per-lane descriptor booked in the optimistic phase (`u32::MAX` =
    /// none); the coordinator clears these bitmaps at block end.
    pub booked_desc: Vec<AtomicU32>,
    /// Set when a worker panicked; the engine refuses further work.
    pub poisoned: AtomicBool,
}

impl BlockShared {
    /// Creates the shared state for a pool of `n_lanes` workers.
    pub fn new(n_lanes: usize) -> Self {
        BlockShared {
            control: Mutex::new(Control::default()),
            start_cv: Condvar::new(),
            done_cv: Condvar::new(),
            lanes: RwLock::new(Vec::new()),
            epoch: AtomicU64::new(0),
            booked: AtomicU64::new(0),
            detected: AtomicU64::new(0),
            settled: AtomicU64::new(0),
            conflicted: AtomicU64::new(0),
            forced: AtomicU64::new(0),
            results: (0..n_lanes)
                .map(|_| AtomicU64::new(result_code::UNSET))
                .collect(),
            booked_desc: (0..n_lanes).map(|_| AtomicU32::new(u32::MAX)).collect(),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Resets the per-block state. Coordinator context, no block in flight.
    pub fn reset_for_block(&self) {
        self.booked.store(0, Ordering::Relaxed);
        self.detected.store(0, Ordering::Relaxed);
        self.settled.store(0, Ordering::Relaxed);
        self.conflicted.store(0, Ordering::Relaxed);
        self.forced.store(0, Ordering::Relaxed);
        for r in &self.results {
            r.store(result_code::UNSET, Ordering::Relaxed);
        }
        for b in &self.booked_desc {
            b.store(u32::MAX, Ordering::Relaxed);
        }
    }

    /// Spin-waits until every bit of `mask` is set in `bitmap`.
    ///
    /// Intra-block waits are expected to be short (the peer threads are
    /// running the same few-microsecond phases), so we spin briefly with a
    /// CPU relaxation hint; past that, the peer is evidently not running
    /// (fewer cores than lanes — this simulation host, unlike a 256-thread
    /// DPA, may be heavily oversubscribed), so we yield on every further
    /// iteration to let the scheduler run it.
    #[inline]
    pub fn wait_bits(bitmap: &AtomicU64, mask: u64) {
        let mut spins = 0u32;
        while bitmap.load(Ordering::Acquire) & mask != mask {
            if spins < 32 {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Bit mask of all lanes strictly below `lane`.
#[inline]
pub fn below_mask(lane: usize) -> u64 {
    (1u64 << lane) - 1
}

/// Bit mask of `n` active lanes (lanes `0..n`).
#[inline]
pub fn active_mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_cover_expected_lanes() {
        assert_eq!(below_mask(0), 0);
        assert_eq!(below_mask(3), 0b111);
        assert_eq!(active_mask(0), 0);
        assert_eq!(active_mask(4), 0b1111);
        assert_eq!(active_mask(64), u64::MAX);
    }

    #[test]
    fn reset_clears_everything() {
        let s = BlockShared::new(4);
        s.booked.store(7, Ordering::Relaxed);
        s.conflicted.store(3, Ordering::Relaxed);
        s.results[2].store(5, Ordering::Relaxed);
        s.booked_desc[1].store(9, Ordering::Relaxed);
        s.reset_for_block();
        assert_eq!(s.booked.load(Ordering::Relaxed), 0);
        assert_eq!(s.conflicted.load(Ordering::Relaxed), 0);
        assert_eq!(s.results[2].load(Ordering::Relaxed), result_code::UNSET);
        assert_eq!(s.booked_desc[1].load(Ordering::Relaxed), u32::MAX);
    }

    #[test]
    fn wait_bits_returns_once_mask_is_set() {
        use std::sync::Arc;
        let bitmap = Arc::new(AtomicU64::new(0));
        let b2 = Arc::clone(&bitmap);
        let setter = std::thread::spawn(move || {
            for i in 0..3 {
                std::thread::sleep(std::time::Duration::from_millis(1));
                b2.fetch_or(1 << i, Ordering::Release);
            }
        });
        BlockShared::wait_bits(&bitmap, 0b111);
        assert_eq!(bitmap.load(Ordering::Acquire) & 0b111, 0b111);
        setter.join().unwrap();
    }
}
