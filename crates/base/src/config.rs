//! Configuration shared by the matching engines.
//!
//! The prototype in the paper (§VI) is configured with hash tables twice the
//! maximum number of in-flight receives (1024 in-flight, so 2048 bins) and 32
//! DPA threads, "limited by the bookkeeping bitmap size". We bound the block
//! size by 64 because our booking bitmaps are `AtomicU64`s.

use crate::error::MatchError;
use crate::hash::mix64;

/// Maximum number of messages matched concurrently in one block.
///
/// Bounded by the width of the booking bitmap (one bit per thread).
pub const MAX_BLOCK_THREADS: usize = 64;

/// Largest accepted [`MatchConfig::ring_capacity`]: every communicator shard
/// allocates that many slots rounded up to a power of two, so an unbounded
/// value from a command line overflows the rounding or aborts the allocator.
const MAX_RING_CAPACITY: usize = 1 << 20;

/// Largest accepted [`MatchConfig::bins`]. Every communicator allocates
/// `3 · bins + 1` list ends per queue up front, so an unbounded value from a
/// command line aborts the allocator, and a list's position is 32-bit. The
/// repository's configurations use at most 2,048.
pub const MAX_BINS: usize = 1 << 20;

/// Largest accepted [`MatchConfig::max_receives`] and
/// [`MatchConfig::max_unexpected`]: slots are numbered with 32-bit ids below
/// `u32::MAX`, which the queues' lists reserve as their end marker.
pub const MAX_SLOTS: usize = u32::MAX as usize;

/// How the drain coordinator packs queued arrivals into optimistic blocks.
///
/// MPI only constrains matching order *within* a communicator, so commands on
/// different communicators may be reordered freely without changing any
/// observable match outcome. The packing policy decides whether the drain
/// exploits that freedom (§IV-E execution-group scheduling). It is not a
/// configuration field: the engine drains [`PackingPolicy::CrossComm`], and
/// only tests and fig8's `--packing` A/B row select the reference packer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackingPolicy {
    /// The reference packer; nothing at run time selects it. Packs only
    /// *consecutive* arrivals from the global submission order: any
    /// interleaved post — or an arrival on another communicator followed
    /// by a post — cuts the block short, degrading mixed traffic toward
    /// one-message blocks.
    Consecutive,
    /// Reorder across communicators: assemble blocks from the FIFO heads of
    /// per-communicator lanes, hoisting posts ahead of other communicators'
    /// arrivals. Per-communicator order is still strictly preserved.
    CrossComm,
}

/// Tunable parameters of the optimistic matching engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchConfig {
    /// Number of bins in each of the three hash-table indexes. Must be in
    /// `1..=MAX_BINS`.
    pub bins: usize,
    /// Capacity of the receive descriptor table — the maximum number of
    /// receives posted at the same time (§III-B). Exceeding it makes the
    /// engine report [`MatchError::ReceiveTableFull`], upon which an MPI
    /// implementation falls back to software tag matching. Must be in
    /// `1..=MAX_SLOTS`.
    pub max_receives: usize,
    /// Capacity of the unexpected-message store. Like the receive table this
    /// is a fixed NIC-memory resource. Must be in `1..=MAX_SLOTS`.
    pub max_unexpected: usize,
    /// The block width: how many messages one block matches optimistically
    /// against each other (the paper's `N` DPA threads; 32 in the
    /// prototype). The engine steps that many lanes through the protocol on
    /// the calling thread and starts none of its own. Must be in
    /// `1..=MAX_BLOCK_THREADS`.
    pub block_threads: usize,
    /// Enable the fast conflict-resolution path (§III-D3a). Disabling forces
    /// every conflicted thread through the slow path — the WC-SP
    /// configuration of Fig. 8.
    pub fast_path: bool,
    /// Enable the early-booking check (§IV-D): skip receives already booked
    /// by lower-id threads during the optimistic phase.
    pub early_booking_check: bool,
    /// Cap on the number of arrivals one communicator lane may contribute to
    /// a single block under [`PackingPolicy::CrossComm`]. `None` (the
    /// default) keeps the greedy fill — one deep lane may own the whole
    /// block. A fair scheduler layered above (the `matchd` deficit
    /// round-robin) sets this so a flooding tenant's lane cannot crowd the
    /// other lanes out of every block. Ignored under
    /// [`PackingPolicy::Consecutive`].
    pub lane_quota: Option<usize>,
    /// Capacity of each communicator's submission ring (rounded up to a
    /// power of two by the ring). A full ring reports the retryable
    /// [`MatchError::SubmissionRingFull`] backpressure signal. Must be in
    /// `1..=1 << 20`.
    pub ring_capacity: usize,
}

impl Default for MatchConfig {
    /// The paper's prototype configuration (§VI): 1024 in-flight receives,
    /// hash tables at twice that, 32 threads, all optimizations on except the
    /// early-booking check (presented as optional in §IV-D).
    fn default() -> Self {
        MatchConfig {
            bins: 2048,
            max_receives: 1024,
            max_unexpected: 1024,
            block_threads: 32,
            fast_path: true,
            early_booking_check: false,
            lane_quota: None,
            ring_capacity: 1024,
        }
    }
}

impl MatchConfig {
    /// A small configuration convenient for unit tests: 16 bins, 64 receives,
    /// 4 threads.
    pub fn small() -> Self {
        MatchConfig {
            bins: 16,
            max_receives: 64,
            max_unexpected: 64,
            block_threads: 4,
            ..MatchConfig::default()
        }
    }

    /// Sets the number of bins per hash table.
    #[must_use]
    pub fn with_bins(mut self, bins: usize) -> Self {
        self.bins = bins;
        self
    }

    /// Sets the receive-descriptor-table capacity.
    #[must_use]
    pub fn with_max_receives(mut self, max: usize) -> Self {
        self.max_receives = max;
        self
    }

    /// Sets the unexpected-message-store capacity.
    #[must_use]
    pub fn with_max_unexpected(mut self, max: usize) -> Self {
        self.max_unexpected = max;
        self
    }

    /// Sets the block width (the paper's `N`).
    #[must_use]
    pub fn with_block_threads(mut self, n: usize) -> Self {
        self.block_threads = n;
        self
    }

    /// Enables or disables the fast conflict-resolution path.
    #[must_use]
    pub fn with_fast_path(mut self, on: bool) -> Self {
        self.fast_path = on;
        self
    }

    /// Enables or disables the early-booking check.
    #[must_use]
    pub fn with_early_booking_check(mut self, on: bool) -> Self {
        self.early_booking_check = on;
        self
    }

    /// Caps the arrivals one lane contributes per cross-comm block
    /// (`None` = unlimited greedy fill).
    #[must_use]
    pub fn with_lane_quota(mut self, quota: Option<usize>) -> Self {
        self.lane_quota = quota;
        self
    }

    /// Sets the per-communicator submission-ring capacity (rounded up to a
    /// power of two by the ring).
    #[must_use]
    pub fn with_ring_capacity(mut self, capacity: usize) -> Self {
        self.ring_capacity = capacity;
        self
    }

    /// Validates the configuration, returning a descriptive error for any
    /// parameter outside its legal range.
    pub fn validate(&self) -> Result<(), MatchError> {
        for (name, value, max) in [
            ("bins", self.bins, MAX_BINS),
            ("max_receives", self.max_receives, MAX_SLOTS),
            ("max_unexpected", self.max_unexpected, MAX_SLOTS),
            ("block_threads", self.block_threads, MAX_BLOCK_THREADS),
            ("ring_capacity", self.ring_capacity, MAX_RING_CAPACITY),
        ] {
            if !(1..=max).contains(&value) {
                return Err(MatchError::InvalidConfig(format!(
                    "{name} must be in 1..={max}, got {value}"
                )));
            }
        }
        if self.lane_quota == Some(0) {
            return Err(MatchError::InvalidConfig(
                "lane_quota must be >= 1 when set".into(),
            ));
        }
        Ok(())
    }
}

/// A deterministic pseudo-random stream for fault injection.
///
/// This is a `splitmix64` generator built on the same [`mix64`] finalizer the
/// inline-hash optimization uses (§IV-D), so fault injection adds no new
/// dependency and two runs from the same seed make *exactly* the same
/// decisions — the property the chaos oracle relies on to compare a faulty
/// run against its fault-free twin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// A stream seeded with `seed`. Equal seeds produce equal streams.
    pub fn new(seed: u64) -> Self {
        FaultRng { state: seed }
    }

    /// The next 64-bit value of the stream.
    pub fn next_u64(&mut self) -> u64 {
        // splitmix64: advance by the golden-ratio increment, finalize.
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.state)
    }

    /// A uniformly distributed value in `0..bound` (`0` when `bound == 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }

    /// Draws one Bernoulli trial: true with probability `permille`/1000.
    pub fn chance(&mut self, permille: u32) -> bool {
        self.below(1000) < u64::from(permille.min(1000))
    }
}

/// A seeded, declarative plan for injecting faults into the simulated wire
/// and backend (the `dpa-sim` crate's `WireFaults` / `FaultInjectingBackend`
/// interpret it).
///
/// All rates are expressed in **permille** (0..=1000, i.e. tenths of a
/// percent) so the plan stays `Eq` without dragging floating point into
/// config equality. The default plan is inert: every
/// rate zero, so wrapping a path with `FaultPlan::default()` changes
/// nothing.
///
/// The plan is deterministic: a given `(seed, rates)` pair injects exactly
/// the same faults in every run, which is what lets the chaos tests assert
/// that the matched (receive, message) pairs under faults equal the
/// fault-free run's.
///
/// ```
/// use otm_base::FaultPlan;
///
/// // 10% drops, 10% duplicates, 10% reorders within a 4-packet window.
/// let plan = FaultPlan::new(42)
///     .with_drop_permille(100)
///     .with_duplicate_permille(100)
///     .with_reorder_permille(100)
///     .with_reorder_window(4);
/// plan.validate().expect("rates are in range");
/// assert!(plan.is_active());
///
/// // Equal seeds make equal decision streams.
/// let (mut a, mut b) = (plan.rng(), plan.rng());
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the decision stream ([`FaultPlan::rng`]).
    pub seed: u64,
    /// Probability (permille) that a wire packet is silently dropped.
    pub drop_permille: u32,
    /// Probability (permille) that a wire packet is delivered twice.
    pub duplicate_permille: u32,
    /// Probability (permille) that a wire packet is held back and released
    /// out of order within [`FaultPlan::reorder_window`] delivery polls.
    pub reorder_permille: u32,
    /// Probability (permille) that a wire packet is delayed by
    /// [`FaultPlan::delay_polls`] delivery polls (delivered late, in order
    /// relative to other held packets).
    pub delay_permille: u32,
    /// Probability (permille) that a backend drain reports a transient,
    /// retryable [`MatchError`] without consuming any command.
    pub transient_fail_permille: u32,
    /// Probability (permille) that a backend drain stalls: it makes no
    /// progress and reports no error, as a wedged worker would.
    pub stall_permille: u32,
    /// Window (in delivery polls) within which a reordered packet is
    /// released. Must be >= 1 when `reorder_permille > 0`.
    pub reorder_window: usize,
    /// How many delivery polls a delayed packet is held. Must be >= 1 when
    /// `delay_permille > 0`.
    pub delay_polls: usize,
    /// Hard bound on the total number of injected faults (`None` =
    /// unbounded). Property tests set this to guarantee liveness: after the
    /// budget is spent the wire becomes perfect, so any retransmit
    /// eventually lands.
    pub max_faults: Option<u64>,
}

impl Default for FaultPlan {
    /// An inert plan: all rates zero, unbounded budget, seed 0.
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            drop_permille: 0,
            duplicate_permille: 0,
            reorder_permille: 0,
            delay_permille: 0,
            transient_fail_permille: 0,
            stall_permille: 0,
            reorder_window: 4,
            delay_polls: 2,
            max_faults: None,
        }
    }
}

impl FaultPlan {
    /// An inert plan with the given seed; compose rates with the `with_*`
    /// builders.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Sets the packet-drop rate (permille).
    #[must_use]
    pub fn with_drop_permille(mut self, p: u32) -> Self {
        self.drop_permille = p;
        self
    }

    /// Sets the packet-duplication rate (permille).
    #[must_use]
    pub fn with_duplicate_permille(mut self, p: u32) -> Self {
        self.duplicate_permille = p;
        self
    }

    /// Sets the packet-reorder rate (permille).
    #[must_use]
    pub fn with_reorder_permille(mut self, p: u32) -> Self {
        self.reorder_permille = p;
        self
    }

    /// Sets the packet-delay rate (permille).
    #[must_use]
    pub fn with_delay_permille(mut self, p: u32) -> Self {
        self.delay_permille = p;
        self
    }

    /// Sets the transient backend-failure rate (permille).
    #[must_use]
    pub fn with_transient_fail_permille(mut self, p: u32) -> Self {
        self.transient_fail_permille = p;
        self
    }

    /// Sets the backend worker-stall rate (permille).
    #[must_use]
    pub fn with_stall_permille(mut self, p: u32) -> Self {
        self.stall_permille = p;
        self
    }

    /// Sets the reorder window (delivery polls).
    #[must_use]
    pub fn with_reorder_window(mut self, polls: usize) -> Self {
        self.reorder_window = polls;
        self
    }

    /// Sets the delay length (delivery polls).
    #[must_use]
    pub fn with_delay_polls(mut self, polls: usize) -> Self {
        self.delay_polls = polls;
        self
    }

    /// Bounds the total number of injected faults.
    #[must_use]
    pub fn with_max_faults(mut self, budget: u64) -> Self {
        self.max_faults = Some(budget);
        self
    }

    /// Re-seeds the plan, e.g. to derive per-node plans from one base seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether the plan can inject anything at all. Inert plans let the
    /// wrapped paths skip fault bookkeeping entirely.
    pub fn is_active(&self) -> bool {
        (self.drop_permille
            | self.duplicate_permille
            | self.reorder_permille
            | self.delay_permille
            | self.transient_fail_permille
            | self.stall_permille)
            > 0
            && self.max_faults != Some(0)
    }

    /// The plan's decision stream. Every call returns a fresh stream from
    /// the same seed.
    pub fn rng(&self) -> FaultRng {
        FaultRng::new(self.seed)
    }

    /// Validates the plan: rates must be permille (<= 1000) and the hold
    /// windows positive whenever their rate is non-zero.
    pub fn validate(&self) -> Result<(), MatchError> {
        for (name, rate) in [
            ("drop_permille", self.drop_permille),
            ("duplicate_permille", self.duplicate_permille),
            ("reorder_permille", self.reorder_permille),
            ("delay_permille", self.delay_permille),
            ("transient_fail_permille", self.transient_fail_permille),
            ("stall_permille", self.stall_permille),
        ] {
            if rate > 1000 {
                return Err(MatchError::InvalidConfig(format!(
                    "{name} must be <= 1000 (permille), got {rate}"
                )));
            }
        }
        if self.reorder_permille > 0 && self.reorder_window == 0 {
            return Err(MatchError::InvalidConfig(
                "reorder_window must be >= 1 when reorder_permille > 0".into(),
            ));
        }
        if self.delay_permille > 0 && self.delay_polls == 0 {
            return Err(MatchError::InvalidConfig(
                "delay_polls must be >= 1 when delay_permille > 0".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_prototype() {
        let c = MatchConfig::default();
        assert_eq!(c.max_receives, 1024);
        assert_eq!(
            c.bins,
            2 * c.max_receives,
            "hash tables twice the in-flight receives (§VI)"
        );
        assert_eq!(c.block_threads, 32, "32 DPA threads (§VI)");
        assert!(c.fast_path);
        c.validate().unwrap();
    }

    #[test]
    fn builders_compose() {
        let c = MatchConfig::default()
            .with_bins(64)
            .with_max_receives(128)
            .with_max_unexpected(256)
            .with_block_threads(8)
            .with_fast_path(false)
            .with_early_booking_check(true)
            .with_ring_capacity(256);
        assert_eq!(c.bins, 64);
        assert_eq!(c.max_receives, 128);
        assert_eq!(c.max_unexpected, 256);
        assert_eq!(c.block_threads, 8);
        assert!(!c.fast_path);
        assert!(c.early_booking_check);
        assert_eq!(c.ring_capacity, 256);
        c.validate().unwrap();
    }

    #[test]
    fn ring_capacity_defaults_to_1024() {
        assert_eq!(MatchConfig::default().ring_capacity, 1024);
        assert_eq!(MatchConfig::small().ring_capacity, 1024);
    }

    #[test]
    fn zero_ring_capacity_is_rejected() {
        assert!(MatchConfig::default()
            .with_ring_capacity(0)
            .validate()
            .is_err());
        assert!(MatchConfig::default()
            .with_ring_capacity(1)
            .validate()
            .is_ok());
    }

    #[test]
    fn ring_capacity_is_bounded_above() {
        assert!(MatchConfig::default()
            .with_ring_capacity(MAX_RING_CAPACITY)
            .validate()
            .is_ok());
        assert!(MatchConfig::default()
            .with_ring_capacity(MAX_RING_CAPACITY + 1)
            .validate()
            .is_err());
    }

    #[test]
    fn bins_are_bounded_above() {
        let bins = |n| MatchConfig::default().with_bins(n).validate();
        assert!(bins(MAX_BINS).is_ok());
        assert!(bins(MAX_BINS + 1).is_err());
        // The value that aborted the allocator before it was bounded.
        assert!(bins(1 << 40).is_err());
    }

    #[test]
    fn slot_capacities_stay_below_the_end_marker() {
        let receives = |n| MatchConfig::default().with_max_receives(n).validate();
        let unexpected = |n| MatchConfig::default().with_max_unexpected(n).validate();
        assert!(receives(MAX_SLOTS).is_ok() && unexpected(MAX_SLOTS).is_ok());
        assert!(receives(MAX_SLOTS + 1).is_err() && unexpected(MAX_SLOTS + 1).is_err());
    }

    #[test]
    fn zero_parameters_are_rejected() {
        assert!(MatchConfig::default().with_bins(0).validate().is_err());
        assert!(MatchConfig::default()
            .with_max_receives(0)
            .validate()
            .is_err());
        assert!(MatchConfig::default()
            .with_max_unexpected(0)
            .validate()
            .is_err());
        assert!(MatchConfig::default()
            .with_block_threads(0)
            .validate()
            .is_err());
    }

    #[test]
    fn block_threads_bounded_by_bitmap_width() {
        assert!(MatchConfig::default()
            .with_block_threads(MAX_BLOCK_THREADS)
            .validate()
            .is_ok());
        assert!(MatchConfig::default()
            .with_block_threads(MAX_BLOCK_THREADS + 1)
            .validate()
            .is_err());
    }

    #[test]
    fn small_config_is_valid() {
        MatchConfig::small().validate().unwrap();
    }

    #[test]
    fn fault_rng_is_deterministic_and_seed_sensitive() {
        let mut a = FaultRng::new(7);
        let mut b = FaultRng::new(7);
        let mut c = FaultRng::new(8);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..32).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys, "same seed, same stream");
        assert_ne!(xs, zs, "different seed, different stream");
    }

    #[test]
    fn fault_rng_chance_tracks_permille_rate() {
        let mut rng = FaultRng::new(99);
        let hits = (0..10_000).filter(|_| rng.chance(100)).count();
        // 10% nominal over 10k trials; a fair stream stays well inside 8–12%.
        assert!((800..=1200).contains(&hits), "10% rate drew {hits}/10000");
        let mut rng = FaultRng::new(99);
        assert!((0..1000).all(|_| !rng.chance(0)), "0 permille never fires");
        let mut rng = FaultRng::new(99);
        assert!(
            (0..1000).all(|_| rng.chance(1000)),
            "1000 permille always fires"
        );
    }

    #[test]
    fn fault_plan_default_is_inert_and_valid() {
        let plan = FaultPlan::default();
        assert!(!plan.is_active());
        plan.validate().unwrap();
    }

    #[test]
    fn fault_plan_builders_compose_and_validate() {
        let plan = FaultPlan::new(42)
            .with_drop_permille(100)
            .with_duplicate_permille(100)
            .with_reorder_permille(100)
            .with_delay_permille(50)
            .with_transient_fail_permille(200)
            .with_stall_permille(10)
            .with_reorder_window(8)
            .with_delay_polls(3)
            .with_max_faults(1000);
        assert!(plan.is_active());
        plan.validate().unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.max_faults, Some(1000));
    }

    #[test]
    fn fault_plan_rejects_out_of_range_rates_and_zero_windows() {
        assert!(FaultPlan::new(1)
            .with_drop_permille(1001)
            .validate()
            .is_err());
        assert!(FaultPlan::new(1)
            .with_reorder_permille(10)
            .with_reorder_window(0)
            .validate()
            .is_err());
        assert!(FaultPlan::new(1)
            .with_delay_permille(10)
            .with_delay_polls(0)
            .validate()
            .is_err());
        // A zero rate makes the window irrelevant.
        assert!(FaultPlan::new(1).with_reorder_window(0).validate().is_ok());
    }

    #[test]
    fn fault_plan_with_zero_budget_is_inert() {
        let plan = FaultPlan::new(3).with_drop_permille(500).with_max_faults(0);
        assert!(!plan.is_active());
    }

    #[test]
    fn fault_plan_rng_streams_are_reproducible() {
        let plan = FaultPlan::new(0xfeed);
        let (mut a, mut b) = (plan.rng(), plan.rng());
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
