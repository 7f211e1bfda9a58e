//! Engine statistics: conflict behaviour, resolution paths, search depths.
//!
//! The message-rate benchmark of Fig. 8 distinguishes the no-conflict case
//! (optimistic matching succeeds outright), the with-conflict fast-path case
//! (WC-FP) and the with-conflict slow-path case (WC-SP); these counters let
//! the harness verify which path actually ran.
//!
//! Nothing is counted atomically where it happens. A block's lanes and its
//! coordinator fill a `Tally` of plain integers in the block arena, a
//! drain's posts one in the drain arena, and the engine merges a tally
//! into its published [`StatsSnapshot`] once: when the block ends, when the
//! drain exits, right away for a direct `post`. That snapshot is the one
//! record of every count; the registry's counters are read from it. A
//! reader never sees a partial block, and neither a message nor a block
//! costs a read-modify-write for being counted.

pub use mpi_matching::stats::StatsSnapshot;

/// Counts not yet published: what one block, or the posts between two
/// publishes, add to the engine's statistics. A per-phase cost record (ROADMAP
/// item 1) is more fields here, not a second record.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// What the engine's counters grow by.
    pub stats: StatsSnapshot,
    /// How long the block's lanes took, if it ran to its end (timed only
    /// where spans are stamped).
    #[cfg(feature = "trace-events")]
    pub latency_ns: u64,
}
