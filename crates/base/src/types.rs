//! Strongly-typed identifiers and ordering labels.
//!
//! MPI matches messages on the triple *(source rank, tag, communicator)*. The
//! matching constraints C1 (receives match in posted order) and C2 (messages
//! from one sender do not overtake each other) additionally require a total
//! order over posted receives and over incoming messages; [`PostLabel`] and
//! [`ArrivalSeq`] are those orders. [`SeqId`] identifies a *sequence of
//! compatible receives* (§III-D3a), the unit over which the fast conflict
//! resolution path may shift candidates.

/// An MPI process rank within a communicator.
///
/// Concrete message envelopes always carry a defined rank; `MPI_ANY_SOURCE`
/// exists only on the receive side and is modelled by
/// [`SourceSel::Any`](crate::envelope::SourceSel::Any).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rank(pub u32);

impl std::fmt::Display for Rank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank{}", self.0)
    }
}

/// A user-defined MPI message tag.
///
/// Concrete message envelopes always carry a defined tag; `MPI_ANY_TAG` is
/// modelled by [`TagSel::Any`](crate::envelope::TagSel::Any).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tag(pub u32);

impl std::fmt::Display for Tag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tag{}", self.0)
    }
}

/// An MPI communicator identifier.
///
/// Each communicator owns its own set of index tables (§IV-E); all matchers in
/// this workspace key their per-communicator state on this id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CommId(pub u16);

impl CommId {
    /// `MPI_COMM_WORLD` — the default communicator used throughout the
    /// examples and benchmarks.
    pub const WORLD: CommId = CommId(0);
}

impl std::fmt::Display for CommId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if *self == CommId::WORLD {
            write!(f, "WORLD")
        } else {
            write!(f, "comm{}", self.0)
        }
    }
}

/// Monotone label reflecting the order in which receives were posted.
///
/// The paper labels "each receive with a monotonically increasing counter that
/// reflects the posting order" (§III-C); after the optimistic phase a thread
/// holding up to four index candidates selects the one with the minimum label.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PostLabel(pub u64);

impl PostLabel {
    /// The first label handed out by a fresh matcher.
    pub const ZERO: PostLabel = PostLabel(0);

    /// Returns the label following this one.
    #[inline]
    #[must_use]
    pub fn next(self) -> PostLabel {
        PostLabel(self.0 + 1)
    }
}

/// Monotone sequence number reflecting message arrival order.
///
/// Constraint C2 is defined over this order: two messages from the same
/// sender matching the same receive must match in arrival order. Unexpected
/// messages are also consumed from the UMQ in this order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArrivalSeq(pub u64);

impl ArrivalSeq {
    /// The first arrival sequence number.
    pub const ZERO: ArrivalSeq = ArrivalSeq(0);
}

/// Identifier of a *sequence of compatible receives* (§III-D3a).
///
/// The host-side post path increments the sequence id whenever a newly posted
/// receive is not compatible with the previously posted one (different source
/// selector, tag selector or communicator). During fast-path conflict
/// resolution a thread verifies that its shifted candidate still belongs to
/// the same sequence and falls back to the slow path otherwise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeqId(pub u64);

impl SeqId {
    /// The sequence id assigned to the first posted receive.
    pub const ZERO: SeqId = SeqId(0);

    /// Returns the id of the next (incompatible) sequence.
    #[inline]
    #[must_use]
    pub fn next(self) -> SeqId {
        SeqId(self.0 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Rank {
        /// Returns the raw rank number.
        #[inline]
        fn get(self) -> u32 {
            self.0
        }
    }

    impl Tag {
        /// Returns the raw tag value.
        #[inline]
        fn get(self) -> u32 {
            self.0
        }
    }

    impl CommId {
        /// Returns the raw communicator id.
        #[inline]
        fn get(self) -> u16 {
            self.0
        }
    }

    impl ArrivalSeq {
        /// Returns the sequence number following this one.
        #[inline]
        #[must_use]
        fn next(self) -> ArrivalSeq {
            ArrivalSeq(self.0 + 1)
        }
    }

    #[test]
    fn labels_are_ordered_and_monotone() {
        let l = PostLabel::ZERO;
        assert!(l < l.next());
        assert!(l.next() < l.next().next());
        let s = ArrivalSeq::ZERO;
        assert!(s < s.next());
        let q = SeqId::ZERO;
        assert!(q < q.next());
    }

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(Rank(3).to_string(), "rank3");
        assert_eq!(Tag(7).to_string(), "tag7");
        assert_eq!(CommId::WORLD.to_string(), "WORLD");
        assert_eq!(CommId(2).to_string(), "comm2");
    }

    #[test]
    fn raw_accessors_round_trip() {
        assert_eq!(Rank(42).get(), 42);
        assert_eq!(Tag(99).get(), 99);
        assert_eq!(CommId(5).get(), 5);
    }

    #[test]
    fn world_is_comm_zero() {
        assert_eq!(CommId::WORLD, CommId(0));
    }
}
