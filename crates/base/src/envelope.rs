//! Message envelopes and receive patterns with MPI wildcard semantics.
//!
//! An [`Envelope`] is what travels with a message: a fully-defined
//! *(source, tag, communicator)* triple — "the MPI specification does not
//! allow messages with wildcards" (§IV-C). A [`ReceivePattern`] is what a
//! posted receive matches on, where the source and/or the tag may be the
//! wildcard. The pattern's [`WildcardClass`] selects which of the four index
//! structures of §III-B the receive is stored in.

use crate::types::{CommId, Rank, Tag};

/// Source selector of a receive: a concrete rank or `MPI_ANY_SOURCE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceSel {
    /// Match messages from any source rank (`MPI_ANY_SOURCE`).
    Any,
    /// Match only messages from this rank.
    Rank(Rank),
}

impl SourceSel {
    /// Returns `true` if this selector accepts the given source rank.
    #[inline]
    pub(crate) fn accepts(self, src: Rank) -> bool {
        match self {
            SourceSel::Any => true,
            SourceSel::Rank(r) => r == src,
        }
    }

    /// Returns `true` if this selector is the wildcard.
    #[inline]
    pub fn is_wild(self) -> bool {
        matches!(self, SourceSel::Any)
    }
}

impl From<Rank> for SourceSel {
    fn from(r: Rank) -> Self {
        SourceSel::Rank(r)
    }
}

/// Tag selector of a receive: a concrete tag or `MPI_ANY_TAG`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TagSel {
    /// Match messages with any tag (`MPI_ANY_TAG`).
    Any,
    /// Match only messages with this tag.
    Tag(Tag),
}

impl TagSel {
    /// Returns `true` if this selector accepts the given tag.
    #[inline]
    pub(crate) fn accepts(self, tag: Tag) -> bool {
        match self {
            TagSel::Any => true,
            TagSel::Tag(t) => t == tag,
        }
    }

    /// Returns `true` if this selector is the wildcard.
    #[inline]
    pub fn is_wild(self) -> bool {
        matches!(self, TagSel::Any)
    }
}

impl From<Tag> for TagSel {
    fn from(t: Tag) -> Self {
        TagSel::Tag(t)
    }
}

/// The fully-defined matching triple carried by every incoming message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Envelope {
    /// Rank of the sending process.
    pub src: Rank,
    /// User-defined message tag.
    pub tag: Tag,
    /// Communicator the message was sent on.
    pub comm: CommId,
}

impl Envelope {
    /// Creates an envelope on the given communicator.
    #[inline]
    pub fn new(src: Rank, tag: Tag, comm: CommId) -> Self {
        Envelope { src, tag, comm }
    }

    /// Creates an envelope on `MPI_COMM_WORLD`.
    #[inline]
    pub fn world(src: Rank, tag: Tag) -> Self {
        Envelope::new(src, tag, CommId::WORLD)
    }
}

impl std::fmt::Display for Envelope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {}, {})", self.src, self.tag, self.comm)
    }
}

/// The four receive index classes of §III-B.
///
/// A posted receive is indexed in exactly one of the four data structures
/// according to which wildcards it uses; an incoming message must search all
/// four with the appropriate keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WildcardClass {
    /// No wildcards: indexed by `hash(src, tag)`.
    None,
    /// `MPI_ANY_SOURCE` only: indexed by `hash(tag)`.
    SrcWild,
    /// `MPI_ANY_TAG` only: indexed by `hash(src)`.
    TagWild,
    /// Both wildcards: kept in a single ordered list.
    BothWild,
}

impl WildcardClass {
    /// All four classes, in index order. Useful for iterating search state.
    pub const ALL: [WildcardClass; 4] = [
        WildcardClass::None,
        WildcardClass::SrcWild,
        WildcardClass::TagWild,
        WildcardClass::BothWild,
    ];

    /// A compact array index (0..4) for per-class tables.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            WildcardClass::None => 0,
            WildcardClass::SrcWild => 1,
            WildcardClass::TagWild => 2,
            WildcardClass::BothWild => 3,
        }
    }
}

/// What a posted receive matches on: wildcard-capable source and tag
/// selectors plus a concrete communicator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReceivePattern {
    /// Source selector (`MPI_ANY_SOURCE` or a concrete rank).
    pub src: SourceSel,
    /// Tag selector (`MPI_ANY_TAG` or a concrete tag).
    pub tag: TagSel,
    /// Communicator the receive was posted on. Never a wildcard in MPI.
    pub comm: CommId,
}

impl ReceivePattern {
    /// Creates a pattern on the given communicator.
    #[inline]
    pub fn new(src: impl Into<SourceSel>, tag: impl Into<TagSel>, comm: CommId) -> Self {
        ReceivePattern {
            src: src.into(),
            tag: tag.into(),
            comm,
        }
    }

    /// Creates a fully-specified pattern (no wildcards) on `MPI_COMM_WORLD`.
    #[inline]
    pub fn exact(src: Rank, tag: Tag) -> Self {
        ReceivePattern::new(src, tag, CommId::WORLD)
    }

    /// Creates an `MPI_ANY_SOURCE` pattern on `MPI_COMM_WORLD`.
    #[inline]
    pub fn any_source(tag: Tag) -> Self {
        ReceivePattern::new(SourceSel::Any, tag, CommId::WORLD)
    }

    /// Creates an `MPI_ANY_TAG` pattern on `MPI_COMM_WORLD`.
    #[inline]
    pub fn any_tag(src: Rank) -> Self {
        ReceivePattern::new(src, TagSel::Any, CommId::WORLD)
    }

    /// Creates a pattern with both wildcards on `MPI_COMM_WORLD`.
    #[inline]
    pub fn any_any() -> Self {
        ReceivePattern::new(SourceSel::Any, TagSel::Any, CommId::WORLD)
    }

    /// Returns `true` if this receive matches the given message envelope.
    ///
    /// Communicators never match across ids: MPI matching is always scoped to
    /// one communicator.
    #[inline]
    pub fn matches(&self, env: &Envelope) -> bool {
        self.comm == env.comm && self.src.accepts(env.src) && self.tag.accepts(env.tag)
    }

    /// Returns the index class this receive belongs to (§III-B).
    #[inline]
    pub fn wildcard_class(&self) -> WildcardClass {
        match (self.src.is_wild(), self.tag.is_wild()) {
            (false, false) => WildcardClass::None,
            (true, false) => WildcardClass::SrcWild,
            (false, true) => WildcardClass::TagWild,
            (true, true) => WildcardClass::BothWild,
        }
    }

    /// Compatibility relation defining *sequences of compatible receives*
    /// (§III-D3a): "same source rank and tag, posted consecutively".
    ///
    /// Two patterns are compatible iff they are identical, wildcards
    /// included — a message matching one then matches every receive of the
    /// sequence, which is what makes the fast-path shift sound.
    #[inline]
    pub fn compatible(&self, other: &ReceivePattern) -> bool {
        self == other
    }
}

impl From<Envelope> for ReceivePattern {
    /// A fully-specified pattern matching exactly this envelope.
    fn from(env: Envelope) -> Self {
        ReceivePattern::new(env.src, env.tag, env.comm)
    }
}

impl std::fmt::Display for ReceivePattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.src {
            SourceSel::Any => write!(f, "(ANY_SOURCE, ")?,
            SourceSel::Rank(r) => write!(f, "({}, ", r)?,
        }
        match self.tag {
            TagSel::Any => write!(f, "ANY_TAG, ")?,
            TagSel::Tag(t) => write!(f, "{}, ", t)?,
        }
        write!(f, "{})", self.comm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(src: u32, tag: u32) -> Envelope {
        Envelope::world(Rank(src), Tag(tag))
    }

    #[test]
    fn exact_pattern_matches_only_its_envelope() {
        let p = ReceivePattern::exact(Rank(1), Tag(2));
        assert!(p.matches(&env(1, 2)));
        assert!(!p.matches(&env(1, 3)));
        assert!(!p.matches(&env(2, 2)));
    }

    #[test]
    fn any_source_ignores_rank_but_not_tag() {
        let p = ReceivePattern::any_source(Tag(9));
        assert!(p.matches(&env(0, 9)));
        assert!(p.matches(&env(77, 9)));
        assert!(!p.matches(&env(0, 8)));
    }

    #[test]
    fn any_tag_ignores_tag_but_not_rank() {
        let p = ReceivePattern::any_tag(Rank(4));
        assert!(p.matches(&env(4, 0)));
        assert!(p.matches(&env(4, 12345)));
        assert!(!p.matches(&env(5, 0)));
    }

    #[test]
    fn any_any_matches_everything_on_its_comm() {
        let p = ReceivePattern::any_any();
        assert!(p.matches(&env(0, 0)));
        assert!(p.matches(&env(9, 9)));
        // ...but never across communicators.
        assert!(!p.matches(&Envelope::new(Rank(0), Tag(0), CommId(1))));
    }

    #[test]
    fn communicator_scoping_applies_to_all_classes() {
        let other = CommId(3);
        let p = ReceivePattern::new(Rank(1), Tag(1), other);
        assert!(p.matches(&Envelope::new(Rank(1), Tag(1), other)));
        assert!(!p.matches(&env(1, 1)));
    }

    #[test]
    fn wildcard_class_covers_all_four_combinations() {
        assert_eq!(
            ReceivePattern::exact(Rank(0), Tag(0)).wildcard_class(),
            WildcardClass::None
        );
        assert_eq!(
            ReceivePattern::any_source(Tag(0)).wildcard_class(),
            WildcardClass::SrcWild
        );
        assert_eq!(
            ReceivePattern::any_tag(Rank(0)).wildcard_class(),
            WildcardClass::TagWild
        );
        assert_eq!(
            ReceivePattern::any_any().wildcard_class(),
            WildcardClass::BothWild
        );
    }

    #[test]
    fn class_index_is_a_bijection_onto_0_to_3() {
        let mut seen = [false; 4];
        for c in WildcardClass::ALL {
            let i = c.index();
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn compatibility_is_pattern_equality() {
        let a = ReceivePattern::exact(Rank(1), Tag(2));
        let b = ReceivePattern::exact(Rank(1), Tag(2));
        let c = ReceivePattern::exact(Rank(1), Tag(3));
        let d = ReceivePattern::any_source(Tag(2));
        assert!(a.compatible(&b));
        assert!(!a.compatible(&c));
        assert!(!a.compatible(&d));
    }

    #[test]
    fn envelope_converts_to_exact_pattern() {
        let e = env(6, 7);
        let p: ReceivePattern = e.into();
        assert_eq!(p.wildcard_class(), WildcardClass::None);
        assert!(p.matches(&e));
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(
            ReceivePattern::exact(Rank(1), Tag(2)).to_string(),
            "(rank1, tag2, WORLD)"
        );
        assert_eq!(
            ReceivePattern::any_any().to_string(),
            "(ANY_SOURCE, ANY_TAG, WORLD)"
        );
    }
}
