//! Per-communicator matching hints (§VII).
//!
//! "MPI already allows applications to relax these constraints by
//! specifying communicator hints. In principle, these hints can be
//! propagated to the offloaded matching solution, reducing matching costs.
//! For example, `mpi_assert_no_any_tag` and `mpi_assert_no_any_source`
//! indicate that no receive with tag and source wildcards will be posted
//! ... Another example is `mpi_assert_allow_overtaking` that relaxes
//! matching order."
//!
//! The engine uses these to skip index structures that can never hold a
//! receive and, for `allow_overtaking`, to bypass the ordering machinery
//! (booking, partial barrier, conflict resolution) entirely.

use crate::envelope::WildcardClass;

/// MPI communicator info assertions relevant to matching.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommHints {
    /// `mpi_assert_no_any_source`: the application will never post a
    /// receive with `MPI_ANY_SOURCE` on this communicator.
    pub no_any_source: bool,
    /// `mpi_assert_no_any_tag`: the application will never post a receive
    /// with `MPI_ANY_TAG` on this communicator.
    pub no_any_tag: bool,
    /// `mpi_assert_allow_overtaking`: the application does not rely on the
    /// matching order constraints C1/C2; any pattern-correct pairing is
    /// acceptable (e.g. NCCL-style semantics, §VII).
    pub allow_overtaking: bool,
}

impl CommHints {
    /// No assertions: full MPI semantics (the default).
    pub const NONE: CommHints = CommHints {
        no_any_source: false,
        no_any_tag: false,
        allow_overtaking: false,
    };

    /// Both wildcard assertions: fully-specified receives only.
    pub fn no_wildcards() -> Self {
        CommHints {
            no_any_source: true,
            no_any_tag: true,
            allow_overtaking: false,
        }
    }

    /// Relaxed ordering on top of no wildcards — the cheapest configuration.
    pub fn relaxed() -> Self {
        CommHints {
            no_any_source: true,
            no_any_tag: true,
            allow_overtaking: true,
        }
    }

    /// Whether a receive of the given wildcard class is permitted under
    /// these hints.
    #[inline]
    pub fn permits(&self, class: WildcardClass) -> bool {
        match class {
            WildcardClass::None => true,
            WildcardClass::SrcWild => !self.no_any_source,
            WildcardClass::TagWild => !self.no_any_tag,
            WildcardClass::BothWild => !self.no_any_source && !self.no_any_tag,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The index classes a message searches under `h`.
    fn searchable(h: CommHints) -> Vec<WildcardClass> {
        WildcardClass::ALL
            .into_iter()
            .filter(|&c| h.permits(c))
            .collect()
    }

    #[test]
    fn default_permits_everything() {
        let h = CommHints::default();
        for c in WildcardClass::ALL {
            assert!(h.permits(c));
        }
        assert_eq!(searchable(h).len(), 4);
    }

    #[test]
    fn no_any_source_bans_source_wildcards() {
        let h = CommHints {
            no_any_source: true,
            ..Default::default()
        };
        assert!(h.permits(WildcardClass::None));
        assert!(!h.permits(WildcardClass::SrcWild));
        assert!(h.permits(WildcardClass::TagWild));
        assert!(
            !h.permits(WildcardClass::BothWild),
            "both-wild uses ANY_SOURCE too"
        );
        assert_eq!(searchable(h).len(), 2);
    }

    #[test]
    fn no_any_tag_bans_tag_wildcards() {
        let h = CommHints {
            no_any_tag: true,
            ..Default::default()
        };
        assert!(!h.permits(WildcardClass::TagWild));
        assert!(!h.permits(WildcardClass::BothWild));
        assert!(h.permits(WildcardClass::SrcWild));
    }

    #[test]
    fn no_wildcards_leaves_only_the_exact_index() {
        let h = CommHints::no_wildcards();
        assert_eq!(searchable(h), vec![WildcardClass::None]);
        assert!(!h.allow_overtaking);
    }

    #[test]
    fn relaxed_adds_overtaking() {
        let h = CommHints::relaxed();
        assert!(h.allow_overtaking);
        assert_eq!(searchable(h).len(), 1);
    }
}
