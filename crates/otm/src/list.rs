//! Intrusive lists through a slab: the §III-B bins as the chained queues of
//! §IV-E, a head and a tail each, for both of a communicator's queues.
//!
//! Every entry carries its own `Link` on each list it is on, so appending
//! and unlinking touch the entry, its neighbours and at most the list's ends:
//! O(1), wherever the entry sits. `Lists` holds the ends of `3 · bins + 1`
//! lists in one slice, bin `b` of view `v` at `v · bins + b`. A view is the
//! [`WildcardClass`] of the receives that use it — the `(src, tag)`, `tag`
//! and `src` tables, then the single both-wildcard list — and an
//! [`IndexHome`] names one list. A posted receive is on the one list its
//! class and key select ([`index`](crate::index)); a waiting unexpected
//! message is on one list in every view, the last in arrival order
//! ([`umq`](crate::umq)). Entries and list positions are 32-bit, with `NIL`
//! reserved; `MatchConfig::validate` bounds capacities and bins to fit.

use otm_base::envelope::{SourceSel, TagSel};
use otm_base::hash::{bin_of, hash_src, hash_src_tag, hash_tag};
use otm_base::{InlineHashes, ReceivePattern, WildcardClass};

/// No slot: past either end of a list, and both ends of an empty one.
pub(crate) const NIL: u32 = u32::MAX;

/// The two ends of one list.
#[derive(Debug, Clone, Copy)]
struct Ends {
    head: u32,
    tail: u32,
}

/// An entry's neighbours on one of its lists (the default is never read:
/// appending writes the link first).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Link {
    prev: u32,
    next: u32,
}

/// Storage whose entries carry their [`Link`]s, one for each view an entry
/// can be on.
pub(crate) trait Slab {
    /// `slot`'s link on its list in `view`.
    fn link(&self, slot: u32, view: usize) -> &Link;
    /// The same link, to rewrite.
    fn link_mut(&mut self, slot: u32, view: usize) -> &mut Link;
}

/// One list: its view and the position of its ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexHome {
    /// The class of the receives that are posted on, or search, the list.
    pub(crate) class: WildcardClass,
    /// `view · bins + bin`.
    pub(crate) list: u32,
}

/// The entries of a list from `first` on, following the links of `view`.
pub(crate) fn walk<S: Slab + ?Sized>(
    slab: &S,
    view: usize,
    first: u32,
) -> impl Iterator<Item = u32> + '_ {
    let at = |slot: u32| (slot != NIL).then_some(slot);
    std::iter::successors(at(first), move |&slot| at(slab.link(slot, view).next))
}

/// The ends of `3 · bins + 1` lists (see the module docs).
#[derive(Debug)]
pub(crate) struct Lists {
    bins: usize,
    ends: Box<[Ends]>,
}

/// Both ends of an empty list.
const EMPTY: Ends = Ends {
    head: NIL,
    tail: NIL,
};

impl Lists {
    /// `3 · bins + 1` empty lists.
    pub(crate) fn new(bins: usize) -> Self {
        assert!(bins > 0, "an index needs at least one bin");
        let ends = vec![EMPTY; 3 * bins + 1].into_boxed_slice();
        Lists { bins, ends }
    }

    /// Empties every list in place; the entries' links are left as they are
    /// (appending writes a link before it is read).
    pub(crate) fn clear(&mut self) {
        self.ends.fill(EMPTY);
    }

    /// Bins per view (the both-wildcard view has one list).
    pub(crate) fn bins(&self) -> usize {
        self.bins
    }

    /// Bin `bin` of `class`'s view: the one place a list's position is
    /// computed.
    pub(crate) fn home(&self, class: WildcardClass, bin: usize) -> IndexHome {
        let list = (class.index() * self.bins + bin) as u32;
        IndexHome { class, list }
    }

    /// Where a receive with `pattern` is posted, and the list it searches for
    /// waiting unexpected messages (§IV-C).
    pub(crate) fn of_pattern(&self, pattern: &ReceivePattern) -> IndexHome {
        let (comm, bins) = (pattern.comm, self.bins);
        let bin = match (pattern.src, pattern.tag) {
            (SourceSel::Rank(src), TagSel::Tag(tag)) => bin_of(hash_src_tag(src, tag, comm), bins),
            (SourceSel::Any, TagSel::Tag(tag)) => bin_of(hash_tag(tag, comm), bins),
            (SourceSel::Rank(src), TagSel::Any) => bin_of(hash_src(src, comm), bins),
            (SourceSel::Any, TagSel::Any) => 0,
        };
        self.home(pattern.wildcard_class(), bin)
    }

    /// The list in each view, in class order, of a message with `hashes`
    /// (§IV-D): the lists it searches for a posted receive, and the lists it
    /// waits on when it is unexpected.
    pub(crate) fn of_message(&self, hashes: &InlineHashes) -> [IndexHome; 4] {
        let bin = |hash| bin_of(hash, self.bins);
        [
            self.home(WildcardClass::None, bin(hashes.src_tag)),
            self.home(WildcardClass::SrcWild, bin(hashes.tag)),
            self.home(WildcardClass::TagWild, bin(hashes.src)),
            self.home(WildcardClass::BothWild, 0),
        ]
    }

    /// The entries of `home`, head to tail.
    pub(crate) fn iter<'a, S: Slab + ?Sized>(
        &self,
        slab: &'a S,
        home: IndexHome,
    ) -> impl Iterator<Item = u32> + 'a {
        walk(slab, home.class.index(), self.ends[home.list as usize].head)
    }

    /// Appends `slot`, on no list in `home`'s view, to `home`.
    // Inlined, as is `unlink`: a store calls it once per view with the view
    // a constant, which then folds into straight-line code.
    #[inline]
    pub(crate) fn push_back<S: Slab + ?Sized>(&mut self, slab: &mut S, home: IndexHome, slot: u32) {
        let view = home.class.index();
        let ends = &mut self.ends[home.list as usize];
        *slab.link_mut(slot, view) = Link {
            prev: ends.tail,
            next: NIL,
        };
        match ends.tail {
            NIL => ends.head = slot,
            tail => slab.link_mut(tail, view).next = slot,
        }
        ends.tail = slot;
    }

    /// Takes `slot` off `home`, wherever on it the slot sits.
    #[inline]
    pub(crate) fn unlink<S: Slab + ?Sized>(&mut self, slab: &mut S, home: IndexHome, slot: u32) {
        let view = home.class.index();
        let ends = &mut self.ends[home.list as usize];
        let Link { prev, next } = *slab.link(slot, view);
        match prev {
            NIL => ends.head = next,
            prev => slab.link_mut(prev, view).next = next,
        }
        match next {
            NIL => ends.tail = prev,
            next => slab.link_mut(next, view).prev = prev,
        }
    }

    /// The invariant checker: walks every list and panics unless each entry
    /// reached is on the list `home(slot, view)` names, its `prev` is the
    /// entry before it, each tail is its list's last entry, and no entry is
    /// reached twice in a view. Returns the entries reached in each view.
    pub(crate) fn check_links<S: Slab + ?Sized>(
        &self,
        slab: &S,
        home: impl Fn(u32, usize) -> Option<IndexHome>,
    ) -> [usize; 4] {
        let mut seen = std::collections::HashSet::new();
        let mut reached = [0; 4];
        for (at, ends) in self.ends.iter().enumerate() {
            let (view, mut prev) = (at / self.bins, NIL);
            for slot in walk(slab, view, ends.head) {
                let list = home(slot, view).map(|h| h.list as usize);
                assert_eq!(list, Some(at), "slot {slot} is misfiled");
                assert_eq!(slab.link(slot, view).prev, prev, "slot {slot}, list {at}");
                assert!(seen.insert((slot, view)), "slot {slot} reached twice");
                (reached[view], prev) = (reached[view] + 1, slot);
            }
            assert_eq!(ends.tail, prev, "tail of list {at}");
        }
        reached
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One link per slot, on lists of view 0 only.
    struct Plain(Vec<Link>);

    impl Slab for Plain {
        fn link(&self, slot: u32, _view: usize) -> &Link {
            &self.0[slot as usize]
        }
        fn link_mut(&mut self, slot: u32, _view: usize) -> &mut Link {
            &mut self.0[slot as usize]
        }
    }

    const BIN0: IndexHome = IndexHome {
        class: WildcardClass::None,
        list: 0,
    };

    fn setup(n: u32) -> (Lists, Plain) {
        let mut lists = Lists::new(2);
        let mut slab = Plain(vec![Link::default(); n as usize]);
        for slot in 0..n {
            lists.push_back(&mut slab, BIN0, slot);
        }
        (lists, slab)
    }

    fn contents(lists: &Lists, slab: &Plain) -> Vec<u32> {
        let home = |_, view| (view == 0).then_some(BIN0);
        let reached = lists.check_links(slab, home);
        let order: Vec<u32> = lists.iter(slab, BIN0).collect();
        assert_eq!(reached, [order.len(), 0, 0, 0]);
        order
    }

    #[test]
    fn a_bin_is_eight_bytes() {
        // The paper's bin is 20 B: a 4 B remove lock and two 8 B pointers
        // (§IV-E). Lanes never unlink here, so there is no lock, and the
        // pointers are 32-bit slot ids.
        assert_eq!(std::mem::size_of::<Ends>(), 8);
        assert_eq!(std::mem::size_of::<Link>(), 8);
    }

    #[test]
    fn head_interior_and_tail_unlink_in_place() {
        let (mut lists, mut slab) = setup(5);
        assert_eq!(contents(&lists, &slab), [0, 1, 2, 3, 4]);
        lists.unlink(&mut slab, BIN0, 2);
        assert_eq!(contents(&lists, &slab), [0, 1, 3, 4]);
        lists.unlink(&mut slab, BIN0, 4);
        lists.unlink(&mut slab, BIN0, 0);
        assert_eq!(contents(&lists, &slab), [1, 3]);
        lists.push_back(&mut slab, BIN0, 0);
        assert_eq!(contents(&lists, &slab), [1, 3, 0]);
        for slot in [3, 1, 0] {
            lists.unlink(&mut slab, BIN0, slot);
        }
        assert!(contents(&lists, &slab).is_empty());
    }

    #[test]
    fn clear_empties_every_list_and_they_fill_again() {
        let (mut lists, mut slab) = setup(3);
        lists.clear();
        assert!(contents(&lists, &slab).is_empty());
        for slot in [2, 0] {
            lists.push_back(&mut slab, BIN0, slot);
        }
        assert_eq!(contents(&lists, &slab), [2, 0]);
    }

    #[test]
    fn walk_starts_anywhere_and_stops_at_the_tail() {
        let (_, slab) = setup(4);
        assert_eq!(walk(&slab, 0, 2).collect::<Vec<_>>(), [2, 3]);
        assert_eq!(walk(&slab, 0, NIL).count(), 0);
    }

    #[test]
    fn positions_are_view_major_with_the_both_wildcard_list_last() {
        let lists = Lists::new(3);
        assert_eq!(lists.ends.len(), 10);
        let hashes = InlineHashes {
            src_tag: 4,
            tag: 5,
            src: 6,
        };
        let homes = lists.of_message(&hashes);
        assert_eq!(homes.map(|h| h.class), WildcardClass::ALL);
        assert_eq!(homes.map(|h| h.list), [1, 3 + 2, 6, 9]);
        let pattern = ReceivePattern::any_any();
        assert_eq!(lists.of_pattern(&pattern), homes[3]);
    }

    #[test]
    #[should_panic(expected = "misfiled")]
    fn the_checker_catches_a_misfiled_entry() {
        let (lists, slab) = setup(2);
        lists.check_links(&slab, |_, _| None);
    }
}
