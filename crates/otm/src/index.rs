//! The four posted-receive index structures of §III-B and the searches the
//! block threads run over them.
//!
//! * no wildcards — hash table keyed on `(src, tag)`;
//! * source wildcard — hash table keyed on `tag`;
//! * tag wildcard — hash table keyed on `src`;
//! * both wildcards — a single ordered list.
//!
//! A bin is one of the intrusive lists of [`list`], as in the
//! unexpected store, and a receive is linked through its own [`ReceiveTable`]
//! slot. Lists are in posting order, so the first live match on one is the
//! oldest for its key — C1 holds inside an index by construction (§III-C);
//! across indexes, post labels arbitrate. The paper gives every bin a remove
//! lock (§IV-D) because its lanes unlink while others search. Here the only
//! writers are posting and block-end cleanup, through `&mut` on the
//! communicator's shard, and lanes only read: a consumed receive stays
//! linked as a tombstone until its block ends (lazy removal), which keeps
//! [`walk_sequence`] stable, and is then unlinked in O(1).

use crate::list::{self, IndexHome, Lists};
use crate::table::{state, DescId, ReceiveTable};
use otm_base::{
    CommHints, Envelope, InlineHashes, PostLabel, ReceivePattern, SeqId, WildcardClass,
};

/// A candidate found by an index search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The descriptor slot.
    pub desc: DescId,
    /// Its post label, used for cross-index arbitration.
    pub label: PostLabel,
}

/// Result of searching all four indexes for one message.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchOutcome {
    /// The oldest matching live receive, if any.
    pub candidate: Option<Candidate>,
    /// Live entries examined across all four indexes (the queue-depth
    /// statistic of Fig. 7).
    pub depth: usize,
    /// Whether the early-booking check skipped at least one receive that a
    /// lower-id thread had booked (§IV-D). A thread that skipped must treat
    /// itself as conflicted and resolve via the slow path — the skipped
    /// receive might become available again if the booker resolves away.
    pub skipped_booked: bool,
}

/// The four index structures for one communicator's posted receives: the
/// ends of their lists (the links are in the receive table).
#[derive(Debug)]
pub struct PrqIndexes {
    lists: Lists,
}

impl PrqIndexes {
    /// Creates empty indexes with `bins` bins per hash table.
    pub fn new(bins: usize) -> Self {
        PrqIndexes {
            lists: Lists::new(bins),
        }
    }

    /// Empties every index in place (the receives' table is reset beside
    /// it).
    pub(crate) fn reset(&mut self) {
        self.lists.clear();
    }

    /// Number of bins per hash table.
    pub(crate) fn bins(&self) -> usize {
        self.lists.bins()
    }

    /// The list a receive with `pattern` is posted on.
    pub fn home_of(&self, pattern: &ReceivePattern) -> IndexHome {
        self.lists.of_pattern(pattern)
    }

    /// Appends a freshly allocated descriptor to the list its payload names
    /// (receive posting).
    pub fn insert(&mut self, table: &mut ReceiveTable, desc: DescId) {
        let home = table.slot(desc).payload().home;
        self.lists.push_back(table, home, desc);
    }

    /// Unlinks a descriptor from its list in O(1): the block-end removal of a
    /// receive its block consumed.
    pub fn unlink(&mut self, table: &mut ReceiveTable, desc: DescId) {
        let home = table.slot(desc).payload().home;
        self.lists.unlink(table, home, desc);
    }

    /// The search of §III-C: the four indexes are probed with the message's
    /// keys and the oldest candidate (minimum post label) wins. Classes the
    /// hints rule out hold no receive and are skipped (§VII); a communicator
    /// with no receive allocated — every early arrival's — answers at once.
    ///
    /// `below_mask` is nonzero only when the early-booking check is enabled:
    /// it holds the bits of all lower-id lanes, and matching receives booked
    /// by any of them are skipped (reported via
    /// [`SearchOutcome::skipped_booked`]). The slow path's re-search
    /// (§III-D3b) passes 0: every lower lane has settled, so the oldest
    /// posted match is the sequential answer, and booking bits may be stale.
    pub fn search(
        &self,
        env: &Envelope,
        hashes: &InlineHashes,
        table: &ReceiveTable,
        below_mask: u64,
        hints: CommHints,
    ) -> SearchOutcome {
        let mut out = SearchOutcome::default();
        if table.allocated() == 0 {
            return out;
        }
        for home in self.lists.of_message(hashes) {
            if !hints.permits(home.class) {
                continue;
            }
            for desc in self.lists.iter(table, home) {
                let slot = table.slot(desc);
                if slot.state() != state::POSTED {
                    continue;
                }
                out.depth += 1;
                let payload = slot.payload();
                if !payload.pattern.matches(env) {
                    continue;
                }
                // Early-booking check (§IV-D): a receive already booked by a
                // lower-id thread can never be consumed by this thread in the
                // optimistic phase.
                if below_mask != 0 && slot.booking() & below_mask != 0 {
                    out.skipped_booked = true;
                    continue;
                }
                if out.candidate.map_or(true, |c| payload.label < c.label) {
                    let label = payload.label;
                    out.candidate = Some(Candidate { desc, label });
                }
                break;
            }
        }
        out
    }

    /// Bins of the `(src, tag)` table holding no posted receive (the trace
    /// analyzer's empty-bin statistic; walks every bin).
    pub(crate) fn empty_bins(&self, table: &ReceiveTable) -> usize {
        let posted = |bin| {
            let home = self.lists.home(WildcardClass::None, bin);
            self.lists
                .iter(table, home)
                .any(|d| table.slot(d).is_posted())
        };
        (0..self.bins()).filter(|&bin| !posted(bin)).count()
    }

    /// The lists' invariant checker over the receive table: panics unless
    /// every allocated slot, posted or a tombstone, is on the list its
    /// payload names exactly once, and no free slot is on any list.
    pub fn check_links(&self, table: &ReceiveTable) {
        let home = |desc: DescId, _| {
            let slot = table.slot(desc);
            (slot.state() != state::FREE).then(|| slot.payload().home)
        };
        let reached: usize = self.lists.check_links(table, home).iter().sum();
        assert_eq!(reached, table.allocated(), "allocated receives on a list");
    }
}

/// Fast-path shift (§III-D3a, Fig. 4): from `cand` (the head candidate every
/// thread booked), `rank` steps down its list. Each step must stay in the
/// same sequence of compatible receives (`seq`) — consecutive posts, hence
/// adjacent on the list — and entries consumed *in the current block* count
/// as steps (lower-ranked threads are taking them). One consumed in an older
/// block would contradict oldest-first consumption and ends the walk, as a
/// different sequence does. Returns the descriptor at the requested rank, or
/// `None` if the sequence is too short or interrupted: the caller falls back
/// to the slow path.
pub fn walk_sequence(
    table: &ReceiveTable,
    cand: DescId,
    rank: usize,
    seq: SeqId,
    epoch: u64,
) -> Option<DescId> {
    let in_run = |&desc: &DescId| {
        let slot = table.slot(desc);
        let live = match slot.state() {
            state::POSTED => true,
            state::CONSUMED => slot.consumed_epoch() == epoch,
            _ => false,
        };
        live && slot.payload().seq == seq
    };
    let view = table.slot(cand).payload().home.class.index();
    let run = list::walk(table, view, cand).skip(1).take_while(in_run);
    std::iter::once(cand).chain(run).nth(rank)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Payload;
    use otm_base::{Rank, Tag};

    fn setup(bins: usize) -> (PrqIndexes, ReceiveTable) {
        (PrqIndexes::new(bins), ReceiveTable::new(64))
    }

    fn post(
        idx: &mut PrqIndexes,
        table: &mut ReceiveTable,
        pattern: ReceivePattern,
        label: u64,
        seq: u64,
    ) -> DescId {
        let home = idx.home_of(&pattern);
        let desc = table
            .allocate(Payload {
                pattern,
                label: PostLabel(label),
                seq: SeqId(seq),
                handle: label,
                home,
            })
            .unwrap();
        idx.insert(table, desc);
        idx.check_links(table);
        desc
    }

    fn search(idx: &PrqIndexes, table: &ReceiveTable, env: Envelope) -> SearchOutcome {
        idx.search(&env, &InlineHashes::of(&env), table, 0, CommHints::NONE)
    }

    #[test]
    fn finds_exact_receive() {
        let (mut idx, mut table) = setup(16);
        let d = post(
            &mut idx,
            &mut table,
            ReceivePattern::exact(Rank(1), Tag(2)),
            0,
            0,
        );
        let out = search(&idx, &table, Envelope::world(Rank(1), Tag(2)));
        assert_eq!(out.candidate.unwrap().desc, d);
    }

    #[test]
    fn misses_when_nothing_matches() {
        let (mut idx, mut table) = setup(16);
        post(
            &mut idx,
            &mut table,
            ReceivePattern::exact(Rank(1), Tag(2)),
            0,
            0,
        );
        let out = search(&idx, &table, Envelope::world(Rank(1), Tag(3)));
        assert!(out.candidate.is_none());
    }

    #[test]
    fn cross_index_arbitration_picks_minimum_label() {
        let (mut idx, mut table) = setup(16);
        // Both-wildcard receive posted first must beat an exact one.
        let wild = post(&mut idx, &mut table, ReceivePattern::any_any(), 0, 0);
        let exact = post(
            &mut idx,
            &mut table,
            ReceivePattern::exact(Rank(1), Tag(2)),
            1,
            1,
        );
        let out = search(&idx, &table, Envelope::world(Rank(1), Tag(2)));
        assert_eq!(out.candidate.unwrap().desc, wild);
        // Consume the wildcard; the exact one is next.
        table.slot(wild).try_consume(1);
        let out = search(&idx, &table, Envelope::world(Rank(1), Tag(2)));
        assert_eq!(out.candidate.unwrap().desc, exact);
    }

    #[test]
    fn all_four_classes_are_probed() {
        let (mut idx, mut table) = setup(16);
        let e = Envelope::world(Rank(3), Tag(4));
        for (label, pattern) in [
            ReceivePattern::exact(Rank(3), Tag(4)),
            ReceivePattern::any_source(Tag(4)),
            ReceivePattern::any_tag(Rank(3)),
            ReceivePattern::any_any(),
        ]
        .into_iter()
        .enumerate()
        {
            let d = post(
                &mut idx,
                &mut table,
                pattern,
                label as u64 + 10,
                label as u64,
            );
            let out = search(&idx, &table, e);
            // Each earlier-posted receive keeps winning (smaller label).
            let expected = if label == 0 {
                d
            } else {
                out.candidate.unwrap().desc
            };
            assert_eq!(out.candidate.unwrap().desc, expected);
        }
        // Consume them one by one; each class must surface in label order.
        let mut seen = Vec::new();
        while let Some(c) = search(&idx, &table, e).candidate {
            seen.push(c.label.0);
            table.slot(c.desc).try_consume(1);
        }
        assert_eq!(seen, vec![10, 11, 12, 13]);
    }

    #[test]
    fn within_bin_order_is_post_order() {
        let (mut idx, mut table) = setup(16);
        let first = post(
            &mut idx,
            &mut table,
            ReceivePattern::exact(Rank(0), Tag(0)),
            5,
            0,
        );
        let _second = post(
            &mut idx,
            &mut table,
            ReceivePattern::exact(Rank(0), Tag(0)),
            6,
            0,
        );
        let out = search(&idx, &table, Envelope::world(Rank(0), Tag(0)));
        assert_eq!(out.candidate.unwrap().desc, first);
    }

    #[test]
    fn depth_counts_live_entries_only() {
        let (mut idx, mut table) = setup(1); // force everything into one bin
        let a = post(
            &mut idx,
            &mut table,
            ReceivePattern::exact(Rank(0), Tag(0)),
            0,
            0,
        );
        post(
            &mut idx,
            &mut table,
            ReceivePattern::exact(Rank(0), Tag(1)),
            1,
            1,
        );
        post(
            &mut idx,
            &mut table,
            ReceivePattern::exact(Rank(0), Tag(2)),
            2,
            2,
        );
        let out = search(&idx, &table, Envelope::world(Rank(0), Tag(2)));
        assert_eq!(out.depth, 3);
        // Tombstone the head: depth shrinks.
        table.slot(a).try_consume(1);
        let out = search(&idx, &table, Envelope::world(Rank(0), Tag(2)));
        assert_eq!(out.depth, 2);
    }

    #[test]
    fn early_booking_check_skips_and_reports() {
        let (mut idx, mut table) = setup(16);
        let a = post(
            &mut idx,
            &mut table,
            ReceivePattern::exact(Rank(0), Tag(0)),
            0,
            0,
        );
        let b = post(
            &mut idx,
            &mut table,
            ReceivePattern::exact(Rank(0), Tag(0)),
            1,
            0,
        );
        // Lane 0 books the head; lane 2 searches with the check enabled.
        table.slot(a).book(0);
        let e = Envelope::world(Rank(0), Tag(0));
        let below_mask = (1u64 << 2) - 1;
        let out = idx.search(
            &e,
            &InlineHashes::of(&e),
            &table,
            below_mask,
            CommHints::NONE,
        );
        assert_eq!(out.candidate.unwrap().desc, b);
        assert!(out.skipped_booked);
        // Without the check the head is still the candidate.
        let out = search(&idx, &table, e);
        assert_eq!(out.candidate.unwrap().desc, a);
        assert!(!out.skipped_booked);
    }

    #[test]
    fn unlink_removes_a_specific_descriptor() {
        let (mut idx, mut table) = setup(1);
        let a = post(
            &mut idx,
            &mut table,
            ReceivePattern::exact(Rank(0), Tag(0)),
            0,
            0,
        );
        let b = post(
            &mut idx,
            &mut table,
            ReceivePattern::exact(Rank(0), Tag(0)),
            1,
            0,
        );
        table.slot(a).try_consume(1);
        idx.unlink(&mut table, a);
        table.release(a);
        idx.check_links(&table);
        let out = search(&idx, &table, Envelope::world(Rank(0), Tag(0)));
        assert_eq!(out.candidate.unwrap().desc, b);
    }

    #[test]
    fn unlink_takes_head_interior_and_tail_of_a_deep_list_in_place() {
        let (mut idx, mut table) = setup(1); // one bin: every exact receive on one list
        let p = |tag| ReceivePattern::exact(Rank(0), Tag(tag));
        let ids: Vec<_> = (0..8)
            .map(|i| post(&mut idx, &mut table, p(i as u32), i, i))
            .collect();
        for &i in &[7usize, 3, 0, 4] {
            table.slot(ids[i]).try_consume(1);
            idx.unlink(&mut table, ids[i]);
            table.release(ids[i]);
            idx.check_links(&table);
        }
        // The survivors keep post order; a freed slot is reused at the tail.
        let order = |idx: &PrqIndexes, table: &ReceiveTable| -> Vec<u64> {
            let home = idx.home_of(&p(0));
            idx.lists
                .iter(table, home)
                .map(|d| table.slot(d).payload().label.0)
                .collect()
        };
        assert_eq!(order(&idx, &table), [1, 2, 5, 6]);
        post(&mut idx, &mut table, p(9), 9, 9);
        assert_eq!(order(&idx, &table), [1, 2, 5, 6, 9]);
        assert_eq!(
            search(&idx, &table, Envelope::world(Rank(0), Tag(9))).depth,
            5
        );
    }

    #[test]
    fn an_empty_table_answers_without_a_search() {
        let (idx, table) = setup(4);
        let out = search(&idx, &table, Envelope::world(Rank(0), Tag(0)));
        assert_eq!(out, SearchOutcome::default());
    }

    #[test]
    fn walk_sequence_shifts_by_rank() {
        let (mut idx, mut table) = setup(16);
        let p = ReceivePattern::exact(Rank(0), Tag(0));
        let ids: Vec<_> = (0..4)
            .map(|i| post(&mut idx, &mut table, p, i, 7))
            .collect();
        for (rank, &expect) in ids.iter().enumerate() {
            let got = walk_sequence(&table, ids[0], rank, SeqId(7), 1);
            assert_eq!(got, Some(expect), "rank {rank}");
        }
        // Rank beyond the sequence fails.
        assert_eq!(walk_sequence(&table, ids[0], 4, SeqId(7), 1), None);
        // A walk may start mid-list.
        assert_eq!(walk_sequence(&table, ids[1], 2, SeqId(7), 1), Some(ids[3]));
    }

    #[test]
    fn walk_sequence_counts_entries_consumed_this_block() {
        let (mut idx, mut table) = setup(16);
        let p = ReceivePattern::exact(Rank(0), Tag(0));
        let ids: Vec<_> = (0..3)
            .map(|i| post(&mut idx, &mut table, p, i, 9))
            .collect();
        // A lower thread of the current block (epoch 5) already consumed the
        // middle receive; it still counts as a step.
        table.slot(ids[1]).try_consume(5);
        assert_eq!(walk_sequence(&table, ids[0], 2, SeqId(9), 5), Some(ids[2]));
        // But a tombstone from an older block aborts the walk.
        let (mut idx2, mut table2) = setup(16);
        let ids2: Vec<_> = (0..3)
            .map(|i| post(&mut idx2, &mut table2, p, i, 9))
            .collect();
        table2.slot(ids2[1]).try_consume(2);
        assert_eq!(walk_sequence(&table2, ids2[0], 2, SeqId(9), 5), None);
    }

    #[test]
    fn walk_sequence_stops_at_sequence_boundary() {
        let (mut idx, mut table) = setup(1); // one bin: both sequences share a list
        let p1 = ReceivePattern::exact(Rank(0), Tag(0));
        let p2 = ReceivePattern::exact(Rank(0), Tag(1));
        let a = post(&mut idx, &mut table, p1, 0, 0);
        let _b = post(&mut idx, &mut table, p2, 1, 1);
        assert_eq!(walk_sequence(&table, a, 1, SeqId(0), 1), None);
    }
}
