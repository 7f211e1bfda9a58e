//! The four posted-receive index structures of §III-B and the searches the
//! block threads run over them.
//!
//! * no wildcards — hash table keyed on `(src, tag)`;
//! * source wildcard — hash table keyed on `tag`;
//! * tag wildcard — hash table keyed on `src`;
//! * both wildcards — a single ordered list.
//!
//! Within a bin, receives appear in posting order, so the first live match
//! in a chain is the oldest for that key — constraint C1 holds inside an
//! index by construction (§III-C). Across indexes, the post labels
//! arbitrate. Chains are plain vectors. The paper gives every bin a remove
//! lock (§IV-D) because its lanes unlink while other lanes search; here the
//! only writers are receive posting ([`PrqIndexes::insert`]) and block-end
//! cleanup ([`PrqIndexes::unlink`]), both through `&mut` under the
//! communicator's shard lock, and lanes only search, through `&`. Consumed
//! entries stay linked as tombstones until the block ends (the paper's lazy
//! removal), which is what keeps [`PrqIndexes::walk_sequence`] stable.

use crate::table::{state, DescId, IndexHome, ReceiveTable};
use otm_base::envelope::{SourceSel, TagSel};
use otm_base::hash::{bin_of, hash_src, hash_src_tag, hash_tag};
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

impl IndexHome {
    /// The class `pattern` belongs to and the bin its key hashes to in a
    /// table of `bins` bins: where a posted receive is indexed, and which
    /// list of waiting unexpected messages it searches (§IV-C).
    pub fn of(pattern: &ReceivePattern, bins: usize) -> Self {
        let comm = pattern.comm;
        let bin = match (pattern.src, pattern.tag) {
            (SourceSel::Rank(src), TagSel::Tag(tag)) => bin_of(hash_src_tag(src, tag, comm), bins),
            (SourceSel::Any, TagSel::Tag(tag)) => bin_of(hash_tag(tag, comm), bins),
            (SourceSel::Rank(src), TagSel::Any) => bin_of(hash_src(src, comm), bins),
            (SourceSel::Any, TagSel::Any) => 0,
        };
        IndexHome {
            class: pattern.wildcard_class(),
            bin,
        }
    }
}

/// The four index structures for one communicator's posted receives.
#[derive(Debug)]
pub struct PrqIndexes {
    bins: usize,
    no_wild: Box<[Vec<DescId>]>,
    src_wild: Box<[Vec<DescId>]>,
    tag_wild: Box<[Vec<DescId>]>,
    both_wild: Vec<DescId>,
}

fn make_bins(bins: usize) -> Box<[Vec<DescId>]> {
    vec![Vec::new(); bins].into_boxed_slice()
}

impl PrqIndexes {
    /// Creates empty indexes with `bins` bins per hash table.
    pub fn new(bins: usize) -> Self {
        assert!(bins > 0, "index tables need at least one bin");
        PrqIndexes {
            bins,
            no_wild: make_bins(bins),
            src_wild: make_bins(bins),
            tag_wild: make_bins(bins),
            both_wild: Vec::new(),
        }
    }

    /// Number of bins per hash table.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Computes the home (class and bin) for a receive pattern.
    pub fn home_of(&self, pattern: &ReceivePattern) -> IndexHome {
        IndexHome::of(pattern, self.bins)
    }

    fn chain(&self, home: IndexHome) -> &[DescId] {
        match home.class {
            WildcardClass::None => &self.no_wild[home.bin],
            WildcardClass::SrcWild => &self.src_wild[home.bin],
            WildcardClass::TagWild => &self.tag_wild[home.bin],
            WildcardClass::BothWild => &self.both_wild,
        }
    }

    fn chain_mut(&mut self, home: IndexHome) -> &mut Vec<DescId> {
        match home.class {
            WildcardClass::None => &mut self.no_wild[home.bin],
            WildcardClass::SrcWild => &mut self.src_wild[home.bin],
            WildcardClass::TagWild => &mut self.tag_wild[home.bin],
            WildcardClass::BothWild => &mut self.both_wild,
        }
    }

    /// Appends a freshly allocated descriptor to its home chain (receive
    /// posting).
    pub fn insert(&mut self, home: IndexHome, desc: DescId) {
        self.chain_mut(home).push(desc);
    }

    /// Unlinks a descriptor from its home chain: the block-end removal of a
    /// receive its block consumed.
    pub fn unlink(&mut self, home: IndexHome, desc: DescId) {
        let chain = self.chain_mut(home);
        if let Some(pos) = chain.iter().position(|&d| d == desc) {
            chain.remove(pos);
        }
    }

    /// Searches one chain for the oldest live receive matching `env`.
    ///
    /// Returns the candidate (if any), the number of live entries examined,
    /// and whether the early-booking check skipped a lower-booked entry.
    fn search_chain(
        &self,
        home: IndexHome,
        env: &Envelope,
        table: &ReceiveTable,
        below_mask: u64,
    ) -> (Option<Candidate>, usize, bool) {
        let mut depth = 0usize;
        let mut skipped = false;
        for &desc in self.chain(home) {
            let slot = table.slot(desc);
            if slot.state() != state::POSTED {
                continue;
            }
            depth += 1;
            let payload = slot.payload();
            if !payload.pattern.matches(env) {
                continue;
            }
            // Early-booking check (§IV-D): a receive already booked by a
            // lower-id thread can never be consumed by this thread in the
            // optimistic phase.
            if below_mask != 0 && slot.booking() & below_mask != 0 {
                skipped = true;
                continue;
            }
            return (
                Some(Candidate {
                    desc,
                    label: payload.label,
                }),
                depth,
                skipped,
            );
        }
        (None, depth, skipped)
    }

    /// The optimistic search of §III-C: all four indexes are probed with the
    /// appropriate keys and the oldest candidate (minimum post label) wins.
    ///
    /// `below_mask` is nonzero only when the early-booking check is enabled:
    /// it holds the bits of all lower-id lanes, and matching receives booked
    /// by any of them are skipped (reported via
    /// [`SearchOutcome::skipped_booked`]).
    pub fn search(
        &self,
        env: &Envelope,
        hashes: &InlineHashes,
        table: &ReceiveTable,
        below_mask: u64,
    ) -> SearchOutcome {
        self.search_hinted(env, hashes, table, below_mask, CommHints::NONE)
    }

    /// [`PrqIndexes::search`] under communicator hints (§VII): index
    /// classes the hints rule out can never hold a receive and are skipped
    /// entirely, saving up to three of the four probes.
    pub fn search_hinted(
        &self,
        env: &Envelope,
        hashes: &InlineHashes,
        table: &ReceiveTable,
        below_mask: u64,
        hints: CommHints,
    ) -> SearchOutcome {
        let homes = [
            IndexHome {
                class: WildcardClass::None,
                bin: bin_of(hashes.src_tag, self.bins),
            },
            IndexHome {
                class: WildcardClass::SrcWild,
                bin: bin_of(hashes.tag, self.bins),
            },
            IndexHome {
                class: WildcardClass::TagWild,
                bin: bin_of(hashes.src, self.bins),
            },
            IndexHome {
                class: WildcardClass::BothWild,
                bin: 0,
            },
        ];
        let mut best: Option<Candidate> = None;
        let mut depth = 0usize;
        let mut skipped = false;
        for home in homes {
            if !hints.permits(home.class) {
                continue;
            }
            let (cand, d, s) = self.search_chain(home, env, table, below_mask);
            depth += d;
            skipped |= s;
            best = match (best, cand) {
                (Some(a), Some(b)) if b.label < a.label => Some(b),
                (None, b) => b,
                (a, _) => a,
            };
        }
        SearchOutcome {
            candidate: best,
            depth,
            skipped_booked: skipped,
        }
    }

    /// Fast-path shift (§III-D3a, Fig. 4): starting from `cand` (the head
    /// candidate every thread booked), walk `rank` steps down its home
    /// chain. Each step must stay in the same sequence of compatible
    /// receives (`seq`); entries consumed *in the current block* count as
    /// steps (they are being taken by lower-ranked threads). Returns the
    /// descriptor at the requested rank, or `None` if the sequence is too
    /// short or interrupted — the caller must fall back to the slow path.
    pub fn walk_sequence(
        &self,
        cand_home: IndexHome,
        cand: DescId,
        rank: usize,
        seq: SeqId,
        table: &ReceiveTable,
        epoch: u64,
    ) -> Option<DescId> {
        if rank == 0 {
            return Some(cand);
        }
        let chain = self.chain(cand_home);
        let start = chain.iter().position(|&d| d == cand)?;
        let mut remaining = rank;
        for &desc in &chain[start + 1..] {
            let slot = table.slot(desc);
            let st = slot.state();
            // Same-sequence receives are consecutive posts, hence adjacent
            // in the chain; a different sequence id ends the walk.
            if st == state::FREE {
                return None;
            }
            if slot.payload().seq != seq {
                return None;
            }
            if st == state::CONSUMED && slot.consumed_epoch() != epoch {
                // A same-sequence receive consumed in an older block would
                // contradict oldest-first consumption; be conservative.
                return None;
            }
            remaining -= 1;
            if remaining == 0 {
                return Some(desc);
            }
        }
        None
    }

    /// The slow-path re-search (§III-D3b): by the time a thread runs this,
    /// every lower thread has settled, so the oldest *posted* matching
    /// receive is exactly what the sequential semantics assign to this
    /// message. Booking bits are ignored (they may be stale).
    pub fn research(
        &self,
        env: &Envelope,
        hashes: &InlineHashes,
        table: &ReceiveTable,
        hints: CommHints,
    ) -> SearchOutcome {
        self.search_hinted(env, hashes, table, 0, hints)
    }

    /// Bins of the `(src, tag)` table holding no posted receive (the trace
    /// analyzer's empty-bin statistic; walks every bin).
    pub(crate) fn empty_bins(&self, table: &ReceiveTable) -> usize {
        self.no_wild
            .iter()
            .filter(|chain| !chain.iter().any(|&d| table.slot(d).is_posted()))
            .count()
    }

    /// Total live receives across all chains (test/diagnostic helper; walks
    /// every bin, so not for the hot path).
    pub fn live_count(&self, table: &ReceiveTable) -> usize {
        [&self.no_wild, &self.src_wild, &self.tag_wild]
            .into_iter()
            .flat_map(|group| group.iter())
            .chain(std::iter::once(&self.both_wild))
            .flatten()
            .filter(|&&d| table.slot(d).is_posted())
            .count()
    }
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
        idx.insert(home, desc);
        desc
    }

    fn search(idx: &PrqIndexes, table: &ReceiveTable, env: Envelope) -> SearchOutcome {
        idx.search(&env, &InlineHashes::of(&env), table, 0)
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
        let out = idx.search(&e, &InlineHashes::of(&e), &table, below_mask);
        assert_eq!(out.candidate.unwrap().desc, b);
        assert!(out.skipped_booked);
        // Without the check the head is still the candidate.
        let out = idx.search(&e, &InlineHashes::of(&e), &table, 0);
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
        let home = idx.home_of(&ReceivePattern::exact(Rank(0), Tag(0)));
        idx.unlink(home, a);
        let out = search(&idx, &table, Envelope::world(Rank(0), Tag(0)));
        assert_eq!(out.candidate.unwrap().desc, b);
    }

    #[test]
    fn walk_sequence_shifts_by_rank() {
        let (mut idx, mut table) = setup(16);
        let p = ReceivePattern::exact(Rank(0), Tag(0));
        let ids: Vec<DescId> = (0..4)
            .map(|i| post(&mut idx, &mut table, p, i, 7))
            .collect();
        let home = idx.home_of(&p);
        for (rank, &expect) in ids.iter().enumerate() {
            let got = idx.walk_sequence(home, ids[0], rank, SeqId(7), &table, 1);
            assert_eq!(got, Some(expect), "rank {rank}");
        }
        // Rank beyond the sequence fails.
        assert_eq!(
            idx.walk_sequence(home, ids[0], 4, SeqId(7), &table, 1),
            None
        );
    }

    #[test]
    fn walk_sequence_counts_entries_consumed_this_block() {
        let (mut idx, mut table) = setup(16);
        let p = ReceivePattern::exact(Rank(0), Tag(0));
        let ids: Vec<DescId> = (0..3)
            .map(|i| post(&mut idx, &mut table, p, i, 9))
            .collect();
        let home = idx.home_of(&p);
        // A lower thread of the current block (epoch 5) already consumed the
        // middle receive; it still counts as a step.
        table.slot(ids[1]).try_consume(5);
        assert_eq!(
            idx.walk_sequence(home, ids[0], 2, SeqId(9), &table, 5),
            Some(ids[2])
        );
        // But a tombstone from an older block aborts the walk.
        let (mut idx2, mut table2) = setup(16);
        let ids2: Vec<DescId> = (0..3)
            .map(|i| post(&mut idx2, &mut table2, p, i, 9))
            .collect();
        table2.slot(ids2[1]).try_consume(2);
        assert_eq!(
            idx2.walk_sequence(home, ids2[0], 2, SeqId(9), &table2, 5),
            None
        );
    }

    #[test]
    fn walk_sequence_stops_at_sequence_boundary() {
        let (mut idx, mut table) = setup(1); // one bin: both sequences share a chain
        let p1 = ReceivePattern::exact(Rank(0), Tag(0));
        let p2 = ReceivePattern::exact(Rank(0), Tag(1));
        let a = post(&mut idx, &mut table, p1, 0, 0);
        let _b = post(&mut idx, &mut table, p2, 1, 1);
        let home = idx.home_of(&p1);
        assert_eq!(idx.walk_sequence(home, a, 1, SeqId(0), &table, 1), None);
    }

    #[test]
    fn live_count_tracks_postings_and_consumption() {
        let (mut idx, mut table) = setup(8);
        let a = post(
            &mut idx,
            &mut table,
            ReceivePattern::exact(Rank(0), Tag(0)),
            0,
            0,
        );
        post(&mut idx, &mut table, ReceivePattern::any_any(), 1, 1);
        assert_eq!(idx.live_count(&table), 2);
        table.slot(a).try_consume(1);
        assert_eq!(idx.live_count(&table), 1);
    }
}
