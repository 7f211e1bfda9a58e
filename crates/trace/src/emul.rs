//! Sequential emulation of the Optimistic Tag Matching data-structure
//! organization (§III-B), used by the trace analyzer.
//!
//! The analyzer does not need the parallel conflict machinery — traces are
//! replayed sequentially — but it must measure the *data structure*
//! behaviour of the optimistic approach: three binned hash tables (keyed on
//! `(src, tag)`, `tag`, `src`) plus an ordered list for double-wildcard
//! receives, with post labels arbitrating C1 across structures, and an
//! unexpected store indexed in all four ways (§IV-C). Search depths
//! recorded here are the queue depths of Fig. 7; with one bin the matcher
//! degenerates into traditional linear-scan matching.
//!
//! This growable, allocation-friendly implementation exists separately from
//! `otm`'s fixed-table engine so that thousand-rank replays stay cheap.

use mpi_matching::{ArriveResult, MatchStats, Matcher, MsgHandle, PostResult, RecvHandle};
use otm_base::envelope::{SourceSel, TagSel};
use otm_base::hash::{bin_of, hash_src, hash_src_tag, hash_tag};
use otm_base::{Envelope, MatchError, PostLabel, ReceivePattern, WildcardClass};
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy)]
struct PostedRecv {
    pattern: ReceivePattern,
    label: PostLabel,
    handle: RecvHandle,
}

/// Reference to a UMQ slab slot, generation-stamped: a message is indexed
/// in all four views (§IV-C), so when one view consumes it the other three
/// hold stale references. Bumping the generation at consumption prevents a
/// recycled slot from resurrecting under an old reference (which would
/// surface the new message at the old message's queue position and violate
/// C2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EntryRef {
    slot: u32,
    gen: u32,
}

#[derive(Debug, Clone, Copy)]
struct UnexpectedMsg {
    env: Envelope,
    handle: MsgHandle,
    gen: u32,
    alive: bool,
}

/// Sequential four-index matcher (see module docs).
///
/// ```
/// use otm_trace::emul::FourIndexMatcher;
/// use mpi_matching::{ArriveResult, Matcher, MsgHandle, RecvHandle};
/// use otm_base::{Envelope, Rank, ReceivePattern, Tag};
///
/// let mut m = FourIndexMatcher::new(128);
/// m.post(ReceivePattern::any_source(Tag(3)), RecvHandle(0)).unwrap();
/// let r = m.arrive(Envelope::world(Rank(9), Tag(3)), MsgHandle(0)).unwrap();
/// assert_eq!(r, ArriveResult::Matched(RecvHandle(0)));
/// ```
#[derive(Debug, Clone)]
pub struct FourIndexMatcher {
    bins: usize,
    /// PRQ: one binned table per keyed class, plus the both-wildcard list.
    prq_no_wild: Vec<VecDeque<PostedRecv>>,
    prq_src_wild: Vec<VecDeque<PostedRecv>>,
    prq_tag_wild: Vec<VecDeque<PostedRecv>>,
    prq_both_wild: VecDeque<PostedRecv>,
    next_label: PostLabel,
    prq_live: usize,
    /// UMQ: slab plus four reference views (three binned, one ordered).
    umq_slab: Vec<UnexpectedMsg>,
    umq_free: Vec<u32>,
    umq_by_src_tag: Vec<VecDeque<EntryRef>>,
    umq_by_tag: Vec<VecDeque<EntryRef>>,
    umq_by_src: Vec<VecDeque<EntryRef>>,
    umq_order: VecDeque<EntryRef>,
    umq_live: usize,
    /// Stale references left in the unsearched views when a message is
    /// consumed (a message is indexed in all four views, §IV-C). Triggers a
    /// full purge before they can grow unboundedly in replays that never
    /// search some views (e.g. wildcard-free traces never scan by_tag).
    stale_refs: usize,
    stats: MatchStats,
}

impl FourIndexMatcher {
    /// Creates a matcher with `bins` bins per hash table.
    ///
    /// # Panics
    /// Panics if `bins == 0`.
    pub fn new(bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        FourIndexMatcher {
            bins,
            prq_no_wild: vec![VecDeque::new(); bins],
            prq_src_wild: vec![VecDeque::new(); bins],
            prq_tag_wild: vec![VecDeque::new(); bins],
            prq_both_wild: VecDeque::new(),
            next_label: PostLabel::ZERO,
            prq_live: 0,
            umq_slab: Vec::new(),
            umq_free: Vec::new(),
            umq_by_src_tag: vec![VecDeque::new(); bins],
            umq_by_tag: vec![VecDeque::new(); bins],
            umq_by_src: vec![VecDeque::new(); bins],
            umq_order: VecDeque::new(),
            umq_live: 0,
            stale_refs: 0,
            stats: MatchStats::new(),
        }
    }

    /// Number of bins per hash table.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Fraction of no-wildcard PRQ bins currently empty (a §V statistic).
    pub fn prq_empty_bin_fraction(&self) -> f64 {
        let empty = self.prq_no_wild.iter().filter(|b| b.is_empty()).count();
        empty as f64 / self.bins as f64
    }

    fn scan_umq(
        slab: &mut [UnexpectedMsg],
        refs: &mut VecDeque<EntryRef>,
        pattern: &ReceivePattern,
        stale_refs: &mut usize,
    ) -> (Option<(u32, MsgHandle)>, usize) {
        let mut depth = 0usize;
        let mut i = 0usize;
        while i < refs.len() {
            let r = refs[i];
            let entry = &mut slab[r.slot as usize];
            if entry.gen != r.gen || !entry.alive {
                refs.remove(i);
                *stale_refs = stale_refs.saturating_sub(1);
                continue;
            }
            depth += 1;
            if pattern.matches(&entry.env) {
                entry.alive = false;
                entry.gen = entry.gen.wrapping_add(1);
                let handle = entry.handle;
                refs.remove(i);
                return (Some((r.slot, handle)), depth);
            }
            i += 1;
        }
        (None, depth)
    }

    /// Drops every stale reference from every view. Amortized by the
    /// trigger in the match path.
    fn purge_stale_refs(&mut self) {
        let slab = &self.umq_slab;
        let live = |r: &EntryRef| {
            let e = &slab[r.slot as usize];
            e.gen == r.gen && e.alive
        };
        for group in [
            &mut self.umq_by_src_tag,
            &mut self.umq_by_tag,
            &mut self.umq_by_src,
        ] {
            for refs in group.iter_mut() {
                refs.retain(&live);
            }
        }
        self.umq_order.retain(&live);
        self.stale_refs = 0;
    }
}

impl Matcher for FourIndexMatcher {
    fn post(
        &mut self,
        pattern: ReceivePattern,
        handle: RecvHandle,
    ) -> Result<PostResult, MatchError> {
        // Only the index matching the receive's class is searched (§IV-C).
        let (hit, depth) = match pattern.wildcard_class() {
            WildcardClass::None => {
                let (SourceSel::Rank(src), TagSel::Tag(tag)) = (pattern.src, pattern.tag) else {
                    unreachable!()
                };
                let b = bin_of(hash_src_tag(src, tag, pattern.comm), self.bins);
                Self::scan_umq(
                    &mut self.umq_slab,
                    &mut self.umq_by_src_tag[b],
                    &pattern,
                    &mut self.stale_refs,
                )
            }
            WildcardClass::SrcWild => {
                let TagSel::Tag(tag) = pattern.tag else {
                    unreachable!()
                };
                let b = bin_of(hash_tag(tag, pattern.comm), self.bins);
                Self::scan_umq(
                    &mut self.umq_slab,
                    &mut self.umq_by_tag[b],
                    &pattern,
                    &mut self.stale_refs,
                )
            }
            WildcardClass::TagWild => {
                let SourceSel::Rank(src) = pattern.src else {
                    unreachable!()
                };
                let b = bin_of(hash_src(src, pattern.comm), self.bins);
                Self::scan_umq(
                    &mut self.umq_slab,
                    &mut self.umq_by_src[b],
                    &pattern,
                    &mut self.stale_refs,
                )
            }
            WildcardClass::BothWild => Self::scan_umq(
                &mut self.umq_slab,
                &mut self.umq_order,
                &pattern,
                &mut self.stale_refs,
            ),
        };
        let result = match hit {
            Some((idx, msg)) => {
                self.umq_free.push(idx);
                self.umq_live -= 1;
                // The three unsearched views still reference the dead slot.
                self.stale_refs += 3;
                if self.stale_refs > 4 * self.umq_live.max(64) {
                    self.purge_stale_refs();
                }
                self.stats.record_post(depth, true);
                PostResult::Matched(msg)
            }
            None => {
                let entry = PostedRecv {
                    pattern,
                    label: self.next_label,
                    handle,
                };
                self.next_label = self.next_label.next();
                match pattern.wildcard_class() {
                    WildcardClass::None => {
                        let (SourceSel::Rank(src), TagSel::Tag(tag)) = (pattern.src, pattern.tag)
                        else {
                            unreachable!()
                        };
                        let b = bin_of(hash_src_tag(src, tag, pattern.comm), self.bins);
                        self.prq_no_wild[b].push_back(entry);
                    }
                    WildcardClass::SrcWild => {
                        let TagSel::Tag(tag) = pattern.tag else {
                            unreachable!()
                        };
                        let b = bin_of(hash_tag(tag, pattern.comm), self.bins);
                        self.prq_src_wild[b].push_back(entry);
                    }
                    WildcardClass::TagWild => {
                        let SourceSel::Rank(src) = pattern.src else {
                            unreachable!()
                        };
                        let b = bin_of(hash_src(src, pattern.comm), self.bins);
                        self.prq_tag_wild[b].push_back(entry);
                    }
                    WildcardClass::BothWild => self.prq_both_wild.push_back(entry),
                }
                self.prq_live += 1;
                self.stats.record_post(depth, false);
                PostResult::Posted
            }
        };
        self.stats.observe_queue_lens(self.prq_live, self.umq_live);
        Ok(result)
    }

    fn arrive(&mut self, env: Envelope, handle: MsgHandle) -> Result<ArriveResult, MatchError> {
        // All four indexes are probed with the appropriate keys; the oldest
        // candidate (minimum post label) wins (§III-C).
        let b_st = bin_of(hash_src_tag(env.src, env.tag, env.comm), self.bins);
        let b_t = bin_of(hash_tag(env.tag, env.comm), self.bins);
        let b_s = bin_of(hash_src(env.src, env.comm), self.bins);
        let mut depth = 0usize;
        let mut best: Option<(usize, usize, PostLabel)> = None; // (class, pos, label)
        {
            let chains: [(usize, &VecDeque<PostedRecv>); 4] = [
                (0, &self.prq_no_wild[b_st]),
                (1, &self.prq_src_wild[b_t]),
                (2, &self.prq_tag_wild[b_s]),
                (3, &self.prq_both_wild),
            ];
            for (class, chain) in chains {
                for (i, r) in chain.iter().enumerate() {
                    depth += 1;
                    if r.pattern.matches(&env) {
                        if best.map_or(true, |(_, _, l)| r.label < l) {
                            best = Some((class, i, r.label));
                        }
                        break;
                    }
                }
            }
        }
        let result = match best {
            Some((class, i, _)) => {
                let recv = match class {
                    0 => self.prq_no_wild[b_st].remove(i),
                    1 => self.prq_src_wild[b_t].remove(i),
                    2 => self.prq_tag_wild[b_s].remove(i),
                    _ => self.prq_both_wild.remove(i),
                }
                .expect("candidate position valid");
                self.prq_live -= 1;
                self.stats.record_arrival(depth, true);
                ArriveResult::Matched(recv.handle)
            }
            None => {
                let idx = if let Some(idx) = self.umq_free.pop() {
                    let gen = self.umq_slab[idx as usize].gen;
                    self.umq_slab[idx as usize] = UnexpectedMsg {
                        env,
                        handle,
                        gen,
                        alive: true,
                    };
                    idx
                } else {
                    let idx = self.umq_slab.len() as u32;
                    self.umq_slab.push(UnexpectedMsg {
                        env,
                        handle,
                        gen: 0,
                        alive: true,
                    });
                    idx
                };
                let r = EntryRef {
                    slot: idx,
                    gen: self.umq_slab[idx as usize].gen,
                };
                self.umq_by_src_tag[b_st].push_back(r);
                self.umq_by_tag[b_t].push_back(r);
                self.umq_by_src[b_s].push_back(r);
                self.umq_order.push_back(r);
                self.umq_live += 1;
                self.stats.record_arrival(depth, false);
                ArriveResult::Unexpected
            }
        };
        self.stats.observe_queue_lens(self.prq_live, self.umq_live);
        Ok(result)
    }

    fn prq_len(&self) -> usize {
        self.prq_live
    }

    fn umq_len(&self) -> usize {
        self.umq_live
    }

    fn probe(&self, pattern: &ReceivePattern) -> Option<MsgHandle> {
        self.umq_order.iter().find_map(|r| {
            let e = &self.umq_slab[r.slot as usize];
            (e.gen == r.gen && e.alive && pattern.matches(&e.env)).then_some(e.handle)
        })
    }

    fn stats(&self) -> &MatchStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = MatchStats::new();
    }

    fn strategy_name(&self) -> &'static str {
        "optimistic-indexes"
    }
}

impl mpi_matching::MatchingBackend for FourIndexMatcher {
    fn backend_name(&self) -> &'static str {
        "FourIndex-CPU"
    }

    fn post(
        &mut self,
        pattern: ReceivePattern,
        handle: RecvHandle,
    ) -> Result<PostResult, MatchError> {
        Matcher::post(self, pattern, handle)
    }

    fn arrive_block(
        &mut self,
        msgs: &[(Envelope, MsgHandle)],
    ) -> Result<Vec<mpi_matching::BlockDelivery>, MatchError> {
        msgs.iter()
            .map(|&(env, msg)| {
                Ok(match Matcher::arrive(self, env, msg)? {
                    ArriveResult::Matched(recv) => {
                        mpi_matching::BlockDelivery::Matched { msg, recv }
                    }
                    ArriveResult::Unexpected => mpi_matching::BlockDelivery::Unexpected { msg },
                })
            })
            .collect()
    }

    fn probe(&self, pattern: &ReceivePattern) -> Option<MsgHandle> {
        Matcher::probe(self, pattern)
    }

    fn prq_len(&self) -> usize {
        Matcher::prq_len(self)
    }

    fn umq_len(&self) -> usize {
        Matcher::umq_len(self)
    }

    fn merge_stats(&self, into: &mut MatchStats) {
        into.merge(Matcher::stats(self));
    }

    fn drain_for_fallback(self: Box<Self>) -> Result<mpi_matching::FallbackState, MatchError> {
        // Re-serialize the four PRQ structures into global post order by
        // label; the UMQ order list is already in arrival order (skip the
        // stale refs left by consumed messages).
        let mut posted: Vec<PostedRecv> = self
            .prq_no_wild
            .iter()
            .flatten()
            .chain(self.prq_src_wild.iter().flatten())
            .chain(self.prq_tag_wild.iter().flatten())
            .chain(self.prq_both_wild.iter())
            .copied()
            .collect();
        posted.sort_by_key(|r| r.label);
        let receives = posted.into_iter().map(|r| (r.pattern, r.handle)).collect();
        let unexpected = self
            .umq_order
            .iter()
            .filter_map(|r| {
                let e = &self.umq_slab[r.slot as usize];
                (e.gen == r.gen && e.alive).then_some((e.env, e.handle))
            })
            .collect();
        Ok(mpi_matching::FallbackState::from_state(
            receives, unexpected,
        ))
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_matching::oracle::{MatchEvent, Oracle};
    use otm_base::{FaultRng, Rank, Tag};

    fn post(src: u32, tag: u32) -> MatchEvent {
        MatchEvent::Post(ReceivePattern::exact(Rank(src), Tag(tag)))
    }

    fn arrive(src: u32, tag: u32) -> MatchEvent {
        MatchEvent::Arrive(Envelope::world(Rank(src), Tag(tag)))
    }

    #[test]
    fn agrees_with_oracle_across_bin_counts() {
        let mut rng = FaultRng::new(11);
        for bins in [1usize, 2, 32, 128] {
            let events: Vec<MatchEvent> = (0..500)
                .map(|_| {
                    let src = rng.below(4) as u32;
                    let tag = rng.below(4) as u32;
                    match rng.below(8) {
                        0..=2 => arrive(src, tag),
                        3..=5 => post(src, tag),
                        6 => MatchEvent::Post(ReceivePattern::any_source(Tag(tag))),
                        _ => MatchEvent::Post(ReceivePattern::any_tag(Rank(src))),
                    }
                })
                .collect();
            let mut m = FourIndexMatcher::new(bins);
            assert_eq!(
                Oracle::drive(&mut m, &events).unwrap(),
                Oracle::run(&events),
                "bins={bins}"
            );
        }
    }

    #[test]
    fn one_bin_search_depth_matches_traditional() {
        use mpi_matching::traditional::TraditionalMatcher;
        // Fully-specified workload: with one bin, the four-index layout
        // degenerates into a single list, so the scan depths are the
        // traditional ones.
        let mut events = Vec::new();
        for t in 0..32u32 {
            events.push(post(0, t));
        }
        for t in (0..32u32).rev() {
            events.push(arrive(0, t));
        }
        let mut four = FourIndexMatcher::new(1);
        let mut trad = TraditionalMatcher::new();
        Oracle::drive(&mut four, &events).unwrap();
        Oracle::drive(&mut trad, &events).unwrap();
        assert_eq!(four.stats().prq_search.sum, trad.stats().prq_search.sum);
        assert_eq!(four.stats().prq_search.max, trad.stats().prq_search.max);
    }

    #[test]
    fn bins_shrink_search_depth() {
        let mut events = Vec::new();
        for t in 0..128u32 {
            events.push(post(t % 8, t));
        }
        for t in (0..128u32).rev() {
            events.push(arrive(t % 8, t));
        }
        let depth_of = |bins: usize| {
            let mut m = FourIndexMatcher::new(bins);
            Oracle::drive(&mut m, &events).unwrap();
            m.stats().prq_search.mean()
        };
        let d1 = depth_of(1);
        let d32 = depth_of(32);
        let d128 = depth_of(128);
        assert!(d32 < d1 / 4.0, "1 bin {d1}, 32 bins {d32}");
        assert!(d128 <= d32, "32 bins {d32}, 128 bins {d128}");
    }

    #[test]
    fn wildcard_class_receives_search_their_own_umq_view() {
        let mut m = FourIndexMatcher::new(8);
        m.arrive(Envelope::world(Rank(1), Tag(2)), MsgHandle(0))
            .unwrap();
        m.arrive(Envelope::world(Rank(3), Tag(2)), MsgHandle(1))
            .unwrap();
        // ANY_SOURCE on tag 2 must take the older message.
        let r = m
            .post(ReceivePattern::any_source(Tag(2)), RecvHandle(0))
            .unwrap();
        assert_eq!(r, PostResult::Matched(MsgHandle(0)));
        // The exact receive for the younger one must skip the dead ref.
        let r = m
            .post(ReceivePattern::exact(Rank(3), Tag(2)), RecvHandle(1))
            .unwrap();
        assert_eq!(r, PostResult::Matched(MsgHandle(1)));
        assert_eq!(m.umq_len(), 0);
    }

    #[test]
    fn empty_bin_fraction_decreases_with_occupancy() {
        let mut m = FourIndexMatcher::new(32);
        assert_eq!(m.prq_empty_bin_fraction(), 1.0);
        for t in 0..64u32 {
            m.post(
                ReceivePattern::exact(Rank(0), Tag(t)),
                RecvHandle(u64::from(t)),
            )
            .unwrap();
        }
        assert!(m.prq_empty_bin_fraction() < 0.5);
    }

    #[test]
    fn stale_refs_are_purged_even_when_views_are_never_searched() {
        // A wildcard-free workload never scans by_tag/by_src/order; without
        // the purge these views would grow by 3 refs per consumed message.
        let mut m = FourIndexMatcher::new(4);
        for i in 0..10_000u64 {
            m.arrive(Envelope::world(Rank(0), Tag((i % 7) as u32)), MsgHandle(i))
                .unwrap();
            m.post(
                ReceivePattern::exact(Rank(0), Tag((i % 7) as u32)),
                RecvHandle(i),
            )
            .unwrap();
        }
        assert_eq!(m.umq_len(), 0);
        let order_refs = m.umq_order.len();
        let tag_refs: usize = m.umq_by_tag.iter().map(|d| d.len()).sum();
        assert!(order_refs < 512, "order view holds {order_refs} refs");
        assert!(tag_refs < 512, "tag view holds {tag_refs} refs");
    }

    #[test]
    fn umq_slab_is_recycled() {
        let mut m = FourIndexMatcher::new(4);
        for round in 0..50u64 {
            for i in 0..6u64 {
                m.arrive(
                    Envelope::world(Rank(0), Tag(i as u32)),
                    MsgHandle(round * 6 + i),
                )
                .unwrap();
            }
            for i in 0..6u64 {
                let r = m
                    .post(
                        ReceivePattern::exact(Rank(0), Tag(i as u32)),
                        RecvHandle(round * 6 + i),
                    )
                    .unwrap();
                assert!(matches!(r, PostResult::Matched(_)));
            }
        }
        assert!(m.umq_slab.len() <= 12, "slab grew to {}", m.umq_slab.len());
    }
}
