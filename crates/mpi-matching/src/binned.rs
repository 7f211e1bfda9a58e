//! A bin-based matcher in the style of Flajslik et al. ("Mitigating MPI
//! message matching misery", ISC 2016) — Table I's bin-based row, and one
//! more backend the matcher-agreement tests hold against the oracle.
//!
//! Fully-specified receives live in a hash table keyed on
//! `(source, tag, communicator)`; receives using any wildcard live in a
//! separate ordered list. Every entry carries a timestamp (its post label)
//! so that a message whose bin candidate and wildcard-list candidate both
//! match picks the earlier-posted one, preserving C1 across the two
//! structures. The unexpected side mirrors this: messages are binned by
//! their `(source, tag)` key *and* threaded onto a global arrival-order
//! list that wildcard receives search, preserving C2.
//!
//! With `b = 1` every key collides and the matcher degenerates into the
//! traditional linear scan, the paper's 1-bin baseline. The average
//! search cost for well-spread keys is `O(n/b)` (§II-B).

use crate::matcher::{ArriveResult, Matcher, MsgHandle, PostResult, RecvHandle};
use crate::stats::MatchStats;
use otm_base::hash::{bin_of, hash_src_tag};
use otm_base::{Envelope, MatchError, PostLabel, ReceivePattern, WildcardClass};
use std::collections::VecDeque;

/// A posted receive entry.
#[derive(Debug, Clone, Copy)]
struct PostedRecv {
    pattern: ReceivePattern,
    label: PostLabel,
    handle: RecvHandle,
}

/// A slab entry for an unexpected message. Messages are referenced from both
/// the bin and the global list, so removal tombstones the slab entry and the
/// scans clean up references as they pass. References are generation-stamped
/// so a recycled slot cannot resurrect under a stale reference (which would
/// surface the new message at the old message's queue position, violating C2).
#[derive(Debug, Clone, Copy)]
struct UnexpectedMsg {
    env: Envelope,
    handle: MsgHandle,
    gen: u32,
    alive: bool,
}

/// Generation-stamped reference to a slab entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EntryRef {
    slot: u32,
    gen: u32,
}

/// The bin-based matcher (see module docs).
#[derive(Debug, Clone)]
pub struct BinnedMatcher {
    bins: usize,
    /// PRQ bins: fully-specified receives, post order within each bin.
    prq_bins: Vec<VecDeque<PostedRecv>>,
    /// PRQ wildcard list: receives with any wildcard, post order.
    prq_wild: VecDeque<PostedRecv>,
    next_label: PostLabel,
    /// UMQ slab; `umq_bins` and `umq_order` hold indices into it.
    umq_slab: Vec<UnexpectedMsg>,
    umq_free: Vec<u32>,
    umq_bins: Vec<VecDeque<EntryRef>>,
    umq_order: VecDeque<EntryRef>,
    umq_live: usize,
    prq_live: usize,
    stats: MatchStats,
    /// Commands submitted through [`crate::MatchingBackend::submit_command`]
    /// and not yet drained.
    pub(crate) queue: Vec<crate::backend::PendingCommand>,
}

impl BinnedMatcher {
    /// Creates a matcher with `bins` bins per hash table.
    ///
    /// # Panics
    /// Panics if `bins == 0`.
    pub fn new(bins: usize) -> Self {
        assert!(bins > 0, "a bin-based matcher needs at least one bin");
        BinnedMatcher {
            bins,
            prq_bins: vec![VecDeque::new(); bins],
            prq_wild: VecDeque::new(),
            next_label: PostLabel::ZERO,
            umq_slab: Vec::new(),
            umq_free: Vec::new(),
            umq_bins: vec![VecDeque::new(); bins],
            umq_order: VecDeque::new(),
            umq_live: 0,
            prq_live: 0,
            stats: MatchStats::new(),
            queue: Vec::new(),
        }
    }

    /// Number of bins per hash table.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Fraction of PRQ bins currently empty — one of the statistics the
    /// paper's analyzer records (§V-A).
    pub fn prq_empty_bin_fraction(&self) -> f64 {
        let empty = self.prq_bins.iter().filter(|b| b.is_empty()).count();
        empty as f64 / self.bins as f64
    }

    /// Copies out the full matching state: pending receives re-serialized
    /// into post order (the bins and the wildcard list are merged by post
    /// label) and unexpected messages in arrival order — the
    /// [`FallbackState`](crate::backend::FallbackState) shape the backend
    /// trait's drain hands to a replacement matcher.
    pub fn snapshot_state(&self) -> crate::backend::FallbackState {
        let mut posted: Vec<PostedRecv> = self
            .prq_bins
            .iter()
            .flatten()
            .chain(self.prq_wild.iter())
            .copied()
            .collect();
        posted.sort_by_key(|r| r.label);
        let receives = posted.into_iter().map(|r| (r.pattern, r.handle)).collect();
        // The global order list is in arrival order; skip stale refs.
        let unexpected = self
            .umq_order
            .iter()
            .filter_map(|r| {
                let e = &self.umq_slab[r.slot as usize];
                (e.gen == r.gen && e.alive).then_some((e.env, e.handle))
            })
            .collect();
        crate::backend::FallbackState::from_state(receives, unexpected)
    }

    fn bin_for_env(&self, env: &Envelope) -> usize {
        bin_of(hash_src_tag(env.src, env.tag, env.comm), self.bins)
    }

    /// Bin index for a fully-specified receive pattern.
    fn bin_for_pattern(&self, p: &ReceivePattern) -> usize {
        use otm_base::envelope::{SourceSel, TagSel};
        let (SourceSel::Rank(src), TagSel::Tag(tag)) = (p.src, p.tag) else {
            unreachable!("only fully-specified receives are binned");
        };
        bin_of(hash_src_tag(src, tag, p.comm), self.bins)
    }

    fn alloc_umq(&mut self, env: Envelope, handle: MsgHandle) -> EntryRef {
        let slot = if let Some(idx) = self.umq_free.pop() {
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
        EntryRef {
            slot,
            gen: self.umq_slab[slot as usize].gen,
        }
    }

    /// Scans an index deque of UMQ slab references, dropping dead references
    /// in passing; removes and returns the first live entry matching
    /// `pattern`, with the number of live entries examined.
    fn scan_umq_refs(
        slab: &mut [UnexpectedMsg],
        refs: &mut VecDeque<EntryRef>,
        pattern: &ReceivePattern,
    ) -> (Option<(u32, MsgHandle)>, usize) {
        let mut depth = 0usize;
        let mut i = 0usize;
        while i < refs.len() {
            let r = refs[i];
            let entry = &mut slab[r.slot as usize];
            if entry.gen != r.gen || !entry.alive {
                refs.remove(i);
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
}

impl Matcher for BinnedMatcher {
    fn post(
        &mut self,
        pattern: ReceivePattern,
        handle: RecvHandle,
    ) -> Result<PostResult, MatchError> {
        // Fully-specified receives need only search their key's bin; wildcard
        // receives search the global arrival-order list. Either search
        // returns the oldest matching message because both structures keep
        // arrival order.
        let wild = pattern.wildcard_class() != WildcardClass::None;
        let (hit, depth) = if wild {
            Self::scan_umq_refs(&mut self.umq_slab, &mut self.umq_order, &pattern)
        } else {
            let bin = self.bin_for_pattern(&pattern);
            Self::scan_umq_refs(&mut self.umq_slab, &mut self.umq_bins[bin], &pattern)
        };
        let result = match hit {
            Some((idx, msg)) => {
                self.umq_free.push(idx);
                self.umq_live -= 1;
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
                if wild {
                    self.prq_wild.push_back(entry);
                } else {
                    let bin = self.bin_for_pattern(&pattern);
                    self.prq_bins[bin].push_back(entry);
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
        // Candidate 1: the first matching receive in the message's bin.
        let bin = self.bin_for_env(&env);
        let mut depth = 0usize;
        let mut bin_hit: Option<(usize, PostLabel)> = None;
        for (i, r) in self.prq_bins[bin].iter().enumerate() {
            depth += 1;
            if r.pattern.matches(&env) {
                bin_hit = Some((i, r.label));
                break;
            }
        }
        // Candidate 2: the first matching receive in the wildcard list.
        let mut wild_hit: Option<(usize, PostLabel)> = None;
        for (i, r) in self.prq_wild.iter().enumerate() {
            depth += 1;
            if r.pattern.matches(&env) {
                wild_hit = Some((i, r.label));
                break;
            }
        }
        // The timestamps arbitrate C1 between the two structures.
        let take_bin = match (bin_hit, wild_hit) {
            (Some((_, bl)), Some((_, wl))) => bl < wl,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => {
                let r = self.alloc_umq(env, handle);
                self.umq_bins[bin].push_back(r);
                self.umq_order.push_back(r);
                self.umq_live += 1;
                self.stats.record_arrival(depth, false);
                self.stats.observe_queue_lens(self.prq_live, self.umq_live);
                return Ok(ArriveResult::Unexpected);
            }
        };
        let recv = if take_bin {
            let (i, _) = bin_hit.expect("bin candidate chosen");
            self.prq_bins[bin].remove(i).expect("index valid")
        } else {
            let (i, _) = wild_hit.expect("wildcard candidate chosen");
            self.prq_wild.remove(i).expect("index valid")
        };
        self.prq_live -= 1;
        self.stats.record_arrival(depth, true);
        self.stats.observe_queue_lens(self.prq_live, self.umq_live);
        Ok(ArriveResult::Matched(recv.handle))
    }

    fn prq_len(&self) -> usize {
        self.prq_live
    }

    fn umq_len(&self) -> usize {
        self.umq_live
    }

    fn probe(&self, pattern: &ReceivePattern) -> Option<MsgHandle> {
        // The global list is in arrival order; skip stale refs read-only.
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
        "bin-based"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{MatchEvent, Oracle};
    use otm_base::{Rank, Tag};

    fn post(src: u32, tag: u32) -> MatchEvent {
        MatchEvent::Post(ReceivePattern::exact(Rank(src), Tag(tag)))
    }

    fn arrive(src: u32, tag: u32) -> MatchEvent {
        MatchEvent::Arrive(Envelope::world(Rank(src), Tag(tag)))
    }

    fn check_against_oracle(bins: usize, events: &[MatchEvent]) {
        let mut m = BinnedMatcher::new(bins);
        let got = Oracle::drive(&mut m, events).unwrap();
        assert_eq!(got, Oracle::run(events), "bins={bins}, workload {events:?}");
    }

    #[test]
    fn agrees_with_oracle_across_bin_counts() {
        let events = vec![
            post(0, 1),
            post(1, 1),
            MatchEvent::Post(ReceivePattern::any_source(Tag(1))),
            arrive(1, 1),
            arrive(0, 1),
            arrive(5, 1),
            MatchEvent::Post(ReceivePattern::any_any()),
            arrive(9, 9),
            post(9, 9),
        ];
        for bins in [1, 2, 32, 128] {
            check_against_oracle(bins, &events);
        }
    }

    #[test]
    fn one_bin_behaves_like_traditional() {
        use crate::traditional::TraditionalMatcher;
        let events: Vec<MatchEvent> = (0..40)
            .map(|i| {
                if i % 3 == 0 {
                    post(i % 5, i % 7)
                } else {
                    arrive(i % 5, (i + 1) % 7)
                }
            })
            .collect();
        let mut binned = BinnedMatcher::new(1);
        let mut trad = TraditionalMatcher::new();
        let a = Oracle::drive(&mut binned, &events).unwrap();
        let b = Oracle::drive(&mut trad, &events).unwrap();
        assert_eq!(a, b);
        // With one bin the search depths are the traditional linear-scan
        // depths too.
        assert_eq!(binned.stats().prq_search.max, trad.stats().prq_search.max);
        assert_eq!(binned.stats().prq_search.sum, trad.stats().prq_search.sum);
    }

    #[test]
    fn timestamps_arbitrate_between_bin_and_wildcard_list() {
        // Wildcard receive posted FIRST must beat a bin receive posted later.
        check_against_oracle(
            32,
            &[
                MatchEvent::Post(ReceivePattern::any_source(Tag(4))),
                post(2, 4),
                arrive(2, 4),
            ],
        );
        // And the other way around.
        check_against_oracle(
            32,
            &[
                post(2, 4),
                MatchEvent::Post(ReceivePattern::any_source(Tag(4))),
                arrive(2, 4),
            ],
        );
    }

    #[test]
    fn more_bins_reduce_search_depth() {
        // 64 receives with distinct tags, then 64 matching messages in
        // reverse order: the classic matching-misery pattern.
        let mut events = Vec::new();
        for t in 0..64u32 {
            events.push(post(0, t));
        }
        for t in (0..64u32).rev() {
            events.push(arrive(0, t));
        }
        let mut depth1 = 0.0;
        let mut depth128 = 0.0;
        for (bins, out) in [(1usize, &mut depth1), (128usize, &mut depth128)] {
            let mut m = BinnedMatcher::new(bins);
            Oracle::drive(&mut m, &events).unwrap();
            *out = m.stats().prq_search.mean();
        }
        assert!(
            depth128 < depth1 / 4.0,
            "1 bin: {depth1}, 128 bins: {depth128}"
        );
    }

    #[test]
    fn empty_bin_fraction_reflects_occupancy() {
        let mut m = BinnedMatcher::new(16);
        assert_eq!(m.prq_empty_bin_fraction(), 1.0);
        m.post(ReceivePattern::exact(Rank(0), Tag(0)), RecvHandle(0))
            .unwrap();
        assert!(m.prq_empty_bin_fraction() < 1.0);
    }

    #[test]
    fn umq_slab_recycles_entries() {
        let mut m = BinnedMatcher::new(8);
        for round in 0..6u64 {
            for i in 0..10u64 {
                m.arrive(
                    Envelope::world(Rank(0), Tag(i as u32)),
                    MsgHandle(round * 10 + i),
                )
                .unwrap();
            }
            for i in 0..10u64 {
                let r = m
                    .post(
                        ReceivePattern::exact(Rank(0), Tag(i as u32)),
                        RecvHandle(round * 10 + i),
                    )
                    .unwrap();
                assert!(matches!(r, PostResult::Matched(_)));
            }
        }
        assert_eq!(m.umq_len(), 0);
        assert!(m.umq_slab.len() <= 10, "slab grew to {}", m.umq_slab.len());
    }

    #[test]
    fn dead_references_are_purged_from_both_umq_views() {
        let mut m = BinnedMatcher::new(4);
        // Two unexpected messages; consume the older via the bin path
        // (exact receive), then the younger via the wildcard path.
        m.arrive(Envelope::world(Rank(0), Tag(0)), MsgHandle(0))
            .unwrap();
        m.arrive(Envelope::world(Rank(1), Tag(1)), MsgHandle(1))
            .unwrap();
        let r = m
            .post(ReceivePattern::exact(Rank(0), Tag(0)), RecvHandle(0))
            .unwrap();
        assert_eq!(r, PostResult::Matched(MsgHandle(0)));
        // The global order list still references the dead entry; a wildcard
        // post must skip it and find message 1.
        let r = m.post(ReceivePattern::any_any(), RecvHandle(1)).unwrap();
        assert_eq!(r, PostResult::Matched(MsgHandle(1)));
        assert_eq!(m.umq_len(), 0);
    }

    #[test]
    fn zero_bins_is_rejected() {
        let result = std::panic::catch_unwind(|| BinnedMatcher::new(0));
        assert!(result.is_err());
    }

    #[test]
    fn random_workload_agrees_with_oracle() {
        let mut rng = otm_base::FaultRng::new(42);
        for bins in [1usize, 2, 7, 32, 128] {
            let events: Vec<MatchEvent> = (0..400)
                .map(|_| {
                    let src = rng.below(4) as u32;
                    let tag = rng.below(4) as u32;
                    match rng.below(6) {
                        0 | 1 => arrive(src, tag),
                        2 | 3 => post(src, tag),
                        4 => MatchEvent::Post(ReceivePattern::any_source(Tag(tag))),
                        _ => MatchEvent::Post(ReceivePattern::any_tag(Rank(src))),
                    }
                })
                .collect();
            check_against_oracle(bins, &events);
        }
    }
}
