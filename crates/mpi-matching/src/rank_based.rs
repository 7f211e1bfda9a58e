//! A rank-based matcher in the style of Dózsa et al. ("Enabling concurrent
//! multithreaded MPI communication on multicore petascale systems",
//! EuroMPI 2010) — included for the Table I strategy comparison.
//!
//! Receives naming a concrete source rank are kept in a per-rank list;
//! `MPI_ANY_SOURCE` receives go to a shared list. Post labels arbitrate C1
//! between the two, exactly as the timestamps do in the bin-based matcher.
//! The unexpected side keeps a per-source-rank list (messages always have a
//! concrete source) plus a global arrival-order list searched by
//! `MPI_ANY_SOURCE` receives.
//!
//! Compared to the bin-based scheme, the rank-based split is perfect for
//! many-to-one patterns (each sender gets its own queue) but degenerates when
//! one peer sends with many tags: all of those collide in one rank list.

use crate::matcher::{ArriveResult, Matcher, MsgHandle, PostResult, RecvHandle};
use crate::stats::MatchStats;
use otm_base::envelope::SourceSel;
use otm_base::{Envelope, MatchError, PostLabel, Rank, ReceivePattern};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

#[derive(Debug, Clone, Copy)]
struct PostedRecv {
    pattern: ReceivePattern,
    label: PostLabel,
    handle: RecvHandle,
}

#[derive(Debug, Clone, Copy)]
struct UnexpectedMsg {
    env: Envelope,
    handle: MsgHandle,
    gen: u32,
    alive: bool,
}

/// Generation-stamped reference to a slab entry; prevents a recycled slot
/// from resurrecting under a stale reference held by the other UMQ view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EntryRef {
    slot: u32,
    gen: u32,
}

/// The rank-based matcher (see module docs).
#[derive(Debug, Clone, Default)]
pub struct RankBasedMatcher {
    /// Receives with a concrete source, keyed by that source rank.
    prq_by_rank: HashMap<Rank, VecDeque<PostedRecv>>,
    /// `MPI_ANY_SOURCE` receives, post order.
    prq_any_source: VecDeque<PostedRecv>,
    next_label: PostLabel,
    umq_slab: Vec<UnexpectedMsg>,
    umq_free: Vec<u32>,
    umq_by_rank: HashMap<Rank, VecDeque<EntryRef>>,
    umq_order: VecDeque<EntryRef>,
    umq_live: usize,
    prq_live: usize,
    stats: MatchStats,
}

impl RankBasedMatcher {
    /// Creates an empty matcher.
    pub fn new() -> Self {
        RankBasedMatcher::default()
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

impl Matcher for RankBasedMatcher {
    fn post(
        &mut self,
        pattern: ReceivePattern,
        handle: RecvHandle,
    ) -> Result<PostResult, MatchError> {
        let (hit, depth) = match pattern.src {
            SourceSel::Rank(src) => match self.umq_by_rank.entry(src) {
                Entry::Occupied(mut e) => {
                    let (hit, depth) =
                        Self::scan_umq_refs(&mut self.umq_slab, e.get_mut(), &pattern);
                    if e.get().is_empty() {
                        e.remove();
                    }
                    (hit, depth)
                }
                Entry::Vacant(_) => (None, 0),
            },
            SourceSel::Any => {
                Self::scan_umq_refs(&mut self.umq_slab, &mut self.umq_order, &pattern)
            }
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
                match pattern.src {
                    SourceSel::Rank(src) => {
                        self.prq_by_rank.entry(src).or_default().push_back(entry)
                    }
                    SourceSel::Any => self.prq_any_source.push_back(entry),
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
        let mut depth = 0usize;
        // Candidate 1: first match in the sender's rank list.
        let mut rank_hit: Option<(usize, PostLabel)> = None;
        if let Some(list) = self.prq_by_rank.get(&env.src) {
            for (i, r) in list.iter().enumerate() {
                depth += 1;
                if r.pattern.matches(&env) {
                    rank_hit = Some((i, r.label));
                    break;
                }
            }
        }
        // Candidate 2: first match in the ANY_SOURCE list.
        let mut any_hit: Option<(usize, PostLabel)> = None;
        for (i, r) in self.prq_any_source.iter().enumerate() {
            depth += 1;
            if r.pattern.matches(&env) {
                any_hit = Some((i, r.label));
                break;
            }
        }
        let take_rank = match (rank_hit, any_hit) {
            (Some((_, rl)), Some((_, al))) => rl < al,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => {
                let r = self.alloc_umq(env, handle);
                self.umq_by_rank.entry(env.src).or_default().push_back(r);
                self.umq_order.push_back(r);
                self.umq_live += 1;
                self.stats.record_arrival(depth, false);
                self.stats.observe_queue_lens(self.prq_live, self.umq_live);
                return Ok(ArriveResult::Unexpected);
            }
        };
        let recv = if take_rank {
            let (i, _) = rank_hit.expect("rank candidate chosen");
            let list = self.prq_by_rank.get_mut(&env.src).expect("list exists");
            let r = list.remove(i).expect("index valid");
            if list.is_empty() {
                self.prq_by_rank.remove(&env.src);
            }
            r
        } else {
            let (i, _) = any_hit.expect("any-source candidate chosen");
            self.prq_any_source.remove(i).expect("index valid")
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
        "rank-based"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{MatchEvent, Oracle};
    use otm_base::Tag;

    fn post(src: u32, tag: u32) -> MatchEvent {
        MatchEvent::Post(ReceivePattern::exact(Rank(src), Tag(tag)))
    }

    fn arrive(src: u32, tag: u32) -> MatchEvent {
        MatchEvent::Arrive(Envelope::world(Rank(src), Tag(tag)))
    }

    #[test]
    fn agrees_with_oracle_on_mixed_workload() {
        let events = vec![
            post(0, 1),
            MatchEvent::Post(ReceivePattern::any_source(Tag(1))),
            MatchEvent::Post(ReceivePattern::any_tag(Rank(1))),
            arrive(1, 1),
            arrive(0, 1),
            arrive(2, 1),
            arrive(3, 3),
            MatchEvent::Post(ReceivePattern::any_any()),
            post(3, 3),
        ];
        let mut m = RankBasedMatcher::new();
        assert_eq!(
            Oracle::drive(&mut m, &events).unwrap(),
            Oracle::run(&events)
        );
    }

    #[test]
    fn many_to_one_searches_stay_shallow() {
        // 32 senders, one receive posted per sender; messages arrive in
        // reverse sender order. Rank lists keep every search at depth <= 2
        // (its own list plus an empty ANY_SOURCE list costs nothing extra).
        let mut events = Vec::new();
        for s in 0..32u32 {
            events.push(post(s, 0));
        }
        for s in (0..32u32).rev() {
            events.push(arrive(s, 0));
        }
        let mut m = RankBasedMatcher::new();
        Oracle::drive(&mut m, &events).unwrap();
        assert!(
            m.stats().prq_search.max <= 2,
            "max depth {}",
            m.stats().prq_search.max
        );
    }

    #[test]
    fn single_sender_many_tags_degenerates() {
        // The weakness of rank-based matching: one sender, many tags.
        let mut events = Vec::new();
        for t in 0..32u32 {
            events.push(post(0, t));
        }
        for t in (0..32u32).rev() {
            events.push(arrive(0, t));
        }
        let mut m = RankBasedMatcher::new();
        Oracle::drive(&mut m, &events).unwrap();
        assert_eq!(m.stats().prq_search.max, 31);
    }

    #[test]
    fn any_source_receive_consumes_oldest_across_ranks() {
        let events = vec![
            arrive(5, 0),
            arrive(1, 0),
            MatchEvent::Post(ReceivePattern::any_source(Tag(0))),
        ];
        let mut m = RankBasedMatcher::new();
        let asg = Oracle::drive(&mut m, &events).unwrap();
        assert_eq!(asg, Oracle::run(&events));
        assert_eq!(asg.recv_to_msg[&RecvHandle(0)], Some(MsgHandle(0)));
    }

    #[test]
    fn label_arbitration_between_rank_and_any_source_lists() {
        for flip in [false, true] {
            let mut events = vec![
                MatchEvent::Post(ReceivePattern::any_source(Tag(2))),
                post(4, 2),
            ];
            if flip {
                events.swap(0, 1);
            }
            events.push(arrive(4, 2));
            let mut m = RankBasedMatcher::new();
            assert_eq!(
                Oracle::drive(&mut m, &events).unwrap(),
                Oracle::run(&events),
                "flip={flip}"
            );
        }
    }

    #[test]
    fn empty_rank_lists_are_dropped() {
        let mut m = RankBasedMatcher::new();
        m.post(ReceivePattern::exact(Rank(7), Tag(0)), RecvHandle(0))
            .unwrap();
        m.arrive(Envelope::world(Rank(7), Tag(0)), MsgHandle(0))
            .unwrap();
        assert!(m.prq_by_rank.is_empty());
        assert_eq!(m.prq_len(), 0);
    }

    #[test]
    fn random_workload_agrees_with_oracle() {
        let mut rng = otm_base::FaultRng::new(7);
        let events: Vec<MatchEvent> = (0..500)
            .map(|_| {
                let src = rng.below(3) as u32;
                let tag = rng.below(3) as u32;
                match rng.below(7) {
                    0..=2 => arrive(src, tag),
                    3 | 4 => post(src, tag),
                    5 => MatchEvent::Post(ReceivePattern::any_source(Tag(tag))),
                    _ => MatchEvent::Post(ReceivePattern::any_any()),
                }
            })
            .collect();
        let mut m = RankBasedMatcher::new();
        assert_eq!(
            Oracle::drive(&mut m, &events).unwrap(),
            Oracle::run(&events)
        );
    }
}
