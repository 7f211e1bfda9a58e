//! The trace processing stage (§V-A b): replay the operations, in global
//! time order, through one optimistic engine per rank and gather
//! statistics.
//!
//! "Each MPI operation within the in-memory representation of the trace
//! gets sequentially processed until none remain. Only p2p and progress
//! operations are processed, ignoring collectives and one-sided." Receives
//! post into their rank's matcher; sends become incoming messages at the
//! destination rank's matcher; progress operations snapshot the state of
//! the data structures, forming the data points of §V-A.
//!
//! Each rank's matcher is the real engine, `otm::SequentialOtm`: the three
//! binned hash tables plus wildcard list of §III-B, with an unexpected store
//! indexed in all four ways (§IV-C). Its search depths are the queue depths
//! of Fig. 7; with one bin it degenerates into traditional linear-scan
//! matching.
//!
//! The order is [`AppTrace::split`]'s, the one order of the trace: time,
//! then rank, then program index, on a time key that orders every float
//! (`model.rs` derives it; this module takes no float's bits). The split
//! hands each rank its own events in that order, routed by
//! [`crate::model::route`], without merging the trace as a whole;
//! [`AppTrace::merged_ops`], which does, is the split's test reference.
//!
//! The per-rank walk is the workspace's one engine replay of a trace. It
//! numbers each rank's receives and messages in its own post and arrival
//! order and places every match by receive ([`Placement`]), so
//! [`matched_pairs`] hands back the pairs the end-to-end replay
//! (`dpa_sim::app_replay`) must reproduce over a wire: that replay's
//! oracle is this walk.

use crate::model::{route, AppTrace, CallKind, MpiOp, TimedOp};
use mpi_matching::{ArriveResult, MatchStats, Matcher, MsgHandle, PostResult, RecvHandle};
use otm::SequentialOtm;
use otm_base::hash::IntHasher;
use otm_base::{Envelope, MatchConfig, ReceivePattern};
use otm_metrics::{json_fields, HistogramSnapshot};
use std::collections::HashSet;
use std::hash::BuildHasherDefault;

/// A set of integer keys, hashed by `IntHasher` (two multiplies a key).
type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

/// Analyzer parameters.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Bins per hash table (the Fig. 7 sweep parameter; 1 = traditional).
    pub bins: usize,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig { bins: 128 }
    }
}

/// Fig. 6: the distribution of MPI call types.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallDistribution {
    /// Point-to-point calls.
    pub p2p: u64,
    /// Collective calls.
    pub collective: u64,
    /// One-sided calls.
    pub one_sided: u64,
    /// Progress calls (Wait/Waitall) — shown separately from p2p in our
    /// reports; the paper folds them out of the distribution.
    pub progress: u64,
}

json_fields!(CallDistribution: p2p, collective, one_sided, progress);

impl CallDistribution {
    /// Total communication calls (excluding progress).
    pub(crate) fn comm_total(&self) -> u64 {
        self.p2p + self.collective + self.one_sided
    }

    /// Fraction of p2p among communication calls.
    pub fn p2p_fraction(&self) -> f64 {
        if self.comm_total() == 0 {
            0.0
        } else {
            self.p2p as f64 / self.comm_total() as f64
        }
    }

    /// Fraction of collectives among communication calls.
    pub fn collective_fraction(&self) -> f64 {
        if self.comm_total() == 0 {
            0.0
        } else {
            self.collective as f64 / self.comm_total() as f64
        }
    }

    /// Fraction of one-sided among communication calls.
    pub(crate) fn one_sided_fraction(&self) -> f64 {
        if self.comm_total() == 0 {
            0.0
        } else {
            self.one_sided as f64 / self.comm_total() as f64
        }
    }
}

/// Tag-usage statistics (§V: "the number of unique source/tag posted
/// receives is low, indicating that the receives are well spread in the
/// hash tables").
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TagUsage {
    /// Distinct tags across all sends.
    pub distinct_tags: usize,
    /// Distinct `(src, tag)` pairs across all sends.
    pub distinct_src_tag_pairs: usize,
    /// Fraction of receives using any wildcard.
    pub wildcard_recv_fraction: f64,
}

json_fields!(TagUsage: distinct_tags, distinct_src_tag_pairs, wildcard_recv_fraction);

/// Per-application analyzer output.
#[derive(Debug, Clone)]
pub struct AppReport {
    /// Application name (Table II).
    pub(crate) name: String,
    /// Number of processes in the trace.
    pub(crate) processes: usize,
    /// Bin count the replay used.
    pub bins: usize,
    /// Fig. 6 call distribution.
    pub call_dist: CallDistribution,
    /// Matching statistics merged over all ranks (queue depths of Fig. 7).
    pub match_stats: MatchStats,
    /// Mean search depth over both queues.
    pub mean_queue_depth: f64,
    /// Maximum search depth over both queues.
    pub max_queue_depth: u64,
    /// Average empty-bin fraction sampled at progress points.
    pub(crate) avg_empty_bin_fraction: f64,
    /// Tag usage statistics.
    pub tag_usage: TagUsage,
    /// Receives still pending when the trace ended.
    pub final_prq: usize,
    /// Messages still unexpected when the trace ended.
    pub final_umq: usize,
    /// Progress-point data points collected.
    pub datapoints: usize,
    /// Events each rank's matcher replayed, one sample per rank with any
    /// (read by [`crate::obs::observability`]; not part of the row).
    pub(crate) rank_events: HistogramSnapshot,
}

// The Fig. 6/7 artifact row.
json_fields!(AppReport: name, processes, bins, call_dist, match_stats, mean_queue_depth,
    max_queue_depth, avg_empty_bin_fraction, tag_usage, final_prq, final_umq, datapoints);

/// A matched (receive, message) pair, numbered per destination rank:
/// `(destination, receive, message)`, where `receive` is the receive's
/// position in the destination's post stream and `message` the message's
/// position in its arrival stream.
pub type MatchedPair = (u32, u64, u64);

/// One rank's share of the trace.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A receive the rank posts.
    Post(ReceivePattern),
    /// A message addressed to the rank.
    Arrive(Envelope),
    /// A progress point of the rank's own (`Wait`/`Waitall`).
    Progress,
}

/// Replays an application trace with the given bin count.
///
/// Matchers of different ranks never interact: a rank's matcher sees only
/// its own posts and the arrivals addressed to it, in global time order. So
/// a pass over the trace in any order counts calls and tags, and the ranks
/// are replayed one after another by [`matched_pairs`]' walk, through one
/// engine sized for the largest rank and reset before each (a reset engine
/// reads as new, and a larger table changes no count). A progress point
/// samples the same state rank-major as it would interleaved, and the
/// samples are summed as they are taken. With one communicator and a
/// power-of-two bin count every sample is a dyadic fraction, so that sum is
/// exact, whatever its order; with another bin count, or several
/// communicators, the mean may differ from a sum in global time order in
/// its last bits.
pub fn replay(trace: &AppTrace, config: &ReplayConfig) -> AppReport {
    let mut dist = CallDistribution::default();
    // Distinct tags and (source, tag) pairs. A pair is two words, so both
    // reach the low bits of its hash, which pick its bucket.
    let mut tags: IntSet<u64> = IntSet::default();
    let mut src_tag_pairs: IntSet<(u64, u64)> = IntSet::default();
    let mut recv_count = 0u64;
    let mut wildcard_recvs = 0u64;
    for r in &trace.ranks {
        for TimedOp { op, .. } in &r.ops {
            match op.kind() {
                CallKind::PointToPoint => dist.p2p += 1,
                CallKind::Collective => dist.collective += 1,
                CallKind::OneSided => dist.one_sided += 1,
                CallKind::Progress => dist.progress += 1,
            }
            match *op {
                MpiOp::Irecv { src, tag, .. } | MpiOp::Recv { src, tag, .. } => {
                    recv_count += 1;
                    if src.is_wild() || tag.is_wild() {
                        wildcard_recvs += 1;
                    }
                }
                MpiOp::Isend { tag, .. } | MpiOp::Send { tag, .. } => {
                    tags.insert(u64::from(tag.0));
                    src_tag_pairs.insert((u64::from(r.rank.0), u64::from(tag.0)));
                }
                _ => {}
            }
        }
    }
    AppReport {
        call_dist: dist,
        tag_usage: TagUsage {
            distinct_tags: tags.len(),
            distinct_src_tag_pairs: src_tag_pairs.len(),
            wildcard_recv_fraction: if recv_count == 0 {
                0.0
            } else {
                wildcard_recvs as f64 / recv_count as f64
            },
        },
        ..walk(trace, config.bins, None)
    }
}

/// Every matched pair of the trace at `bins` bins, sorted (destination,
/// then receive): the walk [`replay`] takes, its receives and messages
/// numbered per destination, without the progress points' samples.
pub fn matched_pairs(trace: &AppTrace, bins: usize) -> Vec<MatchedPair> {
    let mut pairs = Vec::new();
    walk(trace, bins, Some(&mut pairs));
    pairs
}

/// The one per-rank replay of a trace: [`AppTrace::split`] hands each rank
/// its events, counting its posts and arrivals, and the ranks go through
/// one engine in turn. With `pairs` it appends every rank's matched pairs
/// there, in receive order, and routes no progress point; without, it
/// samples each. Its report holds all but the call and tag counts.
fn walk(trace: &AppTrace, bins: usize, mut pairs: Option<&mut Vec<MatchedPair>>) -> AppReport {
    let n = trace.rank_bound();
    let sample = pairs.is_none();
    let routed = |rank, t: &TimedOp| match t.op {
        MpiOp::Wait { .. } | MpiOp::Waitall { .. } if !sample => None,
        op => route(rank, &op, n),
    };
    // The engine's table holds the most receives any rank posts, and its
    // store the most messages that reach any rank.
    let (mut posts, mut arrivals) = (vec![0usize; n], vec![0usize; n]);
    let mut datapoints = 0usize;
    let per_rank = trace.split(n, routed, |dest, rank, &TimedOp { op, .. }| match op {
        MpiOp::Irecv { src, tag, comm, .. } | MpiOp::Recv { src, tag, comm, .. } => {
            posts[dest] += 1;
            Event::Post(ReceivePattern { src, tag, comm })
        }
        MpiOp::Isend { tag, comm, .. } | MpiOp::Send { tag, comm, .. } => {
            arrivals[dest] += 1;
            Event::Arrive(Envelope::new(rank, tag, comm))
        }
        _ => {
            // Progress point: snapshot the data-structure state (§V-A).
            datapoints += 1;
            Event::Progress
        }
    });

    let mut merged = MatchStats::new();
    let (mut final_prq, mut final_umq) = (0usize, 0usize);
    let mut empty_bin_sum = 0.0f64;
    let engine_config = MatchConfig::default()
        .with_bins(bins)
        .with_block_threads(1)
        .with_max_receives(posts.iter().copied().fold(1, usize::max))
        .with_max_unexpected(arrivals.into_iter().fold(1, usize::max));
    let mut engine = SequentialOtm::new(engine_config).expect("replay engine configuration");
    let mut placed = Placement::default();
    let mut rank_events = HistogramSnapshot::empty();
    for (dest, events) in per_rank.iter().enumerate() {
        if events.is_empty() {
            continue;
        }
        rank_events.record(events.len() as u64);
        engine.reset().expect("a sequential engine queues nothing");
        placed.arm(posts[dest]);
        let (mut next_recv, mut next_msg) = (0u64, 0u64);
        for &event in events {
            match event {
                Event::Post(pattern) => {
                    let posted = engine.post(pattern, RecvHandle(next_recv));
                    let posted = posted.expect("the table holds every receive the rank posts");
                    if let PostResult::Matched(msg) = posted {
                        placed.place(next_recv, msg.0);
                    }
                    next_recv += 1;
                }
                Event::Arrive(env) => {
                    let arrived = engine.arrive(env, MsgHandle(next_msg));
                    let arrived = arrived.expect("the store holds every message the rank receives");
                    if let ArriveResult::Matched(recv) = arrived {
                        placed.place(recv.0, next_msg);
                    }
                    next_msg += 1;
                }
                Event::Progress => empty_bin_sum += engine.prq_empty_bin_fraction(),
            }
        }
        if let Some(pairs) = pairs.as_deref_mut() {
            placed.write_out(dest as u32, pairs);
        }
        merged.merge(engine.stats());
        final_prq += engine.prq_len();
        final_umq += engine.umq_len();
    }

    AppReport {
        name: trace.name.clone(),
        processes: trace.processes(),
        bins,
        call_dist: CallDistribution::default(),
        mean_queue_depth: merged.mean_depth(),
        max_queue_depth: merged.max_depth(),
        match_stats: merged,
        avg_empty_bin_fraction: if datapoints == 0 {
            1.0
        } else {
            empty_bin_sum / datapoints as f64
        },
        tag_usage: TagUsage::default(),
        final_prq,
        final_umq,
        datapoints,
        rank_events,
    }
}

/// One destination's matched pairs, placed in receive order: entry `r`
/// holds the message receive `r` matched, once it has. A destination
/// numbers its receives `0..posts` in post order, so its pairs come out of
/// the table sorted, and destinations go in ascending order, so the pairs
/// of a whole replay are sorted without a sort. A receive completes once: a
/// second completion is a fault of the path that reported it, and panics
/// before it can overwrite the first.
#[derive(Debug, Default)]
pub struct Placement {
    msgs: Vec<Option<u64>>,
}

impl Placement {
    /// Empties the table for a destination that posts `posts` receives.
    pub fn arm(&mut self, posts: usize) {
        self.msgs.clear();
        self.msgs.resize(posts, None);
    }

    /// Places the completion of receive `recv` by message `msg`.
    pub fn place(&mut self, recv: u64, msg: u64) {
        let entry = &mut self.msgs[recv as usize];
        if let Some(first) = *entry {
            panic!("receive {recv} completed twice: by message {first}, then by {msg}");
        }
        *entry = Some(msg);
    }

    /// Appends the destination's pairs to `pairs`, in receive order.
    pub fn write_out(&self, dest: u32, pairs: &mut Vec<MatchedPair>) {
        let placed = self.msgs.iter().enumerate();
        pairs.extend(placed.filter_map(|(recv, msg)| msg.map(|msg| (dest, recv as u64, msg))));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::model::{CollectiveKind, RankTrace, ReqId};
    use otm_base::envelope::{SourceSel, TagSel};
    use otm_base::{CommId, Rank, Tag};

    pub(crate) fn two_rank_trace() -> AppTrace {
        // Rank 1 posts two receives, rank 0 sends two matching messages,
        // then both do progress + a collective.
        let r0 = RankTrace {
            rank: Rank(0),
            ops: vec![
                TimedOp {
                    time: 2.0,
                    op: MpiOp::Isend {
                        dest: Rank(1),
                        tag: Tag(5),
                        comm: CommId::WORLD,
                        count: 1,
                        request: ReqId(0),
                    },
                },
                TimedOp {
                    time: 3.0,
                    op: MpiOp::Send {
                        dest: Rank(1),
                        tag: Tag(6),
                        comm: CommId::WORLD,
                        count: 1,
                    },
                },
                TimedOp {
                    time: 4.0,
                    op: MpiOp::Collective {
                        kind: CollectiveKind::Allreduce,
                        comm: CommId::WORLD,
                    },
                },
            ],
        };
        let r1 = RankTrace {
            rank: Rank(1),
            ops: vec![
                TimedOp {
                    time: 1.0,
                    op: MpiOp::Irecv {
                        src: SourceSel::Rank(Rank(0)),
                        tag: TagSel::Tag(Tag(5)),
                        comm: CommId::WORLD,
                        count: 1,
                        request: ReqId(1),
                    },
                },
                TimedOp {
                    time: 1.5,
                    op: MpiOp::Irecv {
                        src: SourceSel::Any,
                        tag: TagSel::Tag(Tag(6)),
                        comm: CommId::WORLD,
                        count: 1,
                        request: ReqId(2),
                    },
                },
                TimedOp {
                    time: 3.5,
                    op: MpiOp::Waitall { nreqs: 2 },
                },
                TimedOp {
                    time: 4.0,
                    op: MpiOp::Collective {
                        kind: CollectiveKind::Allreduce,
                        comm: CommId::WORLD,
                    },
                },
            ],
        };
        AppTrace {
            name: "two-rank".into(),
            ranks: vec![r0, r1],
        }
    }

    #[test]
    fn call_distribution_counts_kinds() {
        let report = replay(&two_rank_trace(), &ReplayConfig::default());
        assert_eq!(report.call_dist.p2p, 4);
        assert_eq!(report.call_dist.collective, 2);
        assert_eq!(report.call_dist.one_sided, 0);
        assert_eq!(report.call_dist.progress, 1);
        assert!((report.call_dist.p2p_fraction() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn all_messages_match_pre_posted_receives() {
        let report = replay(&two_rank_trace(), &ReplayConfig::default());
        assert_eq!(report.match_stats.matched_on_arrival, 2);
        assert_eq!(report.match_stats.unexpected, 0);
        assert_eq!(report.final_prq, 0);
        assert_eq!(report.final_umq, 0);
    }

    #[test]
    fn tag_usage_reflects_the_send_side() {
        let report = replay(&two_rank_trace(), &ReplayConfig::default());
        assert_eq!(report.tag_usage.distinct_tags, 2);
        assert_eq!(report.tag_usage.distinct_src_tag_pairs, 2);
        assert!((report.tag_usage.wildcard_recv_fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn progress_points_sample_bin_occupancy() {
        let report = replay(&two_rank_trace(), &ReplayConfig::default());
        assert_eq!(report.datapoints, 1);
        // At the Waitall both receives were already consumed, so the bins
        // sampled empty.
        assert!(report.avg_empty_bin_fraction > 0.99);
    }

    #[test]
    fn progress_points_see_their_own_ranks_pending_receives() {
        // Rank 1 waits first with nothing posted (4 of 4 bins empty); rank 0
        // waits later with one exact receive pending (3 of 4).
        let irecv = MpiOp::Irecv {
            src: SourceSel::Rank(Rank(1)),
            tag: TagSel::Tag(Tag(1)),
            comm: CommId::WORLD,
            count: 1,
            request: ReqId(0),
        };
        let wait = MpiOp::Wait { request: ReqId(0) };
        let trace = AppTrace {
            name: "pending".into(),
            ranks: vec![
                RankTrace {
                    rank: Rank(0),
                    ops: vec![
                        TimedOp {
                            time: 0.0,
                            op: irecv,
                        },
                        TimedOp {
                            time: 2.0,
                            op: wait,
                        },
                    ],
                },
                RankTrace {
                    rank: Rank(1),
                    ops: vec![TimedOp {
                        time: 1.0,
                        op: wait,
                    }],
                },
            ],
        };
        let report = replay(&trace, &ReplayConfig { bins: 4 });
        assert_eq!(report.datapoints, 2);
        assert_eq!(report.avg_empty_bin_fraction, (1.0 + 0.75) / 2.0);
        assert_eq!(report.final_prq, 1);
    }

    #[test]
    fn unmatched_receives_and_sends_show_in_final_state() {
        let trace = AppTrace {
            name: "dangling".into(),
            ranks: vec![RankTrace {
                rank: Rank(0),
                ops: vec![
                    TimedOp {
                        time: 0.0,
                        op: MpiOp::Irecv {
                            src: SourceSel::Rank(Rank(0)),
                            tag: TagSel::Tag(Tag(1)),
                            comm: CommId::WORLD,
                            count: 1,
                            request: ReqId(0),
                        },
                    },
                    TimedOp {
                        time: 1.0,
                        op: MpiOp::Send {
                            dest: Rank(0),
                            tag: Tag(9),
                            comm: CommId::WORLD,
                            count: 1,
                        },
                    },
                ],
            }],
        };
        let report = replay(&trace, &ReplayConfig::default());
        assert_eq!(report.final_prq, 1);
        assert_eq!(report.final_umq, 1);
        assert_eq!(report.match_stats.unexpected, 1);
    }

    #[test]
    fn replay_reports_progress_through_the_metrics_registry() {
        let report = replay(&two_rank_trace(), &ReplayConfig::default());
        let d = crate::obs::observability([&report]);
        assert_eq!(d.counters["trace_replay_ops_total"], 7, "{d:?}");
        assert_eq!(d.counters["trace_replay_posts_total"], 2);
        assert_eq!(d.counters["trace_replay_arrivals_total"], 2);
        assert_eq!(d.counters["trace_replay_progress_points_total"], 1);
        // Rank 1 replays two posts, two arrivals and a progress point; rank
        // 0 receives nothing and posts nothing.
        let rank_events = &d.hists["trace_replay_rank_events"];
        assert_eq!((rank_events.count, rank_events.sum), (1, 5));
    }

    #[test]
    fn a_trace_with_nan_times_replays_in_the_splits_order() {
        // 8 ranks of 300 sends to the next rank, each rank posting the 300
        // receives they match and waiting on each, at seeded times; one
        // time in five is NaN.
        let mut rng = otm_base::FaultRng::new(1);
        let mut time = move || match rng.below(5) {
            0 => f64::NAN,
            _ => rng.below(1000) as f64,
        };
        let ranks = (0..8u32).map(|rank| {
            let ops = (0..300u32).flat_map(|i| {
                let send = MpiOp::Send {
                    dest: Rank((rank + 1) % 8),
                    tag: Tag(i),
                    comm: CommId::WORLD,
                    count: 1,
                };
                let recv = MpiOp::Irecv {
                    src: SourceSel::Rank(Rank((rank + 7) % 8)),
                    tag: TagSel::Tag(Tag(i)),
                    comm: CommId::WORLD,
                    count: 1,
                    request: ReqId(i),
                };
                let wait = MpiOp::Wait { request: ReqId(i) };
                [recv, send, wait].map(|op| TimedOp { time: time(), op })
            });
            RankTrace {
                rank: Rank(rank),
                ops: ops.collect(),
            }
        });
        let trace = AppTrace {
            name: "nan".into(),
            ranks: ranks.collect(),
        };
        let report = replay(&trace, &ReplayConfig::default());
        assert_eq!(report.call_dist.p2p, 8 * 600);
        assert_eq!(report.datapoints, 8 * 300);
        let matched = report.match_stats.matched_on_arrival + report.match_stats.matched_on_post;
        assert_eq!(matched, 8 * 300, "every message finds its receive");
    }

    #[test]
    fn the_walk_hands_back_each_destinations_pairs_in_receive_order() {
        // Rank 1's two receives match rank 0's two messages in turn.
        let pairs = matched_pairs(&two_rank_trace(), 128);
        assert_eq!(pairs, [(1, 0, 0), (1, 1, 1)]);
        assert_eq!(pairs, matched_pairs(&two_rank_trace(), 1));
    }

    #[test]
    fn a_rank_of_progress_points_only_yields_no_pair_and_samples_empty_bins() {
        let wait = |time| TimedOp {
            time,
            op: MpiOp::Wait { request: ReqId(0) },
        };
        let trace = AppTrace {
            name: "waits".into(),
            ranks: vec![RankTrace {
                rank: Rank(0),
                ops: vec![wait(0.0), wait(1.0), wait(2.0)],
            }],
        };
        assert!(matched_pairs(&trace, 128).is_empty());
        for bins in [1, 32, 128] {
            let report = replay(&trace, &ReplayConfig { bins });
            assert_eq!(report.datapoints, 3);
            // Three samples of at most 1.0 average 1.0 only if each reads it.
            assert_eq!(report.avg_empty_bin_fraction, 1.0, "{bins} bins");
        }
    }

    #[test]
    fn a_wildcard_receive_takes_the_oldest_matching_message() {
        // Rank 1 is sent tag 9 by rank 0, then tag 5 by rank 2, then tag 5
        // by rank 0, all before it posts. Its any-source tag-5 receive
        // takes rank 2's message (the oldest tag 5), and its any-source
        // any-tag receive the oldest left, rank 0's tag 9.
        let send = |time, dest: u32, tag: u32| TimedOp {
            time,
            op: MpiOp::Send {
                dest: Rank(dest),
                tag: Tag(tag),
                comm: CommId::WORLD,
                count: 1,
            },
        };
        let recv = |time, tag: TagSel| TimedOp {
            time,
            op: MpiOp::Recv {
                src: SourceSel::Any,
                tag,
                comm: CommId::WORLD,
                count: 1,
            },
        };
        let trace = AppTrace {
            name: "oldest".into(),
            ranks: vec![
                RankTrace {
                    rank: Rank(0),
                    ops: vec![send(0.5, 1, 9), send(2.0, 1, 5)],
                },
                RankTrace {
                    rank: Rank(1),
                    ops: vec![recv(3.0, TagSel::Tag(Tag(5))), recv(4.0, TagSel::Any)],
                },
                RankTrace {
                    rank: Rank(2),
                    ops: vec![send(1.0, 1, 5)],
                },
            ],
        };
        for bins in [1, 32, 128] {
            assert_eq!(matched_pairs(&trace, bins), [(1, 0, 1), (1, 1, 0)]);
        }
    }

    #[test]
    fn placement_lists_pairs_in_receive_order_and_refuses_a_second_completion() {
        let mut placed = Placement::default();
        placed.arm(4);
        for (recv, msg) in [(2, 0), (0, 1), (3, 2)] {
            placed.place(recv, msg);
        }
        let duplicate = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            placed.place(0, 3);
        }));
        let message = duplicate.expect_err("a second completion of receive 0");
        assert_eq!(
            message.downcast_ref::<String>().map(String::as_str),
            Some("receive 0 completed twice: by message 1, then by 3")
        );
        let never_posted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            placed.place(4, 3);
        }));
        assert!(never_posted.is_err(), "receive 4 was never posted");
        let mut pairs = vec![(0, 5, 5)];
        placed.write_out(1, &mut pairs);
        assert_eq!(
            pairs,
            [(0, 5, 5), (1, 0, 1), (1, 2, 0), (1, 3, 2)],
            "the first completion stands; receive 1 never matched"
        );
        placed.arm(1);
        placed.place(0, 0);
        assert_eq!(
            placed.msgs,
            [Some(0)],
            "a re-armed table forgets the last destination"
        );
    }

    #[test]
    fn sends_to_ranks_outside_the_trace_are_dropped() {
        let trace = AppTrace {
            name: "oob".into(),
            ranks: vec![RankTrace {
                rank: Rank(0),
                ops: vec![TimedOp {
                    time: 0.0,
                    op: MpiOp::Send {
                        dest: Rank(99),
                        tag: Tag(0),
                        comm: CommId::WORLD,
                        count: 1,
                    },
                }],
            }],
        };
        let report = replay(&trace, &ReplayConfig::default());
        assert_eq!(report.call_dist.p2p, 1);
        assert_eq!(report.final_umq, 0);
    }
}
