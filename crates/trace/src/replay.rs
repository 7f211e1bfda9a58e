//! The trace processing stage (§V-A b): replay the merged operation stream
//! through one optimistic engine per rank and gather statistics.
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

use crate::model::{AppTrace, CallKind, MpiOp, TimedOp};
use mpi_matching::{MatchStats, Matcher, MsgHandle, RecvHandle};
use otm::SequentialOtm;
use otm_base::{Envelope, MatchConfig, ReceivePattern};
use otm_metrics::{json_fields, HistogramSnapshot};
use std::collections::HashSet;

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
    pub fn comm_total(&self) -> u64 {
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
    pub fn one_sided_fraction(&self) -> f64 {
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
    pub name: String,
    /// Number of processes in the trace.
    pub processes: usize,
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
    pub avg_empty_bin_fraction: f64,
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
    pub rank_events: HistogramSnapshot,
}

// The Fig. 6/7 artifact row.
json_fields!(AppReport: name, processes, bins, call_dist, match_stats, mean_queue_depth,
    max_queue_depth, avg_empty_bin_fraction, tag_usage, final_prq, final_umq, datapoints);

/// One rank's share of the merged operation stream.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A receive the rank posts.
    Post(ReceivePattern),
    /// A message addressed to the rank.
    Arrive(Envelope),
    /// A progress point of the rank's own (`Wait`/`Waitall`), carrying the
    /// index of its sample in global time order.
    Progress(usize),
}

/// Replays an application trace with the given bin count.
///
/// Matchers of different ranks never interact: a rank's matcher sees only
/// its own posts and the arrivals addressed to it, in global time order. So
/// one pass over the merged stream counts calls and tags and splits the
/// stream into per-rank event lists, and a second pass replays them rank by
/// rank through one engine, sized for the largest rank and reset before each
/// (a reset engine reads as new, and a larger table changes no count). A
/// progress point samples the same state rank-major as it would interleaved.
pub fn replay(trace: &AppTrace, config: &ReplayConfig) -> AppReport {
    let n = trace
        .ranks
        .iter()
        .map(|r| r.rank.0 as usize + 1)
        .max()
        .unwrap_or(0);
    let mut per_rank: Vec<Vec<Event>> = vec![Vec::new(); n];
    let mut dist = CallDistribution::default();
    let mut tags: HashSet<u32> = HashSet::new();
    let mut src_tag_pairs: HashSet<(u32, u32)> = HashSet::new();
    let mut recv_count = 0u64;
    let mut wildcard_recvs = 0u64;
    let mut datapoints = 0usize;

    for (rank, TimedOp { op, .. }) in trace.merged_ops() {
        match op.kind() {
            CallKind::PointToPoint => dist.p2p += 1,
            CallKind::Collective => dist.collective += 1,
            CallKind::OneSided => dist.one_sided += 1,
            CallKind::Progress => dist.progress += 1,
        }
        match op {
            MpiOp::Irecv { src, tag, comm, .. } | MpiOp::Recv { src, tag, comm, .. } => {
                recv_count += 1;
                if src.is_wild() || tag.is_wild() {
                    wildcard_recvs += 1;
                }
                per_rank[rank.0 as usize].push(Event::Post(ReceivePattern { src, tag, comm }));
            }
            MpiOp::Isend {
                dest, tag, comm, ..
            }
            | MpiOp::Send {
                dest, tag, comm, ..
            } => {
                tags.insert(tag.0);
                src_tag_pairs.insert((rank.0, tag.0));
                if let Some(events) = per_rank.get_mut(dest.0 as usize) {
                    events.push(Event::Arrive(Envelope {
                        src: rank,
                        tag,
                        comm,
                    }));
                }
            }
            MpiOp::Wait { .. } | MpiOp::Waitall { .. } => {
                // Progress point: snapshot the data-structure state (§V-A).
                per_rank[rank.0 as usize].push(Event::Progress(datapoints));
                datapoints += 1;
            }
            MpiOp::Collective { .. } | MpiOp::OneSided { .. } => {}
        }
    }

    // Each sample lands in its global slot, so the mean sums them in trace
    // order, as an interleaved replay would.
    let mut empty_bin_fractions = vec![0.0f64; datapoints];
    let mut merged = MatchStats::new();
    let mut final_prq = 0usize;
    let mut final_umq = 0usize;
    let mut next_recv = 0u64;
    let mut next_msg = 0u64;
    // The engine's table holds the most receives any rank posts, and its
    // store the most messages that reach any rank.
    let (mut max_posts, mut max_arrivals) = (1, 1);
    for events in &per_rank {
        let posts = events.iter().filter(|e| matches!(e, Event::Post(_)));
        let arrivals = events.iter().filter(|e| matches!(e, Event::Arrive(_)));
        max_posts = max_posts.max(posts.count());
        max_arrivals = max_arrivals.max(arrivals.count());
    }
    let engine_config = MatchConfig::default()
        .with_bins(config.bins)
        .with_block_threads(1)
        .with_max_receives(max_posts)
        .with_max_unexpected(max_arrivals);
    let mut engine = SequentialOtm::new(engine_config).expect("replay engine configuration");
    let mut rank_events = HistogramSnapshot::empty();
    for events in per_rank.iter().filter(|events| !events.is_empty()) {
        rank_events.record(events.len() as u64);
        engine.reset().expect("a sequential engine queues nothing");
        for &event in events {
            match event {
                Event::Post(pattern) => {
                    engine
                        .post(pattern, RecvHandle(next_recv))
                        .expect("the table holds every receive the rank posts");
                    next_recv += 1;
                }
                Event::Arrive(env) => {
                    engine
                        .arrive(env, MsgHandle(next_msg))
                        .expect("the store holds every message the rank receives");
                    next_msg += 1;
                }
                Event::Progress(sample) => {
                    empty_bin_fractions[sample] = engine.prq_empty_bin_fraction();
                }
            }
        }
        merged.merge(engine.stats());
        final_prq += engine.prq_len();
        final_umq += engine.umq_len();
    }

    AppReport {
        name: trace.name.clone(),
        processes: trace.processes(),
        bins: config.bins,
        mean_queue_depth: merged.mean_depth(),
        max_queue_depth: merged.max_depth(),
        call_dist: dist,
        match_stats: merged,
        avg_empty_bin_fraction: if datapoints == 0 {
            1.0
        } else {
            empty_bin_fractions.iter().sum::<f64>() / datapoints as f64
        },
        tag_usage: TagUsage {
            distinct_tags: tags.len(),
            distinct_src_tag_pairs: src_tag_pairs.len(),
            wildcard_recv_fraction: if recv_count == 0 {
                0.0
            } else {
                wildcard_recvs as f64 / recv_count as f64
            },
        },
        final_prq,
        final_umq,
        datapoints,
        rank_events,
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
