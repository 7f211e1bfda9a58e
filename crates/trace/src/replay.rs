//! The trace processing stage (§V-A b): replay the merged operation stream
//! through per-rank matcher emulations and gather statistics.
//!
//! "Each MPI operation within the in-memory representation of the trace
//! gets sequentially processed until none remain. Only p2p and progress
//! operations are processed, ignoring collectives and one-sided." Receives
//! post into their rank's matcher; sends become incoming messages at the
//! destination rank's matcher; progress operations snapshot the state of
//! the data structures, forming the data points of §V-A.

use crate::emul::FourIndexMatcher;
use crate::model::{AppTrace, CallKind, MpiOp, TimedOp};
use mpi_matching::{MatchStats, MatchingBackend, MsgHandle, RecvHandle};
use otm_base::{Envelope, ReceivePattern};
use otm_metrics::json_fields;
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
}

// The Fig. 6/7 artifact row.
json_fields!(AppReport: name, processes, bins, call_dist, match_stats, mean_queue_depth,
    max_queue_depth, avg_empty_bin_fraction, tag_usage, final_prq, final_umq, datapoints);

/// Replays an application trace with the given bin count.
pub fn replay(trace: &AppTrace, config: &ReplayConfig) -> AppReport {
    let n = trace
        .ranks
        .iter()
        .map(|r| r.rank.0 as usize + 1)
        .max()
        .unwrap_or(0);
    // Each rank's matcher is selected through the backend trait — the same
    // interface the simulator's service layer uses — with the bin-occupancy
    // sampling reached through the observability downcast.
    let mut matchers: Vec<Box<dyn MatchingBackend>> = (0..n)
        .map(|_| Box::new(FourIndexMatcher::new(config.bins)) as Box<dyn MatchingBackend>)
        .collect();
    let mut dist = CallDistribution::default();
    let mut tags: HashSet<u32> = HashSet::new();
    let mut src_tag_pairs: HashSet<(u32, u32)> = HashSet::new();
    let mut recv_count = 0u64;
    let mut wildcard_recvs = 0u64;
    let mut next_recv = 0u64;
    let mut next_msg = 0u64;
    let mut empty_bin_sum = 0.0f64;
    let mut datapoints = 0usize;
    let metrics = crate::obs::replay_metrics();

    for (rank, TimedOp { op, .. }) in trace.merged_ops() {
        metrics.count_op();
        match op.kind() {
            CallKind::PointToPoint => dist.p2p += 1,
            CallKind::Collective => dist.collective += 1,
            CallKind::OneSided => dist.one_sided += 1,
            CallKind::Progress => dist.progress += 1,
        }
        match op {
            MpiOp::Irecv { src, tag, comm, .. } | MpiOp::Recv { src, tag, comm, .. } => {
                metrics.count_post();
                recv_count += 1;
                if src.is_wild() || tag.is_wild() {
                    wildcard_recvs += 1;
                }
                let pattern = ReceivePattern { src, tag, comm };
                let handle = RecvHandle(next_recv);
                next_recv += 1;
                matchers[rank.0 as usize]
                    .post(pattern, handle)
                    .expect("four-index matcher is unbounded");
            }
            MpiOp::Isend {
                dest, tag, comm, ..
            }
            | MpiOp::Send {
                dest, tag, comm, ..
            } => {
                tags.insert(tag.0);
                src_tag_pairs.insert((rank.0, tag.0));
                metrics.count_arrive();
                let env = Envelope {
                    src: rank,
                    tag,
                    comm,
                };
                let handle = MsgHandle(next_msg);
                next_msg += 1;
                if (dest.0 as usize) < matchers.len() {
                    matchers[dest.0 as usize]
                        .arrive_block(&[(env, handle)])
                        .expect("four-index matcher is unbounded");
                }
            }
            MpiOp::Wait { .. } | MpiOp::Waitall { .. } => {
                // Progress point: snapshot the data-structure state (§V-A).
                metrics.count_progress_point();
                empty_bin_sum += matchers[rank.0 as usize]
                    .as_any()
                    .downcast_ref::<FourIndexMatcher>()
                    .expect("replay runs on the four-index emulation")
                    .prq_empty_bin_fraction();
                datapoints += 1;
            }
            MpiOp::Collective { .. } | MpiOp::OneSided { .. } => {}
        }
    }

    let mut merged = MatchStats::new();
    let mut final_prq = 0usize;
    let mut final_umq = 0usize;
    for m in &matchers {
        m.merge_stats(&mut merged);
        final_prq += m.prq_len();
        final_umq += m.umq_len();
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
            empty_bin_sum / datapoints as f64
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
    }
}

/// Convenience: replays the same trace at several bin counts (the Fig. 7
/// sweep).
pub fn bin_sweep(trace: &AppTrace, bins: &[usize]) -> Vec<AppReport> {
    bins.iter()
        .map(|&b| replay(trace, &ReplayConfig { bins: b }))
        .collect()
}

/// Replays an application trace through the *real* optimistic engine
/// (`otm::SequentialOtm`) instead of the analyzer's lightweight emulation.
///
/// Because matchers of different ranks never interact (each rank owns its
/// own matching state), ranks are replayed one at a time — rank-major —
/// with a fresh engine each, keeping memory flat even for thousand-rank
/// traces while still driving every post and arrival through the engine's
/// descriptor table, index structures and unexpected store.
///
/// The returned report carries the same matching statistics as [`replay`];
/// the engine and the emulation implement the same §III-B organization with
/// the same hash function, so their outcome counters *and search depths*
/// must agree exactly — an equivalence the integration tests assert for
/// every Table II application.
pub fn replay_engine(trace: &AppTrace, config: &ReplayConfig) -> AppReport {
    use otm_base::MatchConfig;

    let n = trace
        .ranks
        .iter()
        .map(|r| r.rank.0 as usize + 1)
        .max()
        .unwrap_or(0);
    // Per-rank event streams in global time order: the rank's own receive
    // posts plus the sends targeting it.
    #[derive(Clone, Copy)]
    enum Ev {
        Post(ReceivePattern),
        Arrive(Envelope),
    }
    // merged_ops() is globally time-ordered, so pushing into the per-rank
    // lists preserves each rank's event order without extra keys.
    let mut per_rank: Vec<Vec<Ev>> = vec![Vec::new(); n];
    let mut dist = CallDistribution::default();
    let metrics = crate::obs::replay_metrics();
    for (rank, TimedOp { op, .. }) in trace.merged_ops() {
        metrics.count_op();
        match op.kind() {
            CallKind::PointToPoint => dist.p2p += 1,
            CallKind::Collective => dist.collective += 1,
            CallKind::OneSided => dist.one_sided += 1,
            CallKind::Progress => dist.progress += 1,
        }
        match op {
            MpiOp::Irecv { src, tag, comm, .. } | MpiOp::Recv { src, tag, comm, .. } => {
                per_rank[rank.0 as usize].push(Ev::Post(ReceivePattern { src, tag, comm }));
            }
            MpiOp::Isend {
                dest, tag, comm, ..
            }
            | MpiOp::Send {
                dest, tag, comm, ..
            } if (dest.0 as usize) < n => {
                per_rank[dest.0 as usize].push(Ev::Arrive(Envelope {
                    src: rank,
                    tag,
                    comm,
                }));
            }
            _ => {}
        }
    }

    let mut merged = MatchStats::new();
    let mut final_prq = 0usize;
    let mut final_umq = 0usize;
    let mut next_recv = 0u64;
    let mut next_msg = 0u64;
    for events in &per_rank {
        if events.is_empty() {
            continue;
        }
        metrics.record_rank_events(events.len() as u64);
        // Generous fixed table: a single rank's in-flight receives in the
        // Table II workloads stay far below this.
        let engine_config = MatchConfig::default()
            .with_bins(config.bins)
            .with_block_threads(1)
            .with_max_receives(1 << 14)
            .with_max_unexpected(1 << 14);
        // Constructed through the same backend trait the simulator's
        // service layer uses, so this path exercises the real trait-object
        // dispatch end to end.
        let mut engine: Box<dyn MatchingBackend> =
            Box::new(otm::SequentialOtm::new(engine_config).expect("engine replay configuration"));
        for &ev in events {
            match ev {
                Ev::Post(pattern) => {
                    metrics.count_post();
                    engine
                        .post(pattern, RecvHandle(next_recv))
                        .expect("replay within engine capacity");
                    next_recv += 1;
                }
                Ev::Arrive(env) => {
                    metrics.count_arrive();
                    engine
                        .arrive_block(&[(env, MsgHandle(next_msg))])
                        .expect("replay within engine capacity");
                    next_msg += 1;
                }
            }
        }
        engine.merge_stats(&mut merged);
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
        // The engine does not expose bin-occupancy sampling; progress
        // points are counted but not sampled.
        avg_empty_bin_fraction: 1.0,
        tag_usage: TagUsage::default(),
        final_prq,
        final_umq,
        datapoints: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{CollectiveKind, RankTrace, ReqId};
    use otm_base::envelope::{SourceSel, TagSel};
    use otm_base::{CommId, Rank, Tag};

    fn two_rank_trace() -> AppTrace {
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
    fn bin_sweep_produces_one_report_per_count() {
        let reports = bin_sweep(&two_rank_trace(), &[1, 32, 128]);
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].bins, 1);
        assert_eq!(reports[2].bins, 128);
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
        // The registry is process-wide and tests run in parallel: assert
        // only that this replay's contribution is present in the delta.
        let before = crate::obs::replay_metrics().snapshot();
        let _ = replay(&two_rank_trace(), &ReplayConfig::default());
        let _ = replay_engine(&two_rank_trace(), &ReplayConfig::default());
        let d = crate::obs::replay_metrics().snapshot().delta(&before);
        assert!(d.counters["trace_replay_ops_total"] >= 14, "{d:?}");
        assert!(d.counters["trace_replay_posts_total"] >= 4);
        assert!(d.counters["trace_replay_arrivals_total"] >= 4);
        assert!(d.counters["trace_replay_progress_points_total"] >= 1);
        assert!(d.hists["trace_replay_rank_events"].count >= 1);
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
