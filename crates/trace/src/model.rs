//! The in-memory representation of MPI operations (§V-A: "a custom
//! in-memory representation because it is easier to integrate and tailor to
//! our specific needs").

use otm_base::envelope::{SourceSel, TagSel};
use otm_base::{CommId, Rank, Tag};

/// Nonblocking-request identifier within one rank's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReqId(pub u32);

/// Collective operations appearing in the analyzed applications. Matching
/// ignores them; the call-distribution statistics (Fig. 6) count them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum CollectiveKind {
    Barrier,
    Bcast,
    Reduce,
    Allreduce,
    Gather,
    Gatherv,
    Allgather,
    Alltoall,
    Alltoallv,
    Scan,
}

/// One-sided operations. None of the analyzed applications use them
/// (Fig. 6), but the model and parser support them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum OneSidedKind {
    Put,
    Get,
    Accumulate,
}

/// One MPI operation as recorded in a rank's trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MpiOp {
    /// Nonblocking send to `dest`.
    Isend {
        /// Destination rank.
        dest: Rank,
        /// Message tag.
        tag: Tag,
        /// Communicator.
        comm: CommId,
        /// Element count (payload size proxy).
        count: u64,
        /// Request handle.
        request: ReqId,
    },
    /// Nonblocking receive.
    Irecv {
        /// Source selector (may be `MPI_ANY_SOURCE`).
        src: SourceSel,
        /// Tag selector (may be `MPI_ANY_TAG`).
        tag: TagSel,
        /// Communicator.
        comm: CommId,
        /// Element count.
        count: u64,
        /// Request handle.
        request: ReqId,
    },
    /// Blocking send (treated as Isend + immediate completion).
    Send {
        /// Destination rank.
        dest: Rank,
        /// Message tag.
        tag: Tag,
        /// Communicator.
        comm: CommId,
        /// Element count.
        count: u64,
    },
    /// Blocking receive (a post followed by a progress point).
    Recv {
        /// Source selector.
        src: SourceSel,
        /// Tag selector.
        tag: TagSel,
        /// Communicator.
        comm: CommId,
        /// Element count.
        count: u64,
    },
    /// Progress on one request.
    Wait {
        /// The awaited request.
        request: ReqId,
    },
    /// Progress on a set of requests.
    Waitall {
        /// Number of awaited requests (the ids are irrelevant to matching).
        nreqs: u32,
    },
    /// A collective operation (ignored by matching).
    Collective {
        /// Which collective.
        kind: CollectiveKind,
        /// Communicator.
        comm: CommId,
    },
    /// A one-sided operation (ignored by matching).
    OneSided {
        /// Which one-sided op.
        kind: OneSidedKind,
    },
}

/// Coarse call classification used by the Fig. 6 distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CallKind {
    /// Point-to-point sends/receives.
    PointToPoint,
    /// Collectives.
    Collective,
    /// One-sided RMA.
    OneSided,
    /// Progress calls (Wait/Waitall).
    Progress,
}

impl MpiOp {
    /// Classifies the operation for the call-distribution statistics.
    pub fn kind(&self) -> CallKind {
        match self {
            MpiOp::Isend { .. } | MpiOp::Irecv { .. } | MpiOp::Send { .. } | MpiOp::Recv { .. } => {
                CallKind::PointToPoint
            }
            MpiOp::Collective { .. } => CallKind::Collective,
            MpiOp::OneSided { .. } => CallKind::OneSided,
            MpiOp::Wait { .. } | MpiOp::Waitall { .. } => CallKind::Progress,
        }
    }

    /// The MPI function name, as it appears in DUMPI text.
    pub fn mpi_name(&self) -> &'static str {
        match self {
            MpiOp::Isend { .. } => "MPI_Isend",
            MpiOp::Irecv { .. } => "MPI_Irecv",
            MpiOp::Send { .. } => "MPI_Send",
            MpiOp::Recv { .. } => "MPI_Recv",
            MpiOp::Wait { .. } => "MPI_Wait",
            MpiOp::Waitall { .. } => "MPI_Waitall",
            MpiOp::Collective { kind, .. } => match kind {
                CollectiveKind::Barrier => "MPI_Barrier",
                CollectiveKind::Bcast => "MPI_Bcast",
                CollectiveKind::Reduce => "MPI_Reduce",
                CollectiveKind::Allreduce => "MPI_Allreduce",
                CollectiveKind::Gather => "MPI_Gather",
                CollectiveKind::Gatherv => "MPI_Gatherv",
                CollectiveKind::Allgather => "MPI_Allgather",
                CollectiveKind::Alltoall => "MPI_Alltoall",
                CollectiveKind::Alltoallv => "MPI_Alltoallv",
                CollectiveKind::Scan => "MPI_Scan",
            },
            MpiOp::OneSided { kind } => match kind {
                OneSidedKind::Put => "MPI_Put",
                OneSidedKind::Get => "MPI_Get",
                OneSidedKind::Accumulate => "MPI_Accumulate",
            },
        }
    }
}

/// An operation stamped with its wall-clock time within the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedOp {
    /// Wall time in seconds since application start.
    pub time: f64,
    /// The operation.
    pub op: MpiOp,
}

/// One rank's complete operation stream, in program order.
#[derive(Debug, Clone, PartialEq)]
pub struct RankTrace {
    /// The rank.
    pub rank: Rank,
    /// Its timestamped operations.
    pub ops: Vec<TimedOp>,
}

/// A whole application trace.
#[derive(Debug, Clone, PartialEq)]
pub struct AppTrace {
    /// Application name (Table II).
    pub name: String,
    /// Per-rank traces, indexed by rank.
    pub ranks: Vec<RankTrace>,
}

impl AppTrace {
    /// Number of processes in the trace.
    pub fn processes(&self) -> usize {
        self.ranks.len()
    }

    /// Total operation count.
    pub fn total_ops(&self) -> usize {
        self.ranks.iter().map(|r| r.ops.len()).sum()
    }

    /// Merges all ranks' operations into one stream ordered by timestamp
    /// (ties broken by rank then program order) — the sequential processing
    /// order of the analyzer (§V-A). What is sorted is a 16-byte key per
    /// operation, `(time, index into ranks, index into ops)`, and by the
    /// stable sort: each rank's operations are already in time order, so
    /// the keys are one sorted run per rank and the sort is a merge of them.
    pub fn merged_ops(&self) -> Vec<(Rank, TimedOp)> {
        let mut keys: Vec<(f64, u32, u32)> = Vec::with_capacity(self.total_ops());
        for (r, rank) in self.ranks.iter().enumerate() {
            assert!(rank.ops.len() <= u32::MAX as usize, "key holds a u32");
            let ops = rank.ops.iter().enumerate();
            keys.extend(ops.map(|(i, op)| (op.time, r as u32, i as u32)));
        }
        let rank_of = |r: u32| self.ranks[r as usize].rank;
        keys.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| rank_of(a.1).cmp(&rank_of(b.1)))
                .then(a.2.cmp(&b.2))
        });
        let op_of = |(_, r, i): (f64, u32, u32)| {
            let rank = &self.ranks[r as usize];
            (rank.rank, rank.ops[i as usize])
        };
        keys.into_iter().map(op_of).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn isend(t: f64, dest: u32) -> TimedOp {
        TimedOp {
            time: t,
            op: MpiOp::Isend {
                dest: Rank(dest),
                tag: Tag(0),
                comm: CommId::WORLD,
                count: 1,
                request: ReqId(0),
            },
        }
    }

    #[test]
    fn classification_covers_all_kinds() {
        assert_eq!(isend(0.0, 0).op.kind(), CallKind::PointToPoint);
        assert_eq!(
            MpiOp::Collective {
                kind: CollectiveKind::Allreduce,
                comm: CommId::WORLD
            }
            .kind(),
            CallKind::Collective
        );
        assert_eq!(
            MpiOp::OneSided {
                kind: OneSidedKind::Get
            }
            .kind(),
            CallKind::OneSided
        );
        assert_eq!(MpiOp::Wait { request: ReqId(0) }.kind(), CallKind::Progress);
        assert_eq!(MpiOp::Waitall { nreqs: 4 }.kind(), CallKind::Progress);
    }

    #[test]
    fn mpi_names_are_wire_format() {
        assert_eq!(isend(0.0, 0).op.mpi_name(), "MPI_Isend");
        assert_eq!(
            MpiOp::Collective {
                kind: CollectiveKind::Gatherv,
                comm: CommId::WORLD
            }
            .mpi_name(),
            "MPI_Gatherv"
        );
    }

    #[test]
    fn merged_ops_sorts_by_time_then_rank() {
        let trace = AppTrace {
            name: "t".into(),
            ranks: vec![
                RankTrace {
                    rank: Rank(0),
                    ops: vec![isend(2.0, 1), isend(3.0, 1)],
                },
                RankTrace {
                    rank: Rank(1),
                    ops: vec![isend(1.0, 0), isend(2.0, 0)],
                },
            ],
        };
        let merged = trace.merged_ops();
        let times: Vec<f64> = merged.iter().map(|(_, op)| op.time).collect();
        assert_eq!(times, vec![1.0, 2.0, 2.0, 3.0]);
        // Tie at t=2.0 broken by rank.
        assert_eq!(merged[1].0, Rank(0));
        assert_eq!(merged[2].0, Rank(1));
    }

    /// `merged_ops` as it was before it sorted keys: the same stable sort,
    /// of the 64-byte operations themselves.
    fn merged_ops_by_stable_sort(trace: &AppTrace) -> Vec<(Rank, TimedOp)> {
        let mut all: Vec<(Rank, usize, TimedOp)> = Vec::with_capacity(trace.total_ops());
        for r in &trace.ranks {
            for (i, op) in r.ops.iter().enumerate() {
                all.push((r.rank, i, *op));
            }
        }
        all.sort_by(|a, b| {
            a.2.time
                .partial_cmp(&b.2.time)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
                .then(a.1.cmp(&b.1))
        });
        all.into_iter().map(|(r, _, op)| (r, op)).collect()
    }

    #[test]
    fn merged_ops_equals_the_stable_sort_under_ties_of_every_kind() {
        // Seeded: a handful of coarse timestamps, so times tie across ranks
        // and within one; rank entries out of rank order, and rank 3 twice
        // (two entries tie on time, rank *and* program index). `dest`
        // tells the operations apart.
        let mut rng = otm_base::FaultRng::new(0x5eed_0023);
        let mut dest = 0;
        let ranks = [5u32, 3, 0, 3, 9, 1].map(|rank| RankTrace {
            rank: Rank(rank),
            ops: (0..200 + rng.below(100))
                .map(|_| {
                    dest += 1;
                    isend(rng.below(8) as f64 * 0.5, dest)
                })
                .collect(),
        });
        let trace = AppTrace {
            name: "ties".into(),
            ranks: ranks.into(),
        };
        let merged = trace.merged_ops();
        assert_eq!(merged.len(), trace.total_ops());
        assert_eq!(merged, merged_ops_by_stable_sort(&trace));
    }

    #[test]
    fn totals_count_all_ranks() {
        let trace = AppTrace {
            name: "t".into(),
            ranks: vec![
                RankTrace {
                    rank: Rank(0),
                    ops: vec![isend(0.0, 1)],
                },
                RankTrace {
                    rank: Rank(1),
                    ops: vec![isend(0.0, 0), isend(1.0, 0)],
                },
            ],
        };
        assert_eq!(trace.processes(), 2);
        assert_eq!(trace.total_ops(), 3);
    }
}
