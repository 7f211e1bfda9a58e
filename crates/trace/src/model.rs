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

/// A time's place in the trace's global order: the order-preserving bits
/// of `time + 0.0` — a negative float's bits flipped, any other's sign bit
/// set — so that integer order is time order, `-0.0` ties `0.0` as a float
/// comparison has it, and the order is total: a NaN sorts past the
/// infinity of its sign. This is the one place the order is derived;
/// [`AppTrace::split`] and [`AppTrace::merged_ops`] both order by it.
fn time_key(time: f64) -> u64 {
    let bits = (time + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The rank whose matcher an operation of `rank` feeds, in a trace whose
/// ranks are below `ranks` ([`AppTrace::rank_bound`]): a receive posts and
/// a progress point samples at `rank`, and a send arrives at its
/// destination when that is below `ranks`. A collective or a one-sided
/// operation feeds no matcher. This is the one place an operation is
/// routed; both replays split the trace by it.
pub fn route(rank: Rank, op: &MpiOp, ranks: usize) -> Option<usize> {
    match *op {
        MpiOp::Irecv { .. } | MpiOp::Recv { .. } | MpiOp::Wait { .. } | MpiOp::Waitall { .. } => {
            Some(rank.0 as usize)
        }
        MpiOp::Isend { dest, .. } | MpiOp::Send { dest, .. } => {
            Some(dest.0 as usize).filter(|&dest| dest < ranks)
        }
        MpiOp::Collective { .. } | MpiOp::OneSided { .. } => None,
    }
}

impl AppTrace {
    /// Number of processes in the trace.
    pub fn processes(&self) -> usize {
        self.ranks.len()
    }

    /// One past the highest rank of the trace (0 for no rank): the matchers
    /// a replay routes to, rank `r`'s being `r`.
    pub fn rank_bound(&self) -> usize {
        let bound = self.ranks.iter().map(|r| r.rank.0 as usize + 1).max();
        bound.unwrap_or(0)
    }

    /// Total operation count.
    pub fn total_ops(&self) -> usize {
        self.ranks.iter().map(|r| r.ops.len()).sum()
    }

    /// Calls `visit` on every operation with its rank, in (rank, program
    /// index, entry) order: rank by rank, each rank's operations in program
    /// order, and the entries of a rank that appears twice in `ranks`
    /// interleaved index by index, in `ranks` order.
    fn visit(&self, mut visit: impl FnMut(Rank, &TimedOp)) {
        let mut entries: Vec<&RankTrace> = self.ranks.iter().collect();
        entries.sort_by_key(|entry| entry.rank);
        for group in entries.chunk_by(|a, b| a.rank == b.rank) {
            if let [entry] = group {
                for op in &entry.ops {
                    visit(entry.rank, op);
                }
                continue;
            }
            let longest = group.iter().map(|entry| entry.ops.len()).max();
            for i in 0..longest.unwrap_or(0) {
                for entry in group {
                    if let Some(op) = entry.ops.get(i) {
                        visit(entry.rank, op);
                    }
                }
            }
        }
    }

    /// Splits the trace into `destinations` streams in the analyzer's
    /// global order (§V-A: every operation "sequentially"): time, then rank,
    /// then program index, the order of [`AppTrace::merged_ops`].
    /// `route` names the destination an operation of a rank feeds, if any;
    /// it is called twice an operation, once to size the streams exactly
    /// and once to fill them. `event` makes the operation's event there,
    /// given the destination: it is called once a routed operation, in
    /// (rank, program index) order, so it may count as it goes.
    ///
    /// The trace is never sorted as a whole. Every event is pushed behind
    /// its time key in that order, so a stable sort on the key alone keeps
    /// every tie where the global order has it, and each destination is
    /// then sorted on its own, in its own buffer.
    pub fn split<E>(
        &self,
        destinations: usize,
        route: impl Fn(Rank, &TimedOp) -> Option<usize>,
        mut event: impl FnMut(usize, Rank, &TimedOp) -> E,
    ) -> Vec<Vec<E>> {
        let mut sizes = vec![0usize; destinations];
        for rank in &self.ranks {
            for op in &rank.ops {
                if let Some(dest) = route(rank.rank, op) {
                    sizes[dest] += 1;
                }
            }
        }
        let mut keyed: Vec<Vec<(u64, E)>> = sizes.into_iter().map(Vec::with_capacity).collect();
        self.visit(|rank, op| {
            if let Some(dest) = route(rank, op) {
                keyed[dest].push((time_key(op.time), event(dest, rank, op)));
            }
        });
        keyed
            .into_iter()
            .map(|mut stream| {
                stream.sort_by_key(|&(key, _)| key);
                stream.into_iter().map(|(_, e)| e).collect()
            })
            .collect()
    }

    /// The reference for [`AppTrace::split`]: all ranks' operations in one
    /// stream, ordered by time, ties broken by rank, then by program order,
    /// and the entries of a rank that appears twice in `ranks` in `ranks`
    /// order. What is sorted is a 16-byte key per operation, `(time key,
    /// index into ranks, index into ops)`, by a stable sort; the time key
    /// is the split's, so the two orders agree on every time a trace can
    /// hold, NaN included.
    pub fn merged_ops(&self) -> Vec<(Rank, TimedOp)> {
        let mut keys: Vec<(u64, u32, u32)> = Vec::with_capacity(self.total_ops());
        for (r, rank) in self.ranks.iter().enumerate() {
            assert!(rank.ops.len() <= u32::MAX as usize, "key holds a u32");
            let ops = rank.ops.iter().enumerate();
            keys.extend(ops.map(|(i, op)| (time_key(op.time), r as u32, i as u32)));
        }
        let rank_of = |r: u32| self.ranks[r as usize].rank;
        keys.sort_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| rank_of(a.1).cmp(&rank_of(b.1)))
                .then(a.2.cmp(&b.2))
        });
        let op_of = |(_, r, i): (u64, u32, u32)| {
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

    /// An operation as a split test sees it: its rank, its time's bits (a
    /// NaN equals itself) and the operation.
    type Seen = (Rank, u64, MpiOp);

    fn seen(rank: Rank, t: &TimedOp) -> Seen {
        (rank, t.time.to_bits(), t.op)
    }

    /// Asserts that the split equals `merged_ops` redistributed: every
    /// operation pushed, in merged order, to the stream it feeds.
    fn assert_split_equals_merged_ops(trace: &AppTrace) {
        let n = trace.rank_bound();
        let split = trace.split(
            n,
            |rank, t| route(rank, &t.op, n),
            |_, rank, t| seen(rank, t),
        );
        let mut merged: Vec<Vec<Seen>> = vec![Vec::new(); n];
        for (rank, t) in trace.merged_ops() {
            if let Some(dest) = route(rank, &t.op, n) {
                merged[dest].push(seen(rank, &t));
            }
        }
        assert_eq!(split, merged, "{}", trace.name);
    }

    #[test]
    fn the_split_equals_merged_ops_redistributed() {
        // The tie-heavy trace of `merged_ops_equals_the_stable_sort_…`,
        // with receives and progress points among the sends: coarse times
        // tie across ranks and within one, rank entries are out of rank
        // order, and rank 3 appears twice. Every operation has a tag of
        // its own, so a swap shows.
        let mut rng = otm_base::FaultRng::new(0x5eed_0023);
        let mut tag = 0;
        let entries = [5u32, 3, 0, 3, 9, 1];
        let ranks = entries.map(|rank| RankTrace {
            rank: Rank(rank),
            ops: (0..200 + rng.below(100))
                .map(|_| {
                    tag += 1;
                    let time = rng.below(8) as f64 * 0.5;
                    let op = match rng.below(3) {
                        0 => MpiOp::Send {
                            dest: Rank(entries[rng.below(entries.len() as u64) as usize]),
                            tag: Tag(tag),
                            comm: CommId::WORLD,
                            count: 1,
                        },
                        1 => MpiOp::Irecv {
                            src: SourceSel::Any,
                            tag: TagSel::Tag(Tag(tag)),
                            comm: CommId::WORLD,
                            count: 1,
                            request: ReqId(tag),
                        },
                        _ => MpiOp::Wait {
                            request: ReqId(tag),
                        },
                    };
                    TimedOp { time, op }
                })
                .collect(),
        });
        let mut ties = AppTrace {
            name: "ties".into(),
            ranks: ranks.into(),
        };
        assert_split_equals_merged_ops(&ties);
        // The same with each rank's times rising, so every source is one
        // run of a destination's stream.
        for rank in &mut ties.ranks {
            let mut times: Vec<f64> = rank.ops.iter().map(|t| t.time).collect();
            times.sort_by(f64::total_cmp);
            rank.ops
                .iter_mut()
                .zip(times)
                .for_each(|(t, time)| t.time = time);
        }
        assert_split_equals_merged_ops(&ties);

        // Every kind of time a float holds, in each rank's program order
        // and out of it: signed zeros tie, the infinities bound the finite
        // times, and a NaN has a place of its own.
        let odd = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        let odd = odd.into_iter().chain([1.5, -2.0]);
        let times: Vec<f64> = odd.clone().chain(odd.rev()).collect();
        let ranks = (0..4).map(|rank| RankTrace {
            rank: Rank(rank),
            ops: times
                .iter()
                .enumerate()
                .map(|(i, &time)| isend(time, (rank + i as u32) % 4))
                .collect(),
        });
        let floats = AppTrace {
            name: "every float".into(),
            ranks: ranks.collect(),
        };
        assert_split_equals_merged_ops(&floats);
        let mut order = floats.split(1, |_, _| Some(0), |_, _, t| (t.time + 0.0).to_bits());
        order[0].dedup();
        let times = [
            -f64::NAN,
            f64::NEG_INFINITY,
            -2.0,
            0.0,
            1.5,
            f64::INFINITY,
            f64::NAN,
        ];
        assert_eq!(order[0], times.map(f64::to_bits));
    }

    #[test]
    fn merged_ops_orders_nan_times_instead_of_panicking() {
        // 8 ranks of 300 sends at seeded times, one in five NaN: a
        // comparison sort on the times themselves is handed no total order.
        let mut rng = otm_base::FaultRng::new(1);
        let ranks = (0..8).map(|rank| RankTrace {
            rank: Rank(rank),
            ops: (0..300)
                .map(|_| {
                    let time = match rng.below(5) {
                        0 => f64::NAN,
                        _ => rng.below(1000) as f64,
                    };
                    isend(time, (rank + 1) % 8)
                })
                .collect(),
        });
        let trace = AppTrace {
            name: "nan".into(),
            ranks: ranks.collect(),
        };
        let merged = trace.merged_ops();
        assert_eq!(merged.len(), 8 * 300);
        let nans = merged.iter().filter(|(_, t)| t.time.is_nan()).count();
        assert!(nans > 400, "{nans} NaN times");
        let last = &merged[merged.len() - nans..];
        assert!(
            last.iter().all(|(_, t)| t.time.is_nan()),
            "every NaN sorts last"
        );
        assert_split_equals_merged_ops(&trace);
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
