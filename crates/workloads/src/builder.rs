//! Trace construction utilities shared by all application generators.
//!
//! A [`TraceBuilder`] keeps one logical clock per rank. Every recorded
//! operation advances its rank's clock by a small step, so the replay
//! stage's time-merged processing (§V-A) observes a realistic interleaving:
//! receives posted before the matching sends arrive are expected; sends
//! racing ahead of their receives become unexpected messages. Collectives
//! synchronize clocks like a barrier would.

use otm_base::envelope::{SourceSel, TagSel};
use otm_base::{CommId, Rank, Tag};
use otm_trace::model::{CollectiveKind, MpiOp, RankTrace, ReqId, TimedOp};
use otm_trace::AppTrace;

/// Per-operation clock step, in seconds.
const OP_DT: f64 = 1e-6;

struct RankState {
    clock: f64,
    ops: Vec<TimedOp>,
    next_req: u32,
    pending_reqs: u32,
}

/// Incremental builder for an [`AppTrace`] (see module docs).
///
/// ```
/// use otm_workloads::TraceBuilder;
/// use otm_base::{Rank, Tag};
///
/// let mut b = TraceBuilder::new("two-rank", 2);
/// b.irecv(1, Rank(0), Tag(7), 16);
/// b.sync();
/// b.isend(0, 1, 7, 16);
/// b.waitall(1);
/// let trace = b.build();
/// assert_eq!(trace.processes(), 2);
/// let report = otm_trace::replay(&trace, &otm_trace::ReplayConfig::default());
/// assert_eq!(report.match_stats.matched_on_arrival, 1);
/// ```
pub struct TraceBuilder {
    name: String,
    ranks: Vec<RankState>,
}

impl TraceBuilder {
    /// Starts a trace for `nprocs` ranks.
    pub fn new(name: impl Into<String>, nprocs: usize) -> Self {
        TraceBuilder {
            name: name.into(),
            ranks: (0..nprocs)
                .map(|_| RankState {
                    clock: 0.0,
                    ops: Vec::new(),
                    next_req: 0,
                    pending_reqs: 0,
                })
                .collect(),
        }
    }

    /// Number of ranks.
    pub(crate) fn nprocs(&self) -> usize {
        self.ranks.len()
    }

    fn push(&mut self, rank: usize, op: MpiOp) {
        let r = &mut self.ranks[rank];
        r.clock += OP_DT;
        r.ops.push(TimedOp { time: r.clock, op });
    }

    /// Advances one rank's clock without recording an operation (models
    /// local computation).
    pub(crate) fn compute(&mut self, rank: usize, seconds: f64) {
        self.ranks[rank].clock += seconds;
    }

    /// Posts a nonblocking receive and returns its request id.
    pub fn irecv(
        &mut self,
        rank: usize,
        src: impl Into<SourceSel>,
        tag: impl Into<TagSel>,
        count: u64,
    ) -> ReqId {
        let request = ReqId(self.ranks[rank].next_req);
        self.ranks[rank].next_req += 1;
        self.ranks[rank].pending_reqs += 1;
        self.push(
            rank,
            MpiOp::Irecv {
                src: src.into(),
                tag: tag.into(),
                comm: CommId::WORLD,
                count,
                request,
            },
        );
        request
    }

    /// Issues a nonblocking send and returns its request id.
    pub fn isend(&mut self, rank: usize, dest: usize, tag: u32, count: u64) -> ReqId {
        let request = ReqId(self.ranks[rank].next_req);
        self.ranks[rank].next_req += 1;
        self.ranks[rank].pending_reqs += 1;
        self.push(
            rank,
            MpiOp::Isend {
                dest: Rank(dest as u32),
                tag: Tag(tag),
                comm: CommId::WORLD,
                count,
                request,
            },
        );
        request
    }

    /// Waits on all of the rank's outstanding nonblocking requests.
    pub fn waitall(&mut self, rank: usize) {
        let nreqs = self.ranks[rank].pending_reqs;
        self.ranks[rank].pending_reqs = 0;
        self.push(rank, MpiOp::Waitall { nreqs });
    }

    /// Records a collective on every rank and synchronizes their clocks,
    /// like the barrier semantics most collectives imply for tracing.
    pub(crate) fn collective(&mut self, kind: CollectiveKind) {
        let sync = self.ranks.iter().map(|r| r.clock).fold(0.0f64, f64::max) + OP_DT;
        for r in &mut self.ranks {
            r.clock = sync;
            r.ops.push(TimedOp {
                time: r.clock,
                op: MpiOp::Collective {
                    kind,
                    comm: CommId::WORLD,
                },
            });
        }
    }

    /// Synchronizes all clocks to the global maximum without recording an
    /// operation (models an application-level phase boundary).
    pub fn sync(&mut self) {
        let sync = self.ranks.iter().map(|r| r.clock).fold(0.0f64, f64::max);
        for r in &mut self.ranks {
            r.clock = sync;
        }
    }

    /// Finishes the trace.
    pub fn build(self) -> AppTrace {
        AppTrace {
            name: self.name,
            ranks: self
                .ranks
                .into_iter()
                .enumerate()
                .map(|(i, r)| RankTrace {
                    rank: Rank(i as u32),
                    ops: r.ops,
                })
                .collect(),
        }
    }
}

/// A neighbor-exchange round used by the stencil-style applications: every
/// rank posts one receive per neighbor (pre-posted), synchronizes, then
/// sends to each neighbor and waits.
///
/// `neighbors(rank)` returns the peer list; `tag(round, direction_index)`
/// the tag for each direction, where the direction index is the
/// *receiver's*. `opposite(d)` maps a sender's direction index to the
/// receiver's (e.g. `d ^ 1` for ±-paired lists), so that the tag a sender
/// attaches is the one the peer's receive expects. The pre-post discipline
/// keeps unexpected messages rare, matching what the paper observes for the
/// DOE mini-apps.
pub(crate) fn halo_round(
    b: &mut TraceBuilder,
    round: u32,
    neighbors: &dyn Fn(usize) -> Vec<usize>,
    tag: &dyn Fn(u32, usize) -> u32,
    opposite: &dyn Fn(usize) -> usize,
    count: u64,
) {
    post_halo_receives(b, round, neighbors, tag, count);
    b.sync();
    send_halo(b, round, neighbors, tag, opposite, count);
    b.sync();
}

/// The receive-posting half of [`halo_round`]; applications that pre-post
/// several exchange phases call this for each phase before any
/// [`send_halo`].
pub(crate) fn post_halo_receives(
    b: &mut TraceBuilder,
    round: u32,
    neighbors: &dyn Fn(usize) -> Vec<usize>,
    tag: &dyn Fn(u32, usize) -> u32,
    count: u64,
) {
    let n = b.nprocs();
    for rank in 0..n {
        for (d, &peer) in neighbors(rank).iter().enumerate() {
            b.irecv(rank, Rank(peer as u32), Tag(tag(round, d)), count);
        }
    }
}

/// The sending half of [`halo_round`]. Each sender walks its direction list
/// in a per-(rank, round) pseudo-random order — real codes stagger their
/// send loops to avoid hot-spotting a direction, and the resulting
/// out-of-order arrivals are exactly what makes 1-bin (traditional)
/// matching scan deep queues on halo exchanges.
pub(crate) fn send_halo(
    b: &mut TraceBuilder,
    round: u32,
    neighbors: &dyn Fn(usize) -> Vec<usize>,
    tag: &dyn Fn(u32, usize) -> u32,
    opposite: &dyn Fn(usize) -> usize,
    count: u64,
) {
    send_halo_phases(b, &[round], neighbors, tag, opposite, count);
}

/// Multi-phase variant of [`send_halo`]: when an application pre-posts the
/// receives of several exchange phases (LULESH fields, FillBoundary fabs),
/// the sends of all phases interleave — each rank walks the full
/// `(phase, direction)` cross product in its own pseudo-random order. That
/// is what lets the 1-bin queue depth grow with the *total* number of
/// in-flight receives rather than one phase's worth.
pub(crate) fn send_halo_phases(
    b: &mut TraceBuilder,
    phases: &[u32],
    neighbors: &dyn Fn(usize) -> Vec<usize>,
    tag: &dyn Fn(u32, usize) -> u32,
    opposite: &dyn Fn(usize) -> usize,
    count: u64,
) {
    let n = b.nprocs();
    for rank in 0..n {
        let peers = neighbors(rank);
        let mut order: Vec<(u32, usize)> = phases
            .iter()
            .flat_map(|&p| (0..peers.len()).map(move |d| (p, d)))
            .collect();
        // Cheap multiplicative shuffle keyed on (rank, phase, direction):
        // enough disorder without an RNG dependency here.
        let key = (rank as u64).wrapping_mul(0x9e37_79b9);
        order.sort_by_key(|&(p, d)| {
            otm_base::hash::mix64(key ^ (u64::from(p) << 48) ^ ((d as u64) << 32))
        });
        for (p, d) in order {
            b.isend(rank, peers[d], tag(p, opposite(d)), count);
        }
        b.waitall(rank);
    }
}

/// Ranks arranged on a periodic 3-D grid; returns the grid dims closest to
/// a cube for `n` ranks (n must have an integer cube-ish factorization;
/// falls back to a 1-D ring decomposition otherwise).
pub(crate) fn grid3d_dims(n: usize) -> (usize, usize, usize) {
    let mut best = (n, 1, 1);
    let mut best_surface = usize::MAX;
    for x in 1..=n {
        if n % x != 0 {
            continue;
        }
        let rest = n / x;
        for y in 1..=rest {
            if rest % y != 0 {
                continue;
            }
            let z = rest / y;
            let surface = x * y + y * z + x * z;
            if surface < best_surface {
                best_surface = surface;
                best = (x, y, z);
            }
        }
    }
    best
}

/// The six face neighbors of `rank` on a periodic 3-D grid.
pub(crate) fn face_neighbors_3d(rank: usize, dims: (usize, usize, usize)) -> Vec<usize> {
    let (nx, ny, nz) = dims;
    let x = rank % nx;
    let y = (rank / nx) % ny;
    let z = rank / (nx * ny);
    let idx = |x: usize, y: usize, z: usize| x + nx * (y + ny * z);
    vec![
        idx((x + 1) % nx, y, z),
        idx((x + nx - 1) % nx, y, z),
        idx(x, (y + 1) % ny, z),
        idx(x, (y + ny - 1) % ny, z),
        idx(x, y, (z + 1) % nz),
        idx(x, y, (z + nz - 1) % nz),
    ]
}

/// All 26 neighbors (faces, edges, corners) on a periodic 3-D grid.
pub(crate) fn full_neighbors_3d(rank: usize, dims: (usize, usize, usize)) -> Vec<usize> {
    let (nx, ny, nz) = dims;
    let x = rank % nx;
    let y = (rank / nx) % ny;
    let z = rank / (nx * ny);
    let mut out = Vec::with_capacity(26);
    for dz in [nz - 1, 0, 1] {
        for dy in [ny - 1, 0, 1] {
            for dx in [nx - 1, 0, 1] {
                if dx == 0 && dy == 0 && dz == 0 {
                    continue;
                }
                out.push(((x + dx) % nx) + nx * (((y + dy) % ny) + ny * ((z + dz) % nz)));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use otm_trace::model::CallKind;

    #[test]
    fn clocks_advance_per_operation() {
        let mut b = TraceBuilder::new("t", 2);
        b.isend(0, 1, 0, 1);
        b.isend(0, 1, 1, 1);
        let trace = b.build();
        let ops = &trace.ranks[0].ops;
        assert!(ops[0].time < ops[1].time);
    }

    #[test]
    fn collective_synchronizes_clocks() {
        let mut b = TraceBuilder::new("t", 3);
        b.compute(1, 5.0);
        b.collective(CollectiveKind::Allreduce);
        let trace = b.build();
        let times: Vec<f64> = trace.ranks.iter().map(|r| r.ops[0].time).collect();
        assert!(times.iter().all(|&t| (t - times[0]).abs() < 1e-12));
        assert!(times[0] > 5.0);
    }

    #[test]
    fn waitall_counts_outstanding_requests() {
        let mut b = TraceBuilder::new("t", 2);
        b.irecv(0, Rank(1), Tag(0), 1);
        b.isend(0, 1, 0, 1);
        b.waitall(0);
        let trace = b.build();
        let last = trace.ranks[0].ops.last().unwrap();
        assert!(matches!(last.op, MpiOp::Waitall { nreqs: 2 }));
    }

    #[test]
    fn halo_round_preposts_receives() {
        let mut b = TraceBuilder::new("t", 4);
        let ring = |r: usize| vec![(r + 1) % 4, (r + 3) % 4];
        halo_round(
            &mut b,
            0,
            &ring,
            &|round, d| round * 10 + d as u32,
            &|d| d ^ 1,
            8,
        );
        let trace = b.build();
        // Each rank: 2 receives, 2 sends, 1 waitall.
        for r in &trace.ranks {
            let recvs = r
                .ops
                .iter()
                .filter(|o| matches!(o.op, MpiOp::Irecv { .. }))
                .count();
            let sends = r
                .ops
                .iter()
                .filter(|o| matches!(o.op, MpiOp::Isend { .. }))
                .count();
            assert_eq!((recvs, sends), (2, 2));
            // Receives precede sends in time.
            let last_recv = r
                .ops
                .iter()
                .filter(|o| matches!(o.op, MpiOp::Irecv { .. }))
                .map(|o| o.time)
                .fold(0.0f64, f64::max);
            let first_send = r
                .ops
                .iter()
                .filter(|o| matches!(o.op, MpiOp::Isend { .. }))
                .map(|o| o.time)
                .fold(f64::INFINITY, f64::min);
            assert!(last_recv < first_send);
        }
        // The replay must see zero unexpected messages.
        let report = otm_trace::replay(&trace, &otm_trace::ReplayConfig::default());
        assert_eq!(report.match_stats.unexpected, 0);
        assert_eq!(report.final_prq, 0);
    }

    #[test]
    fn grid_dims_factorize_near_cubes() {
        assert_eq!(grid3d_dims(64), (4, 4, 4));
        assert_eq!(grid3d_dims(8), (2, 2, 2));
        let (x, y, z) = grid3d_dims(1000);
        assert_eq!(x * y * z, 1000);
        assert_eq!((x, y, z), (10, 10, 10));
    }

    #[test]
    fn face_neighbors_are_symmetric() {
        let dims = grid3d_dims(64);
        for rank in 0..64 {
            for &peer in &face_neighbors_3d(rank, dims) {
                assert!(
                    face_neighbors_3d(peer, dims).contains(&rank),
                    "rank {rank} peer {peer} not symmetric"
                );
            }
        }
    }

    #[test]
    fn full_neighbors_count_is_26_when_grid_is_large_enough() {
        let dims = grid3d_dims(64); // 4x4x4: all 26 distinct
        let n: std::collections::HashSet<usize> = full_neighbors_3d(0, dims).into_iter().collect();
        assert_eq!(n.len(), 26);
    }

    #[test]
    fn progress_ops_are_classified_as_progress() {
        let mut b = TraceBuilder::new("t", 1);
        b.irecv(0, SourceSel::Any, TagSel::Any, 1);
        b.waitall(0);
        let trace = b.build();
        assert_eq!(trace.ranks[0].ops[1].op.kind(), CallKind::Progress);
    }
}
