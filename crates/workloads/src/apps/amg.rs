//! **AMG** — algebraic multigrid linear solver (8 processes in Table II).
//!
//! Communication pattern: V-cycles over a grid hierarchy. On each level the
//! active ranks exchange boundary data with their neighbors (fewer ranks
//! participate on coarser levels, and each level uses its own tag), then an
//! `MPI_Allreduce` computes the residual norm. This gives p2p-dominated
//! traffic with a modest collective share and small per-level neighbor
//! sets — the low-queue-depth behaviour the paper reports.

use crate::builder::{face_neighbors_3d, grid3d_dims, TraceBuilder};
use otm_base::{Rank, Tag};
use otm_trace::model::CollectiveKind;
use otm_trace::AppTrace;

/// Table II process count.
pub(crate) const PROCESSES: usize = 8;

/// Generates the AMG trace.
pub(crate) fn generate(_seed: u64) -> AppTrace {
    let mut b = TraceBuilder::new("AMG", PROCESSES);
    let dims = grid3d_dims(PROCESSES);
    let cycles = 6;
    let levels = 3;
    for cycle in 0..cycles {
        for level in 0..levels {
            // Coarser levels involve every 2^level-th rank.
            let stride = 1usize << level;
            let active: Vec<usize> = (0..PROCESSES).step_by(stride).collect();
            let tag = cycle * 10 + level as u32;
            // Boundary exchange among active ranks (face neighbors mapped
            // through the stride).
            for &rank in &active {
                for &peer in &face_neighbors_3d(rank / stride, grid3d_dims(active.len())) {
                    let peer = active[peer];
                    if peer != rank {
                        b.irecv(rank, Rank(peer as u32), Tag(tag), 64 >> level);
                    }
                }
            }
            b.sync();
            for &rank in &active {
                let mut peers: Vec<usize> =
                    face_neighbors_3d(rank / stride, grid3d_dims(active.len()))
                        .into_iter()
                        .map(|p| active[p])
                        .filter(|&p| p != rank)
                        .collect();
                // Staggered send order (see builder::send_halo_phases).
                peers.sort_by_key(|&p| {
                    otm_base::hash::mix64((rank as u64) << 32 | p as u64 ^ u64::from(tag))
                });
                for peer in peers {
                    b.isend(rank, peer, tag, 64 >> level);
                }
                b.waitall(rank);
            }
            b.sync();
        }
        b.collective(CollectiveKind::Allreduce);
        let _ = dims;
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use otm_trace::{replay, ReplayConfig};

    #[test]
    fn trace_has_table2_process_count() {
        assert_eq!(generate(0).processes(), PROCESSES);
    }

    #[test]
    fn pattern_is_p2p_dominated_with_collectives() {
        let report = replay(&generate(0), &ReplayConfig::default());
        assert!(report.call_dist.p2p_fraction() > 0.5);
        assert!(report.call_dist.collective > 0);
        assert_eq!(report.call_dist.one_sided, 0);
    }

    #[test]
    fn exchanges_complete_cleanly() {
        let report = replay(&generate(0), &ReplayConfig::default());
        assert_eq!(report.final_prq, 0, "all receives consumed");
        assert_eq!(report.final_umq, 0, "all messages delivered");
    }
}
