//! **MiniFE** — implicit finite-elements proxy (1152 processes in
//! Table II).
//!
//! Communication pattern: a conjugate-gradient solve. Every iteration does
//! a sparse matrix-vector product whose boundary exchange is a
//! face-neighbor halo over the 8×12×12 process grid (one tag per
//! iteration), followed by two `MPI_Allreduce` dot products. The per-rank
//! neighbor set is small and tags rotate per iteration, so receives spread
//! well over the bins — the canonical "good case" for optimistic matching.

use crate::builder::{face_neighbors_3d, grid3d_dims, halo_round, TraceBuilder};
use otm_trace::model::CollectiveKind;
use otm_trace::AppTrace;

/// Table II process count.
pub(crate) const PROCESSES: usize = 1152;

/// Generates the MiniFE trace.
pub(crate) fn generate(_seed: u64) -> AppTrace {
    let mut b = TraceBuilder::new("MiniFe", PROCESSES);
    let dims = grid3d_dims(PROCESSES);
    let neighbors = move |r: usize| face_neighbors_3d(r, dims);
    let iterations = 6;
    for it in 0..iterations {
        // SpMV boundary exchange.
        halo_round(
            &mut b,
            it,
            &neighbors,
            &|it, d| it * 8 + d as u32,
            &|d| d ^ 1,
            512,
        );
        // CG dot products.
        b.collective(CollectiveKind::Allreduce);
        b.collective(CollectiveKind::Allreduce);
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
    fn grid_factorization_is_8_12_12() {
        assert_eq!(grid3d_dims(PROCESSES), (8, 12, 12));
    }

    #[test]
    fn cg_iterations_complete_cleanly() {
        let report = replay(&generate(0), &ReplayConfig { bins: 32 });
        assert_eq!(report.final_prq, 0);
        assert_eq!(report.final_umq, 0);
        assert!(report.call_dist.p2p_fraction() > 0.5);
        assert!(report.call_dist.collective > 0);
    }

    #[test]
    fn rotating_tags_keep_bins_shallow() {
        let report = replay(&generate(0), &ReplayConfig { bins: 128 });
        assert!(
            report.mean_queue_depth < 0.6,
            "got {}",
            report.mean_queue_depth
        );
    }
}
