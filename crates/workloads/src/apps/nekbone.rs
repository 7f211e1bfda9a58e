//! **Nekbone** — Nek5000 Poisson-solver proxy (64 processes in Table II).
//!
//! Communication pattern: conjugate gradient with a spectral-element
//! gather-scatter. Each iteration exchanges shared-degree-of-freedom data
//! with the face neighbors of the process cube twice (gather then scatter,
//! distinct tag spaces) and reduces the CG scalars. Compared to MiniFE the
//! per-iteration traffic is doubled but equally well spread.

use crate::builder::{face_neighbors_3d, grid3d_dims, halo_round, TraceBuilder};
use otm_trace::model::CollectiveKind;
use otm_trace::AppTrace;

/// Table II process count.
pub(crate) const PROCESSES: usize = 64;

/// Generates the Nekbone trace.
pub(crate) fn generate(_seed: u64) -> AppTrace {
    let mut b = TraceBuilder::new("Nekbone", PROCESSES);
    let dims = grid3d_dims(PROCESSES);
    let neighbors = move |r: usize| face_neighbors_3d(r, dims);
    let iterations = 5;
    for it in 0..iterations {
        // Gather-scatter: two exchanges per iteration.
        halo_round(
            &mut b,
            it,
            &neighbors,
            &|it, d| 100 + it * 16 + d as u32,
            &|d| d ^ 1,
            256,
        );
        halo_round(
            &mut b,
            it,
            &neighbors,
            &|it, d| 200 + it * 16 + d as u32,
            &|d| d ^ 1,
            256,
        );
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
    fn gather_scatter_completes_cleanly() {
        let report = replay(&generate(0), &ReplayConfig { bins: 32 });
        assert_eq!(report.final_prq, 0);
        assert_eq!(report.final_umq, 0);
        assert_eq!(report.match_stats.unexpected, 0);
    }

    #[test]
    fn well_spread_tags_keep_depth_low_at_128_bins() {
        let report = replay(&generate(0), &ReplayConfig { bins: 128 });
        assert!(
            report.mean_queue_depth < 0.6,
            "got {}",
            report.mean_queue_depth
        );
    }
}
