//! **LULESH** — shock-hydrodynamics proxy (64 processes in Table II).
//!
//! Communication pattern: each timestep exchanges ghost zones with all 26
//! neighbors (faces, edges, corners) of a 4×4×4 process cube, with a
//! per-field tag, followed by an `MPI_Allreduce` for the timestep control.
//! The 26-wide receive fan-in per rank is what drives LULESH's deeper
//! 1-bin queues.

use crate::builder::{
    full_neighbors_3d, grid3d_dims, post_halo_receives, send_halo_phases, TraceBuilder,
};
use otm_trace::model::CollectiveKind;
use otm_trace::AppTrace;

/// Table II process count.
pub(crate) const PROCESSES: usize = 64;

/// Generates the LULESH trace.
pub(crate) fn generate(_seed: u64) -> AppTrace {
    let mut b = TraceBuilder::new("LULESH", PROCESSES);
    let dims = grid3d_dims(PROCESSES);
    let neighbors = move |r: usize| full_neighbors_3d(r, dims);
    let steps = 8;
    let fields = 3usize; // nodal mass, force, energy exchanges per step
                         // LULESH reuses the same (field, direction) tag window every timestep.
    for _step in 0..steps {
        // LULESH pre-posts the whole step's receives (all fields) before
        // sending anything: 78 receives in flight per rank.
        // One tag per (field, direction): 26 directions * 3 fields.
        let field_tag = |field: u32, d: usize| field * 32 + d as u32;
        for field in 0..fields as u32 {
            post_halo_receives(&mut b, field, &neighbors, &field_tag, 128);
        }
        b.sync();
        send_halo_phases(
            &mut b,
            &(0..fields as u32).collect::<Vec<_>>(),
            &neighbors,
            &field_tag,
            &|d| 25 - d,
            128,
        );
        b.sync();
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
    fn exchanges_complete_cleanly() {
        let report = replay(&generate(0), &ReplayConfig { bins: 32 });
        assert_eq!(report.final_prq, 0);
        assert_eq!(report.final_umq, 0);
        assert_eq!(
            report.match_stats.unexpected, 0,
            "halo receives are pre-posted"
        );
    }

    #[test]
    fn one_bin_queues_are_deep_many_bins_shallow() {
        let trace = generate(0);
        let deep = replay(&trace, &ReplayConfig { bins: 1 });
        let shallow = replay(&trace, &ReplayConfig { bins: 128 });
        assert!(deep.mean_queue_depth > 4.0 * shallow.mean_queue_depth.max(0.05));
    }
}
