//! The BoxLib family: **BoxLib CNS**, **BoxLib MultiGrid**, **MultiGrid**
//! and **FillBoundary** (Table II).
//!
//! All four are built on BoxLib's `MultiFab` ghost-cell machinery:
//!
//! * *BoxLib CNS* (64 procs) — compressible Navier-Stokes integrator: per
//!   timestep, several full 26-neighbor ghost exchanges (one per component
//!   group), each with its own tag window. The 26-wide same-window fan-in
//!   gives CNS the deepest 1-bin queues of the application set (the paper
//!   reports a maximum around 25).
//! * *BoxLib MultiGrid* (64 procs) — one V-cycle of the linear solver:
//!   face-neighbor halos per level plus restriction/prolongation transfers
//!   to/from the coarse-level owners, then a residual allreduce.
//! * *MultiGrid* (1000 procs) — the same solver pattern at the 10×10×10
//!   scale of the NERSC trace.
//! * *FillBoundary* (1000 procs) — the ghost-exchange benchmark in
//!   isolation: repeated face halos, p2p only (one of the three
//!   p2p-exclusive applications of Fig. 6).

use crate::builder::{face_neighbors_3d, full_neighbors_3d, grid3d_dims, halo_round, TraceBuilder};
use otm_base::{Rank, Tag};
use otm_trace::model::CollectiveKind;
use otm_trace::AppTrace;

/// BoxLib CNS process count (Table II).
pub(crate) const CNS_PROCESSES: usize = 64;
/// BoxLib MultiGrid process count (Table II).
pub(crate) const BOXLIB_MG_PROCESSES: usize = 64;
/// MultiGrid process count (Table II).
pub(crate) const MULTIGRID_PROCESSES: usize = 1000;
/// FillBoundary process count (Table II).
pub(crate) const FILLBOUNDARY_PROCESSES: usize = 1000;

/// Generates the BoxLib CNS trace.
pub(crate) fn generate_cns(_seed: u64) -> AppTrace {
    let mut b = TraceBuilder::new("BoxLib CNS", CNS_PROCESSES);
    let dims = grid3d_dims(CNS_PROCESSES);
    let neighbors = move |r: usize| full_neighbors_3d(r, dims);
    let steps = 5;
    for step in 0..steps {
        // Three component groups per RK stage share one tag window, so the
        // 26 in-flight receives of a group all collide at one bin.
        for group in 0..3u32 {
            halo_round(
                &mut b,
                step,
                &neighbors,
                &move |_r, _d| group,
                &|d| 25 - d,
                512,
            );
        }
        b.collective(CollectiveKind::Allreduce); // dt control
    }
    b.build()
}

/// One V-cycle of the BoxLib multigrid solver over `nprocs` ranks.
fn multigrid_trace(name: &str, nprocs: usize, cycles: u32) -> AppTrace {
    let mut b = TraceBuilder::new(name, nprocs);
    for cycle in 0..cycles {
        let mut level = 0u32;
        let mut stride = 1usize;
        // Down-sweep: smooth + restrict while at least 8 ranks are active.
        while nprocs / stride >= 8 {
            let active: Vec<usize> = (0..nprocs).step_by(stride).collect();
            let adims = grid3d_dims(active.len());
            let tag = cycle * 100 + level;
            // Smoothing halo among active ranks.
            for &rank in &active {
                for &p in &face_neighbors_3d(rank / stride, adims) {
                    let peer = active[p];
                    if peer != rank {
                        b.irecv(rank, Rank(peer as u32), Tag(tag), 128);
                    }
                }
            }
            b.sync();
            for &rank in &active {
                for &p in &face_neighbors_3d(rank / stride, adims) {
                    let peer = active[p];
                    if peer != rank {
                        b.isend(rank, peer, tag, 128);
                    }
                }
                b.waitall(rank);
            }
            b.sync();
            // Restriction: retiring ranks ship their patch to the coarse
            // owner (the rank they align with at the next stride).
            let next_stride = stride * 2;
            if nprocs / next_stride >= 8 {
                let rtag = cycle * 100 + 50 + level;
                for &rank in &active {
                    if rank % next_stride != 0 {
                        let owner = (rank / next_stride) * next_stride;
                        b.isend(rank, owner, rtag, 64);
                    }
                }
                b.sync();
                for &rank in &active {
                    if rank % next_stride == 0 {
                        for fine in active
                            .iter()
                            .filter(|&&f| f != rank && f / next_stride == rank / next_stride)
                        {
                            b.irecv(rank, Rank(*fine as u32), Tag(rtag), 64);
                        }
                        b.waitall(rank);
                    }
                }
                b.sync();
            }
            stride = next_stride;
            level += 1;
        }
        b.collective(CollectiveKind::Allreduce); // residual norm
    }
    b.build()
}

/// Generates the BoxLib MultiGrid trace (single V-cycle, 64 procs).
pub(crate) fn generate_boxlib_mg(_seed: u64) -> AppTrace {
    multigrid_trace("BoxLib MultiGrid", BOXLIB_MG_PROCESSES, 1)
}

/// Generates the MultiGrid trace (1000 procs).
pub(crate) fn generate_multigrid(_seed: u64) -> AppTrace {
    multigrid_trace("MultiGrid", MULTIGRID_PROCESSES, 2)
}

/// Generates the FillBoundary trace.
pub(crate) fn generate_fillboundary(_seed: u64) -> AppTrace {
    let mut b = TraceBuilder::new("FillBoundary", FILLBOUNDARY_PROCESSES);
    let dims = grid3d_dims(FILLBOUNDARY_PROCESSES);
    let neighbors = move |r: usize| face_neighbors_3d(r, dims);
    // Pure ghost exchange over several MultiFabs; strictly p2p. All fabs'
    // receives are pre-posted before the exchange fires (that is the whole
    // point of the FillBoundary benchmark), so 24 receives are in flight
    // per rank.
    let fab_tag = |fab: u32, d: usize| fab * 8 + d as u32;
    for fab in 0..4u32 {
        crate::builder::post_halo_receives(&mut b, fab, &neighbors, &fab_tag, 256);
    }
    b.sync();
    crate::builder::send_halo_phases(&mut b, &[0, 1, 2, 3], &neighbors, &fab_tag, &|d| d ^ 1, 256);
    b.sync();
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use otm_trace::{replay, ReplayConfig};

    #[test]
    fn process_counts_match_table2() {
        assert_eq!(generate_cns(0).processes(), 64);
        assert_eq!(generate_boxlib_mg(0).processes(), 64);
        assert_eq!(generate_multigrid(0).processes(), 1000);
        assert_eq!(generate_fillboundary(0).processes(), 1000);
    }

    #[test]
    fn cns_has_the_deepest_single_bin_queues() {
        let report = replay(&generate_cns(0), &ReplayConfig { bins: 1 });
        // The paper reports a maximum queue depth around 25 for CNS.
        assert!(
            report.max_queue_depth >= 15,
            "got {}",
            report.max_queue_depth
        );
        assert!(
            report.max_queue_depth <= 40,
            "got {}",
            report.max_queue_depth
        );
        assert_eq!(report.final_umq, 0);
    }

    #[test]
    fn cns_queues_collapse_with_bins() {
        let trace = generate_cns(0);
        let d1 = replay(&trace, &ReplayConfig { bins: 1 });
        let d32 = replay(&trace, &ReplayConfig { bins: 32 });
        let d128 = replay(&trace, &ReplayConfig { bins: 128 });
        assert!(d32.max_queue_depth < d1.max_queue_depth / 2);
        assert!(d128.max_queue_depth <= d32.max_queue_depth);
    }

    #[test]
    fn fillboundary_is_p2p_only_and_clean() {
        let report = replay(&generate_fillboundary(0), &ReplayConfig { bins: 32 });
        assert!((report.call_dist.p2p_fraction() - 1.0).abs() < 1e-12);
        assert_eq!(report.match_stats.unexpected, 0);
        assert_eq!(report.final_prq, 0);
        assert_eq!(report.final_umq, 0);
    }

    #[test]
    fn multigrid_restriction_completes() {
        for trace in [generate_boxlib_mg(0), generate_multigrid(0)] {
            let report = replay(&trace, &ReplayConfig { bins: 32 });
            assert_eq!(report.final_prq, 0, "{}", trace.name);
            assert_eq!(report.final_umq, 0, "{}", trace.name);
            assert!(report.call_dist.collective > 0);
        }
    }
}
