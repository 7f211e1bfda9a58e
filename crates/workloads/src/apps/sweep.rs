//! **PARTISN** and **SNAP** — discrete-ordinates neutral-particle
//! transport (168 processes each in Table II).
//!
//! Communication pattern: the Koch-Baker-Alcouffe (KBA) wavefront sweep
//! over a 2-D process grid (12×14 for 168 ranks). For each of the four
//! sweep corners, every rank pre-posts receives from its two upstream
//! neighbors, then the sends propagate diagonal by diagonal. SNAP is "a
//! proxy application for the PARTISN communication pattern" (Table II), so
//! both share this generator — SNAP simply sweeps more energy groups.

use crate::builder::TraceBuilder;
use otm_base::{Rank, Tag};
use otm_trace::model::CollectiveKind;
use otm_trace::AppTrace;

/// Table II process count (both applications).
pub(crate) const PROCESSES: usize = 168;

const NX: usize = 12;
const NY: usize = 14;

/// The four sweep corners: direction of travel along x and y.
const CORNERS: [(isize, isize); 4] = [(1, 1), (-1, 1), (1, -1), (-1, -1)];

fn sweep_trace(name: &str, groups: u32) -> AppTrace {
    let mut b = TraceBuilder::new(name, PROCESSES);
    let coord = |rank: usize| (rank % NX, rank / NX);
    let index = |x: usize, y: usize| x + NX * y;
    for group in 0..groups {
        for (corner, &(dx, dy)) in CORNERS.iter().enumerate() {
            let tag = group * 8 + corner as u32;
            // Pre-post the upstream receives for this corner sweep.
            for rank in 0..PROCESSES {
                let (x, y) = coord(rank);
                let upx = x as isize - dx;
                let upy = y as isize - dy;
                if (0..NX as isize).contains(&upx) {
                    b.irecv(rank, Rank(index(upx as usize, y) as u32), Tag(tag), 64);
                }
                if (0..NY as isize).contains(&upy) {
                    b.irecv(rank, Rank(index(x, upy as usize) as u32), Tag(tag), 64);
                }
            }
            b.sync();
            // Wavefront: diagonals in sweep order; each rank forwards to
            // its downstream x and y neighbors.
            let diag_of = |x: usize, y: usize| {
                let sx = if dx > 0 { x } else { NX - 1 - x };
                let sy = if dy > 0 { y } else { NY - 1 - y };
                sx + sy
            };
            for diag in 0..(NX + NY - 1) {
                for rank in 0..PROCESSES {
                    let (x, y) = coord(rank);
                    if diag_of(x, y) != diag {
                        continue;
                    }
                    let downx = x as isize + dx;
                    let downy = y as isize + dy;
                    if (0..NX as isize).contains(&downx) {
                        b.isend(rank, index(downx as usize, y), tag, 64);
                    }
                    if (0..NY as isize).contains(&downy) {
                        b.isend(rank, index(x, downy as usize), tag, 64);
                    }
                }
                // Advance the wavefront clock.
                for rank in 0..PROCESSES {
                    b.compute(rank, 1e-6);
                }
            }
            for rank in 0..PROCESSES {
                b.waitall(rank);
            }
            b.sync();
        }
        b.collective(CollectiveKind::Allreduce); // convergence check
    }
    b.build()
}

/// Generates the PARTISN trace.
pub(crate) fn generate_partisn(_seed: u64) -> AppTrace {
    sweep_trace("PARTISN", 2)
}

/// Generates the SNAP trace (same pattern, more energy groups).
pub(crate) fn generate_snap(_seed: u64) -> AppTrace {
    sweep_trace("SNAP", 3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use otm_trace::{replay, ReplayConfig};

    #[test]
    fn traces_have_table2_process_counts() {
        assert_eq!(generate_partisn(0).processes(), PROCESSES);
        assert_eq!(generate_snap(0).processes(), PROCESSES);
    }

    #[test]
    fn wavefront_sweeps_complete_cleanly() {
        for trace in [generate_partisn(0), generate_snap(0)] {
            let report = replay(&trace, &ReplayConfig { bins: 32 });
            assert_eq!(report.final_prq, 0, "{}", trace.name);
            assert_eq!(report.final_umq, 0, "{}", trace.name);
            assert_eq!(
                report.match_stats.unexpected, 0,
                "{}: receives pre-posted",
                trace.name
            );
        }
    }

    #[test]
    fn snap_mirrors_partisn_with_more_groups() {
        let partisn = replay(&generate_partisn(0), &ReplayConfig { bins: 1 });
        let snap = replay(&generate_snap(0), &ReplayConfig { bins: 1 });
        // Same shape, scaled volume.
        assert!(snap.call_dist.p2p > partisn.call_dist.p2p);
        let ratio = snap.mean_queue_depth / partisn.mean_queue_depth.max(1e-9);
        assert!((0.4..2.5).contains(&ratio), "depth ratio {ratio}");
    }

    #[test]
    fn wavefront_ordering_keeps_queues_shallow_even_at_one_bin() {
        // Sweeps consume receives in wavefront order, so even the 1-bin
        // list stays near-empty — PARTISN/SNAP sit at the shallow end of
        // Fig. 7.
        let report = replay(&generate_partisn(0), &ReplayConfig { bins: 1 });
        assert!(
            report.mean_queue_depth < 1.0,
            "got {}",
            report.mean_queue_depth
        );
        assert!(report.max_queue_depth >= 1);
    }
}
