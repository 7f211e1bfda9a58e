//! **AMR MiniApp** — single-step adaptive mesh refinement for
//! hydrodynamics (64 processes in Table II).
//!
//! Communication pattern: a base halo exchange over the process grid, plus
//! refinement traffic — a randomized subset of ranks owns refined patches
//! and exchanges extra messages with the coarse owners of the overlapped
//! region, using distinct tags per patch. Refinement messages sometimes
//! arrive before their receives are posted (the receiver discovers the
//! refinement a little later), producing the small unexpected-message
//! population AMR codes show.

use crate::builder::{face_neighbors_3d, grid3d_dims, halo_round, TraceBuilder};
use otm_base::{FaultRng, Rank, Tag};
use otm_trace::model::CollectiveKind;
use otm_trace::AppTrace;

/// Table II process count.
pub(crate) const PROCESSES: usize = 64;

/// Generates the AMR MiniApp trace.
pub(crate) fn generate(seed: u64) -> AppTrace {
    let mut rng = FaultRng::new(seed ^ 0xA3A3);
    let mut b = TraceBuilder::new("AMR MiniApp", PROCESSES);
    let dims = grid3d_dims(PROCESSES);
    let neighbors = move |r: usize| face_neighbors_3d(r, dims);

    // Base coarse-grid halo.
    halo_round(&mut b, 0, &neighbors, &|_, d| d as u32, &|d| d ^ 1, 256);

    // Refinement phase: ~1/4 of ranks own refined patches; each sends its
    // refined boundary to 2 coarse owners slightly before they post.
    let refined: Vec<usize> = (0..PROCESSES).filter(|_| rng.chance(250)).collect();
    let mut pairs = Vec::new();
    for (patch, &owner) in refined.iter().enumerate() {
        for k in 0..2 {
            let coarse = (owner + 1 + k * 7 + rng.below(3) as usize) % PROCESSES;
            if coarse != owner {
                pairs.push((owner, coarse, 100 + patch as u32));
            }
        }
    }
    // Senders go first (the refinement is discovered sender-side)...
    for &(owner, coarse, tag) in &pairs {
        b.isend(owner, coarse, tag, 512);
    }
    b.sync();
    // ...and the coarse owners post afterwards: these match unexpected
    // messages.
    for &(owner, coarse, tag) in &pairs {
        b.irecv(coarse, Rank(owner as u32), Tag(tag), 512);
    }
    for rank in 0..PROCESSES {
        b.waitall(rank);
    }
    b.sync();

    // Regrid decision.
    b.collective(CollectiveKind::Allreduce);
    // Final consistency halo.
    halo_round(
        &mut b,
        1,
        &neighbors,
        &|_, d| 10 + d as u32,
        &|d| d ^ 1,
        256,
    );
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use otm_trace::{replay, ReplayConfig};

    #[test]
    fn trace_has_table2_process_count() {
        assert_eq!(generate(1).processes(), PROCESSES);
    }

    #[test]
    fn refinement_produces_unexpected_messages() {
        let report = replay(&generate(1), &ReplayConfig::default());
        assert!(
            report.match_stats.unexpected > 0,
            "late-posted refinement receives"
        );
        assert_eq!(report.final_prq, 0);
        assert_eq!(report.final_umq, 0, "but everything pairs up eventually");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        assert_eq!(generate(7), generate(7));
        assert_ne!(
            generate(7),
            generate(8),
            "different seeds refine differently"
        );
    }
}
