//! **CrystalRouter** — proxy for the Nek5000 crystal-router scalable
//! communication kernel (100 processes in Table II).
//!
//! Communication pattern: the crystal router moves arbitrary point-to-point
//! payloads through a recursive-halving (hypercube-style) schedule:
//! `log2(n)` stages in which every rank exchanges a combined buffer with
//! `rank XOR 2^k` (ranks whose partner falls outside the communicator skip
//! the stage). All traffic is p2p — one of the three p2p-exclusive
//! applications of Fig. 6.

use crate::builder::TraceBuilder;
use otm_base::{Rank, Tag};
use otm_trace::AppTrace;

/// Table II process count.
pub(crate) const PROCESSES: usize = 100;

/// Generates the CrystalRouter trace.
pub(crate) fn generate(_seed: u64) -> AppTrace {
    let mut b = TraceBuilder::new("CrystalRouter", PROCESSES);
    let rounds = 3; // three router invocations
    for round in 0..rounds {
        let mut stage = 0u32;
        let mut bit = 1usize;
        while bit < PROCESSES {
            let tag = round * 16 + stage;
            // Pre-post the stage's receives...
            for rank in 0..PROCESSES {
                let partner = rank ^ bit;
                if partner < PROCESSES {
                    b.irecv(rank, Rank(partner as u32), Tag(tag), 256);
                }
            }
            b.sync();
            // ...then exchange.
            for rank in 0..PROCESSES {
                let partner = rank ^ bit;
                if partner < PROCESSES {
                    b.isend(rank, partner, tag, 256);
                    b.waitall(rank);
                }
            }
            b.sync();
            bit <<= 1;
            stage += 1;
        }
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
    fn crystal_router_is_p2p_only() {
        let report = replay(&generate(0), &ReplayConfig { bins: 32 });
        assert!((report.call_dist.p2p_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hypercube_stages_complete_cleanly() {
        let report = replay(&generate(0), &ReplayConfig { bins: 32 });
        assert_eq!(report.final_prq, 0);
        assert_eq!(report.final_umq, 0);
        assert_eq!(report.match_stats.unexpected, 0);
    }

    #[test]
    fn pairwise_stages_keep_queues_shallow() {
        // One pending receive per rank per stage: even at 1 bin the queues
        // stay shallow — CrystalRouter sits at the low end of Fig. 7.
        let report = replay(&generate(0), &ReplayConfig { bins: 1 });
        assert!(
            report.mean_queue_depth < 2.0,
            "got {}",
            report.mean_queue_depth
        );
    }
}
