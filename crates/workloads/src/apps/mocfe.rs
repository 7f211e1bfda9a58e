//! **MOCFE** — Method of Characteristics reactor-transport proxy (64
//! processes in Table II).
//!
//! Communication pattern: angular flux is swept along characteristic rays —
//! pipelined sends along 1-D chains of the process grid — and per-iteration
//! results are gathered many-to-one to the root, which posts
//! `MPI_ANY_SOURCE` receives (the Gatherv-style fan-in the paper cites as a
//! matching hot spot). This generator is the set's main exerciser of
//! wildcard receives.

use crate::builder::{grid3d_dims, TraceBuilder};
use otm_base::envelope::SourceSel;
use otm_base::{Rank, Tag};
use otm_trace::model::CollectiveKind;
use otm_trace::AppTrace;

/// Table II process count.
pub(crate) const PROCESSES: usize = 64;

/// Generates the MOCFE trace.
pub(crate) fn generate(_seed: u64) -> AppTrace {
    let mut b = TraceBuilder::new("MOCFE", PROCESSES);
    let (nx, ny, nz) = grid3d_dims(PROCESSES);
    let iterations = 4;
    for it in 0..iterations {
        // Ray sweeps along +x chains: pre-post the upstream receive, then a
        // staggered forward pipeline of sends.
        let tag = it * 4;
        for rank in 0..PROCESSES {
            if rank % nx != 0 {
                b.irecv(rank, Rank((rank - 1) as u32), Tag(tag), 128);
            }
        }
        b.sync();
        for x in 0..nx - 1 {
            for rank in 0..PROCESSES {
                if rank % nx == x {
                    b.isend(rank, rank + 1, tag, 128);
                }
            }
            // Stagger the wavefront so downstream sends happen after
            // upstream data arrives.
            for rank in 0..PROCESSES {
                b.compute(rank, 2e-6);
            }
        }
        for rank in 0..PROCESSES {
            b.waitall(rank);
        }
        b.sync();

        // Many-to-one gather of iteration results (the Gatherv-style hot
        // spot of §I): the root pre-posts one receive per source rank in
        // rank order, but ranks finish their sweep in reverse order, so the
        // root's 1-bin queue is scanned deeply.
        let gtag = it * 4 + 1;
        for rank in 1..PROCESSES {
            b.irecv(0, Rank(rank as u32), Tag(gtag), 64);
        }
        b.sync();
        for rank in 1..PROCESSES {
            // Higher ranks finish their sweep segment earlier, so reports
            // arrive in reverse rank order.
            b.compute(rank, (PROCESSES - rank) as f64 * 1e-6);
            b.isend(rank, 0, gtag, 64);
            b.waitall(rank);
        }
        b.waitall(0);
        b.sync();

        // Diagnostics gather: the root accepts in completion order via
        // ANY_SOURCE receives (the wildcard usage MOCFE contributes to §V).
        let dtag = it * 4 + 2;
        for _ in 1..PROCESSES {
            b.irecv(0, SourceSel::Any, Tag(dtag), 16);
        }
        b.sync();
        for rank in 1..PROCESSES {
            b.isend(rank, 0, dtag, 16);
            b.waitall(rank);
        }
        b.waitall(0);
        b.sync();
        b.collective(CollectiveKind::Allreduce); // eigenvalue update
        let _ = (ny, nz);
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
    fn wildcard_receives_are_used() {
        let report = replay(&generate(0), &ReplayConfig { bins: 32 });
        assert!(
            report.tag_usage.wildcard_recv_fraction > 0.3,
            "ANY_SOURCE gather fan-in"
        );
    }

    #[test]
    fn sweeps_and_gathers_complete_cleanly() {
        let report = replay(&generate(0), &ReplayConfig { bins: 32 });
        assert_eq!(report.final_prq, 0);
        assert_eq!(report.final_umq, 0);
    }

    #[test]
    fn gather_fan_in_deepens_single_bin_queues() {
        // 63 ANY_SOURCE receives pending at the root: with one bin these
        // all sit in one list.
        let report = replay(&generate(0), &ReplayConfig { bins: 1 });
        assert!(
            report.max_queue_depth >= 30,
            "got {}",
            report.max_queue_depth
        );
    }
}
