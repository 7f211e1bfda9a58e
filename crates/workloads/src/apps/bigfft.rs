//! **BigFFT** — distributed 3-D fast Fourier transform (1024 processes in
//! Table II).
//!
//! Communication pattern: the FFT transposes are implemented as p2p
//! all-to-all exchanges within rows and columns of a 32×32 process grid
//! (pencil decomposition). Every rank posts one receive per row peer, then
//! sends to every row peer, then the same along columns. BigFFT is one of
//! the p2p-only applications of Fig. 6, and its dense per-group fan-in is
//! exactly the "global communication pattern" the paper cites as matching-
//! misery-prone.

use crate::builder::TraceBuilder;
use otm_base::{Rank, Tag};
use otm_trace::AppTrace;

/// Table II process count.
pub(crate) const PROCESSES: usize = 1024;

const SIDE: usize = 32; // 32x32 pencil grid

/// Generates the BigFFT trace.
pub(crate) fn generate(_seed: u64) -> AppTrace {
    let mut b = TraceBuilder::new("BigFFT", PROCESSES);
    // One forward transform: a row transpose then a column transpose.
    for (phase, by_row) in [(0u32, true), (1u32, false)] {
        // Post all receives first (pre-posted transpose).
        for rank in 0..PROCESSES {
            let (row, col) = (rank / SIDE, rank % SIDE);
            for k in 0..SIDE {
                let peer = if by_row {
                    row * SIDE + k
                } else {
                    k * SIDE + col
                };
                if peer != rank {
                    b.irecv(rank, Rank(peer as u32), Tag(phase), 1024);
                }
            }
        }
        b.sync();
        // Senders stagger their peer loop starting after their own position
        // (the standard rotated all-to-all schedule). Each receiver then
        // sees its row's messages in an order different from its receive
        // posting order, which is what makes dense transposes scan deep
        // queues under 1-bin (traditional) matching.
        for rank in 0..PROCESSES {
            let (row, col) = (rank / SIDE, rank % SIDE);
            let me = if by_row { col } else { row };
            for kk in 1..SIDE {
                let k = (me + kk) % SIDE;
                let peer = if by_row {
                    row * SIDE + k
                } else {
                    k * SIDE + col
                };
                b.isend(rank, peer, phase, 1024);
            }
            b.waitall(rank);
        }
        b.sync();
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
    fn bigfft_is_p2p_only() {
        let report = replay(&generate(0), &ReplayConfig { bins: 32 });
        assert!((report.call_dist.p2p_fraction() - 1.0).abs() < 1e-12);
        assert_eq!(report.call_dist.collective, 0);
    }

    #[test]
    fn transpose_fan_in_drives_single_bin_depth() {
        let trace = generate(0);
        let deep = replay(&trace, &ReplayConfig { bins: 1 });
        // 31 same-tag receives pending per rank: deep scans at one bin.
        assert!(deep.mean_queue_depth > 3.0, "got {}", deep.mean_queue_depth);
        assert_eq!(deep.final_prq, 0);
        assert_eq!(deep.final_umq, 0);
    }
}
