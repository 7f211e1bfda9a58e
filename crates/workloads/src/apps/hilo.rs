//! **HILO** and **HILO 2D** — neutron transport evaluation suite (256
//! processes each in Table II).
//!
//! Fig. 6 shows two applications relying entirely on collectives; the HILO
//! pair is that family. The moment-based hybrid scheme reduces its
//! high-order/low-order coupling through reductions and broadcasts rather
//! than point-to-point halos. HILO 2D (the multinode 2-D variant) adds
//! all-to-all moment redistribution.

use crate::builder::TraceBuilder;
use otm_trace::model::CollectiveKind;
use otm_trace::AppTrace;

/// Table II process count (both variants).
pub(crate) const PROCESSES: usize = 256;

/// Generates the HILO trace (collectives only).
pub(crate) fn generate_hilo(_seed: u64) -> AppTrace {
    let mut b = TraceBuilder::new("HILO", PROCESSES);
    for _outer in 0..6 {
        b.collective(CollectiveKind::Bcast); // distribute low-order solution
        for _inner in 0..3 {
            b.collective(CollectiveKind::Allreduce); // residual + moments
        }
        b.collective(CollectiveKind::Reduce); // gather diagnostics
        b.collective(CollectiveKind::Barrier);
    }
    b.build()
}

/// Generates the HILO 2D trace (collectives only, with redistribution).
pub(crate) fn generate_hilo2d(_seed: u64) -> AppTrace {
    let mut b = TraceBuilder::new("HILO 2D", PROCESSES);
    for _outer in 0..5 {
        b.collective(CollectiveKind::Bcast);
        b.collective(CollectiveKind::Alltoall); // moment redistribution
        for _inner in 0..3 {
            b.collective(CollectiveKind::Allreduce);
        }
        b.collective(CollectiveKind::Allgather);
        b.collective(CollectiveKind::Barrier);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use otm_trace::{replay, ReplayConfig};

    #[test]
    fn traces_have_table2_process_counts() {
        assert_eq!(generate_hilo(0).processes(), PROCESSES);
        assert_eq!(generate_hilo2d(0).processes(), PROCESSES);
    }

    #[test]
    fn hilo_is_collectives_only() {
        for trace in [generate_hilo(0), generate_hilo2d(0)] {
            let report = replay(&trace, &ReplayConfig { bins: 32 });
            assert_eq!(report.call_dist.p2p, 0, "{}", trace.name);
            assert!((report.call_dist.collective_fraction() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn no_matching_activity_at_all() {
        let report = replay(&generate_hilo(0), &ReplayConfig { bins: 1 });
        assert_eq!(report.mean_queue_depth, 0.0);
        assert_eq!(report.max_queue_depth, 0);
    }
}
