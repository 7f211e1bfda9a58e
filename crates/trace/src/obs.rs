//! Replay observability: the analyzer's `trace_replay_*` section.
//!
//! An [`AppReport`] already counts what its replay drove: the call
//! distribution counts every operation, the matcher statistics every receive
//! post (matched on post or queued), the point-to-point calls that are not
//! posts are the sends, the progress calls are the progress points, and the
//! report keeps a histogram of how many events each rank's matcher replayed.
//! So the section a harness writes is a value built from the reports it
//! holds ([`observability`]): nothing is counted twice, and nothing outlives
//! the reports.

use crate::replay::AppReport;
use otm_metrics::{HistogramSnapshot, RegistrySnapshot};

/// The `trace_replay_*` section of `reports`: operations, receive posts,
/// message arrivals (every send, including one to a rank outside the trace)
/// and progress points replayed, and the per-rank replayed-event histogram,
/// which shows how skewed the rank workloads are.
pub fn observability<'a>(reports: impl IntoIterator<Item = &'a AppReport>) -> RegistrySnapshot {
    let (mut counts, mut rank_events) = ([0u64; 4], HistogramSnapshot::empty());
    for r in reports {
        let d = r.call_dist;
        let posts = r.match_stats.matched_on_post + r.match_stats.posted;
        let ops = d.p2p + d.collective + d.one_sided + d.progress;
        for (n, add) in counts
            .iter_mut()
            .zip([ops, posts, d.p2p - posts, d.progress])
        {
            *n += add;
        }
        rank_events = rank_events.merge(&r.rank_events);
    }
    let mut snap = RegistrySnapshot::default();
    let names = ["ops", "posts", "arrivals", "progress_points"];
    for (name, n) in names.into_iter().zip(counts) {
        snap.counters
            .insert(format!("trace_replay_{name}_total"), n);
    }
    snap.hists
        .insert("trace_replay_rank_events".to_string(), rank_events);
    snap
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{replay, ReplayConfig};

    #[test]
    fn replay_counters_accumulate_monotonically() {
        let empty = observability([]);
        assert!(empty.counters.values().all(|&n| n == 0), "{empty:?}");
        assert_eq!(empty.hists["trace_replay_rank_events"].count, 0);

        // The same report twice: every count of the section is the sum over
        // the reports, so adding one never lowers a count and doubles each.
        let report = replay(
            &crate::replay::tests::two_rank_trace(),
            &ReplayConfig::default(),
        );
        let once = observability([&report]);
        let twice = observability([&report, &report]);
        for (name, &n) in &once.counters {
            assert!(n > 0, "{name} counts nothing in one report");
            assert_eq!(twice.counters[name], 2 * n, "{name}");
        }
        let (one, two) = (
            &once.hists["trace_replay_rank_events"],
            &twice.hists["trace_replay_rank_events"],
        );
        assert_eq!((two.count, two.sum), (2 * one.count, 2 * one.sum));
    }
}
