//! fig6's and fig7's `observability` section: the five `trace_replay_*`
//! values of a two-app replay are what the apps' `AppReport`s count.

use otm_metrics::RegistrySnapshot;
use otm_trace::replay::AppReport;
use otm_trace::{replay, ReplayConfig};

/// Replays `apps` from the catalog at 32 bins, as fig6 does, and returns
/// the reports with the section fig6 writes for them.
fn replayed(apps: &[&str]) -> (Vec<AppReport>, RegistrySnapshot) {
    let reports: Vec<AppReport> = otm_workloads::catalog()
        .into_iter()
        .filter(|spec| apps.contains(&spec.name))
        .map(|spec| replay(&(spec.generate)(42), &ReplayConfig { bins: 32 }))
        .collect();
    let snap = otm_trace::observability(&reports);
    (reports, snap)
}

#[test]
fn the_replay_section_is_what_the_reports_count() {
    let (reports, snap) = replayed(&["AMG", "LULESH"]);
    assert_eq!(reports.len(), 2);
    let sum = |f: fn(&AppReport) -> u64| reports.iter().map(f).sum::<u64>();
    let ops = sum(|r| {
        let d = r.call_dist;
        d.p2p + d.collective + d.one_sided + d.progress
    });
    let posts = sum(|r| r.match_stats.matched_on_post + r.match_stats.posted);
    let arrivals = sum(|r| r.call_dist.p2p) - posts;
    let delivered = sum(|r| r.match_stats.matched_on_arrival + r.match_stats.unexpected);
    let progress = sum(|r| r.call_dist.progress);
    assert_eq!(progress, sum(|r| r.datapoints as u64));
    let counter = |name: &str| snap.counters[name];
    let rank_events = &snap.hists["trace_replay_rank_events"];
    let buckets: Vec<(usize, u64)> = (rank_events.buckets.iter().enumerate())
        .filter(|&(_, &n)| n != 0)
        .map(|(i, &n)| (i, n))
        .collect();
    assert_eq!(
        ["ops", "posts", "arrivals", "progress_points"]
            .map(|name| counter(&format!("trace_replay_{name}_total"))),
        [81_844, 40_344, 40_344, 596]
    );
    assert_eq!((rank_events.count, rank_events.sum), (72, 81_284));
    assert_eq!(buckets, [(7, 4), (8, 4), (11, 64)]);
    assert_eq!(counter("trace_replay_ops_total"), ops);
    assert_eq!(counter("trace_replay_posts_total"), posts);
    assert_eq!(counter("trace_replay_arrivals_total"), arrivals);
    assert_eq!(counter("trace_replay_progress_points_total"), progress);
    assert_eq!(rank_events.sum, posts + delivered + progress);
}
