//! **Figure 6** — distribution of MPI call types for the application set.
//!
//! Regenerates: per application, the share of point-to-point, collective
//! and one-sided calls. The paper observes p2p-dominated traffic, exactly
//! three p2p-exclusive applications, two collectives-only applications (the
//! HILO pair) and zero one-sided usage.
//!
//! Run with: `cargo run --release -p otm-bench --bin fig6_call_distribution`
//! (`--out PATH` redirects the JSON report).

use otm_bench::{header, write_report, BenchReport, CommonArgs};
use otm_trace::replay::AppReport;
use otm_trace::report::fig6_row;
use otm_trace::{replay, ReplayConfig};

fn main() {
    let args = CommonArgs::parse();
    header("Figure 6: distribution of MPI calls for the application set");
    let mut reports: Vec<AppReport> = Vec::new();
    for spec in otm_workloads::catalog() {
        let trace = (spec.generate)(42);
        let report = replay(&trace, &ReplayConfig { bins: 32 });
        println!("{}", fig6_row(&report));
        reports.push(report);
    }

    let p2p_only = reports
        .iter()
        .filter(|r| r.call_dist.p2p_fraction() == 1.0)
        .count();
    let coll_only = reports
        .iter()
        .filter(|r| r.call_dist.collective_fraction() == 1.0)
        .count();
    let one_sided: u64 = reports.iter().map(|r| r.call_dist.one_sided).sum();
    println!();
    println!("p2p-exclusive applications:        {p2p_only} (paper: 3)");
    println!("collectives-only applications:     {coll_only} (paper: 2, the HILO pair)");
    println!("one-sided operations anywhere:     {one_sided} (paper: none)");

    // The replay registry carries progress counters for the whole sweep.
    let obs = otm_trace::replay_metrics().snapshot();
    let report =
        BenchReport::with_observability("fig6_call_distribution", false, reports, Some(obs));
    let path = write_report(&args, &report);
    println!("\nJSON artifact: {}", path.display());
}
