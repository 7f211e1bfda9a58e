//! **Figure 7** — queue depth per application at 1, 32 and 128 bins (the
//! paper's artifact sweeps powers of two from 1 to 256; pass `--full` for
//! that range).
//!
//! Regenerates: per-application mean and maximum search depth under the
//! optimistic four-index data-structure organization, the cross-application
//! average (the figure's red line), and the headline reductions. Paper
//! anchors: average 8.21 → 0.80 (32 bins, −90%) → 0.33 (128 bins, −95%);
//! BoxLib CNS max 25 → 3 → 1.
//!
//! Run with: `cargo run --release -p otm-bench --bin fig7_queue_depth`
//! (`--full` sweeps 1..256 bins; `--out PATH` redirects the JSON report).

use otm_bench::{header, write_report, BenchReport, CommonArgs};
use otm_metrics::json_fields;
use otm_trace::replay::AppReport;
use otm_trace::{replay, ReplayConfig};

struct Fig7 {
    bins: Vec<usize>,
    per_app: Vec<Vec<AppReport>>,
    averages: Vec<f64>,
}

json_fields!(Fig7: bins, per_app, averages);

fn main() {
    let args = CommonArgs::parse();
    let bins: Vec<usize> = if args.full {
        vec![1, 2, 4, 8, 16, 32, 64, 128, 256]
    } else {
        vec![1, 32, 128]
    };
    header("Figure 7: queue depth for the different applications");

    let catalog = otm_workloads::catalog();
    let mut per_app: Vec<Vec<AppReport>> = Vec::new();
    for spec in &catalog {
        let trace = (spec.generate)(42);
        let reports: Vec<AppReport> = bins
            .iter()
            .map(|&b| replay(&trace, &ReplayConfig { bins: b }))
            .collect();
        print!("{:<18}", spec.name);
        for r in &reports {
            print!(
                " | b={:<3} mean {:>7.3} max {:>4}",
                r.bins, r.mean_queue_depth, r.max_queue_depth
            );
        }
        println!();
        per_app.push(reports);
    }

    let averages: Vec<f64> = (0..bins.len())
        .map(|i| {
            per_app
                .iter()
                .map(|reports| reports[i].mean_queue_depth)
                .sum::<f64>()
                / catalog.len() as f64
        })
        .collect();
    println!();
    for (i, &b) in bins.iter().enumerate() {
        let reduction = if averages[0] > 0.0 {
            100.0 * (1.0 - averages[i] / averages[0])
        } else {
            0.0
        };
        println!(
            "average queue depth, {b:>3} bins: {:>7.3}   (reduction vs 1 bin: {reduction:>5.1}%)",
            averages[i]
        );
    }
    println!("\npaper anchors: averages 8.21 / 0.80 / 0.33 at 1 / 32 / 128 bins (−90% / −95%);");
    println!("               BoxLib CNS max depth 25 -> 3 -> 1");

    let obs = otm_trace::observability(per_app.iter().flatten());
    let report = BenchReport::with_observability(
        "fig7_queue_depth",
        !args.full,
        Fig7 {
            bins,
            per_app,
            averages,
        },
        Some(obs),
    );
    let path = write_report(&args, &report);
    println!("\nJSON artifact: {}", path.display());
}
