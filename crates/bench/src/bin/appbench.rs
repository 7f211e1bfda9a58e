//! **Fig. 6/7-style application replay** — every Table II app end to end
//! through the full protocol stack.
//!
//! Where `table2_applications` inventories the traces and `fig7_queue_depth`
//! replays them matcher-direct, this harness drives each application's
//! generated trace through the complete production path —
//! `ReliableSender` → (optionally faulty) `RecvNic` with the cross-QP
//! total-order gate → the engine's per-communicator command queues →
//! cross-comm packing → `OtmEngine` → eager/rendezvous payload protocol —
//! via [`dpa_sim::app_replay::replay_app`], and checks the matched pairs
//! against the engine-direct oracle
//! ([`dpa_sim::app_replay::engine_direct_pairs`]). With `--faults` it is
//! the repo's one hostile-wire harness: the same trace over a clean and a
//! seeded faulty wire must give the same matched pairs.
//!
//! Run with: `cargo run --release -p otm-bench --bin appbench`
//!
//! * `--app SUBSTR` — only apps whose name contains SUBSTR (case-insensitive);
//! * `--faults` — add a hostile-wire run (seeded by `--fault-seed`,
//!   default `0xa99`: 10% drop, 8% duplicate, 8% reorder);
//! * `--quick` — skip apps above 256 processes (CI smoke scale);
//! * `--seed N` — trace generator seed (default 42);
//! * `--bins N` — engine/oracle bin count (default 128);
//! * `--out DIR` — write the per-app artifacts under DIR instead of
//!   `target/experiments/` (unlike single-artifact harnesses, `--out`
//!   names a directory here — one file per app is produced).
//!
//! Each app writes `target/experiments/app_replay_<slug>.json`: trace
//! metadata, the engine-direct baseline, one row per run (wire and
//! reliability counters, NC/WC-FP/WC-SP path distribution, retransmit
//! amplification, an embedded queue-depth series for the busiest
//! destination) and the oracle verdict.

use dpa_sim::app_replay::{engine_direct_pairs, replay_app, AppReplayConfig};
use otm_base::FaultPlan;
use otm_bench::{experiments_dir, header, write_json_artifact, write_text_artifact, CommonArgs};
use otm_metrics::json::{JsonWriter, WriteJson};
use otm_metrics::SeriesRecorder;
use std::time::Instant;

/// `appbench`-specific flags layered over [`CommonArgs`] (which ignores
/// unknown tokens).
struct AppArgs {
    common: CommonArgs,
    app_filter: Option<String>,
    seed: u64,
    bins: usize,
}

fn parse_args() -> AppArgs {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    let common = CommonArgs::from_iter(tokens.clone());
    let mut app_filter = None;
    let mut seed = 42u64;
    let mut bins = 128usize;
    let mut it = tokens.into_iter();
    while let Some(tok) = it.next() {
        match tok.as_str() {
            "--app" => app_filter = it.next(),
            "--seed" => seed = it.next().and_then(|v| v.parse().ok()).unwrap_or(seed),
            "--bins" => bins = it.next().and_then(|v| v.parse().ok()).unwrap_or(bins),
            _ => {}
        }
    }
    AppArgs {
        common,
        app_filter,
        seed,
        bins,
    }
}

/// Artifact file stem for an app name: lowercase, non-alphanumerics → `_`.
fn slug(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

fn main() {
    let args = parse_args();
    header("Application replay: Table II end to end through the full stack");
    let plan = args.common.faults.then(|| {
        FaultPlan::new(args.common.fault_seed.unwrap_or(0xa99))
            .with_drop_permille(100)
            .with_duplicate_permille(80)
            .with_reorder_permille(80)
            .with_reorder_window(4)
    });
    println!(
        "{:<18} {:<16} {:>7} {:>9} {:>9} {:>11} {:>8} {:>7}  oracle",
        "application", "run", "msgs", "matched", "rdv", "e2e msg/s", "retx", "parked"
    );

    let mut all_equal = true;
    let mut ran = 0usize;
    for spec in otm_workloads::catalog() {
        if let Some(f) = &args.app_filter {
            if !spec.name.to_lowercase().contains(&f.to_lowercase()) {
                continue;
            }
        }
        if args.common.quick && spec.processes > 256 {
            continue;
        }
        ran += 1;
        let trace = (spec.generate)(args.seed);
        let arrivals: u64 = trace
            .ranks
            .iter()
            .flat_map(|r| r.ops.iter())
            .filter(|op| {
                matches!(
                    op.op,
                    otm_trace::model::MpiOp::Send { .. } | otm_trace::model::MpiOp::Isend { .. }
                )
            })
            .count() as u64;

        // Engine-direct baseline: the same event streams, no wire.
        let t0 = Instant::now();
        let oracle = engine_direct_pairs(&trace, args.bins);
        let direct_secs = t0.elapsed().as_secs_f64();
        let direct_rate = arrivals as f64 / direct_secs.max(f64::EPSILON);

        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("bench", "app_replay");
        w.field_str("app", spec.name);
        w.field_str("slug", &slug(spec.name));
        w.field_u64("processes", spec.processes as u64);
        w.field_u64("seed", args.seed);
        w.field_u64("bins", args.bins as u64);
        w.field_u64("trace_sends", arrivals);
        w.key("engine_direct");
        w.begin_object();
        w.field_f64("elapsed_secs", direct_secs);
        w.field_f64("msgs_per_sec", direct_rate);
        w.field_u64("matched", oracle.len() as u64);
        w.end_object();
        w.key("runs");
        w.begin_array();
        let mut first_series: Option<SeriesRecorder> = None;
        for fault_plan in std::iter::once(None).chain(plan.as_ref().map(Some)) {
            let mut cfg = AppReplayConfig::default()
                .with_bins(args.bins)
                .with_series_cadence((arrivals / 512).max(1));
            if let Some(p) = fault_plan {
                cfg = cfg.with_faults(p.clone());
            }
            let out = replay_app(&trace, &cfg).expect("replay within configured capacity");
            let equal = out.matched_pairs == oracle;
            all_equal &= equal;
            let label = format!(
                "{}{}",
                out.report.mode,
                if fault_plan.is_some() { "+faults" } else { "" }
            );
            println!(
                "{:<18} {:<16} {:>7} {:>9} {:>9} {:>11.0} {:>8} {:>7}  {}",
                spec.name,
                label,
                out.report.messages,
                out.report.completed,
                out.report.rendezvous_messages,
                out.report.msgs_per_sec,
                out.report.retransmits,
                out.report.gate_parked,
                if equal { "ok" } else { "MISMATCH" },
            );
            w.begin_object();
            w.field_bool("oracle_equal", equal);
            w.key("report");
            out.report.write_json(&mut w);
            w.end_object();
            if first_series.is_none() {
                first_series = out.report.series;
            }
        }
        w.end_array();
        w.end_object();

        let path = match &args.common.out {
            Some(dir) => dir.join(format!("app_replay_{}.json", slug(spec.name))),
            None => experiments_dir().join(format!("app_replay_{}.json", slug(spec.name))),
        };
        write_text_artifact(&path, &w.finish());
        println!("  artifact: {}", path.display());
        if let (Some(series_path), Some(series)) = (&args.common.series, &first_series) {
            let p = series_path.with_file_name(format!(
                "{}_{}.json",
                series_path
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_else(|| "series".into()),
                slug(spec.name)
            ));
            write_json_artifact(&p, series);
            println!("  series:   {}", p.display());
        }
    }
    assert!(ran > 0, "no application matched --app filter");
    assert!(
        all_equal,
        "end-to-end matched pairs diverged from the engine-direct oracle"
    );
    println!("\nall runs matched the engine-direct oracle");
}
