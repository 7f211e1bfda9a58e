//! **Table I** — the matching-strategy landscape, operationalized.
//!
//! The paper's Table I surveys the literature's strategies (traditional
//! lists, rank-based, bin-based). This harness runs our implementations of
//! those strategies — plus the optimistic engine at 128 bins — over
//! three adversarial workload shapes and reports the search depths, showing
//! *why* each strategy exists:
//!
//! * many-to-one (Gatherv-style fan-in): rank-based shines, traditional
//!   degrades;
//! * one-sender-many-tags: bin-based shines, rank-based degrades;
//! * wildcard-heavy: everything serializes, as the standard requires.
//!
//! Run with: `cargo run --release -p otm-bench --bin table1_strategies`
//! (`--out PATH` redirects the JSON report).

use mpi_matching::binned::BinnedMatcher;
use mpi_matching::oracle::{MatchEvent, Oracle};
use mpi_matching::rank_based::RankBasedMatcher;
use mpi_matching::traditional::TraditionalMatcher;
use mpi_matching::Matcher;
use otm::SequentialOtm;
use otm_base::{Envelope, MatchConfig, Rank, ReceivePattern, Tag};
use otm_bench::{header, write_report, BenchReport, CommonArgs};
use otm_metrics::json_fields;

fn many_to_one(n: u32) -> Vec<MatchEvent> {
    let mut ev = Vec::new();
    for s in 0..n {
        ev.push(MatchEvent::Post(ReceivePattern::exact(Rank(s), Tag(0))));
    }
    for s in (0..n).rev() {
        ev.push(MatchEvent::Arrive(Envelope::world(Rank(s), Tag(0))));
    }
    ev
}

fn many_tags(n: u32) -> Vec<MatchEvent> {
    let mut ev = Vec::new();
    for t in 0..n {
        ev.push(MatchEvent::Post(ReceivePattern::exact(Rank(0), Tag(t))));
    }
    for t in (0..n).rev() {
        ev.push(MatchEvent::Arrive(Envelope::world(Rank(0), Tag(t))));
    }
    ev
}

fn wildcard_heavy(n: u32) -> Vec<MatchEvent> {
    let mut ev = Vec::new();
    for _ in 0..n {
        ev.push(MatchEvent::Post(ReceivePattern::any_any()));
    }
    for s in 0..n {
        ev.push(MatchEvent::Arrive(Envelope::world(Rank(s % 7), Tag(s % 5))));
    }
    ev
}

struct Row {
    strategy: String,
    workload: &'static str,
    mean_depth: f64,
    max_depth: u64,
}

json_fields!(Row: strategy, workload, mean_depth, max_depth);

fn main() {
    let args = CommonArgs::parse();
    header("Table I (operationalized): matching strategies under adversarial workloads");
    let n = 128u32;
    let workloads: Vec<(&'static str, Vec<MatchEvent>)> = vec![
        ("many-to-one", many_to_one(n)),
        ("many-tags", many_tags(n)),
        ("wildcards", wildcard_heavy(n)),
    ];

    let mut rows: Vec<Row> = Vec::new();
    for (wname, events) in &workloads {
        let expect = Oracle::run(events);
        // Every strategy is constructed and driven uniformly through the
        // sequential `Matcher` trait, one call per event.
        let seq_config = MatchConfig::default().with_bins(128).with_block_threads(1);
        let mut engines: Vec<(String, Box<dyn Matcher>)> = vec![
            (
                "traditional (list)".into(),
                Box::new(TraditionalMatcher::new()),
            ),
            ("rank-based".into(), Box::new(RankBasedMatcher::new())),
            ("bin-based b=128".into(), Box::new(BinnedMatcher::new(128))),
            (
                "optimistic engine".into(),
                Box::new(SequentialOtm::new(seq_config).expect("table1 engine configuration")),
            ),
        ];
        println!("\nworkload: {wname} (n = {n})");
        for (name, engine) in &mut engines {
            let got = Oracle::drive(engine.as_mut(), events).expect("unbounded engines");
            assert_eq!(&got, &expect, "{name} must still be MPI-correct");
            let stats = engine.stats();
            println!(
                "  {name:<22} mean depth {:>8.3} | max depth {:>4}",
                stats.mean_depth(),
                stats.max_depth()
            );
            rows.push(Row {
                strategy: name.clone(),
                workload: wname,
                mean_depth: stats.mean_depth(),
                max_depth: stats.max_depth(),
            });
        }
    }

    println!("\nreading: rank-based flattens many-to-one but degenerates on many-tags;");
    println!("bin-based and the optimistic engine flatten both; wildcards serialize everyone,");
    println!("which is why the MPI hints of §VII matter.");

    let report = BenchReport::new("table1_strategies", false, rows);
    let path = write_report(&args, &report);
    println!("\nJSON artifact: {}", path.display());
}
