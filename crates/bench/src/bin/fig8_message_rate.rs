//! **Figure 8** — single-process message rate for the different matching
//! configurations.
//!
//! Regenerates: the ping-pong benchmark of §VI (k = 100 messages per
//! sequence, 500 repetitions, 1024 in-flight receives, hash tables at twice
//! that, 32 block threads) for the five series of the figure:
//!
//! * `Optimistic-DPA NC` — offloaded engine, no-conflict receives,
//! * `Optimistic-DPA WC-FP` — all-identical receives, fast path on,
//! * `Optimistic-DPA WC-SP` — all-identical receives, fast path off,
//! * `MPI-CPU` — traditional host matching,
//! * `RDMA-CPU` — no matching (transport ceiling).
//!
//! Expected shape (the paper's claim): NC comparable to MPI-CPU, WC-FP and
//! WC-SP lower due to conflict-resolution costs, RDMA-CPU on top. Absolute
//! rates differ from the paper's BlueField-3 testbed — the "DPA" here is a
//! simulated device whose blocks are stepped on the host's thread. Every
//! section runs on one thread, closed-loop (see [`dpa_sim::pingpong`]), so
//! the offloaded series' engine counters are the same on every run. Like
//! the paper, the ping-pong assumes a lossless fabric; the full stack over
//! a hostile wire is `appbench --faults`.
//!
//! The flight recorder rides along on the `Optimistic-DPA NC` series. With
//! `--series PATH` its service is sampled on its poll clock (a
//! deterministic virtual clock), once per `repeats / 32` polls, after a
//! sequence's ack and so outside the timed window; the labeled columnar
//! series (`t`, `queue_depth`, `block_occupancy`, `path_counts`,
//! `matched`, `retransmits`, `fallbacks`) is written to PATH under the
//! section `nc`. With `--spans PATH` (requires building with `--features
//! trace-events`; otherwise a warning), the NC engine's per-message
//! lifecycle span dump is written as `PATH.nc.jsonl` plus a Chrome
//! `trace_event` file `PATH.nc.trace.json` that <https://ui.perfetto.dev>
//! opens directly.
//!
//! Run with: `cargo run --release -p otm-bench --bin fig8_message_rate`
//! (`--quick` shrinks the repeat count for smoke testing; `--messages N`
//! budgets ~N messages per series; `--repeats N` sets the count directly;
//! `--series PATH` / `--spans PATH` capture the flight-recorder artifacts;
//! `--out PATH` redirects the series' JSON report).
//!
//! The JSON report is a [`BenchReport`] of the six series rows whose
//! `observability` object maps each offloaded series label to its merged
//! registry snapshot: the per-path resolution counters (NC / WC-FP /
//! WC-SP), the search-depth and block-latency histogram quantiles, and the
//! dpa-sim queue-depth gauges.

use dpa_sim::{MatchMode, PingPong, PingPongConfig, PingPongResult, Scenario};
use otm_bench::{header, write_json_artifact, write_report, BenchReport, CommonArgs};
#[cfg(feature = "trace-events")]
use otm_bench::{spans_sibling, write_text_artifact};
use otm_metrics::json::{JsonWriter, WriteJson};
use otm_metrics::{json_fields, SeriesRecorder};
use std::collections::BTreeMap;

/// Sequences a Fig. 8 series runs before the next series' turn: well under
/// a millisecond, much shorter than the host's changes of speed, and enough
/// that a turn's first sequence, which follows the other series' work, is
/// one in ten and the median passes over it.
const TURN: usize = 10;

/// The fig8 `results` payload: the per-series rows.
#[derive(Debug)]
struct Fig8Results {
    /// The six ping-pong series.
    series: Vec<PingPongResult>,
    /// Whether this build stamped lifecycle spans (`--features
    /// trace-events`) — compare the NC series' `msgs_per_sec` of a `true`
    /// and a `false` artifact to measure the span layer's overhead.
    trace_events: bool,
}

json_fields!(Fig8Results: series, trace_events);

fn main() {
    let args = CommonArgs::parse();
    let k = 100usize;
    // --messages budgets the total per-series message count (the CI smoke
    // step runs with --messages 1000); otherwise --repeats / --quick.
    let repeats = match args.messages {
        Some(m) => (m as usize / k).max(1),
        None => args.repeats_or(500, 50),
    };
    let quick = repeats < 500;
    header("Figure 8: single-process message rate");
    println!("ping-pong: k={k} msgs/sequence, {repeats} repeats, 1024 in-flight receives\n");

    let runs: Vec<(MatchMode, Scenario)> = vec![
        (
            MatchMode::OptimisticDpa { fast_path: true },
            Scenario::NoConflict,
        ),
        (
            MatchMode::OptimisticDpa { fast_path: true },
            Scenario::WithConflict,
        ),
        (
            MatchMode::OptimisticDpa { fast_path: false },
            Scenario::WithConflict,
        ),
        (MatchMode::MpiCpu, Scenario::NoConflict),
        (MatchMode::MpiCpu, Scenario::WithConflict),
        (MatchMode::RdmaCpu, Scenario::NoConflict),
    ];

    // The series take turns, TURN sequences at a time, so a change in the
    // host's speed over the run moves every series alike.
    let mut pingpongs: Vec<PingPong> = runs
        .iter()
        .map(|&(mode, scenario)| {
            let cfg = PingPongConfig {
                k,
                repeats,
                scenario,
                ..Default::default()
            };
            PingPong::new(mode, &cfg)
        })
        .collect();
    // The flight recorder rides on the first series, Optimistic-DPA NC.
    if args.series.is_some() {
        pingpongs[0].attach_series((repeats as u64 / 32).max(1));
    }
    for turn in (0..repeats).step_by(TURN) {
        for pingpong in &mut pingpongs {
            pingpong.sequences(TURN.min(repeats - turn));
        }
    }
    let mut results: Vec<PingPongResult> = Vec::new();
    let mut observability = BTreeMap::new();
    record_flight(&args, &mut pingpongs[0]);
    for (pingpong, (mode, scenario)) in pingpongs.into_iter().zip(runs) {
        let mut result = pingpong.finish();
        // The CPU baseline behaves identically in both scenarios; tag its
        // rows so the printed table and the JSON artifact agree.
        if matches!(mode, MatchMode::MpiCpu) {
            result.label = match scenario {
                Scenario::NoConflict => "MPI-CPU (NC receives)".to_string(),
                Scenario::WithConflict => "MPI-CPU (WC receives)".to_string(),
            };
        }
        // The run's registry snapshot moves out of the row and into the
        // report-level observability map.
        if let Some(snapshot) = result.observability_json.take() {
            observability.insert(result.label.clone(), snapshot);
        }
        print_result(&result);
        results.push(result);
    }

    // Shape checks mirrored from the paper's discussion of Fig. 8.
    let rate = |label: &str| {
        results
            .iter()
            .find(|r| r.label.starts_with(label))
            .map(|r| r.msgs_per_sec)
            .unwrap_or(0.0)
    };
    let nc = rate("Optimistic-DPA NC");
    let fp = rate("Optimistic-DPA WC-FP");
    let sp = rate("Optimistic-DPA WC-SP");
    let rdma = rate("RDMA-CPU");
    println!();
    println!(
        "shape: RDMA-CPU ceiling > others: {}",
        rdma >= nc.max(fp).max(sp) * 0.9
    );
    println!(
        "shape: conflicts cost throughput (NC > WC): {}",
        nc > fp.min(sp)
    );
    let report = BenchReport::with_observability(
        "fig8_message_rate",
        quick,
        Fig8Results {
            series: results,
            trace_events: cfg!(feature = "trace-events"),
        },
        Some(observability),
    );
    let path = write_report(&args, &report);
    println!("JSON artifact: {}", path.display());
}

/// The `--series` artifact, the NC series' service series:
/// `{"bench":"fig8_series","sections":{"nc":<columnar series>}}`.
struct SeriesArtifact<'a>(&'a SeriesRecorder);

impl WriteJson for SeriesArtifact<'_> {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_str("bench", "fig8_series");
        w.key("sections");
        w.begin_object();
        w.key("nc");
        self.0.write_json(w);
        w.end_object();
        w.end_object();
    }
}

/// The flight recorder of the NC series: its `--series` artifact, with its
/// shape check, and its `--spans` dump.
fn record_flight(args: &CommonArgs, nc: &mut PingPong) {
    if let (Some(path), Some(series)) = (&args.series, nc.finish_series()) {
        let path = write_json_artifact(path, &SeriesArtifact(&series));
        println!(
            "shape: series terminal points self-consistent (Σ path == matched, t monotone): {}",
            series_consistent(&series)
        );
        println!("flight-recorder series artifact: {}", path.display());
    }
    #[cfg(feature = "trace-events")]
    if let Some(stem) = &args.spans {
        write_spans(stem, "nc", nc.span_recorder());
    }
    #[cfg(not(feature = "trace-events"))]
    if args.spans.is_some() {
        println!("WARNING: --spans requires building with --features trace-events; skipped");
    }
}

/// Self-consistency shape check for the service series: the terminal
/// point's per-path counts must sum to its matched total (the invariant
/// `otm_matched_total == Σ otm_resolutions_total{path}` carried into the
/// artifact), and `t` must be strictly increasing.
fn series_consistent(s: &SeriesRecorder) -> bool {
    let monotone = s.points().windows(2).all(|w| w[0].t < w[1].t);
    let terminal_ok = match s.last() {
        Some(p) => p.path_counts.iter().sum::<u64>() == p.matched,
        None => true,
    };
    monotone && terminal_ok
}

/// Writes one section's span dump next to the `--spans` stem (JSONL +
/// Chrome `trace_event`) and prints a summary line with the per-path
/// post→match latency means.
#[cfg(feature = "trace-events")]
fn write_spans(stem: &std::path::Path, section: &str, spans: &otm_metrics::SpanRecorder) {
    let (events, dropped) = (spans.dump(), spans.dropped());
    let jsonl = spans_sibling(stem, section, "jsonl");
    write_text_artifact(&jsonl, &otm_metrics::spans_to_jsonl(&events));
    let chrome = spans_sibling(stem, section, "trace.json");
    write_text_artifact(&chrome, &otm_metrics::spans_to_chrome_trace(&events));
    let hists = otm_metrics::latency_by_path(&events);
    let lat: Vec<String> = otm_metrics::MATCH_PATHS
        .iter()
        .zip(&hists)
        .filter(|(_, h)| h.count > 0)
        .map(|(p, h)| {
            format!(
                "{} n={} mean={}ns",
                p.label(),
                h.count,
                h.sum / h.count.max(1)
            )
        })
        .collect();
    println!(
        "span dump [{section}]: {} events ({dropped} dropped) -> {} / {}   [{}]",
        events.len(),
        jsonl.display(),
        chrome.display(),
        lat.join(", ")
    );
}

fn print_result(result: &PingPongResult) {
    print!("{:<32} {:>12.0} msgs/s", result.label, result.msgs_per_sec);
    if let Some(stats) = &result.engine_stats {
        print!(
            "   [optimistic-ok {} | fast-path {} | slow-path {}]",
            stats.optimistic_ok, stats.fast_path, stats.slow_path
        );
    }
    println!();
}
