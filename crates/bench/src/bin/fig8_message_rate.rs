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
//! A seventh section compares the drain's block-packing policies under
//! *mixed* traffic: each of four communicators' command streams
//! interleaves posts into its arrivals (`--post-mix` percent posts, default
//! 30), submitted in bursts of eight commands, round-robin across the
//! communicators, with one drain per round. The same workload is drained
//! once per policy (`--packing` restricts to one). Under the consecutive
//! policy every interleaved post cuts the arrival block short; the
//! cross-communicator scheduler hoists posts and refills blocks from the
//! other lanes' FIFO heads, so blocks stay full. The rows report blocks
//! executed and mean block occupancy next to throughput; they and each
//! engine's registry snapshot are written to `fig8_mixed.json`.
//!
//! With `--tenants N`, an eighth section promotes the service into a matchd
//! server and runs N tenant sessions against it for the same message
//! budget: each tenant submits (post, self-send) pairs per deterministic
//! tick, with `--flood-tenant I` turning tenant I into a flooder that
//! pushes far past its bounded ingress. The rows put each tenant's
//! admission counters (admitted / backpressured) next to its completed
//! throughput and, for well-behaved tenants, the fraction of their *solo*
//! throughput retained under contention — the fair-drain headline. The
//! rows and the server's registry snapshot are written to
//! `fig8_tenants.json` (with the per-tenant series sections embedded when
//! `--series` is also given).
//!
//! With `--series PATH`, the flight recorder's rolling time-series sampler
//! rides along on the mixed section: each policy's drain is sampled once
//! per drain round (a deterministic virtual clock), and the labeled
//! columnar series land in one JSON artifact at PATH (schema per section:
//! `t`, `queue_depth`, `block_occupancy`, `path_counts`, `matched`,
//! `retransmits`, `fallbacks`). With `--spans PATH` (requires building with
//! `--features trace-events`; otherwise a warning), each policy's
//! per-message lifecycle span dump is written as `PATH.<section>.jsonl`
//! plus a Chrome `trace_event` file `PATH.<section>.trace.json` that
//! <https://ui.perfetto.dev> opens directly.
//!
//! Run with: `cargo run --release -p otm-bench --bin fig8_message_rate`
//! (`--quick` shrinks the repeat count for smoke testing; `--messages N`
//! budgets ~N messages per series; `--repeats N` sets the count directly;
//! `--packing P` / `--post-mix PCT` steer the mixed-traffic comparison;
//! `--series PATH` / `--spans PATH` capture the flight-recorder artifacts;
//! `--out PATH` redirects the JSON report).
//!
//! The JSON report is a [`BenchReport`] of the six series rows whose
//! `observability` object maps each offloaded series label to its merged
//! registry snapshot: the per-path resolution counters (NC / WC-FP /
//! WC-SP), the search-depth and block-latency histogram quantiles, and the
//! dpa-sim queue-depth gauges.

use dpa_sim::{
    Admission, MatchMode, MatchServer, MatchdConfig, PingPong, PingPongConfig, PingPongResult,
    Scenario, TenantConfig, TenantSession,
};
use mpi_matching::{MsgHandle, RecvHandle};
use otm::{Command, OtmEngine};
use otm_base::{
    CommId, Envelope, MatchConfig, MatchError, PackingPolicy, Rank, ReceivePattern, Tag,
};
use otm_bench::{
    experiments_dir, header, write_json_artifact, write_report, BenchReport, CommonArgs,
};
#[cfg(feature = "trace-events")]
use otm_bench::{spans_sibling, write_text_artifact};
use otm_metrics::json::{JsonWriter, WriteJson};
use otm_metrics::{json_fields, RegistrySnapshot, SeriesRecorder};
use std::collections::BTreeMap;
use std::time::Instant;

/// Sequences a Fig. 8 series runs before the next series' turn: well under
/// a millisecond, much shorter than the host's changes of speed, and enough
/// that a turn's first sequence, which follows the other series' work, is
/// one in ten and the median passes over it.
const TURN: usize = 10;

/// What [`MatchServer::finish_series`] hands back: the global series and
/// one section per tenant.
type TenantSeries = (SeriesRecorder, Vec<(String, SeriesRecorder)>);

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

/// One packing policy's run of the mixed-traffic drain comparison: the same
/// interleaved post/arrival workload, drained under `packing`.
#[derive(Debug, Clone)]
struct MixedRow {
    /// The drain packing policy (`consecutive` or `cross-comm`).
    packing: String,
    /// Percentage of posts interleaved into each communicator's stream.
    post_mix_pct: u32,
    /// Communicator lanes interleaved (always [`MIXED_LANES`]).
    shards: usize,
    /// Arrival commands drained (every one produces a delivery).
    messages: u64,
    /// Post commands drained.
    posts: u64,
    /// Wall-clock for the whole run (submissions and drains).
    elapsed_secs: f64,
    /// Deliveries per second over the wall-clock above.
    msgs_per_sec: f64,
    /// Parallel matching blocks the drain executed.
    blocks_executed: u64,
    /// Mean arrivals per block (`messages / blocks_executed`) — the number
    /// the packing policy exists to maximize.
    mean_block_occupancy: f64,
}

// The row as it appears in `fig8_mixed.json`.
json_fields!(MixedRow: packing, post_mix_pct, shards, messages, posts, elapsed_secs, msgs_per_sec,
    blocks_executed, mean_block_occupancy);

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
    for turn in (0..repeats).step_by(TURN) {
        for pingpong in &mut pingpongs {
            pingpong.sequences(TURN.min(repeats - turn));
        }
    }
    let mut results: Vec<PingPongResult> = Vec::new();
    let mut observability = BTreeMap::new();
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

    let mixed = run_mixed(&args, k * repeats);
    let occupancy = |name: &str| {
        mixed
            .iter()
            .find(|(r, _)| r.packing == name)
            .map(|(r, _)| r.mean_block_occupancy)
    };
    if let (Some(consec), Some(cross)) = (occupancy("consecutive"), occupancy("cross-comm")) {
        println!(
            "shape: cross-comm packing refills blocks posts cut short: {}",
            cross >= 2.0 * consec
        );
    }
    let path = write_json_artifact(
        &experiments_dir().join("fig8_mixed.json"),
        &MixedArtifact(&mixed),
    );
    println!("mixed-traffic artifact: {}", path.display());

    if let Some(tenants) = run_tenants(&args, k * repeats) {
        let path = write_json_artifact(&experiments_dir().join("fig8_tenants.json"), &tenants);
        println!("tenants artifact: {}", path.display());
    }
}

/// Communicator lanes of the mixed-traffic comparison.
const MIXED_LANES: usize = 4;

/// Commands one lane submits before the next lane's turn.
const MIXED_BURST: usize = 8;

/// True when command `i` of a lane's stream is a post under a `pct`-percent
/// mix: posts are spread uniformly through the stream (Bresenham-style), so
/// under the consecutive policy every post cuts an arrival run short.
fn is_post(i: usize, pct: u32) -> bool {
    let (i, pct) = (i as u64, pct as u64);
    (i + 1) * pct / 100 > i * pct / 100
}

/// Command `i` of `lane`'s stream of `per_lane` under a `pct`-percent mix.
/// Post j and arrival j of a lane share a unique tag, so every command
/// applies whichever side lands first (PRQ hit or UMQ hit) and the tables
/// never overflow. `i * pct / 100` posts come before command `i`.
fn mixed_command(lane: usize, per_lane: usize, i: usize, pct: u32) -> Command {
    let comm = CommId(lane as u16 + 1);
    let base = (lane * per_lane) as u64;
    let posts_before = (i as u64 * pct as u64 / 100) as u32;
    if is_post(i, pct) {
        Command::Post {
            pattern: ReceivePattern::new(Rank(0), Tag(posts_before), comm),
            handle: RecvHandle(base + posts_before as u64),
        }
    } else {
        let j = i as u32 - posts_before;
        Command::Arrival {
            env: Envelope::new(Rank(0), Tag(j), comm),
            msg: MsgHandle(base + j as u64),
        }
    }
}

/// Drives the drain's packing-policy comparison on one thread:
/// [`MIXED_LANES`] communicators' streams (`--post-mix` percent posts each,
/// spread uniformly) are submitted in bursts of [`MIXED_BURST`] commands,
/// round-robin across the lanes, with one drain per round. The same
/// deterministic workload is replayed once per packing policy so the only
/// variable is how the drain packs blocks. The flight recorder's
/// artifacts (`--series`, `--spans`) are this section's and are written
/// here.
fn run_mixed(args: &CommonArgs, budget: usize) -> Vec<(MixedRow, RegistrySnapshot)> {
    let post_mix = args.post_mix.unwrap_or(30).min(90);
    let per_lane = (budget / MIXED_LANES).max(1);
    let total = per_lane * MIXED_LANES;
    let posts_per_lane = (0..per_lane).filter(|&i| is_post(i, post_mix)).count();
    let arrivals_per_lane = per_lane - posts_per_lane;

    let policies: Vec<(PackingPolicy, &str)> = match args.packing.as_deref() {
        Some("consecutive") => vec![(PackingPolicy::Consecutive, "consecutive")],
        Some("cross-comm") => vec![(PackingPolicy::CrossComm, "cross-comm")],
        _ => vec![
            (PackingPolicy::Consecutive, "consecutive"),
            (PackingPolicy::CrossComm, "cross-comm"),
        ],
    };

    println!(
        "\nMixed-traffic packing: {MIXED_LANES} lanes x {per_lane} cmds, {post_mix}% posts, \
         bursts of {MIXED_BURST}"
    );
    #[cfg(not(feature = "trace-events"))]
    if args.spans.is_some() {
        println!(
            "WARNING: --spans requires building with --features trace-events; \
             span dump skipped"
        );
    }

    let mut rows = Vec::new();
    let mut sections = Vec::new();
    for (policy, name) in policies {
        let config = MatchConfig::default()
            .with_max_receives((posts_per_lane * MIXED_LANES).max(1))
            .with_max_unexpected((arrivals_per_lane * MIXED_LANES).max(1))
            .with_bins((2 * total).next_power_of_two());
        let mut engine = OtmEngine::new(config).expect("mixed bench configuration");
        engine.set_packing(policy);

        // The flight recorder's virtual clock for this section is the
        // drained-command count, and queue depth is the pending-work
        // backlog (commands of the budget not yet applied).
        let mut series = args
            .series
            .as_ref()
            .map(|_| SeriesRecorder::new((total as u64 / 128).max(1)));
        let mut drained = 0usize;
        let drain =
            |engine: &mut OtmEngine, series: &mut Option<SeriesRecorder>, drained: &mut usize| {
                let report = engine.drain();
                if let Some(e) = report.error {
                    return Err(e.to_string());
                }
                *drained += report.outcomes.len();
                if let Some(s) = series.as_mut() {
                    let t = *drained as u64;
                    if s.due(t) {
                        s.sample(t, (total - *drained) as u64, &engine.metrics_snapshot());
                    }
                }
                Ok(())
            };
        let mut error: Option<String> = None;
        let mut next = 0usize;
        let start = Instant::now();
        'rounds: while drained < total {
            let burst = next..(next + MIXED_BURST).min(per_lane);
            next = burst.end;
            for lane in 0..MIXED_LANES {
                for i in burst.clone() {
                    let cmd = mixed_command(lane, per_lane, i, post_mix);
                    // A full submission ring is backpressure: the drain
                    // frees its slots, then the same command goes again.
                    while let Err(e) = engine.submit(cmd) {
                        assert!(
                            matches!(e, MatchError::SubmissionRingFull { .. }),
                            "engine running: {e}"
                        );
                        if let Err(e) = drain(&mut engine, &mut series, &mut drained) {
                            error = Some(e);
                            break 'rounds;
                        }
                    }
                }
            }
            if let Err(e) = drain(&mut engine, &mut series, &mut drained) {
                error = Some(e);
                break;
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        if let Some(mut s) = series.take() {
            s.force_sample(
                drained as u64,
                (total - drained) as u64,
                &engine.metrics_snapshot(),
            );
            sections.push((format!("mixed {name}"), s));
        }
        #[cfg(feature = "trace-events")]
        if let Some(stem) = &args.spans {
            write_spans(stem, &format!("mixed-{name}"), engine.span_recorder());
        }

        let stats = engine.stats();
        let messages = (arrivals_per_lane * MIXED_LANES) as u64;
        let row = MixedRow {
            packing: name.to_string(),
            post_mix_pct: post_mix,
            shards: MIXED_LANES,
            messages,
            posts: (posts_per_lane * MIXED_LANES) as u64,
            elapsed_secs: elapsed,
            msgs_per_sec: messages as f64 / elapsed.max(f64::EPSILON),
            blocks_executed: stats.blocks,
            mean_block_occupancy: stats.messages as f64 / (stats.blocks as f64).max(1.0),
        };
        println!(
            "  {:<12} {:>12.0} msgs/s   blocks {:>8}   mean occupancy {:>6.2}",
            row.packing, row.msgs_per_sec, row.blocks_executed, row.mean_block_occupancy
        );
        if let Some(e) = error {
            println!("  WARNING: {name} drain stopped early: {e}");
        }
        rows.push((row, engine.metrics_snapshot()));
    }
    if let Some(path) = &args.series {
        let path = write_json_artifact(path, &SeriesArtifact(&sections));
        println!(
            "shape: series terminal points self-consistent (Σ path == matched, t monotone): {}",
            series_consistent(&sections)
        );
        println!("flight-recorder series artifact: {}", path.display());
    }
    rows
}

/// The standalone `fig8_mixed.json`: the rows plus each engine's registry
/// snapshot, keyed by packing policy.
struct MixedArtifact<'a>(&'a [(MixedRow, RegistrySnapshot)]);

impl WriteJson for MixedArtifact<'_> {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_str("bench", "fig8_mixed");
        w.key("rows");
        w.begin_array();
        for (row, _) in self.0 {
            row.write_json(w);
        }
        w.end_array();
        w.key("observability");
        w.begin_object();
        for (row, snapshot) in self.0 {
            w.key(&row.packing);
            snapshot.write_json(w);
        }
        w.end_object();
        w.end_object();
    }
}

/// The `--series` artifact:
/// `{"bench":"fig8_series","sections":{<label>:<columnar series>}}`.
struct SeriesArtifact<'a>(&'a [(String, SeriesRecorder)]);

impl WriteJson for SeriesArtifact<'_> {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_str("bench", "fig8_series");
        w.key("sections");
        w.begin_object();
        for (label, series) in self.0 {
            w.key(label);
            series.write_json(w);
        }
        w.end_object();
        w.end_object();
    }
}

/// Self-consistency shape check for every recorded series: the terminal
/// point's per-path counts must sum to its matched total (the invariant
/// `otm_matched_total == Σ otm_resolutions_total{path}` carried into the
/// artifact), and `t` must be strictly increasing.
fn series_consistent(sections: &[(String, SeriesRecorder)]) -> bool {
    sections.iter().all(|(_, s)| {
        let monotone = s.points().windows(2).all(|w| w[0].t < w[1].t);
        let terminal_ok = match s.last() {
            Some(p) => p.path_counts.iter().sum::<u64>() == p.matched,
            None => true,
        };
        monotone && terminal_ok
    })
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

/// One tenant's row of the `--tenants` fairness sweep.
#[derive(Debug, Clone)]
struct TenantRow {
    /// The tenant's id (open order on the server).
    tenant: u16,
    /// `flooder` or `well-behaved`.
    role: String,
    /// Submission attempts the harness made for this tenant (pairs).
    attempted_pairs: u64,
    /// Requests the session admitted into its ingress.
    admitted: u64,
    /// Submissions answered with `Admission::Backpressured`.
    backpressured: u64,
    /// Requests the fair drain moved into the engine.
    drained: u64,
    /// Receives completed and delivered back to the session.
    completed: u64,
    /// Completions of the identical workload running alone on its own
    /// server for the same tick count (`None` for the flooder).
    solo_completed: Option<u64>,
    /// `completed / solo_completed` — the fairness headline (`None` for
    /// the flooder).
    retained: Option<f64>,
    /// Completed receives per wall-clock second of the contended run.
    msgs_per_sec: f64,
}

// The row as it appears in `fig8_tenants.json`.
json_fields!(TenantRow: tenant, role, attempted_pairs, admitted, backpressured, drained, completed,
    solo_completed, retained, msgs_per_sec);

/// The `--tenants` sweep as `fig8_tenants.json`: knobs, per-tenant rows,
/// the two fairness verdicts the paper-style shape checks assert, the
/// server's registry snapshot and, when `--series` sampled them, the global
/// and per-tenant series sections.
#[derive(Debug)]
struct TenantsSweep {
    /// Tenant sessions on the shared server.
    tenants: usize,
    /// Index of the flooding tenant (`--flood-tenant`), if any.
    flood_tenant: Option<usize>,
    /// Scheduling rounds the contended (and each solo) run executed.
    ticks: u64,
    /// (post, self-send) pairs each well-behaved tenant submits per tick.
    pairs_per_tick: usize,
    /// Pairs the flooder attempts per tick.
    flood_pairs_per_tick: usize,
    /// Well-behaved ingress bound / DRR quantum.
    capacity: usize,
    /// Well-behaved DRR quantum.
    quantum: usize,
    /// Flooder ingress bound.
    flood_capacity: usize,
    /// Flooder DRR quantum.
    flood_quantum: usize,
    /// Deficit cap, in quanta.
    deficit_cap_quanta: u64,
    /// True when the flooder was answered with backpressure at admission.
    flooder_backpressured: bool,
    /// True when every well-behaved tenant kept at least half of its solo
    /// throughput at the same virtual time.
    fairness_retained: bool,
    /// One row per tenant.
    rows: Vec<TenantRow>,
    /// The contended server's registry snapshot.
    observability: RegistrySnapshot,
    /// The global and per-tenant series (`--series`).
    series: Option<TenantSeries>,
}

impl WriteJson for TenantsSweep {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_str("bench", "fig8_tenants");
        json_fields!(w, self; tenants, flood_tenant, ticks, pairs_per_tick, flood_pairs_per_tick,
            capacity, quantum, flood_capacity, flood_quantum, deficit_cap_quanta,
            flooder_backpressured, fairness_retained, rows, observability);
        if let Some((global, tenants)) = &self.series {
            w.key("series");
            otm_metrics::write_tenant_sections(w, global, tenants);
        }
        w.end_object();
    }
}

/// Knobs of one tenants-sweep run, shared by the solo baseline and the
/// contended run so the comparison is apples to apples.
struct TenantBenchPlan {
    ticks: u64,
    pairs_per_tick: usize,
    flood_pairs_per_tick: usize,
    well: TenantConfig,
    flood: TenantConfig,
    matchd: MatchdConfig,
}

/// An engine sized so only admission — never table pressure — shapes the
/// tenants sweep, with cross-communicator packing and a per-lane quota so
/// both fairness layers (DRR at ingress, lane quota inside the drain) are
/// on the measured path.
fn tenants_match_config() -> MatchConfig {
    MatchConfig::default()
        .with_block_threads(4)
        .with_max_receives(1 << 15)
        .with_max_unexpected(1 << 15)
        .with_bins(1024)
        .with_lane_quota(Some(8))
}

/// Submits up to `pairs` (post, self-send) pairs on the session's
/// communicator and returns how many were attempted (backpressure refusals
/// are counted by the session itself).
fn submit_tenant_pairs(session: &TenantSession, pairs: usize, round: u64) -> u64 {
    let src = Rank(session.tenant().0 as u32);
    let comm = session.comm().expect("bench tenants are pinned");
    for i in 0..pairs {
        let tag = Tag((round as u32).wrapping_mul(31).wrapping_add(i as u32) % 61);
        match session.submit_post(ReceivePattern::new(src, tag, comm)) {
            Admission::Admitted(_) => {}
            // A refused post never sends: pairs stay matched 1:1 and the
            // ingress pressure shows up in the admission counters.
            _ => continue,
        }
        // The send half may hit the bound the post just squeezed under; the
        // orphaned post then waits for a later round's duplicate tag.
        let _ = session.submit_send(tag, vec![(i % 251) as u8]);
    }
    pairs as u64
}

/// The well-behaved workload running alone on its own server: the
/// throughput baseline the contended run is measured against.
fn tenant_solo_baseline(plan: &TenantBenchPlan) -> u64 {
    let mut server =
        MatchServer::new(tenants_match_config(), plan.matchd).expect("standalone matchd server");
    let session = server.open_tenant_with(TenantConfig {
        comm: Some(CommId(1)),
        ..plan.well
    });
    for round in 0..plan.ticks {
        submit_tenant_pairs(&session, plan.pairs_per_tick, round);
        server.tick().expect("solo tick");
    }
    session.stats().completed
}

/// Runs the `--tenants` sweep: a solo baseline, then N tenant sessions on
/// one matchd server — one of them (`--flood-tenant`) flooding far past its
/// ingress bound — for the same tick count.
fn run_tenants(args: &CommonArgs, budget: usize) -> Option<TenantsSweep> {
    let tenants = args.tenants?.max(2);
    let flood_tenant = args.flood_tenant.filter(|&i| i < tenants);
    let pairs_per_tick = 8usize;
    let plan = TenantBenchPlan {
        ticks: (budget / (pairs_per_tick * tenants)).clamp(40, 500) as u64,
        pairs_per_tick,
        flood_pairs_per_tick: 200,
        well: TenantConfig {
            capacity: 1024,
            quantum: 64,
            comm: None,
        },
        flood: TenantConfig {
            capacity: 64,
            quantum: 16,
            comm: None,
        },
        matchd: MatchdConfig {
            tenant: TenantConfig::default(),
            deficit_cap_quanta: 4,
        },
    };
    println!(
        "\nMulti-tenant matchd: {tenants} tenants x {} ticks, {} pairs/tick each{}",
        plan.ticks,
        plan.pairs_per_tick,
        match flood_tenant {
            Some(i) => format!(
                ", tenant {i} flooding {} pairs/tick through a {}-slot ingress",
                plan.flood_pairs_per_tick, plan.flood.capacity
            ),
            None => String::new(),
        }
    );

    let solo = tenant_solo_baseline(&plan);

    let mut server =
        MatchServer::new(tenants_match_config(), plan.matchd).expect("standalone matchd server");
    if args.series.is_some() {
        server.attach_series((plan.ticks / 64).max(1));
    }
    let sessions: Vec<TenantSession> = (0..tenants)
        .map(|i| {
            let knobs = if flood_tenant == Some(i) {
                plan.flood
            } else {
                plan.well
            };
            server.open_tenant_with(TenantConfig {
                comm: Some(CommId(i as u16 + 1)),
                ..knobs
            })
        })
        .collect();

    let mut attempted = vec![0u64; tenants];
    let start = Instant::now();
    for round in 0..plan.ticks {
        for (i, session) in sessions.iter().enumerate() {
            let pairs = if flood_tenant == Some(i) {
                plan.flood_pairs_per_tick
            } else {
                plan.pairs_per_tick
            };
            attempted[i] += submit_tenant_pairs(session, pairs, round);
        }
        server.tick().expect("contended tick");
    }
    let elapsed = start.elapsed().as_secs_f64();

    let rows: Vec<TenantRow> = sessions
        .iter()
        .enumerate()
        .map(|(i, session)| {
            let stats = session.stats();
            let flooding = flood_tenant == Some(i);
            TenantRow {
                tenant: session.tenant().0,
                role: if flooding { "flooder" } else { "well-behaved" }.to_string(),
                attempted_pairs: attempted[i],
                admitted: stats.admitted,
                backpressured: stats.backpressured,
                drained: stats.drained,
                completed: stats.completed,
                solo_completed: (!flooding).then_some(solo),
                retained: (!flooding).then(|| stats.completed as f64 / (solo as f64).max(1.0)),
                msgs_per_sec: stats.completed as f64 / elapsed.max(f64::EPSILON),
            }
        })
        .collect();
    for row in &rows {
        println!(
            "  tenant {:<2} {:<13} {:>12.0} msgs/s   admitted {:>7}  backpressured {:>7}  \
             completed {:>7}{}",
            row.tenant,
            row.role,
            row.msgs_per_sec,
            row.admitted,
            row.backpressured,
            row.completed,
            match row.retained {
                Some(r) => format!("  retained {:.0}% of solo", r * 100.0),
                None => String::new(),
            }
        );
    }

    let flooder_backpressured = flood_tenant.is_none()
        || rows
            .iter()
            .any(|r| r.role == "flooder" && r.backpressured > 0);
    let fairness_retained = rows
        .iter()
        .filter_map(|r| r.retained)
        .all(|r| 2.0 * r >= 1.0);
    println!("shape: flooder answered with backpressure: {flooder_backpressured}");
    println!("shape: well-behaved tenants retained >= 50% of solo: {fairness_retained}");

    Some(TenantsSweep {
        tenants,
        flood_tenant,
        ticks: plan.ticks,
        pairs_per_tick: plan.pairs_per_tick,
        flood_pairs_per_tick: plan.flood_pairs_per_tick,
        capacity: plan.well.capacity,
        quantum: plan.well.quantum,
        flood_capacity: plan.flood.capacity,
        flood_quantum: plan.flood.quantum,
        deficit_cap_quanta: plan.matchd.deficit_cap_quanta,
        flooder_backpressured,
        fairness_retained,
        rows,
        observability: server.service().observability_snapshot(),
        series: server.finish_series(),
    })
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

/// One literal-string golden per row kind, so key names and order cannot
/// drift from the committed `experiments/fig8_*.json`.
#[cfg(test)]
mod tests {
    use super::*;

    fn render(v: &impl WriteJson) -> String {
        let mut w = JsonWriter::new();
        v.write_json(&mut w);
        w.finish()
    }

    fn mixed_row() -> MixedRow {
        MixedRow {
            packing: "cross-comm".to_string(),
            post_mix_pct: 30,
            shards: 4,
            messages: 700,
            posts: 300,
            elapsed_secs: 0.5,
            msgs_per_sec: 1400.0,
            blocks_executed: 25,
            mean_block_occupancy: 28.0,
        }
    }

    const MIXED_ROW: &str = concat!(
        r#"{"packing":"cross-comm","post_mix_pct":30,"shards":4,"#,
        r#""messages":700,"posts":300,"elapsed_secs":0.5,"msgs_per_sec":1400,"#,
        r#""blocks_executed":25,"mean_block_occupancy":28}"#
    );

    #[test]
    fn mixed_row_and_its_standalone_artifact() {
        assert_eq!(render(&mixed_row()), MIXED_ROW);
        let rows = [(mixed_row(), RegistrySnapshot::default())];
        assert_eq!(
            render(&MixedArtifact(&rows)),
            format!(
                "{{\"bench\":\"fig8_mixed\",\"rows\":[{MIXED_ROW}],\"observability\":\
                 {{\"cross-comm\":{{\"counters\":{{}},\"gauges\":{{}},\"histograms\":{{}}}}}}}}"
            )
        );
    }

    /// The mixed section at CI's smoke budget (`--messages 2000`): on one
    /// thread its blocks are a function of the workload and the packer.
    /// Literals recorded from the first one-thread run.
    #[test]
    fn mixed_rows_are_exact() {
        let rows = run_mixed(&CommonArgs::default(), 2000);
        let rows: Vec<_> = rows
            .iter()
            .map(|(r, _)| {
                let counts = (r.messages, r.posts, r.blocks_executed);
                (r.packing.as_str(), counts, r.mean_block_occupancy)
            })
            .collect();
        assert_eq!(
            rows,
            [
                ("consecutive", (1400, 600, 586), 1400.0 / 586.0),
                ("cross-comm", (1400, 600, 175), 8.0),
            ]
        );
    }

    #[test]
    fn tenants_sweep_in_the_report_and_standalone() {
        let rows = vec![
            TenantRow {
                tenant: 0,
                role: "flooder".to_string(),
                attempted_pairs: 800,
                admitted: 64,
                backpressured: 736,
                drained: 60,
                completed: 30,
                solo_completed: None,
                retained: None,
                msgs_per_sec: 120.0,
            },
            TenantRow {
                tenant: 1,
                role: "well-behaved".to_string(),
                attempted_pairs: 32,
                admitted: 64,
                backpressured: 0,
                drained: 64,
                completed: 32,
                solo_completed: Some(32),
                retained: Some(1.0),
                msgs_per_sec: 128.5,
            },
        ];
        let fields = concat!(
            r#""tenants":2,"flood_tenant":0,"ticks":4,"pairs_per_tick":8,"#,
            r#""flood_pairs_per_tick":200,"capacity":1024,"quantum":64,"#,
            r#""flood_capacity":64,"flood_quantum":16,"deficit_cap_quanta":4,"#,
            r#""flooder_backpressured":true,"fairness_retained":true,"rows":["#,
            r#"{"tenant":0,"role":"flooder","attempted_pairs":800,"admitted":64,"#,
            r#""backpressured":736,"drained":60,"completed":30,"solo_completed":null,"#,
            r#""retained":null,"msgs_per_sec":120},"#,
            r#"{"tenant":1,"role":"well-behaved","attempted_pairs":32,"admitted":64,"#,
            r#""backpressured":0,"drained":64,"completed":32,"solo_completed":32,"#,
            r#""retained":1,"msgs_per_sec":128.5}]"#
        );
        let sweep = TenantsSweep {
            tenants: 2,
            flood_tenant: Some(0),
            ticks: 4,
            pairs_per_tick: 8,
            flood_pairs_per_tick: 200,
            capacity: 1024,
            quantum: 64,
            flood_capacity: 64,
            flood_quantum: 16,
            deficit_cap_quanta: 4,
            flooder_backpressured: true,
            fairness_retained: true,
            rows,
            observability: RegistrySnapshot::default(),
            series: None,
        };
        assert_eq!(
            render(&sweep),
            format!(
                "{{\"bench\":\"fig8_tenants\",{fields},\"observability\":\
                 {{\"counters\":{{}},\"gauges\":{{}},\"histograms\":{{}}}}}}"
            )
        );
    }
}
