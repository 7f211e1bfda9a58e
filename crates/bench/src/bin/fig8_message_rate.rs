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
//! the offloaded series' engine counters are the same on every run.
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
//! executed and mean block occupancy next to throughput, and the same
//! numbers land in a standalone `fig8_mixed.json` artifact.
//!
//! With `--faults`, an eighth section runs the same pre-posted stream twice —
//! once over a perfect wire and once over a seeded hostile one (10% drop,
//! 10% duplicate, 10% reorder, 5% delay; `--fault-seed` picks the plan) —
//! with the sender wrapped in the selective-repeat [`ReliableSender`]. The rows
//! put the reliability tax (retransmits, backoff polls, discarded
//! duplicates) next to throughput, the run asserts the matched
//! (receive, payload) sequence is identical in both runs, and everything
//! lands in a standalone `fig8_faults.json` artifact.
//!
//! With `--tenants N`, a ninth section promotes the service into a matchd
//! server and runs N tenant sessions against it for the same message
//! budget: each tenant submits (post, self-send) pairs per deterministic
//! tick, with `--flood-tenant I` turning tenant I into a flooder that
//! pushes far past its bounded ingress. The rows put each tenant's
//! admission counters (admitted / backpressured) next to its completed
//! throughput and, for well-behaved tenants, the fraction of their *solo*
//! throughput retained under contention — the fair-drain headline. The
//! numbers land in a standalone `fig8_tenants.json` artifact (with the
//! per-tenant series sections embedded when `--series` is also given).
//!
//! With `--series PATH`, the flight recorder's rolling time-series sampler
//! rides along: the mixed-traffic drain is sampled once per drain round and
//! the `--faults` service once per `progress()` poll (both deterministic
//! virtual clocks), and the labeled columnar series land in one JSON
//! artifact at PATH (schema per section: `t`, `queue_depth`,
//! `block_occupancy`, `path_counts`, `matched`, `retransmits`,
//! `fallbacks`). With `--spans PATH` (requires building with
//! `--features trace-events`; otherwise a warning), per-message lifecycle
//! span dumps are written per section as `PATH.<section>.jsonl` plus a
//! Chrome `trace_event` file `PATH.<section>.trace.json` that
//! <https://ui.perfetto.dev> opens directly.
//!
//! Run with: `cargo run --release -p otm-bench --bin fig8_message_rate`
//! (`--quick` shrinks the repeat count for smoke testing; `--messages N`
//! budgets ~N messages per series; `--repeats N` sets the count directly;
//! `--packing P` / `--post-mix PCT` steer the mixed-traffic comparison;
//! `--series PATH` / `--spans PATH` capture the flight-recorder artifacts;
//! `--out PATH` redirects the JSON report).
//!
//! The JSON report is a [`BenchReport`] whose `observability` object maps
//! each offloaded series label to its merged registry snapshot: the
//! per-path resolution counters (NC / WC-FP / WC-SP), the search-depth and
//! block-latency histogram quantiles, and the dpa-sim queue-depth gauges.

use dpa_sim::bounce::BouncePool;
use dpa_sim::nic::RecvNic;
use dpa_sim::rdma::{connected_pair, eager_packet, RdmaDomain};
use dpa_sim::reliable::PROTOCOL_LABEL;
use dpa_sim::service::ServiceError;
use dpa_sim::{
    Admission, MatchMode, MatchServer, MatchdConfig, MatchingService, PingPong, PingPongConfig,
    PingPongResult, ReliableSender, Scenario, TenantConfig, TenantSession,
};
use mpi_matching::{MsgHandle, RecvHandle};
use otm::{Command, OtmEngine};
use otm_base::{
    CommId, Envelope, FaultPlan, MatchConfig, MatchError, PackingPolicy, Rank, ReceivePattern, Tag,
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

/// The report-level `observability` object: one registry snapshot per
/// series or section label.
type Observability = BTreeMap<String, RegistrySnapshot>;

/// What [`MatchServer::finish_series`] hands back: the global series and
/// one section per tenant.
type TenantSeries = (SeriesRecorder, Vec<(String, SeriesRecorder)>);

/// Flight-recorder output accumulated across the fig8 sections: labeled
/// rolling time series (`--series`) and labeled span dumps (`--spans`, only
/// under the `trace-events` feature).
#[derive(Default)]
struct FlightRecorder {
    /// `(section, series)` pairs, e.g. `("mixed cross-comm", ...)`.
    series: Vec<(String, SeriesRecorder)>,
    /// `(section, events, dropped)` per span dump.
    #[cfg(feature = "trace-events")]
    spans: Vec<(String, Vec<otm_metrics::SpanEvent>, u64)>,
}

impl FlightRecorder {
    /// Writes the labeled series as one artifact at `--series PATH` (the
    /// recorder's [`WriteJson`] form). Returns the path, or `None` when
    /// `--series` was not given or nothing was sampled.
    fn write_series(&self, args: &CommonArgs) -> Option<std::path::PathBuf> {
        let path = args.series.as_ref()?;
        if self.series.is_empty() {
            return None;
        }
        Some(write_json_artifact(path, self))
    }

    /// Self-consistency shape check for every recorded series: the terminal
    /// point's per-path counts must sum to its matched total (the invariant
    /// `otm_matched_total == Σ otm_resolutions_total{path}` carried into the
    /// artifact), and `t` must be strictly increasing.
    fn series_consistent(&self) -> bool {
        self.series.iter().all(|(_, s)| {
            let monotone = s.points().windows(2).all(|w| w[0].t < w[1].t);
            let terminal_ok = match s.last() {
                Some(p) => p.path_counts.iter().sum::<u64>() == p.matched,
                None => true,
            };
            monotone && terminal_ok
        })
    }

    /// Writes the span dumps next to the `--spans` stem (JSONL + Chrome
    /// `trace_event` per section) and prints one summary line per section
    /// with the per-path post→match latency means.
    #[cfg(feature = "trace-events")]
    fn write_spans(&self, args: &CommonArgs) {
        let Some(stem) = args.spans.as_ref() else {
            return;
        };
        for (section, events, dropped) in &self.spans {
            let jsonl = spans_sibling(stem, section, "jsonl");
            write_text_artifact(&jsonl, &otm_metrics::spans_to_jsonl(events));
            let chrome = spans_sibling(stem, section, "trace.json");
            write_text_artifact(&chrome, &otm_metrics::spans_to_chrome_trace(events));
            let hists = otm_metrics::latency_by_path(events);
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
    }

    /// Without the `trace-events` feature the span layer is compiled out;
    /// tell the operator why `--spans` produced nothing instead of failing
    /// silently.
    #[cfg(not(feature = "trace-events"))]
    fn write_spans(&self, args: &CommonArgs) {
        if args.spans.is_some() {
            println!(
                "WARNING: --spans requires building with --features trace-events; \
                 span dump skipped"
            );
        }
    }
}

/// `{"bench":"fig8_series","sections":{<label>:<columnar series>}}`.
impl WriteJson for FlightRecorder {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_str("bench", "fig8_series");
        w.key("sections");
        w.begin_object();
        for (label, series) in &self.series {
            w.key(label);
            series.write_json(w);
        }
        w.end_object();
        w.end_object();
    }
}

/// The fig8 `results` payload: the per-series rows and the sections.
#[derive(Debug)]
struct Fig8Results {
    /// The six ping-pong series.
    series: Vec<PingPongResult>,
    /// The mixed-traffic packing-policy comparison (one row per policy).
    mixed: Vec<MixedRow>,
    /// The fault-injection sweep (`--faults`), if it ran.
    faults: Option<FaultSweep>,
    /// The multi-tenant matchd fairness sweep (`--tenants`), if it ran.
    tenants: Option<TenantsSweep>,
    /// Whether this build stamped lifecycle spans (`--features
    /// trace-events`) — compare the NC series' `msgs_per_sec` of a `true`
    /// and a `false` artifact to measure the span layer's overhead.
    trace_events: bool,
}

json_fields!(Fig8Results: series, mixed, faults, tenants, trace_events);

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

// The row as it appears both in the report's `results.mixed` and in the
// standalone `fig8_mixed.json`.
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
    let mut observability = Observability::new();
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
        harvest(&mut result, &mut observability);
        print_result(&result);
        results.push(result);
    }

    let mut recorder = FlightRecorder::default();
    let mixed = run_mixed(&args, k * repeats, &mut observability, &mut recorder);
    let faults = run_faults(&args, k * repeats, &mut observability, &mut recorder);
    let tenants = run_tenants(&args, k * repeats, &mut observability);
    finish(
        &args,
        quick,
        results,
        mixed,
        faults,
        tenants,
        observability,
        recorder,
    );
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
/// variable is how the drain packs blocks.
fn run_mixed(
    args: &CommonArgs,
    budget: usize,
    observability: &mut Observability,
    recorder: &mut FlightRecorder,
) -> Vec<(MixedRow, RegistrySnapshot)> {
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

    let mut rows = Vec::new();
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
            recorder.series.push((format!("mixed {name}"), s));
        }
        #[cfg(feature = "trace-events")]
        if args.spans.is_some() {
            let spans = engine.span_recorder();
            recorder
                .spans
                .push((format!("mixed-{name}"), spans.dump(), spans.dropped()));
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
        let snapshot = engine.metrics_snapshot();
        observability.insert(format!("mixed {name}"), snapshot.clone());
        rows.push((row, snapshot));
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

/// One run of the fault sweep: the same pre-posted stream, pushed through
/// the [`ReliableSender`], over either a perfect wire (`fault-free`) or the
/// seeded [`FaultPlan`] (`hostile-wire`). The reliability columns quantify
/// what the protocol paid to hide the wire's misbehavior — the headline is
/// `retransmit_amplification`, retransmits per wire drop, which selective
/// repeat keeps near 1 by resending only the holes.
#[derive(Debug, Clone)]
struct FaultRow {
    /// `fault-free` or `hostile-wire`.
    label: String,
    /// Always [`PROTOCOL_LABEL`] (`selective-repeat`); kept so the rows stay
    /// comparable with the committed artifacts.
    mode: String,
    /// Messages completed end to end (always the full budget).
    messages: u64,
    /// Wall-clock including the final ack settle.
    elapsed_secs: f64,
    /// Completed receives per second over the wall-clock above.
    msgs_per_sec: f64,
    /// Packets the fault layer silently dropped.
    wire_drops: u64,
    /// Packets the fault layer delivered twice.
    wire_duplicates: u64,
    /// Packets the fault layer released out of order.
    wire_reorders: u64,
    /// Packets the fault layer held back before in-order release.
    wire_delays: u64,
    /// Packets resent by the reliability protocol (timeout resends plus
    /// SACK-driven fast retransmits).
    retransmits: u64,
    /// Retransmits per wire drop (`retransmits / wire_drops`; `0` on a
    /// clean wire) — the Fig. 9-style amplification headline.
    retransmit_amplification: f64,
    /// SACK-hole fast retransmits.
    fast_retransmits: u64,
    /// Resend events (each retransmits only the unSACKed holes).
    resend_events: u64,
    /// Cumulative acks the sender consumed.
    acks_received: u64,
    /// Polls the sender spent backing off between resends (virtual time).
    backoff_polls: u64,
    /// Already-seen sequence numbers the receive NIC discarded.
    rx_duplicates_discarded: u64,
    /// Ahead-of-expected sequence numbers the receive NIC discarded.
    rx_gaps_discarded: u64,
    /// Out-of-order packets parked in the receive NIC's staging buffer.
    rx_staged_out_of_order: u64,
    /// Cumulative acks the receive NIC emitted.
    acks_sent: u64,
}

// The row as it appears both in the report's `results.faults.rows` and in
// the standalone `fig8_faults.json`.
json_fields!(FaultRow: label, mode, messages, elapsed_secs, msgs_per_sec, wire_drops,
    wire_duplicates, wire_reorders, wire_delays, retransmits, retransmit_amplification,
    fast_retransmits, resend_events, acks_received, backoff_polls, rx_duplicates_discarded,
    rx_gaps_discarded, rx_staged_out_of_order, acks_sent);

/// The `--faults` sweep: plan parameters, the fault-free vs hostile rows,
/// and the oracle verdict (`matched_equal`) that the hostile wire changed
/// no matched (receive, payload) pair.
#[derive(Debug)]
struct FaultSweep {
    /// Seed of the fault plan (`--fault-seed`, default `0xf8`).
    seed: u64,
    /// Drop probability in permille.
    drop_permille: u32,
    /// Duplicate probability in permille.
    duplicate_permille: u32,
    /// Reorder probability in permille.
    reorder_permille: u32,
    /// Delay probability in permille.
    delay_permille: u32,
    /// True when both runs completed the identical (receive, payload)
    /// sequence — the chaos oracle of `tests/fault_chaos.rs`, at bench
    /// scale.
    matched_equal: bool,
    /// Two rows: fault-free then hostile-wire.
    rows: Vec<FaultRow>,
}

// The sweep as the report's `results.faults`: plan parameters flat.
json_fields!(FaultSweep: seed, drop_permille, duplicate_permille, reorder_permille, delay_permille,
    matched_equal, rows);

/// The standalone `fig8_faults.json`: the sweep with the plan nested under
/// `plan`, plus each run's registry snapshot keyed `"<mode> <label>"`.
struct FaultsArtifact<'a> {
    sweep: &'a FaultSweep,
    snapshots: Vec<&'a RegistrySnapshot>,
}

impl WriteJson for FaultsArtifact<'_> {
    fn write_json(&self, w: &mut JsonWriter) {
        let sweep = self.sweep;
        w.begin_object();
        w.field_str("bench", "fig8_faults");
        json_fields!(w, sweep; seed);
        w.key("plan");
        w.begin_object();
        json_fields!(w, sweep; drop_permille, duplicate_permille, reorder_permille, delay_permille);
        w.end_object();
        json_fields!(w, sweep; matched_equal, rows);
        w.key("observability");
        w.begin_object();
        for (row, snapshot) in sweep.rows.iter().zip(&self.snapshots) {
            w.key(&format!("{} {}", row.mode, row.label));
            snapshot.write_json(w);
        }
        w.end_object();
        w.end_object();
    }
}

/// Everything one fault-sweep run produces: the summary row, the completed
/// (receive handle, payload) sequence for the equality oracle, and the
/// service's registry snapshot.
struct FaultRun {
    row: FaultRow,
    completed: Vec<(u64, Vec<u8>)>,
    observability: RegistrySnapshot,
    /// The rolling time series sampled on the service's poll clock, when
    /// `--series` asked for one.
    series: Option<SeriesRecorder>,
    /// Merged engine + service span dump and its total dropped-events
    /// count, when `--spans` asked for one.
    #[cfg(feature = "trace-events")]
    spans: Option<(Vec<otm_metrics::SpanEvent>, u64)>,
}

/// Pre-posts `patterns` in order, under consecutive handles, before any
/// message is sent. A post is a command on the engine's per-communicator
/// submission ring: a full ring is drained by a progress call and the post
/// retried under its handle, and a last progress applies the tail.
fn pre_post(svc: &mut MatchingService, patterns: impl IntoIterator<Item = ReceivePattern>) {
    for pattern in patterns {
        let handle = svc.reserve_recv();
        while let Err(e) = svc.post_recv_queued_reserved(pattern, handle) {
            assert!(
                matches!(
                    e,
                    ServiceError::Match(MatchError::SubmissionRingFull { .. })
                ),
                "pre-post failed: {e}"
            );
            svc.progress().expect("service alive");
        }
    }
    svc.progress().expect("service alive");
}

/// Pushes `messages` eager packets through the full service path — queue
/// pair, (optionally faulty) receive NIC, command queue, windowed drain,
/// eager copy — with the sender wrapped in the reliability protocol, and
/// records the completed (receive, payload) sequence
/// plus the reliability counters. The receives are pre-posted, so message
/// `i` deterministically matches receive `i` (per-QP FIFO + FIFO
/// matching), making the completed sequence directly comparable between
/// the fault-free and hostile runs.
fn fault_run(
    args: &CommonArgs,
    label: &str,
    plan: Option<&FaultPlan>,
    messages: usize,
) -> FaultRun {
    let config = MatchConfig::default()
        .with_max_receives(messages.max(1))
        .with_bins((2 * messages.max(1)).next_power_of_two());
    let engine = OtmEngine::new(config).expect("fault bench configuration");
    let domain = RdmaDomain::new();
    let (tx, rx) = connected_pair();
    let mut nic = RecvNic::new(rx, BouncePool::new(messages.max(1), 64));
    if let Some(plan) = plan {
        nic.set_faults(plan.clone());
    }
    let mut svc = MatchingService::with_backend(nic, domain, Box::new(engine));
    pre_post(
        &mut svc,
        (0..messages)
            .map(|i| ReceivePattern::new(Rank(i as u32 % 8), Tag(i as u32 % 64), CommId(1))),
    );
    if args.series.is_some() {
        // The service samples itself on its poll clock; the cadence keeps
        // the series to a few hundred points on the fault-free run (which
        // completes up to a full reliability window per poll).
        svc.attach_series(SeriesRecorder::new((messages as u64 / 512).max(1)));
    }

    let mut sender = ReliableSender::new(tx);
    // One registry for the whole path: the sender's retransmit/backoff
    // counters land in the same snapshot as the NIC's wire/rx counters.
    sender.attach_metrics(svc.metrics().clone());
    let mut completed: Vec<(u64, Vec<u8>)> = Vec::with_capacity(messages);
    let mut sent = 0usize;
    let start = Instant::now();
    while completed.len() < messages {
        // The adaptive (AIMD) window is the flow control, exactly as on a
        // real wire.
        while sent < messages && sender.can_send() {
            let (src, tag) = (Rank(sent as u32 % 8), Tag(sent as u32 % 64));
            let payload = (sent as u32).to_le_bytes().to_vec();
            sender
                .send(eager_packet(Envelope::new(src, tag, CommId(1)), payload))
                .expect("retry budget covers the configured fault rates");
            sent += 1;
        }
        svc.progress().expect("service alive");
        let stray = sender
            .poll()
            .expect("retry budget covers the configured fault rates");
        debug_assert!(stray.is_empty(), "nothing sends app data back");
        for done in svc.take_completed() {
            completed.push((done.recv.0, done.data));
        }
    }
    // Settle the tail acks so the reliability counters are final.
    while sender.unacked() > 0 {
        svc.progress().expect("service alive");
        sender
            .poll()
            .expect("retry budget covers the configured fault rates");
    }
    let elapsed = start.elapsed().as_secs_f64();
    svc.force_series_sample();
    #[cfg(feature = "trace-events")]
    let spans = if args.spans.is_some() {
        // Engine lifecycle spans (enqueued/packed/matched) and service
        // reliability spans (retransmitted/fell_back) share one process
        // timeline; merge them into a single chronological dump.
        let mut events = svc.engine_span_events().unwrap_or_default();
        events.extend(svc.metrics().spans().dump());
        events.sort_by_key(|e| (e.t_ns, e.subject, e.seq));
        let snap = svc.observability_snapshot();
        let dropped_of = |key: &str| snap.counters.get(key).copied().unwrap_or(0);
        let dropped = dropped_of("otm_span_dropped_total") + dropped_of("dpa_span_dropped_total");
        Some((events, dropped))
    } else {
        None
    };

    let wire = svc.nic().wire_fault_stats().unwrap_or_default();
    let rx_stats = svc.nic().rx_stats();
    let rel = sender.stats();
    FaultRun {
        row: FaultRow {
            label: label.to_string(),
            mode: PROTOCOL_LABEL.to_string(),
            messages: messages as u64,
            elapsed_secs: elapsed,
            msgs_per_sec: messages as f64 / elapsed.max(f64::EPSILON),
            wire_drops: wire.drops,
            wire_duplicates: wire.duplicates,
            wire_reorders: wire.reorders,
            wire_delays: wire.delays,
            retransmits: rel.retransmits,
            retransmit_amplification: if wire.drops > 0 {
                rel.retransmits as f64 / wire.drops as f64
            } else {
                0.0
            },
            fast_retransmits: rel.fast_retransmits,
            resend_events: rel.resend_events,
            acks_received: rel.acks,
            backoff_polls: rel.backoff_polls,
            rx_duplicates_discarded: rx_stats.duplicates,
            rx_gaps_discarded: rx_stats.gaps,
            rx_staged_out_of_order: rx_stats.staged_out_of_order,
            acks_sent: rx_stats.acks_sent,
        },
        completed,
        observability: svc.observability_snapshot(),
        series: svc.take_series(),
        #[cfg(feature = "trace-events")]
        spans,
    }
}

/// Runs the `--faults` sweep: the identical pre-posted stream over a
/// perfect and a seeded hostile wire, the matched-sequence equality oracle,
/// and the `fig8_faults.json` artifact.
fn run_faults(
    args: &CommonArgs,
    budget: usize,
    observability: &mut Observability,
    recorder: &mut FlightRecorder,
) -> Option<FaultSweep> {
    if !args.faults {
        return None;
    }
    let messages = budget.max(1);
    let seed = args.fault_seed.unwrap_or(0xf8);
    let plan = FaultPlan::new(seed)
        .with_drop_permille(100)
        .with_duplicate_permille(100)
        .with_reorder_permille(100)
        .with_delay_permille(50);
    println!(
        "\nFault sweep: {messages} msgs per run, plan seed {seed:#x} \
         (10% drop, 10% dup, 10% reorder, 5% delay)"
    );

    let mut runs = [
        fault_run(args, "fault-free", None, messages),
        fault_run(args, "hostile-wire", Some(&plan), messages),
    ];
    // The oracle: both wires must complete the identical (receive, payload)
    // sequence — faults change nothing.
    let matched_equal = runs[0].completed == runs[1].completed;
    for run in &mut runs {
        let key = format!("faults {} {}", run.row.mode, run.row.label);
        if let Some(series) = run.series.take() {
            recorder.series.push((key.clone(), series));
        }
        #[cfg(feature = "trace-events")]
        if let Some((events, dropped)) = run.spans.take() {
            recorder.spans.push((
                format!("faults-{}-{}", run.row.mode, run.row.label),
                events,
                dropped,
            ));
        }
    }

    for run in &runs {
        let r = &run.row;
        println!(
            "  {:<16} {:<13} {:>12.0} msgs/s   [drops {} | dups {} | reorders {} | delays {}] \
             retransmits {} ({:.2}x amplification, {} fast), staged {}",
            r.mode,
            r.label,
            r.msgs_per_sec,
            r.wire_drops,
            r.wire_duplicates,
            r.wire_reorders,
            r.wire_delays,
            r.retransmits,
            r.retransmit_amplification,
            r.fast_retransmits,
            r.rx_staged_out_of_order,
        );
    }
    let hostile = &runs[1].row;
    println!("shape: hostile wire changed no matched pair: {matched_equal}");
    println!(
        "shape: reliability protocol actually fired: {}",
        hostile.retransmits > 0 && hostile.wire_drops > 0
    );
    println!(
        "shape: retransmit amplification <= 2x ({:.2}x): {}",
        hostile.retransmit_amplification,
        hostile.retransmit_amplification <= 2.0
    );

    let sweep = FaultSweep {
        seed,
        drop_permille: plan.drop_permille,
        duplicate_permille: plan.duplicate_permille,
        reorder_permille: plan.reorder_permille,
        delay_permille: plan.delay_permille,
        matched_equal,
        rows: runs.iter().map(|r| r.row.clone()).collect(),
    };
    let path = write_json_artifact(
        &experiments_dir().join("fig8_faults.json"),
        &FaultsArtifact {
            sweep: &sweep,
            snapshots: runs.iter().map(|r| &r.observability).collect(),
        },
    );
    println!("fault-sweep artifact: {}", path.display());
    for run in runs {
        observability.insert(
            format!("faults {} {}", run.row.mode, run.row.label),
            run.observability,
        );
    }
    Some(sweep)
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

// The row as it appears both in the report's `results.tenants.rows` and in
// the standalone `fig8_tenants.json`.
json_fields!(TenantRow: tenant, role, attempted_pairs, admitted, backpressured, drained, completed,
    solo_completed, retained, msgs_per_sec);

/// The `--tenants` sweep: knobs, per-tenant rows, and the two fairness
/// verdicts the paper-style shape checks assert.
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
}

impl TenantsSweep {
    /// The sweep's knobs, verdicts and rows, as fields of the current
    /// object (shared by the report and the standalone artifact).
    fn write_fields(&self, w: &mut JsonWriter) {
        json_fields!(w, self; tenants, flood_tenant, ticks, pairs_per_tick, flood_pairs_per_tick,
            capacity, quantum, flood_capacity, flood_quantum, deficit_cap_quanta,
            flooder_backpressured, fairness_retained, rows);
    }
}

/// The sweep as the report's `results.tenants`.
impl WriteJson for TenantsSweep {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        self.write_fields(w);
        w.end_object();
    }
}

/// The standalone `fig8_tenants.json`: the sweep plus, when `--series`
/// sampled them, the global and per-tenant series sections.
struct TenantsArtifact<'a> {
    sweep: &'a TenantsSweep,
    series: Option<&'a TenantSeries>,
}

impl WriteJson for TenantsArtifact<'_> {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_str("bench", "fig8_tenants");
        self.sweep.write_fields(w);
        if let Some((global, tenants)) = self.series {
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
/// ingress bound — for the same tick count. Returns the sweep plus the
/// multi-section series artifact when `--series` asked for one.
fn run_tenants(
    args: &CommonArgs,
    budget: usize,
    observability: &mut Observability,
) -> Option<(TenantsSweep, Option<TenantSeries>)> {
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

    observability.insert(
        "tenants".to_string(),
        server.service().observability_snapshot(),
    );
    let series = server.finish_series();
    Some((
        TenantsSweep {
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
        },
        series,
    ))
}

/// Moves a run's registry snapshot out of the result row and into the
/// report-level observability map.
fn harvest(result: &mut PingPongResult, observability: &mut Observability) {
    if let Some(snapshot) = result.observability_json.take() {
        observability.insert(result.label.clone(), snapshot);
    }
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

#[allow(clippy::too_many_arguments)]
fn finish(
    args: &CommonArgs,
    quick: bool,
    results: Vec<PingPongResult>,
    mixed: Vec<(MixedRow, RegistrySnapshot)>,
    faults: Option<FaultSweep>,
    tenants: Option<(TenantsSweep, Option<TenantSeries>)>,
    observability: Observability,
    recorder: FlightRecorder,
) {
    let mixed_path = write_json_artifact(
        &experiments_dir().join("fig8_mixed.json"),
        &MixedArtifact(&mixed),
    );
    let tenants_path = tenants.as_ref().map(|(sweep, series)| {
        write_json_artifact(
            &experiments_dir().join("fig8_tenants.json"),
            &TenantsArtifact {
                sweep,
                series: series.as_ref(),
            },
        )
    });
    let results = Fig8Results {
        series: results,
        mixed: mixed.into_iter().map(|(row, _)| row).collect(),
        faults,
        tenants: tenants.map(|(sweep, _)| sweep),
        trace_events: cfg!(feature = "trace-events"),
    };
    // Shape checks mirrored from the paper's discussion of Fig. 8.
    let rate = |label: &str| {
        results
            .series
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
    let occupancy = |name: &str| {
        results
            .mixed
            .iter()
            .find(|r| r.packing == name)
            .map(|r| r.mean_block_occupancy)
    };
    if let (Some(consec), Some(cross)) = (occupancy("consecutive"), occupancy("cross-comm")) {
        println!(
            "shape: cross-comm packing refills blocks posts cut short: {}",
            cross >= 2.0 * consec
        );
    }

    let report = BenchReport::with_observability(
        "fig8_message_rate",
        quick,
        results,
        if observability.is_empty() {
            None
        } else {
            Some(observability)
        },
    );
    if let Some(series_path) = recorder.write_series(args) {
        println!(
            "shape: series terminal points self-consistent (Σ path == matched, t monotone): {}",
            recorder.series_consistent()
        );
        println!("flight-recorder series artifact: {}", series_path.display());
    }
    recorder.write_spans(args);

    let path = write_report(args, &report);
    println!("\nJSON artifact: {}", path.display());
    println!("mixed-traffic artifact: {}", mixed_path.display());
    if let Some(p) = tenants_path {
        println!("tenants artifact: {}", p.display());
    }
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
        let rows = run_mixed(
            &CommonArgs::default(),
            2000,
            &mut Observability::new(),
            &mut FlightRecorder::default(),
        );
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
    fn fault_sweep_in_the_report_and_standalone() {
        let row = FaultRow {
            label: "hostile-wire".to_string(),
            mode: PROTOCOL_LABEL.to_string(),
            messages: 100,
            elapsed_secs: 0.5,
            msgs_per_sec: 200.0,
            wire_drops: 10,
            wire_duplicates: 9,
            wire_reorders: 8,
            wire_delays: 7,
            retransmits: 15,
            retransmit_amplification: 1.5,
            fast_retransmits: 6,
            resend_events: 5,
            acks_received: 4,
            backoff_polls: 3,
            rx_duplicates_discarded: 2,
            rx_gaps_discarded: 1,
            rx_staged_out_of_order: 11,
            acks_sent: 12,
        };
        let row_json = concat!(
            r#"{"label":"hostile-wire","mode":"selective-repeat","messages":100,"#,
            r#""elapsed_secs":0.5,"msgs_per_sec":200,"wire_drops":10,"wire_duplicates":9,"#,
            r#""wire_reorders":8,"wire_delays":7,"retransmits":15,"#,
            r#""retransmit_amplification":1.5,"fast_retransmits":6,"resend_events":5,"#,
            r#""acks_received":4,"backoff_polls":3,"rx_duplicates_discarded":2,"#,
            r#""rx_gaps_discarded":1,"rx_staged_out_of_order":11,"acks_sent":12}"#
        );
        assert_eq!(render(&row), row_json);
        let sweep = FaultSweep {
            seed: 248,
            drop_permille: 100,
            duplicate_permille: 100,
            reorder_permille: 100,
            delay_permille: 50,
            matched_equal: true,
            rows: vec![row],
        };
        assert_eq!(
            render(&sweep),
            format!(
                "{{\"seed\":248,\"drop_permille\":100,\"duplicate_permille\":100,\
                 \"reorder_permille\":100,\"delay_permille\":50,\"matched_equal\":true,\
                 \"rows\":[{row_json}]}}"
            )
        );
        let snapshot = RegistrySnapshot::default();
        let artifact = FaultsArtifact {
            sweep: &sweep,
            snapshots: vec![&snapshot],
        };
        assert_eq!(
            render(&artifact),
            format!(
                "{{\"bench\":\"fig8_faults\",\"seed\":248,\"plan\":{{\"drop_permille\":100,\
                 \"duplicate_permille\":100,\"reorder_permille\":100,\"delay_permille\":50}},\
                 \"matched_equal\":true,\"rows\":[{row_json}],\"observability\":\
                 {{\"selective-repeat hostile-wire\":\
                 {{\"counters\":{{}},\"gauges\":{{}},\"histograms\":{{}}}}}}}}"
            )
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
        };
        assert_eq!(render(&sweep), format!("{{{fields}}}"));
        let artifact = TenantsArtifact {
            sweep: &sweep,
            series: None,
        };
        assert_eq!(
            render(&artifact),
            format!("{{\"bench\":\"fig8_tenants\",{fields}}}")
        );
    }
}
