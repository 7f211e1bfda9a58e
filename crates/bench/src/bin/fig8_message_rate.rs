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
//! With `--tenants N`, the harness runs the multi-tenant fairness sweep
//! *instead of* the six series, on the message budget of one series: a
//! matchd server with N tenants, each submitting (post, self-send) pairs
//! per deterministic tick, with `--flood-tenant I` turning tenant I into a
//! flooder that pushes far past its bounded ingress. The rows put each
//! tenant's admission counters (admitted / backpressured) next to its
//! completed throughput and, for well-behaved tenants, the fraction of
//! their *solo* throughput retained under contention — the fair-drain
//! headline. The rows and the server's registry snapshot are written to
//! `fig8_tenants.json`; no series report is written.
//!
//! The flight recorder rides along on the tenants sweep, so `--series` and
//! `--spans` need `--tenants` (without it they print a warning). With
//! `--series PATH` the server samples its service once per `ticks / 64`
//! polls (a deterministic virtual clock) and each tenant once per as many
//! ticks. The service's labeled columnar series (`t`, `queue_depth`,
//! `block_occupancy`, `path_counts`, `matched`, `retransmits`,
//! `fallbacks`) is written once, to PATH. Each tenant's series (`t`,
//! `ingress_depth`, `completed`: what the server counts for it) is
//! embedded in `fig8_tenants.json` under `series`, keyed by tenant id.
//! With `--spans PATH` (requires building with `--features trace-events`;
//! otherwise a warning), the sweep's engine's per-message lifecycle span
//! dump is written as `PATH.tenants.jsonl` plus a Chrome `trace_event`
//! file `PATH.tenants.trace.json` that <https://ui.perfetto.dev> opens
//! directly.
//!
//! Run with: `cargo run --release -p otm-bench --bin fig8_message_rate`
//! (`--quick` shrinks the repeat count for smoke testing; `--messages N`
//! budgets ~N messages per series; `--repeats N` sets the count directly;
//! `--tenants N` / `--flood-tenant I` run the fairness sweep instead;
//! `--series PATH` / `--spans PATH` capture its flight-recorder artifacts;
//! `--out PATH` redirects the series' JSON report).
//!
//! The JSON report is a [`BenchReport`] of the six series rows whose
//! `observability` object maps each offloaded series label to its merged
//! registry snapshot: the per-path resolution counters (NC / WC-FP /
//! WC-SP), the search-depth and block-latency histogram quantiles, and the
//! dpa-sim queue-depth gauges.

use dpa_sim::{
    Admission, MatchMode, MatchServer, MatchdConfig, PingPong, PingPongConfig, PingPongResult,
    Scenario, TenantConfig, TenantId, TenantSeries,
};
use otm_base::{CommId, MatchConfig, Rank, ReceivePattern, Tag};
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
    if let Some(tenants) = args.tenants {
        // The sweep alone, on the message budget of one series.
        let sweep = run_tenants(&args, tenants, k * repeats);
        let path = write_json_artifact(&experiments_dir().join("fig8_tenants.json"), &sweep);
        println!("tenants artifact: {}", path.display());
        return;
    }
    if args.series.is_some() || args.spans.is_some() {
        println!("WARNING: --series and --spans record the --tenants sweep; nothing recorded");
    }
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
}

/// The `--series` artifact, the tenants sweep's service series:
/// `{"bench":"fig8_series","sections":{"tenants":<columnar series>}}`.
struct SeriesArtifact<'a>(&'a SeriesRecorder);

impl WriteJson for SeriesArtifact<'_> {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_str("bench", "fig8_series");
        w.key("sections");
        w.begin_object();
        w.key("tenants");
        self.0.write_json(w);
        w.end_object();
        w.end_object();
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
/// server's registry snapshot and, when `--series` sampled them, the
/// per-tenant series (the service's own series is the `--series`
/// artifact).
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
    /// Whether the flooder was answered with backpressure at admission;
    /// `None` when the sweep ran without one.
    flooder_backpressured: Option<bool>,
    /// True when every well-behaved tenant kept at least half of its solo
    /// throughput at the same virtual time.
    fairness_retained: bool,
    /// One row per tenant.
    rows: Vec<TenantRow>,
    /// The contended server's registry snapshot.
    observability: RegistrySnapshot,
    /// Each tenant's series, in id order (`--series`).
    series: Option<Vec<TenantSeries>>,
}

impl WriteJson for TenantsSweep {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_str("bench", "fig8_tenants");
        json_fields!(w, self; tenants, flood_tenant, ticks, pairs_per_tick, flood_pairs_per_tick,
            capacity, quantum, flood_capacity, flood_quantum, deficit_cap_quanta,
            flooder_backpressured, fairness_retained, rows, observability);
        if let Some(sections) = &self.series {
            w.key("series");
            w.begin_object();
            for (tenant, section) in sections.iter().enumerate() {
                w.key(&tenant.to_string());
                section.write_json(w);
            }
            w.end_object();
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

/// Submits up to `pairs` (post, self-send) pairs on the tenant's
/// communicator and returns how many were attempted (backpressure refusals
/// are counted by the server in the tenant's stats).
fn submit_tenant_pairs(
    server: &mut MatchServer,
    tenant: TenantId,
    pairs: usize,
    round: u64,
) -> u64 {
    let src = Rank(tenant.0 as u32);
    let comm = server
        .tenant_comm(tenant)
        .expect("bench tenants are pinned");
    for i in 0..pairs {
        let tag = Tag((round as u32).wrapping_mul(31).wrapping_add(i as u32) % 61);
        match server.submit_post(tenant, ReceivePattern::new(src, tag, comm)) {
            Admission::Admitted(_) => {}
            // A refused post never sends: pairs stay matched 1:1 and the
            // ingress pressure shows up in the admission counters.
            _ => continue,
        }
        // The send half may hit the bound the post just squeezed under; the
        // orphaned post then waits for a later round's duplicate tag.
        let _ = server.submit_send(tenant, tag, vec![(i % 251) as u8]);
    }
    pairs as u64
}

/// The well-behaved workload running alone on its own server: the
/// throughput baseline the contended run is measured against.
fn tenant_solo_baseline(plan: &TenantBenchPlan) -> u64 {
    let mut server =
        MatchServer::new(tenants_match_config(), plan.matchd).expect("standalone matchd server");
    let tenant = server
        .open_tenant_with(TenantConfig {
            comm: Some(CommId(1)),
            ..plan.well
        })
        .expect("a tenant id");
    for round in 0..plan.ticks {
        submit_tenant_pairs(&mut server, tenant, plan.pairs_per_tick, round);
        server.tick().expect("solo tick");
    }
    server.tenant_stats(tenant).completed
}

/// Runs the `--tenants` sweep: a solo baseline, then `tenants` tenants on
/// one matchd server — one of them (`--flood-tenant`) flooding far past its
/// ingress bound — for the same tick count.
fn run_tenants(args: &CommonArgs, tenants: usize, budget: usize) -> TenantsSweep {
    let tenants = tenants.max(2);
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
    let ids: Vec<TenantId> = (0..tenants)
        .map(|i| {
            let knobs = if flood_tenant == Some(i) {
                plan.flood
            } else {
                plan.well
            };
            server
                .open_tenant_with(TenantConfig {
                    comm: Some(CommId(i as u16 + 1)),
                    ..knobs
                })
                .expect("a tenant id")
        })
        .collect();

    let mut attempted = vec![0u64; tenants];
    let start = Instant::now();
    for round in 0..plan.ticks {
        for (i, &tenant) in ids.iter().enumerate() {
            let pairs = if flood_tenant == Some(i) {
                plan.flood_pairs_per_tick
            } else {
                plan.pairs_per_tick
            };
            attempted[i] += submit_tenant_pairs(&mut server, tenant, pairs, round);
        }
        server.tick().expect("contended tick");
    }
    let elapsed = start.elapsed().as_secs_f64();

    let rows: Vec<TenantRow> = ids
        .iter()
        .enumerate()
        .map(|(i, &tenant)| {
            let stats = server.tenant_stats(tenant);
            let flooding = flood_tenant == Some(i);
            TenantRow {
                tenant: tenant.0,
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

    let flooder_backpressured = flooder_backpressured(flood_tenant, &rows);
    let fairness_retained = rows
        .iter()
        .filter_map(|r| r.retained)
        .all(|r| 2.0 * r >= 1.0);
    println!(
        "shape: flooder answered with backpressure: {}",
        flooder_backpressured.map_or("n/a (no flooder)".to_string(), |b| b.to_string())
    );
    println!("shape: well-behaved tenants retained >= 50% of solo: {fairness_retained}");
    let observability = server.observability_snapshot();
    let series = server.finish_series();
    if let (Some(path), Some((service, _))) = (&args.series, &series) {
        let path = write_json_artifact(path, &SeriesArtifact(service));
        println!(
            "shape: series terminal points self-consistent (Σ path == matched, t monotone): {}",
            series_consistent(service)
        );
        println!("flight-recorder series artifact: {}", path.display());
    }
    #[cfg(feature = "trace-events")]
    if let Some(stem) = &args.spans {
        write_spans(stem, "tenants", server.service().span_recorder());
    }
    #[cfg(not(feature = "trace-events"))]
    if args.spans.is_some() {
        println!("WARNING: --spans requires building with --features trace-events; skipped");
    }

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
        observability,
        series: series.map(|(_, tenants)| tenants),
    }
}

/// Whether the flooder's rows show backpressure at admission, or `None`
/// when the sweep has no flooder to check.
fn flooder_backpressured(flood_tenant: Option<usize>, rows: &[TenantRow]) -> Option<bool> {
    flood_tenant.map(|_| {
        rows.iter()
            .any(|r| r.role == "flooder" && r.backpressured > 0)
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

    #[test]
    fn flooder_backpressure_is_checked_only_with_a_flooder() {
        let row = |tenant, role: &str, backpressured| TenantRow {
            tenant,
            role: role.to_string(),
            attempted_pairs: 8,
            admitted: 8,
            backpressured,
            drained: 8,
            completed: 4,
            solo_completed: None,
            retained: None,
            msgs_per_sec: 1.0,
        };
        let flooded = [row(0, "flooder", 736), row(1, "well-behaved", 0)];
        assert_eq!(flooder_backpressured(Some(0), &flooded), Some(true));
        let unrefused = [row(0, "flooder", 0), row(1, "well-behaved", 0)];
        assert_eq!(flooder_backpressured(Some(0), &unrefused), Some(false));
        let no_flooder = [row(0, "well-behaved", 0), row(1, "well-behaved", 0)];
        assert_eq!(flooder_backpressured(None, &no_flooder), None);
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
            flooder_backpressured: Some(true),
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
