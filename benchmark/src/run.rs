//! One `--workload` run: set-up, warm-up, timed reps, and in a traced run
//! the per-layer measurements.

use crate::app::{self, AppInput, AppSpec};
use crate::hostspeed::HostSpeed;
use crate::report::{Run, Values};
use crate::rungs;
use crate::stats::{median, percentile_sorted, Summary};
use crate::stream::{count_correct, run_rep, Backend, Counters, Shape, Stack, Stream, StreamSpec};
use crate::sys;
use crate::tracer::{Call, Tracer};
use dpa_sim::MatchingService;
use std::path::Path;
use std::time::{Duration, Instant};

/// What the command line asks of a run.
#[derive(Debug, Clone)]
pub struct Request {
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// A fiftieth of the rep size, one rep per phase: a smoke pass.
    pub quick: bool,
}

impl Request {
    /// Reps that always run, whatever the clock says. Counts reported as
    /// exact are taken over exactly these, so they repeat for a seed even
    /// though the number of reps that fit into `--seconds` does not.
    fn fixed_reps(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }

    /// Whether a rep loop that has done `reps` reps goes on.
    fn more_reps(&self, reps: usize, deadline: Instant) -> bool {
        reps < self.fixed_reps() || (!self.quick && Instant::now() < deadline)
    }

    fn share(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds as f64 * share)
    }
}

/// Set-up is repeated and its median reported, so that one slow start does
/// not decide `setup_s`.
const SETUP_PASSES: usize = 5;

/// Rounds each set-up pass pushes through the stack it just built, so that
/// lazily initialised state counts as set-up.
const SETUP_WARM_ROUNDS: usize = 4;

/// Shares of `--seconds` a traced run gives to its reps and to the rungs.
const REPS_SHARE: f64 = 0.5;
const RUNGS_SHARE: f64 = 0.5;

/// Calls timed for the construction and snapshot probes.
const PROBE_PASSES: usize = 30;

/// Set-up pass times with the reference samples taken around them.
struct SetUp {
    passes_s: Vec<f64>,
    host: HostSpeed,
}

impl SetUp {
    /// Times `SETUP_PASSES` calls of `pass`; the last one's product is the
    /// one measured. The previous product is dropped off the clock (for a
    /// stream that joins an engine's worker pool).
    fn run<T>(mut pass: impl FnMut() -> Result<T, String>) -> Result<(SetUp, T), String> {
        let mut setup = SetUp {
            passes_s: Vec::new(),
            host: HostSpeed::start(),
        };
        let mut product = None;
        for _ in 0..SETUP_PASSES {
            drop(product.take());
            let start = Instant::now();
            product = Some(pass()?);
            setup.passes_s.push(start.elapsed().as_secs_f64());
            setup.host.sample();
        }
        Ok((setup, product.expect("at least one set-up pass")))
    }
}

/// What a series of reps of one kind (traced or not) adds up to.
#[derive(Default)]
struct Reps {
    rate: Vec<f64>,
    seconds: Vec<f64>,
    messages: u64,
    failed: u64,
    cpu_s: f64,
    /// `VmHWM` once the last of the fixed reps had run: a fixed amount of
    /// work, where the number of reps in a run depends on the host.
    fixed_peak_rss_mib: f64,
    /// Stream reps only: counter movement, `progress` calls and empty
    /// `progress` calls of the fixed reps.
    fixed_counts: Counters,
    fixed_progress: (u64, u64),
}

impl Reps {
    /// Books a rep of `messages` messages, `failed` of them wrong.
    fn book(&mut self, req: &Request, messages: u64, failed: u64, elapsed: Duration, cpu_s: f64) {
        self.rate.push(messages as f64 / elapsed.as_secs_f64());
        self.seconds.push(elapsed.as_secs_f64());
        self.messages += messages;
        self.failed += failed;
        self.cpu_s += cpu_s;
        if self.rate.len() <= req.fixed_reps() {
            self.fixed_peak_rss_mib = sys::peak_rss_mib();
        }
    }

    /// Runs one more stream rep and checks it after its clock has stopped.
    fn stream_rep(
        &mut self,
        req: &Request,
        stack: &mut Stack,
        stream: &Stream,
        tracer: &mut Tracer,
        latencies_us: &mut Vec<f64>,
    ) -> Result<(), String> {
        let before = (self.rate.len() < req.fixed_reps()).then(|| stack.counters());
        let cpu = sys::cpu_seconds();
        let rep = run_rep(stack, stream, tracer, latencies_us)?;
        let cpu = sys::cpu_seconds() - cpu;
        let n = stream.messages() as u64;
        let failed = n - count_correct(stream, rep.first_recv, &rep.done, true);
        self.book(req, n, failed, rep.elapsed, cpu);
        if let Some(before) = before {
            self.fixed_counts.merge(&stack.counters().since(&before));
            self.fixed_progress.0 += rep.progress_calls;
            self.fixed_progress.1 += rep.empty_progress;
        }
        Ok(())
    }

    fn fixed_messages(&self, req: &Request, per_rep: u64) -> u64 {
        self.rate.len().min(req.fixed_reps()) as u64 * per_rep
    }
}

/// The checks that decide whether a run measured what its workload is for.
fn stream_guards(spec: &StreamSpec, c: &Counters, fell_back: bool) -> Vec<String> {
    let mut v = Vec::new();
    let mut require = |ok: bool, what: String| {
        if !ok {
            v.push(what);
        }
    };
    require(
        !fell_back && c.get("fallbacks") == 0,
        "the service fell back to software matching".into(),
    );
    if spec.hostile_wire {
        for key in ["wire_drops", "retransmits", "staged_out_of_order"] {
            require(c.get(key) > 0, format!("hostile wire but {key} == 0"));
        }
    } else {
        for key in ["wire_drops", "retransmits"] {
            require(
                c.get(key) == 0,
                format!("clean wire but {key} == {}", c.get(key)),
            );
        }
    }
    let resolved = c.get("path_nc") + c.get("path_wc_fp") + c.get("path_wc_sp");
    let conflicts = c.get("path_wc_fp") + c.get("path_wc_sp");
    match (spec.shape, spec.unexpected_first) {
        (_, true) => require(
            c.get("posted") == 0 && c.get("matched_on_post") > 0 && resolved == 0,
            format!(
                "unexpected-first but {} receives waited in the posted queue and {resolved} messages matched on arrival",
                c.get("posted")
            ),
        ),
        (Shape::Distinct, false) => require(
            conflicts == 0 && resolved > 0,
            format!("no-conflict workload but {conflicts} of {resolved} matches resolved a conflict"),
        ),
        (Shape::Conflict, false) => require(
            2 * conflicts > resolved,
            format!("conflict workload but only {conflicts} of {resolved} matches resolved a conflict"),
        ),
    }
    v
}

fn layer_counts(values: &mut Values, c: &Counters) {
    for (name, key) in [
        ("reliable.retransmits", "retransmits"),
        ("reliable.fast_retransmits", "fast_retransmits"),
        ("reliable.acks_received", "acks_received"),
        ("reliable.backoff_polls", "backoff_polls"),
        ("nic.wire_drops", "wire_drops"),
        ("nic.wire_duplicates", "wire_duplicates"),
        ("nic.wire_reorders", "wire_reorders"),
        ("nic.rx_duplicates", "rx_duplicates"),
        ("nic.rx_gaps", "rx_gaps"),
        ("nic.staged_out_of_order", "staged_out_of_order"),
        ("nic.stage_overflow", "stage_overflow"),
        ("nic.acks_sent", "acks_sent"),
        ("service.polls", "polls"),
        ("service.fallbacks", "fallbacks"),
        ("service.ring_backpressure", "ring_backpressure"),
        ("service.drain_retries", "drain_retries"),
        ("service.knob_changes", "knob_changes"),
        ("block.blocks", "blocks"),
    ] {
        values.set(name, c.get(key) as f64);
    }
    values.set(
        "nic.gate_parked_share",
        c.ratio("gate_parked", "gate_released"),
    );
    values.set("block.mean_occupancy", c.ratio("block_messages", "blocks"));
    let resolved = (c.get("path_nc") + c.get("path_wc_fp") + c.get("path_wc_sp")).max(1) as f64;
    values.set("block.path_nc_share", c.get("path_nc") as f64 / resolved);
    values.set(
        "block.path_wc_fp_share",
        c.get("path_wc_fp") as f64 / resolved,
    );
    values.set(
        "block.path_wc_sp_share",
        c.get("path_wc_sp") as f64 / resolved,
    );
    values.set(
        "block.unexpected_share",
        c.ratio("block_unexpected", "block_messages"),
    );
    let receives = (c.get("matched_on_post") + c.get("posted")).max(1) as f64;
    values.set(
        "block.matched_on_post_share",
        c.get("matched_on_post") as f64 / receives,
    );
    values.set(
        "block.mean_search_depth",
        c.ratio("search_depth_sum", "search_count"),
    );
    values.set(
        "block.mean_umq_depth",
        c.ratio("umq_depth_sum", "umq_search_count"),
    );
}

/// The clock-derived end-to-end metrics are stated at the reference
/// container's quiet speed (see `hostspeed`); the values as the clock read
/// them are kept beside them.
fn end_to_end(values: &mut Values, reps: &Reps, reps_host: &HostSpeed, wire: f64, setup: &SetUp) {
    let slow = reps_host.slowdown();
    let cpu_us = reps.cpu_s * 1e6 / reps.messages.max(1) as f64;
    values.set_summary("msg_rate", Summary::of(&reps.rate).scaled(slow));
    values.set_raw("msg_rate", median(&reps.rate));
    values.set("cpu_us_per_msg", cpu_us / slow);
    values.set_raw("cpu_us_per_msg", cpu_us);
    values.set("wire_packets_per_msg", wire);
    values.set("peak_rss_mb", reps.fixed_peak_rss_mib);
    values.set_summary(
        "setup_s",
        Summary::of(&setup.passes_s).scaled(1.0 / setup.host.slowdown()),
    );
    values.set_raw("setup_s", median(&setup.passes_s));
}

/// Median time of one `observability_snapshot()`, which the controller
/// calls every interval, at reference speed.
fn snapshot_us(svc: &MatchingService) -> f64 {
    let mut host = HostSpeed::start();
    let samples: Vec<f64> = (0..PROBE_PASSES)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(svc.observability_snapshot());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    host.sample();
    median(&samples) / host.slowdown()
}

pub fn run_stream(spec: StreamSpec, req: &Request, out_dir: &Path) -> Result<Run, String> {
    let rounds = if req.quick {
        (spec.rounds_per_rep / 50).max(1)
    } else {
        spec.rounds_per_rep
    };
    // A set-up pass: generate the input and its oracle, build the stack,
    // push a few rounds through it.
    let (setup, (stream, mut stack, generate)) = SetUp::run(|| {
        let start = Instant::now();
        let stream = Stream::generate(spec, req.seed, rounds);
        let generate = start.elapsed();
        let mut stack = Stack::build(&stream, Backend::Otm)?;
        let warm = stream.prefix(SETUP_WARM_ROUNDS);
        let rep = run_rep(&mut stack, &warm, &mut Tracer::new(false), &mut Vec::new())?;
        if count_correct(&warm, rep.first_recv, &rep.done, true) != warm.messages() as u64 {
            return Err("the set-up warm-up rounds did not match the oracle".into());
        }
        Ok((stream, stack, generate))
    })?;
    let per_rep = stream.messages() as u64;
    let mut values = Values::default();
    let mut off = Tracer::new(false);
    let mut no_latencies = Vec::new();
    // One whole untimed rep, so the first timed one meets warm allocators
    // and a settled feedback controller.
    let warm = run_rep(&mut stack, &stream, &mut off, &mut no_latencies)?;
    let warm_failed = per_rep - count_correct(&stream, warm.first_recv, &warm.done, true);
    drop(warm);

    let start_counts = stack.counters();
    let mut plain = Reps::default();
    let mut traced = Reps::default();
    let mut host = HostSpeed::start();

    if !req.traced {
        let deadline = Instant::now() + req.share(1.0);
        while req.more_reps(plain.rate.len(), deadline) {
            plain.stream_rep(req, &mut stack, &stream, &mut off, &mut no_latencies)?;
            host.sample();
        }
        let fixed = &plain.fixed_counts;
        let wire = (fixed.get("sent") + fixed.get("retransmits")) as f64
            / plain.fixed_messages(req, per_rep) as f64;
        end_to_end(&mut values, &plain, &host, wire, &setup);
    } else {
        // Plain and traced reps take turns, so that both meet the same
        // host conditions and their difference is the tracing.
        let mut tracer = Tracer::new(true);
        let mut latencies_us = Vec::new();
        let deadline = Instant::now() + req.share(REPS_SHARE);
        while req.more_reps(traced.rate.len(), deadline) {
            plain.stream_rep(req, &mut stack, &stream, &mut off, &mut no_latencies)?;
            host.sample();
            traced.stream_rep(req, &mut stack, &stream, &mut tracer, &mut latencies_us)?;
            host.sample();
        }
        tracer
            .write_jsonl(&out_dir.join(format!("{}.spans.jsonl", spec.name)))
            .map_err(|e| format!("writing the span file: {e}"))?;

        let slow = host.slowdown();
        let per_msg = |ns: f64| ns / traced.messages as f64 / slow;
        for (name, call) in [
            ("rdma.packet_build_ns_per_msg", Call::PacketBuild),
            ("reliable.send_ns_per_msg", Call::Send),
            ("reliable.poll_ns_per_msg", Call::SenderPoll),
            ("service.post_ns_per_msg", Call::Post),
            ("service.progress_ns_per_msg", Call::Progress),
            ("service.take_completed_ns_per_msg", Call::TakeCompleted),
        ] {
            values.set(name, per_msg(tracer.total_ns(call) as f64));
        }
        let rep_ns = traced.seconds.iter().sum::<f64>() * 1e9;
        values.set(
            "driver.self_ns_per_msg",
            per_msg(rep_ns - tracer.children_ns() as f64),
        );
        let (plain_rate, traced_rate) = (median(&plain.rate) * slow, median(&traced.rate) * slow);
        values.set(
            "driver.trace_overhead_pct",
            (plain_rate - traced_rate) / plain_rate * 100.0,
        );
        latencies_us.sort_by(f64::total_cmp);
        for (name, p) in [
            ("driver.latency_p50_us", 50.0),
            ("driver.latency_p99_us", 99.0),
            ("driver.latency_max_us", 100.0),
        ] {
            values.set(name, percentile_sorted(&latencies_us, p) / slow);
        }

        let (calls, empty) = traced.fixed_progress;
        values.set(
            "service.progress_calls_per_msg",
            calls as f64 / traced.fixed_messages(req, per_rep) as f64,
        );
        values.set(
            "service.empty_progress_share",
            empty as f64 / calls.max(1) as f64,
        );
        layer_counts(&mut values, &traced.fixed_counts);
        let (read, copied) = stream.computed_bytes();
        values.set(
            "protocol.rendezvous_share",
            f64::from(u8::from(stream.is_rendezvous())),
        );
        values.set("protocol.rdma_read_bytes_per_msg", read);
        values.set("protocol.eager_copy_bytes_per_msg", copied);

        let slice = if req.quick {
            Duration::ZERO
        } else {
            req.share(RUNGS_SHARE / rungs::TIMED_RUNGS as f64)
        };
        let r = rungs::run_all(&stream, slice)?;
        let otm = 1e9 / plain_rate;
        for (name, value) in [
            ("ladder.block_ns_per_msg", r.block),
            ("ladder.block_1lane_ns_per_msg", r.block_1lane),
            ("ladder.queue_ns_per_msg", r.queue),
            ("ladder.nic_ns_per_msg", r.nic),
            ("ladder.reliable_nic_ns_per_msg", r.reliable_nic),
            ("ladder.service_rdma_cpu_ns_per_msg", r.service_rdma_cpu),
            ("ladder.service_mpi_cpu_ns_per_msg", r.service_mpi_cpu),
            ("ladder.service_otm_ns_per_msg", otm),
            (
                "ladder.unexplained_ns_per_msg",
                otm - r.service_rdma_cpu - r.queue,
            ),
            ("ladder.otm_over_mpi_cpu", otm / r.service_mpi_cpu),
            ("ladder.otm_over_rdma_cpu", otm / r.service_rdma_cpu),
        ] {
            values.set(name, value);
        }

        values.set(
            "workloads.generate_s",
            generate.as_secs_f64() / setup.host.slowdown(),
        );
        values.set("metrics.snapshot_us", snapshot_us(&stack.svc));
    }

    let whole = stack.counters().since(&start_counts);
    Ok(Run {
        workload: spec.name.into(),
        seed: req.seed,
        seconds: req.seconds,
        traced: req.traced,
        nproc: sys::nproc(),
        reps: plain.rate.len() + traced.rate.len(),
        msgs_per_rep: per_rep,
        attempted: per_rep + plain.messages + traced.messages,
        failed: warm_failed + plain.failed + traced.failed,
        violations: stream_guards(&spec, &whole, stack.svc.fell_back()),
        values,
    })
}

pub fn run_app(spec: AppSpec, req: &Request) -> Result<Run, String> {
    // A set-up pass: generate the trace, cut it to the destination sample,
    // compute the oracle.
    let (setup, input) = SetUp::run(|| Ok(AppInput::prepare(&spec, req.seed, req.quick)))?;
    let mut values = Values::default();
    let mut violations = Vec::new();

    // One untimed replay; its report also provides the exact counts.
    let (_, warm) = input.replay()?;
    let warm_failed = input.messages - input.count_correct(&warm);
    let first = app::counters_of(&warm.report);
    drop(warm);

    let mut reps = Reps::default();
    let mut host = HostSpeed::start();
    let budget = if req.traced { REPS_SHARE } else { 1.0 };
    let deadline = Instant::now() + req.share(budget);
    while req.more_reps(reps.rate.len(), deadline) {
        let cpu = sys::cpu_seconds();
        let (elapsed, outcome) = input.replay()?;
        let cpu = sys::cpu_seconds() - cpu;
        host.sample();
        let failed = input.messages - input.count_correct(&outcome);
        reps.book(req, input.messages, failed, elapsed, cpu);
        let report = &outcome.report;
        if report.gate_released != input.messages {
            violations.push(format!(
                "the total-order gate released {} of {} messages",
                report.gate_released, input.messages
            ));
        }
        for (what, n) in [
            ("retransmits", report.retransmits),
            ("wire_drops", report.wire_drops),
            ("fallbacks", report.fallbacks),
        ] {
            if n > 0 {
                violations.push(format!("clean replay but {what} == {n}"));
            }
        }
    }

    if !req.traced {
        let wire = (first.get("sent") + first.get("retransmits")) as f64 / input.messages as f64;
        end_to_end(&mut values, &reps, &host, wire, &setup);
    } else {
        layer_counts(&mut values, &first);
        let dests = input.destinations.max(1) as f64;
        let per_msg = |total: f64| total / input.messages as f64;
        values.set(
            "protocol.rendezvous_share",
            first.ratio("rendezvous", "sent"),
        );
        values.set(
            "protocol.rdma_read_bytes_per_msg",
            per_msg(input.read_bytes as f64),
        );
        values.set(
            "protocol.eager_copy_bytes_per_msg",
            per_msg(input.copied_bytes as f64),
        );
        let setup_slow = setup.host.slowdown();
        values.set(
            "workloads.generate_s",
            input.generate.as_secs_f64() / setup_slow,
        );
        values.set(
            "app_replay.engine_direct_ns_per_msg",
            per_msg(input.engine_direct.as_nanos() as f64) / setup_slow,
        );
        values.set("app_replay.msgs_per_dest", input.messages as f64 / dests);
        values.set("app_replay.qps_per_dest", input.queue_pairs as f64 / dests);
        let mut probe_host = HostSpeed::start();
        let construct = input.construct_ns_per_dest(if req.quick { 2 } else { PROBE_PASSES });
        probe_host.sample();
        let construct = construct / probe_host.slowdown();
        let replay_ns = median(&reps.seconds) / host.slowdown() * 1e9;
        values.set("app_replay.construct_ns_per_dest", construct);
        values.set("app_replay.construct_share", construct * dests / replay_ns);
        let (svc, _senders) = input.build_mean_destination();
        values.set("metrics.snapshot_us", snapshot_us(&svc));
    }

    Ok(Run {
        workload: spec.name.into(),
        seed: req.seed,
        seconds: req.seconds,
        traced: req.traced,
        nproc: sys::nproc(),
        reps: reps.rate.len(),
        msgs_per_rep: input.messages,
        attempted: input.messages + reps.messages,
        failed: warm_failed + reps.failed,
        violations,
        values,
    })
}
