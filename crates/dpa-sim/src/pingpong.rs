//! The Fig. 8 message-rate harness.
//!
//! "We run a ping-pong benchmark, where a node sends a sequence of k = 100
//! messages to its peer. Once the peer receives (and matches) all messages
//! in a sequence, it replies with an acknowledgment. We measure the message
//! rate as k divided by the time from when the first message is sent to when
//! the acknowledgment is received. For each run, we repeat the sequence 500
//! times. We test two main scenarios: all posted receives have different
//! source rank and tag combination (no-conflict, NC), or all receives have
//! the same source rank and tag (with-conflict, WC)."
//!
//! The WC scenario is run twice against the offloaded engine: with the fast
//! conflict-resolution path enabled (WC-FP) and disabled (WC-SP).
//!
//! Both nodes are stepped on the caller's thread, closed-loop. Per sequence
//! the receiver posts its k receives and calls `progress` once, so every
//! series applies its posts before the clock starts (the offloaded engine
//! takes a post as a command, applied at the next drain). Then the clock
//! runs: the sender sends k packets, the receiver calls `progress` until k
//! receives complete and sends the ack, and the sender takes it. The rate
//! is k over the median sequence's time. The wall clock is the stack's own
//! work, not the host's thread wake-ups, and the engine's counters are a
//! function of `k` and the scenario: a sequence arrives whole, so it runs
//! as ⌈k / block_threads⌉ blocks.

use crate::bounce::BouncePool;
use crate::memory::DeviceMemory;
use crate::nic::RecvNic;
use crate::rdma::{connected_pair, eager_packet, Frame, QueuePair, RdmaDomain};
use crate::service::MatchingService;
use otm_base::{Envelope, MatchConfig, Rank, ReceivePattern, Tag};
use otm_metrics::{json_fields, RegistrySnapshot, SeriesRecorder};
use std::time::{Duration, Instant};

/// Receive/message scenario of Fig. 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Every receive has a distinct `(src, tag)` combination — the
    /// best case for optimistic matching (receives spread over the bins).
    NoConflict,
    /// Every receive has the same `(src, tag)` — maximal conflict pressure.
    WithConflict,
}

/// Matching backend under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchMode {
    /// Offloaded optimistic matching; `fast_path` selects WC-FP vs WC-SP in
    /// the with-conflict scenario.
    OptimisticDpa {
        /// Enable the fast conflict-resolution path.
        fast_path: bool,
    },
    /// Traditional linked-list matching on the host CPU.
    MpiCpu,
    /// No matching: raw transport ceiling.
    RdmaCpu,
}

impl MatchMode {
    /// The Fig. 8 series label for this mode/scenario combination.
    pub(crate) fn label(&self, scenario: Scenario) -> &'static str {
        match (self, scenario) {
            (MatchMode::OptimisticDpa { .. }, Scenario::NoConflict) => "Optimistic-DPA NC",
            (MatchMode::OptimisticDpa { fast_path: true }, Scenario::WithConflict) => {
                "Optimistic-DPA WC-FP"
            }
            (MatchMode::OptimisticDpa { fast_path: false }, Scenario::WithConflict) => {
                "Optimistic-DPA WC-SP"
            }
            (MatchMode::MpiCpu, _) => "MPI-CPU",
            (MatchMode::RdmaCpu, _) => "RDMA-CPU",
        }
    }
}

/// Harness parameters (defaults are the paper's §VI settings).
#[derive(Debug, Clone)]
pub struct PingPongConfig {
    /// Messages per sequence (paper: 100).
    pub k: usize,
    /// Sequence repetitions (paper: 500).
    pub repeats: usize,
    /// Eager payload bytes (small messages).
    pub payload: usize,
    /// Receive scenario.
    pub scenario: Scenario,
    /// Maximum in-flight receives the engine is configured for
    /// (paper: 1024; hash tables are sized at twice this).
    pub inflight: usize,
    /// Block threads for the offloaded engine (paper: 32).
    pub block_threads: usize,
}

impl Default for PingPongConfig {
    fn default() -> Self {
        PingPongConfig {
            k: 100,
            repeats: 500,
            payload: 8,
            scenario: Scenario::NoConflict,
            inflight: 1024,
            block_threads: 32,
        }
    }
}

/// Result of one harness run.
#[derive(Debug, Clone)]
pub struct PingPongResult {
    /// Series label ("Optimistic-DPA NC", "MPI-CPU", ...).
    pub label: String,
    /// Messages matched per second in the median sequence: k over its time
    /// from the first send to the ack. The median, not the mean, so a
    /// sequence the host preempted does not move the figure.
    pub msgs_per_sec: f64,
    /// Total messages exchanged.
    pub(crate) total_messages: u64,
    /// Total measured time (sum of per-sequence times).
    pub(crate) elapsed: Duration,
    /// Engine statistics for offloaded runs (verifies which path ran).
    pub engine_stats: Option<otm::StatsSnapshot>,
    /// Combined observability snapshot (service queue gauges + engine
    /// histograms and path counters). Harnesses that report it elsewhere
    /// move it out of the row. The name is the row's JSON key, kept from
    /// when this was a rendered string.
    pub observability_json: Option<RegistrySnapshot>,
}

// One Fig. 8 series row; `elapsed` is `{"secs":..,"nanos":..}`.
json_fields!(PingPongResult: label, msgs_per_sec, total_messages, elapsed, engine_stats,
    observability_json);

/// The receive pattern lane `i` of a sequence posts under the scenario.
fn pattern_for(scenario: Scenario, i: usize) -> ReceivePattern {
    match scenario {
        Scenario::NoConflict => ReceivePattern::exact(Rank(0), Tag(i as u32)),
        Scenario::WithConflict => ReceivePattern::exact(Rank(0), Tag(0)),
    }
}

/// The envelope of message `i` of a sequence under the scenario.
fn envelope_for(scenario: Scenario, i: usize) -> Envelope {
    match scenario {
        Scenario::NoConflict => Envelope::world(Rank(0), Tag(i as u32)),
        Scenario::WithConflict => Envelope::world(Rank(0), Tag(0)),
    }
}

/// Runs the ping-pong benchmark and returns the measured message rate.
pub fn run_pingpong(mode: MatchMode, cfg: &PingPongConfig) -> PingPongResult {
    let mut run = PingPong::new(mode, cfg);
    run.sequences(cfg.repeats);
    run.finish()
}

/// One Fig. 8 series, stepped a sequence at a time: both nodes' endpoints
/// and the times of the sequences run so far. Harnesses that measure
/// several series let them take turns, so a change in the host's speed
/// moves them all alike.
pub struct PingPong {
    mode: MatchMode,
    scenario: Scenario,
    k: usize,
    sender: QueuePair,
    service: MatchingService,
    payload: Vec<u8>,
    times: Vec<Duration>,
    /// The service's series, when [`PingPong::attach_series`] asked for one.
    series: Option<SeriesRecorder>,
}

impl PingPong {
    /// Connects the two nodes for `mode` under `cfg` (its `repeats` only
    /// sizes the record of sequence times).
    pub fn new(mode: MatchMode, cfg: &PingPongConfig) -> Self {
        assert!(cfg.k > 0 && cfg.repeats > 0);
        let (sender, receiver_qp) = connected_pair();
        let domain = RdmaDomain::new();
        // The CQ/bounce pool must absorb a full sequence burst.
        let nic = RecvNic::new(receiver_qp, BouncePool::new(cfg.k * 2, cfg.payload.max(64)));
        let service = match mode {
            MatchMode::OptimisticDpa { fast_path } => {
                let config = MatchConfig::default()
                    .with_max_receives(cfg.inflight)
                    .with_max_unexpected(cfg.inflight)
                    .with_bins(2 * cfg.inflight)
                    .with_block_threads(cfg.block_threads)
                    .with_fast_path(fast_path);
                let mut budget = DeviceMemory::bluefield3_l3();
                MatchingService::offloaded(nic, domain, config, &mut budget)
                    .expect("prototype configuration fits the DPA budget")
            }
            MatchMode::MpiCpu => MatchingService::mpi_cpu(nic, domain),
            MatchMode::RdmaCpu => MatchingService::rdma_cpu(nic, domain),
        };
        PingPong {
            mode,
            scenario: cfg.scenario,
            k: cfg.k,
            sender,
            service,
            payload: vec![0u8; cfg.payload],
            times: Vec::with_capacity(cfg.repeats),
            series: None,
        }
    }

    /// Samples the service into a series on its poll clock at `cadence`,
    /// once a sequence's ack is in: outside the sequence's timed window.
    pub fn attach_series(&mut self, cadence: u64) {
        self.series = Some(SeriesRecorder::new(cadence));
    }

    /// The attached series with a terminal point, detached; `None` when
    /// [`PingPong::attach_series`] was never called.
    pub fn finish_series(&mut self) -> Option<SeriesRecorder> {
        let mut series = self.series.take()?;
        let snap = self.service.observability_snapshot();
        series.force_sample(self.service.polls(), self.service.backlog(), &snap);
        Some(series)
    }

    /// The service's span ring (see [`MatchingService::span_recorder`]).
    #[cfg(feature = "trace-events")]
    pub fn span_recorder(&self) -> &otm_metrics::SpanRecorder {
        self.service.span_recorder()
    }

    /// Runs `n` sequences.
    pub fn sequences(&mut self, n: usize) {
        let (k, scenario) = (self.k, self.scenario);
        let ack_env = Envelope::world(Rank(1), Tag(u32::MAX));
        for _ in 0..n {
            if !matches!(self.mode, MatchMode::RdmaCpu) {
                for i in 0..k {
                    let posted = self.service.post_recv(pattern_for(scenario, i));
                    posted.expect("post_recv");
                }
            }
            // Applies the posts; nothing has been sent, so nothing completes.
            self.service.progress().expect("progress");
            let start = Instant::now();
            for i in 0..k {
                let packet = eager_packet(envelope_for(scenario, i), self.payload.clone());
                self.sender.send(packet).expect("send");
            }
            let mut done = 0usize;
            while done < k {
                done += self.service.progress().expect("progress");
            }
            self.service.take_completed();
            let ack = eager_packet(ack_env, Vec::new());
            self.service.nic().qp().send(ack).expect("ack");
            let ack = self.sender.try_recv();
            assert!(matches!(ack, Ok(Some(Frame::Data(_)))), "no ack: {ack:?}");
            self.times.push(start.elapsed());
            if let Some(series) = &mut self.series {
                let polls = self.service.polls();
                if series.due(polls) {
                    let snap = self.service.observability_snapshot();
                    series.sample(polls, self.service.backlog(), &snap);
                }
            }
        }
    }

    /// The series' result over the sequences run; panics if none ran.
    pub fn finish(mut self) -> PingPongResult {
        self.times.sort_unstable();
        let median = self.times[self.times.len() / 2];
        PingPongResult {
            label: self.mode.label(self.scenario).to_string(),
            msgs_per_sec: self.k as f64 / median.as_secs_f64(),
            total_messages: (self.k * self.times.len()) as u64,
            elapsed: self.times.iter().sum(),
            engine_stats: self.service.engine_stats(),
            observability_json: Some(self.service.observability_snapshot()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_cover_all_figure_8_series() {
        assert_eq!(
            MatchMode::OptimisticDpa { fast_path: true }.label(Scenario::NoConflict),
            "Optimistic-DPA NC"
        );
        assert_eq!(
            MatchMode::OptimisticDpa { fast_path: true }.label(Scenario::WithConflict),
            "Optimistic-DPA WC-FP"
        );
        assert_eq!(
            MatchMode::OptimisticDpa { fast_path: false }.label(Scenario::WithConflict),
            "Optimistic-DPA WC-SP"
        );
        assert_eq!(MatchMode::MpiCpu.label(Scenario::NoConflict), "MPI-CPU");
        assert_eq!(MatchMode::RdmaCpu.label(Scenario::NoConflict), "RDMA-CPU");
    }

    /// The golden Fig. 8 series row: key names and order, `elapsed` as
    /// seconds + nanoseconds, absent stats and snapshot as `null`.
    #[test]
    fn result_json_pins_keys_and_order() {
        let mut row = PingPongResult {
            label: "MPI-CPU".to_string(),
            msgs_per_sec: 2500.5,
            total_messages: 100,
            elapsed: Duration::new(1, 250),
            engine_stats: None,
            observability_json: None,
        };
        let render = |row: &PingPongResult| {
            use otm_metrics::json::{JsonWriter, WriteJson};
            let mut w = JsonWriter::new();
            row.write_json(&mut w);
            w.finish()
        };
        assert_eq!(
            render(&row),
            concat!(
                r#"{"label":"MPI-CPU","msgs_per_sec":2500.5,"total_messages":100,"#,
                r#""elapsed":{"secs":1,"nanos":250},"engine_stats":null,"#,
                r#""observability_json":null}"#
            )
        );
        row.engine_stats = Some(otm::StatsSnapshot {
            blocks: 4,
            search_depth_max: 7,
            ..Default::default()
        });
        assert!(render(&row).contains(concat!(
            r#""engine_stats":{"blocks":4,"messages":0,"matched":0,"unexpected":0,"#,
            r#""optimistic_ok":0,"direct_conflicts":0,"induced_resolutions":0,"#,
            r#""fast_path":0,"slow_path":0,"search_depth_sum":0,"search_count":0,"#,
            r#""search_depth_max":7,"matched_on_post":0,"posted":0,"umq_depth_sum":0,"#,
            r#""umq_search_count":0},"#
        )));
    }

    /// Fig. 8 at the paper's k = 100 and block width 32, three sequences.
    fn fig8(mode: MatchMode, scenario: Scenario) -> PingPongResult {
        let cfg = PingPongConfig {
            repeats: 3,
            scenario,
            ..Default::default()
        };
        let r = run_pingpong(mode, &cfg);
        assert_eq!(r.total_messages, 300);
        assert!(r.msgs_per_sec > 0.0, "{}: rate must be positive", r.label);
        r
    }

    /// On one thread the engine's counters are a function of k and the
    /// scenario: a sequence of 100 arrives whole and runs as 4 blocks (32,
    /// 32, 32, 4). Under NC every lane books its own receive; under WC lane
    /// 0 of each block books the receive and the other 96 of the sequence
    /// conflict, resolved on the fast path (WC-FP) or the slow path
    /// (WC-SP). Literals recorded from the first one-thread run.
    #[test]
    fn fig8_engine_counts_are_exact_and_repeat() {
        let dpa = |fast_path, scenario| {
            fig8(MatchMode::OptimisticDpa { fast_path }, scenario)
                .engine_stats
                .expect("offloaded run reports stats")
        };
        let nc = dpa(true, Scenario::NoConflict);
        let fp = dpa(true, Scenario::WithConflict);
        let sp = dpa(false, Scenario::WithConflict);
        for s in [&nc, &fp, &sp] {
            let shape = (s.blocks, s.messages, s.matched, s.unexpected, s.posted);
            assert_eq!(shape, (12, 300, 300, 0, 300), "{s:?}");
        }
        let split = |s: &otm::StatsSnapshot| {
            (
                s.optimistic_ok,
                s.direct_conflicts,
                s.fast_path,
                s.slow_path,
            )
        };
        assert_eq!(split(&nc), (300, 0, 0, 0));
        assert_eq!(split(&fp), (12, 288, 288, 0));
        assert_eq!(split(&sp), (12, 288, 0, 288));
        assert_eq!(dpa(true, Scenario::NoConflict), nc);
        assert_eq!(dpa(true, Scenario::WithConflict), fp);
        assert_eq!(dpa(false, Scenario::WithConflict), sp);
    }

    #[test]
    fn host_series_complete_and_report_no_engine() {
        for mode in [MatchMode::MpiCpu, MatchMode::RdmaCpu] {
            assert_eq!(fig8(mode, Scenario::NoConflict).engine_stats, None);
        }
    }
}
