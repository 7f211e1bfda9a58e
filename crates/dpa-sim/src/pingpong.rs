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

use crate::bounce::BouncePool;
use crate::memory::DeviceMemory;
use crate::nic::RecvNic;
use crate::rdma::{connected_pair, eager_packet, RdmaDomain};
use crate::service::MatchingService;
use otm_base::{Envelope, MatchConfig, Rank, ReceivePattern, Tag};
use otm_metrics::{json_fields, RegistrySnapshot};
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
    pub fn label(&self, scenario: Scenario) -> &'static str {
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
    /// Messages matched per second.
    pub msgs_per_sec: f64,
    /// Total messages exchanged.
    pub total_messages: u64,
    /// Total measured time (sum of per-sequence times).
    pub elapsed: Duration,
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
    assert!(cfg.k > 0 && cfg.repeats > 0);
    let (sender_qp, receiver_qp) = connected_pair();
    let domain = RdmaDomain::new();
    // The CQ/bounce pool must absorb a full sequence burst.
    let nic = RecvNic::new(receiver_qp, BouncePool::new(cfg.k * 2, cfg.payload.max(64)));
    let mut service = match mode {
        MatchMode::OptimisticDpa { fast_path } => {
            let config = MatchConfig::default()
                .with_max_receives(cfg.inflight)
                .with_max_unexpected(cfg.inflight)
                .with_bins(2 * cfg.inflight)
                .with_block_threads(cfg.block_threads)
                .with_fast_path(fast_path);
            let mut budget = DeviceMemory::bluefield3_l3();
            MatchingService::offloaded(nic, domain.clone(), config, &mut budget)
                .expect("prototype configuration fits the DPA budget")
        }
        MatchMode::MpiCpu => MatchingService::mpi_cpu(nic, domain.clone()),
        MatchMode::RdmaCpu => MatchingService::rdma_cpu(nic, domain.clone()),
    };

    let scenario = cfg.scenario;
    let k = cfg.k;
    let repeats = cfg.repeats;
    let payload = vec![0u8; cfg.payload];
    let ack_env = Envelope::world(Rank(1), Tag(u32::MAX));

    let mut elapsed = Duration::ZERO;
    let mut engine_stats = None;
    let mut observability_json = None;
    std::thread::scope(|scope| {
        // Receiver node: post the sequence's receives, signal readiness,
        // match the burst, acknowledge.
        scope.spawn(|| {
            for _ in 0..repeats {
                let mut posted = 0usize;
                if !matches!(mode, MatchMode::RdmaCpu) {
                    for i in 0..k {
                        service
                            .post_recv(pattern_for(scenario, i))
                            .expect("post_recv");
                        posted += 1;
                    }
                }
                let _ = posted;
                // Ready: the sender may fire the sequence.
                service
                    .nic()
                    .qp()
                    .send(eager_packet(ack_env, Vec::new()))
                    .expect("ready");
                let mut done = 0usize;
                while done < k {
                    done += service.progress().expect("progress");
                    if done < k {
                        // Let the sender run: the simulation host may have
                        // far fewer cores than a real two-node setup.
                        std::thread::yield_now();
                    }
                }
                service.take_completed();
                // Acknowledge the completed sequence.
                service
                    .nic()
                    .qp()
                    .send(eager_packet(ack_env, Vec::new()))
                    .expect("ack");
            }
            engine_stats = service.engine_stats();
            observability_json = Some(service.observability_snapshot());
        });

        // Sender node (measuring side).
        for _ in 0..repeats {
            sender_qp.recv().expect("ready"); // receiver is armed
            let start = Instant::now();
            for i in 0..k {
                sender_qp
                    .send(eager_packet(envelope_for(scenario, i), payload.clone()))
                    .expect("send");
            }
            sender_qp.recv().expect("ack");
            elapsed += start.elapsed();
        }
    });

    let total_messages = (k * repeats) as u64;
    PingPongResult {
        label: mode.label(scenario).to_string(),
        msgs_per_sec: total_messages as f64 / elapsed.as_secs_f64(),
        total_messages,
        elapsed,
        engine_stats,
        observability_json,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(scenario: Scenario) -> PingPongConfig {
        PingPongConfig {
            k: 32,
            repeats: 5,
            scenario,
            block_threads: 8,
            ..Default::default()
        }
    }

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

    #[test]
    fn all_modes_complete_a_short_run() {
        for mode in [
            MatchMode::OptimisticDpa { fast_path: true },
            MatchMode::MpiCpu,
            MatchMode::RdmaCpu,
        ] {
            let r = run_pingpong(mode, &quick(Scenario::NoConflict));
            assert_eq!(r.total_messages, 32 * 5);
            assert!(r.msgs_per_sec > 0.0, "{}: rate must be positive", r.label);
        }
    }

    #[test]
    fn wc_runs_complete_with_both_resolution_paths() {
        for fast_path in [true, false] {
            let r = run_pingpong(
                MatchMode::OptimisticDpa { fast_path },
                &quick(Scenario::WithConflict),
            );
            assert_eq!(r.total_messages, 32 * 5);
            let stats = r.engine_stats.expect("offloaded run reports stats");
            assert_eq!(stats.matched, 32 * 5, "every message must match: {stats:?}");
            if !fast_path {
                assert_eq!(stats.fast_path, 0, "WC-SP must never take the fast path");
            }
        }
    }

    #[test]
    fn nc_runs_mostly_avoid_conflicts() {
        let r = run_pingpong(
            MatchMode::OptimisticDpa { fast_path: true },
            &quick(Scenario::NoConflict),
        );
        let stats = r.engine_stats.unwrap();
        assert_eq!(stats.unexpected, 0, "receives are pre-posted: {stats:?}");
        assert_eq!(
            stats.direct_conflicts, 0,
            "distinct (src, tag) receives cannot conflict: {stats:?}"
        );
    }
}
