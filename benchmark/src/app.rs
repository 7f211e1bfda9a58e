//! The `app_*` workloads: a Table II trace replayed end to end by
//! `dpa_sim::app_replay::replay_app`, checked against `engine_direct_pairs`.
//!
//! `replay_app` is opaque from here: it builds a fresh engine (worker pool
//! included), NIC, queue pairs and service for every destination rank. What
//! that construction costs is timed separately, from outside, by building
//! and dropping the same objects.

use crate::stats::median;
use crate::stream::Counters;
use dpa_sim::app_replay::{
    engine_direct_pairs, replay_app, AppReplayConfig, AppReplayOutcome, AppReplayReport,
    MatchedPair, MAX_PAYLOAD_BYTES,
};
use dpa_sim::bounce::BouncePool;
use dpa_sim::nic::RecvNic;
use dpa_sim::rdma::{connected_pair, RdmaDomain};
use dpa_sim::{FeedbackController, MatchingService, ReliableSender};
use otm::OtmEngine;
use otm_base::{FaultRng, MatchConfig};
use otm_trace::model::{AppTrace, MpiOp, RankTrace};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
pub struct AppSpec {
    pub name: &'static str,
    /// Table II name in `otm_workloads::catalog()`.
    pub app: &'static str,
    /// Replay only this many destination ranks, drawn from the seed; `None`
    /// replays them all. Frozen, like the streams' rep sizes: it is what
    /// keeps a rep near half a second.
    pub destinations: Option<usize>,
}

pub const APPS: [AppSpec; 2] = [
    AppSpec {
        name: "app_lulesh",
        app: "LULESH",
        destinations: None,
    },
    // All 1024 BigFFT ranks receive the same 62 rendezvous messages from 62
    // peers, so a seeded quarter of them is the same workload at a quarter
    // of the rep time (a whole replay takes 4 s on the reference container).
    AppSpec {
        name: "app_bigfft",
        app: "BigFFT",
        destinations: Some(256),
    },
];

/// Everything set-up produces: the input, the oracle and the input's shape.
pub struct AppInput {
    pub trace: AppTrace,
    pub oracle: Vec<MatchedPair>,
    pub messages: u64,
    pub posts: u64,
    /// Destination ranks that receive at least one message.
    pub destinations: usize,
    /// Distinct (destination, source) pairs: one queue pair each.
    pub queue_pairs: usize,
    /// Payload bytes that travel by RDMA READ and by eager copy, summed
    /// over all messages from their sizes (computed, not measured).
    pub read_bytes: u64,
    pub copied_bytes: u64,
    pub generate: Duration,
    pub engine_direct: Duration,
}

/// Keeps the receives posted by `keep` and the sends addressed to them.
fn keep_destinations(trace: &AppTrace, keep: &BTreeSet<u32>) -> AppTrace {
    AppTrace {
        name: trace.name.clone(),
        ranks: trace
            .ranks
            .iter()
            .map(|r| RankTrace {
                rank: r.rank,
                ops: r
                    .ops
                    .iter()
                    .filter(|t| match t.op {
                        MpiOp::Irecv { .. } | MpiOp::Recv { .. } => keep.contains(&r.rank.0),
                        MpiOp::Isend { dest, .. } | MpiOp::Send { dest, .. } => {
                            keep.contains(&dest.0)
                        }
                        _ => false,
                    })
                    .copied()
                    .collect(),
            })
            .collect(),
    }
}

/// `count` of the trace's ranks, drawn without replacement from `seed`.
fn sample_ranks(trace: &AppTrace, seed: u64, count: usize) -> BTreeSet<u32> {
    let mut ranks: Vec<u32> = trace.ranks.iter().map(|r| r.rank.0).collect();
    let mut rng = FaultRng::new(seed);
    let count = count.min(ranks.len());
    for i in 0..count {
        let j = i + rng.below((ranks.len() - i) as u64) as usize;
        ranks.swap(i, j);
    }
    ranks[..count].iter().copied().collect()
}

impl AppInput {
    /// Generates the trace from `seed`, cuts it to the spec's destination
    /// sample (a fiftieth of it under `quick`) and computes the oracle.
    pub fn prepare(spec: &AppSpec, seed: u64, quick: bool) -> AppInput {
        let start = Instant::now();
        let entry = otm_workloads::catalog()
            .into_iter()
            .find(|a| a.name == spec.app)
            .expect("the Table II catalog names every app workload");
        let full = (entry.generate)(seed);
        let sample = match (spec.destinations, quick) {
            (Some(n), false) => Some(n),
            (Some(n), true) => Some((n / 50).max(2)),
            (None, true) => Some((full.processes() / 50).max(2)),
            (None, false) => None,
        };
        let trace = match sample {
            Some(n) => keep_destinations(&full, &sample_ranks(&full, seed, n)),
            None => full,
        };
        let generate = start.elapsed();

        let start = Instant::now();
        let oracle = engine_direct_pairs(&trace, AppReplayConfig::default().bins);
        let engine_direct = start.elapsed();

        let mut pairs = BTreeSet::new();
        let (mut messages, mut posts) = (0u64, 0u64);
        let (mut read_bytes, mut copied_bytes) = (0u64, 0u64);
        let cfg = AppReplayConfig::default();
        for r in &trace.ranks {
            for t in &r.ops {
                match t.op {
                    MpiOp::Isend { dest, count, .. } | MpiOp::Send { dest, count, .. } => {
                        messages += 1;
                        pairs.insert((dest.0, r.rank.0));
                        // `replay_app` sizes a payload as the element count,
                        // clamped to hold the message id and to its ceiling.
                        let len = count.clamp(8, MAX_PAYLOAD_BYTES as u64);
                        let inline = if len <= cfg.eager_max as u64 {
                            len
                        } else {
                            cfg.piggyback as u64
                        };
                        copied_bytes += inline;
                        read_bytes += len - inline;
                    }
                    MpiOp::Irecv { .. } | MpiOp::Recv { .. } => posts += 1,
                    _ => {}
                }
            }
        }
        let destinations = pairs.iter().map(|(d, _)| d).collect::<BTreeSet<_>>().len();
        AppInput {
            trace,
            oracle,
            messages,
            posts,
            destinations,
            queue_pairs: pairs.len(),
            read_bytes,
            copied_bytes,
            generate,
            engine_direct,
        }
    }

    /// One timed replay; the outcome is inspected after the clock stops.
    pub fn replay(&self) -> Result<(Duration, AppReplayOutcome), String> {
        let start = Instant::now();
        let outcome = replay_app(&self.trace, &AppReplayConfig::default())
            .map_err(|e| format!("service error: {e}"))?;
        Ok((start.elapsed(), outcome))
    }

    /// Messages whose outcome agrees with the oracle: every pair only one
    /// side formed costs one. A destination that fell back to software
    /// matching measured the wrong matcher, so nothing of that replay counts.
    pub fn count_correct(&self, outcome: &AppReplayOutcome) -> u64 {
        if outcome.report.fallbacks > 0 {
            return 0;
        }
        let want: BTreeSet<&MatchedPair> = self.oracle.iter().collect();
        let got: BTreeSet<&MatchedPair> = outcome.matched_pairs.iter().collect();
        let wrong = want.symmetric_difference(&got).count() as u64;
        self.messages.saturating_sub(wrong)
    }

    /// A destination of this input's mean shape, built as `replay_app`
    /// builds each of its destinations.
    pub fn build_mean_destination(&self) -> (MatchingService, Vec<ReliableSender>) {
        let per_dest = |total: usize| (total / self.destinations.max(1)).max(1);
        build_destination(
            per_dest(self.queue_pairs),
            per_dest(self.posts as usize),
            per_dest(self.messages as usize),
        )
    }

    /// Median time to build and drop what `replay_app` builds for one
    /// destination: engine (and its worker pool), NIC with one queue pair
    /// per source behind the total-order gate, their senders, the service.
    pub fn construct_ns_per_dest(&self, passes: usize) -> f64 {
        let samples: Vec<f64> = (0..passes)
            .map(|_| {
                let start = Instant::now();
                drop(self.build_mean_destination());
                start.elapsed().as_nanos() as f64
            })
            .collect();
        median(&samples)
    }
}

/// One destination's objects, as `replay_app` constructs them.
fn build_destination(
    qps: usize,
    posts: usize,
    arrivals: usize,
) -> (MatchingService, Vec<ReliableSender>) {
    let cfg = AppReplayConfig::default();
    let pool = BouncePool::new(arrivals.clamp(64, 8192), cfg.eager_max.max(cfg.piggyback));
    let (tx, rx) = connected_pair();
    let mut nic = RecvNic::new(rx, pool);
    let mut peers = vec![tx];
    for _ in 1..qps {
        let (tx, rx) = connected_pair();
        nic.add_qp(rx);
        peers.push(tx);
    }
    nic.enable_total_order();
    let config = MatchConfig::default()
        .with_bins(cfg.bins)
        .with_max_receives(posts)
        .with_max_unexpected(arrivals);
    let engine = OtmEngine::new(config).expect("replay_app's engine configuration is valid");
    let mut svc = MatchingService::with_backend(nic, RdmaDomain::new(), Box::new(engine));
    svc.enable_command_queue()
        .expect("the offloaded engine has a command queue");
    svc.attach_controller(FeedbackController::with_defaults());
    let senders = peers
        .into_iter()
        .map(|qp| {
            let mut s = ReliableSender::new(qp);
            s.attach_metrics(svc.metrics().clone());
            s
        })
        .collect();
    (svc, senders)
}

/// A replay's report under the counter names the streams use.
pub fn counters_of(report: &AppReplayReport) -> Counters {
    let mut c = Counters::default();
    for (key, n) in [
        ("sent", report.messages),
        ("retransmits", report.retransmits),
        ("fast_retransmits", report.fast_retransmits),
        ("acks_received", report.acks_received),
        ("backoff_polls", report.backoff_polls),
        ("wire_drops", report.wire_drops),
        ("wire_duplicates", report.wire_duplicates),
        ("wire_reorders", report.wire_reorders),
        ("rx_duplicates", report.rx_duplicates),
        ("rx_gaps", report.rx_gaps),
        ("staged_out_of_order", report.rx_staged_out_of_order),
        ("acks_sent", report.acks_sent),
        ("gate_parked", report.gate_parked),
        ("gate_released", report.gate_released),
        ("fallbacks", report.fallbacks),
        ("path_nc", report.path_nc),
        ("path_wc_fp", report.path_wc_fp),
        ("path_wc_sp", report.path_wc_sp),
        ("rendezvous", report.rendezvous_messages),
    ] {
        c.add(key, n);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sample_other_seed_other_sample() {
        let spec = &APPS[1];
        let a = AppInput::prepare(spec, 3, true);
        let b = AppInput::prepare(spec, 3, true);
        let c = AppInput::prepare(spec, 4, true);
        assert_eq!(a.trace, b.trace);
        assert_ne!(a.trace, c.trace);
        assert_eq!(a.destinations, 5);
        assert_eq!(a.messages, 5 * 62);
        assert_eq!(a.queue_pairs, 5 * 62);
    }

    #[test]
    fn a_replay_is_all_correct_and_a_corrupted_pair_is_not() {
        let input = AppInput::prepare(&APPS[0], 1, true);
        let (_, mut outcome) = input.replay().unwrap();
        assert_eq!(input.count_correct(&outcome), input.messages);
        assert_eq!(outcome.report.gate_released, input.messages);
        outcome.matched_pairs[0].2 ^= 1;
        assert!(input.count_correct(&outcome) < input.messages);
        outcome.matched_pairs[0].2 ^= 1;
        outcome.report.fallbacks = 1;
        assert_eq!(input.count_correct(&outcome), 0);
    }
}
