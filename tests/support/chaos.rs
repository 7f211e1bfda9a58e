//! Shared harness for the fault-injection chaos oracle, used by the seeded
//! deterministic tests (`tests/fault_chaos.rs`) and the chaos property
//! (`tests/properties.rs`).
//!
//! The oracle: running a random multi-communicator post/send stream over a
//! hostile wire (drops, duplicates, reorders, delays — recovered by the
//! selective-repeat reliability protocol) must produce *exactly* the
//! matched (receive, message) pairs of the same stream over a perfect
//! wire, plus the same residual unexpected-store population. The receive
//! NIC's staging buffer holds out-of-order packets (or, at capacity 0,
//! discards every one of them) but delivery to the engine stays strictly
//! in-sequence, so the invariant holds by construction — these tests are
//! the proof.
//!
//! The stream is phased: each phase posts a batch of receives, then sends a
//! batch of messages, then drains the wire to quiescence. Posts of a phase
//! precede its arrivals in both runs (faults can only delay packets, never
//! deliver them early, and the quiescence barrier keeps a phase's traffic
//! out of the next phase), so the matcher observes the same post/arrival
//! order in both runs — which is what makes pair-for-pair equality a fair
//! oracle rather than an MPI-legal-race coin flip.

use dpa_sim::bounce::BouncePool;
use dpa_sim::nic::RecvNic;
use dpa_sim::rdma::{connected_pair, eager_packet, RdmaDomain};
use dpa_sim::{DeviceMemory, MatchingService, ReliableSender};
use otm_base::envelope::SourceSel;
use otm_base::{CommId, Envelope, FaultPlan, FaultRng, MatchConfig, Rank, ReceivePattern, Tag};

/// One phase of the chaos workload: receives posted first, messages sent
/// after.
pub struct Phase {
    pub posts: Vec<ReceivePattern>,
    pub sends: Vec<(Envelope, Vec<u8>)>,
}

/// What one run of the workload observed — the oracle compares these
/// between the faulty and the fault-free run.
#[derive(Debug, PartialEq, Eq)]
pub struct RunOutcome {
    /// Every completed receive as (receive id, matched envelope, payload),
    /// in completion order. Payloads encode the message index, so equality
    /// here is matched-*pair* equality, not just equal counts.
    pub completed: Vec<(u64, Envelope, Vec<u8>)>,
    /// Messages left in the unexpected store when the wire quiesced.
    pub unexpected: usize,
}

/// Counters proving the faulty run actually was faulty.
pub struct ChaosEvidence {
    pub injected_faults: u64,
    pub retransmits: u64,
    /// Out-of-order packets parked in the receive NIC's staging buffer
    /// over the run — nonzero proves the staging buffer was exercised
    /// (always zero at staging capacity 0).
    pub staged_out_of_order: u64,
    /// Out-of-order packets discarded because the staging buffer was full
    /// or has zero capacity.
    pub stage_overflow: u64,
    /// Flight-recorder loss summed across the run: `otm_span_dropped_total`
    /// plus `dpa_span_dropped_total`, which only a build with `--features
    /// dpa-sim/trace-events` registers (0 otherwise). The chaos workloads
    /// are sized well inside the ring capacities, so a nonzero value means
    /// the recorder lost events it should have retained.
    pub span_dropped: u64,
}

/// Generates a deterministic phased workload: `phases` phases of
/// `per_phase` messages each, over 3 communicators, a 4-rank source space
/// and an 8-value tag space (small, so duplicates and wildcard conflicts
/// are common). Every message gets one receive that matches it — mostly
/// exact, one in four `MPI_ANY_SOURCE` — posted in shuffled order, so some
/// messages strand in the unexpected store until a later phase's wildcard
/// frees them (or never, which the oracle also compares).
pub fn workload(seed: u64, phases: usize, per_phase: usize) -> Vec<Phase> {
    let mut rng = FaultRng::new(seed);
    let mut msg_index = 0u32;
    (0..phases)
        .map(|_| {
            let mut posts = Vec::new();
            let mut sends = Vec::new();
            for _ in 0..per_phase {
                let comm = CommId(rng.below(3) as u16);
                let src = Rank(rng.below(4) as u32);
                let tag = Tag(rng.below(8) as u32);
                let pattern = if rng.chance(250) {
                    ReceivePattern::new(SourceSel::Any, tag, comm)
                } else {
                    ReceivePattern::new(src, tag, comm)
                };
                posts.push(pattern);
                sends.push((
                    Envelope::new(src, tag, comm),
                    msg_index.to_le_bytes().to_vec(),
                ));
                msg_index += 1;
            }
            // Shuffle the posts (Fisher–Yates on the deterministic stream)
            // so a message's receive is generally *not* posted at the
            // matching position of the send batch.
            for k in (1..posts.len()).rev() {
                let j = rng.below(k as u64 + 1) as usize;
                posts.swap(k, j);
            }
            Phase { posts, sends }
        })
        .collect()
}

/// Runs the workload through one service over one (possibly faulty) wire
/// and returns the observed outcome plus the fault/recovery evidence.
///
/// `faults` installs the plan on the receiving NIC; the sender always goes
/// through the [`ReliableSender`] so both runs stamp identical sequence
/// numbers. `queued` runs the offloaded engine, which the service drives
/// through its command queue (the packing-scheduler path); otherwise the
/// host MPI-CPU matcher runs, on the service's synchronous path. `window`
/// caps the sender's window and `staging` overrides the receive
/// NIC's staging capacity (`None`: the shipped defaults; `Some(0)` is the
/// discard path: every out-of-order packet is dropped, nothing is SACKed,
/// and each loss is repaired by a timeout resend).
pub fn run_chaos(
    phases: &[Phase],
    faults: Option<FaultPlan>,
    queued: bool,
    window: Option<usize>,
    staging: Option<usize>,
) -> (RunOutcome, ChaosEvidence) {
    let (tx, rx) = connected_pair();
    let domain = RdmaDomain::new();
    let mut nic = RecvNic::new(rx, BouncePool::new(64, 256));
    if let Some(capacity) = staging {
        nic.set_staging_capacity(capacity);
    }
    if let Some(plan) = &faults {
        nic.set_faults(plan.clone());
    }
    let mut svc = if queued {
        let mut budget = DeviceMemory::bluefield3_l3();
        let config = MatchConfig::small()
            .with_max_receives(1024)
            .with_max_unexpected(1024)
            .with_bins(32);
        MatchingService::offloaded(nic, domain, config, &mut budget)
            .expect("chaos config fits the budget")
    } else {
        MatchingService::mpi_cpu(nic, domain)
    };
    let mut sender = ReliableSender::new(tx);
    if let Some(cap) = window {
        sender.set_window_limit(cap);
    }

    for phase in phases {
        for pattern in &phase.posts {
            svc.post_recv(*pattern).expect("tables are large");
        }
        for (env, data) in &phase.sends {
            sender
                .send(eager_packet(*env, data.clone()))
                .expect("wire up");
        }
        // Quiescence barrier: every sequenced packet of this phase must be
        // accepted (acked) before the next phase posts. The service's poll
        // generates the acks the sender's poll consumes; faults bound the
        // number of rounds this can take via the sender's retry budget.
        let mut rounds = 0u32;
        while sender.unacked() > 0 {
            svc.progress().expect("progress under faults");
            sender.poll().expect("retry budget holds");
            rounds += 1;
            assert!(rounds < 1_000_000, "wire failed to quiesce");
        }
        // Flush packets the fault layer still holds (reorder/delay slots
        // are due within a bounded number of ticks once acks stop moving).
        for _ in 0..32 {
            svc.progress().expect("progress under faults");
            sender.poll().expect("retry budget holds");
        }
    }

    let injected = svc.nic().wire_fault_stats().map(|s| s.total()).unwrap_or(0);
    let snap = svc.observability_snapshot();
    let dropped_of = |key: &str| snap.counters.get(key).copied().unwrap_or(0);
    let span_dropped = dropped_of("otm_span_dropped_total") + dropped_of("dpa_span_dropped_total");
    let outcome = RunOutcome {
        completed: svc
            .take_completed()
            .into_iter()
            .map(|c| (c.recv.0, c.env, c.data))
            .collect(),
        unexpected: svc.unexpected_len(),
    };
    let evidence = ChaosEvidence {
        injected_faults: injected,
        retransmits: sender.stats().retransmits,
        staged_out_of_order: svc.nic().rx_stats().staged_out_of_order,
        stage_overflow: svc.nic().rx_stats().stage_overflow,
        span_dropped,
    };
    (outcome, evidence)
}

/// The full oracle: faulty run == fault-free run, and the faulty run must
/// actually have injected faults; `window` and `staging` (see [`run_chaos`])
/// apply identically to both runs. Returns the evidence for extra
/// assertions (e.g. that drops forced retransmissions).
pub fn assert_chaos_equivalence(
    seed: u64,
    plan: FaultPlan,
    phases: usize,
    per_phase: usize,
    queued: bool,
    window: Option<usize>,
    staging: Option<usize>,
) -> ChaosEvidence {
    let workload = workload(seed, phases, per_phase);
    let (clean, _) = run_chaos(&workload, None, queued, window, staging);
    let (faulty, evidence) = run_chaos(&workload, Some(plan), queued, window, staging);
    assert!(
        !clean.completed.is_empty(),
        "the workload must complete something for the oracle to bite"
    );
    assert_eq!(
        faulty, clean,
        "matched (receive, message) pairs must be identical to the fault-free run"
    );
    assert_eq!(
        evidence.span_dropped, 0,
        "the span recorders must not drop events at chaos-test scale"
    );
    evidence
}
