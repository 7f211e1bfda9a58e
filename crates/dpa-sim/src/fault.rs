//! Deterministic fault injection for the simulated delivery path.
//!
//! The paper's DPA handlers sit on a lossless fabric, so `dpa-sim`
//! historically delivered every wire packet exactly once and in order. A
//! production matching service cannot assume that: sPIN-style on-NIC
//! handlers must tolerate lossy links and stalled execution units. This
//! module interprets an [`otm_base::FaultPlan`] against the two places the
//! simulator can misbehave:
//!
//! * [`WireFaults`] wraps packet delivery into [`crate::nic::RecvNic`] —
//!   dropping, duplicating, reordering (within a bounded window) and
//!   delaying **sequenced** packets. Unsequenced control traffic (acks,
//!   legacy direct sends) passes through untouched, so only traffic that
//!   opted into the reliability protocol is ever perturbed.
//! * `FaultInjectingBackend`, in test builds, wraps a `MatchingBackend` —
//!   injecting transient retryable drain failures and silent worker
//!   stalls at rates of its own, the failure shapes the service's tests
//!   hold its retry budget and fallback escalation to.
//!
//! Everything is driven by the plan's seeded [`FaultRng`], so a given
//! `(seed, rates)` pair reproduces the exact same fault schedule run after
//! run — the property the chaos oracle uses to compare a faulty run with
//! its fault-free twin.

use crate::rdma::WirePacket;
use otm_base::{FaultPlan, FaultRng};

/// Counters of the faults a [`WireFaults`] instance actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireFaultStats {
    /// Packets silently dropped.
    pub drops: u64,
    /// Packets delivered twice.
    pub duplicates: u64,
    /// Packets released out of order.
    pub reorders: u64,
    /// Packets delivered late but in order.
    pub(crate) delays: u64,
}

impl WireFaultStats {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.drops + self.duplicates + self.reorders + self.delays
    }
}

/// A held-back packet: released once the delivery clock reaches `due`.
/// Remembers which queue pair it arrived on so the receiver can run its
/// per-QP sequence check and ack on the right endpoint.
#[derive(Debug)]
struct HeldPacket {
    due: u64,
    qp: usize,
    packet: WirePacket,
}

/// The wire-level interpreter of a [`FaultPlan`].
///
/// [`crate::nic::RecvNic`] consults this on every arriving packet:
/// `WireFaults::admit` decides the packet's fate and returns what to
/// deliver *now*; held packets (reordered or delayed) come back out of
/// `WireFaults::pop_due` once `WireFaults::tick` has advanced the
/// delivery clock far enough. The clock counts NIC polls, not wall time,
/// so runs are deterministic.
#[derive(Debug)]
pub struct WireFaults {
    plan: FaultPlan,
    rng: FaultRng,
    tick: u64,
    held: Vec<HeldPacket>,
    /// Remaining fault budget (`u64::MAX` when the plan is unbounded).
    budget: u64,
    stats: WireFaultStats,
}

impl WireFaults {
    /// Builds the interpreter for `plan`. The plan should have passed
    /// [`FaultPlan::validate`]; zero-rate plans simply never inject.
    pub(crate) fn new(plan: FaultPlan) -> Self {
        let rng = plan.rng();
        let budget = plan.max_faults.unwrap_or(u64::MAX);
        WireFaults {
            plan,
            rng,
            tick: 0,
            held: Vec::new(),
            budget,
            stats: WireFaultStats::default(),
        }
    }

    /// Advances the delivery clock by one NIC poll.
    pub(crate) fn tick(&mut self) {
        self.tick += 1;
    }

    /// Decides the fate of a packet arriving on queue pair `qp` and
    /// returns the packets to deliver immediately, by value (none on
    /// drop/hold, two on duplication).
    ///
    /// Only sequenced packets are ever perturbed: legacy unsequenced
    /// traffic passes through verbatim (and acks are not packets), so fault
    /// injection can only create conditions the reliability protocol is
    /// able to repair.
    pub(crate) fn admit(&mut self, qp: usize, packet: WirePacket) -> [Option<WirePacket>; 2] {
        if packet.seq.is_none() || self.budget == 0 {
            return [Some(packet), None];
        }
        // One decision per fault kind, in a fixed order, so the schedule
        // depends only on the seed and the sequence of admitted packets.
        if self.rng.chance(self.plan.drop_permille) {
            self.budget -= 1;
            self.stats.drops += 1;
            return [None, None];
        }
        if self.rng.chance(self.plan.duplicate_permille) {
            self.budget -= 1;
            self.stats.duplicates += 1;
            return [Some(packet.clone()), Some(packet)];
        }
        if self.rng.chance(self.plan.reorder_permille) {
            self.budget -= 1;
            self.stats.reorders += 1;
            let window = self.plan.reorder_window.max(1) as u64;
            let due = self.tick + 1 + self.rng.below(window);
            self.held.push(HeldPacket { due, qp, packet });
            return [None, None];
        }
        if self.rng.chance(self.plan.delay_permille) {
            self.budget -= 1;
            self.stats.delays += 1;
            let due = self.tick + self.plan.delay_polls.max(1) as u64;
            self.held.push(HeldPacket { due, qp, packet });
            return [None, None];
        }
        [Some(packet), None]
    }

    /// Releases one held packet whose due time has passed, if any, with
    /// the queue pair it arrived on. Called repeatedly each poll so a
    /// staging failure can pause mid-release without losing packets.
    pub(crate) fn pop_due(&mut self) -> Option<(usize, WirePacket)> {
        let idx = self.held.iter().position(|h| h.due <= self.tick)?;
        let h = self.held.remove(idx);
        Some((h.qp, h.packet))
    }

    /// What was injected so far.
    pub(crate) fn stats(&self) -> WireFaultStats {
        self.stats
    }

    /// The plan this interpreter executes.
    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

#[cfg(test)]
use mpi_matching::backend::{
    BlockDelivery, DrainReport, FallbackState, MatchingBackend, PendingCommand,
};
#[cfg(test)]
use mpi_matching::{MsgHandle, PostResult, RecvHandle};
#[cfg(test)]
use otm_base::{Envelope, MatchError, ReceivePattern};

#[cfg(test)]
/// Counters of the backend faults a [`FaultInjectingBackend`] injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct BackendFaultStats {
    /// Drains that reported a transient retryable error without running.
    pub(crate) transient_failures: u64,
    /// Drains that silently made no progress (stalled worker).
    pub(crate) stalls: u64,
}

#[cfg(test)]
/// A [`MatchingBackend`] decorator that injects transient drain failures
/// and worker stalls at its own rates, drawn from a [`FaultPlan`]'s seed
/// within its fault budget.
///
/// A *transient failure* reports a retryable [`MatchError`] without popping
/// any command — exactly the contract a real engine honors on resource
/// exhaustion (commands requeue, a later drain resumes where this one
/// stopped). A *stall* returns an empty successful report: the drain "ran"
/// but a wedged worker made no progress. Both are repaired by the
/// service's retry loop; neither can corrupt matching state, which is what
/// the chaos oracle verifies.
///
/// The wrapper draws from its own decision stream (derived from the plan
/// seed) so wire faults and backend faults are independently reproducible.
pub(crate) struct FaultInjectingBackend {
    inner: Box<dyn MatchingBackend>,
    /// Probability (permille) that a drain reports a transient, retryable
    /// [`MatchError`] without consuming any command.
    transient_fail_permille: u32,
    /// Probability (permille) that a drain stalls: it makes no progress and
    /// reports no error, as a wedged worker would.
    stall_permille: u32,
    rng: FaultRng,
    budget: u64,
    stats: BackendFaultStats,
}

#[cfg(test)]
impl std::fmt::Debug for FaultInjectingBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjectingBackend")
            .field("inner", &self.inner.backend_name())
            .field("transient_fail_permille", &self.transient_fail_permille)
            .field("stall_permille", &self.stall_permille)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
impl FaultInjectingBackend {
    /// Wraps `inner`, failing a drain transiently and stalling one at the
    /// given rates (permille), from `plan`'s seed and within its fault
    /// budget. The decision stream is decorrelated from the wire stream by
    /// perturbing the seed.
    pub(crate) fn new(
        inner: Box<dyn MatchingBackend>,
        plan: &FaultPlan,
        transient_fail_permille: u32,
        stall_permille: u32,
    ) -> Self {
        let rng = FaultRng::new(otm_base::hash::mix64(plan.seed ^ 0xbac4_e9d5_fa17_0001));
        let budget = plan.max_faults.unwrap_or(u64::MAX);
        FaultInjectingBackend {
            inner,
            transient_fail_permille,
            stall_permille,
            rng,
            budget,
            stats: BackendFaultStats::default(),
        }
    }

    /// What was injected so far.
    pub(crate) fn stats(&self) -> BackendFaultStats {
        self.stats
    }
}

#[cfg(test)]
impl MatchingBackend for FaultInjectingBackend {
    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }

    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn post(
        &mut self,
        pattern: ReceivePattern,
        handle: RecvHandle,
    ) -> Result<PostResult, MatchError> {
        self.inner.post(pattern, handle)
    }

    fn arrive_block(
        &mut self,
        msgs: &[(Envelope, MsgHandle)],
    ) -> Result<Vec<BlockDelivery>, MatchError> {
        self.inner.arrive_block(msgs)
    }

    fn wants_offload_fallback(&self) -> bool {
        self.inner.wants_offload_fallback()
    }

    fn submit_command(&mut self, cmd: PendingCommand) -> Result<(), MatchError> {
        self.inner.submit_command(cmd)
    }

    fn drain_commands(&mut self) -> DrainReport {
        if self.budget > 0 && self.rng.chance(self.transient_fail_permille) {
            self.budget -= 1;
            self.stats.transient_failures += 1;
            // A transient device hiccup: no command was popped, so the
            // retryable-error contract holds trivially — a retry resumes
            // exactly where the queue stands.
            return DrainReport {
                outcomes: Vec::new(),
                error: Some(MatchError::OutOfDeviceMemory {
                    requested: 0,
                    available: 0,
                }),
                unapplied: Vec::new(),
            };
        }
        if self.budget > 0 && self.rng.chance(self.stall_permille) {
            self.budget -= 1;
            self.stats.stalls += 1;
            // A stalled worker: the drain returns having done nothing.
            return DrainReport::default();
        }
        self.inner.drain_commands()
    }

    fn drain_for_fallback(self: Box<Self>) -> Result<FallbackState, MatchError> {
        self.inner.drain_for_fallback()
    }

    // The inner backend's counts: observability sees through the fault
    // decorator to the engine behind it.
    fn engine_stats(&self) -> Option<mpi_matching::StatsSnapshot> {
        self.inner.engine_stats()
    }

    fn metrics_snapshot(&self) -> Option<otm_metrics::RegistrySnapshot> {
        self.inner.metrics_snapshot()
    }

    fn span_recorder(&self) -> Option<&otm_metrics::SpanRecorder> {
        self.inner.span_recorder()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdma::eager_packet;
    use otm_base::{Rank, Tag};

    impl WireFaults {
        /// Packets currently held back (reordered or delayed, not yet due).
        fn held_len(&self) -> usize {
            self.held.len()
        }
    }

    fn sequenced(seq: u64) -> WirePacket {
        eager_packet(Envelope::world(Rank(0), Tag(seq as u32)), vec![seq as u8]).with_seq(seq)
    }

    /// What `admit` delivers now, as a list.
    fn admit(w: &mut WireFaults, qp: usize, packet: WirePacket) -> Vec<WirePacket> {
        w.admit(qp, packet).into_iter().flatten().collect()
    }

    #[test]
    fn inert_plan_passes_everything_through() {
        let mut w = WireFaults::new(FaultPlan::default());
        for seq in 0..100 {
            let out = admit(&mut w, 0, sequenced(seq));
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].seq, Some(seq));
        }
        assert_eq!(w.stats().total(), 0);
        assert_eq!(w.held_len(), 0);
    }

    #[test]
    fn unsequenced_traffic_is_never_perturbed() {
        let plan = FaultPlan::new(1).with_drop_permille(1000);
        let mut w = WireFaults::new(plan);
        let out = admit(
            &mut w,
            0,
            eager_packet(Envelope::world(Rank(0), Tag(0)), vec![]),
        );
        assert_eq!(out.len(), 1, "unsequenced data bypasses fault injection");
        assert_eq!(w.stats().drops, 0);
    }

    #[test]
    fn certain_drop_rate_drops_every_sequenced_packet() {
        let mut w = WireFaults::new(FaultPlan::new(2).with_drop_permille(1000));
        for seq in 0..10 {
            assert!(admit(&mut w, 0, sequenced(seq)).is_empty());
        }
        assert_eq!(w.stats().drops, 10);
    }

    #[test]
    fn duplication_delivers_the_packet_twice() {
        let mut w = WireFaults::new(FaultPlan::new(3).with_duplicate_permille(1000));
        let out = admit(&mut w, 0, sequenced(7));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], out[1]);
        assert_eq!(w.stats().duplicates, 1);
    }

    #[test]
    fn reordered_packets_release_within_the_window() {
        let plan = FaultPlan::new(4)
            .with_reorder_permille(1000)
            .with_reorder_window(3);
        let mut w = WireFaults::new(plan);
        assert!(admit(&mut w, 3, sequenced(0)).is_empty());
        assert_eq!(w.held_len(), 1);
        // The packet must come back out within `reorder_window` ticks.
        let mut released = None;
        for _ in 0..4 {
            w.tick();
            if let Some((qp, p)) = w.pop_due() {
                assert_eq!(qp, 3, "release remembers the arrival QP");
                released = Some(p);
                break;
            }
        }
        assert_eq!(released.expect("released within window").seq, Some(0));
        assert_eq!(w.held_len(), 0);
        assert_eq!(w.stats().reorders, 1);
    }

    #[test]
    fn delayed_packets_release_after_exactly_delay_polls() {
        let plan = FaultPlan::new(5)
            .with_delay_permille(1000)
            .with_delay_polls(2);
        let mut w = WireFaults::new(plan);
        assert!(admit(&mut w, 0, sequenced(0)).is_empty());
        w.tick();
        assert!(w.pop_due().is_none(), "not due after one poll");
        w.tick();
        assert_eq!(w.pop_due().expect("due after two polls").1.seq, Some(0));
    }

    #[test]
    fn fault_budget_bounds_total_injections() {
        let plan = FaultPlan::new(6)
            .with_drop_permille(1000)
            .with_max_faults(3);
        let mut w = WireFaults::new(plan);
        let mut delivered = 0;
        for seq in 0..10 {
            delivered += admit(&mut w, 0, sequenced(seq)).len();
        }
        assert_eq!(w.stats().drops, 3, "budget caps injections");
        assert_eq!(delivered, 7, "post-budget packets sail through");
    }

    #[test]
    fn same_seed_injects_the_same_schedule() {
        let plan = FaultPlan::new(99)
            .with_drop_permille(300)
            .with_duplicate_permille(300)
            .with_reorder_permille(200)
            .with_reorder_window(4);
        let run = |plan: FaultPlan| {
            let mut w = WireFaults::new(plan);
            let mut fates = Vec::new();
            for seq in 0..200 {
                fates.push(admit(&mut w, 0, sequenced(seq)).len());
            }
            (fates, w.stats())
        };
        let (fates_a, stats_a) = run(plan.clone());
        let (fates_b, stats_b) = run(plan);
        assert_eq!(fates_a, fates_b);
        assert_eq!(stats_a, stats_b);
        assert!(stats_a.total() > 0, "rates this high must inject something");
    }

    #[test]
    fn transient_backend_failure_is_retryable_and_consumes_nothing() {
        use mpi_matching::traditional::TraditionalMatcher;
        let plan = FaultPlan::new(7);
        let mut b = FaultInjectingBackend::new(Box::new(TraditionalMatcher::new()), &plan, 1000, 0);
        let report = b.drain_commands();
        assert!(report.outcomes.is_empty());
        assert!(report.error.as_ref().is_some_and(|e| e.is_retryable()));
        assert!(report.unapplied.is_empty());
        assert_eq!(b.stats().transient_failures, 1);
    }

    #[test]
    fn stalled_backend_drain_reports_silent_no_progress() {
        use mpi_matching::traditional::TraditionalMatcher;
        let plan = FaultPlan::new(8);
        let mut b = FaultInjectingBackend::new(Box::new(TraditionalMatcher::new()), &plan, 0, 1000);
        let report = b.drain_commands();
        assert!(report.outcomes.is_empty());
        assert!(report.error.is_none());
        assert_eq!(b.stats().stalls, 1);
    }

    #[test]
    fn fault_wrapper_delegates_matching_faithfully() {
        use mpi_matching::traditional::TraditionalMatcher;
        let plan = FaultPlan::new(9);
        let mut b = FaultInjectingBackend::new(Box::new(TraditionalMatcher::new()), &plan, 500, 0);
        assert_eq!(b.backend_name(), "MPI-CPU");
        b.post(ReceivePattern::exact(Rank(0), Tag(1)), RecvHandle(0))
            .unwrap();
        let d = b
            .arrive_block(&[(Envelope::world(Rank(0), Tag(1)), MsgHandle(0))])
            .unwrap();
        assert_eq!(d[0].matched(), Some(RecvHandle(0)));
        let state = Box::new(b).drain_for_fallback().unwrap();
        assert!(state.receives.is_empty());
    }
}
