//! A reset engine reads as new.
//!
//! Engine A runs a first workload and is reset with receives still posted,
//! messages still waiting, a communicator declared with hints, the reference
//! packer selected and the packing window overridden. A then runs a second
//! workload, and a fresh engine B runs the second workload only. Everything a
//! caller can observe must agree: every outcome, `stats()`, the registry's
//! counters and histograms, the queue lengths, the empty-bin fraction and the
//! fallback snapshot. The one exception is the registry's key set: a
//! communicator A used before the reset keeps its labelled depth-peak gauges
//! registered, reading 0 unless the second workload raises them, as
//! `Registry::reset` leaves every instrument. The block-latency histogram's
//! sum is a clock reading and is compared by count only.
//!
//! A reset is refused, with nothing changed, on a stopped engine and on one
//! that holds a command no drain has applied. The same contract holds for
//! the sequential adapter; its refusals, reachable only through the engine
//! it wraps, are checked by `engine.rs`'s own tests.

use mpi_matching::{Matcher, MsgHandle, RecvHandle};
use otm::{Command, CommandOutcome, OtmEngine, SequentialOtm};
use otm_base::envelope::SourceSel;
use otm_base::{
    CommHints, CommId, Envelope, MatchConfig, MatchError, PackingPolicy, Rank, ReceivePattern, Tag,
};

/// What a workload saw, in the order it saw it.
#[derive(Debug, Default, PartialEq)]
struct Seen {
    outcomes: Vec<String>,
}

impl Seen {
    fn note(&mut self, what: impl std::fmt::Debug) {
        self.outcomes.push(format!("{what:?}"));
    }
}

/// A workload against an engine, numbering handles from 0.
struct Run<'a> {
    engine: &'a mut OtmEngine,
    next_recv: u64,
    next_msg: u64,
    seen: Seen,
}

impl<'a> Run<'a> {
    fn new(engine: &'a mut OtmEngine) -> Self {
        Run {
            engine,
            next_recv: 0,
            next_msg: 0,
            seen: Seen::default(),
        }
    }

    fn post(&mut self, pattern: ReceivePattern) {
        let handle = RecvHandle(self.next_recv);
        self.next_recv += 1;
        let result = self.engine.post(pattern, handle);
        self.seen.note(result);
    }

    fn block(&mut self, envs: &[Envelope]) {
        let msgs: Vec<_> = envs
            .iter()
            .map(|&env| {
                self.next_msg += 1;
                (env, MsgHandle(self.next_msg - 1))
            })
            .collect();
        let deliveries = self.engine.process_block(&msgs);
        self.seen.note(deliveries);
    }

    fn submit_post(&mut self, pattern: ReceivePattern) {
        let handle = RecvHandle(self.next_recv);
        self.next_recv += 1;
        let submitted = self.engine.submit(Command::Post { pattern, handle });
        self.seen.note(submitted);
    }

    fn submit_arrival(&mut self, env: Envelope) {
        let msg = MsgHandle(self.next_msg);
        self.next_msg += 1;
        let submitted = self.engine.submit(Command::Arrival { env, msg });
        self.seen.note(submitted);
    }

    fn drain(&mut self) {
        let report = self.engine.drain();
        self.seen
            .note((&report.outcomes, report.error, &report.unapplied));
    }

    /// Wildcard receives of tag 1 broken by an exact one, then one block
    /// from four sources: every lane finds the same oldest receive, and the
    /// conflict cannot shift down a run, so it takes the slow path.
    fn slow_path_block(&mut self, comm: CommId) {
        let wild = ReceivePattern::new(SourceSel::Any, Tag(1), comm);
        self.post(wild);
        self.post(ReceivePattern::new(Rank(9), Tag(1), comm));
        self.post(wild);
        self.post(wild);
        let envs: Vec<_> = (0..4)
            .map(|r| Envelope::new(Rank(r), Tag(1), comm))
            .collect();
        self.block(&envs);
    }
}

/// The first workload: afterwards receives are posted, messages wait, a
/// communicator has hints and both packing selectors are moved.
fn first_workload(engine: &mut OtmEngine) {
    let mut run = Run::new(engine);
    run.engine
        .declare_comm(CommId(3), CommHints::no_wildcards())
        .unwrap();
    run.slow_path_block(CommId(1));
    for i in 0..6 {
        run.submit_post(ReceivePattern::new(Rank(i), Tag(2), CommId(3)));
        run.submit_arrival(Envelope::new(Rank(i), Tag(2), CommId(3)));
        run.submit_arrival(Envelope::new(Rank(i), Tag(40), CommId(2)));
    }
    run.drain();
    run.post(ReceivePattern::new(Rank(50), Tag(50), CommId(1)));
    run.block(&[Envelope::new(Rank(7), Tag(77), CommId(4))]);
    run.engine.set_packing(PackingPolicy::Consecutive);
    run.engine.set_packing_window_override(96);
    assert!(run.engine.stats().slow_path > 0, "{:?}", run.engine.stats());
    assert!(run.engine.prq_len() > 0 && run.engine.umq_len() > 0);
}

/// The second workload, which both engines run: it declares hints on a
/// communicator A already knew and on a new one, and reuses A's others.
fn second_workload(engine: &mut OtmEngine) -> Seen {
    let mut run = Run::new(engine);
    for comm in [CommId(3), CommId(5)] {
        let declared = run.engine.declare_comm(comm, CommHints::no_wildcards());
        run.seen.note(declared);
    }
    run.slow_path_block(CommId(1));
    for i in 0..5 {
        run.submit_arrival(Envelope::new(Rank(i), Tag(2), CommId(3)));
        run.submit_post(ReceivePattern::new(Rank(i), Tag(2), CommId(3)));
        run.submit_post(ReceivePattern::new(SourceSel::Any, Tag(8), CommId(2)));
        run.submit_arrival(Envelope::new(Rank(i), Tag(8), CommId(2)));
        run.submit_arrival(Envelope::new(Rank(i), Tag(9), CommId(5)));
    }
    run.drain();
    run.post(ReceivePattern::new(Rank(60), Tag(60), CommId(2)));
    run.block(&[Envelope::new(Rank(6), Tag(66), CommId(1))]);
    let seen = run.seen;
    assert!(engine.stats().slow_path > 0, "{:?}", engine.stats());
    seen
}

fn assert_reads_the_same(a: &OtmEngine, b: &OtmEngine) {
    assert_eq!(a.stats(), b.stats());
    assert_eq!(
        (a.prq_len(), a.umq_len(), a.prq_empty_bin_fraction()),
        (b.prq_len(), b.umq_len(), b.prq_empty_bin_fraction())
    );
    assert_eq!(a.packing(), b.packing());
    assert_eq!(a.effective_packing_window(), b.effective_packing_window());
    let (sa, sb) = (a.metrics_snapshot(), b.metrics_snapshot());
    assert_eq!(sa.counters, sb.counters);
    assert_eq!(
        sa.hists.keys().collect::<Vec<_>>(),
        sb.hists.keys().collect::<Vec<_>>()
    );
    for (name, hb) in &sb.hists {
        let ha = &sa.hists[name];
        assert_eq!(ha.count, hb.count, "{name}");
        if name != "otm_block_latency_ns" {
            assert_eq!(
                (&ha.buckets, ha.sum, ha.max),
                (&hb.buckets, hb.sum, hb.max),
                "{name}"
            );
        }
    }
    for (name, value) in &sa.gauges {
        let expected = sb.gauges.get(name).copied().unwrap_or(0);
        assert_eq!(*value, expected, "{name}");
    }
    assert!(sb.gauges.keys().all(|name| sa.gauges.contains_key(name)));
}

#[test]
fn a_reset_engine_reads_as_new() {
    let config = MatchConfig::small();
    let mut a = OtmEngine::new(config.clone()).unwrap();
    first_workload(&mut a);
    a.reset().unwrap();
    let mut b = OtmEngine::new(config).unwrap();
    assert_reads_the_same(&a, &b);
    assert!(a.metrics_snapshot().gauges.len() > b.metrics_snapshot().gauges.len());

    assert_eq!(second_workload(&mut a), second_workload(&mut b));
    assert_reads_the_same(&a, &b);
    assert_eq!(a.drain_for_fallback(), b.drain_for_fallback());
}

#[test]
fn a_stopped_engine_refuses_a_reset_and_keeps_its_queue() {
    let mut engine = OtmEngine::new(MatchConfig::small()).unwrap();
    first_workload(&mut engine);
    let env = Envelope::new(Rank(1), Tag(3), CommId(1));
    let cmd = Command::Arrival {
        env,
        msg: MsgHandle(99),
    };
    engine.submit(cmd).unwrap();
    engine.shutdown();
    let (stats, prq, umq) = (engine.stats(), engine.prq_len(), engine.umq_len());
    assert_eq!(engine.reset(), Err(MatchError::EngineStopped));
    assert_eq!(
        (engine.stats(), engine.prq_len(), engine.umq_len()),
        (stats, prq, umq)
    );
    assert_eq!(engine.effective_packing_window(), 96);
    assert_eq!(engine.drain_for_fallback().pending, [cmd]);
}

#[test]
fn a_queued_command_refuses_a_reset_and_still_drains() {
    let mut engine = OtmEngine::new(MatchConfig::small()).unwrap();
    first_workload(&mut engine);
    let pattern = ReceivePattern::new(Rank(7), Tag(77), CommId(4));
    let handle = RecvHandle(99);
    engine.submit(Command::Post { pattern, handle }).unwrap();
    let (stats, prq, umq) = (engine.stats(), engine.prq_len(), engine.umq_len());
    let refused = engine.reset();
    assert!(
        matches!(refused, Err(MatchError::InvalidConfig(_))),
        "{refused:?}"
    );
    assert_eq!(
        (engine.stats(), engine.prq_len(), engine.umq_len()),
        (stats, prq, umq)
    );
    assert_eq!(
        (engine.pending_commands(), engine.packing()),
        (1, PackingPolicy::Consecutive)
    );
    // The message the first workload left waiting completes the receive.
    let report = engine.drain();
    assert_eq!(report.error, None);
    let post = CommandOutcome::Post {
        handle,
        result: mpi_matching::PostResult::Matched(MsgHandle(16)),
    };
    assert_eq!(report.outcomes, [post]);
    engine.reset().unwrap();
    assert_eq!((engine.prq_len(), engine.umq_len()), (0, 0));
}

/// A sequential workload: receives of three patterns, some wildcard, and
/// messages from five sources, some of which stay unexpected.
fn sequential_workload(m: &mut SequentialOtm, salt: u32) -> Vec<String> {
    let mut seen = Vec::new();
    for i in 0..40u32 {
        let tag = Tag((i * 7 + salt) % 5);
        let comm = CommId((i % 3) as u16);
        let pattern = match i % 4 {
            0 => ReceivePattern::new(SourceSel::Any, tag, comm),
            _ => ReceivePattern::new(Rank(i % 5), tag, comm),
        };
        seen.push(format!("{:?}", m.post(pattern, RecvHandle(u64::from(i)))));
        let env = Envelope::new(Rank((i + salt) % 5), Tag((i + salt) % 5), comm);
        seen.push(format!("{:?}", m.arrive(env, MsgHandle(u64::from(i)))));
        seen.push(format!("{}", m.prq_empty_bin_fraction()));
    }
    seen
}

#[test]
fn a_reset_sequential_adapter_reads_as_new() {
    let config = MatchConfig::small().with_block_threads(1);
    let mut a = SequentialOtm::new(config.clone()).unwrap();
    sequential_workload(&mut a, 1);
    assert!(a.prq_len() > 0 && a.umq_len() > 0);
    a.reset().unwrap();
    let mut b = SequentialOtm::new(config).unwrap();
    assert_eq!(
        sequential_workload(&mut a, 3),
        sequential_workload(&mut b, 3)
    );
    assert_eq!(Matcher::stats(&a), Matcher::stats(&b));
    assert_eq!(
        (a.prq_len(), a.umq_len(), a.prq_empty_bin_fraction()),
        (b.prq_len(), b.umq_len(), b.prq_empty_bin_fraction())
    );
}
