//! Regression tests for the loss-free software fallback: nothing a backend
//! ever accepted — applied matching state *or* commands still sitting in
//! the submission queue — may be dropped by the offload→software migration.
//!
//! Before the total-fallback fix, `OtmEngine::drain_for_fallback` silently
//! discarded the submission queue and the service called it without
//! draining first: a fallback under load lost posted receives and arrived
//! messages. The first three tests pin that bug end to end (they fail at
//! the pre-fix revision); the seeded oracle is the deterministic companion
//! of the `fallback_with_pending_queue_equals_drain_then_fallback` property
//! in `tests/properties.rs`.

mod support;

use dpa_sim::bounce::BouncePool;
use dpa_sim::nic::RecvNic;
use dpa_sim::rdma::{connected_pair, eager_packet, RdmaDomain};
use dpa_sim::{DeviceMemory, MatchingService};
use mpi_matching::binned::BinnedMatcher;
use mpi_matching::oracle::MatchEvent;
use mpi_matching::traditional::TraditionalMatcher;
use mpi_matching::{Assignment, MsgHandle, RecvHandle};
use otm::{Command, OtmEngine, SequentialOtm};
use otm_base::{Envelope, FaultRng, MatchConfig, Rank, ReceivePattern, Tag};
use support::{
    drain_then_fallback, fallback_oracle_config, fallback_with_queue, prop, replay_snapshot,
};

fn env(src: u32, tag: u32) -> Envelope {
    Envelope::world(Rank(src), Tag(tag))
}

/// The lost-command bug, engine level: commands still in the submission
/// queue must ride along in the fallback snapshot, in submission order,
/// next to the applied state.
#[test]
fn queued_commands_survive_the_fallback_snapshot() {
    let mut engine = OtmEngine::new(fallback_oracle_config()).unwrap();
    // Applied state: one pending receive, one parked unexpected message.
    engine
        .post(ReceivePattern::exact(Rank(0), Tag(0)), RecvHandle(0))
        .unwrap();
    engine.process_block(&[(env(5, 5), MsgHandle(0))]).unwrap();
    // Undrained queue: a receive and an arrival the host already handed
    // over but the device never applied.
    let queued_post = Command::Post {
        pattern: ReceivePattern::exact(Rank(1), Tag(1)),
        handle: RecvHandle(1),
    };
    let queued_arrival = Command::Arrival {
        env: env(1, 1),
        msg: MsgHandle(1),
    };
    engine.submit(queued_post).unwrap();
    engine.submit(queued_arrival).unwrap();

    let state = engine.drain_for_fallback();
    assert_eq!(
        state.receives,
        vec![(ReceivePattern::exact(Rank(0), Tag(0)), RecvHandle(0))]
    );
    assert_eq!(state.unexpected, vec![(env(5, 5), MsgHandle(0))]);
    assert_eq!(
        state.pending,
        vec![queued_post, queued_arrival],
        "the submission queue must survive the fallback drain, in order"
    );
}

/// Replaying the snapshot the way the service migrates must deliver the
/// queued work: the queued arrival finds the queued receive, and nothing is
/// left dangling that should have matched.
#[test]
fn fallback_replay_delivers_queued_work() {
    let mut engine = OtmEngine::new(fallback_oracle_config()).unwrap();
    engine
        .post(ReceivePattern::exact(Rank(0), Tag(0)), RecvHandle(0))
        .unwrap();
    // Queued: an arrival for the applied receive, then a fresh receive and
    // its arrival — two pairs that only form during the pending replay.
    engine
        .submit(Command::Arrival {
            env: env(0, 0),
            msg: MsgHandle(0),
        })
        .unwrap();
    engine
        .submit(Command::Post {
            pattern: ReceivePattern::exact(Rank(1), Tag(1)),
            handle: RecvHandle(1),
        })
        .unwrap();
    engine
        .submit(Command::Arrival {
            env: env(1, 1),
            msg: MsgHandle(1),
        })
        .unwrap();

    let mut asg = Assignment::default();
    let m = replay_snapshot(engine.drain_for_fallback(), &mut asg);
    assert_eq!(asg.msg_to_recv[&MsgHandle(0)], Some(RecvHandle(0)));
    assert_eq!(asg.msg_to_recv[&MsgHandle(1)], Some(RecvHandle(1)));
    assert!(m.pending_receives().is_empty());
    assert!(m.waiting_messages().is_empty());
}

/// The lost-arrival bug, end to end: arrivals are sitting in the engine's
/// submission queue when store pressure forces the software fallback. Every
/// payload must survive the migration and land on its receive in arrival
/// order.
#[test]
fn service_fallback_with_queued_arrivals_loses_nothing() {
    let (tx, rx) = connected_pair();
    let domain = RdmaDomain::new();
    let nic = RecvNic::new(rx, BouncePool::new(64, 256));
    let mut budget = DeviceMemory::bluefield3_l3();
    let config = MatchConfig::small()
        .with_max_unexpected(2)
        .with_block_threads(2);
    let mut svc = MatchingService::offloaded(nic, domain, config, &mut budget).unwrap();
    svc.enable_command_queue().unwrap();

    // Five unmatched messages against a 2-slot device store: the drain
    // trips UnexpectedStoreFull with arrivals still queued.
    for i in 0..5u32 {
        tx.send(eager_packet(env(1, i), vec![i as u8])).unwrap();
    }
    assert_eq!(svc.progress().unwrap(), 0);
    assert!(svc.fell_back(), "store pressure must trigger the fallback");
    assert_eq!(
        svc.unexpected_len(),
        5,
        "every queued arrival must survive the migration"
    );
    let mut posted = Vec::new();
    for _ in 0..5 {
        posted.push(svc.post_recv(ReceivePattern::any_tag(Rank(1))).unwrap());
    }
    let done = svc.take_completed();
    assert_eq!(done.len(), 5);
    for (i, d) in done.iter().enumerate() {
        assert_eq!(d.recv, posted[i], "C1/C2 across the migration");
        assert_eq!(d.data, vec![i as u8], "payload {i} intact");
    }
}

/// Seeded deterministic companion of the fallback-oracle property: for
/// every drainable backend, fallback-with-queued-commands ≡
/// drain-then-fallback on reproducible random workloads and split points.
#[test]
fn seeded_fallback_oracle_queued_equals_drained() {
    let factories: Vec<support::BackendFactory> = vec![
        ("traditional", || Box::new(TraditionalMatcher::new())),
        ("binned", || Box::new(BinnedMatcher::new(16))),
        ("optimistic-seq", || {
            Box::new(SequentialOtm::new(fallback_oracle_config()).unwrap())
        }),
        ("optimistic-dpa", || {
            Box::new(OtmEngine::new(fallback_oracle_config()).unwrap())
        }),
    ];
    for seed in 0..24u64 {
        let mut rng = FaultRng::new(0xFA11BAC ^ seed);
        let len = 1 + rng.below(79) as usize;
        let events: Vec<MatchEvent> = (0..len).map(|_| prop::event(&mut rng)).collect();
        let cut = rng.below(len as u64 + 1) as usize;
        for &(name, make) in &factories {
            let queued = fallback_with_queue(make(), &events, cut);
            let drained = drain_then_fallback(make(), &events, cut);
            assert_eq!(
                queued, drained,
                "{name} diverged on seed {seed} (cut {cut}/{len})"
            );
        }
    }
}
