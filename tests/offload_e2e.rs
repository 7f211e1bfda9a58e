//! End-to-end offload pipeline tests: the offloaded optimistic service and
//! the host-CPU baseline must deliver identical (receive, payload) pairings
//! for identical traffic, across eager and rendezvous protocols.

use dpa_sim::bounce::BouncePool;
use dpa_sim::nic::RecvNic;
use dpa_sim::pingpong::run_pingpong;
use dpa_sim::rdma::{connected_pair, eager_packet, rendezvous_packet, QueuePair, RdmaDomain};
use dpa_sim::service::{CompletedReceive, MatchingService};
use dpa_sim::{DeviceMemory, MatchMode, PingPongConfig};
use mpi_matching::oracle::MatchEvent;
use otm_base::{CommId, Envelope, FaultRng, MatchConfig, Rank, ReceivePattern, Tag};

#[path = "support/prop.rs"]
mod prop;

struct Harness {
    tx: QueuePair,
    domain: RdmaDomain,
    service: MatchingService,
}

fn offloaded_harness(block_threads: usize) -> Harness {
    let (tx, rx) = connected_pair();
    let domain = RdmaDomain::new();
    let nic = RecvNic::new(rx, BouncePool::new(512, 1024));
    let mut budget = DeviceMemory::bluefield3_l3();
    let config = MatchConfig::default()
        .with_block_threads(block_threads)
        .with_max_receives(4096)
        .with_max_unexpected(4096);
    let service = MatchingService::offloaded(nic, domain.clone(), config, &mut budget).unwrap();
    Harness {
        tx,
        domain,
        service,
    }
}

fn cpu_harness() -> Harness {
    let (tx, rx) = connected_pair();
    let domain = RdmaDomain::new();
    let nic = RecvNic::new(rx, BouncePool::new(512, 1024));
    let service = MatchingService::mpi_cpu(nic, domain.clone());
    Harness {
        tx,
        domain,
        service,
    }
}

/// A randomized traffic script: (post pattern | message envelope+payload).
#[derive(Clone)]
enum Step {
    Post(ReceivePattern),
    Eager(Envelope, Vec<u8>),
    Rendezvous(Envelope, Vec<u8>),
}

/// Half messages (eager and rendezvous alike), three exact receives to one
/// `ANY_SOURCE`.
fn random_script(seed: u64, len: usize) -> Vec<Step> {
    let mut rng = FaultRng::new(seed);
    (0..len)
        .map(
            |i| match prop::event_mix(&mut rng, CommId::WORLD, 3, 3, [4, 3, 1, 0, 0]) {
                MatchEvent::Post(pattern) => Step::Post(pattern),
                MatchEvent::Arrive(env) if rng.chance(500) => Step::Eager(env, vec![i as u8; 16]),
                MatchEvent::Arrive(env) => {
                    Step::Rendezvous(env, (0..64u32).map(|j| (i as u32 + j) as u8).collect())
                }
            },
        )
        .collect()
}

fn run_script(h: &mut Harness, script: &[Step]) -> Vec<CompletedReceive> {
    let mut done = Vec::new();
    for step in script {
        match step {
            Step::Post(p) => {
                h.service.post_recv(*p).unwrap();
            }
            Step::Eager(env, data) => {
                h.tx.send(eager_packet(*env, data.clone())).unwrap();
            }
            Step::Rendezvous(env, data) => {
                let (pkt, _rkey) = rendezvous_packet(&h.domain, *env, data.clone(), 8);
                h.tx.send(pkt).unwrap();
            }
        }
        h.service.progress().unwrap();
        done.extend(h.service.take_completed());
    }
    done
}

#[test]
fn offloaded_and_cpu_backends_deliver_identical_pairings() {
    for seed in 0..4 {
        let script = random_script(seed, 120);
        let mut offloaded = offloaded_harness(8);
        let mut cpu = cpu_harness();
        let a = run_script(&mut offloaded, &script);
        let b = run_script(&mut cpu, &script);
        assert_eq!(a.len(), b.len(), "seed {seed}: completion counts differ");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.recv, y.recv, "seed {seed}");
            assert_eq!(x.env, y.env, "seed {seed}");
            assert_eq!(
                x.data, y.data,
                "seed {seed}: payloads must match byte-for-byte"
            );
        }
    }
}

#[test]
fn burst_traffic_matches_in_parallel_blocks_with_identical_results() {
    // Post everything, then deliver a large burst at once so the offloaded
    // service matches multi-lane blocks (conflicts included), and compare
    // against the sequential CPU service.
    let n = 64usize;
    let mut offloaded = offloaded_harness(32);
    let mut cpu = cpu_harness();
    for h in [&mut offloaded, &mut cpu] {
        for i in 0..n {
            // Half the receives share one hot (src, tag); half are unique.
            let p = if i % 2 == 0 {
                ReceivePattern::exact(Rank(0), Tag(0))
            } else {
                ReceivePattern::exact(Rank(0), Tag(i as u32))
            };
            h.service.post_recv(p).unwrap();
        }
    }
    for h in [&mut offloaded, &mut cpu] {
        for i in 0..n {
            let tag = if i % 2 == 0 { Tag(0) } else { Tag(i as u32) };
            h.tx.send(eager_packet(Envelope::world(Rank(0), tag), vec![i as u8]))
                .unwrap();
        }
        assert_eq!(h.service.progress().unwrap(), n);
    }
    let mut a = offloaded.service.take_completed();
    let mut b = cpu.service.take_completed();
    a.sort_by_key(|c| c.recv);
    b.sort_by_key(|c| c.recv);
    assert_eq!(a.len(), n);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!((x.recv, &x.data), (y.recv, &y.data));
    }
    let stats = offloaded.service.engine_stats().unwrap();
    assert!(stats.blocks >= 2, "burst must span blocks: {stats:?}");
}

#[test]
fn rendezvous_payloads_survive_the_unexpected_path_identically() {
    let mut offloaded = offloaded_harness(4);
    let payload: Vec<u8> = (0..500u32).map(|i| (i % 251) as u8).collect();
    let (pkt, _rkey) = rendezvous_packet(
        &offloaded.domain,
        Envelope::world(Rank(1), Tag(9)),
        payload.clone(),
        32,
    );
    offloaded.tx.send(pkt).unwrap();
    offloaded.service.progress().unwrap();
    assert_eq!(offloaded.service.unexpected_len(), 1);
    offloaded
        .service
        .post_recv(ReceivePattern::any_any())
        .unwrap();
    // The post is a command on the engine's queue: it meets the stored
    // message at the next drain.
    assert_eq!(offloaded.service.progress().unwrap(), 1);
    let done = offloaded.service.take_completed();
    assert_eq!(done[0].data, payload);
}

/// Whether a registry snapshot holds a per-communicator submission-ring
/// peak, which only a drain of the engine's command queue registers.
fn drained_through_the_queue(snap: &otm_metrics::RegistrySnapshot) -> bool {
    snap.gauges
        .keys()
        .any(|k| k.starts_with("otm_submission_ring_depth_peak{comm="))
}

#[test]
fn every_shipped_offloaded_construction_drains_through_the_queue() {
    // The service constructor, one round of a post and a message.
    let mut h = offloaded_harness(4);
    h.service
        .post_recv(ReceivePattern::exact(Rank(0), Tag(1)))
        .unwrap();
    h.tx.send(eager_packet(Envelope::world(Rank(0), Tag(1)), vec![1]))
        .unwrap();
    assert_eq!(h.service.progress().unwrap(), 1);
    assert!(drained_through_the_queue(
        &h.service.observability_snapshot()
    ));

    // Fig. 8's ping-pong, one sequence.
    let cfg = PingPongConfig {
        k: 4,
        repeats: 1,
        block_threads: 4,
        ..Default::default()
    };
    let run = run_pingpong(MatchMode::OptimisticDpa { fast_path: true }, &cfg);
    let snap = run
        .observability_json
        .expect("the ping-pong reports its registry");
    assert!(drained_through_the_queue(&snap));
}
