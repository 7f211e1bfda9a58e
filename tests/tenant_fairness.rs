//! matchd contract tests: admission control, deficit-round-robin fairness
//! and the loss-free fallback under multitenancy.
//!
//! The deterministic companions of the `matchd_*` properties in
//! `tests/properties.rs`:
//!
//! * a flooding tenant is answered with [`Admission::Backpressured`] at its
//!   own bounded ingress and cannot push a well-behaved neighbour below
//!   half of its solo throughput at the same virtual time;
//! * `retry_after` is the documented function of overflow and quantum, and
//!   a backpressured submission really does succeed after that many ticks;
//! * per-tenant FIFO survives the fair drain — completions come back in
//!   handle-mint order;
//! * the software fallback, triggered mid-tick with several tenants'
//!   ingress queues non-empty, loses nothing for anyone.

use dpa_sim::bounce::BouncePool;
use dpa_sim::nic::RecvNic;
use dpa_sim::rdma::{connected_pair, RdmaDomain};
use dpa_sim::{
    Admission, DeviceMemory, MatchServer, MatchdConfig, MatchingService, TenantConfig, TenantId,
};
use otm_base::envelope::TagSel;
use otm_base::{CommId, MatchConfig, Rank, ReceivePattern, Tag};

/// An engine large enough that only admission — never table pressure —
/// shapes the runs, with cross-communicator packing and a per-lane quota so
/// both fairness layers are in play.
fn roomy_config() -> MatchConfig {
    MatchConfig::default()
        .with_block_threads(4)
        .with_max_receives(1 << 14)
        .with_max_unexpected(1 << 14)
        .with_bins(16)
        .with_lane_quota(Some(8))
}

fn server(match_config: MatchConfig, deficit_cap_quanta: u64) -> MatchServer {
    MatchServer::new(
        match_config,
        MatchdConfig {
            tenant: TenantConfig::default(),
            deficit_cap_quanta,
        },
    )
    .expect("standalone matchd server")
}

/// One well-behaved submission step: `pairs` (post, self-send) pairs on the
/// tenant's communicator, exact-matched so every post has its message.
fn submit_pairs(server: &mut MatchServer, tenant: TenantId, pairs: usize, round: u64) -> usize {
    let src = Rank(tenant.0 as u32);
    let comm = server
        .tenant_comm(tenant)
        .expect("fairness tenants are pinned");
    let mut admitted = 0;
    for i in 0..pairs {
        let tag = Tag((round as u32 * 97 + i as u32) % 13);
        if server
            .submit_post(tenant, ReceivePattern::new(src, tag, comm))
            .is_admitted()
        {
            admitted += 1;
        }
        if server.submit_send(tenant, tag, vec![i as u8]).is_admitted() {
            admitted += 1;
        }
    }
    admitted
}

/// Runs the well-behaved workload alone for `ticks` rounds and returns the
/// completions it reaches by that virtual time.
fn solo_throughput(ticks: u64, pairs_per_tick: usize) -> u64 {
    let mut server = server(roomy_config(), 4);
    let tenant = server
        .open_tenant_with(TenantConfig {
            capacity: 1024,
            quantum: 64,
            comm: Some(CommId(1)),
        })
        .unwrap();
    for round in 0..ticks {
        submit_pairs(&mut server, tenant, pairs_per_tick, round);
        server.tick().expect("tick");
    }
    server.tenant_stats(tenant).completed
}

/// The headline fairness run: three well-behaved tenants plus one flooder
/// on a shared server. The flooder must be backpressured at admission, and
/// every well-behaved tenant must keep at least half of its solo
/// throughput at the same tick count.
#[test]
fn flooder_is_backpressured_and_cannot_starve_neighbours() {
    const TICKS: u64 = 60;
    const PAIRS: usize = 8;
    let solo = solo_throughput(TICKS, PAIRS);
    assert!(solo > 0, "the solo run must make progress");

    let mut server = server(roomy_config(), 4);
    // Tenant 0 floods through a small ingress; 1..=3 are well behaved.
    let flooder = server
        .open_tenant_with(TenantConfig {
            capacity: 64,
            quantum: 16,
            comm: Some(CommId(1)),
        })
        .unwrap();
    let good: Vec<TenantId> = (2..5)
        .map(|c| {
            server
                .open_tenant_with(TenantConfig {
                    capacity: 1024,
                    quantum: 64,
                    comm: Some(CommId(c)),
                })
                .unwrap()
        })
        .collect();

    let mut backpressured_submissions = 0u64;
    for round in 0..TICKS {
        // The flooder tries to push two hundred pairs a tick — far beyond
        // both its ingress bound and its drain quantum.
        for i in 0..200u32 {
            let tag = Tag(i % 7);
            let src = Rank(flooder.0 as u32);
            let comm = server.tenant_comm(flooder).unwrap();
            match server.submit_post(flooder, ReceivePattern::new(src, tag, comm)) {
                Admission::Admitted(_) => match server.submit_send(flooder, tag, vec![i as u8]) {
                    Admission::Admitted(()) => {}
                    Admission::Backpressured { .. } => backpressured_submissions += 1,
                    Admission::Rejected { reason } => panic!("flooder send rejected: {reason}"),
                },
                Admission::Backpressured { retry_after } => {
                    assert!(retry_after >= 1, "retry hints are at least one tick");
                    backpressured_submissions += 1;
                }
                Admission::Rejected { reason } => panic!("flooder rejected: {reason}"),
            }
        }
        for &tenant in &good {
            submit_pairs(&mut server, tenant, PAIRS, round);
        }
        server.tick().expect("tick");
    }

    assert!(
        backpressured_submissions > 0,
        "a 200-pairs-per-tick flooder over a 64-slot ingress must hit backpressure"
    );
    let fstats = server.tenant_stats(flooder);
    assert_eq!(fstats.backpressured, backpressured_submissions);
    assert!(fstats.completed > 0, "backpressure throttles, not starves");
    for &tenant in &good {
        let stats = server.tenant_stats(tenant);
        assert!(
            stats.backpressured == 0,
            "well-behaved tenant {} was backpressured",
            tenant
        );
        assert!(
            stats.completed * 2 >= solo,
            "tenant {} kept {}/{} of its solo throughput (need >= 50%)",
            tenant,
            stats.completed,
            solo
        );
    }
    assert!(
        !server.service().fell_back(),
        "the fairness run must stay on the offloaded path"
    );
}

/// The `retry_after` contract: with the ingress exactly full, the hint is
/// `ceil(overflow / quantum)` (>= 1), and one drain round at the tenant's
/// quantum really does open the promised slots.
#[test]
fn backpressure_retry_hint_matches_the_drain_rate() {
    let mut server = server(roomy_config(), 1);
    let tenant = server
        .open_tenant_with(TenantConfig {
            capacity: 8,
            quantum: 4,
            comm: Some(CommId(1)),
        })
        .unwrap();
    let src = Rank(tenant.0 as u32);
    let comm = server.tenant_comm(tenant).unwrap();
    let pattern = |i: u32| ReceivePattern::new(src, Tag(i), comm);

    for i in 0..8 {
        server
            .submit_post(tenant, pattern(i))
            .expect_admitted("fills the ingress");
    }
    match server.submit_post(tenant, pattern(8)) {
        Admission::Backpressured { retry_after } => {
            assert_eq!(retry_after, 1, "overflow 1 at quantum 4 is one round")
        }
        other => panic!("expected backpressure on a full ingress, got {other:?}"),
    }
    assert_eq!(server.tenant_stats(tenant).ingress_depth, 8);

    // One tick drains one quantum: four slots open, four posts fit again.
    server.tick().expect("tick");
    assert_eq!(server.tenant_stats(tenant).ingress_depth, 4);
    for i in 0..4 {
        server
            .submit_post(tenant, pattern(100 + i))
            .expect_admitted("the promised slots are open");
    }
    assert!(
        !server.submit_post(tenant, pattern(200)).is_admitted(),
        "the ninth slot never existed"
    );
}

/// Per-tenant FIFO through the fair drain: each tenant's completions come
/// back in the order its handles were minted, regardless of how the DRR
/// rounds interleave tenants.
#[test]
fn completions_preserve_per_tenant_handle_order() {
    let mut server = server(roomy_config(), 4);
    let tenants: Vec<TenantId> = (1..4)
        .map(|c| {
            server
                .open_tenant_with(TenantConfig {
                    capacity: 1024,
                    quantum: 8,
                    comm: Some(CommId(c)),
                })
                .unwrap()
        })
        .collect();
    for round in 0..20 {
        for &tenant in &tenants {
            submit_pairs(&mut server, tenant, 5, round);
        }
        server.tick().expect("tick");
    }
    server.run_ticks(30).expect("settle");
    for &tenant in &tenants {
        let stats = server.tenant_stats(tenant);
        assert_eq!(stats.completed, 100, "every posted receive completes");
        assert_eq!(stats.ingress_depth, 0, "the settle ticks drain everything");
        let done = server.take_completions(tenant);
        let seqs: Vec<u64> = done.iter().map(|d| d.recv.0 & ((1 << 48) - 1)).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(
            seqs, sorted,
            "tenant {} completions out of mint order",
            tenant
        );
    }
}

/// The loss-free fallback under multitenancy: tenant 0 floods unmatched
/// messages into a 2-slot unexpected store while tenants 1 and 2 still have
/// most of their admitted work sitting in their ingress queues. The
/// migration fires mid-tick; afterwards every tenant's work — applied,
/// queued in the engine, or still in an ingress — must complete intact.
#[test]
fn fallback_mid_tick_loses_nothing_for_any_tenant() {
    let (tx, rx) = connected_pair();
    let nic = RecvNic::new(rx, BouncePool::new(64, 256));
    let mut budget = DeviceMemory::bluefield3_l3();
    let config = MatchConfig::small()
        .with_max_unexpected(2)
        .with_block_threads(2);
    let mut service =
        MatchingService::offloaded(nic, RdmaDomain::new(), config, &mut budget).unwrap();
    service.enable_command_queue().unwrap();
    let mut server = MatchServer::with_service(service, tx, MatchdConfig::default());

    let storm = server
        .open_tenant_with(TenantConfig {
            capacity: 64,
            quantum: 64,
            comm: Some(CommId(1)),
        })
        .unwrap();
    let victims: Vec<TenantId> = (2..4)
        .map(|c| {
            server
                .open_tenant_with(TenantConfig {
                    capacity: 64,
                    quantum: 2,
                    comm: Some(CommId(c)),
                })
                .unwrap()
        })
        .collect();

    // Five unmatched sends against a 2-slot device store: the first
    // progress call trips UnexpectedStoreFull and migrates to software.
    for i in 0..5u32 {
        server
            .submit_send(storm, Tag(i), vec![0x50 + i as u8])
            .expect_admitted("storm send");
    }
    // The victims admit six pairs each but may only drain one quantum (two
    // requests) before the storm forces the fallback.
    for &tenant in &victims {
        submit_pairs(&mut server, tenant, 6, 0);
        assert_eq!(server.tenant_stats(tenant).ingress_depth, 12);
    }

    server
        .tick()
        .expect("the fallback tick itself must succeed");
    assert!(
        server.service().fell_back(),
        "store pressure must trigger the software fallback"
    );
    for &tenant in &victims {
        assert!(
            server.tenant_stats(tenant).ingress_depth > 0,
            "the fallback must fire while this tenant's ingress is non-empty"
        );
    }

    // Life goes on, on the software path: the queued work drains and
    // completes, and the storm's parked messages land on late receives.
    server.run_ticks(10).expect("post-fallback ticks");
    for &tenant in &victims {
        let stats = server.tenant_stats(tenant);
        assert_eq!(stats.completed, 6, "every victim pair survives");
        assert_eq!(stats.ingress_depth, 0);
        for done in server.take_completions(tenant) {
            assert_eq!(done.data.len(), 1, "payloads ride the migration intact");
        }
    }
    let src = Rank(storm.0 as u32);
    let comm = server.tenant_comm(storm).unwrap();
    for _ in 0..5 {
        server
            .submit_post(storm, ReceivePattern::new(src, TagSel::Any, comm))
            .expect_admitted("late receive for a parked message");
    }
    server.run_ticks(3).expect("late matches");
    let done = server.take_completions(storm);
    assert_eq!(done.len(), 5, "every parked message survives the migration");
    let mut payloads: Vec<u8> = done.iter().map(|d| d.data[0]).collect();
    payloads.sort_unstable();
    assert_eq!(payloads, vec![0x50, 0x51, 0x52, 0x53, 0x54]);
}

/// Tenants refuse what they must: cross-communicator posts, submissions
/// after close.
#[test]
fn rejections_are_terminal_not_backpressure() {
    let mut server = server(roomy_config(), 4);
    let tenant = server
        .open_tenant_with(TenantConfig {
            capacity: 8,
            quantum: 4,
            comm: Some(CommId(1)),
        })
        .unwrap();
    let foreign = ReceivePattern::new(Rank(0), Tag(0), CommId(9));
    assert!(matches!(
        server.submit_post(tenant, foreign),
        Admission::Rejected { .. }
    ));
    server.close_tenant(tenant);
    assert!(matches!(
        server.submit_post(tenant, ReceivePattern::new(Rank(0), Tag(0), CommId(1))),
        Admission::Rejected { .. }
    ));
    assert_eq!(server.tenant_stats(tenant).rejected, 2);
}

/// Per-tenant observability: the labeled matchd counts show up in the
/// server's registry snapshot, and the finished series carry one section
/// per tenant next to the service's, each ending at the tenant's count.
#[test]
fn per_tenant_metrics_reach_prometheus_and_series() {
    let mut server = server(roomy_config(), 4);
    server.attach_series(2);
    let tenants: Vec<TenantId> = (1..3)
        .map(|c| {
            server
                .open_tenant_with(TenantConfig {
                    capacity: 4,
                    quantum: 2,
                    comm: Some(CommId(c)),
                })
                .unwrap()
        })
        .collect();
    for round in 0..6 {
        for &tenant in &tenants {
            submit_pairs(&mut server, tenant, 3, round);
        }
        server.tick().expect("tick");
    }
    let snap = server.observability_snapshot();
    for label in ["tenant=\"0\"", "tenant=\"1\""] {
        assert!(
            snap.counters
                .contains_key(&format!("matchd_admitted_total{{{label}}}")),
            "missing admitted counter for {label} in:\n{snap:?}"
        );
        assert!(
            snap.gauges
                .contains_key(&format!("matchd_ingress_depth{{{label}}}")),
            "missing ingress gauge for {label}"
        );
    }
    assert!(
        snap.counters["matchd_backpressured_total{tenant=\"0\"}"] > 0,
        "the tight ingress must have backpressured tenant 0"
    );
    let (service, sections) = server.finish_series().expect("series were attached");
    assert!(
        service.last().is_some(),
        "the service's series has a terminal point"
    );
    assert_eq!(sections.len(), 2, "one section per tenant, in id order");
    for (&tenant, section) in tenants.iter().zip(&sections) {
        let completed = server.tenant_stats(tenant).completed;
        assert_eq!(section.completed.last(), Some(&completed));
        assert_eq!(section.t.len(), section.ingress_depth.len());
    }
}

/// A submission ring much smaller than the DRR batch: the fair drain hits
/// `SubmissionRingFull` mid-batch, requeues the bounced posts at the front
/// of the tenant's ingress (credit refunded), and works the backlog off
/// ring-capacity-at-a-time across ticks — no error, no loss, no reorder.
#[test]
fn tiny_engine_ring_requeues_the_drain_batch_instead_of_failing_the_tick() {
    let mut server = server(roomy_config().with_ring_capacity(4), 4);
    let tenant = server
        .open_tenant_with(TenantConfig {
            capacity: 1024,
            quantum: 64,
            comm: Some(CommId(1)),
        })
        .unwrap();
    let n = 32u32;
    let mut handles = Vec::new();
    for i in 0..n {
        handles.push(
            server
                .submit_post(tenant, ReceivePattern::new(Rank(0), Tag(i), CommId(1)))
                .expect_admitted("roomy ingress"),
        );
    }

    // First round: the 4-slot ring bounds what one tick can move into the
    // engine; the rest is requeued, not dropped and not an error.
    let report = server.tick().expect("ring-full must not fail the tick");
    assert_eq!(
        report.drained, 4,
        "one tick drains exactly the ring capacity under a post flood"
    );
    assert_eq!(server.tenant_stats(tenant).drained, 4);
    assert_eq!(
        server.tenant_stats(tenant).ingress_depth,
        n as usize - 4,
        "bounced posts return to the ingress"
    );

    // The backlog drains ring-capacity-at-a-time; every post gets through.
    server.run_ticks(12).expect("backlog ticks");
    assert_eq!(server.tenant_stats(tenant).drained, u64::from(n));
    assert_eq!(server.tenant_stats(tenant).ingress_depth, 0);

    // Now the matching half: every post completes, in handle-mint order.
    for i in 0..n {
        server
            .submit_send(tenant, Tag(i), vec![i as u8])
            .expect_admitted("roomy ingress");
    }
    server.run_ticks(4).expect("send ticks");
    let done = server.take_completions(tenant);
    assert_eq!(
        done.len(),
        n as usize,
        "no post may be lost to backpressure"
    );
    for (i, d) in done.iter().enumerate() {
        assert_eq!(d.recv, handles[i], "per-tenant FIFO across the requeue");
        assert_eq!(d.data, vec![i as u8]);
    }
}

/// The lane quota is the engine-side half of the fairness contract: with
/// two tenants backlogged and `lane_quota: Some(q)`, no block carries more
/// than `q` arrivals of either communicator.
#[test]
fn lane_quota_caps_each_tenant_in_every_block() {
    const QUOTA: usize = 2;
    let mut server = MatchServer::new(
        roomy_config()
            .with_block_threads(8)
            .with_lane_quota(Some(QUOTA)),
        MatchdConfig::default(),
    )
    .expect("standalone matchd server");
    let tenants: Vec<TenantId> = (1..=2)
        .map(|c| {
            server
                .open_tenant_with(TenantConfig {
                    capacity: 1024,
                    quantum: 64,
                    comm: Some(CommId(c)),
                })
                .unwrap()
        })
        .collect();
    for round in 0..256 {
        for &tenant in &tenants {
            submit_pairs(&mut server, tenant, 8, round);
        }
        server.tick().expect("tick");
    }
    let occupancy = &server.service().observability_snapshot().hists["otm_block_occupancy"];
    assert!(occupancy.count > 0, "blocks ran");
    assert_eq!(
        occupancy.max,
        2 * QUOTA as u64,
        "two backlogged lanes fill a block to exactly one quota each"
    );
}
