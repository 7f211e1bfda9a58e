//! End-to-end application replay equivalence (the PR 10 oracle).
//!
//! Drives Table II application traces through the **complete** production
//! path — per-source-rank queue pairs under the sender reliability
//! protocol, the receive NIC's bounded staging and cross-QP total-order
//! gate, the service's command queue, per-communicator submission rings,
//! cross-communicator packing, the sharded engine and the eager/rendezvous
//! payload protocol — and asserts the matched (receive, message) pairs are
//! *identical* to the engine-direct replay of the same trace, which never
//! touches a wire.
//!
//! The hostile-wire variants repeat the check with ≥10% drop plus
//! duplicate/reorder faults: the wire may change how often packets cross,
//! never what matches. All seeds are pinned, so every
//! run (including the nightly TSan pass) replays the same packets.

use dpa_sim::app_replay::{engine_direct_pairs, replay_app, AppReplayConfig};
use otm_base::FaultPlan;
use otm_trace::AppTrace;

const TRACE_SEED: u64 = 42;
const BINS: usize = 128;

/// ≥10% drop, plus duplication and reordering — the ISSUE's fault floor.
fn hostile_plan() -> FaultPlan {
    FaultPlan::new(0x10a)
        .with_drop_permille(120)
        .with_duplicate_permille(100)
        .with_reorder_permille(100)
        .with_reorder_window(4)
}

fn app(name: &str) -> AppTrace {
    let spec = otm_workloads::catalog()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("{name} not in the Table II catalog"));
    (spec.generate)(TRACE_SEED)
}

fn assert_equivalent(trace: &AppTrace, cfg: &AppReplayConfig) {
    let oracle = engine_direct_pairs(trace, BINS);
    let out = replay_app(trace, cfg).expect("end-to-end replay completes");
    assert_eq!(
        out.matched_pairs, oracle,
        "{}: end-to-end matched pairs diverged (faulty {})",
        trace.name, out.report.faulty
    );
    assert_eq!(out.report.completed as usize, oracle.len());
    // Every arrival must actually have crossed the total-order gate — the
    // proof this test exercised the full wire path, not a shortcut.
    assert_eq!(
        out.report.gate_released, out.report.messages,
        "{}: not every message crossed the gate",
        trace.name
    );
}

#[test]
fn amg_clean_wire_matches_engine_direct() {
    assert_equivalent(&app("AMG"), &AppReplayConfig::default().with_bins(BINS));
}

#[test]
fn mocfe_wildcard_heavy_clean_wire_matches_engine_direct() {
    // MOCFE's ANY_SOURCE gather receives make matching order-sensitive:
    // without the total-order gate, two sources racing the same wildcard
    // would match in wire order, not trace order.
    assert_equivalent(&app("MOCFE"), &AppReplayConfig::default().with_bins(BINS));
}

#[test]
fn crystal_router_rendezvous_clean_wire_matches_engine_direct() {
    // CrystalRouter's 256-element payloads take the rendezvous RTS +
    // RDMA-READ path end to end.
    let trace = app("CrystalRouter");
    let oracle = engine_direct_pairs(&trace, BINS);
    let out = replay_app(&trace, &AppReplayConfig::default().with_bins(BINS))
        .expect("end-to-end replay completes");
    assert_eq!(out.matched_pairs, oracle);
    assert_eq!(
        out.report.rendezvous_messages, out.report.messages,
        "every CrystalRouter payload is rendezvous-sized"
    );
}

#[test]
fn mocfe_hostile_wire_matches_engine_direct() {
    let trace = app("MOCFE");
    let cfg = AppReplayConfig::default()
        .with_bins(BINS)
        .with_faults(hostile_plan());
    let oracle = engine_direct_pairs(&trace, BINS);
    let out = replay_app(&trace, &cfg).expect("reliability recovers the hostile wire");
    assert_eq!(out.matched_pairs, oracle);
    assert!(
        out.report.wire_drops > 0 && out.report.retransmits > 0,
        "the fault plan never fired (drops {}, retransmits {})",
        out.report.wire_drops,
        out.report.retransmits
    );
}

#[test]
fn amg_hostile_wire_matches_engine_direct() {
    let cfg = AppReplayConfig::default()
        .with_bins(BINS)
        .with_faults(hostile_plan());
    assert_equivalent(&app("AMG"), &cfg);
}

#[test]
#[ignore = "minutes-long full sweep; appbench and CI smoke cover the catalog"]
fn full_catalog_clean_wire_matches_engine_direct() {
    for spec in otm_workloads::catalog() {
        let trace = (spec.generate)(TRACE_SEED);
        assert_equivalent(&trace, &AppReplayConfig::default().with_bins(BINS));
    }
}
