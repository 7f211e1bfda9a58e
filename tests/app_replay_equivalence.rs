//! End-to-end application replay equivalence (the PR 10 oracle).
//!
//! Drives Table II application traces through the **complete** production
//! path — per-source-rank queue pairs under the sender reliability
//! protocol, the receive NIC's bounded staging and cross-QP total-order
//! gate, the service's command queue, the engine's bounded per-communicator
//! queues, cross-communicator packing, the sharded engine and the
//! eager/rendezvous payload protocol — and asserts the matched (receive,
//! message) pairs are *identical* to the engine-direct replay of the same
//! trace, which never touches a wire, and that the totals agree with the
//! trace analyzer's.
//!
//! The hostile-wire variants repeat the check with ≥10% drop plus
//! duplicate/reorder faults: the wire may change how often packets cross,
//! never what matches. All seeds are pinned, so every run replays the same
//! packets.

use dpa_sim::app_replay::{engine_direct_pairs, replay_app, AppReplayConfig, AppReplayOutcome};
use otm_base::FaultPlan;
use otm_metrics::json::{JsonWriter, WriteJson};
use otm_trace::{replay, AppTrace, MpiOp, RankTrace, ReplayConfig};

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

/// BigFFT cut to the receives of its first `destinations` ranks and the
/// sends addressed to them: every destination posts 62 receives and takes 62
/// rendezvous messages, one from each of 62 peers.
fn bigfft_destinations(destinations: u32) -> AppTrace {
    let full = app("BigFFT");
    let ranks = full.ranks.into_iter().map(|r| {
        let ops = r.ops.into_iter().filter(|t| match t.op {
            MpiOp::Irecv { .. } | MpiOp::Recv { .. } => r.rank.0 < destinations,
            MpiOp::Isend { dest, .. } | MpiOp::Send { dest, .. } => dest.0 < destinations,
            _ => false,
        });
        RankTrace {
            rank: r.rank,
            ops: ops.collect(),
        }
    });
    AppTrace {
        name: full.name,
        ranks: ranks.collect(),
    }
}

fn assert_equivalent(trace: &AppTrace, cfg: &AppReplayConfig) -> AppReplayOutcome {
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
    out
}

/// One Table II application on a clean wire: the end-to-end pairs equal the
/// engine-direct oracle's, every match the trace analyzer counts completes,
/// and every message it leaves unexpected is one the replay never completed.
fn assert_clean_wire_matches_engine_direct_and_the_analyzer(name: &str) -> AppReplayOutcome {
    let trace = app(name);
    let out = assert_equivalent(&trace, &AppReplayConfig::default().with_bins(BINS));
    let analyzer = replay(&trace, &ReplayConfig { bins: BINS });
    let stats = &analyzer.match_stats;
    let report = &out.report;
    assert_eq!(
        report.completed,
        stats.matched_on_arrival + stats.matched_on_post,
        "{name}: completions must equal the analyzer's match count"
    );
    assert_eq!(
        report.messages - report.completed,
        analyzer.final_umq as u64,
        "{name}: unmatched messages must equal the analyzer's final UMQ"
    );
    out
}

#[test]
fn amg_clean_wire_matches_engine_direct() {
    assert_clean_wire_matches_engine_direct_and_the_analyzer("AMG");
}

#[test]
fn mocfe_wildcard_heavy_clean_wire_matches_engine_direct() {
    // MOCFE's ANY_SOURCE gather receives make matching order-sensitive:
    // without the total-order gate, two sources racing the same wildcard
    // would match in wire order, not trace order.
    let analyzer = replay(&app("MOCFE"), &ReplayConfig { bins: BINS });
    assert!(
        analyzer.tag_usage.wildcard_recv_fraction > 0.0,
        "MOCFE exercises wildcards"
    );
    assert_clean_wire_matches_engine_direct_and_the_analyzer("MOCFE");
}

#[test]
fn crystal_router_rendezvous_clean_wire_matches_engine_direct() {
    // CrystalRouter's 256-element payloads take the rendezvous RTS +
    // RDMA-READ path end to end.
    let out = assert_clean_wire_matches_engine_direct_and_the_analyzer("CrystalRouter");
    assert_eq!(
        out.report.rendezvous_messages, out.report.messages,
        "every CrystalRouter payload is rendezvous-sized"
    );
}

/// LULESH, Nekbone and BoxLib CNS: with AMG, MOCFE and CrystalRouter above,
/// the six small- and mid-scale Table II applications.
#[test]
fn table_ii_apps_clean_wire_match_engine_direct_and_the_analyzer() {
    for name in ["LULESH", "Nekbone", "BoxLib CNS"] {
        assert_clean_wire_matches_engine_direct_and_the_analyzer(name);
    }
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

/// FNV-1a over the sorted matched pairs: which receive took which message.
fn pairs_hash(pairs: &[dpa_sim::app_replay::MatchedPair]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(dest, recv, msg) in pairs {
        for byte in u64::from(dest)
            .to_le_bytes()
            .into_iter()
            .chain(recv.to_le_bytes())
            .chain(msg.to_le_bytes())
        {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// `(application, under hostile_plan(), matched pairs, pairs_hash, report
/// JSON)` at trace seed 42, 128 bins and a series every 4 polls, with
/// `elapsed_secs` and `msgs_per_sec` zeroed. Recorded when every destination
/// built and dropped its own endpoints; never edit them.
const GOLDEN: [(&str, bool, usize, u64, &str); 8] = [
    (
        "AMG",
        false,
        408,
        0xc6fa_26d9_e2cb_9da5,
        r#"{"app":"AMG","processes":8,"mode":"selective-repeat","faulty":false,"posts":408,"messages":408,"eager_messages":408,"rendezvous_messages":0,"completed":408,"wire_drops":0,"wire_duplicates":0,"wire_reorders":0,"wire_delays":0,"retransmits":0,"fast_retransmits":0,"resend_events":0,"acks_received":204,"backoff_polls":0,"retransmit_amplification":0,"rx_duplicates":0,"rx_gaps":0,"rx_staged_out_of_order":0,"acks_sent":204,"gate_parked":128,"gate_released":408,"path_nc":123,"path_wc_fp":50,"path_wc_sp":235,"fallbacks":0,"elapsed_secs":0,"msgs_per_sec":0,"series":{"cadence":4,"samples":10,"t":[1,5,9,13,17,21,25,29,33,36],"queue_depth":[0,0,0,0,0,0,0,0,0,0],"block_occupancy":[6,4,4.4,4.285714285714286,4,4.181818181818182,4.153846153846154,4,4.117647058823529,4],"path_counts":{"nc":[2,5,8,11,14,17,20,22,24,25],"wc_fp":[0,1,2,3,4,5,6,8,10,11],"wc_sp":[4,6,12,16,18,24,28,30,36,36],"post":[0,0,0,0,0,0,0,0,0,0]},"matched":[6,12,22,30,36,46,54,60,70,72],"retransmits":[0,0,0,0,0,0,0,0,0,0],"fallbacks":[0,0,0,0,0,0,0,0,0,0]}}"#,
    ),
    (
        "AMG",
        true,
        408,
        0xc6fa_26d9_e2cb_9da5,
        r#"{"app":"AMG","processes":8,"mode":"selective-repeat","faulty":true,"posts":408,"messages":408,"eager_messages":408,"rendezvous_messages":0,"completed":408,"wire_drops":56,"wire_duplicates":52,"wire_reorders":30,"wire_delays":0,"retransmits":60,"fast_retransmits":24,"resend_events":60,"acks_received":274,"backoff_polls":342,"retransmit_amplification":1.0714285714285714,"rx_duplicates":56,"rx_gaps":0,"rx_staged_out_of_order":24,"acks_sent":274,"gate_parked":142,"gate_released":408,"path_nc":189,"path_wc_fp":44,"path_wc_sp":175,"fallbacks":0,"elapsed_secs":0,"msgs_per_sec":0,"series":{"cadence":4,"samples":25,"t":[1,5,9,13,17,21,25,29,33,37,41,45,49,53,57,61,65,69,73,77,81,85,89,93,95],"queue_depth":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"block_occupancy":[6,4.5,4.5,3.3333333333333335,2.6,2.6,2.6,3.142857142857143,3.3333333333333335,3.272727272727273,3.230769230769231,3.2,3.176470588235294,3.2222222222222223,3,3.0952380952380953,3.0952380952380953,2.9130434782608696,2.9130434782608696,2.9130434782608696,2.9130434782608696,2.9130434782608696,2.9130434782608696,2.9166666666666665,2.88],"path_counts":{"nc":[2,4,4,5,7,7,7,12,15,18,20,23,27,28,30,31,31,33,33,33,33,33,33,35,36],"wc_fp":[0,0,0,0,1,1,1,1,2,3,5,6,6,7,7,8,8,8,8,8,8,8,8,8,9],"wc_sp":[4,5,5,5,5,5,5,9,13,15,17,19,21,23,23,26,26,26,26,26,26,26,26,27,27],"post":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]},"matched":[6,9,9,10,13,13,13,22,30,36,42,48,54,58,60,65,65,67,67,67,67,67,67,70,72],"retransmits":[0,0,0,1,2,2,4,4,4,5,6,6,6,8,8,9,9,10,10,11,11,11,11,12,12],"fallbacks":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}}"#,
    ),
    (
        "MOCFE",
        false,
        696,
        0xcd11_c41f_eba2_2bdd,
        r#"{"app":"MOCFE","processes":64,"mode":"selective-repeat","faulty":false,"posts":696,"messages":696,"eager_messages":696,"rendezvous_messages":0,"completed":696,"wire_drops":0,"wire_duplicates":0,"wire_reorders":0,"wire_delays":0,"retransmits":0,"fast_retransmits":0,"resend_events":0,"acks_received":696,"backoff_polls":0,"retransmit_amplification":0,"rx_duplicates":0,"rx_gaps":0,"rx_staged_out_of_order":0,"acks_sent":696,"gate_parked":248,"gate_released":696,"path_nc":452,"path_wc_fp":244,"path_wc_sp":0,"fallbacks":0,"elapsed_secs":0,"msgs_per_sec":0,"series":{"cadence":4,"samples":5,"t":[1,5,9,13,16],"queue_depth":[0,0,0,0,0],"block_occupancy":[31.5,31.5,31.5,31.5,31.5],"path_counts":{"nc":[63,128,193,258,260],"wc_fp":[0,61,122,183,244],"wc_sp":[0,0,0,0,0],"post":[0,0,0,0,0]},"matched":[63,189,315,441,504],"retransmits":[0,0,0,0,0],"fallbacks":[0,0,0,0,0]}}"#,
    ),
    (
        "MOCFE",
        true,
        696,
        0xcd11_c41f_eba2_2bdd,
        r#"{"app":"MOCFE","processes":64,"mode":"selective-repeat","faulty":true,"posts":696,"messages":696,"eager_messages":696,"rendezvous_messages":0,"completed":696,"wire_drops":75,"wire_duplicates":98,"wire_reorders":53,"wire_delays":0,"retransmits":75,"fast_retransmits":0,"resend_events":75,"acks_received":696,"backoff_polls":839,"retransmit_amplification":1,"rx_duplicates":98,"rx_gaps":0,"rx_staged_out_of_order":0,"acks_sent":696,"gate_parked":459,"gate_released":696,"path_nc":462,"path_wc_fp":234,"path_wc_sp":0,"fallbacks":0,"elapsed_secs":0,"msgs_per_sec":0,"series":{"cadence":4,"samples":54,"t":[1,5,9,13,17,21,25,29,33,37,41,45,49,53,57,61,65,69,73,77,81,85,89,93,97,101,105,109,113,117,121,125,129,133,137,141,145,149,153,157,161,165,169,173,177,181,185,189,193,197,201,205,209,212],"queue_depth":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"block_occupancy":[0,0,0,0,0,0,31.5,21.333333333333332,21.333333333333332,21,21,21,21,20,17.75,17.77777777777778,17.181818181818183,15.153846153846153,15.153846153846153,15.571428571428571,15.571428571428571,15.571428571428571,15.571428571428571,14.882352941176471,14.882352941176471,14.882352941176471,14.38888888888889,14.38888888888889,14.38888888888889,15.75,15.285714285714286,15.285714285714286,14.772727272727273,14.772727272727273,14.772727272727273,14.772727272727273,15.48,15.307692307692308,15.75,14.933333333333334,14.933333333333334,14.67741935483871,14.67741935483871,14.67741935483871,14.67741935483871,14.67741935483871,15.1875,15.1875,15.1875,15.1875,15.1875,15.1875,15.1875,15.272727272727273],"path_counts":{"nc":[0,0,0,0,0,0,63,64,64,65,65,65,65,81,83,101,130,132,132,133,133,133,133,136,136,136,142,142,142,198,199,199,200,200,200,200,211,222,265,267,267,268,268,268,268,268,269,269,269,269,269,269,269,270],"wc_fp":[0,0,0,0,0,0,0,0,0,19,19,19,19,59,59,59,59,65,65,85,85,85,85,117,117,117,117,117,117,117,122,122,125,125,125,125,176,176,176,181,181,187,187,187,187,187,217,217,217,217,217,217,217,234],"wc_sp":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"post":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]},"matched":[0,0,0,0,0,0,63,64,64,84,84,84,84,140,142,160,189,197,197,218,218,218,218,253,253,253,259,259,259,315,321,321,325,325,325,325,387,398,441,448,448,455,455,455,455,455,486,486,486,486,486,486,486,504],"retransmits":[0,0,7,7,7,7,8,8,8,17,17,17,17,18,18,26,26,26,26,33,33,33,33,34,34,45,45,45,45,46,46,46,53,53,53,53,56,56,61,61,61,71,71,71,71,74,74,74,74,74,74,74,74,75],"fallbacks":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}}"#,
    ),
    (
        "CrystalRouter",
        false,
        1896,
        0x6555_0832_1e16_24e5,
        r#"{"app":"CrystalRouter","processes":100,"mode":"selective-repeat","faulty":false,"posts":1896,"messages":1896,"eager_messages":0,"rendezvous_messages":1896,"completed":1896,"wire_drops":0,"wire_duplicates":0,"wire_reorders":0,"wire_delays":0,"retransmits":0,"fast_retransmits":0,"resend_events":0,"acks_received":1896,"backoff_polls":0,"retransmit_amplification":0,"rx_duplicates":0,"rx_gaps":0,"rx_staged_out_of_order":0,"acks_sent":1896,"gate_parked":0,"gate_released":1896,"path_nc":1896,"path_wc_fp":0,"path_wc_sp":0,"fallbacks":0,"elapsed_secs":0,"msgs_per_sec":0,"series":{"cadence":4,"samples":12,"t":[1,5,9,13,17,21,25,29,33,37,41,42],"queue_depth":[0,0,0,0,0,0,0,0,0,0,0,0],"block_occupancy":[1,1,1,1,1,1,1,1,1,1,1,1],"path_counts":{"nc":[1,3,5,7,9,11,13,15,17,19,21,21],"wc_fp":[0,0,0,0,0,0,0,0,0,0,0,0],"wc_sp":[0,0,0,0,0,0,0,0,0,0,0,0],"post":[0,0,0,0,0,0,0,0,0,0,0,0]},"matched":[1,3,5,7,9,11,13,15,17,19,21,21],"retransmits":[0,0,0,0,0,0,0,0,0,0,0,0],"fallbacks":[0,0,0,0,0,0,0,0,0,0,0,0]}}"#,
    ),
    (
        "CrystalRouter",
        true,
        1896,
        0x6555_0832_1e16_24e5,
        r#"{"app":"CrystalRouter","processes":100,"mode":"selective-repeat","faulty":true,"posts":1896,"messages":1896,"eager_messages":0,"rendezvous_messages":1896,"completed":1896,"wire_drops":392,"wire_duplicates":332,"wire_reorders":192,"wire_delays":0,"retransmits":392,"fast_retransmits":0,"resend_events":392,"acks_received":1896,"backoff_polls":3328,"retransmit_amplification":1,"rx_duplicates":332,"rx_gaps":0,"rx_staged_out_of_order":0,"acks_sent":1896,"gate_parked":0,"gate_released":1896,"path_nc":1896,"path_wc_fp":0,"path_wc_sp":0,"fallbacks":0,"elapsed_secs":0,"msgs_per_sec":0,"series":{"cadence":4,"samples":20,"t":[1,5,9,13,17,21,25,29,33,37,41,45,49,53,57,61,65,69,73,76],"queue_depth":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"block_occupancy":[1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1],"path_counts":{"nc":[1,3,5,7,9,9,9,10,10,11,12,13,13,14,16,16,16,18,20,21],"wc_fp":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"wc_sp":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"post":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]},"matched":[1,3,5,7,9,9,9,10,10,11,12,13,13,14,16,16,16,18,20,21],"retransmits":[0,0,0,0,0,0,0,1,1,2,2,2,2,3,3,3,3,4,4,4],"fallbacks":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}}"#,
    ),
    (
        "LULESH",
        false,
        39_936,
        0xc99a_582f_2ff4_1099,
        r#"{"app":"LULESH","processes":64,"mode":"selective-repeat","faulty":false,"posts":39936,"messages":39936,"eager_messages":39936,"rendezvous_messages":0,"completed":39936,"wire_drops":0,"wire_duplicates":0,"wire_reorders":0,"wire_delays":0,"retransmits":0,"fast_retransmits":0,"resend_events":0,"acks_received":13312,"backoff_polls":0,"retransmit_amplification":0,"rx_duplicates":0,"rx_gaps":0,"rx_staged_out_of_order":0,"acks_sent":13312,"gate_parked":36376,"gate_released":39936,"path_nc":39936,"path_wc_fp":0,"path_wc_sp":0,"fallbacks":0,"elapsed_secs":0,"msgs_per_sec":0,"series":{"cadence":4,"samples":5,"t":[1,5,9,13,16],"queue_depth":[0,0,0,0,0],"block_occupancy":[26,26,26,26,26],"path_counts":{"nc":[78,234,390,546,624],"wc_fp":[0,0,0,0,0],"wc_sp":[0,0,0,0,0],"post":[0,0,0,0,0]},"matched":[78,234,390,546,624],"retransmits":[0,0,0,0,0],"fallbacks":[0,0,0,0,0]}}"#,
    ),
    (
        "LULESH",
        true,
        39_936,
        0xc99a_582f_2ff4_1099,
        r#"{"app":"LULESH","processes":64,"mode":"selective-repeat","faulty":true,"posts":39936,"messages":39936,"eager_messages":39936,"rendezvous_messages":0,"completed":39936,"wire_drops":6272,"wire_duplicates":3968,"wire_reorders":4288,"wire_delays":0,"retransmits":7808,"fast_retransmits":4800,"resend_events":7296,"acks_received":22528,"backoff_polls":31808,"retransmit_amplification":1.2448979591836735,"rx_duplicates":5504,"rx_gaps":0,"rx_staged_out_of_order":6336,"acks_sent":22528,"gate_parked":36140,"gate_released":39936,"path_nc":39936,"path_wc_fp":0,"path_wc_sp":0,"fallbacks":0,"elapsed_secs":0,"msgs_per_sec":0,"series":{"cadence":4,"samples":40,"t":[1,5,9,13,17,21,25,29,33,37,41,45,49,53,57,61,65,69,73,77,81,85,89,93,97,101,105,109,113,117,121,125,129,133,137,141,145,149,153,155],"queue_depth":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"block_occupancy":[2,10.5,10.5,15.6,14.428571428571429,13,15.454545454545455,14.076923076923077,13.571428571428571,13.941176470588236,13.941176470588236,13.941176470588236,15.3,15.3,15.3,14.857142857142858,13.782608695652174,14.416666666666666,15,15.03448275862069,15.03448275862069,15.03448275862069,15.03448275862069,15.03448275862069,15.03448275862069,15.290322580645162,14.84375,14.84375,15.735294117647058,15.735294117647058,15.735294117647058,15.6,15.666666666666666,15.972972972972974,15.947368421052632,15.947368421052632,15.947368421052632,15.947368421052632,15.947368421052632,16],"path_counts":{"nc":[2,21,21,78,101,104,170,183,190,237,237,237,306,306,306,312,317,346,390,436,436,436,436,436,436,474,475,475,535,535,535,546,564,591,606,606,606,606,606,624],"wc_fp":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"wc_sp":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"post":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]},"matched":[2,21,21,78,101,104,170,183,190,237,237,237,306,306,306,312,317,346,390,436,436,436,436,436,436,474,475,475,535,535,535,546,564,591,606,606,606,606,606,624],"retransmits":[0,10,10,14,24,25,29,35,39,41,52,57,58,58,58,59,68,70,73,77,78,82,83,83,83,85,96,101,105,105,105,107,115,115,120,121,121,121,121,122],"fallbacks":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}}"#,
    ),
];

/// Every count `replay_app` reports — wire faults, reliability, gate, path
/// split and the busiest destination's series — pinned byte for byte. An
/// endpoint set reused across destinations must read exactly as fresh
/// endpoints did: a counter or registry that carried one destination's
/// counts into the next would show here first (the hostile series'
/// cumulative `retransmits` column).
#[test]
fn golden_reports_are_pinned() {
    for (name, hostile, pairs, hash, json) in GOLDEN {
        assert_golden(&app(name), hostile, pairs, hash, json);
    }
    let bigfft = bigfft_destinations(8);
    for (hostile, pairs, hash, json) in GOLDEN_BIGFFT {
        assert_golden(&bigfft, hostile, pairs, hash, json);
    }
}

/// Replays `trace` as the golden rows were recorded and compares the pair
/// count, their hash and the report JSON.
fn assert_golden(trace: &AppTrace, hostile: bool, pairs: usize, hash: u64, json: &str) {
    let name = &trace.name;
    let mut cfg = AppReplayConfig::default()
        .with_bins(BINS)
        .with_series_cadence(4);
    if hostile {
        cfg = cfg.with_faults(hostile_plan());
    }
    let out = replay_app(trace, &cfg).expect("end-to-end replay completes");
    let mut report = out.report;
    report.elapsed_secs = 0.0;
    report.msgs_per_sec = 0.0;
    let mut w = JsonWriter::new();
    report.write_json(&mut w);
    assert_eq!(w.finish(), json, "{name} (hostile {hostile})");
    assert_eq!(out.matched_pairs.len(), pairs, "{name} (hostile {hostile})");
    assert_eq!(
        pairs_hash(&out.matched_pairs),
        hash,
        "{name} (hostile {hostile})"
    );
}

/// BigFFT's first 8 destinations (`bigfft_destinations(8)`), clean and under
/// `hostile_plan()`: 62 peers a destination, every message rendezvous-sized.
/// Recorded as the rows above, before the replay split its events per
/// destination; never edit them.
const GOLDEN_BIGFFT: [(bool, usize, u64, &str); 2] = [
    (
        false,
        496,
        0xefd5_4f79_6503_5525,
        r#"{"app":"BigFFT","processes":1024,"mode":"selective-repeat","faulty":false,"posts":496,"messages":496,"eager_messages":0,"rendezvous_messages":496,"completed":496,"wire_drops":0,"wire_duplicates":0,"wire_reorders":0,"wire_delays":0,"retransmits":0,"fast_retransmits":0,"resend_events":0,"acks_received":496,"backoff_polls":0,"retransmit_amplification":0,"rx_duplicates":0,"rx_gaps":0,"rx_staged_out_of_order":0,"acks_sent":496,"gate_parked":473,"gate_released":496,"path_nc":496,"path_wc_fp":0,"path_wc_sp":0,"fallbacks":0,"elapsed_secs":0,"msgs_per_sec":0,"series":{"cadence":4,"samples":2,"t":[1,4],"queue_depth":[0,0],"block_occupancy":[31,31],"path_counts":{"nc":[31,62],"wc_fp":[0,0],"wc_sp":[0,0],"post":[0,0]},"matched":[31,62],"retransmits":[0,0],"fallbacks":[0,0]}}"#,
    ),
    (
        true,
        496,
        0xefd5_4f79_6503_5525,
        r#"{"app":"BigFFT","processes":1024,"mode":"selective-repeat","faulty":true,"posts":496,"messages":496,"eager_messages":0,"rendezvous_messages":496,"completed":496,"wire_drops":56,"wire_duplicates":56,"wire_reorders":40,"wire_delays":0,"retransmits":56,"fast_retransmits":0,"resend_events":56,"acks_received":496,"backoff_polls":600,"retransmit_amplification":1,"rx_duplicates":56,"rx_gaps":0,"rx_staged_out_of_order":0,"acks_sent":496,"gate_parked":441,"gate_released":496,"path_nc":496,"path_wc_fp":0,"path_wc_sp":0,"fallbacks":0,"elapsed_secs":0,"msgs_per_sec":0,"series":{"cadence":4,"samples":11,"t":[1,5,9,13,17,21,25,29,33,37,38],"queue_depth":[0,0,0,0,0,0,0,0,0,0,0],"block_occupancy":[16,9,9,9,9,9,10.333333333333334,8.75,8.75,10.333333333333334,10.333333333333334],"path_counts":{"nc":[16,18,18,18,18,18,31,35,35,62,62],"wc_fp":[0,0,0,0,0,0,0,0,0,0,0],"wc_sp":[0,0,0,0,0,0,0,0,0,0,0],"post":[0,0,0,0,0,0,0,0,0,0,0]},"matched":[16,18,18,18,18,18,31,35,35,62,62],"retransmits":[0,0,4,4,4,4,5,5,5,7,7],"fallbacks":[0,0,0,0,0,0,0,0,0,0,0]}}"#,
    ),
];

#[test]
#[ignore = "minutes-long full sweep; appbench and CI smoke cover the catalog"]
fn full_catalog_clean_wire_matches_engine_direct() {
    for spec in otm_workloads::catalog() {
        let trace = (spec.generate)(TRACE_SEED);
        assert_equivalent(&trace, &AppReplayConfig::default().with_bins(BINS));
    }
}
