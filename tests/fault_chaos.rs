//! Seeded chaos-oracle tests: a hostile wire (drops, duplicates, reorders,
//! delays — all at or above the 10% the acceptance bar demands) under a
//! random multi-communicator workload must not change a single matched
//! (receive, message) pair relative to the fault-free run.
//!
//! Determinism does the heavy lifting: the fault plan is seeded, the
//! workload is seeded, and virtual time is the poll counter, so every run
//! of these tests injects exactly the same faults at exactly the same
//! points. The property companion in `tests/properties.rs` explores further
//! seeds; these tests pin seeds so failures reproduce byte-for-byte.

mod support;

use otm_base::FaultPlan;
use support::chaos::assert_chaos_equivalence;

/// 15% drop + 15% duplicate + 15% reorder + 10% delay.
fn hostile_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_drop_permille(150)
        .with_duplicate_permille(150)
        .with_reorder_permille(150)
        .with_delay_permille(100)
}

#[test]
fn chaos_direct_path_matches_fault_free_run() {
    let evidence =
        assert_chaos_equivalence(0x00dd_5eed, hostile_plan(0xfa01), 6, 24, false, None, None);
    assert!(
        evidence.injected_faults > 0,
        "the wire must have misbehaved"
    );
    assert!(
        evidence.retransmits > 0,
        "drops must have forced retransmissions"
    );
}

#[test]
fn chaos_command_queue_path_matches_fault_free_run() {
    // Same oracle through the packing scheduler's command-queue drain: the
    // cross-communicator reordering must stay invisible under faults too.
    let evidence =
        assert_chaos_equivalence(0x00dd_5eed, hostile_plan(0xfa01), 6, 24, true, None, None);
    assert!(
        evidence.injected_faults > 0,
        "the wire must have misbehaved"
    );
    assert!(evidence.retransmits > 0);
}

#[test]
fn chaos_holds_across_seeds() {
    // A small sweep of workload/fault seed pairs — cheap insurance that the
    // pinned seeds above aren't a lucky pocket.
    for (ws, fs) in [(1u64, 2u64), (3, 4), (5, 6), (0xbeef, 0xcafe)] {
        assert_chaos_equivalence(ws, hostile_plan(fs), 4, 16, false, None, None);
        assert_chaos_equivalence(ws, hostile_plan(fs), 4, 16, true, None, None);
    }
}

#[test]
fn chaos_with_bounded_fault_budget_quiesces() {
    // A fault budget caps the chaos: after `max_faults` injections the wire
    // is perfect, so even extreme rates (50% drop) terminate. This is the
    // liveness knob the property tests rely on.
    let plan = FaultPlan::new(99)
        .with_drop_permille(500)
        .with_duplicate_permille(200)
        .with_reorder_permille(200)
        .with_max_faults(200);
    let evidence = assert_chaos_equivalence(7, plan, 4, 16, true, None, None);
    assert!(evidence.injected_faults > 0);
    assert!(evidence.injected_faults <= 200, "the budget is a hard cap");
}

#[test]
fn chaos_holds_without_staging_and_staging_retransmits_less() {
    // The same pinned seeds with the staging buffer at capacity 0 (every
    // out-of-order packet discarded, nothing SACKed, every loss repaired by
    // a timeout resend of the un-SACKed window) and at its default: matched
    // pairs must be identical to the fault-free run either way, and staging
    // — which lets the sender resend only holes — must recover from the
    // identical fault schedule with strictly fewer retransmits.
    let (seed, plan) = (0x00dd_5eed, hostile_plan(0xfa01));
    let discard = assert_chaos_equivalence(seed, plan.clone(), 6, 24, true, None, Some(0));
    let staged = assert_chaos_equivalence(seed, plan, 6, 24, true, None, None);
    assert!(discard.injected_faults > 0 && staged.injected_faults > 0);
    assert_eq!(
        discard.staged_out_of_order, 0,
        "capacity 0 never stages out-of-order packets"
    );
    assert!(
        discard.stage_overflow > 0,
        "capacity 0 must have discarded out-of-order packets"
    );
    assert!(
        staged.staged_out_of_order > 0,
        "the default link must have exercised the staging buffer"
    );
    assert!(
        staged.retransmits < discard.retransmits,
        "staging must retransmit less than discarding on the same fault \
         schedule ({} !< {})",
        staged.retransmits,
        discard.retransmits
    );
}

#[test]
fn chaos_staging_buffer_survives_reorder_heavy_wire_across_windows() {
    // Reorder-dominated faults (35% reorder, drops comparatively rare) are
    // the staging buffer's worst case: long out-of-order runs park in the
    // BTreeMap and drain in bursts when a hole fills. Sweep sender window
    // caps so the buffer sees shallow and deep in-flight ranges; the
    // matched pairs must stay identical in every configuration.
    let plan = FaultPlan::new(0x05ee_d0d3)
        .with_drop_permille(60)
        .with_duplicate_permille(100)
        .with_reorder_permille(350)
        .with_delay_permille(150);
    for window in [4usize, 8, 16, 48] {
        let evidence =
            assert_chaos_equivalence(0xc0ffee, plan.clone(), 5, 20, true, Some(window), None);
        assert!(
            evidence.staged_out_of_order > 0,
            "window {window}: the reorder-heavy wire must stage packets"
        );
    }
}
