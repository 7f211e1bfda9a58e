//! Oracle equivalence: the parallel optimistic engine must produce
//! bit-identical match assignments to the sequential reference for any
//! interleaving of receive posts and message-block arrivals.
//!
//! MPI matching is a deterministic function of the post/arrival sequence
//! (C1 + C2); the optimistic protocol extracts parallelism but must not
//! change the function. These tests drive both implementations over random
//! workloads across every feature-flag combination and block size. A
//! block's lanes are stepped in a fixed order, so the counters are a function
//! of the workload too (`stats_are_a_function_of_the_workload`).

use mpi_matching::oracle::{MatchEvent, Oracle};
use mpi_matching::{Assignment, MsgHandle, RecvHandle};
use otm::{Delivery, OtmEngine, StatsSnapshot};
use otm_base::{CommId, Envelope, FaultRng, MatchConfig, Rank, ReceivePattern, Tag};

/// A workload: rounds of (posts, message block).
#[derive(Debug, Clone)]
struct Workload {
    rounds: Vec<(Vec<ReceivePattern>, Vec<Envelope>)>,
}

impl Workload {
    /// Flattens into the oracle's event order: each round's posts precede
    /// its arrivals, mirroring how the engine drains posts between blocks.
    fn events(&self) -> Vec<MatchEvent> {
        let mut ev = Vec::new();
        for (posts, msgs) in &self.rounds {
            ev.extend(posts.iter().map(|&p| MatchEvent::Post(p)));
            ev.extend(msgs.iter().map(|&e| MatchEvent::Arrive(e)));
        }
        ev
    }

    /// Runs the workload on an engine, producing an oracle-comparable
    /// assignment with the same dense handle numbering.
    fn run_engine(&self, config: MatchConfig) -> Assignment {
        self.run_engine_with_stats(config).0
    }

    /// [`Workload::run_engine`] plus the engine's final counters.
    fn run_engine_with_stats(&self, config: MatchConfig) -> (Assignment, StatsSnapshot) {
        let mut engine = OtmEngine::new(config).expect("engine config valid");
        let mut asg = Assignment::default();
        let mut next_recv = 0u64;
        let mut next_msg = 0u64;
        for (posts, msgs) in &self.rounds {
            for &pattern in posts {
                let h = RecvHandle(next_recv);
                next_recv += 1;
                match engine.post(pattern, h).expect("post succeeds") {
                    mpi_matching::PostResult::Matched(m) => {
                        asg.recv_to_msg.insert(h, Some(m));
                        asg.msg_to_recv.insert(m, Some(h));
                    }
                    mpi_matching::PostResult::Posted => {
                        asg.recv_to_msg.insert(h, None);
                    }
                }
            }
            let block: Vec<(Envelope, MsgHandle)> = msgs
                .iter()
                .map(|&e| {
                    let m = MsgHandle(next_msg);
                    next_msg += 1;
                    (e, m)
                })
                .collect();
            for d in engine.process_stream(&block).expect("block succeeds") {
                match d {
                    Delivery::Matched { msg, recv } => {
                        asg.msg_to_recv.insert(msg, Some(recv));
                        asg.recv_to_msg.insert(recv, Some(msg));
                    }
                    Delivery::Unexpected { msg } => {
                        asg.msg_to_recv.insert(msg, None);
                    }
                }
            }
        }
        (asg, engine.stats())
    }
}

fn random_comm(rng: &mut FaultRng) -> CommId {
    // Two communicators: matching state must stay isolated between them
    // even inside one block.
    CommId(rng.below(2) as u16)
}

fn random_pattern(rng: &mut FaultRng, ranks: u64, tags: u64) -> ReceivePattern {
    let comm = random_comm(rng);
    let src = Rank(rng.below(ranks) as u32);
    let tag = Tag(rng.below(tags) as u32);
    match rng.below(10) {
        0 => ReceivePattern::new(otm_base::SourceSel::Any, tag, comm),
        1 => ReceivePattern::new(src, otm_base::TagSel::Any, comm),
        2 => ReceivePattern::new(otm_base::SourceSel::Any, otm_base::TagSel::Any, comm),
        _ => ReceivePattern::new(src, tag, comm),
    }
}

fn random_workload(rng: &mut FaultRng, rounds: usize, block_max: usize) -> Workload {
    // A small envelope space maximizes contention and wildcard overlap.
    let ranks = 1 + rng.below(3);
    let tags = 1 + rng.below(3);
    let rounds = (0..rounds)
        .map(|_| {
            let mut posts = Vec::new();
            let n_posts = rng.below(block_max as u64 + 3) as usize;
            let mut i = 0;
            while i < n_posts {
                let p = random_pattern(rng, ranks, tags);
                // Sometimes post a run of compatible receives to exercise
                // sequence ids and the fast path.
                let run = if rng.chance(300) {
                    1 + rng.below(block_max.max(2) as u64) as usize
                } else {
                    1
                };
                for _ in 0..run.min(n_posts - i) {
                    posts.push(p);
                    i += 1;
                }
            }
            let msgs = (0..rng.below(block_max as u64 + 1))
                .map(|_| {
                    Envelope::new(
                        Rank(rng.below(ranks) as u32),
                        Tag(rng.below(tags) as u32),
                        random_comm(rng),
                    )
                })
                .collect();
            (posts, msgs)
        })
        .collect();
    Workload { rounds }
}

fn check(workload: &Workload, config: MatchConfig, label: &str) {
    let expect = Oracle::run(&workload.events());
    let got = workload.run_engine(config);
    assert!(
        got.is_consistent(),
        "{label}: inconsistent engine assignment"
    );
    assert_eq!(
        got, expect,
        "{label}: engine diverged from oracle\nworkload: {workload:?}"
    );
}

fn base_config(block: usize) -> MatchConfig {
    MatchConfig::default()
        .with_block_threads(block)
        .with_max_receives(4096)
        .with_max_unexpected(4096)
        .with_bins(32)
}

#[test]
fn random_workloads_match_oracle_default_flags() {
    let mut rng = FaultRng::new(1);
    for block in [1usize, 2, 4, 8, 32] {
        for case in 0..12 {
            let w = random_workload(&mut rng, 12, block);
            check(
                &w,
                base_config(block),
                &format!("block={block} case={case}"),
            );
        }
    }
}

#[test]
fn random_workloads_match_oracle_fast_path_off() {
    let mut rng = FaultRng::new(2);
    for block in [4usize, 32] {
        for case in 0..10 {
            let w = random_workload(&mut rng, 10, block);
            check(
                &w,
                base_config(block).with_fast_path(false),
                &format!("no-fp block={block} case={case}"),
            );
        }
    }
}

#[test]
fn random_workloads_match_oracle_early_booking_check() {
    let mut rng = FaultRng::new(3);
    for block in [4usize, 32] {
        for case in 0..10 {
            let w = random_workload(&mut rng, 10, block);
            check(
                &w,
                base_config(block).with_early_booking_check(true),
                &format!("ebc block={block} case={case}"),
            );
        }
    }
}

#[test]
fn random_workloads_match_oracle_single_bin() {
    // One bin per table: maximal chain collisions, the worst case for the
    // index structures.
    let mut rng = FaultRng::new(5);
    for case in 0..10 {
        let w = random_workload(&mut rng, 10, 16);
        check(
            &w,
            base_config(16).with_bins(1),
            &format!("1-bin case={case}"),
        );
    }
}

#[test]
fn wc_storms_match_oracle() {
    // The with-conflict scenario of Fig. 8: every receive identical, every
    // message identical — maximal conflict pressure on the fast path.
    for (flag, label) in [(true, "wc-fp"), (false, "wc-sp")] {
        let rounds: Vec<(Vec<ReceivePattern>, Vec<Envelope>)> = (0..20)
            .map(|_| {
                (
                    vec![ReceivePattern::exact(Rank(0), Tag(0)); 32],
                    vec![Envelope::world(Rank(0), Tag(0)); 32],
                )
            })
            .collect();
        let w = Workload { rounds };
        check(&w, base_config(32).with_fast_path(flag), label);
    }
}

#[test]
fn wildcard_storms_match_oracle() {
    // All receives are ANY_ANY (single shared list, serial semantics) while
    // messages vary: stresses cross-index arbitration and the both-wild
    // chain under conflicts.
    let mut rng = FaultRng::new(6);
    let rounds: Vec<(Vec<ReceivePattern>, Vec<Envelope>)> = (0..15)
        .map(|_| {
            (
                vec![ReceivePattern::any_any(); 8],
                (0..8)
                    .map(|_| Envelope::world(Rank(rng.below(3) as u32), Tag(rng.below(3) as u32)))
                    .collect(),
            )
        })
        .collect();
    let w = Workload { rounds };
    check(&w, base_config(8), "any-any storm");
}

#[test]
fn interleaving_repetition_stresses_schedules() {
    // Re-run one contentious workload many times on fresh engines: every
    // run must agree with the oracle.
    let mut rng = FaultRng::new(7);
    let w = random_workload(&mut rng, 8, 32);
    let expect = Oracle::run(&w.events());
    for round in 0..30 {
        let got = w.run_engine(base_config(32));
        assert_eq!(got, expect, "schedule round {round}");
    }
}

#[test]
fn stats_are_a_function_of_the_workload() {
    // Every other round is a WC storm (Fig. 8), the rest random traffic. Two
    // fresh default engines must agree on more than the match set: which
    // path resolved each conflict and how deep each search went.
    let mut rng = FaultRng::new(8);
    let mut w = random_workload(&mut rng, 20, 32);
    for round in w.rounds.iter_mut().step_by(2) {
        *round = (
            vec![ReceivePattern::exact(Rank(0), Tag(0)); 32],
            vec![Envelope::world(Rank(0), Tag(0)); 32],
        );
    }
    let (first_asg, first) = w.run_engine_with_stats(MatchConfig::default());
    let (second_asg, second) = w.run_engine_with_stats(MatchConfig::default());
    assert_eq!(first_asg, second_asg);
    assert_eq!(first, second);
    assert!(
        first.direct_conflicts > 0 && first.fast_path > 0 && first.slow_path > 0,
        "the workload must exercise both resolution paths: {first:?}"
    );
}

/// A long randomized soak across schedules and configurations — too slow
/// for every `cargo test`, run explicitly with `cargo test -- --ignored`.
#[test]
#[ignore = "multi-minute soak; run with -- --ignored"]
fn soak_random_schedules() {
    let mut rng = FaultRng::new(0xC0FFEE);
    for case in 0..200 {
        let w = random_workload(&mut rng, 10, 32);
        let expect = Oracle::run(&w.events());
        for (flags, label) in [
            ((true, false), "default"),
            ((false, false), "no-fp"),
            ((true, true), "ebc"),
        ] {
            let (fp, ebc) = flags;
            let got = w.run_engine(
                base_config(32)
                    .with_fast_path(fp)
                    .with_early_booking_check(ebc),
            );
            assert_eq!(got, expect, "soak case {case} ({label})");
        }
    }
}
