//! Every matching engine in the workspace — the traditional list, the
//! bin-based and rank-based baselines, the analyzer's four-index emulation,
//! and the parallel optimistic engine — must compute the same
//! post/arrival pairing as the sequential oracle, because MPI matching is a
//! deterministic function of the event sequence.

use mpi_matching::binned::BinnedMatcher;
use mpi_matching::oracle::{MatchEvent, Oracle};
use mpi_matching::rank_based::RankBasedMatcher;
use mpi_matching::traditional::TraditionalMatcher;
use mpi_matching::Matcher;
use otm::SequentialOtm;
use otm_base::{CommId, FaultRng, MatchConfig, Rank, ReceivePattern, Tag};
use otm_trace::emul::FourIndexMatcher;

#[path = "support/prop.rs"]
mod prop;

/// `len` events with no both-wildcard receives (4 : 3 : 1 : 1 : 0).
fn random_events(rng: &mut FaultRng, len: usize, ranks: u32, tags: u32) -> Vec<MatchEvent> {
    (0..len)
        .map(|_| prop::event_mix(rng, CommId::WORLD, ranks, tags, [4, 3, 1, 1, 0]))
        .collect()
}

fn engines() -> Vec<Box<dyn Matcher>> {
    vec![
        Box::new(TraditionalMatcher::new()),
        Box::new(BinnedMatcher::new(1)),
        Box::new(BinnedMatcher::new(32)),
        Box::new(BinnedMatcher::new(128)),
        Box::new(RankBasedMatcher::new()),
        Box::new(FourIndexMatcher::new(1)),
        Box::new(FourIndexMatcher::new(64)),
        Box::new(
            SequentialOtm::new(
                MatchConfig::default()
                    .with_max_receives(4096)
                    .with_max_unexpected(4096),
            )
            .expect("engine"),
        ),
    ]
}

#[test]
fn all_engines_agree_with_the_oracle_on_random_workloads() {
    let mut rng = FaultRng::new(2024);
    for case in 0..8 {
        let events = random_events(&mut rng, 300, 3, 3);
        let expect = Oracle::run(&events);
        for mut engine in engines() {
            let got = Oracle::drive(engine.as_mut(), &events).unwrap();
            assert_eq!(
                got,
                expect,
                "case {case}: {} diverged from the oracle",
                engine.strategy_name()
            );
        }
    }
}

#[test]
fn all_engines_agree_on_wildcard_heavy_workloads() {
    let mut rng = FaultRng::new(99);
    let events: Vec<MatchEvent> = (0..400)
        .map(|_| prop::event_mix(&mut rng, CommId::WORLD, 2, 2, [2, 1, 1, 1, 1]))
        .collect();
    let expect = Oracle::run(&events);
    for mut engine in engines() {
        let got = Oracle::drive(engine.as_mut(), &events).unwrap();
        assert_eq!(got, expect, "{} diverged", engine.strategy_name());
    }
}

#[test]
fn queue_lengths_agree_across_engines() {
    // Outcomes determine queue lengths, so every engine must report the
    // same PRQ/UMQ sizes after the same workload.
    let mut rng = FaultRng::new(5);
    let events = random_events(&mut rng, 250, 4, 4);
    let mut oracle = Oracle::new();
    Oracle::drive(&mut oracle, &events).unwrap();
    for mut engine in engines() {
        Oracle::drive(engine.as_mut(), &events).unwrap();
        assert_eq!(
            engine.prq_len(),
            oracle.prq_len(),
            "{}",
            engine.strategy_name()
        );
        assert_eq!(
            engine.umq_len(),
            oracle.umq_len(),
            "{}",
            engine.strategy_name()
        );
    }
}

#[test]
fn probe_agrees_with_the_oracle_after_every_event() {
    // MPI_Iprobe semantics: the oldest matching unexpected message. Since
    // outcomes are deterministic, every engine's probe must agree with the
    // oracle's at every point of the run, for several probe patterns.
    let mut rng = FaultRng::new(31);
    let events = random_events(&mut rng, 150, 3, 3);
    let probes = [
        ReceivePattern::exact(Rank(0), Tag(0)),
        ReceivePattern::any_source(Tag(1)),
        ReceivePattern::any_tag(Rank(2)),
        ReceivePattern::any_any(),
    ];
    let mut oracle = Oracle::new();
    let mut others = engines();
    for (i, ev) in events.iter().enumerate() {
        Oracle::drive(&mut oracle, std::slice::from_ref(ev)).unwrap();
        for engine in &mut others {
            Oracle::drive(engine.as_mut(), std::slice::from_ref(ev)).unwrap();
        }
        for p in &probes {
            let expect = oracle.probe(p);
            for engine in &others {
                assert_eq!(
                    engine.probe(p),
                    expect,
                    "event {i}: {} probe({p}) diverged",
                    engine.strategy_name()
                );
            }
        }
    }
}

#[test]
fn strategy_names_are_distinct() {
    let names: Vec<&str> = engines().iter().map(|e| e.strategy_name()).collect();
    let mut unique: Vec<&str> = names.clone();
    unique.dedup();
    // binned/four-index appear at several bin counts; collapse those first.
    let mut set: std::collections::HashSet<&str> = names.iter().copied().collect();
    set.insert("oracle");
    assert!(
        set.len() >= 5,
        "expected at least five distinct strategies, got {set:?}"
    );
}
