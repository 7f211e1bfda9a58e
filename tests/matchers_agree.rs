//! Every matching engine in the workspace — the traditional list, the
//! bin-based and rank-based baselines, and the optimistic engine at one bin
//! (where its four indexes degenerate to the list), at 64 bins and at its
//! default — must compute the same post/arrival pairing as the sequential
//! oracle, because MPI matching is a deterministic function of the event
//! sequence.

use mpi_matching::binned::BinnedMatcher;
use mpi_matching::oracle::{MatchEvent, Oracle};
use mpi_matching::rank_based::RankBasedMatcher;
use mpi_matching::traditional::TraditionalMatcher;
use mpi_matching::Matcher;
use otm::SequentialOtm;
use otm_base::{CommId, Envelope, FaultRng, MatchConfig, Rank, ReceivePattern, Tag};
use otm_trace::{AppTrace, MpiOp};

#[path = "support/prop.rs"]
mod prop;

/// `len` events with no both-wildcard receives (4 : 3 : 1 : 1 : 0).
fn random_events(rng: &mut FaultRng, len: usize, ranks: u32, tags: u32) -> Vec<MatchEvent> {
    (0..len)
        .map(|_| prop::event_mix(rng, CommId::WORLD, ranks, tags, [4, 3, 1, 1, 0]))
        .collect()
}

fn sequential_otm(bins: usize) -> Box<dyn Matcher> {
    let config = MatchConfig::default()
        .with_bins(bins)
        .with_max_receives(4096)
        .with_max_unexpected(4096);
    Box::new(SequentialOtm::new(config).expect("engine"))
}

fn engines() -> Vec<Box<dyn Matcher>> {
    vec![
        Box::new(TraditionalMatcher::new()),
        Box::new(BinnedMatcher::new(1)),
        Box::new(BinnedMatcher::new(32)),
        Box::new(BinnedMatcher::new(128)),
        Box::new(RankBasedMatcher::new()),
        sequential_otm(1),
        sequential_otm(64),
        sequential_otm(MatchConfig::default().bins),
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

/// A trace's per-destination event streams in the analyzer's merged order:
/// each rank's posts, and the sends addressed to it as arrivals.
fn per_destination_streams(trace: &AppTrace) -> Vec<Vec<MatchEvent>> {
    let mut streams = vec![Vec::new(); trace.processes()];
    for (rank, op) in trace.merged_ops() {
        match op.op {
            MpiOp::Irecv { src, tag, comm, .. } | MpiOp::Recv { src, tag, comm, .. } => {
                let pattern = ReceivePattern { src, tag, comm };
                streams[rank.0 as usize].push(MatchEvent::Post(pattern));
            }
            MpiOp::Isend {
                dest, tag, comm, ..
            }
            | MpiOp::Send {
                dest, tag, comm, ..
            } => {
                if let Some(stream) = streams.get_mut(dest.0 as usize) {
                    let env = Envelope {
                        src: rank,
                        tag,
                        comm,
                    };
                    stream.push(MatchEvent::Arrive(env));
                }
            }
            _ => {}
        }
    }
    streams
}

/// Application traffic, pair by pair: every destination of AMG and MOCFE
/// (MOCFE's gathers post ANY_SOURCE receives) matches as the oracle does in
/// every engine — the traditional list the MPI-CPU backend runs and the
/// optimistic engine the offloaded one runs among them.
#[test]
fn all_engines_agree_with_the_oracle_on_application_traffic() {
    for name in ["AMG", "MOCFE"] {
        let spec = otm_workloads::catalog()
            .into_iter()
            .find(|s| s.name == name)
            .expect("a Table II application");
        for seed in [7, 42] {
            let mut pairs = 0;
            for (dest, events) in per_destination_streams(&(spec.generate)(seed))
                .iter()
                .enumerate()
            {
                let expect = Oracle::run(events);
                for mut engine in engines() {
                    let got = Oracle::drive(engine.as_mut(), events).unwrap();
                    assert_eq!(
                        got,
                        expect,
                        "{name} seed {seed} rank {dest}: {} diverged",
                        engine.strategy_name()
                    );
                }
                pairs += expect.pairs();
            }
            assert!(pairs > 0, "{name} seed {seed}: no pair to compare");
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
    // binned/optimistic appear at several bin counts; collapse those first.
    let mut set: std::collections::HashSet<&str> = names.iter().copied().collect();
    set.insert("oracle");
    assert!(
        set.len() >= 5,
        "expected at least five distinct strategies, got {set:?}"
    );
}

/// Posts for tags `0..n` from `src_of(tag)`, then the matching arrivals in
/// reverse: the worst case for a list, whose every search walks to the tail.
fn reverse_fan_in(n: u32, src_of: fn(u32) -> u32) -> Vec<MatchEvent> {
    let post = |t| MatchEvent::Post(ReceivePattern::exact(Rank(src_of(t)), Tag(t)));
    let arrive = |t| MatchEvent::Arrive(otm_base::Envelope::world(Rank(src_of(t)), Tag(t)));
    (0..n).map(post).chain((0..n).rev().map(arrive)).collect()
}

#[test]
fn one_bin_degenerates_to_the_list() {
    // Fully specified receives at one bin: the four indexes are one list, so
    // every search examines what the traditional matcher's does.
    let events = reverse_fan_in(32, |_| 0);
    let mut one_bin = sequential_otm(1);
    let mut list = TraditionalMatcher::new();
    Oracle::drive(one_bin.as_mut(), &events).unwrap();
    Oracle::drive(&mut list, &events).unwrap();
    assert_eq!(one_bin.stats().prq_search, list.stats().prq_search);
    assert_eq!(one_bin.stats().umq_search, list.stats().umq_search);
}

#[test]
fn more_bins_shorten_the_optimistic_search() {
    let events = reverse_fan_in(128, |t| t % 8);
    let depth_at = |bins| {
        let mut engine = sequential_otm(bins);
        Oracle::drive(engine.as_mut(), &events).unwrap();
        engine.stats().prq_search.mean()
    };
    let (d1, d32, d128) = (depth_at(1), depth_at(32), depth_at(128));
    assert!(d32 < d1 / 4.0, "1 bin {d1}, 32 bins {d32}");
    assert!(d128 <= d32, "32 bins {d32}, 128 bins {d128}");
}
