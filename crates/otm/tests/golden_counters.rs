//! Engine counters are a function of the workload — and of nothing else, such
//! as where in the engine they are counted or when they are published.
//!
//! One seeded mix is driven through two engines (fast path on and off) and
//! everything a reader can observe — the whole [`otm::StatsSnapshot`], every
//! `otm_*` counter and the three depth/occupancy histograms — is compared with
//! literals recorded at commit `af273cd`, before the counters left the
//! per-lane path. A change that moves a literal changed what the engine
//! counts, not only how.

use mpi_matching::{MsgHandle, RecvHandle};
use otm::{Command, OtmEngine};
use otm_base::envelope::{SourceSel, TagSel};
use otm_base::{CommId, Envelope, FaultRng, MatchConfig, Rank, ReceivePattern, Tag};
use std::fmt::Write;

/// The engine under test plus the handle counters of its driver.
struct Driver {
    engine: OtmEngine,
    next_recv: u64,
    next_msg: u64,
}

impl Driver {
    fn new(config: MatchConfig) -> Self {
        Driver {
            engine: OtmEngine::new(config).expect("valid config"),
            next_recv: 0,
            next_msg: 0,
        }
    }

    fn post(&mut self, pattern: ReceivePattern) {
        let handle = RecvHandle(self.next_recv);
        self.next_recv += 1;
        self.engine.post(pattern, handle).expect("post succeeds");
    }

    /// One direct block, then the matched-total invariant.
    fn block(&mut self, envs: &[Envelope]) {
        let msgs: Vec<(Envelope, MsgHandle)> = envs
            .iter()
            .map(|&env| {
                self.next_msg += 1;
                (env, MsgHandle(self.next_msg - 1))
            })
            .collect();
        self.engine.process_block(&msgs).expect("block succeeds");
        self.check_matched_total();
    }

    fn submit_post(&mut self, pattern: ReceivePattern) {
        let handle = RecvHandle(self.next_recv);
        self.next_recv += 1;
        self.engine
            .submit(Command::Post { pattern, handle })
            .expect("ring has room");
    }

    fn submit_arrival(&mut self, env: Envelope) {
        let msg = MsgHandle(self.next_msg);
        self.next_msg += 1;
        self.engine
            .submit(Command::Arrival { env, msg })
            .expect("ring has room");
    }

    /// One drain, then the matched-total invariant.
    fn drain(&mut self) {
        let report = self.engine.drain();
        assert!(report.error.is_none(), "drain failed: {:?}", report.error);
        self.check_matched_total();
    }

    /// `otm_matched_total == Σ otm_resolutions_total{path}`, and the stats
    /// agree with the registry on it.
    fn check_matched_total(&self) {
        let snap = self.engine.metrics_snapshot();
        let by_path: u64 = snap
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("otm_resolutions_total"))
            .map(|(_, &v)| v)
            .sum();
        assert_eq!(snap.counters["otm_matched_total"], by_path);
        let stats = self.engine.stats();
        assert_eq!(stats.matched + stats.matched_on_post, by_path);
    }

    /// Everything a reader can observe that is not a clock, as text.
    fn observed(&self) -> String {
        let mut out = String::new();
        writeln!(out, "{:?}", self.engine.stats()).unwrap();
        let snap = self.engine.metrics_snapshot();
        for (name, value) in &snap.counters {
            // Registered only with the `trace-events` feature, and zero.
            if name.starts_with("otm_") && name != "otm_span_dropped_total" {
                writeln!(out, "{name} = {value}").unwrap();
            }
        }
        for name in [
            "otm_search_depth",
            "otm_umq_match_depth",
            "otm_block_occupancy",
        ] {
            let h = &snap.hists[name];
            let buckets: Vec<(usize, u64)> = h
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c != 0)
                .map(|(i, &c)| (i, c))
                .collect();
            writeln!(
                out,
                "{name}: count {} sum {} max {} buckets {buckets:?}",
                h.count, h.sum, h.max
            )
            .unwrap();
        }
        out
    }
}

fn on(comm: u16, src: u32, tag: u32) -> Envelope {
    Envelope::new(Rank(src), Tag(tag), CommId(comm))
}

fn exact(comm: u16, src: u32, tag: u32) -> ReceivePattern {
    ReceivePattern::new(Rank(src), Tag(tag), CommId(comm))
}

/// The mix: every block shape the ladder's workloads produce, directly and
/// through the command queue, then a seeded random tail. Four bins make the
/// chains collide, so depths vary.
fn drive(config: MatchConfig) -> String {
    let mut d = Driver::new(config);
    let n = 32u32;

    // A pre-posted no-conflict block.
    for i in 0..n {
        d.post(exact(0, i, 0));
    }
    d.block(&(0..n).map(|i| on(0, i, 0)).collect::<Vec<_>>());

    // A full-width with-conflict block: every lane wants the same receive.
    for _ in 0..n {
        d.post(exact(0, 7, 7));
    }
    d.block(&vec![on(0, 7, 7); n as usize]);

    // Half of a block goes unexpected; then posts, youngest first and one
    // wildcard, match on post at varying depths, and two post for good.
    for i in 0..n / 2 {
        d.post(exact(0, i, 1));
    }
    d.block(&(0..n).map(|i| on(0, i, 1)).collect::<Vec<_>>());
    for i in (n / 2 + 1..n).rev() {
        d.post(exact(0, i, 1));
    }
    d.post(ReceivePattern::new(SourceSel::Any, TagSel::Any, CommId(0)));
    d.post(exact(0, 90, 1));
    d.post(exact(0, 91, 1));

    // One-lane blocks: a match and a miss.
    d.block(&[on(0, 90, 1)]);
    d.block(&[on(0, 55, 5)]);

    // One block over four communicators, arrival order unsorted.
    for comm in 1..=4u16 {
        for i in 0..6 {
            d.post(exact(comm, i, 2));
        }
    }
    let mixed: Vec<Envelope> = (0..n).map(|i| on(4 - (i % 4) as u16, i / 4, 2)).collect();
    d.block(&mixed);

    // The same shapes through the queue: posts hoisted past other
    // communicators' arrivals, fused blocks, posts that match on post.
    for round in 0..3u32 {
        for i in 0..48u32 {
            let comm = 1 + (i % 4) as u16;
            if round != 1 {
                d.submit_post(exact(comm, i / 4, 10 + round));
            }
            d.submit_arrival(on(comm, i / 4, 10 + round));
        }
        d.drain();
        if round == 1 {
            for i in 0..48u32 {
                d.submit_post(exact(1 + (i % 4) as u16, i / 4, 10 + round));
            }
            d.drain();
        }
    }

    // A seeded tail: small key space, wildcards, runs of compatible posts.
    let mut rng = FaultRng::new(22);
    for _ in 0..40 {
        for _ in 0..rng.below(40) {
            let (comm, src, tag) = (
                rng.below(3) as u16,
                rng.below(3) as u32,
                rng.below(2) as u32,
            );
            let pattern = match rng.below(8) {
                0 => ReceivePattern::new(SourceSel::Any, Tag(tag), CommId(comm)),
                1 => ReceivePattern::new(Rank(src), TagSel::Any, CommId(comm)),
                _ => exact(comm, src, tag),
            };
            for _ in 0..1 + rng.below(4) * rng.below(2) {
                d.submit_post(pattern);
            }
            if rng.chance(600) {
                d.submit_arrival(on(
                    rng.below(3) as u16,
                    rng.below(3) as u32,
                    rng.below(2) as u32,
                ));
            }
        }
        for _ in 0..rng.below(50) {
            d.submit_arrival(on(
                rng.below(3) as u16,
                rng.below(3) as u32,
                rng.below(2) as u32,
            ));
        }
        d.drain();
    }
    d.observed()
}

fn config() -> MatchConfig {
    MatchConfig::default()
        .with_max_receives(8192)
        .with_max_unexpected(8192)
        .with_bins(4)
}

#[test]
fn counters_match_the_recorded_literals_fast_path_on() {
    assert_eq!(drive(config()), FAST_PATH_ON);
}

#[test]
fn counters_match_the_recorded_literals_fast_path_off() {
    assert_eq!(drive(config().with_fast_path(false)), FAST_PATH_OFF);
}

#[rustfmt::skip]
const FAST_PATH_ON: &str = r#"StatsSnapshot { blocks: 195, messages: 1550, matched: 506, unexpected: 1044, optimistic_ok: 346, direct_conflicts: 163, induced_resolutions: 281, fast_path: 32, slow_path: 412, search_depth_sum: 2071, search_count: 1550, search_depth_max: 17, matched_on_post: 945, posted: 531, umq_depth_sum: 3296, umq_search_count: 1476 }
otm_conflicts_total = 163
otm_matched_total = 1451
otm_resolutions_total{path="nc"} = 346
otm_resolutions_total{path="post"} = 945
otm_resolutions_total{path="wc_fp"} = 32
otm_resolutions_total{path="wc_sp"} = 128
otm_search_depth: count 1550 sum 2071 max 17 buckets [(0, 751), (1, 446), (2, 191), (3, 85), (4, 75), (5, 2)]
otm_umq_match_depth: count 945 sum 3296 max 48 buckets [(1, 399), (2, 303), (3, 121), (4, 93), (5, 26), (6, 3)]
otm_block_occupancy: count 195 sum 1550 max 32 buckets [(1, 19), (2, 44), (3, 71), (4, 32), (5, 20), (6, 9)]
"#;

#[rustfmt::skip]
const FAST_PATH_OFF: &str = r#"StatsSnapshot { blocks: 195, messages: 1550, matched: 506, unexpected: 1044, optimistic_ok: 346, direct_conflicts: 163, induced_resolutions: 281, fast_path: 0, slow_path: 444, search_depth_sum: 2071, search_count: 1550, search_depth_max: 17, matched_on_post: 945, posted: 531, umq_depth_sum: 3296, umq_search_count: 1476 }
otm_conflicts_total = 163
otm_matched_total = 1451
otm_resolutions_total{path="nc"} = 346
otm_resolutions_total{path="post"} = 945
otm_resolutions_total{path="wc_fp"} = 0
otm_resolutions_total{path="wc_sp"} = 160
otm_search_depth: count 1550 sum 2071 max 17 buckets [(0, 751), (1, 446), (2, 191), (3, 85), (4, 75), (5, 2)]
otm_umq_match_depth: count 945 sum 3296 max 48 buckets [(1, 399), (2, 303), (3, 121), (4, 93), (5, 26), (6, 3)]
otm_block_occupancy: count 195 sum 1550 max 32 buckets [(1, 19), (2, 44), (3, 71), (4, 32), (5, 20), (6, 9)]
"#;
