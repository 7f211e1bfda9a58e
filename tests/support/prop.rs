//! A seeded case runner for the property suites (`tests/properties.rs`,
//! `crates/trace/tests/parser_props.rs`) and the one random-event generator
//! they share with their seeded deterministic companions.
//!
//! [`cases`] draws `n` inputs from `gen(rng, size)` and hands each to
//! `check`, which fails by panicking (plain `assert!`). Case seeds derive
//! from the property's name, so every run of a property sees the same
//! inputs. `size` caps the length of generated collections ([`len`],
//! [`vec`]); every case runs at [`FULL`], which caps nothing. On a failure
//! the runner re-generates the failing seed at bisected smaller sizes and
//! reports the smallest input that still fails, with the seed and size that
//! rebuild it: `check(gen(&mut FaultRng::new(seed), size))`.

#![allow(dead_code)]

use mpi_matching::oracle::MatchEvent;
use otm_base::envelope::{SourceSel, TagSel};
use otm_base::hash::mix64;
use otm_base::{CommId, Envelope, FaultRng, Rank, ReceivePattern, Tag};
use std::fmt::Debug;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The size every case runs at; larger than any collection a property draws.
pub const FULL: usize = 512;

/// A failing case, shrunk: `gen(&mut FaultRng::new(seed), size)` rebuilds
/// the smallest input found that still fails.
pub struct Failure {
    pub seed: u64,
    pub size: usize,
    pub message: String,
}

/// Runs `check` on the input `gen` draws from `seed` at `size`; the panic
/// message if it fails.
fn failure_of<T>(
    seed: u64,
    size: usize,
    gen: &impl Fn(&mut FaultRng, usize) -> T,
    check: &impl Fn(T),
) -> Option<String> {
    let input = gen(&mut FaultRng::new(seed), size);
    let panic = catch_unwind(AssertUnwindSafe(|| check(input))).err()?;
    Some(match panic.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p.downcast_ref::<&str>().copied().unwrap_or("panic").into(),
    })
}

/// Runs `n` cases of property `name`; the first failing one, shrunk.
pub fn run<T>(
    name: &str,
    n: u64,
    gen: impl Fn(&mut FaultRng, usize) -> T,
    check: impl Fn(T),
) -> Option<Failure> {
    let base = name.bytes().fold(0, |h, b| mix64(h ^ u64::from(b)));
    (0..n).find_map(|case| {
        let seed = mix64(base.wrapping_add(case));
        let mut message = failure_of(seed, FULL, &gen, &check)?;
        // Invariant: `hi` fails, everything tried below `lo` passed.
        let (mut lo, mut hi) = (0, FULL);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match failure_of(seed, mid, &gen, &check) {
                Some(m) => (hi, message) = (mid, m),
                None => lo = mid + 1,
            }
        }
        Some(Failure {
            seed,
            size: hi,
            message,
        })
    })
}

/// Asserts property `name` over `n` seeded cases.
pub fn cases<T: Debug>(
    name: &str,
    n: u64,
    gen: impl Fn(&mut FaultRng, usize) -> T,
    check: impl Fn(T),
) {
    if let Some(f) = run(name, n, &gen, check) {
        panic!(
            "property `{name}` failed: {}\n  case seed {:#x}, smallest failing size {}\n  input: {:?}",
            f.message,
            f.seed,
            f.size,
            gen(&mut FaultRng::new(f.seed), f.size)
        );
    }
}

/// A value uniform in `range`.
pub fn range(rng: &mut FaultRng, range: Range<u64>) -> u64 {
    range.start + rng.below(range.end - range.start)
}

/// A length uniform in `range`, capped at `size` above the range's start.
pub fn len(rng: &mut FaultRng, range: Range<usize>, size: usize) -> usize {
    let extra = rng.below((range.end - range.start) as u64) as usize;
    range.start + extra.min(size)
}

/// A vector of [`len`]`(range, size)` elements drawn by `elem`.
pub fn vec<T>(
    rng: &mut FaultRng,
    range: Range<usize>,
    size: usize,
    mut elem: impl FnMut(&mut FaultRng) -> T,
) -> Vec<T> {
    (0..len(rng, range, size)).map(|_| elem(rng)).collect()
}

/// Relative weights of the event kinds, in the order arrival, exact post,
/// `ANY_SOURCE` post, `ANY_TAG` post, both-wildcard post.
pub type Mix = [u64; 5];

/// The mix of [`event`] and [`comm_event`]: 40% arrivals, 30% exact posts,
/// 10% of each wildcard class.
pub const MIX: Mix = [4, 3, 1, 1, 1];

/// One matching event on `comm` over a `ranks` × `tags` space.
pub fn event_mix(rng: &mut FaultRng, comm: CommId, ranks: u32, tags: u32, mix: Mix) -> MatchEvent {
    let src = Rank(rng.below(u64::from(ranks)) as u32);
    let tag = Tag(rng.below(u64::from(tags)) as u32);
    let mut draw = rng.below(mix.iter().sum());
    let mut kind = 0;
    while draw >= mix[kind] {
        draw -= mix[kind];
        kind += 1;
    }
    match kind {
        0 => MatchEvent::Arrive(Envelope::new(src, tag, comm)),
        1 => MatchEvent::Post(ReceivePattern::new(src, tag, comm)),
        2 => MatchEvent::Post(ReceivePattern::new(SourceSel::Any, tag, comm)),
        3 => MatchEvent::Post(ReceivePattern::new(src, TagSel::Any, comm)),
        _ => MatchEvent::Post(ReceivePattern::new(SourceSel::Any, TagSel::Any, comm)),
    }
}

/// One world-communicator event over a 3 × 3 (rank, tag) space — small, so
/// wildcards and duplicates collide often.
pub fn event(rng: &mut FaultRng) -> MatchEvent {
    event_mix(rng, CommId::WORLD, 3, 3, MIX)
}

/// One event on one of three communicators, tagged with its shard index
/// (communicator id minus one): an interleaved multi-communicator stream.
pub fn comm_event(rng: &mut FaultRng) -> (u16, MatchEvent) {
    let c = rng.below(3) as u16;
    (c, event_mix(rng, CommId(c + 1), 3, 3, MIX))
}
