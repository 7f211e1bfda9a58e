//! Property tests for the trace ingestion surfaces: the DUMPI-text parser
//! and the binary cache must tolerate arbitrary input (errors, never
//! panics) and round-trip every representable trace losslessly.

#[path = "../../../tests/support/prop.rs"]
mod prop;

use otm_base::envelope::{SourceSel, TagSel};
use otm_base::{CommId, FaultRng, Rank, Tag};
use otm_trace::model::{AppTrace, CollectiveKind, MpiOp, OneSidedKind, RankTrace, ReqId, TimedOp};
use otm_trace::{cache, dumpi};
use prop::{cases, range, vec};
use std::ops::Range;

/// Cases per property.
const CASES: u64 = 48;

fn op(rng: &mut FaultRng) -> MpiOp {
    const COLLECTIVES: [CollectiveKind; 10] = [
        CollectiveKind::Barrier,
        CollectiveKind::Bcast,
        CollectiveKind::Reduce,
        CollectiveKind::Allreduce,
        CollectiveKind::Gather,
        CollectiveKind::Gatherv,
        CollectiveKind::Allgather,
        CollectiveKind::Alltoall,
        CollectiveKind::Alltoallv,
        CollectiveKind::Scan,
    ];
    const ONE_SIDED: [OneSidedKind; 3] = [
        OneSidedKind::Put,
        OneSidedKind::Get,
        OneSidedKind::Accumulate,
    ];
    let rank = Rank(rng.below(64) as u32);
    let tag = Tag(rng.below(1000) as u32);
    let comm = CommId(rng.below(4) as u16);
    let count = rng.below(1_000_000);
    let request = ReqId(rng.below(1000) as u32);
    // One selector in four is a wildcard.
    let src = if rng.chance(250) {
        SourceSel::Any
    } else {
        SourceSel::Rank(rank)
    };
    let tag_sel = if rng.chance(250) {
        TagSel::Any
    } else {
        TagSel::Tag(tag)
    };
    match rng.below(8) {
        0 => MpiOp::Isend {
            dest: rank,
            tag,
            comm,
            count,
            request,
        },
        1 => MpiOp::Irecv {
            src,
            tag: tag_sel,
            comm,
            count,
            request,
        },
        2 => MpiOp::Send {
            dest: rank,
            tag,
            comm,
            count,
        },
        3 => MpiOp::Recv {
            src,
            tag: tag_sel,
            comm,
            count,
        },
        4 => MpiOp::Wait { request },
        5 => MpiOp::Waitall {
            nreqs: rng.below(64) as u32,
        },
        6 => MpiOp::Collective {
            kind: COLLECTIVES[rng.below(10) as usize],
            comm,
        },
        _ => MpiOp::OneSided {
            kind: ONE_SIDED[rng.below(3) as usize],
        },
    }
}

/// 1–5 ranks of 0–39 timed ops each, times uniform in `0.0..1e6`.
fn trace(rng: &mut FaultRng, size: usize) -> AppTrace {
    let ranks = vec(rng, 1..6, size, |rng| {
        vec(rng, 0..40, size, |rng| TimedOp {
            time: rng.below(1 << 53) as f64 / (1u64 << 53) as f64 * 1e6,
            op: op(rng),
        })
    });
    AppTrace {
        name: "prop".into(),
        ranks: ranks
            .into_iter()
            .enumerate()
            .map(|(i, ops)| RankTrace {
                rank: Rank(i as u32),
                ops,
            })
            .collect(),
    }
}

/// A string of `len` characters drawn from the ASCII `alphabet`.
fn string(rng: &mut FaultRng, len: Range<usize>, size: usize, alphabet: &[u8]) -> String {
    let bytes = vec(rng, len, size, |rng| {
        alphabet[rng.below(alphabet.len() as u64) as usize]
    });
    String::from_utf8(bytes).expect("ASCII alphabet")
}

/// Any scalar value that is not a control character: half printable ASCII,
/// half drawn from all of Unicode.
fn printable(rng: &mut FaultRng) -> char {
    loop {
        let code = if rng.chance(500) {
            range(rng, 0x20..0x7f)
        } else {
            rng.below(0x11_0000)
        };
        match char::from_u32(code as u32) {
            Some(c) if !c.is_control() => return c,
            _ => {}
        }
    }
}

const LETTERS: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_";
const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz";

/// Arbitrary text never panics the parser.
#[test]
fn parser_never_panics_on_garbage() {
    cases(
        "parser_never_panics_on_garbage",
        CASES,
        |rng, size| {
            vec(rng, 0..401, size, printable)
                .into_iter()
                .collect::<String>()
        },
        |text| {
            let _ = dumpi::parse_rank_text(&text);
        },
    );
}

/// Structured-looking garbage never panics either.
#[test]
fn parser_never_panics_on_mpi_shaped_garbage() {
    cases(
        "parser_never_panics_on_mpi_shaped_garbage",
        CASES,
        |rng, size| {
            let name = string(rng, 1..13, size, LETTERS);
            let time = string(rng, 1..13, size, b"0123456789eE+.-");
            let body: String = vec(rng, 0..6, size, |rng| {
                let key = string(rng, 1..7, size, LOWER);
                let value = string(rng, 1..7, size, b"0123456789-");
                format!("int {key}={value}\n")
            })
            .concat();
            (name, time, body)
        },
        |(name, time, body)| {
            let text = format!("MPI_{name} entering at walltime {time}\n{body}MPI_{name} returning at walltime {time}\n");
            let _ = dumpi::parse_rank_text(&text);
        },
    );
}

/// Every representable trace survives text round-tripping.
#[test]
fn text_round_trip_is_lossless() {
    cases("text_round_trip_is_lossless", CASES, trace, |trace| {
        for rank in &trace.ranks {
            let text = dumpi::write_rank_text(&rank.ops);
            let parsed = dumpi::parse_rank_text(&text).expect("writer output parses");
            assert_eq!(&parsed.ops, &rank.ops);
            assert_eq!(parsed.skipped_calls, 0);
        }
    });
}

/// Every representable trace survives binary round-tripping.
#[test]
fn cache_round_trip_is_lossless() {
    cases("cache_round_trip_is_lossless", CASES, trace, |trace| {
        let mut buf = Vec::new();
        cache::write_trace(&trace, &mut buf).expect("write");
        let back = cache::read_trace(buf.as_slice()).expect("read");
        assert_eq!(back, trace);
    });
}

/// Truncating a valid cache anywhere yields an error, never a panic or
/// a silently wrong trace.
#[test]
fn truncated_cache_errors_cleanly() {
    cases(
        "truncated_cache_errors_cleanly",
        CASES,
        |rng, size| {
            let permille = rng.below(1000) as usize;
            (trace(rng, size), permille)
        },
        |(trace, permille)| {
            let mut buf = Vec::new();
            cache::write_trace(&trace, &mut buf).expect("write");
            let cut = buf.len() * permille / 1000;
            if cut < buf.len() {
                buf.truncate(cut);
                assert!(cache::read_trace(buf.as_slice()).is_err());
            }
        },
    );
}

/// Flipping a byte in the payload area either errors or produces *a*
/// trace — never a panic.
#[test]
fn corrupted_cache_never_panics() {
    cases(
        "corrupted_cache_never_panics",
        CASES,
        |rng, size| {
            let (pos, val) = (rng.below(4096) as usize, rng.below(256) as u8);
            (trace(rng, size), pos, val)
        },
        |(trace, pos, val)| {
            let mut buf = Vec::new();
            cache::write_trace(&trace, &mut buf).expect("write");
            if !buf.is_empty() {
                let i = pos % buf.len();
                buf[i] = val;
                let _ = cache::read_trace(buf.as_slice());
            }
        },
    );
}
