//! Binary trace cache (§V-A).
//!
//! "Initially, the parser verifies the existence of a binary cache for the
//! given input trace, as parsing the traces of an application is the most
//! time-consuming step for the analyzer." The cache is a small hand-rolled
//! little-endian format (no extra dependencies): magic, version, then the
//! per-rank operation streams with one tag byte per operation.

use crate::model::{AppTrace, CollectiveKind, MpiOp, OneSidedKind, RankTrace, ReqId, TimedOp};
use otm_base::envelope::{SourceSel, TagSel};
use otm_base::{CommId, Rank, Tag};
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"OTMTRACE";
const VERSION: u32 = 1;

/// Cache I/O or format error.
#[derive(Debug)]
pub enum CacheError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Not a cache file / wrong version / truncated or corrupt payload.
    Format(String),
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Io(e) => write!(f, "cache io: {e}"),
            CacheError::Format(m) => write!(f, "cache format: {m}"),
        }
    }
}

impl std::error::Error for CacheError {}

impl From<std::io::Error> for CacheError {
    fn from(e: std::io::Error) -> Self {
        CacheError::Io(e)
    }
}

fn format_err<T>(m: impl Into<String>) -> Result<T, CacheError> {
    Err(CacheError::Format(m.into()))
}

struct Writer<W: Write> {
    out: W,
}

impl<W: Write> Writer<W> {
    fn u8(&mut self, v: u8) -> Result<(), CacheError> {
        self.out.write_all(&[v]).map_err(Into::into)
    }
    fn u16(&mut self, v: u16) -> Result<(), CacheError> {
        self.out.write_all(&v.to_le_bytes()).map_err(Into::into)
    }
    fn u32(&mut self, v: u32) -> Result<(), CacheError> {
        self.out.write_all(&v.to_le_bytes()).map_err(Into::into)
    }
    fn u64(&mut self, v: u64) -> Result<(), CacheError> {
        self.out.write_all(&v.to_le_bytes()).map_err(Into::into)
    }
    fn i64(&mut self, v: i64) -> Result<(), CacheError> {
        self.out.write_all(&v.to_le_bytes()).map_err(Into::into)
    }
    fn f64(&mut self, v: f64) -> Result<(), CacheError> {
        self.out.write_all(&v.to_le_bytes()).map_err(Into::into)
    }
    fn bytes(&mut self, v: &[u8]) -> Result<(), CacheError> {
        self.u32(v.len() as u32)?;
        self.out.write_all(v).map_err(Into::into)
    }
}

struct Reader<R: Read> {
    inp: R,
}

impl<R: Read> Reader<R> {
    fn u8(&mut self) -> Result<u8, CacheError> {
        let mut b = [0u8; 1];
        self.inp.read_exact(&mut b)?;
        Ok(b[0])
    }
    fn u16(&mut self) -> Result<u16, CacheError> {
        let mut b = [0u8; 2];
        self.inp.read_exact(&mut b)?;
        Ok(u16::from_le_bytes(b))
    }
    fn u32(&mut self) -> Result<u32, CacheError> {
        let mut b = [0u8; 4];
        self.inp.read_exact(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }
    fn u64(&mut self) -> Result<u64, CacheError> {
        let mut b = [0u8; 8];
        self.inp.read_exact(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }
    fn i64(&mut self) -> Result<i64, CacheError> {
        let mut b = [0u8; 8];
        self.inp.read_exact(&mut b)?;
        Ok(i64::from_le_bytes(b))
    }
    fn f64(&mut self) -> Result<f64, CacheError> {
        let mut b = [0u8; 8];
        self.inp.read_exact(&mut b)?;
        Ok(f64::from_le_bytes(b))
    }
    fn bytes(&mut self) -> Result<Vec<u8>, CacheError> {
        let len = self.u32()? as usize;
        if len > 64 * 1024 * 1024 {
            return format_err("string length exceeds sanity bound");
        }
        let mut v = vec![0u8; len];
        self.inp.read_exact(&mut v)?;
        Ok(v)
    }
}

fn src_to_i64(s: SourceSel) -> i64 {
    match s {
        SourceSel::Any => -1,
        SourceSel::Rank(r) => i64::from(r.0),
    }
}

fn tag_to_i64(t: TagSel) -> i64 {
    match t {
        TagSel::Any => -1,
        TagSel::Tag(tag) => i64::from(tag.0),
    }
}

fn i64_to_src(v: i64) -> SourceSel {
    if v < 0 {
        SourceSel::Any
    } else {
        SourceSel::Rank(Rank(v as u32))
    }
}

fn i64_to_tag(v: i64) -> TagSel {
    if v < 0 {
        TagSel::Any
    } else {
        TagSel::Tag(Tag(v as u32))
    }
}

fn collective_code(k: CollectiveKind) -> u8 {
    match k {
        CollectiveKind::Barrier => 0,
        CollectiveKind::Bcast => 1,
        CollectiveKind::Reduce => 2,
        CollectiveKind::Allreduce => 3,
        CollectiveKind::Gather => 4,
        CollectiveKind::Gatherv => 5,
        CollectiveKind::Allgather => 6,
        CollectiveKind::Alltoall => 7,
        CollectiveKind::Alltoallv => 8,
        CollectiveKind::Scan => 9,
    }
}

fn code_collective(c: u8) -> Result<CollectiveKind, CacheError> {
    Ok(match c {
        0 => CollectiveKind::Barrier,
        1 => CollectiveKind::Bcast,
        2 => CollectiveKind::Reduce,
        3 => CollectiveKind::Allreduce,
        4 => CollectiveKind::Gather,
        5 => CollectiveKind::Gatherv,
        6 => CollectiveKind::Allgather,
        7 => CollectiveKind::Alltoall,
        8 => CollectiveKind::Alltoallv,
        9 => CollectiveKind::Scan,
        _ => return format_err(format!("unknown collective code {c}")),
    })
}

fn onesided_code(k: OneSidedKind) -> u8 {
    match k {
        OneSidedKind::Put => 0,
        OneSidedKind::Get => 1,
        OneSidedKind::Accumulate => 2,
    }
}

fn code_onesided(c: u8) -> Result<OneSidedKind, CacheError> {
    Ok(match c {
        0 => OneSidedKind::Put,
        1 => OneSidedKind::Get,
        2 => OneSidedKind::Accumulate,
        _ => return format_err(format!("unknown one-sided code {c}")),
    })
}

/// Serializes a trace to any writer.
pub fn write_trace<W: Write>(trace: &AppTrace, out: W) -> Result<(), CacheError> {
    // The on-disk format stores counts as u32; reject anything the reader
    // could not round-trip instead of silently truncating the cast.
    if trace.ranks.len() > u32::MAX as usize {
        return format_err("more ranks than the cache format can represent");
    }
    if let Some(r) = trace.ranks.iter().find(|r| r.ops.len() > u32::MAX as usize) {
        return format_err(format!(
            "rank {} has more ops than the cache format can represent",
            r.rank.0
        ));
    }
    let mut w = Writer { out };
    w.out.write_all(MAGIC)?;
    w.u32(VERSION)?;
    w.bytes(trace.name.as_bytes())?;
    w.u32(trace.ranks.len() as u32)?;
    for rank in &trace.ranks {
        w.u32(rank.rank.0)?;
        w.u32(rank.ops.len() as u32)?;
        for t in &rank.ops {
            w.f64(t.time)?;
            match t.op {
                MpiOp::Isend {
                    dest,
                    tag,
                    comm,
                    count,
                    request,
                } => {
                    w.u8(0)?;
                    w.u32(dest.0)?;
                    w.u32(tag.0)?;
                    w.u16(comm.0)?;
                    w.u64(count)?;
                    w.u32(request.0)?;
                }
                MpiOp::Irecv {
                    src,
                    tag,
                    comm,
                    count,
                    request,
                } => {
                    w.u8(1)?;
                    w.i64(src_to_i64(src))?;
                    w.i64(tag_to_i64(tag))?;
                    w.u16(comm.0)?;
                    w.u64(count)?;
                    w.u32(request.0)?;
                }
                MpiOp::Send {
                    dest,
                    tag,
                    comm,
                    count,
                } => {
                    w.u8(2)?;
                    w.u32(dest.0)?;
                    w.u32(tag.0)?;
                    w.u16(comm.0)?;
                    w.u64(count)?;
                }
                MpiOp::Recv {
                    src,
                    tag,
                    comm,
                    count,
                } => {
                    w.u8(3)?;
                    w.i64(src_to_i64(src))?;
                    w.i64(tag_to_i64(tag))?;
                    w.u16(comm.0)?;
                    w.u64(count)?;
                }
                MpiOp::Wait { request } => {
                    w.u8(4)?;
                    w.u32(request.0)?;
                }
                MpiOp::Waitall { nreqs } => {
                    w.u8(5)?;
                    w.u32(nreqs)?;
                }
                MpiOp::Collective { kind, comm } => {
                    w.u8(6)?;
                    w.u8(collective_code(kind))?;
                    w.u16(comm.0)?;
                }
                MpiOp::OneSided { kind } => {
                    w.u8(7)?;
                    w.u8(onesided_code(kind))?;
                }
            }
        }
    }
    Ok(())
}

/// Deserializes a trace from any reader.
pub fn read_trace<R: Read>(inp: R) -> Result<AppTrace, CacheError> {
    let mut r = Reader { inp };
    let mut magic = [0u8; 8];
    r.inp.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return format_err("bad magic (not an OTM trace cache)");
    }
    let version = r.u32()?;
    if version != VERSION {
        return format_err(format!("unsupported cache version {version}"));
    }
    let name =
        String::from_utf8(r.bytes()?).map_err(|_| CacheError::Format("name not UTF-8".into()))?;
    let nranks = r.u32()? as usize;
    if nranks > 1 << 20 {
        return format_err("rank count exceeds sanity bound");
    }
    let mut ranks = Vec::with_capacity(nranks);
    for _ in 0..nranks {
        let rank = Rank(r.u32()?);
        let nops = r.u32()? as usize;
        // Cap the preallocation, not the count: a corrupt header cannot
        // OOM us, while any trace the writer produced still loads (reads
        // past the real end fail with a clean Io error).
        let mut ops = Vec::with_capacity(nops.min(1 << 20));
        for _ in 0..nops {
            let time = r.f64()?;
            if !time.is_finite() {
                // As the DUMPI parser does: such a time places a call
                // nowhere a real run could.
                return format_err(format!("rank {}: walltime {time} is not finite", rank.0));
            }
            let op = match r.u8()? {
                0 => MpiOp::Isend {
                    dest: Rank(r.u32()?),
                    tag: Tag(r.u32()?),
                    comm: CommId(r.u16()?),
                    count: r.u64()?,
                    request: ReqId(r.u32()?),
                },
                1 => MpiOp::Irecv {
                    src: i64_to_src(r.i64()?),
                    tag: i64_to_tag(r.i64()?),
                    comm: CommId(r.u16()?),
                    count: r.u64()?,
                    request: ReqId(r.u32()?),
                },
                2 => MpiOp::Send {
                    dest: Rank(r.u32()?),
                    tag: Tag(r.u32()?),
                    comm: CommId(r.u16()?),
                    count: r.u64()?,
                },
                3 => MpiOp::Recv {
                    src: i64_to_src(r.i64()?),
                    tag: i64_to_tag(r.i64()?),
                    comm: CommId(r.u16()?),
                    count: r.u64()?,
                },
                4 => MpiOp::Wait {
                    request: ReqId(r.u32()?),
                },
                5 => MpiOp::Waitall { nreqs: r.u32()? },
                6 => MpiOp::Collective {
                    kind: code_collective(r.u8()?)?,
                    comm: CommId(r.u16()?),
                },
                7 => MpiOp::OneSided {
                    kind: code_onesided(r.u8()?)?,
                },
                c => return format_err(format!("unknown op code {c}")),
            };
            ops.push(TimedOp { time, op });
        }
        ranks.push(RankTrace { rank, ops });
    }
    Ok(AppTrace { name, ranks })
}

/// Saves a trace cache to a file.
pub(crate) fn save(trace: &AppTrace, path: &Path) -> Result<(), CacheError> {
    let file = std::fs::File::create(path)?;
    write_trace(trace, std::io::BufWriter::new(file))
}

/// Loads a trace cache from a file.
pub fn load(path: &Path) -> Result<AppTrace, CacheError> {
    let file = std::fs::File::open(path)?;
    read_trace(std::io::BufReader::new(file))
}

/// The §V-A fast path: load the cache if present, otherwise parse the text
/// trace directory and commit the cache for future runs.
pub fn load_or_parse(dir: &Path, cache_path: &Path, app_name: &str) -> Result<AppTrace, String> {
    if cache_path.exists() {
        if let Ok(trace) = load(cache_path) {
            return Ok(trace);
        }
        // A corrupt cache falls back to reparsing.
    }
    let trace = crate::dumpi::parse_trace_dir(dir, app_name)?;
    save(&trace, cache_path).map_err(|e| format!("writing cache {cache_path:?}: {e}"))?;
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> AppTrace {
        AppTrace {
            name: "sample".into(),
            ranks: vec![
                RankTrace {
                    rank: Rank(0),
                    ops: vec![
                        TimedOp {
                            time: 0.5,
                            op: MpiOp::Irecv {
                                src: SourceSel::Any,
                                tag: TagSel::Tag(Tag(3)),
                                comm: CommId::WORLD,
                                count: 8,
                                request: ReqId(1),
                            },
                        },
                        TimedOp {
                            time: 0.6,
                            op: MpiOp::Wait { request: ReqId(1) },
                        },
                        TimedOp {
                            time: 0.7,
                            op: MpiOp::Collective {
                                kind: CollectiveKind::Allreduce,
                                comm: CommId::WORLD,
                            },
                        },
                    ],
                },
                RankTrace {
                    rank: Rank(1),
                    ops: vec![
                        TimedOp {
                            time: 0.55,
                            op: MpiOp::Isend {
                                dest: Rank(0),
                                tag: Tag(3),
                                comm: CommId::WORLD,
                                count: 8,
                                request: ReqId(9),
                            },
                        },
                        TimedOp {
                            time: 0.9,
                            op: MpiOp::OneSided {
                                kind: OneSidedKind::Get,
                            },
                        },
                    ],
                },
            ],
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let r = read_trace(&b"NOTATRACEFILE###############"[..]);
        assert!(matches!(r, Err(CacheError::Format(_))));
    }

    #[test]
    fn truncated_payload_is_an_io_error() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        buf.truncate(buf.len() - 5);
        assert!(matches!(read_trace(buf.as_slice()), Err(CacheError::Io(_))));
    }

    #[test]
    fn a_walltime_that_is_not_finite_is_rejected() {
        for time in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut trace = sample_trace();
            trace.ranks[1].ops[0].time = time;
            let mut buf = Vec::new();
            write_trace(&trace, &mut buf).unwrap();
            let e = read_trace(buf.as_slice()).unwrap_err();
            assert!(e.to_string().contains("not finite"), "{e}");
        }
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            read_trace(buf.as_slice()),
            Err(CacheError::Format(_))
        ));
    }

    #[test]
    fn file_round_trip_and_cache_fast_path() {
        let dir = std::env::temp_dir().join(format!("otm-cache-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = sample_trace();

        // Write the text form, then load_or_parse twice: the first call
        // parses and commits the cache, the second hits the cache.
        for rank in &trace.ranks {
            std::fs::write(
                dir.join(format!("dumpi-{}.txt", rank.rank.0)),
                crate::dumpi::write_rank_text(&rank.ops),
            )
            .unwrap();
        }
        let cache_path = dir.join("trace.otmcache");
        let first = load_or_parse(&dir, &cache_path, "sample").unwrap();
        assert!(cache_path.exists());
        let second = load_or_parse(&dir, &cache_path, "sample").unwrap();
        assert_eq!(first, second);
        assert_eq!(first.name, "sample");
        assert_eq!(first.processes(), 2);

        // A corrupt cache silently falls back to reparsing.
        std::fs::write(&cache_path, b"garbage").unwrap();
        let third = load_or_parse(&dir, &cache_path, "sample").unwrap();
        assert_eq!(first, third);

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
