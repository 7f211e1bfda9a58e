//! Reader and writer for DUMPI-style text traces.
//!
//! The paper's analyzer consumes text dumps of SST-DUMPI binary traces
//! (`dumpi2ascii`). This module implements the same line-oriented shape:
//! each call is bracketed by `MPI_Xxx entering at walltime T` /
//! `MPI_Xxx returning at walltime T` lines with typed `key=value` argument
//! lines in between, e.g.:
//!
//! ```text
//! MPI_Irecv entering at walltime 1.2500
//! int count=16
//! int source=-1
//! int tag=7
//! MPI_Comm comm=0
//! MPI_Request request=[3]
//! MPI_Irecv returning at walltime 1.2501
//! ```
//!
//! `source=-1` encodes `MPI_ANY_SOURCE` and `tag=-1` encodes `MPI_ANY_TAG`.
//! Unknown MPI functions are skipped (counted, not errors), so traces from
//! richer instrumentations still parse. Traces are one file per rank,
//! `dumpi-<rank>.txt`, parsed in parallel (§V-A: "the parsing is done in
//! parallel in a per-rank fashion").

use crate::model::{AppTrace, CollectiveKind, MpiOp, OneSidedKind, RankTrace, ReqId, TimedOp};
use otm_base::envelope::{SourceSel, TagSel};
use otm_base::{CommId, Rank, Tag};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

/// A parse failure, with the offending line number (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub(crate) line: usize,
    /// Description.
    pub(crate) message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

/// Outcome of parsing one rank file.
#[derive(Debug, Clone, PartialEq)]
pub struct RankParse {
    /// The parsed operations.
    pub ops: Vec<TimedOp>,
    /// Calls to MPI functions the analyzer does not model (skipped).
    pub skipped_calls: usize,
}

/// Parses one rank's text trace.
///
/// ```
/// let text = "\
/// MPI_Send entering at walltime 0.25
/// int count=4
/// int dest=1
/// int tag=7
/// MPI_Comm comm=0
/// MPI_Send returning at walltime 0.26
/// ";
/// let parsed = otm_trace::dumpi::parse_rank_text(text).unwrap();
/// assert_eq!(parsed.ops.len(), 1);
/// assert_eq!(parsed.ops[0].op.mpi_name(), "MPI_Send");
/// ```
pub fn parse_rank_text(text: &str) -> Result<RankParse, ParseError> {
    let mut ops = Vec::new();
    let mut skipped = 0usize;
    let mut lines = text.lines().enumerate().peekable();
    while let Some((lineno, line)) = lines.next() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((name, time)) = parse_entering(line) else {
            return err(
                lineno + 1,
                format!("expected 'MPI_Xxx entering at walltime T', got '{line}'"),
            );
        };
        if !time.is_finite() {
            // A time places the call in the global order; NaN or an
            // infinity places it nowhere a real run could.
            return err(lineno + 1, format!("{name}: walltime {time} is not finite"));
        }
        // Collect argument lines until the matching "returning" line.
        let mut args: HashMap<String, String> = HashMap::new();
        let mut closed = false;
        for (argno, arg_line) in lines.by_ref() {
            let arg_line = arg_line.trim();
            if arg_line.starts_with(&format!("{name} returning")) {
                closed = true;
                break;
            }
            if arg_line.is_empty() {
                continue;
            }
            let Some((key, value)) = parse_arg(arg_line) else {
                return err(argno + 1, format!("malformed argument line '{arg_line}'"));
            };
            args.insert(key, value);
        }
        if !closed {
            return err(lineno + 1, format!("{name} never returned"));
        }
        match build_op(&name, time, &args) {
            Ok(Some(op)) => ops.push(op),
            Ok(None) => skipped += 1,
            Err(msg) => return err(lineno + 1, format!("{name}: {msg}")),
        }
    }
    Ok(RankParse {
        ops,
        skipped_calls: skipped,
    })
}

fn parse_entering(line: &str) -> Option<(String, f64)> {
    let rest = line.strip_prefix("MPI_")?;
    let (func, tail) = rest.split_once(' ')?;
    let time_str = tail.strip_prefix("entering at walltime ")?;
    let time: f64 = time_str.trim().parse().ok()?;
    Some((format!("MPI_{func}"), time))
}

fn parse_arg(line: &str) -> Option<(String, String)> {
    // "int count=16" / "MPI_Comm comm=0" / "MPI_Request request=[3]"
    let eq = line.find('=')?;
    let (lhs, rhs) = line.split_at(eq);
    let key = lhs.split_whitespace().last()?.to_string();
    let value = rhs[1..]
        .trim()
        .trim_start_matches('[')
        .trim_end_matches(']')
        .to_string();
    Some((key, value))
}

fn get_i64(args: &HashMap<String, String>, key: &str) -> Result<i64, String> {
    args.get(key)
        .ok_or_else(|| format!("missing argument '{key}'"))?
        .parse()
        .map_err(|_| format!("argument '{key}' is not an integer"))
}

/// Returns the numeric value of `key`, `default` when the argument is
/// absent, and an error when it is present but malformed — a corrupt
/// `count`/`comm`/`request` must surface as a parse error, not silently
/// become 0.
fn get_u64_or(args: &HashMap<String, String>, key: &str, default: u64) -> Result<u64, String> {
    match args.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("argument '{key}' is not an unsigned integer: '{v}'")),
    }
}

fn source_sel(v: i64) -> SourceSel {
    if v < 0 {
        SourceSel::Any
    } else {
        SourceSel::Rank(Rank(v as u32))
    }
}

fn tag_sel(v: i64) -> TagSel {
    if v < 0 {
        TagSel::Any
    } else {
        TagSel::Tag(Tag(v as u32))
    }
}

fn build_op(
    name: &str,
    time: f64,
    args: &HashMap<String, String>,
) -> Result<Option<TimedOp>, String> {
    let comm = CommId(get_u64_or(args, "comm", 0)? as u16);
    let count = get_u64_or(args, "count", 0)?;
    let op = match name {
        "MPI_Isend" | "MPI_Send" => {
            let dest = get_i64(args, "dest")?;
            let tag = get_i64(args, "tag")?;
            if dest < 0 || tag < 0 {
                return Err("sends cannot use wildcards".into());
            }
            let dest = Rank(dest as u32);
            let tag = Tag(tag as u32);
            if name == "MPI_Isend" {
                let request = ReqId(get_u64_or(args, "request", 0)? as u32);
                MpiOp::Isend {
                    dest,
                    tag,
                    comm,
                    count,
                    request,
                }
            } else {
                MpiOp::Send {
                    dest,
                    tag,
                    comm,
                    count,
                }
            }
        }
        "MPI_Irecv" | "MPI_Recv" => {
            let src = source_sel(get_i64(args, "source")?);
            let tag = tag_sel(get_i64(args, "tag")?);
            if name == "MPI_Irecv" {
                let request = ReqId(get_u64_or(args, "request", 0)? as u32);
                MpiOp::Irecv {
                    src,
                    tag,
                    comm,
                    count,
                    request,
                }
            } else {
                MpiOp::Recv {
                    src,
                    tag,
                    comm,
                    count,
                }
            }
        }
        "MPI_Wait" => MpiOp::Wait {
            request: ReqId(get_u64_or(args, "request", 0)? as u32),
        },
        "MPI_Waitall" => MpiOp::Waitall {
            nreqs: count as u32,
        },
        "MPI_Barrier" => MpiOp::Collective {
            kind: CollectiveKind::Barrier,
            comm,
        },
        "MPI_Bcast" => MpiOp::Collective {
            kind: CollectiveKind::Bcast,
            comm,
        },
        "MPI_Reduce" => MpiOp::Collective {
            kind: CollectiveKind::Reduce,
            comm,
        },
        "MPI_Allreduce" => MpiOp::Collective {
            kind: CollectiveKind::Allreduce,
            comm,
        },
        "MPI_Gather" => MpiOp::Collective {
            kind: CollectiveKind::Gather,
            comm,
        },
        "MPI_Gatherv" => MpiOp::Collective {
            kind: CollectiveKind::Gatherv,
            comm,
        },
        "MPI_Allgather" => MpiOp::Collective {
            kind: CollectiveKind::Allgather,
            comm,
        },
        "MPI_Alltoall" => MpiOp::Collective {
            kind: CollectiveKind::Alltoall,
            comm,
        },
        "MPI_Alltoallv" => MpiOp::Collective {
            kind: CollectiveKind::Alltoallv,
            comm,
        },
        "MPI_Scan" => MpiOp::Collective {
            kind: CollectiveKind::Scan,
            comm,
        },
        "MPI_Put" => MpiOp::OneSided {
            kind: OneSidedKind::Put,
        },
        "MPI_Get" => MpiOp::OneSided {
            kind: OneSidedKind::Get,
        },
        "MPI_Accumulate" => MpiOp::OneSided {
            kind: OneSidedKind::Accumulate,
        },
        // Init/finalize/datatype bookkeeping etc.: skip.
        _ => return Ok(None),
    };
    Ok(Some(TimedOp { time, op }))
}

/// Renders one rank's operations back into the text format (the inverse of
/// [`parse_rank_text`]); used by the workload generators and round-trip
/// tests.
pub fn write_rank_text(ops: &[TimedOp]) -> String {
    let mut out = String::new();
    for t in ops {
        let name = t.op.mpi_name();
        // `{}` prints the shortest round-trippable form, so a parse
        // of the written text reproduces the exact f64 timestamps.
        writeln!(out, "{name} entering at walltime {}", t.time).unwrap();
        match t.op {
            MpiOp::Isend {
                dest,
                tag,
                comm,
                count,
                request,
            } => {
                writeln!(out, "int count={count}").unwrap();
                writeln!(out, "int dest={}", dest.0).unwrap();
                writeln!(out, "int tag={}", tag.0).unwrap();
                writeln!(out, "MPI_Comm comm={}", comm.0).unwrap();
                writeln!(out, "MPI_Request request=[{}]", request.0).unwrap();
            }
            MpiOp::Send {
                dest,
                tag,
                comm,
                count,
            } => {
                writeln!(out, "int count={count}").unwrap();
                writeln!(out, "int dest={}", dest.0).unwrap();
                writeln!(out, "int tag={}", tag.0).unwrap();
                writeln!(out, "MPI_Comm comm={}", comm.0).unwrap();
            }
            MpiOp::Irecv {
                src,
                tag,
                comm,
                count,
                request,
            } => {
                writeln!(out, "int count={count}").unwrap();
                writeln!(out, "int source={}", sel_to_i64(src)).unwrap();
                writeln!(out, "int tag={}", tagsel_to_i64(tag)).unwrap();
                writeln!(out, "MPI_Comm comm={}", comm.0).unwrap();
                writeln!(out, "MPI_Request request=[{}]", request.0).unwrap();
            }
            MpiOp::Recv {
                src,
                tag,
                comm,
                count,
            } => {
                writeln!(out, "int count={count}").unwrap();
                writeln!(out, "int source={}", sel_to_i64(src)).unwrap();
                writeln!(out, "int tag={}", tagsel_to_i64(tag)).unwrap();
                writeln!(out, "MPI_Comm comm={}", comm.0).unwrap();
            }
            MpiOp::Wait { request } => {
                writeln!(out, "MPI_Request request=[{}]", request.0).unwrap();
            }
            MpiOp::Waitall { nreqs } => {
                writeln!(out, "int count={nreqs}").unwrap();
            }
            MpiOp::Collective { comm, .. } => {
                writeln!(out, "MPI_Comm comm={}", comm.0).unwrap();
            }
            MpiOp::OneSided { .. } => {}
        }
        writeln!(out, "{name} returning at walltime {}", t.time).unwrap();
    }
    out
}

fn sel_to_i64(s: SourceSel) -> i64 {
    match s {
        SourceSel::Any => -1,
        SourceSel::Rank(r) => i64::from(r.0),
    }
}

fn tagsel_to_i64(t: TagSel) -> i64 {
    match t {
        TagSel::Any => -1,
        TagSel::Tag(tag) => i64::from(tag.0),
    }
}

/// Parses a trace directory: files `dumpi-<rank>.txt`, one per rank, parsed
/// in parallel across worker threads.
pub(crate) fn parse_trace_dir(dir: &Path, app_name: &str) -> Result<AppTrace, String> {
    let mut rank_files: Vec<(u32, std::path::PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| format!("reading {dir:?}: {e}"))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(rank) = name
            .strip_prefix("dumpi-")
            .and_then(|s| s.strip_suffix(".txt"))
        {
            let rank: u32 = rank
                .parse()
                .map_err(|_| format!("bad rank in file name {name}"))?;
            rank_files.push((rank, entry.path()));
        }
    }
    if rank_files.is_empty() {
        return Err(format!("no dumpi-<rank>.txt files in {dir:?}"));
    }
    rank_files.sort_by_key(|(r, _)| *r);

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8);
    let results: Vec<Result<RankTrace, String>> = std::thread::scope(|scope| {
        let chunks: Vec<_> = rank_files
            .chunks(rank_files.len().div_ceil(workers))
            .collect();
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|(rank, path)| {
                            let text = std::fs::read_to_string(path)
                                .map_err(|e| format!("reading {path:?}: {e}"))?;
                            let parsed = parse_rank_text(&text)
                                .map_err(|e| format!("parsing {path:?}: {e}"))?;
                            Ok(RankTrace {
                                rank: Rank(*rank),
                                ops: parsed.ops,
                            })
                        })
                        .collect::<Vec<Result<RankTrace, String>>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("parser thread panicked"))
            .collect()
    });

    let ranks: Result<Vec<RankTrace>, String> = results.into_iter().collect();
    Ok(AppTrace {
        name: app_name.to_string(),
        ranks: ranks?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
MPI_Irecv entering at walltime 1.000000
int count=4
int source=2
int tag=7
MPI_Comm comm=0
MPI_Request request=[1]
MPI_Irecv returning at walltime 1.000100
MPI_Isend entering at walltime 1.100000
int count=4
int dest=2
int tag=7
MPI_Comm comm=0
MPI_Request request=[2]
MPI_Isend returning at walltime 1.100100
MPI_Waitall entering at walltime 1.200000
int count=2
MPI_Waitall returning at walltime 1.300000
MPI_Allreduce entering at walltime 1.400000
MPI_Comm comm=0
MPI_Allreduce returning at walltime 1.500000
";

    #[test]
    fn parses_the_core_call_set() {
        let parsed = parse_rank_text(SAMPLE).unwrap();
        assert_eq!(parsed.ops.len(), 4);
        assert_eq!(parsed.skipped_calls, 0);
        assert!(matches!(parsed.ops[0].op, MpiOp::Irecv { .. }));
        assert!(matches!(parsed.ops[1].op, MpiOp::Isend { .. }));
        assert!(matches!(parsed.ops[2].op, MpiOp::Waitall { nreqs: 2 }));
        assert!(matches!(
            parsed.ops[3].op,
            MpiOp::Collective {
                kind: CollectiveKind::Allreduce,
                ..
            }
        ));
    }

    #[test]
    fn wildcards_parse_from_negative_values() {
        let text = "\
MPI_Irecv entering at walltime 0.5
int count=1
int source=-1
int tag=-1
MPI_Comm comm=0
MPI_Request request=[0]
MPI_Irecv returning at walltime 0.6
";
        let parsed = parse_rank_text(text).unwrap();
        let MpiOp::Irecv { src, tag, .. } = parsed.ops[0].op else {
            panic!()
        };
        assert_eq!(src, SourceSel::Any);
        assert_eq!(tag, TagSel::Any);
    }

    #[test]
    fn unknown_functions_are_skipped_not_fatal() {
        let text = "\
MPI_Comm_rank entering at walltime 0.1
int rank=0
MPI_Comm_rank returning at walltime 0.1
MPI_Send entering at walltime 0.2
int count=1
int dest=1
int tag=0
MPI_Comm comm=0
MPI_Send returning at walltime 0.2
";
        let parsed = parse_rank_text(text).unwrap();
        assert_eq!(parsed.ops.len(), 1);
        assert_eq!(parsed.skipped_calls, 1);
    }

    #[test]
    fn malformed_numeric_fields_are_errors_not_zero() {
        let text = "\
MPI_Send entering at walltime 0.2
int count=garbage
int dest=1
int tag=0
MPI_Comm comm=0
MPI_Send returning at walltime 0.2
";
        let e = parse_rank_text(text).unwrap_err();
        assert!(e.message.contains("count"), "got: {e}");
    }

    #[test]
    fn sends_with_wildcards_are_rejected() {
        let text = "\
MPI_Send entering at walltime 0.2
int count=1
int dest=-1
int tag=0
MPI_Comm comm=0
MPI_Send returning at walltime 0.2
";
        assert!(parse_rank_text(text).is_err());
    }

    #[test]
    fn unterminated_call_is_an_error() {
        let text = "MPI_Send entering at walltime 0.1\nint dest=0\n";
        let e = parse_rank_text(text).unwrap_err();
        assert!(e.message.contains("never returned"));
    }

    #[test]
    fn garbage_line_reports_its_number() {
        let text = "this is not a trace\n";
        let e = parse_rank_text(text).unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn a_walltime_that_is_not_finite_is_an_error_naming_its_line() {
        for time in ["nan", "NaN", "inf", "-inf", "infinity"] {
            let text = format!(
                "MPI_Barrier entering at walltime 0.1\nMPI_Comm comm=0\n\
                 MPI_Barrier returning at walltime 0.2\n\
                 MPI_Send entering at walltime {time}\nint count=4\nint dest=1\n\
                 int tag=7\nMPI_Comm comm=0\nMPI_Send returning at walltime 0.3\n"
            );
            let e = parse_rank_text(&text).unwrap_err();
            assert_eq!(e.line, 4, "{time}");
            assert!(e.message.contains("not finite"), "{e}");
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored_between_calls() {
        let text = "\
# a comment

MPI_Barrier entering at walltime 0.1
MPI_Comm comm=0
MPI_Barrier returning at walltime 0.2
";
        assert_eq!(parse_rank_text(text).unwrap().ops.len(), 1);
    }

    #[test]
    fn writer_round_trips_through_parser() {
        let parsed = parse_rank_text(SAMPLE).unwrap();
        let text = write_rank_text(&parsed.ops);
        let reparsed = parse_rank_text(&text).unwrap();
        assert_eq!(parsed.ops, reparsed.ops);
    }

    #[test]
    fn directory_parse_assembles_ranks_in_order() {
        let dir = std::env::temp_dir().join(format!("otm-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for rank in [1u32, 0] {
            std::fs::write(
                dir.join(format!("dumpi-{rank}.txt")),
                format!(
                    "MPI_Send entering at walltime 0.1\nint count=1\nint dest={}\nint tag=0\nMPI_Comm comm=0\nMPI_Send returning at walltime 0.1\n",
                    1 - rank
                ),
            )
            .unwrap();
        }
        let trace = parse_trace_dir(&dir, "test-app").unwrap();
        assert_eq!(trace.processes(), 2);
        assert_eq!(trace.ranks[0].rank, Rank(0));
        assert_eq!(trace.ranks[1].rank, Rank(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_is_a_clean_error() {
        let e = parse_trace_dir(Path::new("/nonexistent/otm"), "x").unwrap_err();
        assert!(e.contains("reading"));
    }
}
