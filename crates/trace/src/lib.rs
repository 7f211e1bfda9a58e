//! The MPI trace analyzer — contribution **C2** of the paper (§V).
//!
//! The analyzer runs existing MPI traces through the optimistic tag matching
//! engine itself and gathers matching-behaviour statistics: queue depths at
//! different bin counts (Fig. 7), the distribution of MPI call types
//! (Fig. 6), tag usage, collision counts and empty-bin fractions.
//!
//! Pipeline (mirroring §V-A):
//!
//! 1. **Parsing** ([`dumpi`]) — DUMPI-style text traces (one file per rank)
//!    are parsed, in parallel across ranks, into the in-memory operation
//!    model of [`model`]. A binary cache ([`cache`]) skips re-parsing on
//!    subsequent runs, since parsing is the analyzer's most expensive step.
//! 2. **Processing** ([`mod@replay`]) — the per-rank operation streams are
//!    split into what each rank's matcher sees, in global time order
//!    ([`AppTrace::split`], routed by [`model::route`]), and replayed
//!    rank-major through one real engine (`otm::SequentialOtm`, the three
//!    binned hash tables plus wildcard list of §III-B), sized for the
//!    largest rank and reset before each. Only point-to-point and progress
//!    operations are matched; collectives and one-sided operations are
//!    counted for the call-distribution statistics and otherwise ignored.
//!    The same walk hands back the matched pairs
//!    ([`replay::matched_pairs`]), the end-to-end replay's oracle.
//! 3. **Reporting** ([`report`]) — per-application statistics are formatted
//!    as the rows behind Figs. 6 and 7 and dumped as JSON for downstream
//!    plotting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(unreachable_pub)]

pub mod cache;
pub mod dumpi;
pub mod model;
mod obs;
pub mod replay;
pub mod report;

pub use model::{AppTrace, CallKind, MpiOp, RankTrace, TimedOp};
pub use obs::observability;
pub use replay::{replay, AppReport, ReplayConfig};
