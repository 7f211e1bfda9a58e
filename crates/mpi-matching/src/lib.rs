//! Host-side ("on-CPU") MPI tag-matching engines and semantics.
//!
//! This crate provides the substrates the paper compares *Optimistic Tag
//! Matching* against, plus the machinery used to verify it:
//!
//! * `matcher` — the common [`Matcher`] interface: post a
//!   receive, deliver a message, observe search-depth statistics;
//! * [`backend`] — the [`backend::MatchingBackend`] interface the SmartNIC
//!   simulator's service layer drives every engine through (submit / drain
//!   commands, fallback-drain, the engine's counts), implemented by the host
//!   engines here and by the offloaded optimistic engine in its own crate;
//! * [`traditional`] — the classic two-linked-list implementation (PRQ +
//!   UMQ) used by mainstream MPI libraries, the paper's **MPI-CPU** baseline
//!   and the 1-bin configuration of Fig. 7;
//! * [`binned`] — a bin-based matcher in the style of Flajslik et al.
//!   (two hash tables keyed on the matching fields, timestamps to preserve
//!   ordering, a separate ordered structure for wildcards), the engine behind
//!   the Fig. 7 bin sweep;
//! * [`rank_based`] — a per-source-rank matcher in the style of Dózsa et
//!   al., included for the Table I strategy comparison;
//! * [`oracle`] — a deliberately simple sequential reference implementation
//!   of the MPI matching constraints C1/C2. Every other engine in this
//!   workspace (including the parallel optimistic engine) is property-tested
//!   for bit-identical assignments against it;
//! * [`protocol`] — eager / rendezvous protocol state machines driven by the
//!   SmartNIC simulator after a match completes;
//! * [`stats`] — search-depth and queue-length statistics shared with the
//!   trace analyzer, and the optimistic engine's path counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(unreachable_pub)]

pub mod backend;
pub mod binned;
mod matcher;
pub mod oracle;
pub mod protocol;
pub mod rank_based;
pub mod stats;
pub mod traditional;

pub use backend::{
    BlockDelivery, CommandOutcome, DrainReport, FallbackState, MatchingBackend, PendingCommand,
    RdmaNoOp,
};
pub use matcher::{ArriveResult, Matcher, MsgHandle, PostResult, RecvHandle};
pub use oracle::{Assignment, MatchEvent, Oracle};
pub use stats::{MatchStats, StatsSnapshot};
