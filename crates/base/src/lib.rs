//! Shared model types for the Optimistic Tag Matching (OTM) reproduction.
//!
//! This crate contains everything that is common to the matching engines, the
//! SmartNIC simulator, the trace analyzer and the workload generators:
//!
//! * `types` — strongly-typed identifiers (ranks, tags, communicators) and
//!   the monotone labels that order posted receives and incoming messages;
//! * [`envelope`] — message envelopes and receive patterns with MPI wildcard
//!   semantics (`MPI_ANY_SOURCE` / `MPI_ANY_TAG`), including the *wildcard
//!   class* used to select one of the four index structures of the paper
//!   (§III-B) and the *compatibility* relation that defines sequences of
//!   compatible receives (§III-D3a);
//! * [`hash`] — the bin hash functions and the sender-side *inline hash*
//!   optimization (§IV-D);
//! * [`config`] — the engine configuration knobs (bins, block size, feature
//!   flags) shared by all matchers;
//! * [`memory`] — the analytic DPA memory-footprint model of §IV-E;
//! * `error` — common error types, including the resource-exhaustion
//!   condition that triggers fallback to software tag matching.
//!
//! The paper being reproduced is *"Offloaded MPI message matching: an
//! optimistic approach"* (García et al., SC 2024). Section references in the
//! documentation of this workspace refer to that paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(unreachable_pub)]

pub mod config;
pub mod envelope;
mod error;
pub mod hash;
mod hints;
pub mod memory;
mod types;

pub use config::{FaultPlan, FaultRng, MatchConfig};
pub use envelope::{Envelope, ReceivePattern, SourceSel, TagSel, WildcardClass};
pub use error::MatchError;
pub use hash::InlineHashes;
pub use hints::CommHints;
pub use types::{ArrivalSeq, CommId, PostLabel, Rank, SeqId, Tag};
