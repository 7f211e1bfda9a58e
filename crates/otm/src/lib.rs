//! **Optimistic Tag Matching** — the core contribution of *"Offloaded MPI
//! message matching: an optimistic approach"* (García et al., SC 2024).
//!
//! The engine matches a stream of incoming MPI messages against posted
//! receives on a lightweight, highly-parallel accelerator model. Blocks of
//! `N` consecutive messages are matched *optimistically* in parallel — as if
//! no other message were being matched — and the MPI ordering constraints
//! are restored afterwards by a conflict-detection and -resolution protocol:
//!
//! 1. **Indexing (§III-B).** Posted receives are split by wildcard usage
//!    into four structures: a hash table keyed on `(src, tag)`, one keyed on
//!    `tag` (source wildcard), one keyed on `src` (tag wildcard), and an
//!    ordered list (both wildcards). Every receive carries a monotone post
//!    label; candidates from different indexes are arbitrated by label.
//! 2. **Optimistic matching (§III-C).** Thread *i* of a block searches the
//!    four indexes for the oldest matching receive and *books* it by setting
//!    bit *i* in the receive's booking bitmap.
//! 3. **Partial barrier (§III-D1).** Thread *i* waits only for threads
//!    *j < i* (earlier messages) to finish booking — later messages can
//!    never steal its receive.
//! 4. **Conflict detection (§III-D2).** A lower bit in the booked receive's
//!    bitmap means an earlier message won the receive; moreover, once *any*
//!    lower thread conflicts, every later thread must also resolve, because
//!    the re-matching lower thread may steal its candidate.
//! 5. **Conflict resolution (§III-D3).** The *fast path* applies when all
//!    threads booked the head of a sequence of compatible receives: thread
//!    with booking-rank *r* shifts to the receive *r* positions down the
//!    sequence, checked via sequence ids. Otherwise the *slow path*
//!    serializes: wait for all lower threads to settle, then re-search.
//!
//! The crate is a faithful host-side implementation of the algorithm. The
//! paper's threads are *lanes* here: the engine steps a block's lanes through
//! steps 2–5 on the calling thread, one sweep per phase in lane order, which
//! is a legal schedule of the protocol (every wait above is on lower lanes;
//! see the `block` module) and starts no thread. The `dpa-sim` crate
//! embeds the engine behind a completion-queue/queue-pair interface to model
//! the BlueField-3 DPA deployment of §IV.
//!
//! # Example
//!
//! ```
//! use otm::{Delivery, OtmEngine};
//! use otm_base::{Envelope, MatchConfig, Rank, ReceivePattern, Tag};
//! use mpi_matching::{MsgHandle, RecvHandle};
//!
//! let mut engine = OtmEngine::new(MatchConfig::small()).unwrap();
//! // The host posts two receives through the command queue.
//! engine.post(ReceivePattern::exact(Rank(0), Tag(7)), RecvHandle(0)).unwrap();
//! engine.post(ReceivePattern::any_source(Tag(9)), RecvHandle(1)).unwrap();
//! // A block of messages arrives and is matched optimistically.
//! let deliveries = engine
//!     .process_block(&[
//!         (Envelope::world(Rank(0), Tag(7)), MsgHandle(0)),
//!         (Envelope::world(Rank(3), Tag(9)), MsgHandle(1)),
//!     ])
//!     .unwrap();
//! assert_eq!(deliveries[0], Delivery::Matched { msg: MsgHandle(0), recv: RecvHandle(0) });
//! assert_eq!(deliveries[1], Delivery::Matched { msg: MsgHandle(1), recv: RecvHandle(1) });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(unreachable_pub)]

mod block;
mod command;
mod engine;
pub mod index;
pub mod list;
mod metrics;
pub mod scheduler;
mod shard;
mod stats;
pub mod table;
pub mod umq;
mod worker;

pub use command::{Command, CommandOutcome, DrainReport};
pub use engine::{Delivery, FallbackState, OtmEngine, SequentialOtm};
pub use stats::StatsSnapshot;
