//! Per-communicator shards of the engine's state.
//!
//! The paper's DPA deployment scales by running independent communicators
//! on independent execution-unit groups (§IV-E): commands for different
//! communicators never interact. This module mirrors that split. Each
//! communicator owns a [`CommShard`]: its matching state in a [`ShardHost`]
//! — the receive table, the four indexes, the unexpected store, post labels
//! and sequence-id run tracking, all plain data — plus its hints and its
//! bounded command queue. The engine owns every shard outright, in a
//! directory kept in [`CommId`] order; a block's lanes borrow the shards
//! they match against by their place in it, and write nothing there but the
//! slot atomics inside `table`.
//!
//! A reset empties every shard in place and parks it, still allocated, until
//! its communicator is next used: the directory then reads as a new one's,
//! and a communicator that comes back costs no allocation.

#![deny(missing_docs)]

use crate::command::{comm_of, Command};
use crate::index::PrqIndexes;
use crate::metrics::DepthPeaks;
use crate::table::ReceiveTable;
use crate::umq::UnexpectedStore;
use otm_base::{CommHints, CommId, MatchConfig, MatchError, PostLabel, ReceivePattern, SeqId};
use std::collections::VecDeque;

/// One communicator's matching state. Posting and block-end cleanup write it
/// through `&mut`; block lanes read it through `&` and write nothing but the
/// slot atomics inside `table`.
pub(crate) struct ShardHost {
    /// The fixed-size receive descriptor table.
    pub(crate) table: ReceiveTable,
    /// The four posted-receive index structures.
    pub(crate) prq: PrqIndexes,
    /// The communicator's unexpected-message store (§IV-C).
    pub(crate) umq: UnexpectedStore,
    /// Next post label (monotone per communicator).
    pub(crate) next_label: PostLabel,
    /// Current sequence id (§III-D3a).
    pub(crate) cur_seq: SeqId,
    /// The previous post's pattern, for sequence-run detection.
    pub(crate) last_pattern: Option<ReceivePattern>,
}

impl ShardHost {
    /// Empties the communicator's matching state in place: the table and
    /// both queues read as new, labels and sequence ids start over.
    fn reset(&mut self) {
        self.table.reset();
        self.prq.reset();
        self.umq.reset();
        self.next_label = PostLabel::ZERO;
        self.cur_seq = SeqId::ZERO;
        self.last_pattern = None;
    }
}

/// One communicator: its matching state, its hints and its command queue.
pub(crate) struct CommShard {
    /// The matching state.
    pub(crate) host: ShardHost,
    /// The communicator's matching hints (§VII), fixed at its creation (§IV-E).
    pub(crate) hints: CommHints,
    /// The communicator's bounded command queue (§IV-E): ticketed commands
    /// oldest first, allocated once at `ring_capacity` and never past it.
    pub(crate) queue: VecDeque<(u64, Command)>,
    /// The communicator's two depth-peak gauges, published by the drains
    /// that serve it.
    pub(crate) depth_peaks: DepthPeaks,
}

impl CommShard {
    fn new(config: &MatchConfig, hints: CommHints) -> Self {
        CommShard {
            host: ShardHost {
                table: ReceiveTable::new(config.max_receives),
                prq: PrqIndexes::new(config.bins),
                umq: UnexpectedStore::new(config.bins, config.max_unexpected),
                next_label: PostLabel::ZERO,
                cur_seq: SeqId::ZERO,
                last_pattern: None,
            },
            hints,
            queue: VecDeque::with_capacity(config.ring_capacity),
            depth_peaks: DepthPeaks::default(),
        }
    }

    /// Refuses a receive the communicator's hints forbid, before it changes
    /// anything: the direct post and the submission of a queued one alike.
    pub(crate) fn admits(&self, pattern: &ReceivePattern) -> Result<(), MatchError> {
        if self.hints.permits(pattern.wildcard_class()) {
            return Ok(());
        }
        Err(MatchError::HintViolation(format!(
            "receive {pattern} violates the hints declared for {}",
            pattern.comm
        )))
    }

    /// Queues `cmd` under `ticket` once the hints admit it; a queue holding
    /// `capacity` commands refuses it with the retryable
    /// [`MatchError::SubmissionRingFull`], and a drain frees room.
    pub(crate) fn enqueue(
        &mut self,
        ticket: u64,
        cmd: Command,
        capacity: usize,
    ) -> Result<(), MatchError> {
        if let Command::Post { pattern, .. } = &cmd {
            self.admits(pattern)?;
        }
        if self.queue.len() >= capacity {
            return Err(MatchError::SubmissionRingFull {
                comm: comm_of(&cmd).0,
            });
        }
        self.queue.push_back((ticket, cmd));
        Ok(())
    }
}

impl std::fmt::Debug for CommShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommShard").finish_non_exhaustive()
    }
}

/// A directory entry.
pub(crate) type Entry = (CommId, CommShard);

/// The engine's communicator → shard directory: the communicators in use,
/// in [`CommId`] order, and the shards a reset emptied. A communicator's
/// place in `live` is its lane in a drain's packer and in a block; it
/// moves only when a communicator is added or the shards are reset, which
/// neither a drain nor a block does.
#[derive(Debug, Default)]
pub(crate) struct ShardMap {
    /// Every communicator used since the last reset, in `CommId` order.
    pub(crate) live: Vec<Entry>,
    /// Emptied shards, in no order: taken back when their communicator is
    /// next used.
    pub(crate) parked: Vec<Entry>,
}

/// Where `comm` is, or would be inserted, in the directory (or anything
/// else keyed like it) in `CommId` order.
pub(crate) fn locate<T>(shards: &[(CommId, T)], comm: CommId) -> Result<usize, usize> {
    shards.binary_search_by_key(&comm, |(id, _)| *id)
}

impl ShardMap {
    /// An empty directory.
    pub(crate) fn new() -> Self {
        ShardMap::default()
    }

    /// Inserts `comm` at `at` with `hints`: its parked shard, if a reset
    /// left one, else a new shard.
    fn insert(&mut self, at: usize, comm: CommId, config: &MatchConfig, hints: CommHints) {
        let shard = match self.parked.iter().position(|(id, _)| *id == comm) {
            Some(i) => {
                let (_, mut shard) = self.parked.swap_remove(i);
                shard.hints = hints;
                shard
            }
            None => CommShard::new(config, hints),
        };
        self.live.insert(at, (comm, shard));
    }

    /// The place of `comm` in `live`, inserted with no hints if it was not.
    pub(crate) fn place(&mut self, comm: CommId, config: &MatchConfig) -> usize {
        locate(&self.live, comm).unwrap_or_else(|at| {
            self.insert(at, comm, config, CommHints::NONE);
            at
        })
    }

    /// The shard of `comm`, if the communicator has been used.
    pub(crate) fn find(&self, comm: CommId) -> Option<&CommShard> {
        locate(&self.live, comm).ok().map(|at| &self.live[at].1)
    }

    /// Declares `comm` with `hints`; fails if the communicator already
    /// exists (hints are fixed at communicator creation, like the DPA's
    /// resource allocation).
    pub(crate) fn try_declare(
        &mut self,
        comm: CommId,
        config: &MatchConfig,
        hints: CommHints,
    ) -> Result<(), MatchError> {
        let Err(at) = locate(&self.live, comm) else {
            return Err(MatchError::InvalidConfig(format!(
                "hints for {comm} must be declared before the communicator is used"
            )));
        };
        self.insert(at, comm, config, hints);
        Ok(())
    }

    /// Commands queued on every communicator.
    pub(crate) fn queued(&self) -> usize {
        self.live.iter().map(|(_, shard)| shard.queue.len()).sum()
    }

    /// Empties every shard in place and parks it, its queue already empty
    /// and its depth peaks at 0: the directory reads as new, and allocates
    /// nothing while the communicators it parks come back.
    pub(crate) fn reset(&mut self) {
        for (_, shard) in &mut self.live {
            debug_assert!(shard.queue.is_empty());
            shard.host.reset();
            for peak in [&mut shard.depth_peaks.lane, &mut shard.depth_peaks.ring] {
                *peak = peak.and(Some(0));
            }
        }
        if self.parked.is_empty() {
            std::mem::swap(&mut self.live, &mut self.parked);
        } else {
            self.parked.append(&mut self.live);
        }
    }

    /// Number of communicators seen so far.
    pub(crate) fn len(&self) -> usize {
        self.live.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ShardMap {
        /// Whether no communicator has been used yet.
        fn is_empty(&self) -> bool {
            self.live.is_empty()
        }
    }

    fn ids(map: &ShardMap) -> Vec<u16> {
        map.live.iter().map(|(id, _)| id.0).collect()
    }

    #[test]
    fn place_is_idempotent_and_keeps_comm_id_order() {
        let mut map = ShardMap::new();
        let config = MatchConfig::small();
        for id in [5u16, 1, 3] {
            map.place(CommId(id), &config);
        }
        assert_eq!(map.place(CommId(3), &config), 1);
        assert_eq!(ids(&map), [1, 3, 5]);
    }

    #[test]
    fn declare_after_use_is_rejected() {
        let mut map = ShardMap::new();
        let config = MatchConfig::small();
        map.place(CommId(2), &config);
        assert!(map
            .try_declare(CommId(2), &config, CommHints::no_wildcards())
            .is_err());
        assert!(map
            .try_declare(CommId(3), &config, CommHints::no_wildcards())
            .is_ok());
        assert_eq!(
            map.find(CommId(3)).unwrap().hints,
            CommHints::no_wildcards()
        );
    }

    #[test]
    fn a_reset_parks_every_shard_until_its_communicator_comes_back() {
        let mut map = ShardMap::new();
        let config = MatchConfig::small();
        let one = map.place(CommId(1), &config);
        map.try_declare(CommId(2), &config, CommHints::no_wildcards())
            .unwrap();
        map.live[one].1.host.next_label = PostLabel(9);
        map.reset();
        assert!(map.is_empty() && map.find(CommId(1)).is_none());
        // Taken back by use with no hints, or declared anew with others.
        let one = map.place(CommId(1), &config);
        assert_eq!(map.live[one].1.host.next_label, PostLabel::ZERO);
        assert!(map.try_declare(CommId(2), &config, CommHints::NONE).is_ok());
        assert_eq!(map.find(CommId(2)).unwrap().hints, CommHints::NONE);
        map.place(CommId(3), &config);
        assert_eq!(ids(&map), [1, 2, 3]);
        map.reset();
        assert!(map
            .try_declare(CommId(3), &config, CommHints::no_wildcards())
            .is_ok());
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn a_queue_refuses_at_exactly_its_capacity() {
        let config = MatchConfig::small().with_ring_capacity(3);
        let mut shard = CommShard::new(&config, CommHints::NONE);
        let arrival = |i: u64| Command::Arrival {
            env: otm_base::Envelope::world(otm_base::Rank(0), otm_base::Tag(0)),
            msg: mpi_matching::MsgHandle(i),
        };
        for i in 0..3 {
            shard.enqueue(i, arrival(i), config.ring_capacity).unwrap();
        }
        let full = shard.enqueue(3, arrival(3), config.ring_capacity);
        assert_eq!(full, Err(MatchError::SubmissionRingFull { comm: 0 }));
        assert_eq!(shard.queue.len(), 3);
        shard.queue.pop_front();
        shard.enqueue(3, arrival(3), config.ring_capacity).unwrap();
    }
}
