//! Per-communicator shards of the engine's host-facing state.
//!
//! The paper's DPA deployment scales by running independent communicators
//! on independent execution-unit groups (§IV-E): commands for different
//! communicators never contend. This module mirrors that split on the host
//! side. Each communicator owns a [`CommShard`]: one mutex around a
//! [`ShardHost`] — the receive table, the four indexes, the hints, the
//! unexpected store, post labels and sequence-id run tracking, all plain
//! data — plus its submission ring. That mutex is the communicator's only
//! lock. Posting into communicator *A* takes only *A*'s shard lock, so
//! threads posting into different communicators proceed concurrently; the
//! block coordinator locks exactly the shards a block touches, in
//! [`CommId`] order, holds them for the whole block and lends them to the
//! lanes through `&`, which keeps the engine deadlock-free (posters ever
//! hold at most one shard lock).
//!
//! A reset empties every shard in place and parks it, still allocated, until
//! its communicator is next used: the directory then reads as a new one's,
//! and a communicator that comes back costs no allocation.

#![deny(missing_docs)]

use crate::index::PrqIndexes;
use crate::metrics::DepthPeakGauges;
use crate::ring::CommandRing;
use crate::table::ReceiveTable;
use crate::umq::UnexpectedStore;
use otm_base::sync::{get_mut, lock, mutex_mut, read, write};
use otm_base::{CommHints, CommId, MatchConfig, MatchError, PostLabel, ReceivePattern, SeqId};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};

/// One communicator's matching state, reachable only through the shard
/// lock. Posting and block-end cleanup hold the guard (`&mut`); block lanes
/// borrow `&` from the coordinator's guard and write nothing but the slot
/// atomics inside `table`.
pub struct ShardHost {
    /// The fixed-size receive descriptor table.
    pub(crate) table: ReceiveTable,
    /// The four posted-receive index structures.
    pub(crate) prq: PrqIndexes,
    /// The communicator's matching hints (§VII). Fixed at communicator
    /// creation, like the DPA resources themselves (§IV-E).
    pub(crate) hints: CommHints,
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
    /// both queues read as new, labels and sequence ids start over, and the
    /// hints are those of a communicator created by use.
    fn reset(&mut self) {
        self.table.reset();
        self.prq.reset();
        self.umq.reset();
        self.hints = CommHints::NONE;
        self.next_label = PostLabel::ZERO;
        self.cur_seq = SeqId::ZERO;
        self.last_pattern = None;
    }
}

/// A locked shard: what a block's coordinator lends its lanes.
pub(crate) type Locked<'a> = std::sync::MutexGuard<'a, ShardHost>;

/// One communicator: its matching state behind the shard lock, and its
/// submission ring beside it.
pub struct CommShard {
    /// The matching state, guarded by the shard lock.
    pub(crate) host: Mutex<ShardHost>,
    /// The communicator's bounded submission ring (§IV-E command queue):
    /// host threads push commands here without contending on any global
    /// lock; the drain coordinator pops from the consumer end.
    pub(crate) submission: CommandRing,
    /// The communicator's two depth-peak gauges, resolved by the first drain
    /// that publishes for it.
    pub(crate) depth_peaks: DepthPeakGauges,
}

impl CommShard {
    fn new(config: &MatchConfig, hints: CommHints) -> Self {
        CommShard {
            host: Mutex::new(ShardHost {
                table: ReceiveTable::new(config.max_receives),
                prq: PrqIndexes::new(config.bins),
                hints,
                umq: UnexpectedStore::new(config.bins, config.max_unexpected),
                next_label: PostLabel::ZERO,
                cur_seq: SeqId::ZERO,
                last_pattern: None,
            }),
            submission: CommandRing::new(config.ring_capacity),
            depth_peaks: DepthPeakGauges::default(),
        }
    }
}

impl std::fmt::Debug for CommShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommShard").finish_non_exhaustive()
    }
}

/// The engine's communicator → shard directory: a vector kept in
/// [`CommId`] order, which is also the global lock order.
///
/// The vector is behind a read-write lock that is only write-locked to
/// insert a *new* communicator. Lookups that go on to lock the shard
/// binary-search under the read lock, clone the `Arc` and release the
/// directory first; a submit's ring push runs under the read guard instead
/// (`with_shard`), which is safe because the push takes no lock and never
/// waits. Either way no second lock is acquired while the directory is held,
/// so it cannot participate in a deadlock cycle. Entries leave only at a
/// reset. A caller with the engine to itself needs neither: the exclusive
/// submit looks up through `RwLock::get_mut` (`ShardMap::shard_mut`: no lock
/// word touched, no `Arc` cloned), a direct block under one read guard kept
/// while it runs (`ShardMap::read`), which nobody can be waiting on.
#[derive(Debug, Default)]
pub struct ShardMap {
    shards: RwLock<Directory>,
}

/// A directory entry.
type Entry = (CommId, Arc<CommShard>);

/// The communicators in use, and the shards a reset emptied.
#[derive(Debug, Default)]
pub(crate) struct Directory {
    /// Every communicator used since the last reset, in `CommId` order.
    pub(crate) live: Vec<Entry>,
    /// Emptied shards, in no order, each the directory's alone: taken back
    /// when their communicator is next used.
    parked: Vec<Entry>,
}

/// Where `comm` is, or would be inserted, in a directory (or a snapshot of
/// it) in `CommId` order.
pub(crate) fn locate(shards: &[Entry], comm: CommId) -> Result<usize, usize> {
    shards.binary_search_by_key(&comm, |(id, _)| *id)
}

impl Directory {
    /// Inserts `comm` at `at` with `hints`: its parked shard, if a reset
    /// left one, else a new shard.
    fn insert(&mut self, at: usize, comm: CommId, config: &MatchConfig, hints: CommHints) {
        let shard = match self.parked.iter().position(|(id, _)| *id == comm) {
            Some(i) => {
                let (_, shard) = self.parked.swap_remove(i);
                // Parked, the shard was reachable from nowhere: no wait.
                lock(&shard.host).hints = hints;
                shard
            }
            None => Arc::new(CommShard::new(config, hints)),
        };
        self.live.insert(at, (comm, shard));
    }

    /// Where `comm` is, inserted with no hints if it was not.
    fn place(&mut self, comm: CommId, config: &MatchConfig) -> usize {
        locate(&self.live, comm).unwrap_or_else(|at| {
            self.insert(at, comm, config, CommHints::NONE);
            at
        })
    }
}

impl ShardMap {
    /// An empty directory.
    pub fn new() -> Self {
        ShardMap::default()
    }

    /// The shard for `comm`, if the communicator has been used.
    pub fn get(&self, comm: CommId) -> Option<Arc<CommShard>> {
        let shards = read(&self.shards);
        locate(&shards.live, comm)
            .ok()
            .map(|at| Arc::clone(&shards.live[at].1))
    }

    /// The shard for `comm`, creating it (with no hints) on first use.
    pub fn get_or_create(&self, comm: CommId, config: &MatchConfig) -> Arc<CommShard> {
        if let Some(shard) = self.get(comm) {
            return shard;
        }
        let mut shards = write(&self.shards);
        let at = shards.place(comm, config);
        Arc::clone(&shards.live[at].1)
    }

    /// The shard for `comm` (created with no hints on first use) for a caller
    /// with exclusive access: no lock is taken and nothing is cloned.
    pub(crate) fn shard_mut(&mut self, comm: CommId, config: &MatchConfig) -> &CommShard {
        let shards = get_mut(&mut self.shards);
        let at = shards.place(comm, config);
        &shards.live[at].1
    }

    /// The directory under its read guard. Only a caller with exclusive
    /// access to the engine may keep the guard across other locks: no writer
    /// can be waiting for it.
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, Directory> {
        read(&self.shards)
    }

    /// Runs `f` on the shard for `comm` (created with no hints on first use)
    /// under the directory read guard, sparing the `Arc` clone. `f` must take
    /// no lock and must not block (see the type's docs).
    pub(crate) fn with_shard<R>(
        &self,
        comm: CommId,
        config: &MatchConfig,
        f: impl FnOnce(&CommShard) -> R,
    ) -> R {
        let shards = read(&self.shards);
        match locate(&shards.live, comm) {
            Ok(at) => f(&shards.live[at].1),
            Err(_) => {
                drop(shards);
                f(&self.get_or_create(comm, config))
            }
        }
    }

    /// Declares `comm` with `hints`; fails if the communicator already
    /// exists (hints are fixed at communicator creation, like the DPA's
    /// resource allocation).
    pub fn try_declare(
        &self,
        comm: CommId,
        config: &MatchConfig,
        hints: CommHints,
    ) -> Result<(), MatchError> {
        let mut shards = write(&self.shards);
        let Err(at) = locate(&shards.live, comm) else {
            return Err(MatchError::InvalidConfig(format!(
                "hints for {comm} must be declared before the communicator is used"
            )));
        };
        shards.insert(at, comm, config, hints);
        Ok(())
    }

    /// Every shard in communicator-id order (the global lock order): a copy
    /// of the directory as it stands.
    pub fn all_sorted(&self) -> Vec<Entry> {
        read(&self.shards).live.clone()
    }

    /// Whether any communicator's ring holds a command.
    pub(crate) fn any_queued(&mut self) -> bool {
        let live = &get_mut(&mut self.shards).live;
        live.iter().any(|(_, shard)| !shard.submission.is_empty())
    }

    /// Empties every shard in place and parks it, for a caller with
    /// exclusive access whose rings are empty: the directory reads as new,
    /// and allocates nothing while the communicators it parks come back.
    pub(crate) fn reset(&mut self) {
        let shards = get_mut(&mut self.shards);
        for (_, shard) in &mut shards.live {
            let shard = Arc::get_mut(shard).expect("only a drain's snapshot shares a shard");
            debug_assert!(shard.submission.is_empty());
            mutex_mut(&mut shard.host).reset();
        }
        if shards.parked.is_empty() {
            std::mem::swap(&mut shards.live, &mut shards.parked);
        } else {
            shards.parked.append(&mut shards.live);
        }
    }

    /// Number of communicators seen so far.
    pub fn len(&self) -> usize {
        read(&self.shards).live.len()
    }

    /// Whether no communicator has been used yet.
    pub fn is_empty(&self) -> bool {
        read(&self.shards).live.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_is_idempotent() {
        let map = ShardMap::new();
        let config = MatchConfig::small();
        let a = map.get_or_create(CommId(1), &config);
        let b = map.get_or_create(CommId(1), &config);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn exclusive_and_guarded_lookups_see_one_directory() {
        let mut map = ShardMap::new();
        let config = MatchConfig::small();
        let shared = map.get_or_create(CommId(4), &config);
        assert!(std::ptr::eq(map.shard_mut(CommId(4), &config), &*shared));
        map.shard_mut(CommId(2), &config);
        let ids: Vec<CommId> = map.read().live.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, [CommId(2), CommId(4)]);
    }

    #[test]
    fn declare_after_use_is_rejected() {
        let map = ShardMap::new();
        let config = MatchConfig::small();
        map.get_or_create(CommId(2), &config);
        assert!(map
            .try_declare(CommId(2), &config, CommHints::no_wildcards())
            .is_err());
        assert!(map
            .try_declare(CommId(3), &config, CommHints::no_wildcards())
            .is_ok());
        assert_eq!(
            otm_base::sync::lock(&map.get(CommId(3)).unwrap().host).hints,
            CommHints::no_wildcards()
        );
    }

    #[test]
    fn a_reset_parks_every_shard_until_its_communicator_comes_back() {
        let mut map = ShardMap::new();
        let config = MatchConfig::small();
        let one = map.get_or_create(CommId(1), &config);
        map.try_declare(CommId(2), &config, CommHints::no_wildcards())
            .unwrap();
        let two = map.get(CommId(2)).unwrap();
        lock(&one.host).next_label = PostLabel(9);
        drop(one);
        drop(two);
        map.reset();
        assert!(map.is_empty() && map.get(CommId(1)).is_none());
        // Taken back by use with no hints, or declared anew with others.
        let one = map.get_or_create(CommId(1), &config);
        assert_eq!(lock(&one.host).next_label, PostLabel::ZERO);
        assert!(map.try_declare(CommId(2), &config, CommHints::NONE).is_ok());
        assert_eq!(
            lock(&map.get(CommId(2)).unwrap().host).hints,
            CommHints::NONE
        );
        map.get_or_create(CommId(3), &config);
        let ids: Vec<_> = map.all_sorted().into_iter().map(|(id, _)| id).collect();
        assert_eq!(ids, [CommId(1), CommId(2), CommId(3)]);
        drop(one);
        map.reset();
        assert!(map
            .try_declare(CommId(3), &config, CommHints::no_wildcards())
            .is_ok());
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn all_sorted_is_in_comm_id_order() {
        let map = ShardMap::new();
        let config = MatchConfig::small();
        for id in [5u16, 1, 3] {
            map.get_or_create(CommId(id), &config);
        }
        let ids: Vec<_> = map.all_sorted().into_iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![CommId(1), CommId(3), CommId(5)]);
    }
}
