//! The engine's host-facing command submission queue.
//!
//! The DPA receives its work through QP command queues (§IV-E): the host
//! enqueues *post* and *arrival* commands from any thread, and the device
//! coordinator drains them in submission order. [`CommandQueue`] is that
//! queue on the host side: every command is stamped with a global
//! submission *ticket* and pushed onto its communicator's bounded
//! [`CommandRing`](crate::ring::CommandRing) — a wait-free push that
//! contends with nothing outside its own communicator. A full ring hands
//! the command back as the retryable
//! [`MatchError::SubmissionRingFull`](otm_base::MatchError) backpressure
//! signal. The drain recovers the global submission order by merging ring
//! heads on their tickets (a k-way min-ticket `Merge`), so the strict-FIFO
//! oracle and the packed≡consecutive equivalence hold.
//!
//! Commands that a failed drain hands back via `Merge::requeue_front`
//! (crate-internal) go into a small *stash* that the merge consumes before
//! touching the rings — a stashed command is always older than anything
//! still in its communicator's ring, so per-communicator FIFO order
//! survives requeueing.
//!
//! [`crate::OtmEngine::drain`] plays the coordinator: it pops commands one
//! at a time off one `Merge` over the directory snapshot it took at entry,
//! stages them in a [`crate::scheduler::PackingScheduler`], applies posts
//! through the per-communicator shards, and assembles arrivals into parallel
//! matching blocks. The rings are read in place and no lock a submitter
//! takes is held, so submissions pipeline against block execution (the
//! paper's CQ pipelining, §IV-E).
//!
//! MPI matching depends only on *per-communicator* command order, which the
//! rings preserve and which the scheduler never violates even when its
//! cross-communicator policy reorders commands from different communicators
//! to fill blocks (§IV-E execution groups).
//!
//! The command vocabulary ([`Command`], [`CommandOutcome`], [`DrainReport`])
//! lives in `mpi_matching::backend` so every
//! [`MatchingBackend`](mpi_matching::MatchingBackend) speaks it; this
//! module re-exports the types under their engine-side names.

#![deny(missing_docs)]

use otm_base::sync::{lock, mutex_mut};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::shard::{CommShard, ShardMap};
use otm_base::{CommId, MatchConfig, MatchError};

pub use mpi_matching::backend::{CommandOutcome, DrainReport, PendingCommand as Command};

/// The communicator a command belongs to (posts carry it in their pattern,
/// arrivals in their envelope).
pub(crate) fn comm_of(cmd: &Command) -> CommId {
    match cmd {
        Command::Post { pattern, .. } => pattern.comm,
        Command::Arrival { env, .. } => env.comm,
    }
}

/// A multi-producer command queue (see module docs).
///
/// Storage lives in each shard's `submission` ring; the queue itself only
/// coordinates tickets and the drain-side merge. Every successfully
/// submitted command is stamped with a monotone *ticket* (the global
/// submission sequence number); drains consume in ticket order, recovered by
/// merging the per-communicator ring heads.
#[derive(Debug, Default)]
pub struct CommandQueue {
    /// Next submission ticket. A ticket burned on a rejected (ring-full)
    /// push leaves a harmless gap — tickets only need to be monotone over
    /// the commands that actually entered the queue.
    tickets: AtomicU64,
    /// Commands handed back by a failed drain, ahead of everything still in
    /// the rings. Only a [`Merge`] touches it, so the mutex is uncontended
    /// on the submit path.
    stash: Mutex<VecDeque<(u64, Command)>>,
}

impl CommandQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a command. Callable from any thread.
    ///
    /// A full communicator ring rejects the command with the retryable
    /// [`MatchError::SubmissionRingFull`]; draining the queue frees slots,
    /// after which the same submit succeeds.
    pub fn submit(
        &self,
        cmd: Command,
        shards: &ShardMap,
        config: &MatchConfig,
    ) -> Result<(), MatchError> {
        let ticket = self.tickets.fetch_add(1, Ordering::Relaxed);
        let comm = comm_of(&cmd);
        shards
            .with_shard(comm, config, |shard| shard.submission.push(ticket, cmd))
            .map_err(|_| MatchError::SubmissionRingFull { comm: comm.0 })
    }

    /// [`CommandQueue::submit`] for a caller with exclusive access: the same
    /// ticket counter and ring push, reached through `get_mut`, so nothing is
    /// locked and no read-modify-write is issued before the push.
    pub fn submit_exclusive(
        &mut self,
        cmd: Command,
        shards: &mut ShardMap,
        config: &MatchConfig,
    ) -> Result<(), MatchError> {
        let (ticket, comm) = (*self.tickets.get_mut(), comm_of(&cmd));
        *self.tickets.get_mut() += 1;
        let ring = &shards.shard_mut(comm, config).submission;
        ring.push(ticket, cmd)
            .map_err(|_| MatchError::SubmissionRingFull { comm: comm.0 })
    }

    /// Whether a failed drain left commands in the stash.
    pub(crate) fn stashed(&mut self) -> bool {
        !mutex_mut(&mut self.stash).is_empty()
    }

    /// Restarts the tickets at 0, for a caller with exclusive access whose
    /// stash and rings are empty.
    pub(crate) fn reset(&mut self) {
        *self.tickets.get_mut() = 0;
    }

    /// Number of commands waiting to be drained in the stash and in the
    /// rings of `lanes` (a snapshot of the directory): a racy monitoring
    /// count, not a synchronization primitive. Waits out a drain in
    /// progress.
    pub fn len(&self, lanes: &[(CommId, Arc<CommShard>)]) -> usize {
        self.merge(lanes).len()
    }

    /// Starts the consumer side over `lanes`, a directory snapshot in
    /// `CommId` order. The caller must be the only consumer — hold the
    /// engine's coordinator lock, or own the engine — until the merge is
    /// dropped.
    pub(crate) fn merge<'a>(&'a self, lanes: &'a [(CommId, Arc<CommShard>)]) -> Merge<'a> {
        Merge {
            stash: lock(&self.stash),
            lanes,
            heads: vec![None; lanes.len()],
        }
    }
}

/// The consumer side of a [`CommandQueue`]: the k-way min-ticket merge over
/// one directory snapshot, yielding queued commands oldest first — the stash
/// (requeued, oldest of all) before the rings, the ring heads by ticket, so
/// commands come out in global submission order. The rings are read in
/// place; the only lock held is the stash's, which no submitter takes, so
/// concurrent submitters pipeline against whatever the caller does between
/// two commands.
///
/// A submission racing the merge may or may not be yielded; one into a
/// communicator created after the snapshot is not, and waits for the next
/// merge.
pub(crate) struct Merge<'a> {
    stash: MutexGuard<'a, VecDeque<(u64, Command)>>,
    lanes: &'a [(CommId, Arc<CommShard>)],
    /// The head ticket last seen on each lane. A lane's published head can
    /// only be popped by this merge, so a cached ticket stays true until we
    /// pop it; `None` (empty when last looked at, or just popped) is
    /// re-peeked on every call, so a racing submit is seen as soon as it
    /// would be without the cache.
    heads: Vec<Option<u64>>,
}

impl Merge<'_> {
    /// Commands waiting in the stash and the snapshot's rings (the drain's
    /// entry bound).
    pub(crate) fn len(&self) -> usize {
        let ringed: usize = self.lanes.iter().map(|(_, s)| s.submission.len()).sum();
        self.stash.len() + ringed
    }

    /// Puts unprocessed commands back at the *front* of the queue (in their
    /// original order), ahead of anything submitted since they were taken:
    /// requeued commands are older than anything still in the rings, so
    /// consuming the stash first preserves per-communicator FIFO order.
    pub(crate) fn requeue_front(&mut self, cmds: Vec<(u64, Command)>) {
        for entry in cmds.into_iter().rev() {
            self.stash.push_front(entry);
        }
    }
}

impl Iterator for Merge<'_> {
    type Item = (u64, Command);

    fn next(&mut self) -> Option<(u64, Command)> {
        if let Some(entry) = self.stash.pop_front() {
            return Some(entry);
        }
        let mut oldest: Option<(u64, usize)> = None;
        for (i, (head, (_, shard))) in self.heads.iter_mut().zip(self.lanes).enumerate() {
            if head.is_none() {
                *head = shard.submission.peek_ticket();
            }
            if let Some(ticket) = *head {
                if oldest.map_or(true, |(t, _)| ticket < t) {
                    oldest = Some((ticket, i));
                }
            }
        }
        let (ticket, i) = oldest?;
        self.heads[i] = None;
        let entry = self.lanes[i].1.submission.pop();
        debug_assert_eq!(entry.as_ref().map(|e| e.0), Some(ticket));
        entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_matching::MsgHandle;
    use otm_base::{CommId, Envelope, Rank, Tag};

    fn arrival(i: u64) -> Command {
        Command::Arrival {
            env: Envelope::world(Rank(0), Tag(i as u32)),
            msg: MsgHandle(i),
        }
    }

    fn arrival_on(comm: u16, i: u64) -> Command {
        Command::Arrival {
            env: Envelope::new(Rank(0), Tag(i as u32), CommId(comm)),
            msg: MsgHandle(i),
        }
    }

    #[test]
    fn shared_and_exclusive_submits_draw_from_one_ticket_sequence() {
        let (mut q, mut shards, config) = ring_queue();
        q.submit(arrival_on(1, 0), &shards, &config).unwrap();
        q.submit_exclusive(arrival_on(2, 1), &mut shards, &config)
            .unwrap();
        q.submit_exclusive(arrival_on(1, 2), &mut shards, &config)
            .unwrap();
        q.submit(arrival_on(2, 3), &shards, &config).unwrap();
        let taken = take(&q, &shards, usize::MAX);
        let tickets: Vec<u64> = taken.iter().map(|(t, _)| *t).collect();
        assert_eq!(tickets, [0, 1, 2, 3]);
        assert_eq!(taken[2].1, arrival_on(1, 2));
    }

    fn ring_queue() -> (CommandQueue, ShardMap, MatchConfig) {
        (CommandQueue::new(), ShardMap::new(), MatchConfig::small())
    }

    /// The directory snapshot a drain would take: these tests use
    /// communicators 0 to 5, and the queue side never reads the directory
    /// itself.
    fn snapshot(shards: &ShardMap) -> Vec<(CommId, Arc<CommShard>)> {
        (0..=5)
            .filter_map(|c| Some((CommId(c), shards.get(CommId(c))?)))
            .collect()
    }

    /// Takes up to `max` ticketed commands over a fresh directory snapshot.
    fn take(q: &CommandQueue, shards: &ShardMap, max: usize) -> Vec<(u64, Command)> {
        q.merge(&snapshot(shards)).take(max).collect()
    }

    fn commands(q: &CommandQueue, shards: &ShardMap) -> Vec<Command> {
        take(q, shards, usize::MAX)
            .into_iter()
            .map(|(_, c)| c)
            .collect()
    }

    fn len(q: &CommandQueue, shards: &ShardMap) -> usize {
        q.len(&snapshot(shards))
    }

    #[test]
    fn submit_take_preserves_fifo_order() {
        let (q, shards, config) = ring_queue();
        for i in 0..4 {
            q.submit(arrival(i), &shards, &config).unwrap();
        }
        assert_eq!(len(&q, &shards), 4);
        let taken = take(&q, &shards, usize::MAX);
        assert_eq!(
            taken.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            vec![0, 1, 2, 3],
            "tickets are the submission order"
        );
        assert_eq!(
            taken.into_iter().map(|(_, c)| c).collect::<Vec<_>>(),
            (0..4).map(arrival).collect::<Vec<_>>()
        );
        assert_eq!(len(&q, &shards), 0);
    }

    #[test]
    fn requeue_front_goes_ahead_of_new_submissions() {
        let (q, shards, config) = ring_queue();
        q.submit(arrival(0), &shards, &config).unwrap();
        q.submit(arrival(1), &shards, &config).unwrap();
        let lanes = snapshot(&shards);
        let mut merge = q.merge(&lanes);
        let mut taken: Vec<_> = merge.by_ref().collect();
        taken.remove(0); // command 0 was applied
        q.submit(arrival(2), &shards, &config).unwrap(); // raced in after the take
        merge.requeue_front(taken);
        drop(merge);
        assert_eq!(commands(&q, &shards), vec![arrival(1), arrival(2)]);
    }

    #[test]
    fn bounded_takes_pop_prefixes_in_order() {
        let (q, shards, config) = ring_queue();
        for i in 0..5 {
            q.submit(arrival(i), &shards, &config).unwrap();
        }
        let first: Vec<_> = take(&q, &shards, 2).into_iter().map(|(_, c)| c).collect();
        assert_eq!(first, vec![arrival(0), arrival(1)]);
        assert_eq!(len(&q, &shards), 3);
        // An oversized take gets whatever is left; zero takes nothing.
        assert_eq!(take(&q, &shards, 0).len(), 0);
        let rest: Vec<_> = take(&q, &shards, 99).into_iter().map(|(_, c)| c).collect();
        assert_eq!(rest, vec![arrival(2), arrival(3), arrival(4)]);
        assert_eq!(len(&q, &shards), 0);
    }

    #[test]
    fn ring_path_merges_lanes_back_into_submission_order() {
        let (q, shards, config) = ring_queue();
        // Interleave three communicators; the rings hold them separately…
        for i in 0..9u64 {
            q.submit(arrival_on((i % 3) as u16 + 1, i), &shards, &config)
                .unwrap();
        }
        assert_eq!(shards.len(), 3, "one shard per communicator");
        // …but the drain-side merge recovers the global submission order.
        let tickets: Vec<u64> = take(&q, &shards, usize::MAX)
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        assert_eq!(tickets, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn merge_sees_a_submit_into_a_lane_it_found_empty_but_not_a_late_communicator() {
        let (q, shards, config) = ring_queue();
        q.submit(arrival_on(1, 0), &shards, &config).unwrap();
        shards.get_or_create(CommId(2), &config);
        let lanes = snapshot(&shards);
        let mut merge = q.merge(&lanes);
        assert_eq!(merge.next(), Some((0, arrival_on(1, 0))));
        assert_eq!(merge.next(), None, "both lanes are empty");
        // Lane 2 was empty when last peeked: no stale head hides the submit.
        q.submit(arrival_on(2, 1), &shards, &config).unwrap();
        // Communicator 3 does not exist in the snapshot.
        q.submit(arrival_on(3, 2), &shards, &config).unwrap();
        assert_eq!(merge.next(), Some((1, arrival_on(2, 1))));
        assert_eq!(merge.next(), None, "the late communicator waits");
        drop(merge);
        assert_eq!(commands(&q, &shards), vec![arrival_on(3, 2)]);
    }

    #[test]
    fn full_ring_reports_retryable_backpressure() {
        let config = MatchConfig::small().with_ring_capacity(2);
        let q = CommandQueue::new();
        let shards = ShardMap::new();
        q.submit(arrival(0), &shards, &config).unwrap();
        q.submit(arrival(1), &shards, &config).unwrap();
        let err = q.submit(arrival(2), &shards, &config).unwrap_err();
        assert_eq!(err, MatchError::SubmissionRingFull { comm: 0 });
        assert!(err.is_retryable());
        // Another communicator's ring is unaffected by the full one.
        q.submit(arrival_on(5, 0), &shards, &config).unwrap();
        // Draining frees slots; the retry then succeeds.
        assert_eq!(commands(&q, &shards).len(), 3);
        q.submit(arrival(2), &shards, &config).unwrap();
        assert_eq!(len(&q, &shards), 1);
    }

    #[test]
    fn stash_is_consumed_before_ring_commands() {
        let (q, shards, config) = ring_queue();
        for i in 0..4 {
            q.submit(arrival(i), &shards, &config).unwrap();
        }
        let lanes = snapshot(&shards);
        let mut merge = q.merge(&lanes);
        let mut taken: Vec<_> = merge.by_ref().take(2).collect();
        taken.remove(0); // 0 applied; 1 must come back ahead of 2, 3
        merge.requeue_front(taken);
        assert_eq!(merge.len(), 3);
        drop(merge);
        assert_eq!(
            commands(&q, &shards),
            vec![arrival(1), arrival(2), arrival(3)]
        );
    }
}
