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
//! heads on their tickets (a k-way min-ticket merge), so the strict-FIFO
//! oracle and the packed≡consecutive equivalence hold.
//!
//! Commands that a failed drain hands back via
//! `CommandQueue::requeue_front` (crate-internal) go into a small *stash* that every take
//! consumes before touching the rings — a stashed command is always older
//! than anything still in its communicator's ring, so per-communicator FIFO
//! order survives requeueing.
//!
//! [`crate::OtmEngine::drain`] plays the coordinator: it pops commands in
//! bounded chunks, stages them in a [`crate::scheduler::PackingScheduler`],
//! applies posts through the per-communicator shards, and assembles arrivals
//! into parallel matching blocks. Between chunks no queue-wide lock is held,
//! so submissions pipeline against block execution (the paper's CQ
//! pipelining, §IV-E).
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

use otm_base::sync::lock;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::shard::ShardMap;
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
    /// the rings. Only the drain touches it (requeue + take), so the mutex
    /// is uncontended on the submit path.
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
        let shard = shards.get_or_create(comm, config);
        shard
            .submission
            .push(ticket, cmd)
            .map_err(|_| MatchError::SubmissionRingFull { comm: comm.0 })
    }

    /// Number of commands waiting to be drained: a racy monitoring snapshot
    /// (one load per communicator), not a synchronization primitive.
    pub fn len(&self, shards: &ShardMap) -> usize {
        let stashed = lock(&self.stash).len();
        let ringed: usize = shards
            .all_sorted()
            .iter()
            .map(|(_, shard)| shard.submission.len())
            .sum();
        stashed + ringed
    }

    /// Whether no command is waiting (same caveat as [`CommandQueue::len`]).
    pub fn is_empty(&self, shards: &ShardMap) -> bool {
        self.len(shards) == 0
    }

    /// Per-communicator submission-ring occupancy, in communicator order —
    /// the drain samples it after each refill for the
    /// `otm_submission_ring_depth_peak` gauges.
    pub(crate) fn lane_occupancy(&self, shards: &ShardMap) -> Vec<(u16, usize)> {
        shards
            .all_sorted()
            .iter()
            .map(|(comm, shard)| (comm.0, shard.submission.len()))
            .collect()
    }

    /// Takes every queued command, oldest first (global ticket order).
    /// Submissions racing with the take land after it and are picked up by
    /// the next drain.
    pub(crate) fn take_all(&self, shards: &ShardMap) -> VecDeque<(u64, Command)> {
        self.take_chunk(usize::MAX, shards)
    }

    /// Takes up to `max` commands from the head, oldest first: the stash
    /// (requeued, oldest of all) is consumed before the rings, and the
    /// per-communicator ring heads are merged by ticket so the chunk comes
    /// out in global submission order. No queue-wide lock is held while the
    /// rings are read, so concurrent submitters pipeline against whatever
    /// the caller does with the chunk.
    pub(crate) fn take_chunk(&self, max: usize, shards: &ShardMap) -> VecDeque<(u64, Command)> {
        let mut out = VecDeque::new();
        if max == 0 {
            return out;
        }
        {
            let mut stash = lock(&self.stash);
            while out.len() < max {
                match stash.pop_front() {
                    Some(entry) => out.push_back(entry),
                    None => break,
                }
            }
        }
        // k-way min-ticket merge over the ring heads. The engine's
        // coordinator lock, held for a whole drain, serializes consumers, so
        // a peeked head can only be popped by us; a head appearing
        // concurrently (racing submit) may or may not be included, and is
        // picked up by the next take if not.
        let lanes = shards.all_sorted();
        while out.len() < max {
            let mut best: Option<(u64, usize)> = None;
            for (i, (_, shard)) in lanes.iter().enumerate() {
                if let Some(ticket) = shard.submission.peek_ticket() {
                    if best.map(|(t, _)| ticket < t).unwrap_or(true) {
                        best = Some((ticket, i));
                    }
                }
            }
            match best {
                Some((_, i)) => match lanes[i].1.submission.pop() {
                    Some(entry) => out.push_back(entry),
                    None => break,
                },
                None => break,
            }
        }
        out
    }

    /// Puts unprocessed commands back at the *front* of the queue (in their
    /// original order), ahead of anything submitted since the take: requeued
    /// commands are older than anything still in the rings, so consuming the
    /// stash first preserves per-communicator FIFO order.
    pub(crate) fn requeue_front(&self, cmds: VecDeque<(u64, Command)>) {
        let mut stash = lock(&self.stash);
        for entry in cmds.into_iter().rev() {
            stash.push_front(entry);
        }
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

    fn ring_queue() -> (CommandQueue, ShardMap, MatchConfig) {
        (CommandQueue::new(), ShardMap::new(), MatchConfig::small())
    }

    fn commands(q: &CommandQueue, shards: &ShardMap) -> Vec<Command> {
        q.take_all(shards).into_iter().map(|(_, c)| c).collect()
    }

    #[test]
    fn submit_take_preserves_fifo_order() {
        let (q, shards, config) = ring_queue();
        for i in 0..4 {
            q.submit(arrival(i), &shards, &config).unwrap();
        }
        assert_eq!(q.len(&shards), 4);
        let taken = q.take_all(&shards);
        assert_eq!(
            taken.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            vec![0, 1, 2, 3],
            "tickets are the submission order"
        );
        assert_eq!(
            taken.into_iter().map(|(_, c)| c).collect::<Vec<_>>(),
            (0..4).map(arrival).collect::<Vec<_>>()
        );
        assert!(q.is_empty(&shards));
    }

    #[test]
    fn requeue_front_goes_ahead_of_new_submissions() {
        let (q, shards, config) = ring_queue();
        q.submit(arrival(0), &shards, &config).unwrap();
        q.submit(arrival(1), &shards, &config).unwrap();
        let mut taken = q.take_all(&shards);
        taken.pop_front(); // command 0 was applied
        q.submit(arrival(2), &shards, &config).unwrap(); // raced in after the take
        q.requeue_front(taken);
        assert_eq!(commands(&q, &shards), vec![arrival(1), arrival(2)]);
    }

    #[test]
    fn take_chunk_pops_bounded_prefixes_in_order() {
        let (q, shards, config) = ring_queue();
        for i in 0..5 {
            q.submit(arrival(i), &shards, &config).unwrap();
        }
        let first: Vec<_> = q
            .take_chunk(2, &shards)
            .into_iter()
            .map(|(_, c)| c)
            .collect();
        assert_eq!(first, vec![arrival(0), arrival(1)]);
        assert_eq!(q.len(&shards), 3);
        // Oversized chunk takes whatever is left; zero takes nothing.
        assert_eq!(q.take_chunk(0, &shards).len(), 0);
        let rest: Vec<_> = q
            .take_chunk(99, &shards)
            .into_iter()
            .map(|(_, c)| c)
            .collect();
        assert_eq!(rest, vec![arrival(2), arrival(3), arrival(4)]);
        assert!(q.is_empty(&shards));
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
        let tickets: Vec<u64> = q.take_all(&shards).into_iter().map(|(t, _)| t).collect();
        assert_eq!(tickets, (0..9).collect::<Vec<_>>());
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
        let drained = q.take_all(&shards);
        assert_eq!(drained.len(), 3);
        q.submit(arrival(2), &shards, &config).unwrap();
        assert_eq!(q.len(&shards), 1);
    }

    #[test]
    fn stash_is_consumed_before_ring_commands() {
        let (q, shards, config) = ring_queue();
        for i in 0..4 {
            q.submit(arrival(i), &shards, &config).unwrap();
        }
        let mut taken = q.take_chunk(2, &shards);
        taken.pop_front(); // 0 applied; 1 must come back ahead of 2, 3
        q.requeue_front(taken);
        assert_eq!(q.len(&shards), 3);
        assert_eq!(
            commands(&q, &shards),
            vec![arrival(1), arrival(2), arrival(3)]
        );
    }
}
