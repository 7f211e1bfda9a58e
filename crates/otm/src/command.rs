//! The engine's host-facing command queues.
//!
//! The DPA receives its work through QP command queues (§IV-E): the host
//! enqueues *post* and *arrival* commands, and the device coordinator drains
//! them in submission order. Here every communicator's queue is a bounded
//! `VecDeque` on its [`CommShard`]: [`crate::OtmEngine::submit`] stamps each
//! command it accepts with the next submission *ticket* and pushes it at the
//! back of its communicator's queue, and a queue holding `ring_capacity`
//! commands hands the command back as the retryable
//! [`MatchError::SubmissionRingFull`](otm_base::MatchError) backpressure
//! signal. The drain recovers the global submission order by always taking
//! the queue head with the smallest ticket (`pop_oldest`, over a copy of
//! the head tickets kept beside the directory), so the
//! strict-FIFO oracle and the packed≡consecutive equivalence hold.
//!
//! Commands a failed drain hands back go to the *front* of their own
//! communicators' queues (`requeue_front`): every one of them is older
//! than anything still queued, so per-communicator FIFO order and the
//! global ticket order both survive requeueing.
//!
//! [`crate::OtmEngine::drain`] plays the coordinator: it pops commands one
//! at a time into a [`crate::scheduler::PackingScheduler`], applies posts
//! to their communicators' shards, and assembles arrivals into parallel
//! matching blocks. MPI matching depends only on *per-communicator* command
//! order, which the queues preserve and which the scheduler never violates
//! even when its cross-communicator policy reorders commands from different
//! communicators to fill blocks (§IV-E execution groups).
//!
//! The command vocabulary ([`Command`], [`CommandOutcome`], [`DrainReport`])
//! lives in `mpi_matching::backend` so every
//! [`MatchingBackend`](mpi_matching::MatchingBackend) speaks it; this
//! module re-exports the types under their engine-side names.

#![deny(missing_docs)]

use crate::shard::{locate, CommShard, Entry};
use otm_base::CommId;

pub use mpi_matching::backend::{CommandOutcome, DrainReport, PendingCommand as Command};

/// The communicator a command belongs to (posts carry it in their pattern,
/// arrivals in their envelope).
pub(crate) fn comm_of(cmd: &Command) -> CommId {
    match cmd {
        Command::Post { pattern, .. } => pattern.comm,
        Command::Arrival { env, .. } => env.comm,
    }
}

/// The ticket at the head of `shard`'s queue, `u64::MAX` when it is empty.
fn head(shard: &CommShard) -> u64 {
    shard.queue.front().map_or(u64::MAX, |&(ticket, _)| ticket)
}

/// Reads the head ticket of every queue in `shards` (the directory, in
/// `CommId` order) into `heads`, for [`pop_oldest`].
pub(crate) fn read_heads(shards: &[Entry], heads: &mut Vec<u64>) {
    heads.clear();
    heads.extend(shards.iter().map(|(_, shard)| head(shard)));
}

/// Takes the oldest queued command off `shards`: its communicator's place
/// there, its ticket and the command. `heads` holds each queue's head
/// ticket, as [`read_heads`] read it and earlier pops kept it, so the
/// search reads one short vector instead of every shard.
pub(crate) fn pop_oldest(shards: &mut [Entry], heads: &mut [u64]) -> Option<(usize, u64, Command)> {
    let (lane, &oldest) = heads.iter().enumerate().min_by_key(|&(_, ticket)| ticket)?;
    if oldest == u64::MAX {
        return None;
    }
    let shard = &mut shards[lane].1;
    let (ticket, cmd) = shard.queue.pop_front()?;
    heads[lane] = head(shard);
    Some((lane, ticket, cmd))
}

/// Puts `cmds`, in ticket order and each older than anything still queued,
/// back at the front of their communicators' queues in that order.
pub(crate) fn requeue_front(shards: &mut [Entry], cmds: Vec<(u64, Command)>) {
    for (ticket, cmd) in cmds.into_iter().rev() {
        let lane =
            locate(shards, comm_of(&cmd)).expect("a requeued command's communicator is live");
        shards[lane].1.queue.push_front((ticket, cmd));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardMap;
    use mpi_matching::MsgHandle;
    use otm_base::{Envelope, MatchConfig, Rank, Tag};

    fn arrival_on(comm: u16, i: u64) -> Command {
        Command::Arrival {
            env: Envelope::new(Rank(0), Tag(i as u32), CommId(comm)),
            msg: MsgHandle(i),
        }
    }

    /// A directory with `cmds` queued in order, each under its position as
    /// its ticket.
    fn queued(cmds: &[Command]) -> ShardMap {
        let (mut map, config) = (ShardMap::new(), MatchConfig::small());
        for (ticket, &cmd) in cmds.iter().enumerate() {
            let at = map.place(comm_of(&cmd), &config);
            let shard = &mut map.live[at].1;
            shard
                .enqueue(ticket as u64, cmd, config.ring_capacity)
                .unwrap();
        }
        map
    }

    fn tickets(map: &mut ShardMap) -> Vec<u64> {
        let mut heads = Vec::new();
        read_heads(&map.live, &mut heads);
        std::iter::from_fn(|| pop_oldest(&mut map.live, &mut heads))
            .map(|(_, ticket, _)| ticket)
            .collect()
    }

    #[test]
    fn the_oldest_head_comes_first_across_communicators() {
        let cmds: Vec<_> = (0..9).map(|i| arrival_on(3 - (i % 3) as u16, i)).collect();
        let (mut map, mut heads) = (queued(&cmds), Vec::new());
        assert_eq!(map.len(), 3, "one queue per communicator");
        read_heads(&map.live, &mut heads);
        let (lane, ticket, cmd) = pop_oldest(&mut map.live, &mut heads).unwrap();
        assert_eq!((lane, ticket, cmd), (2, 0, cmds[0]));
        assert_eq!(tickets(&mut map), (1..9).collect::<Vec<_>>());
        assert_eq!(pop_oldest(&mut map.live, &mut heads), None);
    }

    #[test]
    fn requeued_commands_go_ahead_of_their_communicators_queues() {
        let cmds: Vec<_> = (0..6).map(|i| arrival_on(1 + (i % 2) as u16, i)).collect();
        let (mut map, mut heads) = (queued(&cmds), Vec::new());
        read_heads(&map.live, &mut heads);
        let mut taken: Vec<_> = std::iter::from_fn(|| pop_oldest(&mut map.live, &mut heads))
            .take(4)
            .map(|(_, ticket, cmd)| (ticket, cmd))
            .collect();
        taken.remove(1); // ticket 1 was applied
        requeue_front(&mut map.live, taken);
        assert_eq!(map.queued(), 5);
        assert_eq!(tickets(&mut map), [0, 2, 3, 4, 5]);
    }
}
