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
//! signal.
//!
//! [`crate::OtmEngine::drain`] plays the coordinator and reads the queues
//! where the host wrote them: a `scheduler::Packer` stages their
//! oldest commands into its window, leaving them queued, and a step pops
//! the commands it applies off the queue fronts. Taking the oldest across
//! every queue recovers the global submission order, so the strict-FIFO
//! oracle and the packed ≡ sequential equivalence hold; MPI matching depends
//! only on *per-communicator* order, which the queues preserve and the
//! packer never violates (§IV-E execution groups).
//!
//! A failed step's commands go back to the *front* of their own queues
//! (`requeue_front`), each older than anything still queued there; commands
//! staged but never stepped never left.
//!
//! The command vocabulary ([`Command`], [`CommandOutcome`], [`DrainReport`])
//! lives in `mpi_matching::backend` so every
//! [`MatchingBackend`](mpi_matching::MatchingBackend) speaks it; this
//! module re-exports the types under their engine-side names.

#![deny(missing_docs)]

use crate::scheduler::CommandQueue;
use crate::shard::{locate, CommShard, Entry};
use otm_base::CommId;
use std::collections::VecDeque;

pub use mpi_matching::backend::{CommandOutcome, DrainReport, PendingCommand as Command};

/// The communicator a command belongs to (posts carry it in their pattern,
/// arrivals in their envelope).
pub(crate) fn comm_of(cmd: &Command) -> CommId {
    match cmd {
        Command::Post { pattern, .. } => pattern.comm,
        Command::Arrival { env, .. } => env.comm,
    }
}

impl CommandQueue for CommShard {
    fn commands(&mut self) -> &mut VecDeque<(u64, Command)> {
        &mut self.queue
    }
}

/// Puts a failed step's `cmds`, each older than anything still queued on
/// its communicator and in its communicator's order, back at the front of
/// their communicators' queues in that order.
pub(crate) fn requeue_front(shards: &mut [Entry], cmds: Vec<(u64, Command)>) {
    for (ticket, cmd) in cmds.into_iter().rev() {
        let lane =
            locate(shards, comm_of(&cmd)).expect("a requeued command's communicator is live");
        shards[lane].1.queue.push_front((ticket, cmd));
    }
}

/// Takes every queued command off `shards`, in ticket order.
pub(crate) fn take_queued(shards: &mut [Entry]) -> Vec<Command> {
    let mut queued: Vec<_> = shards
        .iter_mut()
        .flat_map(|(_, shard)| shard.queue.drain(..))
        .collect();
    queued.sort_unstable_by_key(|&(ticket, _)| ticket);
    queued.into_iter().map(|(_, cmd)| cmd).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::Packer;
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

    #[test]
    fn the_oldest_head_comes_first_across_communicators() {
        let cmds: Vec<_> = (0..9).map(|i| arrival_on(3 - (i % 3) as u16, i)).collect();
        let mut map = queued(&cmds);
        assert_eq!(map.len(), 3, "one queue per communicator");
        let mut packer = Packer::new(4);
        packer.rearm(&mut map.live);
        let mut runs = Vec::new();
        let mut record = |(comm, _): &mut Entry, tickets, depth| runs.push((*comm, tickets, depth));
        // Eight of nine fit: the tickets below 0 + 8, each lane's run at
        // once, comm 1 holding back its last command (ticket 8).
        packer.refill(&mut map.live, 8, &mut record);
        // Then the last one fits, and a refill with nothing left stages
        // nothing.
        packer.refill(&mut map.live, 16, &mut record);
        packer.refill(&mut map.live, 16, &mut record);
        let want = [
            (CommId(1), (2, 5), 2),
            (CommId(2), (1, 7), 3),
            (CommId(3), (0, 6), 3),
            (CommId(1), (8, 8), 3),
        ];
        assert_eq!(runs, want);
        let depths: Vec<_> = (0..3).map(|lane| packer.staged_on(lane)).collect();
        assert_eq!(depths, [3, 3, 3]);
        let staged: usize = depths.iter().sum();
        assert_eq!((staged, map.queued()), (9, 9), "staging moves nothing");
    }

    #[test]
    fn requeued_commands_go_ahead_of_their_communicators_queues() {
        let cmds: Vec<_> = (0..6).map(|i| arrival_on(1 + (i % 2) as u16, i)).collect();
        let mut map = queued(&cmds);
        // A cross-communicator step pops two commands off each queue, in
        // lane order: tickets 0, 2, then 1, 3. Ticket 1 was applied.
        let mut taken = Vec::new();
        for lane in [0, 0, 1, 1] {
            taken.extend(map.live[lane].1.queue.pop_front());
        }
        assert_eq!(
            taken.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
            [0, 2, 1, 3]
        );
        taken.remove(2);
        requeue_front(&mut map.live, taken);
        assert_eq!(map.queued(), 5);
        let all: Vec<_> = cmds.iter().copied().filter(|&c| c != cmds[1]).collect();
        assert_eq!(take_queued(&mut map.live), all);
        assert_eq!(map.queued(), 0);
    }
}
