//! The ladder: the same generated stream pushed through successively longer
//! prefixes of the pipeline, each a separate loop over one layer's public
//! functions, each reported as nanoseconds per message.

use crate::hostspeed::HostSpeed;
use crate::stats::median;
use crate::stream::{count_correct, receive_nic, run_rep, Backend, Stack, Stream};
use crate::tracer::Tracer;
use dpa_sim::nic::RecvNic;
use dpa_sim::rdma::{RKey, RdmaDomain};
use dpa_sim::ReliableSender;
use mpi_matching::{
    BlockDelivery, CommandOutcome, MatchingBackend, MsgHandle, PendingCommand, PostResult,
    RecvHandle,
};
use otm::OtmEngine;
use otm_base::{Envelope, MatchConfig};
use std::time::{Duration, Instant};

/// Nanoseconds per message of each rung.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rungs {
    pub block: f64,
    pub block_1lane: f64,
    pub queue: f64,
    pub nic: f64,
    pub reliable_nic: f64,
    pub service_rdma_cpu: f64,
    pub service_mpi_cpu: f64,
}

/// Polls without a delivery before the reliable-NIC rung gives up.
const STALL_POLLS: u64 = 2_000_000;

/// Rungs `run_all` times, for splitting a time budget between them.
pub const TIMED_RUNGS: usize = 7;

pub fn run_all(stream: &Stream, slice: Duration) -> Result<Rungs, String> {
    Ok(Rungs {
        block: block_rung(stream, MatchConfig::default(), slice)?,
        block_1lane: block_rung(stream, MatchConfig::default().with_block_threads(1), slice)?,
        queue: queue_rung(stream, slice)?,
        nic: nic_rung(stream, slice)?,
        reliable_nic: reliable_nic_rung(stream, slice)?,
        service_rdma_cpu: service_rung(stream, Backend::RdmaCpu, slice)?,
        service_mpi_cpu: service_rung(stream, Backend::MpiCpu, slice)?,
    })
}

/// Repeats `pass` (one trip of the whole stream through the rung, returning
/// its wall time) until `slice` is used up; the median pass, per message, at
/// reference speed.
fn ns_per_msg(
    stream: &Stream,
    slice: Duration,
    mut pass: impl FnMut() -> Result<Duration, String>,
) -> Result<f64, String> {
    let deadline = Instant::now() + slice;
    let mut samples = Vec::new();
    let mut host = HostSpeed::start();
    loop {
        samples.push(pass()?.as_nanos() as f64 / stream.messages() as f64);
        host.sample();
        if Instant::now() >= deadline {
            return Ok(median(&samples) / host.slowdown());
        }
    }
}

fn expect_all(what: &str, stream: &Stream, got: usize) -> Result<(), String> {
    if got == stream.messages() {
        Ok(())
    } else {
        Err(format!(
            "{what} rung: {got} of {} messages came through",
            stream.messages()
        ))
    }
}

/// A fresh handle for every arrival of one pass, minted before the clock.
fn arrivals(stream: &Stream, next_msg: &mut u64) -> Vec<Vec<(Envelope, MsgHandle)>> {
    stream
        .rounds
        .iter()
        .map(|round| {
            round
                .sends
                .iter()
                .map(|(_, env)| {
                    *next_msg += 1;
                    (*env, MsgHandle(*next_msg - 1))
                })
                .collect()
        })
        .collect()
}

/// `MatchingBackend::post` + `arrive_block` straight on the engine: block
/// dispatch and matching, nothing else. With one block thread the lane runs
/// inline on the caller, so the difference between the two configurations
/// is what the handoff to the worker pool costs.
fn block_rung(stream: &Stream, config: MatchConfig, slice: Duration) -> Result<f64, String> {
    let mut engine: Box<dyn MatchingBackend> =
        Box::new(OtmEngine::new(config).map_err(|e| e.to_string())?);
    let block = engine.block_size();
    let (mut next_recv, mut next_msg) = (0u64, 0u64);
    ns_per_msg(stream, slice, || {
        let arrivals = arrivals(stream, &mut next_msg);
        let mut matched = 0;
        let start = Instant::now();
        for (round, arrivals) in stream.rounds.iter().zip(&arrivals) {
            for arrive in [stream.spec.unexpected_first, !stream.spec.unexpected_first] {
                if arrive {
                    for chunk in arrivals.chunks(block) {
                        let deliveries = engine.arrive_block(chunk).map_err(|e| e.to_string())?;
                        matched += deliveries.iter().filter(|d| d.matched().is_some()).count();
                    }
                } else {
                    for pattern in &round.posts {
                        let posted = engine
                            .post(*pattern, RecvHandle(next_recv))
                            .map_err(|e| e.to_string())?;
                        matched += usize::from(posted.matched().is_some());
                        next_recv += 1;
                    }
                }
            }
        }
        let elapsed = start.elapsed();
        expect_all("block", stream, matched)?;
        Ok(elapsed)
    })
}

/// `submit_command` + `drain_commands`: the block rung plus submission
/// rings, the min-ticket merge and cross-communicator packing. Arrivals are
/// drained in the batches the service sees (one full window per lane).
fn queue_rung(stream: &Stream, slice: Duration) -> Result<f64, String> {
    let mut engine: Box<dyn MatchingBackend> =
        Box::new(OtmEngine::new(MatchConfig::default()).map_err(|e| e.to_string())?);
    let batch = dpa_sim::reliable::DEFAULT_WINDOW_LIMIT * stream.spec.lanes;
    let (mut next_recv, mut next_msg) = (0u64, 0u64);
    let drain = |engine: &mut Box<dyn MatchingBackend>| -> Result<usize, String> {
        let report = engine.drain_commands();
        if let Some(e) = report.error {
            return Err(e.to_string());
        }
        Ok(report
            .outcomes
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    CommandOutcome::Delivery(BlockDelivery::Matched { .. })
                        | CommandOutcome::Post {
                            result: PostResult::Matched(_),
                            ..
                        }
                )
            })
            .count())
    };
    ns_per_msg(stream, slice, || {
        let arrivals = arrivals(stream, &mut next_msg);
        let mut matched = 0;
        let start = Instant::now();
        for (round, arrivals) in stream.rounds.iter().zip(&arrivals) {
            for arrive in [stream.spec.unexpected_first, !stream.spec.unexpected_first] {
                if arrive {
                    for chunk in arrivals.chunks(batch) {
                        for &(env, msg) in chunk {
                            engine
                                .submit_command(PendingCommand::Arrival { env, msg })
                                .map_err(|e| e.to_string())?;
                        }
                        matched += drain(&mut engine)?;
                    }
                } else {
                    for pattern in &round.posts {
                        engine
                            .submit_command(PendingCommand::Post {
                                pattern: *pattern,
                                handle: RecvHandle(next_recv),
                            })
                            .map_err(|e| e.to_string())?;
                        next_recv += 1;
                    }
                    matched += drain(&mut engine)?;
                }
            }
        }
        let elapsed = start.elapsed();
        expect_all("queue", stream, matched)?;
        Ok(elapsed)
    })
}

/// Takes and releases everything the NIC has staged; returns how many.
fn consume(nic: &mut RecvNic) -> usize {
    let mut n = 0;
    loop {
        let block = nic.take_block(MatchConfig::default().block_threads);
        if block.is_empty() {
            return n;
        }
        for completion in &block {
            nic.release(completion.bounce);
        }
        n += block.len();
    }
}

fn deregister(domain: &RdmaDomain, rkeys: &mut Vec<RKey>) {
    for rkey in rkeys.drain(..) {
        domain.deregister(rkey);
    }
}

/// Raw `QueuePair::send` → `RecvNic::poll` / `take_block` / `release`:
/// packet construction, the wire queues, bounce staging and the completion
/// queue. Unsequenced packets, so neither reliability nor faults apply.
fn nic_rung(stream: &Stream, slice: Duration) -> Result<f64, String> {
    let (mut nic, peers) = receive_nic(stream);
    let domain = RdmaDomain::new();
    let batch = dpa_sim::reliable::DEFAULT_WINDOW_LIMIT * stream.spec.lanes;
    let mut rkeys = Vec::new();
    ns_per_msg(stream, slice, || {
        let (mut id, mut delivered) = (0u64, 0);
        let start = Instant::now();
        for round in &stream.rounds {
            for chunk in round.sends.chunks(batch) {
                for (lane, env) in chunk {
                    let (packet, rkey) = stream.packet(&domain, *env, id);
                    rkeys.extend(rkey);
                    peers[*lane].send(packet).map_err(|e| e.to_string())?;
                    id += 1;
                }
                nic.poll().map_err(|e| e.to_string())?;
                delivered += consume(&mut nic);
                deregister(&domain, &mut rkeys);
            }
        }
        let elapsed = start.elapsed();
        expect_all("nic", stream, delivered)?;
        Ok(elapsed)
    })
}

/// The NIC rung under `ReliableSender`, window-limited, over the workload's
/// own wire (clean, or its seeded fault plan): sequence numbers, acks,
/// SACK staging, retransmit timers.
fn reliable_nic_rung(stream: &Stream, slice: Duration) -> Result<f64, String> {
    let (mut nic, peers) = receive_nic(stream);
    if let Some(plan) = &stream.faults {
        nic.set_faults(plan.clone());
    }
    let mut senders: Vec<ReliableSender> = peers.into_iter().map(ReliableSender::new).collect();
    let domain = RdmaDomain::new();
    let mut rkeys = Vec::new();
    ns_per_msg(stream, slice, || {
        let (mut id, mut delivered, mut idle) = (0u64, 0usize, 0u64);
        let mut step = |nic: &mut RecvNic,
                        senders: &mut Vec<ReliableSender>,
                        delivered: &mut usize|
         -> Result<(), String> {
            nic.poll().map_err(|e| e.to_string())?;
            let n = consume(nic);
            *delivered += n;
            idle = if n == 0 { idle + 1 } else { 0 };
            if idle > STALL_POLLS {
                return Err(format!(
                    "reliable_nic rung: no delivery in {STALL_POLLS} polls"
                ));
            }
            for s in senders.iter_mut() {
                s.poll().map_err(|e| e.to_string())?;
            }
            Ok(())
        };
        let start = Instant::now();
        for round in &stream.rounds {
            for (lane, env) in &round.sends {
                while !senders[*lane].can_send() {
                    step(&mut nic, &mut senders, &mut delivered)?;
                }
                let (packet, rkey) = stream.packet(&domain, *env, id);
                rkeys.extend(rkey);
                senders[*lane].send(packet).map_err(|e| e.to_string())?;
                id += 1;
            }
        }
        while delivered < stream.messages() {
            step(&mut nic, &mut senders, &mut delivered)?;
        }
        let elapsed = start.elapsed();
        while senders.iter().any(|s| s.unacked() > 0) {
            step(&mut nic, &mut senders, &mut delivered)?;
        }
        deregister(&domain, &mut rkeys);
        expect_all("reliable_nic", stream, delivered)?;
        Ok(elapsed)
    })
}

/// The full driver over one of the paper's two ceilings.
fn service_rung(stream: &Stream, backend: Backend, slice: Duration) -> Result<f64, String> {
    let mut stack = Stack::build(stream, backend)?;
    let mut tracer = Tracer::new(false);
    ns_per_msg(stream, slice, || {
        let rep = run_rep(&mut stack, stream, &mut tracer, &mut Vec::new())?;
        let pairs = backend != Backend::RdmaCpu;
        let ok = count_correct(stream, rep.first_recv, &rep.done, pairs);
        expect_all("service", stream, ok as usize)?;
        Ok(rep.elapsed)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::STREAMS;

    #[test]
    fn every_rung_carries_every_stream_shape() {
        for spec in STREAMS {
            let stream = Stream::generate(spec, 9, 2);
            let rungs = run_all(&stream, Duration::ZERO).unwrap();
            for (name, ns) in [
                ("block", rungs.block),
                ("block_1lane", rungs.block_1lane),
                ("queue", rungs.queue),
                ("nic", rungs.nic),
                ("reliable_nic", rungs.reliable_nic),
                ("service_rdma_cpu", rungs.service_rdma_cpu),
                ("service_mpi_cpu", rungs.service_mpi_cpu),
            ] {
                assert!(ns > 0.0, "{} {name}", spec.name);
            }
        }
    }
}
