//! A reference load measured beside every timed quantity, so that results
//! can be stated at the reference container's quiet speed.
//!
//! The container's speed wanders by tens of percent over tens of seconds
//! (other tenants of the host), which no amount of repetition inside one
//! run averages away. The stack under test spends most of its time waking
//! and parking threads, so the reference load does the same and nothing
//! else: a fixed number of condvar round trips between two threads. It is
//! sampled before and after every rep (or set-up pass, or rung pass); the
//! median sample over what `REFERENCE_SAMPLE_S` says it should take is the
//! host's slowdown while that quantity was measured, and every clock-derived
//! metric is divided by it. On the recorded rep series of `stream_nc` this
//! brought the spread between quartiles of 15-second windows from 21 % to
//! 5 % (README.md, *The reference container*).

use crate::stats::median;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Round trips per sample: about 3 ms, under 2 % of a rep for two samples.
const ROUND_TRIPS: u32 = 600;

/// What one sample takes on the reference container when its host is quiet.
/// Frozen: it only sets the scale results are stated at, and it is the same
/// for every commit measured with this benchmark.
const REFERENCE_SAMPLE_S: f64 = 0.0030;

/// One sample: the wall time of `ROUND_TRIPS` hand-overs of a counter
/// between this thread and a helper, each side sleeping on a condvar until
/// the other has moved the counter on.
fn sample() -> f64 {
    let turn = Mutex::new(0u32);
    let moved = Condvar::new();
    let wait_for = |want: u32| {
        let mut now = turn.lock().expect("no reference thread panics");
        while *now != want {
            now = moved.wait(now).expect("no reference thread panics");
        }
        *now += 1;
        moved.notify_all();
    };
    let start = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(|| (0..ROUND_TRIPS).for_each(|i| wait_for(2 * i + 1)));
        (0..ROUND_TRIPS).for_each(|i| wait_for(2 * i));
    });
    start.elapsed().as_secs_f64()
}

/// The reference samples taken around one group of measurements.
#[derive(Debug, Default)]
pub struct HostSpeed(Vec<f64>);

impl HostSpeed {
    /// Starts a group with its first sample.
    pub fn start() -> Self {
        HostSpeed(vec![sample()])
    }

    pub fn sample(&mut self) {
        self.0.push(sample());
    }

    /// How many times slower than the reference the host ran while the
    /// group was measured; clock-derived values are divided by this.
    pub fn slowdown(&self) -> f64 {
        median(&self.0) / REFERENCE_SAMPLE_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sample_takes_time_and_the_slowdown_is_its_share_of_the_reference() {
        let mut host = HostSpeed::start();
        host.sample();
        assert!(host.0.iter().all(|&s| s > 0.0));
        let fixed = HostSpeed(vec![0.0030, 0.0090, 0.0060]);
        assert!((fixed.slowdown() - 2.0).abs() < 1e-12);
    }
}
