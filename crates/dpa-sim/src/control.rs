//! The feedback controller: a self-tuning runtime loop in the OHMS
//! observe/actuate shape.
//!
//! Every control interval the service reads four of its counters, the
//! engine's block-occupancy histogram and its post-drain backlog straight
//! off their instruments into one [`Observation`] (no registry snapshot: a
//! tick costs a few loads);
//! [`FeedbackController::tick`] compares it against the previous interval
//! and returns a (usually empty) list of [`Action`]s — movements of the
//! three knobs (reliability window, drain-retry budget, packing window),
//! never measurements. The service applies each action to the live
//! component that owns the knob and stamps a `knob_changed` span, so every
//! decision the controller makes is visible on the same trace timeline as
//! the messages it affected.
//!
//! Every field of an observation is a cumulative counter, or a backlog that
//! is still standing when the tick reads it. A signal the drain resets
//! before the tick runs cannot drive a rule: it reads the same whatever the
//! traffic was.
//!
//! The controller itself holds no references into the engine or the NIC:
//! it is a pure state machine over counter deltas, which keeps it trivially
//! testable and keeps the observe side (counter reads) decoupled from
//! the actuate side (atomic overrides, budget setters) — the same split the
//! offloaded hardware designs use between telemetry readout and doorbell
//! writes.
//!
//! All arithmetic is integer-only and driven by the virtual clock, so a
//! given workload produces the same knob trajectory on every run.

use crate::reliable::{DEFAULT_WINDOW_LIMIT, MIN_WINDOW_LIMIT};

// Tuning constants. Deliberately conservative: the controller nudges knobs
// one step per interval and never moves a knob outside these bounds.

/// How many service polls between controller ticks.
const INTERVAL_POLLS: u64 = 64;
/// Lower bound for the reliability-window hint.
const MIN_WINDOW: usize = MIN_WINDOW_LIMIT;
/// Upper bound for the reliability-window hint.
const MAX_WINDOW: usize = DEFAULT_WINDOW_LIMIT * 4;
/// Additive step when the wire looks clean.
const WINDOW_STEP: usize = 4;
/// Baseline drain-retry budget the controller decays back toward.
const BASE_RETRY_BUDGET: u32 = crate::service::DEFAULT_DRAIN_RETRY_BUDGET;
/// Ceiling for the drain-retry budget under sustained ring backpressure.
const MAX_RETRY_BUDGET: u32 = 8;
/// Occupancy saturation threshold, in percent of block capacity. Sustained
/// average block occupancy at or above this widens the packing window.
const WIDEN_OCCUPANCY_PCT: u64 = 90;
/// Occupancy relaxation threshold, in percent of block capacity. Average
/// occupancy at or below this steps the packing-window override back toward
/// the configured default.
const RELAX_OCCUPANCY_PCT: u64 = 50;
/// Ceiling for the packing-window override, as a multiple of the engine's
/// configured default window.
const MAX_WINDOW_SCALE: u64 = 4;

/// One interval's worth of observed state. Counters are cumulative (the
/// controller differences them itself); gauges are instantaneous.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Observation {
    /// The service's virtual clock (poll count) at sampling time.
    pub polls: u64,
    /// Cumulative sender retransmits (`dpa_retransmits_total`).
    pub retransmits: u64,
    /// Cumulative acks consumed (`dpa_acks_total`).
    pub acks: u64,
    /// Cumulative submission-ring backpressure events
    /// (`dpa_ring_backpressure_total`).
    pub ring_backpressure: u64,
    /// Cumulative in-call drain retries (`dpa_drain_retries_total`).
    pub drain_retries: u64,
    /// Post-drain backlog: spilled CQ entries plus waiting unexpected
    /// messages.
    pub backlog: u64,
    /// Cumulative sum of the engine's block-occupancy histogram.
    pub occupancy_sum: u64,
    /// Cumulative count of the engine's block-occupancy histogram.
    pub occupancy_count: u64,
    /// The engine's block capacity (threads per matching block).
    pub block_capacity: u64,
}

/// A knob movement the controller wants applied. Each variant carries the
/// previous and new value so the applier can stamp a faithful
/// `knob_changed` span without re-deriving state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Resize the reliability sender's unacked-window cap.
    ReliabilityWindow {
        /// Previous window cap.
        from: u64,
        /// New window cap.
        to: u64,
    },
    /// Change the service's in-call drain retry budget.
    DrainRetryBudget {
        /// Previous budget.
        from: u64,
        /// New budget.
        to: u64,
    },
    /// Override the engine's cross-communicator packing window
    /// (`0` restores the configured default).
    PackingWindow {
        /// Previous override (`0` = default).
        from: u64,
        /// New override (`0` = default).
        to: u64,
    },
}

/// Lifetime counters for one controller instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Intervals evaluated (including the priming tick).
    pub ticks: u64,
    /// Total knob movements emitted.
    pub knob_changes: u64,
}

/// The self-tuning control loop. See the module docs for the shape; the
/// per-knob rules are:
///
/// * **Reliability window** — multiplicative decrease, additive increase
///   on the sender's unacked-window cap, keyed on the ratio of retransmit
///   to ack deltas: a lossy interval (retransmits ≥ ¼ of acks) halves the
///   hint, a clean interval with forward progress grows it one step.
/// * **Drain retry budget** — grows one step per interval that saw new
///   ring backpressure or drain retries, and decays one step per quiet
///   interval back to the baseline.
/// * **Packing window** — sustained near-capacity block occupancy with a
///   standing backlog doubles the packing window (bounded); slack
///   occupancy steps the override back toward the configured default.
#[derive(Debug)]
pub struct FeedbackController {
    last: Option<Observation>,
    window_hint: usize,
    retry_budget: u32,
    packing_window: u64,
    default_packing_window: u64,
    stats: ControllerStats,
}

impl FeedbackController {
    /// A controller that believes the sender's cap is `window_hint`, so
    /// the first emitted action reflects a real change.
    pub fn new(window_hint: usize) -> Self {
        Self {
            retry_budget: BASE_RETRY_BUDGET,
            last: None,
            window_hint: window_hint.clamp(MIN_WINDOW, MAX_WINDOW),
            packing_window: 0,
            default_packing_window: 0,
            stats: ControllerStats::default(),
        }
    }

    /// A controller with the default tuning, believing the sender runs at
    /// [`DEFAULT_WINDOW_LIMIT`].
    pub fn with_defaults() -> Self {
        Self::new(DEFAULT_WINDOW_LIMIT)
    }

    /// How many polls between ticks.
    pub fn interval_polls(&self) -> u64 {
        INTERVAL_POLLS
    }

    /// The current reliability-window hint. Harnesses that own the
    /// [`crate::ReliableSender`] read this after every service poll and
    /// apply it with `set_window_limit`.
    pub fn window_hint(&self) -> usize {
        self.window_hint
    }

    /// The current drain-retry budget the controller wants.
    pub fn retry_budget(&self) -> u32 {
        self.retry_budget
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// Evaluates one interval. The first call primes the delta baseline
    /// and emits nothing; later calls return the knob movements to apply,
    /// in a fixed order (window, retry budget, packing window) so traces
    /// are comparable across runs.
    pub fn tick(&mut self, obs: Observation) -> Vec<Action> {
        self.stats.ticks += 1;
        let Some(last) = self.last.replace(obs) else {
            return Vec::new();
        };
        let mut actions = Vec::new();

        let d_retx = obs.retransmits.saturating_sub(last.retransmits);
        let d_acks = obs.acks.saturating_sub(last.acks);
        let old_window = self.window_hint;
        if d_retx > 0 && d_retx.saturating_mul(4) >= d_acks {
            // Lossy interval: back the window off multiplicatively.
            self.window_hint = (self.window_hint / 2).max(MIN_WINDOW);
        } else if d_retx == 0 && d_acks > 0 {
            // Clean interval with progress: reopen additively.
            self.window_hint = (self.window_hint + WINDOW_STEP).min(MAX_WINDOW);
        }
        if self.window_hint != old_window {
            actions.push(Action::ReliabilityWindow {
                from: old_window as u64,
                to: self.window_hint as u64,
            });
        }

        let d_pressure = obs.ring_backpressure.saturating_sub(last.ring_backpressure)
            + obs.drain_retries.saturating_sub(last.drain_retries);
        let old_budget = self.retry_budget;
        if d_pressure > 0 {
            self.retry_budget = (self.retry_budget + 1).min(MAX_RETRY_BUDGET);
        } else if self.retry_budget > BASE_RETRY_BUDGET {
            self.retry_budget -= 1;
        }
        if self.retry_budget != old_budget {
            actions.push(Action::DrainRetryBudget {
                from: old_budget as u64,
                to: self.retry_budget as u64,
            });
        }

        let d_occ_sum = obs.occupancy_sum.saturating_sub(last.occupancy_sum);
        let d_occ_count = obs.occupancy_count.saturating_sub(last.occupancy_count);
        if d_occ_count > 0 && obs.block_capacity > 0 {
            let avg_pct = d_occ_sum * 100 / (d_occ_count * obs.block_capacity);
            let default_w = self.default_packing_window.max(1);
            let cap = default_w * MAX_WINDOW_SCALE;
            let old = self.packing_window;
            if avg_pct >= WIDEN_OCCUPANCY_PCT && obs.backlog > 0 {
                let current = if old == 0 { default_w } else { old };
                self.packing_window = (current * 2).min(cap);
            } else if avg_pct <= RELAX_OCCUPANCY_PCT && old != 0 {
                let halved = old / 2;
                self.packing_window = if halved <= default_w { 0 } else { halved };
            }
            if self.packing_window != old {
                actions.push(Action::PackingWindow {
                    from: old,
                    to: self.packing_window,
                });
            }
        }

        self.stats.knob_changes += actions.len() as u64;
        actions
    }

    /// Tells the controller what the engine's configured (non-overridden)
    /// packing window is, so widening starts from the real default. Safe
    /// to call every tick; `0` leaves the previous value.
    pub fn set_default_packing_window(&mut self, window: u64) {
        if window > 0 {
            self.default_packing_window = window;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet(polls: u64) -> Observation {
        Observation {
            polls,
            acks: polls,
            block_capacity: 16,
            ..Observation::default()
        }
    }

    #[test]
    fn first_tick_primes_and_emits_nothing() {
        let mut c = FeedbackController::with_defaults();
        assert!(c.tick(quiet(64)).is_empty());
        assert_eq!(c.stats().ticks, 1);
        assert_eq!(c.stats().knob_changes, 0);
    }

    #[test]
    fn lossy_interval_halves_the_window_and_clean_intervals_reopen_it() {
        let mut c = FeedbackController::with_defaults();
        c.tick(quiet(64));
        let lossy = Observation {
            polls: 128,
            retransmits: 40,
            acks: 100,
            ..quiet(128)
        };
        let actions = c.tick(lossy);
        assert!(actions.contains(&Action::ReliabilityWindow { from: 64, to: 32 }));
        assert_eq!(c.window_hint(), 32);
        // A clean interval with ack progress grows it back one step.
        let clean = Observation {
            polls: 192,
            retransmits: 40,
            acks: 260,
            ..quiet(192)
        };
        let actions = c.tick(clean);
        assert!(actions.contains(&Action::ReliabilityWindow { from: 32, to: 36 }));
        assert_eq!(c.window_hint(), 36);
    }

    #[test]
    fn window_respects_the_configured_bounds() {
        let mut c = FeedbackController::with_defaults();
        c.tick(quiet(0));
        // Hammer losses: the hint floors at min_window.
        for i in 1..=20u64 {
            let obs = Observation {
                retransmits: i * 100,
                acks: i * 100,
                ..quiet(i * 64)
            };
            c.tick(obs);
        }
        assert_eq!(c.window_hint(), MIN_WINDOW_LIMIT);
        // Then a long clean run: the hint ceilings at max_window.
        for i in 21..=200u64 {
            let obs = Observation {
                retransmits: 2000,
                acks: i * 1000,
                ..quiet(i * 64)
            };
            c.tick(obs);
        }
        assert_eq!(c.window_hint(), DEFAULT_WINDOW_LIMIT * 4);
    }

    #[test]
    fn ring_pressure_grows_the_retry_budget_and_quiet_decays_it() {
        let mut c = FeedbackController::with_defaults();
        c.tick(quiet(64));
        for i in 1..=10u64 {
            let obs = Observation {
                ring_backpressure: i * 5,
                ..quiet(64 + i * 64)
            };
            c.tick(obs);
        }
        assert_eq!(c.retry_budget(), 8); // capped at max_retry_budget
        for i in 11..=20u64 {
            let obs = Observation {
                ring_backpressure: 50,
                ..quiet(64 + i * 64)
            };
            c.tick(obs);
        }
        assert_eq!(c.retry_budget(), crate::service::DEFAULT_DRAIN_RETRY_BUDGET);
    }

    #[test]
    fn clean_intervals_reopen_the_window_stepwise_and_idle_ones_move_nothing() {
        let mut c = FeedbackController::with_defaults();
        c.tick(quiet(64));
        // What an attached controller does on a clean wire: one additive
        // step per interval with ack progress, and nothing else.
        assert_eq!(
            c.tick(quiet(128)),
            [Action::ReliabilityWindow { from: 64, to: 68 }]
        );
        assert_eq!(
            c.tick(quiet(192)),
            [Action::ReliabilityWindow { from: 68, to: 72 }]
        );
        // No ack progress, no pressure, no blocks: no knob moves, whatever
        // the lanes looked like while the drain ran.
        let idle = Observation {
            acks: 192,
            ..quiet(256)
        };
        assert!(c.tick(idle).is_empty());
        assert_eq!(c.window_hint(), 72);
    }

    #[test]
    fn saturated_occupancy_widens_the_packing_window_then_relaxes() {
        let mut c = FeedbackController::with_defaults();
        c.set_default_packing_window(32);
        c.tick(quiet(64));
        let hot = Observation {
            occupancy_sum: 15 * 10,
            occupancy_count: 10,
            backlog: 4,
            ..quiet(128)
        };
        let actions = c.tick(hot);
        assert!(actions.contains(&Action::PackingWindow { from: 0, to: 64 }));
        // Still saturated: doubles again, bounded at 4x the default.
        let hot2 = Observation {
            occupancy_sum: 15 * 20,
            occupancy_count: 20,
            backlog: 4,
            ..quiet(192)
        };
        let actions = c.tick(hot2);
        assert!(actions.contains(&Action::PackingWindow { from: 64, to: 128 }));
        let hot3 = Observation {
            occupancy_sum: 15 * 30,
            occupancy_count: 30,
            backlog: 4,
            ..quiet(256)
        };
        assert!(!c
            .tick(hot3)
            .iter()
            .any(|a| matches!(a, Action::PackingWindow { .. })));
        // Slack occupancy steps back down and eventually clears the
        // override entirely.
        let cool = Observation {
            occupancy_sum: 15 * 30 + 4 * 10,
            occupancy_count: 40,
            ..quiet(320)
        };
        let actions = c.tick(cool);
        assert!(actions.contains(&Action::PackingWindow { from: 128, to: 64 }));
        let cool2 = Observation {
            occupancy_sum: 15 * 30 + 4 * 20,
            occupancy_count: 50,
            ..quiet(384)
        };
        let actions = c.tick(cool2);
        assert!(actions.contains(&Action::PackingWindow { from: 64, to: 0 }));
    }

    #[test]
    fn knob_changes_are_counted() {
        let mut c = FeedbackController::with_defaults();
        c.tick(quiet(64));
        let lossy_and_pressed = Observation {
            retransmits: 50,
            acks: 100,
            ring_backpressure: 3,
            ..quiet(128)
        };
        let actions = c.tick(lossy_and_pressed);
        assert_eq!(
            actions,
            [
                Action::ReliabilityWindow { from: 64, to: 32 },
                Action::DrainRetryBudget {
                    from: u64::from(BASE_RETRY_BUDGET),
                    to: u64::from(BASE_RETRY_BUDGET) + 1
                },
            ]
        );
        assert_eq!(c.stats().knob_changes, 2);
    }
}
