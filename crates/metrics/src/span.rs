//! Per-message lifecycle spans — the event half of the flight recorder.
//!
//! A *span* is the sequence of stamped events one message (or receive, or
//! wire packet) passes through on its way from submission to completion:
//! `posted`, `enqueued`, `packed{block_id, occupancy}`, `matched{path}`,
//! `retransmitted{attempt}`, `fell_back`. Each component pushes
//! [`SpanEvent`]s into a [`SpanRecorder`] it owns — a bounded ring with an
//! **explicit dropped-events counter** (every overwritten event is
//! accounted for) — and the recorder can replay the retained window as:
//!
//! * **JSONL** ([`SpanRecorder::to_jsonl`]): one JSON object per line, easy
//!   to grep and to stream-parse;
//! * **Chrome `trace_event` JSON** ([`SpanRecorder::to_chrome_trace`]): the
//!   `{"traceEvents": [...]}` envelope that <https://ui.perfetto.dev> and
//!   `chrome://tracing` open directly, with one track per subject: `pid`
//!   0 / 1 groups message and receive subjects, `tid` is the subject's id
//!   within its group;
//! * **per-path post→match latency histograms**
//!   ([`SpanRecorder::latency_by_path`]): for every subject whose span
//!   contains a `Matched` event, the nanoseconds between its first recorded
//!   event and the match, bucketed by resolution path — the data behind the
//!   paper's NC / WC-FP / WC-SP latency split.
//!
//! Timestamps come from [`crate::now_ns`] (nanoseconds since the first
//! observation in the process), so the spans the engine, the service and
//! the senders stamp into their own rings share one timeline.
//! [`SpanRecorder::push_at`] accepts explicit timestamps for deterministic
//! tests.
//!
//! The recorder itself carries no feature gates — the *instrumented* crates
//! (`otm`, `dpa-sim`) only construct and feed one under their `trace-events`
//! feature, the workspace's one cargo feature, and compile the calls away
//! entirely otherwise.

use crate::hist::HistogramSnapshot;
use crate::json::JsonWriter;
use std::collections::VecDeque;

/// The resolution path a match took (Fig. 8's series), plus the post-time
/// UMQ hit the block paths never see.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MatchPath {
    /// No conflict: the optimistic booking was consumed outright (NC).
    Nc,
    /// With conflict, fast path: rank-shift along a compatible sequence
    /// (WC-FP).
    WcFp,
    /// With conflict, slow path: serialize and re-search (WC-SP).
    WcSp,
    /// Matched at post time against the unexpected-message queue — the
    /// receive-side path that never enters a block.
    Post,
}

/// All match paths, in label order.
pub const MATCH_PATHS: [MatchPath; 4] = [
    MatchPath::Nc,
    MatchPath::WcFp,
    MatchPath::WcSp,
    MatchPath::Post,
];

/// High bit set on span subjects that are *receive* handles, keeping them
/// disjoint from message-handle subjects: a posted receive and an incoming
/// message may share the same small integer id, and without the namespace
/// split their spans would merge into one bogus lifecycle (and corrupt the
/// [`latency_by_path`] pairing).
pub const RECV_SUBJECT_BIT: u64 = 1 << 63;

impl MatchPath {
    /// The `path` label value used across the registry and artifacts.
    pub fn label(self) -> &'static str {
        match self {
            MatchPath::Nc => "nc",
            MatchPath::WcFp => "wc_fp",
            MatchPath::WcSp => "wc_sp",
            MatchPath::Post => "post",
        }
    }

    /// Dense index (for per-path arrays), matching [`MATCH_PATHS`] order.
    pub fn index(self) -> usize {
        match self {
            MatchPath::Nc => 0,
            MatchPath::WcFp => 1,
            MatchPath::WcSp => 2,
            MatchPath::Post => 3,
        }
    }
}

/// What happened to the subject at one point of its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A receive was posted into the engine's index structures.
    Posted,
    /// A command entered the submission queue.
    Enqueued,
    /// The drain packed the message into an optimistic block.
    Packed {
        /// Monotone per-engine block sequence number.
        block_id: u64,
        /// Arrivals the block carried (its fill level).
        occupancy: u32,
    },
    /// The message (or receive) matched.
    Matched {
        /// Which resolution path produced the pairing.
        path: MatchPath,
    },
    /// The reliability layer retransmitted the packet.
    Retransmitted {
        /// 1-based retransmit attempt for the current window.
        attempt: u32,
    },
    /// The message was migrated to software matching by a fallback.
    FellBack,
}

impl SpanKind {
    /// Stable event name used in both export formats.
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::Posted => "posted",
            SpanKind::Enqueued => "enqueued",
            SpanKind::Packed { .. } => "packed",
            SpanKind::Matched { .. } => "matched",
            SpanKind::Retransmitted { .. } => "retransmitted",
            SpanKind::FellBack => "fell_back",
        }
    }
}

/// One stamped lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Nanoseconds since the process's first observation ([`crate::now_ns`]).
    pub t_ns: u64,
    /// The subject's identity: message handle for arrivals, receive handle
    /// for posts, sequence number for wire packets.
    pub subject: u64,
    /// What happened.
    pub kind: SpanKind,
    /// Global push order (gaps reveal nothing — the ring never skips; the
    /// oldest retained event's `seq` reveals how many were dropped).
    pub seq: u64,
}

/// Bounded ring of [`SpanEvent`]s with explicit drop accounting, owned by
/// the component that stamps them.
///
/// ```
/// use otm_metrics::{MatchPath, SpanKind, SpanRecorder};
///
/// let mut spans = SpanRecorder::new(4);
/// spans.push_at(10, 1, SpanKind::Enqueued);
/// spans.push_at(25, 1, SpanKind::Matched { path: MatchPath::Nc });
/// assert_eq!(spans.dropped(), 0);
/// let hists = spans.latency_by_path();
/// assert_eq!(hists[MatchPath::Nc.index()].count, 1);
/// assert_eq!(hists[MatchPath::Nc.index()].sum, 15);
/// ```
#[derive(Debug)]
pub struct SpanRecorder {
    ring: VecDeque<SpanEvent>,
    capacity: usize,
    /// Total events ever pushed (monotone): the next event's `seq`.
    pushed: u64,
    /// Events overwritten because the ring was full (monotone).
    dropped: u64,
}

impl SpanRecorder {
    /// A recorder retaining the most recent `capacity` events.
    pub fn new(capacity: usize) -> Self {
        SpanRecorder {
            ring: VecDeque::new(),
            capacity: capacity.max(1),
            pushed: 0,
            dropped: 0,
        }
    }

    /// Maximum retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Stamps and records one event, dropping the oldest when the ring is
    /// full ([`SpanRecorder::dropped`] counts it).
    #[inline]
    pub fn push(&mut self, subject: u64, kind: SpanKind) {
        self.push_at(crate::now_ns(), subject, kind)
    }

    /// Records one event with an explicit timestamp (deterministic tests).
    pub fn push_at(&mut self, t_ns: u64, subject: u64, kind: SpanKind) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        let seq = self.pushed;
        self.ring.push_back(SpanEvent {
            t_ns,
            subject,
            kind,
            seq,
        });
        self.pushed += 1;
    }

    /// Total events ever pushed.
    pub fn recorded(&self) -> u64 {
        self.pushed
    }

    /// Events lost to ring overflow — the explicit dropped-events counter.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Copies the retained window out, oldest first.
    pub fn dump(&self) -> Vec<SpanEvent> {
        self.ring.iter().copied().collect()
    }

    /// Empties the ring and zeroes its accounting: the recorder reads as
    /// new, its next event is `seq` 0, and it keeps its allocation.
    pub fn reset(&mut self) {
        self.ring.clear();
        self.pushed = 0;
        self.dropped = 0;
    }

    /// The retained window as JSON Lines (one event object per line).
    pub fn to_jsonl(&self) -> String {
        spans_to_jsonl(&self.dump())
    }

    /// The retained window in Chrome `trace_event` format (Perfetto-ready).
    pub fn to_chrome_trace(&self) -> String {
        spans_to_chrome_trace(&self.dump())
    }

    /// Per-path post→match latency histograms derived from the retained
    /// spans (see [`latency_by_path`]).
    pub fn latency_by_path(&self) -> [HistogramSnapshot; 4] {
        latency_by_path(&self.dump())
    }
}

/// Writes a kind's structured payload as fields of the open object (the
/// JSONL line and the Chrome `args` object share it).
fn write_kind_payload(w: &mut JsonWriter, kind: SpanKind) {
    match kind {
        SpanKind::Packed {
            block_id,
            occupancy,
        } => {
            w.field_u64("block_id", block_id);
            w.field_u64("occupancy", occupancy as u64);
        }
        SpanKind::Matched { path } => w.field_str("path", path.label()),
        SpanKind::Retransmitted { attempt } => w.field_u64("attempt", attempt as u64),
        SpanKind::Posted | SpanKind::Enqueued | SpanKind::FellBack => {}
    }
}

/// Renders events (oldest first) as JSON Lines.
pub fn spans_to_jsonl(events: &[SpanEvent]) -> String {
    let mut out = String::new();
    for e in events {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_u64("t_ns", e.t_ns);
        w.field_u64("seq", e.seq);
        w.field_u64("subject", e.subject);
        w.field_str("event", e.kind.name());
        write_kind_payload(&mut w, e.kind);
        w.end_object();
        out.push_str(&w.finish());
        out.push('\n');
    }
    out
}

/// Renders events in the Chrome `trace_event` JSON format.
///
/// Each event becomes a thread-scoped instant (`"ph": "i"`) on the track of
/// its subject, with the structured payload under `args` — load the file in
/// Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing` as-is.
/// Timestamps are microseconds per the format, with sub-microsecond
/// precision kept as fractions.
///
/// The format's `tid` is a 32-bit integer and JSON consumers hold numbers
/// as doubles, so the raw 64-bit subject cannot be the track id: receive
/// subjects (bit 63 set) would collapse onto each other past 2^53, or onto
/// the message sharing their low id after truncation. Subjects therefore
/// map to `pid` 0 (messages and wire packets) or 1 (receives), with `tid`
/// the subject minus its namespace bit; the full `subject` stays under
/// `args`.
pub fn spans_to_chrome_trace(events: &[SpanEvent]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("displayTimeUnit", "ns");
    w.key("traceEvents");
    w.begin_array();
    for e in events {
        w.begin_object();
        w.field_str("name", e.kind.name());
        w.field_str("ph", "i");
        w.field_str("s", "t");
        w.field_f64("ts", e.t_ns as f64 / 1000.0);
        let (pid, tid) = if e.subject & RECV_SUBJECT_BIT != 0 {
            (1, e.subject & !RECV_SUBJECT_BIT)
        } else {
            (0, e.subject)
        };
        w.field_u64("pid", pid);
        w.field_u64("tid", tid);
        w.key("args");
        w.begin_object();
        w.field_u64("seq", e.seq);
        w.field_u64("subject", e.subject);
        write_kind_payload(&mut w, e.kind);
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Derives per-path post→match latency histograms from a span dump.
///
/// For every subject whose events include a `Matched{path}`, the latency is
/// the nanoseconds from the subject's *earliest* retained event (its
/// `posted`/`enqueued` stamp, or `packed` if the earlier ones were dropped
/// by ring overflow) to the match. Indexed by [`MatchPath::index`].
pub fn latency_by_path(events: &[SpanEvent]) -> [HistogramSnapshot; 4] {
    use std::collections::BTreeMap;
    let mut first_seen: BTreeMap<u64, u64> = BTreeMap::new();
    let mut hists: [HistogramSnapshot; 4] = Default::default();
    for e in events {
        if let SpanKind::Matched { path } = e.kind {
            if let Some(&start) = first_seen.get(&e.subject) {
                hists[path.index()].record(e.t_ns.saturating_sub(start));
            }
            first_seen.remove(&e.subject);
        } else {
            first_seen.entry(e.subject).or_insert(e.t_ns);
        }
    }
    hists
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflow_is_counted_not_silent() {
        let mut r = SpanRecorder::new(2);
        r.push_at(1, 10, SpanKind::Posted);
        r.push_at(2, 11, SpanKind::Posted);
        assert_eq!(r.dropped(), 0);
        r.push_at(3, 12, SpanKind::Posted);
        assert_eq!(r.recorded(), 3);
        assert_eq!(r.dropped(), 1);
        assert_eq!(r.len(), 2);
        let dump = r.dump();
        assert_eq!(dump[0].subject, 11, "oldest retained is the second push");
        assert_eq!(dump[0].seq, 1, "seq survives the overwrite");
        assert_eq!(dump[1].subject, 12);
    }

    #[test]
    fn jsonl_flattens_kind_payloads() {
        let mut r = SpanRecorder::new(8);
        r.push_at(5, 1, SpanKind::Enqueued);
        r.push_at(
            7,
            1,
            SpanKind::Packed {
                block_id: 3,
                occupancy: 12,
            },
        );
        r.push_at(
            9,
            1,
            SpanKind::Matched {
                path: MatchPath::WcFp,
            },
        );
        r.push_at(11, 40, SpanKind::Retransmitted { attempt: 2 });
        let jsonl = r.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[0],
            r#"{"t_ns":5,"seq":0,"subject":1,"event":"enqueued"}"#
        );
        assert_eq!(
            lines[1],
            r#"{"t_ns":7,"seq":1,"subject":1,"event":"packed","block_id":3,"occupancy":12}"#
        );
        assert_eq!(
            lines[2],
            r#"{"t_ns":9,"seq":2,"subject":1,"event":"matched","path":"wc_fp"}"#
        );
        assert_eq!(
            lines[3],
            r#"{"t_ns":11,"seq":3,"subject":40,"event":"retransmitted","attempt":2}"#
        );
    }

    #[test]
    fn chrome_trace_has_the_trace_event_envelope() {
        let mut r = SpanRecorder::new(8);
        r.push_at(1500, 7, SpanKind::Posted);
        r.push_at(
            2500,
            7,
            SpanKind::Matched {
                path: MatchPath::Nc,
            },
        );
        let trace = r.to_chrome_trace();
        assert!(trace.starts_with(r#"{"displayTimeUnit":"ns","traceEvents":["#));
        assert!(trace.contains(r#""name":"posted""#));
        assert!(trace.contains(r#""ph":"i""#));
        assert!(trace.contains(r#""ts":1.5"#), "ns are converted to µs");
        assert!(trace.contains(r#""tid":7"#));
        assert!(trace.contains(r#""path":"nc""#));
        assert!(trace.ends_with("]}"));
    }

    #[test]
    fn chrome_trace_keeps_one_track_per_subject() {
        // A message, the receive sharing its low id, and a second receive
        // past the first by less than a double can resolve at 2^63: three
        // subjects, three distinct tracks.
        let subjects = [5, RECV_SUBJECT_BIT | 5, RECV_SUBJECT_BIT | 900];
        let events: Vec<SpanEvent> = subjects
            .iter()
            .enumerate()
            .map(|(i, &subject)| SpanEvent {
                t_ns: i as u64,
                subject,
                kind: SpanKind::Posted,
                seq: i as u64,
            })
            .collect();
        let trace = spans_to_chrome_trace(&events);
        let field = |name: &str| -> Vec<u64> {
            let key = format!("\"{name}\":");
            trace
                .match_indices(&key)
                .map(|(at, _)| {
                    let digits = &trace[at + key.len()..];
                    let end = digits.find(|c: char| !c.is_ascii_digit()).unwrap();
                    digits[..end].parse().unwrap()
                })
                .collect()
        };
        let (pids, tids) = (field("pid"), field("tid"));
        assert_eq!(pids, vec![0, 1, 1]);
        assert_eq!(tids, vec![5, 5, 900]);
        assert!(tids.iter().all(|&t| t < 1 << 32));
        assert_eq!(field("subject"), subjects, "args keep the full subject");
    }

    #[test]
    fn latency_pairs_first_event_with_match_per_path() {
        let mut r = SpanRecorder::new(16);
        // Subject 1: enqueued → packed → matched (NC): latency 30-10 = 20.
        r.push_at(10, 1, SpanKind::Enqueued);
        r.push_at(
            20,
            1,
            SpanKind::Packed {
                block_id: 0,
                occupancy: 2,
            },
        );
        r.push_at(
            30,
            1,
            SpanKind::Matched {
                path: MatchPath::Nc,
            },
        );
        // Subject 2: slow path, latency 100.
        r.push_at(50, 2, SpanKind::Enqueued);
        r.push_at(
            150,
            2,
            SpanKind::Matched {
                path: MatchPath::WcSp,
            },
        );
        // Subject 3: never matched — contributes nothing.
        r.push_at(60, 3, SpanKind::Enqueued);
        let h = r.latency_by_path();
        assert_eq!(h[MatchPath::Nc.index()].count, 1);
        assert_eq!(h[MatchPath::Nc.index()].sum, 20);
        assert_eq!(h[MatchPath::WcSp.index()].count, 1);
        assert_eq!(h[MatchPath::WcSp.index()].sum, 100);
        assert_eq!(h[MatchPath::WcFp.index()].count, 0);
        assert_eq!(h[MatchPath::Post.index()].count, 0);
    }

    #[test]
    fn matched_without_prior_events_is_not_a_latency_sample() {
        // Ring overflow can drop a subject's early events; a bare `matched`
        // must not produce a bogus zero-latency sample.
        let mut r = SpanRecorder::new(4);
        r.push_at(
            9,
            1,
            SpanKind::Matched {
                path: MatchPath::Nc,
            },
        );
        assert_eq!(r.latency_by_path()[MatchPath::Nc.index()].count, 0);
    }

    #[test]
    fn subjects_can_match_twice() {
        // Handles are reused across phases in long runs: a second lifecycle
        // for the same subject id starts a fresh pairing.
        let mut r = SpanRecorder::new(16);
        r.push_at(10, 1, SpanKind::Enqueued);
        r.push_at(
            15,
            1,
            SpanKind::Matched {
                path: MatchPath::Nc,
            },
        );
        r.push_at(40, 1, SpanKind::Enqueued);
        r.push_at(
            70,
            1,
            SpanKind::Matched {
                path: MatchPath::Nc,
            },
        );
        let h = r.latency_by_path();
        assert_eq!(h[MatchPath::Nc.index()].count, 2);
        assert_eq!(h[MatchPath::Nc.index()].sum, 5 + 30);
    }

    #[test]
    fn a_reset_recorder_reads_as_new() {
        let mut r = SpanRecorder::new(1);
        r.push_at(1, 0, SpanKind::Posted);
        r.push_at(2, 0, SpanKind::Posted);
        assert_eq!(r.dropped(), 1);
        r.reset();
        assert!(r.is_empty());
        assert_eq!((r.recorded(), r.dropped()), (0, 0));
        r.push_at(3, 5, SpanKind::Posted);
        assert_eq!(r.dump()[0].seq, 0, "numbering starts over");
    }
}
