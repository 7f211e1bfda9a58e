//! Rolling time-series sampler — the curve half of the flight recorder.
//!
//! End-of-run registry snapshots say *how much*; the paper's Fig. 6/7 say
//! *when*. A [`SeriesRecorder`] closes that gap: at a fixed virtual-time
//! cadence it distills a [`RegistrySnapshot`] into one [`SeriesPoint`]
//! (queue depth, cumulative block occupancy, per-path match counts,
//! retransmits, fallbacks) and appends it to an in-memory series that
//! renders as a **columnar JSON artifact** (`experiments/fig8_series.json`).
//!
//! Virtual time is whatever the host component counts deterministically —
//! the simulator's poll counter, the drain round, the replay op index —
//! so the same seed and cadence always reproduce a byte-identical
//! artifact. The sampled values are *cumulative* (counters as-is, the
//! occupancy as the histogram's running mean): plotting deltas between
//! adjacent points recovers the instantaneous curves, and the terminal
//! point must equal the end-of-run snapshot — a self-consistency
//! invariant the test suite pins.

use crate::json::{JsonWriter, WriteJson};
use crate::registry::{labelled, RegistrySnapshot};
use crate::span::MATCH_PATHS;

/// Registry keys the sampler distills, in artifact order.
mod keys {
    /// Per-path resolution counters (`{path="nc"|"wc_fp"|"wc_sp"|"post"}`).
    pub(super) const RESOLUTIONS: &str = "otm_resolutions_total";
    /// Total matched pairs (all paths).
    pub(super) const MATCHED: &str = "otm_matched_total";
    /// Packets the reliable senders retransmitted (timeout resends and
    /// fast retransmits).
    pub(super) const RETRANSMITS: &str = "dpa_retransmits_total";
    /// Software-fallback migrations.
    pub(super) const FALLBACKS: &str = "dpa_fallbacks_total";
    /// Block fill-level histogram (running mean → occupancy curve).
    pub(super) const OCCUPANCY: &str = "otm_block_occupancy";
}

/// One sampled point of the run's time series. All counter-derived fields
/// are cumulative since the start of the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// Virtual timestamp (polls, drain rounds, replay ops — host-defined).
    pub t: u64,
    /// Instantaneous submission/completion queue depth, supplied by the
    /// host (the one value a registry snapshot cannot attribute itself).
    pub queue_depth: u64,
    /// Running mean block occupancy (`otm_block_occupancy` sum/count), or
    /// 0 before the first block executes.
    pub(crate) block_occupancy: f64,
    /// Cumulative matches per resolution path, indexed by
    /// [`crate::span::MatchPath::index`] (`nc`, `wc_fp`, `wc_sp`, `post`).
    pub path_counts: [u64; 4],
    /// Cumulative matched pairs across all paths (`otm_matched_total`).
    pub matched: u64,
    /// Cumulative reliability-layer retransmissions.
    pub retransmits: u64,
    /// Cumulative software-fallback migrations.
    pub fallbacks: u64,
}

impl SeriesPoint {
    /// Distills a registry snapshot (plus the host-supplied queue depth)
    /// into one point at virtual time `t`. Absent metrics read as zero, so
    /// engine-only and full-service snapshots share one schema.
    pub fn distill(t: u64, queue_depth: u64, snap: &RegistrySnapshot) -> Self {
        let counter = |key: &str| snap.counters.get(key).copied().unwrap_or(0);
        let mut path_counts = [0u64; 4];
        for path in MATCH_PATHS {
            path_counts[path.index()] = counter(&labelled(keys::RESOLUTIONS, "path", path.label()));
        }
        let block_occupancy = snap
            .hists
            .get(keys::OCCUPANCY)
            .filter(|h| h.count > 0)
            .map(|h| h.sum as f64 / h.count as f64)
            .unwrap_or(0.0);
        SeriesPoint {
            t,
            queue_depth,
            block_occupancy,
            path_counts,
            matched: counter(keys::MATCHED),
            retransmits: counter(keys::RETRANSMITS),
            fallbacks: counter(keys::FALLBACKS),
        }
    }
}

/// Samples registry snapshots at a fixed virtual-time cadence into a
/// columnar series.
///
/// ```
/// use otm_metrics::{RegistrySnapshot, SeriesRecorder};
///
/// let mut snap = RegistrySnapshot::default();
/// let mut series = SeriesRecorder::new(10);
/// for t in 0..25 {
///     *snap.counters.entry("otm_matched_total".into()).or_insert(0) += 1;
///     if series.due(t) {
///         series.sample(t, 0, &snap);
///     }
/// }
/// // Samples landed at t = 0, 10, 20.
/// assert_eq!(series.len(), 3);
/// assert_eq!(series.last().unwrap().matched, 21);
/// ```
#[derive(Debug, Clone)]
pub struct SeriesRecorder {
    cadence: u64,
    next_due: u64,
    points: Vec<SeriesPoint>,
}

impl SeriesRecorder {
    /// A recorder sampling every `cadence` virtual-time units (the first
    /// sample is due immediately). A zero cadence is promoted to 1.
    pub fn new(cadence: u64) -> Self {
        SeriesRecorder {
            cadence: cadence.max(1),
            next_due: 0,
            points: Vec::new(),
        }
    }

    /// The sampling cadence in virtual-time units.
    pub fn cadence(&self) -> u64 {
        self.cadence
    }

    /// Whether a sample is due at virtual time `t`. Checking is free —
    /// hosts call this every tick and only snapshot when it answers yes.
    #[inline]
    pub fn due(&self, t: u64) -> bool {
        t >= self.next_due
    }

    /// Samples `snap` at virtual time `t` if one is due; returns whether a
    /// point was recorded. The next sample falls due a full cadence after
    /// `t`, so bursty hosts that skip ticks never double-sample.
    pub fn sample(&mut self, t: u64, queue_depth: u64, snap: &RegistrySnapshot) -> bool {
        if !self.due(t) {
            return false;
        }
        self.force_sample(t, queue_depth, snap);
        true
    }

    /// Samples unconditionally — the terminal end-of-run point every
    /// artifact needs regardless of where the cadence grid fell. A sample
    /// at the same `t` as the last point *replaces* it (refreshing its
    /// values), so the series stays strictly increasing in `t`.
    pub fn force_sample(&mut self, t: u64, queue_depth: u64, snap: &RegistrySnapshot) {
        let point = SeriesPoint::distill(t, queue_depth, snap);
        match self.points.last_mut() {
            Some(last) if last.t == t => *last = point,
            _ => self.points.push(point),
        }
        self.next_due = t.saturating_add(self.cadence);
    }

    /// Recorded points, oldest first.
    pub fn points(&self) -> &[SeriesPoint] {
        &self.points
    }

    /// Number of recorded points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether nothing has been sampled yet.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The most recent point (the terminal cumulative values once the run
    /// has finished — compare against the final registry snapshot).
    pub fn last(&self) -> Option<&SeriesPoint> {
        self.points.last()
    }
}

/// Writes the series as a columnar JSON object:
///
/// ```json
/// {"cadence": N, "samples": N,
///  "t": [...], "queue_depth": [...], "block_occupancy": [...],
///  "path_counts": {"nc": [...], "wc_fp": [...], "wc_sp": [...], "post": [...]},
///  "matched": [...], "retransmits": [...], "fallbacks": [...]}
/// ```
///
/// Columns beat rows here: the artifact feeds plotting scripts that
/// want one array per curve, and columnar JSON diffs cleanly in git.
impl WriteJson for SeriesRecorder {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_u64("cadence", self.cadence);
        w.field_u64("samples", self.points.len() as u64);
        w.key("t");
        w.begin_array();
        for p in &self.points {
            w.value_u64(p.t);
        }
        w.end_array();
        w.key("queue_depth");
        w.begin_array();
        for p in &self.points {
            w.value_u64(p.queue_depth);
        }
        w.end_array();
        w.key("block_occupancy");
        w.begin_array();
        for p in &self.points {
            w.value_f64(p.block_occupancy);
        }
        w.end_array();
        w.key("path_counts");
        w.begin_object();
        for path in MATCH_PATHS {
            w.key(path.label());
            w.begin_array();
            for p in &self.points {
                w.value_u64(p.path_counts[path.index()]);
            }
            w.end_array();
        }
        w.end_object();
        w.key("matched");
        w.begin_array();
        for p in &self.points {
            w.value_u64(p.matched);
        }
        w.end_array();
        w.key("retransmits");
        w.begin_array();
        for p in &self.points {
            w.value_u64(p.retransmits);
        }
        w.end_array();
        w.key("fallbacks");
        w.begin_array();
        for p in &self.points {
            w.value_u64(p.fallbacks);
        }
        w.end_array();
        w.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::HistogramSnapshot;
    use crate::span::MatchPath;

    impl SeriesRecorder {
        /// Renders the series as a standalone JSON string (deterministic for a
        /// deterministic run: same seed + same cadence ⇒ byte-identical).
        fn to_json(&self) -> String {
            let mut w = JsonWriter::new();
            self.write_json(&mut w);
            w.finish()
        }
    }

    /// Adds `n` to counter `name` of `snap`.
    fn add(snap: &mut RegistrySnapshot, name: &str, n: u64) {
        *snap.counters.entry(name.to_string()).or_insert(0) += n;
    }

    fn populated_snapshot() -> RegistrySnapshot {
        let mut s = RegistrySnapshot::default();
        add(&mut s, "otm_resolutions_total{path=\"nc\"}", 7);
        add(&mut s, "otm_resolutions_total{path=\"wc_sp\"}", 2);
        add(&mut s, "otm_matched_total", 9);
        add(&mut s, "dpa_retransmits_total", 4);
        let mut h = HistogramSnapshot::empty();
        h.record_all([2, 4]);
        s.hists.insert("otm_block_occupancy".into(), h);
        s
    }

    #[test]
    fn distill_reads_the_fig8_keys() {
        let p = SeriesPoint::distill(5, 3, &populated_snapshot());
        assert_eq!(p.t, 5);
        assert_eq!(p.queue_depth, 3);
        assert_eq!(p.path_counts, [7, 0, 2, 0]);
        assert_eq!(p.matched, 9);
        assert_eq!(p.retransmits, 4);
        assert_eq!(p.fallbacks, 0, "absent counters read as zero");
        assert!((p.block_occupancy - 3.0).abs() < 1e-9);
    }

    #[test]
    fn cadence_gates_sampling() {
        let snap = populated_snapshot();
        let mut s = SeriesRecorder::new(10);
        let mut recorded = 0;
        for t in 0..35 {
            if s.sample(t, 0, &snap) {
                recorded += 1;
            }
        }
        assert_eq!(recorded, 4);
        let ts: Vec<u64> = s.points().iter().map(|p| p.t).collect();
        assert_eq!(ts, vec![0, 10, 20, 30]);
    }

    #[test]
    fn skipped_ticks_do_not_double_sample() {
        // A host that only polls at t = 0 and t = 25 gets two samples, not
        // a backlog of three.
        let snap = RegistrySnapshot::default();
        let mut s = SeriesRecorder::new(10);
        assert!(s.sample(0, 0, &snap));
        assert!(s.sample(25, 0, &snap));
        assert!(!s.sample(26, 0, &snap), "next due at 35");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn terminal_point_equals_final_snapshot() {
        // The self-consistency invariant: the last sampled point carries
        // exactly the end-of-run cumulative values.
        let mut snap = RegistrySnapshot::default();
        let mut s = SeriesRecorder::new(4);
        for t in 0..17 {
            add(&mut snap, "otm_resolutions_total{path=\"nc\"}", 1);
            add(&mut snap, "otm_matched_total", 1);
            if s.due(t) {
                s.sample(t, 1, &snap);
            }
        }
        s.force_sample(17, 0, &snap);
        let last = *s.last().unwrap();
        assert_eq!(last, SeriesPoint::distill(17, 0, &snap));
        assert_eq!(last.matched, 17);
        assert_eq!(last.path_counts[MatchPath::Nc.index()], 17);
    }

    #[test]
    fn same_inputs_yield_byte_identical_artifacts() {
        // Determinism satellite: same seed + cadence ⇒ identical bytes.
        let run = || {
            let mut snap = populated_snapshot();
            let mut s = SeriesRecorder::new(8);
            for t in 0..64 {
                if t % 3 == 0 {
                    add(&mut snap, "otm_matched_total", 1);
                }
                if s.due(t) {
                    s.sample(t, t % 5, &snap);
                }
            }
            s.to_json()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.contains("\"cadence\":8"));
    }

    #[test]
    fn columnar_json_shape() {
        let mut s = SeriesRecorder::new(2);
        let snap = populated_snapshot();
        s.sample(0, 5, &snap);
        s.sample(2, 3, &snap);
        let json = s.to_json();
        assert!(json.starts_with(r#"{"cadence":2,"samples":2,"t":[0,2],"#));
        assert!(json.contains(r#""queue_depth":[5,3]"#));
        assert!(json.contains(r#""block_occupancy":[3,3]"#));
        assert!(
            json.contains(r#""path_counts":{"nc":[7,7],"wc_fp":[0,0],"wc_sp":[2,2],"post":[0,0]}"#)
        );
        assert!(json.contains(r#""matched":[9,9]"#));
        assert!(json.contains(r#""retransmits":[4,4]"#));
        assert!(json.ends_with(r#""fallbacks":[0,0]}"#));
    }

    #[test]
    fn empty_series_renders_cleanly() {
        let s = SeriesRecorder::new(16);
        assert!(s.is_empty());
        assert_eq!(
            s.to_json(),
            r#"{"cadence":16,"samples":0,"t":[],"queue_depth":[],"block_occupancy":[],"path_counts":{"nc":[],"wc_fp":[],"wc_sp":[],"post":[]},"matched":[],"retransmits":[],"fallbacks":[]}"#
        );
    }
}
