//! Labeled metrics registry: counters, gauges, and histograms keyed by a
//! `&'static str` name plus a small label set.
//!
//! Registration goes through a mutex, but it happens once at component
//! setup: `counter()`/`gauge()`/`histogram()` return `Arc` handles that
//! the hot path updates with relaxed atomics, never touching the registry
//! again. Snapshots walk the registry and copy every value out, producing
//! a [`RegistrySnapshot`] that supports diffing and JSON exposition.

use crate::hist::{Histogram, HistogramSnapshot};
use crate::json::{JsonWriter, WriteJson};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// A small, static label set (`&[("backend", "otm"), ("lane", "0")]`).
///
/// Label *keys* are static; values may be formatted at registration time.
pub type Labels = Vec<(&'static str, String)>;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// An instantaneous signed value (queue depth, pool occupancy, ...).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Relaxed);
    }

    /// Adds `n` (may be negative via `sub`).
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Relaxed)
    }

    /// Raises the gauge to `v` if above the current value (high-water
    /// mark).
    #[inline]
    pub fn set_max(&self, v: i64) {
        if v > self.0.load(Relaxed) {
            self.0.fetch_max(v, Relaxed);
        }
    }
}

/// Fully qualified metric identity: name plus ordered labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    name: &'static str,
    labels: Labels,
}

impl Key {
    /// `name{k="v",..}`, the identity the JSON exposition keys metrics by.
    fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.to_string();
        }
        let mut out = String::from(self.name);
        out.push('{');
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            crate::json::escape_label_value(&mut out, v);
            out.push('"');
        }
        out.push('}');
        out
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<Key, Arc<Counter>>,
    gauges: BTreeMap<Key, Arc<Gauge>>,
    hists: BTreeMap<Key, Arc<Histogram>>,
}

/// A collection of named metrics.
///
/// Cloning is cheap (`Arc` inside); clones share the same metrics.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<Inner>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter registered under `name` (no labels), creating
    /// it on first use.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        self.counter_with(name, Vec::new())
    }

    /// Returns the counter registered under `name` + `labels`.
    pub fn counter_with(&self, name: &'static str, labels: Labels) -> Arc<Counter> {
        let key = Key { name, labels };
        Arc::clone(
            self.inner
                .lock()
                .expect("registry lock")
                .counters
                .entry(key)
                .or_default(),
        )
    }

    /// Returns the gauge registered under `name` (no labels).
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        self.gauge_with(name, Vec::new())
    }

    /// Returns the gauge registered under `name` + `labels`.
    pub fn gauge_with(&self, name: &'static str, labels: Labels) -> Arc<Gauge> {
        let key = Key { name, labels };
        Arc::clone(
            self.inner
                .lock()
                .expect("registry lock")
                .gauges
                .entry(key)
                .or_default(),
        )
    }

    /// Returns the histogram registered under `name` (no labels).
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        self.histogram_with(name, Vec::new())
    }

    /// Returns the histogram registered under `name` + `labels`.
    pub fn histogram_with(&self, name: &'static str, labels: Labels) -> Arc<Histogram> {
        let key = Key { name, labels };
        Arc::clone(
            self.inner
                .lock()
                .expect("registry lock")
                .hists
                .entry(key)
                .or_default(),
        )
    }

    /// Zeroes every registered metric in place: the registry reads as it did
    /// right after registration, and every handle handed out stays live.
    /// Not atomic with respect to concurrent updates; meant for a reset
    /// between phases, while nothing records.
    pub fn reset(&self) {
        let inner = self.inner.lock().expect("registry lock");
        for c in inner.counters.values() {
            c.0.store(0, Relaxed);
        }
        for g in inner.gauges.values() {
            g.0.store(0, Relaxed);
        }
        for h in inner.hists.values() {
            h.reset();
        }
    }

    /// Copies every metric's current value into an owned snapshot.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = self.inner.lock().expect("registry lock");
        RegistrySnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, c)| (k.render(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, g)| (k.render(), g.get()))
                .collect(),
            hists: inner
                .hists
                .iter()
                .map(|(k, h)| (k.render(), h.snapshot()))
                .collect(),
        }
    }
}

/// Point-in-time copy of a [`Registry`]'s contents, keyed by the rendered
/// metric identity (`name{label="v"}`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// Counter values.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots.
    pub hists: BTreeMap<String, HistogramSnapshot>,
}

impl RegistrySnapshot {
    /// Change since `prev`: counters and histograms are subtracted
    /// (saturating), gauges keep their current value (they are
    /// instantaneous, not cumulative). Metrics absent from `prev` appear
    /// with their full value.
    pub fn delta(&self, prev: &Self) -> Self {
        Self {
            counters: self
                .counters
                .iter()
                .map(|(k, &v)| {
                    let p = prev.counters.get(k).copied().unwrap_or(0);
                    (k.clone(), v.saturating_sub(p))
                })
                .collect(),
            gauges: self.gauges.clone(),
            hists: self
                .hists
                .iter()
                .map(|(k, h)| match prev.hists.get(k) {
                    Some(p) => (k.clone(), h.delta(p)),
                    None => (k.clone(), h.clone()),
                })
                .collect(),
        }
    }

    /// Element-wise sum of two snapshots (e.g. several workers' private
    /// registries). Gauges are summed too, which is the useful reading
    /// for additive gauges like queue depths.
    pub fn merge(&self, other: &Self) -> Self {
        let mut out = self.clone();
        for (k, &v) in &other.counters {
            *out.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, &v) in &other.gauges {
            *out.gauges.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.hists {
            out.hists
                .entry(k.clone())
                .and_modify(|mine| *mine = mine.merge(h))
                .or_insert_with(|| h.clone());
        }
        out
    }

    /// Renders the snapshot as a standalone JSON string.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }
}

/// Writes the snapshot as a JSON object with `counters`, `gauges`,
/// and `histograms` sections.
impl WriteJson for RegistrySnapshot {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("counters");
        w.begin_object();
        for (name, &v) in &self.counters {
            w.field_u64(name, v);
        }
        w.end_object();
        w.key("gauges");
        w.begin_object();
        for (name, &v) in &self.gauges {
            w.field_i64(name, v);
        }
        w.end_object();
        w.key("histograms");
        w.begin_object();
        for (name, h) in &self.hists {
            w.key(name);
            h.write_json(w);
        }
        w.end_object();
        w.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reset_registry_reads_as_registered_and_its_handles_stay_live() {
        let r = Registry::new();
        let c = r.counter("msgs_total");
        let g = r.gauge("depth");
        let h = r.histogram("latency");
        let fresh = r.snapshot();
        c.add(3);
        g.set(-4);
        h.record(9);
        r.reset();
        assert_eq!(r.snapshot(), fresh);
        c.inc();
        assert_eq!(r.snapshot().counters["msgs_total"], 1);
    }

    #[test]
    fn handles_are_shared() {
        let r = Registry::new();
        let a = r.counter("msgs_total");
        let b = r.counter("msgs_total");
        a.inc();
        b.add(2);
        assert_eq!(r.counter("msgs_total").get(), 3);
        // Distinct labels are distinct metrics.
        let l0 = r.counter_with("lane_msgs", vec![("lane", "0".into())]);
        let l1 = r.counter_with("lane_msgs", vec![("lane", "1".into())]);
        l0.inc();
        assert_eq!(l1.get(), 0);
    }

    #[test]
    fn gauge_semantics() {
        let r = Registry::new();
        let g = r.gauge("depth");
        g.set(5);
        g.add(2);
        g.sub(3);
        assert_eq!(g.get(), 4);
        g.set_max(10);
        g.set_max(1);
        assert_eq!(g.get(), 10);
    }

    #[test]
    fn snapshot_and_delta() {
        let r = Registry::new();
        let c = r.counter("polls");
        let g = r.gauge("depth");
        let h = r.histogram("lat");
        c.add(10);
        g.set(3);
        h.record(7);
        let first = r.snapshot();
        c.add(5);
        g.set(1);
        h.record(9);
        let second = r.snapshot();
        let d = second.delta(&first);
        assert_eq!(d.counters["polls"], 5);
        assert_eq!(d.gauges["depth"], 1); // gauges report current value
        assert_eq!(d.hists["lat"].count, 1);
        assert_eq!(d.hists["lat"].sum, 9);
    }

    #[test]
    fn merge_sums_everything() {
        let a = {
            let r = Registry::new();
            r.counter("c").add(1);
            r.gauge("g").set(2);
            r.histogram("h").record(4);
            r.snapshot()
        };
        let b = {
            let r = Registry::new();
            r.counter("c").add(10);
            r.counter("only_b").inc();
            r.gauge("g").set(5);
            r.histogram("h").record(8);
            r.snapshot()
        };
        let m = a.merge(&b);
        assert_eq!(m.counters["c"], 11);
        assert_eq!(m.counters["only_b"], 1);
        assert_eq!(m.gauges["g"], 7);
        assert_eq!(m.hists["h"].count, 2);
        assert_eq!(m.hists["h"].sum, 12);
    }

    #[test]
    fn exotic_label_values_stay_parseable() {
        // Regression: backslash, quote, and newline in a label value must
        // come out escaped in the rendered identity, which JSON re-escapes
        // as string content, or the artifact is unparseable.
        let hostile = "say \"hi\"\\\nbye".to_string();
        let r = Registry::new();
        r.counter_with("c_total", vec![("src", hostile.clone())])
            .inc();
        r.gauge_with("g", vec![("src", hostile.clone())]).set(2);
        r.histogram_with("h", vec![("src", hostile.clone())])
            .record(1);
        let snap = r.snapshot();
        let json = snap.to_json();
        for name in ["c_total", "g", "h"] {
            let key = format!(r#"{name}{{src=\"say \\\"hi\\\"\\\\\\nbye\"}}"#);
            assert!(json.contains(&key), "{json}");
        }
    }

    #[test]
    fn json_exposition_parses_shape() {
        let r = Registry::new();
        r.counter("c").inc();
        r.gauge("g").set(-4);
        r.histogram("h").record(3);
        let json = r.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"counters\":{\"c\":1}"));
        assert!(json.contains("\"g\":-4"));
        assert!(json.contains("\"h\":{\"count\":1"));
    }

    #[test]
    fn empty_registry_snapshots_cleanly() {
        let r = Registry::new();
        let s = r.snapshot();
        assert_eq!(
            s.to_json(),
            r#"{"counters":{},"gauges":{},"histograms":{}}"#
        );
    }
}
