//! Registry snapshots: counters, gauges and histograms keyed by their
//! rendered identity, `name` or `name{label="v"}`.
//!
//! A [`RegistrySnapshot`] is a value. Nothing registers or records into it:
//! each owner of counts — the engine, the matching service, a reliable
//! sender, a matchd server, the trace analyzer's reports — builds one from
//! the plain fields it keeps, under the names the artifacts and the ladder
//! read, and [`RegistrySnapshot::merge`] sums several owners' snapshots into
//! one. [`labelled`] renders a labelled identity.

use crate::hist::HistogramSnapshot;
use crate::json::{escape_label_value, JsonWriter, WriteJson};
use std::collections::BTreeMap;

/// The identity `name{label="value"}`, with `value` escaped so the identity
/// stays one parseable key whatever it holds.
pub fn labelled(name: &str, label: &str, value: impl std::fmt::Display) -> String {
    let mut out = format!("{name}{{{label}=\"");
    escape_label_value(&mut out, &value.to_string());
    out.push_str("\"}");
    out
}

/// Counters, gauges and histograms by rendered identity (see the module
/// docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// Counter values.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values.
    pub gauges: BTreeMap<String, i64>,
    /// Histograms.
    pub hists: BTreeMap<String, HistogramSnapshot>,
}

impl RegistrySnapshot {
    /// Element-wise sum of two snapshots (e.g. the service's and its
    /// senders'). Gauges are summed too, which is the useful reading
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

    /// A histogram holding `values`.
    fn hist(values: impl IntoIterator<Item = u64>) -> HistogramSnapshot {
        let mut h = HistogramSnapshot::empty();
        h.record_all(values);
        h
    }

    /// A snapshot with counter `c`, gauge `g` and histogram `h`.
    fn snapshot(c: u64, g: i64, h: u64) -> RegistrySnapshot {
        let mut s = RegistrySnapshot::default();
        s.counters.insert("c".into(), c);
        s.gauges.insert("g".into(), g);
        s.hists.insert("h".into(), hist([h]));
        s
    }

    #[test]
    fn merge_sums_everything() {
        let a = snapshot(1, 2, 4);
        let mut b = snapshot(10, 5, 8);
        b.counters.insert("only_b".into(), 1);
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
        let hostile = "say \"hi\"\\\nbye";
        let mut snap = RegistrySnapshot::default();
        snap.counters.insert(labelled("c_total", "src", hostile), 1);
        snap.gauges.insert(labelled("g", "src", hostile), 2);
        snap.hists.insert(labelled("h", "src", hostile), hist([1]));
        let json = snap.to_json();
        for name in ["c_total", "g", "h"] {
            let key = format!(r#"{name}{{src=\"say \\\"hi\\\"\\\\\\nbye\"}}"#);
            assert!(json.contains(&key), "{json}");
        }
        assert_eq!(labelled("d", "comm", 7), r#"d{comm="7"}"#);
    }

    #[test]
    fn json_exposition_parses_shape() {
        let json = snapshot(1, -4, 3).to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"counters\":{\"c\":1}"));
        assert!(json.contains("\"g\":-4"));
        assert!(json.contains("\"h\":{\"count\":1"));
    }

    #[test]
    fn empty_registry_snapshots_cleanly() {
        assert_eq!(
            RegistrySnapshot::default().to_json(),
            r#"{"counters":{},"gauges":{},"histograms":{}}"#
        );
    }
}
