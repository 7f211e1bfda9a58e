//! Shared helpers for the figure/table harness binaries.
//!
//! Each binary regenerates one element of the paper's evaluation (see
//! DESIGN.md §3 for the index) and, besides the human-readable rows, drops
//! a JSON artifact under `target/experiments/` so EXPERIMENTS.md numbers
//! have machine-readable provenance.
//!
//! Since the observability PR every binary emits the same [`BenchReport`]
//! envelope: the bench-specific rows under `results`, plus an
//! `observability` object holding `otm-metrics` registry snapshots
//! (counters, queue-depth gauges, histogram quantiles). Every artifact is
//! written by `otm_metrics::json::JsonWriter`, compact, one line. Command
//! lines are parsed by the shared [`CommonArgs`] so every harness accepts
//! the same `--quick` / `--full` / `--messages N` / `--repeats N` /
//! `--out PATH` vocabulary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use otm_metrics::json::{JsonWriter, WriteJson};
use otm_metrics::{json_fields, RegistrySnapshot};
use std::path::{Path, PathBuf};

/// Command-line vocabulary shared by all harness binaries.
///
/// Unrecognized tokens are ignored so individual binaries can layer their
/// own flags on top without re-implementing the scan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommonArgs {
    /// `--quick`: shrink the workload for smoke testing.
    pub quick: bool,
    /// `--full`: extend the workload to the paper's full sweep.
    pub full: bool,
    /// `--messages N`: target message volume (harness-specific meaning;
    /// fig8 divides it by the per-sequence k to derive the repeat count).
    pub messages: Option<u64>,
    /// `--repeats N`: explicit repeat count, overriding `--quick` presets.
    pub repeats: Option<u64>,
    /// `--out PATH`: write the JSON artifact here instead of
    /// `target/experiments/<bench>.json`.
    pub out: Option<PathBuf>,
    /// `--faults`: add a hostile-wire run to each `appbench` application
    /// replay — the same trace over a seeded faulty wire, recovered by the
    /// selective-repeat reliability protocol and checked against the
    /// engine-direct oracle.
    pub faults: bool,
    /// `--fault-seed N`: seed for `appbench`'s `--faults` plan (default
    /// `0xa99`). Equal seeds inject identical faults.
    pub fault_seed: Option<u64>,
    /// `--series PATH`: write the flight recorder's rolling time-series
    /// artifact (columnar JSON; `appbench` writes each app's busiest
    /// destination, fig8 its `Optimistic-DPA NC` series per poll) to PATH.
    pub series: Option<PathBuf>,
    /// `--spans PATH`: write per-message lifecycle span dumps — JSONL plus a
    /// Chrome `trace_event` file Perfetto opens directly — using PATH as the
    /// stem (`PATH.<section>.jsonl`, `PATH.<section>.trace.json`). Requires
    /// building with `--features trace-events`; otherwise the harness prints
    /// a warning and skips the dump.
    pub spans: Option<PathBuf>,
}

impl CommonArgs {
    /// Parses the process's command line (flag values that fail to parse
    /// are ignored, like unknown flags).
    pub fn parse() -> Self {
        Self::from_iter(std::env::args().skip(1))
    }

    /// Parses an explicit token stream (testable form of [`Self::parse`]).
    /// Not `FromIterator`: this is fallible-flag parsing, not collection.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = String>>(tokens: I) -> Self {
        let mut args = CommonArgs::default();
        let mut it = tokens.into_iter();
        while let Some(tok) = it.next() {
            match tok.as_str() {
                "--quick" => args.quick = true,
                "--full" => args.full = true,
                "--messages" => args.messages = it.next().and_then(|v| v.parse().ok()),
                "--repeats" => args.repeats = it.next().and_then(|v| v.parse().ok()),
                "--out" => args.out = it.next().map(PathBuf::from),
                "--faults" => args.faults = true,
                "--fault-seed" => args.fault_seed = it.next().and_then(|v| v.parse().ok()),
                "--series" => args.series = it.next().map(PathBuf::from),
                "--spans" => args.spans = it.next().map(PathBuf::from),
                _ => {}
            }
        }
        args
    }

    /// The effective repeat count: explicit `--repeats` wins, then the
    /// quick/full preset split.
    pub fn repeats_or(&self, full: usize, quick: usize) -> usize {
        match self.repeats {
            Some(r) => r.max(1) as usize,
            None => {
                if self.quick {
                    quick
                } else {
                    full
                }
            }
        }
    }
}

/// The common machine-readable envelope every harness binary writes.
///
/// `results` carries the bench-specific rows; `observability` carries
/// `otm-metrics` registry snapshots — per-path resolution counters,
/// queue-depth gauges, histogram quantiles — when the run captured any
/// (one snapshot, or a map of them keyed by series label).
#[derive(Debug)]
pub struct BenchReport<T, O = RegistrySnapshot> {
    /// Harness name; also the default artifact file stem.
    pub bench: &'static str,
    /// True when `--quick` (or a small `--messages`) trimmed the workload,
    /// flagging the numbers as smoke-test-scale.
    pub quick: bool,
    /// Bench-specific result rows.
    pub results: T,
    /// Observability payload, if the run captured one.
    pub observability: Option<O>,
}

impl<T> BenchReport<T> {
    /// An envelope with no observability payload.
    pub fn new(bench: &'static str, quick: bool, results: T) -> Self {
        Self::with_observability(bench, quick, results, None)
    }
}

impl<T, O> BenchReport<T, O> {
    /// An envelope carrying an observability payload.
    pub fn with_observability(
        bench: &'static str,
        quick: bool,
        results: T,
        observability: Option<O>,
    ) -> Self {
        BenchReport {
            bench,
            quick,
            results,
            observability,
        }
    }
}

/// `{"bench":..,"quick":..,"results":..,"observability":..}`.
impl<T: WriteJson, O: WriteJson> WriteJson for BenchReport<T, O> {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        json_fields!(w, self; bench, quick, results, observability);
        w.end_object();
    }
}

/// Directory where harness binaries drop their JSON artifacts.
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("target")
        .join("experiments");
    std::fs::create_dir_all(&dir).expect("create target/experiments");
    dir
}

/// Writes a [`BenchReport`] to `--out` (if given) or
/// `target/experiments/<bench>.json`, and returns the path.
pub fn write_report<T: WriteJson, O: WriteJson>(
    args: &CommonArgs,
    report: &BenchReport<T, O>,
) -> PathBuf {
    let path = match &args.out {
        Some(p) => p.clone(),
        None => experiments_dir().join(format!("{}.json", report.bench)),
    };
    write_json_artifact(&path, report)
}

/// Renders `value` through a [`JsonWriter`] and writes it, newline-
/// terminated, to `path`; returns the path.
pub fn write_json_artifact(path: &Path, value: &impl WriteJson) -> PathBuf {
    let mut w = JsonWriter::new();
    value.write_json(&mut w);
    let mut text = w.finish();
    text.push('\n');
    write_text_artifact(path, &text)
}

/// Writes already-rendered text (span JSONL, a Chrome trace, a streamed
/// [`JsonWriter`] document) to `path`, creating parent directories, and
/// returns the path.
pub fn write_text_artifact(path: &Path, contents: &str) -> PathBuf {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create artifact directory");
        }
    }
    std::fs::write(path, contents).expect("write artifact");
    path.to_path_buf()
}

/// Derives a sibling path from a `--spans` stem: `stem.<section>.<ext>`
/// (e.g. `fig8_spans` → `fig8_spans.nc.jsonl`), preserving the stem's
/// directory.
pub fn spans_sibling(stem: &Path, section: &str, ext: &str) -> PathBuf {
    let mut name = stem
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "spans".to_string());
    name.push('.');
    name.push_str(section);
    name.push('.');
    name.push_str(ext);
    stem.with_file_name(name)
}

/// Prints a section header in a consistent style.
pub fn header(title: &str) {
    println!("{}", "=".repeat(title.len().max(8)));
    println!("{title}");
    println!("{}", "=".repeat(title.len().max(8)));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(v: &impl WriteJson) -> String {
        let mut w = JsonWriter::new();
        v.write_json(&mut w);
        w.finish()
    }

    #[test]
    fn envelope_without_observability_writes_null() {
        let report = BenchReport::new("selftest", false, vec![1u64, 2]);
        assert_eq!(
            render(&report),
            r#"{"bench":"selftest","quick":false,"results":[1,2],"observability":null}"#
        );
    }

    #[test]
    fn envelope_embeds_registry_snapshots_by_label() {
        let mut snapshot = otm_metrics::RegistrySnapshot::default();
        snapshot.counters.insert("hits".to_string(), 3);
        let mut observability = std::collections::BTreeMap::new();
        observability.insert("a \"run\"".to_string(), snapshot);
        let report = BenchReport::with_observability("selftest", true, 7u64, Some(observability));
        assert_eq!(
            render(&report),
            concat!(
                r#"{"bench":"selftest","quick":true,"results":7,"observability":"#,
                r#"{"a \"run\"":{"counters":{"hits":3},"gauges":{},"histograms":{}}}}"#
            )
        );
    }

    #[test]
    fn common_args_parse_the_shared_vocabulary() {
        let args = CommonArgs::from_iter(
            ["--quick", "--messages", "1000", "--out", "/tmp/x.json"]
                .into_iter()
                .map(String::from),
        );
        assert!(args.quick);
        assert!(!args.full);
        assert_eq!(args.messages, Some(1000));
        assert_eq!(args.repeats, None);
        assert_eq!(
            args.out.as_deref(),
            Some(std::path::Path::new("/tmp/x.json"))
        );
    }

    #[test]
    fn common_args_parse_fault_knobs() {
        let args = CommonArgs::from_iter(
            ["--faults", "--fault-seed", "248"]
                .into_iter()
                .map(String::from),
        );
        assert!(args.faults);
        assert_eq!(args.fault_seed, Some(248));
        let default = CommonArgs::from_iter(std::iter::empty());
        assert!(!default.faults);
        assert_eq!(default.fault_seed, None);
    }

    #[test]
    fn common_args_parse_flight_recorder_paths() {
        let args = CommonArgs::from_iter(
            ["--series", "out/series.json", "--spans", "out/spans"]
                .into_iter()
                .map(String::from),
        );
        assert_eq!(
            args.series.as_deref(),
            Some(std::path::Path::new("out/series.json"))
        );
        assert_eq!(
            args.spans.as_deref(),
            Some(std::path::Path::new("out/spans"))
        );
        let default = CommonArgs::from_iter(std::iter::empty());
        assert_eq!(default.series, None);
        assert_eq!(default.spans, None);
    }

    #[test]
    fn spans_sibling_derives_sectioned_names() {
        let stem = std::path::Path::new("experiments/fig8_spans");
        assert_eq!(
            spans_sibling(stem, "nc", "jsonl"),
            std::path::Path::new("experiments/fig8_spans.nc.jsonl")
        );
        assert_eq!(
            spans_sibling(stem, "faults", "trace.json"),
            std::path::Path::new("experiments/fig8_spans.faults.trace.json")
        );
    }

    #[test]
    fn common_args_ignore_unknown_flags_and_bad_values() {
        let args = CommonArgs::from_iter(
            ["--frobnicate", "--repeats", "abc", "--full"]
                .into_iter()
                .map(String::from),
        );
        assert!(args.full);
        assert_eq!(args.repeats, None);
    }

    #[test]
    fn repeats_precedence_is_explicit_then_preset() {
        let explicit = CommonArgs {
            repeats: Some(7),
            quick: true,
            ..Default::default()
        };
        assert_eq!(explicit.repeats_or(500, 50), 7);
        let quick = CommonArgs {
            quick: true,
            ..Default::default()
        };
        assert_eq!(quick.repeats_or(500, 50), 50);
        assert_eq!(CommonArgs::default().repeats_or(500, 50), 500);
    }

    #[test]
    fn write_report_honors_out_path() {
        let dir = experiments_dir().join("selftest-report");
        let out = dir.join("custom.json");
        let args = CommonArgs {
            out: Some(out.clone()),
            ..Default::default()
        };
        let report = BenchReport::new("selftest_report", true, vec![1u64, 2]);
        let path = write_report(&args, &report);
        assert_eq!(path, out);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"bench\":\"selftest_report\",\"quick\":true,\"results\":[1,2],\"observability\":null}\n"
        );
        std::fs::remove_dir_all(dir).ok();
    }
}
