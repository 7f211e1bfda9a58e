//! Source checks on the two trace replays: `dpa_sim::app_replay::replay_app`
//! and the analyzer's `otm_trace::replay::replay`.
//!
//! `replay_app` builds its NIC, service, engine and queue-pair + sender set
//! once and re-arms them for each destination, and its oracle resets one
//! sequential engine, so each constructor appears at most once in
//! `app_replay.rs` outside its tests: a second call site is a
//! per-destination rebuild coming back. The analyzer resets one engine for
//! every rank, so `replay.rs` builds it once.
//!
//! `replay_app` splits its events per destination and sorts each
//! destination's own stream (`app_replay.rs::per_destination_events`), so
//! the whole-trace merge is the analyzer's alone: it is not to come back
//! into `dpa-sim` outside its tests. The RDMA READ allocates its target
//! once, at its final size, so `rdma.rs` regrows nothing.
//!
//! The harness binaries drive the reliable stack through `replay_app` (or
//! the ping-pong of `dpa_sim::pingpong`), never by wiring a queue pair and
//! a `ReliableSender` to a NIC themselves: a hand-wired loop is a second
//! driver with no oracle of its own.

use std::path::{Path, PathBuf};

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn source(rel: &str) -> String {
    read(&Path::new(env!("CARGO_MANIFEST_DIR")).join(rel))
}

/// The lines above a file's first `#[cfg(test)]` line.
fn outside_tests(text: &str) -> impl Iterator<Item = &str> {
    text.lines().take_while(|line| *line != "#[cfg(test)]")
}

/// `dir/*.rs` and `dir/*/*.rs`.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let entries = |dir: &Path| -> Vec<PathBuf> {
        let entries = std::fs::read_dir(dir).expect("source directory");
        entries
            .map(|e| e.expect("directory entry").path())
            .collect()
    };
    let mut files = Vec::new();
    for path in entries(dir) {
        if path.is_dir() {
            files.extend(entries(&path));
        } else {
            files.push(path);
        }
    }
    files.retain(|path| path.extension().is_some_and(|ext| ext == "rs"));
    files.sort();
    files
}

#[test]
fn one_endpoint_set_and_one_pass_per_destination_in_the_replays() {
    let app_replay = source("crates/dpa-sim/src/app_replay.rs");
    for pat in [
        "RecvNic::new",
        "RecvNic::unconnected",
        "MatchingService::with_backend",
        "connected_pair()",
        "OtmEngine::new",
        "SequentialOtm::new",
    ] {
        let n = outside_tests(&app_replay)
            .filter(|line| line.contains(pat))
            .count();
        assert!(
            n <= 1,
            "app_replay.rs: {pat} appears {n} times outside its tests"
        );
    }
    let replay = source("crates/trace/src/replay.rs");
    let n = replay
        .lines()
        .filter(|line| line.contains("SequentialOtm::new"))
        .count();
    assert!(n <= 1, "replay.rs: SequentialOtm::new appears {n} times");

    let dpa_sim = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/dpa-sim/src");
    let files = rust_files(&dpa_sim);
    assert!(files.iter().any(|f| f.ends_with("app_replay.rs")));
    for file in files {
        let text = read(&file);
        let merged = outside_tests(&text).find(|line| line.contains("merged_ops"));
        assert!(
            merged.is_none(),
            "{}: merged_ops outside its tests: {merged:?}",
            file.display()
        );
    }
    let rdma = source("crates/dpa-sim/src/rdma.rs");
    let reserve = rdma.lines().find(|line| line.contains("reserve"));
    assert!(reserve.is_none(), "rdma.rs: {reserve:?}");
}

#[test]
fn no_harness_wires_the_reliable_stack_by_hand() {
    let bins = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench/src/bin");
    let files = rust_files(&bins);
    assert!(files.iter().any(|f| f.ends_with("appbench.rs")));
    for file in files {
        let text = read(&file);
        let wired = outside_tests(&text)
            .find(|line| line.contains("ReliableSender::new") || line.contains("connected_pair("));
        assert!(
            wired.is_none(),
            "{}: drives the reliable stack itself instead of through \
             `replay_app` or `dpa_sim::pingpong`: {wired:?}",
            file.display()
        );
    }
}
