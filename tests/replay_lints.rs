//! Source checks on the two trace replays (`dpa_sim::app_replay::replay_app`
//! and the analyzer's `otm_trace::replay::replay`), on the harness binaries,
//! and on the locks of the stack.
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
//!
//! One thread steps the whole stack, so nothing on the engine's path or on
//! the wire takes a lock. The engine has one owner: every entry point that
//! changes it takes `&mut self`, its shards are plain data in the
//! directory, and the protocol's own atomics live in `table::Slot`. A queue
//! pair's link and the RDMA domain are plain data behind an `Rc`, and there
//! is no poison-recovery layer left to bring a lock back through.
//!
//! Counting and owned state cost no read-modify-write. A lane reaches
//! atomics only through `table::Slot` (what it counts goes into the block's
//! plain tally); the engine's statistics, histograms and depth peaks are
//! fields it owns, so nothing in `otm` outside the slot table is atomic,
//! shared or lazily initialised, and the engine reads a clock only in the
//! `trace-events` build that stamps spans. The retransmit window copies into
//! recycled buffers: a packet is cloned in the two retransmit loops only.
//!
//! Counts are values, not shared instruments: `otm-metrics`' histograms and
//! span rings are plain data their owner records into, a registry snapshot
//! is a value built from the owners' fields, and the service, the senders,
//! `replay_app` and the analyzer count in fields of their own. So none of
//! them holds an atomic, an `Arc` or a lock; the one lazily initialised
//! value is `now_ns`' process epoch, the one timeline every span is stamped
//! on.
//!
//! A queue pair is the in-repo link (`dpa-sim/src/rdma.rs`), not a pair of
//! std channels, and `replay_app` keeps a destination's senders in a sorted
//! vector.
//!
//! There is one way into every backend: the service submits commands and
//! drains them, whatever runs behind the trait. No flag picks a second path,
//! no second post entry point lets a later receive overtake a queued one,
//! the engine has one shared post, and nothing outside the tests asks a
//! backend what it is.

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

/// Every `.rs` file under `dir`, at any depth.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let (mut files, mut dirs) = (Vec::new(), vec![dir.to_path_buf()]);
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("source directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                files.push(path);
            }
        }
    }
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

#[test]
fn no_lock_in_the_engine_or_on_the_wire() {
    let otm = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/otm/src");
    let files = rust_files(&otm);
    assert!(files.iter().any(|f| f.ends_with("engine.rs")));
    for file in files {
        let text = read(&file);
        let lock = ["Mutex", "RwLock", "Arc<CommShard>"];
        let found = text
            .lines()
            .find(|line| lock.iter().any(|p| line.contains(p)));
        assert!(found.is_none(), "{}: {found:?}", file.display());
    }
    let rdma = source("crates/dpa-sim/src/rdma.rs");
    let shared = ["Arc<", "Mutex", "RwLock", "Atomic"];
    let found = outside_tests(&rdma).find(|line| shared.iter().any(|p| line.contains(p)));
    assert!(found.is_none(), "rdma.rs: {found:?}");
    let sync = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/base/src/sync.rs");
    assert!(!sync.exists(), "{} is back", sync.display());
}

#[test]
fn counting_and_owned_state_cost_no_read_modify_write() {
    let worker = source("crates/otm/src/worker.rs");
    let rmw = [
        "fetch_add",
        "fetch_max",
        "fetch_or",
        "fetch_sub",
        "Ordering",
    ];
    let found = worker
        .lines()
        .find(|line| rmw.iter().any(|p| line.contains(p)));
    assert!(found.is_none(), "worker.rs: {found:?}");
    let reliable = source("crates/dpa-sim/src/reliable.rs");
    let cloned = reliable
        .lines()
        .find(|line| line.contains("packet.clone()") && !line.contains("e.packet.clone()"));
    assert!(cloned.is_none(), "reliable.rs: {cloned:?}");

    let otm = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/otm/src");
    let files = rust_files(&otm);
    assert!(files.iter().any(|f| f.ends_with("metrics.rs")));
    let mut offences = Vec::new();
    for file in files {
        let text = read(&file);
        // The slot atomics are the block protocol itself (§III-C).
        let shared: &[&str] = if file.ends_with("table.rs") {
            &["Arc<", "Arc::", "OnceLock", "Mutex", "RwLock"]
        } else {
            &["Atomic", "Arc<", "Arc::", "OnceLock", "Mutex", "RwLock"]
        };
        let lines: Vec<&str> = outside_tests(&text).collect();
        for (i, line) in lines.iter().enumerate() {
            let unguarded_clock = line.contains("Instant")
                && (i == 0 || lines[i - 1].trim() != "#[cfg(feature = \"trace-events\")]");
            if unguarded_clock || shared.iter().any(|p| line.contains(p)) {
                offences.push(format!("{}:{}: {}", file.display(), i + 1, line.trim()));
            }
        }
    }
    assert!(
        offences.is_empty(),
        "shared state, or a clock read outside the trace-events build, in otm:\n{}",
        offences.join("\n")
    );
}

#[test]
fn counts_are_values_not_shared_instruments() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = rust_files(&root.join("crates/metrics/src"));
    files.extend(rust_files(&root.join("crates/trace/src")));
    for name in ["obs", "reliable", "service", "app_replay"] {
        files.push(root.join(format!("crates/dpa-sim/src/{name}.rs")));
    }
    assert!(files.iter().any(|f| f.ends_with("metrics/src/span.rs")));
    let mut offences = Vec::new();
    for file in files {
        let text = read(&file);
        // `now_ns`' process epoch: one timeline for every span.
        let shared: &[&str] = if file.ends_with("metrics/src/lib.rs") {
            &["Atomic", "Arc<", "Arc::", "Mutex", "RwLock"]
        } else {
            &["Atomic", "Arc<", "Arc::", "Mutex", "RwLock", "OnceLock"]
        };
        for (i, line) in outside_tests(&text).enumerate() {
            if shared.iter().any(|p| line.contains(p)) {
                offences.push(format!("{}:{}: {}", file.display(), i + 1, line.trim()));
            }
        }
    }
    assert!(
        offences.is_empty(),
        "shared state in the metrics, the analyzer, the service or its senders:\n{}",
        offences.join("\n")
    );
}

#[test]
fn endpoints_are_the_size_of_their_traffic() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates = std::fs::read_dir(root.join("crates")).expect("crates directory");
    let mut files = Vec::new();
    for krate in crates {
        let src = krate.expect("directory entry").path().join("src");
        if src.is_dir() {
            files.extend(rust_files(&src));
        }
    }
    assert!(files.iter().any(|f| f.ends_with("dpa-sim/src/rdma.rs")));
    for file in files {
        let text = read(&file);
        let found = text.lines().find(|line| line.contains("mpsc"));
        assert!(found.is_none(), "{}: {found:?}", file.display());
    }
    let app_replay = source("crates/dpa-sim/src/app_replay.rs");
    let found = app_replay
        .lines()
        .find(|line| line.contains("BTreeMap<u32, ReliableSender>"));
    assert!(found.is_none(), "app_replay.rs: {found:?}");
}

#[test]
fn one_way_into_every_backend() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut offences = Vec::new();
    let second_way = ["use_queue", "post_recv_queued(", "post_shared"];
    for dir in ["crates", "tests", "examples"] {
        for file in rust_files(&root.join(dir)) {
            if file.ends_with("tests/replay_lints.rs") {
                continue; // the patterns themselves
            }
            for (i, line) in read(&file).lines().enumerate() {
                if second_way.iter().any(|p| line.contains(p)) {
                    offences.push(format!("{}:{}: {}", file.display(), i + 1, line.trim()));
                }
            }
        }
    }
    let what_is_it = ["supports_command_queue", "as_any", "downcast"];
    let crates = std::fs::read_dir(root.join("crates")).expect("crates directory");
    let mut sources = Vec::new();
    for krate in crates {
        let src = krate.expect("directory entry").path().join("src");
        if src.is_dir() {
            sources.extend(rust_files(&src));
        }
    }
    assert!(sources
        .iter()
        .any(|f| f.ends_with("dpa-sim/src/service.rs")));
    for file in sources {
        let text = read(&file);
        for (i, line) in outside_tests(&text).enumerate() {
            if what_is_it.iter().any(|p| line.contains(p)) {
                offences.push(format!("{}:{}: {}", file.display(), i + 1, line.trim()));
            }
        }
    }
    assert!(
        offences.is_empty(),
        "a second way into a backend, or a question about what it is:\n{}",
        offences.join("\n")
    );
}
