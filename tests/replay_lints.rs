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
//! The trace has one global order, derived in one place: the time key and
//! the split of `crates/trace/src/model.rs` (`AppTrace::split`), which
//! both replays call. So neither replay takes a float's bits or sorts its
//! events, the analyzer does not merge the whole trace
//! (`AppTrace::merged_ops` is the split's test reference), and the merge
//! is not to come back into `dpa-sim` outside its tests. The RDMA READ
//! allocates its target once, at its final size, so `rdma.rs` regrows
//! nothing.
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
//!
//! The drain reads the directory in place: its packer and blocks index the
//! one directory (`otm/src/shard.rs`) by a communicator's place in it, and
//! a communicator's lane is its own queue there, so nothing copies the
//! directory, and it and the queues are sorted vectors, not keyed maps.
//! What the drain allocates is pinned by `tests/alloc_budget.rs`'s exact
//! counts, not here.
//!
//! A message's bytes are handed on by move: the NIC passes a packet on by
//! value, never as a `vec![packet…]` copy, and the service's in-flight stash
//! is a ring addressed by message handle, not an `inflight: HashMap` (its
//! unexpected store stays a map: unexpected messages leave in any order, at
//! any age). The NIC's per-QP staging buffers and its total-order gate are
//! one reorder window indexed by sequence number (`dpa-sim/src/reorder.rs`):
//! O(1) to park, check and release, and no allocation once at size, so no
//! ordered map comes back into `nic.rs` on the path every gated packet takes.
//!
//! There is one packer: the drain packs blocks across communicators, and
//! the packed ≡ sequential oracle (`tests/packing_equivalence.rs`) holds it
//! to per-communicator order. No second packing policy, no selector for
//! one, and no harness section comparing two is to come back.
//!
//! The unexpected store removes in place: a waiting message is on four
//! lists through links it carries itself (`otm/src/umq.rs`), and a match
//! unlinks it from all four, so there is no tombstone, generation or sweep
//! to come back. The service's and the domain's maps are keyed by integers
//! the program hands out and hash them with two multiplies
//! (`otm_base::hash::IntHasher`).
//!
//! Both queues have one list shape: a bin is an intrusive list of
//! `otm/src/list.rs` on both sides, a posted receive is linked through its
//! table slot and unlinked in place, so no chain vector or position scan
//! comes back into `index.rs`, and the list types have one definition.
//!
//! There is one four-index implementation: the trace analyzer replays
//! through the engine itself (`trace/src/replay.rs`), so a second copy of
//! the §III-B organization, or a second replay function to prove two
//! copies agree, is not to come back.
//!
//! The lockfile lists workspace members only: a `source = ` line means a
//! registry package came back, and the workspace builds with no network.
//!
//! A library crate's public surface is what the workspace calls: a module
//! is private unless a caller outside the crate names it, an item is
//! `pub(crate)` until one needs it, and every library `lib.rs` denies
//! `unreachable_pub`, so the build fails on a `pub` item the crate root
//! does not export.
//!
//! The code grows only in the open: each crate's lines outside its tests
//! stay under a ceiling written here, so a change that needs more raises
//! that crate's ceiling in its own diff.

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

/// Every file under `dir`, at any depth.
fn every_file(dir: &Path) -> Vec<PathBuf> {
    let (mut files, mut dirs) = (Vec::new(), vec![dir.to_path_buf()]);
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("source directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// Every `.rs` file under `dir`, at any depth.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = every_file(dir);
    files.retain(|path| path.extension().is_some_and(|ext| ext == "rs"));
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
fn one_trace_order() {
    for (file, patterns) in [
        ("crates/dpa-sim/src/app_replay.rs", ["to_bits(", ".sort"]),
        ("crates/trace/src/replay.rs", ["to_bits(", "merged_ops("]),
    ] {
        let text = source(file);
        for pat in patterns {
            let found = outside_tests(&text).find(|line| line.contains(pat));
            assert!(
                found.is_none(),
                "{file}: {pat} outside its tests, but the trace's order is \
                 `crates/trace/src/model.rs`'s alone: {found:?}"
            );
        }
    }
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

/// Above the tests of `crates/*/src`, nothing asks a backend what it is,
/// and nothing calls the two ladder-only methods of `MatchingBackend`:
/// `arrive_block` and `block_size` are kept for the benchmark package
/// alone (ROADMAP item 1), so removing them is then a pure deletion.
#[test]
fn one_way_into_every_backend() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let second_way = ["use_queue", "post_recv_queued(", "post_shared"];
    let mut offences = offending_lines(&workspace_sources(), &second_way);
    let what_is_it = [
        "supports_command_queue",
        "as_any",
        "downcast",
        ".arrive_block(",
        ".block_size(",
    ];
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
        "a second way into a backend, a question about what it is, or a \
         ladder-only call:\n{}",
        offences.join("\n")
    );
}

#[test]
fn per_message_hand_offs_move_packets_and_keep_no_map() {
    let nic = source("crates/dpa-sim/src/nic.rs");
    let copied = nic.lines().find(|line| line.contains("vec![packet"));
    assert!(copied.is_none(), "nic.rs: {copied:?}");
    let service = source("crates/dpa-sim/src/service.rs");
    let keyed = service.lines().find(|line| {
        let mut after = line.split("inflight:").skip(1);
        after.any(|rest| rest.trim_start_matches(' ').starts_with("HashMap"))
    });
    assert!(keyed.is_none(), "service.rs: {keyed:?}");
}

#[test]
fn one_reorder_window_in_the_nic() {
    let nic = source("crates/dpa-sim/src/nic.rs");
    let ordered_map = nic.lines().find(|line| line.contains("BTreeMap"));
    assert!(ordered_map.is_none(), "nic.rs: {ordered_map:?}");
}

/// Every `.rs` file of `crates`, `tests` and `examples`, but this one,
/// which holds the patterns themselves.
fn workspace_sources() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples"] {
        files.extend(rust_files(&root.join(dir)));
    }
    files.retain(|file| !file.ends_with("tests/replay_lints.rs"));
    files
}

/// The lines of `files` that contain any of `patterns`, as
/// `path:line: text`.
fn offending_lines(files: &[PathBuf], patterns: &[&str]) -> Vec<String> {
    let mut offences = Vec::new();
    for file in files {
        let bytes = std::fs::read(file).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
        for (i, line) in String::from_utf8_lossy(&bytes).lines().enumerate() {
            if patterns.iter().any(|p| line.contains(p)) {
                offences.push(format!("{}:{}: {}", file.display(), i + 1, line.trim()));
            }
        }
    }
    offences
}

#[test]
fn the_drain_reads_the_directory_in_place() {
    let otm = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/otm/src");
    let files =
        |names: [&str; 3]| -> Vec<PathBuf> { names.iter().map(|name| otm.join(name)).collect() };
    let mut offences = offending_lines(
        &files(["engine.rs", "command.rs", "shard.rs"]),
        &["live.clone", "live.to_vec", "clone_from"],
    );
    offences.extend(offending_lines(
        &files(["shard.rs", "scheduler.rs", "command.rs"]),
        &["HashMap", "BTreeMap"],
    ));
    assert!(
        offences.is_empty(),
        "a copy of the directory, or a keyed map on the queue path:\n{}",
        offences.join("\n")
    );
}

#[test]
fn one_packer() {
    let files = workspace_sources();
    assert!(files.iter().any(|f| f.ends_with("otm/src/scheduler.rs")));
    // Split, so that a plain grep of the workspace for the three names
    // finds nothing, this file included.
    let second_packer = [
        concat!("Packing", "Policy"),
        concat!("::", "Consecutive"),
        concat!("set_", "packing("),
        "post_mix",
        "run_mixed",
        "MixedRow",
    ];
    let offences = offending_lines(&files, &second_packer);
    assert!(
        offences.is_empty(),
        "a second packer, a selector for one, or a section comparing two:\n{}",
        offences.join("\n")
    );
}

#[test]
fn the_unexpected_store_removes_in_place() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut offences = offending_lines(
        &[root.join("crates/otm/src/umq.rs")],
        &["VecDeque", "HashSet", "stale", "compact", "gen:"],
    );
    let maps = ["service", "rdma"].map(|name| root.join(format!("crates/dpa-sim/src/{name}.rs")));
    offences.extend(offending_lines(&maps, &["HashMap::new()"]));
    assert!(
        offences.is_empty(),
        "a tombstone, a generation or a sweep in the unexpected store, or a map \
         that hashes the program's own integers with the default hasher:\n{}",
        offences.join("\n")
    );
}

#[test]
fn one_list_shape_for_both_queues() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut offences = offending_lines(
        &[root.join("crates/otm/src/index.rs")],
        &["Vec<DescId>", ".position("],
    );
    let mut files = rust_files(&root.join("crates"));
    assert!(files.iter().any(|f| f.ends_with("otm/src/list.rs")));
    files.retain(|file| !file.ends_with("crates/otm/src/list.rs"));
    for file in files {
        for (i, line) in read(&file).lines().enumerate() {
            // `struct Ends` or `struct Link` as a whole word.
            let defines = ["struct Ends", "struct Link"].iter().any(|p| {
                line.match_indices(p).any(|(at, _)| {
                    let next = line[at + p.len()..].chars().next();
                    !next.is_some_and(|c| c.is_alphanumeric() || c == '_')
                })
            });
            if defines {
                offences.push(format!("{}:{}: {}", file.display(), i + 1, line.trim()));
            }
        }
    }
    assert!(
        offences.is_empty(),
        "a chain vector or a position scan in the posted-receive indexes, or a \
         second definition of the list types:\n{}",
        offences.join("\n")
    );
}

#[test]
fn one_four_index_implementation() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let emul = root.join("crates/trace/src/emul.rs");
    assert!(!emul.exists(), "{} is back", emul.display());
    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples"] {
        files.extend(every_file(&root.join(dir)));
    }
    assert!(files.iter().any(|f| f.ends_with("trace/src/replay.rs")));
    // Split, so that a plain grep of the workspace for the four names finds
    // nothing, this file included.
    let second_copy = [
        concat!("FourIndex", "Matcher"),
        concat!("otm_trace::", "emul"),
        concat!("replay_", "engine"),
        concat!("bin_", "sweep"),
    ];
    let offences = offending_lines(&files, &second_copy);
    assert!(
        offences.is_empty(),
        "a second four-index organization, or a replay to compare it with:\n{}",
        offences.join("\n")
    );
}

#[test]
fn the_lockfile_lists_workspace_members_only() {
    let lock = source("Cargo.lock");
    let registry = lock.lines().find(|line| line.starts_with("source = "));
    assert!(registry.is_none(), "Cargo.lock: {registry:?}");
}

#[test]
fn every_library_crate_denies_unreachable_pub() {
    let libraries = [
        "base",
        "metrics",
        "mpi-matching",
        "otm",
        "dpa-sim",
        "trace",
        "workloads",
    ];
    let lax: Vec<_> = libraries
        .iter()
        .filter(|name| {
            !source(&format!("crates/{name}/src/lib.rs"))
                .lines()
                .any(|line| line == "#![deny(unreachable_pub)]")
        })
        .collect();
    assert!(
        lax.is_empty(),
        "library crates whose lib.rs does not deny unreachable_pub: {lax:?}"
    );
}

/// Per crate under `crates/`, the most lines its `src` may hold above each
/// file's first `#[cfg(test)]`. Each is the crate's count when the ceiling
/// was last set.
const CEILINGS: [(&str, usize); 8] = [
    ("base", 1152),
    ("bench", 1096),
    ("dpa-sim", 4067),
    ("metrics", 1238),
    ("mpi-matching", 2214),
    ("otm", 3308),
    ("trace", 1628),
    ("workloads", 1252),
];

#[test]
fn non_test_lines_stay_under_each_crates_ceiling() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut crates: Vec<String> = std::fs::read_dir(root.join("crates"))
        .expect("crates directory")
        .map(|entry| entry.expect("directory entry").file_name())
        .map(|name| name.to_string_lossy().into_owned())
        .collect();
    crates.sort();
    let listed: Vec<&str> = CEILINGS.iter().map(|&(name, _)| name).collect();
    assert_eq!(
        crates, listed,
        "every crate has a ceiling, and only they do"
    );
    let mut over = Vec::new();
    for (name, ceiling) in CEILINGS {
        let lines: usize = rust_files(&root.join("crates").join(name).join("src"))
            .iter()
            .map(|file| outside_tests(&read(file)).count())
            .sum();
        println!("{name}: {lines} of {ceiling}");
        if lines > ceiling {
            over.push(format!("{name}: {lines} > {ceiling}"));
        }
    }
    assert!(
        over.is_empty(),
        "crates over their ceiling of non-test lines:\n{}",
        over.join("\n")
    );
}
