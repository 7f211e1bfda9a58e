//! Cross-crate integration: workload generation → DUMPI text → parser →
//! binary cache → replay, and the coherence of the statistics along the
//! way.

use otm_trace::{cache, dumpi, replay, ReplayConfig};

/// The full §V-A pipeline must be lossless: generating a trace, writing it
/// as DUMPI text, parsing it back and caching it must all yield the same
/// replay statistics as replaying the in-memory trace directly.
#[test]
fn dumpi_round_trip_preserves_replay_statistics() {
    let spec = otm_workloads::catalog()
        .into_iter()
        .find(|a| a.name == "AMG")
        .expect("AMG in catalog");
    let trace = (spec.generate)(3);

    let dir = std::env::temp_dir().join(format!("otm-pipeline-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for rank in &trace.ranks {
        std::fs::write(
            dir.join(format!("dumpi-{}.txt", rank.rank.0)),
            dumpi::write_rank_text(&rank.ops),
        )
        .unwrap();
    }
    let cache_path = dir.join("amg.otmcache");
    let parsed = cache::load_or_parse(&dir, &cache_path, "AMG").unwrap();
    assert_eq!(parsed, trace, "text round trip must be lossless");

    let cached = cache::load(&cache_path).unwrap();
    assert_eq!(cached, trace, "binary cache must be lossless");

    for bins in [1usize, 32, 128] {
        let direct = replay(&trace, &ReplayConfig { bins });
        let roundtrip = replay(&parsed, &ReplayConfig { bins });
        assert_eq!(direct.match_stats, roundtrip.match_stats, "bins={bins}");
        assert_eq!(direct.call_dist, roundtrip.call_dist, "bins={bins}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every Table II generator must replay cleanly at every Fig. 7 bin count:
/// queue depths must be monotonically non-increasing as bins grow, and the
/// matching totals must be bin-independent (binning changes cost, never
/// outcomes).
#[test]
fn all_apps_replay_consistently_across_bin_counts() {
    for spec in otm_workloads::catalog() {
        let trace = (spec.generate)(42);
        let reports: Vec<_> = [1usize, 32, 128]
            .iter()
            .map(|&bins| replay(&trace, &ReplayConfig { bins }))
            .collect();
        for pair in reports.windows(2) {
            assert!(
                pair[1].mean_queue_depth <= pair[0].mean_queue_depth + 1e-9,
                "{}: depth must not grow with bins ({} -> {})",
                spec.name,
                pair[0].mean_queue_depth,
                pair[1].mean_queue_depth
            );
        }
        let matched: Vec<u64> = reports
            .iter()
            .map(|r| r.match_stats.matched_on_arrival)
            .collect();
        assert!(
            matched.windows(2).all(|w| w[0] == w[1]),
            "{}: outcome changed",
            spec.name
        );
        let unexpected: Vec<u64> = reports.iter().map(|r| r.match_stats.unexpected).collect();
        assert!(
            unexpected.windows(2).all(|w| w[0] == w[1]),
            "{}: outcome changed",
            spec.name
        );
    }
}

/// Fig. 6 sanity over the whole catalog: the paper observes that most
/// applications rely primarily on p2p, exactly three use p2p exclusively,
/// two (the HILO pair) are collectives-only, and none use one-sided
/// operations.
#[test]
fn catalog_reproduces_figure_6_structure() {
    let reports: Vec<_> = otm_workloads::catalog()
        .into_iter()
        .map(|spec| replay(&(spec.generate)(42), &ReplayConfig { bins: 32 }))
        .collect();
    let p2p_only = reports
        .iter()
        .filter(|r| r.call_dist.p2p_fraction() == 1.0)
        .count();
    let collectives_only = reports
        .iter()
        .filter(|r| r.call_dist.collective_fraction() == 1.0)
        .count();
    let one_sided: u64 = reports.iter().map(|r| r.call_dist.one_sided).sum();
    let p2p_majority = reports
        .iter()
        .filter(|r| r.call_dist.p2p_fraction() > 0.5)
        .count();

    assert_eq!(p2p_only, 3, "three p2p-exclusive applications");
    assert_eq!(collectives_only, 2, "the two HILO variants");
    assert_eq!(one_sided, 0, "no one-sided traffic anywhere");
    assert!(
        p2p_majority >= 10,
        "most applications are p2p-dominated (got {p2p_majority})"
    );
}

/// The Fig. 7 headline: binning collapses queue depth. Across the whole
/// catalog the average must drop by well over half at 32 bins and further
/// at 128.
#[test]
fn binning_collapses_average_queue_depth() {
    let mut avg = [0.0f64; 3];
    let catalog = otm_workloads::catalog();
    for spec in &catalog {
        let trace = (spec.generate)(42);
        for (i, &bins) in [1usize, 32, 128].iter().enumerate() {
            avg[i] += replay(&trace, &ReplayConfig { bins }).mean_queue_depth;
        }
    }
    for a in &mut avg {
        *a /= catalog.len() as f64;
    }
    assert!(
        avg[0] > 1.0,
        "1-bin average should be substantial, got {}",
        avg[0]
    );
    assert!(
        avg[1] < 0.2 * avg[0],
        "32 bins must cut depth by >80% ({} -> {})",
        avg[0],
        avg[1]
    );
    assert!(
        avg[2] < avg[1] + 1e-12,
        "128 bins must not be worse than 32"
    );
}

/// The BoxLib CNS anchor numbers from §V-B: maximum queue depth around 25
/// at one bin, collapsing to a handful at 32 bins and near one at 128.
#[test]
fn boxlib_cns_max_depth_matches_the_paper_shape() {
    let spec = otm_workloads::catalog()
        .into_iter()
        .find(|a| a.name == "BoxLib CNS")
        .unwrap();
    let trace = (spec.generate)(42);
    let d1 = replay(&trace, &ReplayConfig { bins: 1 }).max_queue_depth;
    let d32 = replay(&trace, &ReplayConfig { bins: 32 }).max_queue_depth;
    let d128 = replay(&trace, &ReplayConfig { bins: 128 }).max_queue_depth;
    assert!((20..=30).contains(&d1), "paper: 25, got {d1}");
    assert!(d32 <= 8, "paper: 3, got {d32}");
    assert!(d128 <= 4, "paper: 1, got {d128}");
}
