//! The Fig. 6/7 analyzer's output, pinned: the `AppReport` JSON of every
//! Table II application (seed 42) at 1, 32 and 128 bins, recorded from the
//! analyzer's earlier stand-alone four-index emulation and never edited.
//! The replay now drives the real engine (`otm::SequentialOtm`) rank by
//! rank; every call count, tag statistic, search depth, high-water mark,
//! empty-bin fraction and final queue length must come out byte for byte
//! the same.
//!
//! The order the analyzer replays in is `AppTrace::split`'s: on every
//! application it equals the whole trace merged (`AppTrace::merged_ops`,
//! the split's reference) and redistributed to the ranks.

use otm_base::Rank;
use otm_metrics::json::{JsonWriter, WriteJson};
use otm_trace::{replay, MpiOp, ReplayConfig, TimedOp};

/// `(application, bins, AppReport JSON)`, in catalog order.
const GOLDEN: [(&str, usize, &str); 48] = [
    (
        "AMG",
        1,
        r#"{"name":"AMG","processes":8,"bins":1,"call_dist":{"p2p":816,"collective":48,"one_sided":0,"progress":84},"match_stats":{"prq_search":{"count":408,"sum":366,"max":4},"umq_search":{"count":408,"sum":0,"max":0},"matched_on_arrival":408,"unexpected":0,"matched_on_post":0,"posted":408,"prq_high_water":6,"umq_high_water":0},"mean_queue_depth":0.4485294117647059,"max_queue_depth":4,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":18,"distinct_src_tag_pairs":84,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":84}"#,
    ),
    (
        "AMG",
        32,
        r#"{"name":"AMG","processes":8,"bins":32,"call_dist":{"p2p":816,"collective":48,"one_sided":0,"progress":84},"match_stats":{"prq_search":{"count":408,"sum":12,"max":2},"umq_search":{"count":408,"sum":0,"max":0},"matched_on_arrival":408,"unexpected":0,"matched_on_post":0,"posted":408,"prq_high_water":6,"umq_high_water":0},"mean_queue_depth":0.014705882352941176,"max_queue_depth":2,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":18,"distinct_src_tag_pairs":84,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":84}"#,
    ),
    (
        "AMG",
        128,
        r#"{"name":"AMG","processes":8,"bins":128,"call_dist":{"p2p":816,"collective":48,"one_sided":0,"progress":84},"match_stats":{"prq_search":{"count":408,"sum":8,"max":2},"umq_search":{"count":408,"sum":0,"max":0},"matched_on_arrival":408,"unexpected":0,"matched_on_post":0,"posted":408,"prq_high_water":6,"umq_high_water":0},"mean_queue_depth":0.00980392156862745,"max_queue_depth":2,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":18,"distinct_src_tag_pairs":84,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":84}"#,
    ),
    (
        "AMR MiniApp",
        1,
        r#"{"name":"AMR MiniApp","processes":64,"bins":1,"call_dist":{"p2p":1616,"collective":64,"one_sided":0,"progress":192},"match_stats":{"prq_search":{"count":808,"sum":957,"max":5},"umq_search":{"count":808,"sum":5,"max":2},"matched_on_arrival":768,"unexpected":40,"matched_on_post":40,"posted":768,"prq_high_water":6,"umq_high_water":3},"mean_queue_depth":0.5952970297029703,"max_queue_depth":5,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":32,"distinct_src_tag_pairs":788,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":192}"#,
    ),
    (
        "AMR MiniApp",
        32,
        r#"{"name":"AMR MiniApp","processes":64,"bins":32,"call_dist":{"p2p":1616,"collective":64,"one_sided":0,"progress":192},"match_stats":{"prq_search":{"count":808,"sum":19,"max":2},"umq_search":{"count":808,"sum":0,"max":0},"matched_on_arrival":768,"unexpected":40,"matched_on_post":40,"posted":768,"prq_high_water":6,"umq_high_water":3},"mean_queue_depth":0.011757425742574257,"max_queue_depth":2,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":32,"distinct_src_tag_pairs":788,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":192}"#,
    ),
    (
        "AMR MiniApp",
        128,
        r#"{"name":"AMR MiniApp","processes":64,"bins":128,"call_dist":{"p2p":1616,"collective":64,"one_sided":0,"progress":192},"match_stats":{"prq_search":{"count":808,"sum":2,"max":1},"umq_search":{"count":808,"sum":0,"max":0},"matched_on_arrival":768,"unexpected":40,"matched_on_post":40,"posted":768,"prq_high_water":6,"umq_high_water":3},"mean_queue_depth":0.0012376237623762376,"max_queue_depth":1,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":32,"distinct_src_tag_pairs":788,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":192}"#,
    ),
    (
        "BigFFT",
        1,
        r#"{"name":"BigFFT","processes":1024,"bins":1,"call_dist":{"p2p":126976,"collective":0,"one_sided":0,"progress":2048},"match_stats":{"prq_search":{"count":63488,"sum":634880,"max":30},"umq_search":{"count":63488,"sum":0,"max":0},"matched_on_arrival":63488,"unexpected":0,"matched_on_post":0,"posted":63488,"prq_high_water":31,"umq_high_water":0},"mean_queue_depth":5,"max_queue_depth":30,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":2,"distinct_src_tag_pairs":2048,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":2048}"#,
    ),
    (
        "BigFFT",
        32,
        r#"{"name":"BigFFT","processes":1024,"bins":32,"call_dist":{"p2p":126976,"collective":0,"one_sided":0,"progress":2048},"match_stats":{"prq_search":{"count":63488,"sum":19742,"max":5},"umq_search":{"count":63488,"sum":0,"max":0},"matched_on_arrival":63488,"unexpected":0,"matched_on_post":0,"posted":63488,"prq_high_water":31,"umq_high_water":0},"mean_queue_depth":0.15547820060483872,"max_queue_depth":5,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":2,"distinct_src_tag_pairs":2048,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":2048}"#,
    ),
    (
        "BigFFT",
        128,
        r#"{"name":"BigFFT","processes":1024,"bins":128,"call_dist":{"p2p":126976,"collective":0,"one_sided":0,"progress":2048},"match_stats":{"prq_search":{"count":63488,"sum":4647,"max":3},"umq_search":{"count":63488,"sum":0,"max":0},"matched_on_arrival":63488,"unexpected":0,"matched_on_post":0,"posted":63488,"prq_high_water":31,"umq_high_water":0},"mean_queue_depth":0.036597467237903226,"max_queue_depth":3,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":2,"distinct_src_tag_pairs":2048,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":2048}"#,
    ),
    (
        "BoxLib CNS",
        1,
        r#"{"name":"BoxLib CNS","processes":64,"bins":1,"call_dist":{"p2p":49920,"collective":320,"one_sided":0,"progress":960},"match_stats":{"prq_search":{"count":24960,"sum":151821,"max":25},"umq_search":{"count":24960,"sum":0,"max":0},"matched_on_arrival":24960,"unexpected":0,"matched_on_post":0,"posted":24960,"prq_high_water":26,"umq_high_water":0},"mean_queue_depth":3.0412860576923078,"max_queue_depth":25,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":3,"distinct_src_tag_pairs":192,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":960}"#,
    ),
    (
        "BoxLib CNS",
        32,
        r#"{"name":"BoxLib CNS","processes":64,"bins":32,"call_dist":{"p2p":49920,"collective":320,"one_sided":0,"progress":960},"match_stats":{"prq_search":{"count":24960,"sum":5226,"max":5},"umq_search":{"count":24960,"sum":0,"max":0},"matched_on_arrival":24960,"unexpected":0,"matched_on_post":0,"posted":24960,"prq_high_water":26,"umq_high_water":0},"mean_queue_depth":0.1046875,"max_queue_depth":5,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":3,"distinct_src_tag_pairs":192,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":960}"#,
    ),
    (
        "BoxLib CNS",
        128,
        r#"{"name":"BoxLib CNS","processes":64,"bins":128,"call_dist":{"p2p":49920,"collective":320,"one_sided":0,"progress":960},"match_stats":{"prq_search":{"count":24960,"sum":1215,"max":2},"umq_search":{"count":24960,"sum":0,"max":0},"matched_on_arrival":24960,"unexpected":0,"matched_on_post":0,"posted":24960,"prq_high_water":26,"umq_high_water":0},"mean_queue_depth":0.024338942307692308,"max_queue_depth":2,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":3,"distinct_src_tag_pairs":192,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":960}"#,
    ),
    (
        "BoxLib MultiGrid",
        1,
        r#"{"name":"BoxLib MultiGrid","processes":64,"bins":1,"call_dist":{"p2p":1552,"collective":64,"one_sided":0,"progress":176},"match_stats":{"prq_search":{"count":776,"sum":272,"max":1},"umq_search":{"count":776,"sum":0,"max":0},"matched_on_arrival":720,"unexpected":56,"matched_on_post":56,"posted":720,"prq_high_water":6,"umq_high_water":1},"mean_queue_depth":0.17525773195876287,"max_queue_depth":1,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":7,"distinct_src_tag_pairs":176,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":176}"#,
    ),
    (
        "BoxLib MultiGrid",
        32,
        r#"{"name":"BoxLib MultiGrid","processes":64,"bins":32,"call_dist":{"p2p":1552,"collective":64,"one_sided":0,"progress":176},"match_stats":{"prq_search":{"count":776,"sum":6,"max":1},"umq_search":{"count":776,"sum":0,"max":0},"matched_on_arrival":720,"unexpected":56,"matched_on_post":56,"posted":720,"prq_high_water":6,"umq_high_water":1},"mean_queue_depth":0.003865979381443299,"max_queue_depth":1,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":7,"distinct_src_tag_pairs":176,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":176}"#,
    ),
    (
        "BoxLib MultiGrid",
        128,
        r#"{"name":"BoxLib MultiGrid","processes":64,"bins":128,"call_dist":{"p2p":1552,"collective":64,"one_sided":0,"progress":176},"match_stats":{"prq_search":{"count":776,"sum":2,"max":1},"umq_search":{"count":776,"sum":0,"max":0},"matched_on_arrival":720,"unexpected":56,"matched_on_post":56,"posted":720,"prq_high_water":6,"umq_high_water":1},"mean_queue_depth":0.001288659793814433,"max_queue_depth":1,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":7,"distinct_src_tag_pairs":176,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":176}"#,
    ),
    (
        "CrystalRouter",
        1,
        r#"{"name":"CrystalRouter","processes":100,"bins":1,"call_dist":{"p2p":3792,"collective":0,"one_sided":0,"progress":1896},"match_stats":{"prq_search":{"count":1896,"sum":0,"max":0},"umq_search":{"count":1896,"sum":0,"max":0},"matched_on_arrival":1896,"unexpected":0,"matched_on_post":0,"posted":1896,"prq_high_water":1,"umq_high_water":0},"mean_queue_depth":0,"max_queue_depth":0,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":21,"distinct_src_tag_pairs":1896,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":1896}"#,
    ),
    (
        "CrystalRouter",
        32,
        r#"{"name":"CrystalRouter","processes":100,"bins":32,"call_dist":{"p2p":3792,"collective":0,"one_sided":0,"progress":1896},"match_stats":{"prq_search":{"count":1896,"sum":0,"max":0},"umq_search":{"count":1896,"sum":0,"max":0},"matched_on_arrival":1896,"unexpected":0,"matched_on_post":0,"posted":1896,"prq_high_water":1,"umq_high_water":0},"mean_queue_depth":0,"max_queue_depth":0,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":21,"distinct_src_tag_pairs":1896,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":1896}"#,
    ),
    (
        "CrystalRouter",
        128,
        r#"{"name":"CrystalRouter","processes":100,"bins":128,"call_dist":{"p2p":3792,"collective":0,"one_sided":0,"progress":1896},"match_stats":{"prq_search":{"count":1896,"sum":0,"max":0},"umq_search":{"count":1896,"sum":0,"max":0},"matched_on_arrival":1896,"unexpected":0,"matched_on_post":0,"posted":1896,"prq_high_water":1,"umq_high_water":0},"mean_queue_depth":0,"max_queue_depth":0,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":21,"distinct_src_tag_pairs":1896,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":1896}"#,
    ),
    (
        "FillBoundary",
        1,
        r#"{"name":"FillBoundary","processes":1000,"bins":1,"call_dist":{"p2p":48000,"collective":0,"one_sided":0,"progress":1000},"match_stats":{"prq_search":{"count":24000,"sum":137944,"max":23},"umq_search":{"count":24000,"sum":0,"max":0},"matched_on_arrival":24000,"unexpected":0,"matched_on_post":0,"posted":24000,"prq_high_water":24,"umq_high_water":0},"mean_queue_depth":2.8738333333333332,"max_queue_depth":23,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":24,"distinct_src_tag_pairs":24000,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":1000}"#,
    ),
    (
        "FillBoundary",
        32,
        r#"{"name":"FillBoundary","processes":1000,"bins":32,"call_dist":{"p2p":48000,"collective":0,"one_sided":0,"progress":1000},"match_stats":{"prq_search":{"count":24000,"sum":4411,"max":4},"umq_search":{"count":24000,"sum":0,"max":0},"matched_on_arrival":24000,"unexpected":0,"matched_on_post":0,"posted":24000,"prq_high_water":24,"umq_high_water":0},"mean_queue_depth":0.09189583333333333,"max_queue_depth":4,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":24,"distinct_src_tag_pairs":24000,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":1000}"#,
    ),
    (
        "FillBoundary",
        128,
        r#"{"name":"FillBoundary","processes":1000,"bins":128,"call_dist":{"p2p":48000,"collective":0,"one_sided":0,"progress":1000},"match_stats":{"prq_search":{"count":24000,"sum":1122,"max":3},"umq_search":{"count":24000,"sum":0,"max":0},"matched_on_arrival":24000,"unexpected":0,"matched_on_post":0,"posted":24000,"prq_high_water":24,"umq_high_water":0},"mean_queue_depth":0.023375,"max_queue_depth":3,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":24,"distinct_src_tag_pairs":24000,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":1000}"#,
    ),
    (
        "HILO",
        1,
        r#"{"name":"HILO","processes":256,"bins":1,"call_dist":{"p2p":0,"collective":9216,"one_sided":0,"progress":0},"match_stats":{"prq_search":{"count":0,"sum":0,"max":0},"umq_search":{"count":0,"sum":0,"max":0},"matched_on_arrival":0,"unexpected":0,"matched_on_post":0,"posted":0,"prq_high_water":0,"umq_high_water":0},"mean_queue_depth":0,"max_queue_depth":0,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":0,"distinct_src_tag_pairs":0,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":0}"#,
    ),
    (
        "HILO",
        32,
        r#"{"name":"HILO","processes":256,"bins":32,"call_dist":{"p2p":0,"collective":9216,"one_sided":0,"progress":0},"match_stats":{"prq_search":{"count":0,"sum":0,"max":0},"umq_search":{"count":0,"sum":0,"max":0},"matched_on_arrival":0,"unexpected":0,"matched_on_post":0,"posted":0,"prq_high_water":0,"umq_high_water":0},"mean_queue_depth":0,"max_queue_depth":0,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":0,"distinct_src_tag_pairs":0,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":0}"#,
    ),
    (
        "HILO",
        128,
        r#"{"name":"HILO","processes":256,"bins":128,"call_dist":{"p2p":0,"collective":9216,"one_sided":0,"progress":0},"match_stats":{"prq_search":{"count":0,"sum":0,"max":0},"umq_search":{"count":0,"sum":0,"max":0},"matched_on_arrival":0,"unexpected":0,"matched_on_post":0,"posted":0,"prq_high_water":0,"umq_high_water":0},"mean_queue_depth":0,"max_queue_depth":0,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":0,"distinct_src_tag_pairs":0,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":0}"#,
    ),
    (
        "HILO 2D",
        1,
        r#"{"name":"HILO 2D","processes":256,"bins":1,"call_dist":{"p2p":0,"collective":8960,"one_sided":0,"progress":0},"match_stats":{"prq_search":{"count":0,"sum":0,"max":0},"umq_search":{"count":0,"sum":0,"max":0},"matched_on_arrival":0,"unexpected":0,"matched_on_post":0,"posted":0,"prq_high_water":0,"umq_high_water":0},"mean_queue_depth":0,"max_queue_depth":0,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":0,"distinct_src_tag_pairs":0,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":0}"#,
    ),
    (
        "HILO 2D",
        32,
        r#"{"name":"HILO 2D","processes":256,"bins":32,"call_dist":{"p2p":0,"collective":8960,"one_sided":0,"progress":0},"match_stats":{"prq_search":{"count":0,"sum":0,"max":0},"umq_search":{"count":0,"sum":0,"max":0},"matched_on_arrival":0,"unexpected":0,"matched_on_post":0,"posted":0,"prq_high_water":0,"umq_high_water":0},"mean_queue_depth":0,"max_queue_depth":0,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":0,"distinct_src_tag_pairs":0,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":0}"#,
    ),
    (
        "HILO 2D",
        128,
        r#"{"name":"HILO 2D","processes":256,"bins":128,"call_dist":{"p2p":0,"collective":8960,"one_sided":0,"progress":0},"match_stats":{"prq_search":{"count":0,"sum":0,"max":0},"umq_search":{"count":0,"sum":0,"max":0},"matched_on_arrival":0,"unexpected":0,"matched_on_post":0,"posted":0,"prq_high_water":0,"umq_high_water":0},"mean_queue_depth":0,"max_queue_depth":0,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":0,"distinct_src_tag_pairs":0,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":0}"#,
    ),
    (
        "LULESH",
        1,
        r#"{"name":"LULESH","processes":64,"bins":1,"call_dist":{"p2p":79872,"collective":512,"one_sided":0,"progress":512},"match_stats":{"prq_search":{"count":39936,"sum":762544,"max":74},"umq_search":{"count":39936,"sum":0,"max":0},"matched_on_arrival":39936,"unexpected":0,"matched_on_post":0,"posted":39936,"prq_high_water":78,"umq_high_water":0},"mean_queue_depth":9.547075320512821,"max_queue_depth":74,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":78,"distinct_src_tag_pairs":4992,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":512}"#,
    ),
    (
        "LULESH",
        32,
        r#"{"name":"LULESH","processes":64,"bins":32,"call_dist":{"p2p":79872,"collective":512,"one_sided":0,"progress":512},"match_stats":{"prq_search":{"count":39936,"sum":23560,"max":6},"umq_search":{"count":39936,"sum":0,"max":0},"matched_on_arrival":39936,"unexpected":0,"matched_on_post":0,"posted":39936,"prq_high_water":78,"umq_high_water":0},"mean_queue_depth":0.2949719551282051,"max_queue_depth":6,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":78,"distinct_src_tag_pairs":4992,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":512}"#,
    ),
    (
        "LULESH",
        128,
        r#"{"name":"LULESH","processes":64,"bins":128,"call_dist":{"p2p":79872,"collective":512,"one_sided":0,"progress":512},"match_stats":{"prq_search":{"count":39936,"sum":5808,"max":4},"umq_search":{"count":39936,"sum":0,"max":0},"matched_on_arrival":39936,"unexpected":0,"matched_on_post":0,"posted":39936,"prq_high_water":78,"umq_high_water":0},"mean_queue_depth":0.07271634615384616,"max_queue_depth":4,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":78,"distinct_src_tag_pairs":4992,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":512}"#,
    ),
    (
        "MiniFe",
        1,
        r#"{"name":"MiniFe","processes":1152,"bins":1,"call_dist":{"p2p":82944,"collective":13824,"one_sided":0,"progress":6912},"match_stats":{"prq_search":{"count":41472,"sum":52906,"max":5},"umq_search":{"count":41472,"sum":0,"max":0},"matched_on_arrival":41472,"unexpected":0,"matched_on_post":0,"posted":41472,"prq_high_water":6,"umq_high_water":0},"mean_queue_depth":0.6378520447530864,"max_queue_depth":5,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":36,"distinct_src_tag_pairs":41472,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":6912}"#,
    ),
    (
        "MiniFe",
        32,
        r#"{"name":"MiniFe","processes":1152,"bins":32,"call_dist":{"p2p":82944,"collective":13824,"one_sided":0,"progress":6912},"match_stats":{"prq_search":{"count":41472,"sum":1632,"max":2},"umq_search":{"count":41472,"sum":0,"max":0},"matched_on_arrival":41472,"unexpected":0,"matched_on_post":0,"posted":41472,"prq_high_water":6,"umq_high_water":0},"mean_queue_depth":0.019675925925925927,"max_queue_depth":2,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":36,"distinct_src_tag_pairs":41472,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":6912}"#,
    ),
    (
        "MiniFe",
        128,
        r#"{"name":"MiniFe","processes":1152,"bins":128,"call_dist":{"p2p":82944,"collective":13824,"one_sided":0,"progress":6912},"match_stats":{"prq_search":{"count":41472,"sum":378,"max":2},"umq_search":{"count":41472,"sum":0,"max":0},"matched_on_arrival":41472,"unexpected":0,"matched_on_post":0,"posted":41472,"prq_high_water":6,"umq_high_water":0},"mean_queue_depth":0.004557291666666667,"max_queue_depth":2,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":36,"distinct_src_tag_pairs":41472,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":6912}"#,
    ),
    (
        "MOCFE",
        1,
        r#"{"name":"MOCFE","processes":64,"bins":1,"call_dist":{"p2p":1392,"collective":256,"one_sided":0,"progress":768},"match_stats":{"prq_search":{"count":696,"sum":7812,"max":62},"umq_search":{"count":696,"sum":0,"max":0},"matched_on_arrival":696,"unexpected":0,"matched_on_post":0,"posted":696,"prq_high_water":63,"umq_high_water":0},"mean_queue_depth":5.612068965517241,"max_queue_depth":62,"avg_empty_bin_fraction":0.9947916666666666,"tag_usage":{"distinct_tags":12,"distinct_src_tag_pairs":696,"wildcard_recv_fraction":0.3620689655172414},"final_prq":0,"final_umq":0,"datapoints":768}"#,
    ),
    (
        "MOCFE",
        32,
        r#"{"name":"MOCFE","processes":64,"bins":32,"call_dist":{"p2p":1392,"collective":256,"one_sided":0,"progress":768},"match_stats":{"prq_search":{"count":696,"sum":246,"max":5},"umq_search":{"count":696,"sum":0,"max":0},"matched_on_arrival":696,"unexpected":0,"matched_on_post":0,"posted":696,"prq_high_water":63,"umq_high_water":0},"mean_queue_depth":0.17672413793103448,"max_queue_depth":5,"avg_empty_bin_fraction":0.99560546875,"tag_usage":{"distinct_tags":12,"distinct_src_tag_pairs":696,"wildcard_recv_fraction":0.3620689655172414},"final_prq":0,"final_umq":0,"datapoints":768}"#,
    ),
    (
        "MOCFE",
        128,
        r#"{"name":"MOCFE","processes":64,"bins":128,"call_dist":{"p2p":1392,"collective":256,"one_sided":0,"progress":768},"match_stats":{"prq_search":{"count":696,"sum":56,"max":3},"umq_search":{"count":696,"sum":0,"max":0},"matched_on_arrival":696,"unexpected":0,"matched_on_post":0,"posted":696,"prq_high_water":63,"umq_high_water":0},"mean_queue_depth":0.040229885057471264,"max_queue_depth":3,"avg_empty_bin_fraction":0.997894287109375,"tag_usage":{"distinct_tags":12,"distinct_src_tag_pairs":696,"wildcard_recv_fraction":0.3620689655172414},"final_prq":0,"final_umq":0,"datapoints":768}"#,
    ),
    (
        "MultiGrid",
        1,
        r#"{"name":"MultiGrid","processes":1000,"bins":1,"call_dist":{"p2p":51600,"collective":2000,"one_sided":0,"progress":5944},"match_stats":{"prq_search":{"count":25800,"sum":11788,"max":1},"umq_search":{"count":25800,"sum":0,"max":0},"matched_on_arrival":23832,"unexpected":1968,"matched_on_post":1968,"posted":23832,"prq_high_water":6,"umq_high_water":1},"mean_queue_depth":0.22844961240310077,"max_queue_depth":1,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":26,"distinct_src_tag_pairs":5940,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":5944}"#,
    ),
    (
        "MultiGrid",
        32,
        r#"{"name":"MultiGrid","processes":1000,"bins":32,"call_dist":{"p2p":51600,"collective":2000,"one_sided":0,"progress":5944},"match_stats":{"prq_search":{"count":25800,"sum":375,"max":1},"umq_search":{"count":25800,"sum":0,"max":0},"matched_on_arrival":23832,"unexpected":1968,"matched_on_post":1968,"posted":23832,"prq_high_water":6,"umq_high_water":1},"mean_queue_depth":0.007267441860465116,"max_queue_depth":1,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":26,"distinct_src_tag_pairs":5940,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":5944}"#,
    ),
    (
        "MultiGrid",
        128,
        r#"{"name":"MultiGrid","processes":1000,"bins":128,"call_dist":{"p2p":51600,"collective":2000,"one_sided":0,"progress":5944},"match_stats":{"prq_search":{"count":25800,"sum":73,"max":1},"umq_search":{"count":25800,"sum":0,"max":0},"matched_on_arrival":23832,"unexpected":1968,"matched_on_post":1968,"posted":23832,"prq_high_water":6,"umq_high_water":1},"mean_queue_depth":0.0014147286821705426,"max_queue_depth":1,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":26,"distinct_src_tag_pairs":5940,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":5944}"#,
    ),
    (
        "Nekbone",
        1,
        r#"{"name":"Nekbone","processes":64,"bins":1,"call_dist":{"p2p":7680,"collective":320,"one_sided":0,"progress":640},"match_stats":{"prq_search":{"count":3840,"sum":4724,"max":5},"umq_search":{"count":3840,"sum":0,"max":0},"matched_on_arrival":3840,"unexpected":0,"matched_on_post":0,"posted":3840,"prq_high_water":6,"umq_high_water":0},"mean_queue_depth":0.6151041666666667,"max_queue_depth":5,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":60,"distinct_src_tag_pairs":3840,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":640}"#,
    ),
    (
        "Nekbone",
        32,
        r#"{"name":"Nekbone","processes":64,"bins":32,"call_dist":{"p2p":7680,"collective":320,"one_sided":0,"progress":640},"match_stats":{"prq_search":{"count":3840,"sum":144,"max":2},"umq_search":{"count":3840,"sum":0,"max":0},"matched_on_arrival":3840,"unexpected":0,"matched_on_post":0,"posted":3840,"prq_high_water":6,"umq_high_water":0},"mean_queue_depth":0.01875,"max_queue_depth":2,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":60,"distinct_src_tag_pairs":3840,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":640}"#,
    ),
    (
        "Nekbone",
        128,
        r#"{"name":"Nekbone","processes":64,"bins":128,"call_dist":{"p2p":7680,"collective":320,"one_sided":0,"progress":640},"match_stats":{"prq_search":{"count":3840,"sum":31,"max":1},"umq_search":{"count":3840,"sum":0,"max":0},"matched_on_arrival":3840,"unexpected":0,"matched_on_post":0,"posted":3840,"prq_high_water":6,"umq_high_water":0},"mean_queue_depth":0.004036458333333334,"max_queue_depth":1,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":60,"distinct_src_tag_pairs":3840,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":640}"#,
    ),
    (
        "PARTISN",
        1,
        r#"{"name":"PARTISN","processes":168,"bins":1,"call_dist":{"p2p":4960,"collective":336,"one_sided":0,"progress":1344},"match_stats":{"prq_search":{"count":2480,"sum":52,"max":1},"umq_search":{"count":2480,"sum":0,"max":0},"matched_on_arrival":2480,"unexpected":0,"matched_on_post":0,"posted":2480,"prq_high_water":2,"umq_high_water":0},"mean_queue_depth":0.010483870967741936,"max_queue_depth":1,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":8,"distinct_src_tag_pairs":1336,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":1344}"#,
    ),
    (
        "PARTISN",
        32,
        r#"{"name":"PARTISN","processes":168,"bins":32,"call_dist":{"p2p":4960,"collective":336,"one_sided":0,"progress":1344},"match_stats":{"prq_search":{"count":2480,"sum":0,"max":0},"umq_search":{"count":2480,"sum":0,"max":0},"matched_on_arrival":2480,"unexpected":0,"matched_on_post":0,"posted":2480,"prq_high_water":2,"umq_high_water":0},"mean_queue_depth":0,"max_queue_depth":0,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":8,"distinct_src_tag_pairs":1336,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":1344}"#,
    ),
    (
        "PARTISN",
        128,
        r#"{"name":"PARTISN","processes":168,"bins":128,"call_dist":{"p2p":4960,"collective":336,"one_sided":0,"progress":1344},"match_stats":{"prq_search":{"count":2480,"sum":0,"max":0},"umq_search":{"count":2480,"sum":0,"max":0},"matched_on_arrival":2480,"unexpected":0,"matched_on_post":0,"posted":2480,"prq_high_water":2,"umq_high_water":0},"mean_queue_depth":0,"max_queue_depth":0,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":8,"distinct_src_tag_pairs":1336,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":1344}"#,
    ),
    (
        "SNAP",
        1,
        r#"{"name":"SNAP","processes":168,"bins":1,"call_dist":{"p2p":7440,"collective":504,"one_sided":0,"progress":2016},"match_stats":{"prq_search":{"count":3720,"sum":78,"max":1},"umq_search":{"count":3720,"sum":0,"max":0},"matched_on_arrival":3720,"unexpected":0,"matched_on_post":0,"posted":3720,"prq_high_water":2,"umq_high_water":0},"mean_queue_depth":0.010483870967741936,"max_queue_depth":1,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":12,"distinct_src_tag_pairs":2004,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":2016}"#,
    ),
    (
        "SNAP",
        32,
        r#"{"name":"SNAP","processes":168,"bins":32,"call_dist":{"p2p":7440,"collective":504,"one_sided":0,"progress":2016},"match_stats":{"prq_search":{"count":3720,"sum":0,"max":0},"umq_search":{"count":3720,"sum":0,"max":0},"matched_on_arrival":3720,"unexpected":0,"matched_on_post":0,"posted":3720,"prq_high_water":2,"umq_high_water":0},"mean_queue_depth":0,"max_queue_depth":0,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":12,"distinct_src_tag_pairs":2004,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":2016}"#,
    ),
    (
        "SNAP",
        128,
        r#"{"name":"SNAP","processes":168,"bins":128,"call_dist":{"p2p":7440,"collective":504,"one_sided":0,"progress":2016},"match_stats":{"prq_search":{"count":3720,"sum":0,"max":0},"umq_search":{"count":3720,"sum":0,"max":0},"matched_on_arrival":3720,"unexpected":0,"matched_on_post":0,"posted":3720,"prq_high_water":2,"umq_high_water":0},"mean_queue_depth":0,"max_queue_depth":0,"avg_empty_bin_fraction":1,"tag_usage":{"distinct_tags":12,"distinct_src_tag_pairs":2004,"wildcard_recv_fraction":0},"final_prq":0,"final_umq":0,"datapoints":2016}"#,
    ),
];

#[test]
fn replay_reports_equal_the_recorded_analyzer_output() {
    let catalog = otm_workloads::catalog();
    let mut golden = GOLDEN.iter();
    for spec in &catalog {
        let trace = (spec.generate)(42);
        for bins in [1usize, 32, 128] {
            let &(name, golden_bins, expect) = golden.next().expect("48 recorded reports");
            assert_eq!((name, golden_bins), (spec.name, bins), "catalog order");
            let mut w = JsonWriter::new();
            replay(&trace, &ReplayConfig { bins }).write_json(&mut w);
            assert_eq!(w.finish(), expect, "{name} at {bins} bins");
        }
    }
    assert!(
        golden.next().is_none(),
        "every recorded report was replayed"
    );
}

/// The rank an operation of `rank` feeds in the analyzer: a receive or a
/// progress point its own, a send its destination's below `n`.
fn route(rank: Rank, t: &TimedOp, n: usize) -> Option<usize> {
    match t.op {
        MpiOp::Irecv { .. } | MpiOp::Recv { .. } | MpiOp::Wait { .. } | MpiOp::Waitall { .. } => {
            Some(rank.0 as usize)
        }
        MpiOp::Isend { dest, .. } | MpiOp::Send { dest, .. } => {
            Some(dest.0 as usize).filter(|&dest| dest < n)
        }
        MpiOp::Collective { .. } | MpiOp::OneSided { .. } => None,
    }
}

#[test]
fn the_split_equals_merged_ops_redistributed_on_every_catalog_app() {
    for spec in otm_workloads::catalog() {
        let trace = (spec.generate)(42);
        let n = trace.processes();
        let seen = |rank: Rank, t: &TimedOp| (rank, t.time.to_bits(), t.op);
        let split = trace.split(n, |rank, t| route(rank, t, n), |_, rank, t| seen(rank, t));
        let mut merged = vec![Vec::new(); n];
        for (rank, t) in trace.merged_ops() {
            if let Some(dest) = route(rank, &t, n) {
                merged[dest].push(seen(rank, &t));
            }
        }
        assert_eq!(split, merged, "{}", spec.name);
    }
}
