//! Report formatting: the rows behind Figs. 6 and 7 (the JSON form of a row
//! is [`AppReport`]'s `WriteJson` impl).

use crate::replay::AppReport;

/// One Fig. 6 row: per-application call-type percentages.
pub fn fig6_row(report: &AppReport) -> String {
    format!(
        "{:<18} {:>6} procs | p2p {:>6.1}% | collectives {:>6.1}% | one-sided {:>6.1}%",
        report.name,
        report.processes,
        100.0 * report.call_dist.p2p_fraction(),
        100.0 * report.call_dist.collective_fraction(),
        100.0 * report.call_dist.one_sided_fraction(),
    )
}

/// One Fig. 7 cell: queue depth of an application at one bin count.
pub fn fig7_cell(report: &AppReport) -> String {
    format!(
        "{:<18} bins={:<4} mean depth {:>7.3} | max depth {:>5}",
        report.name, report.bins, report.mean_queue_depth, report.max_queue_depth
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{CallDistribution, TagUsage};
    use mpi_matching::MatchStats;

    /// The Fig. 7 summary line: average queue depth across applications for a
    /// given bin count (the red line of the figure).
    fn fig7_average(reports: &[AppReport]) -> f64 {
        if reports.is_empty() {
            return 0.0;
        }
        reports.iter().map(|r| r.mean_queue_depth).sum::<f64>() / reports.len() as f64
    }

    fn report(name: &str, bins: usize, mean: f64, max: u64) -> AppReport {
        AppReport {
            name: name.into(),
            processes: 64,
            bins,
            call_dist: CallDistribution {
                p2p: 75,
                collective: 25,
                one_sided: 0,
                progress: 10,
            },
            match_stats: MatchStats::new(),
            mean_queue_depth: mean,
            max_queue_depth: max,
            avg_empty_bin_fraction: 0.9,
            tag_usage: TagUsage::default(),
            final_prq: 0,
            final_umq: 0,
            datapoints: 10,
            rank_events: otm_metrics::HistogramSnapshot::empty(),
        }
    }

    #[test]
    fn fig6_row_shows_percentages() {
        let row = fig6_row(&report("LULESH", 1, 0.0, 0));
        assert!(row.contains("LULESH"));
        assert!(row.contains("75.0%"));
        assert!(row.contains("25.0%"));
        assert!(row.contains("0.0%"));
    }

    #[test]
    fn fig7_cell_shows_depths() {
        let cell = fig7_cell(&report("SNAP", 32, 0.8, 3));
        assert!(cell.contains("bins=32"));
        assert!(cell.contains("0.800"));
        assert!(cell.contains("3"));
    }

    /// The golden Fig. 6/7 row: key names, nesting and order as the
    /// harnesses have always written them.
    #[test]
    fn app_report_json_pins_keys_and_order() {
        use otm_metrics::json::{JsonWriter, WriteJson};
        let mut r = report("AMG \"v2\"", 128, 0.5, 2);
        r.match_stats.record_arrival(3, true);
        let mut w = JsonWriter::new();
        r.write_json(&mut w);
        assert_eq!(
            w.finish(),
            concat!(
                r#"{"name":"AMG \"v2\"","processes":64,"bins":128,"#,
                r#""call_dist":{"p2p":75,"collective":25,"one_sided":0,"progress":10},"#,
                r#""match_stats":{"prq_search":{"count":1,"sum":2,"max":2},"#,
                r#""umq_search":{"count":0,"sum":0,"max":0},"matched_on_arrival":1,"#,
                r#""unexpected":0,"matched_on_post":0,"posted":0,"prq_high_water":0,"#,
                r#""umq_high_water":0},"mean_queue_depth":0.5,"max_queue_depth":2,"#,
                r#""avg_empty_bin_fraction":0.9,"tag_usage":{"distinct_tags":0,"#,
                r#""distinct_src_tag_pairs":0,"wildcard_recv_fraction":0},"#,
                r#""final_prq":0,"final_umq":0,"datapoints":10}"#
            )
        );
    }

    #[test]
    fn fig7_average_is_the_mean_over_apps() {
        let reports = vec![report("a", 1, 4.0, 9), report("b", 1, 12.0, 30)];
        assert!((fig7_average(&reports) - 8.0).abs() < 1e-12);
        assert_eq!(fig7_average(&[]), 0.0);
    }
}
