//! The metric catalogue and the three renderings of a run: a table for
//! people, a result file for `--check`, and the contract's last line.

use crate::stats::Summary;
use otm_metrics::json::JsonWriter;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How a value behaves from run to run, which decides how `--check`
/// compares it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Derived from a clock: compared against a bound, never for equality.
    Timed,
    /// Driven by the seed and the poll-count virtual clock alone: repeats
    /// exactly for a seed, compared for equality.
    Exact,
    /// A count that depends on how the engine's threads interleave.
    Racy,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Timed => "timed",
            Kind::Exact => "exact",
            Kind::Racy => "racy",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// Share of the baseline's median by which the metric may get worse;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    kind: Kind,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, kind: Kind) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind,
        bound: None,
    }
}

use Better::{Higher, Lower};
use Kind::{Exact, Racy, Timed};

/// What a user of the system sees; measured with tracing off.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("msg_rate", "msgs/s", Higher, Timed, 0.25),
    e2e("cpu_us_per_msg", "us", Lower, Timed, 0.25),
    e2e("wire_packets_per_msg", "ratio", Lower, Exact, 0.01),
    e2e("peak_rss_mb", "MiB", Lower, Timed, 0.25),
    e2e("setup_s", "s", Lower, Timed, 0.25),
];

/// One layer each; measured in the traced run. A metric that does not apply
/// to a workload (the call timers and rungs on `app_*`, the construction
/// probes on `stream_*`) reads 0 there.
pub const PER_LAYER: [MetricDef; 61] = [
    // Call timers around the stream driver's calls into each layer.
    layer("rdma.packet_build_ns_per_msg", "ns", Lower, Timed),
    layer("reliable.send_ns_per_msg", "ns", Lower, Timed),
    layer("reliable.poll_ns_per_msg", "ns", Lower, Timed),
    layer("service.post_ns_per_msg", "ns", Lower, Timed),
    layer("service.progress_ns_per_msg", "ns", Lower, Timed),
    layer("service.take_completed_ns_per_msg", "ns", Lower, Timed),
    layer("driver.self_ns_per_msg", "ns", Lower, Timed),
    layer("driver.trace_overhead_pct", "%", Lower, Timed),
    layer("driver.latency_p50_us", "us", Lower, Timed),
    layer("driver.latency_p99_us", "us", Lower, Timed),
    layer("driver.latency_max_us", "us", Lower, Timed),
    layer("service.progress_calls_per_msg", "ratio", Lower, Exact),
    layer("service.empty_progress_share", "ratio", Lower, Exact),
    // Ladder rungs.
    layer("ladder.block_ns_per_msg", "ns", Lower, Timed),
    layer("ladder.block_1lane_ns_per_msg", "ns", Lower, Timed),
    layer("ladder.queue_ns_per_msg", "ns", Lower, Timed),
    layer("ladder.nic_ns_per_msg", "ns", Lower, Timed),
    layer("ladder.reliable_nic_ns_per_msg", "ns", Lower, Timed),
    layer("ladder.service_rdma_cpu_ns_per_msg", "ns", Lower, Timed),
    layer("ladder.service_mpi_cpu_ns_per_msg", "ns", Lower, Timed),
    layer("ladder.service_otm_ns_per_msg", "ns", Lower, Timed),
    layer("ladder.unexplained_ns_per_msg", "ns", Lower, Timed),
    layer("ladder.otm_over_mpi_cpu", "ratio", Lower, Timed),
    layer("ladder.otm_over_rdma_cpu", "ratio", Lower, Timed),
    // Counts through public accessors.
    layer("reliable.retransmits", "count", Lower, Exact),
    layer("reliable.fast_retransmits", "count", Lower, Exact),
    layer("reliable.acks_received", "count", Lower, Exact),
    layer("reliable.backoff_polls", "count", Lower, Exact),
    layer("nic.wire_drops", "count", Lower, Exact),
    layer("nic.wire_duplicates", "count", Lower, Exact),
    layer("nic.wire_reorders", "count", Lower, Exact),
    layer("nic.rx_duplicates", "count", Lower, Exact),
    layer("nic.rx_gaps", "count", Lower, Exact),
    layer("nic.staged_out_of_order", "count", Lower, Exact),
    layer("nic.stage_overflow", "count", Lower, Exact),
    layer("nic.acks_sent", "count", Lower, Exact),
    layer("nic.gate_parked_share", "ratio", Lower, Exact),
    layer("service.polls", "count", Lower, Exact),
    layer("service.fallbacks", "count", Lower, Exact),
    layer("service.ring_backpressure", "count", Lower, Exact),
    layer("service.drain_retries", "count", Lower, Exact),
    layer("service.knob_changes", "count", Lower, Exact),
    layer("block.blocks", "count", Lower, Exact),
    layer("block.mean_occupancy", "msgs", Higher, Exact),
    layer("block.path_nc_share", "ratio", Higher, Racy),
    layer("block.path_wc_fp_share", "ratio", Higher, Racy),
    layer("block.path_wc_sp_share", "ratio", Lower, Racy),
    layer("block.unexpected_share", "ratio", Lower, Exact),
    layer("block.matched_on_post_share", "ratio", Lower, Exact),
    layer("block.mean_search_depth", "entries", Lower, Racy),
    layer("block.mean_umq_depth", "entries", Lower, Exact),
    layer("protocol.rendezvous_share", "ratio", Lower, Exact),
    layer("protocol.rdma_read_bytes_per_msg", "B", Lower, Exact),
    layer("protocol.eager_copy_bytes_per_msg", "B", Lower, Exact),
    // Set-up and construction probes.
    layer("workloads.generate_s", "s", Lower, Timed),
    layer("app_replay.msgs_per_dest", "msgs", Higher, Exact),
    layer("app_replay.qps_per_dest", "count", Lower, Exact),
    layer("app_replay.construct_ns_per_dest", "ns", Lower, Timed),
    layer("app_replay.construct_share", "ratio", Lower, Timed),
    layer("app_replay.engine_direct_ns_per_msg", "ns", Lower, Timed),
    layer("metrics.snapshot_us", "us", Lower, Timed),
];

/// Measured values by metric name. Setting a name the catalogue does not
/// list is a bug in the harness, not in the run.
#[derive(Debug, Default)]
pub struct Values {
    stated: BTreeMap<&'static str, Summary>,
    /// For metrics stated at reference speed: the value as the clock read it.
    raw: BTreeMap<&'static str, f64>,
}

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set_summary(name, Summary::single(value));
    }

    pub fn set_summary(&mut self, name: &'static str, summary: Summary) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|d| d.name == name),
            "metric {name} is not in the catalogue"
        );
        self.stated.insert(name, summary);
    }

    pub fn set_raw(&mut self, name: &'static str, value: f64) {
        self.raw.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.stated.get(name).map_or(0.0, |s| s.median)
    }

    fn summary(&self, name: &str) -> Summary {
        self.stated
            .get(name)
            .copied()
            .unwrap_or(Summary::single(0.0))
    }
}

/// Everything one `--workload` run reports.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub nproc: usize,
    pub reps: usize,
    pub msgs_per_rep: u64,
    /// Messages driven in timed reps, and how many of them went wrong.
    pub attempted: u64,
    pub failed: u64,
    /// Validity guards that did not hold; any entry fails the run.
    pub violations: Vec<String>,
    pub values: Values,
}

impl Run {
    pub fn catalogue(&self) -> &'static [MetricDef] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// Every metric by name with its unit, for people.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} seed {} ({} run, {} s, nproc {}): {} reps of {} msgs\n",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "end-to-end" },
            self.seconds,
            self.nproc,
            self.reps,
            self.msgs_per_rep,
        );
        for def in self.catalogue() {
            let s = self.values.summary(def.name);
            out.push_str(&format!(
                "  {:<38} {:>16.4} {}",
                def.name, s.median, def.unit
            ));
            if s.n > 1 {
                out.push_str(&format!(
                    "  (quartiles {:.4} .. {:.4}, n = {})",
                    s.q1, s.q3, s.n
                ));
            }
            if let Some(raw) = self.values.raw.get(def.name) {
                out.push_str(&format!("  (as clocked: {raw:.4})"));
            }
            out.push('\n');
        }
        let failed_share = self.failed as f64 / self.attempted.max(1) as f64;
        out.push_str(&format!(
            "  ops_attempted {}  ops_failed {}  failed_share {failed_share}\n",
            self.attempted, self.failed
        ));
        for v in &self.violations {
            out.push_str(&format!("  GUARD VIOLATED: {v}\n"));
        }
        out
    }

    /// The result file `--check` reads.
    pub fn file_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("workload", &self.workload);
        w.field_u64("seed", self.seed);
        w.field_u64("seconds", self.seconds);
        w.field_u64("traced", u64::from(self.traced));
        w.field_u64("nproc", self.nproc as u64);
        w.field_u64("reps", self.reps as u64);
        w.field_u64("msgs_per_rep", self.msgs_per_rep);
        w.field_u64("ops_attempted", self.attempted);
        w.field_u64("ops_failed", self.failed);
        w.key("violations");
        w.begin_array();
        for v in &self.violations {
            w.value_str(v);
        }
        w.end_array();
        w.key("metrics");
        w.begin_object();
        for def in self.catalogue() {
            let s = self.values.summary(def.name);
            w.key(def.name);
            w.begin_object();
            w.field_f64("value", s.median);
            w.field_str("unit", def.unit);
            w.field_str("better", def.better.label());
            w.field_str("kind", def.kind.label());
            w.field_f64("q1", s.q1);
            w.field_f64("q3", s.q3);
            w.field_u64("n", s.n as u64);
            if let Some(raw) = self.values.raw.get(def.name) {
                w.field_f64("as_clocked", *raw);
            }
            w.end_object();
        }
        w.end_object();
        w.end_object();
        w.finish()
    }

    /// The contract's last line of standard output.
    pub fn contract_line(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        for def in self.catalogue() {
            w.key(def.name);
            w.begin_object();
            w.field_f64("value", self.values.get(def.name));
            w.field_str("unit", def.unit);
            w.end_object();
        }
        w.end_object();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            w.finish()
        )
    }
}
