//! **Table II** — the application traces analyzed.
//!
//! Regenerates the application inventory: name, description and process
//! count, plus the size of the synthetic trace this reproduction generates
//! for each (the NERSC DUMPI originals are not redistributable; see
//! DESIGN.md §1).
//!
//! Run with: `cargo run --release -p otm-bench --bin table2_applications`
//! (`--out PATH` redirects the JSON report).

use otm_bench::{header, write_report, BenchReport, CommonArgs};
use otm_metrics::json_fields;

struct Row {
    name: String,
    description: String,
    processes: usize,
    total_ops: usize,
}

json_fields!(Row: name, description, processes, total_ops);

fn main() {
    let args = CommonArgs::parse();
    header("Table II: application traces analyzed, sorted by name");
    println!(
        "{:<18} {:>6}  {:>9}  description",
        "application", "procs", "ops"
    );
    let mut rows = Vec::new();
    for spec in otm_workloads::catalog() {
        let trace = (spec.generate)(42);
        println!(
            "{:<18} {:>6}  {:>9}  {}",
            spec.name,
            spec.processes,
            trace.total_ops(),
            spec.description
        );
        rows.push(Row {
            name: spec.name.to_string(),
            description: spec.description.to_string(),
            processes: spec.processes,
            total_ops: trace.total_ops(),
        });
    }
    let report = BenchReport::new("table2_applications", false, rows);
    let path = write_report(&args, &report);
    println!("\nJSON artifact: {}", path.display());
}
