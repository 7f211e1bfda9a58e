//! **§IV-E memory footprint** — the analytic DPA memory model.
//!
//! Regenerates the paper's arithmetic: 20 B per bin in the paper's model
//! (4 B remove lock + two 8 B chain pointers), 7.5 KiB for the three 128-bin
//! index tables, 64 B per receive descriptor, ~520 KiB for 8 K simultaneous
//! receives — against the BlueField-3 DPA caches (L2 1.5 MiB, L3 3 MiB).
//! The engine's own bin is 8 B (`otm::list`: a `{head, tail}` pair of 32-bit
//! slot ids, no lock); the model, not the engine, is what is tabulated.
//!
//! Run with: `cargo run --release -p otm-bench --bin memory_footprint`
//! (`--out PATH` redirects the JSON report).

use otm_base::memory::{Footprint, BIN_BYTES, DESCRIPTOR_BYTES, DPA_L2_BYTES, DPA_L3_BYTES};
use otm_bench::{header, write_report, BenchReport, CommonArgs};
use otm_metrics::json_fields;

struct Row {
    bins: usize,
    max_receives: usize,
    total_bytes: u64,
    fits_l2: bool,
    fits_l3: bool,
}

json_fields!(Row: bins, max_receives, total_bytes, fits_l2, fits_l3);

fn main() {
    let args = CommonArgs::parse();
    header("Section IV-E: DPA memory footprint model");
    println!("bin entry: {BIN_BYTES} B, receive descriptor: {DESCRIPTOR_BYTES} B");
    println!(
        "DPA caches: L2 {} KiB, L3 {} KiB\n",
        DPA_L2_BYTES / 1024,
        DPA_L3_BYTES / 1024
    );

    let configs = [
        (128usize, 0usize, "paper: 3 index tables at 128 bins"),
        (128, 8 * 1024, "paper: + 8K simultaneous receives"),
        (2048, 1024, "Fig. 8 prototype (2x1024 bins, 1024 receives)"),
        (2048, 8 * 1024, "scaled prototype"),
        (4096, 32 * 1024, "beyond-L2 configuration"),
    ];
    let mut rows = Vec::new();
    for (bins, receives, label) in configs {
        let fp = Footprint::compute(bins, receives);
        println!(
            "{label:<46} {fp}   L2:{} L3:{}",
            if fp.fits_l2() { "fits" } else { "SPILLS" },
            if fp.fits_l3() { "fits" } else { "SPILLS" }
        );
        rows.push(Row {
            bins,
            max_receives: receives,
            total_bytes: fp.total(),
            fits_l2: fp.fits_l2(),
            fits_l3: fp.fits_l3(),
        });
    }

    println!("\npaper anchors: 7.5 KiB for 128 bins x 3 tables; ~520 KiB for 8K receives.");
    let report = BenchReport::new("memory_footprint", false, rows);
    let path = write_report(&args, &report);
    println!("JSON artifact: {}", path.display());
}
