//! The analytic DPA memory-footprint model of §IV-E.
//!
//! The paper's accounting: each bin holds a 4-byte remove lock plus two
//! 8-byte pointers (head and tail of the chained queue), 20 bytes per bin;
//! the three hash-table indexes at 128 bins each therefore cost 7.5 KiB.
//! Each receive descriptor is 64 bytes, so 8 K simultaneously posted
//! receives need about 520 KiB of DPA memory — to be compared with the
//! BlueField-3 DPA caches (L2 1.5 MiB, L3 3 MiB).
//!
//! These constants are the paper's model, which the device budgets charge.
//! The engine's bin is 8 bytes (`otm::list`: `{head, tail}` of 32-bit slot
//! ids) and has no lock: its lanes never unlink.

/// Bytes per hash-table bin in the paper's model: a 4-byte remove lock plus
/// head and tail pointers at 8 bytes each (§IV-E).
pub const BIN_BYTES: u64 = 4 + 8 + 8;

/// Bytes per receive descriptor (§IV-E).
pub const DESCRIPTOR_BYTES: u64 = 64;

/// Number of binned hash-table indexes (no-wildcard, source-wildcard,
/// tag-wildcard); the both-wildcard list has no bins.
pub(crate) const INDEX_TABLES: u64 = 3;

/// BlueField-3 DPA L2 cache capacity (§IV-E).
pub const DPA_L2_BYTES: u64 = 3 * 1024 * 1024 / 2; // 1.5 MiB

/// BlueField-3 DPA L3 cache capacity (§IV-E).
pub const DPA_L3_BYTES: u64 = 3 * 1024 * 1024; // 3 MiB

/// Memory footprint of one communicator's matching state on the DPA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footprint {
    /// Bytes consumed by the three binned index tables.
    pub(crate) index_tables: u64,
    /// Bytes consumed by the receive descriptor table.
    pub(crate) descriptors: u64,
}

impl Footprint {
    /// Computes the footprint for `bins` bins per table and `max_receives`
    /// simultaneously posted receives.
    pub fn compute(bins: usize, max_receives: usize) -> Footprint {
        Footprint {
            index_tables: INDEX_TABLES * BIN_BYTES * bins as u64,
            descriptors: DESCRIPTOR_BYTES * max_receives as u64,
        }
    }

    /// Total bytes.
    #[inline]
    pub fn total(&self) -> u64 {
        self.index_tables + self.descriptors
    }

    /// Whether the state fits in the DPA L2 cache.
    #[inline]
    pub fn fits_l2(&self) -> bool {
        self.total() <= DPA_L2_BYTES
    }

    /// Whether the state fits in the DPA L3 cache.
    #[inline]
    pub fn fits_l3(&self) -> bool {
        self.total() <= DPA_L3_BYTES
    }
}

impl std::fmt::Display for Footprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.1} KiB (tables {:.1} KiB + descriptors {:.1} KiB)",
            self.total() as f64 / 1024.0,
            self.index_tables as f64 / 1024.0,
            self.descriptors as f64 / 1024.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_is_twenty_bytes() {
        // "totalling 20 bytes per bin" (§IV-E).
        assert_eq!(BIN_BYTES, 20);
    }

    #[test]
    fn paper_number_128_bins_is_7_5_kib() {
        // "with the three index tables of our approach, this results in a
        // total cost of 7.5 KiB for 128 bins" (§IV-E).
        let fp = Footprint::compute(128, 0);
        assert_eq!(fp.index_tables, 7680);
        assert_eq!(fp.index_tables as f64 / 1024.0, 7.5);
    }

    #[test]
    fn paper_number_8k_receives_is_about_520_kib() {
        // "to support 8 K receives (posted at the same time), we need to
        // allocate about 520 KiB of DPA memory" (§IV-E). 8192 * 64 B = 512 KiB
        // of descriptors plus the 7.5 KiB of tables = 519.5 KiB ≈ 520 KiB.
        let fp = Footprint::compute(128, 8 * 1024);
        assert_eq!(fp.descriptors, 512 * 1024);
        let total_kib = fp.total() as f64 / 1024.0;
        assert!((total_kib - 519.5).abs() < 1e-9, "got {total_kib} KiB");
        assert!(total_kib < 520.5);
    }

    #[test]
    fn prototype_state_fits_the_l2_cache() {
        // The Fig. 8 prototype: 2048 bins, 1024 in-flight receives.
        let fp = Footprint::compute(2048, 1024);
        assert!(fp.fits_l2(), "prototype footprint {fp} exceeds L2");
    }

    #[test]
    fn eight_k_receives_fit_l2_and_l3() {
        let fp = Footprint::compute(128, 8 * 1024);
        assert!(fp.fits_l2());
        assert!(fp.fits_l3());
    }

    #[test]
    fn cache_capacities_match_bluefield3() {
        assert_eq!(DPA_L2_BYTES, 1_572_864); // 1.5 MiB
        assert_eq!(DPA_L3_BYTES, 3_145_728); // 3 MiB
    }

    #[test]
    fn footprint_grows_linearly_in_both_parameters() {
        let a = Footprint::compute(100, 100);
        let b = Footprint::compute(200, 100);
        let c = Footprint::compute(100, 200);
        assert_eq!(b.index_tables, 2 * a.index_tables);
        assert_eq!(b.descriptors, a.descriptors);
        assert_eq!(c.descriptors, 2 * a.descriptors);
        assert_eq!(c.index_tables, a.index_tables);
    }

    #[test]
    fn display_reports_kib() {
        let fp = Footprint::compute(128, 8 * 1024);
        let s = fp.to_string();
        assert!(s.contains("519.5 KiB"), "got {s}");
    }
}
