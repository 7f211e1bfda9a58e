//! The DPA device-memory budget (§IV-E).
//!
//! Matching state (index tables, descriptor table, bounce buffers) lives in
//! NIC memory, which is scarce: the BlueField-3 DPA works out of 1.5 MiB of
//! L2 and 3 MiB of L3. Each communicator allocates its own set of tables at
//! creation time; "if it is not possible to allocate DPA resources at
//! communicator creation time, the MPI implementation is expected to fall
//! back to software tag matching".

use otm_base::memory::Footprint;
use otm_base::MatchError;

/// A simple bump-accounted device-memory budget.
#[derive(Debug)]
pub struct DeviceMemory {
    capacity: u64,
    used: u64,
}

impl DeviceMemory {
    /// A budget with the given capacity in bytes.
    pub fn new(capacity: u64) -> Self {
        DeviceMemory { capacity, used: 0 }
    }

    /// A budget sized like the BlueField-3 DPA L3 cache (3 MiB), the
    /// capacity the paper compares footprints against.
    pub fn bluefield3_l3() -> Self {
        DeviceMemory::new(otm_base::memory::DPA_L3_BYTES)
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes still available.
    pub(crate) fn available(&self) -> u64 {
        self.capacity - self.used
    }

    /// Attempts to allocate `bytes`.
    pub(crate) fn try_alloc(&mut self, bytes: u64) -> Result<(), MatchError> {
        if bytes > self.available() {
            return Err(MatchError::OutOfDeviceMemory {
                requested: bytes,
                available: self.available(),
            });
        }
        self.used += bytes;
        Ok(())
    }

    /// Attempts to allocate one communicator's matching state.
    pub(crate) fn try_alloc_comm(&mut self, fp: Footprint) -> Result<(), MatchError> {
        self.try_alloc(fp.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl DeviceMemory {
        /// Releases `bytes` back to the budget.
        fn free(&mut self, bytes: u64) {
            debug_assert!(bytes <= self.used, "freeing more than allocated");
            self.used = self.used.saturating_sub(bytes);
        }
    }

    #[test]
    fn alloc_and_free_round_trip() {
        let mut m = DeviceMemory::new(1000);
        m.try_alloc(400).unwrap();
        assert_eq!(m.used(), 400);
        assert_eq!(m.available(), 600);
        m.free(400);
        assert_eq!(m.used(), 0);
    }

    #[test]
    fn exhaustion_reports_fallback_error() {
        let mut m = DeviceMemory::new(100);
        m.try_alloc(90).unwrap();
        let err = m.try_alloc(20).unwrap_err();
        assert_eq!(
            err,
            MatchError::OutOfDeviceMemory {
                requested: 20,
                available: 10
            }
        );
    }

    #[test]
    fn paper_prototype_fits_the_l3_budget() {
        // 2048 bins, 1024 in-flight receives (§VI prototype).
        let mut m = DeviceMemory::bluefield3_l3();
        m.try_alloc_comm(Footprint::compute(2048, 1024)).unwrap();
        assert!(m.available() > 0);
    }

    #[test]
    fn many_communicators_eventually_exhaust_the_dpa() {
        // Each communicator gets its own tables (§IV-E); the budget bounds
        // how many can be offloaded before software fallback kicks in.
        let mut m = DeviceMemory::bluefield3_l3();
        let fp = Footprint::compute(128, 8 * 1024); // ~519.5 KiB each
        let mut offloaded = 0;
        while m.try_alloc_comm(fp).is_ok() {
            offloaded += 1;
        }
        // 3 MiB / ~519.5 KiB per communicator = 5 fully offloaded comms.
        assert_eq!(offloaded, 5);
    }
}
