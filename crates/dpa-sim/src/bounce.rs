//! Bounce buffers in NIC memory (§IV-A).
//!
//! "Incoming messages are staged into bounce buffers in NIC memory ...
//! necessary because we only know the address of the user-provided receive
//! buffer once the matching is performed." Staging on the NIC also avoids
//! registering user buffers and avoids crossing PCIe twice.
//!
//! The pool has a fixed number of fixed-size buffers, charged against the
//! device-memory budget by the service that creates it.

use otm_base::MatchError;

/// Identifier of a buffer within a [`BouncePool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BounceId(pub u32);

/// A fixed pool of staging buffers.
#[derive(Debug)]
pub struct BouncePool {
    buffers: Vec<Vec<u8>>,
    free: Vec<u32>,
    buf_size: usize,
}

impl BouncePool {
    /// Creates a pool of `count` buffers of `buf_size` bytes each.
    pub fn new(count: usize, buf_size: usize) -> Self {
        BouncePool {
            buffers: vec![Vec::new(); count],
            free: (0..count as u32).rev().collect(),
            buf_size,
        }
    }

    /// Buffers currently in use.
    pub(crate) fn in_use(&self) -> usize {
        self.buffers.len() - self.free.len()
    }

    /// Stages `data` into a free buffer: the bytes move in, nothing is
    /// copied.
    ///
    /// Fails with [`MatchError::UnexpectedStoreFull`] when the pool is
    /// exhausted (staging capacity is part of the same NIC-memory resource
    /// class whose exhaustion forces software fallback), handing `data` back
    /// for the retry, and panics if the payload exceeds the buffer size —
    /// the transport must fragment or use rendezvous before that point.
    pub(crate) fn stage(&mut self, data: Vec<u8>) -> Result<BounceId, (Vec<u8>, MatchError)> {
        assert!(
            data.len() <= self.buf_size,
            "payload of {} B exceeds the {} B bounce buffers (use rendezvous)",
            data.len(),
            self.buf_size
        );
        let Some(id) = self.free.pop() else {
            return Err((data, MatchError::UnexpectedStoreFull));
        };
        self.buffers[id as usize] = data;
        Ok(BounceId(id))
    }

    /// Moves a staged buffer's bytes out and releases the buffer.
    pub(crate) fn take(&mut self, id: BounceId) -> Vec<u8> {
        let bytes = std::mem::take(&mut self.buffers[id.0 as usize]);
        self.release(id);
        bytes
    }

    /// Releases a buffer back to the pool, freeing bytes nobody took.
    pub(crate) fn release(&mut self, id: BounceId) {
        debug_assert!(
            !self.free.contains(&id.0),
            "double release of bounce buffer {id:?}"
        );
        self.buffers[id.0 as usize] = Vec::new();
        self.free.push(id.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl BouncePool {
        /// Total NIC-memory cost of the pool in bytes.
        fn footprint(&self) -> u64 {
            (self.buffers.len() * self.buf_size) as u64
        }

        /// Reads a staged buffer.
        pub(crate) fn data(&self, id: BounceId) -> &[u8] {
            &self.buffers[id.0 as usize]
        }
    }

    #[test]
    fn stage_read_release_round_trip() {
        let mut p = BouncePool::new(2, 64);
        let id = p.stage(vec![1, 2, 3]).unwrap();
        assert_eq!(p.data(id), &[1, 2, 3]);
        assert_eq!(p.in_use(), 1);
        p.release(id);
        assert_eq!(p.in_use(), 0);
    }

    #[test]
    fn taken_bytes_are_the_staged_allocation() {
        let mut p = BouncePool::new(1, 64);
        let bytes = vec![7u8; 48];
        let at = bytes.as_ptr();
        let id = p.stage(bytes).unwrap();
        let back = p.take(id);
        assert_eq!((back.as_ptr(), back.len()), (at, 48), "moved, not copied");
        assert_eq!(p.in_use(), 0, "taking releases");
    }

    #[test]
    fn exhaustion_is_reported() {
        let mut p = BouncePool::new(1, 8);
        let _a = p.stage(vec![0]).unwrap();
        assert_eq!(
            p.stage(vec![1]),
            Err((vec![1], MatchError::UnexpectedStoreFull)),
            "the bytes come back for the retry"
        );
    }

    #[test]
    fn released_buffers_are_reused_with_fresh_contents() {
        let mut p = BouncePool::new(1, 8);
        let a = p.stage(vec![9, 9, 9]).unwrap();
        p.release(a);
        let b = p.stage(vec![1]).unwrap();
        assert_eq!(p.data(b), &[1]);
    }

    #[test]
    #[should_panic(expected = "use rendezvous")]
    fn oversized_payload_panics() {
        let mut p = BouncePool::new(1, 4);
        let _ = p.stage(vec![0u8; 5]);
    }

    #[test]
    fn footprint_is_count_times_size() {
        let p = BouncePool::new(16, 1024);
        assert_eq!(p.footprint(), 16 * 1024);
    }

    #[test]
    fn zero_length_payloads_are_fine() {
        let mut p = BouncePool::new(1, 8);
        let id = p.stage(Vec::new()).unwrap();
        assert!(p.data(id).is_empty());
    }
}
