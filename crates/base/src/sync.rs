//! Poison-ignoring access to `std::sync` locks.
//!
//! The simulated link and RDMA domain (`dpa-sim`'s `rdma.rs`) are shared by
//! both endpoints of a queue pair, which may live on different threads. A
//! thread that panics while it holds one of their locks must not take the
//! other endpoint down with it: every update made under these locks leaves
//! the data valid at each step (pushes, removals, whole-value stores), so the
//! guard of a poisoned lock is recovered instead of propagating the panic.
//! This module is the only place that does so.

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Locks `m`, recovering the guard if a holder panicked.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks `l`, recovering the guard if a writer panicked.
pub fn read<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks `l`, recovering the guard if a writer panicked.
pub fn write<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn poisoned_locks_still_hand_out_their_data() {
        let m = Arc::new(Mutex::new(vec![1, 2]));
        let l = Arc::new(RwLock::new(7u32));
        let (m2, l2) = (Arc::clone(&m), Arc::clone(&l));
        let died = std::thread::spawn(move || {
            let mut g = m2.lock().expect("first holder");
            let mut w = l2.write().expect("first writer");
            g.push(3);
            *w = 8;
            panic!("die holding both guards");
        })
        .join();
        assert!(died.is_err());
        assert!(m.is_poisoned() && l.is_poisoned());

        assert_eq!(*lock(&m), [1, 2, 3]);
        assert_eq!(*read(&l), 8);
        *write(&l) += 1;
        assert_eq!(*read(&l), 9);
    }
}
