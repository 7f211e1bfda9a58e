//! Poison-ignoring access to `std::sync` locks.
//!
//! A block that panics under `catch_unwind` does so with its shard locks
//! held, but the engine's tables must stay readable afterwards: the host
//! extracts `FallbackState` from them to hand matching back to software.
//! Every update made under these locks leaves the data valid at each step
//! (pushes, removals, whole-value stores), so the guard of a poisoned lock
//! is recovered instead of propagating the panic. This module is the only
//! place that does so.

use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

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

/// Blocks on `cv`, returning the re-acquired guard even if a holder panicked.
pub fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// The data of a lock its caller has to itself (so none is taken), whether
/// or not a writer panicked.
pub fn get_mut<T: ?Sized>(l: &mut RwLock<T>) -> &mut T {
    l.get_mut().unwrap_or_else(PoisonError::into_inner)
}

/// The data of a mutex its caller has to itself (so it is not locked),
/// whether or not a holder panicked.
pub fn mutex_mut<T: ?Sized>(m: &mut Mutex<T>) -> &mut T {
    m.get_mut().unwrap_or_else(PoisonError::into_inner)
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
        let mut l = Arc::into_inner(l).expect("the writer thread is gone");
        *get_mut(&mut l) += 1;
        assert_eq!(*read(&l), 10);
        let mut m_own = Mutex::new(vec![0]);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = m_own.lock().expect("first holder");
            panic!("die holding the guard");
        }));
        mutex_mut(&mut m_own).push(1);
        assert_eq!(*lock(&m_own), [0, 1]);

        // `wait` on the poisoned mutex returns the guard once notified.
        let cv = Arc::new(Condvar::new());
        let (m3, cv3) = (Arc::clone(&m), Arc::clone(&cv));
        let waker = std::thread::spawn(move || {
            lock(&m3).push(4);
            cv3.notify_one();
        });
        let mut g = lock(&m);
        while g.len() < 4 {
            g = wait(&cv, g);
        }
        assert_eq!(*g, [1, 2, 3, 4]);
        drop(g);
        waker.join().expect("waker");
    }
}
