//! Offline stand-in for `crossbeam-channel`, used only by the benchmark's
//! build: the unbounded channel `dpa-sim`'s queue pairs are made of. A
//! mutex-guarded `VecDeque` plus a condvar; both halves are `Send + Sync`
//! and cloneable, and each side learns when the other is gone.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

struct Shared<T> {
    queue: Mutex<VecDeque<T>>,
    ready: Condvar,
    senders: AtomicUsize,
    receivers: AtomicUsize,
}

pub struct Sender<T>(Arc<Shared<T>>);
pub struct Receiver<T>(Arc<Shared<T>>);

#[derive(PartialEq, Eq, Clone, Copy)]
pub struct SendError<T>(pub T);

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum TryRecvError {
    Empty,
    Disconnected,
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub struct RecvError;

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Sender { .. }")
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Receiver { .. }")
    }
}

pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        queue: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
        senders: AtomicUsize::new(1),
        receivers: AtomicUsize::new(1),
    });
    (Sender(Arc::clone(&shared)), Receiver(shared))
}

impl<T> Sender<T> {
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        if self.0.receivers.load(Ordering::SeqCst) == 0 {
            return Err(SendError(value));
        }
        self.0
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(value);
        self.0.ready.notify_one();
        Ok(())
    }
}

impl<T> Receiver<T> {
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut queue = self.0.queue.lock().unwrap_or_else(PoisonError::into_inner);
        match queue.pop_front() {
            Some(v) => Ok(v),
            None if self.0.senders.load(Ordering::SeqCst) == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    pub fn recv(&self) -> Result<T, RecvError> {
        let mut queue = self.0.queue.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(v) = queue.pop_front() {
                return Ok(v);
            }
            if self.0.senders.load(Ordering::SeqCst) == 0 {
                return Err(RecvError);
            }
            queue = self
                .0
                .ready
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0.senders.fetch_add(1, Ordering::SeqCst);
        Sender(Arc::clone(&self.0))
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.0.receivers.fetch_add(1, Ordering::SeqCst);
        Receiver(Arc::clone(&self.0))
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.0.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last sender gone: wake blocked receivers so they observe it.
            // Taking the lock orders this wake-up after any receiver's
            // emptiness check.
            let _queue = self.0.queue.lock().unwrap_or_else(PoisonError::into_inner);
            self.0.ready.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.0.receivers.fetch_sub(1, Ordering::SeqCst);
    }
}
