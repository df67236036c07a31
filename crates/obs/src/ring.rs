//! A bounded ring of the most recent slow entries.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The last-N buffer behind `CertainService::slow_queries`: entries are
/// pushed **whole** under one short mutex hold, so a concurrent reader
/// either sees an entry completely or not at all — there is no state in
/// which a trace is half-published. The lock is touched only for queries
/// that already crossed the slowness threshold, so it is never on the fast
/// path.
///
/// A holder that panics (say, an entry whose `Clone` panics inside
/// [`SlowQueryRing::snapshot`]) poisons the mutex, but never leaves a
/// half-written deque behind: entries are pushed and evicted whole. So the
/// ring takes the lock whether or not it is poisoned, and one bad entry
/// cannot disable slow-query reporting for the rest of the process.
#[derive(Debug)]
pub struct SlowQueryRing<T> {
    capacity: usize,
    entries: Mutex<VecDeque<T>>,
}

impl<T: Clone> SlowQueryRing<T> {
    /// A ring keeping at most `capacity` entries; zero capacity disables it.
    pub fn new(capacity: usize) -> SlowQueryRing<T> {
        SlowQueryRing {
            capacity,
            entries: Mutex::new(VecDeque::with_capacity(capacity.min(64))),
        }
    }

    fn entries(&self) -> MutexGuard<'_, VecDeque<T>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pushes an entry, evicting the oldest beyond capacity.
    pub fn push(&self, entry: T) {
        if self.capacity == 0 {
            return;
        }
        let mut entries = self.entries();
        if entries.len() == self.capacity {
            entries.pop_front();
        }
        entries.push_back(entry);
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// Is the ring empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the entries, oldest first.
    pub fn snapshot(&self) -> Vec<T> {
        self.entries().iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_last_n() {
        let ring = SlowQueryRing::new(3);
        for i in 0..10 {
            ring.push(i);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.snapshot(), vec![7, 8, 9]);
    }

    #[test]
    fn zero_capacity_disables() {
        let ring = SlowQueryRing::new(0);
        ring.push(1);
        assert!(ring.is_empty());
        assert_eq!(ring.snapshot(), Vec::<i32>::new());
    }

    /// An entry whose `Clone` panics while its flag is set.
    #[derive(Debug)]
    struct Fragile(std::sync::Arc<std::sync::atomic::AtomicBool>, u32);

    impl Clone for Fragile {
        fn clone(&self) -> Self {
            assert!(
                !self.0.load(std::sync::atomic::Ordering::Relaxed),
                "clone refused"
            );
            Fragile(std::sync::Arc::clone(&self.0), self.1)
        }
    }

    #[test]
    fn a_panicking_holder_does_not_disable_the_ring() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let fail = Arc::new(AtomicBool::new(true));
        let ring = SlowQueryRing::new(2);
        ring.push(Fragile(Arc::clone(&fail), 1));
        let panicked =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ring.snapshot())).is_err();
        assert!(panicked, "the clone panicked while the lock was held");
        assert!(ring.entries.is_poisoned());
        fail.store(false, Ordering::Relaxed);
        ring.push(Fragile(Arc::clone(&fail), 2));
        ring.push(Fragile(Arc::clone(&fail), 3));
        assert_eq!(ring.len(), 2);
        let tags: Vec<u32> = ring.snapshot().iter().map(|e| e.1).collect();
        assert_eq!(tags, vec![2, 3]);
    }

    #[test]
    fn concurrent_pushes_never_tear() {
        use std::sync::Arc;
        let ring = Arc::new(SlowQueryRing::new(64));
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let ring = Arc::clone(&ring);
                // Entries are (tag, tag * 1000): a torn entry would break
                // the invariant between the halves.
                scope.spawn(move || {
                    for i in 0..100 {
                        ring.push((t * 100 + i, (t * 100 + i) * 1000));
                    }
                });
            }
        });
        let entries = ring.snapshot();
        assert_eq!(entries.len(), 64);
        for (a, b) in entries {
            assert_eq!(b, a * 1000, "entry pushed whole");
        }
    }
}
