//! Bounded blocking job queue with backpressure and graceful close.
//!
//! Producers (connection front-ends) use [`JobQueue::try_push`], which
//! never blocks: a full queue is reported back so the server can answer
//! with a retry-after rejection instead of stalling the socket. It also
//! says whether a parked consumer is left over for the new item, so an
//! executor that starts consumers on demand knows when to start one.
//! Consumers (workers) use [`JobQueue::pop`], which blocks until a job
//! arrives or the queue is closed *and drained* — closing stops intake
//! immediately but lets already-accepted jobs finish, which is what makes
//! shutdown graceful.

use mosaic_telemetry::lock_unpoisoned;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

/// Why [`JobQueue::try_push`] refused an item; the item is handed back so
/// the caller can report on it.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity — retry later.
    Full(T),
    /// The queue was closed — the server is shutting down.
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Consumers parked in `pop`; each one takes exactly one item.
    parked: usize,
}

/// A bounded multi-producer multi-consumer FIFO.
pub struct JobQueue<T> {
    inner: Mutex<Inner<T>>,
    available: Condvar,
    capacity: usize,
}

impl<T> JobQueue<T> {
    /// Create a queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        JobQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
                parked: 0,
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Maximum number of queued items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of queued items.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueue without blocking. `Ok(true)` means more items are queued
    /// than consumers are parked, so no consumer is waiting for this one.
    ///
    /// # Errors
    /// Returns the item back inside [`PushError::Full`] when at capacity
    /// or [`PushError::Closed`] after [`close`](Self::close).
    pub fn try_push(&self, item: T) -> Result<bool, PushError<T>> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        let unserved = inner.items.len() > inner.parked;
        drop(inner);
        self.available.notify_one();
        Ok(unserved)
    }

    /// Dequeue, blocking while the queue is empty and open. Returns
    /// `None` once the queue is closed and fully drained.
    pub fn pop(&self) -> Option<T> {
        self.pop_after(|| {})
    }

    /// [`pop`](Self::pop), counting the caller as a parked consumer
    /// while it runs `finish` (say, delivering its previous item's
    /// result) with the lock released: an item pushed meanwhile is
    /// known to have a consumer on its way.
    pub fn pop_after(&self, finish: impl FnOnce()) -> Option<T> {
        self.lock().parked += 1;
        finish();
        let mut inner = self.lock();
        inner.parked -= 1;
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            // `Condvar::wait` re-acquires the lock itself, so it cannot
            // route through `lock_unpoisoned`; apply the same recovery
            // policy (see `mosaic_telemetry::sync`) inline.
            inner.parked += 1;
            inner = self
                .available
                .wait(inner)
                // lint:allow(lock) Condvar::wait re-acquires internally; this is the same policy inlined
                .unwrap_or_else(PoisonError::into_inner);
            inner.parked -= 1;
        }
    }

    /// Dequeue without blocking: the oldest item, if any.
    pub fn try_pop(&self) -> Option<T> {
        self.lock().items.pop_front()
    }

    /// Stop accepting new items; blocked consumers drain what remains and
    /// then observe `None`.
    pub fn close(&self) {
        self.lock().closed = true;
        self.available.notify_all();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        lock_unpoisoned(&self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn fifo_order_within_capacity() {
        let q = JobQueue::new(3);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.try_push(3).unwrap();
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert!(q.is_empty());
    }

    #[test]
    fn full_queue_rejects_and_returns_the_item() {
        let q = JobQueue::new(2);
        q.try_push(10).unwrap();
        q.try_push(20).unwrap();
        match q.try_push(30) {
            Err(PushError::Full(item)) => assert_eq!(item, 30),
            other => panic!("expected Full, got {other:?}"),
        }
        // Draining one slot re-opens intake.
        assert_eq!(q.pop(), Some(10));
        q.try_push(30).unwrap();
    }

    #[test]
    fn close_drains_then_signals_none() {
        let q = JobQueue::new(4);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        q.close();
        match q.try_push("c") {
            Err(PushError::Closed(item)) => assert_eq!(item, "c"),
            other => panic!("expected Closed, got {other:?}"),
        }
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "closed queue stays closed");
    }

    #[test]
    fn pop_blocks_until_a_push_arrives() {
        let q = Arc::new(JobQueue::new(1));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(Duration::from_millis(20));
        q.try_push(99).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(99));
    }

    #[test]
    fn push_reports_whether_a_parked_consumer_is_left_for_the_item() {
        let q = Arc::new(JobQueue::new(4));
        assert!(q.try_push(1).unwrap(), "no consumer is parked");
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.try_pop(), None);
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        while q.lock().parked == 0 {
            std::thread::yield_now();
        }
        assert!(!q.try_push(2).unwrap(), "the parked consumer takes it");
        assert!(q.try_push(3).unwrap(), "one parked consumer takes one item");
        assert_eq!(consumer.join().unwrap(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn pop_after_counts_the_caller_parked_while_it_finishes() {
        let q = JobQueue::new(4);
        let mut unserved = None;
        let item = q.pop_after(|| unserved = Some(q.try_push(7).unwrap()));
        assert_eq!(unserved, Some(false), "the finishing consumer takes it");
        assert_eq!(item, Some(7));
        assert!(q.try_push(8).unwrap(), "nobody is parked any more");
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q: Arc<JobQueue<u32>> = Arc::new(JobQueue::new(1));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop())
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        for c in consumers {
            assert_eq!(c.join().unwrap(), None);
        }
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let q = JobQueue::new(0);
        assert_eq!(q.capacity(), 1);
        q.try_push(1).unwrap();
        assert!(matches!(q.try_push(2), Err(PushError::Full(2))));
    }
}
