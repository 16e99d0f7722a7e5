//! Single-flight LRU caches for values a server derives from job
//! inputs and can reuse across jobs.
//!
//! One generic [`Cache`] serves three instances:
//!
//! * [`MatrixCache`] — Step-2 error matrices keyed by
//!   [`JobSpec::cache_key`](photomosaic::JobSpec::cache_key). The matrix
//!   is the expensive part of a job (`S² × M²` pixel comparisons), and it
//!   depends only on the (input, target, grid, preprocess, metric) tuple
//!   — not on the Step-3 algorithm or backend — so repeated submissions
//!   of the same images reuse it across jobs.
//! * the server's tile-store and clustering caches, which keep a library
//!   store's verified tiles and their k-means clusterings per store
//!   generation (see `server`).
//!
//! Entries are `Arc`s: a worker can hold a value while another job
//! evicts it.
//!
//! Lookups are *single-flight* ([`Cache::begin`]): when several jobs
//! need the same key at once, exactly one worker computes the value
//! while the others wait for it and then hit — without this, a burst of
//! same-key submissions thundering-herds the expensive computation and
//! every one of them misses.

use mosaic_grid::ErrorMatrix;
use mosaic_telemetry::lock_unpoisoned;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// Hit/miss counters, as observed at some instant.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a value.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Entries currently cached.
    pub entries: usize,
}

struct Inner<K, V> {
    // Most-recently-used entry at the front. Linear scan — capacities are
    // small (a value is a full S²-entry matrix or a whole tile store, so
    // dozens at most).
    entries: VecDeque<(K, Arc<V>)>,
    // Keys whose value is being computed right now by some worker;
    // `begin` waits on these instead of duplicating the computation.
    pending: Vec<K>,
    hits: u64,
    misses: u64,
}

/// Thread-safe single-flight LRU map from key to shared value.
pub struct Cache<K, V> {
    inner: Mutex<Inner<K, V>>,
    /// Signalled whenever a pending key resolves (fulfilled or
    /// abandoned), so waiters in [`Cache::begin`] re-check.
    ready: Condvar,
    capacity: usize,
}

/// The Step-2 error-matrix cache, keyed by `JobSpec::cache_key`.
pub type MatrixCache = Cache<u64, ErrorMatrix>;

/// Outcome of a single-flight lookup.
pub enum Lookup<'a, K: PartialEq, V> {
    /// The value was cached (possibly after waiting out another
    /// worker's in-flight computation of the same key).
    Hit(Arc<V>),
    /// The caller is the designated computer for this key: compute the
    /// value and [`fulfil`](ComputeGuard::fulfil) the guard. Dropping
    /// the guard without fulfilling (failure, deadline expiry) releases
    /// the key so a waiter can claim the computation instead.
    Miss(ComputeGuard<'a, K, V>),
}

/// Exclusive right to compute one key's value; see [`Lookup::Miss`].
pub struct ComputeGuard<'a, K: PartialEq, V> {
    cache: &'a Cache<K, V>,
    key: K,
    /// False for a disabled (capacity-0) cache, where nothing is
    /// tracked and the guard is inert.
    tracked: bool,
    done: bool,
}

impl<K: PartialEq + Clone, V> ComputeGuard<'_, K, V> {
    /// Publish the computed value: inserts it, releases the pending
    /// key, and wakes every worker waiting on it.
    pub fn fulfil(mut self, value: Arc<V>) {
        self.done = true;
        if !self.tracked {
            return;
        }
        // Release the pending key and insert in one critical section,
        // so no other worker can observe "neither pending nor cached"
        // and restart the computation we just finished.
        // A pending key is never cached: `begin` marks a key pending
        // only when it missed, and only this guard can insert it.
        let mut inner = lock_unpoisoned(&self.cache.inner);
        inner.pending.retain(|k| *k != self.key);
        inner.entries.push_front((self.key.clone(), value));
        while inner.entries.len() > self.cache.capacity {
            inner.entries.pop_back();
        }
        drop(inner);
        self.cache.ready.notify_all();
    }
}

impl<K: PartialEq, V> Drop for ComputeGuard<'_, K, V> {
    fn drop(&mut self) {
        if self.done || !self.tracked {
            return;
        }
        // Abandoned without a value: release the key and let a waiter
        // claim the computation, otherwise they would sleep forever.
        let mut inner = lock_unpoisoned(&self.cache.inner);
        inner.pending.retain(|k| *k != self.key);
        drop(inner);
        self.cache.ready.notify_all();
    }
}

impl<K: PartialEq + Clone, V> Cache<K, V> {
    /// Cache at most `capacity` values; `0` disables caching (every
    /// lookup misses, fulfilled values are dropped).
    pub fn new(capacity: usize) -> Self {
        Cache {
            inner: Mutex::new(Inner {
                entries: VecDeque::new(),
                pending: Vec::new(),
                hits: 0,
                misses: 0,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Single-flight lookup: a hit returns the value (counting a hit);
    /// a miss returns the exclusive [`ComputeGuard`] for the key
    /// (counting a miss). If another worker already holds the key's
    /// guard, this call *blocks* until that computation resolves, then
    /// hits on its result — or claims the guard itself if the
    /// computation was abandoned. A capacity-0 (disabled) cache returns
    /// an inert guard immediately and counts nothing.
    pub fn begin(&self, key: K) -> Lookup<'_, K, V> {
        if self.capacity == 0 {
            return Lookup::Miss(ComputeGuard {
                cache: self,
                key,
                tracked: false,
                done: false,
            });
        }
        let mut inner = self.lock();
        loop {
            if let Some(pos) = inner.entries.iter().position(|(k, _)| *k == key) {
                inner.hits += 1;
                // lint:allow(panic) pos came from position() on the same deque under the same lock
                let entry = inner.entries.remove(pos).expect("position just found");
                let value = Arc::clone(&entry.1);
                inner.entries.push_front(entry);
                return Lookup::Hit(value);
            }
            if !inner.pending.contains(&key) {
                inner.misses += 1;
                inner.pending.push(key.clone());
                return Lookup::Miss(ComputeGuard {
                    cache: self,
                    key,
                    tracked: true,
                    done: false,
                });
            }
            // Condvar::wait owns the guard hand-off, so lock_unpoisoned
            // cannot wrap it; recovery follows the same poison policy
            // (take the data as-is).
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(std::sync::PoisonError::into_inner); // lint:allow(lock) Condvar::wait cannot route through lock_unpoisoned; same take-the-data poison policy
        }
    }

    /// The value for `key`, computed by `compute` on a miss (and only
    /// then) and cached unless it fails. A failure caches nothing, so the
    /// next lookup computes afresh.
    ///
    /// # Errors
    /// Whatever `compute` returns.
    pub fn get_or_try_insert_with<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        match self.begin(key) {
            Lookup::Hit(value) => Ok(value),
            Lookup::Miss(guard) => {
                let value = Arc::new(compute()?);
                guard.fulfil(Arc::clone(&value));
                Ok(value)
            }
        }
    }

    /// Maximum number of cached values.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.entries.len(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<K, V>> {
        lock_unpoisoned(&self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(n: usize, fill: u32) -> Arc<ErrorMatrix> {
        Arc::new(ErrorMatrix::from_vec(n, vec![fill; n * n]))
    }

    /// `begin` as a plain lookup: the matrix on a hit, `None` on a miss
    /// (whose guard is dropped unfulfilled).
    fn lookup(cache: &MatrixCache, key: u64) -> Option<Arc<ErrorMatrix>> {
        match cache.begin(key) {
            Lookup::Hit(matrix) => Some(matrix),
            Lookup::Miss(_) => None,
        }
    }

    /// Cache `matrix` under a key that must miss.
    fn fill(cache: &MatrixCache, key: u64, matrix: Arc<ErrorMatrix>) {
        match cache.begin(key) {
            Lookup::Miss(guard) => guard.fulfil(matrix),
            Lookup::Hit(_) => panic!("key {key} is already cached"),
        }
    }

    #[test]
    fn hit_and_miss_counting() {
        let cache = MatrixCache::new(4);
        fill(&cache, 1, matrix(2, 7));
        let got = lookup(&cache, 1).expect("fulfilled entry");
        assert_eq!(got.get(0, 0), 7);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                entries: 1
            }
        );
    }

    #[test]
    fn lru_eviction_order() {
        let cache = MatrixCache::new(2);
        fill(&cache, 1, matrix(2, 1));
        fill(&cache, 2, matrix(2, 2));
        // Touch 1 so 2 becomes the LRU entry.
        assert!(lookup(&cache, 1).is_some());
        fill(&cache, 3, matrix(2, 3));
        assert!(lookup(&cache, 2).is_none(), "2 was least recently used");
        assert!(lookup(&cache, 1).is_some());
        assert!(lookup(&cache, 3).is_some());
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn hit_refreshes_instead_of_duplicating() {
        let cache = MatrixCache::new(2);
        fill(&cache, 1, matrix(2, 1));
        fill(&cache, 2, matrix(2, 2));
        // Two hits on 1 move it to the front once: 2 is now LRU.
        assert!(lookup(&cache, 1).is_some());
        assert!(lookup(&cache, 1).is_some());
        assert_eq!(cache.stats().entries, 2);
        fill(&cache, 3, matrix(2, 3));
        assert_eq!(lookup(&cache, 1).unwrap().get(0, 0), 1);
        assert!(lookup(&cache, 2).is_none());
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = MatrixCache::new(0);
        fill(&cache, 1, matrix(2, 1));
        assert!(lookup(&cache, 1).is_none());
        assert!(lookup(&cache, 2).is_none());
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        // Disabled means *disabled*: lookups on a capacity-0 cache must
        // not count as misses, or the reported hit rate of a server run
        // with caching off reads as pathologically bad instead of n/a.
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn single_flight_makes_waiters_hit() {
        let cache = Arc::new(MatrixCache::new(4));
        let Lookup::Miss(guard) = cache.begin(1) else {
            panic!("empty cache must miss");
        };
        // A second worker asking for the same key must block until the
        // leader fulfils, then observe a hit.
        let waiter = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || match cache.begin(1) {
                Lookup::Hit(matrix) => matrix.get(0, 0),
                Lookup::Miss(_) => panic!("waiter must not recompute a fulfilled key"),
            })
        };
        // Give the waiter time to park on the pending key.
        std::thread::sleep(std::time::Duration::from_millis(30));
        guard.fulfil(matrix(2, 9));
        assert_eq!(waiter.join().unwrap(), 9);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1), "one flight, one hit");
    }

    #[test]
    fn abandoned_guard_lets_a_waiter_claim_the_computation() {
        let cache = Arc::new(MatrixCache::new(4));
        let Lookup::Miss(guard) = cache.begin(7) else {
            panic!("empty cache must miss");
        };
        let waiter = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || match cache.begin(7) {
                Lookup::Hit(_) => panic!("nothing was ever inserted"),
                Lookup::Miss(claimed) => claimed.fulfil(matrix(2, 3)),
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        drop(guard); // leader fails (deadline, error): key released
        waiter.join().unwrap();
        assert_eq!(lookup(&cache, 7).unwrap().get(0, 0), 3);
    }

    #[test]
    fn disabled_cache_returns_inert_guards() {
        let cache = MatrixCache::new(0);
        let Lookup::Miss(guard) = cache.begin(1) else {
            panic!("disabled cache can only miss");
        };
        guard.fulfil(matrix(2, 1));
        assert!(
            lookup(&cache, 1).is_none(),
            "nothing is stored when disabled"
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
        // A second begin must not block on the first one's key.
        assert!(matches!(cache.begin(1), Lookup::Miss(_)));
    }

    #[test]
    fn failed_computations_are_not_cached() {
        let cache: Cache<(String, u64), u32> = Cache::new(2);
        let key = || ("store".to_string(), 3);
        let failed = cache.get_or_try_insert_with(key(), || Err("corrupt object"));
        assert_eq!(failed.unwrap_err(), "corrupt object");
        assert_eq!(cache.stats().entries, 0);
        let value = cache.get_or_try_insert_with(key(), || Ok::<_, ()>(5));
        assert_eq!(*value.unwrap(), 5);
        let value = cache.get_or_try_insert_with(key(), || Err(()));
        assert_eq!(*value.unwrap(), 5, "a hit never calls compute");
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 2,
                entries: 1
            }
        );
    }

    #[test]
    fn shared_entries_survive_eviction() {
        let cache = MatrixCache::new(1);
        fill(&cache, 1, matrix(2, 5));
        let held = lookup(&cache, 1).unwrap();
        fill(&cache, 2, matrix(2, 6)); // evicts key 1
        assert!(lookup(&cache, 1).is_none());
        assert_eq!(held.get(1, 1), 5, "the Arc keeps the matrix alive");
    }
}
