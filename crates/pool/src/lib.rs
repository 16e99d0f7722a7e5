//! `mosaic-pool` — a persistent worker pool for the workspace's parallel
//! stages.
//!
//! The paper's GPU path (§V) amortizes launch cost by reusing one device
//! across a kernel launch per color group; the CPU analogue is reusing one
//! set of OS threads across every batch. Before this crate, each parallel
//! stage called `std::thread::scope` per invocation — for the parallel
//! swap search that is O(color-groups × sweeps × threads) spawns per job.
//! [`ThreadPool`] spawns its workers once and then dispatches borrowed
//! (non-`'static`) closures to them as chunk-indexed batches:
//!
//! ```
//! let pool = mosaic_pool::ThreadPool::new(2);
//! let mut squares = vec![0u64; 10];
//! pool.parallel_for_mut(&mut squares, 3, |chunk, items| {
//!     for (offset, slot) in items.iter_mut().enumerate() {
//!         let i = (chunk * 3 + offset) as u64;
//!         *slot = i * i;
//!     }
//! });
//! assert_eq!(squares[9], 81);
//! ```
//!
//! # Design
//!
//! One mutex guards the whole pool state (a FIFO of live batches plus a
//! parking list of finished batch ids); two condvars signal "work is
//! available" (to workers) and "a batch completed" (to submitters).
//! Submitters *help*: after enqueueing, the calling thread claims chunks
//! of its own batch alongside the workers, then blocks only for chunks
//! still running elsewhere. This keeps a 1-core pool (or a pool whose
//! workers are busy with other batches) deadlock-free — every batch can
//! always be driven to completion by its own submitter — and it means
//! nested `parallel_for` calls from inside a task cannot wedge either.
//!
//! A panic inside a task poisons *the batch, not the process*: the first
//! payload is captured and re-raised on the submitting thread once the
//! batch drains; the workers survive and keep serving later batches.
//!
//! Deadlines stay cooperative: tasks capture `&Deadline` (or any other
//! cancellation token) in their closure and poll it at chunk/row/sweep
//! boundaries exactly as the scoped-thread code did — the pool itself has
//! no deadline opinion, so `mosaic-grid` semantics are unchanged.
//!
//! A computation that needs a barrier between many short phases (Algorithm
//! 2's color groups, the simulated GPU's launches) runs as one
//! [`ThreadPool::gang`] instead of one batch per phase: the lanes are
//! recruited once and the phases are separated by an atomic barrier that
//! waits for claimed work, not for lanes.
//!
//! # Safety
//!
//! Executing borrowed closures on persistent threads requires erasing the
//! closure lifetime at the dispatch boundary. The soundness argument is
//! the same as `std::thread::scope`'s: the one dispatch path behind
//! [`ThreadPool::parallel_for`] and [`ThreadPool::gang`] does not return
//! until every chunk of its batch has finished running (the completion
//! count is observed under the pool mutex), so the erased reference never
//! outlives the frame that owns the closure.

mod gang;

pub use gang::Gang;

use mosaic_telemetry::{lock_unpoisoned, registry};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// What a panicking task leaves behind for the submitter to re-raise.
type Payload = Box<dyn Any + Send + 'static>;

/// A lifetime-erased borrow of the batch body. See the crate-level
/// Safety section: the borrow is dead before `parallel_for` returns.
type TaskRef = &'static (dyn Fn(usize) + Sync);

/// One submitted `parallel_for` call: `chunks` indexed invocations of
/// `task`, dispatched at most once each.
struct Batch {
    id: u64,
    task: TaskRef,
    /// Total chunk count.
    chunks: usize,
    /// Next unclaimed chunk index (`== chunks` when fully claimed).
    next: usize,
    /// Chunks claimed but not yet completed, plus unclaimed ones.
    pending: usize,
    /// First panic payload observed in this batch, if any.
    payload: Option<Payload>,
}

/// Everything guarded by the pool mutex.
struct State {
    /// Live batches in submission order; claims scan front to back.
    batches: VecDeque<Batch>,
    /// Fully drained batches waiting for their submitter to collect.
    finished: Vec<(u64, Option<Payload>)>,
    next_id: u64,
    shutdown: bool,
}

/// Cached metric handles — looked up once so the per-chunk path never
/// touches the registry's interning lock.
struct PoolMetrics {
    task_us: Arc<mosaic_telemetry::Histogram>,
    queue_depth: Arc<mosaic_telemetry::Gauge>,
    spawns_avoided: Arc<mosaic_telemetry::Counter>,
    gang_parks: Arc<mosaic_telemetry::Counter>,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when a batch is enqueued or shutdown is flagged.
    work_ready: Condvar,
    /// Signalled when a batch fully drains.
    batch_done: Condvar,
    metrics: PoolMetrics,
}

/// A persistent worker pool with a scoped, chunk-indexed dispatch API.
///
/// Construction spawns the workers once; every subsequent
/// [`parallel_for`](Self::parallel_for) is lock-and-notify only. Dropping
/// the pool (or calling [`shutdown`](Self::shutdown)) drains in-flight
/// batches and joins the workers.
pub struct ThreadPool {
    shared: Arc<Shared>,
    threads: usize,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl ThreadPool {
    /// Spawn a pool with `threads` persistent workers.
    ///
    /// If the OS refuses to spawn some workers the pool still functions
    /// with however many it got — even zero, because submitters help
    /// drive their own batches.
    ///
    /// # Panics
    /// Panics when `threads == 0`.
    pub fn new(threads: usize) -> ThreadPool {
        assert!(threads > 0, "a pool needs at least one worker thread");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                batches: VecDeque::new(),
                finished: Vec::new(),
                next_id: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            batch_done: Condvar::new(),
            metrics: PoolMetrics {
                task_us: registry().histogram("pool_task_us"),
                queue_depth: registry().gauge("pool_queue_depth"),
                spawns_avoided: registry().counter("pool_spawns_avoided_total"),
                gang_parks: registry().counter("pool_gang_parks_total"),
            },
        });
        let mut handles = Vec::with_capacity(threads);
        for i in 0..threads {
            let worker_shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("mosaic-pool-{i}"))
                .spawn(move || worker_loop(&worker_shared));
            if let Ok(handle) = spawned {
                handles.push(handle);
            }
        }
        ThreadPool {
            shared,
            threads,
            handles: Mutex::new(handles),
        }
    }

    /// The worker count this pool was sized for — callers use it as the
    /// default chunking factor.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `task(0) .. task(chunks - 1)`, each exactly once, distributed
    /// across the pool's workers and the calling thread. Returns when
    /// every chunk has completed.
    ///
    /// The closure may borrow from the caller's stack; see the crate
    /// docs for why that is sound.
    ///
    /// # Panics
    /// If any chunk panics, the first payload is re-raised here after
    /// the whole batch has drained (no chunk is left running).
    pub fn parallel_for<F>(&self, chunks: usize, task: F)
    where
        F: Fn(usize) + Sync,
    {
        if chunks == 0 {
            return;
        }
        if chunks == 1 {
            // One chunk gains nothing from a round-trip through the
            // queue; run it on the caller.
            self.shared.metrics.spawns_avoided.inc();
            task(0);
            return;
        }
        if let (_, Some(payload)) = self.dispatch(chunks, &task, || ()) {
            resume_unwind(payload);
        }
    }

    /// Enqueue `chunks` calls of `task` for the workers, run `alongside`
    /// on the calling thread, then help drive the batch until every chunk
    /// has completed. Returns `alongside`'s outcome and the first chunk
    /// panic; a panic in `alongside` is caught so that the batch still
    /// drains before the borrow of `task` ends.
    pub(crate) fn dispatch<R>(
        &self,
        chunks: usize,
        task: &(dyn Fn(usize) + Sync),
        alongside: impl FnOnce() -> R,
    ) -> (std::thread::Result<R>, Option<Payload>) {
        // The reference is handed to worker threads, but this function
        // does not return until `drive` observes the batch fully
        // completed under the pool mutex, so the borrow of `task`
        // strictly outlives every use.
        // SAFETY: only the *lifetime* of the reference is stretched (the
        // pointee type is unchanged); the barrier above bounds all uses.
        let erased: TaskRef = unsafe { std::mem::transmute(task) };
        let id = {
            let mut state = self.lock();
            if state.shutdown {
                // The pool is gone; degrade to the serial reference
                // semantics instead of dropping work on the floor.
                drop(state);
                let value = catch_unwind(AssertUnwindSafe(alongside));
                let mut payload = None;
                for chunk in 0..chunks {
                    if let Err(panic) = run_chunk(erased, chunk, &self.shared.metrics) {
                        payload.get_or_insert(panic);
                    }
                }
                return (value, payload);
            }
            let id = state.next_id;
            state.next_id += 1;
            state.batches.push_back(Batch {
                id,
                task: erased,
                chunks,
                next: 0,
                pending: chunks,
                payload: None,
            });
            self.shared.metrics.queue_depth.add(chunks as i64);
            self.shared.metrics.spawns_avoided.add(chunks as u64);
            id
        };
        self.shared.work_ready.notify_all();
        let value = catch_unwind(AssertUnwindSafe(alongside));
        (value, self.drive(id))
    }

    /// Split `data` into consecutive chunks of `chunk_len` elements (the
    /// last may be shorter) and run `task(chunk_index, chunk)` for each,
    /// in parallel. Equivalent to iterating `data.chunks_mut(chunk_len)`
    /// serially — the chunks are disjoint `&mut` views.
    ///
    /// # Panics
    /// Panics when `chunk_len == 0`; re-raises task panics like
    /// [`parallel_for`](Self::parallel_for).
    pub fn parallel_for_mut<T, F>(&self, data: &mut [T], chunk_len: usize, task: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(chunk_len > 0, "chunk_len must be positive");
        let len = data.len();
        if len == 0 {
            return;
        }
        let chunks = len.div_ceil(chunk_len);
        let base = SendPtr(data.as_mut_ptr());
        self.parallel_for(chunks, move |chunk| {
            let start = chunk * chunk_len;
            let take = chunk_len.min(len - start);
            let first = base;
            // Chunk indices are in 0..chunks and each is dispatched
            // exactly once (see `parallel_for`), so the ranges
            // [start, start + take) partition 0..len without overlap.
            // SAFETY: each element is reborrowed mutably by at most one
            // concurrent task (disjoint ranges, per above), within the
            // caller's exclusive `&mut data` borrow.
            let items = unsafe { std::slice::from_raw_parts_mut(first.0.add(start), take) };
            task(chunk, items);
        });
    }

    /// Flag the pool for shutdown, drain every already-submitted batch,
    /// and join the workers. Idempotent; `parallel_for` calls that race
    /// past (or arrive after) the flag run inline on their caller, so no
    /// submitter is ever stranded.
    pub fn shutdown(&self) {
        {
            let mut state = self.lock();
            state.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        let handles = std::mem::take(&mut *lock_unpoisoned(&self.handles));
        for handle in handles {
            let _ = handle.join();
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        lock_unpoisoned(&self.shared.state)
    }

    /// Help execute our own batch, then wait for it to drain; returns
    /// the first panic payload, if any chunk panicked.
    fn drive(&self, id: u64) -> Option<Payload> {
        let mut state = self.lock();
        loop {
            if let Some((task, chunk, _)) = claim(&mut state, Some(id), &self.shared.metrics) {
                drop(state);
                let outcome = run_chunk(task, chunk, &self.shared.metrics);
                state = self.lock();
                if complete(&mut state, id, outcome) {
                    self.shared.batch_done.notify_all();
                }
                continue;
            }
            if let Some(at) = state.finished.iter().position(|(fid, _)| *fid == id) {
                let (_, payload) = state.finished.swap_remove(at);
                return payload;
            }
            state = self
                .shared
                .batch_done
                .wait(state)
                // lint:allow(lock) Condvar::wait re-acquires internally; this is the same policy inlined
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Claim the next unclaimed chunk, scanning batches in FIFO order. With
/// `only` set, claims are restricted to that batch (submitters drive
/// their own work, never a stranger's — that bound is what makes nested
/// submission deadlock-free).
fn claim(
    state: &mut State,
    only: Option<u64>,
    metrics: &PoolMetrics,
) -> Option<(TaskRef, usize, u64)> {
    let batch = state
        .batches
        .iter_mut()
        .filter(|b| only.is_none_or(|id| b.id == id))
        .find(|b| b.next < b.chunks)?;
    let chunk = batch.next;
    batch.next += 1;
    metrics.queue_depth.add(-1);
    Some((batch.task, chunk, batch.id))
}

/// Record one chunk's completion; returns true when the batch is fully
/// drained (and moved to the finished list).
fn complete(state: &mut State, id: u64, outcome: Result<(), Payload>) -> bool {
    let Some(at) = state.batches.iter().position(|b| b.id == id) else {
        return false;
    };
    let batch = &mut state.batches[at];
    batch.pending -= 1;
    if let Err(payload) = outcome {
        // Keep the first payload; later ones are indistinguishable
        // cascade noise by the time the submitter re-raises.
        batch.payload.get_or_insert(payload);
    }
    if batch.pending > 0 {
        return false;
    }
    let Some(done) = state.batches.remove(at) else {
        return false;
    };
    state.finished.push((done.id, done.payload));
    true
}

/// Run one chunk under panic containment and record its wall time.
fn run_chunk(task: TaskRef, chunk: usize, metrics: &PoolMetrics) -> Result<(), Payload> {
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| task(chunk)));
    metrics.task_us.record_duration_us(start.elapsed());
    outcome
}

/// The persistent worker body: claim, run, repeat; park when idle; exit
/// once shutdown is flagged and nothing is left to claim.
fn worker_loop(shared: &Shared) {
    let mut state = lock_unpoisoned(&shared.state);
    loop {
        if let Some((task, chunk, id)) = claim(&mut state, None, &shared.metrics) {
            drop(state);
            let outcome = run_chunk(task, chunk, &shared.metrics);
            state = lock_unpoisoned(&shared.state);
            if complete(&mut state, id, outcome) {
                shared.batch_done.notify_all();
            }
            continue;
        }
        if state.shutdown {
            return;
        }
        state = shared
            .work_ready
            .wait(state)
            // lint:allow(lock) Condvar::wait re-acquires internally; this is the same policy inlined
            .unwrap_or_else(PoisonError::into_inner);
    }
}

/// A raw pointer that may cross threads. Used only to derive disjoint
/// sub-slices inside [`ThreadPool::parallel_for_mut`].
struct SendPtr<T>(*mut T);

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

// SAFETY: the pointer is only dereferenced through disjoint, bounds-
// checked sub-slices (one per chunk index), mirroring how `&mut [T]`
// itself is Send when T is.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: sharing the wrapper only shares the address; each task derives
// a disjoint exclusive slice from it, so concurrent access never aliases.
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// The process-wide shared pool, sized to the machine's available
/// parallelism. Stages that are not handed an explicit pool (the CLI
/// `generate` path, the bench harness, unit tests) dispatch here.
pub fn global() -> &'static Arc<ThreadPool> {
    static GLOBAL: OnceLock<Arc<ThreadPool>> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Arc::new(ThreadPool::new(threads))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_chunk_runs_exactly_once() {
        let pool = ThreadPool::new(3);
        let hits: Vec<AtomicUsize> = (0..17).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, hit) in hits.iter().enumerate() {
            assert_eq!(hit.load(Ordering::Relaxed), 1, "chunk {i}");
        }
    }

    #[test]
    fn zero_chunks_is_a_no_op() {
        let pool = ThreadPool::new(2);
        pool.parallel_for(0, |_| unreachable!("no chunks to run"));
    }

    #[test]
    fn single_chunk_runs_inline_on_the_caller() {
        let pool = ThreadPool::new(2);
        let caller = std::thread::current().id();
        pool.parallel_for(1, |_| {
            assert_eq!(std::thread::current().id(), caller);
        });
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_panics() {
        let _ = ThreadPool::new(0);
    }

    #[test]
    fn parallel_for_mut_partitions_without_overlap() {
        let pool = ThreadPool::new(4);
        let mut data = vec![0u32; 101];
        pool.parallel_for_mut(&mut data, 7, |chunk, items| {
            for (offset, slot) in items.iter_mut().enumerate() {
                *slot = (chunk * 7 + offset) as u32 + 1;
            }
        });
        let expected: Vec<u32> = (1..=101).collect();
        assert_eq!(data, expected);
    }

    #[test]
    fn nested_parallel_for_does_not_deadlock() {
        let pool = ThreadPool::new(2);
        let total = AtomicUsize::new(0);
        pool.parallel_for(4, |_| {
            pool.parallel_for(4, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn submitting_after_shutdown_runs_inline() {
        let pool = ThreadPool::new(2);
        pool.shutdown();
        let count = AtomicUsize::new(0);
        pool.parallel_for(8, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn shutdown_is_idempotent() {
        let pool = ThreadPool::new(2);
        pool.shutdown();
        pool.shutdown();
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let a = global();
        let b = global();
        assert!(Arc::ptr_eq(a, b));
        assert!(a.threads() >= 1);
    }
}
