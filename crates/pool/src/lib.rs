//! `mosaic-pool` — a persistent worker pool for the workspace's parallel
//! stages.
//!
//! The paper's GPU path (§V) amortizes launch cost by reusing one device
//! across a kernel launch per color group; the CPU analogue is reusing one
//! set of OS threads across every parallel call. [`ThreadPool`] spawns its
//! workers once and then lends them, as *lanes*, to borrowed
//! (non-`'static`) closures:
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
//! Every parallel call is a [`ThreadPool::gang`]: the calling thread plus
//! up to `lanes - 1` pool workers claim chunks of a sequence of phases
//! from one atomic counter (see the `gang` module). `parallel_for` is a
//! gang with one phase of `chunks` chunks.
//!
//! The pool itself only recruits lanes. One mutex guards a queue of
//! *calls*, one per running gang that asked for helpers: a worker takes a
//! lane of the oldest call that still wants one and runs the gang's lane
//! body until the gang closes. The caller works as a lane too, so a
//! gang whose helpers never arrive (a 1-core pool, workers busy in other
//! gangs, a nested call from inside a chunk) still finishes, on its
//! caller alone; that is what keeps nested calls deadlock-free.
//!
//! A panicking chunk fails *its call, not the process*: the gang re-raises
//! the first payload on the calling thread, and the workers survive to
//! serve later calls.
//!
//! Deadlines stay cooperative: tasks capture `&Deadline` (or any other
//! cancellation token) in their closure and poll it at chunk/row/sweep
//! boundaries — the pool itself has no deadline opinion.
//!
//! # Safety
//!
//! The crate's one unchecked operation is the lifetime-erasing transmute
//! in `with_lanes`; [`ThreadPool::parallel_for_mut`] hands out its
//! disjoint chunks safely, through a mutex-guarded `chunks_mut`.
//!
//! Running a borrowed lane body on persistent threads requires erasing
//! its lifetime where the call is queued. The soundness argument is the same
//! as `std::thread::scope`'s: [`ThreadPool::gang`] withdraws its call and
//! waits until every worker that took one of its lanes has left it before
//! it returns or unwinds, so the erased reference never outlives the frame
//! that owns the body.

mod gang;

pub use gang::Gang;

use mosaic_telemetry::{lock_unpoisoned, registry};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// A lifetime-erased borrow of a gang's lane body. See the crate-level
/// Safety section: the borrow is dead before the gang returns.
type LaneRef = &'static (dyn Fn() + Sync);

/// One gang's request for helper lanes.
struct Call {
    id: u64,
    lane: LaneRef,
    /// Lanes still wanted; a worker takes one by decrementing it.
    wanted: usize,
    /// Workers running `lane` right now.
    inside: usize,
}

/// Everything guarded by the pool mutex.
struct State {
    /// Calls in submission order; workers serve the oldest first.
    calls: VecDeque<Call>,
    next_id: u64,
    shutdown: bool,
}

/// Cached metric handles — looked up once so the recruit path never
/// touches the registry's interning lock.
struct PoolMetrics {
    task_us: Arc<mosaic_telemetry::Histogram>,
    queue_depth: Arc<mosaic_telemetry::Gauge>,
    gang_parks: Arc<mosaic_telemetry::Counter>,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when a call wants lanes or shutdown is flagged.
    work_ready: Condvar,
    /// Signalled when the last worker leaves a withdrawn call.
    lane_left: Condvar,
    metrics: PoolMetrics,
}

/// A persistent worker pool with a scoped, chunk-indexed dispatch API.
///
/// Construction spawns the workers once; every later call is
/// lock-and-notify only. Dropping the pool (or calling
/// [`shutdown`](Self::shutdown)) lets running calls finish and joins the
/// workers.
pub struct ThreadPool {
    shared: Arc<Shared>,
    threads: usize,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl ThreadPool {
    /// Spawn a pool with `threads` persistent workers.
    ///
    /// If the OS refuses to spawn some workers the pool still functions
    /// with however many it got — even zero, because callers work as
    /// lanes of their own calls.
    ///
    /// # Panics
    /// Panics when `threads == 0`.
    pub fn new(threads: usize) -> ThreadPool {
        assert!(threads > 0, "a pool needs at least one worker thread");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                calls: VecDeque::new(),
                next_id: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            lane_left: Condvar::new(),
            metrics: PoolMetrics {
                task_us: registry().histogram("pool_task_us"),
                queue_depth: registry().gauge("pool_queue_depth"),
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
    /// across the pool's workers and the calling thread: a one-phase
    /// [`gang`](Self::gang). Returns when every chunk has completed.
    ///
    /// The closure may borrow from the caller's stack; see the crate
    /// docs for why that is sound.
    ///
    /// # Panics
    /// If any chunk panics, the other chunks still run and the first
    /// payload is re-raised here once all of them have finished.
    pub fn parallel_for<F>(&self, chunks: usize, task: F)
    where
        F: Fn(usize) + Sync,
    {
        self.gang(
            chunks.max(1),
            |_, chunk| task(chunk),
            |gang| gang.run(1, chunks),
        );
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
        if data.is_empty() {
            return;
        }
        let chunks = data.len().div_ceil(chunk_len);
        // One ticket per chunk: each takes the next `(index, chunk)` and
        // drops the guard before running `task`.
        let next = Mutex::new(data.chunks_mut(chunk_len).enumerate());
        self.parallel_for(chunks, |_| {
            let claimed = lock_unpoisoned(&next).next();
            if let Some((chunk, items)) = claimed {
                task(chunk, items);
            }
        });
    }

    /// Run `body` on the calling thread while up to `helpers` idle workers
    /// each run `lane` once; return `body`'s outcome (re-raising its
    /// panic) after every worker that took a lane has left it. `body`
    /// must make `lane` return, as a gang's close does; `lane` must not
    /// unwind, because its worker then never reports that it left.
    fn with_lanes<R>(
        &self,
        helpers: usize,
        lane: &(dyn Fn() + Sync),
        body: impl FnOnce() -> R,
    ) -> R {
        let metrics = &self.shared.metrics;
        let id = {
            let mut state = self.lock();
            if helpers == 0 || state.shutdown {
                // No lanes to recruit: the caller runs the whole call.
                drop(state);
                return body();
            }
            // The reference is handed to worker threads, but this
            // function does not return until the call below is withdrawn
            // and no worker is inside it, both observed under the pool
            // mutex, so the borrow of `lane` strictly outlives every use.
            // SAFETY: only the *lifetime* of the reference is stretched
            // (the pointee type is unchanged); the barrier above bounds
            // all uses.
            let lane: LaneRef = unsafe { std::mem::transmute(lane) };
            let id = state.next_id;
            state.next_id += 1;
            state.calls.push_back(Call {
                id,
                lane,
                wanted: helpers,
                inside: 0,
            });
            metrics.queue_depth.add(helpers as i64);
            id
        };
        for _ in 0..helpers {
            self.shared.work_ready.notify_one();
        }
        let outcome = catch_unwind(AssertUnwindSafe(body));
        // Withdraw the call, then wait until no worker is inside it. Only
        // this caller removes it, so it is found on every pass.
        let mut state = self.lock();
        while let Some(at) = state.calls.iter().position(|call| call.id == id) {
            let call = &mut state.calls[at];
            metrics
                .queue_depth
                .add(-(std::mem::take(&mut call.wanted) as i64));
            if call.inside == 0 {
                state.calls.remove(at);
                break;
            }
            state = self
                .shared
                .lane_left
                .wait(state)
                // lint:allow(lock) Condvar::wait re-acquires internally; this is the same policy inlined
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(state);
        outcome.unwrap_or_else(|payload| resume_unwind(payload))
    }

    /// Flag the pool for shutdown and join the workers once they have
    /// left the calls they are serving. Idempotent; calls that arrive
    /// after the flag run on their caller alone, so no caller is ever
    /// stranded.
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
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The persistent worker body: take a lane of the oldest call that wants
/// one, run it, repeat; park when idle; exit once shutdown is flagged and
/// no call wants a lane.
fn worker_loop(shared: &Shared) {
    let metrics = &shared.metrics;
    let mut state = lock_unpoisoned(&shared.state);
    loop {
        if let Some(call) = state.calls.iter_mut().find(|call| call.wanted > 0) {
            call.wanted -= 1;
            call.inside += 1;
            let (id, lane) = (call.id, call.lane);
            metrics.queue_depth.add(-1);
            drop(state);
            let start = Instant::now();
            lane();
            metrics.task_us.record_duration_us(start.elapsed());
            state = lock_unpoisoned(&shared.state);
            // The caller removes its call only once no worker is inside.
            if let Some(call) = state.calls.iter_mut().find(|call| call.id == id) {
                call.inside -= 1;
                if call.inside == 0 && call.wanted == 0 {
                    shared.lane_left.notify_all();
                }
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
