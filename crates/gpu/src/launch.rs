//! Kernel launches on the simulated device.
//!
//! The execution contract mirrors CUDA §V of the paper:
//!
//! * a launch runs a 1-D grid of `blocks` blocks, as every kernel of the
//!   paper does (one block per tile pair in Step 2, one per swap of a
//!   colour group in Step 3);
//! * blocks run concurrently (here: over lanes of a persistent
//!   `mosaic-pool` worker pool) in an unspecified order, so kernels must
//!   not assume any inter-block ordering;
//! * each block owns a private [`SharedMem`] arena;
//! * global memory is shared ([`crate::GlobalBuffer`], relaxed atomics);
//! * the launch returns only when every block has finished — the
//!   kernel-boundary barrier Algorithm 2 relies on between color groups.
//!
//! A [`Session`] launches one kernel many times on lanes recruited once
//! from the pool (a `mosaic-pool` gang): each launch is one gang phase,
//! and a block's id is its ticket's chunk, so the barrier between
//! launches is atomic, not a pool dispatch. [`GpuSim::launch`] is a
//! one-launch session.
//!
//! A block's threads are not simulated one by one: a kernel body covers
//! the work of all `threads_per_block` threads, which only the launch
//! statistics count.

use crate::device::DeviceSpec;
use crate::shared::SharedMem;
use crate::stats::{ExecStats, LaunchRecord};
use mosaic_pool::{Gang, ThreadPool};
use mosaic_telemetry::{lock_unpoisoned, registry, tracer, Counter, Gauge, Histogram};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The 1-D grid of one launch.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of blocks.
    pub blocks: usize,
    /// Number of threads per block.
    pub threads_per_block: usize,
}

impl LaunchConfig {
    /// `blocks` blocks of `threads_per_block` threads each.
    pub fn linear(blocks: usize, threads_per_block: usize) -> Self {
        LaunchConfig {
            blocks,
            threads_per_block,
        }
    }
}

/// Per-block execution context handed to kernels.
pub struct BlockContext<'a> {
    block_id: usize,
    shared: &'a mut SharedMem,
}

impl BlockContext<'_> {
    /// This block's index within the grid.
    #[inline]
    pub fn block_id(&self) -> usize {
        self.block_id
    }

    /// The block's shared-memory arena.
    #[inline]
    pub fn shared(&mut self) -> &mut SharedMem {
        self.shared
    }
}

/// A device kernel: the per-block body.
///
/// Kernels observe global state only through shared references, matching
/// CUDA's "global memory + atomics" model; use [`crate::GlobalBuffer`]
/// for anything written concurrently.
pub trait Kernel: Sync {
    /// Execute one block.
    fn block(&self, ctx: &mut BlockContext<'_>);
}

// Closures can act as simple kernels.
impl<F: Fn(&mut BlockContext<'_>) + Sync> Kernel for F {
    fn block(&self, ctx: &mut BlockContext<'_>) {
        self(ctx)
    }
}

/// The simulated device executor.
///
/// Worker lanes are dispatched onto a persistent [`ThreadPool`] — by
/// default the process-wide `mosaic_pool::global()`. A [`Session`] holds
/// its lanes for many launches (one per color group per sweep in
/// Algorithm 2), so a launch costs an atomic barrier, not a pool
/// dispatch.
pub struct GpuSim {
    device: DeviceSpec,
    workers: usize,
    pool: Arc<ThreadPool>,
    stats: Mutex<ExecStats>,
}

impl GpuSim {
    /// Simulator for `device` with one worker lane per available CPU core.
    pub fn new(device: DeviceSpec) -> Self {
        let pool = Arc::clone(mosaic_pool::global());
        let workers = pool.threads();
        Self::with_pool(device, pool, workers)
    }

    /// Simulator with an explicit worker-lane count (≥ 1) on the shared
    /// process-wide pool.
    ///
    /// # Panics
    /// Panics when `workers == 0`.
    pub fn with_workers(device: DeviceSpec, workers: usize) -> Self {
        Self::with_pool(device, Arc::clone(mosaic_pool::global()), workers)
    }

    /// Simulator dispatching its block lanes on an explicit pool (the
    /// service gives every `Server` its own).
    ///
    /// # Panics
    /// Panics when `workers == 0`.
    pub fn with_pool(device: DeviceSpec, pool: Arc<ThreadPool>, workers: usize) -> Self {
        assert!(workers > 0, "at least one worker is required");
        GpuSim {
            device,
            workers,
            pool,
            stats: Mutex::new(ExecStats::default()),
        }
    }

    /// The simulated device.
    #[inline]
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Worker lanes used to execute blocks.
    #[inline]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Snapshot of cumulative statistics.
    pub fn stats(&self) -> ExecStats {
        lock_unpoisoned(&self.stats).clone()
    }

    /// Launch `kernel` over `config`. Blocks until every block has
    /// executed (the kernel-boundary barrier). A one-launch
    /// [`session`](Self::session).
    ///
    /// # Panics
    /// Propagates panics from kernel blocks.
    pub fn launch<K: Kernel>(&self, config: LaunchConfig, kernel: &K) -> LaunchRecord {
        let lanes = self.workers.min(config.blocks).max(1);
        self.session_on(lanes, kernel, |session| session.launch(config))
    }

    /// Open a device session for `kernel` and run `body` on it: every
    /// [`Session::launch`] in `body` runs `kernel` on the session's lanes,
    /// which stay recruited from one pool dispatch until `body` returns.
    /// A kernel that needs per-launch arguments reads them from
    /// [`crate::GlobalBuffer`]s that `body` writes between launches.
    ///
    /// # Panics
    /// Propagates panics from kernel blocks and from `body`.
    pub fn session<K: Kernel, R>(&self, kernel: &K, body: impl FnOnce(&Session<'_>) -> R) -> R {
        self.session_on(self.workers, kernel, body)
    }

    fn session_on<K: Kernel, R>(
        &self,
        lanes: usize,
        kernel: &K,
        body: impl FnOnce(&Session<'_>) -> R,
    ) -> R {
        let shared_peak = AtomicUsize::new(0);
        let metrics = LaunchMetrics::lookup();
        // Every launch is one gang phase with one chunk per block, so the
        // lanes claim blocks one at a time, in any order.
        self.pool.gang(
            lanes,
            |_launch, block_id| {
                let mut shared = SharedMem::new(self.device.shared_mem_per_block);
                kernel.block(&mut BlockContext {
                    block_id,
                    shared: &mut shared,
                });
                if shared.used() > 0 {
                    shared_peak.fetch_max(shared.used(), Ordering::Relaxed);
                }
            },
            |gang| {
                body(&Session {
                    sim: self,
                    shared_peak: &shared_peak,
                    gang,
                    metrics: &metrics,
                })
            },
        )
    }
}

/// An open device session: a fixed kernel, launched any number of
/// times on lanes held for the whole session. See [`GpuSim::session`].
pub struct Session<'a> {
    sim: &'a GpuSim,
    /// The largest shared-memory use of any block of the current launch.
    shared_peak: &'a AtomicUsize,
    gang: &'a Gang<'a>,
    metrics: &'a LaunchMetrics,
}

impl Session<'_> {
    /// Launch the session's kernel over `config`. Blocks until every
    /// block has executed (the kernel-boundary barrier), then records
    /// the launch in the simulator's statistics and the `gpu_*` metrics.
    ///
    /// # Panics
    /// Propagates panics from kernel blocks.
    pub fn launch(&self, config: LaunchConfig) -> LaunchRecord {
        let _span = tracer().span("gpu_launch");
        let start = Instant::now();
        self.shared_peak.store(0, Ordering::Relaxed);
        self.gang.run(1, config.blocks);
        let record = LaunchRecord {
            blocks: config.blocks,
            threads: config.blocks * config.threads_per_block,
            shared_bytes: self.shared_peak.load(Ordering::Relaxed),
            wall: start.elapsed(),
        };
        lock_unpoisoned(&self.sim.stats).record(&record);
        self.metrics.record(&record);
        record
    }
}

/// The `gpu_*` metric handles, looked up once per session.
struct LaunchMetrics {
    launches: Arc<Counter>,
    blocks: Arc<Counter>,
    threads: Arc<Counter>,
    shared_peak: Arc<Gauge>,
    wall: Arc<Histogram>,
}

impl LaunchMetrics {
    fn lookup() -> Self {
        let metrics = registry();
        LaunchMetrics {
            launches: metrics.counter("gpu_launches_total"),
            blocks: metrics.counter("gpu_blocks_total"),
            threads: metrics.counter("gpu_threads_total"),
            shared_peak: metrics.gauge("gpu_shared_bytes_peak"),
            wall: metrics.histogram("gpu_launch_wall_us"),
        }
    }

    fn record(&self, record: &LaunchRecord) {
        self.launches.inc();
        self.blocks.add(record.blocks as u64);
        self.threads.add(record.threads as u64);
        self.shared_peak.fetch_max(record.shared_bytes as i64);
        self.wall.record_duration_us(record.wall);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::GlobalBuffer;

    fn sim() -> GpuSim {
        GpuSim::with_workers(DeviceSpec::tesla_k40(), 4)
    }

    #[test]
    fn every_block_executes_exactly_once() {
        let sim = sim();
        let out = GlobalBuffer::filled(100, 0u32);
        let kernel = |ctx: &mut BlockContext<'_>| {
            let id = ctx.block_id();
            out.store(id, out.load(id) + 1);
        };
        let rec = sim.launch(LaunchConfig::linear(100, 32), &kernel);
        assert_eq!(rec.blocks, 100);
        assert_eq!(rec.threads, 3200);
        assert!(out.to_vec().iter().all(|&v| v == 1));
    }

    #[test]
    fn shared_memory_is_private_and_reset() {
        let sim = GpuSim::with_workers(DeviceSpec::tesla_k40(), 3);
        let dirty = GlobalBuffer::filled(1, 0u32);
        let kernel = |ctx: &mut BlockContext<'_>| {
            let buf = ctx.shared().alloc_u8(64);
            if buf.iter().any(|&b| b != 0) {
                dirty.store(0, 1);
            }
            buf.fill(0xAB);
        };
        sim.launch(LaunchConfig::linear(64, 1), &kernel);
        assert_eq!(dirty.load(0), 0, "shared memory leaked between blocks");
    }

    #[test]
    fn zero_block_launch_is_a_noop() {
        let sim = sim();
        let kernel = |_ctx: &mut BlockContext<'_>| panic!("must not run");
        let rec = sim.launch(LaunchConfig::linear(0, 32), &kernel);
        assert_eq!(rec.blocks, 0);
    }

    #[test]
    fn stats_accumulate_across_launches() {
        let sim = sim();
        let kernel = |_ctx: &mut BlockContext<'_>| {};
        sim.launch(LaunchConfig::linear(10, 2), &kernel);
        sim.launch(LaunchConfig::linear(5, 4), &kernel);
        let stats = sim.stats();
        assert_eq!(stats.launches, 2);
        assert_eq!(stats.blocks, 15);
        assert_eq!(stats.threads, 40);
    }

    #[test]
    fn launch_reports_shared_memory_high_water() {
        let sim = sim();
        let kernel = |ctx: &mut BlockContext<'_>| {
            // Block 3 allocates the most shared memory.
            let n = if ctx.block_id() == 3 { 96 } else { 16 };
            let _ = ctx.shared().alloc_u8(n);
        };
        let rec = sim.launch(LaunchConfig::linear(8, 1), &kernel);
        assert_eq!(rec.shared_bytes, 96, "peak across blocks");
        assert_eq!(sim.stats().shared_bytes_peak, 96);

        // A later, smaller launch does not lower the cumulative peak.
        let small = |ctx: &mut BlockContext<'_>| {
            let _ = ctx.shared().alloc_u8(8);
        };
        let rec = sim.launch(LaunchConfig::linear(2, 1), &small);
        assert_eq!(rec.shared_bytes, 8);
        assert_eq!(sim.stats().shared_bytes_peak, 96);
    }

    #[test]
    fn launch_is_a_barrier() {
        // After launch returns, all block writes must be visible.
        let sim = GpuSim::with_workers(DeviceSpec::tesla_k40(), 8);
        for _ in 0..10 {
            let out = GlobalBuffer::filled(1000, 0u32);
            let kernel = |ctx: &mut BlockContext<'_>| {
                out.store(ctx.block_id(), 7);
            };
            sim.launch(LaunchConfig::linear(1000, 1), &kernel);
            assert!(out.to_vec().iter().all(|&v| v == 7));
        }
    }

    #[test]
    fn single_worker_executes_sequentially() {
        let sim = GpuSim::with_workers(DeviceSpec::host_single_core(), 1);
        let out = GlobalBuffer::filled(16, 0u32);
        let kernel = |ctx: &mut BlockContext<'_>| {
            out.store(ctx.block_id(), ctx.block_id() as u32);
        };
        sim.launch(LaunchConfig::linear(16, 1), &kernel);
        assert_eq!(out.to_vec(), (0..16).collect::<Vec<u32>>());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = GpuSim::with_workers(DeviceSpec::tesla_k40(), 0);
    }

    #[test]
    fn explicit_pool_executes_every_block() {
        let pool = Arc::new(mosaic_pool::ThreadPool::new(2));
        let sim = GpuSim::with_pool(DeviceSpec::tesla_k40(), pool, 3);
        let out = GlobalBuffer::filled(50, 0u32);
        let kernel = |ctx: &mut BlockContext<'_>| {
            let id = ctx.block_id();
            out.store(id, out.load(id) + 1);
        };
        let rec = sim.launch(LaunchConfig::linear(50, 1), &kernel);
        assert_eq!(rec.blocks, 50);
        assert!(out.to_vec().iter().all(|&v| v == 1));
    }
}
