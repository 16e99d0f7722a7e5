//! A CUDA-style execution model simulated on a CPU thread pool.
//!
//! §V of the paper specifies its parallel algorithms *in the CUDA model*:
//! a kernel launch runs a 1-D grid of blocks, each block owns fast shared
//! memory and many threads, all blocks see global memory, and the only
//! global synchronization point is the end of a kernel launch. The paper's
//! Tesla K40 is not available here, so this crate reproduces that model
//! faithfully enough for the algorithms to be expressed identically (see
//! DESIGN.md §2):
//!
//! * [`device`] — device descriptions with a [`device::DeviceSpec::tesla_k40`]
//!   preset matching the paper's hardware;
//! * [`shared`] — per-block shared memory with the device's capacity limit
//!   enforced;
//! * [`global`] — global-memory buffers with CUDA-like relaxed-atomic
//!   access, shareable across blocks;
//! * [`launch`] — the [`launch::Kernel`] trait and [`launch::GpuSim`]
//!   executor: a launch is one phase of a `mosaic-pool` gang with one
//!   ticket per block, and returns only when every block finished (the
//!   kernel-boundary barrier of Algorithm 2); a [`launch::Session`] keeps
//!   its lanes across many launches of one kernel;
//! * [`stats`] — per-launch and cumulative execution counters;
//! * [`model`] — an analytic throughput model that converts a measured
//!   work profile into an estimated K40 execution time, used by the
//!   benchmark harness to report modeled speedups next to measured ones.
//!
//! # Example
//!
//! ```
//! use mosaic_gpu::{DeviceSpec, GlobalBuffer, GpuSim, LaunchConfig};
//!
//! let sim = GpuSim::with_workers(DeviceSpec::tesla_k40(), 2);
//! let out = GlobalBuffer::filled(64, 0u32);
//! // One block per output word, squaring its block id.
//! sim.launch(LaunchConfig::linear(64, 32), &|ctx: &mut mosaic_gpu::BlockContext<'_>| {
//!     let b = ctx.block_id() as u32;
//!     out.store(ctx.block_id(), b * b);
//! });
//! // The launch is a barrier: all writes are visible now.
//! assert_eq!(out.load(9), 81);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device;
pub mod global;
pub mod launch;
pub mod model;
pub mod shared;
pub mod stats;

pub use device::DeviceSpec;
pub use global::GlobalBuffer;
pub use launch::{BlockContext, GpuSim, Kernel, LaunchConfig, Session};
pub use model::{CostModel, WorkProfile};
pub use shared::SharedMem;
pub use stats::{ExecStats, LaunchRecord};
