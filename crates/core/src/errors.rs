//! Step 2 — the S×S error matrix, on every backend.
//!
//! §V: "To implement this step, S CUDA blocks are invoked. Each CUDA block
//! is responsible for computing S error values E(I_u, T_1) … E(I_u, T_S).
//! … First, threads in each CUDA block read pixel values of tile I_u and
//! store them to the shared memory." The simulated-device path reproduces
//! that decomposition exactly: one block per input tile, the tile staged
//! in shared memory, the row of S errors written to global memory.
//!
//! Every backend reads the same Step-2 input — both images checked and
//! packed by [`mosaic_grid::pack_pair`] — and computes every entry with
//! the one tile-error function, [`mosaic_grid::pair_error`]. The
//! backends differ only in how they schedule rows.

use crate::config::Backend;
use mosaic_gpu::{BlockContext, DeviceSpec, GlobalBuffer, GpuSim, LaunchConfig, WorkProfile};
use mosaic_grid::{
    build_error_matrix_bounded, build_error_matrix_threaded_bounded_in, pack_pair, pair_error,
    unbounded_build, BuildError, Deadline, DeadlineExceeded, ErrorMatrix, LayoutError, TileLayout,
    TileMetric,
};
use mosaic_image::{Image, Pixel};
use mosaic_pool::ThreadPool;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timing and work accounting of one pipeline step.
#[derive(Clone, Debug, Default)]
pub struct StepTrace {
    /// Host wall-clock time of the step.
    pub wall: Duration,
    /// Abstract work profile for the analytic device model.
    pub profile: WorkProfile,
}

/// The work profile of Step 2 for the given geometry (used for modeled
/// device times; identical for every backend since the algorithm is).
pub fn step2_profile<P: Pixel>(layout: TileLayout, launches: usize) -> WorkProfile {
    let s = layout.tile_count() as u64;
    let tile_bytes = (layout.pixels_per_tile() * P::CHANNELS) as u64;
    WorkProfile {
        launches,
        // Each block reads its input tile once plus all S target tiles and
        // writes S u32 results.
        global_bytes: s * tile_bytes + s * s * tile_bytes + s * s * 4,
        // One subtract + one accumulate per channel sample per pair.
        ops: s * s * tile_bytes * 2,
    }
}

/// Compute the Step-2 matrix on the configured backend, dispatching the
/// parallel backends on `pool`.
///
/// Every backend polls `deadline` once per unit of work: the serial and
/// threaded builds before each matrix row, the simulated GPU before each
/// block (one block is one row). The overshoot is one row per worker.
/// Unbounded callers pass [`Deadline::NONE`] and `mosaic_pool::global()`.
///
/// # Errors
/// Returns [`BuildError::Layout`] when either image does not match
/// `layout`, and [`BuildError::DeadlineExceeded`] when `deadline` expires.
pub fn compute_error_matrix_bounded_in<P: Pixel>(
    pool: &Arc<ThreadPool>,
    input: &Image<P>,
    target: &Image<P>,
    layout: TileLayout,
    metric: TileMetric,
    backend: Backend,
    deadline: &Deadline,
) -> Result<(ErrorMatrix, StepTrace), BuildError> {
    deadline.check()?;
    let start = Instant::now();
    let (matrix, launches) = match backend {
        Backend::Serial => (
            build_error_matrix_bounded(input, target, layout, metric, deadline)?,
            0,
        ),
        Backend::Threads(_) => (
            build_error_matrix_threaded_bounded_in(
                pool,
                input,
                target,
                layout,
                metric,
                backend_lanes(pool, backend),
                deadline,
            )?,
            0,
        ),
        Backend::GpuSim { .. } => {
            let sim = simulated_device(pool, backend);
            let matrix = gpu_error_matrix_bounded(&sim, input, target, layout, metric, deadline)?;
            (matrix, 1)
        }
    };
    let trace = StepTrace {
        wall: start.elapsed(),
        profile: step2_profile::<P>(layout, launches),
    };
    Ok((matrix, trace))
}

/// The lanes `backend` runs Step 2 and Step 3 on, drawn from `pool`.
/// The one place a lane count from the wire is resolved: a requested
/// count (`Threads(n)`, `GpuSim { workers: Some(n) }`) is clamped to
/// `1..=pool.threads() + 1`, the most lanes a gang runs at once (the
/// pool's threads plus the caller), so no count can ask for more work
/// items than the pool can run or for none at all. An unset `GpuSim`
/// count uses the pool's threads, and `Serial` runs on the caller.
pub(crate) fn backend_lanes(pool: &ThreadPool, backend: Backend) -> usize {
    match backend {
        Backend::Serial => 1,
        Backend::Threads(n) | Backend::GpuSim { workers: Some(n) } => {
            n.clamp(1, pool.threads() + 1)
        }
        Backend::GpuSim { workers: None } => pool.threads(),
    }
}

/// The simulated Tesla K40 behind [`Backend::GpuSim`], running
/// [`backend_lanes`] lanes on `pool`.
pub(crate) fn simulated_device(pool: &Arc<ThreadPool>, backend: Backend) -> GpuSim {
    let lanes = backend_lanes(pool, backend);
    GpuSim::with_pool(DeviceSpec::tesla_k40(), Arc::clone(pool), lanes)
}

/// §V Step-2 kernel on an existing simulator instance.
///
/// # Errors
/// Returns [`LayoutError`] for the conditions of [`pack_pair`]: an image
/// that does not match `layout`, or a metric that can overflow a `u32`
/// entry on this tile size; and [`LayoutError::SharedMemoryOverflow`]
/// when one tile does not fit the device's shared memory per block.
pub fn gpu_error_matrix<P: Pixel>(
    sim: &GpuSim,
    input: &Image<P>,
    target: &Image<P>,
    layout: TileLayout,
    metric: TileMetric,
) -> Result<ErrorMatrix, LayoutError> {
    let bounded = gpu_error_matrix_bounded(sim, input, target, layout, metric, &Deadline::NONE);
    unbounded_build(bounded)
}

/// [`gpu_error_matrix`] under a deadline: a block that starts after
/// `deadline` has passed skips its row, and the build fails only when a
/// block was actually skipped.
///
/// # Errors
/// Returns [`BuildError::Layout`] for the conditions of
/// [`gpu_error_matrix`], and [`BuildError::DeadlineExceeded`] when a
/// block was skipped.
pub fn gpu_error_matrix_bounded<P: Pixel>(
    sim: &GpuSim,
    input: &Image<P>,
    target: &Image<P>,
    layout: TileLayout,
    metric: TileMetric,
    deadline: &Deadline,
) -> Result<ErrorMatrix, BuildError> {
    gpu_impl(sim, input, target, layout, metric, deadline, &|| ())
}

/// The shared implementation. `block_hook` runs after each block's
/// deadline poll; production callers pass a no-op, the deadline tests
/// inject a delay.
// lint:allow(deadline) the launch runs the kernel once per block, and each block polls before its row
fn gpu_impl<P: Pixel>(
    sim: &GpuSim,
    input: &Image<P>,
    target: &Image<P>,
    layout: TileLayout,
    metric: TileMetric,
    deadline: &Deadline,
    block_hook: &(dyn Fn() + Sync),
) -> Result<ErrorMatrix, BuildError> {
    let (inputs, targets) = pack_pair(input, target, layout, metric)?;
    let (tile_bytes, capacity) = (inputs.tile(0).len(), sim.device().shared_mem_per_block);
    if tile_bytes > capacity {
        let overflow = LayoutError::SharedMemoryOverflow {
            tile_bytes,
            capacity,
        };
        return Err(overflow.into());
    }
    let s = layout.tile_count();
    let matrix_out = GlobalBuffer::filled(s * s, 0u32);
    let blocks_done = AtomicUsize::new(0);

    // Resolve the SIMD dispatch once, outside the lane closure.
    let k = mosaic_image::kernel::active();
    let kernel = |ctx: &mut BlockContext<'_>| {
        // A block that starts past the deadline skips its row.
        if deadline.expired() {
            return;
        }
        block_hook();
        // One block per input tile u (§V): stage I_u in shared memory …
        let u = ctx.block_id();
        let tile = inputs.tile(u);
        let staged = ctx.shared().alloc_u8(tile.len());
        staged.copy_from_slice(tile);
        // … then compute E(I_u, T_v) for every v. On the real device the
        // block's threads split the v range; sequential iteration inside
        // the block is the barrier-free equivalent schedule.
        for (v, tv) in targets.iter().enumerate() {
            matrix_out.store(u * s + v, pair_error(k, staged, tv, metric) as u32);
        }
        blocks_done.fetch_add(1, Ordering::Relaxed);
    };

    // S blocks; the per-block thread count mirrors one thread per tile
    // pixel up to the device's 1024-thread block limit.
    let threads_per_block = layout.pixels_per_tile().min(1024);
    sim.launch(LaunchConfig::linear(s, threads_per_block), &kernel);

    if blocks_done.into_inner() < s {
        return Err(DeadlineExceeded.into());
    }
    Ok(ErrorMatrix::from_vec(s, matrix_out.into_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_grid::build_error_matrix;
    use mosaic_image::testutil::{gray_image, rgb_image, XorShift};
    use mosaic_image::{synth, Rgb};

    /// Every Step-2 backend against the view-based scalar oracle, on
    /// one random image pair.
    fn assert_backends_match_oracle<P: Pixel>(input: &Image<P>, target: &Image<P>, tile: usize) {
        let layout = TileLayout::new(input.width(), tile).unwrap();
        let backends = [
            Backend::Serial,
            Backend::Threads(1),
            Backend::Threads(2),
            Backend::Threads(3),
            Backend::Threads(7),
            Backend::GpuSim { workers: Some(2) },
        ];
        for metric in TileMetric::ALL {
            let oracle =
                mosaic_grid::build_error_matrix_scalar(input, target, layout, metric).unwrap();
            for backend in backends {
                let (matrix, trace) = compute_error_matrix_bounded_in(
                    mosaic_pool::global(),
                    input,
                    target,
                    layout,
                    metric,
                    backend,
                    &Deadline::NONE,
                )
                .unwrap();
                assert_eq!(
                    matrix,
                    oracle,
                    "{} tile {tile} grid {} {metric:?} {backend:?}",
                    std::any::type_name::<P>(),
                    layout.tiles_per_side()
                );
                assert!(trace.profile.ops > 0);
                let launches = usize::from(matches!(backend, Backend::GpuSim { .. }));
                assert_eq!(trace.profile.launches, launches, "{backend:?}");
            }
        }
    }

    /// The Step-2 differential: every backend, every metric, both pixel
    /// types, tile edges 1..=33 and 64, bit-identical to the oracle.
    /// Grid sides cycle through 2..=4 so odd and non-power-of-two grids
    /// are covered (a layout is always square, so the grid is too).
    #[test]
    fn step2_differential_every_backend_matches_the_scalar_oracle() {
        let mut rng = XorShift::new(17);
        for tile in (1..=33).chain([64]) {
            let n = tile * (2 + tile % 3);
            let (gray_in, gray_tg) = (gray_image(&mut rng, n, n), gray_image(&mut rng, n, n));
            assert_backends_match_oracle(&gray_in, &gray_tg, tile);
            let (rgb_in, rgb_tg) = (rgb_image(&mut rng, n, n), rgb_image(&mut rng, n, n));
            assert_backends_match_oracle(&rgb_in, &rgb_tg, tile);
        }
        // Worst-case bytes: black against white hits every metric's bound.
        let black = Image::from_fn(64, 64, |_, _| Rgb::new(0, 0, 0)).unwrap();
        let white = Image::from_fn(64, 64, |_, _| Rgb::new(255, 255, 255)).unwrap();
        assert_backends_match_oracle(&black, &white, 32);
    }

    #[test]
    fn step2_profile_scales_with_s_squared() {
        let small = step2_profile::<mosaic_image::Gray>(TileLayout::new(64, 8).unwrap(), 1);
        let large = step2_profile::<mosaic_image::Gray>(TileLayout::new(64, 4).unwrap(), 1);
        // Same image, 4x the tiles => ~4x the ops (S^2 * M^2 = N^2 * S).
        assert!(large.ops > 3 * small.ops);
    }

    #[test]
    fn gpu_path_rejects_overflowing_metric_like_serial_does() {
        // SSD on a 260x260 tile can exceed u32::MAX; both backends must
        // refuse with the same typed error rather than silently truncate.
        let img = mosaic_image::Image::from_fn(260, 260, |_, _| mosaic_image::Gray(0)).unwrap();
        let layout = TileLayout::new(260, 260).unwrap();
        let sim = GpuSim::with_workers(DeviceSpec::tesla_k40(), 1);
        let overflow = LayoutError::EntryOverflow {
            metric: TileMetric::Ssd,
            tile_size: 260,
        };
        assert_eq!(
            gpu_error_matrix(&sim, &img, &img, layout, TileMetric::Ssd),
            Err(overflow.clone())
        );
        assert_eq!(
            build_error_matrix(&img, &img, layout, TileMetric::Ssd),
            Err(overflow)
        );
    }

    /// Regression: a tile larger than the K40's 48 KB of shared memory
    /// per block used to panic a simulator lane (and with it the calling
    /// service worker); it is now a typed error, and one that fits runs.
    #[test]
    fn gpu_path_rejects_tiles_beyond_shared_memory() {
        let img = synth::gradient(256);
        let sim = GpuSim::with_workers(DeviceSpec::tesla_k40(), 1);
        let whole = TileLayout::new(256, 256).unwrap();
        assert_eq!(
            gpu_error_matrix(&sim, &img, &img, whole, TileMetric::Sad),
            Err(LayoutError::SharedMemoryOverflow {
                tile_bytes: 256 * 256,
                capacity: 48 * 1024,
            })
        );
        let quarter = TileLayout::new(256, 128).unwrap();
        assert!(gpu_error_matrix(&sim, &img, &img, quarter, TileMetric::Sad).is_ok());
    }

    /// A one-lane §V build of `synth::gradient(size)` against itself on
    /// 16-pixel tiles whose every block outlasts its 40 ms deadline.
    fn slow_blocks_build(size: usize) -> (Result<ErrorMatrix, BuildError>, Deadline) {
        let img = synth::gradient(size);
        let layout = TileLayout::new(size, 16).unwrap();
        let sim = GpuSim::with_workers(DeviceSpec::tesla_k40(), 1);
        let deadline = Deadline::after(Duration::from_millis(40));
        let slow_block = || std::thread::sleep(Duration::from_millis(120));
        let result = gpu_impl(
            &sim,
            &img,
            &img,
            layout,
            TileMetric::Sad,
            &deadline,
            &slow_block,
        );
        (result, deadline)
    }

    /// A deadline that expires while the last block runs skips no block,
    /// so the complete matrix survives …
    #[test]
    fn step2_deadline_gpu_expiring_after_the_last_block_returns_the_matrix() {
        let (result, deadline) = slow_blocks_build(16); // S = 1
        assert!(deadline.expired(), "hook must outlast the deadline");
        let matrix = result.expect("completed work must survive a late expiry");
        assert_eq!(matrix.get(0, 0), 0);
    }

    /// … and one that expires with blocks left skips them and fails.
    #[test]
    fn step2_deadline_gpu_expiring_with_blocks_left_is_cancelled() {
        let (result, _) = slow_blocks_build(32); // S = 4
        assert_eq!(result, Err(BuildError::DeadlineExceeded(DeadlineExceeded)));
    }

    #[test]
    fn layout_mismatch_is_an_error() {
        let input = synth::gradient(32);
        let target = synth::gradient(16);
        let layout = TileLayout::new(32, 8).unwrap();
        assert!(compute_error_matrix_bounded_in(
            mosaic_pool::global(),
            &input,
            &target,
            layout,
            TileMetric::Sad,
            Backend::Serial,
            &Deadline::NONE,
        )
        .is_err());
        let sim = GpuSim::with_workers(DeviceSpec::tesla_k40(), 1);
        assert!(gpu_error_matrix(&sim, &input, &target, layout, TileMetric::Sad).is_err());
    }
}
