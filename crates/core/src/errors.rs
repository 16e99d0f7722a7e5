//! Step 2 — the S×S error matrix, on every backend.
//!
//! §V: "To implement this step, S CUDA blocks are invoked. Each CUDA block
//! is responsible for computing S error values E(I_u, T_1) … E(I_u, T_S).
//! … First, threads in each CUDA block read pixel values of tile I_u and
//! store them to the shared memory." The simulated-device path reproduces
//! that decomposition exactly: one block per input tile, the tile staged
//! in shared memory, the row of S errors written to global memory.

use crate::config::Backend;
use mosaic_gpu::{BlockContext, DeviceSpec, GlobalBuffer, GpuSim, LaunchConfig, WorkProfile};
use mosaic_grid::LayoutError;
use mosaic_grid::{
    build_error_matrix, build_error_matrix_threaded_bounded_in, BuildError, Deadline, ErrorMatrix,
    TileLayout, TileMetric,
};
use mosaic_image::{Image, Pixel};
use mosaic_pool::ThreadPool;
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

/// Flatten an image into interleaved channel bytes (row-major), the layout
/// the simulated device consumes.
pub fn image_bytes<P: Pixel>(img: &Image<P>) -> Vec<u8> {
    let mut out = Vec::with_capacity(img.pixels().len() * P::CHANNELS);
    for p in img.pixels() {
        out.extend_from_slice(p.channels());
    }
    out
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
/// The threaded backend polls `deadline` at row boundaries; the serial
/// and simulated-GPU backends are not internally interruptible, so for
/// those the deadline is only checked on entry (the overshoot is then one
/// whole build — per-job deadlines in the service should pair with the
/// threaded backend when tight bounds matter). Unbounded callers pass
/// [`Deadline::NONE`] and `mosaic_pool::global()`.
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
        Backend::Serial => (build_error_matrix(input, target, layout, metric)?, 0),
        Backend::Threads(threads) => (
            build_error_matrix_threaded_bounded_in(
                pool,
                input,
                target,
                layout,
                metric,
                threads.max(1),
                deadline,
            )?,
            0,
        ),
        Backend::GpuSim { workers } => {
            let sim = simulated_device(pool, workers);
            (gpu_error_matrix(&sim, input, target, layout, metric)?, 1)
        }
    };
    let trace = StepTrace {
        wall: start.elapsed(),
        profile: step2_profile::<P>(layout, launches),
    };
    Ok((matrix, trace))
}

/// The simulated Tesla K40 behind [`Backend::GpuSim`], its lanes drawn
/// from `pool` (`workers` defaults to the pool's thread count).
pub(crate) fn simulated_device(pool: &Arc<ThreadPool>, workers: Option<usize>) -> GpuSim {
    let lanes = workers.unwrap_or_else(|| pool.threads());
    GpuSim::with_pool(DeviceSpec::tesla_k40(), Arc::clone(pool), lanes)
}

/// §V Step-2 kernel on an existing simulator instance.
///
/// # Errors
/// Returns [`LayoutError`] when either image does not match `layout`.
pub fn gpu_error_matrix<P: Pixel>(
    sim: &GpuSim,
    input: &Image<P>,
    target: &Image<P>,
    layout: TileLayout,
    metric: TileMetric,
) -> Result<ErrorMatrix, LayoutError> {
    layout.check_image(input)?;
    layout.check_image(target)?;
    // Same u32-entry overflow guard the serial builder enforces; without it
    // `e as u32` below would silently truncate (e.g. SSD on 512-pixel
    // tiles exceeds u32::MAX).
    let bound = metric.max_tile_error::<P>(layout.pixels_per_tile());
    assert!(
        bound <= u64::from(u32::MAX),
        "metric {metric:?} with tile {0}x{0} overflows u32 entries",
        layout.tile_size(),
    );
    let s = layout.tile_count();
    let m = layout.tile_size();
    let channels = P::CHANNELS;
    let row_bytes = layout.image_size() * channels;
    let tile_row_bytes = m * channels;

    let input_bytes = image_bytes(input);
    let target_bytes = image_bytes(target);
    let matrix_out = GlobalBuffer::filled(s * s, 0u32);

    // Resolve the SIMD dispatch once, outside the lane closure: the
    // simulated device kernel's per-row SAD/SSD goes through the same
    // byte-row kernels as the CPU builders, so the "GPU" path cannot
    // drift from them either.
    let k = mosaic_image::kernel::active();
    let kernel = |ctx: &mut BlockContext<'_>| {
        // One block per input tile u (§V): stage I_u in shared memory …
        let u = ctx.block_id();
        let (ux, uy) = layout.tile_origin(u);
        let staged = ctx.shared().alloc_u8(m * tile_row_bytes);
        for dy in 0..m {
            let src = (uy + dy) * row_bytes + ux * channels;
            staged[dy * tile_row_bytes..(dy + 1) * tile_row_bytes]
                .copy_from_slice(&input_bytes[src..src + tile_row_bytes]);
        }
        // … then compute E(I_u, T_v) for every v. On the real device the
        // block's threads split the v range; sequential iteration inside
        // the block is the barrier-free equivalent schedule.
        for v in 0..s {
            let (vx, vy) = layout.tile_origin(v);
            let e: u64 = match metric {
                TileMetric::Sad => {
                    let mut acc = 0u64;
                    for dy in 0..m {
                        let t0 = (vy + dy) * row_bytes + vx * channels;
                        let trow = &target_bytes[t0..t0 + tile_row_bytes];
                        let srow = &staged[dy * tile_row_bytes..(dy + 1) * tile_row_bytes];
                        acc += k.sad(srow, trow);
                    }
                    acc
                }
                TileMetric::Ssd => {
                    let mut acc = 0u64;
                    for dy in 0..m {
                        let t0 = (vy + dy) * row_bytes + vx * channels;
                        let trow = &target_bytes[t0..t0 + tile_row_bytes];
                        let srow = &staged[dy * tile_row_bytes..(dy + 1) * tile_row_bytes];
                        acc += k.ssd(srow, trow);
                    }
                    acc
                }
                TileMetric::MeanAbs => {
                    let mut sum_a = 0u64;
                    let mut sum_b = 0u64;
                    for dy in 0..m {
                        let t0 = (vy + dy) * row_bytes + vx * channels;
                        let trow = &target_bytes[t0..t0 + tile_row_bytes];
                        let srow = &staged[dy * tile_row_bytes..(dy + 1) * tile_row_bytes];
                        for (&a, &b) in srow.iter().zip(trow) {
                            sum_a += u64::from(a);
                            sum_b += u64::from(b);
                        }
                    }
                    sum_a.abs_diff(sum_b)
                }
            };
            matrix_out.store(u * s + v, e as u32);
        }
    };

    // S blocks; the per-block thread count mirrors one thread per tile
    // pixel up to the device's 1024-thread block limit.
    let threads_per_block = layout.pixels_per_tile().min(1024);
    sim.launch(LaunchConfig::linear(s, threads_per_block), &kernel);

    Ok(ErrorMatrix::from_vec(s, matrix_out.into_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_image::{synth, Rgb};

    #[test]
    fn gpu_matrix_matches_serial_for_every_metric() {
        let input = synth::fur(48, 3);
        let target = synth::drapery(48, 9);
        let layout = TileLayout::new(48, 8).unwrap();
        let sim = GpuSim::with_workers(DeviceSpec::tesla_k40(), 4);
        for metric in TileMetric::ALL {
            let serial = build_error_matrix(&input, &target, layout, metric).unwrap();
            let gpu = gpu_error_matrix(&sim, &input, &target, layout, metric).unwrap();
            assert_eq!(gpu, serial, "metric {metric:?}");
        }
    }

    #[test]
    fn gpu_matrix_matches_serial_for_rgb() {
        let gray_in = synth::portrait(32, 4);
        let gray_tg = synth::regatta(32, 5);
        let input = synth::tint(&gray_in, Rgb::new(10, 0, 30), Rgb::new(240, 250, 220));
        let target = synth::tint(&gray_tg, Rgb::new(0, 20, 10), Rgb::new(255, 235, 245));
        let layout = TileLayout::new(32, 8).unwrap();
        let sim = GpuSim::with_workers(DeviceSpec::tesla_k40(), 4);
        for metric in TileMetric::ALL {
            let serial = build_error_matrix(&input, &target, layout, metric).unwrap();
            let gpu = gpu_error_matrix(&sim, &input, &target, layout, metric).unwrap();
            assert_eq!(gpu, serial, "metric {metric:?}");
        }
    }

    #[test]
    fn all_backends_agree() {
        let input = synth::plasma(32, 2, 3);
        let target = synth::checker(32, 8, 7);
        let layout = TileLayout::new(32, 8).unwrap();
        let compute = |backend| {
            compute_error_matrix_bounded_in(
                mosaic_pool::global(),
                &input,
                &target,
                layout,
                TileMetric::Sad,
                backend,
                &Deadline::NONE,
            )
            .unwrap()
        };
        let (serial, _) = compute(Backend::Serial);
        let (threads, _) = compute(Backend::Threads(3));
        let (gpu, trace) = compute(Backend::GpuSim { workers: Some(2) });
        assert_eq!(serial, threads);
        assert_eq!(serial, gpu);
        assert_eq!(trace.profile.launches, 1);
        assert!(trace.profile.ops > 0);
    }

    #[test]
    fn image_bytes_layout() {
        let img = mosaic_image::Image::from_vec(2, 1, vec![Rgb::new(1, 2, 3), Rgb::new(4, 5, 6)])
            .unwrap();
        assert_eq!(image_bytes(&img), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn step2_profile_scales_with_s_squared() {
        let small = step2_profile::<mosaic_image::Gray>(TileLayout::new(64, 8).unwrap(), 1);
        let large = step2_profile::<mosaic_image::Gray>(TileLayout::new(64, 4).unwrap(), 1);
        // Same image, 4x the tiles => ~4x the ops (S^2 * M^2 = N^2 * S).
        assert!(large.ops > 3 * small.ops);
    }

    #[test]
    #[should_panic(expected = "overflows u32 entries")]
    fn gpu_path_rejects_overflowing_metric_like_serial_does() {
        // SSD on a 260x260 tile can exceed u32::MAX; both backends must
        // refuse rather than silently truncate.
        let img = mosaic_image::Image::from_fn(260, 260, |_, _| mosaic_image::Gray(0)).unwrap();
        let layout = TileLayout::new(260, 260).unwrap();
        let sim = GpuSim::with_workers(DeviceSpec::tesla_k40(), 1);
        let _ = gpu_error_matrix(&sim, &img, &img, layout, TileMetric::Ssd);
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
