//! Error-matrix builders (Step 2 of the paper).
//!
//! Every builder starts from [`pack_pair`] (the one layout and `u32`
//! overflow check, then both images packed tile-major) and fills each
//! entry with one [`pair_error`] call. [`build_error_matrix`] is the
//! paper's sequential CPU reference.
//! [`build_error_matrix_threaded_bounded_in`] is the multi-core CPU
//! baseline, splitting rows across the workers of a `mosaic-pool` — each
//! row of the matrix belongs to one input tile, mirroring the paper's GPU
//! decomposition where "each CUDA block is responsible for computing S
//! error values E(I_u, T_1) … E(I_u, T_S)". The CUDA-model builder lives
//! in the `photomosaic` crate on top of `mosaic-gpu`.
//! [`build_error_matrix_scalar`] walks tile views with no packing: it is
//! the oracle the packed builders are checked against.

use crate::deadline::{Deadline, DeadlineExceeded};
use crate::layout::{LayoutError, PackedTiles, TileLayout};
use crate::matrix::ErrorMatrix;
use crate::metric::{pair_error, tile_error_scalar, TileMetric};
use mosaic_image::kernel::{self, Kernels};
use mosaic_image::{Image, Pixel};
use mosaic_pool::ThreadPool;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Force SIMD kernel detection now and publish the outcome.
///
/// Dispatch is cached in a process-wide `OnceLock`
/// ([`mosaic_image::kernel::active`]); calling this at pool/server
/// startup means no worker thread ever pays the `std::arch` feature
/// probe mid-request. The resolved level is published on the
/// `kernel_dispatch` gauge (0 = scalar, 1 = SSE4.1, 2 = AVX2) and
/// returned for logs.
pub fn init_simd_kernels() -> mosaic_image::kernel::SimdLevel {
    let level = mosaic_image::kernel::active().level();
    mosaic_telemetry::registry()
        .gauge("kernel_dispatch")
        .set(i64::from(level.code()));
    level
}

/// Why a bounded matrix build did not produce a matrix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// One of the images does not match the layout.
    Layout(LayoutError),
    /// The deadline expired before the build finished.
    DeadlineExceeded(DeadlineExceeded),
}

impl From<LayoutError> for BuildError {
    fn from(e: LayoutError) -> Self {
        BuildError::Layout(e)
    }
}

impl From<DeadlineExceeded> for BuildError {
    fn from(e: DeadlineExceeded) -> Self {
        BuildError::DeadlineExceeded(e)
    }
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Layout(e) => write!(f, "layout error: {e:?}"),
            BuildError::DeadlineExceeded(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for BuildError {}

/// Check both images of one build and pack their tiles: the input of
/// every Step-2 builder, and the one place that proves no tile error
/// under `metric` can overflow a `u32` matrix entry.
///
/// # Errors
/// Returns [`LayoutError`] when either image does not match `layout`, or
/// [`LayoutError::EntryOverflow`] when `metric` on this tile size can
/// exceed a `u32` entry.
pub fn pack_pair<P: Pixel>(
    input: &Image<P>,
    target: &Image<P>,
    layout: TileLayout,
    metric: TileMetric,
) -> Result<(PackedTiles, PackedTiles), LayoutError> {
    layout.check_image(input)?;
    layout.check_image(target)?;
    if metric.max_tile_error::<P>(layout.pixels_per_tile()) > u64::from(u32::MAX) {
        let tile_size = layout.tile_size();
        return Err(LayoutError::EntryOverflow { metric, tile_size });
    }
    let pack = |img| PackedTiles::pack(img, layout);
    Ok((pack(input), pack(target)))
}

/// Matrix row `u`: `E(I_u, T_v)` for every packed target tile `v`.
fn fill_row(k: &Kernels, tile: &[u8], targets: &PackedTiles, metric: TileMetric, row: &mut [u32]) {
    for (entry, tv) in row.iter_mut().zip(targets.iter()) {
        *entry = pair_error(k, tile, tv, metric) as u32;
    }
}

/// Fill the whole matrix rows in `rows`, row `first_row` first, on the
/// calling thread. `deadline` is polled before each row and `row_hook`
/// runs after the poll; returns the number of rows filled before the
/// deadline expired.
fn fill_rows(
    inputs: &PackedTiles,
    targets: &PackedTiles,
    metric: TileMetric,
    first_row: usize,
    rows: &mut [u32],
    deadline: &Deadline,
    row_hook: &(dyn Fn() + Sync),
) -> usize {
    let k = kernel::active();
    let s = targets.iter().len();
    let mut done = 0;
    for (offset, row) in rows.chunks_mut(s).enumerate() {
        if deadline.expired() {
            break;
        }
        row_hook();
        fill_row(k, inputs.tile(first_row + offset), targets, metric, row);
        done += 1;
    }
    done
}

/// A build run under [`Deadline::NONE`], which never expires, with its
/// layout error unwrapped.
///
/// # Errors
/// Returns the build's [`LayoutError`].
pub fn unbounded_build<T>(result: Result<T, BuildError>) -> Result<T, LayoutError> {
    result.map_err(|e| match e {
        BuildError::Layout(e) => e,
        // lint:allow(panic) callers pass Deadline::NONE, which never expires
        BuildError::DeadlineExceeded(_) => unreachable!("unbounded deadline expired"),
    })
}

/// Sequential error-matrix computation (the paper's CPU reference for
/// Table II).
///
/// # Errors
/// Returns [`LayoutError`] when either image does not match `layout` or
/// the metric can overflow a `u32` entry (see [`pack_pair`]).
pub fn build_error_matrix<P: Pixel>(
    input: &Image<P>,
    target: &Image<P>,
    layout: TileLayout,
    metric: TileMetric,
) -> Result<ErrorMatrix, LayoutError> {
    unbounded_build(build_error_matrix_bounded(
        input,
        target,
        layout,
        metric,
        &Deadline::NONE,
    ))
}

/// [`build_error_matrix`] polling `deadline` before each row, on the
/// calling thread. Worst-case overshoot is one matrix row.
///
/// # Errors
/// Returns [`BuildError::Layout`] for the conditions of [`pack_pair`],
/// and [`BuildError::DeadlineExceeded`] when `deadline` expires with
/// rows left.
pub fn build_error_matrix_bounded<P: Pixel>(
    input: &Image<P>,
    target: &Image<P>,
    layout: TileLayout,
    metric: TileMetric,
    deadline: &Deadline,
) -> Result<ErrorMatrix, BuildError> {
    build_impl(None, input, target, layout, metric, deadline, &|| ())
}

/// The test oracle for every Step-2 builder: tile views walked row by
/// row on the scalar kernels ([`tile_error_scalar`]), with no packing.
///
/// The SIMD dispatch is process-wide and cached, so the only way to get
/// a guaranteed-scalar matrix on an AVX2 host is to bypass it. The
/// differential tests assert every backend produces a matrix
/// bit-identical to this one; the bench publishes the timing gap.
///
/// # Errors
/// Same conditions as [`build_error_matrix`].
pub fn build_error_matrix_scalar<P: Pixel>(
    input: &Image<P>,
    target: &Image<P>,
    layout: TileLayout,
    metric: TileMetric,
) -> Result<ErrorMatrix, LayoutError> {
    // The builders' checks; the oracle reads views, not the packed tiles.
    pack_pair(input, target, layout, metric)?;
    let mut matrix = ErrorMatrix::zeros(layout.tile_count());
    for u in 0..layout.tile_count() {
        let iu = layout.tile_view(input, u);
        for (v, entry) in matrix.row_mut(u).iter_mut().enumerate() {
            *entry = tile_error_scalar(&iu, &layout.tile_view(target, v), metric) as u32;
        }
    }
    Ok(matrix)
}

/// Multi-threaded error-matrix computation using `threads` workers on
/// `pool`, with cooperative cancellation.
///
/// Rows are distributed in contiguous chunks, one pool chunk per
/// worker's row range; every worker writes disjoint rows so no
/// synchronization is needed beyond the batch join. Workers poll
/// `deadline` at every row boundary and stop early once it expires; the
/// partially filled matrix is discarded and
/// [`BuildError::DeadlineExceeded`] is returned. Worst-case overshoot is
/// therefore one matrix row per worker. Unbounded callers pass
/// `mosaic_pool::global()` and [`Deadline::NONE`].
///
/// # Errors
/// Returns [`BuildError::Layout`] for the conditions of [`pack_pair`],
/// and [`BuildError::DeadlineExceeded`] when `deadline` expires
/// mid-build.
///
/// # Panics
/// Panics when `threads == 0`.
pub fn build_error_matrix_threaded_bounded_in<P: Pixel>(
    pool: &ThreadPool,
    input: &Image<P>,
    target: &Image<P>,
    layout: TileLayout,
    metric: TileMetric,
    threads: usize,
    deadline: &Deadline,
) -> Result<ErrorMatrix, BuildError> {
    assert!(threads > 0, "at least one worker thread is required");
    let pool = Some((pool, threads));
    build_impl(pool, input, target, layout, metric, deadline, &|| ())
}

/// The shared implementation: on the calling thread when `pool` is
/// `None`, else split across `(pool, threads)` workers. `row_hook` runs
/// after each row's deadline poll and before its errors are computed;
/// production callers pass a no-op, the deadline regression tests inject
/// a delay to pin down the expiry-after-completion race
/// deterministically.
fn build_impl<P: Pixel>(
    pool: Option<(&ThreadPool, usize)>,
    input: &Image<P>,
    target: &Image<P>,
    layout: TileLayout,
    metric: TileMetric,
    deadline: &Deadline,
    row_hook: &(dyn Fn() + Sync),
) -> Result<ErrorMatrix, BuildError> {
    let (inputs, targets) = pack_pair(input, target, layout, metric)?;
    deadline.check()?;
    let span = match pool {
        None => "error_matrix_serial",
        Some(_) => "error_matrix_threaded",
    };
    let _span = mosaic_telemetry::tracer().span(span);
    let start = std::time::Instant::now();
    let s = layout.tile_count();
    let mut entries = vec![0u32; s * s];
    let fill = |first_row, rows: &mut [u32]| {
        fill_rows(
            &inputs, &targets, metric, first_row, rows, deadline, row_hook,
        )
    };
    let rows_done = match pool {
        None => fill(0, &mut entries),
        Some((pool, threads)) => {
            // One pool chunk per worker's row range; each chunk is a
            // disjoint slab of whole rows, so workers never share a row.
            let rows_per_worker = s.div_ceil(threads);
            let rows_done = AtomicUsize::new(0);
            pool.parallel_for_mut(&mut entries, rows_per_worker * s, |chunk, slab| {
                let done = fill(chunk * rows_per_worker, slab);
                rows_done.fetch_add(done, Ordering::Relaxed);
            });
            rows_done.into_inner()
        }
    };

    // Fail only when rows were actually abandoned. A deadline that
    // expires after the last row is computed must not discard a
    // complete, valid matrix (it used to: the old epilogue re-checked
    // the clock instead of the work).
    if rows_done < s {
        return Err(BuildError::DeadlineExceeded(DeadlineExceeded));
    }
    mosaic_telemetry::registry()
        .histogram("error_matrix_simd_us")
        .record_duration_us(start.elapsed());
    Ok(ErrorMatrix::from_vec(s, entries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_image::synth;

    /// The threaded builder on the process-wide pool.
    fn threaded<P: Pixel>(
        input: &Image<P>,
        target: &Image<P>,
        layout: TileLayout,
        metric: TileMetric,
        threads: usize,
        deadline: &Deadline,
    ) -> Result<ErrorMatrix, BuildError> {
        build_error_matrix_threaded_bounded_in(
            mosaic_pool::global(),
            input,
            target,
            layout,
            metric,
            threads,
            deadline,
        )
    }

    #[test]
    fn serial_matrix_matches_direct_tile_errors() {
        let input = synth::plasma(32, 1, 3);
        let target = synth::checker(32, 8, 2);
        let layout = TileLayout::new(32, 8).unwrap();
        let m = build_error_matrix(&input, &target, layout, TileMetric::Sad).unwrap();
        assert_eq!(m.size(), 16);
        for u in 0..16 {
            for v in 0..16 {
                let expected = tile_error_scalar(
                    &layout.tile_view(&input, u),
                    &layout.tile_view(&target, v),
                    TileMetric::Sad,
                ) as u32;
                assert_eq!(m.get(u, v), expected, "mismatch at ({u},{v})");
            }
        }
    }

    #[test]
    fn diagonal_is_zero_when_input_equals_target() {
        let img = synth::portrait(32, 5);
        let layout = TileLayout::new(32, 8).unwrap();
        let m = build_error_matrix(&img, &img, layout, TileMetric::Sad).unwrap();
        for u in 0..m.size() {
            assert_eq!(m.get(u, u), 0);
        }
    }

    #[test]
    fn threaded_matches_serial_for_every_metric_and_thread_count() {
        let input = synth::fur(48, 3);
        let target = synth::drapery(48, 9);
        let layout = TileLayout::new(48, 8).unwrap();
        for metric in TileMetric::ALL {
            let serial = build_error_matrix(&input, &target, layout, metric).unwrap();
            for threads in [1, 2, 3, 7, 16, 64] {
                let par =
                    threaded(&input, &target, layout, metric, threads, &Deadline::NONE).unwrap();
                assert_eq!(par, serial, "metric {metric:?} threads {threads}");
            }
        }
    }

    /// The oracle differential: the dispatched builder (whatever SIMD
    /// level this host resolves to) must be bit-identical to the
    /// scalar-forced builder on every metric.
    #[test]
    fn dispatched_matrix_is_bit_identical_to_scalar_oracle() {
        let level = init_simd_kernels();
        let input = synth::fur(48, 3);
        let target = synth::drapery(48, 9);
        for tile in [4, 6, 8, 12] {
            let layout = TileLayout::new(48, tile).unwrap();
            for metric in TileMetric::ALL {
                let dispatched = build_error_matrix(&input, &target, layout, metric).unwrap();
                let scalar = build_error_matrix_scalar(&input, &target, layout, metric).unwrap();
                assert_eq!(dispatched, scalar, "level {level:?} tile {tile} {metric:?}");
            }
        }
    }

    /// Regression: SSD on a 512×512 tile can exceed `u32::MAX`. The
    /// check used to be an `assert!`, so one wire job with `grid: 1`
    /// panicked a service worker; every builder now returns it typed.
    #[test]
    fn overflowing_metric_is_a_typed_layout_error() {
        let img = synth::gradient(512);
        let layout = TileLayout::new(512, 512).unwrap();
        let overflow = LayoutError::EntryOverflow {
            metric: TileMetric::Ssd,
            tile_size: 512,
        };
        assert_eq!(
            build_error_matrix(&img, &img, layout, TileMetric::Ssd),
            Err(overflow.clone())
        );
        assert_eq!(
            build_error_matrix_scalar(&img, &img, layout, TileMetric::Ssd),
            Err(overflow.clone())
        );
        assert_eq!(
            threaded(&img, &img, layout, TileMetric::Ssd, 2, &Deadline::NONE),
            Err(BuildError::Layout(overflow.clone()))
        );
        assert!(overflow.to_string().contains("overflows u32"));
        // SAD on the same tile fits.
        assert!(build_error_matrix(&img, &img, layout, TileMetric::Sad).is_ok());
    }

    #[test]
    fn init_simd_kernels_is_stable_and_published() {
        let first = init_simd_kernels();
        let second = init_simd_kernels();
        assert_eq!(first, second);
        assert_eq!(
            mosaic_telemetry::registry().gauge("kernel_dispatch").get(),
            i64::from(first.code())
        );
    }

    #[test]
    fn layout_mismatch_is_an_error() {
        let input = synth::gradient(32);
        let target = synth::gradient(64);
        let layout = TileLayout::new(32, 8).unwrap();
        assert!(build_error_matrix(&input, &target, layout, TileMetric::Sad).is_err());
        assert!(threaded(&input, &target, layout, TileMetric::Sad, 4, &Deadline::NONE).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_panics() {
        let img = synth::gradient(16);
        let layout = TileLayout::new(16, 8).unwrap();
        let _ = threaded(&img, &img, layout, TileMetric::Sad, 0, &Deadline::NONE);
    }

    #[test]
    fn bounded_build_with_live_deadline_matches_serial() {
        let input = synth::fur(48, 3);
        let target = synth::drapery(48, 9);
        let layout = TileLayout::new(48, 8).unwrap();
        let serial = build_error_matrix(&input, &target, layout, TileMetric::Sad).unwrap();
        let deadline = Deadline::after(std::time::Duration::from_secs(3600));
        let bounded = threaded(&input, &target, layout, TileMetric::Sad, 4, &deadline).unwrap();
        assert_eq!(bounded, serial);
    }

    #[test]
    fn bounded_build_with_expired_deadline_is_cancelled() {
        let input = synth::fur(48, 3);
        let target = synth::drapery(48, 9);
        let layout = TileLayout::new(48, 8).unwrap();
        let expired = Deadline::after(std::time::Duration::ZERO);
        let result = threaded(&input, &target, layout, TileMetric::Sad, 4, &expired);
        assert_eq!(
            result,
            Err(BuildError::DeadlineExceeded(
                crate::deadline::DeadlineExceeded
            ))
        );
    }

    #[test]
    fn bounded_build_reports_layout_errors_before_deadline() {
        let input = synth::gradient(32);
        let target = synth::gradient(64);
        let layout = TileLayout::new(32, 8).unwrap();
        let expired = Deadline::after(std::time::Duration::ZERO);
        let result = threaded(&input, &target, layout, TileMetric::Sad, 4, &expired);
        assert!(matches!(result, Err(BuildError::Layout(_))));
    }

    /// A build of `synth::gradient(size)` against itself on 16-pixel
    /// tiles whose every row outlasts its 40 ms deadline, on the calling
    /// thread (`pool == None`) or the given workers.
    fn slow_rows_build(
        pool: Option<(&ThreadPool, usize)>,
        size: usize,
    ) -> (Result<ErrorMatrix, BuildError>, Deadline) {
        let img = synth::gradient(size);
        let layout = TileLayout::new(size, 16).unwrap();
        let deadline = Deadline::after(std::time::Duration::from_millis(40));
        let slow_row = || std::thread::sleep(std::time::Duration::from_millis(120));
        let result = build_impl(
            pool,
            &img,
            &img,
            layout,
            TileMetric::Sad,
            &deadline,
            &slow_row,
        );
        (result, deadline)
    }

    /// Regression: the old epilogue was `deadline.check()?` — a deadline
    /// that expired *after* every row was computed (but before the
    /// epilogue ran) discarded a complete matrix. The injected row hook
    /// outlasts the deadline while the only row is being computed, so
    /// by the time the build finishes the clock has expired even though
    /// no work was abandoned. That must be a success.
    #[test]
    fn deadline_expiring_after_all_rows_complete_is_not_an_error() {
        let pool = mosaic_pool::ThreadPool::new(1);
        let (result, deadline) = slow_rows_build(Some((&pool, 1)), 16); // S = 1
        assert!(deadline.expired(), "hook must outlast the deadline");
        let matrix = result.expect("completed work must survive a late expiry");
        assert_eq!(matrix.get(0, 0), 0);
    }

    /// The converse still fails: with the same mid-row delay but a
    /// second row to go, the worker really does abandon work.
    #[test]
    fn deadline_expiring_with_rows_left_is_still_cancelled() {
        let pool = mosaic_pool::ThreadPool::new(1);
        let (result, _) = slow_rows_build(Some((&pool, 1)), 32); // S = 4
        assert_eq!(result, Err(BuildError::DeadlineExceeded(DeadlineExceeded)));
    }

    /// The serial build polls before every row on the calling thread, so
    /// a deadline that expires after the last row keeps the matrix …
    #[test]
    fn step2_deadline_serial_expiring_after_the_last_row_returns_the_matrix() {
        let (result, deadline) = slow_rows_build(None, 16); // S = 1
        assert!(deadline.expired(), "hook must outlast the deadline");
        let matrix = result.expect("completed work must survive a late expiry");
        assert_eq!(matrix.get(0, 0), 0);
    }

    /// … and one that expires with rows left stops after the current row.
    #[test]
    fn step2_deadline_serial_expiring_with_rows_left_is_cancelled() {
        let (result, _) = slow_rows_build(None, 32); // S = 4
        assert_eq!(result, Err(BuildError::DeadlineExceeded(DeadlineExceeded)));
        let img = synth::gradient(32);
        let layout = TileLayout::new(32, 16).unwrap();
        let expired = Deadline::after(std::time::Duration::ZERO);
        assert_eq!(
            build_error_matrix_bounded(&img, &img, layout, TileMetric::Sad, &expired),
            Err(BuildError::DeadlineExceeded(DeadlineExceeded))
        );
    }

    #[test]
    fn explicit_pool_variant_matches_serial() {
        let input = synth::fur(48, 3);
        let target = synth::drapery(48, 9);
        let layout = TileLayout::new(48, 8).unwrap();
        let serial = build_error_matrix(&input, &target, layout, TileMetric::Sad).unwrap();
        let pool = mosaic_pool::ThreadPool::new(3);
        let built = build_error_matrix_threaded_bounded_in(
            &pool,
            &input,
            &target,
            layout,
            TileMetric::Sad,
            5,
            &Deadline::NONE,
        )
        .unwrap();
        assert_eq!(built, serial);
    }

    #[test]
    fn more_threads_than_rows_is_fine() {
        let img = synth::gradient(16);
        let layout = TileLayout::new(16, 8).unwrap(); // S = 4
        let m = threaded(&img, &img, layout, TileMetric::Sad, 32, &Deadline::NONE).unwrap();
        assert_eq!(m.size(), 4);
        for u in 0..4 {
            assert_eq!(m.get(u, u), 0);
        }
    }
}
