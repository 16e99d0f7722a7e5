//! The end-to-end generation pipeline.
//!
//! [`generate`] runs the paper's three steps on an image pair of any
//! [`MosaicPixel`] type (grayscale, or RGB for the §II color extension):
//! preprocessing + tiling (Step 1), the error matrix (Step 2, on the
//! configured backend), rearrangement (Step 3, with the configured
//! algorithm) and final assembly of the rearranged image `R`.
//! [`generate_bounded_in`] is the same run with an explicit pool, a
//! deadline and Step-2 matrix reuse.

use crate::config::{Algorithm, Backend, MosaicConfig};
use crate::errors::{backend_lanes, compute_error_matrix_bounded_in, simulated_device, StepTrace};
use crate::local_search::{local_search_bounded, SearchOutcome};
use crate::optimal::{greedy_rearrangement, optimal_rearrangement_bounded};
use crate::parallel_search::{
    parallel_search_gpu_bounded, parallel_search_reference_bounded,
    parallel_search_threads_bounded_in, step3_parallel_profile,
};
use crate::preprocess::MosaicPixel;
use crate::report::GenerationReport;
use mosaic_edgecolor::SwapSchedule;
use mosaic_gpu::WorkProfile;
use mosaic_grid::{
    assemble, BuildError, Deadline, DeadlineExceeded, ErrorMatrix, LayoutError, TileLayout,
};
use mosaic_image::{Gray, Image, Pixel};
use mosaic_pool::ThreadPool;
use mosaic_telemetry as telemetry;
use std::sync::Arc;
use std::time::Instant;

/// Why a bounded generation run did not produce a mosaic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GenerateError {
    /// The images do not fit the configured layout (the unbounded
    /// entry point surfaces exactly this case).
    Layout(LayoutError),
    /// The caller's [`Deadline`] expired mid-pipeline.
    DeadlineExceeded(DeadlineExceeded),
}

impl From<LayoutError> for GenerateError {
    fn from(e: LayoutError) -> Self {
        GenerateError::Layout(e)
    }
}

impl From<DeadlineExceeded> for GenerateError {
    fn from(e: DeadlineExceeded) -> Self {
        GenerateError::DeadlineExceeded(e)
    }
}

impl From<BuildError> for GenerateError {
    fn from(e: BuildError) -> Self {
        match e {
            BuildError::Layout(e) => GenerateError::Layout(e),
            BuildError::DeadlineExceeded(e) => GenerateError::DeadlineExceeded(e),
        }
    }
}

impl std::fmt::Display for GenerateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenerateError::Layout(e) => write!(f, "layout error: {e:?}"),
            GenerateError::DeadlineExceeded(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for GenerateError {}

/// Rearranged image plus full accounting.
#[derive(Clone, Debug)]
pub struct MosaicResult<P: Pixel = Gray> {
    /// The rearranged image `R`.
    pub image: Image<P>,
    /// The assignment (`assignment[v] = u`).
    pub assignment: Vec<usize>,
    /// Timings and totals (error values are channel-summed for RGB).
    pub report: GenerationReport,
}

/// Generate a photomosaic: rearrange `input`'s tiles to reproduce
/// `target`, on the process-wide pool with no deadline.
///
/// # Errors
/// Returns [`LayoutError`] when the images are not square, not equal in
/// size, or not divisible into `config.grid × config.grid` tiles.
pub fn generate<P: MosaicPixel>(
    input: &Image<P>,
    target: &Image<P>,
    config: &MosaicConfig,
) -> Result<MosaicResult<P>, LayoutError> {
    let run = generate_bounded_in(
        mosaic_pool::global(),
        input,
        target,
        config,
        None,
        &Deadline::NONE,
    );
    match run {
        Ok((result, _)) => Ok(result),
        Err(GenerateError::Layout(e)) => Err(e),
        // lint:allow(panic) Deadline::NONE never expires
        Err(GenerateError::DeadlineExceeded(_)) => unreachable!("unbounded deadline expired"),
    }
}

/// [`generate`] on an explicit [`ThreadPool`] (the service hands every
/// job its per-server pool, sized by `--workers`), with cooperative
/// cancellation and Step-2 matrix reuse.
///
/// `deadline` is polled at sweep boundaries of the Step-3 searches; at
/// each auction phase, every `S` bids and each free-row augmentation of
/// the Jonker–Volgenant solve; and at every Step-2 row (a block of the
/// simulated GPU) on every backend, so a pathological job stops within
/// one such unit of work (one row per worker) of the deadline.
/// Step 1, the greedy baseline and the oracle solvers only check the
/// deadline before they start.
///
/// With `cached_matrix` set, Step 2 is skipped and that matrix is used:
/// the report's `step2_wall` is zero and its `step2_profile` empty. The
/// caller must supply a matrix computed from the *same* `(input, target,
/// grid, preprocess, metric)` tuple — the cache invariant
/// `mosaic-service` maintains via `JobSpec::cache_key`. Without one, the
/// matrix this run built is returned beside the result so the caller can
/// cache it; on deadline expiry nothing is returned, so a partially built
/// matrix is never exposed.
///
/// # Panics
/// Panics if `cached_matrix` is not `grid² × grid²` — a matrix of the
/// right size but wrong content cannot be detected, so a size mismatch is
/// treated as a caller bug rather than a recoverable error.
///
/// # Errors
/// Returns [`GenerateError::Layout`] for the geometry errors of
/// [`generate`] and [`GenerateError::DeadlineExceeded`] when the deadline
/// expires mid-run.
pub fn generate_bounded_in<P: MosaicPixel>(
    pool: &Arc<ThreadPool>,
    input: &Image<P>,
    target: &Image<P>,
    config: &MosaicConfig,
    cached_matrix: Option<&ErrorMatrix>,
    deadline: &Deadline,
) -> Result<(MosaicResult<P>, Option<ErrorMatrix>), GenerateError> {
    let (w, h) = target.dimensions();
    if w != h {
        return Err(GenerateError::Layout(LayoutError::NotSquare {
            width: w,
            height: h,
        }));
    }
    let layout = TileLayout::with_grid(w, config.grid)?;
    layout.check_image(input)?;
    layout.check_image(target)?;
    deadline.check()?;

    let _generate_span = telemetry::tracer().span("generate");

    // Step 1: preprocess + (implicit) tiling.
    let t1 = Instant::now();
    let prepared = {
        let _span = telemetry::tracer().span("step1");
        P::preprocess(input, target, config.preprocess)
    };
    let step1_wall = t1.elapsed();

    // Step 2: the S x S error matrix (skipped when a cached one is
    // supplied).
    let step2_span = telemetry::tracer().span("step2");
    let mut computed = None;
    let (matrix, step2_trace): (&ErrorMatrix, StepTrace) = match cached_matrix {
        Some(m) => {
            assert_eq!(
                m.size(),
                layout.tile_count(),
                "cached error matrix is {}x{0} but the layout has {} tiles",
                m.size(),
                layout.tile_count(),
            );
            (m, StepTrace::default())
        }
        None => {
            let (m, trace) = compute_error_matrix_bounded_in(
                pool,
                &prepared,
                target,
                layout,
                config.metric,
                config.backend,
                deadline,
            )?;
            (computed.insert(m), trace)
        }
    };
    drop(step2_span);

    // Step 3: rearrangement.
    let t3 = Instant::now();
    let (outcome, step3_profile) = {
        let _span = telemetry::tracer().span("step3");
        run_step3(pool, matrix, config, deadline)?
    };
    let step3_wall = t3.elapsed();

    let metrics = telemetry::registry();
    metrics.counter("pipeline_runs_total").inc();
    metrics
        .histogram("pipeline_step1_us")
        .record_duration_us(step1_wall);
    metrics
        .histogram("pipeline_step2_us")
        .record_duration_us(step2_trace.wall);
    metrics
        .histogram("pipeline_step3_us")
        .record_duration_us(step3_wall);
    metrics
        .histogram("pipeline_sweeps")
        .record(outcome.sweeps as u64);
    metrics
        .gauge("pipeline_total_error")
        .set(i64::try_from(outcome.total).unwrap_or(i64::MAX));

    let image = assemble(&prepared, layout, &outcome.assignment)?;
    let report = GenerationReport {
        config: config.clone(),
        image_size: w,
        tile_count: layout.tile_count(),
        tile_size: layout.tile_size(),
        total_error: outcome.total,
        sweeps: outcome.sweeps,
        swaps: outcome.swaps,
        step1_wall,
        step2_wall: step2_trace.wall,
        step3_wall,
        step2_profile: step2_trace.profile,
        step3_profile,
    };
    Ok((
        MosaicResult {
            image,
            assignment: outcome.assignment,
            report,
        },
        computed,
    ))
}

fn run_step3(
    pool: &Arc<ThreadPool>,
    matrix: &ErrorMatrix,
    config: &MosaicConfig,
    deadline: &Deadline,
) -> Result<(SearchOutcome, WorkProfile), DeadlineExceeded> {
    let s = matrix.size();
    let out = match config.algorithm {
        Algorithm::Optimal(solver) => {
            // §V: "Regarding the optimization algorithm in Step 3, since it
            // is not easy to parallelize the algorithm, we sequentially
            // perform it on the CPU." No device profile.
            (
                optimal_rearrangement_bounded(matrix, solver, deadline)?,
                WorkProfile::default(),
            )
        }
        Algorithm::Greedy => {
            deadline.check()?;
            (greedy_rearrangement(matrix), WorkProfile::default())
        }
        Algorithm::LocalSearch => {
            let outcome = local_search_bounded(matrix, deadline)?;
            // Algorithm 1 is the sequential baseline; profile it as pure
            // host work (no launches).
            let profile = step3_parallel_profile(s, outcome.sweeps, 0);
            (outcome, profile)
        }
        Algorithm::ParallelSearch => {
            let schedule = SwapSchedule::for_tiles(s);
            let result = match config.backend {
                Backend::Serial => parallel_search_reference_bounded(matrix, &schedule, deadline)?,
                Backend::Threads(_) => parallel_search_threads_bounded_in(
                    pool,
                    matrix,
                    &schedule,
                    backend_lanes(pool, config.backend),
                    deadline,
                )?,
                Backend::GpuSim { .. } => parallel_search_gpu_bounded(
                    &simulated_device(pool, config.backend),
                    matrix,
                    &schedule,
                    deadline,
                )?,
            };
            let profile = step3_parallel_profile(s, result.outcome.sweeps, result.launches);
            (result.outcome, profile)
        }
    };
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MosaicBuilder, Preprocess};
    use crate::parallel_search::parallel_search_reference;
    use mosaic_assign::SolverKind;
    use mosaic_grid::build_error_matrix;
    use mosaic_image::synth::{tint, Scene};
    use mosaic_image::{metrics, synth, GrayImage, Rgb, RgbImage};

    fn pair(n: usize) -> (GrayImage, GrayImage) {
        (synth::portrait(n, 1), synth::regatta(n, 2))
    }

    /// The color pair: a warm portrait input, a cool regatta target.
    fn rgb_pair(n: usize) -> (RgbImage, RgbImage) {
        let input = tint(
            &Scene::Portrait.render(n, 1),
            Rgb::new(40, 16, 8),
            Rgb::new(255, 214, 170),
        );
        let target = tint(
            &Scene::Regatta.render(n, 2),
            Rgb::new(8, 24, 48),
            Rgb::new(200, 230, 255),
        );
        (input, target)
    }

    fn base_config(grid: usize) -> MosaicConfig {
        MosaicBuilder::new()
            .grid(grid)
            .backend(Backend::Serial)
            .build()
    }

    fn config_for(grid: usize, algorithm: Algorithm) -> MosaicConfig {
        MosaicBuilder::new()
            .grid(grid)
            .algorithm(algorithm)
            .backend(Backend::Serial)
            .build()
    }

    /// [`generate_bounded_in`] on the process-wide pool.
    fn bounded<P: MosaicPixel>(
        input: &Image<P>,
        target: &Image<P>,
        config: &MosaicConfig,
        cached_matrix: Option<&ErrorMatrix>,
        deadline: &Deadline,
    ) -> Result<(MosaicResult<P>, Option<ErrorMatrix>), GenerateError> {
        generate_bounded_in(
            mosaic_pool::global(),
            input,
            target,
            config,
            cached_matrix,
            deadline,
        )
    }

    const EVERY_ALGORITHM: [Algorithm; 4] = [
        Algorithm::Optimal(SolverKind::JonkerVolgenant),
        Algorithm::LocalSearch,
        Algorithm::ParallelSearch,
        Algorithm::Greedy,
    ];

    fn generates_with_every_algorithm_on<P: MosaicPixel>(
        input: &Image<P>,
        target: &Image<P>,
        grid: usize,
    ) {
        for algorithm in EVERY_ALGORITHM {
            let config = config_for(grid, algorithm);
            let result = generate(input, target, &config).unwrap();
            assert_eq!(result.image.dimensions(), target.dimensions());
            assert_eq!(result.assignment.len(), grid * grid);
            assert_eq!(
                result.report.total_error,
                // The reported total must equal the SAD between the
                // rearranged image and the target (Eq. 2 == assembled SAD).
                metrics::sad(&result.image, target),
                "{algorithm:?}"
            );
        }
    }

    #[test]
    fn generates_with_every_algorithm() {
        let (input, target) = pair(64);
        generates_with_every_algorithm_on(&input, &target, 8);
        let (input, target) = rgb_pair(48);
        generates_with_every_algorithm_on(&input, &target, 6);
    }

    fn optimal_is_never_worse_on<P: MosaicPixel>(input: &Image<P>, target: &Image<P>) {
        let run = |algorithm| {
            generate(input, target, &config_for(8, algorithm))
                .unwrap()
                .report
                .total_error
        };
        let optimal = run(Algorithm::Optimal(SolverKind::Hungarian));
        let serial = run(Algorithm::LocalSearch);
        let parallel = run(Algorithm::ParallelSearch);
        let greedy = run(Algorithm::Greedy);
        assert!(optimal <= serial);
        assert!(optimal <= parallel);
        assert!(optimal <= greedy);
    }

    #[test]
    fn optimal_is_never_worse_than_approximations() {
        let (input, target) = pair(64);
        optimal_is_never_worse_on(&input, &target);
        let (input, target) = rgb_pair(48);
        optimal_is_never_worse_on(&input, &target);
    }

    fn rearrangement_improves_on<P: MosaicPixel>(
        input: &Image<P>,
        target: &Image<P>,
        config: &MosaicConfig,
    ) {
        let result = generate(input, target, config).unwrap();
        // Identity arrangement of the preprocessed input.
        let prepared = P::preprocess(input, target, config.preprocess);
        let identity_error = metrics::sad(&prepared, target);
        assert!(result.report.total_error <= identity_error);
    }

    #[test]
    fn rearrangement_improves_over_not_rearranging() {
        let (input, target) = pair(64);
        rearrangement_improves_on(&input, &target, &base_config(8));
        let (input, target) = rgb_pair(64);
        let optimal = config_for(8, Algorithm::Optimal(SolverKind::JonkerVolgenant));
        rearrangement_improves_on(&input, &target, &optimal);
    }

    fn backends_agree_on<P: MosaicPixel>(input: &Image<P>, target: &Image<P>, grid: usize) {
        let mk = |backend| {
            MosaicBuilder::new()
                .grid(grid)
                .algorithm(Algorithm::ParallelSearch)
                .backend(backend)
                .build()
        };
        let serial = generate(input, target, &mk(Backend::Serial)).unwrap();
        let threads = generate(input, target, &mk(Backend::Threads(3))).unwrap();
        let gpu = generate(input, target, &mk(Backend::GpuSim { workers: Some(2) })).unwrap();
        assert_eq!(serial.image, threads.image);
        assert_eq!(serial.image, gpu.image);
        assert_eq!(serial.report.total_error, gpu.report.total_error);
    }

    #[test]
    fn backends_agree_end_to_end() {
        let (input, target) = pair(48);
        backends_agree_on(&input, &target, 6);
        let (input, target) = rgb_pair(32);
        backends_agree_on(&input, &target, 4);
    }

    /// Step 3 of a color job is profiled like a gray one: Algorithm 2's
    /// launches and pair work, not an empty profile.
    #[test]
    fn rgb_parallel_search_reports_its_step3_profile() {
        let (input, target) = rgb_pair(64);
        let config = config_for(8, Algorithm::ParallelSearch);
        let result = generate(&input, &target, &config).unwrap();
        let prepared = Rgb::preprocess(&input, &target, config.preprocess);
        let layout = TileLayout::with_grid(64, 8).unwrap();
        let matrix = build_error_matrix(&prepared, &target, layout, config.metric).unwrap();
        let s = matrix.size();
        let expected = parallel_search_reference(&matrix, &SwapSchedule::for_tiles(s));
        assert!(expected.launches > 0);
        assert_eq!(result.report.sweeps, expected.outcome.sweeps);
        assert_eq!(
            result.report.step3_profile,
            step3_parallel_profile(s, expected.outcome.sweeps, expected.launches)
        );
    }

    #[test]
    fn preprocess_modes_all_run() {
        let (input, target) = pair(32);
        for preprocess in [
            Preprocess::MatchTarget,
            Preprocess::Equalize,
            Preprocess::None,
        ] {
            let config = MosaicBuilder::new()
                .grid(4)
                .backend(Backend::Serial)
                .preprocess(preprocess)
                .build();
            let result = generate(&input, &target, &config).unwrap();
            assert_eq!(result.image.dimensions(), (32, 32));
        }
    }

    #[test]
    fn non_square_and_mismatched_inputs_are_errors() {
        let square = synth::gradient(32);
        let tall = mosaic_image::Image::from_fn(32, 64, |_, _| mosaic_image::Gray(0)).unwrap();
        let config = base_config(4);
        assert!(generate(&square, &tall, &config).is_err());
        assert!(generate(&tall, &square, &config).is_err());
        let bigger = synth::gradient(64);
        assert!(generate(&square, &bigger, &config).is_err());
        let (rgb_input, _) = rgb_pair(32);
        let (_, rgb_bigger) = rgb_pair(64);
        assert!(generate(&rgb_input, &rgb_bigger, &config).is_err());
        // Grid that does not divide the image.
        let config = base_config(5);
        assert!(generate(&square, &square, &config).is_err());
    }

    #[test]
    fn report_fields_are_consistent() {
        let (input, target) = pair(64);
        let config = base_config(8);
        let result = generate(&input, &target, &config).unwrap();
        let r = &result.report;
        assert_eq!(r.image_size, 64);
        assert_eq!(r.tile_count, 64);
        assert_eq!(r.tile_size, 8);
        assert!(r.sweeps >= 1);
        assert!(!r.summary().is_empty());
    }

    fn cached_matrix_reproduces_on<P: MosaicPixel>(input: &Image<P>, target: &Image<P>) {
        for algorithm in [
            Algorithm::Optimal(SolverKind::JonkerVolgenant),
            Algorithm::ParallelSearch,
        ] {
            let config = config_for(8, algorithm);
            let (fresh, matrix) = bounded(input, target, &config, None, &Deadline::NONE).unwrap();
            let matrix = matrix.expect("a fresh run returns the matrix it built");
            let (cached, rebuilt) =
                bounded(input, target, &config, Some(&matrix), &Deadline::NONE).unwrap();
            assert!(rebuilt.is_none(), "a cached run builds no matrix");
            assert_eq!(cached.image, fresh.image);
            assert_eq!(cached.assignment, fresh.assignment);
            assert_eq!(cached.report.total_error, fresh.report.total_error);
            // No Step-2 work is reported on the cached path.
            assert_eq!(cached.report.step2_profile.launches, 0);
            assert_eq!(cached.report.step2_profile.ops, 0);
        }
    }

    #[test]
    fn cached_matrix_reproduces_the_uncached_result() {
        let (input, target) = pair(64);
        cached_matrix_reproduces_on(&input, &target);
        let (input, target) = rgb_pair(64);
        cached_matrix_reproduces_on(&input, &target);
    }

    #[test]
    #[should_panic(expected = "cached error matrix")]
    fn wrong_sized_cached_matrix_panics() {
        let (input, target) = pair(64);
        let config = base_config(8);
        let small = mosaic_grid::ErrorMatrix::from_vec(4, vec![0; 16]);
        let _ = bounded(&input, &target, &config, Some(&small), &Deadline::NONE);
    }

    #[test]
    fn bounded_generate_with_live_deadline_matches_unbounded() {
        let (input, target) = pair(64);
        let config = MosaicBuilder::new()
            .grid(8)
            .algorithm(Algorithm::ParallelSearch)
            .backend(Backend::Threads(3))
            .build();
        let deadline = Deadline::after(std::time::Duration::from_secs(3600));
        let plain = generate(&input, &target, &config).unwrap();
        let (bounded, _) = bounded(&input, &target, &config, None, &deadline).unwrap();
        assert_eq!(plain.image, bounded.image);
        assert_eq!(plain.assignment, bounded.assignment);
    }

    fn expired_deadline_cancels_on<P: MosaicPixel>(input: &Image<P>, target: &Image<P>) {
        let expired = Deadline::after(std::time::Duration::ZERO);
        for algorithm in EVERY_ALGORITHM {
            let config = config_for(8, algorithm);
            let result = bounded(input, target, &config, None, &expired);
            assert!(
                matches!(result, Err(GenerateError::DeadlineExceeded(_))),
                "algorithm {:?} ignored the deadline",
                config.algorithm
            );
        }
    }

    #[test]
    fn expired_deadline_cancels_every_algorithm() {
        let (input, target) = pair(64);
        expired_deadline_cancels_on(&input, &target);
        let (input, target) = rgb_pair(64);
        expired_deadline_cancels_on(&input, &target);
    }

    #[test]
    fn layout_errors_win_over_expired_deadlines() {
        // Geometry validation happens before any deadline check so callers
        // get the more actionable error.
        let square = synth::gradient(32);
        let bigger = synth::gradient(64);
        let expired = Deadline::after(std::time::Duration::ZERO);
        let config = base_config(4);
        let result = bounded(&square, &bigger, &config, None, &expired);
        assert!(matches!(result, Err(GenerateError::Layout(_))));
    }

    #[test]
    fn bounded_returning_matrix_is_cancelled_without_a_matrix() {
        let (input, target) = pair(64);
        let config = base_config(8);
        let expired = Deadline::after(std::time::Duration::ZERO);
        let result = bounded(&input, &target, &config, None, &expired);
        assert!(matches!(result, Err(GenerateError::DeadlineExceeded(_))));
    }

    #[test]
    fn mosaic_preserves_input_tile_multiset() {
        let (input, target) = pair(32);
        let config = MosaicBuilder::new()
            .grid(4)
            .backend(Backend::Serial)
            .preprocess(Preprocess::None) // so tiles come from `input` itself
            .build();
        let result = generate(&input, &target, &config).unwrap();
        let mut a: Vec<u8> = input.pixels().iter().map(|p| p.0).collect();
        let mut b: Vec<u8> = result.image.pixels().iter().map(|p| p.0).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "rearrangement must only move pixels");
    }
}
