//! Dependency-free micro-benchmark harness (replaces the former
//! `criterion` benches so the workspace builds offline).
//!
//! Covers the four suites the criterion benches did, plus the pool
//! comparison:
//!
//! * `error_matrix` — Step 2 on each backend (Table II's measured core);
//! * `rearrange` — Step 3 algorithms on a shared matrix (Table III);
//! * `solvers` — the assignment-solver ablation on random and real
//!   mosaic matrices (DESIGN.md §5);
//! * `ablations` — metric / preprocess / Algorithm-1 descent / end-to-end
//!   backend sweeps;
//! * `search` — Algorithm 2 as one gang call on the persistent
//!   `mosaic-pool` workers (2 and 4 lanes) vs the single-thread
//!   reference, full-search and per-sweep, at S = 256 and S = 1024;
//! * `tilelib` — clustered candidate pruning vs the dense rectangular
//!   optimum at library sizes 256/512/1024, plus the published
//!   pruned-vs-optimal cost ratio (permille) at each size.
//!
//! Usage: `cargo run --release -p mosaic-bench --bin bench [-- OPTIONS]`
//!
//! * `--suite NAME` — run one suite (repeatable; default all);
//! * `--samples N` — timed iterations per case (default 5);
//! * `--full` — larger grids (criterion's old sizes were fixed; this
//!   bumps the error-matrix/rearrange grids);
//! * `--json` — emit one machine-readable JSON document on stdout
//!   instead of the human table (uses the same std-only encoder as
//!   `GenerationReport::to_json`).
//!
//! Independently of `--json`, every run also writes one
//! `out/BENCH_<suite>.json` per executed suite: the `mosaic-telemetry`
//! metrics exposition of a per-suite registry holding one latency
//! histogram per case (every timed sample recorded in microseconds), so
//! downstream tooling gets p50/p90/p99 without re-parsing the table.
//! Each exposition is also copied to the workspace root (committed
//! there), so the last published numbers are inspectable — and testable
//! by `tests/bench_artifacts.rs` — without running the harness.

#![forbid(unsafe_code)]

use mosaic_assign::SolverKind;
use mosaic_bench::{figure2_pair, solver_arms};
use mosaic_edgecolor::SwapSchedule;
use mosaic_gpu::{DeviceSpec, GpuSim};
use mosaic_grid::{
    build_error_matrix, build_error_matrix_threaded_bounded_in, Deadline, ErrorMatrix, TileLayout,
    TileMetric,
};
use photomosaic::errors::gpu_error_matrix;
use photomosaic::json::Json;
use photomosaic::local_search::local_search;
use photomosaic::optimal::optimal_rearrangement;
use photomosaic::parallel_search::{
    parallel_search_gpu, parallel_search_reference, parallel_search_threads_bounded_in,
};
use photomosaic::preprocess::preprocess_gray;
use photomosaic::{generate, Algorithm, Backend, MosaicBuilder, Preprocess};
use std::time::{Duration, Instant};

struct Options {
    suites: Vec<String>,
    samples: usize,
    full: bool,
    json: bool,
}

fn parse_options() -> Options {
    let mut options = Options {
        suites: Vec::new(),
        samples: 5,
        full: false,
        json: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--suite" => {
                let name = args.next().unwrap_or_else(|| usage("--suite needs a name"));
                options.suites.push(name);
            }
            "--samples" => {
                let n = args.next().unwrap_or_else(|| usage("--samples needs N"));
                options.samples = n.parse().unwrap_or_else(|_| usage("bad --samples"));
            }
            "--full" => options.full = true,
            "--json" => options.json = true,
            other => usage(&format!("unknown option {other:?}")),
        }
    }
    if options.samples == 0 {
        usage("--samples must be positive");
    }
    options
}

fn usage(problem: &str) -> ! {
    eprintln!("bench: {problem}");
    eprintln!("usage: bench [--suite NAME]... [--samples N] [--full] [--json]");
    eprintln!("suites: error_matrix rearrange solvers ablations search tilelib");
    std::process::exit(2);
}

/// One timed case: the minimum and mean of `samples` runs (minimum is the
/// robust statistic for wall-clock noise; the mean exposes variance).
struct Case {
    suite: &'static str,
    name: String,
    min: Duration,
    mean: Duration,
    samples: usize,
    /// Every timed sample, in microseconds, for the histogram exposition.
    samples_us: Vec<u64>,
}

fn run_case<R>(
    suite: &'static str,
    name: String,
    samples: usize,
    mut f: impl FnMut() -> R,
) -> Case {
    // One untimed warm-up to populate caches and page in code.
    let _ = f();
    let mut total = Duration::ZERO;
    let mut min = Duration::MAX;
    let mut samples_us = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        let _ = f();
        let elapsed = start.elapsed();
        total += elapsed;
        min = min.min(elapsed);
        samples_us.push(elapsed.as_micros().min(u64::MAX as u128) as u64);
    }
    Case {
        suite,
        name,
        min,
        mean: total / samples as u32,
        samples,
        samples_us,
    }
}

/// Write `out/BENCH_<suite>.json` for each suite present in `cases` (the
/// telemetry metrics exposition of one histogram per case), and copy each
/// to the workspace root, where it is committed as the published numbers.
fn write_suite_expositions(cases: &[Case]) {
    let dir = mosaic_bench::out_dir();
    let root = mosaic_bench::root_dir();
    let mut suites: Vec<&'static str> = Vec::new();
    for case in cases {
        if !suites.contains(&case.suite) {
            suites.push(case.suite);
        }
    }
    for suite in suites {
        let registry = mosaic_telemetry::Registry::new();
        for case in cases.iter().filter(|c| c.suite == suite) {
            let slug: String = case
                .name
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect();
            let histogram = registry.histogram(&format!("bench_{suite}_{slug}_us"));
            for &us in &case.samples_us {
                histogram.record(us);
            }
            registry
                .counter(&format!("bench_{suite}_samples_total"))
                .add(case.samples_us.len() as u64);
        }
        let exposition = mosaic_telemetry::metrics_json(&registry);
        let path = dir.join(format!("BENCH_{suite}.json"));
        std::fs::write(&path, &exposition)
            .unwrap_or_else(|e| panic!("failed to write {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
        let published = root.join(format!("BENCH_{suite}.json"));
        std::fs::write(&published, &exposition)
            .unwrap_or_else(|e| panic!("failed to write {}: {e}", published.display()));
        eprintln!("wrote {}", published.display());
    }
}

fn suite_error_matrix(options: &Options, cases: &mut Vec<Case>) {
    let size = 256;
    let (input, target) = figure2_pair(size);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let sim = GpuSim::new(DeviceSpec::tesla_k40());
    let grids: &[usize] = if options.full {
        &[8, 16, 32, 64]
    } else {
        &[8, 16, 32]
    };
    for &grid in grids {
        let layout = TileLayout::with_grid(size, grid).unwrap();
        cases.push(run_case(
            "error_matrix",
            format!("serial/{grid}"),
            options.samples,
            || build_error_matrix(&input, &target, layout, TileMetric::Sad).unwrap(),
        ));
        cases.push(run_case(
            "error_matrix",
            format!("threads/{grid}"),
            options.samples,
            || {
                build_error_matrix_threaded_bounded_in(
                    mosaic_pool::global(),
                    &input,
                    &target,
                    layout,
                    TileMetric::Sad,
                    workers,
                    &Deadline::NONE,
                )
                .unwrap()
            },
        ));
        cases.push(run_case(
            "error_matrix",
            format!("gpu-sim/{grid}"),
            options.samples,
            || gpu_error_matrix(&sim, &input, &target, layout, TileMetric::Sad).unwrap(),
        ));
    }

    // Scalar-vs-dispatched SIMD on the serial builder at S = 256 (grid 16,
    // M = 16) and S = 1024 (grid 32, M = 8): same work, only the inner
    // kernel differs, so the gap is the SIMD speedup the dispatch buys.
    let level = mosaic_grid::init_simd_kernels();
    eprintln!("kernel dispatch: {}", level.name());
    for &grid in &[16usize, 32] {
        let layout = TileLayout::with_grid(size, grid).unwrap();
        let s = layout.tile_count();
        cases.push(run_case(
            "error_matrix",
            format!("scalar/s{s}"),
            options.samples,
            || {
                mosaic_grid::build_error_matrix_scalar(&input, &target, layout, TileMetric::Sad)
                    .unwrap()
            },
        ));
        cases.push(run_case(
            "error_matrix",
            format!("simd/s{s}"),
            options.samples,
            || build_error_matrix(&input, &target, layout, TileMetric::Sad).unwrap(),
        ));
    }
}

fn suite_rearrange(options: &Options, cases: &mut Vec<Case>) {
    let size = 256;
    let (input, target) = figure2_pair(size);
    let sim = GpuSim::new(DeviceSpec::tesla_k40());
    let grids: &[usize] = if options.full { &[8, 16, 32] } else { &[8, 16] };
    for &grid in grids {
        let layout = TileLayout::with_grid(size, grid).unwrap();
        let matrix = build_error_matrix(&input, &target, layout, TileMetric::Sad).unwrap();
        let schedule = SwapSchedule::for_tiles(matrix.size());
        cases.push(run_case(
            "rearrange",
            format!("optimal-jv/{grid}"),
            options.samples,
            || optimal_rearrangement(&matrix, SolverKind::JonkerVolgenant),
        ));
        cases.push(run_case(
            "rearrange",
            format!("optimal-hungarian/{grid}"),
            options.samples,
            || optimal_rearrangement(&matrix, SolverKind::Hungarian),
        ));
        cases.push(run_case(
            "rearrange",
            format!("local-search/{grid}"),
            options.samples,
            || local_search(&matrix),
        ));
        cases.push(run_case(
            "rearrange",
            format!("parallel-reference/{grid}"),
            options.samples,
            || parallel_search_reference(&matrix, &schedule),
        ));
        cases.push(run_case(
            "rearrange",
            format!("parallel-gpu-sim/{grid}"),
            options.samples,
            || parallel_search_gpu(&sim, &matrix, &schedule),
        ));
    }
}

fn random_cost(n: usize, seed: u64) -> ErrorMatrix {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 100_000) as u32
    };
    ErrorMatrix::from_vec(n, (0..n * n).map(|_| next()).collect())
}

fn suite_solvers(options: &Options, cases: &mut Vec<Case>) {
    let sizes: &[usize] = if options.full {
        &[64, 128, 256]
    } else {
        &[64, 128]
    };
    for &n in sizes {
        let cost = random_cost(n, 42);
        for (name, solve) in solver_arms() {
            cases.push(run_case(
                "solvers",
                format!("random/{name}/{n}"),
                options.samples,
                || solve(&cost),
            ));
        }
    }
    // Real mosaic matrices have strong structure (nearby tiles are
    // similar); solver behaviour can differ from uniform-random inputs.
    let (input, target) = figure2_pair(256);
    let layout = TileLayout::with_grid(256, 16).unwrap();
    let matrix = build_error_matrix(&input, &target, layout, TileMetric::Sad).unwrap();
    for (name, solve) in solver_arms() {
        cases.push(run_case(
            "solvers",
            format!("mosaic/{name}/256"),
            options.samples,
            || solve(&matrix),
        ));
    }
}

fn suite_ablations(options: &Options, cases: &mut Vec<Case>) {
    let (input, target) = figure2_pair(256);
    let layout = TileLayout::with_grid(256, 16).unwrap();
    for metric in TileMetric::ALL {
        cases.push(run_case(
            "ablations",
            format!("metric/{}", metric.name()),
            options.samples,
            || build_error_matrix(&input, &target, layout, metric).unwrap(),
        ));
    }
    let (big_input, big_target) = figure2_pair(512);
    for mode in [
        Preprocess::MatchTarget,
        Preprocess::Equalize,
        Preprocess::None,
    ] {
        cases.push(run_case(
            "ablations",
            format!("preprocess/{}", mode.name()),
            options.samples,
            || preprocess_gray(&big_input, &big_target, mode),
        ));
    }
    let matrix: ErrorMatrix = build_error_matrix(&input, &target, layout, TileMetric::Sad).unwrap();
    cases.push(run_case(
        "ablations",
        "search/descent".to_string(),
        options.samples,
        || local_search(&matrix),
    ));
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    for backend in [
        Backend::Serial,
        Backend::Threads(workers),
        Backend::GpuSim { workers: None },
    ] {
        let config = MosaicBuilder::new()
            .grid(16)
            .algorithm(Algorithm::ParallelSearch)
            .backend(backend)
            .build();
        cases.push(run_case(
            "ablations",
            format!("pipeline/{}", backend.name()),
            options.samples,
            || generate(&input, &target, &config).unwrap(),
        ));
    }
}

/// Derive a `<kind>-sweep/...` case from a full-search case: the same
/// samples divided by the (deterministic) sweep count, so the exposition
/// reports amortized per-sweep cost next to end-to-end cost.
fn per_sweep_case(full: &Case, sweeps: usize) -> Case {
    let sweeps = sweeps.max(1) as u64;
    let (kind, rest) = full.name.split_once('/').unwrap_or((&full.name, ""));
    Case {
        suite: full.suite,
        name: format!("{kind}-sweep/{rest}"),
        min: full.min / sweeps as u32,
        mean: full.mean / sweeps as u32,
        samples: full.samples,
        samples_us: full.samples_us.iter().map(|&us| us / sweeps).collect(),
    }
}

fn suite_search(options: &Options, cases: &mut Vec<Case>) {
    let size = 256;
    let (input, target) = figure2_pair(size);
    // Grid 16 -> S = 256, grid 32 -> S = 1024 (the acceptance scale: 1023
    // color groups per sweep, each one barrier of the pool's gang).
    for grid in [16usize, 32] {
        let layout = TileLayout::with_grid(size, grid).unwrap();
        let matrix = build_error_matrix(&input, &target, layout, TileMetric::Sad).unwrap();
        let schedule = SwapSchedule::for_tiles(matrix.size());
        let s = matrix.size();
        // Every arm makes the reference's decisions and so converges in
        // its sweep count; check that once, untimed.
        let reference = parallel_search_reference(&matrix, &schedule);
        let pooled = |threads: usize| {
            parallel_search_threads_bounded_in(
                mosaic_pool::global(),
                &matrix,
                &schedule,
                threads,
                &Deadline::NONE,
            )
            .unwrap()
        };
        let mut arms = vec![run_case(
            "search",
            format!("reference/s{s}"),
            options.samples,
            || parallel_search_reference(&matrix, &schedule),
        )];
        for threads in [2usize, 4] {
            assert_eq!(pooled(threads), reference, "pool diverged at t={threads}");
            arms.push(run_case(
                "search",
                format!("pool/s{s}/t{threads}"),
                options.samples,
                || pooled(threads),
            ));
        }
        for arm in arms {
            cases.push(per_sweep_case(&arm, reference.outcome.sweeps));
            cases.push(arm);
        }
    }
}

/// `count` distinct tiles, deduplicated by the store's content digest so
/// every library size is met exactly (scene renders can collide).
fn library_tiles(count: usize, tile_size: usize) -> Vec<mosaic_image::GrayImage> {
    use mosaic_image::synth::Scene;
    let mut tiles = Vec::with_capacity(count);
    let mut seen = std::collections::HashSet::new();
    let mut seed = 0u64;
    while tiles.len() < count {
        let scene = Scene::ALL[(seed % Scene::ALL.len() as u64) as usize];
        let img = scene.render(tile_size, seed);
        if seen.insert(mosaic_tilelib::TileStore::tile_digest(&img)) {
            tiles.push(img);
        }
        seed += 1;
    }
    tiles
}

fn suite_tilelib(options: &Options, cases: &mut Vec<Case>) {
    use mosaic_assign::{solve_sparse_rect, SparseCostMatrix};
    use mosaic_tilelib::{batch_features, kmeans, pair_cost, scored_candidates};

    let tile_size = 8usize;
    let grid = 8usize;
    let cells = grid * grid;
    let metric = TileMetric::Sad;
    let (_, target) = figure2_pair(grid * tile_size);
    let cell_images: Vec<mosaic_image::GrayImage> = (0..cells)
        .map(|i| {
            let (cy, cx) = (i / grid, i % grid);
            mosaic_image::GrayImage::from_fn(tile_size, tile_size, |x, y| {
                target.pixel(cx * tile_size + x, cy * tile_size + y)
            })
            .unwrap()
        })
        .collect();
    let pool = mosaic_pool::ThreadPool::new(4);
    let cell_features = batch_features(&cell_images, 4, &pool);

    // Fixed library sizes regardless of --full: bench_artifacts.rs keys
    // on the largest one as the published pruning evidence.
    for t in [256usize, 512, 1024] {
        let tiles = library_tiles(t, tile_size);
        let tile_features = batch_features(&tiles, 4, &pool);
        let clustering = kmeans(&tile_features, 32, 1, &pool);

        // Dense baseline: score every (cell, tile) pair, then solve the
        // full rectangular instance exactly.
        let dense_solve = || {
            let lists: Vec<Vec<(usize, u32)>> = cell_images
                .iter()
                .map(|cell| {
                    tiles
                        .iter()
                        .enumerate()
                        .map(|(j, tile)| (j, pair_cost(cell, tile, metric)))
                        .collect()
                })
                .collect();
            let dense =
                SparseCostMatrix::from_candidates_rect(cells, tiles.len(), &lists, |c, j| {
                    pair_cost(&cell_images[c], &tiles[j], metric)
                })
                .unwrap();
            solve_sparse_rect(&dense).unwrap()
        };
        // Pruned path: each cell scores only its nearest clusters, then
        // the sparse instance is solved exactly over those candidates.
        let sparse_solve = || {
            let lists = scored_candidates(
                &cell_images,
                &cell_features,
                &tiles,
                &clustering,
                4,
                metric,
                &pool,
            );
            let sparse =
                SparseCostMatrix::from_candidates_rect(cells, tiles.len(), &lists, |c, j| {
                    pair_cost(&cell_images[c], &tiles[j], metric)
                })
                .unwrap();
            solve_sparse_rect(&sparse).unwrap()
        };

        let total = |assignment: &[usize]| -> u64 {
            assignment
                .iter()
                .enumerate()
                .map(|(c, &j)| u64::from(pair_cost(&cell_images[c], &tiles[j], metric)))
                .sum()
        };
        let dense_cost = total(&dense_solve());
        let pruned_cost = total(&sparse_solve());
        // Pruning can only lose quality relative to the dense optimum;
        // publish how much, in permille (1000 = matched the optimum).
        let ratio_permille = (pruned_cost.max(1) * 1000).div_ceil(dense_cost.max(1));
        cases.push(Case {
            suite: "tilelib",
            name: format!("cost-ratio-permille/t{t}"),
            min: Duration::from_micros(ratio_permille),
            mean: Duration::from_micros(ratio_permille),
            samples: 1,
            samples_us: vec![ratio_permille],
        });

        cases.push(run_case(
            "tilelib",
            format!("solve-dense/t{t}"),
            options.samples,
            dense_solve,
        ));
        cases.push(run_case(
            "tilelib",
            format!("solve-sparse/t{t}"),
            options.samples,
            sparse_solve,
        ));
    }
    pool.shutdown();
}

fn main() {
    let options = parse_options();
    let all = [
        "error_matrix",
        "rearrange",
        "solvers",
        "ablations",
        "search",
        "tilelib",
    ];
    let selected: Vec<&str> = if options.suites.is_empty() {
        all.to_vec()
    } else {
        for s in &options.suites {
            if !all.contains(&s.as_str()) {
                usage(&format!("unknown suite {s:?}"));
            }
        }
        all.iter()
            .copied()
            .filter(|s| options.suites.iter().any(|o| o == s))
            .collect()
    };

    let mut cases = Vec::new();
    for suite in &selected {
        match *suite {
            "error_matrix" => suite_error_matrix(&options, &mut cases),
            "rearrange" => suite_rearrange(&options, &mut cases),
            "solvers" => suite_solvers(&options, &mut cases),
            "ablations" => suite_ablations(&options, &mut cases),
            "search" => suite_search(&options, &mut cases),
            "tilelib" => suite_tilelib(&options, &mut cases),
            _ => unreachable!(),
        }
    }

    write_suite_expositions(&cases);

    if options.json {
        let entries: Vec<Json> = cases
            .iter()
            .map(|c| {
                Json::obj([
                    ("suite", Json::from(c.suite)),
                    ("name", Json::from(c.name.as_str())),
                    ("min_ms", Json::from(c.min.as_secs_f64() * 1000.0)),
                    ("mean_ms", Json::from(c.mean.as_secs_f64() * 1000.0)),
                    ("samples", Json::from(c.samples)),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("samples", Json::from(options.samples)),
            ("full", Json::Bool(options.full)),
            ("cases", Json::Arr(entries)),
        ]);
        println!("{}", doc.encode());
    } else {
        println!(
            "{:<14} {:<28} {:>12} {:>12}  (n={})",
            "suite", "case", "min", "mean", options.samples
        );
        for c in &cases {
            println!(
                "{:<14} {:<28} {:>9.3} ms {:>9.3} ms",
                c.suite,
                c.name,
                c.min.as_secs_f64() * 1000.0,
                c.mean.as_secs_f64() * 1000.0,
            );
        }
    }
}
