//! Ablation studies for the design choices called out in DESIGN.md §5.
//!
//! ```text
//! cargo run --release -p mosaic-bench --bin ablate [--full]
//! ```
//!
//! * **Metric** — SAD (the paper's Eq. 1) vs SSD vs tile-mean: quality
//!   (final SAD against the target, PSNR) and Step-2 cost;
//! * **Solver** — Hungarian vs Jonker–Volgenant vs auction vs blossom vs
//!   greedy on the same error matrix: identical optima for the exact
//!   four, time differences, greedy's quality gap;
//! * **Preprocess** — histogram matching vs equalization vs none;
//! * **Search effort** — how far Algorithm 1's swap-local optimum sits
//!   from the exact optimum;
//! * **Scalability** — the dense exact solve at the largest grid;
//! * **Workers** — simulated-device scaling with host worker count.

#![forbid(unsafe_code)]

use mosaic_assign::SolverKind;
use mosaic_bench::{figure2_pair, fmt_secs, solver_arms, RunScale};
use mosaic_edgecolor::SwapSchedule;
use mosaic_gpu::{DeviceSpec, GpuSim};
use mosaic_grid::{build_error_matrix, TileLayout, TileMetric};
use mosaic_image::metrics;
use photomosaic::local_search::local_search;
use photomosaic::optimal::optimal_rearrangement;
use photomosaic::parallel_search::parallel_search_gpu;
use photomosaic::{generate, Algorithm, Backend, MosaicBuilder, Preprocess};

fn main() {
    let scale = RunScale::from_args();
    let size = scale.table1_size();
    let grid = scale.grids()[1];
    let (input, target) = figure2_pair(size);

    // ---- metric ablation ----
    println!("== Metric ablation (N={size}, S={grid}x{grid}, optimal rearrangement) ==");
    println!(
        "{:>9} | {:>12} | {:>9} | {:>9}",
        "metric", "SAD vs tgt", "PSNR[dB]", "step2[s]"
    );
    for metric in TileMetric::ALL {
        let config = MosaicBuilder::new()
            .grid(grid)
            .metric(metric)
            .algorithm(Algorithm::Optimal(SolverKind::JonkerVolgenant))
            .backend(Backend::Serial)
            .build();
        let result = generate(&input, &target, &config).expect("valid");
        println!(
            "{:>9} | {:>12} | {:>9.2} | {}",
            metric.name(),
            metrics::sad(&result.image, &target),
            metrics::psnr(&result.image, &target),
            fmt_secs(result.report.step2_wall),
        );
    }

    // ---- solver ablation ----
    let layout = TileLayout::with_grid(size, grid).expect("divisible");
    let matrix = build_error_matrix(&input, &target, layout, TileMetric::Sad).unwrap();
    println!(
        "\n== Solver ablation (same SAD error matrix, S={}) ==",
        matrix.size()
    );
    println!(
        "{:>17} | {:>14} | {:>9} | {:>6}",
        "solver", "total", "time[s]", "exact"
    );
    for (name, solve) in solver_arms() {
        let (assignment, dt) = mosaic_bench::time(|| solve(&matrix));
        println!(
            "{:>17} | {:>14} | {} | {:>6}",
            name,
            matrix.assignment_total(&assignment),
            fmt_secs(dt),
            name != "greedy",
        );
    }

    // ---- preprocess ablation ----
    println!("\n== Preprocess ablation (optimal rearrangement) ==");
    println!(
        "{:>13} | {:>14} | {:>9}",
        "preprocess", "total error", "PSNR[dB]"
    );
    for preprocess in [
        Preprocess::MatchTarget,
        Preprocess::Equalize,
        Preprocess::None,
    ] {
        let config = MosaicBuilder::new()
            .grid(grid)
            .algorithm(Algorithm::Optimal(SolverKind::JonkerVolgenant))
            .backend(Backend::Serial)
            .preprocess(preprocess)
            .build();
        let result = generate(&input, &target, &config).expect("valid");
        println!(
            "{:>13} | {:>14} | {:>9.2}",
            preprocess.name(),
            result.report.total_error,
            metrics::psnr(&result.image, &target),
        );
    }

    // ---- search effort ablation ----
    let optimal = optimal_rearrangement(&matrix, SolverKind::JonkerVolgenant).total;
    println!("\n== Search effort (optimum = {optimal}) ==");
    println!("{:>16} | {:>14} | {:>9}", "search", "total", "over-opt");
    let plain = local_search(&matrix);
    println!(
        "{:>16} | {:>14} | {:>8.3}%",
        "descent (Alg. 1)",
        plain.total,
        100.0 * (plain.total - optimal) as f64 / optimal as f64
    );

    // ---- scalability: the dense exact solve at the largest grid ----
    {
        let big_grid = scale.grids()[2];
        println!("\n== Scalability (grid {big_grid}x{big_grid}, same pair) ==");
        let big_layout = TileLayout::with_grid(size, big_grid).expect("divisible");
        let (big_matrix, t_matrix) = mosaic_bench::time(|| {
            build_error_matrix(&input, &target, big_layout, TileMetric::Sad).unwrap()
        });
        let (opt, t_opt) =
            mosaic_bench::time(|| optimal_rearrangement(&big_matrix, SolverKind::JonkerVolgenant));
        println!("(error matrix build: {})", fmt_secs(t_matrix).trim());
        println!(
            "dense JV (exact): total {}, {} s",
            opt.total,
            fmt_secs(t_opt).trim()
        );
    }

    // ---- worker scaling ----
    println!(
        "\n== Simulated-device scaling (Algorithm 2, S={}) ==",
        matrix.size()
    );
    println!("{:>8} | {:>9} | {:>8}", "workers", "time[s]", "speedup");
    let schedule = SwapSchedule::for_tiles(matrix.size());
    let mut base = None;
    for workers in [1usize, 2, 4, 8] {
        let sim = GpuSim::with_workers(DeviceSpec::tesla_k40(), workers);
        let (_, dt) = mosaic_bench::time(|| parallel_search_gpu(&sim, &matrix, &schedule));
        let b = *base.get_or_insert(dt);
        println!(
            "{:>8} | {} | {:>7.2}x",
            workers,
            fmt_secs(dt),
            b.as_secs_f64() / dt.as_secs_f64()
        );
    }
}
