//! Property-based tests on the core algorithms, driven by the
//! deterministic [`mosaic_image::testutil`] PRNG (ported from the former
//! `proptest` suite; every case reproduces from the printed seed).

use mosaic_assign::{solve_hungarian, solve_jv, SolverKind};
use mosaic_edgecolor::SwapSchedule;
use mosaic_grid::assemble::is_permutation;
use mosaic_grid::{build_error_matrix, ErrorMatrix, TileLayout, TileMetric};
use mosaic_image::synth::Scene;
use mosaic_image::testutil::XorShift;
use photomosaic::local_search::{is_swap_optimal, local_search, local_search_from};
use photomosaic::optimal::{greedy_rearrangement, optimal_rearrangement};
use photomosaic::parallel_search::{parallel_search_reference, parallel_search_threads_bounded_in};
use photomosaic::preprocess::preprocess_gray;
use photomosaic::{Deadline, Preprocess};

fn arb_matrix(rng: &mut XorShift, max_n: usize, max_cost: u32) -> ErrorMatrix {
    let n = rng.range(2, max_n);
    let data: Vec<u32> = (0..n * n)
        .map(|_| rng.next_u32() % (max_cost + 1))
        .collect();
    ErrorMatrix::from_vec(n, data)
}

#[test]
fn local_search_reaches_swap_optimum() {
    for seed in 0..24 {
        let mut rng = XorShift::new(seed);
        let m = arb_matrix(&mut rng, 20, 10_000);
        let out = local_search(&m);
        assert!(is_swap_optimal(&m, &out.assignment), "seed {seed}");
        assert_eq!(
            out.total,
            m.assignment_total(&out.assignment),
            "seed {seed}"
        );
    }
}

#[test]
fn parallel_search_reaches_swap_optimum() {
    for seed in 0..24 {
        let mut rng = XorShift::new(seed);
        let m = arb_matrix(&mut rng, 20, 10_000);
        let sched = SwapSchedule::for_tiles(m.size());
        let out = parallel_search_reference(&m, &sched);
        assert!(is_swap_optimal(&m, &out.outcome.assignment), "seed {seed}");
    }
}

#[test]
fn threads_match_reference() {
    for seed in 0..24 {
        let mut rng = XorShift::new(seed);
        let m = arb_matrix(&mut rng, 16, 5_000);
        let threads = rng.range(1, 5);
        let sched = SwapSchedule::for_tiles(m.size());
        assert_eq!(
            parallel_search_threads_bounded_in(
                mosaic_pool::global(),
                &m,
                &sched,
                threads,
                &Deadline::NONE
            )
            .unwrap(),
            parallel_search_reference(&m, &sched),
            "seed {seed}"
        );
    }
}

#[test]
fn optimal_lower_bounds_every_heuristic() {
    for seed in 0..16 {
        let mut rng = XorShift::new(seed);
        let m = arb_matrix(&mut rng, 14, 5_000);
        let opt = optimal_rearrangement(&m, SolverKind::JonkerVolgenant).total;
        assert!(local_search(&m).total >= opt, "seed {seed}");
        let sched = SwapSchedule::for_tiles(m.size());
        assert!(
            parallel_search_reference(&m, &sched).outcome.total >= opt,
            "seed {seed}"
        );
        assert!(greedy_rearrangement(&m).total >= opt, "seed {seed}");
    }
}

#[test]
fn search_never_worse_than_its_start() {
    for seed in 0..24 {
        let mut rng = XorShift::new(seed);
        let m = arb_matrix(&mut rng, 14, 5_000);
        let perm = rng.permutation(m.size());
        let start_total = m.assignment_total(&perm);
        let out = local_search_from(&m, perm);
        assert!(out.total <= start_total, "seed {seed}");
    }
}

#[test]
fn exact_solvers_agree_via_pipeline_reduction() {
    for seed in 0..24 {
        let mut rng = XorShift::new(seed);
        let m = arb_matrix(&mut rng, 12, 100_000);
        let a = optimal_rearrangement(&m, SolverKind::Hungarian).total;
        let b = optimal_rearrangement(&m, SolverKind::JonkerVolgenant).total;
        let c = optimal_rearrangement(&m, SolverKind::Auction).total;
        assert_eq!(a, b, "seed {seed}");
        assert_eq!(a, c, "seed {seed}");
    }
}

/// The S×S SAD matrix of a 256 px mosaic on a 16×16 grid (S = 256),
/// built the way a served job builds it: histogram-matched input, then
/// Step 2.
fn mosaic_matrix(input: Scene, target: Scene, seed: u64) -> ErrorMatrix {
    let input = input.render(256, seed);
    let target = target.render(256, seed + 1);
    let prepared = preprocess_gray(&input, &target, Preprocess::MatchTarget);
    let layout = TileLayout::with_grid(256, 16).unwrap();
    build_error_matrix(&prepared, &target, layout, TileMetric::Sad).unwrap()
}

#[test]
fn jv_is_exact_and_deterministic_on_real_mosaic_matrices() {
    // Fur→Checker and Checker→Fur have many equal-cost tiles, so the
    // exact solve meets large ties at every distance level.
    for (input, target) in [(Scene::Fur, Scene::Checker), (Scene::Checker, Scene::Fur)] {
        for seed in [3u64, 904] {
            let matrix = mosaic_matrix(input, target, seed);
            let label = format!("{input:?}->{target:?} seed {seed}");
            let first = solve_jv(&matrix);
            assert!(
                is_permutation(&first, matrix.size()),
                "{label}: not a permutation"
            );
            assert_eq!(
                matrix.assignment_total(&first),
                matrix.assignment_total(&solve_hungarian(&matrix)),
                "{label}"
            );
            assert_eq!(solve_jv(&matrix), first, "{label}: nondeterministic");
        }
    }
}
