//! Property-based tests certifying the polynomial solvers against the
//! brute-force oracle and each other, driven by the deterministic
//! [`mosaic_image::testutil`] PRNG (ported from the former `proptest`
//! suite; every case reproduces from the printed seed).

use mosaic_assign::brute::solve_brute;
use mosaic_assign::greedy::solve_greedy;
use mosaic_assign::{solve_hungarian, solve_jv, SolverKind};
use mosaic_grid::assemble::is_permutation;
use mosaic_grid::{build_error_matrix, ErrorMatrix, TileLayout, TileMetric};
use mosaic_image::synth::Scene;
use mosaic_image::testutil::XorShift;

fn arb_cost_matrix(rng: &mut XorShift, max_n: usize, max_cost: u32) -> ErrorMatrix {
    let n = rng.range(1, max_n);
    let data: Vec<u32> = (0..n * n)
        .map(|_| rng.next_u32() % (max_cost + 1))
        .collect();
    ErrorMatrix::from_vec(n, data)
}

/// An `n × n` matrix with entry `(u, v) = f(u, v)`.
fn from_fn(n: usize, f: impl Fn(usize, usize) -> u32) -> ErrorMatrix {
    ErrorMatrix::from_vec(n, (0..n * n).map(|i| f(i / n, i % n)).collect())
}

/// The total of `kind`'s assignment on `cost`, which must be a
/// permutation.
fn total(kind: SolverKind, cost: &ErrorMatrix) -> u64 {
    let assignment = kind.solve(cost);
    assert!(is_permutation(&assignment, cost.size()), "{}", kind.name());
    cost.assignment_total(&assignment)
}

#[test]
fn exact_solvers_match_brute_force() {
    for seed in 0..48 {
        let mut rng = XorShift::new(seed);
        let cost = arb_cost_matrix(&mut rng, 7, 1000);
        let brute = cost.assignment_total(&solve_brute(&cost));
        for kind in SolverKind::ALL {
            let assignment = kind.solve(&cost);
            let label = format!("{} seed {seed}", kind.name());
            assert!(is_permutation(&assignment, cost.size()), "{label}");
            assert_eq!(cost.assignment_total(&assignment), brute, "{label}");
        }
    }
}

#[test]
fn exact_solvers_agree_on_larger_instances() {
    for seed in 0..12 {
        let mut rng = XorShift::new(seed);
        let cost = arb_cost_matrix(&mut rng, 40, 100_000);
        let h = total(SolverKind::Hungarian, &cost);
        assert_eq!(total(SolverKind::JonkerVolgenant, &cost), h, "seed {seed}");
        assert_eq!(total(SolverKind::Auction, &cost), h, "seed {seed}");
    }
}

#[test]
fn exact_solvers_handle_heavy_ties() {
    for seed in 0..24 {
        let mut rng = XorShift::new(seed);
        let cost = arb_cost_matrix(&mut rng, 24, 3);
        let h = total(SolverKind::Hungarian, &cost);
        for kind in SolverKind::ALL {
            assert_eq!(total(kind, &cost), h, "{} seed {seed}", kind.name());
        }
    }
}

#[test]
fn blossom_matches_hungarian_via_embedding() {
    // The paper's configuration: bipartite assignment through a
    // general-graph matcher.
    for seed in 0..16 {
        let mut rng = XorShift::new(seed);
        let cost = arb_cost_matrix(&mut rng, 20, 100_000);
        assert_eq!(
            total(SolverKind::Blossom, &cost),
            total(SolverKind::Hungarian, &cost),
            "seed {seed}"
        );
    }
}

#[test]
fn greedy_is_feasible_and_dominated() {
    for seed in 0..24 {
        let mut rng = XorShift::new(seed);
        let cost = arb_cost_matrix(&mut rng, 24, 10_000);
        let greedy = solve_greedy(&cost);
        assert!(is_permutation(&greedy, cost.size()), "seed {seed}");
        assert!(
            cost.assignment_total(&greedy) >= total(SolverKind::Hungarian, &cost),
            "seed {seed}"
        );
    }
}

#[test]
fn optimum_invariant_under_row_permutation() {
    // Permuting rows of the cost matrix must not change the optimal total.
    for seed in 0..24 {
        let mut rng = XorShift::new(seed);
        let cost = arb_cost_matrix(&mut rng, 12, 1000);
        let n = cost.size();
        let perm = rng.permutation(n);
        let permuted = from_fn(n, |r, c| cost.get(perm[r], c));
        assert_eq!(
            total(SolverKind::Hungarian, &cost),
            total(SolverKind::Hungarian, &permuted),
            "seed {seed}"
        );
    }
}

#[test]
fn adding_constant_to_row_shifts_optimum() {
    // Adding δ to every entry of one row adds exactly δ to the optimum.
    for seed in 0..24 {
        let mut rng = XorShift::new(seed);
        let cost = arb_cost_matrix(&mut rng, 10, 1000);
        let delta = rng.range(1, 499) as u32;
        let n = cost.size();
        let bumped = from_fn(n, |r, c| {
            if r == 0 {
                cost.get(r, c) + delta
            } else {
                cost.get(r, c)
            }
        });
        for kind in [SolverKind::Hungarian, SolverKind::JonkerVolgenant] {
            assert_eq!(
                total(kind, &bumped),
                total(kind, &cost) + u64::from(delta),
                "{} seed {seed}",
                kind.name()
            );
        }
    }
}

#[test]
fn optimum_is_lower_bounded_by_row_minima() {
    for seed in 0..24 {
        let mut rng = XorShift::new(seed);
        let cost = arb_cost_matrix(&mut rng, 16, 10_000);
        let lb: u64 = (0..cost.size())
            .map(|r| u64::from(*cost.row(r).iter().min().unwrap()))
            .sum();
        assert!(total(SolverKind::Hungarian, &cost) >= lb, "seed {seed}");
    }
}

#[test]
fn blossom_general_matches_dp_oracle() {
    for seed in 0..24 {
        let mut rng = XorShift::new(seed);
        let half = rng.range(1, 6);
        let n = 2 * half;
        let mut w = vec![vec![0i64; n]; n];
        #[allow(clippy::needless_range_loop)] // symmetric fill: i and j index both triangles
        for i in 0..n {
            for j in (i + 1)..n {
                let v = (rng.next_u32() % 5_000) as i64;
                w[i][j] = v;
                w[j][i] = v;
            }
        }
        let (mate, total) = mosaic_assign::blossom::min_weight_perfect_matching(&w);
        let oracle = mosaic_assign::blossom::oracle_min_perfect_matching(&w);
        assert_eq!(total as i64, oracle, "seed {seed}");
        for (i, &j) in mate.iter().enumerate() {
            assert_eq!(mate[j], i, "seed {seed}");
            assert_ne!(i, j, "seed {seed}");
        }
    }
}

/// JV on `cost`: a permutation, the Hungarian optimum, and the same
/// assignment on a second call.
fn assert_jv_exact_and_deterministic(cost: &ErrorMatrix, label: &str) {
    let first = solve_jv(cost);
    assert!(
        is_permutation(&first, cost.size()),
        "{label}: not a permutation"
    );
    assert_eq!(
        cost.assignment_total(&first),
        cost.assignment_total(&solve_hungarian(cost)),
        "{label}"
    );
    assert_eq!(solve_jv(cost), first, "{label}: nondeterministic");
}

#[test]
fn jv_is_exact_on_duplicated_columns() {
    // Every distinct column copied k times: whole blocks of columns tie
    // at each distance level, so the augmentation moves many columns
    // into its scan list at once and can end on a tied free column.
    // (n, k, largest cost + 1)
    let cases = [
        (60usize, 2usize, 1_000u32),
        (60, 3, 1_000),
        (60, 5, 1_000),
        (60, 12, 1_000),
        (60, 60, 1_000),
        (96, 8, 1_000),
        (128, 4, 100_000),
    ];
    for seed in 0..6 {
        for (n, k, max) in cases {
            let mut rng = XorShift::new(seed);
            let distinct = n / k;
            let base: Vec<u32> = (0..n * distinct).map(|_| rng.next_u32() % max).collect();
            let cost = from_fn(n, |r, c| base[r * distinct + c % distinct]);
            assert_jv_exact_and_deterministic(&cost, &format!("seed {seed} n={n} k={k}"));
        }
    }
}

#[test]
fn jv_is_exact_on_duplicated_rows_and_columns() {
    // Copied rows as well: rows tie on every column, so most of them
    // stay free after the auction prefix and reach the augmentation.
    for seed in 0..6 {
        let n = 64;
        let k = 4;
        let distinct = n / k;
        let mut rng = XorShift::new(seed);
        let base: Vec<u32> = (0..distinct * distinct)
            .map(|_| rng.next_u32() % 50)
            .collect();
        let cost = from_fn(n, |r, c| base[(r % distinct) * distinct + c % distinct]);
        assert_jv_exact_and_deterministic(&cost, &format!("seed {seed}"));
    }
}

#[test]
fn jv_is_exact_on_rendered_mosaic_matrices() {
    // Real Step-2 matrices at S = 256 (256 px, 16 px tiles): popular
    // target tiles and ties leave most rows free after the auction
    // prefix, so the augmentation does real work.
    let layout = TileLayout::with_grid(256, 16).unwrap();
    for (input, target) in [
        (Scene::Fur, Scene::Checker),
        (Scene::Portrait, Scene::Drapery),
    ] {
        let (a, b) = (input.render(256, 11), target.render(256, 12));
        for metric in [TileMetric::Sad, TileMetric::Ssd] {
            let cost = build_error_matrix(&a, &b, layout, metric).unwrap();
            let label = format!("{}->{} {}", input.name(), target.name(), metric.name());
            assert_jv_exact_and_deterministic(&cost, &label);
        }
    }
}
