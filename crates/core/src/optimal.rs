//! §III — the optimization algorithm.
//!
//! "Consider a weighted complete bipartite graph (V₁, V₂, E) … obtaining
//! the best rearranged image R* is finding a matching of minimum weight."
//! The Step-2 error matrix *is* the weight matrix of that bipartite graph
//! (rows = input tiles, columns = target positions), so the reduction is a
//! type conversion followed by an exact assignment solve.
//!
//! The paper used Blossom V as its matcher; on bipartite instances every
//! exact solver returns the same optimum. Jobs are served by
//! Jonker–Volgenant, the one solver that polls the job deadline; the other
//! [`SolverKind`]s are its test oracles (DESIGN.md §2). The greedy
//! baseline is [`greedy_rearrangement`].

use crate::local_search::{never_exceeded, SearchOutcome};
use mosaic_assign::greedy::solve_greedy;
use mosaic_assign::jv::solve_jv_bounded;
use mosaic_assign::{Assignment, CostMatrix, SolverKind};
use mosaic_grid::{Deadline, DeadlineExceeded, ErrorMatrix};

/// Convert the Step-2 error matrix into an assignment cost matrix.
pub fn to_cost_matrix(matrix: &ErrorMatrix) -> CostMatrix {
    CostMatrix::from_vec(matrix.size(), matrix.as_slice().to_vec())
}

/// Solve Step 3 exactly with the chosen solver.
///
/// The returned [`SearchOutcome`] reuses the local-search result type:
/// `sweeps`/`swaps` are zero (no iterative refinement happens here).
pub fn optimal_rearrangement(matrix: &ErrorMatrix, solver: SolverKind) -> SearchOutcome {
    never_exceeded(optimal_rearrangement_bounded(
        matrix,
        solver,
        &Deadline::NONE,
    ))
}

/// [`optimal_rearrangement`] under a deadline. Jonker–Volgenant polls it
/// before each free-row augmentation; the oracle solvers check it only
/// on entry.
///
/// # Errors
/// Returns [`DeadlineExceeded`] when `deadline` expires before the solve
/// finishes.
pub fn optimal_rearrangement_bounded(
    matrix: &ErrorMatrix,
    solver: SolverKind,
    deadline: &Deadline,
) -> Result<SearchOutcome, DeadlineExceeded> {
    deadline.check()?;
    let cost = to_cost_matrix(matrix);
    let solution = match solver {
        SolverKind::JonkerVolgenant => Assignment::new(&cost, solve_jv_bounded(&cost, deadline)?),
        oracle => oracle.build().solve(&cost),
    };
    Ok(outcome(&solution))
}

/// The greedy matching baseline (not in the paper; a quality floor).
pub fn greedy_rearrangement(matrix: &ErrorMatrix) -> SearchOutcome {
    let cost = to_cost_matrix(matrix);
    let row_to_col = solve_greedy(&cost);
    outcome(&Assignment::new(&cost, row_to_col))
}

fn outcome(solution: &Assignment) -> SearchOutcome {
    SearchOutcome {
        total: solution.total(),
        assignment: solution.col_to_row(),
        sweeps: 0,
        swaps: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local_search::local_search;

    fn random_matrix(n: usize, seed: u64, max: u64) -> ErrorMatrix {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % max) as u32
        };
        ErrorMatrix::from_vec(n, (0..n * n).map(|_| next()).collect())
    }

    #[test]
    fn cost_matrix_conversion_preserves_entries() {
        let m = random_matrix(5, 3, 100);
        let c = to_cost_matrix(&m);
        for u in 0..5 {
            for v in 0..5 {
                assert_eq!(c.get(u, v), m.get(u, v));
            }
        }
    }

    #[test]
    fn all_exact_solvers_agree() {
        let m = random_matrix(24, 9, 10_000);
        let totals: Vec<u64> = [
            SolverKind::Hungarian,
            SolverKind::JonkerVolgenant,
            SolverKind::Auction,
        ]
        .iter()
        .map(|&k| optimal_rearrangement(&m, k).total)
        .collect();
        assert_eq!(totals[0], totals[1]);
        assert_eq!(totals[0], totals[2]);
    }

    #[test]
    fn optimal_never_worse_than_local_search() {
        // Table I's headline property: the optimization algorithm's total
        // is a lower bound on the approximation algorithm's.
        for seed in [1u64, 7, 42, 99] {
            let m = random_matrix(30, seed, 5_000);
            let opt = optimal_rearrangement(&m, SolverKind::JonkerVolgenant);
            let approx = local_search(&m);
            assert!(
                opt.total <= approx.total,
                "seed {seed}: optimal {} > approx {}",
                opt.total,
                approx.total
            );
        }
    }

    #[test]
    fn assignment_total_is_consistent() {
        let m = random_matrix(16, 5, 1000);
        let out = optimal_rearrangement(&m, SolverKind::Hungarian);
        assert_eq!(m.assignment_total(&out.assignment), out.total);
        assert_eq!(out.sweeps, 0);
        assert_eq!(out.swaps, 0);
    }

    #[test]
    fn greedy_is_feasible_but_possibly_worse() {
        let m = random_matrix(20, 11, 1000);
        let greedy = greedy_rearrangement(&m);
        let exact = optimal_rearrangement(&m, SolverKind::Hungarian);
        assert!(greedy.total >= exact.total);
        assert_eq!(m.assignment_total(&greedy.assignment), greedy.total);
    }
}
