//! §III — the optimization algorithm.
//!
//! "Consider a weighted complete bipartite graph (V₁, V₂, E) … obtaining
//! the best rearranged image R* is finding a matching of minimum weight."
//! The Step-2 error matrix *is* the weight matrix of that bipartite graph
//! (rows = input tiles, columns = target positions), so the solvers read
//! it directly and return the pipeline's `assignment[v] = u`.
//!
//! The paper used Blossom V as its matcher; on bipartite instances every
//! exact solver returns the same optimum. Jobs are served by
//! Jonker–Volgenant, the one solver that polls the job deadline; the other
//! [`SolverKind`]s are its test oracles (DESIGN.md §2). The greedy
//! baseline is [`greedy_rearrangement`].

use crate::local_search::{never_exceeded, SearchOutcome};
use mosaic_assign::greedy::solve_greedy;
use mosaic_assign::{solve_jv_bounded, SolverKind};
use mosaic_grid::assemble::is_permutation;
use mosaic_grid::{Deadline, DeadlineExceeded, ErrorMatrix};

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
/// at each phase of its auction prefix, once every `S` bids within a
/// phase and before each free-row augmentation; the oracle solvers check
/// it only on entry.
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
    let assignment = match solver {
        SolverKind::JonkerVolgenant => solve_jv_bounded(matrix, deadline)?,
        oracle => oracle.solve(matrix),
    };
    Ok(outcome(matrix, assignment))
}

/// The greedy matching baseline (not in the paper; a quality floor).
pub fn greedy_rearrangement(matrix: &ErrorMatrix) -> SearchOutcome {
    outcome(matrix, solve_greedy(matrix))
}

/// Wrap a solver's `assignment` with its Eq. (2) total.
///
/// # Panics
/// Panics when `assignment` is not a permutation of `0..S`.
fn outcome(matrix: &ErrorMatrix, assignment: Vec<usize>) -> SearchOutcome {
    let s = matrix.size();
    assert!(
        is_permutation(&assignment, s),
        "assignment must be a permutation of 0..{s}"
    );
    SearchOutcome {
        total: matrix.assignment_total(&assignment),
        assignment,
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

    /// Every solver's outcome is a permutation whose total is the
    /// matrix's `assignment_total` of it.
    #[test]
    fn every_solver_outcome_is_a_permutation_with_its_total() {
        let m = random_matrix(9, 3, 100);
        let outcomes = SolverKind::ALL
            .iter()
            .map(|&kind| (kind.name(), optimal_rearrangement(&m, kind)))
            .chain([("greedy", greedy_rearrangement(&m))]);
        for (name, out) in outcomes {
            assert!(is_permutation(&out.assignment, 9), "{name}");
            assert_eq!(out.total, m.assignment_total(&out.assignment), "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn non_permutation_is_rejected() {
        let _ = outcome(&ErrorMatrix::zeros(2), vec![0, 0]);
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
