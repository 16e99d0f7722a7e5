//! Exhaustive assignment search — the test oracle.
//!
//! Enumerates all `n!` permutations (Heap's algorithm) and keeps the best.
//! Exponential, so capped at `n ≤ MAX_BRUTE_N`; used by unit and property
//! tests to certify the polynomial solvers.

use mosaic_grid::ErrorMatrix;

/// Largest instance the brute-force solver accepts.
pub const MAX_BRUTE_N: usize = 10;

/// The best `assignment[v] = u` over every permutation of `0..S`.
///
/// # Panics
/// Panics when `matrix.size() > MAX_BRUTE_N`.
pub fn solve_brute(matrix: &ErrorMatrix) -> Vec<usize> {
    let n = matrix.size();
    assert!(
        n <= MAX_BRUTE_N,
        "brute force capped at n <= {MAX_BRUTE_N}, got {n}"
    );
    let mut perm: Vec<usize> = (0..n).collect();
    let mut best = perm.clone();
    let mut best_total = matrix.assignment_total(&perm);

    // Heap's algorithm, iterative form.
    let mut counters = vec![0usize; n];
    let mut i = 0;
    while i < n {
        if counters[i] < i {
            if i % 2 == 0 {
                perm.swap(0, i);
            } else {
                perm.swap(counters[i], i);
            }
            let total = matrix.assignment_total(&perm);
            if total < best_total {
                best_total = total;
                best.copy_from_slice(&perm);
            }
            counters[i] += 1;
            i = 0;
        } else {
            counters[i] = 0;
            i += 1;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{checked_total, from_fn};

    fn brute_force_total(cost: &ErrorMatrix) -> u64 {
        checked_total(cost, &solve_brute(cost))
    }

    #[test]
    fn one_by_one() {
        let cost = ErrorMatrix::from_vec(1, vec![3]);
        assert_eq!(brute_force_total(&cost), 3);
    }

    #[test]
    fn two_by_two_picks_cheaper_diagonal() {
        // diag = 1+1 = 2, anti = 100+100.
        let cost = ErrorMatrix::from_vec(2, vec![1, 100, 100, 1]);
        assert_eq!(brute_force_total(&cost), 2);
        assert_eq!(solve_brute(&cost), [0, 1]);
        // anti cheaper now
        let cost = ErrorMatrix::from_vec(2, vec![100, 1, 1, 100]);
        assert_eq!(brute_force_total(&cost), 2);
        assert_eq!(solve_brute(&cost), [1, 0]);
    }

    #[test]
    fn four_by_four_known_optimum() {
        let cost = ErrorMatrix::from_vec(
            4,
            vec![
                9, 2, 7, 8, //
                6, 4, 3, 7, //
                5, 8, 1, 8, //
                7, 6, 9, 4,
            ],
        );
        // Known optimum: 2 + 6 + 1 + 4 = 13 (r0->c1, r1->c0, r2->c2, r3->c3).
        assert_eq!(brute_force_total(&cost), 13);
        assert_eq!(solve_brute(&cost), [1, 0, 2, 3]);
    }

    #[test]
    fn explores_all_permutations() {
        // A matrix where the unique optimum needs a non-trivial permutation.
        let cost = from_fn(5, |r, c| if (r + 2) % 5 == c { 0 } else { 10 });
        assert_eq!(brute_force_total(&cost), 0);
    }

    #[test]
    #[should_panic(expected = "capped")]
    fn oversized_instance_panics() {
        let cost = ErrorMatrix::zeros(MAX_BRUTE_N + 1);
        let _ = solve_brute(&cost);
    }
}
