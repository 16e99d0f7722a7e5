//! Kuhn–Munkres (Hungarian) algorithm, O(n³).
//!
//! The paper's refs [11][12]. This is the potential-based successive
//! shortest augmenting path formulation: for each row we grow an
//! alternating tree over columns, maintaining dual potentials `u`, `v` so
//! reduced costs stay non-negative, and augment along the shortest path to
//! a free column. Each of the `n` phases costs O(n²), giving O(n³) total —
//! the complexity the paper quotes for Kuhn–Munkres.

use mosaic_grid::ErrorMatrix;

/// Solve `matrix` exactly, returning `assignment[v] = u`.
///
/// Internally 1-based with index 0 as the sentinel "virtual" column/row,
/// the classical formulation of the shortest-augmenting-path Hungarian
/// algorithm.
pub fn solve_hungarian(matrix: &ErrorMatrix) -> Vec<usize> {
    let n = matrix.size();
    const INF: i64 = i64::MAX / 4;

    // Potentials for rows (u) and columns (v); p[j] = row matched to
    // column j (0 = unmatched sentinel); way[j] = previous column on the
    // alternating path.
    let mut u = vec![0i64; n + 1];
    let mut v = vec![0i64; n + 1];
    let mut p = vec![0usize; n + 1];
    let mut way = vec![0usize; n + 1];

    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![INF; n + 1];
        let mut used = vec![false; n + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = INF;
            let mut j1 = 0usize;
            let row = matrix.row(i0 - 1);
            for j in 1..=n {
                if !used[j] {
                    let cur = i64::from(row[j - 1]) - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
            }
            debug_assert!(delta < INF, "augmenting path must exist on complete graphs");
            for j in 0..=n {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        // Augment: walk back along `way`, shifting matches.
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    // p[j] is column j's row, which is the assignment shifted by the
    // sentinel.
    debug_assert!(
        p[1..].iter().all(|&i| i != 0),
        "every column must be matched"
    );
    p[1..].iter().map(|&i| i - 1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::solve_brute;
    use crate::testutil::{checked_total, from_fn};

    fn total(cost: &ErrorMatrix) -> u64 {
        checked_total(cost, &solve_hungarian(cost))
    }

    #[test]
    fn trivial_one_by_one() {
        let cost = ErrorMatrix::from_vec(1, vec![7]);
        assert_eq!(solve_hungarian(&cost), [0]);
    }

    #[test]
    fn textbook_three_by_three() {
        // Classic example: optimal total is 5 (0->1 (1), 1->0 (2), 2->2 (2)).
        let cost = ErrorMatrix::from_vec(3, vec![4, 1, 3, 2, 0, 5, 3, 2, 2]);
        assert_eq!(total(&cost), 5);
    }

    #[test]
    fn identity_diagonal_of_zeros() {
        let cost = from_fn(5, |r, c| if r == c { 0 } else { 100 });
        assert_eq!(total(&cost), 0);
        assert_eq!(solve_hungarian(&cost), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn anti_diagonal_optimum() {
        let cost = from_fn(4, |r, c| if r + c == 3 { 1 } else { 50 });
        assert_eq!(total(&cost), 4);
        assert_eq!(solve_hungarian(&cost), [3, 2, 1, 0]);
    }

    #[test]
    fn constant_matrix_any_permutation_is_optimal() {
        let cost = from_fn(6, |_, _| 9);
        assert_eq!(total(&cost), 6 * 9);
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in 2..=7 {
            for _ in 0..20 {
                let data: Vec<u32> = (0..n * n).map(|_| (next() % 1000) as u32).collect();
                let cost = ErrorMatrix::from_vec(n, data);
                let brute = cost.assignment_total(&solve_brute(&cost));
                assert_eq!(total(&cost), brute, "n={n}");
            }
        }
    }

    #[test]
    fn handles_large_entries_without_overflow() {
        let cost = from_fn(4, |r, c| if r == c { u32::MAX - 10 } else { u32::MAX });
        assert_eq!(total(&cost), 4 * (u64::from(u32::MAX) - 10));
    }
}
