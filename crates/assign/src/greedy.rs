//! Greedy matching baseline.
//!
//! Sorts all `n²` pairs by cost and accepts a pair when both its row and
//! column are still free. O(n² log n), not optimal — the quality baseline
//! the exact solvers are judged against in the solver-ablation bench, and
//! a stand-in for the "pick the closest library image per subimage"
//! strategy of classic database photomosaics (paper §I), restricted to a
//! bijection.

use mosaic_grid::ErrorMatrix;

const UNASSIGNED: usize = usize::MAX;

/// Greedy matching of `matrix`, returning `assignment[v] = u`.
///
/// Ties are broken by `(u, v)` order, so the result is deterministic.
pub fn solve_greedy(matrix: &ErrorMatrix) -> Vec<usize> {
    let n = matrix.size();
    let mut pairs: Vec<(u32, usize, usize)> = Vec::with_capacity(n * n);
    for u in 0..n {
        for (v, &value) in matrix.row(u).iter().enumerate() {
            pairs.push((value, u, v));
        }
    }
    pairs.sort_unstable();

    let mut assignment = vec![UNASSIGNED; n];
    let mut tile_taken = vec![false; n];
    let mut matched = 0usize;
    for (_, u, v) in pairs {
        if !tile_taken[u] && assignment[v] == UNASSIGNED {
            assignment[v] = u;
            tile_taken[u] = true;
            matched += 1;
            if matched == n {
                break;
            }
        }
    }
    debug_assert_eq!(matched, n, "greedy over all pairs always completes");
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{checked_total, from_fn, optimal_total};
    use mosaic_grid::assemble::is_permutation;

    fn total(cost: &ErrorMatrix) -> u64 {
        checked_total(cost, &solve_greedy(cost))
    }

    #[test]
    fn greedy_is_a_permutation() {
        let cost = from_fn(8, |r, c| ((r * 13 + c * 7) % 19) as u32);
        assert!(is_permutation(&solve_greedy(&cost), 8));
    }

    #[test]
    fn greedy_finds_trivial_optimum() {
        let cost = from_fn(5, |r, c| if r == c { 0 } else { 10 });
        assert_eq!(total(&cost), 0);
    }

    #[test]
    fn greedy_is_suboptimal_on_adversarial_instance() {
        // Taking the globally cheapest edge (0,0)=0 forces cost 100 later:
        // greedy total = 0 + 100, optimal = 1 + 2.
        let cost = ErrorMatrix::from_vec(2, vec![0, 1, 2, 100]);
        assert_eq!(total(&cost), 100);
        assert_eq!(optimal_total(&cost), 3);
    }

    #[test]
    fn greedy_never_beats_optimal() {
        let mut state = 0xACE_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for &n in &[5usize, 12, 30] {
            let data: Vec<u32> = (0..n * n).map(|_| (next() % 1_000) as u32).collect();
            let cost = ErrorMatrix::from_vec(n, data);
            let g = total(&cost);
            let opt = optimal_total(&cost);
            assert!(g >= opt, "greedy {g} < optimal {opt}?!");
        }
    }

    #[test]
    fn deterministic_under_ties() {
        let cost = from_fn(6, |_, _| 3);
        let a = solve_greedy(&cost);
        let b = solve_greedy(&cost);
        assert_eq!(a, b);
        // Tie-break by (u, v): identity assignment.
        assert_eq!(a, vec![0, 1, 2, 3, 4, 5]);
    }
}
