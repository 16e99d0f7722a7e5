//! Bertsekas ε-scaling auction algorithm.
//!
//! Rows ("bidders") compete for columns ("objects") by raising prices.
//! The minimization instance is flipped to maximization of
//! `benefit = C_max − cost`, and all benefits are scaled by `n + 1` so
//! that running the final round with `ε = 1 < (n+1)/n` guarantees the
//! assignment is exactly optimal for integer costs (the classical
//! ε-complementary-slackness argument).
//!
//! Included as a third exact solver for the solver-ablation bench: the
//! auction's round count depends strongly on cost structure, which is
//! interesting to contrast with Hungarian/JV on the mosaic's error
//! matrices.

use mosaic_grid::ErrorMatrix;

const UNASSIGNED: usize = usize::MAX;

/// Auction solve of `matrix`, returning `assignment[v] = u`. ε shrinks
/// by `scaling_factor` (at least 2) between scaling phases.
// Index loops mirror the textbook auction pseudo-code.
#[allow(clippy::needless_range_loop)]
pub fn solve_auction(matrix: &ErrorMatrix, scaling_factor: i64) -> Vec<usize> {
    let n = matrix.size();
    if n == 1 {
        return vec![0];
    }
    let scaling_factor = scaling_factor.max(2);
    let scale = (n + 1) as i64;
    let c_max = i64::from(matrix.as_slice().iter().copied().max().unwrap_or(0));
    // benefit[i][j] = (C_max - cost[i][j]) * (n+1), all >= 0.
    let benefit = |i: usize, j: usize| -> i64 { (c_max - i64::from(matrix.get(i, j))) * scale };

    let mut price = vec![0i64; n];
    let mut col_to_row = vec![UNASSIGNED; n];

    // ε starts near the largest scaled benefit and shrinks to 1.
    let mut eps = (c_max * scale / 2).max(1);
    loop {
        // Restart the assignment each phase (standard ε-scaling keeps the
        // prices, discards the matching).
        col_to_row.iter_mut().for_each(|v| *v = UNASSIGNED);
        let mut free: Vec<usize> = (0..n).collect();

        while let Some(i) = free.pop() {
            // Best and second-best net value for bidder i.
            let mut best_j = 0usize;
            let mut best_v = i64::MIN;
            let mut second_v = i64::MIN;
            for j in 0..n {
                let v = benefit(i, j) - price[j];
                if v > best_v {
                    second_v = best_v;
                    best_v = v;
                    best_j = j;
                } else if v > second_v {
                    second_v = v;
                }
            }
            if second_v == i64::MIN {
                second_v = best_v;
            }
            // Raise the price by the bid increment.
            price[best_j] += best_v - second_v + eps;
            // Displace the current owner, if any.
            let prev = col_to_row[best_j];
            if prev != UNASSIGNED {
                free.push(prev);
            }
            col_to_row[best_j] = i;
        }

        if eps == 1 {
            break;
        }
        eps = (eps / scaling_factor).max(1);
    }

    debug_assert!(col_to_row.iter().all(|&r| r != UNASSIGNED));
    col_to_row
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::solve_brute;
    use crate::testutil::{checked_total, from_fn, optimal_total};

    fn total(cost: &ErrorMatrix, scaling_factor: i64) -> u64 {
        checked_total(cost, &solve_auction(cost, scaling_factor))
    }

    #[test]
    fn trivial_sizes() {
        let cost = ErrorMatrix::from_vec(1, vec![9]);
        assert_eq!(total(&cost, 4), 9);
        let cost = ErrorMatrix::from_vec(2, vec![1, 100, 100, 1]);
        assert_eq!(total(&cost, 4), 2);
    }

    #[test]
    fn textbook_three_by_three() {
        let cost = ErrorMatrix::from_vec(3, vec![4, 1, 3, 2, 0, 5, 3, 2, 2]);
        assert_eq!(total(&cost, 4), 5);
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        let mut state = 0xFEED_F00D_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in 2..=6 {
            for case in 0..15 {
                let data: Vec<u32> = (0..n * n).map(|_| (next() % 200) as u32).collect();
                let cost = ErrorMatrix::from_vec(n, data);
                let brute = cost.assignment_total(&solve_brute(&cost));
                assert_eq!(total(&cost, 4), brute, "n={n} case={case}");
            }
        }
    }

    #[test]
    fn matches_hungarian_on_medium_instances() {
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for &n in &[12usize, 25, 40] {
            let data: Vec<u32> = (0..n * n).map(|_| (next() % 5_000) as u32).collect();
            let cost = ErrorMatrix::from_vec(n, data);
            assert_eq!(total(&cost, 4), optimal_total(&cost), "n={n}");
        }
    }

    #[test]
    fn constant_matrix_terminates() {
        let cost = from_fn(10, |_, _| 77);
        assert_eq!(total(&cost, 4), 770);
    }

    #[test]
    fn all_zero_matrix_terminates() {
        let cost = from_fn(10, |_, _| 0);
        assert_eq!(total(&cost, 4), 0);
    }

    #[test]
    fn aggressive_scaling_factor_still_exact() {
        let mut state = 99u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let data: Vec<u32> = (0..20 * 20).map(|_| (next() % 1_000) as u32).collect();
        let cost = ErrorMatrix::from_vec(20, data);
        assert_eq!(total(&cost, 64), optimal_total(&cost));
    }
}
