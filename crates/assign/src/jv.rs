//! Jonker–Volgenant algorithm (LAPJV, 1987) seeded by an ε-scaling
//! auction.
//!
//! Two phases:
//!
//! 1. **Auction prefix**, in place of LAPJV's column reduction and
//!    augmenting row reduction: Bertsekas's ε-scaling auction
//!    ([`crate::auction`], factor 4) on `c·(S+1) + price`, stopped after
//!    the first phase with ε ≤ 8 cost units. Its prices become the column
//!    duals `v[j] = −⌊price[j]/(S+1)⌋`. Of its matches only those tight
//!    against their row minimum of `c − v` are kept, and every other row
//!    is left free. The kept matches have zero reduced cost, so the duals
//!    are feasible for the augmentation by construction. When the
//!    auction's prices could overflow `i64`, the prefix is skipped and
//!    every row is free, which is still exact;
//! 2. **Augmentation** (LAPJV's Phase 3) — for each free row, LAPJV's
//!    column-list Dijkstra over reduced costs. A permutation of the
//!    columns is split into READY (distance final), SCAN (at the current
//!    minimum distance, not yet scanned) and TODO. When SCAN is empty, one
//!    pass moves every TODO column at the new minimum into SCAN, and the
//!    search ends if one of them is unassigned. Scanning a column relaxes
//!    only the TODO columns; one that drops to the minimum joins SCAN, or
//!    ends the search at once if it is unassigned. The dual update
//!    `v[j] += d[j] − μ` touches only READY columns.
//!
//! Exact: returns the same optimum as [`crate::hungarian`] (tested against
//! it and the brute-force oracle); assignments may differ from other
//! solvers' only where optima tie. The auction's prices leave short
//! augmenting paths even where many rows stay free, which is why this is
//! the practical default for dense instances like the paper's S×S error
//! matrices.
//!
//! [`solve_jv_bounded`] polls a [`Deadline`] at each auction phase, once
//! every `S` bids within a phase, and before each free-row augmentation;
//! the polls never change the assignment.

use crate::auction::{auction_phases, Auction};
use mosaic_grid::{Deadline, DeadlineExceeded, ErrorMatrix};

const UNASSIGNED: usize = usize::MAX;

/// The auction prefix stops after the first phase with ε at most this
/// many cost units.
const PREFIX_EPS_UNITS: i64 = 8;

/// Solve `matrix` exactly, returning `assignment[v] = u`.
pub fn solve_jv(matrix: &ErrorMatrix) -> Vec<usize> {
    match solve_jv_bounded(matrix, &Deadline::NONE) {
        Ok(assignment) => assignment,
        // lint:allow(panic) Deadline::NONE never expires
        Err(DeadlineExceeded) => unreachable!("unbounded deadline expired"),
    }
}

/// Whether `(i, j)` has zero reduced cost: `c[i][j] − v[j]` is the
/// minimum of row `i`.
fn is_tight(matrix: &ErrorMatrix, v: &[i64], i: usize, j: usize) -> bool {
    let row = matrix.row(i);
    let min = row.iter().zip(v).map(|(&c, &vj)| i64::from(c) - vj).min();
    min == Some(i64::from(row[j]) - v[j])
}

/// [`solve_jv`] that polls `deadline` during the auction prefix and
/// before each augmentation.
///
/// # Errors
/// Returns [`DeadlineExceeded`] when `deadline` expires before the last
/// free row is augmented.
pub fn solve_jv_bounded(
    matrix: &ErrorMatrix,
    deadline: &Deadline,
) -> Result<Vec<usize>, DeadlineExceeded> {
    let scale = (matrix.size() + 1) as i64;
    let final_eps = PREFIX_EPS_UNITS.saturating_mul(scale);
    let auction = auction_phases(matrix, 4, final_eps, deadline)?;
    let (mut x, mut y, mut v) = keep_tight_matches(matrix, auction.as_ref(), scale);
    augment(matrix, &mut x, &mut y, &mut v, deadline)?;
    Ok(y)
}

/// The augmentation's starting state from the auction prefix: column
/// duals `v[j] = −⌊price[j]/scale⌋` and, of the auction's matches, only
/// those tight against their row minimum of `c − v`, so the
/// augmentation's reduced costs start non-negative on every matched edge.
/// Returns `(x, y, v)` with `x` row → column and `y` its inverse; without
/// an auction every row is free and `v = 0`.
fn keep_tight_matches(
    matrix: &ErrorMatrix,
    auction: Option<&Auction>,
    scale: i64,
) -> (Vec<usize>, Vec<usize>, Vec<i64>) {
    let n = matrix.size();
    let mut x = vec![UNASSIGNED; n];
    let mut y = vec![UNASSIGNED; n];
    let mut v = vec![0i64; n];
    if let Some(auction) = auction {
        for (vj, &p) in v.iter_mut().zip(&auction.price) {
            *vj = -(p / scale);
        }
        for (j, &i) in auction.owner.iter().enumerate() {
            if is_tight(matrix, &v, i, j) {
                x[i] = j;
                y[j] = i;
            }
        }
    }
    (x, y, v)
}

/// LAPJV's augmentation: a shortest augmenting path for each row that
/// `x` (row → column, inverse `y`) leaves free, starting from column
/// duals `v` under which every matched edge is tight at its row minimum.
/// Polls `deadline` before each free row.
// Index loops mirror the published LAPJV pseudo-code; iterator forms would
// obscure the correspondence.
#[allow(clippy::needless_range_loop)]
fn augment(
    matrix: &ErrorMatrix,
    x: &mut [usize],
    y: &mut [usize],
    v: &mut [i64],
    deadline: &Deadline,
) -> Result<(), DeadlineExceeded> {
    let n = matrix.size();
    debug_assert!(
        (0..n).all(|i| x[i] == UNASSIGNED || is_tight(matrix, v, i, x[i])),
        "a matched edge has a positive reduced cost"
    );
    let free: Vec<usize> = (0..n).filter(|&i| x[i] == UNASSIGNED).collect();
    // `cols` is a permutation of the columns split into READY `[..lo]`
    // (scanned, distance final), SCAN `[lo..hi]` (distance == the current
    // minimum `mu`, not yet scanned) and TODO `[hi..]`. A swap into SCAN
    // only ever moves a TODO column that this pass has already visited.
    let mut d = vec![0i64; n];
    let mut pred = vec![0usize; n];
    let mut cols: Vec<usize> = (0..n).collect();
    for &f in &free {
        deadline.check()?;
        let row = matrix.row(f);
        for j in 0..n {
            d[j] = i64::from(row[j]) - v[j];
            pred[j] = f;
        }
        let (mut lo, mut hi) = (0usize, 0usize);
        let mut mu = 0i64;
        let end_j = 'search: loop {
            if lo == hi {
                // SCAN is empty: move every TODO column at the new minimum
                // into SCAN in one pass.
                mu = d[cols[lo]];
                hi = lo + 1;
                for k in lo + 1..n {
                    let j = cols[k];
                    let h = d[j];
                    if h <= mu {
                        if h < mu {
                            hi = lo;
                            mu = h;
                        }
                        cols.swap(k, hi);
                        hi += 1;
                    }
                }
                if let Some(&j) = cols[lo..hi].iter().find(|&&j| y[j] == UNASSIGNED) {
                    break 'search j;
                }
            }
            // Scan one SCAN column: relax the TODO columns through its row.
            let j1 = cols[lo];
            lo += 1;
            let i = y[j1];
            // Implicit row dual of i at this point in the search.
            let u1 = i64::from(matrix.get(i, j1)) - v[j1] - mu;
            let row = matrix.row(i);
            let first_todo = hi;
            for k in first_todo..n {
                let j = cols[k];
                let h = i64::from(row[j]) - v[j] - u1;
                if h < d[j] {
                    pred[j] = i;
                    d[j] = h;
                    if h == mu {
                        if y[j] == UNASSIGNED {
                            break 'search j;
                        }
                        cols.swap(k, hi);
                        hi += 1;
                    }
                }
            }
        };
        // Dual update on READY columns (SCAN columns have d == mu, so
        // theirs would be zero).
        for &j in &cols[..lo] {
            v[j] += d[j] - mu;
        }
        // Augment along the predecessor chain.
        let mut j = end_j;
        loop {
            let i = pred[j];
            y[j] = i;
            let next = x[i];
            x[i] = j;
            if i == f {
                break;
            }
            j = next;
        }
    }

    debug_assert!(y.iter().all(|&i| i != UNASSIGNED));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::solve_brute;
    use crate::testutil::{checked_total, from_fn, optimal_total};

    fn total(cost: &ErrorMatrix) -> u64 {
        checked_total(cost, &solve_jv(cost))
    }

    #[test]
    fn trivial_sizes() {
        let cost = ErrorMatrix::from_vec(1, vec![5]);
        assert_eq!(total(&cost), 5);
        let cost = ErrorMatrix::from_vec(2, vec![1, 100, 100, 1]);
        assert_eq!(total(&cost), 2);
    }

    #[test]
    fn textbook_three_by_three() {
        let cost = ErrorMatrix::from_vec(3, vec![4, 1, 3, 2, 0, 5, 3, 2, 2]);
        assert_eq!(total(&cost), 5);
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        let mut state = 0xDEAD_BEEF_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in 2..=7 {
            for case in 0..30 {
                let data: Vec<u32> = (0..n * n).map(|_| (next() % 500) as u32).collect();
                let cost = ErrorMatrix::from_vec(n, data);
                let brute = cost.assignment_total(&solve_brute(&cost));
                assert_eq!(total(&cost), brute, "n={n} case={case}");
            }
        }
    }

    #[test]
    fn matches_hungarian_on_larger_instances() {
        let mut state = 0x0BAD_CAFE_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for &n in &[16usize, 33, 64, 100] {
            let data: Vec<u32> = (0..n * n).map(|_| (next() % 100_000) as u32).collect();
            let cost = ErrorMatrix::from_vec(n, data);
            assert_eq!(total(&cost), optimal_total(&cost), "n={n}");
        }
    }

    #[test]
    fn heavy_ties_are_handled() {
        // Many identical entries: tied bids in the auction prefix and tied
        // scan lists in the augmentation.
        let mut state = 7u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for &n in &[8usize, 17, 40] {
            let data: Vec<u32> = (0..n * n).map(|_| (next() % 3) as u32).collect();
            let cost = ErrorMatrix::from_vec(n, data);
            assert_eq!(total(&cost), optimal_total(&cost), "n={n}");
        }
    }

    #[test]
    fn all_zero_matrix() {
        let cost = from_fn(12, |_, _| 0);
        assert_eq!(total(&cost), 0);
    }

    #[test]
    fn constant_matrix() {
        let cost = from_fn(9, |_, _| 42);
        assert_eq!(total(&cost), 9 * 42);
    }

    #[test]
    fn permutation_matrix_of_zeros() {
        let cost = from_fn(15, |r, c| if (r * 4 + 3) % 15 == c { 0 } else { 777 });
        assert_eq!(total(&cost), 0);
    }

    #[test]
    fn large_entries_do_not_overflow() {
        let cost = from_fn(8, |r, c| {
            if (r + c) % 2 == 0 {
                u32::MAX
            } else {
                u32::MAX - 1
            }
        });
        assert_eq!(total(&cost), optimal_total(&cost));
    }

    #[test]
    fn deadline_polls_stop_the_solve_without_changing_its_answer() {
        let mut state = 11u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let far = Deadline::after(std::time::Duration::from_secs(3600));
        let expired = Deadline::after(std::time::Duration::ZERO);
        for &n in &[2usize, 8, 17, 40, 64] {
            let data: Vec<u32> = (0..n * n).map(|_| (next() % 3) as u32).collect();
            let cost = ErrorMatrix::from_vec(n, data);
            assert_eq!(solve_jv_bounded(&cost, &far), Ok(solve_jv(&cost)), "n={n}");
            // The auction prefix polls before its first phase.
            assert_eq!(
                solve_jv_bounded(&cost, &expired),
                Err(DeadlineExceeded),
                "n={n}"
            );
        }
    }

    /// The augmentation alone, from every row free and `v = 0`: what
    /// runs when the auction's prices could overflow `i64`.
    fn augment_from_scratch(cost: &ErrorMatrix) -> Vec<usize> {
        let (mut x, mut y, mut v) = keep_tight_matches(cost, None, 1);
        assert_eq!(
            augment(cost, &mut x, &mut y, &mut v, &Deadline::NONE),
            Ok(())
        );
        y
    }

    #[test]
    fn augmentation_without_the_prefix_is_exact() {
        let mut state = 0x5CA1_AB1E_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for &(n, max) in &[(1usize, 9u64), (2, 9), (7, 500), (40, 3), (64, 100_000)] {
            let data: Vec<u32> = (0..n * n).map(|_| (next() % max) as u32).collect();
            let cost = ErrorMatrix::from_vec(n, data);
            let assignment = augment_from_scratch(&cost);
            assert_eq!(
                checked_total(&cost, &assignment),
                optimal_total(&cost),
                "n={n}"
            );
        }
        let extreme = from_fn(8, |r, c| u32::MAX - ((r + c) % 2) as u32);
        let assignment = augment_from_scratch(&extreme);
        assert_eq!(
            checked_total(&extreme, &assignment),
            optimal_total(&extreme)
        );
    }
}
