//! Jonker–Volgenant algorithm (LAPJV, 1987).
//!
//! The classical three-phase dense LAP solver:
//!
//! 1. **Column reduction** — set `v[j]` to the column minimum and match
//!    the minimizing row (lowest index on ties) while it is still free,
//!    columns right to left. The minima are gathered in one row-major
//!    pass over the matrix, so the reads are contiguous;
//! 2. **Reduction transfer + augmenting row reduction** — two sweeps over
//!    the free rows that either match them on a cheapest column (displacing
//!    the current owner) or tighten the column potentials;
//! 3. **Augmentation** — for each remaining free row, LAPJV's column-list
//!    Dijkstra over reduced costs. A permutation of the columns is split
//!    into READY (distance final), SCAN (at the current minimum distance,
//!    not yet scanned) and TODO. When SCAN is empty, one pass moves every
//!    TODO column at the new minimum into SCAN, and the search ends if one
//!    of them is unassigned. Scanning a column relaxes only the TODO
//!    columns; one that drops to the minimum joins SCAN, or ends the search
//!    at once if it is unassigned. The dual update `v[j] += d[j] − μ`
//!    touches only READY columns.
//!
//! Exact: returns the same optimum as [`crate::hungarian`] (tested against
//! it and the brute-force oracle), typically with far fewer augmentation
//! phases thanks to the cheap initialization — which is why the JV family
//! is the practical default for dense instances like the paper's S×S error
//! matrices.
//!
//! [`solve_jv_bounded`] polls a [`Deadline`] once per Phase-3 free row, the
//! solve's unit of work; the polls never change the assignment.

use mosaic_grid::{Deadline, DeadlineExceeded, ErrorMatrix};

const UNASSIGNED: usize = usize::MAX;

/// First and second minima of `cost[i][j] - v[j]` over all columns.
/// Returns `(u1, j1, u2, j2)`; `j2 == j1` only when `n == 1`.
fn two_minima(matrix: &ErrorMatrix, v: &[i64], i: usize) -> (i64, usize, i64, usize) {
    let row = matrix.row(i);
    let mut u1 = i64::MAX;
    let mut u2 = i64::MAX;
    let mut j1 = 0usize;
    let mut j2 = 0usize;
    for (j, &c) in row.iter().enumerate() {
        let r = i64::from(c) - v[j];
        if r < u1 {
            u2 = u1;
            j2 = j1;
            u1 = r;
            j1 = j;
        } else if r < u2 {
            u2 = r;
            j2 = j;
        }
    }
    if row.len() == 1 {
        u2 = u1;
        j2 = j1;
    }
    (u1, j1, u2, j2)
}

/// Solve `matrix` exactly, returning `assignment[v] = u`.
pub fn solve_jv(matrix: &ErrorMatrix) -> Vec<usize> {
    match solve_jv_bounded(matrix, &Deadline::NONE) {
        Ok(assignment) => assignment,
        // lint:allow(panic) Deadline::NONE never expires
        Err(DeadlineExceeded) => unreachable!("unbounded deadline expired"),
    }
}

/// [`solve_jv`] that polls `deadline` before each Phase-3 augmentation.
///
/// # Errors
/// Returns [`DeadlineExceeded`] when `deadline` expires before the last
/// free row is augmented.
// Index loops mirror the published LAPJV pseudo-code; iterator forms would
// obscure the correspondence.
#[allow(clippy::needless_range_loop)]
pub fn solve_jv_bounded(
    matrix: &ErrorMatrix,
    deadline: &Deadline,
) -> Result<Vec<usize>, DeadlineExceeded> {
    let n = matrix.size();
    let mut x = vec![UNASSIGNED; n]; // row -> col
    let mut y = vec![UNASSIGNED; n]; // col -> row
    let mut v = vec![i64::MAX; n];

    // Phase 1: column reduction. The column minima are gathered row by
    // row (contiguous reads); a strict `<` keeps the lowest row index on
    // ties. Columns are then matched right to left to their minimizing
    // row while that row is still free.
    let mut imin = vec![0usize; n];
    for i in 0..n {
        for (j, &c) in matrix.row(i).iter().enumerate() {
            let c = i64::from(c);
            if c < v[j] {
                v[j] = c;
                imin[j] = i;
            }
        }
    }
    for j in (0..n).rev() {
        let i = imin[j];
        if x[i] == UNASSIGNED {
            x[i] = j;
            y[j] = i;
        }
    }

    // Phase 1b: reduction transfer — for rows matched in phase 1, shift
    // slack from their matched column so later Dijkstra runs start tighter.
    for i in 0..n {
        let j1 = x[i];
        if j1 != UNASSIGNED && n > 1 {
            let mut min2 = i64::MAX;
            for j in 0..n {
                if j != j1 {
                    min2 = min2.min(i64::from(matrix.get(i, j)) - v[j]);
                }
            }
            v[j1] -= min2 - (i64::from(matrix.get(i, j1)) - v[j1]);
        }
    }

    let mut free: Vec<usize> = (0..n).filter(|&i| x[i] == UNASSIGNED).collect();

    // Phase 2: augmenting row reduction, two sweeps.
    for _sweep in 0..2 {
        let mut k = 0usize;
        let mut next_free: Vec<usize> = Vec::new();
        // Safety bound: each strict dual decrease is at least 1 for integer
        // costs, and total decrease is bounded; this cap only guards
        // against implementation bugs.
        let mut guard = 0usize;
        let guard_cap = 16 * n * n + 64;
        while k < free.len() {
            guard += 1;
            if guard > guard_cap {
                debug_assert!(false, "augmenting row reduction failed to converge");
                next_free.extend_from_slice(&free[k..]);
                break;
            }
            let i = free[k];
            k += 1;
            let (u1, mut j1, u2, j2) = two_minima(matrix, &v, i);
            let mut i0 = y[j1];
            if u1 < u2 {
                // Tighten j1 so its reduced cost matches the runner-up.
                v[j1] -= u2 - u1;
            } else if i0 != UNASSIGNED {
                // Tie and j1 taken: take the runner-up column instead.
                j1 = j2;
                i0 = y[j1];
            }
            x[i] = j1;
            y[j1] = i;
            if i0 != UNASSIGNED {
                x[i0] = UNASSIGNED;
                if u1 < u2 {
                    // Re-process the displaced row immediately.
                    k -= 1;
                    free[k] = i0;
                } else {
                    next_free.push(i0);
                }
            }
        }
        free = next_free;
        if free.is_empty() {
            break;
        }
    }

    // Phase 3: shortest augmenting path for each remaining free row.
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
    Ok(y)
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
        // Many identical entries exercise the tie branches of phase 2.
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
        let mut stopped = 0;
        for &n in &[8usize, 17, 40, 64] {
            let data: Vec<u32> = (0..n * n).map(|_| (next() % 3) as u32).collect();
            let cost = ErrorMatrix::from_vec(n, data);
            let unbounded = solve_jv(&cost);
            assert_eq!(solve_jv_bounded(&cost, &far), Ok(unbounded.clone()));
            // Only instances that reach Phase 3 poll the deadline at all.
            match solve_jv_bounded(&cost, &expired) {
                Err(DeadlineExceeded) => stopped += 1,
                Ok(assignment) => assert_eq!(assignment, unbounded, "n={n}"),
            }
        }
        assert!(stopped > 0, "no instance reached the Phase-3 poll");
    }
}
