//! Bertsekas ε-scaling auction algorithm (*Annals of OR* 14, 1988), in
//! min-cost form.
//!
//! Rows ("bidders") compete for columns ("objects") by raising prices.
//! A free row bids for the column that minimises `c·(S+1) + price` and
//! raises that column's price by the gap to the runner-up plus ε,
//! displacing the column's owner. Costs are scaled by `S + 1` so that a
//! phase run with `ε = 1 < (S+1)/S` ends exactly optimal for integer
//! costs (the classical ε-complementary-slackness argument). ε starts at
//! half the largest scaled cost and shrinks by a scaling factor per
//! phase; each phase keeps the prices and restarts the matching.
//!
//! `auction_phases` is that phase loop, with two callers:
//! [`solve_auction`] runs it to ε = 1 and is a test oracle and bench
//! arm, while [`crate::jv`] stops it at ε ≤ 8 cost units and hands its
//! prices to the shortest-path phase as column duals. Both rely on
//! `price_bound` to keep every scaled quantity inside `i64`.

use mosaic_grid::{Deadline, DeadlineExceeded, ErrorMatrix};

const UNASSIGNED: usize = usize::MAX;

/// Prices and matching after the last phase of [`auction_phases`].
pub(crate) struct Auction {
    /// `price[j]` of column `j`, in scaled units, at least 0.
    pub price: Vec<i64>,
    /// `owner[j]`: the row matched to column `j`; a permutation.
    pub owner: Vec<usize>,
}

/// A bound on every scaled quantity the auction reaches on an `n × n`
/// matrix whose largest entry is `c_max` (prices, bid values
/// `c·(n+1) + price` and increments), or `None` when it does not fit in
/// `i64`.
///
/// With `C = c_max·(n+1)`, every phase starts with its smallest price
/// shifted to 0, and a bid leaves its column at most `C + ε` above the
/// cheapest other column, so no price exceeds `3(C + ε₀) ≤ 4.5·C` and no
/// bid value `5.5·C`. The bound is `8·C` (with `c_max` counted as at
/// least 1). It fails only for `n ≥ 2²⁸`, a matrix far beyond memory.
pub(crate) fn price_bound(c_max: u32, n: usize) -> Option<i64> {
    let scale = i64::try_from(n).ok()?.checked_add(1)?;
    i64::from(c_max.max(1)).checked_mul(scale)?.checked_mul(8)
}

/// Run ε-scaling phases on `matrix` (ε shrinking by `scaling_factor`,
/// at least 2) through the first phase whose ε is at most `final_eps`
/// scaled units. `deadline` is polled at the start of each phase and
/// once every `S` bids within one. Returns `Ok(None)` when
/// [`price_bound`] fails.
///
/// # Errors
/// Returns [`DeadlineExceeded`] when `deadline` expires before the last
/// phase ends.
pub(crate) fn auction_phases(
    matrix: &ErrorMatrix,
    scaling_factor: i64,
    final_eps: i64,
    deadline: &Deadline,
) -> Result<Option<Auction>, DeadlineExceeded> {
    let n = matrix.size();
    let c_max = matrix.as_slice().iter().copied().max().unwrap_or(0);
    if price_bound(c_max, n).is_none() {
        return Ok(None);
    }
    let scale = (n + 1) as i64;
    let scaling_factor = scaling_factor.max(2);
    let mut price = vec![0i64; n];
    let mut owner = vec![UNASSIGNED; n];
    let mut eps = (i64::from(c_max) * scale / 2).max(1);
    loop {
        deadline.check()?;
        // Shifting every price by one amount changes no bid.
        let floor = price.iter().copied().min().unwrap_or(0);
        price.iter_mut().for_each(|p| *p -= floor);
        owner.fill(UNASSIGNED);
        let mut free: Vec<usize> = (0..n).collect();
        let mut bids = 0usize;
        while let Some(i) = free.pop() {
            bids += 1;
            if bids.is_multiple_of(n) {
                deadline.check()?;
            }
            // Best and second-best bid values of row i.
            let (mut j1, mut w1, mut w2) = (0usize, i64::MAX, i64::MAX);
            for (j, (&c, &p)) in matrix.row(i).iter().zip(&price).enumerate() {
                let w = i64::from(c) * scale + p;
                if w < w1 {
                    w2 = w1;
                    w1 = w;
                    j1 = j;
                } else if w < w2 {
                    w2 = w;
                }
            }
            if n == 1 {
                w2 = w1;
            }
            price[j1] += w2 - w1 + eps;
            let prev = std::mem::replace(&mut owner[j1], i);
            if prev != UNASSIGNED {
                free.push(prev);
            }
        }
        if eps <= final_eps {
            break;
        }
        eps = (eps / scaling_factor).max(1);
    }
    Ok(Some(Auction { price, owner }))
}

/// Auction solve of `matrix`, returning `assignment[v] = u`. ε shrinks
/// by `scaling_factor` (at least 2) between scaling phases.
///
/// # Panics
/// Panics when the auction's prices could overflow `i64`, which needs
/// `S ≥ 2²⁸`.
pub fn solve_auction(matrix: &ErrorMatrix, scaling_factor: i64) -> Vec<usize> {
    match auction_phases(matrix, scaling_factor, 1, &Deadline::NONE) {
        Ok(Some(auction)) => auction.owner,
        // lint:allow(panic) no S × S matrix with S ≥ 2^28 fits in memory
        Ok(None) => panic!("auction prices overflow i64 at S = {}", matrix.size()),
        // lint:allow(panic) Deadline::NONE never expires
        Err(DeadlineExceeded) => unreachable!("unbounded deadline expired"),
    }
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
    fn price_bound_holds_exactly_up_to_its_boundary() {
        // 8 · u32::MAX · 2^28 = 2^63 − 2^31 fits; one more row of scale
        // overflows.
        let last = (1usize << 28) - 1;
        assert_eq!(
            price_bound(u32::MAX, last),
            Some((8 * i64::from(u32::MAX)) << 28)
        );
        assert_eq!(price_bound(u32::MAX, last + 1), None);
        assert_eq!(price_bound(0, 3), Some(32));
        assert_eq!(price_bound(1, usize::MAX), None);
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
