//! §IV-A, Algorithm 1 — the serial approximation algorithm.
//!
//! Starting from the identity arrangement (input tile `u` at target
//! position `u`), repeatedly sweep all `S(S−1)/2` position pairs and swap
//! whenever doing so strictly reduces the total error
//! (`E(I_u,T_u) + E(I_v,T_v) > E(I_v,T_u) + E(I_u,T_v)`). Terminates when
//! a full sweep performs no swap; every swap strictly decreases the
//! integer total, so termination is guaranteed.

use mosaic_grid::{Deadline, DeadlineExceeded, ErrorMatrix};

/// Result of a Step-3 search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SearchOutcome {
    /// `assignment[v] = u`: input tile `u` placed at target position `v`.
    pub assignment: Vec<usize>,
    /// Final total error (Eq. 2).
    pub total: u64,
    /// Number of full sweeps executed, including the final all-reject
    /// sweep — the paper's `k`.
    pub sweeps: usize,
    /// Total number of swaps performed.
    pub swaps: usize,
}

/// Unwrap a bounded Step-3 result produced under [`Deadline::NONE`].
pub(crate) fn never_exceeded<T>(result: Result<T, DeadlineExceeded>) -> T {
    match result {
        Ok(value) => value,
        // lint:allow(panic) callers pass Deadline::NONE, which never expires
        Err(_) => unreachable!("unbounded deadline expired"),
    }
}

/// Run Algorithm 1 to convergence.
pub fn local_search(matrix: &ErrorMatrix) -> SearchOutcome {
    local_search_traced(matrix).0
}

/// [`local_search`] with cooperative cancellation: the deadline is polled
/// before every sweep, so overshoot past an expiry is at most one sweep.
///
/// # Errors
/// Returns [`DeadlineExceeded`] when `deadline` expires before the search
/// converges (including a deadline that was already expired on entry).
pub fn local_search_bounded(
    matrix: &ErrorMatrix,
    deadline: &Deadline,
) -> Result<SearchOutcome, DeadlineExceeded> {
    local_search_from_bounded(matrix, (0..matrix.size()).collect(), deadline)
        .map(|(outcome, _)| outcome)
}

/// Run Algorithm 1 from an explicit starting arrangement (the property
/// tests start it from random permutations).
///
/// # Panics
/// Panics when `assignment` is not a permutation of `0..S` (checked by
/// the matrix total computation via out-of-range access) or has the wrong
/// length.
pub fn local_search_from(matrix: &ErrorMatrix, assignment: Vec<usize>) -> SearchOutcome {
    never_exceeded(local_search_from_bounded(
        matrix,
        assignment,
        &Deadline::NONE,
    ))
    .0
}

/// A per-sweep convergence trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConvergenceTrace {
    /// Total error after each completed sweep (the last entry repeats the
    /// converged value: the final sweep performs no swap).
    pub totals: Vec<u64>,
    /// Swaps performed in each sweep.
    pub swaps_per_sweep: Vec<usize>,
}

/// Algorithm 1 with a per-sweep convergence trace; same result as
/// [`local_search`] plus the totals after every sweep, used by the
/// convergence analysis in EXPERIMENTS.md.
pub fn local_search_traced(matrix: &ErrorMatrix) -> (SearchOutcome, ConvergenceTrace) {
    never_exceeded(local_search_from_bounded(
        matrix,
        (0..matrix.size()).collect(),
        &Deadline::NONE,
    ))
}

/// The one Algorithm-1 sweep loop behind every entry point above.
fn local_search_from_bounded(
    matrix: &ErrorMatrix,
    mut assignment: Vec<usize>,
    deadline: &Deadline,
) -> Result<(SearchOutcome, ConvergenceTrace), DeadlineExceeded> {
    let s = matrix.size();
    assert_eq!(assignment.len(), s, "assignment length must equal S");
    let mut trace = ConvergenceTrace {
        totals: Vec::new(),
        swaps_per_sweep: Vec::new(),
    };
    let mut total = matrix.assignment_total(&assignment);
    loop {
        deadline.check()?;
        let _sweep = mosaic_telemetry::tracer().span("local_search_sweep");
        let mut sweep_swaps = 0usize;
        for p in 0..s {
            for q in (p + 1)..s {
                if matrix.swap_gain(&assignment, p, q) > 0 {
                    assignment.swap(p, q);
                    sweep_swaps += 1;
                }
            }
        }
        if sweep_swaps > 0 {
            total = matrix.assignment_total(&assignment);
        }
        trace.totals.push(total);
        trace.swaps_per_sweep.push(sweep_swaps);
        if sweep_swaps == 0 {
            break;
        }
    }
    let outcome = SearchOutcome {
        assignment,
        total,
        sweeps: trace.totals.len(),
        swaps: trace.swaps_per_sweep.iter().sum(),
    };
    Ok((outcome, trace))
}

/// True when no single swap can improve `assignment` — the local-search
/// fixed-point property (used by tests on both Algorithm 1 and 2 results).
pub fn is_swap_optimal(matrix: &ErrorMatrix, assignment: &[usize]) -> bool {
    let s = matrix.size();
    for p in 0..s {
        for q in (p + 1)..s {
            if matrix.swap_gain(assignment, p, q) > 0 {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix_from(n: usize, f: impl Fn(usize, usize) -> u32) -> ErrorMatrix {
        let mut data = Vec::with_capacity(n * n);
        for u in 0..n {
            for v in 0..n {
                data.push(f(u, v));
            }
        }
        ErrorMatrix::from_vec(n, data)
    }

    #[test]
    fn already_optimal_terminates_in_one_sweep() {
        // Zero diagonal: identity is globally optimal.
        let m = matrix_from(6, |u, v| if u == v { 0 } else { 50 });
        let out = local_search(&m);
        assert_eq!(out.total, 0);
        assert_eq!(out.sweeps, 1);
        assert_eq!(out.swaps, 0);
        assert_eq!(out.assignment, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn two_tiles_swap_when_beneficial() {
        // identity total = 10 + 10; swapped = 1 + 1.
        let m = ErrorMatrix::from_vec(2, vec![10, 1, 1, 10]);
        let out = local_search(&m);
        assert_eq!(out.assignment, vec![1, 0]);
        assert_eq!(out.total, 2);
        assert_eq!(out.swaps, 1);
        assert_eq!(out.sweeps, 2); // improving sweep + confirming sweep
    }

    #[test]
    fn result_is_swap_optimal() {
        let mut state = 5u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as u32
        };
        let m = matrix_from(20, |_, _| 0).clone();
        let _ = m;
        let data: Vec<u32> = (0..20 * 20).map(|_| next()).collect();
        let m = ErrorMatrix::from_vec(20, data);
        let out = local_search(&m);
        assert!(is_swap_optimal(&m, &out.assignment));
        assert_eq!(out.total, m.assignment_total(&out.assignment));
    }

    #[test]
    fn total_never_exceeds_identity_total() {
        let mut state = 77u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 500) as u32
        };
        let data: Vec<u32> = (0..30 * 30).map(|_| next()).collect();
        let m = ErrorMatrix::from_vec(30, data);
        let identity_total = m.assignment_total(&(0..30).collect::<Vec<_>>());
        let out = local_search(&m);
        assert!(out.total <= identity_total);
    }

    #[test]
    fn custom_start_is_respected() {
        let m = matrix_from(4, |u, v| if u == v { 0 } else { 9 });
        let out = local_search_from(&m, vec![3, 2, 1, 0]);
        // From the reversed start, the zero-diagonal optimum is reachable
        // by pairwise swaps.
        assert_eq!(out.total, 0);
        assert_eq!(out.assignment, vec![0, 1, 2, 3]);
        assert!(out.swaps >= 2);
    }

    #[test]
    fn single_tile_is_trivial() {
        let m = ErrorMatrix::from_vec(1, vec![42]);
        let out = local_search(&m);
        assert_eq!(out.assignment, vec![0]);
        assert_eq!(out.total, 42);
        assert_eq!(out.sweeps, 1);
    }

    #[test]
    fn traced_matches_untraced() {
        let mut state = 21u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 2_000) as u32
        };
        let data: Vec<u32> = (0..25 * 25).map(|_| next()).collect();
        let m = ErrorMatrix::from_vec(25, data);
        let plain = local_search(&m);
        let (traced, trace) = local_search_traced(&m);
        assert_eq!(plain, traced);
        assert_eq!(trace.totals.len(), plain.sweeps);
        assert_eq!(trace.swaps_per_sweep.iter().sum::<usize>(), plain.swaps);
        // Totals are non-increasing and end at the converged value.
        for w in trace.totals.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert_eq!(*trace.totals.last().unwrap(), plain.total);
        assert_eq!(*trace.swaps_per_sweep.last().unwrap(), 0);
    }

    #[test]
    fn is_swap_optimal_detects_improvable() {
        let m = ErrorMatrix::from_vec(2, vec![10, 1, 1, 10]);
        assert!(!is_swap_optimal(&m, &[0, 1]));
        assert!(is_swap_optimal(&m, &[1, 0]));
    }

    #[test]
    #[should_panic(expected = "length must equal")]
    fn wrong_start_length_panics() {
        let m = ErrorMatrix::from_vec(2, vec![0, 1, 1, 0]);
        let _ = local_search_from(&m, vec![0]);
    }

    #[test]
    fn bounded_with_live_deadline_matches_unbounded() {
        let m = ErrorMatrix::from_vec(2, vec![10, 1, 1, 10]);
        let deadline = Deadline::after(std::time::Duration::from_secs(3600));
        let bounded = local_search_bounded(&m, &deadline).unwrap();
        assert_eq!(bounded, local_search(&m));
    }

    #[test]
    fn bounded_with_expired_deadline_exits_before_any_sweep() {
        let m = ErrorMatrix::from_vec(2, vec![10, 1, 1, 10]);
        let expired = Deadline::after(std::time::Duration::ZERO);
        assert_eq!(local_search_bounded(&m, &expired), Err(DeadlineExceeded));
    }
}
