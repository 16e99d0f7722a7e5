//! Simulated-annealing variant of the local search (DESIGN.md §7
//! extension).
//!
//! Algorithm 1 is a pure descent: it only accepts strictly improving
//! swaps, so it stops at the first swap-local optimum. This variant runs a
//! configurable number of annealing sweeps — accepting worsening swaps
//! with probability `exp(−Δ/T)` under a geometric cooling schedule — and
//! then polishes with plain descent so the result is still swap-optimal.
//! The schedule-ablation bench uses it to quantify how far Algorithm 1's
//! local optima sit from what extra search effort can reach.

use crate::local_search::{local_search_from_bounded, SearchOutcome};
use mosaic_grid::{Deadline, DeadlineExceeded, ErrorMatrix};

/// Deterministic xorshift64* PRNG (same construction as
/// `mosaic_image::synth::XorShift64`, duplicated to keep this crate's
/// dependency surface unchanged).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        })
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    #[inline]
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    #[inline]
    fn below(&mut self, bound: usize) -> usize {
        ((self.next_u64() as u128 * bound as u128) >> 64) as usize
    }
}

/// Run `sweeps` annealing sweeps (each proposing `S(S−1)/2` random swaps)
/// followed by a descent polish. `sweeps == 0` degenerates to plain
/// Algorithm 1.
///
/// The deadline is polled before every annealing sweep and every polish
/// sweep, so overshoot past an expiry is at most one sweep.
///
/// # Errors
/// Returns [`DeadlineExceeded`] when `deadline` expires before the polish
/// converges (including a deadline that was already expired on entry).
pub fn anneal_search(
    matrix: &ErrorMatrix,
    seed: u64,
    sweeps: usize,
    deadline: &Deadline,
) -> Result<SearchOutcome, DeadlineExceeded> {
    let s = matrix.size();
    let mut assignment: Vec<usize> = (0..s).collect();
    if s >= 2 && sweeps > 0 {
        let mut rng = Rng::new(seed);
        // Initial temperature: the mean matrix entry, a scale on which
        // typical Δ values live.
        let mean_entry =
            matrix.as_slice().iter().map(|&v| u64::from(v)).sum::<u64>() as f64 / (s * s) as f64;
        let mut temperature = mean_entry.max(1.0);
        let proposals_per_sweep = s * (s - 1) / 2;
        for _ in 0..sweeps {
            deadline.check()?;
            for _ in 0..proposals_per_sweep {
                let p = rng.below(s);
                let mut q = rng.below(s - 1);
                if q >= p {
                    q += 1;
                }
                let gain = matrix.swap_gain(&assignment, p, q);
                let accept = if gain > 0 {
                    true
                } else {
                    let delta = (-gain) as f64;
                    rng.next_f64() < (-delta / temperature).exp()
                };
                if accept {
                    assignment.swap(p, q);
                }
            }
            temperature *= 0.8;
        }
    }
    let mut polished = local_search_from_bounded(matrix, assignment, deadline)?;
    polished.sweeps = polished.sweeps.saturating_add(sweeps);
    Ok(polished)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local_search::{is_swap_optimal, local_search};
    use mosaic_assign::SolverKind;
    use std::time::Duration;

    fn unbounded(matrix: &ErrorMatrix, seed: u64, sweeps: usize) -> SearchOutcome {
        anneal_search(matrix, seed, sweeps, &Deadline::NONE).unwrap()
    }

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
    fn zero_sweeps_equals_plain_descent() {
        let m = random_matrix(16, 3, 1000);
        assert_eq!(unbounded(&m, 1, 0), local_search(&m));
    }

    #[test]
    fn result_is_swap_optimal() {
        let m = random_matrix(20, 9, 1000);
        let out = unbounded(&m, 42, 5);
        assert!(is_swap_optimal(&m, &out.assignment));
        assert_eq!(out.total, m.assignment_total(&out.assignment));
    }

    #[test]
    fn deterministic_per_seed() {
        let m = random_matrix(12, 5, 500);
        assert_eq!(unbounded(&m, 7, 3), unbounded(&m, 7, 3));
    }

    #[test]
    fn never_worse_than_optimal_bound() {
        let m = random_matrix(18, 1, 2000);
        let opt = crate::optimal::optimal_rearrangement(&m, SolverKind::Hungarian);
        let out = unbounded(&m, 11, 6);
        assert!(out.total >= opt.total);
    }

    #[test]
    fn single_tile_degenerate() {
        let m = ErrorMatrix::from_vec(1, vec![5]);
        let out = unbounded(&m, 3, 10);
        assert_eq!(out.assignment, vec![0]);
        assert_eq!(out.total, 5);
    }

    #[test]
    fn expired_deadline_stops_before_the_first_sweep() {
        let m = random_matrix(16, 3, 1000);
        let expired = Deadline::after(Duration::ZERO);
        assert!(anneal_search(&m, 1, usize::MAX, &expired).is_err());
        assert!(anneal_search(&m, 1, 0, &expired).is_err());
    }
}
