//! Dense linear-assignment solvers.
//!
//! §III of the paper reduces tile rearrangement to minimum-weight perfect
//! matching on the complete bipartite graph K_{S,S} and solves it with
//! Blossom V. Blossom V's generality (non-bipartite graphs) buys nothing on
//! bipartite instances — every exact assignment solver returns the same
//! optimal total — so this crate provides the canonical exact solvers the
//! paper cites plus baselines (see DESIGN.md §2 for the substitution note):
//!
//! * [`hungarian`] — Kuhn–Munkres via successive shortest augmenting paths
//!   with potentials, O(S³) (the paper's refs [11][12]);
//! * [`jv`] — Jonker–Volgenant (LAPJV) shortest-path augmentation, seeded
//!   by an ε-scaling auction prefix; same optimum, faster in practice. The
//!   one solver that serves jobs: [`jv::solve_jv_bounded`] polls a job
//!   [`mosaic_grid::Deadline`] at each auction phase, every `S` bids and
//!   before every augmentation. The other exact solvers are its test
//!   oracles and bench comparisons;
//! * [`auction`] — Bertsekas ε-scaling auction; exact for integer costs
//!   once ε < 1/n (achieved by scaling costs by n+1). Its phase loop is
//!   also JV's prefix;
//! * [`greedy`] — global greedy matching, the quality baseline;
//! * [`brute`] — O(n·n!) exhaustive search, the test oracle for small n;
//! * [`sparse`] — exact rectangular matching over pruned candidate lists,
//!   the tile-library solve (`S` cells drawn from `T ≥ S` library tiles);
//! * [`blossom`] — Edmonds' blossom algorithm for **general** graphs, the
//!   algorithm family the paper actually ran (Blossom V); used here both
//!   directly and through the paper's 2S-vertex bipartite embedding.
//!
//! Every dense solver reads the Step-2 [`mosaic_grid::ErrorMatrix`] as
//! the weight matrix of K_{S,S} and returns the pipeline's permutation
//! `assignment[v] = u` (input tile `u` at target position `v`), so
//! [`mosaic_grid::ErrorMatrix::assignment_total`] is its total and
//! [`mosaic_grid::assemble::is_permutation`] its validator.
//!
//! # Example
//!
//! ```
//! use mosaic_assign::{solve_hungarian, solve_jv};
//! use mosaic_grid::ErrorMatrix;
//!
//! // Cheapest on the anti-diagonal.
//! let m = ErrorMatrix::from_vec(3, vec![10, 10, 1, 10, 1, 10, 1, 10, 10]);
//! let assignment = solve_hungarian(&m);
//! assert_eq!(assignment, [2, 1, 0]);
//! assert_eq!(m.assignment_total(&assignment), 3);
//! // Every exact solver returns the same optimum.
//! assert_eq!(m.assignment_total(&solve_jv(&m)), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auction;
pub mod blossom;
pub mod brute;
pub mod greedy;
pub mod hungarian;
pub mod jv;
pub mod solver;
pub mod sparse;

pub use hungarian::solve_hungarian;
pub use jv::{solve_jv, solve_jv_bounded};
pub use solver::SolverKind;
pub use sparse::{solve_sparse_rect, SparseCostMatrix, SparseInstanceError};

#[cfg(test)]
mod testutil {
    use mosaic_grid::assemble::is_permutation;
    use mosaic_grid::ErrorMatrix;

    /// An `n × n` matrix with entry `(u, v) = f(u, v)`.
    pub fn from_fn(n: usize, f: impl Fn(usize, usize) -> u32) -> ErrorMatrix {
        ErrorMatrix::from_vec(n, (0..n * n).map(|i| f(i / n, i % n)).collect())
    }

    /// The total of a solver's `assignment`, which must be a
    /// permutation.
    pub fn checked_total(matrix: &ErrorMatrix, assignment: &[usize]) -> u64 {
        assert!(
            is_permutation(assignment, matrix.size()),
            "not a permutation"
        );
        matrix.assignment_total(assignment)
    }

    /// The Hungarian optimum of `matrix`, the oracle total.
    pub fn optimal_total(matrix: &ErrorMatrix) -> u64 {
        checked_total(matrix, &crate::hungarian::solve_hungarian(matrix))
    }
}
