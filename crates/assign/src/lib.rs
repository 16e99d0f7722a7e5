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
//! * [`jv`] — Jonker–Volgenant (LAPJV): column reduction, augmenting row
//!   reduction, then shortest-path augmentation; same optimum, faster in
//!   practice. The one solver that serves jobs: [`jv::solve_jv_bounded`]
//!   polls a job [`mosaic_grid::Deadline`] before every augmentation. The
//!   other exact solvers are its test oracles and bench comparisons;
//! * [`auction`] — Bertsekas ε-scaling auction; exact for integer costs
//!   once ε < 1/n (achieved by scaling costs by n+1);
//! * [`greedy`] — global greedy matching, the quality baseline;
//! * [`brute`] — O(n·n!) exhaustive search, the test oracle for small n;
//! * [`sparse`] — exact rectangular matching over pruned candidate lists,
//!   the tile-library solve (`S` cells drawn from `T ≥ S` library tiles);
//! * [`blossom`] — Edmonds' blossom algorithm for **general** graphs, the
//!   algorithm family the paper actually ran (Blossom V); used here both
//!   directly and through the paper's 2S-vertex bipartite embedding.
//!
//! All solvers consume a [`CostMatrix`] (`u32` entries) and produce an
//! [`Assignment`] mapping rows (input tiles) to columns (target positions).
//!
//! # Example
//!
//! ```
//! use mosaic_assign::{CostMatrix, HungarianSolver, JonkerVolgenantSolver, Solver};
//!
//! // Cheapest on the anti-diagonal.
//! let cost = CostMatrix::from_fn(3, |r, c| if r + c == 2 { 1 } else { 10 });
//! let a = HungarianSolver.solve(&cost);
//! assert_eq!(a.total(), 3);
//! assert_eq!(a.row_to_col(), &[2, 1, 0]);
//! // Every exact solver returns the same optimum.
//! assert_eq!(JonkerVolgenantSolver.solve(&cost).total(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auction;
pub mod blossom;
pub mod brute;
pub mod cost;
pub mod greedy;
pub mod hungarian;
pub mod jv;
pub mod solver;
pub mod sparse;

pub use auction::AuctionSolver;
pub use blossom::BlossomSolver;
pub use brute::BruteForceSolver;
pub use cost::CostMatrix;
pub use greedy::GreedySolver;
pub use hungarian::HungarianSolver;
pub use jv::JonkerVolgenantSolver;
pub use solver::{Assignment, Solver, SolverKind};
pub use sparse::{solve_sparse_rect, SparseCostMatrix, SparseInstanceError};
