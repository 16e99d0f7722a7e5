//! Minimum edge colorings (1-factorizations) of complete graphs.
//!
//! §IV-B of the paper parallelizes the local search by partitioning all
//! `S(S−1)/2` tile pairs into color groups `P_1 … P_S` such that no two
//! pairs in a group share a tile — a proper edge coloring of the complete
//! graph K_S. Theorem 1 (Wilson): K_n is n-edge-colorable for odd n and
//! (n−1)-edge-colorable for even n; the classical *circle method*
//! (round-robin tournament scheduling) achieves those bounds
//! constructively and is implemented in [`circle`].
//!
//! [`schedule`] wraps the coloring as a [`SwapSchedule`] ready for the
//! parallel local search, and [`verify`] provides the checkers used by the
//! tests (each group is a matching; every edge appears exactly once).
//!
//! # Example
//!
//! ```
//! use mosaic_edgecolor::{complete_graph_coloring, is_proper_coloring, is_exact_cover};
//!
//! // Theorem 1: K_16 is 15-edge-colorable.
//! let groups = complete_graph_coloring(16);
//! assert_eq!(groups.len(), 15);
//! assert!(is_proper_coloring(&groups, 16));
//! assert!(is_exact_cover(&groups, 16));
//! // Every group is a perfect matching of 8 disjoint pairs.
//! assert!(groups.iter().all(|g| g.len() == 8));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod circle;
pub mod schedule;
pub mod verify;

pub use circle::complete_graph_coloring;
pub use schedule::{Group, Pairs, SwapSchedule};
pub use verify::{is_exact_cover, is_proper_coloring};
