//! Solver trait and the assignment result type.

use crate::cost::CostMatrix;

/// A perfect matching between rows and columns of a [`CostMatrix`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Assignment {
    row_to_col: Vec<usize>,
    total: u64,
}

impl Assignment {
    /// Build from a row→column mapping, validating it is a permutation and
    /// computing the total against `cost`.
    ///
    /// # Panics
    /// Panics when `row_to_col` is not a permutation of `0..n`.
    pub fn new(cost: &CostMatrix, row_to_col: Vec<usize>) -> Self {
        let n = cost.size();
        assert!(
            is_permutation(&row_to_col, n),
            "assignment must be a permutation of 0..{n}"
        );
        let total = cost.total(&row_to_col);
        Assignment { row_to_col, total }
    }

    /// `row_to_col[r] = c`: row `r` (input tile) is assigned column `c`
    /// (target position).
    #[inline]
    pub fn row_to_col(&self) -> &[usize] {
        &self.row_to_col
    }

    /// Inverse mapping `col_to_row[c] = r` — the form the mosaic pipeline
    /// consumes (`assignment[target position] = input tile`).
    pub fn col_to_row(&self) -> Vec<usize> {
        let mut inv = vec![0usize; self.row_to_col.len()];
        for (r, &c) in self.row_to_col.iter().enumerate() {
            inv[c] = r;
        }
        inv
    }

    /// Total cost (the paper's Eq. 2 for this rearrangement).
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of rows/columns.
    #[inline]
    pub fn len(&self) -> usize {
        self.row_to_col.len()
    }

    /// Always false: assignments are non-empty by construction.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.row_to_col.is_empty()
    }
}

/// Check that `mapping` is a permutation of `0..n`.
pub fn is_permutation(mapping: &[usize], n: usize) -> bool {
    if mapping.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for &c in mapping {
        if c >= n || seen[c] {
            return false;
        }
        seen[c] = true;
    }
    true
}

/// A dense assignment solver.
pub trait Solver {
    /// Solve the instance, returning a perfect matching.
    fn solve(&self, cost: &CostMatrix) -> Assignment;

    /// Human-readable solver name for reports.
    fn name(&self) -> &'static str;

    /// Whether the solver is guaranteed to return the optimal total.
    fn is_exact(&self) -> bool;
}

/// Enumeration of the bundled exact solvers. Only
/// [`JonkerVolgenant`](SolverKind::JonkerVolgenant) is served; the others
/// are its test oracles and the `solvers` bench suite's comparison arms.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum SolverKind {
    /// Kuhn–Munkres (Hungarian).
    Hungarian,
    /// Jonker–Volgenant.
    JonkerVolgenant,
    /// ε-scaling auction.
    Auction,
    /// Edmonds' blossom algorithm via the paper's 2S-vertex bipartite
    /// embedding (general-graph matcher, like Blossom V).
    Blossom,
}

impl SolverKind {
    /// All bundled solver kinds.
    pub const ALL: [SolverKind; 4] = [
        SolverKind::Hungarian,
        SolverKind::JonkerVolgenant,
        SolverKind::Auction,
        SolverKind::Blossom,
    ];

    /// Instantiate the solver.
    pub fn build(self) -> Box<dyn Solver + Send + Sync> {
        match self {
            SolverKind::Hungarian => Box::new(crate::hungarian::HungarianSolver),
            SolverKind::JonkerVolgenant => Box::new(crate::jv::JonkerVolgenantSolver),
            SolverKind::Auction => Box::new(crate::auction::AuctionSolver::default()),
            SolverKind::Blossom => Box::new(crate::blossom::BlossomSolver),
        }
    }

    /// Stable name.
    pub fn name(self) -> &'static str {
        match self {
            SolverKind::Hungarian => "hungarian",
            SolverKind::JonkerVolgenant => "jonker-volgenant",
            SolverKind::Auction => "auction",
            SolverKind::Blossom => "blossom",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_validates_and_inverts() {
        let cost = CostMatrix::from_fn(3, |r, c| (r + c) as u32);
        let a = Assignment::new(&cost, vec![2, 0, 1]);
        assert_eq!(a.total(), 2 + 1 + (2 + 1));
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        let inv = a.col_to_row();
        assert_eq!(inv, vec![1, 2, 0]);
        for (r, &c) in a.row_to_col().iter().enumerate() {
            assert_eq!(inv[c], r);
        }
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn non_permutation_rejected() {
        let cost = CostMatrix::from_fn(2, |_, _| 1);
        let _ = Assignment::new(&cost, vec![0, 0]);
    }

    #[test]
    fn is_permutation_cases() {
        assert!(is_permutation(&[1, 0], 2));
        assert!(!is_permutation(&[1, 1], 2));
        assert!(!is_permutation(&[0, 2], 2));
        assert!(!is_permutation(&[0], 2));
    }

    #[test]
    fn solver_kinds_build_and_name() {
        let cost = CostMatrix::from_fn(4, |r, c| ((r * 7 + c * 3) % 13) as u32);
        for kind in SolverKind::ALL {
            let solver = kind.build();
            let a = solver.solve(&cost);
            assert_eq!(a.len(), 4);
            assert!(!solver.name().is_empty());
            assert!(!kind.name().is_empty());
        }
    }
}
