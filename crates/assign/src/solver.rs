//! The bundled exact solvers, by name.

use mosaic_grid::ErrorMatrix;

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

    /// Solve `matrix` exactly: `assignment[v] = u` places input tile `u`
    /// at target position `v`.
    pub fn solve(self, matrix: &ErrorMatrix) -> Vec<usize> {
        match self {
            SolverKind::Hungarian => crate::hungarian::solve_hungarian(matrix),
            SolverKind::JonkerVolgenant => crate::jv::solve_jv(matrix),
            SolverKind::Auction => crate::auction::solve_auction(matrix, 4),
            SolverKind::Blossom => crate::blossom::solve_blossom(matrix),
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
    use mosaic_grid::assemble::is_permutation;

    #[test]
    fn solver_kinds_solve_and_name() {
        let cost = ErrorMatrix::from_vec(
            4,
            (0..16)
                .map(|i| ((i / 4 * 7 + i % 4 * 3) % 13) as u32)
                .collect(),
        );
        let optimum = cost.assignment_total(&SolverKind::Hungarian.solve(&cost));
        for kind in SolverKind::ALL {
            let assignment = kind.solve(&cost);
            assert!(is_permutation(&assignment, 4), "{}", kind.name());
            assert_eq!(
                cost.assignment_total(&assignment),
                optimum,
                "{}",
                kind.name()
            );
            assert!(!kind.name().is_empty());
        }
    }
}
