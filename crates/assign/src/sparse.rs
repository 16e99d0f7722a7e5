//! Sparse (candidate-pruned) assignment for the tile-library workload.
//!
//! A library mosaic has `T` library tiles competing for `S` target cells
//! (`S ≤ T`). Pruning keeps each cell's best candidate tiles;
//! [`SparseCostMatrix`] stores that instance in CSR form and
//! [`solve_sparse_rect`] solves it exactly with successive shortest
//! augmenting paths over the candidate lists only.
//!
//! Top-k pruning is not used for the paper's square rearrangement: a
//! bijection needs many candidates per tile, and pruned Step-3 solves
//! land far above the dense optimum (EXPERIMENTS.md, Ablations).
//!
//! Feasibility: an arbitrary top-k pruning may have no perfect matching.
//! [`SparseCostMatrix::from_candidates_rect`] repairs this with a
//! matching-preserving injection: it runs Hopcroft–Karp on the pruned
//! graph and pairs every unmatched row with a distinct unmatched column
//! (charging the true cost of the injected edge), which extends the
//! maximum matching to one that saturates every row. The old square-only
//! `(r, r)` diagonal trick is gone — it silently assumed n×n.
//!
//! Optimality is with respect to the *pruned* graph: equal to the dense
//! optimum when `k = n`, an upper bound otherwise (tested both ways).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// A pruned instance that cannot be repaired into one with a perfect
/// matching on the rows, or that is malformed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SparseInstanceError {
    /// Fewer columns than rows: no injection can saturate every row.
    Infeasible {
        /// Number of rows (cells to cover).
        rows: usize,
        /// Number of columns (candidates available).
        cols: usize,
    },
    /// A row has no candidates at all (degenerate pruning, e.g. k = 0).
    EmptyRow {
        /// The offending row index.
        row: usize,
    },
    /// A candidate references a column outside `0..cols`.
    ColumnOutOfRange {
        /// The offending row index.
        row: usize,
        /// The out-of-range column index.
        col: usize,
    },
}

impl fmt::Display for SparseInstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseInstanceError::Infeasible { rows, cols } => write!(
                f,
                "infeasible sparse instance: {rows} rows but only {cols} columns"
            ),
            SparseInstanceError::EmptyRow { row } => {
                write!(f, "row {row} has no candidates (degenerate pruning)")
            }
            SparseInstanceError::ColumnOutOfRange { row, col } => {
                write!(f, "row {row}: column {col} out of range")
            }
        }
    }
}

impl std::error::Error for SparseInstanceError {}

/// CSR sparse cost matrix over `rows` rows and `cols` columns
/// (`rows ≤ cols`; square when equal).
#[derive(Clone, Debug)]
pub struct SparseCostMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_ids: Vec<usize>,
    costs: Vec<u32>,
    max_cost: u32,
}

impl SparseCostMatrix {
    /// Build a **rectangular** instance (`rows ≤ cols`) from per-row
    /// candidate lists, repairing feasibility when the pruned graph has
    /// no row-perfect matching.
    ///
    /// The repair is matching-preserving: Hopcroft–Karp computes a
    /// maximum matching on the candidates; each unmatched row is then
    /// paired with a distinct unmatched column and that edge is injected
    /// at its true cost, obtained from `fill(row, col)`. Because the
    /// injected columns are unmatched, the union of the maximum matching
    /// and the injected pairs saturates every row — the instance is
    /// feasible by construction, independent of any square-diagonal
    /// assumption.
    ///
    /// Candidate lists are deduplicated per row (first occurrence wins)
    /// and stored in ascending column order for deterministic iteration.
    pub fn from_candidates_rect(
        rows: usize,
        cols: usize,
        lists: &[Vec<(usize, u32)>],
        mut fill: impl FnMut(usize, usize) -> u32,
    ) -> Result<Self, SparseInstanceError> {
        assert_eq!(lists.len(), rows, "one candidate list per row required");
        if cols < rows {
            return Err(SparseInstanceError::Infeasible { rows, cols });
        }
        let mut per_row: Vec<Vec<(usize, u32)>> = Vec::with_capacity(rows);
        for (r, list) in lists.iter().enumerate() {
            if list.is_empty() {
                return Err(SparseInstanceError::EmptyRow { row: r });
            }
            let mut entries = list.clone();
            entries.sort_unstable();
            entries.dedup_by_key(|&mut (c, _)| c);
            if let Some(&(c, _)) = entries.iter().find(|&&(c, _)| c >= cols) {
                return Err(SparseInstanceError::ColumnOutOfRange { row: r, col: c });
            }
            per_row.push(entries);
        }

        // Feasibility repair: maximum matching, then pair the leftovers.
        let row_match = hopcroft_karp(rows, cols, &per_row);
        let mut col_used = vec![false; cols];
        for &c in row_match.iter().filter(|&&c| c != UNASSIGNED) {
            col_used[c] = true;
        }
        let mut spare = (0..cols).filter(|&c| !col_used[c]);
        for (r, &m) in row_match.iter().enumerate() {
            if m != UNASSIGNED {
                continue;
            }
            // cols ≥ rows guarantees a spare column for every unmatched row.
            let Some(c) = spare.next() else {
                return Err(SparseInstanceError::Infeasible { rows, cols });
            };
            let cost = fill(r, c);
            let at = per_row[r].partition_point(|&(cc, _)| cc < c);
            per_row[r].insert(at, (c, cost));
        }

        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_ids = Vec::new();
        let mut costs = Vec::new();
        let mut max_cost = 0u32;
        row_ptr.push(0);
        for list in &per_row {
            for &(c, cost) in list {
                col_ids.push(c);
                costs.push(cost);
                max_cost = max_cost.max(cost);
            }
            row_ptr.push(col_ids.len());
        }
        Ok(SparseCostMatrix {
            rows,
            cols,
            row_ptr,
            col_ids,
            costs,
            max_cost,
        })
    }

    /// Dimension of a square instance (row count in general).
    #[inline]
    pub fn size(&self) -> usize {
        self.rows
    }

    /// Number of rows (target cells in the library workload).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (candidate tiles in the library workload).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_ids.len()
    }

    /// Candidate `(column, cost)` pairs of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, u32)> + '_ {
        let range = self.row_ptr[r]..self.row_ptr[r + 1];
        self.col_ids[range.clone()]
            .iter()
            .zip(&self.costs[range])
            .map(|(&c, &w)| (c, w))
    }

    /// Largest stored cost.
    #[inline]
    pub fn max_cost(&self) -> u32 {
        self.max_cost
    }
}

const UNASSIGNED: usize = usize::MAX;

/// Deterministic Hopcroft–Karp maximum bipartite matching over the
/// candidate lists. Returns `row → column` (or [`UNASSIGNED`]).
fn hopcroft_karp(rows: usize, cols: usize, lists: &[Vec<(usize, u32)>]) -> Vec<usize> {
    const INF: u32 = u32::MAX;
    let mut row_match = vec![UNASSIGNED; rows];
    let mut col_match = vec![UNASSIGNED; cols];
    let mut level = vec![INF; rows];
    let mut queue = Vec::with_capacity(rows);

    loop {
        // BFS layers the free rows at depth 0.
        queue.clear();
        for r in 0..rows {
            if row_match[r] == UNASSIGNED {
                level[r] = 0;
                queue.push(r);
            } else {
                level[r] = INF;
            }
        }
        let mut reachable_free_col = false;
        let mut head = 0;
        while head < queue.len() {
            let r = queue[head];
            head += 1;
            for &(c, _) in &lists[r] {
                match col_match[c] {
                    UNASSIGNED => reachable_free_col = true,
                    r2 => {
                        if level[r2] == INF {
                            level[r2] = level[r] + 1;
                            queue.push(r2);
                        }
                    }
                }
            }
        }
        if !reachable_free_col {
            return row_match;
        }
        // DFS augments along level-increasing paths.
        for r in 0..rows {
            if row_match[r] == UNASSIGNED {
                hk_augment(r, lists, &mut row_match, &mut col_match, &mut level);
            }
        }
    }
}

/// DFS step of Hopcroft–Karp: try to augment from row `r`.
fn hk_augment(
    r: usize,
    lists: &[Vec<(usize, u32)>],
    row_match: &mut [usize],
    col_match: &mut [usize],
    level: &mut [u32],
) -> bool {
    for i in 0..lists[r].len() {
        let c = lists[r][i].0;
        let r2 = col_match[c];
        let advances = r2 == UNASSIGNED
            || (level[r2] == level[r] + 1 && hk_augment(r2, lists, row_match, col_match, level));
        if advances {
            row_match[r] = c;
            col_match[c] = r;
            return true;
        }
    }
    level[r] = u32::MAX; // dead end: prune for the rest of this phase
    false
}

/// Exact minimum-cost row-perfect matching on a rectangular sparse
/// instance (`rows ≤ cols`) via successive shortest augmenting paths
/// with potentials (the sparse analogue of the dense Hungarian solver).
///
/// Returns `row → column` (injective into `0..cols`), or
/// [`SparseInstanceError::Infeasible`] when the candidate graph admits no
/// row-perfect matching (never the case for instances built by
/// [`SparseCostMatrix::from_candidates_rect`]).
///
/// Deterministic: Dijkstra ties break on the smaller column index.
/// Complexity O(rows · nnz · log nnz).
pub fn solve_sparse_rect(sparse: &SparseCostMatrix) -> Result<Vec<usize>, SparseInstanceError> {
    let (rows, cols) = (sparse.rows(), sparse.cols());
    if cols < rows {
        return Err(SparseInstanceError::Infeasible { rows, cols });
    }
    const INF: i64 = i64::MAX / 2;
    let mut u = vec![0i64; rows]; // row potentials
    let mut v = vec![0i64; cols]; // column potentials
    let mut row_to_col = vec![UNASSIGNED; rows];
    let mut col_to_row = vec![UNASSIGNED; cols];
    let mut dist = vec![INF; cols];
    let mut pred = vec![UNASSIGNED; cols]; // row that reached the column
    let mut finalized: Vec<usize> = Vec::new(); // columns, in pop order
    let mut done = vec![false; cols];
    let mut heap: BinaryHeap<Reverse<(i64, usize)>> = BinaryHeap::new();

    for s in 0..rows {
        dist.iter_mut().for_each(|d| *d = INF);
        pred.iter_mut().for_each(|p| *p = UNASSIGNED);
        for &c in &finalized {
            done[c] = false;
        }
        finalized.clear();
        heap.clear();
        for (c, w) in sparse.row(s) {
            let nd = i64::from(w) - u[s] - v[c];
            if nd < dist[c] {
                dist[c] = nd;
                pred[c] = s;
                heap.push(Reverse((nd, c)));
            }
        }

        let mut endpoint = UNASSIGNED;
        let mut delta = 0i64;
        while let Some(Reverse((d, c))) = heap.pop() {
            if done[c] || d > dist[c] {
                continue;
            }
            done[c] = true;
            finalized.push(c);
            if col_to_row[c] == UNASSIGNED {
                endpoint = c;
                delta = d;
                break;
            }
            let r = col_to_row[c];
            for (c2, w2) in sparse.row(r) {
                if done[c2] {
                    continue;
                }
                let nd = d + i64::from(w2) - u[r] - v[c2];
                if nd < dist[c2] {
                    dist[c2] = nd;
                    pred[c2] = r;
                    heap.push(Reverse((nd, c2)));
                }
            }
        }
        if endpoint == UNASSIGNED {
            return Err(SparseInstanceError::Infeasible { rows, cols });
        }

        // Potential update keeps matched edges tight and the new
        // augmenting path's edges tight, preserving reduced-cost
        // non-negativity for the next phase.
        u[s] += delta;
        for &c in &finalized {
            if c == endpoint {
                continue;
            }
            let slack = delta - dist[c];
            u[col_to_row[c]] += slack;
            v[c] -= slack;
        }

        // Augment along the predecessor chain back to `s`.
        let mut c = endpoint;
        loop {
            let r = pred[c];
            let next = row_to_col[r];
            col_to_row[c] = r;
            row_to_col[r] = c;
            if r == s {
                break;
            }
            c = next;
        }
    }
    Ok(row_to_col)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hungarian::solve_hungarian;
    use mosaic_grid::ErrorMatrix;

    fn random_cost(n: usize, seed: u64, max: u64) -> ErrorMatrix {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % max) as u32
        };
        ErrorMatrix::from_vec(n, (0..n * n).map(|_| next()).collect())
    }

    /// Per-row `(column, cost)` candidate lists plus the dense cost rows
    /// they were drawn from.
    type RectLists = (Vec<Vec<(usize, u32)>>, Vec<Vec<u32>>);

    /// Rectangular random candidate lists: `rows × cols`, each row keeps
    /// its `k` cheapest columns of a dense random rectangle.
    fn random_rect_lists(rows: usize, cols: usize, k: usize, seed: u64) -> RectLists {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 10_000) as u32
        };
        let dense: Vec<Vec<u32>> = (0..rows)
            .map(|_| (0..cols).map(|_| next()).collect())
            .collect();
        let lists = dense
            .iter()
            .map(|row| {
                let mut order: Vec<usize> = (0..cols).collect();
                order.sort_unstable_by_key(|&c| (row[c], c));
                order.truncate(k);
                order.into_iter().map(|c| (c, row[c])).collect()
            })
            .collect();
        (lists, dense)
    }

    #[test]
    fn csr_construction_and_access() {
        let rows = vec![
            vec![(0, 5), (2, 1)],
            vec![(1, 3)],
            vec![(0, 2), (1, 4), (2, 6)],
        ];
        let m = SparseCostMatrix::from_candidates_rect(3, 3, &rows, |_, _| 0)
            .expect("the candidates already hold a perfect matching");
        assert_eq!(m.size(), 3);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.nnz(), 6);
        assert_eq!(m.max_cost(), 6);
        let row2: Vec<_> = m.row(2).collect();
        assert_eq!(row2, vec![(0, 2), (1, 4), (2, 6)]);
    }

    // ---- rectangular path ---------------------------------------------

    #[test]
    fn rect_more_columns_than_rows_is_feasible_and_injective() {
        let (lists, _) = random_rect_lists(20, 64, 4, 42);
        let sparse = SparseCostMatrix::from_candidates_rect(20, 64, &lists, |_, _| 9_999)
            .expect("feasible: cols > rows");
        assert_eq!(sparse.rows(), 20);
        assert_eq!(sparse.cols(), 64);
        let a = solve_sparse_rect(&sparse).expect("solvable");
        assert_eq!(a.len(), 20);
        let mut seen = a.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 20, "assignment must be injective");
        assert!(a.iter().all(|&c| c < 64));
    }

    #[test]
    fn rect_fewer_columns_than_rows_is_typed_infeasible() {
        let lists = vec![vec![(0, 1)], vec![(1, 2)], vec![(0, 3)]];
        let err = SparseCostMatrix::from_candidates_rect(3, 2, &lists, |_, _| 0)
            .expect_err("3 rows cannot match into 2 columns");
        assert_eq!(err, SparseInstanceError::Infeasible { rows: 3, cols: 2 });
    }

    #[test]
    fn rect_degenerate_empty_row_is_typed_error() {
        // k = 0 pruning produces an empty candidate list.
        let lists = vec![vec![(0, 1)], vec![]];
        let err = SparseCostMatrix::from_candidates_rect(2, 4, &lists, |_, _| 0)
            .expect_err("empty row must be rejected");
        assert_eq!(err, SparseInstanceError::EmptyRow { row: 1 });
    }

    #[test]
    fn rect_column_out_of_range_is_typed_error() {
        let lists = vec![vec![(5, 1)]];
        let err = SparseCostMatrix::from_candidates_rect(1, 4, &lists, |_, _| 0)
            .expect_err("column 5 is out of range");
        assert_eq!(
            err,
            SparseInstanceError::ColumnOutOfRange { row: 0, col: 5 }
        );
    }

    #[test]
    fn rect_contended_single_candidate_lists_are_repaired() {
        // Every row wants column 0 only; Hopcroft–Karp matches one row
        // and the rest are paired with distinct spare columns at their
        // true (fill) costs.
        let rows = 8;
        let lists: Vec<Vec<(usize, u32)>> = (0..rows).map(|_| vec![(0, 1)]).collect();
        let sparse =
            SparseCostMatrix::from_candidates_rect(rows, 16, &lists, |r, c| (r * 100 + c) as u32)
                .expect("repairable");
        let a = solve_sparse_rect(&sparse).expect("solvable");
        let mut seen = a.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), rows);
    }

    #[test]
    fn rect_regression_t_greater_than_s_no_diagonal_assumption() {
        // The old diagonal injection would push (r, r) which is wrong for
        // rectangular instances where row r's spare must come from the
        // unmatched columns. Columns ≥ rows with col index ≥ rows must be
        // reachable as injected spares.
        let rows = 4;
        let cols = 12;
        // All rows list only columns 0..2: max matching is 2, so two rows
        // need injected spares from 2.. (never their own diagonal).
        let lists: Vec<Vec<(usize, u32)>> =
            (0..rows).map(|_| vec![(0, 5), (1, 5), (2, 5)]).collect();
        let sparse =
            SparseCostMatrix::from_candidates_rect(rows, cols, &lists, |_, _| 7).expect("feasible");
        let a = solve_sparse_rect(&sparse).expect("solvable");
        let mut seen = a.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), rows);
    }

    #[test]
    fn rect_solver_matches_dense_hungarian_on_square_full_instances() {
        // Dense oracle: with every edge present, the sparse SSP solver
        // must reproduce the dense Hungarian optimum decision-for-decision.
        for seed in [2u64, 13, 71] {
            let n = 16;
            let dense = random_cost(n, seed, 1_000);
            let lists: Vec<Vec<(usize, u32)>> = (0..n)
                .map(|r| (0..n).map(|c| (c, dense.get(r, c))).collect())
                .collect();
            let sparse =
                SparseCostMatrix::from_candidates_rect(n, n, &lists, |r, c| dense.get(r, c))
                    .expect("square full instance");
            let a = solve_sparse_rect(&sparse).expect("solvable");
            let total: u64 = a
                .iter()
                .enumerate()
                .map(|(r, &c)| u64::from(dense.get(r, c)))
                .sum();
            let oracle = dense.assignment_total(&solve_hungarian(&dense));
            assert_eq!(total, oracle, "seed {seed}: totals must agree");
        }
    }

    #[test]
    fn rect_solver_finds_rectangular_optimum_vs_exhaustive() {
        // Small enough to brute-force all injective assignments.
        let rows = 4;
        let cols = 6;
        let (lists, dense) = random_rect_lists(rows, cols, cols, 9);
        let sparse = SparseCostMatrix::from_candidates_rect(rows, cols, &lists, |r, c| dense[r][c])
            .expect("full rectangle");
        let a = solve_sparse_rect(&sparse).expect("solvable");
        let got: u64 = a
            .iter()
            .enumerate()
            .map(|(r, &c)| u64::from(dense[r][c]))
            .sum();

        // Exhaustive: enumerate every injective map rows → cols.
        let mut best = u64::MAX;
        let mut pick = vec![UNASSIGNED; rows];
        let mut used = vec![false; cols];
        fn recurse(
            r: usize,
            rows: usize,
            cols: usize,
            dense: &[Vec<u32>],
            pick: &mut [usize],
            used: &mut [bool],
            best: &mut u64,
        ) {
            if r == rows {
                let total: u64 = pick
                    .iter()
                    .enumerate()
                    .map(|(rr, &cc)| u64::from(dense[rr][cc]))
                    .sum();
                *best = (*best).min(total);
                return;
            }
            for c in 0..cols {
                if !used[c] {
                    used[c] = true;
                    pick[r] = c;
                    recurse(r + 1, rows, cols, dense, pick, used, best);
                    used[c] = false;
                }
            }
        }
        recurse(0, rows, cols, &dense, &mut pick, &mut used, &mut best);
        assert_eq!(got, best, "sparse SSP must find the rectangular optimum");
    }

    #[test]
    fn rect_solver_is_deterministic() {
        let (lists, dense) = random_rect_lists(24, 96, 6, 33);
        let build = || {
            let sparse = SparseCostMatrix::from_candidates_rect(24, 96, &lists, |r, c| dense[r][c])
                .expect("feasible");
            solve_sparse_rect(&sparse).expect("solvable")
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn rect_pruned_total_upper_bounds_full_total() {
        let (full_lists, dense) = random_rect_lists(16, 48, 48, 21);
        let (pruned_lists, _) = random_rect_lists(16, 48, 4, 21);
        let total_of = |lists: &[Vec<(usize, u32)>]| {
            let sparse = SparseCostMatrix::from_candidates_rect(16, 48, lists, |r, c| dense[r][c])
                .expect("feasible");
            let a = solve_sparse_rect(&sparse).expect("solvable");
            a.iter()
                .enumerate()
                .map(|(r, &c)| u64::from(dense[r][c]))
                .sum::<u64>()
        };
        assert!(total_of(&pruned_lists) >= total_of(&full_lists));
    }
}
