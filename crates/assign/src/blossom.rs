//! Minimum-weight perfect matching on **general** graphs — Edmonds'
//! blossom algorithm, O(n³).
//!
//! This is the algorithm family the paper actually ran (§III uses
//! Kolmogorov's Blossom V): unlike the Hungarian/JV solvers it is not
//! restricted to bipartite instances. The implementation is the classical
//! primal-dual formulation with dual variables on vertices and blossoms,
//! lazy slack tracking per surface vertex, and explicit blossom
//! contraction/expansion (the well-known dense O(n³) formulation used in
//! the competitive-programming literature, ported to safe Rust).
//!
//! Internally it computes a **maximum**-weight perfect matching; the
//! public minimum interface flips weights by `w_max − w + 1` (all
//! transformed weights positive, so on complete even-order graphs the
//! maximum matching is perfect, and perfect matchings all have the same
//! cardinality, making the flip exact).
//!
//! Correctness is certified in the tests against a bitmask-DP oracle
//! (exact, n ≤ 14) on random general graphs and against the bipartite
//! solvers through the same 2S-vertex embedding the paper used
//! ([`solve_blossom`]).

use mosaic_grid::ErrorMatrix;
use std::collections::VecDeque;

const INF: i64 = i64::MAX / 4;

/// Edge record: original endpoints plus (doubled) weight.
#[derive(Copy, Clone, Default)]
struct Edge {
    u: usize,
    v: usize,
    w: i64,
}

/// Dense maximum-weight matching state (1-based; index 0 is the null
/// sentinel).
struct MaxMatching {
    n: usize,
    n_x: usize,
    g: Vec<Vec<Edge>>,
    lab: Vec<i64>,
    matched: Vec<usize>,
    slack: Vec<usize>,
    st: Vec<usize>,
    pa: Vec<usize>,
    flower_from: Vec<Vec<usize>>,
    flower: Vec<Vec<usize>>,
    state: Vec<i32>, // -1 unlabeled, 0 outer (S), 1 inner (T)
    vis: Vec<u32>,
    vis_stamp: u32,
    queue: VecDeque<usize>,
}

impl MaxMatching {
    fn new(n: usize, weights: &[Vec<i64>]) -> Self {
        let cap = 2 * n + 2;
        let mut g = vec![vec![Edge::default(); cap]; cap];
        for u in 1..=n {
            for v in 1..=n {
                g[u][v] = Edge {
                    u,
                    v,
                    w: if u == v { 0 } else { 2 * weights[u - 1][v - 1] },
                };
            }
        }
        MaxMatching {
            n,
            n_x: n,
            g,
            lab: vec![0; cap],
            matched: vec![0; cap],
            slack: vec![0; cap],
            st: (0..cap).collect(),
            pa: vec![0; cap],
            flower_from: vec![vec![0; cap]; cap],
            flower: vec![Vec::new(); cap],
            state: vec![-1; cap],
            vis: vec![0; cap],
            vis_stamp: 0,
            queue: VecDeque::new(),
        }
    }

    #[inline]
    fn e_delta(&self, e: &Edge) -> i64 {
        self.lab[e.u] + self.lab[e.v] - e.w
    }

    fn update_slack(&mut self, u: usize, x: usize) {
        let better = self.slack[x] == 0
            || self.e_delta(&self.g[u][x]) < self.e_delta(&self.g[self.slack[x]][x]);
        if better {
            self.slack[x] = u;
        }
    }

    fn set_slack(&mut self, x: usize) {
        self.slack[x] = 0;
        for u in 1..=self.n {
            if self.g[u][x].w > 0 && self.st[u] != x && self.state[self.st[u]] == 0 {
                self.update_slack(u, x);
            }
        }
    }

    fn q_push(&mut self, x: usize) {
        if x <= self.n {
            self.queue.push_back(x);
        } else {
            let members = self.flower[x].clone();
            for p in members {
                self.q_push(p);
            }
        }
    }

    fn set_st(&mut self, x: usize, b: usize) {
        self.st[x] = b;
        if x > self.n {
            let members = self.flower[x].clone();
            for p in members {
                self.set_st(p, b);
            }
        }
    }

    /// Rotate bookkeeping: position of `xr` in blossom `b`'s cycle, with
    /// the cycle possibly reversed so the position is even.
    fn get_pr(&mut self, b: usize, xr: usize) -> usize {
        let pr = self.flower[b]
            .iter()
            .position(|&x| x == xr)
            // lint:allow(panic) get_pr is only called with xr taken from flower[b]
            .expect("xr is a member of blossom b");
        if pr % 2 == 1 {
            self.flower[b][1..].reverse();
            self.flower[b].len() - pr
        } else {
            pr
        }
    }

    fn set_match(&mut self, u: usize, v: usize) {
        self.matched[u] = self.g[u][v].v;
        if u > self.n {
            let e = self.g[u][v];
            let xr = self.flower_from[u][e.u];
            let pr = self.get_pr(u, xr);
            for i in 0..pr {
                let a = self.flower[u][i];
                let b = self.flower[u][i ^ 1];
                self.set_match(a, b);
            }
            self.set_match(xr, v);
            self.flower[u].rotate_left(pr);
        }
    }

    fn augment(&mut self, mut u: usize, mut v: usize) {
        loop {
            let xnv = self.st[self.matched[u]];
            self.set_match(u, v);
            if xnv == 0 {
                return;
            }
            let next_v = self.st[self.pa[xnv]];
            self.set_match(xnv, next_v);
            u = next_v;
            v = xnv;
        }
    }

    fn get_lca(&mut self, mut u: usize, mut v: usize) -> usize {
        self.vis_stamp += 1;
        let t = self.vis_stamp;
        while u != 0 || v != 0 {
            if u != 0 {
                if self.vis[u] == t {
                    return u;
                }
                self.vis[u] = t;
                u = self.st[self.matched[u]];
                if u != 0 {
                    u = self.st[self.pa[u]];
                }
            }
            std::mem::swap(&mut u, &mut v);
        }
        0
    }

    fn add_blossom(&mut self, u: usize, lca: usize, v: usize) {
        let mut b = self.n + 1;
        while b <= self.n_x && self.st[b] != 0 {
            b += 1;
        }
        if b > self.n_x {
            self.n_x += 1;
        }
        self.lab[b] = 0;
        self.state[b] = 0;
        self.matched[b] = self.matched[lca];
        self.flower[b].clear();
        self.flower[b].push(lca);
        // Walk u-side up to the lca.
        let mut x = u;
        while x != lca {
            self.flower[b].push(x);
            let y = self.st[self.matched[x]];
            self.flower[b].push(y);
            self.q_push(y);
            x = self.st[self.pa[y]];
        }
        self.flower[b][1..].reverse();
        // Walk v-side up to the lca.
        let mut x = v;
        while x != lca {
            self.flower[b].push(x);
            let y = self.st[self.matched[x]];
            self.flower[b].push(y);
            self.q_push(y);
            x = self.st[self.pa[y]];
        }
        self.set_st(b, b);
        for x in 1..=self.n_x {
            self.g[b][x].w = 0;
            self.g[x][b].w = 0;
        }
        for x in 1..=self.n {
            self.flower_from[b][x] = 0;
        }
        let members = self.flower[b].clone();
        for &xs in &members {
            for x in 1..=self.n_x {
                if self.g[b][x].w == 0 || self.e_delta(&self.g[xs][x]) < self.e_delta(&self.g[b][x])
                {
                    self.g[b][x] = self.g[xs][x];
                    self.g[x][b] = self.g[x][xs];
                }
            }
            for x in 1..=self.n {
                if self.flower_from[xs][x] != 0 {
                    self.flower_from[b][x] = xs;
                }
            }
        }
        self.set_slack(b);
    }

    fn expand_blossom(&mut self, b: usize) {
        let members = self.flower[b].clone();
        for &x in &members {
            self.set_st(x, x);
        }
        let xr = self.flower_from[b][self.g[b][self.pa[b]].u];
        let pr = self.get_pr(b, xr);
        let mut i = 0;
        while i < pr {
            let xs = self.flower[b][i];
            let xns = self.flower[b][i + 1];
            self.pa[xs] = self.g[xns][xs].u;
            self.state[xs] = 1;
            self.state[xns] = 0;
            self.slack[xs] = 0;
            self.set_slack(xns);
            self.q_push(xns);
            i += 2;
        }
        self.state[xr] = 1;
        self.pa[xr] = self.pa[b];
        for i in (pr + 1)..self.flower[b].len() {
            let xs = self.flower[b][i];
            self.state[xs] = -1;
            self.set_slack(xs);
        }
        self.st[b] = 0;
    }

    /// Returns true when an augmenting path was found and applied.
    fn on_found_edge(&mut self, e: Edge) -> bool {
        let u = self.st[e.u];
        let v = self.st[e.v];
        if self.state[v] == -1 {
            self.pa[v] = e.u;
            self.state[v] = 1;
            let nu = self.st[self.matched[v]];
            self.slack[v] = 0;
            self.slack[nu] = 0;
            self.state[nu] = 0;
            self.q_push(nu);
        } else if self.state[v] == 0 {
            let lca = self.get_lca(u, v);
            if lca == 0 {
                self.augment(u, v);
                self.augment(v, u);
                return true;
            }
            self.add_blossom(u, lca, v);
        }
        false
    }

    /// One phase: grow forests / adjust duals until an augmentation
    /// happens (true) or the duals prove no perfect matching grows
    /// (false — unreachable for the positive complete graphs we build).
    fn matching_phase(&mut self) -> bool {
        for x in 0..=self.n_x {
            self.state[x] = -1;
            self.slack[x] = 0;
        }
        self.queue.clear();
        for x in 1..=self.n_x {
            if self.st[x] == x && self.matched[x] == 0 {
                self.pa[x] = 0;
                self.state[x] = 0;
                self.q_push(x);
            }
        }
        if self.queue.is_empty() {
            return false;
        }
        loop {
            while let Some(u) = self.queue.pop_front() {
                if self.state[self.st[u]] == 1 {
                    continue;
                }
                for v in 1..=self.n {
                    if self.g[u][v].w > 0 && self.st[u] != self.st[v] {
                        if self.e_delta(&self.g[u][v]) == 0 {
                            if self.on_found_edge(self.g[u][v]) {
                                return true;
                            }
                        } else {
                            let sv = self.st[v];
                            self.update_slack(u, sv);
                        }
                    }
                }
            }
            // Dual adjustment.
            let mut d = INF;
            for b in (self.n + 1)..=self.n_x {
                if self.st[b] == b && self.state[b] == 1 {
                    d = d.min(self.lab[b] / 2);
                }
            }
            for x in 1..=self.n_x {
                if self.st[x] == x && self.slack[x] != 0 {
                    let delta = self.e_delta(&self.g[self.slack[x]][x]);
                    if self.state[x] == -1 {
                        d = d.min(delta);
                    } else if self.state[x] == 0 {
                        d = d.min(delta / 2);
                    }
                }
            }
            for u in 1..=self.n {
                match self.state[self.st[u]] {
                    0 => {
                        if self.lab[u] <= d {
                            return false;
                        }
                        self.lab[u] -= d;
                    }
                    1 => self.lab[u] += d,
                    _ => {}
                }
            }
            for b in (self.n + 1)..=self.n_x {
                if self.st[b] == b {
                    match self.state[b] {
                        0 => self.lab[b] += 2 * d,
                        1 => self.lab[b] -= 2 * d,
                        _ => {}
                    }
                }
            }
            self.queue.clear();
            for x in 1..=self.n_x {
                if self.st[x] == x
                    && self.slack[x] != 0
                    && self.st[self.slack[x]] != x
                    && self.e_delta(&self.g[self.slack[x]][x]) == 0
                {
                    let e = self.g[self.slack[x]][x];
                    if self.on_found_edge(e) {
                        return true;
                    }
                }
            }
            for b in (self.n + 1)..=self.n_x {
                if self.st[b] == b && self.state[b] == 1 && self.lab[b] == 0 {
                    self.expand_blossom(b);
                }
            }
        }
    }

    /// Run to completion; returns `mate` (1-based, 0 = unmatched).
    fn solve(&mut self) -> Vec<usize> {
        for u in 1..=self.n {
            for v in 1..=self.n {
                self.flower_from[u][v] = if u == v { u } else { 0 };
            }
        }
        let w_max = (1..=self.n)
            .flat_map(|u| (1..=self.n).map(move |v| (u, v)))
            .map(|(u, v)| self.g[u][v].w)
            .max()
            .unwrap_or(0);
        for u in 1..=self.n {
            self.lab[u] = w_max;
        }
        while self.matching_phase() {}
        self.matched[..=self.n].to_vec()
    }
}

/// Minimum-weight perfect matching of the complete graph on `n` vertices
/// (`n` even) with weights `w(i, j)` (symmetric; the diagonal is
/// ignored). Returns `(mate, total)` with `mate[i] = j` (0-based).
///
/// # Panics
/// Panics when `n` is odd or zero, or `weights` is not `n × n`.
pub fn min_weight_perfect_matching(weights: &[Vec<i64>]) -> (Vec<usize>, u64) {
    let n = weights.len();
    assert!(
        n > 0 && n.is_multiple_of(2),
        "perfect matching requires even n > 0"
    );
    for row in weights {
        assert_eq!(row.len(), n, "weights must be square");
    }
    let w_max = weights
        .iter()
        .enumerate()
        .flat_map(|(i, row)| {
            row.iter()
                .enumerate()
                .filter(move |&(j, _)| j != i)
                .map(|(_, &w)| w)
        })
        .max()
        // lint:allow(panic) the n < 2 cases returned earlier, so the off-diagonal iterator is non-empty
        .expect("n >= 2");
    // Flip to maximization with strictly positive weights: perfect
    // matchings all have n/2 edges, so the transform is exact, and
    // positivity makes the maximum matching perfect on a complete graph.
    let flipped: Vec<Vec<i64>> = weights
        .iter()
        .map(|row| row.iter().map(|&w| w_max - w + 1).collect())
        .collect();
    let mut solver = MaxMatching::new(n, &flipped);
    let mate1 = solver.solve();
    let mut mate = vec![usize::MAX; n];
    let mut total = 0i64;
    for u in 1..=n {
        let v = mate1[u];
        assert_ne!(v, 0, "complete even graph must admit a perfect matching");
        mate[u - 1] = v - 1;
        if u < v {
            total += weights[u - 1][v - 1];
        }
    }
    (mate, total as u64)
}

/// Solve the assignment instance **as the paper did**: embed the S×S
/// matrix into a general graph on 2S vertices (input tile `u` ↔ vertex
/// `u`, target position `v` ↔ vertex `S+v`; same-side edges get a
/// prohibitive weight) and run the blossom algorithm. Returns
/// `assignment[v] = u`, with the same optimum as Hungarian/JV — the
/// cross-check that certifies the DESIGN.md §2 substitution both ways.
// Symmetric matrix fills read clearest as index loops.
#[allow(clippy::needless_range_loop)]
pub fn solve_blossom(matrix: &ErrorMatrix) -> Vec<usize> {
    let s = matrix.size();
    let n = 2 * s;
    // Same-side weight: larger than any perfect matching could save.
    let max_entry = matrix.as_slice().iter().copied().max().unwrap_or(0);
    let forbid = i64::from(max_entry) * s as i64 + 1;
    let mut weights = vec![vec![forbid; n]; n];
    for i in 0..s {
        for j in 0..s {
            let w = i64::from(matrix.get(i, j));
            weights[i][s + j] = w;
            weights[s + j][i] = w;
        }
    }
    let (mate, _) = min_weight_perfect_matching(&weights);
    debug_assert!(
        mate[s..].iter().all(|&u| u < s),
        "optimal matching never uses same-side edges"
    );
    mate[s..].to_vec()
}

/// Exact bitmask-DP oracle for minimum-weight perfect matching, O(2ⁿ·n).
/// Usable up to n ≈ 14; test-only companion to the blossom solver.
#[allow(clippy::needless_range_loop)]
pub fn oracle_min_perfect_matching(weights: &[Vec<i64>]) -> i64 {
    let n = weights.len();
    assert!(n.is_multiple_of(2) && n <= 20, "oracle is exponential");
    let full = 1usize << n;
    let mut dp = vec![INF; full];
    dp[0] = 0;
    for mask in 0..full {
        if dp[mask] >= INF {
            continue;
        }
        // Match the lowest unmatched vertex.
        let Some(i) = (0..n).find(|&i| mask & (1 << i) == 0) else {
            continue;
        };
        for j in (i + 1)..n {
            if mask & (1 << j) == 0 {
                let next = mask | (1 << i) | (1 << j);
                let cand = dp[mask] + weights[i][j];
                if cand < dp[next] {
                    dp[next] = cand;
                }
            }
        }
    }
    dp[full - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{checked_total, optimal_total};

    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[allow(clippy::needless_range_loop)]
    fn random_symmetric(n: usize, seed: u64, max: u64) -> Vec<Vec<i64>> {
        let mut next = rng(seed);
        let mut w = vec![vec![0i64; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let v = (next() % max) as i64;
                w[i][j] = v;
                w[j][i] = v;
            }
        }
        w
    }

    fn validate_matching(mate: &[usize]) {
        for (i, &j) in mate.iter().enumerate() {
            assert_ne!(i, j, "self-matched vertex");
            assert_eq!(mate[j], i, "matching not symmetric");
        }
    }

    #[test]
    fn two_vertices() {
        let w = vec![vec![0, 7], vec![7, 0]];
        let (mate, total) = min_weight_perfect_matching(&w);
        assert_eq!(mate, vec![1, 0]);
        assert_eq!(total, 7);
    }

    #[test]
    fn four_vertices_hand_checked() {
        // Pairs: (0,1)+(2,3)=1+2=3; (0,2)+(1,3)=10+10=20; (0,3)+(1,2)=10+10=20.
        let w = vec![
            vec![0, 1, 10, 10],
            vec![1, 0, 10, 10],
            vec![10, 10, 0, 2],
            vec![10, 10, 2, 0],
        ];
        let (mate, total) = min_weight_perfect_matching(&w);
        validate_matching(&mate);
        assert_eq!(total, 3);
        assert_eq!(mate[0], 1);
        assert_eq!(mate[2], 3);
    }

    #[test]
    fn triangle_plus_pendant_forces_blossom_reasoning() {
        // Odd cycles are where bipartite algorithms break; a K4 with a
        // cheap triangle 0-1-2 and expensive edges to 3 exercises blossom
        // contraction.
        let w = vec![
            vec![0, 1, 1, 100],
            vec![1, 0, 1, 50],
            vec![1, 1, 0, 80],
            vec![100, 50, 80, 0],
        ];
        let (mate, total) = min_weight_perfect_matching(&w);
        validate_matching(&mate);
        // Best: (1,3)=50 + (0,2)=1 → 51.
        assert_eq!(total, 51);
        assert_eq!(oracle_min_perfect_matching(&w), 51);
    }

    #[test]
    fn matches_oracle_on_random_small_graphs() {
        for n in [2usize, 4, 6, 8, 10, 12] {
            for case in 0..12 {
                let w = random_symmetric(n, n as u64 * 100 + case, 1000);
                let (mate, total) = min_weight_perfect_matching(&w);
                validate_matching(&mate);
                let oracle = oracle_min_perfect_matching(&w);
                assert_eq!(total as i64, oracle, "n={n} case={case}");
                // The reported total matches the mates.
                let direct: i64 = mate
                    .iter()
                    .enumerate()
                    .filter(|&(i, &j)| i < j)
                    .map(|(i, &j)| w[i][j])
                    .sum();
                assert_eq!(direct, oracle);
            }
        }
    }

    #[test]
    fn matches_oracle_with_heavy_ties() {
        for seed in 0..8 {
            let w = random_symmetric(10, 777 + seed, 4);
            let (_, total) = min_weight_perfect_matching(&w);
            assert_eq!(total as i64, oracle_min_perfect_matching(&w), "seed {seed}");
        }
    }

    #[test]
    fn zero_weights_work() {
        let w = vec![vec![0i64; 6]; 6];
        let (mate, total) = min_weight_perfect_matching(&w);
        validate_matching(&mate);
        assert_eq!(total, 0);
    }

    #[test]
    fn larger_random_instances_validate_structurally() {
        // n beyond the oracle: check matching validity and agreement with
        // a local-improvement lower-bound sanity (2-opt over pairs cannot
        // improve an optimal matching).
        let n = 40;
        let w = random_symmetric(n, 4242, 100_000);
        let (mate, total) = min_weight_perfect_matching(&w);
        validate_matching(&mate);
        // 2-opt check: for any two matched pairs (a,b),(c,d), the
        // alternatives must not be cheaper.
        let pairs: Vec<(usize, usize)> = mate
            .iter()
            .enumerate()
            .filter(|&(i, &j)| i < j)
            .map(|(i, &j)| (i, j))
            .collect();
        for (idx, &(a, b)) in pairs.iter().enumerate() {
            for &(c, d) in &pairs[idx + 1..] {
                let current = w[a][b] + w[c][d];
                assert!(current <= w[a][c] + w[b][d], "2-opt improvement exists");
                assert!(current <= w[a][d] + w[b][c], "2-opt improvement exists");
            }
        }
        let _ = total;
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_order_rejected() {
        let w = vec![vec![0i64; 3]; 3];
        let _ = min_weight_perfect_matching(&w);
    }

    #[test]
    fn bipartite_embedding_matches_hungarian() {
        // The paper's exact usage: assignment solved through a general
        // matcher. Must equal the Hungarian optimum on every instance.
        let mut next = rng(0xB10550);
        for n in [2usize, 5, 10, 20] {
            for case in 0..4 {
                let data: Vec<u32> = (0..n * n).map(|_| (next() % 10_000) as u32).collect();
                let cost = ErrorMatrix::from_vec(n, data);
                let blossom = checked_total(&cost, &solve_blossom(&cost));
                assert_eq!(blossom, optimal_total(&cost), "n={n} case={case}");
            }
        }
    }
}
