//! Circle-method 1-factorization of complete graphs.
//!
//! **Even n** — place vertex `n−1` at the hub and vertices `0..n−1` on a
//! circle. Round `r` (`0 ≤ r < n−1`) pairs the hub with the circle's fixed
//! point of `a + b ≡ r (mod n−1)` and pairs every other circle vertex `a`
//! with the unique `b ≠ a` satisfying the same congruence. Each round is a
//! perfect matching and every edge appears in exactly one round, giving the
//! optimal `n−1` colors.
//!
//! **Odd n** — run the even construction on `n+1` vertices with a dummy
//! hub; dropping the dummy's edge from each round leaves `n` rounds, each a
//! near-perfect matching (one idle vertex), giving the optimal `n` colors.
//!
//! This is the constructive form of the paper's Theorem 1.

/// Proper edge coloring of `K_n`: `groups[color]` is a list of vertex
/// pairs `(a, b)` with `a < b`; no two pairs in a group share a vertex and
/// every unordered pair appears in exactly one group.
///
/// Returns `n−1` groups for even `n ≥ 2`, `n` groups for odd `n ≥ 3`, and
/// an empty vector for `n ≤ 1` (no edges to color).
pub fn complete_graph_coloring(n: usize) -> Vec<Vec<(usize, usize)>> {
    if n <= 1 {
        return Vec::new();
    }
    if n.is_multiple_of(2) {
        even_coloring(n)
    } else {
        // Color K_{n+1} and drop all pairs touching the dummy vertex `n`.
        even_coloring(n + 1)
            .into_iter()
            .map(|group| {
                group
                    .into_iter()
                    .filter(|&(a, b)| a != n && b != n)
                    .collect()
            })
            .collect()
    }
}

/// Circle method for even `n`.
///
/// Each group comes out sorted without a sort: for `a < b` the pairs
/// appear in ascending `a`, and the hub pair `(f, n−1)` is inserted when
/// `a` reaches the fixed point `f` (which pairs with no circle vertex).
fn even_coloring(n: usize) -> Vec<Vec<(usize, usize)>> {
    debug_assert!(n >= 2 && n.is_multiple_of(2));
    let m = n - 1; // circle size
    let mut groups = Vec::with_capacity(m);
    for r in 0..m {
        let mut group = Vec::with_capacity(n / 2);
        // Fixed point f with 2f ≡ r (mod m); m is odd so 2 is invertible:
        // f = r * (m+1)/2 mod m.
        let f = (r * m.div_ceil(2)) % m;
        // b ≡ r − a (mod m), stepping down as `a` steps up.
        let mut b = r;
        for a in 0..m {
            if a == f {
                group.push((f, n - 1));
            }
            if a < b {
                group.push((a, b));
            }
            b = if b == 0 { m - 1 } else { b - 1 };
        }
        groups.push(group);
    }
    groups
}

/// The paper's Figure 5 / §IV-B group table for `K_16`, in the paper's
/// own ordering and 1-based labels: group `i` (1-based) contains the pairs
/// `{a, b} ⊂ 1..=15` with `a + b ≡ 2i + 1 (mod 15)`, the congruence's fixed
/// point paired with vertex 16, and `P_16 = ∅`.
///
/// Provided so tests can check our coloring against the paper's exact
/// table.
pub fn paper_k16_groups() -> Vec<Vec<(usize, usize)>> {
    let mut groups = Vec::with_capacity(16);
    for i in 1..=15usize {
        let target = (2 * i + 1) % 15;
        let mut group = Vec::with_capacity(8);
        for a in 1..=15usize {
            for b in (a + 1)..=15usize {
                if (a + b) % 15 == target {
                    group.push((a, b));
                }
            }
            // Fixed point: 2a ≡ target (mod 15) pairs with the hub 16.
            if (2 * a) % 15 == target {
                group.push((a, 16));
            }
        }
        group.sort_unstable();
        groups.push(group);
    }
    groups.push(Vec::new()); // P_16 = ∅
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{is_exact_cover, is_proper_coloring};

    #[test]
    fn tiny_graphs() {
        assert!(complete_graph_coloring(0).is_empty());
        assert!(complete_graph_coloring(1).is_empty());
        let k2 = complete_graph_coloring(2);
        assert_eq!(k2, vec![vec![(0, 1)]]);
        let k3 = complete_graph_coloring(3);
        assert_eq!(k3.len(), 3);
        assert!(is_proper_coloring(&k3, 3));
        assert!(is_exact_cover(&k3, 3));
    }

    #[test]
    fn even_sizes_use_n_minus_1_colors() {
        for n in [2usize, 4, 6, 16, 32, 64, 256] {
            let groups = complete_graph_coloring(n);
            assert_eq!(groups.len(), n - 1, "K_{n}");
            assert!(is_proper_coloring(&groups, n), "K_{n} not proper");
            assert!(is_exact_cover(&groups, n), "K_{n} not exact cover");
            // Every group of an even-order coloring is a perfect matching.
            for g in &groups {
                assert_eq!(g.len(), n / 2, "K_{n} group not perfect");
            }
        }
    }

    #[test]
    fn odd_sizes_use_n_colors() {
        for n in [3usize, 5, 9, 15, 63, 255] {
            let groups = complete_graph_coloring(n);
            assert_eq!(groups.len(), n, "K_{n}");
            assert!(is_proper_coloring(&groups, n), "K_{n} not proper");
            assert!(is_exact_cover(&groups, n), "K_{n} not exact cover");
            // Near-perfect matchings: (n-1)/2 pairs each.
            for g in &groups {
                assert_eq!(g.len(), (n - 1) / 2, "K_{n} group size");
            }
        }
    }

    #[test]
    fn edge_counts_sum_to_binomial() {
        for n in 2..=40 {
            let groups = complete_graph_coloring(n);
            let total: usize = groups.iter().map(|g| g.len()).sum();
            assert_eq!(total, n * (n - 1) / 2, "K_{n}");
        }
    }

    #[test]
    fn paper_table_is_a_valid_coloring() {
        // Translate the paper's 1-based groups to 0-based and check.
        let paper: Vec<Vec<(usize, usize)>> = paper_k16_groups()
            .into_iter()
            .map(|g| g.into_iter().map(|(a, b)| (a - 1, b - 1)).collect())
            .collect();
        // 16 groups with the last empty, as printed in the paper.
        assert_eq!(paper.len(), 16);
        assert!(paper[15].is_empty());
        let nonempty: Vec<_> = paper[..15].to_vec();
        assert!(is_proper_coloring(&nonempty, 16));
        assert!(is_exact_cover(&nonempty, 16));
    }

    #[test]
    fn matches_paper_k16_table_up_to_group_order() {
        // Our circle method and the paper's table are both 15-colorings of
        // K_16; they contain exactly the same set of matchings (the circle
        // construction is unique up to relabeling rounds).
        let ours: Vec<Vec<(usize, usize)>> = complete_graph_coloring(16);
        let paper: Vec<Vec<(usize, usize)>> = paper_k16_groups()
            .into_iter()
            .take(15)
            .map(|g| {
                let mut g: Vec<_> = g.into_iter().map(|(a, b)| (a - 1, b - 1)).collect();
                g.sort_unstable();
                g
            })
            .collect();
        for p in &paper {
            assert!(
                ours.iter().any(|o| o == p),
                "paper group {p:?} not produced by circle method"
            );
        }
        assert_eq!(ours.len(), paper.len());
    }

    #[test]
    fn paper_first_group_exact_content() {
        // Spot-check the transcription of P_1 against the paper.
        let p1 = &paper_k16_groups()[0];
        let expected = {
            let mut v = vec![
                (1, 2),
                (3, 15),
                (4, 14),
                (5, 13),
                (6, 12),
                (7, 11),
                (8, 10),
                (9, 16),
            ];
            v.sort_unstable();
            v
        };
        assert_eq!(p1, &expected);
    }

    fn order(a: usize, b: usize) -> (usize, usize) {
        if a < b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// The circle method as first written: hub pair pushed first, each
    /// group sorted afterwards. The oracle for the sort-free construction.
    fn sorted_even_coloring(n: usize) -> Vec<Vec<(usize, usize)>> {
        let m = n - 1;
        let mut groups = Vec::with_capacity(m);
        for r in 0..m {
            let mut group = Vec::with_capacity(n / 2);
            let f = (r * m.div_ceil(2)) % m;
            group.push(order(f, n - 1));
            for a in 0..m {
                let b = (r + m - a % m) % m;
                if a < b {
                    group.push((a, b));
                }
            }
            group.sort_unstable();
            groups.push(group);
        }
        groups
    }

    #[test]
    fn sort_free_groups_match_the_sorted_oracle() {
        for n in (0..=70).chain([1023, 1024]) {
            let expected: Vec<Vec<(usize, usize)>> = match n {
                0 | 1 => Vec::new(),
                _ if n % 2 == 0 => sorted_even_coloring(n),
                _ => sorted_even_coloring(n + 1)
                    .into_iter()
                    .map(|g| g.into_iter().filter(|&(a, b)| a != n && b != n).collect())
                    .collect(),
            };
            assert_eq!(complete_graph_coloring(n), expected, "K_{n}");
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(complete_graph_coloring(20), complete_graph_coloring(20));
    }
}
