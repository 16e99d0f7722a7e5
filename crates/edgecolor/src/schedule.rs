//! Swap schedules for the parallel local search.
//!
//! §IV-B: "we assume that the number of tiles S is fixed and edge groups
//! P_1, P_2, …, P_S are computed in advance. After that, using them,
//! photomosaic images are generated for various input images." A
//! [`SwapSchedule`] is that precomputed object: the color groups of `K_S`,
//! padded with an empty trailing group for even `S` (the paper's
//! `P_S = ∅`), each group listing tile pairs that can be swap-tested
//! concurrently.
//!
//! The circle method ([`crate::circle`]) is closed-form, so nothing needs
//! storing: group `r` is every pair `{a, b}` with `a + b ≡ r (mod m)` on
//! a circle of `m` vertices, plus, for even `S`, the pair of the
//! congruence's fixed point `f` with the hub `S − 1`. Its pairs are
//! `(f + k, f − k) mod m` for `k = 1, 2, …`, so pair `i` of any group is a
//! few additions away. A schedule is therefore just `S`: building one is
//! free, and it holds no memory however large `S` is (the materialized
//! pairs were ~8.4 MB at S = 1024 and ~134 MB at S = 4096).

use std::ops::Range;

/// Precomputed conflict-free swap groups for `S` tiles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SwapSchedule {
    tiles: usize,
}

impl SwapSchedule {
    /// The schedule for `tiles` tiles.
    ///
    /// It has exactly `tiles` groups (matching the paper's `P_1 … P_S`
    /// presentation): for even `S` the last group is empty, for odd `S`
    /// all `S` groups are occupied, and for `S ≤ 1` every group is empty.
    pub fn for_tiles(tiles: usize) -> Self {
        SwapSchedule { tiles }
    }

    /// Number of tiles `S`.
    #[inline]
    pub fn tiles(&self) -> usize {
        self.tiles
    }

    /// The groups that contain pairs, in schedule order: `S − 1` groups
    /// of `S/2` pairs for even `S`, `S` groups of `(S − 1)/2` pairs for
    /// odd `S ≥ 3`, none for `S ≤ 1`.
    pub fn occupied_groups(&self) -> impl ExactSizeIterator<Item = Group> {
        let s = self.tiles;
        let len = if s <= 1 { 0 } else { s / 2 };
        // Odd S is the even construction on S + 1 vertices with the hub
        // dropped, so both circles have an odd size m.
        let (m, hub) = if s.is_multiple_of(2) {
            (s.saturating_sub(1), Some(s.saturating_sub(1)))
        } else {
            (s, None)
        };
        let occupied = if len == 0 { 0 } else { m };
        (0..occupied).map(move |r| Group {
            m,
            // 2f ≡ r (mod m); m is odd, so f = r · (m + 1)/2 mod m.
            fixed: r * m.div_ceil(2) % m,
            hub,
            len,
        })
    }

    /// All `S` groups with their pairs written out as `(a, b)` with
    /// `a < b`, including trailing empty ones — for checking the
    /// schedule, not for running it.
    pub fn groups(&self) -> Vec<Vec<(usize, usize)>> {
        let mut groups: Vec<Vec<(usize, usize)>> = self
            .occupied_groups()
            .map(|group| {
                group
                    .pairs(0..group.len())
                    .map(|(a, b)| (a.min(b), a.max(b)))
                    .collect()
            })
            .collect();
        groups.resize(self.tiles, Vec::new());
        groups
    }

    /// Total number of pairs across all groups — `S(S−1)/2`.
    pub fn pair_count(&self) -> usize {
        self.occupied_groups().map(|g| g.len()).sum()
    }
}

/// One color group of a [`SwapSchedule`]: vertex-disjoint tile pairs,
/// computed on demand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Group {
    /// Circle size (odd).
    m: usize,
    /// The circle vertex this group pairs with the hub (or leaves idle).
    fixed: usize,
    /// The hub vertex, for even `S`.
    hub: Option<usize>,
    len: usize,
}

impl Group {
    /// Number of pairs.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the group has no pairs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pairs `range` of the group, each an unordered pair of tiles. The
    /// order is fixed, so consecutive ranges partition the group.
    ///
    /// # Panics
    /// Panics when `range` ends past [`len`](Self::len).
    pub fn pairs(self, range: Range<usize>) -> Pairs {
        assert!(
            range.end <= self.len,
            "pair range {range:?} past a group of {}",
            self.len
        );
        // With a hub, step 0 is the hub pair; circle pairs start at step 1.
        let mut hub = self.hub;
        let mut step = range.start;
        if hub.is_some() {
            if step > 0 || range.is_empty() {
                hub = None;
            } else {
                step = 1;
            }
        } else {
            step += 1;
        }
        let remaining = range.len() - usize::from(hub.is_some());
        // `fixed < m` and `1 ≤ step < m`, so one subtraction reduces each
        // side mod m.
        let wrap = |v: usize| if v >= self.m { v - self.m } else { v };
        Pairs {
            hub: hub.map(|hub| (self.fixed, hub)),
            up: wrap(self.fixed + step),
            down: wrap(self.fixed + self.m - step),
            m: self.m,
            remaining,
        }
    }
}

/// The pairs of a [`Group`] range; see [`Group::pairs`]. Steps around the
/// circle one vertex each way per pair (no division on the search's hot
/// path).
#[derive(Clone, Debug)]
pub struct Pairs {
    hub: Option<(usize, usize)>,
    up: usize,
    down: usize,
    m: usize,
    remaining: usize,
}

impl Iterator for Pairs {
    type Item = (usize, usize);

    #[inline]
    fn next(&mut self) -> Option<(usize, usize)> {
        if let Some(pair) = self.hub.take() {
            return Some(pair);
        }
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let pair = (self.up, self.down);
        self.up = if self.up + 1 == self.m {
            0
        } else {
            self.up + 1
        };
        self.down = if self.down == 0 {
            self.m - 1
        } else {
            self.down - 1
        };
        Some(pair)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.remaining + usize::from(self.hub.is_some());
        (len, Some(len))
    }
}

impl ExactSizeIterator for Pairs {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circle::complete_graph_coloring;
    use crate::verify::{is_exact_cover, is_proper_coloring};

    #[test]
    fn schedule_has_exactly_s_groups() {
        for s in [0usize, 1, 2, 3, 16, 17, 256, 1024] {
            let sched = SwapSchedule::for_tiles(s);
            assert_eq!(sched.groups().len(), s, "S={s}");
            assert_eq!(sched.tiles(), s);
        }
    }

    #[test]
    fn even_s_has_one_trailing_empty_group() {
        let sched = SwapSchedule::for_tiles(16);
        assert!(sched.groups()[15].is_empty());
        assert_eq!(sched.occupied_groups().count(), 15);
    }

    #[test]
    fn odd_s_has_all_groups_occupied() {
        let sched = SwapSchedule::for_tiles(9);
        assert_eq!(sched.occupied_groups().count(), 9);
    }

    #[test]
    fn covers_all_pairs_properly() {
        for s in [2usize, 9, 16, 64, 100] {
            let sched = SwapSchedule::for_tiles(s);
            assert_eq!(sched.pair_count(), s * (s - 1) / 2, "S={s}");
            assert!(is_proper_coloring(&sched.groups(), s));
            assert!(is_exact_cover(&sched.groups(), s));
        }
    }

    #[test]
    fn groups_equal_the_materialized_circle_method() {
        // The closed form is the circle method itself: group r holds the
        // same pairs, in the same group order, as `complete_graph_coloring`.
        for s in (0usize..=70).chain([255, 256, 1023, 1024]) {
            let mut closed = SwapSchedule::for_tiles(s).groups();
            closed.iter_mut().for_each(|g| g.sort_unstable());
            let mut circle = complete_graph_coloring(s);
            circle.resize(s, Vec::new());
            assert_eq!(closed, circle, "S={s}");
        }
    }

    #[test]
    fn pair_ranges_slice_a_group_in_order() {
        for s in [20usize, 21] {
            let sched = SwapSchedule::for_tiles(s);
            for group in sched.occupied_groups() {
                assert_eq!(group.pairs(4..4).count(), 0);
                assert_eq!(group.pairs(0..0).count(), 0);
                let all: Vec<_> = group.pairs(0..group.len()).collect();
                let split: Vec<_> = group
                    .pairs(0..3)
                    .chain(group.pairs(3..group.len()))
                    .collect();
                assert_eq!(all, split);
                assert_eq!(all.len(), 10);
            }
        }
    }

    #[test]
    #[should_panic(expected = "past a group")]
    fn pair_range_past_the_group_panics() {
        let group = SwapSchedule::for_tiles(8).occupied_groups().next().unwrap();
        let _ = group.pairs(0..5);
    }

    /// Size of the largest group: the paper's per-kernel parallelism.
    fn max_group_len(sched: &SwapSchedule) -> usize {
        sched.occupied_groups().map(|g| g.len()).max().unwrap_or(0)
    }

    #[test]
    fn max_group_len_is_floor_s_over_2() {
        assert_eq!(max_group_len(&SwapSchedule::for_tiles(16)), 8);
        assert_eq!(max_group_len(&SwapSchedule::for_tiles(9)), 4);
        assert_eq!(max_group_len(&SwapSchedule::for_tiles(1)), 0);
    }

    #[test]
    fn degenerate_single_tile() {
        let sched = SwapSchedule::for_tiles(1);
        assert_eq!(sched.groups().len(), 1);
        assert_eq!(sched.pair_count(), 0);
    }

    #[test]
    fn paper_scale_s_4096_is_valid() {
        // S = 64 x 64, the paper's largest configuration.
        let sched = SwapSchedule::for_tiles(4096);
        assert_eq!(sched.pair_count(), 4096 * 4095 / 2);
        assert_eq!(max_group_len(&sched), 2048);
        assert!(is_proper_coloring(&sched.groups(), 4096));
    }
}
