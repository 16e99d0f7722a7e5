//! The dense S×S error matrix of Step 2.
//!
//! Entry `(u, v)` holds `E(I_u, T_v)`: the error of placing input tile `u`
//! at target position `v`. Entries are `u32` (the metric layer proves the
//! bound fits; see [`crate::metric::TileMetric::max_tile_error`]); totals
//! over an assignment are accumulated in `u64`.

use std::fmt;

/// Dense square matrix of tile errors.
#[derive(Clone, PartialEq, Eq)]
pub struct ErrorMatrix {
    size: usize,
    data: Vec<u32>,
}

impl ErrorMatrix {
    /// Zero matrix of dimension `size × size`.
    ///
    /// # Panics
    /// Panics when `size == 0`.
    pub fn zeros(size: usize) -> Self {
        assert!(size > 0, "error matrix must be non-empty");
        ErrorMatrix {
            size,
            data: vec![0; size * size],
        }
    }

    /// Wrap an existing row-major buffer.
    ///
    /// # Panics
    /// Panics when `data.len() != size * size` or `size == 0`.
    pub fn from_vec(size: usize, data: Vec<u32>) -> Self {
        assert!(size > 0, "error matrix must be non-empty");
        assert_eq!(
            data.len(),
            size * size,
            "buffer length {} does not match {size}x{size}",
            data.len()
        );
        ErrorMatrix { size, data }
    }

    /// Matrix dimension `S`.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// `E(I_u, T_v)`.
    ///
    /// # Panics
    /// Panics on out-of-range indices.
    #[inline]
    pub fn get(&self, input_tile: usize, target_pos: usize) -> u32 {
        assert!(
            input_tile < self.size && target_pos < self.size,
            "({input_tile},{target_pos}) out of range for S={}",
            self.size
        );
        self.data[input_tile * self.size + target_pos]
    }

    /// Set `E(I_u, T_v)`.
    ///
    /// # Panics
    /// Panics on out-of-range indices.
    #[inline]
    pub fn set(&mut self, input_tile: usize, target_pos: usize, value: u32) {
        assert!(
            input_tile < self.size && target_pos < self.size,
            "({input_tile},{target_pos}) out of range for S={}",
            self.size
        );
        self.data[input_tile * self.size + target_pos] = value;
    }

    /// Row `u`: the errors of input tile `u` against every target position.
    #[inline]
    pub fn row(&self, input_tile: usize) -> &[u32] {
        assert!(input_tile < self.size, "row {input_tile} out of range");
        &self.data[input_tile * self.size..(input_tile + 1) * self.size]
    }

    /// Mutable row `u`.
    #[inline]
    pub fn row_mut(&mut self, input_tile: usize) -> &mut [u32] {
        assert!(input_tile < self.size, "row {input_tile} out of range");
        &mut self.data[input_tile * self.size..(input_tile + 1) * self.size]
    }

    /// Raw row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        &self.data
    }

    /// Total error of an assignment: `assignment[v] = u` means input tile
    /// `u` is placed at target position `v` (the paper's Eq. 2).
    ///
    /// # Panics
    /// Panics when `assignment.len() != S` or any entry is out of range.
    pub fn assignment_total(&self, assignment: &[usize]) -> u64 {
        assert_eq!(
            assignment.len(),
            self.size,
            "assignment length must equal S"
        );
        assignment
            .iter()
            .enumerate()
            .map(|(v, &u)| u64::from(self.get(u, v)))
            .sum()
    }

    /// The gain (error reduction, possibly negative) of swapping the input
    /// tiles at target positions `p` and `q` under `assignment`.
    ///
    /// Positive gain means the swap strictly reduces the paper's Eq. (2)
    /// total — the condition on line 4 of Algorithms 1 and 2.
    #[inline]
    pub fn swap_gain(&self, assignment: &[usize], p: usize, q: usize) -> i64 {
        let u = assignment[p];
        let v = assignment[q];
        let before = i64::from(self.get(u, p)) + i64::from(self.get(v, q));
        let after = i64::from(self.get(v, p)) + i64::from(self.get(u, q));
        before - after
    }
}

impl fmt::Debug for ErrorMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ErrorMatrix({0}x{0})", self.size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ErrorMatrix {
        // 3x3: E(u,v) = 10u + v
        ErrorMatrix::from_vec(3, vec![0, 1, 2, 10, 11, 12, 20, 21, 22])
    }

    #[test]
    fn get_set_row() {
        let mut m = small();
        assert_eq!(m.get(1, 2), 12);
        assert_eq!(m.row(2), &[20, 21, 22]);
        m.set(0, 0, 99);
        assert_eq!(m.get(0, 0), 99);
        m.row_mut(1)[1] = 7;
        assert_eq!(m.get(1, 1), 7);
    }

    #[test]
    fn zeros_is_all_zero() {
        let m = ErrorMatrix::zeros(4);
        assert_eq!(m.size(), 4);
        assert!(m.as_slice().iter().all(|&v| v == 0));
    }

    #[test]
    fn assignment_total_identity_and_reverse() {
        let m = small();
        // identity: E(0,0)+E(1,1)+E(2,2) = 0+11+22
        assert_eq!(m.assignment_total(&[0, 1, 2]), 33);
        // reversed: E(2,0)+E(1,1)+E(0,2) = 20+11+2
        assert_eq!(m.assignment_total(&[2, 1, 0]), 33);
    }

    #[test]
    fn swap_gain_matches_totals() {
        let m = ErrorMatrix::from_vec(2, vec![0, 5, 9, 1]);
        // assignment [1,0]: tile 1 at pos 0, tile 0 at pos 1.
        let a = [1usize, 0usize];
        let before = m.assignment_total(&a);
        let after = m.assignment_total(&[0, 1]);
        let gain = m.swap_gain(&a, 0, 1);
        assert_eq!(gain, before as i64 - after as i64);
        assert_eq!(gain, (9 + 5) - 1);
    }

    #[test]
    fn swap_gain_zero_for_same_tile_pairing() {
        let m = small();
        // Swapping positions holding the same relative structure can still
        // be zero-gain: identical rows.
        let m2 = ErrorMatrix::from_vec(2, vec![3, 3, 3, 3]);
        assert_eq!(m2.swap_gain(&[0, 1], 0, 1), 0);
        let _ = m;
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let _ = small().get(3, 0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_wrong_len_panics() {
        let _ = ErrorMatrix::from_vec(2, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_size_panics() {
        let _ = ErrorMatrix::zeros(0);
    }

    #[test]
    #[should_panic(expected = "length must equal")]
    fn assignment_total_wrong_len_panics() {
        let _ = small().assignment_total(&[0, 1]);
    }
}
