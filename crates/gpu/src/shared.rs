//! Per-block shared memory.
//!
//! CUDA shared memory is a small, fast, per-block scratchpad. The
//! simulator gives every block a [`SharedMem`] arena; allocations are
//! checked against the device's per-block capacity so kernels that would
//! not fit on the real hardware fail loudly here too (the paper's Step-2
//! kernel stages one `M×M` input tile in shared memory, which fits the
//! K40's 48 KB for every configuration in the evaluation).

/// Shared-memory byte arena for one block.
#[derive(Debug)]
pub struct SharedMem {
    capacity_bytes: usize,
    used_bytes: usize,
    u8_pool: Vec<u8>,
}

impl SharedMem {
    /// Arena with the given byte capacity.
    pub fn new(capacity_bytes: usize) -> Self {
        SharedMem {
            capacity_bytes,
            used_bytes: 0,
            u8_pool: Vec::new(),
        }
    }

    /// Bytes currently allocated.
    #[inline]
    pub fn used(&self) -> usize {
        self.used_bytes
    }

    /// Byte capacity (the device's per-block limit).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity_bytes
    }

    fn charge(&mut self, bytes: usize) {
        let new_used = self.used_bytes + bytes;
        assert!(
            new_used <= self.capacity_bytes,
            "shared memory overflow: {new_used} bytes requested, {} available",
            self.capacity_bytes
        );
        self.used_bytes = new_used;
    }

    /// Allocate a zeroed `u8` scratch buffer.
    ///
    /// Only one buffer may be live at a time (the arena hands out the
    /// whole pool); kernels needing several regions should slice it.
    ///
    /// # Panics
    /// Panics when the allocation exceeds the device capacity.
    pub fn alloc_u8(&mut self, len: usize) -> &mut [u8] {
        self.charge(len);
        self.u8_pool.resize(self.u8_pool.len() + len, 0);
        let start = self.u8_pool.len() - len;
        &mut self.u8_pool[start..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_zeroed_and_sized() {
        let mut sm = SharedMem::new(1024);
        let buf = sm.alloc_u8(100);
        assert_eq!(buf.len(), 100);
        assert!(buf.iter().all(|&b| b == 0));
        buf[0] = 42;
        assert_eq!(sm.used(), 100);
    }

    #[test]
    fn allocations_charge_bytes() {
        let mut sm = SharedMem::new(100);
        let _ = sm.alloc_u8(40);
        let _ = sm.alloc_u8(56);
        assert_eq!(sm.used(), 96);
    }

    #[test]
    #[should_panic(expected = "shared memory overflow")]
    fn overflow_panics() {
        let mut sm = SharedMem::new(64);
        let _ = sm.alloc_u8(72);
    }

    #[test]
    fn sequential_allocations_are_disjoint() {
        let mut sm = SharedMem::new(1024);
        let a = sm.alloc_u8(4);
        a.fill(1);
        let b = sm.alloc_u8(4);
        assert!(b.iter().all(|&v| v == 0));
    }

    #[test]
    fn k40_tile_staging_fits() {
        // The paper's largest tile is M = 128 (N = 2048, S = 16x16):
        // 128 * 128 = 16384 bytes < 48 KB.
        let mut sm = SharedMem::new(48 * 1024);
        let tile = sm.alloc_u8(128 * 128);
        assert_eq!(tile.len(), 16384);
    }
}
