//! Global-memory buffers.
//!
//! CUDA global memory is visible to all blocks; within one kernel launch,
//! concurrent accesses to the same word are only well-defined through
//! atomics. [`GlobalBuffer`] reproduces exactly that contract in safe
//! Rust: a `Vec` of relaxed atomics with plain `load`/`store` word access,
//! convertible back to a `Vec<T>` once the launch has completed (the
//! kernel-boundary barrier re-establishes exclusive ownership).

use std::sync::atomic::{AtomicI64, AtomicU32, AtomicUsize, Ordering};

/// Marker trait for element types [`GlobalBuffer`] supports.
pub trait GlobalWord: Copy {
    /// The backing atomic cell.
    type Atomic: Sync + Send;
    /// Wrap a value.
    fn wrap(v: Self) -> Self::Atomic;
    /// Relaxed load.
    fn load(a: &Self::Atomic) -> Self;
    /// Relaxed store.
    fn store(a: &Self::Atomic, v: Self);
    /// Relaxed fetch-add (CUDA `atomicAdd`), returning the previous value.
    /// Wraps on overflow, like the hardware instruction.
    fn fetch_add(a: &Self::Atomic, v: Self) -> Self;
}

macro_rules! impl_word {
    ($ty:ty, $atomic:ty) => {
        impl GlobalWord for $ty {
            type Atomic = $atomic;
            #[inline]
            fn wrap(v: Self) -> Self::Atomic {
                <$atomic>::new(v)
            }
            #[inline]
            fn load(a: &Self::Atomic) -> Self {
                a.load(Ordering::Relaxed)
            }
            #[inline]
            fn store(a: &Self::Atomic, v: Self) {
                a.store(v, Ordering::Relaxed)
            }
            #[inline]
            fn fetch_add(a: &Self::Atomic, v: Self) -> Self {
                a.fetch_add(v, Ordering::Relaxed)
            }
        }
    };
}

impl_word!(u32, AtomicU32);
impl_word!(i64, AtomicI64);
impl_word!(usize, AtomicUsize);

/// A device-global array of words with relaxed atomic access.
#[derive(Debug)]
pub struct GlobalBuffer<T: GlobalWord> {
    cells: Vec<T::Atomic>,
}

impl<T: GlobalWord> GlobalBuffer<T> {
    /// Upload a host vector to the device.
    pub fn from_vec(values: Vec<T>) -> Self {
        GlobalBuffer {
            cells: values.into_iter().map(T::wrap).collect(),
        }
    }

    /// Allocate `len` words initialized to `fill`.
    pub fn filled(len: usize, fill: T) -> Self {
        GlobalBuffer {
            cells: (0..len).map(|_| T::wrap(fill)).collect(),
        }
    }

    /// Word count.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Relaxed word load.
    ///
    /// # Panics
    /// Panics on out-of-range index.
    #[inline]
    pub fn load(&self, index: usize) -> T {
        T::load(&self.cells[index])
    }

    /// Relaxed word store.
    ///
    /// # Panics
    /// Panics on out-of-range index.
    #[inline]
    pub fn store(&self, index: usize, value: T) {
        T::store(&self.cells[index], value)
    }

    /// Relaxed atomic add (CUDA `atomicAdd`); returns the previous value.
    ///
    /// # Panics
    /// Panics on out-of-range index.
    #[inline]
    pub fn fetch_add(&self, index: usize, value: T) -> T {
        T::fetch_add(&self.cells[index], value)
    }

    /// Download the buffer back to a host vector (requires exclusive
    /// ownership — i.e. all launches touching it have completed). Each
    /// atomic word has its plain word's size and alignment, so the
    /// collect reuses the buffer's allocation instead of copying it.
    pub fn into_vec(self) -> Vec<T> {
        self.cells.into_iter().map(|c| T::load(&c)).collect()
    }

    /// Copy the buffer to a host vector without consuming it.
    pub fn to_vec(&self) -> Vec<T> {
        self.cells.iter().map(|c| T::load(c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upload_download_roundtrip() {
        let buf = GlobalBuffer::from_vec(vec![1u32, 2, 3]);
        assert_eq!(buf.len(), 3);
        assert!(!buf.is_empty());
        assert_eq!(buf.to_vec(), vec![1, 2, 3]);
        assert_eq!(buf.into_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn load_store() {
        let buf = GlobalBuffer::filled(4, 0i64);
        buf.store(2, -7);
        assert_eq!(buf.load(2), -7);
        assert_eq!(buf.load(0), 0);
    }

    #[test]
    fn usize_words() {
        let buf = GlobalBuffer::from_vec(vec![5usize, 6]);
        buf.store(0, 9);
        assert_eq!(buf.into_vec(), vec![9, 6]);
    }

    #[test]
    fn fetch_add_accumulates_under_contention() {
        // The classic GPU histogram pattern: many threads atomicAdd into
        // shared bins.
        let bins = GlobalBuffer::filled(4, 0u32);
        std::thread::scope(|s| {
            for t in 0..8 {
                let bins = &bins;
                s.spawn(move || {
                    for i in 0..1000 {
                        let prev = bins.fetch_add((t + i) % 4, 1);
                        let _ = prev;
                    }
                });
            }
        });
        assert_eq!(bins.to_vec().iter().sum::<u32>(), 8000);
        assert_eq!(bins.to_vec(), vec![2000; 4]);
    }

    #[test]
    fn fetch_add_returns_previous_value() {
        let buf = GlobalBuffer::filled(1, 10i64);
        assert_eq!(buf.fetch_add(0, 5), 10);
        assert_eq!(buf.load(0), 15);
    }

    #[test]
    fn concurrent_stores_from_scoped_threads() {
        let buf = GlobalBuffer::filled(64, 0u32);
        std::thread::scope(|s| {
            for t in 0..4 {
                let buf = &buf;
                s.spawn(move || {
                    for i in (t..64).step_by(4) {
                        buf.store(i, i as u32);
                    }
                });
            }
        });
        assert_eq!(buf.to_vec(), (0..64).collect::<Vec<u32>>());
    }

    #[test]
    #[should_panic]
    fn out_of_range_load_panics() {
        let buf = GlobalBuffer::filled(1, 0u32);
        let _ = buf.load(1);
    }
}
