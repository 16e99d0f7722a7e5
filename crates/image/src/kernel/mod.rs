//! Runtime-dispatched SIMD kernels for the paper's Eq.-(1) inner loop.
//!
//! The per-job dominant cost of the whole pipeline is Step 2's S×S error
//! matrix: S² tile pairs, each a sum of absolute (SAD) or squared (SSD)
//! per-byte differences over M×M pixels. This module is the single source
//! of truth for that inner loop — every consumer in the workspace
//! (`mosaic_grid::pair_error`, which every Step-2 builder including the
//! simulated-GPU kernel calls, [`crate::ImageView::sad`] and
//! [`crate::metrics::sad`]) routes
//! through one [`Kernels`] dispatch table, so the three scalar copies
//! that used to live in those call sites can no longer drift apart.
//!
//! Two implementations are provided and selected **once per process**:
//!
//! * [`scalar`] — the portable reference, kept verbatim as the test
//!   oracle, and the fallback on hosts without AVX2;
//! * [`avx2`] — 32-byte lanes via `_mm256_sad_epu8` /
//!   `_mm256_madd_epi16`, with one 16-byte step for mid-size tails.
//!
//! [`active`] performs `std::arch` feature detection on first use and
//! caches the winning table in a `OnceLock`; the service calls it at
//! server startup (publishing the `kernel_dispatch` gauge) so detection
//! never races a hot path. Both paths are bit-identical by
//! construction — the AVX2 path falls back to the scalar tail for bytes
//! past the last full lane, never read past row ends (every wide load is
//! taken from a `chunks_exact` window), and are pinned to the oracle by
//! the differential tests in `tests/simd_differential.rs`.

pub mod scalar;

#[cfg(target_arch = "x86_64")]
pub mod avx2;

use std::sync::OnceLock;

/// Which instruction set a [`Kernels`] table dispatches to.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// Portable scalar loop — the oracle, and the fallback on hosts
    /// without AVX2 (or off x86_64 entirely).
    Scalar,
    /// 256-bit AVX2 lanes (32 bytes per step).
    Avx2,
}

impl SimdLevel {
    /// Stable name for reports and traces.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }

    /// Stable numeric code for the `kernel_dispatch` gauge
    /// (0 = scalar, 2 = AVX2; code 1 is retired and never reused).
    pub fn code(self) -> u8 {
        match self {
            SimdLevel::Scalar => 0,
            SimdLevel::Avx2 => 2,
        }
    }
}

/// A resolved table of byte-row kernels.
///
/// Both entry points take two equally-long contiguous byte rows (pixel
/// rows are reinterpreted via [`crate::Pixel::row_bytes`]) and return
/// the channel-summed error in `u64` — SAD is `Σ |a_i − b_i|`, SSD is
/// `Σ (a_i − b_i)²`, exactly the scalar semantics of
/// [`crate::Pixel::abs_diff`] / [`crate::Pixel::sq_diff`] unrolled over
/// bytes.
#[derive(Copy, Clone, Debug)]
pub struct Kernels {
    level: SimdLevel,
    sad: fn(&[u8], &[u8]) -> u64,
    ssd: fn(&[u8], &[u8]) -> u64,
}

impl Kernels {
    /// The scalar oracle table. Always available, on every host; the
    /// differential tests compare every other table against this one.
    pub fn scalar() -> &'static Kernels {
        static SCALAR: Kernels = Kernels {
            level: SimdLevel::Scalar,
            sad: scalar::sad,
            ssd: scalar::ssd,
        };
        &SCALAR
    }

    /// The AVX2 table, when this host supports it.
    pub fn avx2() -> Option<Kernels> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(Kernels {
                level: SimdLevel::Avx2,
                sad: sad_avx2,
                ssd: ssd_avx2,
            });
        }
        None
    }

    /// Detect the table this host runs: AVX2, else scalar.
    pub fn detect() -> Kernels {
        Kernels::avx2().unwrap_or(*Kernels::scalar())
    }

    /// The instruction set this table dispatches to.
    #[inline]
    pub fn level(&self) -> SimdLevel {
        self.level
    }

    /// Sum of absolute byte differences over two equally-long rows.
    ///
    /// # Panics
    /// Panics when the rows' lengths differ.
    #[inline]
    pub fn sad(&self, a: &[u8], b: &[u8]) -> u64 {
        assert_eq!(a.len(), b.len(), "kernel rows must have equal lengths");
        (self.sad)(a, b)
    }

    /// Sum of squared byte differences over two equally-long rows.
    ///
    /// # Panics
    /// Panics when the rows' lengths differ.
    #[inline]
    pub fn ssd(&self, a: &[u8], b: &[u8]) -> u64 {
        assert_eq!(a.len(), b.len(), "kernel rows must have equal lengths");
        (self.ssd)(a, b)
    }
}

/// The process-wide dispatch table: feature detection runs once, on the
/// first call, and the result is cached for the life of the process.
/// The pool/server startup paths call this eagerly so no request thread
/// ever pays the detection.
pub fn active() -> &'static Kernels {
    static TABLE: OnceLock<Kernels> = OnceLock::new();
    TABLE.get_or_init(Kernels::detect)
}

#[cfg(target_arch = "x86_64")]
fn sad_avx2(a: &[u8], b: &[u8]) -> u64 {
    // SAFETY: this fn pointer is only installed by `Kernels::avx2` after
    // `is_x86_feature_detected!("avx2")` returned true on this host, and
    // `Kernels::sad` asserted `a.len() == b.len()` before calling it.
    unsafe { avx2::sad(a, b) }
}

#[cfg(target_arch = "x86_64")]
fn ssd_avx2(a: &[u8], b: &[u8]) -> u64 {
    // SAFETY: this fn pointer is only installed by `Kernels::avx2` after
    // `is_x86_feature_detected!("avx2")` returned true on this host, and
    // `Kernels::ssd` asserted `a.len() == b.len()` before calling it.
    unsafe { avx2::ssd(a, b) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_table_is_cached_and_consistent() {
        let first = active();
        let second = active();
        assert!(std::ptr::eq(first, second));
        assert_eq!(first.level(), Kernels::detect().level());
    }

    #[test]
    fn scalar_table_reports_scalar_level() {
        assert_eq!(Kernels::scalar().level(), SimdLevel::Scalar);
        assert_eq!(Kernels::scalar().level().code(), 0);
        assert_eq!(Kernels::scalar().level().name(), "scalar");
    }

    #[test]
    fn level_codes_are_ordered_and_distinct() {
        assert!(SimdLevel::Scalar.code() < SimdLevel::Avx2.code());
        assert_ne!(SimdLevel::Scalar.name(), SimdLevel::Avx2.name());
    }

    #[test]
    fn dispatch_methods_agree_with_scalar_on_a_smoke_row() {
        let a: Vec<u8> = (0..=255).collect();
        let b: Vec<u8> = (0..=255).rev().collect();
        let k = active();
        assert_eq!(k.sad(&a, &b), Kernels::scalar().sad(&a, &b));
        assert_eq!(k.ssd(&a, &b), Kernels::scalar().ssd(&a, &b));
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn mismatched_row_lengths_panic() {
        let _ = active().sad(&[1, 2, 3], &[1, 2]);
    }

    #[test]
    #[cfg(not(target_arch = "x86_64"))]
    fn off_x86_the_dispatch_is_scalar() {
        assert_eq!(active().level(), SimdLevel::Scalar);
        assert!(Kernels::avx2().is_none());
    }
}
