//! AVX2 SAD/SSD kernels: 32-byte lanes, with a 16-byte SSE step for
//! mid-size tails.
//!
//! SAD rides `_mm256_sad_epu8`, which sums the absolute differences of
//! each 8-byte group into a u64 lane; the lanes accumulate losslessly in
//! `_mm256_add_epi64`. SSD takes the byte absolute difference with the
//! saturating-subtract-both-ways idiom, widens it to u16 and squares
//! pairwise with `_mm256_madd_epi16` into i32 lanes, which drain to a
//! `u64` total before they can overflow. Rows between 16 and 31 bytes
//! past the last 32-byte chunk (e.g. the 16-byte gray rows of an M=16
//! tile) are handled with one 128-bit step before the scalar tail, so
//! short tile edges still vectorize under the AVX2 table.
//!
//! Every wide load reads a `chunks_exact` window or an
//! explicitly-length-checked prefix — never past the row end — and the
//! final ragged bytes go through the scalar oracle, keeping results
//! bit-identical to [`super::scalar`].

use core::arch::x86_64::*;

/// How many 32-byte chunks the SSD i32 accumulator may absorb before a
/// drain. Each chunk adds at most 2 × (255² + 255²) = 260 100 per lane;
/// 4096 × 260 100 ≈ 1.07e9 stays well under `i32::MAX` ≈ 2.15e9.
const SSD_DRAIN_CHUNKS: usize = 4096;

/// Sum of absolute byte differences, 32 bytes per step.
///
/// # Safety
/// The CPU must support AVX2 (the dispatch table in [`super::Kernels`]
/// verifies this with `is_x86_feature_detected!` before installing this
/// function) and `a.len()` must equal `b.len()`.
// SAFETY: loads read only `chunks_exact(32)` windows or a length-checked
// 16-byte prefix; sub-16-byte tails use the scalar oracle. Caller proves AVX2.
#[target_feature(enable = "avx2")]
pub unsafe fn sad(a: &[u8], b: &[u8]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    let chunks_a = a.chunks_exact(32);
    let chunks_b = b.chunks_exact(32);
    let mut rem_a = chunks_a.remainder();
    let mut rem_b = chunks_b.remainder();
    let mut acc = _mm256_setzero_si256();
    for (ca, cb) in chunks_a.zip(chunks_b) {
        let va = _mm256_loadu_si256(ca.as_ptr().cast::<__m256i>());
        let vb = _mm256_loadu_si256(cb.as_ptr().cast::<__m256i>());
        acc = _mm256_add_epi64(acc, _mm256_sad_epu8(va, vb));
    }
    // Four nonnegative u64 partial sums; the casts are value-preserving.
    let mut total = _mm256_extract_epi64(acc, 0) as u64
        + _mm256_extract_epi64(acc, 1) as u64
        + _mm256_extract_epi64(acc, 2) as u64
        + _mm256_extract_epi64(acc, 3) as u64;
    if rem_a.len() >= 16 {
        let va = _mm_loadu_si128(rem_a.as_ptr().cast::<__m128i>());
        let vb = _mm_loadu_si128(rem_b.as_ptr().cast::<__m128i>());
        let s = _mm_sad_epu8(va, vb);
        total += _mm_extract_epi64(s, 0) as u64 + _mm_extract_epi64(s, 1) as u64;
        rem_a = &rem_a[16..];
        rem_b = &rem_b[16..];
    }
    total + super::scalar::sad(rem_a, rem_b)
}

/// Sum of squared byte differences, 32 bytes per step.
///
/// # Safety
/// Same contract as [`sad`]: AVX2 must be available (checked by the
/// dispatch table before this address is taken) and the rows must have
/// equal lengths.
// SAFETY: loads read only `chunks_exact(32)` windows or a length-checked
// 16-byte prefix; the i32 accumulator drains every SSD_DRAIN_CHUNKS chunks.
#[target_feature(enable = "avx2")]
pub unsafe fn ssd(a: &[u8], b: &[u8]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    let chunks_a = a.chunks_exact(32);
    let chunks_b = b.chunks_exact(32);
    let mut rem_a = chunks_a.remainder();
    let mut rem_b = chunks_b.remainder();
    let mut total = 0u64;
    let mut acc32 = _mm256_setzero_si256();
    let mut pending = 0usize;
    for (ca, cb) in chunks_a.zip(chunks_b) {
        let va = _mm256_loadu_si256(ca.as_ptr().cast::<__m256i>());
        let vb = _mm256_loadu_si256(cb.as_ptr().cast::<__m256i>());
        // |a - b| per byte: saturating subtraction in both directions,
        // one of which is zero, OR-ed together.
        let d = _mm256_or_si256(_mm256_subs_epu8(va, vb), _mm256_subs_epu8(vb, va));
        let lo = _mm256_cvtepu8_epi16(_mm256_castsi256_si128(d));
        let hi = _mm256_cvtepu8_epi16(_mm256_extracti128_si256(d, 1));
        acc32 = _mm256_add_epi32(acc32, _mm256_madd_epi16(lo, lo));
        acc32 = _mm256_add_epi32(acc32, _mm256_madd_epi16(hi, hi));
        pending += 1;
        if pending == SSD_DRAIN_CHUNKS {
            total += hsum_epi32_256(acc32);
            acc32 = _mm256_setzero_si256();
            pending = 0;
        }
    }
    total += hsum_epi32_256(acc32);
    if rem_a.len() >= 16 {
        let va = _mm_loadu_si128(rem_a.as_ptr().cast::<__m128i>());
        let vb = _mm_loadu_si128(rem_b.as_ptr().cast::<__m128i>());
        let d = _mm_or_si128(_mm_subs_epu8(va, vb), _mm_subs_epu8(vb, va));
        let lo = _mm_cvtepu8_epi16(d);
        let hi = _mm_cvtepu8_epi16(_mm_srli_si128::<8>(d));
        let sq = _mm_add_epi32(_mm_madd_epi16(lo, lo), _mm_madd_epi16(hi, hi));
        total += _mm_extract_epi32(sq, 0) as u64
            + _mm_extract_epi32(sq, 1) as u64
            + _mm_extract_epi32(sq, 2) as u64
            + _mm_extract_epi32(sq, 3) as u64;
        rem_a = &rem_a[16..];
        rem_b = &rem_b[16..];
    }
    total + super::scalar::ssd(rem_a, rem_b)
}

/// Horizontal sum of eight nonnegative i32 lanes into u64.
///
/// # Safety
/// Requires AVX2; only called from the AVX2 kernels above, so the
/// feature is already proven available.
// SAFETY: pure register arithmetic, no memory access; lanes are sums of
// squares, hence nonnegative, so widening to u64 preserves the value.
#[target_feature(enable = "avx2")]
unsafe fn hsum_epi32_256(v: __m256i) -> u64 {
    let lo = _mm256_castsi256_si128(v);
    let hi = _mm256_extracti128_si256(v, 1);
    let wide = _mm256_add_epi64(_mm256_cvtepu32_epi64(lo), _mm256_cvtepu32_epi64(hi));
    _mm256_extract_epi64(wide, 0) as u64
        + _mm256_extract_epi64(wide, 1) as u64
        + _mm256_extract_epi64(wide, 2) as u64
        + _mm256_extract_epi64(wide, 3) as u64
}
