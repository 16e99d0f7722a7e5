//! Differential tests pinning the SIMD SAD/SSD kernels to the scalar
//! oracle.
//!
//! The kernel layer's correctness claim is exact: for every input, the
//! dispatched table (AVX2 when the host has it) returns
//! **bit-identical** sums to the scalar reference. These tests drive
//! that claim with the workspace's deterministic xorshift generator
//! across every tile-edge length the pipeline can produce — including
//! every ragged tail shorter than a 16/32-byte lane — for gray and RGB
//! pixels, and through the non-contiguous `ImageView` row path.

use mosaic_image::kernel::{self, Kernels, SimdLevel};
use mosaic_image::testutil::XorShift;
use mosaic_image::{Gray, Image, Pixel, Rgb};

/// Tile edges from the issue: every length in 1..=33 (covers all tail
/// residues mod 16 and mod 32 on both sides of a lane boundary), one
/// mid-size row, and one 255-byte row (odd, just under 16×16).
const EDGES: &[usize] = &[
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26,
    27, 28, 29, 30, 31, 32, 33, 64, 255,
];

fn random_row(rng: &mut XorShift, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u8()).collect()
}

/// Every kernel table the host can build, dispatched one included.
fn all_tables() -> Vec<Kernels> {
    let mut tables = vec![*Kernels::scalar(), *kernel::active()];
    tables.extend(Kernels::avx2());
    tables
}

#[test]
fn byte_rows_all_tables_match_oracle_across_edges() {
    let oracle = Kernels::scalar();
    let tables = all_tables();
    let mut rng = XorShift::new(0x51AD_C0DE);
    for &edge in EDGES {
        // Both a raw row of `edge` bytes and an RGB-shaped row of 3×edge.
        for len in [edge, edge * 3] {
            for seed_round in 0..4 {
                let a = random_row(&mut rng, len);
                let b = random_row(&mut rng, len);
                let want_sad = oracle.sad(&a, &b);
                let want_ssd = oracle.ssd(&a, &b);
                for k in &tables {
                    assert_eq!(
                        k.sad(&a, &b),
                        want_sad,
                        "sad {:?} len {len} round {seed_round}",
                        k.level()
                    );
                    assert_eq!(
                        k.ssd(&a, &b),
                        want_ssd,
                        "ssd {:?} len {len} round {seed_round}",
                        k.level()
                    );
                }
            }
        }
    }
}

#[test]
fn extreme_rows_match_oracle_at_every_edge() {
    let oracle = Kernels::scalar();
    for &edge in EDGES {
        let black = vec![0u8; edge];
        let white = vec![255u8; edge];
        for k in all_tables() {
            assert_eq!(k.sad(&black, &white), oracle.sad(&black, &white));
            assert_eq!(k.ssd(&black, &white), oracle.ssd(&black, &white));
            assert_eq!(k.sad(&white, &white), 0);
            assert_eq!(k.ssd(&black, &black), 0);
        }
    }
}

/// Long rows exercise the SSD accumulator-drain path (> 4096 chunks of
/// worst-case 255-byte differences must not overflow the i32 lanes).
#[test]
fn long_worst_case_rows_do_not_overflow() {
    let len = 5000 * 32 + 7;
    let black = vec![0u8; len];
    let white = vec![255u8; len];
    let want_sad = len as u64 * 255;
    let want_ssd = len as u64 * 255 * 255;
    for k in all_tables() {
        assert_eq!(k.sad(&black, &white), want_sad, "{:?}", k.level());
        assert_eq!(k.ssd(&black, &white), want_ssd, "{:?}", k.level());
    }
}

fn random_gray(rng: &mut XorShift, size: usize) -> Image<Gray> {
    Image::from_fn(size, size, |_, _| Gray(rng.next_u8())).unwrap()
}

fn random_rgb(rng: &mut XorShift, size: usize) -> Image<Rgb> {
    Image::from_fn(size, size, |_, _| {
        Rgb::new(rng.next_u8(), rng.next_u8(), rng.next_u8())
    })
    .unwrap()
}

/// Scalar SAD between two views, written against the pixel API (no
/// kernel involvement at all) — the end-to-end oracle for `ImageView`.
fn view_sad_reference<P: Pixel>(
    a: &mosaic_image::ImageView<'_, P>,
    b: &mosaic_image::ImageView<'_, P>,
) -> u64 {
    let mut total = 0u64;
    for y in 0..a.height() {
        for (pa, pb) in a.row(y).iter().zip(b.row(y)) {
            total += u64::from(pa.abs_diff(pb));
        }
    }
    total
}

/// Non-contiguous subviews: interior windows whose rows are slices of a
/// wider parent, at every edge size (and misaligned offsets), for gray
/// and RGB. `ImageView::sad` dispatches per row; it must equal the pure
/// pixel-API loop exactly.
#[test]
fn noncontiguous_subview_sad_matches_pixel_reference() {
    let mut rng = XorShift::new(0xD1FF_ED6E);
    for &edge in &[1usize, 3, 5, 8, 13, 16, 17, 31, 32, 33] {
        let parent = edge + 7; // wider than the window → rows not contiguous
        let ga = random_gray(&mut rng, parent);
        let gb = random_gray(&mut rng, parent);
        let va = ga.view(3, 1, edge, edge).unwrap();
        let vb = gb.view(1, 5, edge, edge).unwrap();
        assert_eq!(
            va.sad(&vb),
            view_sad_reference(&va, &vb),
            "gray edge {edge}"
        );

        let ca = random_rgb(&mut rng, parent);
        let cb = random_rgb(&mut rng, parent);
        let va = ca.view(2, 4, edge, edge).unwrap();
        let vb = cb.view(5, 0, edge, edge).unwrap();
        assert_eq!(va.sad(&vb), view_sad_reference(&va, &vb), "rgb edge {edge}");
    }
}

/// Whole-image metric entry point against the pixel-API reference.
#[test]
fn image_metrics_sad_matches_pixel_reference() {
    let mut rng = XorShift::new(0xBEEF);
    for &size in &[1usize, 7, 16, 33] {
        let a = random_gray(&mut rng, size);
        let b = random_gray(&mut rng, size);
        let reference = view_sad_reference(&a.full_view(), &b.full_view());
        assert_eq!(mosaic_image::metrics::sad(&a, &b), reference);

        let a = random_rgb(&mut rng, size);
        let b = random_rgb(&mut rng, size);
        let reference = view_sad_reference(&a.full_view(), &b.full_view());
        assert_eq!(mosaic_image::metrics::sad(&a, &b), reference);
    }
}

/// On x86_64 the dispatched table must agree with whatever explicit
/// table its level names (AVX2 in practice, scalar without it).
#[test]
#[cfg(target_arch = "x86_64")]
fn dispatched_table_matches_its_explicit_constructor() {
    let active = kernel::active();
    let same = match active.level() {
        SimdLevel::Scalar => *Kernels::scalar(),
        SimdLevel::Avx2 => Kernels::avx2().expect("dispatched avx2 must be constructible"),
    };
    let mut rng = XorShift::new(7);
    let a = random_row(&mut rng, 1021);
    let b = random_row(&mut rng, 1021);
    assert_eq!(active.sad(&a, &b), same.sad(&a, &b));
    assert_eq!(active.ssd(&a, &b), same.ssd(&a, &b));
}

/// Off x86_64 there is nothing to dispatch to: the cached table must be
/// the scalar oracle itself, so every other test in this file still
/// exercises the oracle path on such hosts.
#[test]
#[cfg(not(target_arch = "x86_64"))]
fn off_x86_dispatch_is_the_scalar_oracle() {
    assert_eq!(kernel::active().level(), SimdLevel::Scalar);
    assert!(Kernels::avx2().is_none());
}
