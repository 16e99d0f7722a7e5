//! Property-based tests for the tiling substrate, driven by the
//! deterministic [`mosaic_image::testutil`] PRNG (ported from the former
//! `proptest` suite; every case reproduces from the printed seed).

use mosaic_grid::{
    assemble, build_error_matrix, build_error_matrix_threaded_bounded_in, tile_error_scalar,
    Deadline, ErrorMatrix, TileLayout, TileMetric,
};
use mosaic_image::testutil::{gray_image, XorShift};
use mosaic_image::{metrics, Gray, Image};

const SEEDS: u64 = 24;

/// A random square image whose size is `tiles * tile` for small factors.
fn arb_tiled_image(rng: &mut XorShift) -> (Image<Gray>, TileLayout) {
    let tiles = rng.range(1, 4);
    let tile = rng.range(2, 6);
    let n = tiles * tile;
    (gray_image(rng, n, n), TileLayout::new(n, tile).unwrap())
}

/// Two same-layout random images.
fn arb_image_pair(rng: &mut XorShift) -> (Image<Gray>, Image<Gray>, TileLayout) {
    let tiles = rng.range(1, 4);
    let tile = rng.range(2, 5);
    let n = tiles * tile;
    (
        gray_image(rng, n, n),
        gray_image(rng, n, n),
        TileLayout::new(n, tile).unwrap(),
    )
}

#[test]
fn tile_views_partition_the_image() {
    // Every pixel appears exactly once across tile views.
    for seed in 0..SEEDS {
        let mut rng = XorShift::new(seed);
        let (img, layout) = arb_tiled_image(&mut rng);
        let mut count = vec![0u32; img.pixels().len()];
        let n = layout.image_size();
        for i in 0..layout.tile_count() {
            let (x0, y0) = layout.tile_origin(i);
            for y in 0..layout.tile_size() {
                for x in 0..layout.tile_size() {
                    count[(y0 + y) * n + (x0 + x)] += 1;
                }
            }
        }
        assert!(count.iter().all(|&c| c == 1), "seed {seed}");
    }
}

#[test]
fn identity_assembly_is_identity() {
    for seed in 0..SEEDS {
        let mut rng = XorShift::new(seed);
        let (img, layout) = arb_tiled_image(&mut rng);
        let ident: Vec<usize> = (0..layout.tile_count()).collect();
        assert_eq!(assemble(&img, layout, &ident).unwrap(), img, "seed {seed}");
    }
}

#[test]
fn assembly_is_invertible() {
    // Applying a permutation then its inverse restores the image.
    for seed in 0..SEEDS {
        let mut rng = XorShift::new(seed);
        let (img, layout) = arb_tiled_image(&mut rng);
        let s = layout.tile_count();
        let perm = rng.permutation(s);
        let mut inverse = vec![0usize; s];
        for (v, &u) in perm.iter().enumerate() {
            inverse[u] = v;
        }
        let once = assemble(&img, layout, &perm).unwrap();
        let twice = assemble(&once, layout, &inverse).unwrap();
        assert_eq!(twice, img, "seed {seed}");
    }
}

#[test]
fn matrix_total_equals_assembled_sad() {
    for seed in 0..SEEDS {
        let mut rng = XorShift::new(seed);
        let (input, target, layout) = arb_image_pair(&mut rng);
        let m = build_error_matrix(&input, &target, layout, TileMetric::Sad).unwrap();
        let s = layout.tile_count();
        let assignment = rng.permutation(s);
        let rearranged = assemble(&input, layout, &assignment).unwrap();
        assert_eq!(
            metrics::sad(&rearranged, &target),
            m.assignment_total(&assignment),
            "seed {seed}"
        );
    }
}

#[test]
fn threaded_builder_matches_serial() {
    for seed in 0..SEEDS {
        let mut rng = XorShift::new(seed);
        let (input, target, layout) = arb_image_pair(&mut rng);
        let threads = rng.range(1, 7);
        for metric in TileMetric::ALL {
            let serial = build_error_matrix(&input, &target, layout, metric).unwrap();
            let par = build_error_matrix_threaded_bounded_in(
                mosaic_pool::global(),
                &input,
                &target,
                layout,
                metric,
                threads,
                &Deadline::NONE,
            )
            .unwrap();
            assert_eq!(serial, par, "seed {seed} metric {metric:?}");
        }
    }
}

#[test]
fn swap_gain_consistent_with_totals() {
    for seed in 0..SEEDS {
        let mut rng = XorShift::new(seed);
        let s = rng.range(1, 8);
        let perm = rng.permutation(s);
        let data: Vec<u32> = (0..s * s).map(|_| rng.next_u32() % 10_000).collect();
        let m = ErrorMatrix::from_vec(s, data);
        for p in 0..s {
            for q in (p + 1)..s {
                let mut swapped = perm.clone();
                swapped.swap(p, q);
                let gain = m.swap_gain(&perm, p, q);
                assert_eq!(
                    gain,
                    m.assignment_total(&perm) as i64 - m.assignment_total(&swapped) as i64,
                    "seed {seed} pair ({p},{q})"
                );
            }
        }
    }
}

#[test]
fn sad_tile_error_bounded_by_metric_bound() {
    for seed in 0..SEEDS {
        let mut rng = XorShift::new(seed);
        let (input, target, layout) = arb_image_pair(&mut rng);
        let bound = TileMetric::Sad.max_tile_error::<Gray>(layout.pixels_per_tile());
        for u in 0..layout.tile_count() {
            for v in 0..layout.tile_count() {
                let e = tile_error_scalar(
                    &layout.tile_view(&input, u),
                    &layout.tile_view(&target, v),
                    TileMetric::Sad,
                );
                assert!(e <= bound, "seed {seed}");
            }
        }
    }
}
