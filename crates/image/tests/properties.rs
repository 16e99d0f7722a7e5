//! Property-based tests for the image substrate, driven by the
//! deterministic [`mosaic_image::testutil`] PRNG (ported from the former
//! `proptest` suite; every case reproduces from the printed seed).

use mosaic_image::histogram::{apply_lut, match_histogram, Histogram, LEVELS};
use mosaic_image::io::{read_pgm, read_ppm, write_pgm, write_pgm_ascii, write_ppm};
use mosaic_image::metrics;
use mosaic_image::pixel::{Gray, Pixel, Rgb};
use mosaic_image::resize::{resize_bilinear, resize_box};
use mosaic_image::testutil::{gray_image, rgb_image, XorShift};
use mosaic_image::Image;

const SEEDS: u64 = 32;

fn arb_gray(rng: &mut XorShift, max_side: usize) -> Image<Gray> {
    let w = rng.range(1, max_side);
    let h = rng.range(1, max_side);
    gray_image(rng, w, h)
}

#[test]
fn pgm_binary_roundtrips() {
    for seed in 0..SEEDS {
        let mut rng = XorShift::new(seed);
        let img = arb_gray(&mut rng, 24);
        let back = read_pgm(&write_pgm(&img)).unwrap();
        assert_eq!(back, img, "seed {seed}");
    }
}

#[test]
fn pgm_ascii_roundtrips() {
    for seed in 0..SEEDS {
        let mut rng = XorShift::new(seed);
        let img = arb_gray(&mut rng, 16);
        let back = read_pgm(&write_pgm_ascii(&img)).unwrap();
        assert_eq!(back, img, "seed {seed}");
    }
}

#[test]
fn ppm_binary_roundtrips() {
    for seed in 0..SEEDS {
        let mut rng = XorShift::new(seed);
        let w = rng.range(1, 16);
        let h = rng.range(1, 16);
        let img = rgb_image(&mut rng, w, h);
        let back = read_ppm(&write_ppm(&img)).unwrap();
        assert_eq!(back, img, "seed {seed}");
    }
}

#[test]
fn histogram_total_matches_pixel_count() {
    for seed in 0..SEEDS {
        let mut rng = XorShift::new(seed);
        let img = arb_gray(&mut rng, 24);
        let h = Histogram::of_luma(&img);
        assert_eq!(h.total() as usize, img.pixels().len(), "seed {seed}");
        let cdf = h.cdf();
        assert_eq!(cdf[LEVELS - 1], h.total(), "seed {seed}");
    }
}

#[test]
fn equalization_lut_is_monotone() {
    for seed in 0..SEEDS {
        let mut rng = XorShift::new(seed);
        let img = arb_gray(&mut rng, 24);
        let lut = Histogram::of_luma(&img).equalization_lut();
        for w in lut.windows(2) {
            assert!(w[0] <= w[1], "seed {seed}");
        }
    }
}

#[test]
fn specification_lut_is_monotone() {
    for seed in 0..SEEDS {
        let mut rng = XorShift::new(seed);
        let a = arb_gray(&mut rng, 16);
        let b = arb_gray(&mut rng, 16);
        let lut = Histogram::of_luma(&a).specification_lut(&Histogram::of_luma(&b));
        for w in lut.windows(2) {
            assert!(w[0] <= w[1], "seed {seed}");
        }
    }
}

#[test]
fn matched_image_range_within_reference_range() {
    // Every output level of CDF matching is a level of the reference's
    // support upper-bounded region: min_ref <= out <= max_ref whenever
    // the reference is non-empty.
    for seed in 0..SEEDS {
        let mut rng = XorShift::new(seed);
        let a = arb_gray(&mut rng, 16);
        let b = arb_gray(&mut rng, 16);
        let matched = match_histogram(&a, &b);
        let hb = Histogram::of_luma(&b);
        let (lo, hi) = (hb.min_value().unwrap(), hb.max_value().unwrap());
        for (_, _, p) in matched.enumerate_pixels() {
            assert!(
                p.0 >= lo && p.0 <= hi,
                "seed {seed}: {} not in [{lo},{hi}]",
                p.0
            );
        }
    }
}

#[test]
fn identity_lut_preserves_image() {
    for seed in 0..SEEDS {
        let mut rng = XorShift::new(seed);
        let img = arb_gray(&mut rng, 16);
        let mut lut = [0u8; LEVELS];
        for (i, s) in lut.iter_mut().enumerate() {
            *s = i as u8;
        }
        assert_eq!(apply_lut(&img, &lut), img, "seed {seed}");
    }
}

#[test]
fn sad_is_a_metric_on_images() {
    for seed in 0..SEEDS {
        let mut rng = XorShift::new(seed);
        let w = rng.range(1, 12);
        let h = rng.range(1, 12);
        let a = gray_image(&mut rng, w, h);
        let b = gray_image(&mut rng, w, h);
        assert_eq!(metrics::sad(&a, &b), metrics::sad(&b, &a), "seed {seed}");
        assert_eq!(metrics::sad(&a, &a), 0, "seed {seed}");
    }
}

#[test]
fn sad_triangle_inequality() {
    for seed in 0..SEEDS {
        let mut rng = XorShift::new(seed);
        let w = rng.range(1, 10);
        let h = rng.range(1, 10);
        let a = gray_image(&mut rng, w, h);
        let b = gray_image(&mut rng, w, h);
        let c = gray_image(&mut rng, w, h);
        assert!(
            metrics::sad(&a, &c) <= metrics::sad(&a, &b) + metrics::sad(&b, &c),
            "seed {seed}"
        );
    }
}

#[test]
fn resize_preserves_dimensions() {
    for seed in 0..SEEDS {
        let mut rng = XorShift::new(seed);
        let img = arb_gray(&mut rng, 16);
        let nw = rng.range(1, 23);
        let nh = rng.range(1, 23);
        assert_eq!(
            resize_box(&img, nw, nh).unwrap().dimensions(),
            (nw, nh),
            "seed {seed}"
        );
        assert_eq!(
            resize_bilinear(&img, nw, nh).unwrap().dimensions(),
            (nw, nh),
            "seed {seed}"
        );
    }
}

#[test]
fn resize_output_within_input_range() {
    for seed in 0..SEEDS {
        let mut rng = XorShift::new(seed);
        let img = arb_gray(&mut rng, 12);
        let nw = rng.range(1, 15);
        let nh = rng.range(1, 15);
        let h = Histogram::of_luma(&img);
        let (lo, hi) = (h.min_value().unwrap(), h.max_value().unwrap());
        for out in [
            resize_box(&img, nw, nh).unwrap(),
            resize_bilinear(&img, nw, nh).unwrap(),
        ] {
            for (_, _, p) in out.enumerate_pixels() {
                assert!(p.0 >= lo && p.0 <= hi, "seed {seed}");
            }
        }
    }
}

#[test]
fn luma_within_channel_bounds() {
    for seed in 0..256 {
        let mut rng = XorShift::new(seed);
        let (r, g, b) = (rng.next_u8(), rng.next_u8(), rng.next_u8());
        let l = Rgb::new(r, g, b).luma();
        let lo = r.min(g).min(b);
        let hi = r.max(g).max(b);
        // Integer truncation can dip 1 below the channel minimum.
        assert!(u16::from(l) + 1 >= u16::from(lo), "seed {seed}");
        assert!(l <= hi, "seed {seed}");
    }
}

#[test]
fn abs_diff_consistent_with_sq_diff() {
    for seed in 0..256 {
        let mut rng = XorShift::new(seed);
        let pa = Rgb::new(rng.next_u8(), rng.next_u8(), rng.next_u8());
        let pb = Rgb::new(rng.next_u8(), rng.next_u8(), rng.next_u8());
        // sq_diff = 0 iff abs_diff = 0; abs_diff bounded by MAX_ABS_DIFF.
        assert_eq!(pa.sq_diff(&pb) == 0, pa.abs_diff(&pb) == 0, "seed {seed}");
        assert!(pa.abs_diff(&pb) <= Rgb::MAX_ABS_DIFF, "seed {seed}");
    }
}
