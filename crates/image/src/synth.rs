//! Deterministic synthetic test scenes.
//!
//! The paper evaluates on USC-SIPI images (Lena, Sailboat, Airplane,
//! Peppers, Barbara, Tiffany, Baboon). That dataset is not redistributable
//! here, so this module generates structurally comparable stand-ins: smooth
//! large-scale structure (like a portrait), strong edges (like a sailboat
//! against sky), fine texture (like Baboon fur), and periodic texture (like
//! Barbara's cloth). All generators are deterministic given a seed, so
//! every experiment is reproducible bit-for-bit.
//!
//! The algorithms under test consume only per-pixel intensities; any pair of
//! images with non-degenerate, differing histograms exercises every code
//! path (histogram matching, the S×S error matrix, matching, local search).
//! See DESIGN.md §2 for the substitution rationale.

use crate::image::{GrayImage, Image, RgbImage};
use crate::pixel::{Gray, Rgb};

/// Small, fast, deterministic PRNG (xorshift64*), local so the image crate
/// needs no runtime dependency on `rand`.
#[derive(Clone, Debug)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seed the generator. A zero seed is remapped to a fixed odd constant
    /// because xorshift has a fixed point at zero.
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform value in `0..bound` (`bound > 0`).
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiply-shift rejection-free mapping; bias is negligible for the
        // bounds used here (all far below 2^32).
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

fn clamp_u8(v: f64) -> u8 {
    v.round().clamp(0.0, 255.0) as u8
}

/// Smooth value-noise field ("plasma"): large blurry structure akin to a
/// soft-focus portrait background. `octaves` controls detail.
pub fn plasma(size: usize, seed: u64, octaves: u32) -> GrayImage {
    assert!(size > 0, "size must be positive");
    let mut acc = vec![0.0f64; size * size];
    let mut amplitude = 1.0;
    let mut total_amp = 0.0;
    for octave in 0..octaves.max(1) {
        let cell = (size >> octave).max(2);
        let grid_n = size / cell + 2;
        let mut rng = XorShift64::new(seed ^ (0xA5A5_0000 + u64::from(octave)));
        let lattice: Vec<f64> = (0..grid_n * grid_n).map(|_| rng.next_f64()).collect();
        let sample = |gx: usize, gy: usize| lattice[gy * grid_n + gx];
        for y in 0..size {
            let fy = y as f64 / cell as f64;
            let gy = fy as usize;
            let ty = smoothstep(fy - gy as f64);
            for x in 0..size {
                let fx = x as f64 / cell as f64;
                let gx = fx as usize;
                let tx = smoothstep(fx - gx as f64);
                let v00 = sample(gx, gy);
                let v10 = sample(gx + 1, gy);
                let v01 = sample(gx, gy + 1);
                let v11 = sample(gx + 1, gy + 1);
                let v0 = v00 + (v10 - v00) * tx;
                let v1 = v01 + (v11 - v01) * tx;
                acc[y * size + x] += (v0 + (v1 - v0) * ty) * amplitude;
            }
        }
        total_amp += amplitude;
        amplitude *= 0.5;
    }
    let data = acc
        .into_iter()
        .map(|v| Gray(clamp_u8(v / total_amp * 255.0)))
        .collect();
    // lint:allow(panic) size > 0 was asserted at the top of this function
    Image::from_vec(size, size, data).expect("size validated above")
}

#[inline]
fn smoothstep(t: f64) -> f64 {
    t * t * (3.0 - 2.0 * t)
}

/// High-contrast geometric scene: bright "sky" gradient, dark triangular
/// "sail" shapes and a horizon — a stand-in for the Sailboat target with
/// strong edges and bimodal histogram.
pub fn regatta(size: usize, seed: u64) -> GrayImage {
    assert!(size > 0, "size must be positive");
    let mut rng = XorShift64::new(seed);
    let horizon = size as f64 * (0.55 + 0.1 * rng.next_f64());
    let n_boats = 2 + rng.next_below(3) as usize;
    let boats: Vec<(f64, f64, f64)> = (0..n_boats)
        .map(|_| {
            let cx = size as f64 * (0.15 + 0.7 * rng.next_f64());
            let half_w = size as f64 * (0.05 + 0.08 * rng.next_f64());
            let top = horizon - size as f64 * (0.2 + 0.25 * rng.next_f64());
            (cx, half_w, top)
        })
        .collect();
    Image::from_fn(size, size, |x, y| {
        let xf = x as f64;
        let yf = y as f64;
        // Sky gradient above the horizon, darker water below.
        let mut v = if yf < horizon {
            230.0 - 60.0 * (yf / horizon)
        } else {
            90.0 - 40.0 * ((yf - horizon) / (size as f64 - horizon + 1.0))
        };
        // Triangular sails: dark silhouettes.
        for &(cx, half_w, top) in &boats {
            if yf < horizon && yf > top {
                let frac = (yf - top) / (horizon - top);
                if (xf - cx).abs() < half_w * frac {
                    v = 30.0 + 20.0 * frac;
                }
            }
        }
        // Gentle water ripples.
        if yf >= horizon {
            v += 12.0 * ((xf * 0.15).sin() + (yf * 0.4).sin());
        }
        Gray(clamp_u8(v))
    })
    // lint:allow(panic) size > 0 was asserted at the top of this function
    .expect("size validated above")
}

/// Fine high-frequency texture: a stand-in for Baboon-like fur detail.
pub fn fur(size: usize, seed: u64) -> GrayImage {
    let base = plasma(size, seed, 3);
    let mut rng = XorShift64::new(seed ^ 0xF00D);
    let mut out = base;
    out.apply(|p| {
        let jitter = rng.next_below(61) as i16 - 30;
        Gray((i16::from(p.0) + jitter).clamp(0, 255) as u8)
    });
    out
}

/// Periodic stripes over smooth shading: a stand-in for Barbara's cloth.
pub fn drapery(size: usize, seed: u64) -> GrayImage {
    assert!(size > 0, "size must be positive");
    let smooth = plasma(size, seed, 2);
    Image::from_fn(size, size, |x, y| {
        let base = f64::from(smooth.pixel(x, y).0);
        let phase = (x as f64 * 0.35 + y as f64 * 0.1).sin();
        Gray(clamp_u8(base * 0.7 + 64.0 + 48.0 * phase))
    })
    // lint:allow(panic) size > 0 was asserted at the top of this function
    .expect("size validated above")
}

/// Radial vignette portrait stand-in: bright oval "face" over darker
/// surround with soft noise.
pub fn portrait(size: usize, seed: u64) -> GrayImage {
    assert!(size > 0, "size must be positive");
    let noise = plasma(size, seed ^ 0xBEEF, 4);
    let c = size as f64 / 2.0;
    Image::from_fn(size, size, |x, y| {
        let dx = (x as f64 - c) / c;
        let dy = (y as f64 - c * 0.9) / c;
        let r2 = dx * dx * 1.6 + dy * dy;
        let face = 200.0 * (-r2 * 2.2).exp();
        let bg = 60.0 + 0.3 * f64::from(noise.pixel(x, y).0);
        Gray(clamp_u8(bg + face))
    })
    // lint:allow(panic) size > 0 was asserted at the top of this function
    .expect("size validated above")
}

/// Checkerboard with per-cell brightness jitter — degenerate two-level
/// structure, useful as a stress test for histogram matching.
pub fn checker(size: usize, cell: usize, seed: u64) -> GrayImage {
    assert!(size > 0 && cell > 0, "size and cell must be positive");
    let mut rng = XorShift64::new(seed);
    let cells = size / cell + 1;
    let jitter: Vec<i16> = (0..cells * cells)
        .map(|_| rng.next_below(41) as i16 - 20)
        .collect();
    Image::from_fn(size, size, |x, y| {
        let cx = x / cell;
        let cy = y / cell;
        let base: i16 = if (cx + cy).is_multiple_of(2) { 200 } else { 55 };
        let j = jitter[cy * cells + cx];
        Gray((base + j).clamp(0, 255) as u8)
    })
    // lint:allow(panic) size > 0 was asserted at the top of this function
    .expect("size validated above")
}

/// Diagonal linear gradient — the simplest non-constant image; analytic
/// ground truth for several unit tests.
pub fn gradient(size: usize) -> GrayImage {
    assert!(size > 0, "size must be positive");
    Image::from_fn(size, size, |x, y| {
        Gray((((x + y) * 255) / (2 * size - 2).max(1)) as u8)
    })
    // lint:allow(panic) size > 0 was asserted at the top of this function
    .expect("size validated above")
}

/// Colorize a grayscale image with a smooth two-tone palette; used by the
/// RGB extension examples.
pub fn tint(img: &GrayImage, shadow: Rgb, light: Rgb) -> RgbImage {
    img.map(|p| {
        let t = f64::from(p.0) / 255.0;
        let mix = |a: u8, b: u8| clamp_u8(f64::from(a) + (f64::from(b) - f64::from(a)) * t);
        Rgb::new(
            mix(shadow.r(), light.r()),
            mix(shadow.g(), light.g()),
            mix(shadow.b(), light.b()),
        )
    })
}

/// Named scene roles mirroring the paper's image pairs; see DESIGN.md.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Scene {
    /// Portrait-like stand-in (Lena's role).
    Portrait,
    /// High-contrast sailing scene (Sailboat's role).
    Regatta,
    /// Fine texture (Baboon's role).
    Fur,
    /// Periodic cloth texture (Barbara's role).
    Drapery,
    /// Smooth blobs (Peppers' role).
    Plasma,
    /// Geometric pattern (Airplane's role: large uniform regions + edges).
    Checker,
}

impl Scene {
    /// All scene roles.
    pub const ALL: [Scene; 6] = [
        Scene::Portrait,
        Scene::Regatta,
        Scene::Fur,
        Scene::Drapery,
        Scene::Plasma,
        Scene::Checker,
    ];

    /// Render the scene at `size × size` with a deterministic seed derived
    /// from `seed`.
    pub fn render(self, size: usize, seed: u64) -> GrayImage {
        match self {
            Scene::Portrait => portrait(size, seed),
            Scene::Regatta => regatta(size, seed),
            Scene::Fur => fur(size, seed),
            Scene::Drapery => drapery(size, seed),
            Scene::Plasma => plasma(size, seed, 4),
            Scene::Checker => checker(size, (size / 16).max(1), seed),
        }
    }

    /// Stable lowercase name for file outputs.
    pub fn name(self) -> &'static str {
        match self {
            Scene::Portrait => "portrait",
            Scene::Regatta => "regatta",
            Scene::Fur => "fur",
            Scene::Drapery => "drapery",
            Scene::Plasma => "plasma",
            Scene::Checker => "checker",
        }
    }
}

/// The four input→target pairs used by the experiment harness, mirroring
/// the paper's Figure 2 and Figure 8 pairs.
pub fn paper_pairs() -> [(Scene, Scene); 4] {
    [
        (Scene::Portrait, Scene::Regatta), // Lena → Sailboat (Fig. 2)
        (Scene::Checker, Scene::Portrait), // Airplane → Lena (Fig. 8a)
        (Scene::Plasma, Scene::Drapery),   // Peppers → Barbara (Fig. 8b)
        (Scene::Regatta, Scene::Fur),      // Tiffany → Baboon (Fig. 8c)
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;

    /// FNV-1a over every pixel of one scene's renders at each golden
    /// size and seed, in that order.
    fn golden_hash(scene: Scene) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        for size in [7, 64, 257, 512] {
            for seed in [1, 9001] {
                for pixel in scene.render(size, seed).pixels() {
                    hash = (hash ^ u64::from(pixel.0)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        hash
    }

    /// Every render is pinned pixel for pixel: a faster renderer must
    /// reproduce these hashes exactly.
    #[test]
    fn golden_render_hashes_are_pinned() {
        let pinned = [
            (Scene::Portrait, 0xbd3f_882f_21cf_a213),
            (Scene::Regatta, 0xb7ab_c33a_f4e2_f149),
            (Scene::Fur, 0x2177_8253_0da2_79d4),
            (Scene::Drapery, 0x1a69_474c_8ddb_c8e5),
            (Scene::Plasma, 0x0df9_1181_fdef_b5ca),
            (Scene::Checker, 0x59f0_dce3_1b25_a5a7),
        ];
        for (scene, want) in pinned {
            assert_eq!(golden_hash(scene), want, "{scene:?} renders changed");
        }
    }

    #[test]
    fn xorshift_is_deterministic_and_nonconstant() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(va, vb);
        assert!(va.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn xorshift_zero_seed_is_remapped() {
        let mut r = XorShift64::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = XorShift64::new(7);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = XorShift64::new(9);
        for _ in 0..1000 {
            assert!(r.next_below(17) < 17);
        }
    }

    #[test]
    fn generators_are_deterministic() {
        for scene in Scene::ALL {
            let a = scene.render(64, 123);
            let b = scene.render(64, 123);
            assert_eq!(a, b, "{scene:?} not deterministic");
            let c = scene.render(64, 124);
            assert_ne!(a, c, "{scene:?} ignores seed");
        }
    }

    #[test]
    fn generators_produce_nondegenerate_histograms() {
        for scene in Scene::ALL {
            let img = scene.render(128, 5);
            let h = Histogram::of_luma(&img);
            let spread = i32::from(h.max_value().unwrap()) - i32::from(h.min_value().unwrap());
            assert!(spread > 60, "{scene:?} spread {spread} too narrow");
        }
    }

    #[test]
    fn scene_names_are_unique() {
        let mut names: Vec<_> = Scene::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Scene::ALL.len());
    }

    #[test]
    fn gradient_endpoints() {
        let g = gradient(64);
        assert_eq!(g.pixel(0, 0), Gray(0));
        assert_eq!(g.pixel(63, 63), Gray(255));
    }

    #[test]
    fn checker_two_levels_dominate() {
        let img = checker(64, 8, 3);
        let h = Histogram::of_luma(&img);
        // Bimodal: the two base levels with jitter ±20 cover everything.
        assert!(h.min_value().unwrap() >= 35);
        assert!(h.max_value().unwrap() <= 220);
    }

    #[test]
    fn tint_maps_black_white_to_palette() {
        let img = Image::from_vec(2, 1, vec![Gray(0), Gray(255)]).expect("dimensions are valid");
        let out = tint(&img, Rgb::new(10, 20, 30), Rgb::new(200, 210, 220));
        assert_eq!(out.pixel(0, 0), Rgb::new(10, 20, 30));
        assert_eq!(out.pixel(1, 0), Rgb::new(200, 210, 220));
    }

    #[test]
    fn paper_pairs_have_distinct_scenes() {
        for (a, b) in paper_pairs() {
            assert_ne!(a, b);
        }
    }
}
