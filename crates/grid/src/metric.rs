//! Per-tile error metrics and the one tile-error function,
//! [`pair_error`], on packed tiles.
//!
//! The paper's Eq. (1) is the sum of absolute per-pixel differences (SAD).
//! Two alternatives are provided for the metric-ablation bench: sum of
//! squared differences (SSD) and a cheap mean-intensity distance that
//! compares only tile averages (the common shortcut in database-driven
//! photomosaic tools the paper cites).

use mosaic_image::kernel::Kernels;
use mosaic_image::{ImageView, Pixel};

/// Which tile-distance function to use for `E(I_u, T_v)`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum TileMetric {
    /// Sum of absolute differences — the paper's Eq. (1).
    #[default]
    Sad,
    /// Sum of squared differences; punishes outliers harder.
    Ssd,
    /// `M² × |mean(A) − mean(B)|`, channel-summed: compares only average
    /// intensity, scaled by the pixel count so magnitudes are comparable
    /// with SAD.
    MeanAbs,
}

impl TileMetric {
    /// All metrics, for ablation sweeps.
    pub const ALL: [TileMetric; 3] = [TileMetric::Sad, TileMetric::Ssd, TileMetric::MeanAbs];

    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            TileMetric::Sad => "sad",
            TileMetric::Ssd => "ssd",
            TileMetric::MeanAbs => "mean-abs",
        }
    }

    /// Upper bound of a single tile error under this metric, for a tile of
    /// `pixels` pixels of type `P`. Used to prove `u32` does not overflow.
    pub fn max_tile_error<P: Pixel>(self, pixels: usize) -> u64 {
        match self {
            TileMetric::Sad | TileMetric::MeanAbs => pixels as u64 * u64::from(P::MAX_ABS_DIFF),
            TileMetric::Ssd => {
                // Worst case per channel is 255², CHANNELS channels.
                pixels as u64 * 255 * 255 * P::CHANNELS as u64
            }
        }
    }
}

/// `E(a, b)` for two tiles in packed byte form ([`crate::PackedTiles`],
/// or any whole image's pixel bytes): the one production implementation
/// of the paper's Eq. (1) and its ablation metrics. SAD and SSD are one
/// call into the kernel table `k` per pair; `MeanAbs` is
/// `|Σa − Σb|`, which equals `M² × |mean(A) − mean(B)|` channel-summed.
/// Returns `u64`; the builders narrow to `u32` after the layout check
/// proved the metric's bound fits.
///
/// # Panics
/// Panics when the slices' lengths differ.
#[inline]
pub fn pair_error(k: &Kernels, a: &[u8], b: &[u8], metric: TileMetric) -> u64 {
    match metric {
        TileMetric::Sad => k.sad(a, b),
        TileMetric::Ssd => k.ssd(a, b),
        TileMetric::MeanAbs => {
            assert_eq!(a.len(), b.len(), "tiles must have equal lengths");
            let sum = |t: &[u8]| t.iter().map(|&c| u64::from(c)).sum::<u64>();
            sum(a).abs_diff(sum(b))
        }
    }
}

/// The view-based test oracle for [`pair_error`]: walks both tile views
/// row by row on the scalar kernels (and per pixel for `MeanAbs`), with
/// no packing, so the packed builders have an independent reference.
///
/// # Panics
/// Panics when the views' dimensions differ.
pub fn tile_error_scalar<P: Pixel>(
    a: &ImageView<'_, P>,
    b: &ImageView<'_, P>,
    metric: TileMetric,
) -> u64 {
    assert_eq!(
        (a.width(), a.height()),
        (b.width(), b.height()),
        "tile views must have equal dimensions"
    );
    let k = Kernels::scalar();
    let rows = a.rows().zip(b.rows());
    match metric {
        TileMetric::Sad => rows
            .map(|(ra, rb)| k.sad(P::row_bytes(ra), P::row_bytes(rb)))
            .sum(),
        TileMetric::Ssd => rows
            .map(|(ra, rb)| k.ssd(P::row_bytes(ra), P::row_bytes(rb)))
            .sum(),
        TileMetric::MeanAbs => {
            let sum = |p: &P| p.channels().iter().map(|&c| u64::from(c)).sum::<u64>();
            let (sum_a, sum_b) = rows
                .flat_map(|(ra, rb)| ra.iter().zip(rb))
                .fold((0, 0), |(sa, sb), (pa, pb)| (sa + sum(pa), sb + sum(pb)));
            sum_a.abs_diff(sum_b)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_image::{kernel, Gray, Image, Rgb};

    /// [`pair_error`] on two whole images' pixel bytes, checked against
    /// the view-based oracle on the way out.
    fn checked_error<P: Pixel>(a: &Image<P>, b: &Image<P>, metric: TileMetric) -> u64 {
        let (ba, bb) = (P::row_bytes(a.pixels()), P::row_bytes(b.pixels()));
        let packed = pair_error(kernel::active(), ba, bb, metric);
        let oracle = tile_error_scalar(&a.full_view(), &b.full_view(), metric);
        assert_eq!(packed, oracle, "{metric:?}");
        packed
    }

    fn img(values: &[u8], w: usize, h: usize) -> Image<Gray> {
        Image::from_vec(w, h, values.iter().map(|&v| Gray(v)).collect()).unwrap()
    }

    #[test]
    fn sad_matches_hand_computation() {
        let a = img(&[0, 10, 20, 30], 2, 2);
        let b = img(&[5, 5, 25, 15], 2, 2);
        let e = checked_error(&a, &b, TileMetric::Sad);
        assert_eq!(e, 5 + 5 + 5 + 15);
    }

    #[test]
    fn ssd_matches_hand_computation() {
        let a = img(&[0, 10], 2, 1);
        let b = img(&[3, 6], 2, 1);
        let e = checked_error(&a, &b, TileMetric::Ssd);
        assert_eq!(e, 9 + 16);
    }

    #[test]
    fn mean_abs_compares_only_averages() {
        // Same mean, different texture → zero under MeanAbs, nonzero SAD.
        let a = img(&[0, 100], 2, 1);
        let b = img(&[100, 0], 2, 1);
        assert_eq!(checked_error(&a, &b, TileMetric::MeanAbs), 0);
        assert_eq!(checked_error(&a, &b, TileMetric::Sad), 200);
    }

    #[test]
    fn mean_abs_scaling_matches_sad_for_constant_tiles() {
        // For constant tiles SAD == MeanAbs.
        let a = Image::from_fn(4, 4, |_, _| Gray(10)).unwrap();
        let b = Image::from_fn(4, 4, |_, _| Gray(200)).unwrap();
        let sad = checked_error(&a, &b, TileMetric::Sad);
        let mean = checked_error(&a, &b, TileMetric::MeanAbs);
        assert_eq!(sad, mean);
        assert_eq!(sad, 16 * 190);
    }

    #[test]
    fn all_metrics_zero_on_identical_views() {
        let a = mosaic_image::synth::plasma(16, 3, 2);
        for m in TileMetric::ALL {
            assert_eq!(checked_error(&a, &a, m), 0);
        }
    }

    #[test]
    fn all_metrics_symmetric() {
        let a = mosaic_image::synth::plasma(8, 3, 2);
        let b = mosaic_image::synth::checker(8, 2, 4);
        for m in TileMetric::ALL {
            assert_eq!(checked_error(&a, &b, m), checked_error(&b, &a, m));
        }
    }

    #[test]
    fn rgb_metrics_sum_channels() {
        let a = Image::from_vec(1, 1, vec![Rgb::new(0, 0, 0)]).unwrap();
        let b = Image::from_vec(1, 1, vec![Rgb::new(1, 2, 3)]).unwrap();
        assert_eq!(checked_error(&a, &b, TileMetric::Sad), 6);
        assert_eq!(checked_error(&a, &b, TileMetric::Ssd), 1 + 4 + 9);
        assert_eq!(checked_error(&a, &b, TileMetric::MeanAbs), 6);
    }

    #[test]
    fn max_tile_error_bounds_are_respected() {
        // Extreme tiles: black vs white.
        let black = Image::from_fn(8, 8, |_, _| Gray(0)).unwrap();
        let white = Image::from_fn(8, 8, |_, _| Gray(255)).unwrap();
        for m in TileMetric::ALL {
            let e = checked_error(&black, &white, m);
            assert!(e <= m.max_tile_error::<Gray>(64), "{m:?}: {e}");
        }
        // And the SAD bound is tight.
        assert_eq!(
            checked_error(&black, &white, TileMetric::Sad),
            TileMetric::Sad.max_tile_error::<Gray>(64)
        );
    }

    #[test]
    fn metric_names_unique() {
        let mut names: Vec<_> = TileMetric::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), TileMetric::ALL.len());
    }

    #[test]
    #[should_panic(expected = "equal dimensions")]
    fn mismatched_views_panic() {
        let a = img(&[0; 4], 2, 2);
        let b = img(&[0; 2], 2, 1);
        let _ = tile_error_scalar(&a.full_view(), &b.full_view(), TileMetric::Sad);
    }

    #[test]
    fn mismatched_packed_tiles_panic_for_every_metric() {
        for m in TileMetric::ALL {
            let result =
                std::panic::catch_unwind(|| pair_error(Kernels::scalar(), &[0; 4], &[0; 2], m));
            assert!(result.is_err(), "{m:?}");
        }
    }
}
