//! §II pre-processing: adjust the input image's intensity distribution.
//!
//! "If the distribution of an input image greatly differs from a target
//! image, it is difficult to rearrange tiles of the input image to
//! reproduce the target image. Therefore, before rearranging the tiles of
//! an input image, we adjust the distribution of an input image to that of
//! a target image using the histogram equalization." — §II. The remapping
//! of one distribution onto another is histogram *specification*; both it
//! and plain equalization are available, selected by
//! [`crate::config::Preprocess`].

use crate::config::Preprocess;
use mosaic_image::histogram::{equalize, match_histogram, match_histogram_rgb};
use mosaic_image::{Gray, GrayImage, Image, Pixel, Rgb, RgbImage};

/// A pixel type the pipeline generates mosaics for. Step 1 is the only
/// per-type step (§II: color needs "only changing the error function in
/// Eq. (1)"); the error matrix, the searches and assembly are generic
/// over [`Pixel`].
pub trait MosaicPixel: Pixel {
    /// Apply the configured pre-processing to `input`.
    fn preprocess(input: &Image<Self>, target: &Image<Self>, mode: Preprocess) -> Image<Self>;
}

impl MosaicPixel for Gray {
    fn preprocess(input: &GrayImage, target: &GrayImage, mode: Preprocess) -> GrayImage {
        preprocess_gray(input, target, mode)
    }
}

impl MosaicPixel for Rgb {
    fn preprocess(input: &RgbImage, target: &RgbImage, mode: Preprocess) -> RgbImage {
        preprocess_rgb(input, target, mode)
    }
}

/// Apply the configured pre-processing to a grayscale input image.
pub fn preprocess_gray(input: &GrayImage, target: &GrayImage, mode: Preprocess) -> GrayImage {
    match mode {
        Preprocess::MatchTarget => match_histogram(input, target),
        Preprocess::Equalize => equalize(input),
        Preprocess::None => input.clone(),
    }
}

/// Apply the configured pre-processing to an RGB input image (per-channel
/// specification for the color extension).
pub fn preprocess_rgb(input: &RgbImage, target: &RgbImage, mode: Preprocess) -> RgbImage {
    match mode {
        Preprocess::MatchTarget => match_histogram_rgb(input, target),
        Preprocess::Equalize => {
            // Equalize the luma-derived distribution per channel by
            // matching each channel onto its own equalized form.
            let gray = input.to_gray();
            let eq = equalize(&gray);
            // Scale channels by the luma LUT ratio via per-channel
            // specification against the equalized gray image promoted to RGB.
            let reference = eq.map(mosaic_image::Rgb::from);
            match_histogram_rgb(input, &reference)
        }
        Preprocess::None => input.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_image::histogram::Histogram;
    use mosaic_image::synth;

    #[test]
    fn none_is_identity() {
        let input = synth::portrait(32, 1);
        let target = synth::regatta(32, 2);
        assert_eq!(preprocess_gray(&input, &target, Preprocess::None), input);
    }

    #[test]
    fn match_target_moves_mean_toward_target() {
        let input = synth::portrait(64, 1);
        let target = synth::regatta(64, 2);
        let out = preprocess_gray(&input, &target, Preprocess::MatchTarget);
        let m_out = Histogram::of_luma(&out).mean();
        let m_target = Histogram::of_luma(&target).mean();
        let m_input = Histogram::of_luma(&input).mean();
        assert!(
            (m_out - m_target).abs() <= (m_input - m_target).abs() + 1.0,
            "matching moved the mean away from the target"
        );
    }

    #[test]
    fn equalize_expands_range() {
        let input = synth::checker(64, 8, 3); // concentrated bimodal
        let target = synth::regatta(64, 2);
        let out = preprocess_gray(&input, &target, Preprocess::Equalize);
        let h = Histogram::of_luma(&out);
        assert_eq!(h.min_value(), Some(0));
        assert!(h.max_value().unwrap() >= 250);
    }

    #[test]
    fn rgb_paths_run() {
        let gray_in = synth::portrait(32, 1);
        let gray_tg = synth::regatta(32, 2);
        let input = synth::tint(
            &gray_in,
            mosaic_image::Rgb::new(20, 10, 40),
            mosaic_image::Rgb::new(220, 210, 190),
        );
        let target = synth::tint(
            &gray_tg,
            mosaic_image::Rgb::new(0, 30, 60),
            mosaic_image::Rgb::new(250, 240, 230),
        );
        for mode in [
            Preprocess::MatchTarget,
            Preprocess::Equalize,
            Preprocess::None,
        ] {
            let out = preprocess_rgb(&input, &target, mode);
            assert_eq!(out.dimensions(), input.dimensions());
        }
        assert_eq!(preprocess_rgb(&input, &target, Preprocess::None), input);
    }
}
