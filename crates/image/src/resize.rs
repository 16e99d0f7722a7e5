//! Image resampling: box-average downscale, bilinear upscale.
//!
//! The tile library scales ingested photos to the store's tile size and
//! resamples library-mosaic targets to the grid it composes on.

use crate::error::ImageError;
use crate::image::Image;
use crate::pixel::Pixel;

/// Box-filter average resample — the right choice for downscaling because
/// every source pixel contributes. Operates per channel with rounding.
///
/// # Errors
/// Returns [`ImageError::InvalidDimensions`] for zero target dimensions.
pub fn resize_box<P: Pixel>(
    src: &Image<P>,
    new_width: usize,
    new_height: usize,
) -> Result<Image<P>, ImageError> {
    let (w, h) = src.dimensions();
    if new_width == 0 || new_height == 0 {
        return Err(ImageError::InvalidDimensions {
            width: new_width,
            height: new_height,
        });
    }
    Image::from_fn(new_width, new_height, |x, y| {
        // Source span [x0, x1) x [y0, y1), at least one pixel.
        let x0 = (x * w) / new_width;
        let x1 = (((x + 1) * w).div_ceil(new_width)).min(w).max(x0 + 1);
        let y0 = (y * h) / new_height;
        let y1 = (((y + 1) * h).div_ceil(new_height)).min(h).max(y0 + 1);
        let mut acc = [0u64; 4];
        let mut count = 0u64;
        for sy in y0..y1 {
            for sx in x0..x1 {
                let p = src.pixel(sx, sy);
                for (a, &c) in acc.iter_mut().zip(p.channels()) {
                    *a += u64::from(c);
                }
                count += 1;
            }
        }
        let mut channels = [0u8; 4];
        for (dst, a) in channels.iter_mut().zip(acc.iter()) {
            *dst = ((a + count / 2) / count) as u8;
        }
        P::from_channels(&channels[..P::CHANNELS])
    })
}

/// Bilinear resample; smooth for upscaling.
///
/// # Errors
/// Returns [`ImageError::InvalidDimensions`] for zero target dimensions.
pub fn resize_bilinear<P: Pixel>(
    src: &Image<P>,
    new_width: usize,
    new_height: usize,
) -> Result<Image<P>, ImageError> {
    let (w, h) = src.dimensions();
    if new_width == 0 || new_height == 0 {
        return Err(ImageError::InvalidDimensions {
            width: new_width,
            height: new_height,
        });
    }
    let scale_x = if new_width > 1 {
        (w - 1) as f64 / (new_width - 1) as f64
    } else {
        0.0
    };
    let scale_y = if new_height > 1 {
        (h - 1) as f64 / (new_height - 1) as f64
    } else {
        0.0
    };
    Image::from_fn(new_width, new_height, |x, y| {
        let fx = x as f64 * scale_x;
        let fy = y as f64 * scale_y;
        let x0 = fx.floor() as usize;
        let y0 = fy.floor() as usize;
        let x1 = (x0 + 1).min(w - 1);
        let y1 = (y0 + 1).min(h - 1);
        let tx = fx - x0 as f64;
        let ty = fy - y0 as f64;
        let p00 = src.pixel(x0, y0);
        let p10 = src.pixel(x1, y0);
        let p01 = src.pixel(x0, y1);
        let p11 = src.pixel(x1, y1);
        let mut channels = [0u8; 4];
        // Four source pixels are indexed per channel; an index loop is the
        // clearest form here.
        #[allow(clippy::needless_range_loop)]
        for c in 0..P::CHANNELS {
            let v00 = f64::from(p00.channels()[c]);
            let v10 = f64::from(p10.channels()[c]);
            let v01 = f64::from(p01.channels()[c]);
            let v11 = f64::from(p11.channels()[c]);
            let top = v00 + (v10 - v00) * tx;
            let bottom = v01 + (v11 - v01) * tx;
            channels[c] = (top + (bottom - top) * ty).round().clamp(0.0, 255.0) as u8;
        }
        P::from_channels(&channels[..P::CHANNELS])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::GrayImage;
    use crate::pixel::{Gray, Rgb};

    #[test]
    fn box_downscale_averages() {
        let img = Image::from_vec(2, 2, vec![Gray(0), Gray(100), Gray(200), Gray(100)]).unwrap();
        let one = resize_box(&img, 1, 1).unwrap();
        assert_eq!(one.pixel(0, 0), Gray(100));
    }

    #[test]
    fn box_preserves_constant_images() {
        let img = GrayImage::filled(9, 9, Gray(77)).unwrap();
        let out = resize_box(&img, 4, 4).unwrap();
        for (_, _, p) in out.enumerate_pixels() {
            assert_eq!(p, Gray(77));
        }
    }

    #[test]
    fn box_mean_is_roughly_preserved() {
        let img = crate::synth::plasma(64, 11, 3);
        let small = resize_box(&img, 16, 16).unwrap();
        let mean = |img: &GrayImage| {
            img.pixels().iter().map(|p| f64::from(p.0)).sum::<f64>() / img.pixels().len() as f64
        };
        assert!((mean(&img) - mean(&small)).abs() < 2.0);
    }

    #[test]
    fn bilinear_preserves_corner_values() {
        let img = Image::from_vec(2, 2, vec![Gray(0), Gray(100), Gray(200), Gray(50)]).unwrap();
        let up = resize_bilinear(&img, 5, 5).unwrap();
        assert_eq!(up.pixel(0, 0), Gray(0));
        assert_eq!(up.pixel(4, 0), Gray(100));
        assert_eq!(up.pixel(0, 4), Gray(200));
        assert_eq!(up.pixel(4, 4), Gray(50));
        // Center is the mean of an exact bilinear interpolation.
        assert_eq!(up.pixel(2, 2), Gray(88)); // (0+100+200+50)/4 = 87.5 → 88
    }

    #[test]
    fn bilinear_to_single_pixel_takes_origin() {
        let img = crate::synth::gradient(8);
        let one = resize_bilinear(&img, 1, 1).unwrap();
        assert_eq!(one.pixel(0, 0), img.pixel(0, 0));
    }

    #[test]
    fn zero_target_dimensions_rejected() {
        let img = crate::synth::gradient(8);
        assert!(resize_box(&img, 4, 0).is_err());
        assert!(resize_bilinear(&img, 0, 0).is_err());
    }

    #[test]
    fn rgb_resize_runs_per_channel() {
        let img =
            Image::from_fn(4, 4, |x, y| Rgb::new((x * 60) as u8, (y * 60) as u8, 128)).unwrap();
        let out = resize_box(&img, 2, 2).unwrap();
        for (_, _, p) in out.enumerate_pixels() {
            assert_eq!(p.b(), 128);
        }
        assert!(out.pixel(1, 0).r() > out.pixel(0, 0).r());
    }
}
