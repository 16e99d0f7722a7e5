//! Owned image buffers and borrowed rectangular views.
//!
//! [`Image`] is a dense row-major buffer of [`Pixel`]s. [`ImageView`] is a
//! borrowed window into an image; the tiling substrate (`mosaic-grid`) hands
//! out one view per tile, so tile error computation never copies pixels.

use crate::error::ImageError;
use crate::pixel::{Gray, Pixel, Rgb};

/// Dense row-major image buffer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Image<P: Pixel> {
    width: usize,
    height: usize,
    data: Vec<P>,
}

/// Grayscale image, the paper's working representation.
pub type GrayImage = Image<Gray>;

/// RGB image for the paper's color extension.
pub type RgbImage = Image<Rgb>;

impl<P: Pixel> Image<P> {
    /// Create an image filled with `fill`.
    ///
    /// # Errors
    /// Returns [`ImageError::InvalidDimensions`] when either dimension is
    /// zero or `width * height` overflows.
    pub fn filled(width: usize, height: usize, fill: P) -> Result<Self, ImageError> {
        let len = Self::checked_len(width, height)?;
        Ok(Image {
            width,
            height,
            data: vec![fill; len],
        })
    }

    /// Create a black image.
    pub fn black(width: usize, height: usize) -> Result<Self, ImageError> {
        Self::filled(width, height, P::BLACK)
    }

    /// Create an image from a closure mapping `(x, y)` to a pixel.
    pub fn from_fn(
        width: usize,
        height: usize,
        mut f: impl FnMut(usize, usize) -> P,
    ) -> Result<Self, ImageError> {
        let len = Self::checked_len(width, height)?;
        let mut data = Vec::with_capacity(len);
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        Ok(Image {
            width,
            height,
            data,
        })
    }

    /// Wrap an existing pixel vector.
    ///
    /// # Errors
    /// Returns [`ImageError::BufferSizeMismatch`] if `data.len()` is not
    /// `width * height`, or [`ImageError::InvalidDimensions`] for degenerate
    /// dimensions.
    pub fn from_vec(width: usize, height: usize, data: Vec<P>) -> Result<Self, ImageError> {
        let len = Self::checked_len(width, height)?;
        if data.len() != len {
            return Err(ImageError::BufferSizeMismatch {
                expected: len,
                actual: data.len(),
            });
        }
        Ok(Image {
            width,
            height,
            data,
        })
    }

    fn checked_len(width: usize, height: usize) -> Result<usize, ImageError> {
        if width == 0 || height == 0 {
            return Err(ImageError::InvalidDimensions { width, height });
        }
        width
            .checked_mul(height)
            .ok_or(ImageError::InvalidDimensions { width, height })
    }

    /// Width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// `(width, height)`.
    #[inline]
    pub fn dimensions(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Immutable access to the raw pixels, row-major.
    #[inline]
    pub fn pixels(&self) -> &[P] {
        &self.data
    }

    /// Pixel at `(x, y)`.
    ///
    /// # Panics
    /// Panics when out of bounds; use [`Image::get`] for a checked variant.
    #[inline]
    pub fn pixel(&self, x: usize, y: usize) -> P {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds for {}x{}",
            self.width,
            self.height
        );
        self.data[y * self.width + x]
    }

    /// Checked pixel access.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> Option<P> {
        if x < self.width && y < self.height {
            Some(self.data[y * self.width + x])
        } else {
            None
        }
    }

    /// Borrow one row of pixels.
    #[inline]
    pub fn row(&self, y: usize) -> &[P] {
        assert!(y < self.height, "row {y} out of bounds");
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// Mutably borrow one row of pixels.
    #[inline]
    pub fn row_mut(&mut self, y: usize) -> &mut [P] {
        assert!(y < self.height, "row {y} out of bounds");
        &mut self.data[y * self.width..(y + 1) * self.width]
    }

    /// Iterate over rows.
    pub fn rows(&self) -> impl Iterator<Item = &[P]> {
        self.data.chunks_exact(self.width)
    }

    /// Iterate `(x, y, pixel)` in row-major order.
    pub fn enumerate_pixels(&self) -> impl Iterator<Item = (usize, usize, P)> + '_ {
        let w = self.width;
        self.data
            .iter()
            .enumerate()
            .map(move |(i, &p)| (i % w, i / w, p))
    }

    /// Apply `f` to every pixel in place.
    pub fn apply(&mut self, mut f: impl FnMut(P) -> P) {
        for p in &mut self.data {
            *p = f(*p);
        }
    }

    /// Produce a new image by mapping every pixel (possibly changing pixel
    /// type).
    pub fn map<Q: Pixel>(&self, mut f: impl FnMut(P) -> Q) -> Image<Q> {
        Image {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(|&p| f(p)).collect(),
        }
    }

    /// Borrow a rectangular window.
    ///
    /// # Errors
    /// Returns [`ImageError::RegionOutOfBounds`] when the window does not fit.
    pub fn view(
        &self,
        x: usize,
        y: usize,
        width: usize,
        height: usize,
    ) -> Result<ImageView<'_, P>, ImageError> {
        let x_end = x.checked_add(width);
        let y_end = y.checked_add(height);
        match (x_end, y_end) {
            (Some(xe), Some(ye))
                if xe <= self.width && ye <= self.height && width > 0 && height > 0 =>
            {
                Ok(ImageView {
                    image: self,
                    x,
                    y,
                    width,
                    height,
                })
            }
            _ => Err(ImageError::RegionOutOfBounds {
                x,
                y,
                width,
                height,
                image_width: self.width,
                image_height: self.height,
            }),
        }
    }

    /// View covering the whole image.
    pub fn full_view(&self) -> ImageView<'_, P> {
        ImageView {
            image: self,
            x: 0,
            y: 0,
            width: self.width,
            height: self.height,
        }
    }

    /// Convert to grayscale via per-pixel luma.
    pub fn to_gray(&self) -> Image<Gray> {
        self.map(|p| Gray(p.luma()))
    }
}

/// Borrowed rectangular window of an [`Image`].
#[derive(Copy, Clone, Debug)]
pub struct ImageView<'a, P: Pixel> {
    image: &'a Image<P>,
    x: usize,
    y: usize,
    width: usize,
    height: usize,
}

impl<'a, P: Pixel> ImageView<'a, P> {
    /// Window width.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Window height.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Offset of the window inside the parent image.
    #[inline]
    pub fn offset(&self) -> (usize, usize) {
        (self.x, self.y)
    }

    /// Pixel at window-relative coordinates.
    ///
    /// # Panics
    /// Panics when out of window bounds.
    #[inline]
    pub fn pixel(&self, x: usize, y: usize) -> P {
        assert!(
            x < self.width && y < self.height,
            "view pixel ({x},{y}) out of bounds for {}x{}",
            self.width,
            self.height
        );
        self.image.pixel(self.x + x, self.y + y)
    }

    /// Borrow one window row as a slice of the parent's storage.
    #[inline]
    pub fn row(&self, y: usize) -> &'a [P] {
        assert!(y < self.height, "view row {y} out of bounds");
        let start = (self.y + y) * self.image.width + self.x;
        &self.image.pixels()[start..start + self.width]
    }

    /// Iterate over window rows.
    pub fn rows(&self) -> impl Iterator<Item = &'a [P]> + '_ {
        (0..self.height).map(move |y| self.row(y))
    }

    /// Sum of absolute per-pixel differences against another same-sized view
    /// — `E(I_u, T_v)` of the paper's Eq. (1).
    ///
    /// Each (contiguous) window row is reinterpreted as bytes and routed
    /// through the process-wide SIMD dispatch table
    /// ([`crate::kernel::active`]), which is bit-identical to the scalar
    /// `abs_diff` loop by the kernel layer's oracle contract.
    ///
    /// # Panics
    /// Panics when the two views have different dimensions.
    pub fn sad(&self, other: &ImageView<'_, P>) -> u64 {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "SAD requires equal view dimensions"
        );
        let k = crate::kernel::active();
        let mut total = 0u64;
        for y in 0..self.height {
            let a = P::row_bytes(self.row(y));
            let b = P::row_bytes(other.row(y));
            total += k.sad(a, b);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient(w: usize, h: usize) -> GrayImage {
        Image::from_fn(w, h, |x, y| Gray(((x + y) % 256) as u8)).unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let img = gradient(8, 4);
        assert_eq!(img.dimensions(), (8, 4));
        assert_eq!(img.pixel(3, 2), Gray(5));
        assert_eq!(img.get(7, 3), Some(Gray(10)));
        assert_eq!(img.get(8, 0), None);
        assert_eq!(img.pixels().len(), 32);
    }

    #[test]
    fn zero_dimensions_rejected() {
        assert!(matches!(
            GrayImage::black(0, 5),
            Err(ImageError::InvalidDimensions { .. })
        ));
        assert!(matches!(
            GrayImage::black(5, 0),
            Err(ImageError::InvalidDimensions { .. })
        ));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(matches!(
            Image::from_vec(2, 2, vec![Gray(0); 3]),
            Err(ImageError::BufferSizeMismatch {
                expected: 4,
                actual: 3
            })
        ));
        let ok = Image::from_vec(2, 2, vec![Gray(9); 4]).unwrap();
        assert_eq!(ok.pixel(1, 1), Gray(9));
    }

    #[test]
    fn set_and_apply() {
        let mut img = GrayImage::black(4, 4).unwrap();
        img.row_mut(1)[2] = Gray(200);
        assert_eq!(img.pixel(2, 1), Gray(200));
        img.apply(|p| Gray(p.0.saturating_add(10)));
        assert_eq!(img.pixel(2, 1), Gray(210));
        assert_eq!(img.pixel(0, 0), Gray(10));
    }

    #[test]
    fn rows_and_enumerate() {
        let img = gradient(4, 3);
        assert_eq!(img.rows().count(), 3);
        assert_eq!(img.row(1)[2], Gray(3));
        let collected: Vec<_> = img.enumerate_pixels().collect();
        assert_eq!(collected.len(), 12);
        assert_eq!(collected[5], (1, 1, Gray(2)));
    }

    #[test]
    fn map_changes_pixel_type() {
        let img = gradient(2, 2);
        let rgb = img.map(Rgb::from);
        assert_eq!(rgb.pixel(1, 1), Rgb::splat(2));
        let back = rgb.to_gray();
        assert_eq!(back.pixel(1, 1), Gray(2));
    }

    #[test]
    fn view_bounds() {
        let img = gradient(8, 8);
        let v = img.view(2, 3, 4, 2).unwrap();
        assert_eq!(v.width(), 4);
        assert_eq!(v.height(), 2);
        assert_eq!(v.offset(), (2, 3));
        assert_eq!(v.pixel(0, 0), img.pixel(2, 3));
        assert_eq!(v.pixel(3, 1), img.pixel(5, 4));
        assert!(img.view(6, 0, 3, 1).is_err());
        assert!(img.view(0, 0, 0, 1).is_err());
        assert!(img.view(usize::MAX, 0, 2, 2).is_err());
    }

    #[test]
    fn view_rows_match_parent() {
        let img = gradient(6, 6);
        let v = img.view(1, 2, 3, 3).unwrap();
        assert_eq!(v.row(0), &img.row(2)[1..4]);
        assert_eq!(v.row(2)[2], img.pixel(3, 4));
    }

    #[test]
    fn sad_of_identical_views_is_zero() {
        let img = gradient(8, 8);
        let a = img.view(0, 0, 4, 4).unwrap();
        assert_eq!(a.sad(&a), 0);
    }

    #[test]
    fn sad_matches_manual_sum() {
        let a_img = Image::from_vec(2, 2, vec![Gray(0), Gray(10), Gray(20), Gray(30)]).unwrap();
        let b_img = Image::from_vec(2, 2, vec![Gray(5), Gray(5), Gray(25), Gray(15)]).unwrap();
        let a = a_img.full_view();
        let b = b_img.full_view();
        assert_eq!(a.sad(&b), 5 + 5 + 5 + 15);
        assert_eq!(a.sad(&b), b.sad(&a));
    }

    #[test]
    #[should_panic(expected = "SAD requires equal view dimensions")]
    fn sad_rejects_mismatched_views() {
        let img = gradient(8, 8);
        let a = img.view(0, 0, 4, 4).unwrap();
        let b = img.view(0, 0, 2, 2).unwrap();
        let _ = a.sad(&b);
    }
}
