//! Tile grid geometry.
//!
//! A [`TileLayout`] captures the paper's parameters: image size `N`, tile
//! size `M`, and tile count `S = (N/M)²`. Tiles are indexed row-major in
//! `0..S`, matching the paper's `I_1..I_S` / `T_1..T_S` (shifted to
//! 0-based). [`PackedTiles`] is the byte form every Step-2 builder reads.

use crate::metric::TileMetric;
use mosaic_image::{Image, ImageView, Pixel};
use std::fmt;

/// Errors constructing a [`TileLayout`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutError {
    /// Tile size zero or larger than the image.
    InvalidTileSize {
        /// Requested tile edge `M`.
        tile_size: usize,
        /// Image edge `N`.
        image_size: usize,
    },
    /// `N` is not a multiple of `M`.
    NotDivisible {
        /// Image edge `N`.
        image_size: usize,
        /// Requested tile edge `M`.
        tile_size: usize,
    },
    /// The image is not square — the paper's pipeline operates on `N×N`
    /// images.
    NotSquare {
        /// Observed width.
        width: usize,
        /// Observed height.
        height: usize,
    },
    /// A tile error under this metric can exceed a `u32` matrix entry.
    EntryOverflow {
        /// The requested metric.
        metric: TileMetric,
        /// Tile edge `M`.
        tile_size: usize,
    },
    /// One tile does not fit the simulated device's shared memory per
    /// block, where the §V Step-2 kernel stages it.
    SharedMemoryOverflow {
        /// Bytes of one packed tile.
        tile_bytes: usize,
        /// Shared memory per block, in bytes.
        capacity: usize,
    },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::InvalidTileSize {
                tile_size,
                image_size,
            } => write!(
                f,
                "tile size {tile_size} invalid for image size {image_size}"
            ),
            LayoutError::NotDivisible {
                image_size,
                tile_size,
            } => write!(
                f,
                "image size {image_size} is not a multiple of tile size {tile_size}"
            ),
            LayoutError::NotSquare { width, height } => {
                write!(f, "image {width}x{height} is not square")
            }
            LayoutError::EntryOverflow { metric, tile_size } => write!(
                f,
                "metric {} with tile {tile_size}x{tile_size} overflows u32 matrix entries",
                metric.name()
            ),
            LayoutError::SharedMemoryOverflow {
                tile_bytes,
                capacity,
            } => write!(
                f,
                "a {tile_bytes}-byte tile does not fit {capacity} bytes of shared memory per block"
            ),
        }
    }
}

impl std::error::Error for LayoutError {}

/// Geometry of a square image divided into square tiles.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct TileLayout {
    image_size: usize,
    tile_size: usize,
    tiles_per_side: usize,
}

impl TileLayout {
    /// Build a layout for an `image_size × image_size` image with
    /// `tile_size × tile_size` tiles.
    ///
    /// # Errors
    /// Rejects zero/oversized tile sizes and non-divisible image sizes.
    pub fn new(image_size: usize, tile_size: usize) -> Result<Self, LayoutError> {
        if tile_size == 0 || tile_size > image_size {
            return Err(LayoutError::InvalidTileSize {
                tile_size,
                image_size,
            });
        }
        if !image_size.is_multiple_of(tile_size) {
            return Err(LayoutError::NotDivisible {
                image_size,
                tile_size,
            });
        }
        Ok(TileLayout {
            image_size,
            tile_size,
            tiles_per_side: image_size / tile_size,
        })
    }

    /// Build a layout from a grid resolution: `grid × grid` tiles, i.e. the
    /// paper's "divided into `32 × 32` tiles" phrasing.
    ///
    /// # Errors
    /// Same conditions as [`TileLayout::new`].
    pub fn with_grid(image_size: usize, grid: usize) -> Result<Self, LayoutError> {
        if grid == 0 || grid > image_size {
            return Err(LayoutError::InvalidTileSize {
                tile_size: 0,
                image_size,
            });
        }
        if !image_size.is_multiple_of(grid) {
            return Err(LayoutError::NotDivisible {
                image_size,
                tile_size: image_size / grid,
            });
        }
        TileLayout::new(image_size, image_size / grid)
    }

    /// Validate that `img` matches this layout's geometry.
    ///
    /// # Errors
    /// Returns [`LayoutError::NotSquare`] for non-square images and
    /// [`LayoutError::InvalidTileSize`] when the edge differs from `N`.
    pub fn check_image<P: Pixel>(&self, img: &Image<P>) -> Result<(), LayoutError> {
        let (w, h) = img.dimensions();
        if w != h {
            return Err(LayoutError::NotSquare {
                width: w,
                height: h,
            });
        }
        if w != self.image_size {
            return Err(LayoutError::InvalidTileSize {
                tile_size: self.tile_size,
                image_size: w,
            });
        }
        Ok(())
    }

    /// Image edge `N`.
    #[inline]
    pub fn image_size(&self) -> usize {
        self.image_size
    }

    /// Tile edge `M`.
    #[inline]
    pub fn tile_size(&self) -> usize {
        self.tile_size
    }

    /// Tiles per side `N / M`.
    #[inline]
    pub fn tiles_per_side(&self) -> usize {
        self.tiles_per_side
    }

    /// Total number of tiles `S = (N/M)²`.
    #[inline]
    pub fn tile_count(&self) -> usize {
        self.tiles_per_side * self.tiles_per_side
    }

    /// Pixels per tile `M²`.
    #[inline]
    pub fn pixels_per_tile(&self) -> usize {
        self.tile_size * self.tile_size
    }

    /// Row-major `(row, col)` of tile `index`.
    ///
    /// # Panics
    /// Panics when `index >= S`.
    #[inline]
    pub fn tile_position(&self, index: usize) -> (usize, usize) {
        assert!(index < self.tile_count(), "tile index {index} out of range");
        (index / self.tiles_per_side, index % self.tiles_per_side)
    }

    /// Pixel origin `(x, y)` of tile `index`.
    #[inline]
    pub fn tile_origin(&self, index: usize) -> (usize, usize) {
        let (row, col) = self.tile_position(index);
        (col * self.tile_size, row * self.tile_size)
    }

    /// Borrow the view of tile `index` in `img`.
    ///
    /// # Panics
    /// Panics when the image does not match the layout (checked in debug
    /// via [`TileLayout::check_image`] semantics) or `index` is out of
    /// range.
    pub fn tile_view<'a, P: Pixel>(&self, img: &'a Image<P>, index: usize) -> ImageView<'a, P> {
        let (x, y) = self.tile_origin(index);
        img.view(x, y, self.tile_size, self.tile_size)
            // lint:allow(panic) documented "# Panics" contract: callers pass images matching the layout
            .expect("image must match the layout geometry")
    }
}

/// One image's tiles in tile-major bytes: tile `i` is one contiguous run
/// of `M² · CHANNELS` bytes, its rows in order and each pixel's channels
/// interleaved — the copy the paper's §V kernel stages in shared memory.
/// Built only by [`crate::pack_pair`], after the Step-2 checks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedTiles {
    bytes: Vec<u8>,
    tile_bytes: usize,
}

impl PackedTiles {
    /// Pack every tile of `img` in index order.
    ///
    /// # Panics
    /// Panics when `img` does not match `layout`.
    pub(crate) fn pack<P: Pixel>(img: &Image<P>, layout: TileLayout) -> Self {
        let mut bytes = Vec::with_capacity(img.pixels().len() * P::CHANNELS);
        for i in 0..layout.tile_count() {
            for row in layout.tile_view(img, i).rows() {
                bytes.extend_from_slice(P::row_bytes(row));
            }
        }
        let tile_bytes = layout.pixels_per_tile() * P::CHANNELS;
        PackedTiles { bytes, tile_bytes }
    }

    /// The bytes of tile `index` (panics when it is out of range).
    pub fn tile(&self, index: usize) -> &[u8] {
        &self.bytes[index * self.tile_bytes..][..self.tile_bytes]
    }

    /// Every tile's bytes, in index order.
    pub fn iter(&self) -> std::slice::ChunksExact<'_, u8> {
        self.bytes.chunks_exact(self.tile_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_image::synth;

    #[test]
    fn construction_validates() {
        let l = TileLayout::new(512, 16).unwrap();
        assert_eq!(l.image_size(), 512);
        assert_eq!(l.tile_size(), 16);
        assert_eq!(l.tiles_per_side(), 32);
        assert_eq!(l.tile_count(), 1024);
        assert_eq!(l.pixels_per_tile(), 256);

        assert!(matches!(
            TileLayout::new(512, 0),
            Err(LayoutError::InvalidTileSize { .. })
        ));
        assert!(matches!(
            TileLayout::new(512, 600),
            Err(LayoutError::InvalidTileSize { .. })
        ));
        assert!(matches!(
            TileLayout::new(512, 100),
            Err(LayoutError::NotDivisible { .. })
        ));
    }

    #[test]
    fn with_grid_matches_paper_phrasing() {
        // "divided into 32 x 32 tiles" of a 512 x 512 image -> M = 16.
        let l = TileLayout::with_grid(512, 32).unwrap();
        assert_eq!(l.tile_size(), 16);
        assert_eq!(l.tile_count(), 32 * 32);
        assert!(TileLayout::with_grid(512, 0).is_err());
        assert!(TileLayout::with_grid(100, 33).is_err());
    }

    #[test]
    fn index_position_roundtrip() {
        let l = TileLayout::new(64, 8).unwrap();
        for i in 0..l.tile_count() {
            let (r, c) = l.tile_position(i);
            assert!(r < l.tiles_per_side() && c < l.tiles_per_side());
            assert_eq!(r * l.tiles_per_side() + c, i);
        }
    }

    #[test]
    fn origins_cover_image_without_overlap() {
        let l = TileLayout::new(32, 8).unwrap();
        let mut seen = vec![false; 32 * 32];
        for i in 0..l.tile_count() {
            let (x, y) = l.tile_origin(i);
            for dy in 0..8 {
                for dx in 0..8 {
                    let idx = (y + dy) * 32 + (x + dx);
                    assert!(!seen[idx], "pixel covered twice");
                    seen[idx] = true;
                }
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn tile_views_match_manual_indexing() {
        let img = synth::gradient(32);
        let l = TileLayout::new(32, 8).unwrap();
        let v = l.tile_view(&img, 5); // row 1, col 1 at 4 tiles/side? no: 32/8=4 per side, index 5 = (1,1)
        assert_eq!(l.tile_position(5), (1, 1));
        assert_eq!(v.pixel(0, 0), img.pixel(8, 8));
        assert_eq!(v.pixel(7, 7), img.pixel(15, 15));
    }

    #[test]
    fn packed_tiles_are_the_tile_views_row_by_row() {
        let img = mosaic_image::Image::from_fn(6, 6, |x, y| {
            mosaic_image::Rgb::new(x as u8, y as u8, (x * y) as u8)
        })
        .unwrap();
        let l = TileLayout::new(6, 3).unwrap();
        let packed = PackedTiles::pack(&img, l);
        assert_eq!(packed.iter().len(), 4);
        for (i, tile) in packed.iter().enumerate() {
            let view = l.tile_view(&img, i);
            let expected: Vec<u8> = view
                .rows()
                .flat_map(|r| r.iter().flat_map(|p| p.channels().to_vec()))
                .collect();
            assert_eq!(tile, &expected[..], "tile {i}");
            assert_eq!(packed.tile(i), tile);
        }
    }

    #[test]
    fn check_image_rejects_mismatches() {
        let l = TileLayout::new(16, 4).unwrap();
        let ok = synth::gradient(16);
        assert!(l.check_image(&ok).is_ok());
        let wrong_size = synth::gradient(32);
        assert!(matches!(
            l.check_image(&wrong_size),
            Err(LayoutError::InvalidTileSize { .. })
        ));
        let non_square = mosaic_image::Image::from_fn(16, 8, |_, _| mosaic_image::Gray(0)).unwrap();
        assert!(matches!(
            l.check_image(&non_square),
            Err(LayoutError::NotSquare { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn tile_position_out_of_range_panics() {
        let l = TileLayout::new(16, 4).unwrap();
        let _ = l.tile_position(16);
    }

    #[test]
    fn single_tile_layout() {
        let l = TileLayout::new(8, 8).unwrap();
        assert_eq!(l.tile_count(), 1);
        assert_eq!(l.tile_origin(0), (0, 0));
    }

    #[test]
    fn error_display() {
        assert!(TileLayout::new(10, 3)
            .unwrap_err()
            .to_string()
            .contains("10"));
        assert!(TileLayout::new(10, 0)
            .unwrap_err()
            .to_string()
            .contains("invalid"));
    }
}
