//! Tiling substrate: tile layouts, tile error metrics and the S×S error
//! matrix (Step 2 of the paper's pipeline).
//!
//! §II of the paper divides an `N×N` input image and target image into
//! `S = (N/M)²` tiles of `M×M` pixels and precomputes all `S²` pairwise
//! errors `E(I_u, T_v)`. This crate owns:
//!
//! * [`layout`] — the [`TileLayout`] geometry (N, M, S, index↔coordinate
//!   conversions) and [`PackedTiles`], one image's tiles in tile-major
//!   bytes;
//! * [`metric`] — the tile error `E` in one function, [`pair_error`], on
//!   two packed tiles: the paper's SAD (Eq. 1) plus SSD and a cheap
//!   mean-intensity metric for the ablation benches;
//! * [`matrix`] — the dense [`ErrorMatrix`] with `u32` entries and `u64`
//!   assignment totals;
//! * [`compute`] — [`pack_pair`] (the one layout/overflow check and
//!   packing step), the serial matrix builder, its view-based scalar
//!   oracle and the pool-backed threaded builder (the CUDA-model builder
//!   lives in the `photomosaic` crate on top of `mosaic-gpu`);
//! * [`assemble`] — rebuilding the rearranged image R from an assignment;
//! * [`deadline`] — the cooperative [`Deadline`] token the bounded builders
//!   and the search loops above this crate poll to cap worst-case work.
//!
//! # Example
//!
//! ```
//! use mosaic_grid::{assemble, build_error_matrix, TileLayout, TileMetric};
//! use mosaic_image::synth::Scene;
//!
//! let input = Scene::Plasma.render(32, 1);
//! let target = Scene::Checker.render(32, 2);
//! let layout = TileLayout::with_grid(32, 4).unwrap(); // S = 16 tiles
//! let matrix = build_error_matrix(&input, &target, layout, TileMetric::Sad).unwrap();
//!
//! // Eq. (2) for the identity arrangement equals the direct image SAD.
//! let identity: Vec<usize> = (0..16).collect();
//! assert_eq!(
//!     matrix.assignment_total(&identity),
//!     mosaic_image::metrics::sad(&input, &target),
//! );
//! assert_eq!(assemble(&input, layout, &identity).unwrap(), input);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assemble;
pub mod compute;
pub mod deadline;
pub mod layout;
pub mod matrix;
pub mod metric;

pub use assemble::assemble;
pub use compute::{
    build_error_matrix, build_error_matrix_bounded, build_error_matrix_scalar,
    build_error_matrix_threaded_bounded_in, init_simd_kernels, pack_pair, unbounded_build,
    BuildError,
};
pub use deadline::{Deadline, DeadlineExceeded};
pub use layout::{LayoutError, PackedTiles, TileLayout};
pub use matrix::ErrorMatrix;
pub use metric::{pair_error, tile_error_scalar, TileMetric};
