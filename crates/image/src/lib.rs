//! Image substrate for the photomosaic reproduction.
//!
//! The paper ("Photomosaic Generation by Rearranging Subimages, with GPU
//! Acceleration", Yang/Ito/Nakano, 2017) operates on square 8-bit grayscale
//! images and notes that the method extends to color by changing only the
//! per-pixel error term. This crate provides everything the pipeline needs
//! from an imaging library, built from scratch:
//!
//! * [`pixel`] — grayscale and RGB pixel types behind the [`Pixel`] trait;
//! * [`image`] — the owned row-major [`Image`] buffer and borrowed
//!   [`ImageView`] windows;
//! * [`io`] — binary and ASCII PGM/PPM (Netpbm) readers and writers so real
//!   datasets (e.g. USC-SIPI, which the paper uses) can be dropped in;
//! * [`histogram`] — intensity histograms, equalization and histogram
//!   *specification* (the paper's pre-processing step that remaps the input
//!   image's distribution onto the target's);
//! * [`synth`] — deterministic synthetic scene generators standing in for
//!   the paper's USC-SIPI test images;
//! * [`resize`] — resampling for the tile library's ingest and assembly;
//! * [`metrics`] — MSE/PSNR/SSIM quality metrics used in EXPERIMENTS.md;
//! * [`kernel`] — runtime-dispatched SAD/SSD byte-row kernels
//!   (scalar / AVX2) behind a process-wide dispatch table.
//!
//! Everything is deterministic: the synthetic generators use a local
//! xorshift PRNG seeded explicitly, so experiment outputs are reproducible
//! bit-for-bit.
//!
//! # Example
//!
//! ```
//! use mosaic_image::{Gray, Image};
//! use mosaic_image::io::{read_pgm, write_pgm};
//!
//! let img = Image::from_fn(4, 4, |x, y| Gray(((x + y) * 36) as u8)).unwrap();
//! let bytes = write_pgm(&img);
//! assert_eq!(read_pgm(&bytes).unwrap(), img);
//! ```

// `deny` rather than `forbid`: the AVX2 kernel layer (3 `unsafe fn`
// kernels, 2 dispatch wrappers) and the 2 `Pixel::row_bytes` layout
// casts carry the only `#[allow(unsafe_code)]` overrides, each with a
// SAFETY proof checked by mosaic-lint's unsafe-hygiene rule.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod histogram;
pub mod image;
pub mod io;
#[allow(unsafe_code)]
pub mod kernel;
pub mod metrics;
pub mod pixel;
pub mod resize;
pub mod synth;
pub mod testutil;

pub use crate::error::ImageError;
pub use crate::image::{GrayImage, Image, ImageView, RgbImage};
pub use crate::pixel::{Gray, Pixel, Rgb};
