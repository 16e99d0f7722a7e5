//! Image I/O: Netpbm (PGM/PPM) read/write.
//!
//! The paper's experiments use USC-SIPI images, which are commonly shipped
//! as PGM/PPM. Binary (`P5`/`P6`) and ASCII (`P2`/`P3`) variants are
//! supported for both reading and writing, so real datasets can replace the
//! synthetic scenes without code changes.

pub mod pnm;

pub use pnm::{
    load_auto, read_pgm, read_ppm, write_pgm, write_pgm_ascii, write_ppm, write_ppm_ascii,
    AutoImage,
};

use crate::error::ImageError;
use crate::image::{GrayImage, RgbImage};
use std::path::Path;

/// Read a PGM file from disk.
///
/// # Errors
/// I/O failures and malformed streams are reported as [`ImageError`].
pub fn load_pgm(path: impl AsRef<Path>) -> Result<GrayImage, ImageError> {
    let bytes = std::fs::read(path)?;
    read_pgm(&bytes)
}

/// Read a PPM file from disk.
///
/// # Errors
/// I/O failures and malformed streams are reported as [`ImageError`].
pub fn load_ppm(path: impl AsRef<Path>) -> Result<RgbImage, ImageError> {
    let bytes = std::fs::read(path)?;
    read_ppm(&bytes)
}

/// Write a binary PGM file to disk.
///
/// # Errors
/// I/O failures are reported as [`ImageError::Io`].
pub fn save_pgm(path: impl AsRef<Path>, img: &GrayImage) -> Result<(), ImageError> {
    std::fs::write(path, write_pgm(img))?;
    Ok(())
}

/// Write a binary PPM file to disk.
///
/// # Errors
/// I/O failures are reported as [`ImageError::Io`].
pub fn save_ppm(path: impl AsRef<Path>, img: &RgbImage) -> Result<(), ImageError> {
    std::fs::write(path, write_ppm(img))?;
    Ok(())
}
