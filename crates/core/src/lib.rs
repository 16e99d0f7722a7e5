//! Photomosaic generation by rearranging subimages.
//!
//! Reproduction of Yang, Ito & Nakano, *Photomosaic Generation by
//! Rearranging Subimages, with GPU Acceleration* (2017). Given an input
//! image and a target image of equal size, both divided into `S` tiles,
//! the library rearranges the input's tiles so the result reproduces the
//! target:
//!
//! 1. **Step 1** — divide both images into tiles
//!    ([`mosaic_grid::TileLayout`]) after optionally remapping the input's
//!    intensity distribution onto the target's ([`preprocess`], §II);
//! 2. **Step 2** — precompute the S×S error matrix `E(I_u, T_v)`
//!    ([`errors`]), serially, on CPU threads, or as the paper's CUDA
//!    kernel on the simulated device;
//! 3. **Step 3** — rearrange:
//!    * [`optimal`] — reduce to minimum-weight bipartite matching and
//!      solve exactly (§III);
//!    * [`local_search`] — Algorithm 1, the serial pairwise-swap
//!      approximation (§IV-A);
//!    * [`parallel_search`] — Algorithm 2, conflict-free swap batches from
//!      an edge coloring of K_S, run on CPU threads or as per-group kernel
//!      launches on the simulated device (§IV-B, §V).
//!
//! [`pipeline`] ties the steps together: [`generate`] takes any
//! [`MosaicPixel`] image pair (grayscale, or RGB for the §II color
//! extension) and a [`MosaicBuilder`] config, and [`generate_bounded_in`]
//! is the same run on an explicit pool with a [`Deadline`] and Step-2
//! matrix reuse. [`report`] captures timings, totals and work profiles
//! for the experiment harness.
//!
//! # Example
//!
//! ```
//! use photomosaic::{generate, Algorithm, Backend, MosaicBuilder};
//! use mosaic_image::synth::Scene;
//!
//! // Synthetic stand-ins for the paper's Lena -> Sailboat pair.
//! let input = Scene::Portrait.render(64, 1);
//! let target = Scene::Regatta.render(64, 2);
//!
//! let config = MosaicBuilder::new()
//!     .grid(8)                              // 8 x 8 tiles
//!     .algorithm(Algorithm::ParallelSearch) // the paper's Algorithm 2
//!     .backend(Backend::Serial)
//!     .build();
//! let result = generate(&input, &target, &config).unwrap();
//!
//! assert_eq!(result.image.dimensions(), (64, 64));
//! // Eq. (2): the reported total equals the SAD of the rearranged image.
//! assert_eq!(
//!     result.report.total_error,
//!     mosaic_image::metrics::sad(&result.image, &target),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod errors;
pub mod job;
pub mod json;
pub mod library;
pub mod local_search;
pub mod optimal;
pub mod parallel_search;
pub mod pipeline;
pub mod preprocess;
pub mod report;

pub use config::{Algorithm, Backend, MosaicBuilder, MosaicConfig, Preprocess};
pub use job::{ImageSource, JobResult, JobSpec};
pub use json::Json;
pub use library::assemble_from_tiles;
pub use mosaic_grid::{Deadline, DeadlineExceeded};
pub use pipeline::{generate, generate_bounded_in, GenerateError, MosaicResult};
pub use preprocess::MosaicPixel;
pub use report::GenerationReport;
