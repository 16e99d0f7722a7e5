//! Content-addressed tile library with clustered candidate pruning.
//!
//! The paper rearranges a target's own subimages — a square `S × S`
//! bijection. The classical photomosaic workload instead composes the
//! target from a large *external* tile library, and the clustering
//! literature (arXiv:1804.02827) makes that tractable by pruning each
//! cell's candidates to its nearest clusters. This crate is that
//! subsystem, std-only like the rest of the workspace:
//!
//! * [`store`] — deterministic on-disk tile store keyed by SHA-256 of
//!   canonical pixel content (dedup object layout; idempotent ingest;
//!   atomic writes; a generation that changes whenever an object is
//!   written, so a reader can keep a verified [`StoreSnapshot`] until it
//!   does);
//! * [`features`] — low-res block-mean descriptors per tile;
//! * [`kmeans`] — seeded deterministic k-means over those descriptors;
//! * [`prune`] — per-cell candidate lists from the nearest clusters,
//!   scored with the exact pixel metric;
//! * [`library`] — the end-to-end executor over a loaded snapshot,
//!   emitting a rectangular `SparseCostMatrix` (`S` cells × `T ≥ S`
//!   tiles) solved exactly by `mosaic_assign::solve_sparse_rect`; its
//!   caller decides whether a clustering is reused or computed;
//! * [`job`] — the wire-level [`LibraryJobSpec`] the service and
//!   gateway route on.
//!
//! # Example
//!
//! ```
//! use mosaic_image::synth::Scene;
//! use mosaic_pool::ThreadPool;
//! use mosaic_tilelib::{
//!     execute_library, uncached_clustering, LibraryJobSpec, LibraryParams, TileStore,
//! };
//! use photomosaic::{Deadline, ImageSource};
//!
//! let root = std::env::temp_dir().join("tilelib_doc_example");
//! let _ = std::fs::remove_dir_all(&root);
//! let store = TileStore::create(&root, 8).unwrap();
//! let mut seed = 0u64;
//! while store.len().unwrap() < 10 {
//!     store.insert(&Scene::Plasma.render(8, seed)).unwrap();
//!     seed += 1;
//! }
//! let spec = LibraryJobSpec {
//!     target: ImageSource::Synth { scene: Scene::Portrait, size: 24, seed: 1 },
//!     store: root.display().to_string(),
//!     params: LibraryParams { grid: 3, clusters: 4, ..LibraryParams::default() },
//! };
//! let pool = ThreadPool::new(2);
//! let snapshot = TileStore::open(&spec.store).unwrap().snapshot().unwrap();
//! let result =
//!     execute_library(&spec, &snapshot, uncached_clustering, &pool, &Deadline::NONE).unwrap();
//! pool.shutdown();
//! assert_eq!(result.image.dimensions(), (24, 24));
//! assert_eq!(result.assignment.len(), 9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod features;
pub mod hash;
pub mod job;
pub mod kmeans;
pub mod library;
pub mod prune;
pub mod store;

pub use error::TilelibError;
pub use features::{batch_features, tile_feature, FeatureVec};
pub use hash::{sha256_hex, Sha256};
pub use job::{LibraryJobSpec, LibraryParams};
pub use kmeans::{kmeans, Clustering};
pub use library::{execute_library, uncached_clustering};
pub use prune::{nearest_cluster_candidates, pair_cost, scored_candidates};
pub use store::{IngestReport, StoreSnapshot, TileStore};
