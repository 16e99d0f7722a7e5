//! End-to-end library mosaic execution.
//!
//! `execute_library` runs the full pruned pipeline on a caller-provided
//! `ThreadPool` over an already loaded [`StoreSnapshot`]: target cells →
//! descriptors → seeded k-means → clustered candidate scoring →
//! rectangular sparse solve → assembly. The job's deadline is polled
//! before each of those stages, so a job overshoots an expiry by at most
//! one stage.
//!
//! The store's contents and its clustering are pure functions of the
//! store, so a caller may reuse them across jobs: it loads the snapshot
//! itself and decides, through the `clustering` argument, whether the
//! tile descriptors and k-means run at all. The server keeps both warm
//! per store generation; the CLI passes [`uncached_clustering`].
//! Every stage that runs is timed into a `tilelib_*` histogram
//! (DESIGN.md §9) and the returned report carries cell/tile/candidate
//! counts plus the sparse total, so benches and the service can expose
//! them uniformly.

use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::TilelibError;
use crate::features::batch_features;
use crate::job::LibraryJobSpec;
use crate::kmeans::{kmeans, Clustering};
use crate::prune::scored_candidates;
use crate::store::StoreSnapshot;
use mosaic_assign::{solve_sparse_rect, SparseCostMatrix, SparseInstanceError};
use mosaic_grid::Deadline;
use mosaic_image::resize::{resize_bilinear, resize_box};
use mosaic_image::GrayImage;
use mosaic_pool::ThreadPool;
use mosaic_telemetry::registry;
use photomosaic::{assemble_from_tiles, JobResult, Json};

/// The `clustering` argument of [`execute_library`] for callers without
/// a cache: compute the clustering every time.
pub fn uncached_clustering(compute: &dyn Fn() -> Clustering) -> Arc<Clustering> {
    Arc::new(compute())
}

/// Run a library job over `store` (the snapshot of `spec.store`) to
/// completion on `pool`, polling `deadline` before each stage. Callers
/// without a bound pass [`Deadline::NONE`].
///
/// `clustering` obtains the k-means clustering of the store's tiles
/// under the job's `feature_grid`, `clusters` and `seed`: it either
/// returns one it has kept from an earlier job on the same snapshot or
/// calls the `compute` it is handed, which computes the tile descriptors
/// and runs k-means.
///
/// # Errors
/// Typed [`TilelibError`]s: invalid parameters, a library smaller than
/// the cell count, or [`TilelibError::DeadlineExceeded`] when `deadline`
/// expires before the last stage starts.
pub fn execute_library(
    spec: &LibraryJobSpec,
    store: &StoreSnapshot,
    clustering: impl FnOnce(&dyn Fn() -> Clustering) -> Arc<Clustering>,
    pool: &ThreadPool,
    deadline: &Deadline,
) -> Result<JobResult, TilelibError> {
    spec.params.validate()?;
    deadline.check()?;
    let tiles = &store.tiles;
    let grid = spec.params.grid;
    let cells = grid * grid;
    if tiles.len() < cells {
        return Err(TilelibError::Infeasible {
            cells,
            tiles: tiles.len(),
        });
    }

    // Target: resolve and normalize so each cell is exactly one tile.
    let target = spec
        .target
        .resolve()
        .map_err(|e| TilelibError::Config(format!("target: {e}")))?;
    let tile_size = store.tile_size;
    let wanted = grid * tile_size;
    let target = if target.width() == wanted {
        target
    } else if target.width() > wanted {
        resize_box(&target, wanted, wanted)
            .map_err(|e| TilelibError::Config(format!("resize target: {e:?}")))?
    } else {
        resize_bilinear(&target, wanted, wanted)
            .map_err(|e| TilelibError::Config(format!("resize target: {e:?}")))?
    };
    let cell_images: Vec<GrayImage> = (0..cells)
        .map(|i| {
            let (cy, cx) = (i / grid, i % grid);
            GrayImage::from_fn(tile_size, tile_size, |x, y| {
                target.pixel(cx * tile_size + x, cy * tile_size + y)
            })
        })
        .collect::<Result<_, _>>()
        .map_err(|e| TilelibError::Config(format!("cell extraction: {e:?}")))?;

    // Stage 1: descriptors for the cells.
    deadline.check()?;
    let start = Instant::now();
    let cell_features = batch_features(&cell_images, spec.params.feature_grid, pool);
    let cell_feature_time = start.elapsed();

    // Stage 2: seeded clustering of the library. Its tile descriptors
    // count as feature time, so `tilelib_feature_us` gets one sample per
    // job: the cells, plus the tiles when the clustering was computed.
    deadline.check()?;
    let tile_feature_time = Cell::new(Duration::ZERO);
    let clustering = clustering(&|| {
        let start = Instant::now();
        let tile_features = batch_features(tiles, spec.params.feature_grid, pool);
        tile_feature_time.set(start.elapsed());
        let start = Instant::now();
        let clustering = kmeans(&tile_features, spec.params.clusters, spec.params.seed, pool);
        registry()
            .histogram("tilelib_kmeans_us")
            .record_duration_us(start.elapsed());
        clustering
    });
    registry()
        .histogram("tilelib_feature_us")
        .record_duration_us(cell_feature_time + tile_feature_time.get());

    // Stage 3: clustered candidate scoring.
    deadline.check()?;
    let start = Instant::now();
    let lists = scored_candidates(
        &cell_images,
        &cell_features,
        tiles,
        &clustering,
        spec.params.top_clusters,
        spec.params.metric,
        pool,
    );
    registry()
        .histogram("tilelib_prune_us")
        .record_duration_us(start.elapsed());
    let candidates_total = record_candidates(&lists);

    // Stage 4: rectangular sparse solve on the pruned instance.
    deadline.check()?;
    let start = Instant::now();
    let sparse =
        SparseCostMatrix::from_candidates_rect(cells, tiles.len(), &lists, |cell, tile| {
            crate::prune::pair_cost(&cell_images[cell], &tiles[tile], spec.params.metric)
        })
        .map_err(map_instance_error)?;
    let assignment = solve_sparse_rect(&sparse).map_err(map_instance_error)?;
    registry()
        .histogram("tilelib_solve_us")
        .record_duration_us(start.elapsed());

    let total_cost: u64 = assignment
        .iter()
        .enumerate()
        .map(|(cell, &tile)| {
            u64::from(crate::prune::pair_cost(
                &cell_images[cell],
                &tiles[tile],
                spec.params.metric,
            ))
        })
        .sum();

    // Stage 5: assembly from the winning tiles.
    deadline.check()?;
    let image = assemble_from_tiles(tiles, &assignment, grid).map_err(TilelibError::Config)?;

    let report = Json::obj([
        ("cells", Json::from(cells)),
        ("tiles", Json::from(tiles.len())),
        ("clusters", Json::from(clustering.centroids.len())),
        ("top_clusters", Json::from(spec.params.top_clusters)),
        ("candidates_total", Json::from(candidates_total)),
        ("sparse_nnz", Json::from(sparse.nnz())),
        ("total_error", Json::from(total_cost)),
        ("metric", Json::from(spec.params.metric.name())),
        ("tile_size", Json::from(tile_size)),
        ("store_digest_head", head_digest(&store.digests)),
    ]);
    Ok(JobResult {
        image,
        assignment,
        report,
    })
}

/// Record each cell's candidate count on `tilelib_candidates_per_cell`
/// and return their sum.
fn record_candidates(lists: &[Vec<(usize, u32)>]) -> usize {
    let per_cell = registry().histogram("tilelib_candidates_per_cell");
    for list in lists {
        per_cell.record(list.len() as u64);
    }
    lists.iter().map(Vec::len).sum()
}

/// First digest of the library walk (a cheap fingerprint of which store
/// state served the job), or null for an empty store.
fn head_digest(digests: &[String]) -> Json {
    match digests.first() {
        Some(d) => Json::Str(d.clone()),
        None => Json::Null,
    }
}

fn map_instance_error(e: SparseInstanceError) -> TilelibError {
    match e {
        SparseInstanceError::Infeasible { rows, cols } => TilelibError::Infeasible {
            cells: rows,
            tiles: cols,
        },
        other => TilelibError::Config(other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::LibraryParams;
    use crate::store::TileStore;
    use mosaic_grid::TileMetric;
    use mosaic_image::synth::Scene;
    use photomosaic::ImageSource;

    fn seeded_store(name: &str, tiles: usize, tile_size: usize) -> TileStore {
        let root = std::env::temp_dir()
            .join("mosaic_tilelib_tests")
            .join(format!("{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = TileStore::create(&root, tile_size).unwrap();
        let mut written = 0;
        let mut seed = 0u64;
        while written < tiles {
            let scene = Scene::ALL[(seed % Scene::ALL.len() as u64) as usize];
            let (_, fresh) = store.insert(&scene.render(tile_size, seed)).unwrap();
            if fresh {
                written += 1;
            }
            seed += 1;
        }
        store
    }

    /// A cold run, as `mosaic generate --library` does it.
    fn run(spec: &LibraryJobSpec, pool: &ThreadPool) -> Result<JobResult, TilelibError> {
        let store = TileStore::open(&spec.store)?.snapshot()?;
        execute_library(spec, &store, uncached_clustering, pool, &Deadline::NONE)
    }

    fn spec_for(store: &TileStore, grid: usize) -> LibraryJobSpec {
        LibraryJobSpec {
            target: ImageSource::Synth {
                scene: Scene::Portrait,
                size: 64,
                seed: 3,
            },
            store: store.root().display().to_string(),
            params: LibraryParams {
                grid,
                clusters: 8,
                top_clusters: 3,
                feature_grid: 4,
                seed: 11,
                metric: TileMetric::Sad,
            },
        }
    }

    #[test]
    fn end_to_end_library_mosaic() {
        let store = seeded_store("e2e", 40, 8);
        let spec = spec_for(&store, 4);
        let pool = ThreadPool::new(2);
        let result = run(&spec, &pool).unwrap();
        pool.shutdown();
        assert_eq!(result.image.dimensions(), (32, 32));
        assert_eq!(result.assignment.len(), 16);
        let mut seen = result.assignment.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 16, "tiles must be distinct");
        assert_eq!(result.report.get("cells").unwrap().as_u64(), Some(16));
        assert_eq!(result.report.get("tiles").unwrap().as_u64(), Some(40));
        assert!(result.report.get("total_error").unwrap().as_u64().is_some());
    }

    #[test]
    fn deterministic_across_runs_and_thread_counts() {
        let store = seeded_store("deterministic", 30, 8);
        let spec = spec_for(&store, 4);
        let pool1 = ThreadPool::new(1);
        let a = run(&spec, &pool1).unwrap();
        pool1.shutdown();
        let pool4 = ThreadPool::new(4);
        let b = run(&spec, &pool4).unwrap();
        pool4.shutdown();
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.image, b.image);
    }

    #[test]
    fn warm_store_kept_clustering_reproduces_the_cold_reply() {
        let store = seeded_store("kept_clustering", 30, 8);
        let snapshot = store.snapshot().unwrap();
        let pool = ThreadPool::new(2);
        for metric in [TileMetric::Sad, TileMetric::Ssd] {
            let mut spec = spec_for(&store, 4);
            spec.params.metric = metric;
            let mut kept = None;
            let cold = execute_library(
                &spec,
                &snapshot,
                |compute| Arc::clone(kept.insert(Arc::new(compute()))),
                &pool,
                &Deadline::NONE,
            )
            .unwrap();
            let kept = kept.expect("a cold run computes its clustering");
            let warm = execute_library(
                &spec,
                &snapshot,
                |_| Arc::clone(&kept),
                &pool,
                &Deadline::NONE,
            )
            .unwrap();
            assert_eq!(warm.to_json().encode(), cold.to_json().encode());
            assert_eq!(
                warm.to_json().encode(),
                run(&spec, &pool).unwrap().to_json().encode()
            );
        }
        pool.shutdown();
    }

    #[test]
    fn small_library_is_typed_infeasible() {
        let store = seeded_store("too_small", 5, 8);
        let spec = spec_for(&store, 4); // needs 16 tiles, has 5
        let pool = ThreadPool::new(1);
        let err = run(&spec, &pool).unwrap_err();
        pool.shutdown();
        assert_eq!(
            err,
            TilelibError::Infeasible {
                cells: 16,
                tiles: 5
            }
        );
    }

    #[test]
    fn missing_store_is_typed_store_error() {
        let spec = LibraryJobSpec {
            target: ImageSource::Synth {
                scene: Scene::Plasma,
                size: 32,
                seed: 0,
            },
            store: "/nonexistent/mosaic/store".to_string(),
            params: LibraryParams::default(),
        };
        let pool = ThreadPool::new(1);
        let err = run(&spec, &pool).unwrap_err();
        pool.shutdown();
        assert!(err.is_store(), "{err}");
    }

    #[test]
    fn full_cluster_search_matches_dense_quality() {
        // With top_clusters = clusters the candidate set is the whole
        // library, so the sparse solve is the exact rectangular optimum;
        // a pruned run can only cost more.
        let store = seeded_store("quality", 24, 8);
        let mut spec = spec_for(&store, 3);
        let pool = ThreadPool::new(2);
        spec.params.top_clusters = spec.params.clusters;
        let exact = run(&spec, &pool).unwrap();
        spec.params.top_clusters = 1;
        let pruned = run(&spec, &pool).unwrap();
        pool.shutdown();
        let exact_cost = exact.report.get("total_error").unwrap().as_u64().unwrap();
        let pruned_cost = pruned.report.get("total_error").unwrap().as_u64().unwrap();
        assert!(pruned_cost >= exact_cost, "{pruned_cost} vs {exact_cost}");
    }
}
