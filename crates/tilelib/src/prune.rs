//! Clustered candidate pruning.
//!
//! Each target cell is routed to its `top_clusters` nearest clusters
//! (by descriptor distance to the centroids) and only the member tiles
//! of those clusters are scored with the exact pixel metric. The
//! emitted instance is therefore sparse — `S` rows (cells) against `T`
//! columns (tiles) with roughly `top_clusters · T / k` candidates per
//! row instead of `T` — which is what makes large-library assignment
//! tractable.
//!
//! Guarantee: pruning never invents costs. Every candidate is scored
//! with the same metric a dense solve would use, and the feasibility
//! repair in `mosaic-assign` charges injected edges their *true* cost
//! too, so the sparse optimum is always an upper bound of the dense
//! optimum that is exact when every cluster is selected.

use crate::features::{distance2, FeatureVec};
use crate::kmeans::Clustering;
use mosaic_grid::{pair_error, TileMetric};
use mosaic_image::{kernel, Gray, GrayImage, Pixel};
use mosaic_pool::ThreadPool;

/// Candidate tile indices for one cell: the members of its
/// `top_clusters` nearest clusters, ascending.
pub fn nearest_cluster_candidates(
    cell_feature: &FeatureVec,
    clustering: &Clustering,
    top_clusters: usize,
) -> Vec<usize> {
    let k = clustering.centroids.len();
    let take = top_clusters.max(1).min(k);
    let mut ranked: Vec<usize> = (0..k).collect();
    ranked.sort_by(|&a, &b| {
        let da = distance2(&clustering.centroids[a], cell_feature);
        let db = distance2(&clustering.centroids[b], cell_feature);
        da.partial_cmp(&db)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut out = Vec::new();
    for &cluster in &ranked[..take] {
        out.extend_from_slice(&clustering.members[cluster]);
    }
    out.sort_unstable();
    out
}

/// Score every cell's pruned candidates with the exact pixel metric, in
/// parallel over cells. Returns per-cell `(tile, cost)` lists in tile
/// order — the shape `SparseCostMatrix::from_candidates_rect` consumes.
///
/// Deterministic for any thread count: each cell's list depends only on
/// its own feature and pixels.
pub fn scored_candidates(
    cells: &[GrayImage],
    cell_features: &[FeatureVec],
    tiles: &[GrayImage],
    clustering: &Clustering,
    top_clusters: usize,
    metric: TileMetric,
    pool: &ThreadPool,
) -> Vec<Vec<(usize, u32)>> {
    assert_eq!(cells.len(), cell_features.len());
    let mut lists: Vec<Vec<(usize, u32)>> = vec![Vec::new(); cells.len()];
    let chunk = cells.len().div_ceil(pool.threads().max(1) * 4).max(1);
    pool.parallel_for_mut(&mut lists, chunk, |chunk_index, slot| {
        let base = chunk_index * chunk;
        for (i, list) in slot.iter_mut().enumerate() {
            let cell = base + i;
            let candidates =
                nearest_cluster_candidates(&cell_features[cell], clustering, top_clusters);
            *list = candidates
                .into_iter()
                .map(|t| (t, pair_cost(&cells[cell], &tiles[t], metric)))
                .collect();
        }
    });
    lists
}

/// Exact metric cost between a cell and a tile, saturated into `u32`
/// (`max_tile_error` proves no overflow for the supported tile sizes,
/// but saturation keeps the conversion total).
pub fn pair_cost(cell: &GrayImage, tile: &GrayImage, metric: TileMetric) -> u32 {
    let (a, b) = (
        Gray::row_bytes(cell.pixels()),
        Gray::row_bytes(tile.pixels()),
    );
    u32::try_from(pair_error(kernel::active(), a, b, metric)).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{batch_features, tile_feature};
    use crate::kmeans::kmeans;
    use mosaic_image::synth::Scene;

    fn flat(level: u8) -> GrayImage {
        GrayImage::from_fn(8, 8, |_, _| mosaic_image::Gray(level)).unwrap()
    }

    #[test]
    fn candidates_come_from_nearest_clusters() {
        // Two clusters: dark tiles 0..4, bright tiles 4..8.
        let tiles: Vec<GrayImage> = (0..4)
            .map(|i| flat(10 + i))
            .chain((0..4).map(|i| flat(240 + i)))
            .collect();
        let pool = ThreadPool::new(1);
        let features = batch_features(&tiles, 2, &pool);
        let clustering = kmeans(&features, 2, 9, &pool);
        pool.shutdown();

        let dark_cell = tile_feature(&flat(12), 2);
        let picked = nearest_cluster_candidates(&dark_cell, &clustering, 1);
        assert_eq!(picked.len(), 4);
        assert!(picked.iter().all(|&t| t < 4), "{picked:?}");

        // Selecting every cluster yields the whole library.
        let all = nearest_cluster_candidates(&dark_cell, &clustering, 2);
        assert_eq!(all, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn scored_lists_use_the_exact_metric() {
        let tiles: Vec<GrayImage> = (0..6).map(|s| Scene::Plasma.render(8, s)).collect();
        let cells: Vec<GrayImage> = (10..13).map(|s| Scene::Plasma.render(8, s)).collect();
        let pool = ThreadPool::new(2);
        let tile_feats = batch_features(&tiles, 2, &pool);
        let cell_feats = batch_features(&cells, 2, &pool);
        let clustering = kmeans(&tile_feats, 2, 1, &pool);
        let lists = scored_candidates(
            &cells,
            &cell_feats,
            &tiles,
            &clustering,
            2, // all clusters: candidate set is the full library
            TileMetric::Sad,
            &pool,
        );
        pool.shutdown();
        assert_eq!(lists.len(), 3);
        for (cell, list) in cells.iter().zip(&lists) {
            assert_eq!(list.len(), 6);
            for &(t, cost) in list {
                assert_eq!(cost, pair_cost(cell, &tiles[t], TileMetric::Sad));
            }
        }
    }

    #[test]
    fn pair_cost_matches_the_view_oracle_on_random_tiles() {
        let mut rng = mosaic_image::testutil::XorShift::new(8);
        for _ in 0..64 {
            let cell = mosaic_image::testutil::gray_image(&mut rng, 8, 8);
            let tile = mosaic_image::testutil::gray_image(&mut rng, 8, 8);
            for metric in TileMetric::ALL {
                let oracle =
                    mosaic_grid::tile_error_scalar(&cell.full_view(), &tile.full_view(), metric);
                assert_eq!(
                    u64::from(pair_cost(&cell, &tile, metric)),
                    oracle,
                    "{metric:?}"
                );
            }
        }
    }

    #[test]
    fn scored_lists_are_thread_count_invariant() {
        let tiles: Vec<GrayImage> = (0..20).map(|s| Scene::Fur.render(8, s)).collect();
        let cells: Vec<GrayImage> = (50..58).map(|s| Scene::Fur.render(8, s)).collect();
        let reference_pool = ThreadPool::new(1);
        let tile_feats = batch_features(&tiles, 2, &reference_pool);
        let cell_feats = batch_features(&cells, 2, &reference_pool);
        let clustering = kmeans(&tile_feats, 4, 3, &reference_pool);
        let reference = scored_candidates(
            &cells,
            &cell_feats,
            &tiles,
            &clustering,
            2,
            TileMetric::Ssd,
            &reference_pool,
        );
        reference_pool.shutdown();
        for threads in [2, 5] {
            let pool = ThreadPool::new(threads);
            let run = scored_candidates(
                &cells,
                &cell_feats,
                &tiles,
                &clustering,
                2,
                TileMetric::Ssd,
                &pool,
            );
            pool.shutdown();
            assert_eq!(run, reference, "{threads} threads");
        }
    }
}
