//! Cross-crate integration: substrates composed directly, bypassing the
//! pipeline facade.

use mosaic_assign::{solve_hungarian, solve_jv};
use mosaic_edgecolor::{is_exact_cover, is_proper_coloring, SwapSchedule};
use mosaic_gpu::{DeviceSpec, GpuSim};
use mosaic_grid::{assemble, build_error_matrix, TileLayout, TileMetric};
use mosaic_image::{metrics, synth};
use photomosaic::errors::gpu_error_matrix;
use photomosaic::local_search::local_search;
use photomosaic::parallel_search::{parallel_search_gpu, parallel_search_reference};

#[test]
fn gpu_error_matrix_agrees_with_grid_serial_at_paper_small_scale() {
    // N = 128, S = 16x16 (the paper's smallest grid, scaled-down image).
    let input = synth::portrait(128, 11);
    let target = synth::regatta(128, 12);
    let layout = TileLayout::with_grid(128, 16).unwrap();
    let serial = build_error_matrix(&input, &target, layout, TileMetric::Sad).unwrap();
    let sim = GpuSim::new(DeviceSpec::tesla_k40());
    let gpu = gpu_error_matrix(&sim, &input, &target, layout, TileMetric::Sad).unwrap();
    assert_eq!(serial, gpu);
    // One launch, S blocks.
    let stats = sim.stats();
    assert_eq!(stats.launches, 1);
    assert_eq!(stats.blocks, 256);
}

#[test]
fn solver_on_real_error_matrix_beats_local_search_or_ties() {
    let input = synth::fur(64, 5);
    let target = synth::drapery(64, 6);
    let layout = TileLayout::with_grid(64, 8).unwrap();
    let matrix = build_error_matrix(&input, &target, layout, TileMetric::Sad).unwrap();
    let exact = matrix.assignment_total(&solve_jv(&matrix));
    let hungarian = matrix.assignment_total(&solve_hungarian(&matrix));
    assert_eq!(exact, hungarian);
    let approx = local_search(&matrix);
    assert!(exact <= approx.total);
}

#[test]
fn assembled_mosaic_error_equals_solver_total() {
    let input = synth::plasma(64, 9, 3);
    let target = synth::checker(64, 8, 4);
    let layout = TileLayout::with_grid(64, 8).unwrap();
    let matrix = build_error_matrix(&input, &target, layout, TileMetric::Sad).unwrap();
    let assignment = solve_jv(&matrix);
    let mosaic = assemble(&input, layout, &assignment).unwrap();
    assert_eq!(
        metrics::sad(&mosaic, &target),
        matrix.assignment_total(&assignment)
    );
}

#[test]
fn schedule_used_by_search_is_a_valid_coloring() {
    let s = 144; // 12x12 tiles
    let sched = SwapSchedule::for_tiles(s);
    assert!(is_proper_coloring(&sched.groups(), s));
    assert!(is_exact_cover(&sched.groups(), s));
}

#[test]
fn gpu_search_on_real_matrix_matches_reference_and_reports_launches() {
    let input = synth::portrait(64, 2);
    let target = synth::fur(64, 3);
    let layout = TileLayout::with_grid(64, 8).unwrap();
    let matrix = build_error_matrix(&input, &target, layout, TileMetric::Sad).unwrap();
    let sched = SwapSchedule::for_tiles(matrix.size());
    let sim = GpuSim::with_workers(DeviceSpec::tesla_k40(), 4);
    let gpu = parallel_search_gpu(&sim, &matrix, &sched);
    let reference = parallel_search_reference(&matrix, &sched);
    assert_eq!(gpu, reference);
    // §V: one kernel launch per occupied group per sweep.
    let occupied = sched.occupied_groups().count();
    assert_eq!(gpu.launches, gpu.outcome.sweeps * occupied);
    assert_eq!(sim.stats().launches, gpu.launches);
}

#[test]
fn metric_choice_changes_matrix_but_all_stay_consistent() {
    let input = synth::drapery(48, 8);
    let target = synth::portrait(48, 9);
    let layout = TileLayout::with_grid(48, 6).unwrap();
    for metric in TileMetric::ALL {
        let matrix = build_error_matrix(&input, &target, layout, metric).unwrap();
        let out = local_search(&matrix);
        assert_eq!(out.total, matrix.assignment_total(&out.assignment));
    }
    // SAD and MeanAbs matrices must actually differ on textured tiles.
    let sad = build_error_matrix(&input, &target, layout, TileMetric::Sad).unwrap();
    let mean = build_error_matrix(&input, &target, layout, TileMetric::MeanAbs).unwrap();
    assert_ne!(sad, mean);
}

#[test]
fn pnm_roundtrip_preserves_pipeline_results() {
    // Write a generated mosaic to PGM bytes and read it back unchanged.
    let (input, target) = (synth::portrait(64, 1), synth::regatta(64, 2));
    let config = photomosaic::MosaicBuilder::new()
        .grid(8)
        .backend(photomosaic::Backend::Serial)
        .build();
    let result = photomosaic::generate(&input, &target, &config).unwrap();
    let bytes = mosaic_image::io::write_pgm(&result.image);
    let back = mosaic_image::io::read_pgm(&bytes).unwrap();
    assert_eq!(back, result.image);
}
