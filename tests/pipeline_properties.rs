//! Property-based tests over the full pipeline on random images, driven
//! by the deterministic [`mosaic_image::testutil`] PRNG (ported from the
//! former `proptest` suite; every case reproduces from the printed seed).

use mosaic_image::testutil::{gray_image, XorShift};
use mosaic_image::{metrics, Gray, Image};
use photomosaic::{generate, Algorithm, Backend, MosaicBuilder, Preprocess};

/// Random square images whose size is `grid * tile` for small factors,
/// generated as a same-sized pair.
fn arb_pair(rng: &mut XorShift) -> (Image<Gray>, Image<Gray>, usize) {
    let grid = rng.range(2, 4);
    let tile = rng.range(3, 6);
    let n = grid * tile;
    (gray_image(rng, n, n), gray_image(rng, n, n), grid)
}

#[test]
fn pipeline_is_deterministic() {
    for seed in 0..12 {
        let mut rng = XorShift::new(seed);
        let (input, target, grid) = arb_pair(&mut rng);
        let config = MosaicBuilder::new()
            .grid(grid)
            .backend(Backend::Serial)
            .build();
        let a = generate(&input, &target, &config).unwrap();
        let b = generate(&input, &target, &config).unwrap();
        assert_eq!(a.image, b.image, "seed {seed}");
        assert_eq!(a.assignment, b.assignment, "seed {seed}");
        assert_eq!(a.report.total_error, b.report.total_error, "seed {seed}");
    }
}

#[test]
fn reported_total_equals_assembled_sad() {
    for seed in 0..12 {
        let mut rng = XorShift::new(seed);
        let (input, target, grid) = arb_pair(&mut rng);
        for algorithm in [
            Algorithm::Optimal(mosaic_assign::SolverKind::JonkerVolgenant),
            Algorithm::LocalSearch,
            Algorithm::ParallelSearch,
        ] {
            let config = MosaicBuilder::new()
                .grid(grid)
                .algorithm(algorithm)
                .backend(Backend::Serial)
                .build();
            let result = generate(&input, &target, &config).unwrap();
            assert_eq!(
                result.report.total_error,
                metrics::sad(&result.image, &target),
                "seed {seed}"
            );
        }
    }
}

#[test]
fn optimal_bounds_every_other_algorithm() {
    for seed in 0..8 {
        let mut rng = XorShift::new(seed);
        let (input, target, grid) = arb_pair(&mut rng);
        let run = |algorithm| {
            let config = MosaicBuilder::new()
                .grid(grid)
                .algorithm(algorithm)
                .backend(Backend::Serial)
                .build();
            generate(&input, &target, &config)
                .unwrap()
                .report
                .total_error
        };
        let optimal = run(Algorithm::Optimal(mosaic_assign::SolverKind::Hungarian));
        let jv = run(Algorithm::Optimal(
            mosaic_assign::SolverKind::JonkerVolgenant,
        ));
        let blossom = run(Algorithm::Optimal(mosaic_assign::SolverKind::Blossom));
        assert!(run(Algorithm::LocalSearch) >= optimal, "seed {seed}");
        assert!(run(Algorithm::ParallelSearch) >= optimal, "seed {seed}");
        assert!(run(Algorithm::Greedy) >= optimal, "seed {seed}");
        assert_eq!(jv, optimal, "seed {seed}");
        assert_eq!(blossom, optimal, "seed {seed}");
    }
}

#[test]
fn mosaic_without_preprocess_is_a_tile_permutation() {
    for seed in 0..12 {
        let mut rng = XorShift::new(seed);
        let (input, target, grid) = arb_pair(&mut rng);
        let config = MosaicBuilder::new()
            .grid(grid)
            .backend(Backend::Serial)
            .preprocess(Preprocess::None)
            .build();
        let result = generate(&input, &target, &config).unwrap();
        let mut a: Vec<u8> = input.pixels().iter().map(|p| p.0).collect();
        let mut b: Vec<u8> = result.image.pixels().iter().map(|p| p.0).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "seed {seed}");
    }
}

#[test]
fn rearranged_never_worse_than_unrearranged() {
    for seed in 0..12 {
        let mut rng = XorShift::new(seed);
        let (input, target, grid) = arb_pair(&mut rng);
        let config = MosaicBuilder::new()
            .grid(grid)
            .backend(Backend::Serial)
            .preprocess(Preprocess::None)
            .build();
        let result = generate(&input, &target, &config).unwrap();
        assert!(
            result.report.total_error <= metrics::sad(&input, &target),
            "seed {seed}"
        );
    }
}

#[test]
fn backends_are_bit_identical() {
    for seed in 0..8 {
        let mut rng = XorShift::new(seed);
        let (input, target, grid) = arb_pair(&mut rng);
        let mk = |backend| {
            MosaicBuilder::new()
                .grid(grid)
                .algorithm(Algorithm::ParallelSearch)
                .backend(backend)
                .build()
        };
        let serial = generate(&input, &target, &mk(Backend::Serial)).unwrap();
        let threads = generate(&input, &target, &mk(Backend::Threads(2))).unwrap();
        let gpu = generate(&input, &target, &mk(Backend::GpuSim { workers: Some(2) })).unwrap();
        assert_eq!(&serial.image, &threads.image, "seed {seed}");
        assert_eq!(&serial.image, &gpu.image, "seed {seed}");
    }
}
