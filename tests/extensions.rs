//! The paper's literal Step-3 configuration, a general-graph blossom
//! matcher, run through the full pipeline.

use mosaic_assign::SolverKind;
use mosaic_image::metrics;
use photomosaic::{generate, Algorithm, Backend, MosaicBuilder};
use photomosaic_suite::figure2_pair;

#[test]
fn blossom_solver_through_the_full_pipeline() {
    // The paper's literal configuration: the exact rearrangement computed
    // by a general-graph blossom matcher.
    let (input, target) = figure2_pair(96);
    let run = |solver| {
        let config = MosaicBuilder::new()
            .grid(12)
            .algorithm(Algorithm::Optimal(solver))
            .backend(Backend::Serial)
            .build();
        generate(&input, &target, &config).unwrap()
    };
    let blossom = run(SolverKind::Blossom);
    let jv = run(SolverKind::JonkerVolgenant);
    assert_eq!(blossom.report.total_error, jv.report.total_error);
    // Same optimum; placements may differ under ties, so compare errors,
    // not images.
    assert_eq!(
        metrics::sad(&blossom.image, &target),
        metrics::sad(&jv.image, &target)
    );
}
