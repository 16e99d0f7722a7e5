//! Color photomosaic — the paper's §II extension ("we can easily extend
//! the proposed photomosaic method to deal with color images only by
//! changing the error function in Eq. (1)").
//!
//! ```text
//! cargo run --release --example color_mosaic
//! ```
//!
//! The pipeline is generic over the pixel type, so the color mosaic is
//! one [`photomosaic::generate`] call on `Rgb` images: per-channel
//! histogram matching (Step 1), the channel-summed SAD error matrix
//! (Step 2) and the exact rearrangement (Step 3). Writes
//! `out/color_{input,target,mosaic}.ppm`.

#![forbid(unsafe_code)]

use mosaic_assign::SolverKind;
use mosaic_grid::TileMetric;
use mosaic_image::io::save_ppm;
use mosaic_image::synth::{tint, Scene};
use mosaic_image::Rgb;
use photomosaic::{generate, Algorithm, Backend, MosaicBuilder, Preprocess};
use photomosaic_suite::out_dir;

fn main() {
    let size = 256;
    // Two differently tinted scenes: a warm portrait input, a cool regatta
    // target.
    let input = tint(
        &Scene::Portrait.render(size, 0xC0102),
        Rgb::new(40, 16, 8),
        Rgb::new(255, 214, 170),
    );
    let target = tint(
        &Scene::Regatta.render(size, 0x5EA),
        Rgb::new(8, 24, 48),
        Rgb::new(200, 230, 255),
    );

    let grid = 16;
    let config = MosaicBuilder::new()
        .grid(grid)
        .preprocess(Preprocess::MatchTarget)
        .metric(TileMetric::Sad)
        .backend(Backend::Threads(4))
        .algorithm(Algorithm::Optimal(SolverKind::JonkerVolgenant))
        .build();
    let result = generate(&input, &target, &config).expect("valid geometry");

    println!(
        "color mosaic: S={grid}x{grid}, total RGB-SAD error = {}",
        result.report.total_error
    );

    let dir = out_dir();
    save_ppm(dir.join("color_input.ppm"), &input).expect("write input");
    save_ppm(dir.join("color_target.ppm"), &target).expect("write target");
    save_ppm(dir.join("color_mosaic.ppm"), &result.image).expect("write mosaic");
    println!("images written to {}", dir.display());
}
