//! Experiment harness shared by the table/figure binaries and benches.
//!
//! Every table and figure of the paper has a regenerating binary (see
//! DESIGN.md §4):
//!
//! | paper artifact | binary |
//! |---|---|
//! | Table I (total errors) | `cargo run --release -p mosaic-bench --bin table1` |
//! | Table II (Step-2 times) | `... --bin table2` |
//! | Table III (Step-3 times) | `... --bin table3` |
//! | Table IV (total times) | `... --bin table4` |
//! | Figures 2/3/5/7/8 | `... --bin figures` |
//! | everything, as markdown | `... --bin report` |
//!
//! All binaries run at a laptop-friendly *quick* scale by default and
//! accept `--full` for the paper's native sizes (512–2048 px, up to
//! S = 64×64; the full Table-III optimization row takes minutes, as the
//! paper's own 1200-second entries suggest).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mosaic_assign::greedy::solve_greedy;
use mosaic_assign::SolverKind;
use mosaic_grid::ErrorMatrix;
use mosaic_image::synth::Scene;
use mosaic_image::GrayImage;
use std::time::{Duration, Instant};

/// Scale selection shared by the binaries.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RunScale {
    /// Laptop-friendly: 256-pixel images, grids up to 32x32.
    Quick,
    /// The paper's native configuration: 512-2048 px, grids up to 64x64.
    Full,
}

impl RunScale {
    /// Parse from process arguments (`--full` selects [`RunScale::Full`]).
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--full") {
            RunScale::Full
        } else {
            RunScale::Quick
        }
    }

    /// Image sizes for Tables II-IV ("Size of images" column).
    pub fn image_sizes(self) -> Vec<usize> {
        match self {
            RunScale::Quick => vec![256, 512],
            RunScale::Full => vec![512, 1024, 2048],
        }
    }

    /// Grid resolutions ("number of tiles" column).
    pub fn grids(self) -> Vec<usize> {
        match self {
            RunScale::Quick => vec![8, 16, 32],
            RunScale::Full => vec![16, 32, 64],
        }
    }

    /// Image size for Table I / Figure 7 (the paper uses 512).
    pub fn table1_size(self) -> usize {
        match self {
            RunScale::Quick => 256,
            RunScale::Full => 512,
        }
    }
}

/// The paper averages timings over four image pairs; these are the
/// synthetic stand-ins (see `mosaic_image::synth::paper_pairs`).
pub fn timing_pairs(size: usize) -> Vec<(GrayImage, GrayImage)> {
    mosaic_image::synth::paper_pairs()
        .into_iter()
        .enumerate()
        .map(|(i, (a, b))| {
            (
                a.render(size, 0xAB00 + i as u64),
                b.render(size, 0xCD00 + i as u64),
            )
        })
        .collect()
}

/// The Figure-2 pair (portrait -> regatta).
pub fn figure2_pair(size: usize) -> (GrayImage, GrayImage) {
    (
        Scene::Portrait.render(size, 0xF1C2),
        Scene::Regatta.render(size, 0xF1C3),
    )
}

/// One solver-ablation arm: its report name and its solve, returning
/// `assignment[v] = u`.
pub type SolverArm = (&'static str, Box<dyn Fn(&ErrorMatrix) -> Vec<usize>>);

/// The solver-ablation arms: every exact [`SolverKind`] plus the greedy
/// baseline.
pub fn solver_arms() -> Vec<SolverArm> {
    let mut arms: Vec<SolverArm> = SolverKind::ALL
        .into_iter()
        .map(|kind| {
            (
                kind.name(),
                Box::new(move |m: &ErrorMatrix| kind.solve(m)) as _,
            )
        })
        .collect();
    arms.push(("greedy", Box::new(solve_greedy)));
    arms
}

/// Time a closure.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// Seconds with millisecond resolution, right-aligned like the paper's
/// tables.
pub fn fmt_secs(d: Duration) -> String {
    format!("{:>9.3}", d.as_secs_f64())
}

/// Speedup column.
pub fn fmt_speedup(baseline: Duration, accelerated: Duration) -> String {
    let a = accelerated.as_secs_f64();
    if a == 0.0 {
        "      inf".to_string()
    } else {
        format!("{:>8.2}x", baseline.as_secs_f64() / a)
    }
}

/// Output directory for figure PGMs (workspace `out/`).
///
/// # Panics
/// Panics when the directory cannot be created.
pub fn out_dir() -> std::path::PathBuf {
    // bench crate lives at crates/bench; figures go to the workspace out/.
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("out");
    // lint:allow(panic) bench harness setup; documented "# Panics" — an unwritable out/ should abort the run
    std::fs::create_dir_all(&dir).expect("failed to create out/");
    dir
}

/// Workspace root (the repo checkout). Committed benchmark artifacts —
/// the `BENCH_<suite>.json` expositions — live here so they are visible
/// without running anything, while transient outputs stay under `out/`.
pub fn root_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_expose_paper_shapes() {
        assert_eq!(RunScale::Full.image_sizes(), vec![512, 1024, 2048]);
        assert_eq!(RunScale::Full.grids(), vec![16, 32, 64]);
        assert_eq!(RunScale::Full.table1_size(), 512);
        assert_eq!(RunScale::Quick.grids().len(), 3);
    }

    #[test]
    fn timing_pairs_are_four_distinct_pairs() {
        let pairs = timing_pairs(32);
        assert_eq!(pairs.len(), 4);
        for (a, b) in &pairs {
            assert_ne!(a, b);
        }
    }

    #[test]
    fn root_dir_is_the_workspace_checkout() {
        assert!(root_dir().join("Cargo.toml").exists());
        assert!(root_dir().join("crates").is_dir());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_secs(Duration::from_millis(1500)).trim(), "1.500");
        assert!(fmt_speedup(Duration::from_secs(2), Duration::from_secs(1)).contains("2.00x"));
    }
}
