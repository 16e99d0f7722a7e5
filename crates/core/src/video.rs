//! Frame-sequence (video) mosaics — the real-time use case motivating the
//! paper's GPU work (§III cites interactive [16] and real-time video
//! photomosaic systems [17][18]).
//!
//! A [`VideoMosaicSession`] fixes the input image and grid once, then
//! generates a mosaic per target frame while reusing everything reusable:
//!
//! * the edge-coloring [`SwapSchedule`] ("we assume that the number of
//!   tiles S is fixed and edge groups … are computed in advance" — §IV-B);
//! * the simulated device instance;
//! * the previous frame's assignment as the local search's warm start —
//!   consecutive frames are similar, so far fewer sweeps are needed than
//!   from the identity arrangement.

use crate::config::{Backend, Preprocess};
use crate::errors::compute_error_matrix_bounded_in;
use crate::local_search::{local_search_from, SearchOutcome};
use crate::preprocess::preprocess_gray;
use mosaic_edgecolor::SwapSchedule;
use mosaic_grid::{assemble, BuildError, Deadline, LayoutError, TileLayout, TileMetric};
use mosaic_image::GrayImage;
use std::time::{Duration, Instant};

/// Per-frame accounting.
#[derive(Clone, Debug)]
pub struct FrameReport {
    /// Frame index within the session.
    pub frame: usize,
    /// Total error of the frame's rearrangement.
    pub total_error: u64,
    /// Local-search sweeps this frame needed.
    pub sweeps: usize,
    /// Swaps performed this frame.
    pub swaps: usize,
    /// Wall time of the frame (Step 2 + Step 3 + assembly).
    pub wall: Duration,
}

/// Reusable state for mosaicking a stream of target frames against one
/// input image.
pub struct VideoMosaicSession {
    input: GrayImage,
    layout: TileLayout,
    metric: TileMetric,
    backend: Backend,
    preprocess: Preprocess,
    schedule: SwapSchedule,
    previous: Option<Vec<usize>>,
    frames: usize,
}

impl VideoMosaicSession {
    /// Create a session for `input` with `grid × grid` tiles.
    ///
    /// `backend` applies to Step 2 (the per-frame error matrix); Step 3 is
    /// always the warm-started serial descent, which converges in very few
    /// sweeps on correlated frames and is the session's whole point —
    /// use [`crate::generate`] per frame if you want Algorithm 2 instead.
    ///
    /// # Errors
    /// Returns [`LayoutError`] when `input` is not square or not divisible
    /// by the grid.
    pub fn new(
        input: GrayImage,
        grid: usize,
        metric: TileMetric,
        backend: Backend,
        preprocess: Preprocess,
    ) -> Result<Self, LayoutError> {
        let (w, h) = input.dimensions();
        if w != h {
            return Err(LayoutError::NotSquare {
                width: w,
                height: h,
            });
        }
        let layout = TileLayout::with_grid(w, grid)?;
        layout.check_image(&input)?;
        let schedule = SwapSchedule::for_tiles(layout.tile_count());
        Ok(VideoMosaicSession {
            input,
            layout,
            metric,
            backend,
            preprocess,
            schedule,
            previous: None,
            frames: 0,
        })
    }

    /// The precomputed swap schedule (exposed for inspection/tests).
    pub fn schedule(&self) -> &SwapSchedule {
        &self.schedule
    }

    /// Number of frames generated so far.
    pub fn frames_generated(&self) -> usize {
        self.frames
    }

    /// Drop the warm start (the next frame searches from identity).
    pub fn reset_warm_start(&mut self) {
        self.previous = None;
    }

    /// Generate the mosaic for the next target frame.
    ///
    /// # Errors
    /// Returns [`LayoutError`] when `target` does not match the session
    /// geometry.
    pub fn next_frame(
        &mut self,
        target: &GrayImage,
    ) -> Result<(GrayImage, FrameReport), LayoutError> {
        self.layout.check_image(target)?;
        let start = Instant::now();
        let prepared = preprocess_gray(&self.input, target, self.preprocess);
        let (matrix, _) = compute_error_matrix_bounded_in(
            mosaic_pool::global(),
            &prepared,
            target,
            self.layout,
            self.metric,
            self.backend,
            &Deadline::NONE,
        )
        .map_err(|e| match e {
            BuildError::Layout(e) => e,
            // lint:allow(panic) Deadline::NONE never expires
            BuildError::DeadlineExceeded(_) => unreachable!("unbounded deadline expired"),
        })?;
        let warm = self
            .previous
            .clone()
            .unwrap_or_else(|| (0..self.layout.tile_count()).collect());
        let outcome: SearchOutcome = local_search_from(&matrix, warm);
        let image = assemble(&prepared, self.layout, &outcome.assignment)?;
        self.previous = Some(outcome.assignment);
        let report = FrameReport {
            frame: self.frames,
            total_error: outcome.total,
            sweeps: outcome.sweeps,
            swaps: outcome.swaps,
            wall: start.elapsed(),
        };
        self.frames += 1;
        Ok((image, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_image::{synth, Gray, Image};

    /// A slowly panning target: frame t is the base scene shifted by t
    /// pixels (wrapping), so consecutive frames are highly correlated.
    fn panning_frames(base: &GrayImage, count: usize) -> Vec<GrayImage> {
        let n = base.width();
        (0..count)
            .map(|t| Image::from_fn(n, n, |x, y| base.pixel((x + 2 * t) % n, y)).unwrap())
            .collect()
    }

    fn session(n: usize, grid: usize) -> VideoMosaicSession {
        VideoMosaicSession::new(
            synth::plasma(n, 4, 3),
            grid,
            TileMetric::Sad,
            Backend::Serial,
            Preprocess::MatchTarget,
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_geometry() {
        let tall = Image::from_fn(16, 32, |_, _| Gray(0)).unwrap();
        assert!(VideoMosaicSession::new(
            tall,
            4,
            TileMetric::Sad,
            Backend::Serial,
            Preprocess::None
        )
        .is_err());
        let ok = session(32, 4);
        assert_eq!(ok.schedule().tiles(), 16);
        assert_eq!(ok.frames_generated(), 0);
    }

    #[test]
    fn frames_are_generated_and_counted() {
        let mut s = session(32, 4);
        let base = synth::regatta(32, 7);
        for (i, frame) in panning_frames(&base, 3).iter().enumerate() {
            let (img, report) = s.next_frame(frame).unwrap();
            assert_eq!(img.dimensions(), (32, 32));
            assert_eq!(report.frame, i);
            assert!(report.sweeps >= 1);
        }
        assert_eq!(s.frames_generated(), 3);
    }

    #[test]
    fn warm_start_reduces_work_on_similar_frames() {
        let mut s = session(64, 8);
        let base = synth::regatta(64, 7);
        let frames = panning_frames(&base, 4);
        let mut swaps = Vec::new();
        for frame in &frames {
            let (_, report) = s.next_frame(frame).unwrap();
            swaps.push(report.swaps);
        }
        // The first frame searches from identity; later frames start from
        // the previous solution and should need fewer swaps.
        let later_max = *swaps[1..].iter().max().unwrap();
        assert!(
            later_max <= swaps[0],
            "warm start did not help: first={} later={swaps:?}",
            swaps[0]
        );
    }

    #[test]
    fn reset_warm_start_restores_cold_behavior() {
        let mut s = session(32, 4);
        let target = synth::fur(32, 3);
        let (_, first) = s.next_frame(&target).unwrap();
        let (_, warm) = s.next_frame(&target).unwrap();
        // Identical frame + warm start: solution already optimal, so one
        // confirming sweep and no swaps.
        assert_eq!(warm.swaps, 0);
        s.reset_warm_start();
        let (_, cold) = s.next_frame(&target).unwrap();
        assert_eq!(cold.swaps, first.swaps, "cold restart should redo the work");
    }

    #[test]
    fn mismatched_frame_is_an_error() {
        let mut s = session(32, 4);
        let wrong = synth::gradient(64);
        assert!(s.next_frame(&wrong).is_err());
    }

    #[test]
    fn frame_quality_matches_one_shot_pipeline() {
        let mut s = session(32, 4);
        let target = synth::drapery(32, 6);
        let (_, report) = s.next_frame(&target).unwrap();
        let one_shot = crate::pipeline::generate(
            &synth::plasma(32, 4, 3),
            &target,
            &crate::config::MosaicBuilder::new()
                .grid(4)
                .algorithm(crate::config::Algorithm::LocalSearch)
                .backend(Backend::Serial)
                .build(),
        )
        .unwrap();
        assert_eq!(report.total_error, one_shot.report.total_error);
    }
}
