//! Algorithm 2 on the pool's gang under hostile scheduling: more lanes
//! than threads, workers busy elsewhere, CPUs oversubscribed, and a
//! deadline that expires mid-search. Every run must equal the
//! single-thread reference, bit for bit.

use mosaic_edgecolor::SwapSchedule;
use mosaic_gpu::{DeviceSpec, GpuSim};
use mosaic_grid::{build_error_matrix, DeadlineExceeded, ErrorMatrix, TileLayout, TileMetric};
use mosaic_image::synth::Scene;
use mosaic_pool::ThreadPool;
use photomosaic::parallel_search::{
    parallel_search_gpu, parallel_search_gpu_bounded, parallel_search_reference,
    parallel_search_threads_bounded_in, ParallelOutcome,
};
use photomosaic::preprocess::preprocess_gray;
use photomosaic::{Deadline, Preprocess};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// A rendered, histogram-matched SAD matrix at S = `grid`².
fn mosaic_matrix(input: Scene, target: Scene, grid: usize) -> ErrorMatrix {
    let input = input.render(256, 11);
    let target = target.render(256, 12);
    let prepared = preprocess_gray(&input, &target, Preprocess::MatchTarget);
    let layout = TileLayout::with_grid(256, grid).unwrap();
    build_error_matrix(&prepared, &target, layout, TileMetric::Sad).unwrap()
}

/// Run `f` on a fresh thread and fail (instead of hanging the suite)
/// when it has not finished within `limit`.
fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(catch_unwind(AssertUnwindSafe(f)));
    });
    match rx.recv_timeout(limit) {
        Ok(Ok(value)) => value,
        Ok(Err(payload)) => std::panic::resume_unwind(payload),
        Err(_) => panic!("did not finish within {limit:?}"),
    }
}

fn threads_search(pool: &ThreadPool, m: &ErrorMatrix, sched: &SwapSchedule) -> ParallelOutcome {
    parallel_search_threads_bounded_in(pool, m, sched, 2, &Deadline::NONE).unwrap()
}

/// Every worker of `pool` is free: three chunks of one batch meet at a
/// barrier only if both workers and the submitter run one each.
fn assert_workers_free(pool: &ThreadPool) {
    let meet = Barrier::new(3);
    pool.parallel_for(3, |_chunk| {
        meet.wait();
    });
}

#[test]
fn oversubscribed_threaded_searches_finish_and_match_the_reference() {
    // Two searches share one 2-thread pool while three busy loops keep
    // every CPU occupied: lanes compete with each other and with the
    // load, so barriers are met late and lanes park.
    let m = Arc::new(mosaic_matrix(Scene::Portrait, Scene::Drapery, 32));
    let sched = Arc::new(SwapSchedule::for_tiles(m.size()));
    let started = Instant::now();
    let reference = parallel_search_reference(&m, &sched);
    let unloaded = started.elapsed();
    let pool = Arc::new(ThreadPool::new(2));
    let stop = Arc::new(AtomicBool::new(false));
    let load: Vec<_> = (0..3)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            })
        })
        .collect();
    let limit = Duration::from_secs(30) + unloaded * 40;
    let outcomes = within(limit, {
        let (m, sched, pool) = (Arc::clone(&m), Arc::clone(&sched), Arc::clone(&pool));
        move || {
            let searches: Vec<_> = (0..2)
                .map(|_| {
                    let (m, sched, pool) = (Arc::clone(&m), Arc::clone(&sched), Arc::clone(&pool));
                    std::thread::spawn(move || threads_search(&pool, &m, &sched))
                })
                .collect();
            searches
                .into_iter()
                .map(|search| search.join().expect("search panicked"))
                .collect::<Vec<_>>()
        }
    });
    stop.store(true, Ordering::Relaxed);
    for busy in load {
        busy.join().unwrap();
    }
    for outcome in outcomes {
        assert_eq!(outcome, reference);
    }
    assert_workers_free(&pool);
}

#[test]
fn gpu_sim_with_more_lanes_than_pool_threads_matches_the_reference() {
    let m = mosaic_matrix(Scene::Fur, Scene::Checker, 16);
    let sched = SwapSchedule::for_tiles(m.size());
    let pool = Arc::new(ThreadPool::new(1));
    let sim = GpuSim::with_pool(DeviceSpec::tesla_k40(), Arc::clone(&pool), 8);
    let outcome = within(Duration::from_secs(120), move || {
        parallel_search_gpu(&sim, &m, &sched)
    });
    let m = mosaic_matrix(Scene::Fur, Scene::Checker, 16);
    assert_eq!(
        outcome,
        parallel_search_reference(&m, &SwapSchedule::for_tiles(m.size()))
    );
}

#[test]
fn a_deadline_expiring_mid_search_stops_at_a_sweep_boundary_and_frees_the_lanes() {
    let m = mosaic_matrix(Scene::Regatta, Scene::Plasma, 32);
    let sched = SwapSchedule::for_tiles(m.size());
    let pool = ThreadPool::new(2);
    let sim = GpuSim::with_pool(DeviceSpec::tesla_k40(), Arc::new(ThreadPool::new(2)), 2);
    // The fastest of three runs, so one slow run cannot stretch the
    // budget below past convergence.
    let mut whole = Duration::MAX;
    let mut full = None;
    for _ in 0..3 {
        let started = Instant::now();
        full = Some(threads_search(&pool, &m, &sched));
        whole = whole.min(started.elapsed());
    }
    let full = full.unwrap();
    assert!(
        full.outcome.sweeps >= 3,
        "the search must span several sweeps"
    );
    let sweep = whole / full.outcome.sweeps as u32;

    // Expire after about one and a half sweeps: alive on entry, gone
    // before convergence.
    let budget = sweep + sweep / 2;
    let deadline = Deadline::after(budget);
    let started = Instant::now();
    let threaded = parallel_search_threads_bounded_in(&pool, &m, &sched, 2, &deadline);
    let overshoot = started.elapsed().saturating_sub(budget);
    assert_eq!(threaded, Err(DeadlineExceeded));
    // The next sweep boundary comes at most one sweep after expiry
    // (generously: timing on a loaded host is noisy).
    assert!(
        overshoot < sweep * 10 + Duration::from_secs(1),
        "overshot by {overshoot:?}"
    );
    assert_workers_free(&pool);

    let deadline = Deadline::after(budget);
    assert_eq!(
        parallel_search_gpu_bounded(&sim, &m, &sched, &deadline),
        Err(DeadlineExceeded)
    );
    // The pool still completes a full search afterwards.
    assert_eq!(threads_search(&pool, &m, &sched), full);
}
