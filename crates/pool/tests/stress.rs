//! Deterministic stress tests for the pool's failure and shutdown paths.
//!
//! "Deterministic" here means every test passes regardless of scheduling:
//! timing only changes *where* a chunk runs (a pool worker, a helping
//! submitter, or inline after shutdown), never *whether* it runs. Each
//! test asserts the scheduling-independent invariant.

use mosaic_pool::ThreadPool;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
fn concurrent_submitters_during_shutdown_never_lose_chunks() {
    // Several threads submit batches while the pool shuts down under
    // them. Every chunk of every batch must run exactly once: on pool
    // workers before the shutdown flag lands, or inline on the
    // submitting thread after it.
    let pool = Arc::new(ThreadPool::new(2));
    let counters: Vec<Arc<AtomicUsize>> = (0..4).map(|_| Arc::new(AtomicUsize::new(0))).collect();
    let mut handles = Vec::new();
    for counter in &counters {
        let pool = Arc::clone(&pool);
        let counter = Arc::clone(counter);
        handles.push(std::thread::spawn(move || {
            for _ in 0..50 {
                pool.parallel_for(8, |_chunk| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        }));
    }
    pool.shutdown();
    for handle in handles {
        handle.join().expect("submitter panicked");
    }
    for counter in &counters {
        assert_eq!(counter.load(Ordering::Relaxed), 50 * 8);
    }
}

#[test]
fn shutdown_drains_an_in_flight_batch() {
    let pool = Arc::new(ThreadPool::new(2));
    let started = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicUsize::new(0));
    let submitter = {
        let pool = Arc::clone(&pool);
        let started = Arc::clone(&started);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            pool.parallel_for(4, |_chunk| {
                started.store(true, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(20));
                done.fetch_add(1, Ordering::Relaxed);
            });
        })
    };
    // Shut down only once the batch is demonstrably in flight.
    while !started.load(Ordering::Relaxed) {
        std::thread::yield_now();
    }
    pool.shutdown();
    submitter.join().expect("submitter panicked");
    assert_eq!(
        done.load(Ordering::Relaxed),
        4,
        "shutdown abandoned in-flight chunks"
    );
}

#[test]
fn panicking_task_fails_its_batch_but_not_later_ones() {
    let pool = ThreadPool::new(2);
    let survivors = AtomicUsize::new(0);
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool.parallel_for(6, |chunk| {
            if chunk == 3 {
                panic!("chunk 3 exploded");
            }
            survivors.fetch_add(1, Ordering::Relaxed);
        });
    }));
    let payload = result.expect_err("the submitter must observe the panic");
    assert_eq!(
        payload.downcast_ref::<&str>().copied(),
        Some("chunk 3 exploded"),
        "the original panic payload must reach the submitter"
    );
    // A poisoned batch still runs its other chunks (they are claimed
    // independently), and the pool itself is not wedged.
    assert_eq!(survivors.load(Ordering::Relaxed), 5);
    let after = AtomicUsize::new(0);
    pool.parallel_for(10, |_chunk| {
        after.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(after.load(Ordering::Relaxed), 10);
}

#[test]
fn repeated_panics_never_wedge_the_workers() {
    let pool = ThreadPool::new(2);
    for round in 0..20 {
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for(4, |chunk| {
                if chunk % 2 == 0 {
                    panic!("round {round}");
                }
            });
        }));
        assert!(result.is_err(), "round {round} lost its panic");
    }
    let ok = AtomicUsize::new(0);
    pool.parallel_for(8, |_chunk| {
        ok.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(ok.load(Ordering::Relaxed), 8);
}

#[test]
fn parallel_for_mut_equals_serial_for_ragged_chunk_sizes() {
    let pool = ThreadPool::new(3);
    for len in [0usize, 1, 2, 7, 64, 101] {
        for chunk_len in [1usize, 3, 7, 64, 128] {
            let mut parallel: Vec<u64> = vec![0; len];
            pool.parallel_for_mut(&mut parallel, chunk_len, |chunk, slab| {
                for (offset, slot) in slab.iter_mut().enumerate() {
                    let i = (chunk * chunk_len + offset) as u64;
                    *slot = i * 31 + 7;
                }
            });
            let serial: Vec<u64> = (0..len as u64).map(|i| i * 31 + 7).collect();
            assert_eq!(parallel, serial, "len={len} chunk_len={chunk_len}");
        }
    }
}

#[test]
fn parallel_for_visits_every_chunk_exactly_once_under_contention() {
    let pool = Arc::new(ThreadPool::new(3));
    let mut handles = Vec::new();
    for _submitter in 0..3 {
        let pool = Arc::clone(&pool);
        handles.push(std::thread::spawn(move || {
            for chunks in 1..=32usize {
                let visits: Vec<AtomicUsize> = (0..chunks).map(|_| AtomicUsize::new(0)).collect();
                pool.parallel_for(chunks, |chunk| {
                    visits[chunk].fetch_add(1, Ordering::Relaxed);
                });
                for (chunk, visit) in visits.iter().enumerate() {
                    assert_eq!(
                        visit.load(Ordering::Relaxed),
                        1,
                        "chunk {chunk} of {chunks}"
                    );
                }
            }
        }));
    }
    for handle in handles {
        handle.join().expect("submitter panicked");
    }
}

/// Run `f` on a fresh thread and fail (instead of hanging the suite)
/// when it has not finished within `limit`.
fn within<T: Send + 'static>(
    limit: std::time::Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
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

#[test]
fn gang_completes_on_the_submitter_while_every_worker_is_held() {
    // Both workers (and the holder's own submitting thread) sit inside
    // another batch. The gang's barrier waits for claimed work, not for
    // lanes, so the calling thread runs every phase alone.
    within(std::time::Duration::from_secs(60), || {
        let pool = Arc::new(ThreadPool::new(2));
        let held = Arc::new(AtomicUsize::new(0));
        let release = Arc::new(AtomicBool::new(false));
        let holder = {
            let (pool, held, release) =
                (Arc::clone(&pool), Arc::clone(&held), Arc::clone(&release));
            std::thread::spawn(move || {
                pool.parallel_for(3, |_chunk| {
                    held.fetch_add(1, Ordering::SeqCst);
                    while !release.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                });
            })
        };
        while held.load(Ordering::SeqCst) < 3 {
            std::thread::yield_now();
        }
        let caller = std::thread::current().id();
        let calls = AtomicUsize::new(0);
        pool.gang(
            3,
            |_phase, _chunk| {
                assert_eq!(
                    std::thread::current().id(),
                    caller,
                    "a held worker ran a lane"
                );
                calls.fetch_add(1, Ordering::SeqCst);
            },
            |gang| {
                gang.run(200, 3);
                gang.run(100, 2);
            },
        );
        assert_eq!(calls.load(Ordering::SeqCst), 200 * 3 + 100 * 2);
        release.store(true, Ordering::SeqCst);
        holder.join().expect("holder panicked");
    });
}

#[test]
fn gang_lane_panic_reraises_on_the_submitter_and_the_pool_survives() {
    within(std::time::Duration::from_secs(60), || {
        let pool = ThreadPool::new(2);
        let caller = std::thread::current().id();
        // Only helper lanes panic, so the payload that reaches the
        // submitter is a helper's own. The caller's chunks sleep, which
        // leaves the helpers work to claim.
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.gang(
                3,
                |phase, _chunk| {
                    if std::thread::current().id() == caller {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    } else if phase >= 3 {
                        panic!("helper lane exploded");
                    }
                },
                |gang| gang.run(1000, 3),
            )
        }));
        let payload = result.expect_err("the submitter must observe the helper's panic");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("helper lane exploded"),
            "the helper's own payload must reach the submitter"
        );

        // A panic on the calling thread's own chunk, mid-phase.
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.gang(
                3,
                |phase, chunk| {
                    if phase == 7 && chunk == 1 {
                        panic!("chunk 1 of phase 7 exploded");
                    }
                },
                |gang| gang.run(50, 4),
            )
        }));
        let payload = result.expect_err("a panicking chunk must fail its gang");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("chunk 1 of phase 7 exploded")
        );

        // The same pool serves the next batch and the next gang.
        let after = AtomicUsize::new(0);
        pool.parallel_for(6, |_chunk| {
            after.fetch_add(1, Ordering::Relaxed);
        });
        pool.gang(
            3,
            |_phase, _chunk| {
                after.fetch_add(1, Ordering::Relaxed);
            },
            |gang| gang.run(10, 3),
        );
        assert_eq!(after.load(Ordering::Relaxed), 6 + 30);
    });
}

#[test]
fn gang_driver_panic_ends_the_gang_and_releases_its_lanes() {
    within(std::time::Duration::from_secs(60), || {
        let pool = ThreadPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.gang(
                3,
                |_phase, _chunk| {},
                |gang| {
                    gang.run(20, 3);
                    panic!("driver gave up");
                },
            )
        }));
        let payload = result.expect_err("the driver's panic must propagate");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("driver gave up")
        );
        // Both workers are free again: three chunks meet at a barrier
        // only if the workers and the submitter all run one.
        let meet = std::sync::Barrier::new(3);
        pool.parallel_for(3, |_chunk| {
            meet.wait();
        });
    });
}

#[test]
fn gang_panic_finishes_its_phase_and_opens_no_later_one() {
    within(std::time::Duration::from_secs(60), || {
        let pool = ThreadPool::new(2);
        for lanes in [1, 3] {
            let runs: Vec<AtomicUsize> = (0..3 * 4).map(|_| AtomicUsize::new(0)).collect();
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.gang(
                    lanes,
                    |phase, chunk| {
                        runs[phase * 4 + chunk].fetch_add(1, Ordering::SeqCst);
                        if (phase, chunk) == (1, 0) {
                            panic!("ticket (1, 0) exploded");
                        }
                    },
                    |gang| gang.run(3, 4),
                )
            }));
            let payload = result.expect_err("the panicking ticket must fail its gang");
            assert_eq!(
                payload.downcast_ref::<&str>().copied(),
                Some("ticket (1, 0) exploded"),
                "lanes {lanes}"
            );
            let runs: Vec<usize> = runs.iter().map(|r| r.load(Ordering::SeqCst)).collect();
            assert_eq!(
                runs,
                [1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0],
                "lanes {lanes}: phases 0 and 1 run once each, phase 2 never"
            );
        }
    });
}
