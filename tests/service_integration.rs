//! End-to-end tests of the batch mosaic service: a real server on an
//! ephemeral port, concurrent clients over TCP, error-matrix cache
//! reuse, bounded-queue rejection, and graceful shutdown.

use mosaic_assign::SolverKind;
use mosaic_grid::TileMetric;
use mosaic_image::synth::Scene;
use mosaic_service::fault::{
    disconnect_mid_frame, probe_oversized_frame, stalled_connection_is_closed,
};
use mosaic_service::protocol::Response;
use mosaic_service::server::{Server, ServiceConfig};
use mosaic_service::{Client, FaultPlan, FrontEnd};
use mosaic_tilelib::{LibraryJobSpec, LibraryParams, TileStore};
use photomosaic::{Algorithm, Backend, ImageSource, JobResult, JobSpec, Json, MosaicBuilder};
use std::time::Duration;

fn spec(scene: Scene, seed: u64, grid: usize) -> JobSpec {
    JobSpec {
        input: ImageSource::Synth {
            scene,
            size: 32,
            seed,
        },
        target: ImageSource::Synth {
            scene: Scene::Regatta,
            size: 32,
            seed: seed + 100,
        },
        config: MosaicBuilder::new()
            .grid(grid)
            .backend(Backend::Serial)
            .build(),
    }
}

fn decode_result(response: Response) -> JobResult {
    let Response::Result { result } = response else {
        panic!("expected a result, got {response:?}");
    };
    JobResult::from_json(&result).expect("well-formed result")
}

/// Four clients on four threads, each with its own job; every wire
/// result must be bit-identical to running `photomosaic::generate`
/// directly on the same spec.
#[test]
fn concurrent_clients_match_direct_generation() {
    let server = Server::start(ServiceConfig {
        workers: 4,
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let specs = [
        spec(Scene::Portrait, 1, 4),
        spec(Scene::Fur, 2, 8),
        spec(Scene::Plasma, 3, 4),
        spec(Scene::Drapery, 4, 8),
    ];

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for spec in &specs {
            handles.push(scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                decode_result(client.submit(spec).unwrap())
            }));
        }
        for (handle, spec) in handles.into_iter().zip(&specs) {
            let remote = handle.join().expect("client thread panicked");
            let (input, target) = spec.resolve().unwrap();
            let direct = photomosaic::generate(&input, &target, &spec.config).unwrap();
            assert_eq!(remote.image, direct.image);
            assert_eq!(remote.assignment, direct.assignment);
            assert_eq!(
                remote.report.get("total_error").and_then(Json::as_u64),
                Some(direct.report.total_error)
            );
        }
    });

    server.shutdown();
    server.join();
}

/// Resubmitting identical content skips Step 2 via the matrix cache —
/// visible per job (`cache_hit`) and in the aggregate stats — without
/// changing the result.
#[test]
fn repeated_input_hits_the_matrix_cache() {
    let server = Server::start(ServiceConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let job = spec(Scene::Checker, 7, 4);

    let first = decode_result(client.submit(&job).unwrap());
    assert_eq!(
        first.report.get("cache_hit").and_then(Json::as_bool),
        Some(false)
    );

    // A job differing only in Step-3 algorithm shares the cached matrix.
    let mut variant = job.clone();
    variant.config.algorithm = photomosaic::Algorithm::LocalSearch;
    let second = decode_result(client.submit(&variant).unwrap());
    assert_eq!(
        second.report.get("cache_hit").and_then(Json::as_bool),
        Some(true)
    );

    let third = decode_result(client.submit(&job).unwrap());
    assert_eq!(
        third.report.get("cache_hit").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(third.image, first.image);
    assert_eq!(third.assignment, first.assignment);

    let Response::Stats { stats } = client.stats().unwrap() else {
        panic!("expected stats");
    };
    let cache = stats.get("cache").unwrap();
    assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(2));
    assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(1));

    // The same observations surface as a queue-wait histogram in the
    // JSON stats and as Prometheus text via the metrics op.
    let wait = stats.get("queue").unwrap().get("wait_us").unwrap();
    assert_eq!(wait.get("count").and_then(Json::as_u64), Some(3));
    assert!(wait.get("p99").and_then(Json::as_u64).is_some());

    let Response::Metrics { text } = client.metrics().unwrap() else {
        panic!("expected metrics text");
    };
    assert!(text.contains("# TYPE service_cache_hits_total counter"));
    assert!(text.contains("service_cache_hits_total 2\n"));
    assert!(text.contains("service_cache_misses_total 1\n"));
    assert!(text.contains("# TYPE service_queue_wait_us histogram"));
    assert!(text.contains("service_queue_wait_us_bucket{le=\"+Inf\"} 3\n"));
    assert!(text.contains("service_queue_wait_us_count 3\n"));
    assert!(text.contains("service_jobs_completed_total 3\n"));

    client.shutdown().unwrap();
    server.join();
}

/// With one worker and a one-slot queue, a simultaneous flood must see
/// `rejected` responses carrying the configured retry-after hint, while
/// retrying clients still complete every job.
#[test]
fn full_queue_rejects_with_retry_after() {
    let server = Server::start(ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        retry_after_ms: 5,
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();

    // All clients connect first and release together, so eight
    // submissions hit the one-slot queue within microseconds of each
    // other: at most one executing + one queued, the rest rejected.
    let barrier = std::sync::Barrier::new(8);
    let rejected: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    barrier.wait();
                    // Distinct seeds defeat the cache so every job costs
                    // real work and the queue actually backs up.
                    let job = spec(Scene::Plasma, 1000 + i, 8);
                    let (response, rejections) = client.submit_with_retry(&job, 200).unwrap();
                    match response {
                        Response::Result { .. } => rejections,
                        Response::Rejected { retry_after_ms } => {
                            assert_eq!(retry_after_ms, 5);
                            panic!("job starved even after 200 attempts");
                        }
                        other => panic!("unexpected response {other:?}"),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .sum()
    });
    assert!(
        rejected > 0,
        "8 simultaneous submissions into a 1-slot queue never saw backpressure"
    );

    let mut client = Client::connect(addr).unwrap();
    let Response::Stats { stats } = client.stats().unwrap() else {
        panic!("expected stats");
    };
    let jobs = stats.get("jobs").unwrap();
    assert_eq!(jobs.get("completed").and_then(Json::as_u64), Some(8));
    assert_eq!(
        jobs.get("rejected").and_then(Json::as_u64),
        Some(rejected),
        "server-side rejection count must match what clients observed"
    );

    client.shutdown().unwrap();
    server.join();
}

/// Fetch the `hardening` counter object from a live server's stats.
fn hardening_counter(client: &mut Client, key: &str) -> u64 {
    let Response::Stats { stats } = client.stats().unwrap() else {
        panic!("expected stats");
    };
    stats
        .get("hardening")
        .and_then(|h| h.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing hardening counter {key:?}"))
}

/// A frame past `max_frame_bytes` draws the typed `frame_too_large`
/// response (echoing the limit), bumps the counter, and never makes the
/// server buffer the oversized line.
#[test]
fn fault_oversized_frame_draws_a_typed_rejection() {
    let server = Server::start(ServiceConfig {
        max_frame_bytes: 1024,
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();

    // 4 KiB against a 1 KiB limit: small enough that the server's reader
    // buffers the whole attack (no RST racing the response), large
    // enough to trip the limit.
    let response = probe_oversized_frame(addr, 4096).unwrap();
    assert_eq!(
        response,
        Some(Response::FrameTooLarge {
            max_frame_bytes: 1024
        })
    );

    let mut client = Client::connect(addr).unwrap();
    assert_eq!(hardening_counter(&mut client, "frames_too_large"), 1);
    // The connection that tripped the limit is gone, but the server
    // still serves well-formed clients.
    decode_result(client.submit(&spec(Scene::Portrait, 31, 4)).unwrap());
    client.shutdown().unwrap();
    server.join();
}

/// A slowloris client — connect, send half a frame, go silent — is
/// disconnected once the socket read deadline expires, and the timeout
/// is counted.
#[test]
fn fault_slowloris_is_disconnected_within_the_io_timeout() {
    let server = Server::start(ServiceConfig {
        io_timeout_ms: 200,
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();

    let severed =
        stalled_connection_is_closed(addr, b"{\"op\":\"sub", Duration::from_secs(5)).unwrap();
    assert!(
        severed,
        "server kept a stalled connection past its deadline"
    );

    let mut client = Client::connect(addr).unwrap();
    assert_eq!(hardening_counter(&mut client, "connections_timed_out"), 1);
    client.shutdown().unwrap();
    server.join();
}

/// With `max_connections = 2`, a third simultaneous connection is
/// answered with the standard `rejected` backpressure shape and dropped;
/// once a slot frees, new connections are accepted again.
#[test]
fn fault_connection_flood_beyond_the_cap_is_rejected_then_recovers() {
    let server = Server::start(ServiceConfig {
        max_connections: 2,
        retry_after_ms: 7,
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();

    let first = Client::connect(addr).unwrap();
    let second = Client::connect(addr).unwrap();
    // Third connection: the accept loop answers `rejected` without
    // spawning a handler, so even a ping comes back as backpressure.
    let mut third = Client::connect(addr).unwrap();
    match third.ping() {
        Ok(Response::Rejected { retry_after_ms }) => assert_eq!(retry_after_ms, 7),
        other => panic!("expected rejection at the connection cap, got {other:?}"),
    }

    // Free both slots; handlers notice EOF and release their permits.
    drop(first);
    drop(second);
    let (mut client, refused) = connect_with_retry(addr);
    assert_eq!(
        hardening_counter(&mut client, "connections_rejected"),
        1 + refused
    );
    decode_result(client.submit(&spec(Scene::Fur, 33, 4)).unwrap());
    client.shutdown().unwrap();
    server.join();
}

/// When arming the write deadline on an over-capacity socket fails, the
/// server must drop that socket unanswered rather than risk a blocking
/// courtesy write — and the failure must not wedge the accept path.
#[test]
fn fault_reject_sockopt_failure_drops_socket_without_wedging_accept() {
    let server = Server::start(ServiceConfig {
        max_connections: 1,
        retry_after_ms: 9,
        faults: FaultPlan::fail_reject_sockopt(1),
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();

    let first = Client::connect(addr).unwrap();
    // Second connection: over capacity AND the injected setsockopt
    // failure fires — the socket is dropped without the courtesy
    // `rejected` line, so the ping sees EOF (or a reset).
    let mut second = Client::connect(addr).unwrap();
    assert!(
        second.ping().is_err(),
        "socket with a failed write deadline must be dropped unanswered"
    );
    // Third connection: the budget is spent, so the normal armed-write
    // rejection shape is back. The accept path never wedged.
    let mut third = Client::connect(addr).unwrap();
    match third.ping() {
        Ok(Response::Rejected { retry_after_ms }) => assert_eq!(retry_after_ms, 9),
        other => panic!("expected rejection at the connection cap, got {other:?}"),
    }

    // Both over-capacity sockets count as rejected, answered or not.
    drop(first);
    let (mut client, refused) = connect_with_retry(addr);
    assert_eq!(
        hardening_counter(&mut client, "connections_rejected"),
        2 + refused
    );
    client.shutdown().unwrap();
    server.join();
}

/// Keep connecting until a connection survives a ping — used after
/// freeing connection slots, where permit release races the reconnect.
/// Also returns how many accepted attempts were not answered `pong`:
/// each one landed while the server was still at its cap, so the server
/// counted it as one more rejected connection.
fn connect_with_retry(addr: std::net::SocketAddr) -> (Client, u64) {
    let mut refused = 0;
    for _ in 0..200 {
        if let Ok(mut client) = Client::connect(addr) {
            match client.ping() {
                Ok(Response::Pong) => return (client, refused),
                _ => {
                    refused += 1;
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
    }
    panic!("server never accepted a new connection after slots freed");
}

/// A client that vanishes mid-frame must not wedge anything: the
/// handler unwinds, and later well-formed traffic sees a consistent
/// queue and metrics.
#[test]
fn fault_disconnect_mid_frame_leaves_the_server_consistent() {
    let server = Server::start(ServiceConfig::default()).unwrap();
    let addr = server.local_addr();

    for _ in 0..3 {
        disconnect_mid_frame(addr, b"{\"op\":\"submit\",\"spec\":{").unwrap();
    }

    let mut client = Client::connect(addr).unwrap();
    decode_result(client.submit(&spec(Scene::Drapery, 35, 4)).unwrap());
    let Response::Stats { stats } = client.stats().unwrap() else {
        panic!("expected stats");
    };
    let jobs = stats.get("jobs").unwrap();
    // The abandoned half-frames never became jobs; the real one did.
    assert_eq!(jobs.get("submitted").and_then(Json::as_u64), Some(1));
    assert_eq!(jobs.get("completed").and_then(Json::as_u64), Some(1));
    assert_eq!(jobs.get("in_flight").and_then(Json::as_u64), Some(0));
    client.shutdown().unwrap();
    server.join();
}

/// A worker wedged past the per-job deadline returns the typed
/// `deadline_exceeded` response while the other worker keeps draining
/// jobs to completion.
#[test]
fn fault_stalled_worker_hits_the_deadline_while_others_drain() {
    let server = Server::start(ServiceConfig {
        workers: 2,
        job_deadline_ms: 60,
        faults: FaultPlan::stall_first_jobs(1, 300),
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();

    // Two jobs, two workers: exactly one claims the injected stall and
    // blows its deadline; the other must complete normally.
    let responses: Vec<Response> = std::thread::scope(|scope| {
        (0..2)
            .map(|i| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    client.submit(&spec(Scene::Plasma, 40 + i, 4)).unwrap()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let cancelled = responses
        .iter()
        .filter(|r| matches!(r, Response::DeadlineExceeded { deadline_ms: 60 }))
        .count();
    let completed = responses
        .iter()
        .filter(|r| matches!(r, Response::Result { .. }))
        .count();
    assert_eq!(
        (cancelled, completed),
        (1, 1),
        "expected one cancellation and one result, got {responses:?}"
    );

    let mut client = Client::connect(addr).unwrap();
    assert_eq!(hardening_counter(&mut client, "deadline_exceeded"), 1);
    let Response::Stats { stats } = client.stats().unwrap() else {
        panic!("expected stats");
    };
    let jobs = stats.get("jobs").unwrap();
    assert_eq!(jobs.get("completed").and_then(Json::as_u64), Some(1));
    assert_eq!(jobs.get("in_flight").and_then(Json::as_u64), Some(0));
    client.shutdown().unwrap();
    server.join();
}

/// An exact `optimal` job at S = 4096 holds a worker for a
/// Jonker–Volgenant solve far longer than its deadline, yet still honours
/// it: the solve polls it at every auction phase, every `S` bids and
/// before every free-row augmentation, so the only worker answers
/// `deadline_exceeded` and is then free for the next job.
///
/// The deadline has to land inside Step 3. Step 2 of this job takes about
/// 0.15 s optimised but about 4 s in an unoptimised test build, so the
/// deadline is 200 ms in the former and 7 s in the latter; the solve
/// itself runs for many seconds under either profile.
#[test]
fn fault_optimal_respects_job_deadline() {
    let deadline_ms = if cfg!(debug_assertions) { 7_000 } else { 200 };
    let server = Server::start(ServiceConfig {
        workers: 1,
        job_deadline_ms: deadline_ms,
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let exact = JobSpec {
        input: ImageSource::Synth {
            scene: Scene::Fur,
            size: 256,
            seed: 11,
        },
        target: ImageSource::Synth {
            scene: Scene::Checker,
            size: 256,
            seed: 12,
        },
        config: MosaicBuilder::new()
            .grid(64)
            .algorithm(Algorithm::Optimal(SolverKind::JonkerVolgenant))
            .backend(Backend::Threads(2))
            .build(),
    };

    // The receive timeout turns a solve that never polls the deadline
    // into a failure instead of a hung test.
    let (tx, rx) = std::sync::mpsc::channel();
    let submitter = std::thread::spawn(move || {
        let reply = Client::connect(addr).and_then(|mut client| client.submit(&exact));
        let _ = tx.send(reply);
    });
    let reply = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the optimal job ran past its deadline for 10 s")
        .unwrap();
    submitter.join().expect("client thread panicked");
    assert_eq!(reply, Response::DeadlineExceeded { deadline_ms });

    let mut client = Client::connect(addr).unwrap();
    decode_result(client.submit(&spec(Scene::Fur, 61, 4)).unwrap());
    client.shutdown().unwrap();
    server.join();
}

/// Submit `jobs` in order on one connection and collect the replies,
/// failing the test instead of hanging when a worker never answers.
fn replies_within(addr: std::net::SocketAddr, jobs: Vec<JobSpec>, what: &str) -> Vec<Response> {
    let (tx, rx) = std::sync::mpsc::channel();
    let submitter = std::thread::spawn(move || {
        let replies = Client::connect(addr)
            .and_then(|mut client| jobs.iter().map(|job| client.submit(job)).collect());
        let _ = tx.send(replies);
    });
    let replies = rx
        .recv_timeout(Duration::from_secs(10))
        .unwrap_or_else(|_| panic!("no reply within 10 s: {what}"))
        .unwrap();
    submitter.join().expect("client thread panicked");
    replies
}

/// A `threads` count from the wire is bounded by the server's compute
/// pool: 2^40 used to publish 2^40 chunks per colour group and hold the
/// worker for days; now it runs the lanes the pool has and returns the
/// same assignment as `threads: 2`.
#[test]
fn fault_lane_count_huge_threads_is_bounded_by_the_pool() {
    let server = Server::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let job = |threads: usize| {
        let mut job = spec(Scene::Drapery, 80, 8);
        job.config.backend = Backend::Threads(threads);
        job.config.algorithm = Algorithm::ParallelSearch;
        job
    };
    let replies = replies_within(addr, vec![job(1_099_511_627_776), job(2)], "threads 2^40");
    let huge = decode_result(replies[0].clone());
    let two = decode_result(replies[1].clone());
    assert_eq!(huge.assignment, two.assignment);

    Client::connect(addr).unwrap().shutdown().unwrap();
    server.join();
}

/// `gpu-sim` with `"workers": 0` used to trip the simulator's
/// at-least-one-worker assertion and kill the only worker, so neither
/// that job nor the next was answered. The lane count is floored at one.
#[test]
fn fault_lane_count_zero_gpu_workers_is_a_served_job() {
    let server = Server::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let mut zero = spec(Scene::Portrait, 81, 4);
    zero.config.backend = Backend::GpuSim { workers: Some(0) };
    let replies = replies_within(
        addr,
        vec![zero, spec(Scene::Fur, 82, 4)],
        "gpu-sim workers 0",
    );
    for reply in replies {
        decode_result(reply);
    }

    Client::connect(addr).unwrap().shutdown().unwrap();
    server.join();
}

/// A job that panics is answered `error` and its worker survives: on a
/// 1-worker server, the same spec sent again is served, and the panic
/// is counted as one failed job with nothing left in flight.
fn job_panic_is_answered_on(front_end: FrontEnd) {
    let server = Server::start(ServiceConfig {
        workers: 1,
        front_end,
        faults: FaultPlan::panic_first_jobs(1),
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let job = spec(Scene::Portrait, 83, 4);
    let replies = replies_within(addr, vec![job.clone(), job], "job panic");
    let Response::Error { message } = &replies[0] else {
        panic!("expected an error, got {:?}", replies[0]);
    };
    assert!(message.contains("panicked"), "{message}");
    decode_result(replies[1].clone());

    let mut client = Client::connect(addr).unwrap();
    let Response::Stats { stats } = client.stats().unwrap() else {
        panic!("expected stats");
    };
    let jobs = stats.get("jobs").unwrap();
    for (key, want) in [("failed", 1), ("completed", 1), ("in_flight", 0)] {
        assert_eq!(jobs.get(key).and_then(Json::as_u64), Some(want), "{key}");
    }
    client.shutdown().unwrap();
    server.join();
}

#[test]
fn fault_job_panic_is_answered_and_the_worker_survives() {
    job_panic_is_answered_on(FrontEnd::default());
}

#[test]
fn fault_job_panic_is_answered_and_the_worker_survives_threaded() {
    job_panic_is_answered_on(FrontEnd::Threaded);
}

/// A library job honours the per-job deadline like a generation job: a
/// stall that spends the budget before the first stage draws
/// `deadline_exceeded` (counted on the hardening counter), and the next
/// library job on the same worker completes.
#[test]
fn fault_library_deadline_cancels_a_stalled_library_job() {
    let root = std::env::temp_dir()
        .join("mosaic_service_integration")
        .join(format!("library_deadline_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = TileStore::create(&root, 8).unwrap();
    let mut seed = 0;
    while store.len().unwrap() < 12 {
        store.insert(&Scene::Plasma.render(8, seed)).unwrap();
        seed += 1;
    }
    let server = Server::start(ServiceConfig {
        workers: 1,
        job_deadline_ms: 100,
        faults: FaultPlan::stall_first_jobs(1, 300),
        ..ServiceConfig::default()
    })
    .unwrap();
    let library = LibraryJobSpec {
        target: ImageSource::Synth {
            scene: Scene::Portrait,
            size: 24,
            seed: 1,
        },
        store: root.display().to_string(),
        params: LibraryParams {
            grid: 3,
            clusters: 4,
            ..LibraryParams::default()
        },
    };
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(
        client.submit_library(&library).unwrap(),
        Response::DeadlineExceeded { deadline_ms: 100 }
    );
    assert_eq!(hardening_counter(&mut client, "deadline_exceeded"), 1);
    let result = decode_result(client.submit_library(&library).unwrap());
    assert_eq!(result.assignment.len(), 9);

    client.shutdown().unwrap();
    server.join();
    let _ = std::fs::remove_dir_all(&root);
}

/// SSD on one 512×512 tile can exceed a `u32` matrix entry, and one
/// 256×256 tile does not fit the simulated GPU's shared memory. Either
/// job used to panic the only worker, so neither it nor the next job was
/// ever answered; now Step 2 refuses both with a typed layout error, the
/// client gets `error`, and the same worker serves the next job.
#[test]
fn fault_overflowing_tile_metric_is_a_typed_error() {
    let server = Server::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let overflowing = JobSpec {
        input: ImageSource::Synth {
            scene: Scene::Portrait,
            size: 512,
            seed: 70,
        },
        target: ImageSource::Synth {
            scene: Scene::Regatta,
            size: 512,
            seed: 170,
        },
        config: MosaicBuilder::new()
            .grid(1)
            .metric(TileMetric::Ssd)
            .backend(Backend::Serial)
            .build(),
    };
    let mut unstageable = spec(Scene::Fur, 72, 1);
    unstageable.input = ImageSource::Synth {
        scene: Scene::Fur,
        size: 256,
        seed: 72,
    };
    unstageable.target = ImageSource::Synth {
        scene: Scene::Regatta,
        size: 256,
        seed: 172,
    };
    unstageable.config.backend = Backend::GpuSim { workers: Some(1) };

    // The receive timeout turns a worker that dies without answering
    // into a failure instead of a hung test.
    let (tx, rx) = std::sync::mpsc::channel();
    let submitter = std::thread::spawn(move || {
        let replies = Client::connect(addr).and_then(|mut client| {
            let jobs = [&overflowing, &unstageable, &spec(Scene::Fur, 71, 4)];
            jobs.into_iter().map(|job| client.submit(job)).collect()
        });
        let _ = tx.send(replies);
    });
    let replies: Vec<Response> = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the worker never answered an oversized job or the next one")
        .unwrap();
    submitter.join().expect("client thread panicked");
    for (reply, variant) in replies
        .iter()
        .zip(["EntryOverflow", "SharedMemoryOverflow"])
    {
        let Response::Error { message } = reply else {
            panic!("an oversized tile must draw a typed error, got {reply:?}");
        };
        assert!(message.contains(variant), "{message}");
    }
    decode_result(replies[2].clone());

    Client::connect(addr).unwrap().shutdown().unwrap();
    server.join();
}

/// Graceful shutdown still drains accepted work when workers are being
/// stalled by injected faults: every in-flight job gets a real answer
/// and `join` returns.
#[test]
fn fault_shutdown_drains_stalled_workers() {
    let server = Server::start(ServiceConfig {
        workers: 2,
        // Stalls are long enough to overlap the shutdown, short enough
        // to stay far inside the (default) job deadline.
        faults: FaultPlan::stall_first_jobs(2, 150),
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|i| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    client.submit(&spec(Scene::Checker, 50 + i, 4)).unwrap()
                })
            })
            .collect();
        // Let both jobs reach their workers, then shut down mid-stall.
        std::thread::sleep(Duration::from_millis(40));
        let mut control = Client::connect(addr).unwrap();
        assert_eq!(control.shutdown().unwrap(), Response::ShuttingDown);
        for handle in workers {
            let response = handle.join().expect("client thread panicked");
            assert!(
                matches!(response, Response::Result { .. }),
                "stalled job dropped during shutdown: {response:?}"
            );
        }
    });
    server.join();
}

/// Graceful shutdown: the control request stops intake, already-accepted
/// work drains, and `join` returns instead of hanging.
#[test]
fn graceful_shutdown_drains_and_joins() {
    let server = Server::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();

    // Land some completed work first so the drain has history behind it.
    let mut client = Client::connect(addr).unwrap();
    decode_result(client.submit(&spec(Scene::Portrait, 21, 4)).unwrap());

    assert_eq!(client.shutdown().unwrap(), Response::ShuttingDown);
    // Submissions after shutdown are refused, not dropped silently.
    match client.submit(&spec(Scene::Portrait, 22, 4)) {
        Ok(Response::Error { message }) => assert!(message.contains("shutting down")),
        other => panic!("expected a shutdown error, got {other:?}"),
    }
    server.join();

    // The listener is really gone once join returns.
    assert!(Client::connect(addr).is_err());
}
