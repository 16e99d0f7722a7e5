//! End-to-end tests of the gateway routing tier: a real gateway in
//! front of real backend servers on ephemeral ports, result fidelity
//! against direct generation, mid-job backend death with failover,
//! flood behaviour, typed refusals, and the cache-affinity argument
//! for rendezvous routing.

use mosaic_gateway::{Fleet, Gateway, GatewayConfig};
use mosaic_image::synth::Scene;
use mosaic_service::protocol::Response;
use mosaic_service::server::ServiceConfig;
use mosaic_service::{run_load, Client, FaultPlan};
use photomosaic::{Backend, ImageSource, JobResult, JobSpec, Json, MosaicBuilder};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
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

/// Per-backend state words from a gateway's `gateway` snapshot.
fn backend_states(client: &mut Client) -> Vec<String> {
    let Response::Gateway { gateway } = client.gateway_info().unwrap() else {
        panic!("expected a gateway snapshot");
    };
    let Some(Json::Arr(entries)) = gateway.get("backends") else {
        panic!("expected a backend array");
    };
    entries
        .iter()
        .map(|e| {
            e.get("state")
                .and_then(Json::as_str)
                .expect("state word")
                .to_string()
        })
        .collect()
}

/// A batch routed through the gateway must be byte-identical (modulo
/// timing fields) to direct generation of the same specs, and the
/// gateway's own stats/metrics must account for every routed job.
#[test]
fn gateway_batch_matches_direct_generation() {
    let fleet = Fleet::start(
        vec![
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        ],
        GatewayConfig::default(),
    )
    .unwrap();
    let addr = fleet.gateway_addr();
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

    let mut client = Client::connect(addr).unwrap();
    let Response::Stats { stats } = client.stats().unwrap() else {
        panic!("expected stats");
    };
    let jobs = stats.get("jobs").unwrap();
    assert_eq!(jobs.get("routed").and_then(Json::as_u64), Some(4));
    assert_eq!(jobs.get("rejected").and_then(Json::as_u64), Some(0));
    let backends = stats.get("backends").unwrap();
    assert_eq!(backends.get("healthy").and_then(Json::as_u64), Some(2));
    let route = stats.get("route_us").unwrap();
    assert_eq!(route.get("count").and_then(Json::as_u64), Some(4));

    let Response::Metrics { text } = client.metrics().unwrap() else {
        panic!("expected metrics text");
    };
    assert!(text.contains("# TYPE gateway_jobs_routed_total counter"));
    assert!(text.contains("gateway_jobs_routed_total 4\n"));
    assert!(text.contains("gateway_backends_healthy 2\n"));
    assert!(text.contains("# TYPE gateway_route_us histogram"));

    fleet.join();
}

/// Kill one backend mid-job (crash fault: connection severed, listener
/// closed, connects refused — process death as seen from the network).
/// The gateway must fail the job over to the next rendezvous choice,
/// lose zero accepted jobs, and eventually mark the backend `down`.
#[test]
fn fault_killed_backend_fails_over_with_zero_lost_jobs() {
    let plan = FaultPlan::crash_first_jobs(1);
    let fleet = Fleet::start(
        vec![
            ServiceConfig {
                workers: 2,
                faults: plan.clone(),
                ..ServiceConfig::default()
            },
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        ],
        GatewayConfig {
            probe_interval_ms: 50,
            retry_after_ms: 5,
            ..GatewayConfig::default()
        },
    )
    .unwrap();

    // Distinct seeds spread keys over both backends, so the faulted one
    // sees traffic with overwhelming probability (2^-23 to miss).
    let specs: Vec<JobSpec> = (0..24).map(|i| spec(Scene::Plasma, 200 + i, 4)).collect();
    let summary = run_load(fleet.gateway_addr(), &specs, 3).unwrap();
    assert_eq!(summary.completed, 24, "{summary:?}");
    assert_eq!(summary.failed, 0, "accepted jobs were lost: {summary:?}");
    assert_eq!(
        plan.crashes_remaining(),
        0,
        "the crash fault never fired — no job reached the faulted backend"
    );

    // The killed backend refuses connects, so traffic plus probes walk
    // it to Down within a few failure counts.
    let mut client = Client::connect(fleet.gateway_addr()).unwrap();
    let mut waited = Duration::ZERO;
    loop {
        let states = backend_states(&mut client);
        assert_eq!(states.len(), 2);
        if states.contains(&"down".to_string()) {
            break;
        }
        assert!(
            waited < Duration::from_secs(10),
            "killed backend never marked down: {states:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
        waited += Duration::from_millis(20);
    }
    // The survivor keeps serving through the same gateway.
    decode_result(client.submit(&spec(Scene::Checker, 900, 4)).unwrap());
    fleet.join();
}

/// A flood of jobs into saturated backends draws the standard
/// `rejected` backpressure shape through the gateway, retrying clients
/// complete every job, and the fleet recovers to serve new work.
#[test]
fn fault_flood_is_rejected_typed_then_recovers() {
    let backend = || ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        retry_after_ms: 5,
        ..ServiceConfig::default()
    };
    let fleet = Fleet::start(
        vec![backend(), backend()],
        GatewayConfig {
            retry_after_ms: 5,
            ..GatewayConfig::default()
        },
    )
    .unwrap();
    let addr = fleet.gateway_addr();

    let barrier = std::sync::Barrier::new(8);
    let rejected: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    barrier.wait();
                    // Distinct seeds defeat both matrix caches, so the
                    // one-slot queues actually back up.
                    let job = spec(Scene::Plasma, 300 + i, 8);
                    let (response, rejections) = client.submit_with_retry(&job, 200).unwrap();
                    match response {
                        Response::Result { .. } => rejections,
                        other => panic!("job starved: {other:?}"),
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
        "8 simultaneous jobs into two 1-slot queues never saw backpressure"
    );

    // Recovery: the fleet is idle again and serves immediately.
    let mut client = Client::connect(addr).unwrap();
    decode_result(client.submit(&spec(Scene::Fur, 950, 4)).unwrap());
    let mut states = backend_states(&mut client);
    states.sort();
    assert_eq!(states, ["healthy", "healthy"]);
    fleet.join();
}

/// With every backend dead the gateway answers the typed routing
/// refusals: `backend_down` while it is still discovering the deaths,
/// `no_backend_available` once nothing is routable and even the
/// last-resort attempt fails.
#[test]
fn fault_dead_fleet_draws_typed_routing_refusals() {
    // Ports 1 and 2 are never listening; disable probes so only traffic
    // drives the health machine and the sequence is deterministic.
    let gateway = Gateway::start(GatewayConfig {
        backends: vec!["127.0.0.1:1".to_string(), "127.0.0.1:2".to_string()],
        probe_interval_ms: 0,
        backend_timeout_ms: 1_000,
        retry_after_ms: 9,
        ..GatewayConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(gateway.local_addr()).unwrap();
    let job = spec(Scene::Portrait, 400, 4);

    // Both backends start Healthy: each job burns both hops on dead
    // connects and reports the last casualty. A backend is Down after
    // three consecutive failures, so that takes three jobs.
    for attempt in 0..3 {
        match client.submit(&job).unwrap() {
            Response::BackendDown {
                backend,
                retry_after_ms,
            } => {
                assert!(backend.starts_with("127.0.0.1:"), "{backend}");
                assert_eq!(retry_after_ms, 9);
            }
            other => panic!("attempt {attempt}: expected backend_down, got {other:?}"),
        }
    }

    // Now both are Down: nothing is routable, the last-resort attempt
    // also dies, and the whole-fleet refusal comes back.
    match client.submit(&job).unwrap() {
        Response::NoBackendAvailable { retry_after_ms } => assert_eq!(retry_after_ms, 9),
        other => panic!("expected no_backend_available, got {other:?}"),
    }
    let mut states = backend_states(&mut client);
    states.sort();
    assert_eq!(states, ["down", "down"]);

    gateway.shutdown();
    gateway.join();
}

/// The point of rendezvous routing: on repeated specs, pinning each
/// spec to one backend gives every distinct spec exactly one cold miss
/// fleet-wide. Scattering the same 24 jobs over both backends (as a
/// round-robin router would) makes every spec cold on each of them: 6
/// misses, 18 hits.
#[test]
fn rendezvous_routing_beats_round_robin_on_cache_affinity() {
    let fleet = Fleet::start(
        vec![ServiceConfig::default(), ServiceConfig::default()],
        GatewayConfig::default(),
    )
    .unwrap();
    // 3 distinct specs, 24 submissions, one serial lane.
    let specs: Vec<JobSpec> = (0..24)
        .map(|i| spec(Scene::Checker, 500 + i % 3, 4))
        .collect();
    let summary = run_load(fleet.gateway_addr(), &specs, 1).unwrap();
    assert_eq!(summary.completed, 24, "{summary:?}");
    let cache = fleet.aggregate_cache_stats();
    fleet.join();
    // Each spec lives on exactly one backend: one cold miss per
    // distinct spec, 21 hits.
    assert_eq!((cache.misses, cache.hits), (3, 21), "{cache:?}");
}

/// A synth source asking for a 2^20-pixel edge would make the backend
/// allocate 2^40 bytes and abort, and failover would carry it to the
/// next backend too. The decode-time bound stops it at the gateway: the
/// client gets `error`, both backends keep answering, and no hop is
/// spent.
#[test]
fn synth_size_bound_oversized_synth_is_refused_without_killing_backends() {
    let backend = || ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    };
    let fleet = Fleet::start(vec![backend(), backend()], GatewayConfig::default()).unwrap();
    let mut job = spec(Scene::Plasma, 1, 4);
    job.input = ImageSource::Synth {
        scene: Scene::Plasma,
        size: 1 << 20,
        seed: 0,
    };
    let mut client = Client::connect(fleet.gateway_addr()).unwrap();
    match client.submit(&job).unwrap() {
        Response::Error { message } => assert!(message.contains("outside 1..=8192"), "{message}"),
        other => panic!("expected an error, got {other:?}"),
    }
    // A backend reached directly refuses it the same way.
    let mut direct = Client::connect(fleet.backend_addr(0)).unwrap();
    assert!(matches!(
        direct.submit(&job).unwrap(),
        Response::Error { .. }
    ));
    for index in 0..fleet.backend_count() {
        let mut backend = Client::connect(fleet.backend_addr(index)).unwrap();
        assert_eq!(backend.ping().unwrap(), Response::Pong, "backend {index}");
    }
    let Response::Stats { stats } = client.stats().unwrap() else {
        panic!("expected gateway stats");
    };
    let failovers = stats.get("jobs").and_then(|jobs| jobs.get("failovers"));
    assert_eq!(failovers.and_then(Json::as_u64), Some(0), "{stats:?}");
    // The fleet still serves ordinary work.
    decode_result(client.submit(&spec(Scene::Plasma, 1, 4)).unwrap());
    fleet.join();
}

/// A gateway whose only backend is a plain listener the test scripts.
/// Probes are off, so every backend connection is one the gateway made
/// to forward a job.
fn scripted_gateway() -> (Gateway, TcpListener) {
    let backend = TcpListener::bind("127.0.0.1:0").unwrap();
    let gateway = Gateway::start(GatewayConfig {
        backends: vec![backend.local_addr().unwrap().to_string()],
        probe_interval_ms: 0,
        ..GatewayConfig::default()
    })
    .unwrap();
    (gateway, backend)
}

/// Send one raw line and read one raw reply line.
fn exchange(addr: std::net::SocketAddr, line: &str) -> String {
    let stream = TcpStream::connect(addr).unwrap();
    (&stream).write_all(line.as_bytes()).unwrap();
    let mut reply = String::new();
    BufReader::new(&stream).read_line(&mut reply).unwrap();
    reply
}

/// The gateway parses a job to route it, but the backend receives the
/// client's exact bytes (odd spacing, an unknown field and all), and the
/// client receives the backend's exact reply bytes, however they are
/// laid out.
#[test]
fn verbatim_gateway_forwards_request_and_reply_bytes_unchanged() {
    let (gateway, backend) = scripted_gateway();
    let job = spec(Scene::Portrait, 5, 4).to_json().encode();
    let request = format!(" {{ \"note\" : [1, 2.50] ,\"op\":  \"submit\",\"job\" :{job}}} \n");
    let reply =
        "{ \"result\" : {\"report\":{\"b\":1,\"a\":0}, \"image\" :null}, \"kind\":\"result\" }\n";
    let script = std::thread::spawn(move || {
        let (stream, _) = backend.accept().unwrap();
        let mut received = String::new();
        BufReader::new(&stream).read_line(&mut received).unwrap();
        (&stream).write_all(reply.as_bytes()).unwrap();
        received
    });
    assert_eq!(exchange(gateway.local_addr(), &request), reply);
    assert_eq!(script.join().unwrap(), request);
    gateway.shutdown();
    gateway.join();
}

/// A request the gateway cannot parse or validate is answered by the
/// gateway itself; the backend never sees a connection.
#[test]
fn verbatim_gateway_answers_malformed_requests_without_a_backend() {
    let (gateway, backend) = scripted_gateway();
    let mut oversized = spec(Scene::Portrait, 5, 4);
    oversized.target = ImageSource::Synth {
        scene: Scene::Plasma,
        size: 1 << 20,
        seed: 0,
    };
    let oversized = format!(
        "{{\"op\":\"submit\",\"job\":{}}}\n",
        oversized.to_json().encode()
    );
    for line in [
        "{\"op\":\"submit\"\n",
        "{\"op\":\"submit\",\"job\":{}}\n",
        "{\"op\":\"dance\"}\n",
        oversized.as_str(),
    ] {
        let reply = Json::parse(exchange(gateway.local_addr(), line).trim_end()).unwrap();
        assert!(
            matches!(Response::from_json(&reply), Ok(Response::Error { .. })),
            "{line:?} drew {reply:?}"
        );
    }
    backend.set_nonblocking(true).unwrap();
    match backend.accept() {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::WouldBlock),
        Ok((_, peer)) => panic!("the gateway opened a backend connection from {peer}"),
    }
    gateway.shutdown();
    gateway.join();
}
