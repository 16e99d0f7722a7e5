//! Differential tests of the one connection front-end (DESIGN §17): the
//! event-driven (epoll) service, the threaded oracle, and a gateway —
//! which runs the same front-end code with its own handler — in front
//! of a one-backend fleet. All three run the same fault scripts and
//! must produce byte-identical wire replies and matching hardening
//! counters; the suite closes with the idle-scale soak only the
//! event-driven design can attempt.

#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

use mosaic_gateway::{Fleet, GatewayConfig};
use mosaic_image::synth::Scene;
use mosaic_service::fault::{disconnect_mid_frame, stalled_connection_is_closed};
use mosaic_service::protocol::{encode_line, Request, Response};
use mosaic_service::{Client, FrontEnd, Server, ServiceConfig};
use photomosaic::{Backend, ImageSource, JobSpec, Json, MosaicBuilder};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A system a script runs against.
#[derive(Clone, Copy, Debug)]
enum Target {
    /// A service on the given front-end.
    Service(FrontEnd),
    /// A gateway (on the platform's front-end) before one backend.
    Gateway,
}

/// Every scenario runs once per target; index 0 is the system under
/// test, index 1 the threaded oracle, index 2 the gateway.
const TARGETS: [Target; 3] = [
    Target::Service(FrontEnd::Epoll),
    Target::Service(FrontEnd::Threaded),
    Target::Gateway,
];

enum Running {
    Service(Server),
    Gateway(Fleet),
}

impl Target {
    /// Start the target with `config`'s connection knobs on the
    /// listener clients talk to.
    fn start(self, config: ServiceConfig) -> Running {
        match self {
            Target::Service(front_end) => Running::Service(
                Server::start(ServiceConfig {
                    front_end,
                    ..config
                })
                .unwrap(),
            ),
            Target::Gateway => Running::Gateway(
                Fleet::start(
                    vec![ServiceConfig::default()],
                    GatewayConfig {
                        retry_after_ms: config.retry_after_ms,
                        max_frame_bytes: config.max_frame_bytes,
                        io_timeout_ms: config.io_timeout_ms,
                        max_connections: config.max_connections,
                        ..GatewayConfig::default()
                    },
                )
                .unwrap(),
            ),
        }
    }
}

impl Running {
    /// Where clients connect.
    fn addr(&self) -> SocketAddr {
        match self {
            Running::Service(server) => server.local_addr(),
            Running::Gateway(fleet) => fleet.gateway_addr(),
        }
    }

    /// The server that runs the jobs: the service itself, or the
    /// gateway's backend.
    fn worker_addr(&self) -> SocketAddr {
        match self {
            Running::Service(server) => server.local_addr(),
            Running::Gateway(fleet) => fleet.backend_addr(0),
        }
    }

    fn stop(self) {
        match self {
            Running::Service(server) => {
                server.shutdown();
                server.join();
            }
            Running::Gateway(fleet) => fleet.join(),
        }
    }
}

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

/// Connect, send `payload`, half-close, and collect the connection's
/// entire reply stream until the server closes it.
fn raw_exchange(addr: SocketAddr, payload: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(payload).expect("send payload");
    stream.shutdown(std::net::Shutdown::Write).ok();
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => out.extend_from_slice(&buf[..n]),
            // A reset after the reply (or instead of one) ends the
            // stream just as EOF does for comparison purposes.
            Err(_) => break,
        }
    }
    out
}

fn stats_field(client: &mut Client, section: &str, key: &str) -> u64 {
    let Response::Stats { stats } = client.stats().unwrap() else {
        panic!("expected stats");
    };
    stats
        .get(section)
        .and_then(|h| h.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing stat {section}.{key}"))
}

fn hardening_counter(client: &mut Client, key: &str) -> u64 {
    stats_field(client, "hardening", key)
}

fn io_loop_stat(client: &mut Client, key: &str) -> u64 {
    stats_field(client, "io_loop", key)
}

/// Keep connecting until a connection survives a ping — permit release
/// races the reconnect after slots free up.
fn connect_with_retry(addr: SocketAddr) -> Client {
    for _ in 0..200 {
        if let Ok(mut client) = Client::connect(addr) {
            match client.ping() {
                Ok(Response::Pong) => return client,
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
    panic!("server never accepted a new connection after slots freed");
}

/// Assert every target produced the same bytes as the first.
fn assert_all_identical<T: PartialEq + std::fmt::Debug>(what: &str, results: &[T]) {
    for (target, result) in TARGETS.iter().zip(results).skip(1) {
        assert_eq!(&results[0], result, "{what} diverges on {target:?}");
    }
}

/// An oversized frame draws the same reply bytes and the same counter
/// from every target.
#[test]
fn differential_oversized_frame_replies_are_byte_identical() {
    let mut replies = Vec::new();
    for target in TARGETS {
        let running = target.start(ServiceConfig {
            max_frame_bytes: 1024,
            ..ServiceConfig::default()
        });
        let addr = running.addr();

        // 4 KiB of garbage with no terminator: trips the limit before
        // any parse, on both framing implementations.
        let reply = raw_exchange(addr, &vec![b'x'; 4096]);

        let mut client = Client::connect(addr).unwrap();
        assert_eq!(
            hardening_counter(&mut client, "frames_too_large"),
            1,
            "{target:?}"
        );
        running.stop();
        replies.push(reply);
    }
    assert!(
        !replies[0].is_empty(),
        "oversized frame must draw a typed reply, not a bare close"
    );
    assert_all_identical("oversized-frame reply", &replies);
}

/// Framing is strict: a frame exists only once its `\n` arrives. A
/// client that half-closes after an unterminated frame gets no answer
/// for it from any target, and complete frames before it are answered.
#[test]
fn differential_unterminated_frame_is_discarded_by_every_target() {
    let payloads: [&[u8]; 2] = [
        b"{\"op\":\"ping\"}",
        b"{\"op\":\"ping\"}\n{\"op\":\"ping\"}",
    ];
    let mut replies = Vec::new();
    for target in TARGETS {
        let running = target.start(ServiceConfig::default());
        let addr = running.addr();
        replies.push(payloads.map(|payload| raw_exchange(addr, payload)).to_vec());
        running.stop();
    }
    assert_eq!(
        replies[0],
        vec![Vec::new(), b"{\"kind\":\"pong\"}\n".to_vec()],
        "{:?}",
        TARGETS[0]
    );
    assert_all_identical("unterminated-frame replies", &replies);
}

/// Every target disconnects a slowloris within the io timeout and
/// counts it the same way.
#[test]
fn differential_slowloris_is_disconnected_by_both_front_ends() {
    for target in TARGETS {
        let running = target.start(ServiceConfig {
            io_timeout_ms: 200,
            ..ServiceConfig::default()
        });
        let addr = running.addr();

        let severed =
            stalled_connection_is_closed(addr, b"{\"op\":\"sub", Duration::from_secs(5)).unwrap();
        assert!(severed, "{target:?} kept a stalled connection");

        let mut client = Client::connect(addr).unwrap();
        assert_eq!(
            hardening_counter(&mut client, "connections_timed_out"),
            1,
            "{target:?}"
        );
        running.stop();
    }
}

/// Over-capacity connections draw the same rejection bytes from every
/// target, and each recovers once the slot frees.
#[test]
fn differential_flood_rejection_bytes_match_and_both_recover() {
    let mut replies = Vec::new();
    for target in TARGETS {
        let running = target.start(ServiceConfig {
            max_connections: 1,
            retry_after_ms: 7,
            ..ServiceConfig::default()
        });
        let addr = running.addr();

        // Hold the only slot with a proven-registered connection.
        let mut holder = Client::connect(addr).unwrap();
        assert!(matches!(holder.ping().unwrap(), Response::Pong));

        replies.push(raw_exchange(addr, b"{\"op\":\"ping\"}\n"));

        drop(holder);
        // Reconnect attempts race the permit release, so retries may be
        // rejected too — the counter is a floor, not an exact count.
        let mut client = connect_with_retry(addr);
        assert!(
            hardening_counter(&mut client, "connections_rejected") >= 1,
            "{target:?}"
        );
        drop(client);
        running.stop();
    }
    assert!(!replies[0].is_empty(), "rejection must be answered");
    assert_all_identical("rejection reply", &replies);
}

/// Clients vanishing mid-frame leave every target in the same
/// observable state: no phantom jobs, same counters, still serving.
#[test]
fn differential_mid_frame_disconnects_leave_identical_state() {
    let mut states = Vec::new();
    for target in TARGETS {
        let running = target.start(ServiceConfig::default());
        let addr = running.addr();

        for _ in 0..3 {
            disconnect_mid_frame(addr, b"{\"op\":\"submit\",\"spec\":{").unwrap();
        }

        let mut client = Client::connect(addr).unwrap();
        let response = client.submit(&spec(Scene::Drapery, 35, 4)).unwrap();
        assert!(matches!(response, Response::Result { .. }), "{target:?}");
        let mut worker = Client::connect(running.worker_addr()).unwrap();
        let Response::Stats { stats } = worker.stats().unwrap() else {
            panic!("expected stats");
        };
        let jobs = stats.get("jobs").unwrap();
        states.push((
            jobs.get("submitted").and_then(Json::as_u64),
            jobs.get("completed").and_then(Json::as_u64),
            jobs.get("in_flight").and_then(Json::as_u64),
            jobs.get("rejected").and_then(Json::as_u64),
        ));
        running.stop();
    }
    assert_eq!(states[0], (Some(1), Some(1), Some(0), Some(0)));
    assert_all_identical("post-disconnect state", &states);
}

/// The same job spec produces byte-identical result JSON through every
/// target.
#[test]
fn differential_generation_results_are_byte_identical() {
    let mut encodings = Vec::new();
    for target in TARGETS {
        let running = target.start(ServiceConfig::default());
        let mut client = Client::connect(running.addr()).unwrap();
        let Response::Result { result } = client.submit(&spec(Scene::Portrait, 41, 4)).unwrap()
        else {
            panic!("expected a result");
        };
        // The report embeds wall-clock timings, which can never be
        // byte-identical; the mosaic itself and every deterministic
        // quality figure must be.
        let report = result.get("report").expect("report");
        encodings.push((
            result.get("image").expect("image").encode(),
            result.get("assignment").expect("assignment").encode(),
            report.get("config").expect("config").encode(),
            report.get("total_error").and_then(Json::as_u64),
            report.get("sweeps").and_then(Json::as_u64),
            report.get("swaps").and_then(Json::as_u64),
        ));
        running.stop();
    }
    assert_all_identical("result JSON", &encodings);
}

/// A client that sends a job and a ping and then half-closes, while the
/// job is still in flight, gets both replies from every target before
/// the connection closes.
#[test]
fn differential_half_close_with_a_job_in_flight_still_gets_every_reply() {
    let mut payload = encode_line(&Request::Submit(Box::new(spec(Scene::Fur, 43, 8))).to_json());
    payload.extend_from_slice(b"{\"op\":\"ping\"}\n");
    let mut replies = Vec::new();
    for target in TARGETS {
        let running = target.start(ServiceConfig::default());
        let stream = raw_exchange(running.addr(), &payload);
        let mut lines = stream.split_inclusive(|&b| b == b'\n');
        let result = lines.next().map(|line| {
            let reply =
                Response::from_json(&Json::parse(std::str::from_utf8(line).unwrap()).unwrap());
            let Ok(Response::Result { result }) = reply else {
                panic!("{target:?}: expected a result, got {reply:?}");
            };
            // Only the report's wall-clock timings may differ.
            (
                result.get("image").expect("image").encode(),
                result.get("assignment").expect("assignment").encode(),
            )
        });
        replies.push((result, lines.map(<[u8]>::to_vec).collect::<Vec<_>>()));
        running.stop();
    }
    assert!(
        replies[0].0.is_some(),
        "{:?} dropped the job reply",
        TARGETS[0]
    );
    assert_eq!(replies[0].1, vec![b"{\"kind\":\"pong\"}\n".to_vec()]);
    assert_all_identical("half-close replies", &replies);
}

/// The scale target: a thousand idle connections held open by the
/// event-driven front-end — on the service and on the gateway — with
/// the default worker count, while real work still completes; dropping
/// them frees every connection slot.
#[test]
fn soak_thousand_idle_connections_event_driven() {
    for target in [Target::Service(FrontEnd::Epoll), Target::Gateway] {
        // Unlimited gate — scale is the point; every other knob
        // (including `workers`) stays at its default.
        let running = target.start(ServiceConfig {
            max_connections: 0,
            ..ServiceConfig::default()
        });
        let addr = running.addr();

        let mut idle = Vec::with_capacity(1000);
        for i in 0..1000 {
            match TcpStream::connect(addr) {
                Ok(stream) => idle.push(stream),
                Err(err) => panic!("{target:?}: idle connection {i} failed: {err}"),
            }
        }

        // Accepts may lag the connects; poll the gauge until the loop
        // has registered the whole population (plus this control
        // client).
        let mut client = Client::connect(addr).unwrap();
        let mut open = 0;
        for _ in 0..400 {
            open = io_loop_stat(&mut client, "connections_open");
            if open >= 1001 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            open >= 1001,
            "{target:?}: only {open} connections registered"
        );

        // Real work still flows with the default worker count.
        let response = client.submit(&spec(Scene::Fur, 47, 4)).unwrap();
        assert!(matches!(response, Response::Result { .. }), "{target:?}");
        assert!(
            io_loop_stat(&mut client, "wakeups") > 0,
            "{target:?}: io loop must be doing the accepting"
        );

        // Dropping the idle population releases every gate slot.
        drop(idle);
        let mut open = u64::MAX;
        for _ in 0..400 {
            open = io_loop_stat(&mut client, "connections_open");
            if open <= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            open <= 1,
            "{target:?}: {open} connections still held after drop"
        );
        drop(client);
        running.stop();
    }
}
