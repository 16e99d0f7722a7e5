//! Client side of the wire protocol, plus a multi-threaded load
//! generator for exercising a running server.

use crate::protocol::{read_message, write_message, Request, Response};
use mosaic_image::synth::XorShift64;
use mosaic_tilelib::LibraryJobSpec;
use photomosaic::{JobSpec, Json};
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Response frames larger than this are treated as protocol errors.
/// Generous — results carry base64-free JSON images — but bounded, so a
/// confused or hostile server cannot make a client allocate without
/// limit.
const MAX_RESPONSE_FRAME_BYTES: usize = 256 * 1024 * 1024;

/// Floor for the retry back-off: a server hint of 0 must not turn the
/// retry loop into a hot spin.
const BACKOFF_FLOOR_MS: u64 = 1;

/// Cap for the exponential retry back-off.
const BACKOFF_CAP_MS: u64 = 250;

/// Back-off before retry number `rejection` (1-based), derived from the
/// server's `retry_after_ms` hint: clamped to a floor, doubled per
/// rejection up to a cap, then jittered to the upper half of the window
/// so simultaneous rejectees fan out instead of re-colliding.
fn backoff_delay_ms(hint_ms: u64, rejection: u64, rng: &mut XorShift64) -> u64 {
    let base = hint_ms.clamp(BACKOFF_FLOOR_MS, BACKOFF_CAP_MS);
    // Shift saturating at the cap; the exponent is bounded to keep the
    // shift well-defined.
    let exponent = rejection.saturating_sub(1).min(16) as u32;
    let scaled = base.saturating_mul(1u64 << exponent).min(BACKOFF_CAP_MS);
    // Jitter in [scaled/2, scaled] (never below the floor).
    let low = (scaled / 2).max(BACKOFF_FLOOR_MS);
    low + rng.next_below(scaled - low + 1)
}

/// A connected protocol client. One request/response at a time, in
/// order; open one client per thread for concurrency.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    rng: XorShift64,
}

impl Client {
    /// Connect to a server.
    ///
    /// # Errors
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let writer = stream.try_clone()?;
        // Jitter seed: the ephemeral local port differs per connection,
        // which is exactly the property that de-synchronises retries.
        let seed = stream
            .local_addr()
            .map(|a| u64::from(a.port()))
            .unwrap_or(1);
        Ok(Client {
            writer,
            reader: BufReader::new(stream),
            rng: XorShift64::new(seed ^ 0xB0FF_5EED),
        })
    }

    /// Send one request and wait for its response.
    ///
    /// # Errors
    /// I/O failures, a server-side disconnect, or a malformed response
    /// (surfaced as [`std::io::ErrorKind::InvalidData`]).
    pub fn request(&mut self, request: &Request) -> std::io::Result<Response> {
        write_message(&mut self.writer, &request.to_json())?;
        let message = read_message(&mut self.reader, MAX_RESPONSE_FRAME_BYTES)
            .map_err(std::io::Error::from)?
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )
            })?;
        Response::from_json(&message)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Submit one job.
    ///
    /// # Errors
    /// See [`request`](Self::request).
    pub fn submit(&mut self, spec: &JobSpec) -> std::io::Result<Response> {
        self.request(&Request::Submit(Box::new(spec.clone())))
    }

    /// Submit one job, retrying on the typed refusals — queue-full
    /// `rejected` from a server, `backend_down`/`no_backend_available`
    /// from a gateway — up to `max_attempts`. The `retry_after_ms` hint
    /// seeds a floored, capped exponential back-off with per-connection
    /// jitter — a hint of 0 never hot-spins, and simultaneous rejectees
    /// spread out instead of stampeding back together. Returns the final
    /// response (a refusal only if every attempt was refused) plus the
    /// number of refusals absorbed.
    ///
    /// # Errors
    /// See [`request`](Self::request).
    pub fn submit_with_retry(
        &mut self,
        spec: &JobSpec,
        max_attempts: usize,
    ) -> std::io::Result<(Response, u64)> {
        let attempts = max_attempts.max(1) as u64;
        let mut rejections = 0;
        loop {
            let response = self.submit(spec)?;
            let hint = match &response {
                Response::Rejected { retry_after_ms }
                | Response::BackendDown { retry_after_ms, .. }
                | Response::NoBackendAvailable { retry_after_ms } => *retry_after_ms,
                _ => return Ok((response, rejections)),
            };
            rejections += 1;
            if rejections >= attempts {
                return Ok((response, rejections));
            }
            let delay = backoff_delay_ms(hint, rejections, &mut self.rng);
            std::thread::sleep(Duration::from_millis(delay));
        }
    }

    /// Submit one tile-library job.
    ///
    /// # Errors
    /// See [`request`](Self::request).
    pub fn submit_library(&mut self, spec: &LibraryJobSpec) -> std::io::Result<Response> {
        self.request(&Request::Library(Box::new(spec.clone())))
    }

    /// Fetch aggregate metrics.
    ///
    /// # Errors
    /// See [`request`](Self::request).
    pub fn stats(&mut self) -> std::io::Result<Response> {
        self.request(&Request::Stats)
    }

    /// Fetch the Prometheus-style text exposition.
    ///
    /// # Errors
    /// See [`request`](Self::request).
    pub fn metrics(&mut self) -> std::io::Result<Response> {
        self.request(&Request::Metrics)
    }

    /// Liveness check.
    ///
    /// # Errors
    /// See [`request`](Self::request).
    pub fn ping(&mut self) -> std::io::Result<Response> {
        self.request(&Request::Ping)
    }

    /// Fetch a gateway's routing table and per-backend health. Plain
    /// servers answer this with a typed `error`.
    ///
    /// # Errors
    /// See [`request`](Self::request).
    pub fn gateway_info(&mut self) -> std::io::Result<Response> {
        self.request(&Request::GatewayInfo)
    }

    /// Ask the server to shut down gracefully.
    ///
    /// # Errors
    /// See [`request`](Self::request).
    pub fn shutdown(&mut self) -> std::io::Result<Response> {
        self.request(&Request::Shutdown)
    }
}

/// Outcome of a [`run_load`] session.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LoadSummary {
    /// Jobs that returned a result.
    pub completed: u64,
    /// Queue-full rejections absorbed (including retried ones).
    pub rejections: u64,
    /// Jobs that ended in an error response or an I/O failure.
    pub failed: u64,
    /// Results whose report marked the error matrix as cached.
    pub cache_hits: u64,
    /// Total wall time of the whole session in milliseconds.
    pub wall_ms: u64,
}

/// Drive a server with `specs`, `concurrency` connections at a time
/// (client mode for load generation). Spec `i` is handled by connection
/// `i % concurrency`; each job is retried on rejection up to 40 times.
/// Every connection with specs runs on its own scoped thread, at most
/// `min(concurrency, specs.len())` of them, so all of them are open at
/// once. They block on sockets, so they stay off the compute pool, whose
/// gangs run at most `threads() + 1` lanes at once.
///
/// # Errors
/// Propagates connection failures; per-job errors are counted in the
/// summary instead.
pub fn run_load(
    addr: impl ToSocketAddrs,
    specs: &[JobSpec],
    concurrency: usize,
) -> std::io::Result<LoadSummary> {
    let addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address"))?;
    let concurrency = concurrency.max(1);
    let start = Instant::now();

    let run_lane = |lane: usize| -> std::io::Result<LoadSummary> {
        let mut lane_summary = LoadSummary::default();
        let mut client = Client::connect(addr)?;
        for spec in specs.iter().skip(lane).step_by(concurrency) {
            match client.submit_with_retry(spec, 40) {
                Ok((Response::Result { result }, rejections)) => {
                    lane_summary.completed += 1;
                    lane_summary.rejections += rejections;
                    let hit = result
                        .get("report")
                        .and_then(|r| r.get("cache_hit"))
                        .and_then(Json::as_bool);
                    if hit == Some(true) {
                        lane_summary.cache_hits += 1;
                    }
                }
                Ok((
                    Response::Rejected { .. }
                    | Response::BackendDown { .. }
                    | Response::NoBackendAvailable { .. },
                    rejections,
                )) => {
                    lane_summary.rejections += rejections;
                    lane_summary.failed += 1;
                }
                Ok(_) | Err(_) => lane_summary.failed += 1,
            }
        }
        Ok(lane_summary)
    };

    let lanes: Vec<std::io::Result<LoadSummary>> = std::thread::scope(|scope| {
        let run_lane = &run_lane;
        let handles: Vec<_> = (0..concurrency.min(specs.len()))
            .map(|lane| {
                std::thread::Builder::new()
                    .name(format!("mosaic-load-{lane}"))
                    .spawn_scoped(scope, move || run_lane(lane))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| match handle?.join() {
                Ok(lane) => lane,
                Err(_) => Err(std::io::Error::other("load lane panicked")),
            })
            .collect()
    });

    let mut summary = LoadSummary::default();
    for lane in lanes {
        let lane = lane?;
        summary.completed += lane.completed;
        summary.rejections += lane.rejections;
        summary.failed += lane.failed;
        summary.cache_hits += lane.cache_hits;
    }
    summary.wall_ms = start.elapsed().as_millis() as u64;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServiceConfig};
    use mosaic_image::synth::Scene;
    use photomosaic::{Backend, ImageSource, MosaicBuilder};

    fn spec(seed: u64) -> JobSpec {
        JobSpec {
            input: ImageSource::Synth {
                scene: Scene::Plasma,
                size: 16,
                seed,
            },
            target: ImageSource::Synth {
                scene: Scene::Drapery,
                size: 16,
                seed,
            },
            config: MosaicBuilder::new()
                .grid(4)
                .backend(Backend::Serial)
                .build(),
        }
    }

    #[test]
    fn load_generator_completes_all_jobs() {
        let server = Server::start(ServiceConfig {
            workers: 2,
            queue_capacity: 2,
            ..ServiceConfig::default()
        })
        .unwrap();
        let specs: Vec<JobSpec> = (0..8).map(|i| spec(i % 3)).collect();
        let summary = run_load(server.local_addr(), &specs, 4).unwrap();
        assert_eq!(summary.completed, 8);
        assert_eq!(summary.failed, 0);
        // 3 distinct jobs, 8 submissions: at least 5 served from cache.
        assert!(summary.cache_hits >= 5, "{summary:?}");
        server.shutdown();
        server.join();
    }

    /// Load lanes block on their sockets, so every one must be connected
    /// at once: a scripted server withholds its replies until
    /// `available_parallelism() + 2` connections are open (or 5 s pass)
    /// and records how many were open when it released them.
    #[test]
    fn load_lanes_are_all_connected_at_once() {
        use std::io::{BufRead, Write};
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
        use std::sync::Arc;

        let lanes = std::thread::available_parallelism().map_or(1, |n| n.get()) + 2;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accepted = Arc::new(AtomicUsize::new(0));
        // Connections open when the replies were released (0 = withheld).
        let released_at = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let script = {
            let (accepted, released_at, stop) =
                (accepted.clone(), released_at.clone(), stop.clone());
            std::thread::spawn(move || {
                let withhold_until = Instant::now() + Duration::from_secs(5);
                for stream in listener.incoming() {
                    if stop.load(SeqCst) {
                        return;
                    }
                    let (accepted, released_at) = (accepted.clone(), released_at.clone());
                    std::thread::spawn(move || {
                        let stream = stream.unwrap();
                        let release = || {
                            let open = accepted.load(SeqCst);
                            let _ = released_at.compare_exchange(0, open, SeqCst, SeqCst);
                        };
                        if accepted.fetch_add(1, SeqCst) + 1 >= lanes {
                            release();
                        }
                        while released_at.load(SeqCst) == 0 && Instant::now() < withhold_until {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        release();
                        let mut reader = BufReader::new(&stream);
                        let mut line = String::new();
                        while reader.read_line(&mut line).unwrap_or(0) > 0 {
                            let reply = Response::Error {
                                message: "scripted".to_string(),
                            };
                            (&stream).write_all(&reply.to_line()).unwrap();
                            line.clear();
                        }
                    });
                }
            })
        };

        let specs: Vec<JobSpec> = (0..lanes as u64).map(spec).collect();
        let summary = run_load(addr, &specs, lanes).unwrap();
        stop.store(true, SeqCst);
        let _ = TcpStream::connect(addr);
        script.join().unwrap();
        assert_eq!(summary.failed, lanes as u64, "{summary:?}");
        assert_eq!(released_at.load(SeqCst), lanes, "lanes open at once");
    }

    #[test]
    fn connect_failure_is_an_error() {
        // Port 1 on localhost is essentially never listening.
        assert!(Client::connect("127.0.0.1:1").is_err());
    }

    #[test]
    fn zero_hint_never_yields_a_zero_delay() {
        let mut rng = XorShift64::new(7);
        for rejection in 1..=50 {
            let delay = backoff_delay_ms(0, rejection, &mut rng);
            assert!(delay >= BACKOFF_FLOOR_MS, "rejection {rejection}: {delay}");
            assert!(delay <= BACKOFF_CAP_MS, "rejection {rejection}: {delay}");
        }
    }

    #[test]
    fn backoff_grows_toward_the_cap_and_stays_bounded() {
        let mut rng = XorShift64::new(11);
        // With a 10 ms hint the un-jittered schedule is 10, 20, 40, ...
        // capped at 250; jitter keeps each delay within [half, full].
        for (rejection, expected_scaled) in [(1, 10u64), (2, 20), (3, 40), (6, 250), (60, 250)] {
            for _ in 0..100 {
                let delay = backoff_delay_ms(10, rejection, &mut rng);
                assert!(delay <= expected_scaled, "rejection {rejection}: {delay}");
                assert!(
                    delay >= expected_scaled / 2,
                    "rejection {rejection}: {delay}"
                );
            }
        }
    }

    #[test]
    fn oversized_hints_are_clamped_to_the_cap() {
        let mut rng = XorShift64::new(13);
        for _ in 0..100 {
            assert!(backoff_delay_ms(u64::MAX, 1, &mut rng) <= BACKOFF_CAP_MS);
        }
    }

    #[test]
    fn jitter_actually_varies_between_connections() {
        let mut a = XorShift64::new(21);
        let mut b = XorShift64::new(22);
        let seq_a: Vec<u64> = (1..=8).map(|r| backoff_delay_ms(200, r, &mut a)).collect();
        let seq_b: Vec<u64> = (1..=8).map(|r| backoff_delay_ms(200, r, &mut b)).collect();
        assert_ne!(seq_a, seq_b, "distinct seeds must desynchronise retries");
    }
}
