//! The gateway server: runs the service's connection front-end with its
//! own [`Handler`], routes each job to a backend, proxies the response
//! back.
//!
//! Thread structure (all plain `std::thread`):
//!
//! ```text
//! front-end (the service's epoll loop, or its threaded oracle)
//!        │ inline: ping, stats, metrics, gateway, shutdown
//!        │ submit/library frames ──▶ forward queue ──▶ forwarder threads
//!        ▲                                               │ route_submit:
//!        └───────────── Reply via ReplyTo ───────────────┤ rendezvous order,
//!                                                        ▼ fresh TCP per attempt
//!                                  backend fleet (mosaic-service processes)
//!                                                        ▲
//! probe loop ── stats probes ────────────────────────────┘ (one scoped thread per backend)
//! ```
//!
//! The client side is the service's own [`frontend`]: framing, idle
//! deadlines, the connection cap and their counters are the backend's.
//! Job frames are decoded, keyed and forwarded off the front-end's
//! thread by forwarders started on demand — only when a job is queued
//! and none is parked, so there are never more of them than connections
//! with a job in flight. A job is forwarded as the client's own frame
//! bytes, and the backend's reply frame goes back unchanged: the gateway
//! re-encodes neither. Each attempt opens a fresh backend connection —
//! jobs are pure functions of their spec, so replaying a job on the next
//! rendezvous choice after a mid-job backend death is always safe.
//!
//! Failover semantics per job, up to `max_hops` distinct backends:
//!
//! * connect/IO failure → count a health failure, try the next choice;
//! * `rejected` (backpressure) → the backend is alive but saturated;
//!   try the next choice, and if every hop was saturated answer
//!   `rejected` so clients reuse their existing back-off;
//! * `error` → the backend is alive; retry elsewhere in case the
//!   failure was local (a draining backend), proxy the last error if
//!   every hop errors;
//! * anything else → proxy verbatim.
//!
//! When no backend is routable the gateway still attempts the top
//! rendezvous choice ("last resort"): live traffic then doubles as a
//! probe, so a fleet that was marked Down but has recovered starts
//! serving again without waiting for the probe tick. If even that
//! fails the client gets `no_backend_available`.

use crate::health::{BackendState, HealthCell};
use crate::metrics::GatewayMetrics;
use crate::routing::{backend_seed, rendezvous_order};
use mosaic_service::frontend::{self, Connections, Handler, Listener, Reply, ReplyTo};
use mosaic_service::protocol::{
    encode_line, kinds, ops, parse_frame, read_frame, Request, Response,
};
use mosaic_service::{JobQueue, ServiceConfig};
use mosaic_telemetry::lock_unpoisoned;
use photomosaic::Json;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Backend responses larger than this are treated as protocol errors —
/// same generous-but-bounded ceiling the client crate uses.
const MAX_BACKEND_RESPONSE_BYTES: usize = 256 * 1024 * 1024;

/// Gateway tuning knobs. The hardening knobs treat `0` as "unlimited"
/// exactly like [`mosaic_service::ServiceConfig`].
#[derive(Clone, Debug)]
pub struct GatewayConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Backend addresses. Must be non-empty.
    pub backends: Vec<String>,
    /// Back-off hint sent with every typed refusal.
    pub retry_after_ms: u64,
    /// Per-request frame cap for client connections (0 = unlimited).
    pub max_frame_bytes: usize,
    /// Socket deadline for client connections in ms (0 = none).
    pub io_timeout_ms: u64,
    /// Connect + socket deadline per backend attempt in ms (0 = none).
    pub backend_timeout_ms: u64,
    /// Concurrent client-connection cap (0 = unlimited).
    pub max_connections: usize,
    /// Distinct backends tried per job before giving up (min 1).
    pub max_hops: usize,
    /// Health-probe period in ms (0 disables the probe thread).
    pub probe_interval_ms: u64,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            addr: "127.0.0.1:0".to_string(),
            backends: Vec::new(),
            retry_after_ms: 50,
            max_frame_bytes: 16 * 1024 * 1024,
            io_timeout_ms: 30_000,
            backend_timeout_ms: 10_000,
            max_connections: 64,
            max_hops: 2,
            probe_interval_ms: 500,
        }
    }
}

/// One backend as the gateway sees it.
struct Backend {
    addr: String,
    health: Mutex<HealthCell>,
    /// Jobs this backend answered (success responses only).
    routed: AtomicU64,
}

/// A job frame waiting for a forwarder.
struct Forward {
    frame: Vec<u8>,
    message: Json,
    reply: ReplyTo,
}

struct Shared {
    config: GatewayConfig,
    backends: Vec<Backend>,
    /// Rendezvous identity seeds, index-parallel with `backends`.
    seeds: Vec<u64>,
    metrics: GatewayMetrics,
    connections: Connections,
    /// Job frames for the forwarder threads; closed on shutdown, so the
    /// forwarders drain it and exit.
    forwards: JobQueue<Forward>,
}

impl Shared {
    /// Bind the client listener and set up routing state.
    fn bind(config: GatewayConfig) -> std::io::Result<(Shared, Listener)> {
        if config.backends.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a gateway needs at least one backend",
            ));
        }
        let metrics = GatewayMetrics::new();
        // The client listener enforces the backend's connection knobs,
        // set from this config; the worker knobs are unused.
        let front_end = ServiceConfig {
            addr: config.addr.clone(),
            retry_after_ms: config.retry_after_ms,
            max_frame_bytes: config.max_frame_bytes,
            io_timeout_ms: config.io_timeout_ms,
            max_connections: config.max_connections,
            ..ServiceConfig::default()
        };
        let (connections, listener) = Connections::bind(&front_end, metrics.connections().clone())?;
        let backends = config
            .backends
            .iter()
            .map(|addr| Backend {
                addr: addr.clone(),
                health: Mutex::new(HealthCell::default()),
                routed: AtomicU64::new(0),
            })
            .collect();
        let shared = Shared {
            seeds: config.backends.iter().map(|a| backend_seed(a)).collect(),
            backends,
            config,
            metrics,
            connections,
            // Unbounded in itself: each connection has at most one job
            // in flight, so the connection cap bounds it.
            forwards: JobQueue::new(usize::MAX),
        };
        Ok((shared, listener))
    }

    fn backend_timeout(&self) -> Option<Duration> {
        match self.config.backend_timeout_ms {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        }
    }

    /// What the `stats` and `metrics` ops sample: routable (Healthy or
    /// Suspect) backends, all backends, and open client connections.
    fn occupancy(&self) -> (usize, usize, usize) {
        let health = |b: &Backend| lock_unpoisoned(&b.health).is_routable();
        let routable = self.backends.iter().filter(|b| health(b)).count();
        (routable, self.backends.len(), self.connections.open())
    }

    /// The `gateway` op payload: routing table plus per-backend health.
    fn info_json(&self) -> Json {
        let backends: Vec<Json> = self
            .backends
            .iter()
            .map(|backend| {
                let health = lock_unpoisoned(&backend.health);
                Json::obj([
                    ("addr", Json::from(backend.addr.as_str())),
                    ("state", Json::from(health.state().name())),
                    (
                        "consecutive_failures",
                        Json::from(u64::from(health.consecutive_failures())),
                    ),
                    ("routed", Json::from(backend.routed.load(Ordering::Relaxed))),
                ])
            })
            .collect();
        let addr = self.connections.local_addr().to_string();
        Json::obj([
            ("addr", Json::from(addr.as_str())),
            ("max_hops", Json::from(self.config.max_hops.max(1))),
            ("backends", Json::Arr(backends)),
        ])
    }

    /// The reply line for one request frame: inline ops answered here,
    /// jobs routed to a backend (forwarder threads only). Routing needs
    /// only the key and the client's bytes, so the parse and the decoded
    /// job — megabytes on an upload — are freed before the round trip.
    fn reply(&self, message: Json, frame: Vec<u8>) -> Vec<u8> {
        let request = Request::from_json(&message);
        drop(message);
        match self.answer(request) {
            Ok(response) => response.to_line(),
            Err(key) => route_submit(self, frame, key),
        }
    }

    /// Answer an inline op, or consume a job and return its routing key.
    fn answer(&self, request: Result<Request, String>) -> Result<Response, u64> {
        Ok(match request {
            Err(problem) => Response::Error { message: problem },
            Ok(Request::Ping) => Response::Pong,
            Ok(Request::Stats) => Response::Stats {
                stats: self.metrics.snapshot(self.occupancy()),
            },
            Ok(Request::Metrics) => Response::Metrics {
                text: self.metrics.prometheus(self.occupancy()),
            },
            Ok(Request::GatewayInfo) => Response::Gateway {
                gateway: self.info_json(),
            },
            Ok(Request::Shutdown) => {
                self.begin_shutdown();
                Response::ShuttingDown
            }
            Ok(Request::Submit(spec)) => return Err(spec.cache_key()),
            Ok(Request::Library(spec)) => return Err(spec.cache_key()),
        })
    }

    /// Queue a job frame for the forwarders, starting one when no parked
    /// forwarder is left for it.
    fn queue_forward(self: &Arc<Self>, forward: Forward) -> Option<Vec<u8>> {
        match self.forwards.try_push(forward) {
            Ok(false) => {}
            Ok(true) => {
                let shared = Arc::clone(self);
                let spawned = std::thread::Builder::new()
                    .name("gateway-forward".to_string())
                    .spawn(move || {
                        // A forwarder counts as parked from the moment
                        // its job is answered, so the client's next job
                        // never starts a second forwarder.
                        let mut answered: Option<(ReplyTo, Vec<u8>)> = None;
                        while let Some(job) = shared.forwards.pop_after(|| {
                            if let Some((reply, line)) = answered.take() {
                                reply.send(Reply::Line(line));
                            }
                        }) {
                            answered = Some((job.reply, shared.reply(job.message, job.frame)));
                        }
                    });
                if spawned.is_err() {
                    // Out of threads: refuse one queued job with the
                    // standard backpressure shape rather than leave it
                    // waiting for a forwarder that may never come.
                    if let Some(job) = self.forwards.try_pop() {
                        let retry_after_ms = self.config.retry_after_ms;
                        job.reply
                            .send(Reply::Line(Response::Rejected { retry_after_ms }.to_line()));
                    }
                }
            }
            Err(_) => {
                return Some(
                    Response::Error {
                        message: "gateway is shutting down".to_string(),
                    }
                    .to_line(),
                )
            }
        }
        None
    }
}

impl Handler for Shared {
    fn connections(&self) -> &Connections {
        &self.connections
    }

    fn handle(self: &Arc<Self>, frame: Vec<u8>, message: Json, reply: ReplyTo) -> Option<Vec<u8>> {
        // Jobs are decoded, keyed and forwarded off the front-end's
        // thread: on a 1 MB upload that is a hex decode and a hash pass
        // before a backend round trip.
        match message.get("op").and_then(Json::as_str) {
            Some(ops::SUBMIT | ops::LIBRARY) => self.queue_forward(Forward {
                frame,
                message,
                reply,
            }),
            _ => Some(self.reply(message, frame)),
        }
    }

    fn begin_shutdown(&self) {
        if self.connections.begin_shutdown() {
            self.forwards.close();
        }
    }
}

/// A running gateway. Dropping the handle does *not* stop it; call
/// [`shutdown`](Gateway::shutdown) (or send the `shutdown` request)
/// and then [`join`](Gateway::join).
pub struct Gateway {
    shared: Arc<Shared>,
    io_handle: Option<JoinHandle<()>>,
    probe_handle: Option<JoinHandle<()>>,
}

impl Gateway {
    /// Bind and start the connection front-end and (if enabled) the
    /// probe loop.
    ///
    /// # Errors
    /// Socket bind failures, or an empty backend list.
    pub fn start(config: GatewayConfig) -> std::io::Result<Gateway> {
        let (shared, listener) = Shared::bind(config)?;
        let shared = Arc::new(shared);
        let io_handle = frontend::spawn(listener, Arc::clone(&shared), "mosaic-gateway")?;

        let probe_handle = if shared.config.probe_interval_ms > 0 {
            let probe_shared = Arc::clone(&shared);
            match std::thread::Builder::new()
                .name("gateway-probe".to_string())
                .spawn(move || probe_loop(&probe_shared))
            {
                Ok(handle) => Some(handle),
                Err(e) => {
                    shared.begin_shutdown();
                    let _ = io_handle.join();
                    return Err(e);
                }
            }
        } else {
            None
        };

        Ok(Gateway {
            shared,
            io_handle: Some(io_handle),
            probe_handle,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.connections.local_addr()
    }

    /// Trigger graceful shutdown. Idempotent; also triggered by the
    /// `shutdown` wire request.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Wait for the front-end and probe loop to exit. Implies
    /// [`shutdown`](Gateway::shutdown) has been (or will be) triggered.
    pub fn join(mut self) {
        if let Some(handle) = self.io_handle.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.probe_handle.take() {
            let _ = handle.join();
        }
    }
}

/// What one forwarding attempt produced. Replies are the backend's
/// frame bytes plus `\n`.
enum Attempt {
    /// A definitive response to proxy verbatim.
    Proxy(Vec<u8>),
    /// The backend is alive but saturated (`rejected`).
    Saturated,
    /// The backend answered `error`; maybe local, retry elsewhere.
    Errored(Vec<u8>),
    /// Connect or mid-connection I/O death.
    Dead,
}

/// Route one job request — generation or library, as the client's frame
/// bytes — by its routing key: walk the candidate list, forward,
/// classify, and return the reply line. For generation jobs the
/// key is the spec's cache key (backend `MatrixCache` affinity); for
/// library jobs it is the spec's routing key, a hash of target, store
/// and params, so jobs on one store spread across backends. Backends
/// never cache library results; each keeps its own warm entry of every
/// store generation it has served.
fn route_submit(shared: &Shared, mut request: Vec<u8>, key: u64) -> Vec<u8> {
    let started = Instant::now();
    request.push(b'\n');
    let order = rendezvous_order(&shared.seeds, key);
    let routable: Vec<usize> = order
        .iter()
        .copied()
        .filter(|&i| lock_unpoisoned(&shared.backends[i].health).is_routable())
        .collect();
    // Last resort: with nothing routable, try the top choice anyway so
    // traffic doubles as a recovery probe.
    let last_resort = routable.is_empty();
    let candidates = if last_resort {
        order.first().copied().into_iter().collect()
    } else {
        routable
    };

    let mut saturated = false;
    let mut last_error: Option<Vec<u8>> = None;
    let mut last_dead: Option<&str> = None;
    for (hop, &index) in candidates
        .iter()
        .take(shared.config.max_hops.max(1))
        .enumerate()
    {
        if hop > 0 {
            shared.metrics.failover();
        }
        let backend = &shared.backends[index];
        match forward(shared, backend, &request) {
            Attempt::Proxy(reply) => {
                lock_unpoisoned(&backend.health).on_success();
                backend.routed.fetch_add(1, Ordering::Relaxed);
                shared.metrics.job_routed(started.elapsed());
                return reply;
            }
            Attempt::Saturated => {
                lock_unpoisoned(&backend.health).on_success();
                saturated = true;
            }
            Attempt::Errored(reply) => {
                lock_unpoisoned(&backend.health).on_success();
                last_error = Some(reply);
            }
            Attempt::Dead => {
                lock_unpoisoned(&backend.health).on_failure();
                last_dead = Some(backend.addr.as_str());
            }
        }
    }

    shared.metrics.job_refused();
    let retry_after_ms = shared.config.retry_after_ms;
    let refusal = if saturated {
        // At least one backend is alive and will free up: the standard
        // backpressure shape keeps existing client back-off working.
        Response::Rejected { retry_after_ms }
    } else if let Some(reply) = last_error {
        return reply;
    } else if last_resort {
        Response::NoBackendAvailable { retry_after_ms }
    } else if let Some(backend) = last_dead {
        Response::BackendDown {
            backend: backend.to_string(),
            retry_after_ms,
        }
    } else {
        // Unreachable in practice (candidates is never empty), but the
        // typed shape beats a panic if it ever is.
        Response::NoBackendAvailable { retry_after_ms }
    };
    refusal.to_line()
}

/// Forward one request line to one backend over a fresh connection and
/// classify the outcome. The reply is parsed only to read its `kind`;
/// its bytes are what the client gets, so a proxied result is
/// byte-identical to a direct submission.
fn forward(shared: &Shared, backend: &Backend, request: &[u8]) -> Attempt {
    match exchange(&backend.addr, request, shared.backend_timeout()) {
        Ok((mut reply, message)) => {
            reply.push(b'\n');
            match message.get("kind").and_then(Json::as_str) {
                Some(kinds::REJECTED) => Attempt::Saturated,
                Some(kinds::ERROR) => Attempt::Errored(reply),
                _ => Attempt::Proxy(reply),
            }
        }
        Err(_) => Attempt::Dead,
    }
}

/// One request line to `addr` over a fresh connection, every step under
/// `timeout`: the reply frame and its parse. A reply that does not
/// parse counts as a dead backend, like a cut connection.
fn exchange(
    addr: &str,
    request: &[u8],
    timeout: Option<Duration>,
) -> std::io::Result<(Vec<u8>, Json)> {
    let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "address resolved to nothing",
        )
    })?;
    let stream = match timeout {
        Some(timeout) => TcpStream::connect_timeout(&addr, timeout)?,
        None => TcpStream::connect(addr)?,
    };
    stream.set_read_timeout(timeout)?;
    stream.set_write_timeout(timeout)?;
    (&stream).write_all(request)?;
    let reply =
        read_frame(&mut BufReader::new(stream), MAX_BACKEND_RESPONSE_BYTES)?.ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "backend closed mid-job")
        })?;
    let message = parse_frame(&reply)?;
    Ok((reply, message))
}

/// One stats round-trip against a backend; `true` on any valid reply.
/// Probes always run under a deadline, so a hung backend cannot stall
/// the sweep.
fn probe_backend(shared: &Shared, backend: &Backend) -> bool {
    let timeout = shared.backend_timeout().unwrap_or(Duration::from_secs(10));
    let request = encode_line(&Request::Stats.to_json());
    exchange(&backend.addr, &request, Some(timeout)).is_ok()
}

/// Periodic health probes. Every backend is probed by its own scoped
/// thread for the gateway's whole life (this one takes the first
/// backend), so a hung backend (probe stuck until its timeout) delays
/// no other backend's probe, and no thread is started per sweep.
/// Probes block on sockets, so they stay off the compute pool, whose
/// gangs run at most `threads() + 1` lanes at once.
fn probe_loop(shared: &Shared) {
    // `Shared::bind` refuses an empty backend list.
    let Some((first, rest)) = shared.backends.split_first() else {
        return;
    };
    std::thread::scope(|scope| {
        let mut here = vec![first];
        for backend in rest {
            let spawned = std::thread::Builder::new()
                .name("gateway-probe".to_string())
                .spawn_scoped(scope, move || probe_every(shared, &[backend]));
            if spawned.is_err() {
                // Out of threads: probe this backend here instead.
                here.push(backend);
            }
        }
        probe_every(shared, &here);
    });
}

/// Probe `backends` one after another every `probe_interval_ms` until
/// shutdown.
fn probe_every(shared: &Shared, backends: &[&Backend]) {
    let interval = Duration::from_millis(shared.config.probe_interval_ms);
    // Sleep in short slices so shutdown is observed promptly even with
    // long probe intervals.
    let slice = Duration::from_millis(20).min(interval);
    let mut elapsed = Duration::ZERO;
    loop {
        if shared.connections.is_shutting_down() {
            return;
        }
        std::thread::sleep(slice);
        elapsed += slice;
        if elapsed < interval {
            continue;
        }
        elapsed = Duration::ZERO;

        for backend in backends {
            // Mark a Down backend as Probing first so the router keeps
            // skipping it while the probe is in flight.
            lock_unpoisoned(&backend.health).begin_probe();
            let ok = probe_backend(shared, backend);
            if !ok {
                shared.metrics.probe_failed();
            }
            let mut health = lock_unpoisoned(&backend.health);
            match health.state() {
                BackendState::Probing => health.on_probe_result(ok),
                // Routable backends get the ordinary traffic rules: a
                // probe is just a tiny request.
                _ if ok => health.on_success(),
                _ => health.on_failure(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gateway_refuses_an_empty_backend_list() {
        match Gateway::start(GatewayConfig::default()) {
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput),
            Ok(_) => panic!("an empty backend list must not start"),
        }
    }
}
