//! The batch mosaic server.
//!
//! The server is a [`Handler`] for the shared connection front-end
//! ([`crate::frontend`]): inline ops are answered on the front-end's
//! thread, and jobs go through the bounded queue to a fixed worker pool
//! that replies through the job's [`ReplyTo`].
//!
//! ```text
//! front-end (epoll loop, or threaded oracle) ──owns──▶ every client socket
//!        │  try_push(Job)                ▲ Reply via ReplyTo
//!        ▼                               │
//!  bounded JobQueue ──pop──▶ worker pool (fixed size)
//!                                  │
//!                            MatrixCache (LRU)
//! ```
//!
//! Invariants:
//!
//! * the front-end never blocks on a full queue — it answers `rejected`
//!   with a retry-after so backpressure reaches the client immediately;
//! * every job accepted into the queue gets exactly one reply: the
//!   queue is closed (not dropped) on shutdown, so workers drain it;
//! * the cache key covers everything the Step-2 matrix depends on
//!   ([`JobSpec::cache_key`]), so a hit may skip Step 2 entirely and the
//!   result is bit-identical to an uncached run (backends are
//!   bit-identical by construction, so a matrix computed under one
//!   backend is valid for every other).

use crate::cache::MatrixCache;
use crate::fault::FaultPlan;
use crate::frontend::{Connections, FrontEnd, Handler, Reply, ReplyTo};
use crate::metrics::ServiceMetrics;
use crate::protocol::{Request, Response};
use crate::queue::{JobQueue, PushError};
use mosaic_pool::ThreadPool;
use mosaic_tilelib::{execute_library, LibraryJobSpec, TilelibError};
use photomosaic::{generate_bounded_in, Deadline, GenerateError, JobResult, JobSpec, Json};
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Server tuning knobs. The hardening knobs (`max_frame_bytes`,
/// `io_timeout_ms`, `max_connections`, `job_deadline_ms`) all treat `0`
/// as "unlimited"; the defaults bound every per-connection and per-job
/// resource.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are rejected.
    pub queue_capacity: usize,
    /// Error-matrix LRU capacity (0 disables caching).
    pub cache_capacity: usize,
    /// Back-off hint sent with queue-full rejections.
    pub retry_after_ms: u64,
    /// Per-request frame cap in bytes; larger frames are answered with
    /// `frame_too_large` and the connection is dropped (0 = unlimited).
    pub max_frame_bytes: usize,
    /// Socket read/write deadline per connection in milliseconds; a
    /// client idle past it (slowloris) is disconnected (0 = no deadline).
    pub io_timeout_ms: u64,
    /// Concurrent-connection cap; excess connections are answered with
    /// `rejected` and dropped before a handler is spawned (0 = unlimited).
    pub max_connections: usize,
    /// Per-job wall-clock deadline in milliseconds, measured from worker
    /// pickup; an overrunning job is cancelled at the next sweep/row
    /// boundary and answered with `deadline_exceeded` (0 = no deadline).
    pub job_deadline_ms: u64,
    /// Fault-injection plan for tests; inert by default.
    pub faults: FaultPlan,
    /// The connection front-end. Leave it at the default, which the
    /// platform picks; it exists so the differential tests can run the
    /// [`FrontEnd::Threaded`] oracle beside the epoll loop.
    pub front_end: FrontEnd,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 16,
            cache_capacity: 8,
            retry_after_ms: 50,
            max_frame_bytes: 16 * 1024 * 1024,
            io_timeout_ms: 30_000,
            max_connections: 64,
            job_deadline_ms: 60_000,
            faults: FaultPlan::default(),
            front_end: FrontEnd::default(),
        }
    }
}

/// What an accepted job actually runs once a worker picks it up. Both
/// shapes share the same bounded queue, worker pool, and backpressure.
enum JobPayload {
    /// A Step-1/2/3 generation job.
    Generate(Box<JobSpec>),
    /// A tile-library job: pruned rectangular assignment against an
    /// on-disk tile store.
    Library(Box<LibraryJobSpec>),
}

/// One accepted job travelling from the front-end to a worker.
struct Job {
    payload: JobPayload,
    accepted_at: Instant,
    reply: ReplyTo,
}

struct Shared {
    queue: JobQueue<Job>,
    cache: MatrixCache,
    metrics: ServiceMetrics,
    config: ServiceConfig,
    connections: Connections,
    /// One persistent compute pool per server, sized by `workers`: every
    /// job's parallel stages (threaded Step 2, pooled Step-3 search, the
    /// GpuSim block lanes) dispatch here instead of spawning scoped
    /// threads per call.
    compute_pool: Arc<ThreadPool>,
}

impl Shared {
    fn stats_snapshot(&self) -> Json {
        self.metrics.snapshot(
            self.config.workers,
            self.queue.len(),
            self.queue.capacity(),
            self.connections.open(),
            self.cache.stats(),
            self.cache.capacity(),
        )
    }

    fn prometheus_text(&self) -> String {
        self.metrics.prometheus(
            self.config.workers,
            self.queue.len(),
            self.queue.capacity(),
            self.connections.open(),
            self.cache.stats(),
            self.cache.capacity(),
        )
    }

    /// Queue a job for the workers. `None` means it is in flight and
    /// `reply` will carry its answer; `Some` is the inline answer for a
    /// queue that is full or closed.
    fn enqueue(&self, payload: JobPayload, reply: ReplyTo) -> Option<Response> {
        let job = Job {
            payload,
            accepted_at: Instant::now(),
            reply,
        };
        match self.queue.try_push(job) {
            Ok(_) => {
                self.metrics.job_submitted();
                None
            }
            Err(PushError::Full(_)) => {
                self.metrics.job_rejected();
                Some(Response::Rejected {
                    retry_after_ms: self.config.retry_after_ms,
                })
            }
            Err(PushError::Closed(_)) => Some(Response::Error {
                message: "server is shutting down".to_string(),
            }),
        }
    }
}

impl Handler for Shared {
    fn connections(&self) -> &Connections {
        &self.connections
    }

    fn handle(self: &Arc<Self>, _frame: Vec<u8>, message: Json, reply: ReplyTo) -> Option<Vec<u8>> {
        let response = match Request::from_json(&message) {
            // An unknown op is a per-request error; the connection
            // stays usable.
            Err(problem) => Response::Error { message: problem },
            Ok(Request::Ping) => Response::Pong,
            Ok(Request::Stats) => Response::Stats {
                stats: self.stats_snapshot(),
            },
            Ok(Request::Metrics) => Response::Metrics {
                text: self.prometheus_text(),
            },
            Ok(Request::Shutdown) => {
                self.begin_shutdown();
                Response::ShuttingDown
            }
            Ok(Request::GatewayInfo) => Response::Error {
                message: "this server is a backend, not a gateway".to_string(),
            },
            Ok(Request::Submit(spec)) => self.enqueue(JobPayload::Generate(spec), reply)?,
            Ok(Request::Library(spec)) => self.enqueue(JobPayload::Library(spec), reply)?,
        };
        Some(response.to_line())
    }

    fn begin_shutdown(&self) {
        if self.connections.begin_shutdown() {
            // Stop intake; workers drain what was already accepted.
            self.queue.close();
        }
    }
}

/// A running server. Dropping the handle does *not* stop it; call
/// [`shutdown`](Server::shutdown) (or send the `shutdown` request) and
/// then [`join`](Server::join).
pub struct Server {
    shared: Arc<Shared>,
    io_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind and start the connection front-end and worker pool.
    ///
    /// # Errors
    /// Propagates socket bind, front-end setup and thread spawn
    /// failures.
    pub fn start(config: ServiceConfig) -> std::io::Result<Server> {
        // Resolve SIMD kernel dispatch before any worker is spawned so
        // request threads never pay the feature probe and the
        // `kernel_dispatch` gauge is live from the first scrape.
        mosaic_grid::init_simd_kernels();
        let metrics = ServiceMetrics::new();
        let (connections, listener) = Connections::bind(&config, metrics.connections.clone())?;
        let shared = Arc::new(Shared {
            queue: JobQueue::new(config.queue_capacity),
            cache: MatrixCache::new(config.cache_capacity),
            metrics,
            connections,
            compute_pool: Arc::new(ThreadPool::new(config.workers.max(1))),
            config,
        });

        // A failed spawn (thread exhaustion) must not leave earlier
        // workers parked on the queue forever: close it and join them
        // before surfacing the error.
        let abort = |handles: Vec<JoinHandle<()>>, error: std::io::Error| {
            shared.queue.close();
            for handle in handles {
                let _ = handle.join();
            }
            Err(error)
        };

        let workers = shared.config.workers.max(1);
        let mut worker_handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let worker_shared = Arc::clone(&shared);
            match std::thread::Builder::new()
                .name(format!("mosaic-worker-{i}"))
                .spawn(move || worker_loop(&worker_shared))
            {
                Ok(handle) => worker_handles.push(handle),
                Err(e) => return abort(worker_handles, e),
            }
        }

        let io_handle = match crate::frontend::spawn(listener, Arc::clone(&shared), "mosaic") {
            Ok(handle) => handle,
            Err(e) => return abort(worker_handles, e),
        };

        Ok(Server {
            shared,
            io_handle: Some(io_handle),
            worker_handles,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.connections.local_addr()
    }

    /// Trigger graceful shutdown: stop accepting, drain the queue.
    /// Idempotent; also triggered by the `shutdown` wire request.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Wait for the front-end and all workers to exit. Implies
    /// [`shutdown`](Server::shutdown) has been (or will be) triggered —
    /// joining a server nobody shuts down blocks forever.
    pub fn join(mut self) {
        if let Some(handle) = self.io_handle.take() {
            let _ = handle.join();
        }
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
        // All job workers have exited, so no compute can be in flight;
        // release the pool's threads instead of waiting for the last
        // `Shared` reference (a lingering handler) to drop.
        self.shared.compute_pool.shutdown();
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        let _job_span = mosaic_telemetry::tracer().span("service_job");
        let queue_wait = job.accepted_at.elapsed();
        shared.metrics.job_started(queue_wait);
        if shared.config.faults.take_crash() {
            // Injected mid-job crash: this job's connection is severed
            // without a response and the server goes dark — the listener
            // closes, so later connects (gateway retries, health probes)
            // are refused. Jobs already queued still drain below.
            shared.metrics.job_failed();
            shared.begin_shutdown();
            job.reply.send(Reply::Sever);
            continue;
        }
        let queue_wait_ms = queue_wait.as_secs_f64() * 1000.0;
        // The deadline clock starts when the worker picks the job up, so
        // an injected stall consumes deadline budget like real wedging.
        let deadline = Deadline::after_millis(shared.config.job_deadline_ms);
        if let Some(stall) = shared.config.faults.take_stall() {
            std::thread::sleep(stall);
        }
        // A panic anywhere in the job (a helper lane's panic is re-raised
        // here by its gang) fails this job, not the worker: it is answered
        // and counted like any failed job, and the loop serves on.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if shared.config.faults.take_panic() {
                // lint:allow(panic) an injected fault, caught just below
                panic!("injected job panic");
            }
            match &job.payload {
                JobPayload::Generate(spec) => execute(spec, shared, queue_wait_ms, &deadline)
                    .unwrap_or_else(|failure| failure),
                JobPayload::Library(spec) => {
                    execute_library_job(spec, shared, queue_wait_ms, &deadline)
                }
            }
        }));
        let response = outcome.unwrap_or_else(|_| {
            shared.metrics.job_failed();
            Response::Error {
                message: "the job panicked; the server logged its panic message".to_string(),
            }
        });
        // A front-end that gave up on this job (client gone) is not an
        // error; `ReplyTo::send` drops the reply in that case.
        job.reply.send(Reply::Response(response));
    }
}

/// Run a library job on the shared compute pool under the job's
/// deadline and render the outcome for the wire. Library results are
/// deliberately never cached: the store path stays constant while its
/// contents can change between ingests, so a key-based cache would
/// serve stale mosaics.
fn execute_library_job(
    spec: &LibraryJobSpec,
    shared: &Arc<Shared>,
    queue_wait_ms: f64,
    deadline: &Deadline,
) -> Response {
    match execute_library(spec, &shared.compute_pool, deadline) {
        Ok(mut result) => {
            shared.metrics.library_job_completed();
            if let Json::Obj(pairs) = &mut result.report {
                pairs.push(("queue_wait_ms".to_string(), Json::from(queue_wait_ms)));
                pairs.push(("cache_hit".to_string(), Json::Bool(false)));
            }
            Response::Result {
                result: result.to_json(),
            }
        }
        Err(TilelibError::DeadlineExceeded) => {
            shared.metrics.job_deadline_exceeded();
            Response::DeadlineExceeded {
                deadline_ms: shared.config.job_deadline_ms,
            }
        }
        Err(TilelibError::Infeasible { cells, tiles }) => {
            shared.metrics.job_failed();
            Response::LibraryInfeasible {
                cells: cells as u64,
                tiles: tiles as u64,
            }
        }
        Err(error) if error.is_store() => {
            shared.metrics.job_failed();
            Response::StoreError {
                message: error.to_string(),
            }
        }
        Err(error) => {
            shared.metrics.job_failed();
            Response::Error {
                message: error.to_string(),
            }
        }
    }
}

/// Run a generation job. A job that produced no result is answered with
/// its typed failure (`Err`), already counted on its metric.
fn execute(
    spec: &JobSpec,
    shared: &Arc<Shared>,
    queue_wait_ms: f64,
    deadline: &Deadline,
) -> Result<Response, Response> {
    let failed = |message: String| {
        shared.metrics.job_failed();
        Response::Error { message }
    };
    let (input, target) = spec.resolve().map_err(failed)?;
    let key = spec.cache_key();
    // Single-flight lookup: if an identical job is computing its matrix
    // on another worker right now, this blocks until that matrix lands
    // and then hits, instead of duplicating the Step-2 work.
    let (cached, guard) = match shared.cache.begin(key) {
        crate::cache::Lookup::Hit(matrix) => (Some(matrix), None),
        crate::cache::Lookup::Miss(guard) => (None, Some(guard)),
    };
    // On failure or deadline expiry no matrix is cached: a partial build
    // must not poison future hits (the guard's drop releases the key for
    // whoever retries).
    let (result, built) = generate_bounded_in(
        &shared.compute_pool,
        &input,
        &target,
        &spec.config,
        cached.as_deref(),
        deadline,
    )
    .map_err(|error| match error {
        GenerateError::DeadlineExceeded(_) => {
            shared.metrics.job_deadline_exceeded();
            Response::DeadlineExceeded {
                deadline_ms: shared.config.job_deadline_ms,
            }
        }
        other => failed(format!("generation failed: {other:?}")),
    })?;
    if let (Some(guard), Some(matrix)) = (guard, built) {
        guard.fulfil(Arc::new(matrix));
    }
    let cache_hit = cached.is_some();
    shared.metrics.cache_lookup(cache_hit);
    shared.metrics.job_completed(&result.report);

    // Fold the per-job service metrics into the report object.
    let mut job_result = JobResult::from(result);
    if let Json::Obj(pairs) = &mut job_result.report {
        pairs.push(("queue_wait_ms".to_string(), Json::from(queue_wait_ms)));
        pairs.push(("cache_hit".to_string(), Json::Bool(cache_hit)));
    }
    Ok(Response::Result {
        result: job_result.to_json(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use mosaic_image::synth::Scene;
    use photomosaic::{Backend, ImageSource, MosaicBuilder};

    fn small_spec(seed: u64) -> JobSpec {
        JobSpec {
            input: ImageSource::Synth {
                scene: Scene::Portrait,
                size: 16,
                seed,
            },
            target: ImageSource::Synth {
                scene: Scene::Checker,
                size: 16,
                seed: seed + 1,
            },
            config: MosaicBuilder::new()
                .grid(4)
                .backend(Backend::Serial)
                .build(),
        }
    }

    #[test]
    fn ping_stats_submit_shutdown_lifecycle() {
        let server = Server::start(ServiceConfig::default()).unwrap();
        let addr = server.local_addr();
        let mut client = Client::connect(addr).unwrap();
        assert_eq!(client.ping().unwrap(), Response::Pong);

        let response = client.submit(&small_spec(1)).unwrap();
        let Response::Result { result } = response else {
            panic!("expected a result, got {response:?}");
        };
        let report = result.get("report").unwrap();
        assert_eq!(report.get("cache_hit").unwrap().as_bool(), Some(false));
        assert!(report.get("queue_wait_ms").unwrap().as_f64().unwrap() >= 0.0);

        // Same job again: the matrix cache serves Step 2.
        let Response::Result { result } = client.submit(&small_spec(1)).unwrap() else {
            panic!("expected a result");
        };
        assert_eq!(
            result
                .get("report")
                .unwrap()
                .get("cache_hit")
                .unwrap()
                .as_bool(),
            Some(true)
        );

        let Response::Stats { stats } = client.stats().unwrap() else {
            panic!("expected stats");
        };
        let jobs = stats.get("jobs").unwrap();
        assert_eq!(jobs.get("completed").unwrap().as_u64(), Some(2));
        let cache = stats.get("cache").unwrap();
        assert_eq!(cache.get("hits").unwrap().as_u64(), Some(1));

        assert_eq!(client.shutdown().unwrap(), Response::ShuttingDown);
        server.join();
    }

    #[test]
    fn shutdown_via_handle_unblocks_join() {
        let server = Server::start(ServiceConfig::default()).unwrap();
        server.shutdown();
        server.join();
    }

    #[test]
    fn submissions_after_shutdown_are_errors() {
        let server = Server::start(ServiceConfig::default()).unwrap();
        let addr = server.local_addr();
        let mut client = Client::connect(addr).unwrap();
        client.shutdown().unwrap();
        match client.submit(&small_spec(5)) {
            Ok(Response::Error { message }) => assert!(message.contains("shutting down")),
            other => panic!("expected shutdown error, got {other:?}"),
        }
        server.join();
    }

    #[test]
    fn crash_fault_severs_the_connection_and_takes_the_server_dark() {
        let faults = FaultPlan::crash_first_jobs(1);
        let server = Server::start(ServiceConfig {
            faults: faults.clone(),
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();
        let mut client = Client::connect(addr).unwrap();
        // The crashed job gets no response: the client sees EOF.
        match client.submit(&small_spec(7)) {
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{e:?}"),
            Ok(other) => panic!("expected a severed connection, got {other:?}"),
        }
        assert_eq!(faults.crashes_remaining(), 0);
        server.join();
        // The listener is closed: the process is dark from the network.
        assert!(Client::connect(addr).is_err(), "connects must be refused");
    }

    #[test]
    fn gateway_op_on_a_plain_server_is_a_typed_error() {
        let server = Server::start(ServiceConfig::default()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        match client.request(&Request::GatewayInfo) {
            Ok(Response::Error { message }) => assert!(message.contains("not a gateway")),
            other => panic!("expected an error, got {other:?}"),
        }
        client.shutdown().unwrap();
        server.join();
    }

    #[test]
    fn library_jobs_run_and_surface_typed_errors() {
        use mosaic_tilelib::{LibraryParams, TileStore};

        // A store of 20 distinct flat tiles (levels are unique, so the
        // content digests are too).
        let root = std::env::temp_dir()
            .join("mosaic_service_tests")
            .join(format!("library_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = TileStore::create(&root, 8).unwrap();
        for level in 0..20u8 {
            let tile =
                mosaic_image::GrayImage::from_fn(8, 8, |_, _| mosaic_image::Gray(level * 12))
                    .unwrap();
            store.insert(&tile).unwrap();
        }

        let server = Server::start(ServiceConfig::default()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let spec = LibraryJobSpec {
            target: ImageSource::Synth {
                scene: Scene::Portrait,
                size: 32,
                seed: 2,
            },
            store: root.display().to_string(),
            params: LibraryParams {
                grid: 3,
                clusters: 4,
                top_clusters: 4,
                feature_grid: 2,
                seed: 1,
                metric: mosaic_grid::TileMetric::Sad,
            },
        };
        match client.submit_library(&spec).unwrap() {
            Response::Result { result } => {
                let assignment = result.get("assignment").unwrap();
                assert_eq!(assignment.as_arr().map(<[Json]>::len), Some(9));
                let report = result.get("report").unwrap();
                assert_eq!(report.get("cache_hit").unwrap().as_bool(), Some(false));
                assert!(report.get("queue_wait_ms").unwrap().as_f64().unwrap() >= 0.0);
            }
            other => panic!("expected a result, got {other:?}"),
        }

        // Too few tiles for the grid: typed infeasibility, worker alive.
        let mut too_big = spec.clone();
        too_big.params.grid = 16;
        match client.submit_library(&too_big).unwrap() {
            Response::LibraryInfeasible { cells, tiles } => {
                assert_eq!((cells, tiles), (256, 20));
            }
            other => panic!("expected library_infeasible, got {other:?}"),
        }

        // Missing store: typed store error, worker alive.
        let mut missing = spec.clone();
        missing.store = "/nonexistent/mosaic/store".to_string();
        match client.submit_library(&missing).unwrap() {
            Response::StoreError { message } => assert!(!message.is_empty()),
            other => panic!("expected store_error, got {other:?}"),
        }

        // The worker still serves generation jobs afterwards.
        assert!(matches!(
            client.submit(&small_spec(9)),
            Ok(Response::Result { .. })
        ));
        client.shutdown().unwrap();
        server.join();
    }

    #[test]
    fn invalid_jobs_fail_without_killing_the_worker() {
        let server = Server::start(ServiceConfig::default()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let mut bad = small_spec(2);
        bad.input = ImageSource::Pixels {
            size: 5,
            pixels: vec![0; 3],
        };
        match client.submit(&bad) {
            Ok(Response::Error { .. }) => {}
            other => panic!("expected an error response, got {other:?}"),
        }
        // The worker is still alive and serves the next job.
        assert!(matches!(
            client.submit(&small_spec(3)),
            Ok(Response::Result { .. })
        ));
        client.shutdown().unwrap();
        server.join();
    }
}
