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
//!              single-flight LRU caches: error matrices,
//!              tile-store snapshots, k-means clusterings
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
//!   backend is valid for every other);
//! * a library job reuses a store's verified tiles only under the
//!   store's current generation (`StoreKey`), and a clustering only for
//!   that store entry and the same feature grid, cluster count and seed
//!   (`ClusteringKey`), so warm replies are byte-identical to cold ones.

use crate::cache::{Cache, MatrixCache};
use crate::fault::FaultPlan;
use crate::frontend::{Connections, FrontEnd, Handler, Reply, ReplyTo};
use crate::metrics::ServiceMetrics;
use crate::protocol::{Request, Response};
use crate::queue::{JobQueue, PushError};
use mosaic_pool::ThreadPool;
use mosaic_tilelib::{
    execute_library, Clustering, LibraryJobSpec, StoreSnapshot, TileStore, TilelibError,
};
use photomosaic::{generate_bounded_in, Deadline, GenerateError, JobResult, JobSpec, Json};
use std::convert::Infallible;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
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
    /// Capacity of each server cache — error matrices, tile-store
    /// snapshots and clusterings — in entries (0 disables all three).
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

/// Identity of one tile store's contents: a store is only ever read
/// through the generation it had when the job opened it.
#[derive(Clone, Debug, PartialEq, Eq)]
struct StoreKey {
    /// Canonical root, so two spellings of one path share an entry.
    root: PathBuf,
    generation: u64,
    tile: usize,
}

/// Everything a k-means clustering of a store depends on.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ClusteringKey {
    store: StoreKey,
    feature_grid: usize,
    clusters: usize,
    seed: u64,
}

struct Shared {
    queue: JobQueue<Job>,
    cache: MatrixCache,
    /// Verified tile-store contents, each hash-checked once on load. An
    /// older generation is never looked up again and ages out.
    stores: Cache<StoreKey, StoreSnapshot>,
    /// K-means clusterings of those contents.
    clusterings: Cache<ClusteringKey, Clustering>,
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
            stores: Cache::new(config.cache_capacity),
            clusterings: Cache::new(config.cache_capacity),
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
/// never cached — each job has its own target — but the store's
/// verified tiles and their clusterings are kept per store generation,
/// so a warm job pays only for its target.
fn execute_library_job(
    spec: &LibraryJobSpec,
    shared: &Arc<Shared>,
    queue_wait_ms: f64,
    deadline: &Deadline,
) -> Response {
    match run_library(spec, shared, deadline) {
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

/// Open the job's store, take its snapshot and clustering from the
/// caches (loading or computing them on a miss), and run the job.
fn run_library(
    spec: &LibraryJobSpec,
    shared: &Shared,
    deadline: &Deadline,
) -> Result<JobResult, TilelibError> {
    deadline.check()?;
    // Opening reads the generation, which must come before the snapshot
    // lists the objects (see `mosaic_tilelib::store`).
    let store = TileStore::open(&spec.store)?;
    let root = std::fs::canonicalize(store.root())
        .map_err(|e| TilelibError::Store(format!("resolve {}: {e}", store.root().display())))?;
    let key = StoreKey {
        root,
        generation: store.generation(),
        tile: store.tile_size(),
    };
    let mut hit = true;
    let snapshot = shared.stores.get_or_try_insert_with(key.clone(), || {
        hit = false;
        store.snapshot()
    });
    shared.metrics.store_lookup(hit);
    let snapshot = snapshot?;
    let clustering_key = ClusteringKey {
        store: key,
        feature_grid: spec.params.feature_grid,
        clusters: spec.params.clusters,
        seed: spec.params.seed,
    };
    let clustering = |compute: &dyn Fn() -> Clustering| {
        let mut hit = true;
        let Ok(clustering) = shared
            .clusterings
            .get_or_try_insert_with(clustering_key, || {
                hit = false;
                Ok::<_, Infallible>(compute())
            });
        shared.metrics.clustering_lookup(hit);
        clustering
    };
    execute_library(spec, &snapshot, clustering, &shared.compute_pool, deadline)
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
    use mosaic_tilelib::TileStore;
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
        use mosaic_tilelib::LibraryParams;

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

    /// A fresh store of `tiles` distinct tiles under the test temp dir.
    fn library_store(name: &str, tiles: usize) -> (std::path::PathBuf, TileStore) {
        let root = std::env::temp_dir()
            .join("mosaic_service_tests")
            .join(format!("{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = TileStore::create(&root, 8).unwrap();
        let mut seed = 0;
        while store.len().unwrap() < tiles {
            store.insert(&Scene::Fur.render(8, seed)).unwrap();
            seed += 1;
        }
        (root, store)
    }

    fn library_spec(root: &std::path::Path, target_seed: u64) -> LibraryJobSpec {
        LibraryJobSpec {
            target: ImageSource::Synth {
                scene: Scene::Portrait,
                size: 32,
                seed: target_seed,
            },
            store: root.display().to_string(),
            params: mosaic_tilelib::LibraryParams {
                grid: 4,
                clusters: 4,
                ..mosaic_tilelib::LibraryParams::default()
            },
        }
    }

    #[test]
    fn warm_store_concurrent_cold_jobs_load_once_and_cluster_once() {
        let (root, _store) = library_store("warm_concurrent", 30);
        let server = Server::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();
        // Two targets, one store and one clustering. Whether the jobs
        // overlap (the second waits on the first's load) or not, exactly
        // one of them fills each cache and the other hits.
        std::thread::scope(|scope| {
            let jobs: Vec<_> = [1, 2]
                .map(|seed| {
                    let spec = library_spec(&root, seed);
                    scope.spawn(move || Client::connect(addr).unwrap().submit_library(&spec))
                })
                .into_iter()
                .collect();
            for job in jobs {
                assert!(matches!(job.join().unwrap(), Ok(Response::Result { .. })));
            }
        });
        let once = crate::cache::CacheStats {
            hits: 1,
            misses: 1,
            entries: 1,
        };
        assert_eq!(server.shared.stores.stats(), once);
        assert_eq!(server.shared.clusterings.stats(), once);
        server.shutdown();
        server.join();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn warm_store_deadline_still_cancels_a_warm_job() {
        let (root, _store) = library_store("warm_deadline", 20);
        let server = Server::start(ServiceConfig {
            workers: 1,
            job_deadline_ms: 100,
            faults: FaultPlan::stall_first_jobs(1, 300),
            ..ServiceConfig::default()
        })
        .unwrap();
        let spec = library_spec(&root, 1);
        // Warm both caches through the job path itself, off the wire, so
        // the stalled job below is the first one a worker picks up.
        let warmed = execute_library_job(&spec, &server.shared, 0.0, &Deadline::NONE);
        assert!(matches!(warmed, Response::Result { .. }), "{warmed:?}");
        let mut client = Client::connect(server.local_addr()).unwrap();
        assert_eq!(
            client.submit_library(&spec).unwrap(),
            Response::DeadlineExceeded { deadline_ms: 100 }
        );
        // The next warm job runs within the deadline, off the caches.
        assert!(matches!(
            client.submit_library(&spec).unwrap(),
            Response::Result { .. }
        ));
        let stores = server.shared.stores.stats();
        assert_eq!((stores.hits, stores.misses), (1, 1));
        client.shutdown().unwrap();
        server.join();
        let _ = std::fs::remove_dir_all(&root);
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
