//! The batch mosaic server.
//!
//! Thread structure depends on the configured [`FrontEnd`]:
//!
//! ```text
//! Threaded (oracle):
//! accept loop ──spawns──▶ connection handlers (one per client)
//!                              │  try_push(Job)           ▲ reply via mpsc
//!                              ▼                          │
//!                        bounded JobQueue ──pop──▶ worker pool (fixed size)
//!                                                      │
//!                                                MatrixCache (LRU)
//!
//! Epoll (default on linux/x86_64):
//! readiness loop ──owns──▶ listener + every client socket
//!        │  try_push(Job)                ▲ reply via CompletionBoard + eventfd
//!        ▼                               │
//!  bounded JobQueue ──pop──▶ worker pool (fixed size)
//! ```
//!
//! Invariants:
//!
//! * handlers never block on a full queue — they answer `rejected` with a
//!   retry-after so backpressure reaches the client immediately;
//! * every job accepted into the queue gets exactly one response: the
//!   queue is closed (not dropped) on shutdown, so workers drain it and
//!   each handler's `mpsc::Receiver` resolves;
//! * the cache key covers everything the Step-2 matrix depends on
//!   ([`JobSpec::cache_key`]), so a hit may skip Step 2 entirely and the
//!   result is bit-identical to an uncached run (backends are
//!   bit-identical by construction, so a matrix computed under one
//!   backend is valid for every other).

use crate::cache::MatrixCache;
use crate::fault::FaultPlan;
use crate::gate::{ConnectionGate, ConnectionPermit};
use crate::metrics::ServiceMetrics;
use crate::protocol::{read_message, write_message, ReadError, Request, Response};
use crate::queue::{JobQueue, PushError};
use mosaic_pool::ThreadPool;
use mosaic_tilelib::{execute_library, LibraryJobSpec, TilelibError};
use photomosaic::{generate_bounded_in, Deadline, GenerateError, JobResult, JobSpec, Json};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Shorthand for the platforms the epoll front-end compiles on.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
use crate::event_loop::CompletionBoard;

/// Which connection front-end owns client sockets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrontEnd {
    /// Blocking `accept()` with one handler thread per connection — the
    /// original front-end, kept compilable as the differential oracle
    /// for the event-driven path and as the portable fallback.
    Threaded,
    /// A single nonblocking readiness loop (Linux epoll behind the
    /// audited `std::os::fd` shim) owns the listener and every client
    /// socket; complete frames are handed to the worker pool and
    /// responses written back on writability. Connection capacity is
    /// bounded by memory and the fd limit, not by OS threads.
    Epoll,
}

impl Default for FrontEnd {
    /// Event-driven where the shim exists; threaded everywhere else.
    fn default() -> FrontEnd {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        {
            FrontEnd::Epoll
        }
        #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
        {
            FrontEnd::Threaded
        }
    }
}

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
    /// Which connection front-end to run; see [`FrontEnd`].
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

/// What the worker asks the front-end to do with a finished job.
pub(crate) enum WorkerReply {
    /// Write this response back to the client.
    Respond(Response),
    /// Sever the connection with no response (injected crash: the
    /// process died mid-job, as seen from the network).
    Sever,
}

/// What an accepted job actually runs once a worker picks it up. Both
/// shapes share the same bounded queue, worker pool, and backpressure.
pub(crate) enum JobPayload {
    /// A Step-1/2/3 generation job.
    Generate(Box<JobSpec>),
    /// A tile-library job: pruned rectangular assignment against an
    /// on-disk tile store.
    Library(Box<LibraryJobSpec>),
}

/// Where a worker's finished reply goes — the two front-ends wait for
/// workers differently, but the workers themselves cannot tell them
/// apart.
pub(crate) enum ReplyTo {
    /// A blocked connection-handler thread (threaded front-end).
    Handler(mpsc::Sender<WorkerReply>),
    /// The readiness loop's completion board, keyed by the connection's
    /// epoll token (event-driven front-end).
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    Board {
        token: u64,
        board: Arc<CompletionBoard>,
    },
}

impl ReplyTo {
    /// Deliver the reply. A receiver that gave up (client gone, loop
    /// exited) is not an error; the reply is simply dropped.
    fn send(self, reply: WorkerReply) {
        match self {
            ReplyTo::Handler(tx) => {
                let _ = tx.send(reply);
            }
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            ReplyTo::Board { token, board } => board.deliver(token, reply),
        }
    }
}

/// One accepted job travelling from a front-end to a worker.
pub(crate) struct Job {
    pub(crate) payload: JobPayload,
    pub(crate) accepted_at: Instant,
    pub(crate) reply: ReplyTo,
}

pub(crate) struct Shared {
    pub(crate) queue: JobQueue<Job>,
    pub(crate) cache: MatrixCache,
    pub(crate) metrics: ServiceMetrics,
    pub(crate) shutdown: AtomicBool,
    pub(crate) local_addr: SocketAddr,
    pub(crate) config: ServiceConfig,
    pub(crate) gate: ConnectionGate,
    /// One persistent compute pool per server, sized by `workers`: every
    /// job's parallel stages (threaded Step 2, pooled Step-3 search, the
    /// GpuSim block lanes) dispatch here instead of spawning scoped
    /// threads per call.
    pub(crate) compute_pool: Arc<ThreadPool>,
    /// Present when the event-driven front-end is running: shutdown
    /// wakes the loop through this board instead of the self-connect
    /// trick the blocking accept loop needs.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    pub(crate) board: Option<Arc<CompletionBoard>>,
}

impl Shared {
    /// The frame cap for `read_message` (0 = unlimited).
    fn frame_limit(&self) -> usize {
        match self.config.max_frame_bytes {
            0 => usize::MAX,
            limit => limit,
        }
    }

    /// The per-connection socket deadline (None = no deadline).
    pub(crate) fn io_timeout(&self) -> Option<Duration> {
        match self.config.io_timeout_ms {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        }
    }

    pub(crate) fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return; // already shutting down
        }
        // Stop intake; workers drain what was already accepted.
        self.queue.close();
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        if let Some(board) = &self.board {
            // The readiness loop sleeps in `epoll_wait`; its eventfd
            // waker gets it moving again.
            board.wake();
            return;
        }
        // The accept loop sits in a blocking `accept()`; a throw-away
        // connection to ourselves wakes it so it can observe the flag.
        let _ = TcpStream::connect(self.local_addr);
    }

    fn stats_snapshot(&self) -> Json {
        self.metrics.snapshot(
            self.config.workers,
            self.queue.len(),
            self.queue.capacity(),
            self.gate.active(),
            self.cache.stats(),
            self.cache.capacity(),
        )
    }

    fn prometheus_text(&self) -> String {
        self.metrics.prometheus(
            self.config.workers,
            self.queue.len(),
            self.queue.capacity(),
            self.gate.active(),
            self.cache.stats(),
            self.cache.capacity(),
        )
    }
}

/// A running server. Dropping the handle does *not* stop it; call
/// [`shutdown`](Server::shutdown) (or send the `shutdown` request) and
/// then [`join`](Server::join).
pub struct Server {
    shared: Arc<Shared>,
    accept_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind and start the accept loop and worker pool.
    ///
    /// # Errors
    /// Propagates socket bind failures.
    pub fn start(config: ServiceConfig) -> std::io::Result<Server> {
        // Resolve SIMD kernel dispatch before any worker is spawned so
        // request threads never pay the feature probe and the
        // `kernel_dispatch` gauge is live from the first scrape.
        mosaic_grid::init_simd_kernels();
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;

        // Build the event-driven front-end's kernel objects before the
        // workers spawn, so a failed epoll/eventfd creation surfaces as
        // a clean start error instead of a half-running server.
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        let io_front = match config.front_end {
            FrontEnd::Threaded => None,
            FrontEnd::Epoll => {
                listener.set_nonblocking(true)?;
                let poller = crate::epoll::Poller::new()?;
                let board = CompletionBoard::new(crate::epoll::EventWaker::new()?);
                Some((poller, board))
            }
        };
        #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
        if config.front_end == FrontEnd::Epoll {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "the epoll front-end needs linux/x86_64; use FrontEnd::Threaded",
            ));
        }

        let shared = Arc::new(Shared {
            queue: JobQueue::new(config.queue_capacity),
            cache: MatrixCache::new(config.cache_capacity),
            metrics: ServiceMetrics::new(),
            shutdown: AtomicBool::new(false),
            local_addr,
            gate: ConnectionGate::new(config.max_connections),
            config: config.clone(),
            compute_pool: Arc::new(ThreadPool::new(config.workers.max(1))),
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            board: io_front.as_ref().map(|(_, board)| Arc::clone(board)),
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

        let mut worker_handles = Vec::with_capacity(config.workers.max(1));
        for i in 0..config.workers.max(1) {
            let worker_shared = Arc::clone(&shared);
            match std::thread::Builder::new()
                .name(format!("mosaic-worker-{i}"))
                .spawn(move || worker_loop(&worker_shared))
            {
                Ok(handle) => worker_handles.push(handle),
                Err(e) => return abort(worker_handles, e),
            }
        }

        let io_shared = Arc::clone(&shared);
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        let io_main: Box<dyn FnOnce() + Send> = match io_front {
            Some((poller, board)) => {
                Box::new(move || crate::event_loop::run(listener, poller, board, io_shared))
            }
            None => Box::new(move || accept_loop(&listener, &io_shared)),
        };
        #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
        let io_main: Box<dyn FnOnce() + Send> =
            Box::new(move || accept_loop(&listener, &io_shared));
        let accept_handle = match std::thread::Builder::new()
            .name("mosaic-io".to_string())
            .spawn(io_main)
        {
            Ok(handle) => handle,
            Err(e) => return abort(worker_handles, e),
        };

        Ok(Server {
            shared,
            accept_handle: Some(accept_handle),
            worker_handles,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Trigger graceful shutdown: stop accepting, drain the queue.
    /// Idempotent; also triggered by the `shutdown` wire request.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Wait for the accept loop and all workers to exit. Implies
    /// [`shutdown`](Server::shutdown) has been (or will be) triggered —
    /// joining a server nobody shuts down blocks forever.
    pub fn join(mut self) {
        if let Some(handle) = self.accept_handle.take() {
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

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    // The wake-up connection (or a late client); drop it.
                    break;
                }
                let Some(permit) = shared.gate.try_acquire() else {
                    // At the connection cap: answer with the standard
                    // backpressure shape right here on the accept thread
                    // (bounded by the write deadline) and drop the socket.
                    shared.metrics.connection_rejected();
                    // The write below happens on the accept thread, so
                    // it is only safe under an armed deadline. If the
                    // deadline cannot be set (hostile socket state, or
                    // the fault plan simulating it), writing anyway
                    // would let one slow rejected client wedge every
                    // future accept — treat the setsockopt failure as
                    // fatal for this socket and drop it unanswered.
                    let deadline_armed = !shared.config.faults.take_reject_sockopt_failure()
                        && stream.set_write_timeout(shared.io_timeout()).is_ok();
                    if deadline_armed {
                        let _ = write_message(
                            &mut &stream,
                            &Response::Rejected {
                                retry_after_ms: shared.config.retry_after_ms,
                            }
                            .to_json(),
                        );
                    }
                    continue;
                };
                let shared = Arc::clone(shared);
                // Handlers are detached: they exit when their client
                // disconnects, and queued work is answered because the
                // workers drain the closed queue before exiting. A failed
                // spawn drops the closure, releasing the permit.
                let _ = std::thread::Builder::new()
                    .name("mosaic-conn".to_string())
                    .spawn(move || handle_connection(stream, &shared, permit));
            }
            Err(_) if shared.shutdown.load(Ordering::SeqCst) => break,
            Err(_) => continue, // transient accept error
        }
    }
}

/// True for the error kinds a socket deadline expiry produces
/// (`WouldBlock` on Unix, `TimedOut` on Windows).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>, permit: ConnectionPermit) {
    let _permit = permit; // held for the life of the handler
    if let Some(timeout) = shared.io_timeout() {
        // A slowloris client must not hold this thread forever: every
        // read and write on the socket gets a deadline.
        if stream.set_read_timeout(Some(timeout)).is_err()
            || stream.set_write_timeout(Some(timeout)).is_err()
        {
            return;
        }
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let message = match read_message(&mut reader, shared.frame_limit()) {
            Ok(Some(m)) => m,
            Ok(None) => return, // client closed
            Err(ReadError::FrameTooLarge { limit }) => {
                shared.metrics.frame_too_large();
                let _ = write_message(
                    &mut writer,
                    &Response::FrameTooLarge {
                        max_frame_bytes: limit as u64,
                    }
                    .to_json(),
                );
                return; // framing is lost; drop the connection
            }
            Err(ReadError::Malformed(problem)) => {
                let _ = write_message(&mut writer, &Response::Error { message: problem }.to_json());
                return; // framing is lost; drop the connection
            }
            Err(ReadError::Io(e)) => {
                if is_timeout(&e) {
                    shared.metrics.connection_timed_out();
                }
                return;
            }
        };
        let response = match Request::from_json(&message) {
            Err(problem) => Response::Error { message: problem },
            Ok(request) => match dispatch_request(request, shared) {
                Dispatch::Inline(response) => response,
                Dispatch::Enqueue(payload) => match submit(payload, shared) {
                    WorkerReply::Respond(response) => response,
                    // Injected crash: vanish mid-job, no response, no
                    // close handshake beyond the socket drop.
                    WorkerReply::Sever => return,
                },
            },
        };
        if write_message(&mut writer, &response.to_json()).is_err() {
            return;
        }
    }
}

/// Where one parsed request goes.
pub(crate) enum Dispatch {
    /// Answered inline by the I/O layer; no worker involved.
    Inline(Response),
    /// Must travel through the bounded queue to a worker.
    Enqueue(JobPayload),
}

/// Route one request — the single dispatch table shared by both
/// front-ends, so their inline answers are byte-identical by
/// construction. Submissions come back as payloads because the two
/// front-ends wait for workers differently (a blocked handler thread
/// versus the completion board).
pub(crate) fn dispatch_request(request: Request, shared: &Shared) -> Dispatch {
    match request {
        Request::Ping => Dispatch::Inline(Response::Pong),
        Request::Stats => Dispatch::Inline(Response::Stats {
            stats: shared.stats_snapshot(),
        }),
        Request::Metrics => Dispatch::Inline(Response::Metrics {
            text: shared.prometheus_text(),
        }),
        Request::Shutdown => {
            shared.begin_shutdown();
            Dispatch::Inline(Response::ShuttingDown)
        }
        Request::GatewayInfo => Dispatch::Inline(Response::Error {
            message: "this server is a backend, not a gateway".to_string(),
        }),
        Request::Submit(spec) => Dispatch::Enqueue(JobPayload::Generate(spec)),
        Request::Library(spec) => Dispatch::Enqueue(JobPayload::Library(spec)),
    }
}

/// Enqueue a job and wait for its result (the wait happens on the
/// connection handler thread, so the accept loop and other connections
/// are unaffected).
fn submit(payload: JobPayload, shared: &Arc<Shared>) -> WorkerReply {
    let (reply_tx, reply_rx) = mpsc::channel();
    let job = Job {
        payload,
        accepted_at: Instant::now(),
        reply: ReplyTo::Handler(reply_tx),
    };
    match shared.queue.try_push(job) {
        Ok(()) => {
            shared.metrics.job_submitted();
            reply_rx.recv().unwrap_or_else(|_| {
                WorkerReply::Respond(Response::Error {
                    message: "worker dropped the job".to_string(),
                })
            })
        }
        Err(PushError::Full(_)) => {
            shared.metrics.job_rejected();
            WorkerReply::Respond(Response::Rejected {
                retry_after_ms: shared.config.retry_after_ms,
            })
        }
        Err(PushError::Closed(_)) => WorkerReply::Respond(Response::Error {
            message: "server is shutting down".to_string(),
        }),
    }
}

/// Why a job produced no result.
enum JobFailure {
    /// The job outlived its per-job deadline and was cancelled.
    DeadlineExceeded,
    /// Any other failure, already rendered for the wire.
    Error(String),
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
            job.reply.send(WorkerReply::Sever);
            continue;
        }
        let queue_wait_ms = queue_wait.as_secs_f64() * 1000.0;
        // The deadline clock starts when the worker picks the job up, so
        // an injected stall consumes deadline budget like real wedging.
        let deadline = Deadline::after_millis(shared.config.job_deadline_ms);
        if let Some(stall) = shared.config.faults.take_stall() {
            std::thread::sleep(stall);
        }
        let response = match &job.payload {
            JobPayload::Generate(spec) => match execute(spec, shared, queue_wait_ms, &deadline) {
                Ok(response) => response,
                Err(JobFailure::DeadlineExceeded) => {
                    shared.metrics.job_deadline_exceeded();
                    Response::DeadlineExceeded {
                        deadline_ms: shared.config.job_deadline_ms,
                    }
                }
                Err(JobFailure::Error(message)) => {
                    shared.metrics.job_failed();
                    Response::Error { message }
                }
            },
            JobPayload::Library(spec) => execute_library_job(spec, shared, queue_wait_ms),
        };
        // A front-end that gave up on this job (client gone) is not an
        // error; `ReplyTo::send` drops the reply in that case.
        job.reply.send(WorkerReply::Respond(response));
    }
}

/// Run a library job on the shared compute pool and render the outcome
/// for the wire. Library results are deliberately never cached: the
/// store path stays constant while its contents can change between
/// ingests, so a key-based cache would serve stale mosaics.
fn execute_library_job(
    spec: &LibraryJobSpec,
    shared: &Arc<Shared>,
    queue_wait_ms: f64,
) -> Response {
    match execute_library(spec, &shared.compute_pool) {
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

fn generate_failure(error: GenerateError) -> JobFailure {
    match error {
        GenerateError::DeadlineExceeded(_) => JobFailure::DeadlineExceeded,
        other => JobFailure::Error(format!("generation failed: {other:?}")),
    }
}

fn execute(
    spec: &JobSpec,
    shared: &Arc<Shared>,
    queue_wait_ms: f64,
    deadline: &Deadline,
) -> Result<Response, JobFailure> {
    let (input, target) = spec.resolve().map_err(JobFailure::Error)?;
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
    .map_err(generate_failure)?;
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
