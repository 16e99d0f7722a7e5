//! The traced run: the per-layer split of a job, measured from outside.
//!
//! A traced run first drives the workload untraced for a short while
//! (the baseline for `trace.overhead_ratio`), then replays its request
//! stream in rounds. Each round sends one request per client at once,
//! exactly as the closed loop would, and then, one request at a time on
//! a quiet fleet:
//!
//! 1. splits the client side of the real request into encode, wire and
//!    decode spans (the same public calls `Client::submit` makes);
//! 2. sends the identical bytes direct to the owning backend and through
//!    the gateway; the difference is the gateway hop;
//! 3. replays the server's work in-process through the public functions
//!    of each layer (`read_message`, `Request::from_json`,
//!    `JobSpec::resolve`, `cache_key`, `preprocess_gray`, the Step-2
//!    builders, `SwapSchedule::for_tiles`, the Step-3 searches and
//!    solvers, `assemble`, the result encoder, and the tile-library
//!    stages), checks that the replay reproduces the reply, and reads
//!    the reply's `step*_wall_ms` as a cross-check.
//!
//! Every span records its name, start, end, parent and request id. The
//! spans stay in memory and are written to
//! `perfbench/out/<workload>-seed<n>.spans.jsonl` when the run ends.
//! Nothing inside the program is instrumented.

use crate::stats::{median, summarize};
use crate::workload::{Job, Kind};
use crate::{backend_addrs, closed_loop, end_to_end, out_dir, Bench, Metric};
use mosaic_assign::{solve_sparse_rect, SolverKind, SparseCostMatrix};
use mosaic_edgecolor::SwapSchedule;
use mosaic_gateway::{backend_seed, rendezvous_order, Fleet};
use mosaic_gpu::{DeviceSpec, GpuSim, WorkProfile};
use mosaic_grid::{
    assemble, build_error_matrix, build_error_matrix_threaded_bounded_in, Deadline, ErrorMatrix,
    TileLayout,
};
use mosaic_image::{Gray, GrayImage};
use mosaic_pool::ThreadPool;
use mosaic_service::protocol::{read_message, write_message, Request, Response};
use mosaic_service::Client;
use mosaic_tilelib::{
    batch_features, kmeans, pair_cost, scored_candidates, LibraryJobSpec, TileStore,
};
use photomosaic::errors::{gpu_error_matrix, step2_profile};
use photomosaic::optimal::optimal_rearrangement;
use photomosaic::parallel_search::{
    parallel_search_gpu, parallel_search_reference, parallel_search_threads_bounded_in,
    step3_parallel_profile, ParallelOutcome,
};
use photomosaic::preprocess::preprocess_gray;
use photomosaic::{
    assemble_from_tiles, Algorithm, Backend, GenerationReport, JobResult, JobSpec, Json,
    MosaicConfig, MosaicResult,
};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Matrices the replay keeps so cache-hit replies replay without Step 2,
/// like the server's `MatrixCache` (same capacity).
const REPLAY_CACHE: usize = 8;

/// One recorded span.
struct Span {
    id: usize,
    parent: Option<usize>,
    request: usize,
    name: &'static str,
    start: Instant,
    end: Instant,
}

/// The in-memory span log of one traced run.
struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn record(
        &mut self,
        request: usize,
        parent: Option<usize>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start,
            end,
        });
        id
    }

    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let mut text = String::new();
        for span in &self.spans {
            let line = Json::obj([
                ("id", Json::from(span.id)),
                ("parent", span.parent.map_or(Json::Null, Json::from)),
                ("request", Json::from(span.request)),
                ("name", Json::from(span.name)),
                ("start_us", Json::from(us(span.start))),
                ("end_us", Json::from(us(span.end))),
            ]);
            text.push_str(&line.encode());
            text.push('\n');
        }
        std::fs::write(path, text)
    }
}

/// Leaf spans of one replay, before they join the log.
#[derive(Default)]
struct Layers {
    spans: Vec<(&'static str, Instant, Instant)>,
}

impl Layers {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        self.spans.push((name, start, Instant::now()));
        out
    }

    fn us(&self, name: &str) -> Option<f64> {
        let total: f64 = self
            .spans
            .iter()
            .filter(|(n, _, _)| *n == name)
            .map(|(_, s, e)| e.duration_since(*s).as_secs_f64() * 1e6)
            .sum();
        self.spans
            .iter()
            .any(|(n, _, _)| *n == name)
            .then_some(total)
    }
}

/// A line-framed connection that times the raw exchange, so the client
/// side can be split into encode, wire and decode.
struct Wire {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Wire {
    fn connect(addr: SocketAddr) -> std::io::Result<Wire> {
        let stream = TcpStream::connect(addr)?;
        Ok(Wire {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    fn exchange(&mut self, line: &[u8]) -> std::io::Result<Vec<u8>> {
        self.writer.write_all(line)?;
        self.writer.flush()?;
        let mut reply = Vec::new();
        self.reader.read_until(b'\n', &mut reply)?;
        if reply.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "peer closed the connection",
            ));
        }
        Ok(reply)
    }
}

/// The client side of one real request, split at the wire.
struct Real {
    job: Arc<Job>,
    line: Vec<u8>,
    reply_bytes: usize,
    encoded: Instant,
    sent: Instant,
    received: Instant,
    decoded: Instant,
    result: Result<JobResult, String>,
}

fn to_request(job: &Job) -> Request {
    match &job.payload {
        crate::workload::Payload::Generate(spec) => Request::Submit(Box::new(spec.clone())),
        crate::workload::Payload::Library(spec) => Request::Library(Box::new(spec.clone())),
    }
}

/// `Client::submit`'s work, in its order: build and encode the request,
/// exchange lines, parse the frame and decode the result.
fn real_request(wire: &mut Wire, job: Arc<Job>) -> Real {
    let sent = Instant::now();
    let mut line = to_request(&job).to_json().encode();
    line.push('\n');
    let encoded = Instant::now();
    let reply = wire.exchange(line.as_bytes());
    let received = Instant::now();
    let reply_bytes = reply.as_ref().map_or(0, Vec::len);
    let result = reply
        .map_err(|e| format!("transport: {e}"))
        .and_then(|bytes| decode_reply(&bytes));
    Real {
        job,
        line: line.into_bytes(),
        reply_bytes,
        encoded,
        sent,
        received,
        decoded: Instant::now(),
        result,
    }
}

fn decode_reply(bytes: &[u8]) -> Result<JobResult, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    let json = Json::parse(text.trim_end_matches('\n').trim_end_matches('\r'))
        .map_err(|e| e.to_string())?;
    match Response::from_json(&json)? {
        Response::Result { result } => JobResult::from_json(&result),
        other => Err(format!("unexpected reply {other:?}")),
    }
}

/// Replays the server's work in-process.
struct Replayer {
    pool: Arc<ThreadPool>,
    matrices: VecDeque<(u64, Arc<ErrorMatrix>)>,
}

/// Counts one replay produced, by metric name.
type Counts = Vec<(&'static str, f64)>;

impl Replayer {
    fn sim(&self, workers: Option<usize>) -> GpuSim {
        let lanes = workers.unwrap_or_else(|| self.pool.threads());
        GpuSim::with_pool(DeviceSpec::tesla_k40(), Arc::clone(&self.pool), lanes)
    }

    fn build(
        &self,
        prepared: &GrayImage,
        target: &GrayImage,
        layout: TileLayout,
        config: &MosaicConfig,
    ) -> Result<ErrorMatrix, String> {
        match config.backend {
            Backend::Serial => build_error_matrix(prepared, target, layout, config.metric)
                .map_err(|e| format!("{e:?}")),
            Backend::Threads(threads) => build_error_matrix_threaded_bounded_in(
                &self.pool,
                prepared,
                target,
                layout,
                config.metric,
                threads.max(1),
                &Deadline::NONE,
            )
            .map_err(|e| format!("{e:?}")),
            Backend::GpuSim { workers } => {
                gpu_error_matrix(&self.sim(workers), prepared, target, layout, config.metric)
                    .map_err(|e| format!("{e:?}"))
            }
        }
    }

    fn cached(&self, key: u64) -> Option<Arc<ErrorMatrix>> {
        self.matrices
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, m)| Arc::clone(m))
    }

    fn remember(&mut self, key: u64, matrix: Arc<ErrorMatrix>) {
        if self.matrices.len() == REPLAY_CACHE {
            self.matrices.pop_front();
        }
        self.matrices.push_back((key, matrix));
    }

    /// Replay the server side of `line`, whose reply was `reply`.
    fn replay(
        &mut self,
        line: &[u8],
        reply: &JobResult,
        layers: &mut Layers,
        counts: &mut Counts,
    ) -> Result<Option<f64>, String> {
        let frame = layers.time("service.frame_parse", || {
            read_message(&mut BufReader::new(line), usize::MAX)
        });
        let frame = frame
            .map_err(|e| e.to_string())?
            .ok_or("empty request frame")?;
        let request = layers.time("service.request_decode", || Request::from_json(&frame))?;
        match request {
            Request::Submit(spec) => self.generation(&spec, reply, layers, counts).map(Some),
            Request::Library(spec) => self.library(&spec, reply, layers, counts).map(|()| None),
            other => Err(format!("not a job request: {other:?}")),
        }
    }

    /// Returns replayed Step 1-3 wall time over the reply's.
    fn generation(
        &mut self,
        spec: &JobSpec,
        reply: &JobResult,
        layers: &mut Layers,
        counts: &mut Counts,
    ) -> Result<f64, String> {
        let (input, target) = layers.time("core.resolve", || spec.resolve())?;
        let key = layers.time("core.cache_key", || spec.cache_key());
        let config = &spec.config;
        let layout =
            TileLayout::with_grid(target.width(), config.grid).map_err(|e| format!("{e:?}"))?;
        let s = layout.tile_count();

        let started = Instant::now();
        let prepared = layers.time("core.step1", || {
            preprocess_gray(&input, &target, config.preprocess)
        });
        let step1_wall = started.elapsed();

        let cache_hit = reply.report.get("cache_hit").and_then(Json::as_bool) == Some(true);
        let gpu = matches!(config.backend, Backend::GpuSim { .. });
        let mut step2_wall = Duration::ZERO;
        let mut step2 = WorkProfile::default();
        let matrix = match (cache_hit, self.cached(key)) {
            (true, Some(matrix)) => matrix,
            // The server hit a matrix this replay never built (warm-up
            // filled it): build it outside every span.
            (true, None) => Arc::new(self.build(&prepared, &target, layout, config)?),
            (false, _) => {
                let started = Instant::now();
                let name = if gpu { "gpu.step2" } else { "grid.step2" };
                let matrix =
                    layers.time(name, || self.build(&prepared, &target, layout, config))?;
                step2_wall = started.elapsed();
                step2 = step2_profile::<Gray>(layout, usize::from(gpu));
                counts.push(("grid.step2_bytes_computed", step2.global_bytes as f64));
                counts.push(("grid.step2_ops", step2.ops as f64));
                let matrix = Arc::new(matrix);
                self.remember(key, Arc::clone(&matrix));
                matrix
            }
        };

        let started = Instant::now();
        let (outcome, step3) = match config.algorithm {
            Algorithm::ParallelSearch => {
                let schedule = layers.time("edgecolor.schedule", || SwapSchedule::for_tiles(s));
                let result: ParallelOutcome = match config.backend {
                    Backend::Serial => layers.time("core.step3", || {
                        parallel_search_reference(&matrix, &schedule)
                    }),
                    Backend::Threads(threads) => layers
                        .time("core.step3", || {
                            parallel_search_threads_bounded_in(
                                &self.pool,
                                &matrix,
                                &schedule,
                                threads.max(1),
                                &Deadline::NONE,
                            )
                        })
                        .map_err(|e| e.to_string())?,
                    Backend::GpuSim { workers } => {
                        let sim = self.sim(workers);
                        let result = layers.time("gpu.step3", || {
                            parallel_search_gpu(&sim, &matrix, &schedule)
                        });
                        counts.push(("gpu.launches", result.launches as f64));
                        result
                    }
                };
                counts.push(("core.sweeps", result.outcome.sweeps as f64));
                counts.push(("core.swaps", result.outcome.swaps as f64));
                let profile = step3_parallel_profile(s, result.outcome.sweeps, result.launches);
                (result.outcome, profile)
            }
            Algorithm::Optimal(SolverKind::JonkerVolgenant) => {
                let outcome = layers.time("assign.jv", || {
                    optimal_rearrangement(&matrix, SolverKind::JonkerVolgenant)
                });
                (outcome, WorkProfile::default())
            }
            other => return Err(format!("the replay does not cover {}", other.name())),
        };
        let step3_wall = started.elapsed();

        let image = layers
            .time("grid.assemble", || {
                assemble(&prepared, layout, &outcome.assignment)
            })
            .map_err(|e| format!("{e:?}"))?;
        if outcome.assignment != reply.assignment || image != reply.image {
            return Err("the replayed mosaic differs from the reply".to_string());
        }

        let reply_ms = |key: &str| reply.report.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let reply_wall =
            reply_ms("step1_wall_ms") + reply_ms("step2_wall_ms") + reply_ms("step3_wall_ms");
        let replay_wall = (step1_wall + step2_wall + step3_wall).as_secs_f64() * 1000.0;

        let mosaic = MosaicResult {
            image,
            assignment: outcome.assignment,
            report: GenerationReport {
                config: config.clone(),
                image_size: target.width(),
                tile_count: s,
                tile_size: layout.tile_size(),
                total_error: outcome.total,
                sweeps: outcome.sweeps,
                swaps: outcome.swaps,
                step1_wall,
                step2_wall,
                step3_wall,
                step2_profile: step2,
                step3_profile: step3,
            },
        };
        let queue_wait_ms = reply_ms("queue_wait_ms");
        layers.time("service.result_encode", || {
            let mut result = JobResult::from(mosaic);
            if let Json::Obj(pairs) = &mut result.report {
                pairs.push(("queue_wait_ms".to_string(), Json::from(queue_wait_ms)));
                pairs.push(("cache_hit".to_string(), Json::Bool(cache_hit)));
            }
            encode_result(&result)
        })?;
        Ok(if reply_wall > 0.0 {
            replay_wall / reply_wall
        } else {
            0.0
        })
    }

    /// `execute_library`'s stages, each in its own span.
    fn library(
        &mut self,
        spec: &LibraryJobSpec,
        reply: &JobResult,
        layers: &mut Layers,
        counts: &mut Counts,
    ) -> Result<(), String> {
        let params = spec.params;
        let (_, tiles) = layers
            .time("tilelib.store_load", || {
                TileStore::open(&spec.store).and_then(|store| store.load_all())
            })
            .map_err(|e| e.to_string())?;
        let grid = params.grid;
        let cells: Vec<GrayImage> = layers.time("core.resolve", || {
            let target = spec.target.resolve()?;
            let tile = tiles.first().map_or(0, GrayImage::width);
            (0..grid * grid)
                .map(|i| {
                    let (cy, cx) = (i / grid, i % grid);
                    GrayImage::from_fn(tile, tile, |x, y| {
                        target.pixel(cx * tile + x, cy * tile + y)
                    })
                    .map_err(|e| format!("{e:?}"))
                })
                .collect::<Result<Vec<_>, String>>()
        })?;
        let (tile_features, cell_features) = layers.time("tilelib.features", || {
            (
                batch_features(&tiles, params.feature_grid, &self.pool),
                batch_features(&cells, params.feature_grid, &self.pool),
            )
        });
        let clustering = layers.time("tilelib.kmeans", || {
            kmeans(&tile_features, params.clusters, params.seed, &self.pool)
        });
        let lists = layers.time("tilelib.prune", || {
            scored_candidates(
                &cells,
                &cell_features,
                &tiles,
                &clustering,
                params.top_clusters,
                params.metric,
                &self.pool,
            )
        });
        let candidates: usize = lists.iter().map(Vec::len).sum();
        counts.push((
            "tilelib.candidates_per_cell",
            candidates as f64 / cells.len().max(1) as f64,
        ));
        let assignment = layers
            .time("tilelib.solve", || {
                SparseCostMatrix::from_candidates_rect(cells.len(), tiles.len(), &lists, |c, t| {
                    pair_cost(&cells[c], &tiles[t], params.metric)
                })
                .and_then(|sparse| solve_sparse_rect(&sparse))
            })
            .map_err(|e| e.to_string())?;
        let total: u64 = layers.time("tilelib.score", || {
            assignment
                .iter()
                .enumerate()
                .map(|(c, &t)| u64::from(pair_cost(&cells[c], &tiles[t], params.metric)))
                .sum()
        });
        let image = layers.time("tilelib.assemble", || {
            assemble_from_tiles(&tiles, &assignment, grid)
        })?;
        let reported = reply.report.get("total_error").and_then(Json::as_u64);
        if assignment != reply.assignment || image != reply.image || reported != Some(total) {
            return Err("the replayed library mosaic differs from the reply".to_string());
        }
        layers.time("service.result_encode", || {
            encode_result(&JobResult {
                image,
                assignment,
                report: reply.report.clone(),
            })
        })?;
        Ok(())
    }
}

/// The server's reply encoding: `Response::Result` framed by
/// `write_message`.
fn encode_result(result: &JobResult) -> Result<usize, String> {
    let response = Response::Result {
        result: result.to_json(),
    };
    let mut frame = Vec::new();
    write_message(&mut frame, &response.to_json()).map_err(|e| e.to_string())?;
    Ok(frame.len())
}

/// One traced request, reduced to per-layer numbers.
struct Record {
    latency_us: f64,
    /// Time per layer on this request's path, in µs.
    layers: Vec<(&'static str, f64)>,
    counts: Counts,
    hop_ratio: f64,
    replay_ratio: Option<f64>,
}

impl Record {
    fn layer(&self, name: &str) -> Option<f64> {
        self.layers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The share of this request's latency that `names` account for
    /// (all layers when `names` is `None`). The gateway hop of a single
    /// request is the difference of two whole jobs and carries their
    /// jitter, so every request is charged the run's median `hop_us`.
    fn share(&self, names: Option<&[&str]>, hop_us: f64) -> f64 {
        let sum: f64 = self
            .layers
            .iter()
            .filter(|(n, _)| names.is_none_or(|names| names.contains(n)))
            .map(|&(n, v)| {
                if n == "gateway.hop" {
                    hop_us.max(0.0)
                } else {
                    v
                }
            })
            .sum();
        sum / self.latency_us
    }
}

/// Counters the fleet itself keeps, read over its `stats` and
/// `gateway` ops.
#[derive(Default)]
struct FleetCounters {
    failovers: f64,
    refusals: f64,
    rejections: f64,
    routed: Vec<f64>,
}

fn fleet_counters(fleet: &Fleet) -> FleetCounters {
    let number = |json: &Json, path: &[&str]| {
        path.iter()
            .try_fold(json, |node, key| node.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let mut counters = FleetCounters::default();
    if let Ok(mut client) = Client::connect(fleet.gateway_addr()) {
        if let Ok(Response::Stats { stats }) = client.stats() {
            counters.failovers = number(&stats, &["jobs", "failovers"]);
            counters.refusals = number(&stats, &["jobs", "rejected"]);
        }
        if let Ok(Response::Gateway { gateway }) = client.gateway_info() {
            counters.routed = gateway
                .get("backends")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .map(|b| number(b, &["routed"]))
                .collect();
        }
    }
    for i in 0..fleet.backend_count() {
        if let Ok(Response::Stats { stats }) =
            Client::connect(fleet.backend_addr(i)).and_then(|mut c| c.stats())
        {
            counters.rejections += number(&stats, &["jobs", "rejected"]);
        }
    }
    counters
}

/// The layers each workload is built to isolate (`trace.focus_share`).
fn focus(kind: Kind) -> &'static [&'static str] {
    match kind {
        Kind::ColdPaper => &[
            "grid.step2",
            "gpu.step2",
            "edgecolor.schedule",
            "core.step3",
            "gpu.step3",
            "assign.jv",
        ],
        Kind::HotUpload => &[
            "client.encode",
            "client.decode",
            "service.frame_parse",
            "service.request_decode",
            "service.result_encode",
            "core.cache_key",
            "gateway.hop",
        ],
        Kind::SmallBurst => &["gateway.hop"],
        Kind::Library => &[
            "tilelib.store_load",
            "tilelib.features",
            "tilelib.kmeans",
            "tilelib.prune",
            "tilelib.solve",
        ],
    }
}

/// The per-layer metrics, in report order: name, source, unit.
const LAYER_METRICS: [(&str, &str, &str); 31] = [
    ("client.encode_us", "client.encode", "us"),
    ("client.decode_us", "client.decode", "us"),
    ("client.request_bytes", "client.request_bytes", "bytes"),
    ("client.response_bytes", "client.response_bytes", "bytes"),
    ("gateway.hop_us", "gateway.hop", "us"),
    ("service.frame_parse_us", "service.frame_parse", "us"),
    ("service.request_decode_us", "service.request_decode", "us"),
    ("service.result_encode_us", "service.result_encode", "us"),
    ("service.queue_wait_us", "service.queue_wait", "us"),
    ("service.io_us", "service.io", "us"),
    ("core.resolve_us", "core.resolve", "us"),
    ("core.cache_key_us", "core.cache_key", "us"),
    ("core.step1_us", "core.step1", "us"),
    ("grid.step2_us", "grid.step2", "us"),
    ("gpu.step2_us", "gpu.step2", "us"),
    (
        "grid.step2_bytes_computed",
        "grid.step2_bytes_computed",
        "bytes",
    ),
    ("grid.step2_ops", "grid.step2_ops", "count"),
    ("grid.assemble_us", "grid.assemble", "us"),
    ("edgecolor.schedule_us", "edgecolor.schedule", "us"),
    ("core.step3_us", "core.step3", "us"),
    ("gpu.step3_us", "gpu.step3", "us"),
    ("assign.jv_us", "assign.jv", "us"),
    ("core.sweeps", "core.sweeps", "count"),
    ("core.swaps", "core.swaps", "count"),
    ("gpu.launches", "gpu.launches", "count"),
    ("tilelib.store_load_us", "tilelib.store_load", "us"),
    ("tilelib.features_us", "tilelib.features", "us"),
    ("tilelib.kmeans_us", "tilelib.kmeans", "us"),
    ("tilelib.prune_us", "tilelib.prune", "us"),
    ("tilelib.solve_us", "tilelib.solve", "us"),
    (
        "tilelib.candidates_per_cell",
        "tilelib.candidates_per_cell",
        "count",
    ),
];

/// Run the traced replay: `baseline_s` untraced, then `traced_s` of
/// traced rounds. Returns the per-layer metrics, the detail record and
/// the attempted/failed request counts.
pub fn run(
    bench: &Bench,
    baseline_s: f64,
    traced_s: f64,
    seed: u64,
) -> (Vec<Metric>, Json, usize, usize) {
    let kind = bench.inputs.kind;
    let fleet = &bench.fleet;
    let before = fleet_counters(fleet);

    let baseline = closed_loop(bench, baseline_s, 100);
    let baseline_e2e = end_to_end(&baseline);
    let mut cache_hits: Vec<bool> = baseline
        .iter()
        .filter(|s| s.checked.is_ok())
        .map(|s| s.cache_hit)
        .collect();

    let connect = |addr: SocketAddr| {
        Wire::connect(addr).unwrap_or_else(|e| crate::fail(&format!("trace connect: {e}")))
    };
    let mut lanes: Vec<Wire> = (0..kind.clients())
        .map(|_| connect(fleet.gateway_addr()))
        .collect();
    let mut direct: Vec<Wire> = (0..fleet.backend_count())
        .map(|i| connect(fleet.backend_addr(i)))
        .collect();
    let seeds: Vec<u64> = backend_addrs(fleet)
        .iter()
        .map(|a| backend_seed(a))
        .collect();
    let mut streams: Vec<_> = (0..kind.clients())
        .map(|lane| bench.inputs.stream(200 + lane as u64))
        .collect();
    let mut replayer = Replayer {
        pool: Arc::new(ThreadPool::new(kind.workers())),
        matrices: VecDeque::new(),
    };
    let mut spans = Spans {
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    let mut records: Vec<Record> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = baseline_e2e.attempted;
    let deadline = Instant::now() + Duration::from_secs_f64(traced_s);

    while Instant::now() < deadline {
        let jobs: Vec<Arc<Job>> = streams.iter_mut().map(|s| s.next_job()).collect();
        // The real requests of a round go out together, as the
        // closed-loop clients would send them.
        let reals: Vec<Real> = std::thread::scope(|scope| {
            let handles: Vec<_> = lanes
                .iter_mut()
                .zip(jobs)
                .map(|(wire, job)| scope.spawn(move || real_request(wire, job)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("trace lanes do not panic"))
                .collect()
        });
        for (lane, real) in reals.into_iter().enumerate() {
            attempted += 1;
            let request = records.len() + failures.len();
            match trace_request(
                request,
                &real,
                &mut lanes[lane],
                &mut direct,
                &seeds,
                &mut replayer,
                &mut spans,
                bench.inputs.tiles.len(),
            ) {
                Ok((record, hit)) => {
                    cache_hits.push(hit);
                    records.push(record);
                }
                Err(problem) => failures.push(problem),
            }
        }
    }
    for problem in failures.iter().take(5) {
        eprintln!("perfbench: traced request failed: {problem}");
    }

    let after = fleet_counters(fleet);
    let routed: Vec<f64> = after
        .routed
        .iter()
        .zip(before.routed.iter().chain(std::iter::repeat(&0.0)))
        .map(|(a, b)| a - b)
        .collect();
    let routed_total: f64 = routed.iter().sum();

    let latencies: Vec<f64> = records.iter().map(|r| r.latency_us).collect();
    let traced_p50_us = median(&latencies);
    let values = |source: &str| -> Vec<f64> {
        records
            .iter()
            .filter_map(|r| {
                r.layer(source)
                    .or_else(|| r.counts.iter().find(|(n, _)| *n == source).map(|(_, v)| *v))
            })
            .collect()
    };
    let mut metrics: Vec<Metric> = LAYER_METRICS
        .iter()
        .map(|&(name, source, unit)| Metric {
            name,
            value: median(&values(source)),
            unit,
        })
        .collect();
    let ratio = |f: &dyn Fn(&Record) -> Option<f64>| {
        median(&records.iter().filter_map(f).collect::<Vec<_>>())
    };
    let hop_us = median(&values("gateway.hop"));
    metrics.extend([
        Metric {
            name: "gateway.hop_ratio",
            value: ratio(&|r| Some(r.hop_ratio)),
            unit: "ratio",
        },
        Metric {
            name: "gateway.failovers",
            value: after.failovers - before.failovers,
            unit: "count",
        },
        Metric {
            name: "gateway.refusals",
            value: after.refusals - before.refusals,
            unit: "count",
        },
        Metric {
            name: "gateway.backend_share_max",
            value: if routed_total > 0.0 {
                routed.iter().copied().fold(0.0, f64::max) / routed_total
            } else {
                0.0
            },
            unit: "ratio",
        },
        Metric {
            name: "service.rejections",
            value: after.rejections - before.rejections,
            unit: "count",
        },
        Metric {
            name: "service.cache_hit_ratio",
            value: cache_hits.iter().filter(|&&h| h).count() as f64
                / cache_hits.len().max(1) as f64,
            unit: "ratio",
        },
        Metric {
            name: "tilelib.ingest_us",
            value: bench.ingest_s * 1e6,
            unit: "us",
        },
        Metric {
            name: "trace.coverage_ratio",
            value: ratio(&|r| Some(r.share(None, hop_us))),
            unit: "ratio",
        },
        Metric {
            name: "trace.overhead_ratio",
            value: if baseline_e2e.latency.p50 > 0.0 {
                traced_p50_us / 1000.0 / baseline_e2e.latency.p50
            } else {
                0.0
            },
            unit: "ratio",
        },
        Metric {
            name: "trace.focus_share",
            value: ratio(&|r| Some(r.share(Some(focus(kind)), hop_us))),
            unit: "ratio",
        },
        Metric {
            name: "trace.hop_share",
            value: ratio(&|r| Some(r.share(Some(&["gateway.hop"]), hop_us))),
            unit: "ratio",
        },
        Metric {
            name: "trace.replay_ratio",
            value: ratio(&|r| r.replay_ratio),
            unit: "ratio",
        },
        Metric {
            name: "trace.requests",
            value: records.len() as f64,
            unit: "count",
        },
    ]);

    let spans_path = out_dir().join(format!("{}-seed{seed}.spans.jsonl", kind.name()));
    if let Err(e) = spans.write(&spans_path) {
        eprintln!("perfbench: could not write {}: {e}", spans_path.display());
    }
    let detail = Json::obj([
        ("untraced_latency_ms", baseline_e2e.latency.to_json()),
        ("traced_latency_us", summarize(&latencies).to_json()),
        ("spans", Json::Str(spans_path.display().to_string())),
        ("spans_recorded", Json::from(spans.spans.len())),
    ]);
    replayer.pool.shutdown();
    let failed = baseline_e2e.failed + failures.len();
    (metrics, detail, attempted, failed)
}

/// Everything after the real request: check the reply, time the hop
/// pair, replay the server side and record the spans.
#[allow(clippy::too_many_arguments)]
fn trace_request(
    request: usize,
    real: &Real,
    gateway: &mut Wire,
    direct: &mut [Wire],
    seeds: &[u64],
    replayer: &mut Replayer,
    spans: &mut Spans,
    store_tiles: usize,
) -> Result<(Record, bool), String> {
    let result = real.result.as_ref().map_err(Clone::clone)?;
    real.job.check(result, store_tiles)?;
    let root = spans.record(request, None, "client.request", real.sent, real.decoded);
    spans.record(
        request,
        Some(root),
        "client.encode",
        real.sent,
        real.encoded,
    );
    spans.record(
        request,
        Some(root),
        "client.wire",
        real.encoded,
        real.received,
    );
    spans.record(
        request,
        Some(root),
        "client.decode",
        real.received,
        real.decoded,
    );

    // The same bytes direct to the owning backend and through the
    // gateway; alternate which goes first.
    let owner = rendezvous_order(seeds, real.job.routing_key())[0];
    let mut hop = |wire: &mut Wire, name: &'static str| -> Result<Duration, String> {
        let start = Instant::now();
        let reply = wire
            .exchange(&real.line)
            .map_err(|e| format!("{name}: {e}"))?;
        let end = Instant::now();
        if !reply.starts_with(b"{\"kind\":\"result\"") {
            return Err(format!(
                "{name}: the repeated request was not answered with a result"
            ));
        }
        spans.record(request, None, name, start, end);
        Ok(end - start)
    };
    let (via, direct_time) = if request.is_multiple_of(2) {
        let d = hop(&mut direct[owner], "gateway.direct")?;
        (hop(gateway, "gateway.via")?, d)
    } else {
        let v = hop(gateway, "gateway.via")?;
        (v, hop(&mut direct[owner], "gateway.direct")?)
    };
    // The backend front-end's fixed cost per request: a ping, which its
    // I/O loop answers inline without a worker.
    let mut ping = Request::Ping.to_json().encode();
    ping.push('\n');
    let start = Instant::now();
    direct[owner]
        .exchange(ping.as_bytes())
        .map_err(|e| format!("ping: {e}"))?;
    let io = Instant::now() - start;
    spans.record(request, None, "service.io", start, start + io);

    let mut layers = Layers::default();
    let mut counts: Counts = vec![
        ("client.request_bytes", real.line.len() as f64),
        ("client.response_bytes", real.reply_bytes as f64),
    ];
    let replay_start = Instant::now();
    let replay_ratio = replayer.replay(&real.line, result, &mut layers, &mut counts)?;
    let replay = spans.record(request, None, "replay", replay_start, Instant::now());
    for &(name, start, end) in &layers.spans {
        spans.record(request, Some(replay), name, start, end);
    }

    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let report = |key: &str| result.report.get(key);
    let queue_wait_us = report("queue_wait_ms")
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
        * 1000.0;
    let cache_hit = report("cache_hit").and_then(Json::as_bool) == Some(true);
    let mut layer_times: Vec<(&'static str, f64)> = vec![
        ("client.encode", us(real.encoded - real.sent)),
        ("client.decode", us(real.decoded - real.received)),
        ("gateway.hop", us(via) - us(direct_time)),
        ("service.io", us(io)),
        ("service.queue_wait", queue_wait_us),
    ];
    let mut seen: Vec<&'static str> = Vec::new();
    for &(name, _, _) in &layers.spans {
        if !seen.contains(&name) {
            seen.push(name);
            layer_times.push((name, layers.us(name).unwrap_or(0.0)));
        }
    }
    Ok((
        Record {
            latency_us: us(real.decoded - real.sent),
            layers: layer_times,
            counts,
            hop_ratio: via.as_secs_f64() / direct_time.as_secs_f64().max(1e-9),
            replay_ratio,
        },
        cache_hit,
    ))
}
