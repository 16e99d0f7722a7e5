//! The repository benchmark: a whole mosaic job from client socket to
//! decoded reply, through the in-process gateway fleet, plus a traced
//! replay that splits that time into the layers a request crosses.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-paper --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every workload boots a `mosaic_gateway::Fleet` on pinned loopback
//! ports and drives it with closed-loop `mosaic_service::Client`
//! connections from this process: each client sends its next job as
//! soon as the previous reply is decoded and checked. `--trace 0`
//! prints the end-to-end metrics, `--trace 1` the per-layer metrics of
//! the traced replay (see `trace.rs`). Each metric is printed by name
//! with its unit; the last stdout line is the JSON result. A fuller
//! record — exact quantiles, run metadata, the spans of the traced run —
//! is written under `perfbench/out/`.

#![forbid(unsafe_code)]

mod stats;
mod trace;
mod workload;

use mosaic_gateway::{Fleet, GatewayConfig};
use mosaic_service::protocol::Response;
use mosaic_service::server::ServiceConfig;
use mosaic_service::Client;
use photomosaic::{JobResult, Json};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{Inputs, Job, Kind, Payload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Attempts per job on a typed refusal before it counts as failed.
const ATTEMPTS: usize = 5;
/// First backend port of each candidate block (below the ephemeral
/// range, so no outgoing connection can hold one). Backend `i` listens
/// on `base + i`; the gateway's port is ephemeral because routing never
/// hashes it.
const PORT_BASES: [u16; 4] = [27310, 27330, 27350, 27370];
/// Share of a traced run spent measuring untraced latency, the
/// denominator of `trace.overhead_ratio`.
const TRACE_BASELINE_SHARE: f64 = 0.3;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <cold-paper|hot-upload|small-burst|library> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                );
            }
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(value.parse().unwrap_or_else(|_| usage("bad --seconds")));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                });
            }
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    let seconds: f64 = seconds.unwrap_or_else(|| usage("--seconds is required"));
    if seconds.is_nan() || seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    Args {
        kind: kind.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds,
        trace: trace.unwrap_or(false),
    }
}

/// The benchmark's own output directory.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn fail(problem: &str) -> ! {
    eprintln!("perfbench: {problem}");
    std::process::exit(1);
}

/// Boot the workload's fleet with backend `i` on `127.0.0.1:base+i`.
fn boot(kind: Kind, base: u16) -> std::io::Result<Fleet> {
    let backends = (0..kind.backends())
        .map(|i| ServiceConfig {
            addr: format!("127.0.0.1:{}", base as usize + i),
            workers: kind.workers(),
            ..ServiceConfig::default()
        })
        .collect();
    Fleet::start(backends, GatewayConfig::default())
}

fn backend_addrs(fleet: &Fleet) -> Vec<String> {
    (0..fleet.backend_count())
        .map(|i| fleet.backend_addr(i).to_string())
        .collect()
}

/// A booted, warmed fleet and the inputs it serves.
struct Bench {
    fleet: Fleet,
    inputs: Inputs,
    port_base: u16,
    /// Seconds of each set-up: boot + warm-up.
    setup_s: Vec<f64>,
    /// Seconds of the one store ingest (`library` only, else 0).
    ingest_s: f64,
}

/// Boot and warm `reps` times, keeping the last fleet up. Input
/// generation is the benchmark's work, not the system's, so it is left
/// out of the set-up time. So is the `library` store ingest, done once
/// before the first warm-up: creating its 1024 small files costs from
/// 25 to 650 µs a file on a shared host as the filesystem's state
/// swings, which would swamp every other part of set-up. It is timed on
/// its own and reported as `tilelib.ingest_us` by the traced run.
fn set_up(kind: Kind, seed: u64, reps: usize) -> Bench {
    let store_path = out_dir().join(format!("store-{}", kind.name()));
    let store_path = store_path.to_string_lossy().into_owned();
    let mut inputs: Option<(Inputs, Vec<Arc<Job>>)> = None;
    let mut running: Option<(Fleet, u16)> = None;
    let mut setup_s = Vec::with_capacity(reps);
    let mut ingest_s = 0.0;
    for _ in 0..reps.max(1) {
        let port_base = running.take().map(|(fleet, base)| {
            fleet.join();
            base
        });
        let started = Instant::now();
        let (fleet, base) = match port_base {
            Some(base) => (
                boot(kind, base).unwrap_or_else(|e| fail(&format!("fleet boot: {e}"))),
                base,
            ),
            None => PORT_BASES
                .iter()
                .find_map(|&base| boot(kind, base).ok().map(|fleet| (fleet, base)))
                .unwrap_or_else(|| fail("no free port block for the fleet")),
        };
        let booted = started.elapsed();
        let (inputs, warm_jobs) = inputs.get_or_insert_with(|| {
            let inputs = Inputs::build(kind, seed, &backend_addrs(&fleet), &store_path);
            if kind == Kind::Library {
                let started = Instant::now();
                inputs
                    .ingest()
                    .unwrap_or_else(|e| fail(&format!("store ingest: {e}")));
                ingest_s = started.elapsed().as_secs_f64();
            }
            let warm_jobs = inputs.warm_jobs();
            (inputs, warm_jobs)
        });
        let started = Instant::now();
        warm_up(&fleet, warm_jobs, inputs.tiles.len());
        setup_s.push((booted + started.elapsed()).as_secs_f64());
        running = Some((fleet, base));
    }
    let (fleet, port_base) = running.expect("at least one set-up ran");
    Bench {
        fleet,
        inputs: inputs.expect("the first set-up built the inputs").0,
        port_base,
        setup_s,
        ingest_s,
    }
}

fn warm_up(fleet: &Fleet, jobs: &[Arc<Job>], store_tiles: usize) {
    let mut client = Client::connect(fleet.gateway_addr())
        .unwrap_or_else(|e| fail(&format!("warm-up connect: {e}")));
    for job in jobs {
        let result = send(&mut client, job).unwrap_or_else(|e| fail(&format!("warm-up: {e}")));
        job.check(&result, store_tiles)
            .unwrap_or_else(|e| fail(&format!("warm-up reply: {e}")));
    }
}

/// Submit one job, retrying typed refusals, and decode the reply.
fn send(client: &mut Client, job: &Job) -> Result<JobResult, String> {
    for _ in 0..ATTEMPTS {
        let response = match &job.payload {
            Payload::Generate(spec) => client.submit(spec),
            Payload::Library(spec) => client.submit_library(spec),
        }
        .map_err(|e| format!("transport: {e}"))?;
        let retry_after_ms = match response {
            Response::Result { result } => return JobResult::from_json(&result),
            Response::Rejected { retry_after_ms }
            | Response::BackendDown { retry_after_ms, .. }
            | Response::NoBackendAvailable { retry_after_ms } => retry_after_ms,
            other => return Err(format!("unexpected reply {other:?}")),
        };
        std::thread::sleep(Duration::from_millis(retry_after_ms.max(1)));
    }
    Err(format!("refused {ATTEMPTS} times"))
}

/// One measured job.
struct Sample {
    /// Seconds since the measurement started, at the reply.
    done_s: f64,
    latency_ms: f64,
    /// The error per pixel of a reply that passed its check, or why the
    /// job failed.
    checked: Result<f64, String>,
    cache_hit: bool,
}

/// Drive the fleet with one closed-loop client per stream until
/// `seconds` have passed; returns every job's sample.
fn closed_loop(bench: &Bench, seconds: f64, stream_base: u64) -> Vec<Sample> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let addr = bench.fleet.gateway_addr();
    let inputs = &bench.inputs;
    std::thread::scope(|scope| {
        let lanes: Vec<_> = (0..inputs.kind.clients())
            .map(|lane| {
                scope.spawn(move || {
                    let mut stream = inputs.stream(stream_base + lane as u64);
                    let mut client = Client::connect(addr).ok();
                    let mut samples = Vec::new();
                    while Instant::now() < deadline {
                        let job = stream.next_job();
                        let sent = Instant::now();
                        let reply = match client.as_mut() {
                            Some(client) => send(client, &job),
                            None => Err("not connected".to_string()),
                        };
                        let latency = sent.elapsed();
                        if reply.is_err() {
                            // A broken connection must not fail every
                            // later job too.
                            client = Client::connect(addr).ok();
                        }
                        let cache_hit = reply.as_ref().is_ok_and(|r| {
                            r.report.get("cache_hit").and_then(Json::as_bool) == Some(true)
                        });
                        let checked = reply.and_then(|r| job.check(&r, inputs.tiles.len()));
                        samples.push(Sample {
                            done_s: start.elapsed().as_secs_f64(),
                            latency_ms: latency.as_secs_f64() * 1000.0,
                            checked,
                            cache_hit,
                        });
                    }
                    samples
                })
            })
            .collect();
        lanes
            .into_iter()
            .flat_map(|lane| lane.join().expect("client lanes do not panic"))
            .collect()
    })
}

/// End-to-end figures of one closed-loop run.
struct EndToEnd {
    latency: stats::Summary,
    throughput: f64,
    attempted: usize,
    failed: usize,
    error_per_pixel: f64,
    failures: Vec<String>,
}

fn end_to_end(samples: &[Sample]) -> EndToEnd {
    let ok: Vec<&Sample> = samples.iter().filter(|s| s.checked.is_ok()).collect();
    let latencies: Vec<f64> = ok.iter().map(|s| s.latency_ms).collect();
    let errors: Vec<f64> = ok
        .iter()
        .filter_map(|s| s.checked.as_ref().ok().copied())
        .collect();
    let window = samples.iter().map(|s| s.done_s).fold(0.0, f64::max);
    let failures: Vec<String> = samples
        .iter()
        .filter_map(|s| s.checked.as_ref().err().cloned())
        .collect();
    EndToEnd {
        latency: stats::summarize(&latencies),
        throughput: if window > 0.0 {
            ok.len() as f64 / window
        } else {
            0.0
        },
        attempted: samples.len(),
        failed: samples.len() - ok.len(),
        error_per_pixel: stats::summarize(&errors).mean,
        failures,
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time the hypervisor gave to other guests (`steal` in
/// `/proc/stat`), in seconds; recorded beside every run because it
/// moves every timing on a shared host.
fn cpu_steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?;
            cpu.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// The commit the benchmark was built from, when the source tree is a
/// git checkout.
fn git_rev() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |path: PathBuf| std::fs::read_to_string(path).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(git.join(reference)) {
        return rev.trim().to_string();
    }
    read(git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                line.strip_suffix(reference)
                    .map(|rev| rev.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn metadata(args: &Args, bench: &Bench) -> Json {
    let kind = args.kind;
    let simd = mosaic_grid::init_simd_kernels();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let addrs: Vec<Json> = backend_addrs(&bench.fleet)
        .iter()
        .map(|a| Json::from(a.as_str()))
        .collect();
    Json::obj([
        ("workload", Json::from(kind.name())),
        ("seed", Json::Str(args.seed.to_string())),
        ("run_seconds", Json::from(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("git_rev", Json::Str(git_rev())),
        ("simd", Json::from(simd.name())),
        ("nproc", Json::from(nproc)),
        (
            "topology",
            Json::Str(format!(
                "gateway -> {} backend(s) x {} worker(s), {} closed-loop client(s)",
                kind.backends(),
                kind.workers(),
                kind.clients()
            )),
        ),
        ("backend_workers", Json::from(kind.workers())),
        ("backend_pool_threads", Json::from(kind.workers())),
        (
            "process_pool_threads",
            Json::from(mosaic_pool::global().threads()),
        ),
        ("backend_addrs", Json::Arr(addrs)),
        ("port_base", Json::from(u64::from(bench.port_base))),
        (
            "hot_specs_per_backend",
            Json::Arr(
                bench
                    .inputs
                    .hot_owners
                    .iter()
                    .map(|&n| Json::from(n))
                    .collect(),
            ),
        ),
        ("store_ingest_s", Json::from(bench.ingest_s)),
        (
            "setup_reps_s",
            Json::Arr(bench.setup_s.iter().map(|&s| Json::from(s)).collect()),
        ),
    ])
}

/// A named metric value with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn emit(
    args: &Args,
    meta: Json,
    detail: Json,
    steal_s: f64,
    metrics: &[Metric],
    attempted: usize,
    failed: usize,
) {
    for m in metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let metrics_json = Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
                )
            })
            .collect(),
    );
    let record = Json::obj([
        ("meta", meta),
        ("detail", detail),
        ("cpu_steal_s", Json::from(steal_s)),
        ("metrics", metrics_json.clone()),
    ]);
    let path = out_dir().join(format!(
        "{}-seed{}-trace{}.json",
        args.kind.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, record.encode() + "\n") {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    let result = Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", metrics_json),
    ]);
    println!("{}", result.encode());
}

fn main() {
    let args = parse_args();
    std::fs::create_dir_all(out_dir())
        .unwrap_or_else(|e| fail(&format!("create {}: {e}", out_dir().display())));
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let bench = set_up(args.kind, args.seed, reps);
    let meta = metadata(&args, &bench);
    eprintln!("perfbench: {}", meta.encode());
    let steal_before = cpu_steal_s();

    let (metrics, detail, attempted, failed) = if args.trace {
        trace::run(
            &bench,
            args.seconds * TRACE_BASELINE_SHARE,
            args.seconds * (1.0 - TRACE_BASELINE_SHARE),
            args.seed,
        )
    } else {
        let samples = closed_loop(&bench, args.seconds, 0);
        let e2e = end_to_end(&samples);
        for problem in e2e.failures.iter().take(5) {
            eprintln!("perfbench: failed job: {problem}");
        }
        let metrics = vec![
            Metric {
                name: "job_p50_ms",
                value: e2e.latency.p50,
                unit: "ms",
            },
            Metric {
                name: "job_p90_ms",
                value: e2e.latency.p90,
                unit: "ms",
            },
            Metric {
                name: "throughput_jobs_per_s",
                value: e2e.throughput,
                unit: "1/s",
            },
            Metric {
                name: "ok_ratio",
                value: (e2e.attempted - e2e.failed) as f64 / e2e.attempted.max(1) as f64,
                unit: "ratio",
            },
            Metric {
                name: "error_per_pixel",
                value: e2e.error_per_pixel,
                unit: "sad/px",
            },
            Metric {
                name: "setup_s",
                value: stats::median(&bench.setup_s),
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss_mb(),
                unit: "MiB",
            },
        ];
        let detail = Json::obj([
            ("latency_ms", e2e.latency.to_json()),
            ("setup_s", stats::summarize(&bench.setup_s).to_json()),
            (
                "samples_ms",
                Json::Arr(samples.iter().map(|s| Json::from(s.latency_ms)).collect()),
            ),
        ]);
        (metrics, detail, e2e.attempted, e2e.failed)
    };
    let Bench { fleet, inputs, .. } = bench;
    fleet.join();
    if inputs.kind == Kind::Library {
        let _ = std::fs::remove_dir_all(&inputs.library.store_path);
    }
    let steal_s = cpu_steal_s() - steal_before;
    emit(&args, meta, detail, steal_s, &metrics, attempted, failed);
}
