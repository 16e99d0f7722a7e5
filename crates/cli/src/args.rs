//! Argument parsing for the `mosaic` binary.
//!
//! A small `--flag value` parser: subcommand first, then any number of
//! flag/value pairs (plus positional paths for `compare`/`info`).
//! Unknown flags, missing values and out-of-range numbers are reported
//! with precise messages.

use mosaic_assign::SolverKind;
use mosaic_gateway::GatewayConfig;
use mosaic_grid::TileMetric;
use mosaic_service::protocol::{ops, Request};
use mosaic_service::ServiceConfig;
use mosaic_tilelib::{LibraryParams, TilelibError};
use photomosaic::{Algorithm, Backend, Preprocess};
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

/// User-facing CLI failure.
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<mosaic_image::ImageError> for CliError {
    fn from(e: mosaic_image::ImageError) -> Self {
        CliError(format!("image error: {e}"))
    }
}

impl From<mosaic_grid::LayoutError> for CliError {
    fn from(e: mosaic_grid::LayoutError) -> Self {
        CliError(format!("layout error: {e}"))
    }
}

impl From<TilelibError> for CliError {
    fn from(e: TilelibError) -> Self {
        CliError(format!("tile library error: {e}"))
    }
}

/// A fully parsed command.
#[derive(Debug, Clone)]
pub enum Command {
    /// `mosaic generate`.
    Generate {
        /// Input image path.
        input: String,
        /// Target image path.
        target: String,
        /// Output path.
        out: String,
        /// Pipeline configuration.
        config: photomosaic::MosaicConfig,
        /// Optional path for a JSON trace/metrics dump of the run.
        trace_out: Option<String>,
    },
    /// `mosaic generate --library`: compose the target from a tile
    /// store instead of rearranging its own subimages.
    Library {
        /// Target image path.
        target: String,
        /// Tile-store root directory.
        store: String,
        /// Output path.
        out: String,
        /// Clustered-pruning parameters.
        params: LibraryParams,
    },
    /// `mosaic ingest` — add a directory of images to a tile store.
    Ingest {
        /// Tile-store root directory (created when absent).
        store: String,
        /// Directory of `.pgm`/`.ppm` files to ingest.
        from: String,
        /// Tile edge length for a newly created store.
        tile: usize,
    },
    /// `mosaic synth`.
    Synth {
        /// Scene name.
        scene: mosaic_image::synth::Scene,
        /// Image edge length.
        size: usize,
        /// PRNG seed.
        seed: u64,
        /// Output path.
        out: String,
    },
    /// `mosaic serve` — run the batch mosaic server.
    Serve(ServiceConfig),
    /// `mosaic gateway` — route jobs across an existing backend fleet.
    Gateway(GatewayConfig),
    /// `mosaic fleet` — spin up N backends plus a gateway in one process.
    Fleet {
        /// One config per backend server.
        backends: Vec<ServiceConfig>,
        /// The gateway in front of them; [`Fleet::start`] fills in its
        /// backend list.
        ///
        /// [`Fleet::start`]: mosaic_gateway::Fleet::start
        gateway: GatewayConfig,
    },
    /// `mosaic submit` — talk to a running server.
    Submit {
        /// Server address.
        addr: String,
        /// What to do once connected.
        action: SubmitAction,
    },
    /// `mosaic compare a b`.
    Compare {
        /// First image.
        a: String,
        /// Second image.
        b: String,
    },
    /// `mosaic info image`.
    Info {
        /// Image path.
        path: String,
    },
    /// `mosaic help`.
    Help,
}

/// An image argument for `mosaic submit`: a PGM file (shipped as literal
/// pixels) or a synthetic scene recipe (shipped as three scalars).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageArg {
    /// Load this PGM file and send its pixels.
    Path(String),
    /// Let the server render this scene.
    Scene {
        /// Scene role.
        scene: mosaic_image::synth::Scene,
        /// Render seed.
        seed: u64,
    },
}

/// The operation `mosaic submit` performs.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitAction {
    /// Submit one job (or a load-generation batch of identical jobs).
    Job {
        /// Input image.
        input: ImageArg,
        /// Target image.
        target: ImageArg,
        /// Edge length for scene rendering.
        size: usize,
        /// Pipeline configuration.
        config: photomosaic::MosaicConfig,
        /// Number of copies to submit (load generation when > 1).
        jobs: usize,
        /// Concurrent connections for load generation.
        connections: usize,
    },
    /// Submit one library job against a tile store on the server's host.
    Library {
        /// Target image.
        target: ImageArg,
        /// Edge length for scene rendering.
        size: usize,
        /// Tile-store root directory on the server's host.
        store: String,
        /// Clustered-pruning parameters.
        params: LibraryParams,
    },
    /// A control op (`stats`, `metrics`, `ping`, `gateway`, `shutdown`),
    /// sent as its wire request.
    Control(Request),
}

struct Flags {
    values: BTreeMap<String, String>,
    positional: Vec<String>,
}

fn split_flags(argv: &[String]) -> Result<Flags, CliError> {
    let mut values = BTreeMap::new();
    let mut positional = Vec::new();
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        if let Some(name) = arg.strip_prefix("--") {
            let value = it
                .next()
                .ok_or_else(|| CliError(format!("flag --{name} is missing its value")))?;
            if values.insert(name.to_string(), value.clone()).is_some() {
                return Err(CliError(format!("flag --{name} given twice")));
            }
        } else {
            positional.push(arg.clone());
        }
    }
    Ok(Flags { values, positional })
}

impl Flags {
    fn require(&self, name: &str) -> Result<&str, CliError> {
        self.values
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| CliError(format!("missing required flag --{name}")))
    }

    fn optional(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// Overwrite `into` with `--name`'s value when the flag is given.
    fn set<T: FromStr>(&self, name: &str, into: &mut T) -> Result<(), CliError> {
        if let Some(v) = self.optional(name) {
            *into = v
                .parse()
                .map_err(|_| CliError(format!("--{name} expects a number, got {v:?}")))?;
        }
        Ok(())
    }

    fn number(&self, name: &str, default: usize) -> Result<usize, CliError> {
        let mut value = default;
        self.set(name, &mut value)?;
        Ok(value)
    }

    /// [`number`](Self::number), rejecting 0.
    fn positive(&self, name: &str, default: usize) -> Result<usize, CliError> {
        match self.number(name, default)? {
            0 => Err(CliError(format!("--{name} must be positive"))),
            n => Ok(n),
        }
    }

    fn check_known(&self, known: &[&str]) -> Result<(), CliError> {
        for key in self.values.keys() {
            if !known.contains(&key.as_str()) {
                return Err(CliError(format!("unknown flag --{key}")));
            }
        }
        Ok(())
    }
}

fn parse_metric(v: &str) -> Result<TileMetric, CliError> {
    match v {
        "sad" => Ok(TileMetric::Sad),
        "ssd" => Ok(TileMetric::Ssd),
        "mean" | "mean-abs" => Ok(TileMetric::MeanAbs),
        other => Err(CliError(format!(
            "--metric expects sad|ssd|mean, got {other:?}"
        ))),
    }
}

fn parse_scene(v: &str) -> Result<mosaic_image::synth::Scene, CliError> {
    mosaic_image::synth::Scene::ALL
        .into_iter()
        .find(|s| s.name() == v)
        .ok_or_else(|| {
            CliError(format!(
                "--scene expects portrait|regatta|fur|drapery|plasma|checker, got {v:?}"
            ))
        })
}

/// Shared pipeline-configuration flags (`generate` and `submit`).
fn parse_config(flags: &Flags) -> Result<photomosaic::MosaicConfig, CliError> {
    let algorithm = match flags.optional("algorithm").unwrap_or("parallel") {
        "optimal" => Algorithm::Optimal(SolverKind::JonkerVolgenant),
        "local" | "local-search" => Algorithm::LocalSearch,
        "parallel" | "parallel-search" => Algorithm::ParallelSearch,
        "greedy" => Algorithm::Greedy,
        other => {
            return Err(CliError(format!(
                "--algorithm expects optimal|local|parallel|greedy, got {other:?}"
            )))
        }
    };
    let backend = match flags.optional("backend").unwrap_or("gpu") {
        "serial" => Backend::Serial,
        "threads" => Backend::Threads(flags.number("threads", 0)?.max(1)),
        "gpu" | "gpu-sim" => Backend::GpuSim { workers: None },
        other => {
            return Err(CliError(format!(
                "--backend expects serial|threads|gpu, got {other:?}"
            )))
        }
    };
    let preprocess = match flags.optional("preprocess").unwrap_or("match") {
        "match" | "match-target" => Preprocess::MatchTarget,
        "equalize" => Preprocess::Equalize,
        "none" => Preprocess::None,
        other => {
            return Err(CliError(format!(
                "--preprocess expects match|equalize|none, got {other:?}"
            )))
        }
    };
    let metric = match flags.optional("metric") {
        Some(v) => parse_metric(v)?,
        None => TileMetric::Sad,
    };
    let grid = flags.positive("grid", 32)?;
    Ok(photomosaic::MosaicBuilder::new()
        .grid(grid)
        .metric(metric)
        .algorithm(algorithm)
        .backend(backend)
        .preprocess(preprocess)
        .build())
}

/// Clustered-pruning flags shared by `generate --library` and
/// `submit --op library`. Defaults mirror [`LibraryParams::default`].
fn parse_library_params(flags: &Flags) -> Result<LibraryParams, CliError> {
    let defaults = LibraryParams::default();
    let params = LibraryParams {
        grid: flags.number("grid", defaults.grid)?,
        clusters: flags.number("clusters", defaults.clusters)?,
        top_clusters: flags.number("top-clusters", defaults.top_clusters)?,
        feature_grid: flags.number("feature-grid", defaults.feature_grid)?,
        seed: flags.number("seed", defaults.seed as usize)? as u64,
        metric: match flags.optional("metric") {
            Some(v) => parse_metric(v)?,
            None => defaults.metric,
        },
    };
    params.validate()?;
    Ok(params)
}

/// The library-specific flag names accepted by [`parse_library_params`]
/// (grid/metric are shared with the generate pipeline flags).
const LIBRARY_FLAGS: [&str; 4] = ["clusters", "top-clusters", "feature-grid", "seed"];

/// The pipeline-configuration flag names accepted by [`parse_config`].
const CONFIG_FLAGS: [&str; 6] = [
    "grid",
    "algorithm",
    "backend",
    "metric",
    "preprocess",
    "threads",
];

/// One `submit` image argument: `--<role>` (a PGM path) or
/// `--<role>-scene` (+ optional `--<role>-seed`).
fn parse_image_arg(flags: &Flags, role: &str) -> Result<ImageArg, CliError> {
    let path = flags.optional(role);
    let scene = flags.optional(&format!("{role}-scene"));
    match (path, scene) {
        (Some(p), None) => Ok(ImageArg::Path(p.to_string())),
        (None, Some(s)) => Ok(ImageArg::Scene {
            scene: parse_scene(s)?,
            seed: flags.number(&format!("{role}-seed"), 1)? as u64,
        }),
        (Some(_), Some(_)) => Err(CliError(format!(
            "--{role} and --{role}-scene are mutually exclusive"
        ))),
        (None, None) => Err(CliError(format!(
            "submit needs --{role} <pgm> or --{role}-scene <name>"
        ))),
    }
}

/// Where `gateway` and `fleet` listen unless `--addr` says otherwise.
const GATEWAY_ADDR: &str = "127.0.0.1:7744";

/// The connection-listener flags `serve` and `gateway` share.
const LISTENER_FLAGS: [&str; 5] = [
    "addr",
    "retry-ms",
    "max-frame-bytes",
    "io-timeout-ms",
    "max-connections",
];

/// Apply the [`LISTENER_FLAGS`] to the fields of the config being built;
/// a flag left out keeps that config's value.
fn parse_listener(
    flags: &Flags,
    addr: &mut String,
    retry_after_ms: &mut u64,
    max_frame_bytes: &mut usize,
    io_timeout_ms: &mut u64,
    max_connections: &mut usize,
) -> Result<(), CliError> {
    flags.set("addr", addr)?;
    flags.set("retry-ms", retry_after_ms)?;
    flags.set("max-frame-bytes", max_frame_bytes)?;
    flags.set("io-timeout-ms", io_timeout_ms)?;
    flags.set("max-connections", max_connections)
}

/// The backend flags `serve` and `fleet` share: `--workers` (floored at
/// one), `--queue` (positive) and `--cache`.
fn parse_workers(flags: &Flags, config: &mut ServiceConfig) -> Result<(), CliError> {
    flags.set("workers", &mut config.workers)?;
    config.workers = config.workers.max(1);
    config.queue_capacity = flags.positive("queue", config.queue_capacity)?;
    flags.set("cache", &mut config.cache_capacity)
}

/// Parse a full argument vector (without the program name).
///
/// # Errors
/// Returns a [`CliError`] describing the first problem found.
pub fn parse(argv: &[String]) -> Result<Command, CliError> {
    let Some((sub, rest)) = argv.split_first() else {
        return Ok(Command::Help);
    };
    match sub.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "generate" => {
            let flags = split_flags(rest)?;
            let mut known = vec!["input", "target", "out", "trace-out", ops::LIBRARY];
            known.extend(CONFIG_FLAGS);
            known.extend(LIBRARY_FLAGS);
            flags.check_known(&known)?;
            // `--library <store>` switches to tile-library composition:
            // the cells come from the store, so there is no `--input`.
            if let Some(store) = flags.optional(ops::LIBRARY) {
                if flags.optional("input").is_some() {
                    return Err(CliError(
                        "--input and --library are mutually exclusive \
                         (the library supplies the tiles)"
                            .into(),
                    ));
                }
                return Ok(Command::Library {
                    target: flags.require("target")?.to_string(),
                    store: store.to_string(),
                    out: flags.require("out")?.to_string(),
                    params: parse_library_params(&flags)?,
                });
            }
            let config = parse_config(&flags)?;
            Ok(Command::Generate {
                input: flags.require("input")?.to_string(),
                target: flags.require("target")?.to_string(),
                out: flags.require("out")?.to_string(),
                config,
                trace_out: flags.optional("trace-out").map(str::to_string),
            })
        }
        "ingest" => {
            let flags = split_flags(rest)?;
            flags.check_known(&["store", "from", "tile"])?;
            let tile = flags.positive("tile", 16)?;
            Ok(Command::Ingest {
                store: flags.require("store")?.to_string(),
                from: flags.require("from")?.to_string(),
                tile,
            })
        }
        "serve" => {
            let flags = split_flags(rest)?;
            let mut known = vec!["workers", "queue", "cache", "job-deadline-ms"];
            known.extend(LISTENER_FLAGS);
            flags.check_known(&known)?;
            let mut config = ServiceConfig {
                addr: "127.0.0.1:7733".to_string(),
                workers: std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(2),
                ..ServiceConfig::default()
            };
            parse_listener(
                &flags,
                &mut config.addr,
                &mut config.retry_after_ms,
                &mut config.max_frame_bytes,
                &mut config.io_timeout_ms,
                &mut config.max_connections,
            )?;
            parse_workers(&flags, &mut config)?;
            flags.set("job-deadline-ms", &mut config.job_deadline_ms)?;
            Ok(Command::Serve(config))
        }
        ops::GATEWAY => {
            let flags = split_flags(rest)?;
            let mut known = vec!["backends", "backend-timeout-ms", "hops", "probe-ms"];
            known.extend(LISTENER_FLAGS);
            flags.check_known(&known)?;
            let backends: Vec<String> = flags
                .require("backends")?
                .split(',')
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect();
            if backends.is_empty() {
                return Err(CliError("--backends expects at least one host:port".into()));
            }
            let mut config = GatewayConfig {
                addr: GATEWAY_ADDR.to_string(),
                backends,
                ..GatewayConfig::default()
            };
            parse_listener(
                &flags,
                &mut config.addr,
                &mut config.retry_after_ms,
                &mut config.max_frame_bytes,
                &mut config.io_timeout_ms,
                &mut config.max_connections,
            )?;
            flags.set("backend-timeout-ms", &mut config.backend_timeout_ms)?;
            flags.set("hops", &mut config.max_hops)?;
            config.max_hops = config.max_hops.max(1);
            flags.set("probe-ms", &mut config.probe_interval_ms)?;
            Ok(Command::Gateway(config))
        }
        "fleet" => {
            let flags = split_flags(rest)?;
            flags.check_known(&["addr", "backends", "workers", "queue", "cache"])?;
            let count = flags.positive("backends", 2)?;
            let mut backend = ServiceConfig::default();
            parse_workers(&flags, &mut backend)?;
            let mut gateway = GatewayConfig {
                addr: GATEWAY_ADDR.to_string(),
                ..GatewayConfig::default()
            };
            flags.set("addr", &mut gateway.addr)?;
            Ok(Command::Fleet {
                backends: vec![backend; count],
                gateway,
            })
        }
        ops::SUBMIT => {
            let flags = split_flags(rest)?;
            let op = flags.optional("op").unwrap_or("job");
            let addr = flags.require("addr")?.to_string();
            match op {
                // The `--op` control words are the wire ops themselves.
                ops::STATS | ops::METRICS | ops::PING | ops::GATEWAY | ops::SHUTDOWN => {
                    flags.check_known(&["addr", "op"])?;
                    let request = match op {
                        ops::STATS => Request::Stats,
                        ops::METRICS => Request::Metrics,
                        ops::PING => Request::Ping,
                        ops::GATEWAY => Request::GatewayInfo,
                        _ => Request::Shutdown,
                    };
                    Ok(Command::Submit {
                        addr,
                        action: SubmitAction::Control(request),
                    })
                }
                ops::LIBRARY => {
                    let mut known = vec![
                        "addr",
                        "op",
                        "target",
                        "target-scene",
                        "target-seed",
                        "size",
                        "store",
                        "grid",
                        "metric",
                    ];
                    known.extend(LIBRARY_FLAGS);
                    flags.check_known(&known)?;
                    let size = flags.positive("size", 256)?;
                    Ok(Command::Submit {
                        addr,
                        action: SubmitAction::Library {
                            target: parse_image_arg(&flags, "target")?,
                            size,
                            store: flags.require("store")?.to_string(),
                            params: parse_library_params(&flags)?,
                        },
                    })
                }
                "job" => {
                    let mut known = vec![
                        "addr",
                        "op",
                        "input",
                        "target",
                        "input-scene",
                        "target-scene",
                        "input-seed",
                        "target-seed",
                        "size",
                        "jobs",
                        "connections",
                    ];
                    known.extend(CONFIG_FLAGS);
                    flags.check_known(&known)?;
                    let size = flags.positive("size", 256)?;
                    Ok(Command::Submit {
                        addr,
                        action: SubmitAction::Job {
                            input: parse_image_arg(&flags, "input")?,
                            target: parse_image_arg(&flags, "target")?,
                            size,
                            config: parse_config(&flags)?,
                            jobs: flags.number("jobs", 1)?.max(1),
                            connections: flags.number("connections", 4)?.max(1),
                        },
                    })
                }
                other => Err(CliError(format!(
                    "--op expects job|library|stats|metrics|ping|gateway|shutdown, got {other:?}"
                ))),
            }
        }
        "synth" => {
            let flags = split_flags(rest)?;
            flags.check_known(&["scene", "size", "seed", "out"])?;
            let scene = parse_scene(flags.require("scene")?)?;
            let size = flags.positive("size", 512)?;
            Ok(Command::Synth {
                scene,
                size,
                seed: flags.number("seed", 1)? as u64,
                out: flags.require("out")?.to_string(),
            })
        }
        "compare" => {
            let flags = split_flags(rest)?;
            flags.check_known(&[])?;
            let [a, b] = flags.positional.as_slice() else {
                return Err(CliError("compare expects exactly two image paths".into()));
            };
            Ok(Command::Compare {
                a: a.clone(),
                b: b.clone(),
            })
        }
        "info" => {
            let flags = split_flags(rest)?;
            flags.check_known(&[])?;
            let [path] = flags.positional.as_slice() else {
                return Err(CliError("info expects exactly one image path".into()));
            };
            Ok(Command::Info { path: path.clone() })
        }
        other => Err(CliError(format!(
            "unknown subcommand {other:?} (try `mosaic help`)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn empty_and_help() {
        assert!(matches!(parse(&[]).unwrap(), Command::Help));
        assert!(matches!(parse(&argv("help")).unwrap(), Command::Help));
        assert!(matches!(parse(&argv("--help")).unwrap(), Command::Help));
    }

    #[test]
    fn generate_defaults() {
        let cmd = parse(&argv("generate --input a.pgm --target b.pgm --out c.pgm")).unwrap();
        let Command::Generate { config, input, .. } = cmd else {
            panic!("wrong command");
        };
        assert_eq!(input, "a.pgm");
        assert_eq!(config.grid, 32);
        assert_eq!(config.algorithm, Algorithm::ParallelSearch);
        assert_eq!(config.preprocess, Preprocess::MatchTarget);
    }

    #[test]
    fn generate_full_flags() {
        let cmd = parse(&argv(
            "generate --input a --target b --out c --grid 64 --algorithm optimal \
             --backend threads --threads 4 --metric ssd --preprocess none",
        ))
        .unwrap();
        let Command::Generate { config, .. } = cmd else {
            panic!("wrong command");
        };
        assert_eq!(config.grid, 64);
        assert_eq!(
            config.algorithm,
            Algorithm::Optimal(SolverKind::JonkerVolgenant)
        );
        assert_eq!(config.backend, Backend::Threads(4));
        assert_eq!(config.metric, TileMetric::Ssd);
        assert_eq!(config.preprocess, Preprocess::None);
    }

    #[test]
    fn generate_trace_out_is_optional() {
        let cmd = parse(&argv("generate --input a --target b --out c")).unwrap();
        let Command::Generate { trace_out, .. } = cmd else {
            panic!("wrong command");
        };
        assert_eq!(trace_out, None);
        let cmd = parse(&argv(
            "generate --input a --target b --out c --trace-out t.json",
        ))
        .unwrap();
        let Command::Generate { trace_out, .. } = cmd else {
            panic!("wrong command");
        };
        assert_eq!(trace_out.as_deref(), Some("t.json"));
    }

    #[test]
    fn generate_rejects_removed_step3_flags() {
        for removed in [
            "--algorithm anneal",
            "--algorithm optimal --solver hungarian",
            "--sweeps 3",
        ] {
            let line = format!("generate --input a --target b --out c {removed}");
            assert!(parse(&argv(&line)).is_err(), "{removed} was accepted");
        }
    }

    #[test]
    fn generate_missing_required_flag() {
        let err = parse(&argv("generate --input a --out c")).unwrap_err();
        assert!(err.to_string().contains("--target"));
    }

    #[test]
    fn unknown_flag_and_subcommand_rejected() {
        assert!(
            parse(&argv("generate --input a --target b --out c --bogus 1"))
                .unwrap_err()
                .to_string()
                .contains("--bogus")
        );
        assert!(parse(&argv("frobnicate"))
            .unwrap_err()
            .to_string()
            .contains("frobnicate"));
    }

    #[test]
    fn flag_without_value_rejected() {
        let err = parse(&argv("generate --input")).unwrap_err();
        assert!(err.to_string().contains("missing its value"));
    }

    #[test]
    fn duplicate_flag_rejected() {
        let err = parse(&argv("synth --scene fur --scene fur --out x")).unwrap_err();
        assert!(err.to_string().contains("twice"));
    }

    #[test]
    fn synth_parses_scene() {
        let cmd = parse(&argv("synth --scene regatta --size 64 --out x.pgm")).unwrap();
        let Command::Synth {
            scene, size, seed, ..
        } = cmd
        else {
            panic!("wrong command");
        };
        assert_eq!(scene.name(), "regatta");
        assert_eq!(size, 64);
        assert_eq!(seed, 1);
        assert!(parse(&argv("synth --scene nope --out x")).is_err());
    }

    #[test]
    fn compare_and_info_take_positionals() {
        let Command::Compare { a, b } = parse(&argv("compare a.pgm b.pgm")).unwrap() else {
            panic!("wrong command");
        };
        assert_eq!((a.as_str(), b.as_str()), ("a.pgm", "b.pgm"));
        assert!(parse(&argv("compare a.pgm")).is_err());
        let Command::Info { path } = parse(&argv("info a.pgm")).unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(path, "a.pgm");
        assert!(parse(&argv("info")).is_err());
    }

    #[test]
    fn serve_defaults_and_flags() {
        let Command::Serve(config) = parse(&argv("serve")).unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(config.addr, "127.0.0.1:7733");
        assert!(config.workers >= 1);
        assert_eq!(
            (
                config.queue_capacity,
                config.cache_capacity,
                config.retry_after_ms
            ),
            (16, 8, 50)
        );
        assert_eq!(config.max_frame_bytes, 16 * 1024 * 1024);
        assert_eq!(config.io_timeout_ms, 30_000);
        assert_eq!(config.max_connections, 64);
        assert_eq!(config.job_deadline_ms, 60_000);

        let Command::Serve(config) = parse(&argv(
            "serve --addr 0.0.0.0:9000 --workers 3 --queue 4 --cache 2 --retry-ms 10 \
             --max-frame-bytes 1024 --io-timeout-ms 500 --max-connections 2 \
             --job-deadline-ms 750",
        ))
        .unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(config.addr, "0.0.0.0:9000");
        assert_eq!(
            (
                config.workers,
                config.queue_capacity,
                config.cache_capacity,
                config.retry_after_ms
            ),
            (3, 4, 2, 10)
        );
        assert_eq!(
            (
                config.max_frame_bytes,
                config.io_timeout_ms,
                config.max_connections,
                config.job_deadline_ms
            ),
            (1024, 500, 2, 750),
        );
        // The platform picks the front-end; there is no flag for it.
        assert!(parse(&argv("serve --front-end threaded")).is_err());
        assert!(parse(&argv("serve --queue 0")).is_err());
        assert!(parse(&argv("serve --port 1")).is_err());
    }

    #[test]
    fn serve_hardening_zero_means_unlimited() {
        let Command::Serve(config) = parse(&argv(
            "serve --max-frame-bytes 0 --io-timeout-ms 0 --max-connections 0 \
             --job-deadline-ms 0",
        ))
        .unwrap() else {
            panic!("wrong command");
        };
        // 0 is the documented "off" value for every hardening knob.
        assert_eq!(
            (
                config.max_frame_bytes,
                config.io_timeout_ms,
                config.max_connections,
                config.job_deadline_ms
            ),
            (0, 0, 0, 0),
        );
    }

    #[test]
    fn submit_job_with_paths() {
        let cmd = parse(&argv(
            "submit --addr 127.0.0.1:7733 --input a.pgm --target b.pgm --grid 8 \
             --backend serial --jobs 6 --connections 3",
        ))
        .unwrap();
        let Command::Submit {
            addr,
            action:
                SubmitAction::Job {
                    input,
                    target,
                    config,
                    jobs,
                    connections,
                    ..
                },
        } = cmd
        else {
            panic!("wrong command");
        };
        assert_eq!(addr, "127.0.0.1:7733");
        assert_eq!(input, ImageArg::Path("a.pgm".into()));
        assert_eq!(target, ImageArg::Path("b.pgm".into()));
        assert_eq!(config.grid, 8);
        assert_eq!(config.backend, Backend::Serial);
        assert_eq!((jobs, connections), (6, 3));
    }

    #[test]
    fn submit_job_with_scenes() {
        let cmd = parse(&argv(
            "submit --addr h:1 --input-scene fur --input-seed 5 --target-scene plasma --size 64",
        ))
        .unwrap();
        let Command::Submit {
            action:
                SubmitAction::Job {
                    input,
                    target,
                    size,
                    ..
                },
            ..
        } = cmd
        else {
            panic!("wrong command");
        };
        let ImageArg::Scene { scene, seed } = input else {
            panic!("wrong input arg");
        };
        assert_eq!((scene.name(), seed), ("fur", 5));
        let ImageArg::Scene { scene, seed } = target else {
            panic!("wrong target arg");
        };
        assert_eq!((scene.name(), seed), ("plasma", 1));
        assert_eq!(size, 64);
    }

    #[test]
    fn gateway_defaults_and_flags() {
        let Command::Gateway(config) = parse(&argv("gateway --backends 127.0.0.1:7733")).unwrap()
        else {
            panic!("wrong command");
        };
        assert_eq!(config.addr, "127.0.0.1:7744");
        assert_eq!(config.backends, vec!["127.0.0.1:7733"]);
        assert_eq!(
            (config.retry_after_ms, config.max_frame_bytes),
            (50, 16 * 1024 * 1024)
        );
        assert_eq!(
            (config.io_timeout_ms, config.backend_timeout_ms),
            (30_000, 10_000)
        );
        assert_eq!(
            (
                config.max_connections,
                config.max_hops,
                config.probe_interval_ms
            ),
            (64, 2, 500)
        );

        let Command::Gateway(config) = parse(&argv(
            "gateway --backends h:1,h:2,h:3 --hops 3 --probe-ms 100",
        ))
        .unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(config.backends, vec!["h:1", "h:2", "h:3"]);
        assert_eq!((config.max_hops, config.probe_interval_ms), (3, 100));

        // The listener flags are the ones `serve` takes.
        let Command::Gateway(config) = parse(&argv(
            "gateway --backends h:1 --addr 0.0.0.0:9001 --retry-ms 7 --max-frame-bytes 99 \
             --io-timeout-ms 11 --max-connections 5 --backend-timeout-ms 13",
        ))
        .unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(config.addr, "0.0.0.0:9001");
        assert_eq!(
            (
                config.retry_after_ms,
                config.max_frame_bytes,
                config.io_timeout_ms,
                config.max_connections,
                config.backend_timeout_ms
            ),
            (7, 99, 11, 5, 13)
        );

        // Backends are required, routing is always rendezvous (there is
        // no --policy), and --hops is floored at one.
        assert!(parse(&argv("gateway")).is_err());
        assert!(parse(&argv("gateway --backends ,")).is_err());
        assert!(parse(&argv("gateway --backends h:1 --policy rendezvous")).is_err());
        let Command::Gateway(config) = parse(&argv("gateway --backends h:1 --hops 0")).unwrap()
        else {
            panic!("wrong command");
        };
        assert_eq!(config.max_hops, 1);
    }

    #[test]
    fn fleet_defaults_and_flags() {
        let Command::Fleet { backends, gateway } = parse(&argv("fleet")).unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(gateway.addr, "127.0.0.1:7744");
        assert_eq!(backends.len(), 2);
        for backend in &backends {
            assert_eq!(
                (
                    backend.workers,
                    backend.queue_capacity,
                    backend.cache_capacity
                ),
                (2, 16, 8)
            );
        }

        let Command::Fleet { backends, .. } =
            parse(&argv("fleet --backends 4 --workers 1")).unwrap()
        else {
            panic!("wrong command");
        };
        assert_eq!(backends.len(), 4);
        assert!(backends.iter().all(|b| b.workers == 1));
        assert!(parse(&argv("fleet --policy rendezvous")).is_err());

        assert!(parse(&argv("fleet --backends 0")).is_err());
        assert!(parse(&argv("fleet --queue 0")).is_err());
        assert!(parse(&argv("fleet --bogus 1")).is_err());
    }

    #[test]
    fn submit_control_ops_and_errors() {
        let ops = [
            ("stats", Request::Stats),
            ("metrics", Request::Metrics),
            ("ping", Request::Ping),
            ("gateway", Request::GatewayInfo),
            ("shutdown", Request::Shutdown),
        ];
        for (name, expected) in ops {
            let cmd = parse(&argv(&format!("submit --addr h:1 --op {name}"))).unwrap();
            let Command::Submit { addr, action } = cmd else {
                panic!("wrong command");
            };
            assert_eq!(addr, "h:1");
            assert_eq!(action, SubmitAction::Control(expected));
        }
        // Missing address, unknown op, image-source conflicts.
        assert!(parse(&argv("submit --op ping")).is_err());
        assert!(parse(&argv("submit --addr h:1 --op frob")).is_err());
        assert!(parse(&argv("submit --addr h:1")).is_err());
        assert!(parse(&argv(
            "submit --addr h:1 --input a.pgm --input-scene fur --target b.pgm"
        ))
        .is_err());
        assert!(parse(&argv("submit --addr h:1 --op stats --jobs 2")).is_err());
    }

    #[test]
    fn generate_library_parses_params() {
        let cmd = parse(&argv(
            "generate --library /tiles --target t.pgm --out m.pgm --grid 8 \
             --clusters 16 --top-clusters 2 --feature-grid 3 --seed 7 --metric ssd",
        ))
        .unwrap();
        let Command::Library {
            target,
            store,
            out,
            params,
        } = cmd
        else {
            panic!("wrong command");
        };
        assert_eq!(
            (target.as_str(), store.as_str(), out.as_str()),
            ("t.pgm", "/tiles", "m.pgm")
        );
        assert_eq!(
            params,
            LibraryParams {
                grid: 8,
                clusters: 16,
                top_clusters: 2,
                feature_grid: 3,
                seed: 7,
                metric: TileMetric::Ssd,
            }
        );
    }

    #[test]
    fn generate_library_defaults_and_conflicts() {
        let cmd = parse(&argv("generate --library /tiles --target t --out m")).unwrap();
        let Command::Library { params, .. } = cmd else {
            panic!("wrong command");
        };
        assert_eq!(params, LibraryParams::default());
        // The library supplies the tiles, so --input is contradictory.
        let err = parse(&argv(
            "generate --library /tiles --input a --target t --out m",
        ))
        .unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"), "{err}");
        // Zero knobs are rejected up front.
        assert!(parse(&argv(
            "generate --library /t --target t --out m --clusters 0"
        ))
        .is_err());
        assert!(parse(&argv(
            "generate --library /t --target t --out m --top-clusters 0"
        ))
        .is_err());
    }

    #[test]
    fn ingest_parses_store_from_and_tile() {
        let Command::Ingest { store, from, tile } =
            parse(&argv("ingest --store /tiles --from /photos --tile 8")).unwrap()
        else {
            panic!("wrong command");
        };
        assert_eq!(
            (store.as_str(), from.as_str(), tile),
            ("/tiles", "/photos", 8)
        );
        let Command::Ingest { tile, .. } =
            parse(&argv("ingest --store /tiles --from /photos")).unwrap()
        else {
            panic!("wrong command");
        };
        assert_eq!(tile, 16, "default tile edge");
        assert!(parse(&argv("ingest --from /photos")).is_err());
        assert!(parse(&argv("ingest --store /tiles")).is_err());
        assert!(parse(&argv("ingest --store /tiles --from /photos --tile 0")).is_err());
    }

    #[test]
    fn submit_library_op_parses() {
        let cmd = parse(&argv(
            "submit --addr h:1 --op library --target-scene plasma --size 64 \
             --store /tiles --grid 4 --clusters 8",
        ))
        .unwrap();
        let Command::Submit {
            action:
                SubmitAction::Library {
                    target,
                    size,
                    store,
                    params,
                },
            ..
        } = cmd
        else {
            panic!("wrong command");
        };
        let ImageArg::Scene { scene, seed } = target else {
            panic!("wrong target arg");
        };
        assert_eq!((scene.name(), seed), ("plasma", 1));
        assert_eq!((size, store.as_str()), (64, "/tiles"));
        assert_eq!((params.grid, params.clusters), (4, 8));
        // The store is required, and generation-only flags are unknown here.
        assert!(parse(&argv(
            "submit --addr h:1 --op library --target-scene plasma"
        ))
        .is_err());
        assert!(parse(&argv(
            "submit --addr h:1 --op library --target-scene plasma --store /t --jobs 2"
        ))
        .is_err());
    }

    #[test]
    fn bad_numbers_rejected() {
        assert!(parse(&argv("generate --input a --target b --out c --grid zero")).is_err());
        assert!(parse(&argv("generate --input a --target b --out c --grid 0")).is_err());
        assert!(parse(&argv("synth --scene fur --size 0 --out x")).is_err());
        assert!(parse(&argv(
            "generate --input a --target b --out c --algorithm sparse"
        ))
        .is_err());
        assert!(parse(&argv("database --target t --donors a --tile 8 --out m")).is_err());
    }
}
