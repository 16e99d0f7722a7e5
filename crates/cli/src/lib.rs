//! Implementation of the `mosaic` command-line tool.
//!
//! The binary wraps the `photomosaic` library for shell use:
//!
//! ```text
//! mosaic generate --input in.pgm --target tgt.pgm --out mosaic.pgm [options]
//! mosaic generate --library tiles/ --target tgt.pgm --out mosaic.pgm [options]
//! mosaic ingest   --store tiles/ --from photos/ --tile 16
//! mosaic synth    --scene portrait --size 512 --seed 1 --out scene.pgm
//! mosaic serve    --addr 127.0.0.1:7733 --workers 4 --queue 16 --cache 8
//! mosaic gateway  --backends 127.0.0.1:7733,127.0.0.1:7734 [options]
//! mosaic fleet    --backends 2 --workers 4 [options]
//! mosaic submit   --addr 127.0.0.1:7733 --input in.pgm --target tgt.pgm [options]
//! mosaic compare  a.pgm b.pgm
//! mosaic info     image.pgm
//! ```
//!
//! Argument parsing is hand-rolled (the workspace's dependency policy
//! keeps external crates to the approved offline list); see [`args`].
//! `serve`, `gateway` and `fleet` parse straight into the `ServiceConfig`
//! and `GatewayConfig` they start, from those structs' own defaults; the
//! CLI owns only the listen addresses and `serve --workers`. `submit`'s
//! control ops go out as their wire `Request`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;

pub use args::{CliError, Command};

/// Parse arguments and run the selected command.
///
/// # Errors
/// Returns a [`CliError`] carrying a user-facing message.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let command = args::parse(argv)?;
    commands::execute(command)
}

/// Usage text shown by `mosaic help` and on argument errors.
pub const USAGE: &str = "\
mosaic — photomosaic generation by rearranging subimages

USAGE:
  mosaic generate --input <pgm> --target <pgm> --out <pgm>
                  [--grid <n>] [--algorithm optimal|local|parallel|greedy]
                  [--backend serial|threads|gpu] [--metric sad|ssd|mean]
                  [--preprocess match|equalize|none] [--trace-out <path>]
  mosaic generate --library <store> --target <pgm> --out <pgm>
                  [--grid <n>] [--clusters <n>] [--top-clusters <n>]
                  [--feature-grid <n>] [--seed <n>] [--metric sad|ssd|mean]
  mosaic ingest   --store <dir> --from <dir> [--tile <n>]
  mosaic synth    --scene portrait|regatta|fur|drapery|plasma|checker
                  --size <n> --out <pgm> [--seed <n>]
  mosaic serve    [--addr <host:port>] [--workers <n>] [--queue <n>]
                  [--cache <n>] [--retry-ms <n>] [--max-frame-bytes <n>]
                  [--io-timeout-ms <n>] [--max-connections <n>]
                  [--job-deadline-ms <n>]
  mosaic gateway  --backends <host:port,host:port,...> [--addr <host:port>]
                  [--hops <n>] [--probe-ms <n>]
                  [--retry-ms <n>] [--max-frame-bytes <n>] [--io-timeout-ms <n>]
                  [--backend-timeout-ms <n>] [--max-connections <n>]
  mosaic fleet    [--backends <n>] [--addr <host:port>] [--workers <n>]
                  [--queue <n>] [--cache <n>]
  mosaic submit   --addr <host:port>
                  [--op job|library|stats|metrics|ping|gateway|shutdown]
                  job: --input <pgm> | --input-scene <name> [--input-seed <n>]
                       --target <pgm> | --target-scene <name> [--target-seed <n>]
                       [--size <n>] [--jobs <n>] [--connections <n>]
                       [+ the generate pipeline options]
                  library: --store <dir> on the server's host
                       --target <pgm> | --target-scene <name> [--target-seed <n>]
                       [--size <n>] [+ the generate --library options]
  mosaic compare  <a.pgm> <b.pgm>
  mosaic info     <image.pgm>
  mosaic help

serve runs the batch mosaic server: a bounded job queue feeding a fixed
worker pool, with an LRU cache that reuses Step-2 error matrices across
jobs with identical content. --workers also sizes the server's shared
compute pool (persistent threads that the matrix builds and swap
sweeps of every job dispatch onto). Hardening knobs (0 disables each):
--max-frame-bytes caps a request line, --io-timeout-ms bounds socket
reads/writes, --max-connections caps concurrent clients, and
--job-deadline-ms cancels jobs that run too long. On linux/x86_64 one
event-driven epoll thread owns every client socket, so idle connections
cost no threads; elsewhere each connection gets a thread. gateway and
fleet run the same connection front-end. submit talks to it over
line-delimited JSON; --jobs > 1 turns it into a load generator.
--op metrics fetches a Prometheus-style text exposition of server
counters and histograms; generate --trace-out writes a JSON span trace
plus metric summaries.

ingest builds a content-addressed tile store: every .pgm/.ppm under
--from is resized to the store's tile edge and written once, keyed by
the SHA-256 of its canonical pixels, so re-ingesting the same images is
a no-op by hash. generate --library composes the target from such a
store instead of rearranging its own subimages: tiles are clustered by
k-means over low-res block-mean features, each cell searches only its
--top-clusters nearest clusters, and the pruned candidate set is solved
exactly as a rectangular sparse assignment. submit --op library runs
the same pipeline on a server that shares the store's filesystem.

gateway fronts a fleet of serve processes: jobs are routed by
rendezvous hashing on their canonical spec key (identical specs reuse
one backend's error-matrix cache), dead backends are detected by a
health state machine plus periodic probes, and jobs fail over to the
next rendezvous choice up to --hops backends. fleet starts N backends
plus a gateway in one process for local experiments. --op gateway asks
a gateway for its routing table and per-backend health.
";
