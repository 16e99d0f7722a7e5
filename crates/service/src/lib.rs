//! A std-only batch mosaic server.
//!
//! Turns the library pipeline into a long-running service: clients
//! submit [`JobSpec`](photomosaic::JobSpec)s over a line-delimited JSON
//! TCP protocol ([`protocol`]), a bounded [`queue`] applies backpressure
//! (full queue → reject with a retry-after hint), a fixed worker pool
//! executes jobs, and an LRU [`cache`] reuses Step-2 error matrices
//! across submissions of the same content. [`metrics`] aggregates
//! per-job and lifetime counters, served by the `stats` request.
//!
//! Everything is `std`: `std::net` sockets, `std::thread` workers,
//! `std::sync::mpsc` replies — no external dependencies, matching the
//! offline-buildable workspace. Client sockets belong to the
//! [`frontend`], which `mosaic-gateway` runs too, with its own
//! [`frontend::Handler`]. On linux/x86_64 it is an event-driven epoll
//! readiness loop ([`FrontEnd`]), built on a thin audited raw-syscall
//! shim (the crate's only `unsafe`, confined to the `epoll` module);
//! everywhere else the thread-per-connection loop, which is also the
//! differential oracle, serves.
//!
//! # Example
//!
//! ```
//! use mosaic_service::client::Client;
//! use mosaic_service::protocol::Response;
//! use mosaic_service::server::{Server, ServiceConfig};
//! use mosaic_image::synth::Scene;
//! use photomosaic::{Backend, ImageSource, JobSpec, MosaicBuilder};
//!
//! let server = Server::start(ServiceConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//!
//! let spec = JobSpec {
//!     input: ImageSource::Synth { scene: Scene::Portrait, size: 16, seed: 1 },
//!     target: ImageSource::Synth { scene: Scene::Regatta, size: 16, seed: 2 },
//!     config: MosaicBuilder::new().grid(4).backend(Backend::Serial).build(),
//! };
//! let response = client.submit(&spec).unwrap();
//! assert!(matches!(response, Response::Result { .. }));
//!
//! client.shutdown().unwrap();
//! server.join();
//! ```

// `deny`, not `forbid`: the epoll shim below carries the crate's only
// audited `unsafe` (raw syscalls), scoped by an explicit module-level
// allow; everything else in the crate still refuses unsafe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[allow(unsafe_code)]
mod epoll;
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod event_loop;
pub mod fault;
pub mod frontend;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod server;

pub use cache::{CacheStats, MatrixCache};
pub use client::{run_load, Client, LoadSummary};
pub use fault::{
    disconnect_mid_frame, probe_oversized_frame, stalled_connection_is_closed, FaultPlan,
};
pub use frontend::FrontEnd;
pub use metrics::{ConnectionMetrics, ServiceMetrics};
pub use protocol::{ReadError, Request, Response};
pub use queue::{JobQueue, PushError};
pub use server::{Server, ServiceConfig};
