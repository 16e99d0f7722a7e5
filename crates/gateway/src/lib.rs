//! A std-only sharded routing tier in front of a `mosaic-service`
//! fleet.
//!
//! The gateway speaks the existing line-JSON protocol on both sides:
//! clients connect to it exactly as they would to a single server, and
//! it forwards each job to one of N backends, proxying the response
//! back unchanged. Routing uses rendezvous (HRW) hashing on the job's
//! canonical cache key, so identical specs always land on the same
//! backend and its error-matrix `MatrixCache` keeps serving Step 2 —
//! the same affinity argument that makes the single-server cache
//! effective, extended across a fleet. A per-backend health state
//! machine (Healthy → Suspect → Down → probing recovery) driven by
//! connect/IO failures and periodic `stats` probes keeps dead backends
//! out of the routing order, and failover replays a job on its next
//! rendezvous choice up to a hop limit — safe because jobs are pure
//! functions of their spec.
//!
//! # Example
//!
//! ```
//! use mosaic_gateway::{Fleet, GatewayConfig};
//! use mosaic_service::client::Client;
//! use mosaic_service::protocol::Response;
//! use mosaic_service::server::ServiceConfig;
//! use mosaic_image::synth::Scene;
//! use photomosaic::{Backend, ImageSource, JobSpec, MosaicBuilder};
//!
//! let fleet = Fleet::start(
//!     vec![ServiceConfig::default(), ServiceConfig::default()],
//!     GatewayConfig::default(),
//! )
//! .unwrap();
//!
//! let spec = JobSpec {
//!     input: ImageSource::Synth { scene: Scene::Portrait, size: 16, seed: 1 },
//!     target: ImageSource::Synth { scene: Scene::Regatta, size: 16, seed: 2 },
//!     config: MosaicBuilder::new().grid(4).backend(Backend::Serial).build(),
//! };
//! let mut client = Client::connect(fleet.gateway_addr()).unwrap();
//! let response = client.submit(&spec).unwrap();
//! assert!(matches!(response, Response::Result { .. }));
//!
//! fleet.join();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;
pub mod gateway;
pub mod health;
pub mod metrics;
pub mod routing;

pub use fleet::{Fleet, FleetCacheStats};
pub use gateway::{Gateway, GatewayConfig};
pub use health::{BackendState, HealthCell};
pub use metrics::GatewayMetrics;
pub use routing::{backend_seed, hrw_score, rendezvous_order};
