//! Gateway metrics, reported by the `stats` request (JSON) and the
//! `metrics` request (Prometheus text).
//!
//! Same discipline as `mosaic_service::metrics`: a private
//! `mosaic_telemetry::Registry` per gateway (integration tests run
//! several in one process), interned `Arc` handles so the hot routing
//! path records with relaxed atomics and never touches the registry
//! lock.

use mosaic_service::metrics::{summary_json, ConnectionMetrics};
use mosaic_service::protocol::kinds;
use mosaic_telemetry::{Counter, Histogram, Registry};
use photomosaic::Json;
use std::sync::Arc;
use std::time::Duration;

/// Counters and the routing-latency histogram across the gateway's
/// lifetime.
pub struct GatewayMetrics {
    registry: Registry,
    routed: Arc<Counter>,
    failovers: Arc<Counter>,
    rejected: Arc<Counter>,
    probe_failures: Arc<Counter>,
    connections: ConnectionMetrics,
    route_us: Arc<Histogram>,
}

impl Default for GatewayMetrics {
    fn default() -> Self {
        let registry = Registry::new();
        GatewayMetrics {
            routed: registry.counter("gateway_jobs_routed_total"),
            failovers: registry.counter("gateway_failovers_total"),
            rejected: registry.counter("gateway_jobs_rejected_total"),
            probe_failures: registry.counter("gateway_probe_failures_total"),
            connections: ConnectionMetrics::new(
                &registry,
                [
                    "gateway_frames_too_large_total",
                    "gateway_connections_timed_out_total",
                    "gateway_connections_rejected_total",
                    "gateway_connections_open",
                    "gateway_io_loop_wakeups_total",
                ],
            ),
            route_us: registry.histogram("gateway_route_us"),
            registry,
        }
    }
}

impl GatewayMetrics {
    /// Fresh zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// A job was routed to a backend and answered; `elapsed` covers
    /// request receipt through backend response, failover hops included.
    pub fn job_routed(&self, elapsed: Duration) {
        self.routed.inc();
        self.route_us.record_duration_us(elapsed);
    }

    /// A job moved on to the next rendezvous choice after its current
    /// backend failed or rejected it.
    pub fn failover(&self) {
        self.failovers.inc();
    }

    /// A job was answered with a typed refusal (`rejected`,
    /// `backend_down`, or `no_backend_available`).
    pub fn job_refused(&self) {
        self.rejected.inc();
    }

    /// A health probe could not reach its backend.
    pub fn probe_failed(&self) {
        self.probe_failures.inc();
    }

    /// The counters the gateway's connection front-end records.
    pub fn connections(&self) -> &ConnectionMetrics {
        &self.connections
    }

    /// Snapshot as the gateway's `stats` payload. The occupancy —
    /// routable backends, all backends, open client connections — is
    /// sampled by the caller, which owns the health cells and connections.
    pub fn snapshot(&self, occupancy: (usize, usize, usize)) -> Json {
        let (backends_healthy, backends_total, connections_open) = occupancy;
        Json::obj([
            (
                "jobs",
                Json::obj([
                    ("routed", Json::from(self.routed.get())),
                    ("failovers", Json::from(self.failovers.get())),
                    (kinds::REJECTED, Json::from(self.rejected.get())),
                ]),
            ),
            (
                "backends",
                Json::obj([
                    ("healthy", Json::from(backends_healthy)),
                    ("total", Json::from(backends_total)),
                ]),
            ),
            ("route_us", summary_json(self.route_us.summary())),
            (
                "hardening",
                Json::obj(
                    [("probe_failures", Json::from(self.probe_failures.get()))]
                        .into_iter()
                        .chain(self.connections.hardening()),
                ),
            ),
            ("io_loop", self.connections.io_loop(connections_open)),
        ])
    }

    /// Prometheus text exposition, with the caller-sampled occupancy
    /// (as for [`snapshot`](Self::snapshot)) folded in as gauges.
    pub fn prometheus(&self, occupancy: (usize, usize, usize)) -> String {
        let (backends_healthy, backends_total, connections_open) = occupancy;
        self.connections.set_open(connections_open);
        self.registry
            .gauge("gateway_backends_healthy")
            .set(backends_healthy as i64);
        self.registry
            .gauge("gateway_backends_total")
            .set(backends_total as i64);
        mosaic_telemetry::prometheus(&self.registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_counters_flow_into_snapshot() {
        let m = GatewayMetrics::new();
        m.job_routed(Duration::from_micros(150));
        m.job_routed(Duration::from_micros(250));
        m.failover();
        m.job_refused();
        m.probe_failed();

        let snap = m.snapshot((2, 3, 4));
        let jobs = snap.get("jobs").unwrap();
        assert_eq!(jobs.get("routed").unwrap().as_u64(), Some(2));
        assert_eq!(jobs.get("failovers").unwrap().as_u64(), Some(1));
        assert_eq!(jobs.get("rejected").unwrap().as_u64(), Some(1));
        let backends = snap.get("backends").unwrap();
        assert_eq!(backends.get("healthy").unwrap().as_u64(), Some(2));
        assert_eq!(backends.get("total").unwrap().as_u64(), Some(3));
        let route = snap.get("route_us").unwrap();
        assert_eq!(route.get("count").unwrap().as_u64(), Some(2));
        assert_eq!(route.get("sum").unwrap().as_u64(), Some(400));
        let hardening = snap.get("hardening").unwrap();
        assert_eq!(hardening.get("probe_failures").unwrap().as_u64(), Some(1));
        for key in [
            "frames_too_large",
            "connections_timed_out",
            "connections_rejected",
        ] {
            assert_eq!(hardening.get(key).unwrap().as_u64(), Some(0), "{key}");
        }
        let io_loop = snap.get("io_loop").unwrap();
        assert_eq!(io_loop.get("connections_open").unwrap().as_u64(), Some(4));
        assert_eq!(io_loop.get("wakeups").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn prometheus_exposes_all_gateway_metrics() {
        let m = GatewayMetrics::new();
        m.job_routed(Duration::from_micros(64));
        m.failover();
        m.job_refused();
        m.probe_failed();
        let text = m.prometheus((1, 2, 3));
        assert!(text.contains("# TYPE gateway_jobs_routed_total counter"));
        assert!(text.contains("gateway_jobs_routed_total 1\n"));
        assert!(text.contains("gateway_failovers_total 1\n"));
        assert!(text.contains("gateway_jobs_rejected_total 1\n"));
        assert!(text.contains("gateway_probe_failures_total 1\n"));
        // The front-end records these; the differential suite drives
        // them through a live gateway.
        assert!(text.contains("gateway_frames_too_large_total 0\n"));
        assert!(text.contains("gateway_connections_timed_out_total 0\n"));
        assert!(text.contains("gateway_connections_rejected_total 0\n"));
        assert!(text.contains("gateway_connections_open 3\n"));
        assert!(text.contains("gateway_io_loop_wakeups_total 0\n"));
        assert!(text.contains("# TYPE gateway_route_us histogram"));
        assert!(text.contains("gateway_route_us_sum 64\n"));
        assert!(text.contains("gateway_backends_healthy 1\n"));
        assert!(text.contains("gateway_backends_total 2\n"));
    }

    #[test]
    fn two_instances_do_not_share_state() {
        let a = GatewayMetrics::new();
        let b = GatewayMetrics::new();
        a.job_routed(Duration::from_micros(10));
        let snap = b.snapshot((0, 0, 0));
        assert_eq!(
            snap.get("jobs").unwrap().get("routed").unwrap().as_u64(),
            Some(0)
        );
    }
}
