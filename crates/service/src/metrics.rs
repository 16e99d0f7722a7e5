//! Aggregate service metrics, reported by the `stats` request (JSON)
//! and the `metrics` request (Prometheus text).
//!
//! Backed by a private `mosaic_telemetry::Registry` — private so that
//! several servers in one process (the integration tests run them in
//! parallel) never share counters. The `stats` wire shape predates the
//! registry and is kept bit-compatible; the registry additionally
//! enables the Prometheus exposition and latency percentiles for free.

use crate::cache::CacheStats;
use crate::protocol::kinds;
use mosaic_telemetry::{Counter, Gauge, Histogram, HistogramSummary, Registry};
use photomosaic::{GenerationReport, Json};
use std::sync::Arc;
use std::time::Duration;

/// Counters and latency histograms across the server's lifetime.
pub struct ServiceMetrics {
    registry: Registry,
    submitted: Arc<Counter>,
    completed: Arc<Counter>,
    rejected: Arc<Counter>,
    failed: Arc<Counter>,
    in_flight: Arc<Gauge>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    store_hits: Arc<Counter>,
    store_misses: Arc<Counter>,
    clustering_hits: Arc<Counter>,
    clustering_misses: Arc<Counter>,
    queue_wait_us: Arc<Histogram>,
    step1_us: Arc<Histogram>,
    step2_us: Arc<Histogram>,
    step3_us: Arc<Histogram>,
    deadline_exceeded: Arc<Counter>,
    /// What the connection front-end records.
    pub(crate) connections: ConnectionMetrics,
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        let registry = Registry::new();
        ServiceMetrics {
            submitted: registry.counter("service_jobs_submitted_total"),
            completed: registry.counter("service_jobs_completed_total"),
            rejected: registry.counter("service_jobs_rejected_total"),
            failed: registry.counter("service_jobs_failed_total"),
            in_flight: registry.gauge("service_jobs_in_flight"),
            cache_hits: registry.counter("service_cache_hits_total"),
            cache_misses: registry.counter("service_cache_misses_total"),
            store_hits: registry.counter("service_store_cache_hits_total"),
            store_misses: registry.counter("service_store_cache_misses_total"),
            clustering_hits: registry.counter("service_clustering_cache_hits_total"),
            clustering_misses: registry.counter("service_clustering_cache_misses_total"),
            queue_wait_us: registry.histogram("service_queue_wait_us"),
            step1_us: registry.histogram("service_step1_us"),
            step2_us: registry.histogram("service_step2_us"),
            step3_us: registry.histogram("service_step3_us"),
            deadline_exceeded: registry.counter("service_jobs_deadline_exceeded_total"),
            connections: ConnectionMetrics::new(
                &registry,
                [
                    "service_frames_too_large_total",
                    "service_connections_timed_out_total",
                    "service_connections_rejected_total",
                    "service_connections_open",
                    "service_io_loop_wakeups_total",
                ],
            ),
            registry,
        }
    }
}

impl ServiceMetrics {
    /// Fresh zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// A job was accepted into the queue.
    pub fn job_submitted(&self) {
        self.submitted.inc();
    }

    /// A job was refused because the queue was full.
    pub fn job_rejected(&self) {
        self.rejected.inc();
    }

    /// A worker picked a job up after waiting `queue_wait` in the queue.
    pub fn job_started(&self, queue_wait: Duration) {
        self.in_flight.add(1);
        self.queue_wait_us.record_duration_us(queue_wait);
    }

    /// A job finished successfully; fold its step timings in.
    pub fn job_completed(&self, report: &GenerationReport) {
        self.in_flight.add(-1);
        self.completed.inc();
        self.step1_us.record_duration_us(report.step1_wall);
        self.step2_us.record_duration_us(report.step2_wall);
        self.step3_us.record_duration_us(report.step3_wall);
    }

    /// A library job finished successfully. No step timings here — the
    /// tilelib stages record their own `tilelib_*` histograms.
    pub fn library_job_completed(&self) {
        self.in_flight.add(-1);
        self.completed.inc();
    }

    /// A job failed after being picked up.
    pub fn job_failed(&self) {
        self.in_flight.add(-1);
        self.failed.inc();
    }

    /// A job ran past its deadline and was cancelled at the next work
    /// boundary.
    pub fn job_deadline_exceeded(&self) {
        self.in_flight.add(-1);
        self.deadline_exceeded.inc();
    }

    /// A Step-2 matrix cache lookup resolved as a hit or a miss.
    pub fn cache_lookup(&self, hit: bool) {
        count_lookup(hit, &self.cache_hits, &self.cache_misses);
    }

    /// A library job found its tile store's verified contents warm
    /// (`hit`) or loaded them.
    pub fn store_lookup(&self, hit: bool) {
        count_lookup(hit, &self.store_hits, &self.store_misses);
    }

    /// A library job found its k-means clustering warm (`hit`) or
    /// computed it.
    pub fn clustering_lookup(&self, hit: bool) {
        count_lookup(hit, &self.clustering_hits, &self.clustering_misses);
    }

    /// Jobs currently being executed by workers.
    pub fn in_flight(&self) -> u64 {
        self.in_flight.get().max(0) as u64
    }

    /// Snapshot as the `stats` response payload. `queue_len`/`capacity`,
    /// `connections_open` and the cache counters are sampled by the
    /// caller so this module stays independent of the queue, gate and
    /// cache types.
    pub fn snapshot(
        &self,
        workers: usize,
        queue_len: usize,
        queue_capacity: usize,
        connections_open: usize,
        cache: CacheStats,
        cache_capacity: usize,
    ) -> Json {
        // Totals were recorded as integer microseconds, so dividing by
        // 1000 keeps millisecond totals exact for µs-granular inputs.
        let sum_ms = |h: &Histogram| Json::from(h.sum() as f64 / 1000.0);
        Json::obj([
            ("workers", Json::from(workers)),
            (
                "jobs",
                Json::obj([
                    ("submitted", Json::from(self.submitted.get())),
                    ("completed", Json::from(self.completed.get())),
                    (kinds::REJECTED, Json::from(self.rejected.get())),
                    ("failed", Json::from(self.failed.get())),
                    ("in_flight", Json::from(self.in_flight())),
                ]),
            ),
            (
                "queue",
                Json::obj([
                    ("length", Json::from(queue_len)),
                    ("capacity", Json::from(queue_capacity)),
                    ("wait_ms_total", sum_ms(&self.queue_wait_us)),
                    ("wait_us", summary_json(self.queue_wait_us.summary())),
                ]),
            ),
            (
                "cache",
                Json::obj([
                    ("hits", Json::from(cache.hits)),
                    ("misses", Json::from(cache.misses)),
                    ("entries", Json::from(cache.entries)),
                    ("capacity", Json::from(cache_capacity)),
                ]),
            ),
            (
                "walls",
                Json::obj([
                    ("step1_ms_total", sum_ms(&self.step1_us)),
                    ("step2_ms_total", sum_ms(&self.step2_us)),
                    ("step3_ms_total", sum_ms(&self.step3_us)),
                ]),
            ),
            (
                "hardening",
                Json::obj(self.connections.hardening().into_iter().chain([(
                    kinds::DEADLINE_EXCEEDED,
                    Json::from(self.deadline_exceeded.get()),
                )])),
            ),
            ("io_loop", self.connections.io_loop(connections_open)),
        ])
    }

    /// Prometheus text exposition of every service metric, with the
    /// caller-sampled queue and cache occupancy folded in as gauges.
    pub fn prometheus(
        &self,
        workers: usize,
        queue_len: usize,
        queue_capacity: usize,
        connections_open: usize,
        cache: CacheStats,
        cache_capacity: usize,
    ) -> String {
        self.connections.set_open(connections_open);
        self.registry.gauge("service_workers").set(workers as i64);
        self.registry
            .gauge("service_queue_length")
            .set(queue_len as i64);
        self.registry
            .gauge("service_queue_capacity")
            .set(queue_capacity as i64);
        self.registry
            .gauge("service_cache_entries")
            .set(cache.entries as i64);
        self.registry
            .gauge("service_cache_capacity")
            .set(cache_capacity as i64);
        mosaic_telemetry::prometheus(&self.registry)
    }
}

/// The counters every connection front-end records, interned in the
/// owning binary's registry under that binary's own names. Clones share
/// the counters, so the front-end records into the same handles the
/// binary's `stats` and `metrics` ops read.
#[derive(Clone)]
pub struct ConnectionMetrics {
    /// Connections that sent a frame over `max_frame_bytes`.
    pub(crate) frames_too_large: Arc<Counter>,
    /// Connections dropped idle past the socket deadline.
    pub(crate) timed_out: Arc<Counter>,
    /// Connections refused at the `max_connections` cap.
    pub(crate) rejected: Arc<Counter>,
    open: Arc<Gauge>,
    /// `epoll_wait` returns; idle connections must not add any.
    pub(crate) wakeups: Arc<Counter>,
}

impl ConnectionMetrics {
    /// Intern the five metrics in `registry` under `names`, in order:
    /// the frames-too-large, timed-out and rejected connection counters,
    /// the open-connection gauge, and the io-loop wakeup counter.
    pub fn new(registry: &Registry, names: [&str; 5]) -> ConnectionMetrics {
        let [frames_too_large, timed_out, rejected, open, wakeups] = names;
        ConnectionMetrics {
            frames_too_large: registry.counter(frames_too_large),
            timed_out: registry.counter(timed_out),
            rejected: registry.counter(rejected),
            open: registry.gauge(open),
            wakeups: registry.counter(wakeups),
        }
    }

    /// Sample the open-connection count into its gauge.
    pub fn set_open(&self, open: usize) {
        self.open.set(open as i64);
    }

    /// The `stats` op's `hardening` entries the front-end owns.
    pub fn hardening(&self) -> [(&'static str, Json); 3] {
        [
            ("frames_too_large", Json::from(self.frames_too_large.get())),
            ("connections_timed_out", Json::from(self.timed_out.get())),
            ("connections_rejected", Json::from(self.rejected.get())),
        ]
    }

    /// The `stats` op's `io_loop` section, sampling `open` into the gauge.
    pub fn io_loop(&self, open: usize) -> Json {
        self.set_open(open);
        Json::obj([
            ("connections_open", Json::from(open)),
            ("wakeups", Json::from(self.wakeups.get())),
        ])
    }
}

fn count_lookup(hit: bool, hits: &Counter, misses: &Counter) {
    if hit {
        hits.inc();
    } else {
        misses.inc();
    }
}

/// A histogram summary as the `stats` op reports it.
pub fn summary_json(s: HistogramSummary) -> Json {
    Json::obj([
        ("count", Json::from(s.count)),
        ("sum", Json::from(s.sum)),
        ("min", Json::from(s.min)),
        ("max", Json::from(s.max)),
        ("p50", Json::from(s.p50)),
        ("p90", Json::from(s.p90)),
        ("p99", Json::from(s.p99)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use photomosaic::MosaicBuilder;

    fn report(step2_ms: u64) -> GenerationReport {
        GenerationReport {
            config: MosaicBuilder::new().grid(2).build(),
            image_size: 8,
            tile_count: 4,
            tile_size: 4,
            total_error: 1,
            sweeps: 1,
            swaps: 0,
            step1_wall: Duration::from_millis(1),
            step2_wall: Duration::from_millis(step2_ms),
            step3_wall: Duration::from_millis(2),
            step2_profile: Default::default(),
            step3_profile: Default::default(),
        }
    }

    #[test]
    fn lifecycle_counters() {
        let m = ServiceMetrics::new();
        m.job_submitted();
        m.job_submitted();
        m.job_rejected();
        m.job_started(Duration::from_millis(10));
        assert_eq!(m.in_flight(), 1);
        m.job_completed(&report(5));
        assert_eq!(m.in_flight(), 0);
        m.job_started(Duration::from_millis(20));
        m.job_failed();
        assert_eq!(m.in_flight(), 0);
        assert_eq!(m.rejected.get(), 1);

        let snap = m.snapshot(3, 1, 8, 0, CacheStats::default(), 4);
        let jobs = snap.get("jobs").unwrap();
        assert_eq!(jobs.get("submitted").unwrap().as_u64(), Some(2));
        assert_eq!(jobs.get("completed").unwrap().as_u64(), Some(1));
        assert_eq!(jobs.get("rejected").unwrap().as_u64(), Some(1));
        assert_eq!(jobs.get("failed").unwrap().as_u64(), Some(1));
        assert_eq!(jobs.get("in_flight").unwrap().as_u64(), Some(0));
        let queue = snap.get("queue").unwrap();
        assert_eq!(queue.get("capacity").unwrap().as_u64(), Some(8));
        assert_eq!(queue.get("wait_ms_total").unwrap().as_f64(), Some(30.0));
        let walls = snap.get("walls").unwrap();
        assert_eq!(walls.get("step2_ms_total").unwrap().as_f64(), Some(5.0));
        assert_eq!(snap.get("workers").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn snapshot_reflects_cache_counters() {
        let m = ServiceMetrics::new();
        let cache = CacheStats {
            hits: 7,
            misses: 3,
            entries: 2,
        };
        let snap = m.snapshot(1, 0, 4, 0, cache, 16);
        let c = snap.get("cache").unwrap();
        assert_eq!(c.get("hits").unwrap().as_u64(), Some(7));
        assert_eq!(c.get("misses").unwrap().as_u64(), Some(3));
        assert_eq!(c.get("entries").unwrap().as_u64(), Some(2));
        assert_eq!(c.get("capacity").unwrap().as_u64(), Some(16));
    }

    #[test]
    fn snapshot_exposes_queue_wait_histogram() {
        let m = ServiceMetrics::new();
        m.job_started(Duration::from_micros(100));
        m.job_started(Duration::from_micros(200));
        let snap = m.snapshot(1, 0, 4, 0, CacheStats::default(), 4);
        let wait = snap.get("queue").unwrap().get("wait_us").unwrap();
        assert_eq!(wait.get("count").unwrap().as_u64(), Some(2));
        assert_eq!(wait.get("sum").unwrap().as_u64(), Some(300));
        assert_eq!(wait.get("min").unwrap().as_u64(), Some(100));
        assert_eq!(wait.get("max").unwrap().as_u64(), Some(200));
        // 200 µs lives in bucket [128, 255].
        assert_eq!(wait.get("p99").unwrap().as_u64(), Some(255));
    }

    #[test]
    fn prometheus_exposes_counters_and_histograms() {
        let m = ServiceMetrics::new();
        m.job_submitted();
        m.job_started(Duration::from_micros(64));
        m.job_completed(&report(5));
        m.cache_lookup(true);
        m.cache_lookup(false);
        let cache = CacheStats {
            hits: 1,
            misses: 1,
            entries: 1,
        };
        let text = m.prometheus(2, 0, 16, 5, cache, 8);
        assert!(text.contains("# TYPE service_jobs_submitted_total counter"));
        assert!(text.contains("service_jobs_submitted_total 1\n"));
        assert!(text.contains("service_jobs_completed_total 1\n"));
        assert!(text.contains("service_cache_hits_total 1\n"));
        assert!(text.contains("service_cache_misses_total 1\n"));
        assert!(text.contains("# TYPE service_queue_wait_us histogram"));
        assert!(text.contains("service_queue_wait_us_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("service_queue_wait_us_sum 64\n"));
        assert!(text.contains("service_workers 2\n"));
        assert!(text.contains("service_queue_capacity 16\n"));
        assert!(text.contains("service_cache_entries 1\n"));
    }

    #[test]
    fn hardening_counters_flow_into_snapshot_and_prometheus() {
        let m = ServiceMetrics::new();
        m.connections.frames_too_large.add(2);
        m.connections.timed_out.inc();
        m.connections.rejected.inc();
        m.job_started(Duration::from_micros(10));
        m.job_deadline_exceeded();
        assert_eq!(m.in_flight(), 0, "deadline expiry releases in-flight");

        let snap = m.snapshot(1, 0, 4, 0, CacheStats::default(), 4);
        let h = snap.get("hardening").unwrap();
        assert_eq!(h.get("frames_too_large").unwrap().as_u64(), Some(2));
        assert_eq!(h.get("connections_timed_out").unwrap().as_u64(), Some(1));
        assert_eq!(h.get("connections_rejected").unwrap().as_u64(), Some(1));
        assert_eq!(h.get("deadline_exceeded").unwrap().as_u64(), Some(1));

        let text = m.prometheus(1, 0, 4, 0, CacheStats::default(), 4);
        assert!(text.contains("service_frames_too_large_total 2\n"));
        assert!(text.contains("service_connections_timed_out_total 1\n"));
        assert!(text.contains("service_connections_rejected_total 1\n"));
        assert!(text.contains("service_jobs_deadline_exceeded_total 1\n"));
    }

    #[test]
    fn io_loop_telemetry_flows_into_snapshot_and_prometheus() {
        let m = ServiceMetrics::new();
        m.connections.wakeups.add(3);

        let snap = m.snapshot(1, 0, 4, 42, CacheStats::default(), 4);
        let io = snap.get("io_loop").unwrap();
        assert_eq!(io.get("connections_open").unwrap().as_u64(), Some(42));
        assert_eq!(io.get("wakeups").unwrap().as_u64(), Some(3));

        let text = m.prometheus(1, 0, 4, 42, CacheStats::default(), 4);
        assert!(text.contains("service_connections_open 42\n"));
        assert!(text.contains("service_io_loop_wakeups_total 3\n"));
    }

    #[test]
    fn two_instances_do_not_share_state() {
        let a = ServiceMetrics::new();
        let b = ServiceMetrics::new();
        a.job_submitted();
        let snap = b.snapshot(1, 0, 1, 0, CacheStats::default(), 1);
        assert_eq!(
            snap.get("jobs").unwrap().get("submitted").unwrap().as_u64(),
            Some(0)
        );
    }
}
