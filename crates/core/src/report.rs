//! Generation reports: everything the experiment harness prints.

use crate::config::MosaicConfig;
use crate::json::Json;
use mosaic_gpu::{CostModel, DeviceSpec, WorkProfile};
use std::time::Duration;

fn profile_json(profile: &WorkProfile) -> Json {
    Json::obj([
        ("launches", Json::from(profile.launches)),
        ("global_bytes", Json::from(profile.global_bytes as f64)),
        ("ops", Json::from(profile.ops as f64)),
    ])
}

fn duration_ms(d: Duration) -> Json {
    Json::from(d.as_secs_f64() * 1000.0)
}

/// Timings, totals and work accounting of one mosaic generation.
#[derive(Clone, Debug)]
pub struct GenerationReport {
    /// Configuration used.
    pub config: MosaicConfig,
    /// Image edge `N`.
    pub image_size: usize,
    /// Tile count `S`.
    pub tile_count: usize,
    /// Tile edge `M`.
    pub tile_size: usize,
    /// Final total error (the paper's Eq. 2, Table I).
    pub total_error: u64,
    /// Local-search sweeps `k` (0 for the optimal algorithm).
    pub sweeps: usize,
    /// Swaps performed (0 for the optimal algorithm).
    pub swaps: usize,
    /// Wall time of Step 1 (tiling + preprocessing).
    pub step1_wall: Duration,
    /// Wall time of Step 2 (error matrix — Table II).
    pub step2_wall: Duration,
    /// Wall time of Step 3 (rearrangement — Table III).
    pub step3_wall: Duration,
    /// Abstract work profile of Step 2.
    pub step2_profile: WorkProfile,
    /// Abstract work profile of Step 3 (zeroed for the optimal algorithm,
    /// which runs on the host).
    pub step3_profile: WorkProfile,
}

impl GenerationReport {
    /// Total wall time (Table IV).
    pub fn total_wall(&self) -> Duration {
        self.step1_wall + self.step2_wall + self.step3_wall
    }

    /// Modeled K40-over-host speedup for the profiled steps.
    pub fn modeled_speedup(&self) -> f64 {
        let k40 = CostModel::new(DeviceSpec::tesla_k40());
        let host = CostModel::new(DeviceSpec::host_single_core());
        k40.speedup_over(&host, &self.step2_profile.combine(&self.step3_profile))
    }

    /// Serialize to the stable JSON shape shared by the bench harness
    /// output and the `mosaic-service` wire protocol. Durations are
    /// reported in fractional milliseconds (`*_wall_ms`).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("config", self.config.to_json()),
            ("image_size", Json::from(self.image_size)),
            ("tile_count", Json::from(self.tile_count)),
            ("tile_size", Json::from(self.tile_size)),
            ("total_error", Json::from(self.total_error as f64)),
            ("sweeps", Json::from(self.sweeps)),
            ("swaps", Json::from(self.swaps)),
            ("step1_wall_ms", duration_ms(self.step1_wall)),
            ("step2_wall_ms", duration_ms(self.step2_wall)),
            ("step3_wall_ms", duration_ms(self.step3_wall)),
            ("total_wall_ms", duration_ms(self.total_wall())),
            ("step2_profile", profile_json(&self.step2_profile)),
            ("step3_profile", profile_json(&self.step3_profile)),
        ])
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{} [{}] N={} S={}x{}: error={} sweeps={} total={:.3}s (step2={:.3}s step3={:.3}s)",
            self.config.algorithm.name(),
            self.config.backend.name(),
            self.image_size,
            (self.tile_count as f64).sqrt() as usize,
            (self.tile_count as f64).sqrt() as usize,
            self.total_error,
            self.sweeps,
            self.total_wall().as_secs_f64(),
            self.step2_wall.as_secs_f64(),
            self.step3_wall.as_secs_f64(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MosaicBuilder;

    fn dummy_report() -> GenerationReport {
        GenerationReport {
            config: MosaicBuilder::new().grid(4).build(),
            image_size: 64,
            tile_count: 16,
            tile_size: 16,
            total_error: 1234,
            sweeps: 3,
            swaps: 17,
            step1_wall: Duration::from_millis(1),
            step2_wall: Duration::from_millis(2),
            step3_wall: Duration::from_millis(3),
            step2_profile: WorkProfile {
                launches: 1,
                global_bytes: 1_000_000,
                ops: 2_000_000,
            },
            step3_profile: WorkProfile {
                launches: 45,
                global_bytes: 500_000,
                ops: 100_000,
            },
        }
    }

    #[test]
    fn total_wall_sums_steps() {
        assert_eq!(dummy_report().total_wall(), Duration::from_millis(6));
    }

    #[test]
    fn summary_contains_key_fields() {
        let s = dummy_report().summary();
        assert!(s.contains("error=1234"));
        assert!(s.contains("N=64"));
        assert!(s.contains("S=4x4"));
        assert!(s.contains("sweeps=3"));
    }

    #[test]
    fn to_json_roundtrips_through_text() {
        let r = dummy_report();
        let text = r.to_json().encode();
        let v = Json::parse(&text).unwrap();
        assert_eq!(v.get("total_error").unwrap().as_u64(), Some(1234));
        assert_eq!(v.get("tile_count").unwrap().as_u64(), Some(16));
        assert_eq!(v.get("step2_wall_ms").unwrap().as_f64(), Some(2.0));
        assert_eq!(v.get("total_wall_ms").unwrap().as_f64(), Some(6.0));
        let cfg = v.get("config").unwrap();
        assert_eq!(
            crate::config::MosaicConfig::from_json(cfg).unwrap(),
            r.config
        );
        let p = v.get("step3_profile").unwrap();
        assert_eq!(p.get("launches").unwrap().as_u64(), Some(45));
    }

    #[test]
    fn modeled_speedup_is_finite_and_positive() {
        let r = dummy_report();
        let speedup = r.modeled_speedup();
        assert!(speedup.is_finite());
        assert!(speedup > 0.0);
    }
}
