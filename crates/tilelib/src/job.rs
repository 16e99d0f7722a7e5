//! Wire-level description of a library job.
//!
//! A [`LibraryJobSpec`] names the target image, the on-disk tile store
//! the executor should draw from, and the pruning parameters. The store
//! travels as a *path*, not as pixels — library jobs are meaningful on
//! hosts that share the store (the fleet in this repo runs on one
//! machine), and shipping a million tiles per job would defeat the
//! content-addressed layout entirely.
//!
//! This file is pinned by the protocol-registry lint: the job-kind wire
//! word is deliberately never spelled here — `mosaic-service`'s
//! `protocol::ops` owns it and wraps/unwraps the envelope.

use crate::error::TilelibError;
use mosaic_grid::TileMetric;
use photomosaic::job::Fnv1a;
use photomosaic::{ImageSource, Json};

/// Tuning knobs of the clustered pruning pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LibraryParams {
    /// Cells per side of the output mosaic (`S = grid²`).
    pub grid: usize,
    /// k-means cluster count.
    pub clusters: usize,
    /// Nearest clusters searched per cell.
    pub top_clusters: usize,
    /// Feature descriptor resolution (block-mean grid per side).
    pub feature_grid: usize,
    /// k-means seed.
    pub seed: u64,
    /// Exact pixel metric used to score candidates.
    pub metric: TileMetric,
}

impl Default for LibraryParams {
    fn default() -> Self {
        LibraryParams {
            grid: 16,
            clusters: 32,
            top_clusters: 4,
            feature_grid: 4,
            seed: 1,
            metric: TileMetric::Sad,
        }
    }
}

impl LibraryParams {
    /// Serialize for the wire.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("grid", Json::from(self.grid)),
            ("clusters", Json::from(self.clusters)),
            ("top_clusters", Json::from(self.top_clusters)),
            ("feature_grid", Json::from(self.feature_grid)),
            ("seed", Json::Str(self.seed.to_string())),
            ("metric", Json::from(self.metric.name())),
        ])
    }

    /// Parse the shape produced by [`to_json`](Self::to_json); missing
    /// fields fall back to the defaults.
    ///
    /// # Errors
    /// Returns a description of the first malformed field.
    pub fn from_json(value: &Json) -> Result<LibraryParams, String> {
        let mut params = LibraryParams::default();
        let number = |key: &str, into: &mut usize| -> Result<(), String> {
            if let Some(v) = value.get(key) {
                *into = v.as_u64().ok_or(format!("{key} must be an integer"))? as usize;
            }
            Ok(())
        };
        number("grid", &mut params.grid)?;
        number("clusters", &mut params.clusters)?;
        number("top_clusters", &mut params.top_clusters)?;
        number("feature_grid", &mut params.feature_grid)?;
        params.seed = match value.get("seed") {
            None => params.seed,
            Some(Json::Str(s)) => s
                .parse::<u64>()
                .map_err(|_| format!("invalid seed {s:?}"))?,
            Some(other) => other.as_u64().ok_or("invalid seed")?,
        };
        if let Some(m) = value.get("metric") {
            let name = m.as_str().ok_or("metric must be a string")?;
            params.metric = TileMetric::ALL
                .into_iter()
                .find(|m| m.name() == name)
                .ok_or_else(|| format!("unknown metric {name:?}"))?;
        }
        Ok(params)
    }

    /// Reject parameter combinations no executor can satisfy.
    ///
    /// # Errors
    /// [`TilelibError::Config`] with the offending field.
    pub fn validate(&self) -> Result<(), TilelibError> {
        if self.grid == 0 {
            return Err(TilelibError::Config("grid must be positive".into()));
        }
        if self.clusters == 0 {
            return Err(TilelibError::Config("clusters must be positive".into()));
        }
        if self.top_clusters == 0 {
            return Err(TilelibError::Config("top_clusters must be positive".into()));
        }
        if self.feature_grid == 0 {
            return Err(TilelibError::Config("feature_grid must be positive".into()));
        }
        Ok(())
    }
}

/// One library job: compose `target` from the tiles stored at `store`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LibraryJobSpec {
    /// The image being reproduced.
    pub target: ImageSource,
    /// Path of the content-addressed tile store on the executor's host.
    pub store: String,
    /// Pruning parameters.
    pub params: LibraryParams,
}

impl LibraryJobSpec {
    /// Routing key (FNV-1a, 64-bit) over everything that identifies the
    /// job: target source, store path and parameters. Used by the
    /// gateway's rendezvous router; *not* a result-cache key — store
    /// contents can change between ingests without the path changing,
    /// so library results are deliberately never cached by key.
    pub fn cache_key(&self) -> u64 {
        let mut h = Fnv1a::default();
        self.target.hash_into(&mut h);
        h.write_bytes(self.store.as_bytes());
        h.write_u64(self.params.grid as u64);
        h.write_u64(self.params.clusters as u64);
        h.write_u64(self.params.top_clusters as u64);
        h.write_u64(self.params.feature_grid as u64);
        h.write_u64(self.params.seed);
        h.write_bytes(self.params.metric.name().as_bytes());
        h.finish()
    }

    /// Serialize the payload fields (the protocol layer adds the op
    /// envelope).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("target", self.target.to_json()),
            ("store", Json::Str(self.store.clone())),
            ("params", self.params.to_json()),
        ])
    }

    /// Parse the shape produced by [`to_json`](Self::to_json). Missing
    /// `params` fall back to the defaults.
    ///
    /// # Errors
    /// Returns a description of the first malformed field.
    pub fn from_json(value: &Json) -> Result<LibraryJobSpec, String> {
        let target =
            ImageSource::from_json(value.get("target").ok_or("job needs a \"target\" source")?)?;
        let store = value
            .get("store")
            .and_then(Json::as_str)
            .ok_or("job needs a \"store\" path")?
            .to_string();
        let params = match value.get("params") {
            Some(p) => LibraryParams::from_json(p)?,
            None => LibraryParams::default(),
        };
        Ok(LibraryJobSpec {
            target,
            store,
            params,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_image::synth::Scene;

    fn sample() -> LibraryJobSpec {
        LibraryJobSpec {
            target: ImageSource::Synth {
                scene: Scene::Portrait,
                size: 64,
                seed: 7,
            },
            store: "/tmp/lib".to_string(),
            params: LibraryParams {
                grid: 8,
                clusters: 16,
                top_clusters: 3,
                feature_grid: 4,
                seed: 5,
                metric: TileMetric::Ssd,
            },
        }
    }

    #[test]
    fn spec_roundtrips_through_json_text() {
        let spec = sample();
        let text = spec.to_json().encode();
        let back = LibraryJobSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn defaults_fill_missing_fields() {
        let json = Json::parse(
            r#"{"target":{"kind":"synth","scene":"plasma","size":32,"seed":"1"},"store":"s"}"#,
        )
        .unwrap();
        let spec = LibraryJobSpec::from_json(&json).unwrap();
        assert_eq!(spec.params, LibraryParams::default());
    }

    #[test]
    fn routing_key_tracks_every_field() {
        let base = sample();
        let key = base.cache_key();
        assert_eq!(key, sample().cache_key(), "deterministic");
        let mut other = sample();
        other.store = "/tmp/other".into();
        assert_ne!(other.cache_key(), key);
        let mut other = sample();
        other.params.grid = 9;
        assert_ne!(other.cache_key(), key);
        let mut other = sample();
        other.params.clusters = 17;
        assert_ne!(other.cache_key(), key);
        let mut other = sample();
        other.params.top_clusters = 4;
        assert_ne!(other.cache_key(), key);
        let mut other = sample();
        other.params.seed = 6;
        assert_ne!(other.cache_key(), key);
        let mut other = sample();
        other.params.metric = TileMetric::Sad;
        assert_ne!(other.cache_key(), key);
        let mut other = sample();
        other.target = ImageSource::Synth {
            scene: Scene::Portrait,
            size: 64,
            seed: 8,
        };
        assert_ne!(other.cache_key(), key);
    }

    /// The routing key places library jobs on backends, so its values
    /// must not drift: these are the keys of one synth-target spec and
    /// one literal-pixel-target spec.
    #[test]
    fn cache_key_pinned_values() {
        assert_eq!(sample().cache_key(), 0x4629_8b71_9c06_a125);
        let mut pixels = sample();
        pixels.target = ImageSource::Pixels {
            size: 4,
            pixels: (0..16).collect(),
        };
        assert_eq!(pixels.cache_key(), 0x2b3d_22de_0160_517b);
    }

    #[test]
    fn validation_rejects_zero_knobs() {
        let defaults = LibraryParams::default();
        assert!(defaults.validate().is_ok());
        for zeroed in [
            LibraryParams {
                grid: 0,
                ..defaults
            },
            LibraryParams {
                clusters: 0,
                ..defaults
            },
            LibraryParams {
                top_clusters: 0,
                ..defaults
            },
            LibraryParams {
                feature_grid: 0,
                ..defaults
            },
        ] {
            assert!(zeroed.validate().is_err(), "{zeroed:?}");
        }
    }

    #[test]
    fn malformed_fields_are_reported() {
        let json = Json::parse(r#"{"store":"s"}"#).unwrap();
        assert!(LibraryJobSpec::from_json(&json).is_err());
        let json = Json::parse(
            r#"{"target":{"kind":"synth","scene":"plasma","size":32},"store":"s","params":{"metric":"nope"}}"#,
        )
        .unwrap();
        assert!(LibraryJobSpec::from_json(&json).is_err());
    }
}
