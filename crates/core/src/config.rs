//! Pipeline configuration.

use crate::json::Json;
use mosaic_assign::SolverKind;
use mosaic_grid::TileMetric;

/// Which Step-3 rearrangement algorithm to run.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// §III — exact minimum-weight bipartite matching with the given
    /// solver. The wire and the CLI build only
    /// `Optimal(SolverKind::JonkerVolgenant)`; the other solvers are test
    /// oracles.
    Optimal(SolverKind),
    /// §IV-A, Algorithm 1 — serial pairwise-swap local search.
    LocalSearch,
    /// §IV-B, Algorithm 2 — edge-colored parallel local search.
    #[default]
    ParallelSearch,
    /// Greedy matching baseline (not in the paper; quality floor).
    Greedy,
}

impl Algorithm {
    /// Stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Optimal(_) => "optimal",
            Algorithm::LocalSearch => "local-search",
            Algorithm::ParallelSearch => "parallel-search",
            Algorithm::Greedy => "greedy",
        }
    }
}

/// Execution backend for the parallelizable steps (error matrix, parallel
/// local search).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Single-threaded reference execution (the paper's CPU baseline).
    Serial,
    /// Crossbeam worker threads (multi-core CPU).
    Threads(usize),
    /// The simulated CUDA device (`mosaic-gpu`), with this many host
    /// workers standing in for streaming multiprocessors.
    GpuSim {
        /// Host worker threads driving the simulated device; `None` uses
        /// all available cores.
        workers: Option<usize>,
    },
}

impl Default for Backend {
    fn default() -> Self {
        Backend::GpuSim { workers: None }
    }
}

impl Backend {
    /// Stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Serial => "serial",
            Backend::Threads(_) => "threads",
            Backend::GpuSim { .. } => "gpu-sim",
        }
    }
}

/// §II pre-processing of the input image.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum Preprocess {
    /// Remap the input's intensity distribution onto the target's
    /// (histogram specification — the paper's default, applied to every
    /// experiment).
    #[default]
    MatchTarget,
    /// Classical histogram equalization of the input only.
    Equalize,
    /// Use the input image unchanged (for the preprocessing ablation).
    None,
}

impl Preprocess {
    /// Stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Preprocess::MatchTarget => "match-target",
            Preprocess::Equalize => "equalize",
            Preprocess::None => "none",
        }
    }
}

/// Full pipeline configuration. Build with [`MosaicBuilder`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MosaicConfig {
    /// Tiles per image side (the paper's "divided into g × g tiles").
    pub grid: usize,
    /// Tile distance function for Step 2.
    pub metric: TileMetric,
    /// Step-3 algorithm.
    pub algorithm: Algorithm,
    /// Execution backend for Steps 2 and 3.
    pub backend: Backend,
    /// §II input pre-processing.
    pub preprocess: Preprocess,
}

impl Default for MosaicConfig {
    fn default() -> Self {
        MosaicConfig {
            grid: 32,
            metric: TileMetric::Sad,
            algorithm: Algorithm::default(),
            backend: Backend::default(),
            preprocess: Preprocess::default(),
        }
    }
}

impl MosaicConfig {
    /// Serialize to the stable JSON shape shared by the report output and
    /// the `mosaic-service` wire protocol.
    ///
    /// Enum variants are encoded by their stable [`name`](Algorithm::name)
    /// strings; variant payloads (solver, thread and worker counts) ride
    /// along as extra keys.
    pub fn to_json(&self) -> Json {
        let mut algorithm = vec![("name".to_string(), Json::from(self.algorithm.name()))];
        match self.algorithm {
            Algorithm::Optimal(solver) => {
                algorithm.push(("solver".to_string(), Json::from(solver.name())));
            }
            Algorithm::LocalSearch | Algorithm::ParallelSearch | Algorithm::Greedy => {}
        }
        let mut backend = vec![("name".to_string(), Json::from(self.backend.name()))];
        match self.backend {
            Backend::Serial => {}
            Backend::Threads(t) => backend.push(("threads".to_string(), Json::from(t))),
            Backend::GpuSim { workers } => backend.push((
                "workers".to_string(),
                workers.map_or(Json::Null, Json::from),
            )),
        }
        Json::obj([
            ("grid", Json::from(self.grid)),
            ("metric", Json::from(self.metric.name())),
            ("algorithm", Json::Obj(algorithm)),
            ("backend", Json::Obj(backend)),
            ("preprocess", Json::from(self.preprocess.name())),
        ])
    }

    /// Parse the shape produced by [`to_json`](Self::to_json). Missing
    /// keys fall back to the defaults, so clients may send partial
    /// configurations.
    ///
    /// # Errors
    /// Returns a description of the first unrecognized name or malformed
    /// field.
    pub fn from_json(value: &Json) -> Result<MosaicConfig, String> {
        let mut config = MosaicConfig::default();
        if let Some(grid) = value.get("grid") {
            config.grid = grid
                .as_u64()
                .ok_or_else(|| "grid must be a non-negative integer".to_string())?
                as usize;
        }
        if let Some(metric) = value.get("metric") {
            let name = metric.as_str().ok_or("metric must be a string")?;
            config.metric = TileMetric::ALL
                .into_iter()
                .find(|m| m.name() == name)
                .ok_or_else(|| format!("unknown metric {name:?}"))?;
        }
        if let Some(preprocess) = value.get("preprocess") {
            let name = preprocess.as_str().ok_or("preprocess must be a string")?;
            config.preprocess = [
                Preprocess::MatchTarget,
                Preprocess::Equalize,
                Preprocess::None,
            ]
            .into_iter()
            .find(|p| p.name() == name)
            .ok_or_else(|| format!("unknown preprocess {name:?}"))?;
        }
        if let Some(algorithm) = value.get("algorithm") {
            config.algorithm = algorithm_from_json(algorithm)?;
        }
        if let Some(backend) = value.get("backend") {
            config.backend = backend_from_json(backend)?;
        }
        Ok(config)
    }
}

fn algorithm_from_json(value: &Json) -> Result<Algorithm, String> {
    let name = value
        .get("name")
        .and_then(Json::as_str)
        .ok_or("algorithm needs a \"name\" string")?;
    match name {
        "optimal" => {
            // Jonker–Volgenant is the one served exact solver; the others
            // are test oracles and never leave the process.
            let served = SolverKind::JonkerVolgenant;
            match value.get("solver").and_then(Json::as_str) {
                None => Ok(Algorithm::Optimal(served)),
                Some(name) if name == served.name() => Ok(Algorithm::Optimal(served)),
                Some(name) => Err(format!("unknown solver {name:?}")),
            }
        }
        "local-search" => Ok(Algorithm::LocalSearch),
        "parallel-search" => Ok(Algorithm::ParallelSearch),
        "greedy" => Ok(Algorithm::Greedy),
        other => Err(format!("unknown algorithm {other:?}")),
    }
}

fn backend_from_json(value: &Json) -> Result<Backend, String> {
    let name = value
        .get("name")
        .and_then(Json::as_str)
        .ok_or("backend needs a \"name\" string")?;
    match name {
        "serial" => Ok(Backend::Serial),
        "threads" => {
            let threads = value
                .get("threads")
                .and_then(Json::as_u64)
                .ok_or("threads backend needs an integer \"threads\"")?
                as usize;
            Ok(Backend::Threads(threads))
        }
        "gpu-sim" => {
            let workers = match value.get("workers") {
                None | Some(Json::Null) => None,
                Some(w) => Some(w.as_u64().ok_or("workers must be an integer or null")? as usize),
            };
            Ok(Backend::GpuSim { workers })
        }
        other => Err(format!("unknown backend {other:?}")),
    }
}

/// Fluent builder for [`MosaicConfig`].
#[derive(Clone, Debug, Default)]
pub struct MosaicBuilder {
    config: MosaicConfig,
}

impl MosaicBuilder {
    /// Start from the defaults (32×32 grid, SAD, parallel search on the
    /// simulated device, histogram matching on).
    pub fn new() -> Self {
        Self::default()
    }

    /// Tiles per side; the paper evaluates 16, 32 and 64.
    pub fn grid(mut self, tiles_per_side: usize) -> Self {
        self.config.grid = tiles_per_side;
        self
    }

    /// Tile error metric.
    pub fn metric(mut self, metric: TileMetric) -> Self {
        self.config.metric = metric;
        self
    }

    /// Step-3 algorithm.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.config.algorithm = algorithm;
        self
    }

    /// Execution backend.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.config.backend = backend;
        self
    }

    /// Pre-processing mode.
    pub fn preprocess(mut self, preprocess: Preprocess) -> Self {
        self.config.preprocess = preprocess;
        self
    }

    /// Finish.
    pub fn build(self) -> MosaicConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_defaults() {
        let c = MosaicConfig::default();
        assert_eq!(c.grid, 32);
        assert_eq!(c.metric, TileMetric::Sad);
        assert_eq!(c.preprocess, Preprocess::MatchTarget);
        assert_eq!(c.algorithm, Algorithm::ParallelSearch);
    }

    #[test]
    fn builder_sets_every_field() {
        let c = MosaicBuilder::new()
            .grid(64)
            .metric(TileMetric::Ssd)
            .algorithm(Algorithm::Optimal(SolverKind::JonkerVolgenant))
            .backend(Backend::Threads(4))
            .preprocess(Preprocess::None)
            .build();
        assert_eq!(c.grid, 64);
        assert_eq!(c.metric, TileMetric::Ssd);
        assert_eq!(c.algorithm, Algorithm::Optimal(SolverKind::JonkerVolgenant));
        assert_eq!(c.backend, Backend::Threads(4));
        assert_eq!(c.preprocess, Preprocess::None);
    }

    #[test]
    fn json_roundtrips_every_variant() {
        let configs = [
            MosaicConfig::default(),
            MosaicBuilder::new()
                .grid(16)
                .metric(TileMetric::MeanAbs)
                .algorithm(Algorithm::Optimal(SolverKind::JonkerVolgenant))
                .backend(Backend::Serial)
                .preprocess(Preprocess::Equalize)
                .build(),
            MosaicBuilder::new().backend(Backend::Threads(3)).build(),
            MosaicBuilder::new()
                .algorithm(Algorithm::ParallelSearch)
                .backend(Backend::GpuSim { workers: Some(2) })
                .preprocess(Preprocess::None)
                .build(),
            MosaicBuilder::new().algorithm(Algorithm::Greedy).build(),
            MosaicBuilder::new()
                .algorithm(Algorithm::LocalSearch)
                .build(),
        ];
        for config in configs {
            let json = config.to_json();
            let back = MosaicConfig::from_json(&json).unwrap();
            assert_eq!(back, config);
            // And through actual text.
            let reparsed = crate::json::Json::parse(&json.encode()).unwrap();
            assert_eq!(MosaicConfig::from_json(&reparsed).unwrap(), config);
        }
    }

    #[test]
    fn json_defaults_missing_fields() {
        let partial = crate::json::Json::parse(r#"{"grid":8}"#).unwrap();
        let config = MosaicConfig::from_json(&partial).unwrap();
        assert_eq!(config.grid, 8);
        assert_eq!(config.metric, TileMetric::Sad);
        assert_eq!(config.algorithm, Algorithm::ParallelSearch);
        let no_solver = crate::json::Json::parse(r#"{"algorithm":{"name":"optimal"}}"#).unwrap();
        assert_eq!(
            MosaicConfig::from_json(&no_solver).unwrap().algorithm,
            Algorithm::Optimal(SolverKind::JonkerVolgenant)
        );
    }

    #[test]
    fn json_rejects_unknown_names() {
        for bad in [
            r#"{"metric":"nope"}"#,
            r#"{"algorithm":{"name":"nope"}}"#,
            r#"{"algorithm":{"name":"optimal","solver":"nope"}}"#,
            r#"{"algorithm":{"name":"optimal","solver":"hungarian"}}"#,
            r#"{"algorithm":{"name":"optimal","solver":"auction"}}"#,
            r#"{"algorithm":{"name":"optimal","solver":"blossom"}}"#,
            r#"{"algorithm":{"name":"optimal","solver":"greedy"}}"#,
            r#"{"algorithm":{"name":"anneal"}}"#,
            r#"{"algorithm":{"name":"sparse-match","k":8}}"#,
            r#"{"backend":{"name":"nope"}}"#,
            r#"{"preprocess":"nope"}"#,
            r#"{"grid":-1}"#,
        ] {
            let v = crate::json::Json::parse(bad).unwrap();
            assert!(MosaicConfig::from_json(&v).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Algorithm::LocalSearch.name(), "local-search");
        assert_eq!(Algorithm::Greedy.name(), "greedy");
        assert_eq!(Backend::Serial.name(), "serial");
        assert_eq!(Backend::GpuSim { workers: None }.name(), "gpu-sim");
        assert_eq!(Preprocess::Equalize.name(), "equalize");
    }
}
