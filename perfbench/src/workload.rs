//! The four workloads: fleet topology, seeded inputs, request streams
//! and the check every reply must pass.
//!
//! All inputs (specs, pixels, library tiles, k-means seeds) are pure functions of the
//! `--seed` argument; the fleet only ever sees the generated requests.

use mosaic_assign::SolverKind;
use mosaic_gateway::{backend_seed, rendezvous_order};
use mosaic_image::synth::{Scene, XorShift64};
use mosaic_image::GrayImage;
use mosaic_tilelib::{LibraryJobSpec, LibraryParams, TileStore};
use photomosaic::{
    Algorithm, Backend, ImageSource, JobResult, JobSpec, MosaicBuilder, MosaicConfig,
};
use std::collections::HashSet;
use std::sync::Arc;

/// Distinct specs in the repeated set of `hot-upload` and `small-burst`.
const HOT_SPECS: usize = 8;
/// Library size and tile edge of the `library` store.
const LIBRARY_TILES: usize = 1024;
const LIBRARY_TILE: usize = 8;
/// k-means seeds the `library` jobs rotate through. k-means cost and the
/// candidate count per cell follow the clustering it lands on, so one
/// fixed seed would make a whole run as cheap or as dear as that one
/// clustering; a small set averages it within the run while a repeated
/// `(store, seed)` pair still recurs every few jobs.
const KMEANS_SEEDS: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    ColdPaper,
    HotUpload,
    SmallBurst,
    Library,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::ColdPaper,
        Kind::HotUpload,
        Kind::SmallBurst,
        Kind::Library,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ColdPaper => "cold-paper",
            Kind::HotUpload => "hot-upload",
            Kind::SmallBurst => "small-burst",
            Kind::Library => "library",
        }
    }

    pub fn parse(text: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == text)
    }

    /// Backend servers behind the gateway.
    pub fn backends(self) -> usize {
        match self {
            Kind::ColdPaper | Kind::Library => 1,
            Kind::HotUpload | Kind::SmallBurst => 2,
        }
    }

    /// Worker threads (and compute-pool threads) per backend.
    pub fn workers(self) -> usize {
        match self {
            Kind::ColdPaper | Kind::Library => 2,
            Kind::HotUpload | Kind::SmallBurst => 1,
        }
    }

    /// Closed-loop client connections.
    pub fn clients(self) -> usize {
        self.backends()
    }

    /// Salt mixed into the seed so workloads never share inputs.
    fn salt(self) -> u64 {
        match self {
            Kind::ColdPaper => 0x00c0_1d00,
            Kind::HotUpload => 0x0000_4070,
            Kind::SmallBurst => 0x005b_a125,
            Kind::Library => 0x0011_b4a7,
        }
    }
}

/// What one request asks for.
pub enum Payload {
    Generate(JobSpec),
    Library(LibraryJobSpec),
}

/// One request plus the resolved target its reply is checked against.
pub struct Job {
    pub payload: Payload,
    pub target: GrayImage,
}

impl Job {
    fn generate(spec: JobSpec) -> Job {
        let target = spec.target.resolve().expect("generated targets resolve");
        Job {
            payload: Payload::Generate(spec),
            target,
        }
    }

    fn library(spec: LibraryJobSpec) -> Job {
        let target = spec.target.resolve().expect("generated targets resolve");
        Job {
            payload: Payload::Library(spec),
            target,
        }
    }

    /// The routing key the gateway hashes for this request.
    pub fn routing_key(&self) -> u64 {
        match &self.payload {
            Payload::Generate(spec) => spec.cache_key(),
            Payload::Library(spec) => spec.cache_key(),
        }
    }

    /// Check a decoded reply: an `N×N` image, an assignment that is a
    /// permutation of `0..S` (generation) or injective into the store
    /// (library), and a reported `total_error` equal to the SAD between
    /// the returned image and the target. Returns the error per pixel.
    pub fn check(&self, result: &JobResult, store_tiles: usize) -> Result<f64, String> {
        let n = self.target.width();
        if result.image.dimensions() != (n, n) {
            return Err(format!(
                "image is {:?}, expected {n}x{n}",
                result.image.dimensions()
            ));
        }
        let (cells, pool) = match &self.payload {
            Payload::Generate(spec) => (spec.config.grid * spec.config.grid, None),
            Payload::Library(spec) => (spec.params.grid * spec.params.grid, Some(store_tiles)),
        };
        if result.assignment.len() != cells {
            return Err(format!(
                "assignment has {} entries, expected {cells}",
                result.assignment.len()
            ));
        }
        // A permutation of 0..S is exactly an injection into S slots.
        if !photomosaic::library::is_injective(&result.assignment, pool.unwrap_or(cells)) {
            return Err("assignment is not injective".to_string());
        }
        let reported = result
            .report
            .get("total_error")
            .and_then(photomosaic::Json::as_u64)
            .ok_or("report lacks an integral total_error")?;
        let sad = mosaic_image::metrics::sad(&result.image, &self.target);
        if sad != reported {
            return Err(format!(
                "SAD(image, target) = {sad} but total_error = {reported}"
            ));
        }
        Ok(reported as f64 / (n * n) as f64)
    }
}

/// The seeded generator behind one request stream.
fn rng(kind: Kind, seed: u64, stream: u64) -> XorShift64 {
    let mut mixer =
        XorShift64::new(seed ^ kind.salt() ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    // Discard a few outputs so nearby seeds decorrelate.
    for _ in 0..4 {
        mixer.next_u64();
    }
    XorShift64::new(mixer.next_u64())
}

/// Render seeds stay below 2^53 so they survive any JSON number path.
fn render_seed(rng: &mut XorShift64) -> u64 {
    rng.next_u64() >> 11
}

/// The configuration rotation of `cold-paper`: the default config,
/// then threaded parallel search, then the exact JV solve.
fn cold_paper_config(index: u64) -> MosaicConfig {
    match index % 3 {
        0 => MosaicConfig::default(),
        1 => MosaicBuilder::new()
            .grid(32)
            .algorithm(Algorithm::ParallelSearch)
            .backend(Backend::Threads(2))
            .build(),
        _ => MosaicBuilder::new()
            .grid(32)
            .algorithm(Algorithm::Optimal(SolverKind::JonkerVolgenant))
            .backend(Backend::Threads(2))
            .build(),
    }
}

fn synth(scene: Scene, size: usize, rng: &mut XorShift64) -> ImageSource {
    ImageSource::Synth {
        scene,
        size,
        seed: render_seed(rng),
    }
}

fn scene(index: u64) -> Scene {
    Scene::ALL[(index % Scene::ALL.len() as u64) as usize]
}

/// Scene pair `index` of a rotation: every input scene meets a
/// different target scene.
fn scene_pair(index: u64) -> (Scene, Scene) {
    (scene(index), scene(index + 3))
}

/// The store `library` jobs read and the k-means seeds they rotate
/// through.
pub struct Library {
    pub store_path: String,
    kmeans_seeds: Vec<u64>,
}

/// A fresh (never repeated) request of `kind`, number `index` of its
/// stream.
fn fresh_job(kind: Kind, index: u64, rng: &mut XorShift64, library: &Library) -> Job {
    let (input_scene, target_scene) = scene_pair(index);
    match kind {
        Kind::ColdPaper => Job::generate(JobSpec {
            input: synth(input_scene, 512, rng),
            target: synth(target_scene, 512, rng),
            config: cold_paper_config(index),
        }),
        Kind::SmallBurst => Job::generate(JobSpec {
            input: synth(input_scene, 64, rng),
            target: synth(target_scene, 64, rng),
            config: MosaicBuilder::new()
                .grid(8)
                .backend(Backend::Serial)
                .build(),
        }),
        Kind::HotUpload => {
            let pixels = |scene: Scene, rng: &mut XorShift64| ImageSource::Pixels {
                size: 512,
                pixels: scene
                    .render(512, render_seed(rng))
                    .pixels()
                    .iter()
                    .map(|p| p.0)
                    .collect(),
            };
            Job::generate(JobSpec {
                input: pixels(input_scene, rng),
                target: pixels(target_scene, rng),
                config: MosaicBuilder::new()
                    .grid(16)
                    .backend(Backend::Serial)
                    .build(),
            })
        }
        Kind::Library => Job::library(LibraryJobSpec {
            target: synth(target_scene, LIBRARY_TILE * 16, rng),
            store: library.store_path.clone(),
            params: LibraryParams {
                seed: library.kmeans_seeds[(index % KMEANS_SEEDS as u64) as usize],
                ..LibraryParams::default()
            },
        }),
    }
}

/// The fixed part of a workload's input: the repeated spec set (with
/// placement balanced across the backends) and the library tiles.
pub struct Inputs {
    pub kind: Kind,
    pub seed: u64,
    pub hot: Vec<Arc<Job>>,
    /// How many hot specs each backend owns under rendezvous routing.
    pub hot_owners: Vec<usize>,
    pub library: Library,
    pub tiles: Vec<GrayImage>,
}

impl Inputs {
    /// Build the inputs for a fleet whose backends listen on
    /// `backend_addrs`. Placement is a function of the address text, so
    /// each repeated spec keeps its scene pair but redraws its render
    /// seeds until every backend owns the same number of specs; with
    /// pinned addresses the set is a function of the seed alone.
    pub fn build(kind: Kind, seed: u64, backend_addrs: &[String], store_path: &str) -> Inputs {
        let seeds: Vec<u64> = backend_addrs.iter().map(|a| backend_seed(a)).collect();
        let mut kmeans_rng = rng(kind, seed, u64::MAX - 3);
        let library = Library {
            store_path: store_path.to_string(),
            kmeans_seeds: (0..KMEANS_SEEDS)
                .map(|_| render_seed(&mut kmeans_rng))
                .collect(),
        };
        let mut hot = Vec::new();
        let mut hot_owners = vec![0usize; seeds.len()];
        if matches!(kind, Kind::HotUpload | Kind::SmallBurst) {
            let share = HOT_SPECS / seeds.len();
            let mut rng = rng(kind, seed, u64::MAX);
            for slot in 0..HOT_SPECS as u64 {
                loop {
                    let job = fresh_job(kind, slot, &mut rng, &library);
                    let owner = rendezvous_order(&seeds, job.routing_key())[0];
                    if hot_owners[owner] < share {
                        hot_owners[owner] += 1;
                        hot.push(Arc::new(job));
                        break;
                    }
                }
            }
        }
        let tiles = if kind == Kind::Library {
            library_tiles(&mut rng(kind, seed, u64::MAX - 1))
        } else {
            Vec::new()
        };
        Inputs {
            kind,
            seed,
            hot,
            hot_owners,
            library,
            tiles,
        }
    }

    /// Request stream number `stream`; every client lane of every phase
    /// draws from its own.
    pub fn stream(&self, stream: u64) -> Stream<'_> {
        let mut rng = rng(self.kind, self.seed, stream);
        // Each client walks the repeated set in its own seeded order.
        let mut order: Vec<usize> = (0..self.hot.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        Stream {
            inputs: self,
            rng,
            order,
            next: 0,
            next_hot: 0,
        }
    }

    /// The warm-up requests: the whole repeated set once (so every
    /// measured repeat is a cache hit), plus a few fresh jobs that page
    /// in code and spin up the pools. `cold-paper` warms each of its
    /// three configurations once.
    pub fn warm_jobs(&self) -> Vec<Arc<Job>> {
        let mut rng = rng(self.kind, self.seed, u64::MAX - 2);
        let fresh = match self.kind {
            Kind::HotUpload => 0,
            Kind::SmallBurst => 4,
            Kind::ColdPaper | Kind::Library => 3,
        };
        // Indices from 3 give the JV configuration of `cold-paper` its
        // lighter scene pair, which keeps set-up time steady.
        let fresh = (3..3 + fresh)
            .map(|index| Arc::new(fresh_job(self.kind, index, &mut rng, &self.library)));
        self.hot.iter().cloned().chain(fresh).collect()
    }

    /// Ingest the library tiles into a fresh store at `store_path`.
    pub fn ingest(&self) -> Result<(), String> {
        let path = &self.library.store_path;
        let _ = std::fs::remove_dir_all(path);
        let store = TileStore::create(path, LIBRARY_TILE).map_err(|e| e.to_string())?;
        for tile in &self.tiles {
            store.insert(tile).map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

/// `LIBRARY_TILES` tiles with distinct content digests.
fn library_tiles(rng: &mut XorShift64) -> Vec<GrayImage> {
    let mut seen = HashSet::new();
    let mut tiles = Vec::with_capacity(LIBRARY_TILES);
    let mut index = 0u64;
    while tiles.len() < LIBRARY_TILES {
        let tile = scene(index).render(LIBRARY_TILE, render_seed(rng));
        index += 1;
        if seen.insert(TileStore::tile_digest(&tile)) {
            tiles.push(tile);
        }
    }
    tiles
}

/// An endless, seeded sequence of requests for one client.
pub struct Stream<'a> {
    inputs: &'a Inputs,
    rng: XorShift64,
    order: Vec<usize>,
    next: u64,
    next_hot: usize,
}

impl Stream<'_> {
    pub fn next_job(&mut self) -> Arc<Job> {
        let index = self.next;
        self.next += 1;
        let inputs = self.inputs;
        let repeated = match inputs.kind {
            Kind::HotUpload => true,
            // Three in four requests come from the repeated set.
            Kind::SmallBurst => self.rng.next_below(4) != 0,
            Kind::ColdPaper | Kind::Library => false,
        };
        if repeated {
            let slot = self.order[self.next_hot % self.order.len()];
            self.next_hot += 1;
            Arc::clone(&inputs.hot[slot])
        } else {
            Arc::new(fresh_job(
                inputs.kind,
                index,
                &mut self.rng,
                &inputs.library,
            ))
        }
    }
}
