//! Deterministic content-addressed tile store.
//!
//! Layout (all under one root directory):
//!
//! ```text
//! <root>/store.json            {"version": 1, "tile": <edge pixels>,
//!                               "generation": <n>}
//! <root>/store.lock            advisory lock serializing generation bumps
//! <root>/objects/<aa>/<rest>   one PGM per unique tile, sharded by the
//!                              first hex byte of its SHA-256 digest
//! ```
//!
//! The digest covers the *canonical pixel content* — a domain tag, the
//! tile edge length and the row-major intensity bytes — never the source
//! file's encoding. Re-ingesting the same tile (from a PGM, a PPM, or a
//! differently-commented copy) is a no-op by hash, which is what makes
//! million-tile ingests idempotent and cheap to resume.
//!
//! Iteration order is the sorted digest list, so every walk of the store
//! is deterministic regardless of filesystem readdir order.
//!
//! # Generations
//!
//! Writing objects bumps `generation` in `store.json` *after* they have
//! landed ([`TileStore::insert`] once per object, [`TileStore::ingest_dir`]
//! once per pass), so a reader can tell from one small file whether the
//! store changed, where listing the objects reads every shard directory.
//! A store written before generations existed has no field and reads as
//! generation 0. Bumps are serialized by an advisory lock on
//! `store.lock`, so concurrent ingesters never lose an increment and the
//! generation never moves backwards (without the lock, a bump based on
//! a stale read could rewrite a value a reader has already cached).
//!
//! A reader must read the generation ([`TileStore::open`]) *before* it
//! lists the objects ([`TileStore::digests`]). Then a reader that lists
//! under generation `g` misses no object whose bump wrote a value `≤ g`:
//! that object landed before its bump, the bump happened no later than
//! the write of `g`, and the reader read `g` before it listed. Any other
//! object's bump writes a value above `g`, which every later reader sees
//! — so contents cached under `(root, g)` are never stale for a reader
//! that reads `g`.
//!
//! # Atomic writes
//!
//! Objects and `store.json` are written to a temporary file in the root
//! (which [`TileStore::digests`] never walks) and renamed into place, so
//! a reader racing an ingest never sees a half-written object and an
//! interrupted ingest leaves no torn one behind. An object that is
//! present but fails verification (written by an older, non-atomic
//! ingest) is rewritten by the next [`TileStore::insert`] of its tile.

use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::TilelibError;
use crate::hash::Sha256;
use mosaic_image::io::{load_pgm, load_ppm, save_pgm};
use mosaic_image::resize::resize_box;
use mosaic_image::GrayImage;
use mosaic_telemetry::registry;
use photomosaic::job::hex_encode;
use photomosaic::Json;

/// Store format version written to `store.json`.
const STORE_VERSION: u64 = 1;

/// Metadata file name inside the store root.
const META_FILE: &str = "store.json";

/// Object directory name inside the store root.
const OBJECTS_DIR: &str = "objects";

/// Lock file serializing generation bumps.
const LOCK_FILE: &str = "store.lock";

/// Distinguishes the temporary files of concurrent writers in one process.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// What one ingest pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Files examined.
    pub scanned: usize,
    /// New tiles written.
    pub ingested: usize,
    /// Tiles whose digest already existed (no-op by hash).
    pub duplicates: usize,
    /// Files skipped (unsupported extension or undecodable).
    pub skipped: usize,
}

/// A content-addressed tile store rooted at one directory.
#[derive(Debug)]
pub struct TileStore {
    root: PathBuf,
    tile: usize,
    generation: u64,
}

/// The verified contents of a store: what a library job reads.
#[derive(Debug)]
pub struct StoreSnapshot {
    /// Tile edge length in pixels.
    pub tile_size: usize,
    /// Sorted digests, one per tile.
    pub digests: Vec<String>,
    /// The tiles in digest order, each hash-verified when loaded.
    pub tiles: Vec<GrayImage>,
}

impl TileStore {
    /// Create a fresh store (or adopt an existing one with the same tile
    /// size) at `root`.
    ///
    /// # Errors
    /// [`TilelibError::Store`] on I/O failure or tile-size mismatch with
    /// an existing store.
    pub fn create(root: impl AsRef<Path>, tile: usize) -> Result<TileStore, TilelibError> {
        let root = root.as_ref().to_path_buf();
        if tile == 0 {
            return Err(TilelibError::Config("tile size must be positive".into()));
        }
        if root.join(META_FILE).exists() {
            let existing = Self::open(&root)?;
            if existing.tile != tile {
                return Err(TilelibError::Store(format!(
                    "store at {} has tile size {}, requested {tile}",
                    root.display(),
                    existing.tile
                )));
            }
            return Ok(existing);
        }
        fs::create_dir_all(root.join(OBJECTS_DIR))
            .map_err(|e| TilelibError::Store(format!("create {}: {e}", root.display())))?;
        let store = TileStore {
            root,
            tile,
            generation: 0,
        };
        store.write_meta(0)?;
        Ok(store)
    }

    /// Open an existing store, reading its generation (0 when
    /// `store.json` has none).
    ///
    /// # Errors
    /// [`TilelibError::Store`] when `store.json` is missing, malformed,
    /// or of an unknown version.
    pub fn open(root: impl AsRef<Path>) -> Result<TileStore, TilelibError> {
        let root = root.as_ref().to_path_buf();
        let text = fs::read_to_string(root.join(META_FILE)).map_err(|e| {
            TilelibError::Store(format!("no tile store at {}: {e}", root.display()))
        })?;
        let meta = Json::parse(&text)
            .map_err(|e| TilelibError::Store(format!("malformed {META_FILE}: {e:?}")))?;
        let version = meta
            .get("version")
            .and_then(Json::as_u64)
            .ok_or_else(|| TilelibError::Store(format!("{META_FILE} lacks a version")))?;
        if version != STORE_VERSION {
            return Err(TilelibError::Store(format!(
                "unsupported store version {version}"
            )));
        }
        let tile = meta
            .get("tile")
            .and_then(Json::as_u64)
            .ok_or_else(|| TilelibError::Store(format!("{META_FILE} lacks a tile size")))?
            as usize;
        if tile == 0 {
            return Err(TilelibError::Store("tile size must be positive".into()));
        }
        let generation = match meta.get("generation") {
            None => 0,
            Some(value) => value.as_u64().ok_or_else(|| {
                TilelibError::Store(format!("{META_FILE} has a malformed generation"))
            })?,
        };
        Ok(TileStore {
            root,
            tile,
            generation,
        })
    }

    /// Store root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Tile edge length in pixels.
    pub fn tile_size(&self) -> usize {
        self.tile
    }

    /// The store's generation as read when this handle was opened (or
    /// created). Inserts through the handle bump the generation on disk,
    /// not this value.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Content digest of a canonical tile: domain tag, edge length, then
    /// row-major intensities. Independent of the source encoding.
    pub fn tile_digest(tile: &GrayImage) -> String {
        let mut h = Sha256::new();
        h.update(b"mosaic-tile-v1");
        h.update(&(tile.width() as u64).to_le_bytes());
        let bytes: Vec<u8> = tile.pixels().iter().map(|p| p.0).collect();
        h.update(&bytes);
        hex_encode(&h.finish())
    }

    /// Insert one tile (resized to the store's tile size when needed).
    /// Returns `(digest, newly_written)`. An existing object is
    /// re-verified and rewritten when it fails verification. Every write
    /// bumps the store generation once the object has landed.
    ///
    /// # Errors
    /// [`TilelibError::Store`] on I/O failure.
    pub fn insert(&self, tile: &GrayImage) -> Result<(String, bool), TilelibError> {
        let (digest, written) = self.put(tile)?;
        if written {
            self.bump_generation()?;
        }
        Ok((digest, written))
    }

    /// [`TileStore::insert`] without the generation bump.
    fn put(&self, tile: &GrayImage) -> Result<(String, bool), TilelibError> {
        let canonical = if tile.width() == self.tile && tile.height() == self.tile {
            tile.clone()
        } else {
            resize_box(tile, self.tile, self.tile)
                .map_err(|e| TilelibError::Store(format!("resize to {}: {e:?}", self.tile)))?
        };
        let digest = Self::tile_digest(&canonical);
        let path = self.object_path(&digest);
        if self.load(&digest).is_ok() {
            return Ok((digest, false));
        }
        // lint:allow(panic) object_path always has the shard directory parent
        let shard = path.parent().expect("sharded path has a parent");
        fs::create_dir_all(shard).map_err(|e| TilelibError::Store(format!("create shard: {e}")))?;
        self.write_atomically(&path, |temp| {
            save_pgm(temp, &canonical).map_err(|e| format!("{e:?}"))
        })?;
        Ok((digest, true))
    }

    /// Ingest every `.pgm`/`.ppm` file under `dir` (non-recursive,
    /// filename-sorted). PPMs are converted to grayscale; everything is
    /// resized to the store tile size. Undecodable files are counted as
    /// skipped, not fatal — a library sweep should survive one bad file.
    ///
    /// The pass bumps the generation once, after all its objects have
    /// landed, instead of once per object: on ext4 each bump (a rename
    /// over `store.json`) costs several times an object write.
    ///
    /// # Errors
    /// [`TilelibError::Ingest`] when `dir` cannot be read at all,
    /// [`TilelibError::Store`] on store write failure.
    pub fn ingest_dir(&self, dir: impl AsRef<Path>) -> Result<IngestReport, TilelibError> {
        let dir = dir.as_ref();
        let entries = fs::read_dir(dir)
            .map_err(|e| TilelibError::Ingest(format!("read {}: {e}", dir.display())))?;
        let mut paths: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_file())
            .collect();
        paths.sort();
        let mut report = IngestReport::default();
        let pass: Result<(), TilelibError> = paths.iter().try_for_each(|path| {
            let ext = path
                .extension()
                .and_then(|e| e.to_str())
                .map(|e| e.to_ascii_lowercase());
            let loaded = match ext.as_deref() {
                Some("pgm") => {
                    report.scanned += 1;
                    load_pgm(path).ok()
                }
                Some("ppm") => {
                    report.scanned += 1;
                    load_ppm(path).ok().map(|rgb| rgb.to_gray())
                }
                _ => return Ok(()), // not a tile source at all
            };
            match loaded {
                Some(tile) => {
                    let (_, fresh) = self.put(&tile)?;
                    if fresh {
                        report.ingested += 1;
                    } else {
                        report.duplicates += 1;
                    }
                }
                None => report.skipped += 1,
            }
            Ok(())
        });
        // Bump also after a failed or object-free pass: re-running an
        // interrupted ingest then publishes the objects it had written.
        self.bump_generation()?;
        pass?;
        registry()
            .counter("tilelib_ingest_tiles_total")
            .add(report.ingested as u64);
        registry()
            .counter("tilelib_dedup_hits_total")
            .add(report.duplicates as u64);
        Ok(report)
    }

    /// Sorted digests of every stored tile — the canonical library
    /// order used by features, clustering and assignment.
    ///
    /// # Errors
    /// [`TilelibError::Store`] on I/O failure or a malformed object name.
    pub fn digests(&self) -> Result<Vec<String>, TilelibError> {
        let objects = self.root.join(OBJECTS_DIR);
        let mut out = Vec::new();
        let shards = fs::read_dir(&objects)
            .map_err(|e| TilelibError::Store(format!("read {}: {e}", objects.display())))?;
        for shard in shards {
            let shard = shard.map_err(|e| TilelibError::Store(format!("read shard: {e}")))?;
            if !shard.path().is_dir() {
                continue;
            }
            let prefix = shard.file_name().to_string_lossy().into_owned();
            let files = fs::read_dir(shard.path())
                .map_err(|e| TilelibError::Store(format!("read shard: {e}")))?;
            for file in files {
                let file = file.map_err(|e| TilelibError::Store(format!("read object: {e}")))?;
                let rest = file.file_name().to_string_lossy().into_owned();
                let digest = format!("{prefix}{rest}");
                if digest.len() != 64 || !digest.bytes().all(|b| b.is_ascii_hexdigit()) {
                    return Err(TilelibError::Store(format!(
                        "malformed object name {prefix}/{rest}"
                    )));
                }
                out.push(digest);
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Number of stored tiles.
    ///
    /// # Errors
    /// Propagates [`TileStore::digests`].
    pub fn len(&self) -> Result<usize, TilelibError> {
        Ok(self.digests()?.len())
    }

    /// Whether the store holds no tiles.
    ///
    /// # Errors
    /// Propagates [`TileStore::digests`].
    pub fn is_empty(&self) -> Result<bool, TilelibError> {
        Ok(self.len()? == 0)
    }

    /// Load one tile by digest.
    ///
    /// # Errors
    /// [`TilelibError::Store`] when the object is absent or its content
    /// no longer matches its name (corruption detection).
    pub fn load(&self, digest: &str) -> Result<GrayImage, TilelibError> {
        let tile = load_pgm(self.object_path(digest))
            .map_err(|e| TilelibError::Store(format!("load {digest}: {e:?}")))?;
        if Self::tile_digest(&tile) != digest {
            return Err(TilelibError::Store(format!(
                "object {digest} fails content verification"
            )));
        }
        Ok(tile)
    }

    /// Load every tile in digest order (the order [`TileStore::digests`]
    /// returns).
    ///
    /// # Errors
    /// Propagates [`TileStore::load`].
    pub fn load_all(&self) -> Result<(Vec<String>, Vec<GrayImage>), TilelibError> {
        let digests = self.digests()?;
        let mut tiles = Vec::with_capacity(digests.len());
        for d in &digests {
            tiles.push(self.load(d)?);
        }
        Ok((digests, tiles))
    }

    /// [`TileStore::load_all`] as a [`StoreSnapshot`]. Its contents are
    /// those of this handle's [`generation`](TileStore::generation) or
    /// newer, never older.
    ///
    /// # Errors
    /// Propagates [`TileStore::load`].
    pub fn snapshot(&self) -> Result<StoreSnapshot, TilelibError> {
        let (digests, tiles) = self.load_all()?;
        Ok(StoreSnapshot {
            tile_size: self.tile,
            digests,
            tiles,
        })
    }

    fn object_path(&self, digest: &str) -> PathBuf {
        let (shard, rest) = digest.split_at(2.min(digest.len()));
        self.root.join(OBJECTS_DIR).join(shard).join(rest)
    }

    /// Raise the on-disk generation by one, under the store lock so
    /// concurrent bumps serialize. The lock is released when the file
    /// closes, also when its holder dies.
    fn bump_generation(&self) -> Result<(), TilelibError> {
        let lock = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(self.root.join(LOCK_FILE))
            .map_err(|e| TilelibError::Store(format!("open {LOCK_FILE}: {e}")))?;
        // lint:allow(lock) an advisory flock on a file, not a Mutex: no poison to recover
        lock.lock()
            .map_err(|e| TilelibError::Store(format!("lock {LOCK_FILE}: {e}")))?;
        let current = Self::open(&self.root)?.generation;
        self.write_meta(current + 1)
    }

    /// Write `store.json` for this store at `generation`, atomically.
    fn write_meta(&self, generation: u64) -> Result<(), TilelibError> {
        let meta = Json::obj([
            ("version", Json::from(STORE_VERSION)),
            ("tile", Json::from(self.tile)),
            ("generation", Json::from(generation)),
        ])
        .encode();
        self.write_atomically(&self.root.join(META_FILE), |temp| {
            fs::write(temp, &meta).map_err(|e| e.to_string())
        })
    }

    /// Have `write` fill a temporary file in the store root, then rename
    /// it over `path`: readers see the old file or the whole new one.
    fn write_atomically(
        &self,
        path: &Path,
        write: impl FnOnce(&Path) -> Result<(), String>,
    ) -> Result<(), TilelibError> {
        let temp = self.root.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let written =
            write(&temp).and_then(|()| fs::rename(&temp, path).map_err(|e| e.to_string()));
        written.map_err(|e| {
            let _ = fs::remove_file(&temp);
            TilelibError::Store(format!("write {}: {e}", path.display()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_image::synth::Scene;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("mosaic_tilelib_tests")
            .join(format!("{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn create_open_roundtrip_and_tile_size_pinning() {
        let root = tmp("create_open");
        let store = TileStore::create(&root, 16).unwrap();
        assert_eq!(store.tile_size(), 16);
        let reopened = TileStore::open(&root).unwrap();
        assert_eq!(reopened.tile_size(), 16);
        // Adopting with the same size is fine; a different size is not.
        assert!(TileStore::create(&root, 16).is_ok());
        let err = TileStore::create(&root, 32).unwrap_err();
        assert!(err.is_store(), "{err}");
    }

    #[test]
    fn open_missing_store_is_typed_error() {
        let root = tmp("open_missing").join("nope");
        let err = TileStore::open(&root).unwrap_err();
        assert!(matches!(err, TilelibError::Store(_)));
    }

    #[test]
    fn insert_is_idempotent_by_content() {
        let root = tmp("insert_idempotent");
        let store = TileStore::create(&root, 8).unwrap();
        let tile = Scene::Plasma.render(8, 3);
        let (d1, fresh1) = store.insert(&tile).unwrap();
        let (d2, fresh2) = store.insert(&tile).unwrap();
        assert_eq!(d1, d2);
        assert!(fresh1);
        assert!(!fresh2);
        assert_eq!(store.len().unwrap(), 1);
        assert_eq!(store.load(&d1).unwrap(), tile);
    }

    #[test]
    fn ingest_dedups_by_hash_and_reingest_is_noop() {
        let root = tmp("ingest_dedup");
        let src = root.join("src");
        fs::create_dir_all(&src).unwrap();
        let a = Scene::Plasma.render(8, 1);
        let b = Scene::Checker.render(8, 2);
        save_pgm(src.join("a.pgm"), &a).unwrap();
        save_pgm(src.join("b.pgm"), &b).unwrap();
        save_pgm(src.join("copy_of_a.pgm"), &a).unwrap(); // same content
        fs::write(src.join("notes.txt"), "not a tile").unwrap();
        fs::write(src.join("broken.pgm"), "P5 garbage").unwrap();

        let store = TileStore::create(root.join("store"), 8).unwrap();
        let report = store.ingest_dir(&src).unwrap();
        assert_eq!(report.scanned, 4, "{report:?}"); // 3 pgm + broken
        assert_eq!(report.ingested, 2);
        assert_eq!(report.duplicates, 1);
        assert_eq!(report.skipped, 1);
        assert_eq!(store.len().unwrap(), 2);

        // Second pass: everything already present.
        let again = store.ingest_dir(&src).unwrap();
        assert_eq!(again.ingested, 0);
        assert_eq!(again.duplicates, 3);
        assert_eq!(store.len().unwrap(), 2);
    }

    #[test]
    fn ppm_and_pgm_of_same_content_share_a_digest() {
        let root = tmp("ppm_pgm_dedup");
        let src = root.join("src");
        fs::create_dir_all(&src).unwrap();
        let gray = Scene::Drapery.render(8, 5);
        save_pgm(src.join("tile.pgm"), &gray).unwrap();
        // A PPM whose three channels equal the grayscale converts back
        // to the same tile content.
        let rgb = mosaic_image::RgbImage::from_fn(8, 8, |x, y| {
            let g = gray.pixel(x, y).0;
            mosaic_image::Rgb([g, g, g])
        })
        .unwrap();
        mosaic_image::io::save_ppm(src.join("tile.ppm"), &rgb).unwrap();

        let store = TileStore::create(root.join("store"), 8).unwrap();
        let report = store.ingest_dir(&src).unwrap();
        assert_eq!(report.ingested + report.duplicates, 2);
        assert_eq!(store.len().unwrap(), 1, "one unique tile content");
    }

    #[test]
    fn digests_are_sorted_and_stable() {
        let root = tmp("sorted_digests");
        let store = TileStore::create(&root, 8).unwrap();
        for seed in 0..12 {
            store.insert(&Scene::Fur.render(8, seed)).unwrap();
        }
        let a = store.digests().unwrap();
        let mut b = a.clone();
        b.sort_unstable();
        assert_eq!(a, b, "iteration must be digest-sorted");
        assert_eq!(a, store.digests().unwrap(), "and stable across walks");
    }

    #[test]
    fn oversized_inserts_are_canonicalized_to_tile_size() {
        let root = tmp("resize_on_insert");
        let store = TileStore::create(&root, 8).unwrap();
        let big = Scene::Regatta.render(32, 9);
        let (digest, fresh) = store.insert(&big).unwrap();
        assert!(fresh);
        let loaded = store.load(&digest).unwrap();
        assert_eq!(loaded.dimensions(), (8, 8));
    }

    #[test]
    fn generation_bumps_only_when_an_object_is_written() {
        let root = tmp("generation_bumps");
        let store = TileStore::create(&root, 8).unwrap();
        assert_eq!(store.generation(), 0);
        let a = Scene::Plasma.render(8, 1);
        store.insert(&a).unwrap();
        store.insert(&Scene::Checker.render(8, 2)).unwrap();
        store.insert(&a).unwrap(); // duplicate: no write, no bump
        assert_eq!(TileStore::open(&root).unwrap().generation(), 2);
        assert_eq!(
            store.generation(),
            0,
            "a handle keeps the generation it read"
        );

        // An ingest pass bumps once for all its objects.
        let src = root.join("src");
        fs::create_dir_all(&src).unwrap();
        for seed in 3..6 {
            save_pgm(src.join(format!("{seed}.pgm")), &Scene::Fur.render(8, seed)).unwrap();
        }
        assert_eq!(store.ingest_dir(&src).unwrap().ingested, 3);
        assert_eq!(TileStore::open(&root).unwrap().generation(), 3);
    }

    #[test]
    fn store_json_without_generation_opens_as_generation_zero() {
        let root = tmp("legacy_meta");
        fs::create_dir_all(root.join(OBJECTS_DIR)).unwrap();
        fs::write(root.join(META_FILE), r#"{"version":1,"tile":8}"#).unwrap();
        let store = TileStore::open(&root).unwrap();
        assert_eq!((store.tile_size(), store.generation()), (8, 0));
        store.insert(&Scene::Fur.render(8, 4)).unwrap();
        assert_eq!(TileStore::open(&root).unwrap().generation(), 1);
    }

    #[test]
    fn malformed_generation_is_a_store_error() {
        let root = tmp("bad_generation");
        fs::write(
            root.join(META_FILE),
            r#"{"version":1,"tile":8,"generation":"x"}"#,
        )
        .unwrap();
        assert!(TileStore::open(&root).unwrap_err().is_store());
    }

    #[test]
    fn atomic_write_truncated_object_is_rewritten_on_reinsert() {
        let root = tmp("atomic_truncated");
        let store = TileStore::create(&root, 8).unwrap();
        let tile = Scene::Drapery.render(8, 6);
        let (digest, _) = store.insert(&tile).unwrap();
        // An ingest interrupted mid-write by an older, in-place writer.
        let path = store.object_path(&digest);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(store.load(&digest).is_err());

        let (again, rewritten) = store.insert(&tile).unwrap();
        assert_eq!(again, digest);
        assert!(rewritten, "a torn object must be rewritten, not trusted");
        assert_eq!(store.load(&digest).unwrap(), tile);
        assert_eq!(TileStore::open(&root).unwrap().generation(), 2);
    }

    /// A reader racing an ingest loads each object the moment its path
    /// appears, as a library job listing a store mid-ingest may: an
    /// object must be whole as soon as it exists.
    #[test]
    fn atomic_write_concurrent_ingest_never_fails_a_load() {
        let root = tmp("atomic_concurrent");
        let store = TileStore::create(&root, 8).unwrap();
        let tiles: Vec<GrayImage> = (0..200).map(|seed| Scene::Plasma.render(8, seed)).collect();
        let mut expected: Vec<String> = Vec::new();
        for digest in tiles.iter().map(TileStore::tile_digest) {
            if !expected.contains(&digest) {
                expected.push(digest);
            }
        }
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for tile in &tiles {
                    store.insert(tile).unwrap();
                }
            });
            for digest in &expected {
                let path = store.object_path(digest);
                while !path.exists() {
                    let stopped = writer.is_finished() && !path.exists();
                    assert!(!stopped, "the writer stopped before writing {digest}");
                    std::hint::spin_loop();
                }
                store
                    .load(digest)
                    .expect("an object is whole once it exists");
            }
        });
        let (digests, loaded) = store.load_all().unwrap();
        assert_eq!(
            (digests.len(), loaded.len()),
            (expected.len(), expected.len())
        );
    }

    #[test]
    fn concurrent_inserts_lose_no_generation_bump() {
        let root = tmp("concurrent_bumps");
        let store = TileStore::create(&root, 8).unwrap();
        let written: usize = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..3u64)
                .map(|t| {
                    let store = &store;
                    scope.spawn(move || {
                        (0..20)
                            .filter(|i| {
                                let tile = Scene::Checker.render(8, 1000 * t + i);
                                store.insert(&tile).unwrap().1
                            })
                            .count()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert_eq!(TileStore::open(&root).unwrap().generation(), written as u64);
    }

    #[test]
    fn corruption_is_detected_on_load() {
        let root = tmp("corruption");
        let store = TileStore::create(&root, 8).unwrap();
        let (digest, _) = store.insert(&Scene::Plasma.render(8, 11)).unwrap();
        let path = store.object_path(&digest);
        let other = Scene::Checker.render(8, 1);
        save_pgm(&path, &other).unwrap();
        let err = store.load(&digest).unwrap_err();
        assert!(err.to_string().contains("content verification"), "{err}");
    }
}
