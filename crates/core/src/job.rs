//! Reusable job descriptions for batch execution.
//!
//! `mosaic-service` (and any other batch driver) talks in [`JobSpec`]s: a
//! self-contained, JSON-serializable description of one generation — the
//! two images (either synthetic scene recipes or literal pixels), plus the
//! [`MosaicConfig`]. [`JobSpec::cache_key`] content-addresses the part of
//! the job that determines the Step-2 error matrix, so executors can reuse
//! matrices across identical submissions by handing a cached matrix to
//! [`generate_bounded_in`](crate::pipeline::generate_bounded_in).

use crate::config::MosaicConfig;
use crate::json::Json;
use crate::pipeline::MosaicResult;
use mosaic_image::synth::Scene;
use mosaic_image::{Gray, GrayImage};

/// Largest synth edge a decoded source may ask for: 8192² gray pixels
/// is 64 MiB. Rendering allocates `size²` bytes up front, so without a
/// bound one tiny request could ask for terabytes and abort the process.
pub const MAX_SYNTH_SIZE: usize = 8192;

/// Where a job's image comes from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ImageSource {
    /// Render a deterministic synthetic scene (cheap to ship over the
    /// wire: three scalars).
    Synth {
        /// Scene role.
        scene: Scene,
        /// Edge length in pixels.
        size: usize,
        /// Render seed.
        seed: u64,
    },
    /// Literal grayscale pixels, row-major, `size × size`.
    Pixels {
        /// Edge length in pixels.
        size: usize,
        /// `size * size` intensity bytes.
        pixels: Vec<u8>,
    },
}

impl ImageSource {
    /// Feed this source's identity into a job key: the recipe of a synth
    /// source, the size and bytes of a literal one.
    pub fn hash_into(&self, h: &mut Fnv1a) {
        match self {
            ImageSource::Synth { scene, size, seed } => {
                h.write_bytes(b"synth");
                h.write_bytes(scene.name().as_bytes());
                h.write_u64(*size as u64);
                h.write_u64(*seed);
            }
            ImageSource::Pixels { size, pixels } => {
                h.write_bytes(b"pixels");
                h.write_u64(*size as u64);
                h.write_bytes(pixels);
            }
        }
    }

    /// Materialize the image.
    ///
    /// # Errors
    /// Returns a description when a `Pixels` source's byte count does not
    /// match its declared size.
    pub fn resolve(&self) -> Result<GrayImage, String> {
        match self {
            ImageSource::Synth { scene, size, seed } => {
                if *size == 0 {
                    return Err("image size must be positive".to_string());
                }
                Ok(scene.render(*size, *seed))
            }
            ImageSource::Pixels { size, pixels } => {
                let data: Vec<Gray> = pixels.iter().map(|&b| Gray(b)).collect();
                GrayImage::from_vec(*size, *size, data)
                    .map_err(|e| format!("bad pixel payload: {e:?}"))
            }
        }
    }

    /// Serialize for the wire (pixels are hex-encoded).
    pub fn to_json(&self) -> Json {
        match self {
            ImageSource::Synth { scene, size, seed } => Json::obj([
                ("kind", Json::from("synth")),
                ("scene", Json::from(scene.name())),
                ("size", Json::from(*size)),
                ("seed", Json::Str(seed.to_string())),
            ]),
            ImageSource::Pixels { size, pixels } => Json::obj([
                ("kind", Json::from("pixels")),
                ("size", Json::from(*size)),
                ("pixels", Json::Str(hex_encode(pixels))),
            ]),
        }
    }

    /// Parse the shape produced by [`to_json`](Self::to_json).
    ///
    /// # Errors
    /// Returns a description of the first malformed or unknown field,
    /// including a synth `size` of 0 or above [`MAX_SYNTH_SIZE`].
    pub fn from_json(value: &Json) -> Result<ImageSource, String> {
        let kind = value
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("image source needs a \"kind\" string")?;
        match kind {
            "synth" => {
                let scene_name = value
                    .get("scene")
                    .and_then(Json::as_str)
                    .ok_or("synth source needs a \"scene\" string")?;
                let scene = Scene::ALL
                    .into_iter()
                    .find(|s| s.name() == scene_name)
                    .ok_or_else(|| format!("unknown scene {scene_name:?}"))?;
                let size = value
                    .get("size")
                    .and_then(Json::as_u64)
                    .ok_or("synth source needs an integer \"size\"")?;
                let size = usize::try_from(size)
                    .ok()
                    .filter(|size| (1..=MAX_SYNTH_SIZE).contains(size))
                    .ok_or_else(|| format!("synth size {size} is outside 1..={MAX_SYNTH_SIZE}"))?;
                let seed = match value.get("seed") {
                    None => 0,
                    Some(Json::Str(s)) => s
                        .parse::<u64>()
                        .map_err(|_| format!("invalid seed {s:?}"))?,
                    Some(other) => other.as_u64().ok_or("invalid seed")?,
                };
                Ok(ImageSource::Synth { scene, size, seed })
            }
            "pixels" => {
                let size = value
                    .get("size")
                    .and_then(Json::as_u64)
                    .ok_or("pixels source needs an integer \"size\"")?
                    as usize;
                let hex = value
                    .get("pixels")
                    .and_then(Json::as_str)
                    .ok_or("pixels source needs a \"pixels\" hex string")?;
                Ok(ImageSource::Pixels {
                    size,
                    pixels: hex_decode(hex)?,
                })
            }
            other => Err(format!("unknown image source kind {other:?}")),
        }
    }
}

/// One generation job: two image sources plus the pipeline configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// The image whose tiles are rearranged.
    pub input: ImageSource,
    /// The image being reproduced.
    pub target: ImageSource,
    /// Pipeline configuration.
    pub config: MosaicConfig,
}

impl JobSpec {
    /// Materialize both images.
    ///
    /// # Errors
    /// Propagates [`ImageSource::resolve`] failures, labeled by role.
    pub fn resolve(&self) -> Result<(GrayImage, GrayImage), String> {
        let input = self.input.resolve().map_err(|e| format!("input: {e}"))?;
        let target = self.target.resolve().map_err(|e| format!("target: {e}"))?;
        Ok((input, target))
    }

    /// Content hash (FNV-1a, 64-bit) of everything the Step-2 error
    /// matrix depends on: both image sources, the grid, the preprocess
    /// mode and the tile metric.
    ///
    /// The Step-3 algorithm and execution backend are deliberately
    /// *excluded* — they do not affect the matrix, so jobs that differ
    /// only in algorithm or backend share a cache entry. The metric and
    /// the target image are *included* even though the issue's shorthand
    /// names only `(input, grid, preprocess)`, because the matrix
    /// compares preprocessed input tiles against target tiles under the
    /// metric; omitting either would alias distinct matrices.
    pub fn cache_key(&self) -> u64 {
        let mut h = Fnv1a::default();
        self.input.hash_into(&mut h);
        self.target.hash_into(&mut h);
        h.write_u64(self.config.grid as u64);
        h.write_bytes(self.config.preprocess.name().as_bytes());
        h.write_bytes(self.config.metric.name().as_bytes());
        h.finish()
    }

    /// Serialize for the wire.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("input", self.input.to_json()),
            ("target", self.target.to_json()),
            ("config", self.config.to_json()),
        ])
    }

    /// Parse the shape produced by [`to_json`](Self::to_json). A missing
    /// `config` falls back to the defaults.
    ///
    /// # Errors
    /// Returns a description of the first malformed field.
    pub fn from_json(value: &Json) -> Result<JobSpec, String> {
        let input =
            ImageSource::from_json(value.get("input").ok_or("job needs an \"input\" source")?)?;
        let target =
            ImageSource::from_json(value.get("target").ok_or("job needs a \"target\" source")?)?;
        let config = match value.get("config") {
            Some(c) => MosaicConfig::from_json(c)?,
            None => MosaicConfig::default(),
        };
        Ok(JobSpec {
            input,
            target,
            config,
        })
    }
}

/// A finished job, ready for the wire: the rearranged image, the
/// assignment and the full [`GenerationReport`](crate::GenerationReport)
/// (as JSON).
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The rearranged image.
    pub image: GrayImage,
    /// The tile assignment (`assignment[v] = u`).
    pub assignment: Vec<usize>,
    /// Report JSON (see `GenerationReport::to_json`).
    pub report: Json,
}

impl From<MosaicResult> for JobResult {
    fn from(result: MosaicResult) -> Self {
        JobResult {
            report: result.report.to_json(),
            image: result.image,
            assignment: result.assignment,
        }
    }
}

impl JobResult {
    /// Serialize for the wire (pixels hex-encoded).
    pub fn to_json(&self) -> Json {
        let bytes: Vec<u8> = self.image.pixels().iter().map(|p| p.0).collect();
        Json::obj([
            (
                "image",
                Json::obj([
                    ("size", Json::from(self.image.width())),
                    ("pixels", Json::Str(hex_encode(&bytes))),
                ]),
            ),
            (
                "assignment",
                Json::Arr(self.assignment.iter().map(|&u| Json::from(u)).collect()),
            ),
            ("report", self.report.clone()),
        ])
    }

    /// Parse the shape produced by [`to_json`](Self::to_json).
    ///
    /// # Errors
    /// Returns a description of the first malformed field.
    pub fn from_json(value: &Json) -> Result<JobResult, String> {
        let image = value.get("image").ok_or("result needs an \"image\"")?;
        let size = image
            .get("size")
            .and_then(Json::as_u64)
            .ok_or("result image needs an integer \"size\"")? as usize;
        let hex = image
            .get("pixels")
            .and_then(Json::as_str)
            .ok_or("result image needs a \"pixels\" hex string")?;
        let data: Vec<Gray> = hex_decode(hex)?.into_iter().map(Gray).collect();
        let image = GrayImage::from_vec(size, size, data)
            .map_err(|e| format!("bad result image: {e:?}"))?;
        let assignment = value
            .get("assignment")
            .and_then(Json::as_arr)
            .ok_or("result needs an \"assignment\" array")?
            .iter()
            .map(|v| v.as_u64().map(|u| u as usize).ok_or("bad assignment entry"))
            .collect::<Result<Vec<usize>, &str>>()?;
        let report = value
            .get("report")
            .cloned()
            .ok_or("result needs a \"report\"")?;
        Ok(JobResult {
            image,
            assignment,
            report,
        })
    }
}

/// FNV-1a 64-bit hasher behind every job key: [`JobSpec::cache_key`]
/// and the tile library's routing key (std's `DefaultHasher` is not
/// guaranteed stable across releases; keys that route jobs and name
/// cached matrices should be).
pub struct Fnv1a {
    state: u64,
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a {
            state: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl Fnv1a {
    /// Hash `bytes`, then their length, so concatenations cannot
    /// collide trivially.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.write_u64(bytes.len() as u64);
    }

    /// Hash the little-endian bytes of `v`.
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Lowercase hex digits, indexed by nibble.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Marks a byte that is not a hex digit in [`HEX_VALUES`].
const NOT_HEX: u8 = 0xFF;

/// The value of every byte as a hex digit (either case), [`NOT_HEX`]
/// for the rest.
const HEX_VALUES: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut i = 0;
    while i < 16 {
        table[HEX_DIGITS[i] as usize] = i as u8;
        table[HEX_DIGITS[i].to_ascii_uppercase() as usize] = i as u8;
        i += 1;
    }
    table
};

/// Encode bytes as lowercase hex.
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = vec![0; bytes.len() * 2];
    for (pair, &b) in out.chunks_exact_mut(2).zip(bytes) {
        pair[0] = HEX_DIGITS[usize::from(b >> 4)];
        pair[1] = HEX_DIGITS[usize::from(b & 0xF)];
    }
    // lint:allow(panic) every byte is an ASCII digit from HEX_DIGITS
    String::from_utf8(out).expect("hex digits are ASCII")
}

/// Decode lowercase/uppercase hex into bytes.
///
/// # Errors
/// Returns a description on odd length or non-hex characters, naming
/// the first bad byte.
pub fn hex_decode(hex: &str) -> Result<Vec<u8>, String> {
    let bytes = hex.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return Err("hex string has odd length".to_string());
    }
    // Valid digits are at most 0x0F, so `bad` is NOT_HEX exactly when
    // some byte is not a digit.
    let mut bad = 0;
    let out: Vec<u8> = bytes
        .chunks_exact(2)
        .map(|pair| {
            let (high, low) = (
                HEX_VALUES[usize::from(pair[0])],
                HEX_VALUES[usize::from(pair[1])],
            );
            bad |= high | low;
            high << 4 | low
        })
        .collect();
    if bad == NOT_HEX {
        let first = bytes
            .iter()
            .find(|&&b| HEX_VALUES[usize::from(b)] == NOT_HEX)
            .map_or('?', |&b| char::from(b));
        return Err(format!("invalid hex byte {first:?}"));
    }
    Ok(out)
}

/// The per-character encoder [`hex_encode`] replaced, kept as its test
/// oracle.
#[cfg(test)]
fn hex_encode_per_char(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(HEX_DIGITS[usize::from(b >> 4)] as char);
        out.push(HEX_DIGITS[usize::from(b & 0xF)] as char);
    }
    out
}

/// The `to_digit` decoder [`hex_decode`] replaced, kept as its test
/// oracle.
#[cfg(test)]
fn hex_decode_per_char(hex: &str) -> Result<Vec<u8>, String> {
    let bytes = hex.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return Err("hex string has odd length".to_string());
    }
    let digit = |b: u8| -> Result<u8, String> {
        (b as char)
            .to_digit(16)
            .map(|d| d as u8)
            .ok_or_else(|| format!("invalid hex byte {:?}", b as char))
    };
    bytes
        .chunks_exact(2)
        .map(|pair| Ok(digit(pair[0])? << 4 | digit(pair[1])?))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Algorithm, Backend, MosaicBuilder};
    use mosaic_grid::TileMetric;
    use mosaic_image::testutil::XorShift;

    fn sample_spec() -> JobSpec {
        JobSpec {
            input: ImageSource::Synth {
                scene: Scene::Portrait,
                size: 32,
                seed: 1,
            },
            target: ImageSource::Synth {
                scene: Scene::Regatta,
                size: 32,
                seed: 2,
            },
            config: MosaicBuilder::new()
                .grid(4)
                .backend(Backend::Serial)
                .build(),
        }
    }

    #[test]
    fn hex_roundtrips() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(hex_decode(&hex_encode(&data)).unwrap(), data);
        assert_eq!(hex_encode(&[0x0f, 0xa0]), "0fa0");
        assert!(hex_decode("abc").is_err());
        assert!(hex_decode("zz").is_err());
    }

    #[test]
    fn codec_oracle_hex_matches_the_per_char_codec() {
        let mut rng = XorShift::new(0x4E);
        let mut inputs: Vec<Vec<u8>> = (0..=70)
            .flat_map(|len| (0..8).map(move |_| len))
            .map(|len| rng.bytes(len))
            .collect();
        inputs.push(rng.bytes(1 << 19)); // a 1 MiB hex string
        for bytes in inputs {
            let hex = hex_encode(&bytes);
            assert_eq!(hex, hex_encode_per_char(&bytes));
            assert_eq!(hex_decode(&hex), Ok(bytes.clone()));
            assert_eq!(hex_decode(&hex), hex_decode_per_char(&hex));
            let upper = hex.to_ascii_uppercase();
            assert_eq!(hex_decode(&upper), Ok(bytes));
        }
    }

    #[test]
    fn codec_oracle_hex_errors_match_the_per_char_codec_at_every_position() {
        let mut rng = XorShift::new(0x4F);
        let valid = hex_encode(&rng.bytes(35));
        for len in 0..=valid.len() {
            let prefix = &valid[..len];
            assert_eq!(hex_decode(prefix), hex_decode_per_char(prefix), "len {len}");
        }
        for at in 0..valid.len() {
            for bad in ["g", "G", " ", "\"", "\u{0}", "\u{7F}", "x", "é"] {
                let mut text = valid.clone();
                text.replace_range(at..(at + bad.len()).min(valid.len()), bad);
                let got = hex_decode(&text);
                assert_eq!(got, hex_decode_per_char(&text), "{bad:?} at {at}");
                assert!(got.is_err(), "{bad:?} at {at}");
            }
            // A second bad byte later on must not change which is named.
            let mut text = valid.clone();
            text.replace_range(at..at + 1, "z");
            text.replace_range(valid.len() - 1.., "q");
            assert_eq!(hex_decode(&text), hex_decode_per_char(&text), "z at {at}");
        }
    }

    #[test]
    fn synth_size_bound_rejects_zero_and_oversized_sizes_at_decode() {
        let source = |size: u64| {
            Json::parse(&format!(
                r#"{{"kind":"synth","scene":"plasma","size":{size}}}"#
            ))
            .unwrap()
        };
        for size in [0, MAX_SYNTH_SIZE as u64 + 1, 1 << 20, 1 << 53] {
            let err = ImageSource::from_json(&source(size)).unwrap_err();
            assert!(err.contains("outside 1..=8192"), "{size}: {err}");
        }
        for size in [1, 16, MAX_SYNTH_SIZE as u64] {
            assert_eq!(
                ImageSource::from_json(&source(size)),
                Ok(ImageSource::Synth {
                    scene: Scene::Plasma,
                    size: size as usize,
                    seed: 0,
                })
            );
        }
        // A whole job carrying the source is refused too.
        let job = Json::obj([("input", source(1 << 20)), ("target", source(16))]);
        assert!(JobSpec::from_json(&job).unwrap_err().contains("outside"));
    }

    #[test]
    fn spec_roundtrips_through_json_text() {
        let mut spec = sample_spec();
        spec.input = ImageSource::Pixels {
            size: 2,
            pixels: vec![1, 2, 3, 4],
        };
        let text = spec.to_json().encode();
        let back = JobSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn synth_sources_resolve_deterministically() {
        let spec = sample_spec();
        let (a_in, a_tg) = spec.resolve().unwrap();
        let (b_in, b_tg) = spec.resolve().unwrap();
        assert_eq!(a_in, b_in);
        assert_eq!(a_tg, b_tg);
        assert_eq!(a_in.dimensions(), (32, 32));
    }

    #[test]
    fn bad_sources_are_errors() {
        let bad = ImageSource::Pixels {
            size: 3,
            pixels: vec![0; 8], // 3x3 needs 9
        };
        assert!(bad.resolve().is_err());
        let zero = ImageSource::Synth {
            scene: Scene::Fur,
            size: 0,
            seed: 0,
        };
        assert!(zero.resolve().is_err());
    }

    /// Cache keys route jobs (the gateway's rendezvous placement) and
    /// name cached matrices, so their values must not drift: these are
    /// the keys of one synth spec and one literal-pixel spec.
    #[test]
    fn cache_key_pinned_values() {
        assert_eq!(sample_spec().cache_key(), 0x9c3f_6a5d_756d_0286);
        let pixels = JobSpec {
            input: ImageSource::Pixels {
                size: 4,
                pixels: (0..16).collect(),
            },
            target: ImageSource::Pixels {
                size: 4,
                pixels: (0..16).rev().collect(),
            },
            config: MosaicBuilder::new().grid(2).metric(TileMetric::Ssd).build(),
        };
        assert_eq!(pixels.cache_key(), 0xc2d6_50d6_bfed_0a87);
    }

    #[test]
    fn cache_key_tracks_matrix_inputs_only() {
        let base = sample_spec();
        let key = base.cache_key();
        assert_eq!(key, sample_spec().cache_key(), "key must be deterministic");

        // Fields the matrix depends on change the key …
        let mut other = base.clone();
        other.config.grid = 8;
        assert_ne!(other.cache_key(), key);
        let mut other = base.clone();
        other.config.metric = TileMetric::Ssd;
        assert_ne!(other.cache_key(), key);
        let mut other = base.clone();
        other.config.preprocess = crate::config::Preprocess::None;
        assert_ne!(other.cache_key(), key);
        let mut other = base.clone();
        other.input = ImageSource::Synth {
            scene: Scene::Portrait,
            size: 32,
            seed: 99,
        };
        assert_ne!(other.cache_key(), key);
        let mut other = base.clone();
        other.target = ImageSource::Synth {
            scene: Scene::Checker,
            size: 32,
            seed: 2,
        };
        assert_ne!(other.cache_key(), key);

        // … fields it does not depend on do not.
        let mut other = base.clone();
        other.config.algorithm = Algorithm::LocalSearch;
        assert_eq!(other.cache_key(), key);
        let mut other = base;
        other.config.backend = Backend::Threads(4);
        assert_eq!(other.cache_key(), key);
    }

    #[test]
    fn pixel_sources_with_same_content_share_a_key() {
        let rendered = Scene::Plasma.render(16, 7);
        let bytes: Vec<u8> = rendered.pixels().iter().map(|p| p.0).collect();
        let mk = || JobSpec {
            input: ImageSource::Pixels {
                size: 16,
                pixels: bytes.clone(),
            },
            target: ImageSource::Synth {
                scene: Scene::Checker,
                size: 16,
                seed: 0,
            },
            config: MosaicBuilder::new().grid(4).build(),
        };
        assert_eq!(mk().cache_key(), mk().cache_key());
    }

    #[test]
    fn job_result_roundtrips_through_json_text() {
        let spec = sample_spec();
        let (input, target) = spec.resolve().unwrap();
        let result = crate::generate(&input, &target, &spec.config).unwrap();
        let job: JobResult = result.clone().into();
        let text = job.to_json().encode();
        let back = JobResult::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.image, result.image);
        assert_eq!(back.assignment, result.assignment);
        assert_eq!(
            back.report.get("total_error").unwrap().as_u64(),
            Some(result.report.total_error)
        );
    }
}
