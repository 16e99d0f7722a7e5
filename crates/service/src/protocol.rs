//! The wire protocol: line-delimited JSON over TCP.
//!
//! Each request and each response is one JSON object on one line,
//! terminated by `\n` (no newlines inside a message — the std-only
//! encoder in `photomosaic::json` never emits any). A connection may
//! carry any number of request/response pairs, in order.
//!
//! Requests (`"op"` selects the operation):
//!
//! ```json
//! {"op":"submit","job":{"input":{...},"target":{...},"config":{...}}}
//! {"op":"stats"}
//! {"op":"metrics"}
//! {"op":"ping"}
//! {"op":"shutdown"}
//! {"op":"gateway"}
//! {"op":"library","job":{"target":{...},"store":"/path","params":{...}}}
//! ```
//!
//! Responses (`"kind"` selects the shape):
//!
//! ```json
//! {"kind":"result","result":{"image":{...},"assignment":[...],"report":{...}}}
//! {"kind":"rejected","retry_after_ms":50}
//! {"kind":"stats","stats":{...}}
//! {"kind":"metrics","text":"..."}
//! {"kind":"pong"}
//! {"kind":"shutting-down"}
//! {"kind":"error","message":"..."}
//! {"kind":"frame_too_large","max_frame_bytes":16777216}
//! {"kind":"deadline_exceeded","deadline_ms":30000}
//! {"kind":"gateway","gateway":{...}}
//! {"kind":"backend_down","backend":"127.0.0.1:7733","retry_after_ms":50}
//! {"kind":"no_backend_available","retry_after_ms":50}
//! {"kind":"store_error","message":"..."}
//! {"kind":"library_infeasible","cells":256,"tiles":40}
//! ```
//!
//! The last three shapes are produced only by `mosaic-gateway`, which
//! speaks this same protocol in front of a backend fleet; a plain
//! server answers the `gateway` op with an `error`.
//!
//! A `result`'s `report` object is the job's
//! [`GenerationReport::to_json`](photomosaic::GenerationReport::to_json)
//! extended with two service-level keys: `queue_wait_ms` (time between
//! acceptance and a worker picking the job up) and `cache_hit` (whether
//! the Step-2 matrix came from the cache).

use mosaic_tilelib::LibraryJobSpec;
use photomosaic::json::find_newline;
use photomosaic::{JobSpec, Json};
use std::io::{BufRead, Write};

/// The request `"op"` words. This module is the registry: every
/// encoder, decoder, and dispatcher names these constants, so the wire
/// vocabulary is defined exactly once (enforced by `mosaic-lint`'s
/// `protocol-registry` rule).
pub mod ops {
    /// Run a job.
    pub const SUBMIT: &str = "submit";
    /// Aggregate service metrics as JSON.
    pub const STATS: &str = "stats";
    /// Service metrics as Prometheus-style text.
    pub const METRICS: &str = "metrics";
    /// Liveness check.
    pub const PING: &str = "ping";
    /// Graceful shutdown.
    pub const SHUTDOWN: &str = "shutdown";
    /// Gateway routing/health snapshot (answered by `mosaic-gateway`
    /// instances; plain servers answer with an error).
    pub const GATEWAY: &str = "gateway";
    /// Run a tile-library job: solve the target against an on-disk
    /// content-addressed tile store with clustered candidate pruning.
    pub const LIBRARY: &str = "library";
}

/// The response `"kind"` words — the response half of the registry.
pub mod kinds {
    /// A finished job.
    pub const RESULT: &str = "result";
    /// Queue full; retry later.
    pub const REJECTED: &str = "rejected";
    /// Metrics snapshot (JSON).
    pub const STATS: &str = "stats";
    /// Metrics exposition (text).
    pub const METRICS: &str = "metrics";
    /// Liveness reply.
    pub const PONG: &str = "pong";
    /// Shutdown acknowledged.
    pub const SHUTTING_DOWN: &str = "shutting-down";
    /// The request failed.
    pub const ERROR: &str = "error";
    /// The request frame exceeded the server's size limit.
    pub const FRAME_TOO_LARGE: &str = "frame_too_large";
    /// The job ran past the server's per-job deadline.
    pub const DEADLINE_EXCEEDED: &str = "deadline_exceeded";
    /// Gateway routing/health snapshot (JSON).
    pub const GATEWAY: &str = "gateway";
    /// Every routing attempt for the job died on connect/IO and the
    /// failover hop budget is spent.
    pub const BACKEND_DOWN: &str = "backend_down";
    /// No backend is currently routable at all.
    pub const NO_BACKEND_AVAILABLE: &str = "no_backend_available";
    /// A library job's tile store could not be opened or read.
    pub const STORE_ERROR: &str = "store_error";
    /// A library job asked for more cells than the store has tiles.
    pub const LIBRARY_INFEASIBLE: &str = "library_infeasible";
}

/// A parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Run a job.
    Submit(Box<JobSpec>),
    /// Report aggregate service metrics (JSON).
    Stats,
    /// Report service metrics as Prometheus-style text.
    Metrics,
    /// Liveness check.
    Ping,
    /// Begin graceful shutdown (control command).
    Shutdown,
    /// Report the gateway's routing table and per-backend health.
    GatewayInfo,
    /// Run a tile-library job against an on-disk tile store.
    Library(Box<LibraryJobSpec>),
}

impl Request {
    /// Serialize for the wire.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Submit(spec) => {
                Json::obj([("op", Json::from(ops::SUBMIT)), ("job", spec.to_json())])
            }
            Request::Stats => Json::obj([("op", Json::from(ops::STATS))]),
            Request::Metrics => Json::obj([("op", Json::from(ops::METRICS))]),
            Request::Ping => Json::obj([("op", Json::from(ops::PING))]),
            Request::Shutdown => Json::obj([("op", Json::from(ops::SHUTDOWN))]),
            Request::GatewayInfo => Json::obj([("op", Json::from(ops::GATEWAY))]),
            Request::Library(spec) => {
                Json::obj([("op", Json::from(ops::LIBRARY)), ("job", spec.to_json())])
            }
        }
    }

    /// Parse the shape produced by [`to_json`](Self::to_json).
    ///
    /// # Errors
    /// Returns a description of the first malformed field.
    pub fn from_json(value: &Json) -> Result<Request, String> {
        let op = value
            .get("op")
            .and_then(Json::as_str)
            .ok_or("request needs an \"op\" string")?;
        match op {
            ops::SUBMIT => {
                let job = value.get("job").ok_or("submit needs a \"job\"")?;
                Ok(Request::Submit(Box::new(JobSpec::from_json(job)?)))
            }
            ops::STATS => Ok(Request::Stats),
            ops::METRICS => Ok(Request::Metrics),
            ops::PING => Ok(Request::Ping),
            ops::SHUTDOWN => Ok(Request::Shutdown),
            ops::GATEWAY => Ok(Request::GatewayInfo),
            ops::LIBRARY => {
                let job = value.get("job").ok_or("library needs a \"job\"")?;
                Ok(Request::Library(Box::new(LibraryJobSpec::from_json(job)?)))
            }
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

/// A server response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A finished job (`JobResult::to_json` with service metrics folded
    /// into the report).
    Result {
        /// The serialized `JobResult`.
        result: Json,
    },
    /// The queue was full; retry after the given delay.
    Rejected {
        /// Suggested client back-off.
        retry_after_ms: u64,
    },
    /// Aggregate metrics snapshot.
    Stats {
        /// The metrics object.
        stats: Json,
    },
    /// Prometheus-style text exposition (newlines survive the wire via
    /// JSON string escaping).
    Metrics {
        /// The exposition text.
        text: String,
    },
    /// Liveness reply.
    Pong,
    /// Shutdown acknowledged; the server drains queued jobs then exits.
    ShuttingDown,
    /// The request failed.
    Error {
        /// What went wrong.
        message: String,
    },
    /// The request frame exceeded the server's size limit; the
    /// connection is closed after this response because framing is lost.
    FrameTooLarge {
        /// The server's per-frame byte limit.
        max_frame_bytes: u64,
    },
    /// The job ran past the server's per-job deadline and was cancelled
    /// at the next sweep/row boundary.
    DeadlineExceeded {
        /// The deadline that was exceeded.
        deadline_ms: u64,
    },
    /// Gateway routing table and per-backend health snapshot.
    Gateway {
        /// The snapshot object.
        gateway: Json,
    },
    /// Every failover attempt for the job hit a dead backend; the
    /// client should back off and retry like a rejection.
    BackendDown {
        /// The last backend address that failed.
        backend: String,
        /// Suggested client back-off.
        retry_after_ms: u64,
    },
    /// No backend is routable at all (whole fleet down or removed).
    NoBackendAvailable {
        /// Suggested client back-off.
        retry_after_ms: u64,
    },
    /// A library job's tile store could not be opened or read on the
    /// executing host.
    StoreError {
        /// What went wrong with the store.
        message: String,
    },
    /// A library job asked for more cells than the store holds tiles,
    /// so no injective assignment exists.
    LibraryInfeasible {
        /// Cells the job needs to fill.
        cells: u64,
        /// Tiles the store actually holds.
        tiles: u64,
    },
}

impl Response {
    /// Serialize as one wire line: JSON + `\n`.
    pub fn to_line(&self) -> Vec<u8> {
        encode_line(&self.to_json())
    }

    /// Serialize for the wire.
    pub fn to_json(&self) -> Json {
        match self {
            Response::Result { result } => Json::obj([
                ("kind", Json::from(kinds::RESULT)),
                (kinds::RESULT, result.clone()),
            ]),
            Response::Rejected { retry_after_ms } => Json::obj([
                ("kind", Json::from(kinds::REJECTED)),
                ("retry_after_ms", Json::from(*retry_after_ms)),
            ]),
            Response::Stats { stats } => Json::obj([
                ("kind", Json::from(kinds::STATS)),
                (kinds::STATS, stats.clone()),
            ]),
            Response::Metrics { text } => Json::obj([
                ("kind", Json::from(kinds::METRICS)),
                ("text", Json::from(text.as_str())),
            ]),
            Response::Pong => Json::obj([("kind", Json::from(kinds::PONG))]),
            Response::ShuttingDown => Json::obj([("kind", Json::from(kinds::SHUTTING_DOWN))]),
            Response::Error { message } => Json::obj([
                ("kind", Json::from(kinds::ERROR)),
                ("message", Json::from(message.as_str())),
            ]),
            Response::FrameTooLarge { max_frame_bytes } => Json::obj([
                ("kind", Json::from(kinds::FRAME_TOO_LARGE)),
                ("max_frame_bytes", Json::from(*max_frame_bytes)),
            ]),
            Response::DeadlineExceeded { deadline_ms } => Json::obj([
                ("kind", Json::from(kinds::DEADLINE_EXCEEDED)),
                ("deadline_ms", Json::from(*deadline_ms)),
            ]),
            Response::Gateway { gateway } => Json::obj([
                ("kind", Json::from(kinds::GATEWAY)),
                (kinds::GATEWAY, gateway.clone()),
            ]),
            Response::BackendDown {
                backend,
                retry_after_ms,
            } => Json::obj([
                ("kind", Json::from(kinds::BACKEND_DOWN)),
                ("backend", Json::from(backend.as_str())),
                ("retry_after_ms", Json::from(*retry_after_ms)),
            ]),
            Response::NoBackendAvailable { retry_after_ms } => Json::obj([
                ("kind", Json::from(kinds::NO_BACKEND_AVAILABLE)),
                ("retry_after_ms", Json::from(*retry_after_ms)),
            ]),
            Response::StoreError { message } => Json::obj([
                ("kind", Json::from(kinds::STORE_ERROR)),
                ("message", Json::from(message.as_str())),
            ]),
            Response::LibraryInfeasible { cells, tiles } => Json::obj([
                ("kind", Json::from(kinds::LIBRARY_INFEASIBLE)),
                ("cells", Json::from(*cells)),
                ("tiles", Json::from(*tiles)),
            ]),
        }
    }

    /// Parse the shape produced by [`to_json`](Self::to_json).
    ///
    /// # Errors
    /// Returns a description of the first malformed field.
    pub fn from_json(value: &Json) -> Result<Response, String> {
        let kind = value
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("response needs a \"kind\" string")?;
        match kind {
            kinds::RESULT => Ok(Response::Result {
                result: value
                    .get(kinds::RESULT)
                    .cloned()
                    .ok_or("result response needs a \"result\"")?,
            }),
            kinds::REJECTED => Ok(Response::Rejected {
                retry_after_ms: value
                    .get("retry_after_ms")
                    .and_then(Json::as_u64)
                    .ok_or("rejected response needs \"retry_after_ms\"")?,
            }),
            kinds::STATS => Ok(Response::Stats {
                stats: value
                    .get(kinds::STATS)
                    .cloned()
                    .ok_or("stats response needs \"stats\"")?,
            }),
            kinds::METRICS => Ok(Response::Metrics {
                text: value
                    .get("text")
                    .and_then(Json::as_str)
                    .ok_or("metrics response needs \"text\"")?
                    .to_string(),
            }),
            kinds::PONG => Ok(Response::Pong),
            kinds::SHUTTING_DOWN => Ok(Response::ShuttingDown),
            kinds::ERROR => Ok(Response::Error {
                message: value
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown error")
                    .to_string(),
            }),
            kinds::FRAME_TOO_LARGE => Ok(Response::FrameTooLarge {
                max_frame_bytes: value
                    .get("max_frame_bytes")
                    .and_then(Json::as_u64)
                    .ok_or("frame-too-large response needs \"max_frame_bytes\"")?,
            }),
            kinds::DEADLINE_EXCEEDED => Ok(Response::DeadlineExceeded {
                deadline_ms: value
                    .get("deadline_ms")
                    .and_then(Json::as_u64)
                    .ok_or("deadline-exceeded response needs \"deadline_ms\"")?,
            }),
            kinds::GATEWAY => Ok(Response::Gateway {
                gateway: value
                    .get(kinds::GATEWAY)
                    .cloned()
                    .ok_or("gateway response needs a \"gateway\"")?,
            }),
            kinds::BACKEND_DOWN => Ok(Response::BackendDown {
                backend: value
                    .get("backend")
                    .and_then(Json::as_str)
                    .ok_or("backend-down response needs a \"backend\"")?
                    .to_string(),
                retry_after_ms: value
                    .get("retry_after_ms")
                    .and_then(Json::as_u64)
                    .ok_or("backend-down response needs \"retry_after_ms\"")?,
            }),
            kinds::NO_BACKEND_AVAILABLE => Ok(Response::NoBackendAvailable {
                retry_after_ms: value
                    .get("retry_after_ms")
                    .and_then(Json::as_u64)
                    .ok_or("no-backend-available response needs \"retry_after_ms\"")?,
            }),
            kinds::STORE_ERROR => Ok(Response::StoreError {
                message: value
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown store error")
                    .to_string(),
            }),
            kinds::LIBRARY_INFEASIBLE => Ok(Response::LibraryInfeasible {
                cells: value
                    .get("cells")
                    .and_then(Json::as_u64)
                    .ok_or("library-infeasible response needs \"cells\"")?,
                tiles: value
                    .get("tiles")
                    .and_then(Json::as_u64)
                    .ok_or("library-infeasible response needs \"tiles\"")?,
            }),
            other => Err(format!("unknown response kind {other:?}")),
        }
    }
}

/// Encode one message as a wire line: JSON + `\n`.
pub fn encode_line(message: &Json) -> Vec<u8> {
    let mut line = message.encode().into_bytes();
    line.push(b'\n');
    line
}

/// Write one message (JSON + `\n`) and flush.
///
/// # Errors
/// Propagates I/O failures.
pub fn write_message(writer: &mut impl Write, message: &Json) -> std::io::Result<()> {
    writer.write_all(&encode_line(message))?;
    writer.flush()
}

/// Why [`read_message`] did not produce a message.
#[derive(Debug)]
pub enum ReadError {
    /// The frame exceeded `max_frame_bytes` before its newline arrived.
    /// Framing is lost: the caller must drop the connection after
    /// (optionally) answering with [`Response::FrameTooLarge`].
    FrameTooLarge {
        /// The limit that was exceeded.
        limit: usize,
    },
    /// The line was complete but not valid UTF-8 JSON.
    Malformed(String),
    /// The underlying transport failed (includes read timeouts, which
    /// surface as [`std::io::ErrorKind::WouldBlock`] or
    /// [`std::io::ErrorKind::TimedOut`] depending on the platform).
    Io(std::io::Error),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::FrameTooLarge { limit } => {
                write!(f, "frame exceeds the {limit}-byte limit")
            }
            ReadError::Malformed(e) => write!(f, "malformed message: {e}"),
            ReadError::Io(e) => write!(f, "read failed: {e}"),
        }
    }
}

impl std::error::Error for ReadError {}

impl From<ReadError> for std::io::Error {
    fn from(e: ReadError) -> Self {
        match e {
            ReadError::Io(io) => io,
            other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// Read one message of at most `max_frame_bytes` payload bytes
/// (excluding the terminating newline): [`read_frame`], then
/// [`parse_frame`]. Returns `Ok(None)` on clean EOF before any bytes.
///
/// # Errors
/// As [`read_frame`], plus [`ReadError::Malformed`] for non-JSON
/// payloads.
pub fn read_message(
    reader: &mut impl BufRead,
    max_frame_bytes: usize,
) -> Result<Option<Json>, ReadError> {
    read_frame(reader, max_frame_bytes)?
        .map(|frame| parse_frame(&frame))
        .transpose()
}

/// Read the raw bytes of one frame of at most `max_frame_bytes` bytes,
/// without its terminating newline. Returns `Ok(None)` on EOF: framing
/// is strict, so a frame exists only once its `\n` has arrived, and a
/// frame cut short by EOF is discarded exactly as the event-driven
/// [`FrameAccumulator`] discards an unfinished tail.
///
/// The line is accumulated through [`BufRead::fill_buf`] in transport-
/// sized chunks and the limit is enforced *before* each chunk is copied,
/// so peak allocation is bounded by `max_frame_bytes` plus the reader's
/// own buffer no matter how many bytes a hostile peer streams.
///
/// # Errors
/// [`ReadError::FrameTooLarge`] once the accumulated line would exceed
/// the limit, and [`ReadError::Io`] for transport failures.
pub fn read_frame(
    reader: &mut impl BufRead,
    max_frame_bytes: usize,
) -> Result<Option<Vec<u8>>, ReadError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ReadError::Io(e)),
        };
        if chunk.is_empty() {
            return Ok(None);
        }
        let (take, consume) = match find_newline(chunk) {
            Some(newline_at) => (newline_at, newline_at + 1),
            None => (chunk.len(), chunk.len()),
        };
        if line.len() + take > max_frame_bytes {
            return Err(ReadError::FrameTooLarge {
                limit: max_frame_bytes,
            });
        }
        line.extend_from_slice(&chunk[..take]);
        reader.consume(consume);
        if take < consume {
            return Ok(Some(line));
        }
    }
}

/// Parse one frame (a line without its `\n`; a trailing `\r` is
/// ignored) as JSON.
///
/// # Errors
/// [`ReadError::Malformed`] when the frame is not UTF-8 JSON.
pub fn parse_frame(frame: &[u8]) -> Result<Json, ReadError> {
    let text = std::str::from_utf8(frame).map_err(|e| ReadError::Malformed(e.to_string()))?;
    Json::parse(text.trim_end_matches('\r')).map_err(|e| ReadError::Malformed(e.to_string()))
}

/// Incremental, bounded line framing for nonblocking sockets.
///
/// The event-driven front-end cannot park a thread in [`read_message`],
/// so it feeds whatever bytes the socket had into an accumulator and
/// pops complete frames as they form. The frame cap is enforced with the
/// same discipline as [`read_frame`]: each chunk is checked against
/// `max_frame_bytes` *before* it is copied, so peak buffering per
/// connection stays bounded no matter how many bytes a hostile peer
/// streams without a newline.
#[derive(Debug)]
pub struct FrameAccumulator {
    /// Complete newline-terminated lines, oldest first.
    complete: std::collections::VecDeque<Vec<u8>>,
    /// The in-progress line (no newline seen yet).
    tail: Vec<u8>,
    /// Frame cap in bytes (`usize::MAX` = unlimited).
    limit: usize,
}

impl FrameAccumulator {
    /// An empty accumulator enforcing `max_frame_bytes` per frame
    /// (0 = unlimited, matching the `ServiceConfig` knob).
    pub fn new(max_frame_bytes: usize) -> FrameAccumulator {
        FrameAccumulator {
            complete: std::collections::VecDeque::new(),
            tail: Vec::new(),
            limit: match max_frame_bytes {
                0 => usize::MAX,
                limit => limit,
            },
        }
    }

    /// Feed bytes read from the socket. Complete lines become poppable
    /// via [`next_message`](FrameAccumulator::next_message).
    ///
    /// # Errors
    /// [`ReadError::FrameTooLarge`] once any single frame would exceed
    /// the cap — checked before the offending bytes are buffered.
    /// Framing is lost at that point; the caller must stop feeding and
    /// drop the connection after (optionally) answering.
    pub fn extend(&mut self, mut chunk: &[u8]) -> Result<(), ReadError> {
        while let Some(newline_at) = find_newline(chunk) {
            let segment = &chunk[..newline_at];
            if self.tail.len() + segment.len() > self.limit {
                return Err(ReadError::FrameTooLarge { limit: self.limit });
            }
            let mut line = std::mem::take(&mut self.tail);
            line.extend_from_slice(segment);
            self.complete.push_back(line);
            chunk = &chunk[newline_at + 1..];
        }
        if self.tail.len() + chunk.len() > self.limit {
            return Err(ReadError::FrameTooLarge { limit: self.limit });
        }
        self.tail.extend_from_slice(chunk);
        Ok(())
    }

    /// Pop the next complete frame: its raw bytes (no `\n`) and their
    /// parse. `Ok(None)` means no complete frame is buffered yet — feed
    /// more bytes.
    ///
    /// # Errors
    /// [`ReadError::Malformed`] for a complete line that is not UTF-8
    /// JSON; the line is consumed (the caller decides whether framing
    /// trust is lost, mirroring [`read_message`]'s contract).
    pub fn next_message(&mut self) -> Result<Option<(Vec<u8>, Json)>, ReadError> {
        self.complete
            .pop_front()
            .map(|line| parse_frame(&line).map(|message| (line, message)))
            .transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photomosaic::{ImageSource, MosaicConfig};

    fn sample_spec() -> JobSpec {
        JobSpec {
            input: ImageSource::Synth {
                scene: mosaic_image::synth::Scene::Portrait,
                size: 16,
                seed: 3,
            },
            target: ImageSource::Pixels {
                size: 2,
                pixels: vec![9, 8, 7, 6],
            },
            config: MosaicConfig::default(),
        }
    }

    #[test]
    fn requests_roundtrip() {
        for request in [
            Request::Submit(Box::new(sample_spec())),
            Request::Stats,
            Request::Metrics,
            Request::Ping,
            Request::Shutdown,
            Request::GatewayInfo,
            Request::Library(Box::new(LibraryJobSpec {
                target: ImageSource::Synth {
                    scene: mosaic_image::synth::Scene::Plasma,
                    size: 32,
                    seed: 1,
                },
                store: "/tmp/tiles".to_string(),
                params: Default::default(),
            })),
        ] {
            let text = request.to_json().encode();
            let back = Request::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, request);
        }
    }

    #[test]
    fn responses_roundtrip() {
        for response in [
            Response::Result {
                result: Json::obj([("x", Json::from(1u64))]),
            },
            Response::Rejected { retry_after_ms: 75 },
            Response::Stats {
                stats: Json::obj([("jobs", Json::from(2u64))]),
            },
            Response::Metrics {
                text: "# TYPE a counter\na 1\n".to_string(),
            },
            Response::Pong,
            Response::ShuttingDown,
            Response::Error {
                message: "boom".to_string(),
            },
            Response::FrameTooLarge {
                max_frame_bytes: 16 * 1024 * 1024,
            },
            Response::DeadlineExceeded { deadline_ms: 30000 },
            Response::Gateway {
                gateway: Json::obj([("backends", Json::from(2u64))]),
            },
            Response::BackendDown {
                backend: "127.0.0.1:7733".to_string(),
                retry_after_ms: 50,
            },
            Response::NoBackendAvailable { retry_after_ms: 50 },
            Response::StoreError {
                message: "store.json missing".to_string(),
            },
            Response::LibraryInfeasible {
                cells: 256,
                tiles: 40,
            },
        ] {
            let text = response.to_json().encode();
            let back = Response::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, response);
        }
    }

    /// A frame cap comfortably above every message these tests write.
    const TEST_LIMIT: usize = 64 * 1024;

    #[test]
    fn framing_roundtrips_over_a_buffer() {
        let mut wire = Vec::new();
        write_message(&mut wire, &Request::Ping.to_json()).unwrap();
        write_message(&mut wire, &Request::Stats.to_json()).unwrap();
        let mut reader = std::io::BufReader::new(wire.as_slice());
        let first = read_message(&mut reader, TEST_LIMIT).unwrap().unwrap();
        assert_eq!(Request::from_json(&first).unwrap(), Request::Ping);
        let second = read_message(&mut reader, TEST_LIMIT).unwrap().unwrap();
        assert_eq!(Request::from_json(&second).unwrap(), Request::Stats);
        assert!(
            read_message(&mut reader, TEST_LIMIT).unwrap().is_none(),
            "clean EOF"
        );
    }

    #[test]
    fn malformed_lines_are_typed_errors_and_io_errors() {
        let mut reader = std::io::BufReader::new(&b"{nope\n"[..]);
        let err = read_message(&mut reader, TEST_LIMIT).unwrap_err();
        assert!(matches!(err, ReadError::Malformed(_)), "{err:?}");
        // The io::Error conversion clients use keeps the InvalidData kind.
        let io: std::io::Error = err.into();
        assert_eq!(io.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn frame_exactly_at_the_limit_is_accepted() {
        // Payload of exactly `limit` bytes (newline excluded) must pass.
        let payload = format!("\"{}\"", "a".repeat(30));
        assert_eq!(payload.len(), 32);
        let wire = format!("{payload}\n");
        let mut reader = std::io::BufReader::new(wire.as_bytes());
        let value = read_message(&mut reader, 32).unwrap().unwrap();
        assert_eq!(value.as_str(), Some("a".repeat(30).as_str()));
    }

    #[test]
    fn frame_one_byte_over_the_limit_is_rejected() {
        let wire = "[1,2,3,4,5,6]\n"; // 13 payload bytes
        let mut reader = std::io::BufReader::new(wire.as_bytes());
        let err = read_message(&mut reader, 12).unwrap_err();
        assert!(matches!(err, ReadError::FrameTooLarge { limit: 12 }));
    }

    /// An infinite newline-free byte source that counts how much was
    /// actually pulled, so the test can prove the reader stops early.
    struct Firehose {
        served: usize,
        total: usize,
    }

    impl std::io::Read for Firehose {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.total - self.served);
            buf[..n].fill(b'a');
            self.served += n;
            Ok(n)
        }
    }

    #[test]
    fn hundred_megabyte_frame_is_rejected_with_bounded_peak_allocation() {
        const FRAME: usize = 100 * 1024 * 1024;
        const LIMIT: usize = 1024 * 1024;
        let firehose = Firehose {
            served: 0,
            total: FRAME,
        };
        let mut reader = std::io::BufReader::new(firehose);
        let err = read_message(&mut reader, LIMIT).unwrap_err();
        assert!(matches!(err, ReadError::FrameTooLarge { limit: LIMIT }));
        // The reader must bail as soon as the limit is crossed instead of
        // slurping the whole 100 MB: what was pulled off the transport is
        // the limit plus at most one BufReader refill.
        let served = reader.get_ref().served;
        assert!(
            served <= LIMIT + 64 * 1024,
            "pulled {served} bytes for a {LIMIT}-byte limit"
        );
    }

    #[test]
    fn eof_mid_frame_reads_as_eof_not_a_hang() {
        // Framing is strict: without its `\n` a frame does not exist,
        // however complete its JSON looks.
        for wire in [&b"{\"op\":\"pi"[..], &b"{\"op\":\"ping\"}"[..]] {
            let mut reader = std::io::BufReader::new(wire);
            assert!(read_message(&mut reader, TEST_LIMIT).unwrap().is_none());
        }
    }

    #[test]
    fn unknown_ops_are_rejected() {
        let v = Json::parse(r#"{"op":"dance"}"#).unwrap();
        assert!(Request::from_json(&v).is_err());
        let v = Json::parse(r#"{"kind":"dance"}"#).unwrap();
        assert!(Response::from_json(&v).is_err());
    }

    #[test]
    fn accumulator_assembles_frames_across_arbitrary_chunking() {
        let wire = b"{\"op\":\"ping\"}\n{\"op\":\"stats\"}\n{\"op\":";
        for chunk_size in 1..wire.len() {
            let mut acc = FrameAccumulator::new(TEST_LIMIT);
            for chunk in wire.chunks(chunk_size) {
                acc.extend(chunk).unwrap();
            }
            let (frame, first) = acc.next_message().unwrap().unwrap();
            assert_eq!(frame, b"{\"op\":\"ping\"}");
            assert_eq!(Request::from_json(&first), Ok(Request::Ping));
            let (_, second) = acc.next_message().unwrap().unwrap();
            assert_eq!(Request::from_json(&second), Ok(Request::Stats));
            assert!(acc.next_message().unwrap().is_none());
            assert_eq!(acc.tail, b"{\"op\":");
        }
    }

    #[test]
    fn accumulator_handles_crlf_and_several_frames_in_one_chunk() {
        let mut acc = FrameAccumulator::new(TEST_LIMIT);
        acc.extend(b"{\"op\":\"ping\"}\r\n{\"op\":\"ping\"}\r\n")
            .unwrap();
        for _ in 0..2 {
            let (frame, message) = acc.next_message().unwrap().unwrap();
            assert_eq!(frame, b"{\"op\":\"ping\"}\r", "frames are handed out raw");
            assert_eq!(Request::from_json(&message), Ok(Request::Ping));
        }
        assert!(acc.tail.is_empty() && acc.complete.is_empty());
    }

    #[test]
    fn accumulator_enforces_the_limit_before_copying() {
        let mut acc = FrameAccumulator::new(8);
        acc.extend(b"12345678").unwrap(); // exactly at the cap
        let err = acc.extend(b"9").unwrap_err();
        assert!(matches!(err, ReadError::FrameTooLarge { limit: 8 }));
        // The offending byte was never buffered.
        assert_eq!(acc.tail.len(), 8);

        // A complete frame inside one oversized chunk also trips it.
        let mut acc = FrameAccumulator::new(8);
        let err = acc.extend(b"123456789\n").unwrap_err();
        assert!(matches!(err, ReadError::FrameTooLarge { limit: 8 }));
    }

    #[test]
    fn accumulator_limit_counts_the_frame_not_the_connection() {
        // Many small frames through one connection never trip the cap;
        // only a single frame over it does.
        let mut acc = FrameAccumulator::new(16);
        for _ in 0..100 {
            acc.extend(b"{\"op\":\"ping\"}\n").unwrap();
        }
        let mut frames = 0;
        while acc.next_message().unwrap().is_some() {
            frames += 1;
        }
        assert_eq!(frames, 100);
    }

    #[test]
    fn accumulator_reports_malformed_lines() {
        let mut acc = FrameAccumulator::new(TEST_LIMIT);
        acc.extend(b"not json\n").unwrap();
        assert!(matches!(acc.next_message(), Err(ReadError::Malformed(_))));
        // Invalid UTF-8 is malformed too, not a panic.
        let mut acc = FrameAccumulator::new(TEST_LIMIT);
        acc.extend(&[0xff, 0xfe, b'\n']).unwrap();
        assert!(matches!(acc.next_message(), Err(ReadError::Malformed(_))));
    }

    #[test]
    fn accumulator_zero_limit_means_unlimited() {
        let mut acc = FrameAccumulator::new(0);
        let big = vec![b'1'; 1024 * 1024];
        acc.extend(&big).unwrap();
        acc.extend(b"\n").unwrap();
        assert!(acc.next_message().unwrap().is_some());
    }
}
