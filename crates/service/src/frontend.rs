//! The one connection front-end both binaries run.
//!
//! A front-end owns the listener and every client socket: admission,
//! strict bounded framing (a frame exists only once its `\n` has
//! arrived), idle deadlines, the typed framing and over-capacity
//! answers, and shutdown. What a frame means is the binary's
//! [`Handler`]: it answers inline ops itself and hands jobs to its own
//! executor, which answers later through the frame's [`ReplyTo`]. The
//! epoll loop (`event_loop`, linux/x86_64) and the portable threaded
//! loop below run the same contract; the latter is the oracle.

use crate::metrics::ConnectionMetrics;
use crate::protocol::{parse_frame, read_frame, ReadError, Response};
use crate::server::ServiceConfig;
use photomosaic::Json;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
use crate::epoll::{EventWaker, Poller};
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
use crate::event_loop::CompletionBoard;

/// Which connection front-end owns client sockets. The platform picks
/// the default; choosing by hand exists for the differential tests,
/// whose oracle is [`FrontEnd::Threaded`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FrontEnd {
    /// Blocking `accept()` with one handler thread per connection — the
    /// portable fallback and the differential oracle for the
    /// event-driven path.
    #[cfg_attr(not(all(target_os = "linux", target_arch = "x86_64")), default)]
    Threaded,
    /// A single nonblocking readiness loop (Linux epoll behind the
    /// audited `std::os::fd` shim) owns the listener and every client
    /// socket; complete frames are handed to the [`Handler`] and replies
    /// written back on writability. Connection capacity is bounded by
    /// memory and the fd limit, not by OS threads.
    #[cfg_attr(all(target_os = "linux", target_arch = "x86_64"), default)]
    Epoll,
}

/// A job's answer, as its executor hands it back to the front-end.
pub enum Reply {
    /// Encode this response and write it to the client.
    Response(Response),
    /// Write this wire line (JSON + `\n`) to the client verbatim.
    Line(Vec<u8>),
    /// Sever the connection with no response (injected crash: the
    /// process died mid-job, as seen from the network).
    Sever,
}

impl Reply {
    /// The bytes to write, or `None` to sever.
    pub(crate) fn into_line(self) -> Option<Vec<u8>> {
        match self {
            Reply::Response(response) => Some(response.to_line()),
            Reply::Line(line) => Some(line),
            Reply::Sever => None,
        }
    }
}

/// Where a job's [`Reply`] goes: a blocked connection thread's channel,
/// or the readiness loop's completion board. An executor cannot tell
/// the two apart.
pub struct ReplyTo(Box<dyn FnOnce(Reply) + Send>);

impl ReplyTo {
    pub(crate) fn new(deliver: impl FnOnce(Reply) + Send + 'static) -> ReplyTo {
        ReplyTo(Box::new(deliver))
    }

    /// Deliver the reply. A receiver that gave up (client gone, loop
    /// exited) is not an error; the reply is simply dropped.
    pub fn send(self, reply: Reply) {
        (self.0)(reply);
    }
}

/// The per-binary half of a front-end: what one frame means.
pub trait Handler: Send + Sync + 'static {
    /// The connection state and limits this binary's front-end enforces.
    fn connections(&self) -> &Connections;

    /// Answer one complete frame: its raw bytes (no `\n`) and their
    /// parse. Return the reply line for an inline answer; or hand
    /// `reply` to an executor that answers through it later and return
    /// `None` — the connection reads no further frame until then.
    fn handle(self: &Arc<Self>, frame: Vec<u8>, message: Json, reply: ReplyTo) -> Option<Vec<u8>>;

    /// Start this binary's graceful shutdown. Must call
    /// [`Connections::begin_shutdown`]; the front-end calls it when it
    /// cannot go on serving.
    fn begin_shutdown(&self);
}

/// Connection-level state shared by a front-end and its [`Handler`].
pub struct Connections {
    /// The per-frame cap (`usize::MAX` = unlimited).
    pub(crate) max_frame_bytes: usize,
    /// The per-connection idle deadline (None = no deadline).
    pub(crate) io_timeout: Option<Duration>,
    retry_after_ms: u64,
    faults: crate::fault::FaultPlan,
    /// Connections admitted and not yet closed, against
    /// `max_connections` (0 = unlimited).
    active: Arc<AtomicUsize>,
    max_connections: usize,
    pub(crate) metrics: ConnectionMetrics,
    shutdown: AtomicBool,
    local_addr: SocketAddr,
    /// Present when the event-driven front-end runs: shutdown wakes the
    /// loop through it instead of the accept loop's self-connect.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    board: Option<Arc<CompletionBoard>>,
}

/// One admitted connection's slot; dropping it frees the slot, however
/// the connection ends (a failed thread spawn drops it with its closure).
pub(crate) struct ConnectionPermit(Arc<AtomicUsize>);

impl Drop for ConnectionPermit {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A bound listener, ready for [`spawn`].
pub struct Listener {
    socket: TcpListener,
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    epoll: Option<(Poller, Arc<CompletionBoard>)>,
}

impl Connections {
    /// Bind `config.addr` and build the kernel objects of
    /// `config.front_end`, so setup errors surface before anything is
    /// spawned. Only the config's connection knobs matter here.
    ///
    /// # Errors
    /// Bind failures, poller creation failures, and
    /// [`FrontEnd::Epoll`] off linux/x86_64.
    pub fn bind(
        config: &ServiceConfig,
        metrics: ConnectionMetrics,
    ) -> std::io::Result<(Connections, Listener)> {
        let socket = TcpListener::bind(&config.addr)?;
        let local_addr = socket.local_addr()?;
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        let epoll = match config.front_end {
            FrontEnd::Threaded => None,
            FrontEnd::Epoll => {
                socket.set_nonblocking(true)?;
                Some((Poller::new()?, CompletionBoard::new(EventWaker::new()?)))
            }
        };
        #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
        if config.front_end == FrontEnd::Epoll {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "the epoll front-end needs linux/x86_64; use FrontEnd::Threaded",
            ));
        }
        let connections = Connections {
            max_frame_bytes: match config.max_frame_bytes {
                0 => usize::MAX,
                limit => limit,
            },
            io_timeout: (config.io_timeout_ms > 0)
                .then(|| Duration::from_millis(config.io_timeout_ms)),
            retry_after_ms: config.retry_after_ms,
            faults: config.faults.clone(),
            active: Arc::new(AtomicUsize::new(0)),
            max_connections: config.max_connections,
            metrics,
            shutdown: AtomicBool::new(false),
            local_addr,
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            board: epoll.as_ref().map(|(_, board)| Arc::clone(board)),
        };
        let listener = Listener {
            socket,
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            epoll,
        };
        Ok((connections, listener))
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Client connections currently admitted.
    pub fn open(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Whether shutdown has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Flag shutdown and wake the front-end so it closes the listener.
    /// Returns `true` for the one call that started the shutdown.
    pub fn begin_shutdown(&self) -> bool {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return false;
        }
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        if let Some(board) = &self.board {
            // The readiness loop sleeps in `epoll_wait`; its eventfd
            // waker gets it moving again.
            board.wake();
            return true;
        }
        // The accept loop sits in a blocking `accept()`; a throw-away
        // connection to ourselves wakes it so it can observe the flag.
        let _ = TcpStream::connect(self.local_addr);
        true
    }

    /// Claim a connection slot. At the cap the connection is counted as
    /// rejected and gets the standard backpressure line — or, when the
    /// fault plan fails arming its write deadline, nothing at all.
    pub(crate) fn admit(&self) -> Result<ConnectionPermit, Option<Vec<u8>>> {
        let cap = self.max_connections;
        let claim = |n: usize| (cap == 0 || n < cap).then_some(n + 1);
        if self
            .active
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, claim)
            .is_ok()
        {
            return Ok(ConnectionPermit(Arc::clone(&self.active)));
        }
        self.metrics.rejected.inc();
        Err((!self.faults.take_reject_sockopt_failure()).then(|| {
            Response::Rejected {
                retry_after_ms: self.retry_after_ms,
            }
            .to_line()
        }))
    }

    /// The last line for a connection whose framing failed, counted on
    /// the matching hardening metric: `frame_too_large`, a malformed
    /// line's `error`, or nothing for a transport failure.
    pub(crate) fn framing_failure(&self, error: ReadError) -> Option<Vec<u8>> {
        match error {
            ReadError::FrameTooLarge { limit } => {
                self.metrics.frames_too_large.inc();
                Some(
                    Response::FrameTooLarge {
                        max_frame_bytes: limit as u64,
                    }
                    .to_line(),
                )
            }
            ReadError::Malformed(problem) => Some(Response::Error { message: problem }.to_line()),
            ReadError::Io(e) => {
                // `WouldBlock` on Unix, `TimedOut` on Windows.
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) {
                    self.metrics.timed_out.inc();
                }
                None
            }
        }
    }
}

/// Start the front-end `listener` was bound for on a thread named
/// `{name}-io`; it runs until shutdown has drained.
///
/// # Errors
/// Thread spawn failure.
pub fn spawn<H: Handler>(
    listener: Listener,
    handler: Arc<H>,
    name: &str,
) -> std::io::Result<JoinHandle<()>> {
    let builder = std::thread::Builder::new().name(format!("{name}-io"));
    let Listener {
        socket,
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        epoll,
    } = listener;
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    if let Some((poller, board)) = epoll {
        return builder.spawn(move || crate::event_loop::run(socket, poller, board, handler));
    }
    let conn_name = format!("{name}-conn");
    builder.spawn(move || accept_loop(&socket, &handler, &conn_name))
}

fn accept_loop<H: Handler>(listener: &TcpListener, handler: &Arc<H>, conn_name: &str) {
    let connections = handler.connections();
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if connections.is_shutting_down() {
                    // The wake-up connection (or a late client); drop it.
                    break;
                }
                match connections.admit() {
                    Ok(permit) => {
                        let handler = Arc::clone(handler);
                        // Detached: it exits when its client does. A
                        // failed spawn drops the permit with the closure.
                        let _ = std::thread::Builder::new()
                            .name(conn_name.to_string())
                            .spawn(move || handle_connection(stream, &handler, permit));
                    }
                    // The rejection is written on the accept thread, so
                    // only under an armed deadline: one slow rejected
                    // client must not wedge every future accept.
                    Err(Some(line)) => {
                        if stream.set_write_timeout(connections.io_timeout).is_ok() {
                            let _ = (&stream).write_all(&line);
                        }
                    }
                    Err(None) => {}
                }
            }
            Err(_) if connections.is_shutting_down() => break,
            Err(_) => continue, // transient accept error
        }
    }
}

fn handle_connection<H: Handler>(stream: TcpStream, handler: &Arc<H>, _permit: ConnectionPermit) {
    let connections = handler.connections();
    if let Some(timeout) = connections.io_timeout {
        // A slowloris client must not hold this thread forever: every
        // read and write on the socket gets a deadline.
        if stream.set_read_timeout(Some(timeout)).is_err()
            || stream.set_write_timeout(Some(timeout)).is_err()
        {
            return;
        }
    }
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    loop {
        let read = read_frame(&mut reader, connections.max_frame_bytes).and_then(|frame| {
            frame
                .map(|frame| parse_frame(&frame).map(|message| (frame, message)))
                .transpose()
        });
        let line = match read {
            Ok(Some((frame, message))) => {
                let (tx, rx) = mpsc::channel();
                let reply = ReplyTo::new(move |reply| {
                    let _ = tx.send(reply);
                });
                match handler.handle(frame, message, reply) {
                    Some(line) => line,
                    None => match rx.recv().map(Reply::into_line) {
                        Ok(Some(line)) => line,
                        Ok(None) => return,
                        Err(_) => Response::Error {
                            message: "worker dropped the job".to_string(),
                        }
                        .to_line(),
                    },
                }
            }
            Ok(None) => return, // client closed
            Err(error) => {
                // Framing is lost: answer if there is an answer, then drop.
                if let Some(line) = connections.framing_failure(error) {
                    let _ = writer.write_all(&line);
                }
                return;
            }
        };
        if writer.write_all(&line).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn connections(max_connections: usize) -> Connections {
        let config = ServiceConfig {
            max_connections,
            front_end: FrontEnd::Threaded,
            ..ServiceConfig::default()
        };
        let metrics = crate::metrics::ServiceMetrics::new().connections.clone();
        Connections::bind(&config, metrics).unwrap().0
    }

    #[test]
    fn admission_caps_counts_and_releases() {
        let capped = connections(2);
        let first = capped.admit().unwrap();
        let _second = capped.admit().unwrap();
        assert!(
            matches!(capped.admit(), Err(Some(_))),
            "full: rejection line"
        );
        assert_eq!(capped.open(), 2);
        drop(first);
        assert!(capped.admit().is_ok(), "a dropped permit frees its slot");

        let unlimited = connections(0);
        let permits: Vec<_> = (0..100).map(|_| unlimited.admit().unwrap()).collect();
        assert_eq!(unlimited.open(), 100, "0 = unlimited, but counted");
        drop(permits);
        assert_eq!(unlimited.open(), 0);
    }

    #[test]
    fn contended_admission_never_oversubscribes() {
        let capped = connections(8);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..16 {
                scope.spawn(|| {
                    for _ in 0..200 {
                        if let Ok(permit) = capped.admit() {
                            peak.fetch_max(capped.open(), Ordering::SeqCst);
                            drop(permit);
                        }
                    }
                });
            }
        });
        assert!(
            peak.load(Ordering::SeqCst) <= 8,
            "the cap was never exceeded"
        );
        assert_eq!(capped.open(), 0, "every permit was released");
    }
}
