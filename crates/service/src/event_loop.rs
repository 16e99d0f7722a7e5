//! Event-driven connection front-end: one thread, every socket.
//!
//! The readiness loop owns the listener and all client sockets. It
//! performs bounded incremental framing on per-connection buffers
//! ([`crate::protocol::FrameAccumulator`], enforcing `max_frame_bytes`
//! before any copy), hands every complete frame to the binary's
//! [`Handler`], and writes replies back when the socket reports
//! writable. Executors never touch a socket: they post finished replies
//! on the [`CompletionBoard`] and nudge the loop through its eventfd
//! waker.
//!
//! Connection lifecycle is level-triggered epoll. Read interest is
//! dropped while a job is in flight for a connection (one job at a time
//! per client, matching the threaded oracle's request/response rhythm)
//! and restored when the reply has been queued. Meanwhile a hangup
//! closes the connection, but a half-close is only noted, so the reply
//! still goes out. Write interest exists only while the outbound buffer
//! is non-empty, so an idle connection costs a hash-map entry and a
//! kernel watch — no thread, no stack.
//!
//! Shutdown is observed as a flag plus a waker nudge: the loop closes
//! the listener immediately (later connects are refused) and keeps
//! serving already-open connections for a short linger, mirroring the
//! threaded front-end where handler threads outlive the accept loop.
//! Connections with a job still in flight are kept past the linger
//! until their reply is delivered, so queued work drains observably.

use crate::epoll::{EventWaker, Interest, Poller, Readiness};
use crate::frontend::{ConnectionPermit, Handler, Reply, ReplyTo};
use crate::protocol::FrameAccumulator;
use mosaic_telemetry::lock_unpoisoned;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Token for the listening socket.
const LISTENER_TOKEN: u64 = 0;
/// Token for the completion board's eventfd waker.
const WAKER_TOKEN: u64 = 1;
/// First token handed to a client connection.
const FIRST_CONN_TOKEN: u64 = 2;
/// How long after shutdown is observed the loop keeps serving open
/// connections, so clients that raced the shutdown still get typed
/// answers (the threaded oracle's handler threads give the same grace).
const SHUTDOWN_LINGER: Duration = Duration::from_millis(200);
/// Read chunk size per `read(2)` call on a ready socket.
const READ_CHUNK: usize = 8 * 1024;
/// Ceiling on a single poll sleep, so clock math stays in `i32` range.
const MAX_POLL_MS: u64 = 60_000;

/// Where executors post finished jobs for the loop to pick up.
///
/// `deliver` is the only cross-thread hand-off in the event-driven
/// front-end: push the reply under the mutex, release it, then wake the
/// eventfd. The wake happens strictly after the unlock so the loop never
/// contends with a waker that is still holding the list.
pub(crate) struct CompletionBoard {
    done: Mutex<Vec<(u64, Reply)>>,
    waker: EventWaker,
}

impl CompletionBoard {
    /// Wrap an eventfd waker into a shareable board.
    pub(crate) fn new(waker: EventWaker) -> Arc<CompletionBoard> {
        Arc::new(CompletionBoard {
            done: Mutex::new(Vec::new()),
            waker,
        })
    }

    /// The waker's file descriptor, for registration with the poller.
    pub(crate) fn waker_fd(&self) -> std::os::fd::RawFd {
        self.waker.fd()
    }

    /// Post one finished job and wake the loop. Called from executors.
    pub(crate) fn deliver(&self, token: u64, reply: Reply) {
        let mut done = lock_unpoisoned(&self.done);
        done.push((token, reply));
        drop(done);
        self.waker.wake();
    }

    /// Wake the loop without posting a completion (shutdown nudge).
    pub(crate) fn wake(&self) {
        self.waker.wake();
    }

    /// Reset the eventfd counter after its readiness fired.
    fn drain_waker(&self) {
        self.waker.drain();
    }

    /// Take everything posted since the last call.
    fn take_completions(&self) -> Vec<(u64, Reply)> {
        std::mem::take(&mut *lock_unpoisoned(&self.done))
    }
}

/// Per-connection state owned by the loop.
struct Conn {
    stream: TcpStream,
    /// `None` for a doomed over-capacity connection that only exists to
    /// flush its rejection line; dropping the permit frees its slot.
    permit: Option<ConnectionPermit>,
    frames: FrameAccumulator,
    /// Outbound bytes not yet accepted by the kernel.
    out: Vec<u8>,
    out_from: usize,
    /// Close once `out` is fully flushed (rejections, framing errors,
    /// post-shutdown linger expiry).
    close_after_flush: bool,
    /// A job is in flight for this connection; reads are paused.
    busy: bool,
    /// Framing trust is lost: stop reading, flush what is queued.
    dead_input: bool,
    /// The peer shut its sending side while reads were paused; the EOF
    /// is read once they resume.
    half_closed: bool,
    last_activity: Instant,
    /// Interest currently registered with the poller, to skip
    /// redundant `EPOLL_CTL_MOD` calls.
    interest: Interest,
}

impl Conn {
    fn pending_out(&self) -> bool {
        self.out_from < self.out.len()
    }

    fn wants_read(&self) -> bool {
        !self.busy && !self.dead_input && !self.close_after_flush
    }

    fn wants(&self) -> Interest {
        Interest {
            read: self.wants_read(),
            write: self.pending_out(),
            half_close: self.busy && !self.dead_input && !self.half_closed,
        }
    }
}

/// Run the event-driven front-end until shutdown has drained. Consumes
/// the (already nonblocking) listener; the poller and board were built
/// by `Connections::bind` so their creation errors surface to the
/// binary's `start`.
pub(crate) fn run<H: Handler>(
    listener: TcpListener,
    poller: Poller,
    board: Arc<CompletionBoard>,
    handler: Arc<H>,
) {
    if poller
        .add(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)
        .is_err()
        || poller
            .add(board.waker_fd(), WAKER_TOKEN, Interest::READ)
            .is_err()
    {
        // Without a working poller the binary cannot serve; go dark the
        // visible way (listener drops, connects are refused) instead of
        // hanging silently.
        handler.begin_shutdown();
        return;
    }
    let mut driver = EventLoop {
        handler,
        poller,
        board,
        listener: Some(listener),
        conns: HashMap::new(),
        next_token: FIRST_CONN_TOKEN,
        drain_deadline: None,
    };
    driver.run();
}

struct EventLoop<H> {
    handler: Arc<H>,
    poller: Poller,
    board: Arc<CompletionBoard>,
    /// Dropped (closing the socket) the moment shutdown is observed.
    listener: Option<TcpListener>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Set when shutdown is observed: serve open connections until this
    /// instant, then force the stragglers out.
    drain_deadline: Option<Instant>,
}

impl<H: Handler> EventLoop<H> {
    fn run(&mut self) {
        let mut events: Vec<Readiness> = Vec::new();
        loop {
            let timeout = self.poll_timeout(Instant::now());
            if self.poller.wait(timeout, &mut events).is_err() {
                // An unusable poller is unrecoverable; drain and exit.
                self.handler.begin_shutdown();
            }
            self.handler.connections().metrics.wakeups.inc();
            let now = Instant::now();
            for &ev in &events {
                match ev.token {
                    WAKER_TOKEN => self.board.drain_waker(),
                    LISTENER_TOKEN => self.accept_ready(now),
                    token => self.conn_ready(token, ev, now),
                }
            }
            self.apply_completions(now);
            self.observe_shutdown(now);
            self.sweep_idle(now);
            if self.drain_deadline.is_some_and(|d| Instant::now() >= d) && self.conns.is_empty() {
                break;
            }
        }
    }

    /// How long the next `epoll_wait` may sleep: until the nearest idle
    /// deadline among readable connections, or the shutdown linger,
    /// whichever is sooner; forever when nothing is timed.
    fn poll_timeout(&self, now: Instant) -> i32 {
        let mut next_ms: Option<u64> = None;
        let mut consider = |ms: u64| {
            next_ms = Some(next_ms.map_or(ms, |cur| cur.min(ms)));
        };
        if let Some(deadline) = self.drain_deadline {
            if now < deadline {
                consider(millis_until(deadline, now));
            }
            // Past the linger the loop is purely event-driven: stray
            // connections are closed by completions or writability.
        }
        if let Some(io_timeout) = self.handler.connections().io_timeout {
            for conn in self.conns.values() {
                if conn.busy {
                    continue; // in-flight jobs answer to the job deadline
                }
                consider(millis_until(conn.last_activity + io_timeout, now));
            }
        }
        match next_ms {
            None => -1,
            // +1 rounds sub-millisecond remainders up, so the wake-up
            // lands past the deadline instead of spinning just short.
            Some(ms) => ms.saturating_add(1).min(MAX_POLL_MS) as i32,
        }
    }

    /// Accept until the backlog is dry. Over-capacity clients get the
    /// same typed rejection as from the threaded front-end, or are
    /// dropped unanswered when the fault plan fails their sockopt.
    fn accept_ready(&mut self, now: Instant) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let connections = self.handler.connections();
                    if connections.is_shutting_down() {
                        continue; // raced shutdown: drop, listener closes below
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let admission = connections.admit();
                    self.add_conn(stream, admission, now);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // Transient per-connection accept errors (ECONNABORTED
                // and friends): readiness will re-report anything real.
                Err(_) => return,
            }
        }
    }

    /// Register an admitted connection — or, for an over-capacity one,
    /// queue its backpressure line on a never-read connection that
    /// closes once the line has flushed.
    fn add_conn(
        &mut self,
        stream: TcpStream,
        admission: Result<ConnectionPermit, Option<Vec<u8>>>,
        now: Instant,
    ) {
        let (permit, out) = match admission {
            Ok(permit) => (Some(permit), Vec::new()),
            Err(Some(line)) => (None, line),
            Err(None) => return, // injected sockopt failure: drop unanswered
        };
        let doomed = permit.is_none();
        let mut conn = Conn {
            stream,
            permit,
            frames: FrameAccumulator::new(self.handler.connections().max_frame_bytes),
            out,
            out_from: 0,
            close_after_flush: doomed,
            busy: false,
            dead_input: doomed,
            half_closed: false,
            last_activity: now,
            interest: Interest::READ,
        };
        conn.interest = conn.wants();
        if doomed && (flush_conn(&mut conn, now).is_err() || !conn.pending_out()) {
            return; // fully flushed (or dead): drop closes the socket
        }
        let token = self.next_token;
        self.next_token += 1;
        if self
            .poller
            .add(conn.stream.as_raw_fd(), token, conn.interest)
            .is_err()
        {
            return; // drop: the client sees a clean close
        }
        self.conns.insert(token, conn);
    }

    /// One connection reported ready: flush first (frees buffer space
    /// and detects dead peers cheaply), then read and parse.
    fn conn_ready(&mut self, token: u64, ev: Readiness, now: Instant) {
        let mut alive = true;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if ev.writable {
                alive = flush_conn(conn, now).is_ok();
            }
            if alive && (ev.readable || ev.closed || ev.half_closed) {
                if conn.wants_read() {
                    alive = read_into_conn(conn, token, &self.handler, &self.board, now);
                } else if ev.closed {
                    // Peer hung up while reads were paused (job in
                    // flight or doomed rejection): nobody is left to
                    // receive anything we would write.
                    alive = false;
                } else if ev.half_closed {
                    // The peer only stopped sending: its reply still goes
                    // out, and the frames it sent first are answered
                    // before the EOF, as on the threaded front-end.
                    conn.half_closed = true;
                }
            }
        }
        self.settle(token, alive);
    }

    /// Apply the post-I/O disposition for one connection: close it, or
    /// reconcile its epoll interest with what it now wants.
    fn settle(&mut self, token: u64, alive: bool) {
        let (close, want, fd) = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let close = !alive || (conn.close_after_flush && !conn.pending_out() && !conn.busy);
            (close, conn.wants(), conn.stream.as_raw_fd())
        };
        if close {
            self.close(token);
            return;
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if want != conn.interest {
            if self.poller.modify(fd, token, want).is_ok() {
                conn.interest = want;
            } else {
                self.close(token);
            }
        }
    }

    /// Deliver finished jobs: un-pause the connection, queue the reply,
    /// and resume parsing any frames that arrived while it was busy.
    fn apply_completions(&mut self, now: Instant) {
        for (token, reply) in self.board.take_completions() {
            match reply.into_line() {
                None => self.close(token),
                Some(line) => {
                    let alive = {
                        let Some(conn) = self.conns.get_mut(&token) else {
                            continue;
                        };
                        conn.busy = false;
                        conn.last_activity = now;
                        conn.out.extend_from_slice(&line);
                        advance_frames(conn, token, &self.handler, &self.board, now)
                            && flush_conn(conn, now).is_ok()
                    };
                    self.settle(token, alive);
                }
            }
        }
    }

    /// First shutdown observation closes the listener and starts the
    /// linger; once the linger expires, connections stop being read and
    /// everything idle is dropped. Busy connections stay until their
    /// reply lands, so accepted work drains observably.
    fn observe_shutdown(&mut self, now: Instant) {
        if self.drain_deadline.is_none() && self.handler.connections().is_shutting_down() {
            if let Some(listener) = self.listener.take() {
                let _ = self.poller.remove(listener.as_raw_fd());
                // dropping the listener closes it: connects now refused
            }
            self.drain_deadline = Some(now + SHUTDOWN_LINGER);
        }
        let Some(deadline) = self.drain_deadline else {
            return;
        };
        if now < deadline {
            return;
        }
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.dead_input = true;
                conn.close_after_flush = true;
            }
            self.settle(token, true);
        }
    }

    /// Close connections idle past the I/O timeout — the slowloris
    /// defense the threaded front-end gets from `set_read_timeout`.
    fn sweep_idle(&mut self, now: Instant) {
        let connections = self.handler.connections();
        let Some(io_timeout) = connections.io_timeout else {
            return;
        };
        let expired: Vec<(u64, bool)> = self
            .conns
            .iter()
            .filter(|(_, c)| !c.busy && now.duration_since(c.last_activity) >= io_timeout)
            .map(|(&t, c)| (t, c.permit.is_some() && !c.close_after_flush))
            .collect();
        for (token, counted) in expired {
            if counted {
                self.handler.connections().metrics.timed_out.inc();
            }
            self.close(token);
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.remove(conn.stream.as_raw_fd());
            // dropping `conn` closes the socket and releases the permit
        }
    }
}

/// Drain readable bytes into the connection's frame accumulator and act
/// on every complete frame. Returns `false` when the connection is dead
/// (I/O error) and must be closed without further ceremony.
fn read_into_conn<H: Handler>(
    conn: &mut Conn,
    token: u64,
    handler: &Arc<H>,
    board: &Arc<CompletionBoard>,
    now: Instant,
) -> bool {
    let mut buf = [0u8; READ_CHUNK];
    while conn.wants_read() {
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                // Orderly EOF: the answers to complete frames still go
                // out; an unfinished frame is discarded (framing is
                // strict), exactly as the threaded loop's `read_frame`.
                conn.dead_input = true;
                conn.close_after_flush = true;
            }
            Ok(n) => {
                conn.last_activity = now;
                match conn.frames.extend(&buf[..n]) {
                    Ok(()) => {
                        if !advance_frames(conn, token, handler, board, now) {
                            return false;
                        }
                    }
                    Err(error) => fail_framing(conn, handler, error),
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    // Optimistically flush whatever the frames produced; most replies
    // fit the socket buffer and never need write interest at all.
    flush_conn(conn, now).is_ok()
}

/// Hand every complete frame buffered on the connection to the handler,
/// stopping when a job goes in flight (reads pause until it returns).
fn advance_frames<H: Handler>(
    conn: &mut Conn,
    token: u64,
    handler: &Arc<H>,
    board: &Arc<CompletionBoard>,
    now: Instant,
) -> bool {
    while !conn.busy && !conn.close_after_flush {
        let (frame, message) = match conn.frames.next_message() {
            Ok(Some(parsed)) => parsed,
            Ok(None) => break,
            Err(error) => {
                fail_framing(conn, handler, error);
                break;
            }
        };
        conn.last_activity = now;
        let board = Arc::clone(board);
        let reply = ReplyTo::new(move |reply| board.deliver(token, reply));
        match handler.handle(frame, message, reply) {
            Some(line) => conn.out.extend_from_slice(&line),
            None => conn.busy = true,
        }
    }
    true
}

/// Framing trust is lost (oversized or malformed frame): queue the
/// typed answer, stop reading, and close once it has flushed — the
/// threaded front-end's policy, line for line.
fn fail_framing<H: Handler>(conn: &mut Conn, handler: &Arc<H>, error: crate::protocol::ReadError) {
    if let Some(line) = handler.connections().framing_failure(error) {
        conn.out.extend_from_slice(&line);
    }
    conn.dead_input = true;
    conn.close_after_flush = true;
}

/// Write as much buffered output as the kernel will take. `Err` means
/// the connection is dead. Fully flushed buffers are reset so a
/// long-lived connection does not accrete capacity.
fn flush_conn(conn: &mut Conn, now: Instant) -> Result<(), ()> {
    while conn.pending_out() {
        match conn.stream.write(&conn.out[conn.out_from..]) {
            Ok(0) => return Err(()),
            Ok(n) => {
                conn.out_from += n;
                conn.last_activity = now;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
    }
    conn.out.clear();
    conn.out_from = 0;
    Ok(())
}

/// Whole milliseconds until `deadline`, saturating at zero.
fn millis_until(deadline: Instant, now: Instant) -> u64 {
    u64::try_from(deadline.saturating_duration_since(now).as_millis()).unwrap_or(u64::MAX)
}
