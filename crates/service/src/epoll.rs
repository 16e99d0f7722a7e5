//! A thin, audited epoll + eventfd shim for the event-driven front-end.
//!
//! The workspace is std-only and offline, so there is no `libc` crate to
//! lean on; this module is the one place the service crate talks to the
//! kernel directly. The surface is deliberately tiny — five syscalls
//! (`epoll_create1`, `epoll_ctl`, `epoll_wait`, `eventfd2`, `close`,
//! plus `read`/`write` on the eventfd) wrapped behind two safe types:
//!
//! * [`Poller`] — owns an epoll instance; registers/modifies/removes
//!   file descriptors (obtained from `std::os::fd::AsRawFd` on std
//!   sockets) and waits for readiness, translating `epoll_event` masks
//!   into the [`Readiness`] struct the event loop consumes.
//! * [`EventWaker`] — an eventfd the worker pool and `begin_shutdown`
//!   write to from other threads to pull the loop out of `epoll_wait`.
//!
//! SAFETY obligations (see DESIGN.md §17): every pointer handed to the
//! kernel refers to a live, correctly-sized stack location for the
//! duration of the call; file descriptors are owned by exactly one
//! wrapper and closed exactly once in `Drop`; and the x86_64 syscall
//! ABI (arguments in rdi/rsi/rdx/r10, number in rax, rcx/r11 clobbered)
//! is encoded once in [`syscall4`] and nowhere else.

use std::io;
use std::os::fd::RawFd;

// x86_64 Linux syscall numbers.
const SYS_READ: usize = 0;
const SYS_WRITE: usize = 1;
const SYS_CLOSE: usize = 3;
const SYS_EPOLL_WAIT: usize = 232;
const SYS_EPOLL_CTL: usize = 233;
const SYS_EVENTFD2: usize = 290;
const SYS_EPOLL_CREATE1: usize = 291;

const EPOLL_CLOEXEC: usize = 0o2000000;
const EFD_CLOEXEC: usize = 0o2000000;
const EFD_NONBLOCK: usize = 0o4000;

const EPOLL_CTL_ADD: usize = 1;
const EPOLL_CTL_DEL: usize = 2;
const EPOLL_CTL_MOD: usize = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

/// How many kernel events one `epoll_wait` may return. Readiness is
/// level-triggered, so anything beyond this batch is simply reported on
/// the next wait.
const MAX_EVENTS: usize = 256;

/// The kernel's `epoll_event` layout on x86_64: packed, 12 bytes.
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// Invoke a raw Linux syscall with up to four arguments, returning the
/// kernel's raw result (negative errno on failure).
///
/// # Safety
/// `nr` must name a syscall whose contract the arguments satisfy; any
/// argument interpreted as a pointer must reference live memory of the
/// size that syscall reads or writes, for the whole call.
// SAFETY: the asm block implements the documented x86_64 syscall ABI —
// number in rax, args in rdi/rsi/rdx/r10, result in rax, rcx and r11
// clobbered by the instruction — and touches nothing else.
unsafe fn syscall4(nr: usize, a1: usize, a2: usize, a3: usize, a4: usize) -> isize {
    let ret: isize;
    core::arch::asm!(
        "syscall",
        inlateout("rax") nr as isize => ret,
        in("rdi") a1,
        in("rsi") a2,
        in("rdx") a3,
        in("r10") a4,
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack),
    );
    ret
}

/// Map a raw syscall result onto `io::Result`, decoding negative errno.
fn check(ret: isize) -> io::Result<usize> {
    if ret < 0 {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret as usize)
    }
}

/// Close a file descriptor owned by a shim wrapper.
fn close_fd(fd: RawFd) {
    // SAFETY: the fd was returned by a successful epoll_create1/eventfd2
    // and each wrapper closes its fd exactly once, from Drop; close
    // takes no pointers. A failed close is unrecoverable and ignored.
    let _ = unsafe { syscall4(SYS_CLOSE, fd as usize, 0, 0, 0) };
}

/// What one registered file descriptor is ready for.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Readiness {
    /// The token the fd was registered under.
    pub token: u64,
    /// Readable (`EPOLLIN`).
    pub readable: bool,
    /// Writable (`EPOLLOUT`).
    pub writable: bool,
    /// Peer hangup or error (`EPOLLHUP` / `EPOLLERR`); reported even
    /// when the registration asked for no events.
    pub closed: bool,
    /// The peer shut down its sending side (`EPOLLRDHUP`); reported only
    /// to registrations that asked for it.
    pub half_closed: bool,
}

/// An owned epoll instance.
pub(crate) struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// Create a fresh epoll instance (close-on-exec).
    pub fn new() -> io::Result<Poller> {
        // SAFETY: epoll_create1 takes one flags word and no pointers.
        let fd = check(unsafe { syscall4(SYS_EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0) })?;
        Ok(Poller { epfd: fd as RawFd })
    }

    fn ctl(&self, op: usize, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` is a live, correctly-laid-out epoll_event for the
        // whole call; the kernel copies it before epoll_ctl returns, and
        // for EPOLL_CTL_DEL a valid pointer is passed (pre-2.6.9 ABI).
        check(unsafe {
            syscall4(
                SYS_EPOLL_CTL,
                self.epfd as usize,
                op,
                fd as usize,
                std::ptr::addr_of!(ev) as usize,
            )
        })?;
        Ok(())
    }

    /// Register `fd` under `token` with the given interest. Hangup and
    /// error readiness is always reported regardless of interest.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest.mask(), token)
    }

    /// Replace the interest set of an already-registered `fd`.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest.mask(), token)
    }

    /// Deregister `fd`. Harmless to call right before the fd is closed
    /// (closing would deregister implicitly; doing it explicitly keeps
    /// the kernel's interest list in step with the loop's own map).
    pub fn remove(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Wait up to `timeout_ms` (-1 = forever) and fill `out` with what
    /// became ready. An interrupted wait (`EINTR`) reports zero events
    /// rather than an error so callers simply loop.
    pub fn wait(&self, timeout_ms: i32, out: &mut Vec<Readiness>) -> io::Result<()> {
        out.clear();
        let mut events = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        // SAFETY: the buffer holds MAX_EVENTS epoll_event slots and
        // outlives the call; the kernel writes at most MAX_EVENTS
        // entries, as passed in the third argument.
        let waited = check(unsafe {
            syscall4(
                SYS_EPOLL_WAIT,
                self.epfd as usize,
                events.as_mut_ptr() as usize,
                MAX_EVENTS,
                timeout_ms as usize,
            )
        });
        let n = match waited {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        for ev in events.iter().take(n) {
            // Copy out of the packed struct before touching the fields.
            let (mask, token) = (ev.events, ev.data);
            out.push(Readiness {
                token,
                readable: mask & EPOLLIN != 0,
                writable: mask & EPOLLOUT != 0,
                closed: mask & (EPOLLERR | EPOLLHUP) != 0,
                half_closed: mask & EPOLLRDHUP != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        close_fd(self.epfd);
    }
}

/// What a registration wants to hear about. Hangups and errors are
/// always reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Interest {
    /// Readable (`EPOLLIN`).
    pub read: bool,
    /// Writable (`EPOLLOUT`).
    pub write: bool,
    /// Peer half-close (`EPOLLRDHUP`), for sockets whose reads are
    /// paused. It is level-triggered, so a registration that keeps it
    /// after the half-close is reported on every wait.
    pub half_close: bool,
}

impl Interest {
    /// Readable only: listeners, wakers and fresh connections.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
        half_close: false,
    };

    fn mask(self) -> u32 {
        let mut mask = 0;
        if self.read {
            mask |= EPOLLIN;
        }
        if self.write {
            mask |= EPOLLOUT;
        }
        if self.half_close {
            mask |= EPOLLRDHUP;
        }
        mask
    }
}

/// A nonblocking eventfd other threads write to to wake the event loop
/// out of `epoll_wait`. Register [`fd`](EventWaker::fd) with the poller
/// and [`drain`](EventWaker::drain) on readiness.
pub(crate) struct EventWaker {
    fd: RawFd,
}

impl EventWaker {
    /// Create the eventfd (close-on-exec, nonblocking).
    pub fn new() -> io::Result<EventWaker> {
        // SAFETY: eventfd2 takes an initial counter and a flags word,
        // no pointers.
        let fd = check(unsafe { syscall4(SYS_EVENTFD2, 0, EFD_CLOEXEC | EFD_NONBLOCK, 0, 0) })?;
        Ok(EventWaker { fd: fd as RawFd })
    }

    /// The fd to register for read readiness.
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Make the next (or current) `epoll_wait` on the registered poller
    /// return. Safe to call from any thread, any number of times.
    pub fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: writes exactly 8 bytes from a live stack u64, the size
        // eventfd requires. EAGAIN (counter saturated) means a wake-up
        // is already pending, which is all this call promises.
        let _ = unsafe {
            syscall4(
                SYS_WRITE,
                self.fd as usize,
                std::ptr::addr_of!(one) as usize,
                8,
                0,
            )
        };
    }

    /// Reset the counter so the level-triggered poller stops reporting
    /// the waker readable. Called by the loop after each wake-up.
    pub fn drain(&self) {
        let mut counter: u64 = 0;
        // SAFETY: reads exactly 8 bytes into a live stack u64, the size
        // eventfd produces. EAGAIN (nothing pending) is fine.
        let _ = unsafe {
            syscall4(
                SYS_READ,
                self.fd as usize,
                std::ptr::addr_of_mut!(counter) as usize,
                8,
                0,
            )
        };
    }
}

impl Drop for EventWaker {
    fn drop(&mut self) {
        close_fd(self.fd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn waker_readiness_round_trip() {
        let poller = Poller::new().unwrap();
        let waker = EventWaker::new().unwrap();
        poller.add(waker.fd(), 7, Interest::READ).unwrap();

        let mut out = Vec::new();
        poller.wait(0, &mut out).unwrap();
        assert!(out.is_empty(), "nothing is ready before a wake");

        waker.wake();
        waker.wake(); // coalesces: still one readiness report
        poller.wait(1000, &mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].token, 7);
        assert!(out[0].readable);
        assert!(!out[0].writable);

        waker.drain();
        poller.wait(0, &mut out).unwrap();
        assert!(out.is_empty(), "drained waker is quiet again");
    }

    #[test]
    fn socket_readable_and_interest_changes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller
            .add(server_side.as_raw_fd(), 42, Interest::READ)
            .unwrap();

        let mut out = Vec::new();
        poller.wait(0, &mut out).unwrap();
        assert!(out.is_empty());

        client.write_all(b"hi").unwrap();
        poller.wait(1000, &mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].token, 42);
        assert!(out[0].readable);

        // Pause read interest but watch for a half-close: pending bytes
        // no longer wake the poller.
        let paused = Interest {
            read: false,
            write: false,
            half_close: true,
        };
        poller.modify(server_side.as_raw_fd(), 42, paused).unwrap();
        poller.wait(0, &mut out).unwrap();
        assert!(out.is_empty(), "read interest paused");

        // The peer's close is reported as a half-close with reads paused,
        // and again on every wait until the registration drops the watch.
        drop(client);
        for _ in 0..2 {
            poller.wait(1000, &mut out).unwrap();
            assert_eq!(out.len(), 1);
            assert!(out[0].half_closed && !out[0].closed, "{:?}", out[0]);
        }
        let silent = Interest {
            half_close: false,
            ..paused
        };
        poller.modify(server_side.as_raw_fd(), 42, silent).unwrap();
        poller.wait(0, &mut out).unwrap();
        assert!(out.is_empty(), "an unwatched half-close stays quiet");

        poller.remove(server_side.as_raw_fd()).unwrap();
        poller.wait(0, &mut out).unwrap();
        assert!(out.is_empty(), "deregistered fd is silent");
    }

    #[test]
    fn writable_is_reported_for_an_empty_send_buffer() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        let write = Interest {
            read: false,
            write: true,
            half_close: false,
        };
        poller.add(client.as_raw_fd(), 1, write).unwrap();
        let mut out = Vec::new();
        poller.wait(1000, &mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].writable);
    }
}
