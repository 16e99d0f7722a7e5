//! Deterministic fault injection for the hardening layer.
//!
//! Two halves, both std-only:
//!
//! * [`FaultPlan`] — server-side injection, carried in
//!   `ServiceConfig::faults`. A plan can stall the first N jobs a worker
//!   picks up (simulating a pathological job pinning a worker) with a
//!   counted budget, so tests hit the per-job deadline path on exactly
//!   the jobs they intend to. For fleet scenarios a plan can instead
//!   *crash* a backend mid-job ([`FaultPlan::crash_first_jobs`]): the
//!   worker that claims a crash makes the server sever that job's
//!   connection with no response and go dark (listener closed, later
//!   connects refused), emulating a process killed mid-run — exactly
//!   what a gateway's failover and health machinery must absorb.
//! * Hostile-client helpers ([`probe_oversized_frame`],
//!   [`stalled_connection_is_closed`], [`disconnect_mid_frame`]) — each
//!   performs one scripted attack against a live server and reports what
//!   the server did, so integration tests exercise slow reads, oversized
//!   frames and mid-frame disconnects deterministically rather than by
//!   luck.
//!
//! The default plan is inert; production configs never need to mention
//! it.

use crate::protocol::{read_message, Response};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Server-side fault plan. Cloning shares the injection budget, so the
/// copy held by the server and the copy held by a test observe the same
/// countdown.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    stall_ms: u64,
    stall_budget: Arc<AtomicU64>,
    crash_budget: Arc<AtomicU64>,
    reject_sockopt_budget: Arc<AtomicU64>,
}

impl FaultPlan {
    /// The inert plan: injects nothing.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Stall each of the first `jobs` jobs picked up by workers for
    /// `stall_ms` milliseconds before execution starts, simulating a
    /// worker wedged on pathological input.
    pub fn stall_first_jobs(jobs: u64, stall_ms: u64) -> FaultPlan {
        FaultPlan {
            stall_ms,
            stall_budget: Arc::new(AtomicU64::new(jobs)),
            ..FaultPlan::default()
        }
    }

    /// Crash the server on each of the first `jobs` jobs a worker picks
    /// up: the job's connection is severed without a response and the
    /// server begins shutdown, so its listener closes and subsequent
    /// connects are refused — a process killed mid-job, as seen from the
    /// network. Jobs already accepted into the queue still drain.
    pub fn crash_first_jobs(jobs: u64) -> FaultPlan {
        FaultPlan {
            crash_budget: Arc::new(AtomicU64::new(jobs)),
            ..FaultPlan::default()
        }
    }

    /// Make arming the write deadline on each of the first `sockets`
    /// over-capacity rejection sockets fail, as a hostile kernel/socket
    /// state would. The front-end must treat that as fatal for the
    /// socket — drop it unanswered — rather than fall back to a write
    /// with no deadline that can wedge the accept path.
    pub fn fail_reject_sockopt(sockets: u64) -> FaultPlan {
        FaultPlan {
            reject_sockopt_budget: Arc::new(AtomicU64::new(sockets)),
            ..FaultPlan::default()
        }
    }

    /// Claim one rejection-socket setsockopt failure, if any remain.
    pub(crate) fn take_reject_sockopt_failure(&self) -> bool {
        claim(&self.reject_sockopt_budget)
    }

    /// How many injected crashes remain unclaimed.
    pub fn crashes_remaining(&self) -> u64 {
        self.crash_budget.load(Ordering::SeqCst)
    }

    /// Claim one crash from the budget, if the plan has any left.
    pub(crate) fn take_crash(&self) -> bool {
        claim(&self.crash_budget)
    }

    /// Claim one stall from the budget, if the plan has any left.
    pub(crate) fn take_stall(&self) -> Option<Duration> {
        if self.stall_ms == 0 {
            return None;
        }
        if claim(&self.stall_budget) {
            Some(Duration::from_millis(self.stall_ms))
        } else {
            None
        }
    }
}

/// Atomically claim one unit from a countdown budget shared by clones.
fn claim(budget: &AtomicU64) -> bool {
    let mut remaining = budget.load(Ordering::SeqCst);
    while remaining > 0 {
        match budget.compare_exchange(remaining, remaining - 1, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => return true,
            Err(actual) => remaining = actual,
        }
    }
    false
}

/// Ceiling on response frames the attack helpers are willing to read.
const PROBE_MAX_RESPONSE_BYTES: usize = 1024 * 1024;

/// Send a single newline-terminated frame of `frame_bytes` filler bytes
/// and return the server's one response, if any arrived before the
/// server closed the connection.
///
/// Used against a server whose `max_frame_bytes` is below `frame_bytes`
/// to assert the typed `frame_too_large` answer. Write errors after the
/// server gives up mid-frame are expected and swallowed — the response
/// (already buffered by the kernel) is still read afterwards.
///
/// # Errors
/// Propagates connect/read failures (but not write failures, see above).
pub fn probe_oversized_frame(
    addr: SocketAddr,
    frame_bytes: usize,
) -> std::io::Result<Option<Response>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut frame = vec![b'a'; frame_bytes];
    frame.push(b'\n');
    // The server may close its read side the moment the limit trips;
    // a failed or partial write is part of the scenario, not a test bug.
    let _ = stream.write_all(&frame);
    let _ = stream.flush();
    let mut reader = std::io::BufReader::new(stream);
    match read_message(&mut reader, PROBE_MAX_RESPONSE_BYTES) {
        Ok(Some(json)) => Ok(Response::from_json(&json).ok()),
        Ok(None) => Ok(None),
        Err(_) => Ok(None), // reset instead of a response: report "no answer"
    }
}

/// Open a connection, send `prefix` (an intentionally unfinished frame,
/// no newline), then go silent — the slowloris posture. Returns `true`
/// when the server severs the connection within `patience`, `false`
/// when the connection is still open after waiting that long.
///
/// # Errors
/// Propagates connect/setup failures.
pub fn stalled_connection_is_closed(
    addr: SocketAddr,
    prefix: &[u8],
    patience: Duration,
) -> std::io::Result<bool> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(prefix)?;
    stream.flush()?;
    stream.set_read_timeout(Some(patience))?;
    let mut sink = [0u8; 256];
    loop {
        match stream.read(&mut sink) {
            Ok(0) => return Ok(true), // orderly close
            Ok(_) => continue,        // server said something; wait for the close
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Ok(false); // patience exhausted, server kept us
            }
            Err(_) => return Ok(true), // reset also counts as severed
        }
    }
}

/// Open a connection, send `prefix` (a frame with no terminating
/// newline), and disconnect abruptly — the client vanishes mid-frame.
///
/// # Errors
/// Propagates connect/write failures.
pub fn disconnect_mid_frame(addr: SocketAddr, prefix: &[u8]) -> std::io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(prefix)?;
    stream.flush()?;
    drop(stream); // abrupt close with an unfinished frame in flight
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let plan = FaultPlan::none();
        assert!(plan.take_stall().is_none());
        assert_eq!(plan.crashes_remaining(), 0);
        assert!(!plan.take_crash());
        assert!(!plan.take_reject_sockopt_failure());
    }

    #[test]
    fn reject_sockopt_budget_counts_down_and_is_shared_by_clones() {
        let plan = FaultPlan::fail_reject_sockopt(1);
        let clone = plan.clone();
        assert!(clone.take_reject_sockopt_failure());
        assert!(!plan.take_reject_sockopt_failure());
        assert!(!clone.take_reject_sockopt_failure());
        // A sockopt plan injects neither stalls nor crashes.
        assert!(plan.take_stall().is_none());
        assert!(!plan.take_crash());
    }

    #[test]
    fn crash_budget_counts_down_and_is_shared_by_clones() {
        let plan = FaultPlan::crash_first_jobs(2);
        let clone = plan.clone();
        assert_eq!(plan.crashes_remaining(), 2);
        assert!(clone.take_crash());
        assert!(plan.take_crash());
        assert!(!plan.take_crash());
        assert_eq!(clone.crashes_remaining(), 0);
        // A crash plan injects no stalls.
        assert!(plan.take_stall().is_none());
    }

    #[test]
    fn stall_budget_counts_down_and_stops() {
        let plan = FaultPlan::stall_first_jobs(2, 30);
        assert_eq!(plan.take_stall(), Some(Duration::from_millis(30)));
        assert_eq!(plan.take_stall(), Some(Duration::from_millis(30)));
        assert_eq!(plan.take_stall(), None);
        assert_eq!(plan.take_stall(), None);
    }

    #[test]
    fn clones_share_one_budget() {
        let plan = FaultPlan::stall_first_jobs(1, 10);
        let clone = plan.clone();
        assert!(clone.take_stall().is_some());
        assert!(plan.take_stall().is_none());
        assert!(clone.take_stall().is_none());
    }

    #[test]
    fn zero_stall_ms_never_stalls_even_with_budget() {
        let plan = FaultPlan {
            stall_ms: 0,
            stall_budget: Arc::new(AtomicU64::new(5)),
            ..FaultPlan::default()
        };
        assert!(plan.take_stall().is_none());
        // The budget is not consumed: with a stall length, all 5 remain.
        let plan = FaultPlan {
            stall_ms: 10,
            ..plan
        };
        for _ in 0..5 {
            assert_eq!(plan.take_stall(), Some(Duration::from_millis(10)));
        }
        assert_eq!(plan.take_stall(), None);
    }
}
