//! Gangs: the one way the pool runs work.
//!
//! A gang is a phased computation with a barrier between phases, run on
//! the calling thread plus helper lanes recruited once for the whole
//! call. Algorithm 2 runs ~1000 colour groups per sweep as one gang, the
//! simulated GPU runs one kernel launch per phase, and
//! [`ThreadPool::parallel_for`] is a gang of one phase.
//!
//! # Tickets, not lanes
//!
//! A gang's work is a sequence of *phases*; the driver publishes them in
//! runs of equal-sized phases ([`Gang::run`]). Every chunk of every phase
//! is one *ticket*, numbered consecutively across the whole call, and
//! tickets are claimed from one monotonic counter by whichever lane gets
//! there first. A ticket may be claimed only once every ticket of the
//! earlier phases has *completed* (the done-count has reached the
//! ticket's phase start), so a lane never holds claimed work while it
//! waits at a barrier. The barrier thus waits for claimed work, never
//! for lanes to arrive: a lane the pool never starts (its workers are
//! busy with other gangs, the gang asked for more lanes than the pool
//! has, or the OS refused a worker spawn) claims nothing, and the lanes
//! that did start, the calling thread among them, run its share.
//!
//! # Waiting
//!
//! A lane with nothing claimable spins for [`SPIN_BUDGET`], then parks
//! on the gang's condvar. Whoever completes a phase, publishes phases or
//! closes the gang wakes the parked lanes, and takes the condvar's lock
//! only when a lane is parked. The wake-up cannot be lost: a parking lane
//! counts itself in `sleepers` under the lock and then re-checks its
//! condition, and every waker changes the state and then reads
//! `sleepers`, all in one sequentially consistent order.
//!
//! # Panics
//!
//! A lane catches each ticket's panic and keeps the first payload. The
//! panicking ticket still counts as done, and claims are capped at the
//! end of its phase: the rest of that phase runs, no later phase opens,
//! and [`Gang::run`] re-raises the payload on the driver. The pool's
//! workers survive and serve the next gang.

use crate::ThreadPool;
use mosaic_telemetry::{lock_unpoisoned, Counter};
use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How long a waiting lane spins before it parks. Long enough to ride
/// out a few Algorithm 2 phases (a few microseconds each) and the
/// driver's work between sweeps; short enough that a lane waiting on a
/// descheduled peer gives its CPU back well inside one scheduler slice.
const SPIN_BUDGET: Duration = Duration::from_micros(50);

/// Spins between clock reads while a lane waits. Between reads the lane
/// also yields, so a peer sharing its CPU gets to finish its ticket.
const SPINS_PER_CLOCK_READ: u32 = 64;

/// The work function of a gang: `work(phase, chunk)`.
type Work<'a> = &'a (dyn Fn(usize, usize) + Sync);

/// A claimed ticket: the call of `work` it stands for, and the done-count
/// at which its phase is complete.
struct Ticket {
    phase: usize,
    chunk: usize,
    phase_end: usize,
}

/// Progress of one gang call, shared by all its lanes.
struct GangState {
    /// Tickets published so far.
    published: AtomicUsize,
    /// First ticket of the latest run.
    run_ticket: AtomicUsize,
    /// First phase of the latest run.
    run_phase: AtomicUsize,
    /// Chunks per phase of the latest run.
    run_chunks: AtomicUsize,
    /// Next unclaimed ticket.
    next: AtomicUsize,
    /// Tickets completed.
    done: AtomicUsize,
    /// No ticket at or past this one is claimed: the end of the first
    /// phase in which a ticket panicked (`usize::MAX` until then).
    cap: AtomicUsize,
    /// The first panicking ticket's payload, for [`Gang::run`] to raise.
    payload: Mutex<Option<Box<dyn Any + Send>>>,
    /// Set when the driver returns: helpers leave once nothing is left.
    closed: AtomicBool,
    /// Lanes parked (or about to park) on `wake`.
    sleepers: AtomicUsize,
    park: Mutex<()>,
    wake: Condvar,
    /// `pool_gang_parks_total`.
    parks: Arc<Counter>,
}

impl GangState {
    /// The next unclaimed ticket, if it is published and its phase is
    /// open.
    ///
    /// The run fields change only after every published ticket has
    /// completed, so a lane that read them across such a change holds a
    /// stale ticket number: it may see the ticket before the run's first
    /// (and reads again), and otherwise its compare-exchange in
    /// [`claim`](Self::claim) fails. `cap` is read after `done`: a
    /// ticket that panicked lowers `cap` before it counts as done, so a
    /// lane that sees its phase complete also sees the cap.
    fn open_ticket(&self) -> Option<(usize, Ticket)> {
        loop {
            let end = self.published.load(SeqCst);
            let ticket = self.next.load(SeqCst);
            if ticket >= end {
                return None;
            }
            let chunks = self.run_chunks.load(SeqCst);
            let Some(offset) = ticket.checked_sub(self.run_ticket.load(SeqCst)) else {
                continue;
            };
            let phase_start = ticket - offset % chunks;
            if self.done.load(SeqCst) < phase_start || ticket >= self.cap.load(SeqCst) {
                return None;
            }
            let claim = Ticket {
                phase: self.run_phase.load(SeqCst) + offset / chunks,
                chunk: offset % chunks,
                phase_end: phase_start + chunks,
            };
            return Some((ticket, claim));
        }
    }

    /// Claim the next ticket if it is published and its phase is open.
    fn claim(&self) -> Option<Ticket> {
        loop {
            let (ticket, claim) = self.open_ticket()?;
            if self
                .next
                .compare_exchange_weak(ticket, ticket + 1, SeqCst, SeqCst)
                .is_ok()
            {
                return Some(claim);
            }
        }
    }

    /// Run one claimed ticket and count it done, a panicking one too;
    /// completing a phase wakes the parked lanes.
    fn execute(&self, work: Work<'_>, ticket: Ticket) {
        let outcome = catch_unwind(AssertUnwindSafe(|| work(ticket.phase, ticket.chunk)));
        if let Err(payload) = outcome {
            self.cap.fetch_min(ticket.phase_end, SeqCst);
            lock_unpoisoned(&self.payload).get_or_insert(payload);
        }
        if self.done.fetch_add(1, SeqCst) + 1 == ticket.phase_end {
            self.wake_all();
        }
    }

    /// Work as a lane until `finished` holds.
    fn serve(&self, work: Work<'_>, finished: impl Fn(&Self) -> bool) {
        loop {
            if let Some(ticket) = self.claim() {
                self.execute(work, ticket);
                continue;
            }
            if finished(self) {
                return;
            }
            self.wait_until(|| self.open_ticket().is_some() || finished(self));
        }
    }

    /// Spin (yielding now and then) for [`SPIN_BUDGET`], then park until
    /// `ready` holds.
    fn wait_until(&self, ready: impl Fn() -> bool) {
        let mut spun_since: Option<Instant> = None;
        loop {
            for _ in 0..SPINS_PER_CLOCK_READ {
                if ready() {
                    return;
                }
                std::hint::spin_loop();
            }
            if spun_since.get_or_insert_with(Instant::now).elapsed() >= SPIN_BUDGET {
                break;
            }
            std::thread::yield_now();
        }
        self.parks.inc();
        let mut guard = lock_unpoisoned(&self.park);
        self.sleepers.fetch_add(1, SeqCst);
        while !ready() {
            guard = self
                .wake
                .wait(guard)
                // lint:allow(lock) Condvar::wait re-acquires internally; this is the same policy inlined
                .unwrap_or_else(PoisonError::into_inner);
        }
        self.sleepers.fetch_sub(1, SeqCst);
    }

    /// Wake every parked lane. Callers change the state first.
    fn wake_all(&self) {
        if self.sleepers.load(SeqCst) > 0 {
            drop(lock_unpoisoned(&self.park));
            self.wake.notify_all();
        }
    }

    fn is_closed(&self) -> bool {
        self.closed.load(SeqCst)
    }
}

/// Closes the gang when the driver returns or unwinds.
struct CloseOnDrop<'a>(&'a GangState);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.closed.store(true, SeqCst);
        self.0.wake_all();
    }
}

/// The driver's handle on a running gang; see [`ThreadPool::gang`].
pub struct Gang<'a> {
    state: &'a GangState,
    work: Work<'a>,
    /// Phases published so far.
    phases: Cell<usize>,
}

impl Gang<'_> {
    /// Publish `phases` more phases of `chunks` chunks each and return
    /// once all of them have completed, the calling thread working as
    /// one of the lanes. Phases are numbered across the whole gang call:
    /// the first `run` publishes phases `0..phases`, the next continues
    /// from there.
    ///
    /// # Panics
    /// When a ticket panics, on this thread or on a helper lane, the
    /// rest of its phase still runs, no later phase opens, and this
    /// re-raises that ticket's payload. A driver that catches it gets no
    /// further phases run.
    pub fn run(&self, phases: usize, chunks: usize) {
        let state = self.state;
        let first_phase = self.phases.get();
        self.phases.set(first_phase + phases);
        if phases == 0 || chunks == 0 {
            return;
        }
        // Every published ticket has completed, so no lane reads the run
        // fields while they change (see `GangState::open_ticket`).
        let first = state.published.load(SeqCst);
        state.run_ticket.store(first, SeqCst);
        state.run_phase.store(first_phase, SeqCst);
        state.run_chunks.store(chunks, SeqCst);
        let end = first + phases * chunks;
        state.published.store(end, SeqCst);
        state.wake_all();
        state.serve(self.work, |state| {
            state.done.load(SeqCst) >= end.min(state.cap.load(SeqCst))
        });
        // The cap moves only when a ticket panicked, which keeps the
        // payload's lock off every launch that did not.
        if state.cap.load(SeqCst) != usize::MAX {
            if let Some(payload) = lock_unpoisoned(&state.payload).take() {
                resume_unwind(payload);
            }
        }
    }
}

impl ThreadPool {
    /// Run a phased computation on up to `lanes` lanes: the calling
    /// thread plus at most `lanes - 1` pool workers, recruited once for
    /// the whole call.
    ///
    /// `driver` runs on the calling thread and publishes work with
    /// [`Gang::run`]. Each chunk of a published phase is one call
    /// `work(phase, chunk)` on some lane; no call of a phase starts
    /// before every call of the earlier phases has returned. The calls of
    /// one phase may run in any order and on any lane, so they must not
    /// depend on one another. Returns `driver`'s value once the helper
    /// lanes have left.
    ///
    /// # Panics
    /// Panics when `lanes` is zero. A panic in `work` reaches the driver
    /// through [`Gang::run`]; a panic in `driver` ends the gang and is
    /// re-raised here once every helper lane has left.
    pub fn gang<W, D, R>(&self, lanes: usize, work: W, driver: D) -> R
    where
        W: Fn(usize, usize) + Sync,
        D: FnOnce(&Gang<'_>) -> R,
    {
        assert!(lanes > 0, "a gang needs at least one lane");
        let state = GangState {
            published: AtomicUsize::new(0),
            run_ticket: AtomicUsize::new(0),
            run_phase: AtomicUsize::new(0),
            run_chunks: AtomicUsize::new(1),
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            cap: AtomicUsize::new(usize::MAX),
            payload: Mutex::new(None),
            closed: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
            park: Mutex::new(()),
            wake: Condvar::new(),
            parks: Arc::clone(&self.shared.metrics.gang_parks),
        };
        let gang = Gang {
            state: &state,
            work: &work,
            phases: Cell::new(0),
        };
        let helpers = (lanes - 1).min(self.threads());
        let lane = || state.serve(&work, GangState::is_closed);
        self.with_lanes(helpers, &lane, || {
            let _close = CloseOnDrop(&state);
            driver(&gang)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// No call of a phase starts before every call of the earlier
    /// phases has returned, across runs of different chunk counts.
    #[test]
    fn phases_are_ordered_and_every_chunk_runs_once() {
        let pool = ThreadPool::new(3);
        // Calls made before phase `p` starts, for the runs below.
        let before = |p: usize| match p {
            0..100 => 7 * p,
            100..150 => 700 + 3 * (p - 100),
            _ => 850 + 7 * (p - 150),
        };
        let returned = AtomicUsize::new(0);
        let seen: Vec<AtomicUsize> = (0..200 * 7).map(|_| AtomicUsize::new(0)).collect();
        pool.gang(
            4,
            |phase, chunk| {
                assert!(
                    returned.load(SeqCst) >= before(phase),
                    "phase {phase} opened early"
                );
                seen[phase * 7 + chunk].fetch_add(1, SeqCst);
                returned.fetch_add(1, SeqCst);
            },
            |gang| {
                gang.run(100, 7);
                gang.run(0, 7);
                gang.run(50, 3);
                gang.run(50, 7);
            },
        );
        assert_eq!(returned.load(SeqCst), before(200));
        for (index, count) in seen.iter().enumerate() {
            let (phase, chunk) = (index / 7, index % 7);
            let expected = usize::from(!(100..150).contains(&phase) || chunk < 3);
            assert_eq!(count.load(SeqCst), expected, "phase {phase} chunk {chunk}");
        }
    }

    #[test]
    fn single_lane_gang_runs_on_the_caller_in_order() {
        let pool = ThreadPool::new(2);
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        pool.gang(
            1,
            |phase, chunk| {
                assert_eq!(std::thread::current().id(), caller);
                lock_unpoisoned(&order).push((phase, chunk));
            },
            |gang| gang.run(2, 2),
        );
        assert_eq!(
            *lock_unpoisoned(&order),
            vec![(0, 0), (0, 1), (1, 0), (1, 1)]
        );
    }

    #[test]
    fn driver_value_is_returned() {
        let pool = ThreadPool::new(2);
        let value = pool.gang(
            2,
            |_, _| {},
            |gang| {
                gang.run(3, 2);
                42
            },
        );
        assert_eq!(value, 42);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_panics() {
        ThreadPool::new(1).gang(0, |_, _| {}, |_| {});
    }
}
