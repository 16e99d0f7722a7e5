//! Gangs: one pool dispatch that serves a whole phased computation.
//!
//! [`ThreadPool::parallel_for`] is one lock-and-notify round trip per
//! batch. Algorithm 2 needs a barrier between ~1000 colour groups per
//! sweep, and a round trip per group costs more than the group's work.
//! [`ThreadPool::gang`] recruits its helper lanes once, for the whole
//! call, and separates the phases of the computation with an atomic
//! barrier instead of a batch.
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
//! waits at a barrier. The
//! barrier thus waits for claimed work, never for lanes to arrive: a lane
//! the pool never starts (its workers are busy with another batch, the
//! gang asked for more lanes than the pool has, or the OS refused a
//! worker spawn) claims nothing, and the lanes that did start, the
//! calling thread among them, run its share.
//!
//! # Waiting
//!
//! A lane with nothing claimable spins for [`SPIN_BUDGET`], then parks
//! on the gang's condvar. Whoever completes a phase, publishes phases,
//! closes the gang or poisons it wakes the parked lanes, and takes the
//! condvar's lock only when a lane is parked. The wake-up cannot be lost:
//! a parking lane counts itself in `sleepers` under the lock and then
//! re-checks its condition, and every waker changes the state and then
//! reads `sleepers`, all in one sequentially consistent order.
//!
//! # Panics
//!
//! A panicking ticket poisons the gang: the remaining lanes stop
//! claiming, the driver's [`Gang::run`] unwinds, and [`ThreadPool::gang`]
//! re-raises the lane's own payload on the calling thread once every
//! helper has left. The pool's workers survive and serve the next batch.

use crate::ThreadPool;
use mosaic_telemetry::{lock_unpoisoned, Counter};
use std::cell::Cell;
use std::panic::resume_unwind;
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

/// What [`Gang::run`] raises on the driver when a helper lane's ticket
/// panicked; [`ThreadPool::gang`] swaps in the lane's own payload.
struct LanePanicked;

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
    /// Set when the driver returns: helpers leave once nothing is left.
    closed: AtomicBool,
    /// Set when a ticket panicked: every lane leaves.
    poisoned: AtomicBool,
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
    /// [`claim`](Self::claim) fails.
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
            if self.done.load(SeqCst) < phase_start {
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

    /// Run one claimed ticket and count it done; completing a phase
    /// wakes the parked lanes.
    fn execute(&self, work: Work<'_>, ticket: Ticket) {
        let poison = PoisonOnUnwind(self);
        work(ticket.phase, ticket.chunk);
        std::mem::forget(poison);
        if self.done.fetch_add(1, SeqCst) + 1 == ticket.phase_end {
            self.wake_all();
        }
    }

    /// Work as a lane until `finished` holds (or the gang is poisoned).
    fn serve(&self, work: Work<'_>, finished: impl Fn(&Self) -> bool) {
        loop {
            if let Some(ticket) = self.claim() {
                self.execute(work, ticket);
                continue;
            }
            if finished(self) || self.poisoned.load(SeqCst) {
                return;
            }
            self.wait_until(|| {
                self.open_ticket().is_some() || finished(self) || self.poisoned.load(SeqCst)
            });
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

/// Poisons the gang if the ticket it guards unwinds.
struct PoisonOnUnwind<'a>(&'a GangState);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        self.0.poisoned.store(true, SeqCst);
        self.0.wake_all();
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
    /// Unwinds when a ticket panics, on this thread or on a helper lane.
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
        state.serve(self.work, |state| state.done.load(SeqCst) >= end);
        if state.poisoned.load(SeqCst) {
            resume_unwind(Box::new(LanePanicked));
        }
    }
}

impl ThreadPool {
    /// Run a phased computation on up to `lanes` lanes with one pool
    /// dispatch: the calling thread plus at most `lanes - 1` pool workers,
    /// recruited once for the whole call.
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
    /// Panics when `lanes` is zero. A panic in `work` or `driver` ends
    /// the gang and is re-raised here once every helper lane has left; a
    /// panic in `work` on a helper re-raises that lane's payload.
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
            closed: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
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
        if helpers == 0 {
            return driver(&gang);
        }
        let helper = |_lane: usize| state.serve(&work, GangState::is_closed);
        let (outcome, lane_panic) = self.dispatch(helpers, &helper, || {
            let _close = CloseOnDrop(&state);
            driver(&gang)
        });
        match (outcome, lane_panic) {
            (Ok(value), None) => value,
            (Ok(_), Some(lane)) => resume_unwind(lane),
            (Err(panic), Some(lane)) if panic.is::<LanePanicked>() => resume_unwind(lane),
            (Err(panic), _) => resume_unwind(panic),
        }
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
